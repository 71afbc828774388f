//! Index lifecycle: versioned generations, atomic promotion, and warm
//! restart.
//!
//! The SLING index is **immutable and file-backed** by design — exactly
//! the shape the long-running astronomy services this line of work grew
//! out of (SkyServer et al.) exploited for years of uninterrupted public
//! traffic: data releases are published as immutable versioned
//! snapshots, promoted atomically, and retired on a retention schedule.
//! This module brings that operational model to the sling stack. A
//! *generation* is one fully built index (plus, optionally, a snapshot
//! of the graph it was built from) living in its own directory; a
//! *promotion* atomically repoints the `CURRENT` pointer at a verified
//! generation; serving processes (see `sling-server`) watch the pointer
//! and hot-swap engines under live traffic, so reindexing never drops a
//! request.
//!
//! ## Directory layout
//!
//! ```text
//! <root>/
//!   CURRENT            one line, "gen-NNNN\n" — the promoted generation
//!   CURRENT.tmp        transient; promotion staging (crash debris if seen)
//!   hotkeys.log        replayable traffic lines for cache warm-up
//!                      (SLNGTRACE records; legacy "<u> <v>" still parses)
//!   gen-0001/
//!     index.slng       the index payload (SLNGIDX1, SLNGIDX2 or SLNGIDX3)
//!     graph.bin        optional SLNGGRF1 graph snapshot
//!     MANIFEST         checksummed text record (see below)
//!   gen-0002/
//!     ...
//!   gen-0003.partial-<pid>/   transient; publish staging (crash debris)
//! ```
//!
//! Generation ids are monotone and never reused; `gen-NNNN` directory
//! names are zero-padded for lexicographic friendliness but any digit
//! count parses.
//!
//! ## MANIFEST format
//!
//! A small `key value` text file, checksummed with 64-bit FNV-1a (see
//! [`manifest`] for the field-by-field grammar):
//!
//! ```text
//! SLNGMANIFEST1
//! format SLNGIDX1 | SLNGIDX2 | SLNGIDX3
//! nodes <n>            edges <m>         — source-graph fingerprint
//! epsilon <ε>          c <c>   seed <s>  — build configuration
//! index_bytes <len>    index_fnv1a <hex> — payload digest
//! graph_bytes <len>    graph_fnv1a <hex> — optional snapshot digest
//! checksum <hex>                         — FNV-1a of all preceding bytes
//! ```
//!
//! ## Crash safety
//!
//! Every mutation is *stage, fsync, rename*:
//!
//! * **Publish** writes the payload into a `gen-NNNN.partial-<pid>`
//!   staging directory, fsyncs each file and the directory, then renames
//!   it to `gen-NNNN`. A crash mid-publish leaves only staging debris,
//!   which listing ignores and [`GenerationStore::gc`] sweeps.
//! * **Promote** fully verifies the target (manifest checksum *and*
//!   payload checksums), writes `CURRENT.tmp`, fsyncs, and renames it
//!   over `CURRENT`. Rename is atomic on POSIX filesystems, so at every
//!   instant — including across `kill -9` — `CURRENT` points at a valid,
//!   verified generation: the old one before the rename commits, the new
//!   one after.
//! * **GC** never touches `CURRENT`, anything newer than it, or the
//!   configured number of rollback candidates below it.
//!
//! ## Warm-up
//!
//! Before a generation goes live, [`warm_engine`] stages its pages
//! (advisory `madvise(WILLNEED)` via [`crate::store::HpStore::prefetch`]
//! on the mmap backends) and replays the store's hot-key log so the
//! §5.2 [`crate::store::RestoreCache`] and the compressed backends'
//! block caches are primed — the first post-swap requests hit warm
//! caches instead of paying cold-start latency under production
//! traffic. The log itself is operator- or pipeline-fed (checksummed
//! `SLNGTRACE` record lines, with legacy bare `<u> <v>` lines still
//! accepted; see
//! [`GenerationStore::append_hot_keys`][generation::GenerationStore::append_hot_keys]
//! and
//! [`GenerationStore::append_hot_trace`][generation::GenerationStore::append_hot_trace]):
//! the serving stack reads it but never writes it, and an absent log
//! simply skips warm-up. Keys replay in observed-frequency order, so a
//! capture fed through `append_hot_trace` warms the hottest traffic
//! first.
//!
//! ## Serving integration
//!
//! `sling-server` holds the open engine in an epoch-tagged reloadable
//! slot: in-flight requests finish on the generation they started on,
//! new requests pick up the promoted one, and the shared result cache's
//! epoch advances with the swap so a hit computed against a retired
//! index can never be served (see `ReloadableEngine` there and the
//! epoch-tagged [`crate::ShardedResultCache`] /
//! [`crate::store::RestoreCache`] here). [`crate::dynamic::DynamicSling`]
//! closes the loop: its rebuilds can publish into a [`GenerationStore`]
//! (and promote) instead of replacing the engine in place.

// Lifecycle code runs under live traffic; a panic here takes the whole
// serving process down, so fallible paths must return errors instead.
#![cfg_attr(not(test), deny(clippy::unwrap_used, clippy::expect_used))]

pub mod generation;
pub mod manifest;

pub use generation::{warm_engine, GenId, GenerationStore};
pub use manifest::{fnv1a, FileDigest, Manifest};

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::SlingConfig;
    use crate::error::SlingError;
    use crate::index::SlingIndex;
    use sling_graph::generators::{barabasi_albert, two_cliques_bridge};
    use sling_graph::NodeId;
    use std::path::PathBuf;

    fn tmp_root(tag: &str) -> PathBuf {
        let dir =
            std::env::temp_dir().join(format!("sling_lifecycle_{tag}_{}", std::process::id()));
        std::fs::remove_dir_all(&dir).ok();
        dir
    }

    fn cfg(seed: u64) -> SlingConfig {
        SlingConfig::from_epsilon(0.6, 0.1).with_seed(seed)
    }

    #[test]
    fn publish_list_promote_current_roundtrip() {
        let g = two_cliques_bridge(5);
        let idx = SlingIndex::build(&g, &cfg(7)).unwrap();
        let root = tmp_root("roundtrip");
        let store = GenerationStore::open(&root).unwrap();
        assert_eq!(store.list().unwrap(), vec![]);
        assert_eq!(store.current().unwrap(), None);

        let g1 = store.publish_index(&idx, Some(&g)).unwrap();
        assert_eq!(g1, GenId(1));
        assert_eq!(store.list().unwrap(), vec![GenId(1)]);
        // Published but not yet promoted.
        assert_eq!(store.current().unwrap(), None);

        let manifest = store.manifest(g1).unwrap();
        assert_eq!(manifest.num_nodes, g.num_nodes());
        assert_eq!(manifest.num_edges, g.num_edges());
        assert_eq!(manifest.seed, 7);
        assert!(manifest.graph.is_some());

        store.promote(g1).unwrap();
        assert_eq!(store.current().unwrap(), Some(GenId(1)));

        // The promoted generation opens and answers like the original.
        let loaded = SlingIndex::load(&g, store.index_path(g1)).unwrap();
        assert_eq!(
            loaded.single_pair(&g, NodeId(0), NodeId(1)),
            idx.single_pair(&g, NodeId(0), NodeId(1))
        );
        // And its graph snapshot round-trips with the right fingerprint.
        let snap = store.load_graph(g1).unwrap().unwrap();
        assert_eq!(snap.num_nodes(), g.num_nodes());
        assert_eq!(snap.num_edges(), g.num_edges());

        // A second publish gets the next id; promotion swaps atomically.
        let idx2 = SlingIndex::build(&g, &cfg(8)).unwrap();
        let g2 = store.publish_index(&idx2, None).unwrap();
        assert_eq!(g2, GenId(2));
        store.promote(g2).unwrap();
        assert_eq!(store.current().unwrap(), Some(GenId(2)));
        assert!(store.load_graph(g2).unwrap().is_none());
        std::fs::remove_dir_all(&root).ok();
    }

    #[test]
    fn every_format_generation_publishes_and_promotes() {
        use crate::codec::CompressOptions;
        use crate::format::FormatVersion;
        let g = two_cliques_bridge(5);
        let idx = SlingIndex::build(&g, &cfg(7)).unwrap();
        let root = tmp_root("formats");
        let store = GenerationStore::open(&root).unwrap();
        let opts = CompressOptions::default();
        for (format, bytes) in [
            (FormatVersion::V1, idx.to_bytes()),
            (FormatVersion::V2, idx.to_bytes_v2(&opts)),
            (FormatVersion::V3, idx.to_bytes_v3(&opts)),
        ] {
            let gen = store.publish_bytes(&bytes, None).unwrap();
            assert_eq!(store.manifest(gen).unwrap().format, format);
            store.promote(gen).unwrap();
            assert_eq!(store.current().unwrap(), Some(gen));
        }
        std::fs::remove_dir_all(&root).ok();
    }

    #[test]
    fn promote_refuses_corrupt_payloads() {
        let g = two_cliques_bridge(4);
        let idx = SlingIndex::build(&g, &cfg(3)).unwrap();
        let root = tmp_root("corrupt");
        let store = GenerationStore::open(&root).unwrap();
        let gen = store.publish_index(&idx, Some(&g)).unwrap();

        // Flip one payload byte: manifest() (size-only) still passes,
        // the full verify() gate behind promote() must not.
        let path = store.index_path(gen);
        let mut bytes = std::fs::read(&path).unwrap();
        let last = bytes.len() - 1;
        bytes[last] ^= 0x01;
        std::fs::write(&path, &bytes).unwrap();
        assert!(store.manifest(gen).is_ok());
        let err = store.promote(gen).unwrap_err();
        assert!(err.to_string().contains("checksum"), "{err}");
        assert_eq!(store.current().unwrap(), None, "corrupt gen was promoted");

        // Restore the byte; now a flipped manifest byte must fail the
        // cheap manifest() check already.
        bytes[last] ^= 0x01;
        std::fs::write(&path, &bytes).unwrap();
        store.promote(gen).unwrap();
        let mpath = store
            .generation_dir(gen)
            .join(super::manifest::MANIFEST_FILE);
        let mut mtext = std::fs::read(&mpath).unwrap();
        mtext[20] ^= 0x01;
        std::fs::write(&mpath, &mtext).unwrap();
        assert!(store.manifest(gen).is_err());
        std::fs::remove_dir_all(&root).ok();
    }

    #[test]
    fn interrupted_promotion_leaves_a_valid_current() {
        let g = two_cliques_bridge(4);
        let idx = SlingIndex::build(&g, &cfg(3)).unwrap();
        let root = tmp_root("interrupted");
        let store = GenerationStore::open(&root).unwrap();
        let g1 = store.publish_index(&idx, None).unwrap();
        store.promote(g1).unwrap();
        let g2 = store.publish_index(&idx, None).unwrap();

        // Simulate a crash between writing CURRENT.tmp and the rename: a
        // stray tmp file (even garbage) must not affect reads, and the
        // next promotion must simply overwrite it.
        std::fs::write(root.join("CURRENT.tmp"), b"gen-9999 torn garbage").unwrap();
        assert_eq!(
            store.current().unwrap(),
            Some(g1),
            "tmp file leaked into reads"
        );
        store.promote(g2).unwrap();
        assert_eq!(store.current().unwrap(), Some(g2));
        assert!(!root.join("CURRENT.tmp").exists(), "promotion left its tmp");

        // Simulate a crash mid-publish: a partial staging dir is ignored
        // by list() and id allocation, and gc() sweeps it.
        let debris = root.join("gen-0003.partial-12345");
        std::fs::create_dir_all(&debris).unwrap();
        std::fs::write(debris.join("index.slng"), b"half written").unwrap();
        assert_eq!(store.list().unwrap(), vec![g1, g2]);
        let g3 = store.publish_index(&idx, None).unwrap();
        assert_eq!(g3, GenId(3), "debris perturbed id allocation");
        store.gc(usize::MAX).unwrap();
        assert!(!debris.exists(), "gc left publish debris behind");
        std::fs::remove_dir_all(&root).ok();
    }

    #[test]
    fn gc_retires_old_generations_but_keeps_rollback_candidates() {
        let g = two_cliques_bridge(4);
        let idx = SlingIndex::build(&g, &cfg(3)).unwrap();
        let root = tmp_root("gc");
        let store = GenerationStore::open(&root).unwrap();
        let ids: Vec<GenId> = (0..5)
            .map(|_| store.publish_index(&idx, None).unwrap())
            .collect();
        // Nothing promoted: nothing is retired.
        assert_eq!(store.gc(0).unwrap(), vec![]);
        assert_eq!(store.list().unwrap().len(), 5);

        store.promote(ids[3]).unwrap(); // gen-0004 current; gen-0005 pending
        let removed = store.gc(1).unwrap();
        // Retired below current: 1, 2, 3; keep the newest retired (3).
        assert_eq!(removed, vec![ids[0], ids[1]]);
        assert_eq!(store.list().unwrap(), vec![ids[2], ids[3], ids[4]]);

        // Ids are never reused after GC.
        assert_eq!(store.publish_index(&idx, None).unwrap(), GenId(6));
        std::fs::remove_dir_all(&root).ok();
    }

    #[test]
    fn publish_rejects_mismatched_graph_snapshots() {
        let g = two_cliques_bridge(4);
        let other = two_cliques_bridge(5);
        let idx = SlingIndex::build(&g, &cfg(3)).unwrap();
        let root = tmp_root("mismatch");
        let store = GenerationStore::open(&root).unwrap();
        let err = store.publish_index(&idx, Some(&other)).unwrap_err();
        assert!(matches!(err, SlingError::GraphMismatch { .. }));
        assert_eq!(store.list().unwrap(), vec![], "failed publish left debris");
        std::fs::remove_dir_all(&root).ok();
    }

    #[test]
    fn hot_key_log_roundtrips_and_warms_the_engine() {
        let g = barabasi_albert(150, 3, 31).unwrap();
        let config = cfg(13).with_enhancement(true);
        let idx = SlingIndex::build(&g, &config).unwrap();
        assert!(idx.stats().reduced_nodes > 0, "fixture must reduce nodes");
        let root = tmp_root("hotkeys");
        let store = GenerationStore::open(&root).unwrap();
        assert_eq!(store.read_hot_keys(), vec![]);
        store.append_hot_keys(&[(5, 0), (0, 1), (0, 2)]).unwrap();
        store.append_hot_keys(&[(0, 1), (9999, 3)]).unwrap();
        let keys = store.read_hot_keys();
        // Frequency-ranked ((0,1) appears twice), ties newest-first,
        // deduplicated, canonicalized.
        assert_eq!(keys, vec![(0, 1), (3, 9999), (0, 2), (0, 5)]);

        let engine = crate::store::SharedEngine::from(idx.clone());
        let primed = warm_engine(&engine, &g, &keys);
        assert_eq!(primed, 3, "out-of-range pair must be skipped, not fail");
        // Warm-up populated the restore cache: hub restores are memoized.
        assert!(engine.restore_cache().resident_bytes() > 0);
        // And of course warmed answers stay bit-identical.
        assert_eq!(
            engine.single_pair(&g, NodeId(0), NodeId(1)).unwrap(),
            idx.single_pair(&g, NodeId(0), NodeId(1))
        );
        std::fs::remove_dir_all(&root).ok();
    }

    #[test]
    fn hot_key_log_mixes_trace_and_legacy_lines() {
        use crate::workload::trace::{TraceKey, TraceOutcome, TraceRecord, TraceVerb};
        let root = tmp_root("hotkeys_mixed");
        let store = GenerationStore::open(&root).unwrap();
        let log = root.join("hotkeys.log");
        // Operator-fed legacy dialect plus junk that must be ignored.
        std::fs::write(&log, "7 3\nnot a pair\n").unwrap();
        // Captured traffic: node-addressed verbs degrade to identity
        // pairs, repeated pairs accumulate frequency.
        use std::io::Write as _;
        let rec = |verb, key| TraceRecord {
            t_us: 0,
            verb,
            key,
            outcome: TraceOutcome::Ok,
            latency_us: 5,
            epoch: 3,
        };
        store
            .append_hot_trace(&[
                rec(TraceVerb::Pair, TraceKey::Pair(2, 1)),
                rec(TraceVerb::Source, TraceKey::Node(9)),
                rec(TraceVerb::Pair, TraceKey::Pair(1, 2)),
            ])
            .unwrap();
        // A bit-flipped trace line fails its checksum and is skipped.
        let mut damaged = String::new();
        crate::workload::trace::encode_record(
            &rec(TraceVerb::Pair, TraceKey::Pair(4, 5)),
            0,
            &mut damaged,
        );
        let damaged = damaged.replacen("4,5", "4,6", 1);
        std::fs::OpenOptions::new()
            .append(true)
            .open(&log)
            .unwrap()
            .write_all(damaged.as_bytes())
            .unwrap();
        // Frequency first, then recency; both dialects canonicalized.
        assert_eq!(store.read_hot_keys(), vec![(1, 2), (9, 9), (3, 7)]);
        std::fs::remove_dir_all(&root).ok();
    }

    #[test]
    fn gen_id_parsing_is_strict() {
        assert_eq!(GenId::parse("gen-0001"), Some(GenId(1)));
        assert_eq!(GenId::parse("gen-12345"), Some(GenId(12345)));
        assert_eq!(GenId(7).dir_name(), "gen-0007");
        assert_eq!(GenId::parse(&GenId(9999).dir_name()), Some(GenId(9999)));
        for bad in [
            "gen-",
            "gen-00x1",
            "gen-0001.partial-7",
            "CURRENT",
            "CURRENT.tmp",
            "hotkeys.log",
            "0001",
            "gen0001",
        ] {
            assert_eq!(GenId::parse(bad), None, "{bad:?} parsed");
        }
    }
}
