//! §5.4 — out-of-core index construction.
//!
//! The same pipeline as [`SlingIndex::build`], with only the sort
//! swapped: the correction phase runs on `config.threads` workers as in
//! memory, then Algorithm 2's triples stream through the
//! [`ExternalSorter`] with a caller-bounded memory buffer, and its
//! globally sorted stream feeds the one index assembler (§5.2 reduction,
//! §5.3 marking) directly — at no point does the unsorted triple set
//! reside in memory. Only the `O(n)` correction factors and the final
//! arena are memory-resident, mirroring the paper's description
//! (Figure 10 sweeps the buffer size). The traversals run on one thread,
//! so the sorter sees one stream. The sorter spills into a directory of
//! its own under [`OutOfCoreConfig::temp_dir`] and removes it on every
//! return path, so concurrent builds never share run files.
//!
//! Out-of-core *querying* needs no code of its own: the mapped backend
//! in [`crate::store`] ([`crate::store::MmapHpArena`], opened by
//! [`crate::store::SharedEngine::open`] with
//! [`crate::store::Residency::Mapped`]) serves every format, keeps only
//! the `O(n)` metadata resident and reads each query's `O(1/ε)` entries
//! out of the page cache.

use std::path::PathBuf;

use sling_graph::DiGraph;

use crate::config::SlingConfig;
use crate::error::SlingError;
use crate::external_sort::ExternalSorter;
use crate::index::{assemble, SlingIndex};
use crate::local_update::reverse_hp_all;
use crate::parallel::correction_phase;

/// Options for the out-of-core builder.
#[derive(Clone, Debug)]
pub struct OutOfCoreConfig {
    /// Memory budget for the triple sort buffer, in bytes.
    pub buffer_bytes: usize,
    /// Directory (created if missing) under which each build's sorter
    /// creates a run directory of its own and removes it when done. The
    /// build adds nothing else here and removes nothing else, so many
    /// builds may share one `temp_dir`.
    pub temp_dir: PathBuf,
}

impl OutOfCoreConfig {
    /// Budget of `buffer_bytes` with run files under the system temp dir.
    pub fn with_buffer(buffer_bytes: usize) -> Self {
        OutOfCoreConfig {
            buffer_bytes,
            temp_dir: std::env::temp_dir(),
        }
    }
}

/// Build a [`SlingIndex`] with the external-sort pipeline. Produces an
/// index identical to [`SlingIndex::build`] for the same config/seed.
pub fn build_out_of_core(
    graph: &DiGraph,
    config: &SlingConfig,
    occ: &OutOfCoreConfig,
) -> Result<SlingIndex, SlingError> {
    config.validate()?;
    let (d, dk_samples) = correction_phase(graph, config)?;
    let mut sorter = ExternalSorter::new(&occ.temp_dir, occ.buffer_bytes)?;
    let mut push_err = None;
    reverse_hp_all(graph, config.sqrt_c(), config.theta, &mut |t| {
        if push_err.is_none() {
            push_err = sorter.push(t).err();
        }
    });
    if let Some(e) = push_err {
        return Err(e.into());
    }
    assemble(graph, config, d, dk_samples, sorter.into_sorted_iter()?)
}

#[cfg(test)]
mod tests {
    use super::*;
    use sling_graph::generators::barabasi_albert;

    fn cfg() -> SlingConfig {
        SlingConfig::from_epsilon(0.6, 0.1)
            .with_seed(11)
            .with_enhancement(true)
    }

    fn tmp(tag: &str) -> PathBuf {
        let p = std::env::temp_dir().join(format!("sling_ooc_test_{tag}_{}", std::process::id()));
        std::fs::create_dir_all(&p).unwrap();
        p
    }

    /// The entries of `dir`, sorted.
    fn listing(dir: &std::path::Path) -> Vec<PathBuf> {
        let mut entries: Vec<PathBuf> = std::fs::read_dir(dir)
            .unwrap()
            .map(|e| e.unwrap().path())
            .collect();
        entries.sort();
        entries
    }

    /// Out-of-core builds at 1 and 4 threads equal the in-memory build:
    /// same `d̃`, arena, §5.2 bitmap, §5.3 marks and stats, and the
    /// temp dir holds exactly what it held before.
    fn assert_matches_in_memory(g: &DiGraph, buffer_bytes: usize, tag: &str) {
        let mem = SlingIndex::build(g, &cfg()).unwrap();
        assert!(mem.stats().marked_entries > 0, "fixture must mark entries");
        for threads in [1, 4] {
            let occ = OutOfCoreConfig {
                buffer_bytes,
                temp_dir: tmp(&format!("{tag}_{threads}")),
            };
            let before = listing(&occ.temp_dir);
            let disk = build_out_of_core(g, &cfg().with_threads(threads), &occ).unwrap();
            assert_eq!(mem.d, disk.d, "threads = {threads}");
            assert_eq!(mem.hp, disk.hp, "threads = {threads}");
            assert_eq!(mem.reduced, disk.reduced, "threads = {threads}");
            assert_eq!(mem.marks, disk.marks, "threads = {threads}");
            assert_eq!(mem.stats(), disk.stats(), "threads = {threads}");
            assert_eq!(listing(&occ.temp_dir), before, "threads = {threads}");
            std::fs::remove_dir_all(&occ.temp_dir).ok();
        }
    }

    #[test]
    fn out_of_core_build_matches_in_memory_build() {
        // Tiny buffer forces many runs; result must still be identical.
        assert_matches_in_memory(&barabasi_albert(200, 3, 5).unwrap(), 4 * 1024, "small_buf");
    }

    #[test]
    fn large_buffer_single_run_also_matches() {
        assert_matches_in_memory(&barabasi_albert(150, 2, 8).unwrap(), 64 << 20, "big_buf");
    }

    /// Two builds in one process, both with the default run location,
    /// overlap: each sorts in a directory of its own, so both succeed
    /// and each equals its in-memory build byte for byte.
    #[test]
    fn concurrent_builds_keep_their_runs_apart() {
        let config = SlingConfig::from_epsilon(0.6, 0.1).with_seed(11);
        let graphs = [
            barabasi_albert(3000, 4, 1).unwrap(),
            barabasi_albert(3000, 4, 2).unwrap(),
        ];
        let start = std::sync::Barrier::new(graphs.len());
        std::thread::scope(|s| {
            for g in &graphs {
                let (config, start) = (&config, &start);
                s.spawn(move || {
                    let want = SlingIndex::build(g, config).unwrap().to_bytes();
                    start.wait();
                    let occ = OutOfCoreConfig::with_buffer(16 << 10);
                    let got = build_out_of_core(g, config, &occ).unwrap();
                    assert!(got.to_bytes() == want, "out-of-core bytes differ");
                });
            }
        });
    }

    /// A build in a caller's existing directory leaves it as it found
    /// it: its unrelated file stays and no entry is added.
    #[test]
    fn existing_temp_dir_keeps_its_files() {
        let dir = tmp("keep");
        std::fs::write(dir.join("unrelated.txt"), b"keep me").unwrap();
        let before = listing(&dir);
        let occ = OutOfCoreConfig {
            buffer_bytes: 4 * 1024,
            temp_dir: dir.clone(),
        };
        build_out_of_core(&barabasi_albert(200, 3, 5).unwrap(), &cfg(), &occ).unwrap();
        assert_eq!(listing(&dir), before);
        assert_eq!(
            std::fs::read(dir.join("unrelated.txt")).unwrap(),
            b"keep me"
        );
        std::fs::remove_dir_all(&dir).ok();
    }
}
