//! Multi-threaded equivalence: N threads hammering one shared
//! mmap-backed [`SharedEngine`] — with and without the sharded result
//! cache — must return **bit-identical** results to the serial in-memory
//! path. This is the contract the concurrent server builds on: sharing
//! an engine across threads, memoizing through the sharded cache, and
//! prefetching must never change a single output bit.

use std::sync::Arc;

use sling_core::{
    HpStore, MmapHpArena, QueryWorkspace, ShardedResultCache, SharedEngine, SlingConfig, SlingIndex,
};
use sling_graph::generators::barabasi_albert;
use sling_graph::{DiGraph, NodeId};

const THREADS: usize = 8;

/// `tag` keeps each test's index file distinct: the tests of this binary
/// run concurrently, so a shared path would race save/open/remove.
fn setup(tag: &str) -> (DiGraph, SlingIndex, std::path::PathBuf) {
    let g = barabasi_albert(250, 3, 17).unwrap();
    let config = SlingConfig::from_epsilon(0.6, 0.1)
        .with_seed(13)
        .with_enhancement(true);
    let idx = SlingIndex::build(&g, &config).unwrap();
    let dir = std::env::temp_dir().join(format!("sling_concurrent_{}", std::process::id()));
    std::fs::create_dir_all(&dir).unwrap();
    let path = dir.join(format!("index_{tag}.slng"));
    idx.save(&path).unwrap();
    (g, idx, path)
}

/// Deterministic canonical pair workload shared by every scenario.
fn pair_workload(n: u32) -> Vec<(NodeId, NodeId)> {
    (0..400u32)
        .map(|i| {
            let (a, b) = ((i * 31) % n, (i * 57 + 3) % n);
            (NodeId(a.min(b)), NodeId(a.max(b)))
        })
        .collect()
}

/// Run the workload from `THREADS` threads against a shared engine,
/// asserting each answer against the serial reference bit-for-bit.
fn hammer<S: HpStore + Sync>(
    engine: &SharedEngine<S>,
    g: &DiGraph,
    pairs: &[(NodeId, NodeId)],
    want_pairs: &[f64],
    want_topk: &[Vec<(NodeId, f64)>],
    cache: Option<&ShardedResultCache>,
) {
    std::thread::scope(|s| {
        for t in 0..THREADS {
            s.spawn(move || {
                let mut ws = QueryWorkspace::new();
                // Two rounds so the cached scenario serves hits too.
                for round in 0..2 {
                    for (i, &(u, v)) in pairs.iter().enumerate() {
                        if i % THREADS != t && round == 0 {
                            continue; // round 0: disjoint slices; round 1: full overlap
                        }
                        engine.store().prefetch(u);
                        engine.store().prefetch(v);
                        let got = match cache {
                            Some(cache) => {
                                engine.single_pair_cached(g, &mut ws, cache, u, v).unwrap()
                            }
                            None => engine.single_pair_with(g, &mut ws, u, v).unwrap(),
                        };
                        assert_eq!(
                            got.to_bits(),
                            want_pairs[i].to_bits(),
                            "pair {i} diverged on thread {t} (round {round})"
                        );
                    }
                    for (u, want) in want_topk.iter().enumerate() {
                        if u % THREADS != t {
                            continue;
                        }
                        let got = engine.top_k(g, NodeId(u as u32), 7).unwrap();
                        assert_eq!(&got, want, "top-k from {u} diverged on thread {t}");
                    }
                }
            });
        }
    });
}

#[test]
fn shared_mmap_engine_matches_serial_in_memory_bitwise() {
    let (g, idx, path) = setup("mmap_hammer");
    let n = g.num_nodes() as u32;
    let pairs = pair_workload(n);
    let want_pairs: Vec<f64> = pairs
        .iter()
        .map(|&(u, v)| idx.single_pair(&g, u, v))
        .collect();
    let want_topk: Vec<Vec<(NodeId, f64)>> =
        (0..24u32).map(|u| idx.top_k(&g, NodeId(u), 7)).collect();

    let engine = Arc::new(SharedEngine::open_mmap(&g, &path).unwrap());

    // Without the cache: pure shared-engine concurrency.
    hammer(&engine, &g, &pairs, &want_pairs, &want_topk, None);

    // With the sharded cache, including an eviction-heavy configuration.
    for (capacity, shards) in [(1 << 12, 16), (64, 4)] {
        let cache = ShardedResultCache::new(capacity, shards);
        hammer(&engine, &g, &pairs, &want_pairs, &want_topk, Some(&cache));
        let stats = cache.stats();
        assert!(stats.hits > 0, "round 1 must hit ({capacity}/{shards})");
        if capacity == 64 {
            assert!(stats.evictions > 0, "tiny cache must evict");
        }
    }
    std::fs::remove_file(&path).ok();
}

#[test]
fn owned_in_memory_engine_matches_too() {
    let (g, idx, path) = setup("owned_hammer");
    let n = g.num_nodes() as u32;
    let pairs = pair_workload(n);
    let want_pairs: Vec<f64> = pairs
        .iter()
        .map(|&(u, v)| idx.single_pair(&g, u, v))
        .collect();
    let want_topk: Vec<Vec<(NodeId, f64)>> =
        (0..24u32).map(|u| idx.top_k(&g, NodeId(u), 7)).collect();
    let engine = Arc::new(idx.into_shared_engine());
    let cache = ShardedResultCache::with_capacity(1 << 12);
    hammer(&engine, &g, &pairs, &want_pairs, &want_topk, Some(&cache));
    std::fs::remove_file(&path).ok();
}

#[test]
fn cached_batches_agree_across_backends_and_threads() {
    let (g, idx, path) = setup("batch");
    let n = g.num_nodes() as u32;
    let pairs = pair_workload(n);
    let want: Vec<f64> = pairs
        .iter()
        .map(|&(u, v)| idx.single_pair(&g, u, v))
        .collect();
    let mem = idx.into_shared_engine();
    let mmap = SharedEngine::open_mmap(&g, &path).unwrap();
    for threads in [1, THREADS] {
        let cache = ShardedResultCache::new(1 << 10, 8);
        let got_mem = mem
            .batch_single_pair_cached(&g, &pairs, threads, &cache)
            .unwrap();
        let got_mmap = mmap
            .batch_single_pair_cached(&g, &pairs, threads, &cache)
            .unwrap();
        assert_eq!(got_mem, want, "mem batch, {threads} threads");
        assert_eq!(got_mmap, want, "mmap batch, {threads} threads");
    }
    std::fs::remove_file(&path).ok();
}

#[test]
fn shared_engine_is_send_sync_and_static() {
    fn assert_bounds<T: Send + Sync + 'static>() {}
    assert_bounds::<SharedEngine<MmapHpArena>>();
    assert_bounds::<SharedEngine<sling_core::IndexStore>>();
    assert_bounds::<ShardedResultCache>();
}
