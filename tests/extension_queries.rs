//! Cross-crate integration tests for the extension query types: top-k,
//! similarity joins, dynamic maintenance, caching, and the mapped
//! out-of-core engine — all validated against the power-method ground
//! truth and against each other.

use sling_simrank::baselines::{power_simrank, top_k_pairs};
use sling_simrank::core::dynamic::{DynamicConfig, DynamicSling, StalePolicy};
use sling_simrank::core::join::JoinStrategy;
use sling_simrank::core::{
    QueryWorkspace, Residency, ShardedResultCache, SharedEngine, SlingConfig, SlingIndex,
};
use sling_simrank::graph::generators::{barabasi_albert, two_cliques_bridge, watts_strogatz};
use sling_simrank::graph::{DiGraph, NodeId};

const C: f64 = 0.6;
const EPS: f64 = 0.05;

fn build(g: &DiGraph, seed: u64) -> SlingIndex {
    SlingIndex::build(g, &SlingConfig::from_epsilon(C, EPS).with_seed(seed)).unwrap()
}

#[test]
fn topk_ranking_matches_ground_truth_up_to_eps_ties() {
    let g = two_cliques_bridge(6);
    let idx = build(&g, 1);
    let truth = power_simrank(&g, C, 60);
    for u in g.nodes() {
        let top = idx.top_k(&g, u, 5);
        // Every reported score is within eps of truth, and no unreported
        // node truly beats a reported one by more than 2*eps.
        let floor = top.last().map(|&(_, s)| s).unwrap_or(0.0);
        for &(v, s) in &top {
            let t = truth.get(u.index(), v.index());
            assert!((s - t).abs() <= EPS, "({u:?},{v:?}): {s} vs {t}");
        }
        for v in g.nodes() {
            if v == u || top.iter().any(|&(w, _)| w == v) {
                continue;
            }
            let t = truth.get(u.index(), v.index());
            assert!(
                t <= floor + 2.0 * EPS,
                "({u:?},{v:?}): unreported true score {t} above floor {floor}"
            );
        }
    }
}

#[test]
fn global_topk_join_agrees_with_ground_truth_pairs() {
    let g = two_cliques_bridge(5);
    let idx = build(&g, 2);
    let truth = power_simrank(&g, C, 60);
    let k = 8;
    let got = idx
        .top_k_join(&g, k, 1e-6, JoinStrategy::InvertedLists)
        .unwrap();
    let want = top_k_pairs(&truth, k);
    // Compare the rank-r scores within eps (exact pair sets can differ on
    // eps-ties, score sequences cannot drift).
    for (pair, &(i, j)) in got.iter().zip(&want) {
        let true_score = truth.get(i as usize, j as usize);
        assert!(
            (pair.score - true_score).abs() <= EPS,
            "{pair:?} vs true rank-mate score {true_score}"
        );
    }
}

#[test]
fn join_strategies_and_topk_consistent_on_random_graph() {
    let g = watts_strogatz(200, 3, 0.2, 5).unwrap();
    let idx = build(&g, 3);
    let tau = 0.08;
    let a = idx
        .threshold_join(&g, tau, JoinStrategy::PerSource)
        .unwrap();
    let b = idx
        .threshold_join(&g, tau, JoinStrategy::InvertedLists)
        .unwrap();
    // Counts may differ on the slack band; overlap must dominate.
    let keys = |ps: &[sling_simrank::core::join::JoinPair]| {
        ps.iter()
            .map(|p| (p.u.0, p.v.0))
            .collect::<std::collections::BTreeSet<_>>()
    };
    let (ka, kb) = (keys(&a), keys(&b));
    let shared = ka.intersection(&kb).count();
    assert!(
        shared * 10 >= ka.len().max(kb.len()) * 8,
        "strategies overlap too little: {} shared of {}/{}",
        shared,
        ka.len(),
        kb.len()
    );
}

#[test]
fn dynamic_wrapper_tracks_fresh_index_through_churn() {
    let g = barabasi_albert(120, 3, 11).unwrap();
    let mut cfg = DynamicConfig::new(SlingConfig::from_epsilon(C, EPS).with_seed(4));
    cfg.policy = StalePolicy::Rebuild;
    cfg.rebuild_fraction = f64::INFINITY;
    let mut dynamic = DynamicSling::new(&g, cfg).unwrap();
    // Apply a burst of churn.
    for i in 0..10u32 {
        dynamic.insert_edge(NodeId(i), NodeId(100 + i % 20)).ok();
        dynamic.remove_edge(NodeId(i + 1), NodeId(i)).ok();
    }
    // Fresh ground truth on the mutated graph.
    let current = dynamic.current_graph().clone();
    let truth = power_simrank(&current, C, 50);
    for (u, v) in [(0u32, 100u32), (5, 110), (50, 60)] {
        let got = dynamic.single_pair(NodeId(u), NodeId(v)).unwrap();
        let want = truth.get(u as usize, v as usize);
        assert!((got - want).abs() <= EPS, "({u},{v}): {got} vs {want}");
    }
}

#[test]
fn cached_disk_and_memory_paths_agree() {
    let g = barabasi_albert(150, 3, 13).unwrap();
    let idx = build(&g, 5);
    let dir = std::env::temp_dir().join(format!("sling_ext_test_{}", std::process::id()));
    std::fs::create_dir_all(&dir).unwrap();
    let path = dir.join("index.slng");
    idx.save(&path).unwrap();
    let mapped = SharedEngine::open(&g, &path, Residency::Mapped).unwrap();
    let cache = ShardedResultCache::with_capacity(256);
    let mut ws = QueryWorkspace::new();
    // Two rounds: the second answers every pair from the cache.
    for _round in 0..2 {
        for i in 0..40u32 {
            let (u, v) = (NodeId(i * 3 % 150), NodeId((i * 7 + 1) % 150));
            // The cache canonicalizes to (min, max) before computing.
            let (a, b) = (u.min(v), u.max(v));
            let memory = idx.single_pair(&g, a, b);
            let cached = mapped
                .single_pair_cached(&g, &mut ws, &cache, u, v)
                .unwrap();
            let disk = mapped.single_pair(&g, a, b).unwrap();
            // The file persists everything the in-memory index holds,
            // §5.3 marks included, so all three paths agree bit for bit.
            assert_eq!(memory.to_bits(), cached.to_bits(), "({u:?},{v:?}) cached");
            assert_eq!(memory.to_bits(), disk.to_bits(), "({u:?},{v:?}) mapped");
        }
    }
    assert!(cache.stats().hits >= 40);
    std::fs::remove_file(&path).ok();
}

#[test]
fn serialized_index_answers_extension_queries_identically() {
    let g = watts_strogatz(100, 2, 0.1, 9).unwrap();
    let idx = build(&g, 6);
    let restored = SlingIndex::from_bytes(&g, &idx.to_bytes()).unwrap();
    for u in [NodeId(0), NodeId(33), NodeId(99)] {
        assert_eq!(idx.top_k(&g, u, 10), restored.top_k(&g, u, 10));
    }
    let a = idx
        .threshold_join(&g, 0.05, JoinStrategy::InvertedLists)
        .unwrap();
    let b = restored
        .threshold_join(&g, 0.05, JoinStrategy::InvertedLists)
        .unwrap();
    assert_eq!(a.len(), b.len());
    for (x, y) in a.iter().zip(&b) {
        assert_eq!((x.u, x.v), (y.u, y.v));
        assert_eq!(x.score, y.score);
    }
}
