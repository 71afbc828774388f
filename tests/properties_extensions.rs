//! Property-based tests over the extension modules: top-k/join/dynamic
//! invariants, binary-format fuzzing, and graph-transformation laws.

use proptest::prelude::*;
use sling_simrank::core::dynamic::{DynamicConfig, DynamicSling, StalePolicy};
use sling_simrank::core::join::JoinStrategy;
use sling_simrank::core::{SlingConfig, SlingIndex};
use sling_simrank::graph::transform::{induced_subgraph, k_core, largest_wcc, transpose};
use sling_simrank::graph::traversal::{bfs_distances, Direction, UNREACHABLE};
use sling_simrank::graph::{binfmt, DiGraph, GraphBuilder, NodeId};

const C: f64 = 0.6;

fn arb_graph() -> impl Strategy<Value = DiGraph> {
    (2usize..=14).prop_flat_map(|n| {
        let edge = (0..n as u32, 0..n as u32);
        proptest::collection::vec(edge, 0..40).prop_map(move |edges| {
            let mut b = GraphBuilder::with_nodes(n);
            for (u, v) in edges {
                b.add_edge(u, v);
            }
            b.build().unwrap()
        })
    })
}

proptest! {
    #![proptest_config(ProptestConfig {
        cases: 24,
        ..ProptestConfig::default()
    })]

    /// Binary graph format: decode(encode(g)) is structurally identical,
    /// and any single-byte corruption either errors or decodes to a valid
    /// graph (never panics, never produces a malformed structure).
    #[test]
    fn binfmt_roundtrip_and_corruption(g in arb_graph(), flip in 0usize..4096, bit in 0u8..8) {
        let bytes = binfmt::to_bytes(&g);
        let back = binfmt::from_bytes(&bytes).unwrap();
        prop_assert_eq!(back.num_nodes(), g.num_nodes());
        prop_assert!(back.edges().eq(g.edges()));
        prop_assert!(back.validate());

        let mut corrupt = bytes.clone();
        if !corrupt.is_empty() {
            let pos = flip % corrupt.len();
            corrupt[pos] ^= 1 << bit;
            if let Ok(decoded) = binfmt::from_bytes(&corrupt) {
                prop_assert!(decoded.validate(), "corrupted decode must stay well-formed");
            }
        }
    }

    /// Top-k is a prefix of the full single-source ranking: scores are
    /// descending and every omitted node scores no higher than the floor.
    #[test]
    fn topk_is_a_true_prefix(g in arb_graph(), seed in 0u64..500, k in 1usize..6) {
        let idx = SlingIndex::build(&g, &SlingConfig::from_epsilon(C, 0.1).with_seed(seed)).unwrap();
        for u in g.nodes() {
            let top = idx.top_k(&g, u, k);
            prop_assert!(top.windows(2).all(|w| w[0].1 >= w[1].1));
            prop_assert!(top.len() <= k);
            let scores = idx.single_source(&g, u);
            let floor = top.last().map(|&(_, s)| s).unwrap_or(0.0);
            for v in g.nodes() {
                if v != u && !top.iter().any(|&(w, _)| w == v) {
                    prop_assert!(scores[v.index()] <= floor + 1e-12);
                }
            }
        }
    }

    /// Join output is canonical: u < v, descending scores, no duplicates,
    /// and every emitted score is >= tau.
    #[test]
    fn join_output_is_canonical(g in arb_graph(), seed in 0u64..500) {
        let idx = SlingIndex::build(&g, &SlingConfig::from_epsilon(C, 0.1).with_seed(seed)).unwrap();
        let tau = 0.05;
        for strategy in [JoinStrategy::PerSource, JoinStrategy::InvertedLists] {
            let pairs = idx.threshold_join(&g, tau, strategy).unwrap();
            prop_assert!(pairs.iter().all(|p| p.u < p.v));
            prop_assert!(pairs.iter().all(|p| p.score >= tau && p.score <= 1.0));
            prop_assert!(pairs.windows(2).all(|w| w[0].score >= w[1].score));
            let mut keys: Vec<_> = pairs.iter().map(|p| (p.u.0, p.v.0)).collect();
            let before = keys.len();
            keys.sort_unstable();
            keys.dedup();
            prop_assert_eq!(keys.len(), before);
        }
    }

    /// Dynamic wrapper under Rebuild policy always matches a from-scratch
    /// index on the mutated graph (same seed => identical answers).
    #[test]
    fn dynamic_rebuild_equals_fresh_build(
        g in arb_graph(),
        seed in 0u64..200,
        updates in proptest::collection::vec((0u32..14, 0u32..14, proptest::bool::ANY), 0..6),
    ) {
        let base = SlingConfig::from_epsilon(C, 0.1).with_seed(seed);
        let mut cfg = DynamicConfig::new(base.clone());
        cfg.policy = StalePolicy::Rebuild;
        cfg.rebuild_fraction = f64::INFINITY;
        let mut dynamic = DynamicSling::new(&g, cfg).unwrap();
        let n = g.num_nodes() as u32;
        for (u, v, insert) in updates {
            let (u, v) = (NodeId(u % n), NodeId(v % n));
            if insert {
                dynamic.insert_edge(u, v).unwrap();
            } else {
                dynamic.remove_edge(u, v).unwrap();
            }
        }
        let current = dynamic.current_graph().clone();
        let fresh = SlingIndex::build(&current, &base).unwrap();
        for u in current.nodes() {
            for v in current.nodes() {
                prop_assert_eq!(
                    dynamic.single_pair(u, v).unwrap(),
                    fresh.single_pair(&current, u, v)
                );
            }
        }
    }

    /// Transpose: distances along Out in g equal distances along In in gᵀ.
    #[test]
    fn transpose_swaps_directions(g in arb_graph(), s in 0u32..14) {
        let source = NodeId(s % g.num_nodes() as u32);
        let t = transpose(&g);
        prop_assert_eq!(
            bfs_distances(&g, source, Direction::Out),
            bfs_distances(&t, source, Direction::In)
        );
        prop_assert_eq!(g.num_edges(), t.num_edges());
    }

    /// Largest WCC: all kept nodes are mutually reachable undirected, and
    /// the component is at least as large as any other component.
    #[test]
    fn largest_wcc_is_connected(g in arb_graph()) {
        let wcc = largest_wcc(&g);
        let sub = &wcc.graph;
        if sub.num_nodes() > 0 {
            let d = bfs_distances(sub, NodeId(0), Direction::Both);
            prop_assert!(d.iter().all(|&x| x != UNREACHABLE), "wcc not connected");
        }
        prop_assert!(sub.num_nodes() <= g.num_nodes());
    }

    /// k-core: every surviving node has total degree >= k inside the core.
    #[test]
    fn k_core_degree_invariant(g in arb_graph(), k in 0usize..5) {
        let core = k_core(&g, k).graph;
        for v in core.nodes() {
            prop_assert!(core.in_degree(v) + core.out_degree(v) >= k);
        }
    }

    /// Induced subgraph never invents edges and preserves endpoints.
    #[test]
    fn induced_subgraph_sound(g in arb_graph(), keep in proptest::collection::vec(0u32..14, 0..10)) {
        let keep: Vec<NodeId> = keep.into_iter().map(NodeId).collect();
        let sub = induced_subgraph(&g, &keep);
        for (u, v) in sub.graph.edges() {
            let (ou, ov) = (sub.original[u.index()], sub.original[v.index()]);
            prop_assert!(g.has_edge(ou, ov), "invented edge ({ou:?},{ov:?})");
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig {
        cases: 16,
        ..ProptestConfig::default()
    })]

    /// SLING index binary format: decode(encode) answers identically, and
    /// single-byte corruption never panics — it errors or yields an index
    /// whose answers are still finite probabilities.
    #[test]
    fn index_format_roundtrip_and_corruption(
        g in arb_graph(),
        seed in 0u64..200,
        flip in 0usize..1 << 16,
        bit in 0u8..8,
    ) {
        let idx = SlingIndex::build(&g, &SlingConfig::from_epsilon(C, 0.1).with_seed(seed)).unwrap();
        let bytes = idx.to_bytes();
        let back = SlingIndex::from_bytes(&g, &bytes).unwrap();
        for u in g.nodes() {
            for v in g.nodes() {
                prop_assert_eq!(idx.single_pair(&g, u, v), back.single_pair(&g, u, v));
            }
        }

        let mut corrupt = bytes.clone();
        if !corrupt.is_empty() {
            let pos = flip % corrupt.len();
            corrupt[pos] ^= 1 << bit;
            if let Ok(decoded) = SlingIndex::from_bytes(&g, &corrupt) {
                // Corruption in a float payload can survive decoding; the
                // query path must still produce clamped finite scores.
                let u = NodeId(0);
                for v in g.nodes() {
                    let s = decoded.single_pair(&g, u, v);
                    prop_assert!(s.is_finite() && (0.0..=1.0).contains(&s), "score {s}");
                }
            }
        }

        // Truncations must always be rejected.
        prop_assert!(SlingIndex::from_bytes(&g, &bytes[..bytes.len() / 2]).is_err());
        prop_assert!(SlingIndex::from_bytes(&g, &[]).is_err());
    }
}
