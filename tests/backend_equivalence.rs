//! Cross-backend equivalence: every query API must return identical
//! scores from the bare in-memory index and from every engine — in
//! memory, or mapped from a `SLNGIDX1`, `SLNGIDX2` or `SLNGIDX3` file —
//! including with §5.2 space reduction and §5.3 accuracy enhancement
//! enabled. Plus hardening properties for the mmap path: metadata-only
//! open, and no panic on mutated bytes.

use std::path::PathBuf;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::OnceLock;

use proptest::prelude::*;
use sling_simrank::core::codec::CompressOptions;
use sling_simrank::core::join::{JoinPair, JoinStrategy};
use sling_simrank::core::single_source::SingleSourceWorkspace;
use sling_simrank::core::topk::select_top_k;
use sling_simrank::core::{
    FormatVersion, HpStore, IndexStore, QueryWorkspace, Residency, SharedEngine, SlingConfig,
    SlingError, SlingIndex,
};
use sling_simrank::graph::generators::{barabasi_albert, erdos_renyi_directed, star_graph};
use sling_simrank::graph::{DiGraph, NodeId};

const C: f64 = 0.6;

static FILE_COUNTER: AtomicU64 = AtomicU64::new(0);

fn tmpfile(tag: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("sling_backend_eq_{}", std::process::id()));
    std::fs::create_dir_all(&dir).unwrap();
    dir.join(format!(
        "{tag}_{}.slng",
        FILE_COUNTER.fetch_add(1, Ordering::Relaxed)
    ))
}

fn bits(scores: &[f64]) -> Vec<u64> {
    scores.iter().map(|s| s.to_bits()).collect()
}

fn join_bits(pairs: &[JoinPair]) -> Vec<(NodeId, NodeId, u64)> {
    pairs
        .iter()
        .map(|p| (p.u, p.v, p.score.to_bits()))
        .collect()
}

/// Assert one engine answers **bit-identically** to the bare index on
/// single-pair, single-source, top-k, join and batch. Two rounds, so the
/// second runs against warm pages and reused workspaces.
fn assert_engine_matches_index<S: HpStore + Sync>(
    label: &str,
    idx: &SlingIndex,
    engine: &SharedEngine<S>,
    g: &DiGraph,
    pairs: &[(NodeId, NodeId)],
    sources: &[NodeId],
) {
    for round in ["cold", "warm"] {
        for &(u, v) in pairs {
            let want = idx.single_pair(g, u, v);
            let got = engine.single_pair(g, u, v).unwrap();
            assert_eq!(
                want.to_bits(),
                got.to_bits(),
                "{label} {round}: single_pair({u:?},{v:?}) {want} vs {got}"
            );
        }
        for &u in sources {
            assert_eq!(
                bits(&idx.single_source(g, u)),
                bits(&engine.single_source(g, u).unwrap()),
                "{label} {round}: single_source({u:?})"
            );
            assert_eq!(
                idx.top_k(g, u, 5),
                engine.top_k(g, u, 5).unwrap(),
                "{label} {round}: top_k({u:?})"
            );
        }
    }
    for strategy in [JoinStrategy::PerSource, JoinStrategy::InvertedLists] {
        assert_eq!(
            join_bits(&idx.threshold_join(g, 0.05, strategy).unwrap()),
            join_bits(&engine.threshold_join(g, 0.05, strategy).unwrap()),
            "{label}: join {strategy:?}"
        );
    }
    assert_eq!(
        bits(&idx.batch_single_pair(g, pairs, 3)),
        bits(&engine.batch_single_pair(g, pairs, 3).unwrap()),
        "{label}: batch"
    );
}

/// Assert the served kernels answer **bit-identically** to their
/// references on one engine, for every query type: single-pair (skew
/// dispatch, galloping merge) to the linear-merge oracle, and every
/// Algorithm 6 query on a reused workspace to `single_source_with` on a
/// fresh one. Two rounds over the same workspaces, so the second starts
/// from buffers the first has filled.
fn assert_streaming_matches_materialized<S: HpStore + Sync>(
    label: &str,
    engine: &SharedEngine<S>,
    g: &DiGraph,
    pairs: &[(NodeId, NodeId)],
    sources: &[NodeId],
) {
    let mut ws = QueryWorkspace::new();
    let mut ws_ref = QueryWorkspace::new();
    let mut ssw = SingleSourceWorkspace::new();
    let (mut scores, mut scores_ref) = (Vec::new(), Vec::new());
    // The served top-k path on one workspace and one score buffer reused
    // across every source and k, so each call starts from the previous
    // source's vector and touched set.
    let mut ssw_top = SingleSourceWorkspace::new();
    let mut top_scores = Vec::new();
    for round in 0..2 {
        let refs: Vec<Vec<f64>> = sources
            .iter()
            .map(|&u| {
                engine
                    .single_source_with(g, &mut SingleSourceWorkspace::new(), u, &mut scores_ref)
                    .unwrap();
                scores_ref.clone()
            })
            .collect();
        for k in [0, 1, 10, g.num_nodes(), usize::MAX] {
            for (&u, want) in sources.iter().zip(&refs) {
                let top = engine
                    .top_k_with(g, &mut ssw_top, &mut top_scores, u, k)
                    .unwrap();
                assert_eq!(
                    top,
                    select_top_k(want, Some(u), k),
                    "{label} round {round}: top_k_with({u:?}, {k})"
                );
                assert_eq!(
                    bits(&top_scores),
                    bits(want),
                    "{label} round {round}: top_k_with({u:?}, {k}) scores"
                );
            }
        }
        for &(u, v) in pairs {
            let streamed = engine.single_pair_with(g, &mut ws, u, v).unwrap();
            let reference = engine
                .single_pair_materialized_with(g, &mut ws_ref, u, v)
                .unwrap();
            assert_eq!(
                streamed.to_bits(),
                reference.to_bits(),
                "{label} round {round}: single_pair({u:?},{v:?}) {streamed} vs {reference}"
            );
        }
        for &u in sources {
            engine
                .single_source_with(g, &mut ssw, u, &mut scores)
                .unwrap();
            engine
                .single_source_with(g, &mut SingleSourceWorkspace::new(), u, &mut scores_ref)
                .unwrap();
            assert_eq!(
                &scores, &scores_ref,
                "{label} round {round}: single_source({u:?})"
            );
            // Top-k and the zero-slack truncated variant build on the
            // same streamed vector.
            let top = engine.top_k(g, u, 5).unwrap();
            assert_eq!(&top, &select_top_k(&scores_ref, Some(u), 5));
            let mut truncated = Vec::new();
            let residual = engine
                .single_source_truncated(g, &mut ssw, u, 0.0, &mut truncated)
                .unwrap();
            assert_eq!(residual, 0.0);
            assert_eq!(&truncated, &scores_ref);
        }
    }
    // Batches route through the same cores.
    let batch = engine.batch_single_pair(g, pairs, 3).unwrap();
    for (i, &(u, v)) in pairs.iter().enumerate() {
        let reference = engine
            .single_pair_materialized_with(g, &mut ws_ref, u, v)
            .unwrap();
        assert_eq!(batch[i].to_bits(), reference.to_bits());
    }
}

/// Strategy: random graphs from the two generator families the paper's
/// datasets resemble.
fn arb_graph() -> impl Strategy<Value = DiGraph> {
    (0usize..2, 20usize..=60, 2usize..5, 0u64..1000).prop_map(|(kind, n, k, seed)| {
        if kind == 0 {
            erdos_renyi_directed(n, n * k, seed).unwrap()
        } else {
            barabasi_albert(n, k, seed).unwrap()
        }
    })
}

proptest! {
    #![proptest_config(ProptestConfig {
        cases: 12,
        ..ProptestConfig::default()
    })]

    /// Single-pair, single-source, top-k, join, and batch answers agree
    /// bit for bit between the bare in-memory index and every engine —
    /// the in-memory engine over the same index, and every engine the
    /// one opener returns: mapped `SLNGIDX1`, lossless `SLNGIDX2` and
    /// `SLNGIDX3` conversions of the same index, and the v3 file decoded
    /// into memory — on random graphs, across the §5.2/§5.3 feature
    /// matrix. On every engine the served kernels also match their
    /// references, cold and warm.
    #[test]
    fn all_query_apis_agree_across_backends(
        g in arb_graph(),
        seed in 0u64..500,
        space_reduction in proptest::bool::ANY,
        enhance in proptest::bool::ANY,
    ) {
        let config = SlingConfig::from_epsilon(C, 0.1)
            .with_seed(seed)
            .with_space_reduction(space_reduction)
            .with_enhancement(enhance);
        let idx = SlingIndex::build(&g, &config).unwrap();
        let path = tmpfile("eq");
        idx.save(&path).unwrap();
        let v2_path = tmpfile("eq_v2");
        // Tiny blocks so entry runs straddle block boundaries.
        let opts = CompressOptions { block_entries: 32, quantize_values: false };
        idx.save_v2(&v2_path, &opts).unwrap();
        let v3_path = tmpfile("eq_v3");
        idx.save_v3(&v3_path, &opts).unwrap();

        let mem = SharedEngine::from(idx.clone());
        // Every file through the one opener: the mapped residency sniffs
        // each header and picks the backend for its format.
        let opened: Vec<(&str, SharedEngine<IndexStore>)> = [
            ("mapped-v1", &path, Residency::Mapped),
            ("mapped-v2", &v2_path, Residency::Mapped),
            ("mapped-v3", &v3_path, Residency::Mapped),
            ("decoded-v3", &v3_path, Residency::Mem),
        ]
        .into_iter()
        .map(|(label, p, residency)| (label, SharedEngine::open(&g, p, residency).unwrap()))
        .collect();
        prop_assert!(matches!(opened[0].1.store(), IndexStore::Mmap(_)));
        prop_assert!(matches!(opened[1].1.store(), IndexStore::Compressed(_)));
        prop_assert!(matches!(opened[2].1.store(), IndexStore::Compressed(_)));
        prop_assert!(matches!(opened[3].1.store(), IndexStore::Mem(_)));

        let n = g.num_nodes() as u32;
        let pairs: Vec<(NodeId, NodeId)> = (0..24u32)
            .map(|i| (NodeId((i * 7) % n), NodeId((i * 13 + 1) % n)))
            .collect();
        let sources = [NodeId(0), NodeId(n / 2), NodeId(n - 1)];
        assert_engine_matches_index("engine-mem", &idx, &mem, &g, &pairs, &sources);
        for (label, engine) in &opened {
            assert_engine_matches_index(label, &idx, engine, &g, &pairs, &sources);
        }

        // Served kernels vs their references, per
        // backend × query type, across the same §5.2/§5.3 feature
        // matrix — with hub-skewed pairs appended so the galloping merge
        // branch is exercised too.
        let hub = g.nodes().max_by_key(|&v| g.in_degree(v)).unwrap();
        let mut skewed = pairs.clone();
        skewed.extend((0..8u32).map(|i| (hub, NodeId((i * 5 + 1) % n))));
        assert_streaming_matches_materialized("engine-mem", &mem, &g, &skewed, &sources);
        for (label, engine) in &opened {
            assert_streaming_matches_materialized(label, engine, &g, &skewed, &sources);
        }

        std::fs::remove_file(&path).ok();
        std::fs::remove_file(&v2_path).ok();
        std::fs::remove_file(&v3_path).ok();
    }
}

/// Hub-versus-leaf pairs on a graph with no §5.2 reduction: the hub's
/// *stored* run dwarfs the leaves', so the merge takes the galloping
/// branch on the stored run itself — and must still be bit-identical to
/// the linear-merge oracle on every backend.
#[test]
fn skewed_stored_lists_stream_and_gallop_bit_identically() {
    // Directed star (spokes → center): the center's stored run holds an
    // entry per spoke while each spoke stores only its step-0 self
    // entry — maximal length skew, with §5.2 reduction off so the long
    // run is the hub's stored run, not a restored list.
    let g = star_graph(400);
    let config = SlingConfig::from_epsilon(C, 0.05)
        .with_seed(23)
        .with_space_reduction(false);
    let idx = SlingIndex::build(&g, &config).unwrap();
    let hub = NodeId(0);
    let hub_len = idx.stored_entries(hub).count();
    let leaf = NodeId(7);
    let leaf_len = idx.stored_entries(leaf).count();
    assert!(
        hub_len >= 8 * leaf_len.max(1),
        "fixture not skewed enough for galloping: hub {hub_len} vs leaf {leaf_len}"
    );
    let path = tmpfile("skew");
    idx.save(&path).unwrap();
    let v2_path = tmpfile("skew_v2");
    idx.save_v2(&v2_path, &CompressOptions::default()).unwrap();

    let pairs: Vec<(NodeId, NodeId)> = g
        .nodes()
        .skip(1)
        .take(64)
        .flat_map(|v| [(hub, v), (v, hub)])
        .collect();
    let sources = [hub, leaf];
    let mem = idx.into_shared_engine();
    assert_streaming_matches_materialized("mem", &mem, &g, &pairs, &sources);
    for (label, p) in [("mmap", &path), ("compressed", &v2_path)] {
        let engine = SharedEngine::open(&g, p, Residency::Mapped).unwrap();
        assert_streaming_matches_materialized(label, &engine, &g, &pairs, &sources);
    }
    std::fs::remove_file(&path).ok();
    std::fs::remove_file(&v2_path).ok();
}

/// Directed star: the center's entry run against a spoke's is the most
/// extreme length skew a graph can produce; the dispatch must stay
/// bit-identical there too.
#[test]
fn star_graph_extreme_skew_is_bit_identical() {
    let g = star_graph(400);
    let config = SlingConfig::from_epsilon(C, 0.05).with_seed(3);
    let idx = SlingIndex::build(&g, &config).unwrap();
    let pairs: Vec<(NodeId, NodeId)> = (1..40u32).map(|i| (NodeId(0), NodeId(i))).collect();
    let mem = idx.into_shared_engine();
    assert_streaming_matches_materialized("star-mem", &mem, &g, &pairs, &[NodeId(0), NodeId(7)]);
}

/// Shared corpus for the mutation property: one valid persisted index.
fn mutation_corpus() -> &'static (DiGraph, Vec<u8>) {
    static CORPUS: OnceLock<(DiGraph, Vec<u8>)> = OnceLock::new();
    CORPUS.get_or_init(|| {
        let g = barabasi_albert(40, 2, 9).unwrap();
        let config = SlingConfig::from_epsilon(C, 0.1)
            .with_seed(4)
            .with_enhancement(true);
        let idx = SlingIndex::build(&g, &config).unwrap();
        let bytes = idx.to_bytes();
        (g, bytes)
    })
}

proptest! {
    #![proptest_config(ProptestConfig {
        cases: 64,
        ..ProptestConfig::default()
    })]

    /// Bit-flip any byte of a persisted index: the mapped open either
    /// surfaces a `SlingError` or yields an engine whose answers are
    /// still finite probabilities. Nothing panics — including a flip in
    /// the magic that makes the header name another format.
    #[test]
    fn mmap_mutation_errors_or_stays_sane(flip in 0usize..1 << 20, bit in 0u8..8) {
        let (g, bytes) = mutation_corpus();
        let mut corrupt = bytes.clone();
        let pos = flip % corrupt.len();
        corrupt[pos] ^= 1 << bit;
        let path = tmpfile("mut");
        std::fs::write(&path, &corrupt).unwrap();

        match SharedEngine::open(g, &path, Residency::Mapped) {
            Err(e) => {
                // Must be a structured error, never a panic; exercise the
                // Display path too.
                let _ = e.to_string();
            }
            Ok(engine) => {
                for u in [NodeId(0), NodeId(17), NodeId(39)] {
                    match engine.single_source(g, u) {
                        Ok(scores) => {
                            prop_assert!(
                                scores.iter().all(|s| s.is_finite() && (0.0..=1.0).contains(s)),
                                "non-probability score after byte {pos} bit {bit}"
                            );
                        }
                        Err(e) => {
                            let _ = e.to_string();
                        }
                    }
                    // Ranking paths must not panic on corrupt stores
                    // either.
                    let _ = engine.top_k(g, u, 4);
                    let _ = engine.single_pair(g, u, NodeId(1));
                }
            }
        }
        std::fs::remove_file(&path).ok();
    }

    /// Any truncation of the file is rejected at open.
    #[test]
    fn mmap_truncation_always_rejected(cut_seed in 0usize..1 << 20) {
        let (g, bytes) = mutation_corpus();
        let cut = cut_seed % bytes.len(); // strictly shorter than full
        let path = tmpfile("trunc");
        std::fs::write(&path, &bytes[..cut]).unwrap();
        let err = SharedEngine::open(g, &path, Residency::Mapped);
        prop_assert!(err.is_err(), "cut at {cut} accepted");
        std::fs::remove_file(&path).ok();
    }
}

/// The opener picks the backend from the header's magic, so a v1 file
/// whose magic names another generation must fail cleanly (or answer
/// sanely), never panic.
#[test]
fn mislabeled_magic_errors_or_stays_sane() {
    let (g, bytes) = mutation_corpus();
    for version in FormatVersion::ALL {
        let mut relabeled = bytes.clone();
        relabeled[..8].copy_from_slice(version.magic());
        let path = tmpfile("relabel");
        std::fs::write(&path, &relabeled).unwrap();
        if let Ok(engine) = SharedEngine::open(g, &path, Residency::Mapped) {
            for u in [NodeId(0), NodeId(17), NodeId(39)] {
                if let Ok(scores) = engine.single_source(g, u) {
                    assert!(scores.iter().all(|s| (0.0..=1.0).contains(s)), "{version}");
                }
                let _ = engine.single_pair(g, u, NodeId(1));
            }
        }
        std::fs::remove_file(&path).ok();
    }
}

/// The mmap open must be metadata-only: corrupting the entry payload is
/// invisible to `open` (proving no full-file decode happens) while the
/// eager decoder rejects the same bytes; and the resident footprint of
/// the mapped engine stays at the `O(n)` metadata level.
#[test]
fn mmap_open_does_not_decode_the_payload() {
    let g = barabasi_albert(300, 3, 21).unwrap();
    let config = SlingConfig::from_epsilon(C, 0.05).with_seed(7);
    let idx = SlingIndex::build(&g, &config).unwrap();
    let mut bytes = idx.to_bytes();
    let len = bytes.len();
    // Poison the last HP value with NaN: eager decode must reject, the
    // metadata-only mmap open must not notice.
    bytes[len - 8..].copy_from_slice(&f64::NAN.to_bits().to_le_bytes());
    assert!(matches!(
        SlingIndex::from_bytes(&g, &bytes),
        Err(SlingError::CorruptIndex(_))
    ));
    let path = tmpfile("payload");
    std::fs::write(&path, &bytes).unwrap();
    let engine = SharedEngine::open(&g, &path, Residency::Mapped).unwrap();

    // No HpArena materialization: the engine's heap footprint is the
    // O(n) metadata, far below the in-memory index which holds the
    // O(n/eps) entry payload.
    assert!(
        engine.resident_bytes() * 2 < idx.resident_bytes(),
        "mmap engine resident {} vs in-memory {}",
        engine.resident_bytes(),
        idx.resident_bytes()
    );

    // Queries that touch the poisoned entry surface an error rather than
    // a NaN score or a panic.
    let mut saw_error = false;
    for v in g.nodes() {
        match engine.single_pair(&g, NodeId(0), v) {
            Ok(s) => assert!(s.is_finite() && (0.0..=1.0).contains(&s)),
            Err(SlingError::CorruptIndex(_)) => saw_error = true,
            Err(other) => panic!("unexpected error {other}"),
        }
    }
    assert!(saw_error, "the poisoned entry was never read");
    std::fs::remove_file(&path).ok();
}
