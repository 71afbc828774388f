//! Codec and `SLNGIDX2` round-trip properties: v1 ↔ v2 conversion is
//! lossless, per-block encode/decode survives adversarial run shapes
//! (max-delta ids, single-entry runs, owner boundaries), reading one run
//! of a block keeps every check a whole-block read makes, and mutated or
//! truncated v2/v3 images are rejected or answered sanely, with both
//! residencies accepting exactly the same images — mirroring the v1
//! corruption properties in `backend_equivalence.rs`.

use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::OnceLock;

use proptest::collection::vec;
use proptest::prelude::*;
use sling_simrank::core::codec::block::{
    encode_block, encode_block_with, read_block_run, run_starts, ValueMode,
};
use sling_simrank::core::codec::{CompressOptions, GlobalDict};
use sling_simrank::core::{
    inspect_bytes, FormatVersion, HpEntry, HpStore, Residency, SharedEngine, SlingConfig,
    SlingError, SlingIndex,
};
use sling_simrank::graph::generators::{barabasi_albert, erdos_renyi_directed};
use sling_simrank::graph::{DiGraph, NodeId};

const C: f64 = 0.6;

static FILE_COUNTER: AtomicU64 = AtomicU64::new(0);

fn tmpfile(tag: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("sling_codec_rt_{}", std::process::id()));
    std::fs::create_dir_all(&dir).unwrap();
    dir.join(format!(
        "{tag}_{}.slng",
        FILE_COUNTER.fetch_add(1, Ordering::Relaxed)
    ))
}

/// Every entry of one encoded block (`read_block_run` over the whole
/// block, with no node-id bound): the eager decode's read of a block.
fn read_whole(
    bytes: &[u8],
    count: usize,
    global_dict: Option<&[f64]>,
) -> Result<Vec<HpEntry>, SlingError> {
    let mut block = Vec::new();
    read_block_run(bytes, count, global_dict, usize::MAX, 0..count, &mut block)?;
    Ok(block)
}

/// The two residencies accept exactly the same images:
/// `SlingIndex::from_bytes` accepts `bytes` iff the mapped engine opens
/// `path` (the same bytes) and reads every node's run, and when both
/// accept, every run is bit-identical.
fn assert_residency_parity(g: &DiGraph, bytes: &[u8], path: &Path) {
    let eager = SlingIndex::from_bytes(g, bytes);
    let mapped: Option<Vec<Vec<HpEntry>>> = SharedEngine::open(g, path, Residency::Mapped)
        .ok()
        .and_then(|engine| {
            g.nodes()
                .map(|v| {
                    let mut run = Vec::new();
                    engine.store().entries_into(v, &mut run).ok().map(|()| run)
                })
                .collect()
        });
    assert_eq!(
        eager.is_ok(),
        mapped.is_some(),
        "eager decode {:?}",
        eager.as_ref().err()
    );
    if let (Ok(idx), Some(runs)) = (&eager, &mapped) {
        let bits = |e: HpEntry| (e.step, e.node.0, e.value.to_bits());
        for (v, run) in g.nodes().zip(runs) {
            let want: Vec<_> = idx.stored_entries(v).map(bits).collect();
            let got: Vec<_> = run.iter().copied().map(bits).collect();
            assert_eq!(want, got, "run of {v:?}");
        }
    }
}

fn arb_graph() -> impl Strategy<Value = DiGraph> {
    (0usize..2, 20usize..=60, 2usize..5, 0u64..1000).prop_map(|(kind, n, k, seed)| {
        if kind == 0 {
            erdos_renyi_directed(n, n * k, seed).unwrap()
        } else {
            barabasi_albert(n, k, seed).unwrap()
        }
    })
}

/// An arbitrary well-formed block: a list of runs, each with a step, an
/// owner delta (so adjacent runs may share steps across owners), and a
/// strictly increasing node set that may include ids near `u32::MAX`.
#[allow(clippy::type_complexity)]
fn arb_block() -> impl Strategy<Value = (Vec<u16>, Vec<u32>, Vec<f64>, Vec<u32>)> {
    vec(
        (
            0u16..40,            // step
            proptest::bool::ANY, // new owner?
            1usize..10,          // run length
            0u32..1 << 30,       // first node
            0u32..3,             // value family selector
        ),
        1..30,
    )
    .prop_map(|runs| {
        let mut steps = Vec::new();
        let mut nodes = Vec::new();
        let mut values = Vec::new();
        let mut owners = Vec::new();
        let mut owner = 0u32;
        let mut last_step_of_owner: i32 = -1;
        for (step, new_owner, len, first, family) in runs {
            if new_owner || i32::from(step) <= last_step_of_owner {
                // Keep (owner, step) keys legal: steps ascend per owner.
                owner += 1;
            }
            last_step_of_owner = i32::from(step);
            // Strictly increasing nodes, with an occasional jump to the
            // top of the id space to exercise max-delta varints.
            let mut node = first;
            for j in 0..len {
                if j + 1 == len && family == 2 {
                    node = node.max(u32::MAX - 1);
                }
                steps.push(step);
                nodes.push(node);
                values.push(match family {
                    0 => 0.5,                       // repeated: dict fodder
                    1 => 1.0 / (node as f64 + 3.0), // distinct full-mantissa
                    _ => 1.0,                       // exactly representable
                });
                owners.push(owner);
                node = node.saturating_add(1 + (node % 7)).max(node + 1);
            }
        }
        (steps, nodes, values, owners)
    })
}

proptest! {
    #![proptest_config(ProptestConfig {
        cases: 64,
        ..ProptestConfig::default()
    })]

    /// Any well-formed block round-trips bit-exactly through the
    /// lossless encoder, and within quantization error through the lossy
    /// one.
    #[test]
    fn arbitrary_blocks_round_trip((steps, nodes, values, owners) in arb_block()) {
        let starts = run_starts(&owners, &steps);
        for quantize in [false, true] {
            let mut bytes = Vec::new();
            encode_block(&steps, &nodes, &values, &starts, quantize, &mut bytes);
            let block = read_whole(&bytes, steps.len(), None).unwrap();
            prop_assert_eq!(block.iter().map(|e| e.step).collect::<Vec<_>>(), steps.clone());
            prop_assert_eq!(block.iter().map(|e| e.node.0).collect::<Vec<_>>(), nodes.clone());
            if quantize {
                for (a, b) in values.iter().zip(&block) {
                    prop_assert!((a - b.value).abs() <= 0.5 / (u32::MAX as f64));
                }
            } else {
                for (a, b) in values.iter().zip(&block) {
                    prop_assert_eq!(a.to_bits(), b.value.to_bits());
                }
            }
        }
    }

    /// Mutating any single byte of an encoded block makes a whole-block
    /// read either error or produce a same-length entry list — never
    /// panic, never a silent length change.
    #[test]
    fn mutated_blocks_never_panic(
        (steps, nodes, values, owners) in arb_block(),
        flip in 0usize..1 << 16,
        bit in 0u8..8,
    ) {
        let starts = run_starts(&owners, &steps);
        let mut bytes = Vec::new();
        encode_block(&steps, &nodes, &values, &starts, false, &mut bytes);
        let pos = flip % bytes.len();
        bytes[pos] ^= 1 << bit;
        if let Ok(block) = read_whole(&bytes, steps.len(), None) {
            prop_assert_eq!(block.len(), steps.len());
        }
    }

    /// Reading entries `lo..hi` of a block — v2 lossless (`arb_block`)
    /// or v3 global-dictionary — emits exactly the whole-block read's
    /// entries `lo..hi`, bit for bit; and after any single-byte mutation
    /// the run read fails exactly when the whole-block read fails or
    /// that read holds a node id `≥ n` or a non-probability value
    /// anywhere in the block.
    #[test]
    fn run_reads_keep_every_whole_block_check(
        (steps, nodes, values, owners) in arb_block(),
        v3 in proptest::bool::ANY,
        lo_seed in 0usize..1 << 16,
        len_seed in 0usize..1 << 16,
        flip in 0usize..1 << 16,
        bit in 0u8..8,
    ) {
        let count = steps.len();
        let starts = run_starts(&owners, &steps);
        let dict = GlobalDict::build(&values);
        let mode = if v3 { ValueMode::Global(&dict) } else { ValueMode::Lossless };
        let mut bytes = Vec::new();
        encode_block_with(&steps, &nodes, &values, &starts, mode, &mut bytes);
        let global = v3.then(|| dict.values());
        // A bound that the intact block meets exactly.
        let n = *nodes.iter().max().unwrap() as usize + 1;
        let lo = lo_seed % (count + 1);
        let hi = lo + len_seed % (count - lo + 1);

        let whole = |bytes: &[u8]| read_whole(bytes, count, global);
        let checked = |block: &[HpEntry]| {
            block.iter().all(|e| {
                (e.node.0 as usize) < n && e.value.is_finite() && (0.0..=1.0 + 1e-9).contains(&e.value)
            })
        };
        let run = |bytes: &[u8]| -> Result<Vec<HpEntry>, SlingError> {
            let mut out = Vec::new();
            read_block_run(bytes, count, global, n, lo..hi, &mut out)?;
            Ok(out)
        };
        let bits = |entries: &[HpEntry]| -> Vec<(u16, u32, u64)> {
            entries.iter().map(|e| (e.step, e.node.0, e.value.to_bits())).collect()
        };

        let block = whole(&bytes).unwrap();
        prop_assert!(checked(&block));
        prop_assert_eq!(bits(&run(&bytes).unwrap()), bits(&block[lo..hi]));

        let mut mutated = bytes.clone();
        let pos = flip % mutated.len();
        mutated[pos] ^= 1 << bit;
        let want = whole(&mutated).ok().filter(|b| checked(b));
        match (run(&mutated), want) {
            (Ok(got), Some(block)) => prop_assert_eq!(bits(&got), bits(&block[lo..hi])),
            (Err(_), None) => {}
            (got, want) => prop_assert!(
                false,
                "byte {pos} bit {bit}, run {lo}..{hi}: run read ok = {}, whole-block checks ok = {}",
                got.is_ok(),
                want.is_some()
            ),
        }
    }

    /// v1 → v2 → decode and v2 → v1 → decode both reproduce the index
    /// bit-for-bit across the §5.2/§5.3 feature matrix and across block
    /// sizes that force runs to straddle block boundaries.
    #[test]
    fn v1_v2_conversion_is_lossless(
        g in arb_graph(),
        seed in 0u64..500,
        space_reduction in proptest::bool::ANY,
        enhance in proptest::bool::ANY,
        block_entries in 1usize..200,
    ) {
        let config = SlingConfig::from_epsilon(C, 0.1)
            .with_seed(seed)
            .with_space_reduction(space_reduction)
            .with_enhancement(enhance);
        let idx = SlingIndex::build(&g, &config).unwrap();
        let opts = CompressOptions { block_entries, quantize_values: false };

        // v1 bytes -> decode -> v2 bytes -> decode -> v1 bytes: the
        // serialized images (which capture every index component,
        // bit-for-bit) must be identical.
        let v1 = idx.to_bytes();
        let from_v1 = SlingIndex::decode(&v1).unwrap();
        let v2 = from_v1.to_bytes_v2(&opts);
        let from_v2 = SlingIndex::from_bytes(&g, &v2).unwrap();
        prop_assert_eq!(&v1, &from_v2.to_bytes(), "v1 -> v2 -> v1 changed bytes");

        // The inspect surface agrees with the real sizes.
        let info = inspect_bytes(&v2).unwrap();
        prop_assert_eq!(info.version, FormatVersion::V2);
        prop_assert_eq!(info.total_bytes, v2.len());
        prop_assert_eq!(info.entries, idx.stats().entries_stored);
        prop_assert!(info.values_exact);
    }

    /// v1 → v3 → v1 reproduces the index bit-for-bit across the same
    /// feature/block-size matrix — the `SLNGIDX3` mirror of the v2
    /// property, exercising the global value dictionary and the varint
    /// block directory.
    #[test]
    fn v1_v3_conversion_is_lossless(
        g in arb_graph(),
        seed in 0u64..500,
        space_reduction in proptest::bool::ANY,
        enhance in proptest::bool::ANY,
        block_entries in 1usize..200,
    ) {
        let config = SlingConfig::from_epsilon(C, 0.1)
            .with_seed(seed)
            .with_space_reduction(space_reduction)
            .with_enhancement(enhance);
        let idx = SlingIndex::build(&g, &config).unwrap();
        let opts = CompressOptions { block_entries, quantize_values: false };

        let v1 = idx.to_bytes();
        let from_v1 = SlingIndex::decode(&v1).unwrap();
        let v3 = from_v1.to_bytes_v3(&opts);
        let from_v3 = SlingIndex::from_bytes(&g, &v3).unwrap();
        prop_assert_eq!(&v1, &from_v3.to_bytes(), "v1 -> v3 -> v1 changed bytes");

        let info = inspect_bytes(&v3).unwrap();
        prop_assert_eq!(info.version, FormatVersion::V3);
        prop_assert_eq!(info.total_bytes, v3.len());
        prop_assert_eq!(info.entries, idx.stats().entries_stored);
        prop_assert!(info.values_exact);
        // v3 counts its aux sections (global dict + varint directory)
        // inside the payload, honestly.
        prop_assert!(info.payload_bytes >= info.directory_bytes + info.global_dict_bytes);
    }
}

/// Shared corpus for the v2 mutation properties: one valid compressed
/// index (small blocks so the directory is non-trivial).
fn mutation_corpus() -> &'static (DiGraph, Vec<u8>) {
    static CORPUS: OnceLock<(DiGraph, Vec<u8>)> = OnceLock::new();
    CORPUS.get_or_init(|| {
        let g = barabasi_albert(40, 2, 9).unwrap();
        let config = SlingConfig::from_epsilon(C, 0.1)
            .with_seed(4)
            .with_enhancement(true);
        let idx = SlingIndex::build(&g, &config).unwrap();
        let bytes = idx.to_bytes_v2(&CompressOptions {
            block_entries: 32,
            quantize_values: false,
        });
        (g, bytes)
    })
}

/// v3 mirror of [`mutation_corpus`]: small blocks make the varint byte
/// directory, the global value dictionary, and the per-block value
/// planes all non-trivial targets for single-byte corruption.
fn mutation_corpus_v3() -> &'static (DiGraph, Vec<u8>) {
    static CORPUS: OnceLock<(DiGraph, Vec<u8>)> = OnceLock::new();
    CORPUS.get_or_init(|| {
        let g = barabasi_albert(40, 2, 9).unwrap();
        let config = SlingConfig::from_epsilon(C, 0.1)
            .with_seed(4)
            .with_enhancement(true);
        let idx = SlingIndex::build(&g, &config).unwrap();
        let bytes = idx.to_bytes_v3(&CompressOptions {
            block_entries: 32,
            quantize_values: false,
        });
        (g, bytes)
    })
}

proptest! {
    #![proptest_config(ProptestConfig {
        cases: 64,
        ..ProptestConfig::default()
    })]

    /// Bit-flip any byte of a compressed index: the mapped open either
    /// surfaces a `SlingError` or yields an engine whose answers are
    /// still finite probabilities, and the eager decoder accepts the
    /// image exactly when the mapped engine reads every run. Nothing
    /// panics — the v2 mirror of the v1 property in
    /// `backend_equivalence.rs`.
    #[test]
    fn v2_mutation_errors_or_stays_sane(flip in 0usize..1 << 20, bit in 0u8..8) {
        let (g, bytes) = mutation_corpus();
        let mut corrupt = bytes.clone();
        let pos = flip % corrupt.len();
        corrupt[pos] ^= 1 << bit;
        let path = tmpfile("mut");
        std::fs::write(&path, &corrupt).unwrap();

        match SharedEngine::open(g, &path, Residency::Mapped) {
            Err(e) => {
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
                    let _ = engine.top_k(g, u, 4);
                    let _ = engine.single_pair(g, u, NodeId(1));
                }
            }
        }
        // The eager decoder must hold the same line: error or a fully
        // valid index, never a panic.
        match SlingIndex::from_bytes(g, &corrupt) {
            Ok(idx) => prop_assert!(idx.stats().entries_stored < 1 << 30),
            Err(e) => {
                let _ = e.to_string();
            }
        }
        assert_residency_parity(g, &corrupt, &path);
        std::fs::remove_file(&path).ok();
    }

    /// Any truncation of a v2 file is rejected at open.
    #[test]
    fn v2_truncation_always_rejected(cut_seed in 0usize..1 << 20) {
        let (g, bytes) = mutation_corpus();
        let cut = cut_seed % bytes.len(); // strictly shorter than full
        let path = tmpfile("trunc");
        std::fs::write(&path, &bytes[..cut]).unwrap();
        prop_assert!(
            SharedEngine::open(g, &path, Residency::Mapped).is_err(),
            "cut at {cut} accepted"
        );
        prop_assert!(SlingIndex::from_bytes(g, &bytes[..cut]).is_err());
        std::fs::remove_file(&path).ok();
    }

    /// Bit-flip any byte of a `SLNGIDX3` image — value planes, the
    /// shared global dictionary, and the varint offset directory
    /// included: open errors or the engine keeps answering finite
    /// probabilities, and both residencies accept the same images;
    /// nothing panics.
    #[test]
    fn v3_mutation_errors_or_stays_sane(flip in 0usize..1 << 20, bit in 0u8..8) {
        let (g, bytes) = mutation_corpus_v3();
        let mut corrupt = bytes.clone();
        let pos = flip % corrupt.len();
        corrupt[pos] ^= 1 << bit;
        let path = tmpfile("mut3");
        std::fs::write(&path, &corrupt).unwrap();

        match SharedEngine::open(g, &path, Residency::Mapped) {
            Err(e) => {
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
                    let _ = engine.top_k(g, u, 4);
                    let _ = engine.single_pair(g, u, NodeId(1));
                }
            }
        }
        match SlingIndex::from_bytes(g, &corrupt) {
            Ok(idx) => prop_assert!(idx.stats().entries_stored < 1 << 30),
            Err(e) => {
                let _ = e.to_string();
            }
        }
        assert_residency_parity(g, &corrupt, &path);
        std::fs::remove_file(&path).ok();
    }

    /// Any truncation of a v3 file is rejected at open.
    #[test]
    fn v3_truncation_always_rejected(cut_seed in 0usize..1 << 20) {
        let (g, bytes) = mutation_corpus_v3();
        let cut = cut_seed % bytes.len();
        let path = tmpfile("trunc3");
        std::fs::write(&path, &bytes[..cut]).unwrap();
        prop_assert!(
            SharedEngine::open(g, &path, Residency::Mapped).is_err(),
            "cut at {cut} accepted"
        );
        prop_assert!(SlingIndex::from_bytes(g, &bytes[..cut]).is_err());
        std::fs::remove_file(&path).ok();
    }
}

/// Empty runs cannot be encoded (the encoder breaks runs so every run
/// holds ≥ 1 entry) and are rejected on decode; nodes with empty `H(v)`
/// simply contribute no entries to any block.
#[test]
fn empty_entry_sets_round_trip() {
    // A star graph gives many nodes tiny or empty stored sets under
    // space reduction.
    let mut edges = Vec::new();
    for i in 1..30u32 {
        edges.push((0u32, i));
    }
    let g = DiGraph::from_edges(30, edges.iter().copied());
    let config = SlingConfig::from_epsilon(C, 0.1)
        .with_seed(3)
        .with_space_reduction(true);
    let idx = SlingIndex::build(&g, &config).unwrap();
    for block_entries in [1usize, 4, 1024] {
        let opts = CompressOptions {
            block_entries,
            quantize_values: false,
        };
        let back = SlingIndex::from_bytes(&g, &idx.to_bytes_v2(&opts)).unwrap();
        assert_eq!(
            idx.to_bytes(),
            back.to_bytes(),
            "block_entries = {block_entries}"
        );
    }
}

/// The compression claims the ROADMAP makes, pinned: on a preferential-
/// attachment fixture the v2 lossless payload shrinks meaningfully, the
/// v3 lossless payload (global value dictionary) shrinks below it, and
/// quantization shrinks further still. (The ≤ 60% lossless CI gate runs
/// on the larger BA(2000, 4) fixture, where value repetition is higher;
/// this 600-node fixture lands a few points above it.)
#[test]
fn fixture_compression_ratios_hold() {
    let g = barabasi_albert(600, 4, 7).unwrap();
    let config = SlingConfig::from_epsilon(C, 0.1).with_seed(3);
    let idx = SlingIndex::build(&g, &config).unwrap();
    let raw = inspect_bytes(&idx.to_bytes()).unwrap();
    let lossless = inspect_bytes(&idx.to_bytes_v2(&CompressOptions::default())).unwrap();
    let quantized = inspect_bytes(&idx.to_bytes_v2(&CompressOptions {
        quantize_values: true,
        ..CompressOptions::default()
    }))
    .unwrap();
    assert_eq!(raw.payload_bytes, raw.raw_payload_bytes);
    assert!(
        (lossless.compression_ratio()) <= 0.75,
        "v2 lossless ratio regressed: {}",
        lossless.compression_ratio()
    );
    assert!(
        (quantized.compression_ratio()) <= 0.60,
        "quantized ratio above the CI gate: {}",
        quantized.compression_ratio()
    );
    let v3_lossless = inspect_bytes(&idx.to_bytes_v3(&CompressOptions::default())).unwrap();
    let v3_quantized = inspect_bytes(&idx.to_bytes_v3(&CompressOptions {
        quantize_values: true,
        ..CompressOptions::default()
    }))
    .unwrap();
    assert!(
        (v3_lossless.compression_ratio()) <= 0.65,
        "v3 lossless ratio regressed: {}",
        v3_lossless.compression_ratio()
    );
    assert!(
        v3_lossless.compression_ratio() < lossless.compression_ratio(),
        "v3 lossless did not beat v2: {} vs {}",
        v3_lossless.compression_ratio(),
        lossless.compression_ratio()
    );
    assert!(
        v3_quantized.compression_ratio() < v3_lossless.compression_ratio(),
        "v3 quantized {} not below lossless {}",
        v3_quantized.compression_ratio(),
        v3_lossless.compression_ratio()
    );
}
