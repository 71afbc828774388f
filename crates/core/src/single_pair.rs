//! Algorithm 3 — single-pair SimRank queries in `O(1/ε)`.
//!
//! With the effective entry lists `H*(u)` and `H*(v)` sorted by
//! `(step, node)`, the Eq. (17) estimator
//!
//! ```text
//! s̃(u, v) = Σ_{(ℓ,k)} h̃⁽ℓ⁾(u, k) · d̃_k · h̃⁽ℓ⁾(v, k)
//! ```
//!
//! is a sorted-merge intersection. Two kernels implement it:
//!
//! * the classic **linear merge** — one pass over both lists,
//!   `O(|H*(u)| + |H*(v)|)`;
//! * a **galloping merge** for skewed pairs (list lengths ≥
//!   [`GALLOP_RATIO`]× apart): walk the short list and exponential-search
//!   the long one, `O(|short| · log |long|)`. Hub-versus-leaf pairs are
//!   the dominant shape on power-law graphs, where the hub list dwarfs
//!   the leaf list and a linear pass wastes almost every comparison.
//!
//! Both kernels visit matching keys in the same ascending order and
//! accumulate with the same expression, so their sums are **bit
//! identical** — the dispatch on skew never changes an answer.
//!
//! Both endpoints' effective lists are read into the buffers of a
//! [`QueryWorkspace`] — the stored run copied or decoded out of the
//! backend, and for a §5.2-reduced or §5.3-marked node restored to its
//! full effective list — so the merge runs over two `&[HpEntry]` slices
//! on every backend. The linear-merge kernel is kept callable as the
//! oracle the tests pin the skew dispatch to
//! ([`crate::SharedEngine::single_pair_materialized_with`]).

use sling_graph::{DiGraph, NodeId};

use crate::error::SlingError;
use crate::hp::HpEntry;
use crate::index::{effective_entries_into, Buf, QueryWorkspace, SlingIndex};
use crate::obs::{self, KernelCounters};
use crate::store::{EngineRef, HpStore};

/// Length skew at which the merge switches from the linear pass to
/// galloping over the longer list.
pub(crate) const GALLOP_RATIO: usize = 8;

/// Merge-intersect two `(step, node)`-sorted entry lists against the
/// correction factors, dispatching on length skew.
pub(crate) fn merge_intersect(a: &[HpEntry], b: &[HpEntry], d: &[f64]) -> f64 {
    let (an, bn) = (a.len(), b.len());
    if an.saturating_mul(GALLOP_RATIO) <= bn {
        KernelCounters::bump(&obs::KERNEL.merge_gallop);
        merge_gallop(a, b, d, true)
    } else if bn.saturating_mul(GALLOP_RATIO) <= an {
        KernelCounters::bump(&obs::KERNEL.merge_gallop);
        merge_gallop(b, a, d, false)
    } else {
        KernelCounters::bump(&obs::KERNEL.merge_linear);
        merge_linear(a, b, d)
    }
}

/// The classic linear merge: one pass over both runs.
pub(crate) fn merge_linear(a: &[HpEntry], b: &[HpEntry], d: &[f64]) -> f64 {
    let mut s = 0.0;
    let (mut i, mut j) = (0usize, 0usize);
    while i < a.len() && j < b.len() {
        let (ka, kb) = (a[i].key(), b[j].key());
        match ka.cmp(&kb) {
            std::cmp::Ordering::Less => i += 1,
            std::cmp::Ordering::Greater => j += 1,
            std::cmp::Ordering::Equal => {
                s += a[i].value * d[ka.1.index()] * b[j].value;
                i += 1;
                j += 1;
            }
        }
    }
    s
}

/// Galloping merge: iterate `short`, exponential-search forward in
/// `long`. `short_is_a` preserves the `value_a · d · value_b` operand
/// order of the linear merge so the float sum stays bit-identical.
fn merge_gallop(short: &[HpEntry], long: &[HpEntry], d: &[f64], short_is_a: bool) -> f64 {
    let mut s = 0.0;
    let mut j = 0usize;
    for x in short {
        let key = x.key();
        j = lower_bound_from(long, j, key);
        if j >= long.len() {
            break;
        }
        if long[j].key() == key {
            let (va, vb) = if short_is_a {
                (x.value, long[j].value)
            } else {
                (long[j].value, x.value)
            };
            s += va * d[key.1.index()] * vb;
            j += 1;
        }
    }
    s
}

/// First index `>= from` whose key is `>= key` in the sorted run `r`:
/// exponential probe to bracket the gap, then binary search inside it —
/// `O(log gap)` instead of `O(gap)`.
fn lower_bound_from(r: &[HpEntry], from: usize, key: (u16, NodeId)) -> usize {
    let n = r.len();
    if from >= n || r[from].key() >= key {
        return from;
    }
    // Invariant: every index < prev has a key < `key`; probe is the next
    // untested index.
    let mut prev = from + 1;
    let mut probe = from + 1;
    let mut step = 1usize;
    loop {
        if probe >= n {
            probe = n;
            break;
        }
        if r[probe].key() >= key {
            break;
        }
        prev = probe + 1;
        probe += step;
        step <<= 1;
    }
    let (mut lo, mut hi) = (prev, probe);
    while lo < hi {
        let mid = lo + (hi - lo) / 2;
        if r[mid].key() < key {
            lo = mid + 1;
        } else {
            hi = mid;
        }
    }
    lo
}

/// Algorithm 3 over any storage backend: both effective entry lists are
/// read into the workspace ([`effective_entries_into`]), then merged
/// with the skew dispatch. Answers are bit-identical to
/// [`single_pair_materialized_core`] on every backend.
pub(crate) fn single_pair_core<S: HpStore>(
    e: EngineRef<'_, S>,
    graph: &DiGraph,
    ws: &mut QueryWorkspace,
    u: NodeId,
    v: NodeId,
) -> Result<f64, SlingError> {
    if u == v && e.config.exact_diagonal {
        return Ok(1.0);
        // Otherwise fall through: estimate s(v,v) from the index like any
        // pair.
    }
    ws.trace.start();
    effective_entries_into(e, graph, u, ws, Buf::A)?;
    effective_entries_into(e, graph, v, ws, Buf::B)?;
    let s = merge_intersect(&ws.buf_a, &ws.buf_b, e.d);
    ws.trace.lap_merge();
    Ok(s.clamp(0.0, 1.0))
}

/// Algorithm 3 with the linear merge only: the oracle the tests pin the
/// skew dispatch of [`single_pair_core`] to (see
/// [`crate::SharedEngine::single_pair_materialized_with`]), and the
/// `single_pair_materialized` row of `sling bench-query`.
pub(crate) fn single_pair_materialized_core<S: HpStore>(
    e: EngineRef<'_, S>,
    graph: &DiGraph,
    ws: &mut QueryWorkspace,
    u: NodeId,
    v: NodeId,
) -> Result<f64, SlingError> {
    if u == v && e.config.exact_diagonal {
        return Ok(1.0);
    }
    ws.trace.start();
    effective_entries_into(e, graph, u, ws, Buf::A)?;
    effective_entries_into(e, graph, v, ws, Buf::B)?;
    let s = merge_linear(&ws.buf_a, &ws.buf_b, e.d);
    ws.trace.lap_merge();
    Ok(s.clamp(0.0, 1.0))
}

impl SlingIndex {
    /// Single-pair SimRank estimate `s̃(u, v)` (Algorithm 3), allocating a
    /// fresh workspace. For hot loops prefer
    /// [`SlingIndex::single_pair_with`].
    pub fn single_pair(&self, graph: &DiGraph, u: NodeId, v: NodeId) -> f64 {
        let mut ws = QueryWorkspace::new();
        self.single_pair_with(graph, &mut ws, u, v)
    }

    /// Single-pair query reusing caller-provided buffers; allocation-free
    /// after warm-up.
    ///
    /// # Panics
    /// Panics if `u` or `v` is out of range, in release builds too
    /// (an exact-diagonal `u == v` answers 1 before any lookup); use
    /// [`SlingIndex::try_single_pair`] for checked access.
    pub fn single_pair_with(
        &self,
        graph: &DiGraph,
        ws: &mut QueryWorkspace,
        u: NodeId,
        v: NodeId,
    ) -> f64 {
        debug_assert_eq!(graph.num_nodes(), self.num_nodes, "wrong graph for index");
        single_pair_core(self.engine_ref(), graph, ws, u, v)
            .expect("in-memory HP store cannot fail")
    }

    /// Range-checked single-pair query.
    pub fn try_single_pair(
        &self,
        graph: &DiGraph,
        u: NodeId,
        v: NodeId,
    ) -> Result<f64, SlingError> {
        let n = self.num_nodes as u32;
        for node in [u, v] {
            if node.0 >= n {
                return Err(SlingError::NodeOutOfRange { node: node.0, n });
            }
        }
        Ok(self.single_pair(graph, u, v))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::SlingConfig;
    use crate::reference::exact_simrank;
    use sling_graph::generators::{complete_graph, cycle_graph, star_graph, two_cliques_bridge};
    use sling_graph::DiGraph;

    const C: f64 = 0.6;

    fn build(g: &DiGraph, eps: f64) -> SlingIndex {
        SlingIndex::build(g, &SlingConfig::from_epsilon(C, eps).with_seed(77)).unwrap()
    }

    /// Every pair within ε of the power-method ground truth.
    fn assert_all_pairs_within_eps(g: &DiGraph, idx: &SlingIndex, eps: f64) {
        let truth = exact_simrank(g, C, 60);
        let mut ws = QueryWorkspace::new();
        let mut worst = 0.0f64;
        for u in g.nodes() {
            for v in g.nodes() {
                let est = idx.single_pair_with(g, &mut ws, u, v);
                let err = (est - truth[u.index()][v.index()]).abs();
                worst = worst.max(err);
            }
        }
        assert!(worst <= eps, "max error {worst} > eps {eps}");
    }

    #[test]
    fn within_eps_on_toy_graphs() {
        let eps = 0.05;
        for g in [
            cycle_graph(8),
            star_graph(6),
            complete_graph(5),
            two_cliques_bridge(4),
        ] {
            let idx = build(&g, eps);
            assert_all_pairs_within_eps(&g, &idx, eps);
        }
    }

    #[test]
    fn within_eps_with_all_optimizations() {
        let g = two_cliques_bridge(5);
        let eps = 0.05;
        let config = SlingConfig::from_epsilon(C, eps)
            .with_seed(3)
            .with_enhancement(true);
        let idx = SlingIndex::build(&g, &config).unwrap();
        assert_all_pairs_within_eps(&g, &idx, eps);
    }

    #[test]
    fn diagonal_is_exact_by_default() {
        let g = two_cliques_bridge(4);
        let idx = build(&g, 0.1);
        for v in g.nodes() {
            assert_eq!(idx.single_pair(&g, v, v), 1.0);
        }
    }

    #[test]
    fn raw_diagonal_estimate_is_close_but_not_exact() {
        let g = two_cliques_bridge(4);
        let config = SlingConfig::from_epsilon(C, 0.05)
            .with_seed(1)
            .with_exact_diagonal(false);
        let idx = SlingIndex::build(&g, &config).unwrap();
        let s = idx.single_pair(&g, NodeId(0), NodeId(0));
        assert!(s > 0.9 && s <= 1.0, "raw diagonal estimate {s}");
    }

    #[test]
    fn symmetry_of_estimates() {
        let g = two_cliques_bridge(5);
        let idx = build(&g, 0.05);
        let mut ws = QueryWorkspace::new();
        for u in g.nodes() {
            for v in g.nodes() {
                let a = idx.single_pair_with(&g, &mut ws, u, v);
                let b = idx.single_pair_with(&g, &mut ws, v, u);
                assert!((a - b).abs() < 1e-12);
            }
        }
    }

    #[test]
    fn cycle_pairs_are_zero() {
        let g = cycle_graph(9);
        let idx = build(&g, 0.05);
        assert_eq!(idx.single_pair(&g, NodeId(0), NodeId(4)), 0.0);
    }

    #[test]
    fn try_single_pair_checks_range() {
        let g = cycle_graph(4);
        let idx = build(&g, 0.1);
        assert!(idx.try_single_pair(&g, NodeId(0), NodeId(9)).is_err());
        assert!(idx.try_single_pair(&g, NodeId(0), NodeId(3)).is_ok());
    }

    /// Deterministic sorted entry run with roughly every `stride`-th key
    /// of a dense `(step, node)` grid.
    fn synth_run(n_keys: u32, stride: u32, salt: u64) -> Vec<HpEntry> {
        let mut out = Vec::new();
        let mut state = salt | 1;
        for i in (0..n_keys).step_by(stride as usize) {
            state ^= state << 13;
            state ^= state >> 7;
            state ^= state << 17;
            let step = (i / 64) as u16;
            let node = NodeId(i % 64);
            let value = 0.05 + (state % 1000) as f64 / 2000.0;
            out.push(HpEntry::new(step, node, value));
        }
        out
    }

    #[test]
    fn gallop_merge_is_bit_identical_to_linear() {
        let d: Vec<f64> = (0..64).map(|k| 0.3 + (k as f64) / 200.0).collect();
        // Sweep skews on both sides of the GALLOP_RATIO switch, including
        // empty and tiny runs.
        for (a_stride, b_stride) in [(1, 1), (1, 3), (1, 17), (29, 1), (1, 64), (64, 1)] {
            for salt in [1u64, 99, 12345] {
                let a = synth_run(4096, a_stride, salt);
                let b = synth_run(4096, b_stride, salt.wrapping_mul(31));
                let linear = merge_linear(&a, &b, &d);
                let dispatched = merge_intersect(&a, &b, &d);
                assert_eq!(
                    linear.to_bits(),
                    dispatched.to_bits(),
                    "strides ({a_stride},{b_stride}) salt {salt}: {linear} vs {dispatched}"
                );
            }
        }
        // Degenerate runs.
        let a = synth_run(4096, 1, 7);
        assert_eq!(merge_intersect(&a, &[], &d), 0.0);
        assert_eq!(merge_intersect(&[], &a, &d), 0.0);
    }

    #[test]
    fn lower_bound_from_is_a_sorted_lower_bound() {
        let run = synth_run(4096, 5, 3);
        for from in [0usize, 1, 17, run.len() - 1, run.len()] {
            for probe in [
                (0u16, NodeId(0)),
                (3, NodeId(10)),
                (31, NodeId(63)),
                (u16::MAX, NodeId(u32::MAX)),
            ] {
                let got = lower_bound_from(&run, from, probe);
                let want = (from..run.len())
                    .find(|&i| run[i].key() >= probe)
                    .unwrap_or(run.len());
                assert_eq!(got, want, "from {from}, key {probe:?}");
            }
        }
    }

    #[test]
    fn streaming_matches_materialized_on_hub_pairs() {
        // Star-heavy BA graph: node 0 is a hub, so (hub, leaf) pairs are
        // exactly the skewed shape that triggers galloping.
        let g = sling_graph::generators::barabasi_albert(400, 3, 5).unwrap();
        let config = SlingConfig::from_epsilon(C, 0.1)
            .with_seed(5)
            .with_enhancement(true);
        let engine = SlingIndex::build(&g, &config).unwrap().into_shared_engine();
        let mut ws = QueryWorkspace::new();
        let mut ws2 = QueryWorkspace::new();
        for v in [1u32, 17, 250, 399] {
            for (a, b) in [(0, v), (v, 0), (v, (v + 1) % 400)] {
                let streamed = engine
                    .single_pair_with(&g, &mut ws, NodeId(a), NodeId(b))
                    .unwrap();
                let materialized = engine
                    .single_pair_materialized_with(&g, &mut ws2, NodeId(a), NodeId(b))
                    .unwrap();
                assert_eq!(
                    streamed.to_bits(),
                    materialized.to_bits(),
                    "({a},{b}): {streamed} vs {materialized}"
                );
            }
        }
    }

    /// The one restore path must be bit-identical to the materializing
    /// reference kernel across the full §5.2 × §5.3 configuration
    /// matrix, from both front-ends, and through a workspace that a
    /// first pass has already filled.
    #[test]
    fn bare_index_and_engine_match_materialized_across_restore_matrix() {
        let g = sling_graph::generators::barabasi_albert(300, 3, 11).unwrap();
        for (sr, enh) in [(false, false), (true, false), (false, true), (true, true)] {
            let config = SlingConfig::from_epsilon(C, 0.1)
                .with_seed(9)
                .with_space_reduction(sr)
                .with_enhancement(enh);
            let idx = SlingIndex::build(&g, &config).unwrap();
            if sr {
                assert!(
                    idx.stats.reduced_nodes > 0,
                    "matrix row (sr={sr}, enh={enh}) exercises no reduced nodes"
                );
            }
            let engine = crate::store::SharedEngine::from(idx.clone());
            let mut ws = QueryWorkspace::new();
            let mut ws_ref = QueryWorkspace::new();
            for pass in ["fresh", "reused"] {
                for v in [1u32, 13, 144, 299] {
                    for (a, b) in [(0, v), (v, 0), (v, (v + 7) % 300)] {
                        let (a, b) = (NodeId(a), NodeId(b));
                        let oracle = engine
                            .single_pair_materialized_with(&g, &mut ws_ref, a, b)
                            .unwrap();
                        let bare = idx.single_pair(&g, a, b);
                        let served = engine.single_pair_with(&g, &mut ws, a, b).unwrap();
                        for (path, got) in [("bare", bare), ("engine", served)] {
                            assert_eq!(
                                got.to_bits(),
                                oracle.to_bits(),
                                "sr={sr} enh={enh} {pass} {path} ({a:?},{b:?}): {got} vs {oracle}"
                            );
                        }
                    }
                }
            }
        }
    }

    #[test]
    fn merge_intersect_basics() {
        let d = vec![0.5, 0.5, 0.5];
        let a = vec![
            HpEntry::new(0, NodeId(0), 1.0),
            HpEntry::new(1, NodeId(2), 0.4),
        ];
        let b = vec![
            HpEntry::new(0, NodeId(1), 1.0),
            HpEntry::new(1, NodeId(2), 0.3),
        ];
        // Only (1, v2) matches: 0.4 * 0.5 * 0.3
        let s = merge_intersect(&a, &b, &d);
        assert!((s - 0.06).abs() < 1e-12);
        assert_eq!(merge_intersect(&a, &[], &d), 0.0);
    }
}
