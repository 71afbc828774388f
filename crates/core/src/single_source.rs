//! Algorithm 6 — single-source SimRank queries.
//!
//! Instead of running Algorithm 3 once per node (`O(n/ε)` but with a poor
//! constant) or pre-materializing inverted HP lists (doubling the index),
//! Algorithm 6 rebuilds the needed inverted lists *on the fly*: for each
//! step ℓ present in `H*(v_i)`, it seeds temporary scores
//! `ρ⁽⁰⁾(v_k) = h̃⁽ℓ⁾(v_i, v_k) · d̃_k` and propagates them ℓ steps
//! forward along out-edges (the same recurrence Algorithm 2 uses),
//! pruning scores `≤ (√c)ℓ · θ`. After ℓ rounds, `ρ⁽ℓ⁾(v_j)` is exactly
//! the step-ℓ term of Eq. (13) for the pair `(v_i, v_j)`, so summing over
//! ℓ yields every `s̃(v_i, ·)` in `O(m log² 1/ε)` total (Lemma 12).

use sling_graph::{DiGraph, NodeId};

use crate::error::SlingError;
use crate::hp::HpEntry;
use crate::index::{effective_entries_into, Buf, QueryWorkspace, SlingIndex};
use crate::obs::{self, KernelCounters};
use crate::store::{EngineRef, HpStore};

/// Reusable buffers for Algorithm 6. One per querying thread.
///
/// Split into the dense propagation state ([`DenseScores`]) and the
/// entry-list scratch ([`QueryWorkspace`]) so the kernel can read the
/// effective list in `query.buf_a` while mutating the propagation
/// buffers — disjoint fields, disjoint borrows.
#[derive(Debug, Default)]
pub struct SingleSourceWorkspace {
    pub(crate) dense: DenseScores,
    pub(crate) query: QueryWorkspace,
}

impl SingleSourceWorkspace {
    /// Fresh workspace; buffers grow on first use.
    pub fn new() -> Self {
        Self::default()
    }

    /// Cap the retained capacity of the growable scratch buffers (see
    /// [`QueryWorkspace::trim_excess`]). The `O(n)` dense score arrays
    /// and frontier bitsets are kept — they are sized by the graph, not
    /// by the largest query seen — but the entry buffers shrink back to
    /// the retention threshold after a hub-sized query.
    pub fn trim_excess(&mut self) {
        self.query.trim_excess();
        self.dense.trim_excess();
    }

    /// Enable or disable per-stage query tracing (see
    /// [`QueryWorkspace::set_trace_enabled`]).
    pub fn set_trace_enabled(&mut self, enabled: bool) {
        self.query.set_trace_enabled(enabled);
    }

    /// Whether per-stage tracing is enabled.
    pub fn trace_enabled(&self) -> bool {
        self.query.trace_enabled()
    }

    /// Drain the stage breakdown accumulated since the last call.
    pub fn take_trace(&mut self) -> crate::obs::StageNanos {
        self.query.take_trace()
    }
}

/// Upper bound on the degrees covered by the reciprocal table in
/// [`DenseScores`]: 8 KiB of graph-independent constants.
const INV_DEGREE_TABLE: usize = 1024;

/// Frontier membership for one dense score array: a bitset with a
/// touched-word watermark range. Marking is branchless (`or` + two
/// predictable range updates) — no per-edge compare-and-push — and
/// iteration recovers members in **ascending node order** by scanning
/// `bits[lo..=hi]` and peeling set bits, so the frontier walk is
/// deterministic regardless of the order contributions arrived in.
#[derive(Debug)]
struct Frontier {
    bits: Vec<u64>,
    /// First/last word index holding a set bit; `lo > hi` means empty.
    lo: usize,
    hi: usize,
}

impl Default for Frontier {
    fn default() -> Self {
        Self {
            bits: Vec::new(),
            lo: usize::MAX,
            hi: 0,
        }
    }
}

impl Frontier {
    fn ensure(&mut self, words: usize) {
        if self.bits.len() < words {
            self.bits.resize(words, 0);
        }
    }

    /// Mark node index `i` as touched. Idempotent, so callers scatter
    /// unconditionally instead of testing the score slot first.
    #[inline(always)]
    fn set(&mut self, i: usize) {
        let w = i >> 6;
        self.bits[w] |= 1u64 << (i & 63);
        if w < self.lo {
            self.lo = w;
        }
        if w > self.hi {
            self.hi = w;
        }
    }

    /// OR a whole word of members into word `wi`.
    #[inline(always)]
    fn or_word(&mut self, wi: usize, w: u64) {
        self.bits[wi] |= w;
        self.lo = self.lo.min(wi);
        self.hi = self.hi.max(wi);
    }

    #[inline]
    fn clear_marks(&mut self) {
        self.lo = usize::MAX;
        self.hi = 0;
    }

    /// The tracked word range (empty when nothing is marked).
    #[inline]
    fn words(&self) -> std::ops::Range<usize> {
        if self.lo <= self.hi {
            self.lo..self.hi + 1
        } else {
            0..0
        }
    }

    /// Empty the frontier, zeroing only its tracked word range.
    fn clear(&mut self) {
        let words = self.words();
        self.bits[words].fill(0);
        self.clear_marks();
    }

    /// Members in ascending node order.
    fn iter(&self) -> Members<'_> {
        let words = self.words();
        Members {
            bits: &self.bits,
            next: words.start,
            end: words.end,
            base: 0,
            w: 0,
        }
    }

    /// Number of members.
    fn count(&self) -> usize {
        let words = self.words();
        self.bits[words]
            .iter()
            .map(|w| w.count_ones() as usize)
            .sum()
    }

    /// Zero every tracked slot of `vals` and empty the frontier.
    fn clear_tracked(&mut self, vals: &mut [f64]) {
        for x in self.iter() {
            vals[x] = 0.0;
        }
        self.clear();
    }
}

/// Ascending iterator over a [`Frontier`]'s members: loads one word at
/// a time from the tracked range and peels its set bits.
pub(crate) struct Members<'a> {
    bits: &'a [u64],
    next: usize,
    end: usize,
    base: usize,
    w: u64,
}

impl Iterator for Members<'_> {
    type Item = usize;

    #[inline]
    fn next(&mut self) -> Option<usize> {
        while self.w == 0 {
            if self.next == self.end {
                return None;
            }
            self.w = self.bits[self.next];
            self.base = self.next << 6;
            self.next += 1;
        }
        let x = self.base | self.w.trailing_zeros() as usize;
        self.w &= self.w - 1;
        Some(x)
    }
}

/// Dense forward-propagation state of Algorithm 6.
///
/// Invariant between queries: `cur`/`next` are all-zero and the
/// propagation [`Frontier`] bitsets empty (each query resets exactly
/// the entries it touched), so repeated queries cost no `O(n)` clears
/// beyond the first allocation.
///
/// `touched` records every node the last query wrote to its output
/// vector — each word [`DenseScores::drain_into`] accumulates, plus the
/// source under `exact_diagonal` — so every other output slot is the
/// `0.0` written when the output was sized, and the clamp, top-k
/// selection and joins finish the query over only those nodes. It is emptied at the
/// *start* of each query (see [`single_source_with_cutoff`]), not the
/// end, so a query that stops early (a cutoff, a corrupt-index error)
/// cannot leak members into the next one.
#[derive(Debug, Default)]
pub(crate) struct DenseScores {
    pub(crate) cur: Vec<f64>,
    pub(crate) next: Vec<f64>,
    front_cur: Frontier,
    front_next: Frontier,
    touched: Frontier,
    /// Staging buffer of `(destination, increment)` pairs for the tiled
    /// propagation rounds (see [`DenseScores::propagate`]); capacity is
    /// bounded by [`DenseScores::PROPAGATE_TILE`].
    staged: Vec<(u32, f64)>,
    /// `inv_deg[d] = 1/d` for small `d` — graph-independent, so it can
    /// never go stale across graphs. Turns the per-edge division of the
    /// propagation inner loop into a multiply-accumulate.
    inv_deg: Vec<f64>,
}

impl DenseScores {
    pub(crate) fn ensure(&mut self, n: usize) {
        if self.cur.len() < n {
            self.cur.resize(n, 0.0);
            self.next.resize(n, 0.0);
        }
        let words = n.div_ceil(64);
        self.front_cur.ensure(words);
        self.front_next.ensure(words);
        self.touched.ensure(words);
        if self.inv_deg.is_empty() {
            self.inv_deg = (0..INV_DEGREE_TABLE)
                .map(|d| if d == 0 { 0.0 } else { 1.0 / d as f64 })
                .collect();
        }
    }

    /// Add `val` to the step-0 temporary score of node index `k`.
    #[inline]
    pub(crate) fn seed(&mut self, k: usize, val: f64) {
        self.cur[k] += val;
        self.front_cur.set(k);
    }

    /// `1 / |I(y)|` — a table load for the small degrees that dominate
    /// real graphs, one division otherwise. Replacing the per-edge
    /// division shifts each contribution by at most one ulp relative to
    /// dividing directly; every backend and every query path shares this
    /// code, so cross-backend bit-equality is unaffected.
    #[inline(always)]
    fn inv_in_degree(&self, graph: &DiGraph, y: NodeId) -> f64 {
        let deg = graph.in_degree(y);
        if deg < self.inv_deg.len() {
            self.inv_deg[deg]
        } else {
            1.0 / deg as f64
        }
    }

    /// Contributions staged per flush of the tiled propagation: a ~24 KiB
    /// tile of `(destination, increment)` pairs, small enough to stay in
    /// L1/L2 while the scatter into `next` walks it.
    const PROPAGATE_TILE: usize = 2048;

    /// Below this node count the dense `cur`/`next` arrays (≤ 1 MiB
    /// combined) are cache-resident, so the scatter misses tiling exists
    /// to hide never happen and the staging detour is pure overhead; the
    /// round then runs the direct loop. Both sweeps are bit-identical
    /// (pinned by `tiled_propagation_matches_direct_bitwise`), so the
    /// dispatch is purely a performance choice.
    const PROPAGATE_TILING_MIN_NODES: usize = 1 << 16;

    /// Run `rounds` forward-propagation rounds of Algorithm 6's inner
    /// loop: scores `≤ threshold` are pruned; a survivor `x` distributes
    /// `√c · ρ(x) / |I(y)|` to each out-neighbor `y`. The per-survivor
    /// scale `√c · ρ(x)` is hoisted and the division is a reciprocal
    /// multiply; the frontier walks in ascending node order via the
    /// [`Frontier`] bitsets. Dispatches between the direct and the tiled
    /// sweep on dense-array size
    /// ([`DenseScores::PROPAGATE_TILING_MIN_NODES`]); the two produce
    /// bit-identical scores and frontiers.
    pub(crate) fn propagate(&mut self, graph: &DiGraph, sqrt_c: f64, threshold: f64, rounds: u16) {
        if self.cur.len() < Self::PROPAGATE_TILING_MIN_NODES {
            self.propagate_direct(graph, sqrt_c, threshold, rounds);
        } else {
            self.propagate_tiled(graph, sqrt_c, threshold, rounds);
        }
    }

    /// The untiled sweep: each contribution is scattered into `next` as
    /// soon as it is generated. Fastest when `next` stays cache-resident.
    fn propagate_direct(&mut self, graph: &DiGraph, sqrt_c: f64, threshold: f64, rounds: u16) {
        let mut swept = 0u64;
        for _ in 0..rounds {
            let (lo, hi) = (self.front_cur.lo, self.front_cur.hi);
            if lo > hi {
                break; // empty frontier: remaining rounds are no-ops
            }
            swept += (hi - lo + 1) as u64;
            self.front_cur.clear_marks();
            for wi in lo..=hi {
                let mut w = self.front_cur.bits[wi];
                if w == 0 {
                    continue;
                }
                self.front_cur.bits[wi] = 0;
                while w != 0 {
                    let x = (wi << 6) | w.trailing_zeros() as usize;
                    w &= w - 1;
                    let val = self.cur[x];
                    self.cur[x] = 0.0;
                    if val <= threshold {
                        continue;
                    }
                    let scale = sqrt_c * val;
                    for &y in graph.out_neighbors(NodeId(x as u32)) {
                        let inc = scale * self.inv_in_degree(graph, y);
                        self.next[y.index()] += inc;
                        self.front_next.set(y.index());
                    }
                }
            }
            std::mem::swap(&mut self.cur, &mut self.next);
            std::mem::swap(&mut self.front_cur, &mut self.front_next);
        }
        KernelCounters::bump_by(&obs::KERNEL.frontier_words, swept);
    }

    /// The **tiled** sweep: contributions are first *gathered* into the
    /// staging buffer — a tight loop over the contiguous CSR neighbor run
    /// touching only `graph` and the reciprocal table — and the random
    /// *scatter* into the dense `next` array runs over one cache-resident
    /// tile at a time ([`DenseScores::PROPAGATE_TILE`] pairs), so the
    /// frontier sweep stops interleaving sequential neighbor reads with
    /// dense-array misses. Staging order equals generation order and the
    /// flush applies pairs in staging order, so the per-slot FP
    /// accumulation order is exactly the direct loop's, and frontier
    /// marking is order-free — the tiling is bit-invisible (pinned by
    /// `tiled_propagation_matches_direct_bitwise`).
    fn propagate_tiled(&mut self, graph: &DiGraph, sqrt_c: f64, threshold: f64, rounds: u16) {
        let mut swept = 0u64;
        for _ in 0..rounds {
            debug_assert!(self.staged.is_empty());
            let (lo, hi) = (self.front_cur.lo, self.front_cur.hi);
            if lo > hi {
                break; // empty frontier: remaining rounds are no-ops
            }
            swept += (hi - lo + 1) as u64;
            self.front_cur.clear_marks();
            for wi in lo..=hi {
                let mut w = self.front_cur.bits[wi];
                if w == 0 {
                    continue;
                }
                self.front_cur.bits[wi] = 0;
                while w != 0 {
                    let x = (wi << 6) | w.trailing_zeros() as usize;
                    w &= w - 1;
                    let val = self.cur[x];
                    self.cur[x] = 0.0;
                    if val <= threshold {
                        continue;
                    }
                    let scale = sqrt_c * val;
                    for &y in graph.out_neighbors(NodeId(x as u32)) {
                        let inc = scale * self.inv_in_degree(graph, y);
                        self.staged.push((y.0, inc));
                        if self.staged.len() == Self::PROPAGATE_TILE {
                            self.flush_staged();
                        }
                    }
                }
            }
            self.flush_staged();
            std::mem::swap(&mut self.cur, &mut self.next);
            std::mem::swap(&mut self.front_cur, &mut self.front_next);
        }
        KernelCounters::bump_by(&obs::KERNEL.frontier_words, swept);
    }

    /// Scatter the staged `(destination, increment)` tile into `next`,
    /// in staging order (bit-identical accumulation — see
    /// [`DenseScores::propagate`]).
    #[inline]
    fn flush_staged(&mut self) {
        for &(y, inc) in &self.staged {
            self.next[y as usize] += inc;
            self.front_next.set(y as usize);
        }
        self.staged.clear();
    }

    /// Accumulate the surviving temporary scores into `out`, record
    /// their nodes in the touched set (one `or` per nonzero word, no
    /// per-node work) and restore the all-zero buffer invariant.
    pub(crate) fn drain_into(&mut self, out: &mut [f64]) {
        if self.front_cur.lo <= self.front_cur.hi {
            for wi in self.front_cur.lo..=self.front_cur.hi {
                let mut w = self.front_cur.bits[wi];
                if w == 0 {
                    continue;
                }
                self.front_cur.bits[wi] = 0;
                self.touched.or_word(wi, w);
                while w != 0 {
                    let x = (wi << 6) | w.trailing_zeros() as usize;
                    w &= w - 1;
                    out[x] += self.cur[x];
                    self.cur[x] = 0.0;
                }
            }
        }
        self.front_cur.clear_marks();
    }

    /// Zero any leftover propagation entries (used by early-terminating
    /// queries that abandon un-drained state).
    pub(crate) fn reset(&mut self) {
        self.front_cur.clear_tracked(&mut self.cur);
        self.front_next.clear_tracked(&mut self.next);
    }

    /// The nodes the last query wrote to its output, ascending: a
    /// superset of its nonzero slots.
    pub(crate) fn touched(&self) -> Members<'_> {
        self.touched.iter()
    }

    /// How many nodes [`DenseScores::touched`] yields.
    pub(crate) fn touched_count(&self) -> usize {
        self.touched.count()
    }

    fn trim_excess(&mut self) {
        // The frontier bitsets are graph-sized (`n/64` words), like the
        // dense arrays they track — nothing query-sized to shrink.
    }
}

/// Algorithm 6 over any storage backend: `H*(u)` is read once into the
/// workspace, then the forward propagation runs entirely on the
/// in-memory graph and correction factors. Allocation-free after
/// workspace warm-up.
pub(crate) fn single_source_core<S: HpStore>(
    e: EngineRef<'_, S>,
    graph: &DiGraph,
    ws: &mut SingleSourceWorkspace,
    u: NodeId,
    out: &mut Vec<f64>,
) -> Result<(), SlingError> {
    single_source_with_cutoff(e, graph, ws, u, None, out).map(|_| ())
}

/// The shared Algorithm 6 driver: seed and propagate `H*(u)`'s step runs
/// in ascending step order, skipping runs `ℓ ≥ cutoff` (no restriction
/// when `cutoff` is `None`). Returns the residual bound
/// `c^cutoff / (1-c)` when truncation happened, else 0.
pub(crate) fn single_source_with_cutoff<S: HpStore>(
    e: EngineRef<'_, S>,
    graph: &DiGraph,
    ws: &mut SingleSourceWorkspace,
    u: NodeId,
    cutoff: Option<u16>,
    out: &mut Vec<f64>,
) -> Result<f64, SlingError> {
    let n = e.num_nodes();
    out.clear();
    out.resize(n, 0.0);
    ws.dense.ensure(n);
    ws.dense.touched.clear();
    let SingleSourceWorkspace { dense, query } = ws;
    query.trace.start();
    effective_entries_into(e, graph, u, query, Buf::A)?;
    let truncated = seed_step_runs(e, graph, dense, &query.buf_a, cutoff, out);
    query.trace.lap_propagate();
    dense.reset();

    // Every slot outside the touched set is still `0.0`, which the
    // clamp would leave as is.
    for x in dense.touched() {
        out[x] = out[x].clamp(0.0, 1.0);
    }
    if e.config.exact_diagonal {
        out[u.index()] = 1.0;
        dense.touched.set(u.index());
    }
    Ok(match cutoff {
        Some(cut) if truncated => e.config.c.powi(cut as i32) / (1.0 - e.config.c),
        _ => 0.0,
    })
}

/// Consume `H*(u)` per step run: seed `ρ⁽⁰⁾(v_k) = h̃⁽ℓ⁾(u, v_k) · d̃_k`
/// from the run's node/value columns (entries have distinct nodes within
/// a step run), propagate ℓ rounds with the scaled-down pruning
/// threshold, and accumulate `ρ⁽ℓ⁾` into `out`, restoring the all-zero
/// invariant. Returns whether a cutoff truncated the run sequence.
fn seed_step_runs<S: HpStore>(
    e: EngineRef<'_, S>,
    graph: &DiGraph,
    dense: &mut DenseScores,
    run: &[HpEntry],
    cutoff: Option<u16>,
    out: &mut [f64],
) -> bool {
    let sqrt_c = e.config.sqrt_c();
    let theta = e.config.theta;
    let len = run.len();
    let mut lo = 0usize;
    while lo < len {
        let step = run[lo].step;
        let mut hi = lo + 1;
        while hi < len && run[hi].step == step {
            hi += 1;
        }
        if let Some(cut) = cutoff {
            if step >= cut {
                return true;
            }
        }
        for x in &run[lo..hi] {
            let k = x.node.index();
            dense.seed(k, x.value * e.d[k]);
        }
        let threshold = sqrt_c.powi(step as i32) * theta;
        dense.propagate(graph, sqrt_c, threshold, step);
        dense.drain_into(out);
        lo = hi;
    }
    false
}

impl SlingIndex {
    /// Single-source query from `u` (Algorithm 6): returns `s̃(u, v)` for
    /// every node `v`. Allocates a workspace; prefer
    /// [`SlingIndex::single_source_with`] in loops.
    pub fn single_source(&self, graph: &DiGraph, u: NodeId) -> Vec<f64> {
        let mut ws = SingleSourceWorkspace::new();
        let mut out = Vec::new();
        self.single_source_with(graph, &mut ws, u, &mut out);
        out
    }

    /// Single-source query into a caller-provided output vector.
    pub fn single_source_with(
        &self,
        graph: &DiGraph,
        ws: &mut SingleSourceWorkspace,
        u: NodeId,
        out: &mut Vec<f64>,
    ) {
        debug_assert_eq!(graph.num_nodes(), self.num_nodes, "wrong graph for index");
        single_source_core(self.engine_ref(), graph, ws, u, out)
            .expect("in-memory HP store cannot fail");
    }

    /// Baseline single-source strategy: Algorithm 3 once per node —
    /// `O(n/ε)` asymptotically, but slower in practice than Algorithm 6
    /// (the paper's Figure 2 comparison).
    pub fn single_source_via_pairs(&self, graph: &DiGraph, u: NodeId) -> Vec<f64> {
        let mut ws = QueryWorkspace::new();
        graph
            .nodes()
            .map(|v| self.single_pair_with(graph, &mut ws, u, v))
            .collect()
    }

    /// Range-checked single-source query.
    pub fn try_single_source(&self, graph: &DiGraph, u: NodeId) -> Result<Vec<f64>, SlingError> {
        if u.index() >= self.num_nodes {
            return Err(SlingError::NodeOutOfRange {
                node: u.0,
                n: self.num_nodes as u32,
            });
        }
        Ok(self.single_source(graph, u))
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
        SlingIndex::build(g, &SlingConfig::from_epsilon(C, eps).with_seed(31)).unwrap()
    }

    #[test]
    fn single_source_within_eps_of_truth() {
        let eps = 0.05;
        for g in [
            cycle_graph(8),
            star_graph(6),
            complete_graph(5),
            two_cliques_bridge(4),
        ] {
            let idx = build(&g, eps);
            let truth = exact_simrank(&g, C, 60);
            for u in g.nodes() {
                let scores = idx.single_source(&g, u);
                for v in g.nodes() {
                    let err = (scores[v.index()] - truth[u.index()][v.index()]).abs();
                    assert!(err <= eps, "({u:?},{v:?}): err {err}");
                }
            }
        }
    }

    #[test]
    fn algorithm6_consistent_with_pairwise_algorithm3() {
        // Both estimators share d̃ and H̃; Algorithm 6 additionally prunes
        // with the scaled threshold, so they agree within the extra
        // truncation budget 2√c·θ/((1-√c)(1-c)).
        let g = two_cliques_bridge(5);
        let idx = build(&g, 0.05);
        let sc = C.sqrt();
        let slack = 2.0 * sc * idx.config().theta / ((1.0 - sc) * (1.0 - C)) + 1e-9;
        for u in g.nodes() {
            let a6 = idx.single_source(&g, u);
            let a3 = idx.single_source_via_pairs(&g, u);
            for v in g.nodes() {
                let diff = (a6[v.index()] - a3[v.index()]).abs();
                assert!(diff <= slack, "({u:?},{v:?}): diff {diff} > {slack}");
            }
        }
    }

    #[test]
    fn workspace_reuse_keeps_buffers_clean() {
        let g = two_cliques_bridge(4);
        let idx = build(&g, 0.05);
        let mut ws = SingleSourceWorkspace::new();
        let mut first = Vec::new();
        idx.single_source_with(&g, &mut ws, NodeId(0), &mut first);
        // Buffers must be zeroed after a query...
        assert!(ws.dense.cur.iter().all(|&x| x == 0.0));
        assert!(ws.dense.next.iter().all(|&x| x == 0.0));
        // ...so the same query repeated gives identical results.
        let mut second = Vec::new();
        idx.single_source_with(&g, &mut ws, NodeId(0), &mut second);
        assert_eq!(first, second);
        // And a different query is unaffected by the first.
        let mut direct = Vec::new();
        idx.single_source_with(
            &g,
            &mut SingleSourceWorkspace::new(),
            NodeId(3),
            &mut direct,
        );
        let mut reused = Vec::new();
        idx.single_source_with(&g, &mut ws, NodeId(3), &mut reused);
        assert_eq!(direct, reused);
    }

    /// The touched set covers every nonzero output slot — including the
    /// exact diagonal when a cutoff skips step 0 — and is rebuilt, not
    /// accumulated, by each query on a reused workspace.
    #[test]
    fn touched_set_covers_every_nonzero_output_slot() {
        use sling_graph::generators::barabasi_albert;
        let g = barabasi_albert(300, 3, 11).unwrap();
        let idx = build(&g, 0.1);
        let mut ws = SingleSourceWorkspace::new();
        let mut out = Vec::new();
        for (u, cutoff) in [(0u32, None), (144, Some(2)), (7, Some(0)), (299, None)] {
            single_source_with_cutoff(idx.engine_ref(), &g, &mut ws, NodeId(u), cutoff, &mut out)
                .unwrap();
            let touched: Vec<usize> = ws.dense.touched().collect();
            assert!(touched.windows(2).all(|w| w[0] < w[1]), "not ascending");
            assert_eq!(touched.len(), ws.dense.touched_count());
            assert!(touched.contains(&(u as usize)), "u {u} missing");
            for (v, &s) in out.iter().enumerate() {
                assert!(s == 0.0 || touched.binary_search(&v).is_ok(), "u {u} v {v}");
            }
            if cutoff == Some(0) {
                // Nothing propagated: only the diagonal is left, so the
                // previous query's members did not carry over.
                assert_eq!(touched, vec![u as usize]);
            } else {
                assert!(touched.len() < g.num_nodes(), "u {u}: not sparse");
            }
        }
    }

    /// Algorithm 6 must answer bit-identically from the bare index, and
    /// from the engine through a workspace that a first pass has already
    /// filled, to the engine on a fresh workspace, across the §5.2 ×
    /// §5.3 matrix.
    #[test]
    fn bare_index_and_engine_match_materialized_across_restore_matrix() {
        use sling_graph::generators::barabasi_albert;
        let g = barabasi_albert(300, 3, 11).unwrap();
        for (sr, enh) in [(true, false), (true, true)] {
            let config = SlingConfig::from_epsilon(C, 0.1)
                .with_seed(9)
                .with_space_reduction(sr)
                .with_enhancement(enh);
            let idx = SlingIndex::build(&g, &config).unwrap();
            assert!(idx.stats.reduced_nodes > 0);
            let engine = crate::store::SharedEngine::from(idx.clone());
            let mut ws = SingleSourceWorkspace::new();
            let (mut served, mut oracle) = (Vec::new(), Vec::new());
            for pass in ["fresh", "reused"] {
                for u in [0u32, 1, 13, 144, 299] {
                    engine
                        .single_source_with(&g, &mut ws, NodeId(u), &mut served)
                        .unwrap();
                    engine
                        .single_source_with(
                            &g,
                            &mut SingleSourceWorkspace::new(),
                            NodeId(u),
                            &mut oracle,
                        )
                        .unwrap();
                    let bare = idx.single_source(&g, NodeId(u));
                    for (path, got) in [("bare", &bare), ("engine", &served)] {
                        for v in 0..oracle.len() {
                            assert_eq!(
                                got[v].to_bits(),
                                oracle[v].to_bits(),
                                "sr={sr} enh={enh} {pass} {path} s({u},{v})"
                            );
                        }
                    }
                }
            }
        }
    }

    #[test]
    fn diagonal_and_range_handling() {
        let g = star_graph(5);
        let idx = build(&g, 0.1);
        let scores = idx.single_source(&g, NodeId(0));
        assert_eq!(scores[0], 1.0);
        assert!(idx.try_single_source(&g, NodeId(99)).is_err());
    }

    #[test]
    fn top_k_orders_by_similarity() {
        let g = two_cliques_bridge(5);
        let idx = build(&g, 0.05);
        // Node 1 lives in clique {0..4}; its top matches must come from
        // the same clique.
        let top = idx.top_k(&g, NodeId(1), 3);
        assert_eq!(top.len(), 3);
        for (v, s) in &top {
            assert!(v.0 < 5, "cross-clique node {v:?} in top-3");
            assert!(*s > 0.0);
        }
        // Scores descending.
        assert!(top.windows(2).all(|w| w[0].1 >= w[1].1));
    }

    /// The dispatch between the direct and the tiled sweep must be
    /// unobservable: identical frontier bitsets and bit-identical dense
    /// scores, so `propagate`'s size gate is purely a performance choice.
    #[test]
    fn tiled_propagation_matches_direct_bitwise() {
        use sling_graph::generators::barabasi_albert;
        // Big enough that one round stages more than PROPAGATE_TILE
        // contributions, forcing at least one mid-frontier flush.
        let g = barabasi_albert(900, 4, 17).unwrap();
        let n = g.num_nodes();
        let sqrt_c = C.sqrt();
        for (threshold, rounds) in [(0.0, 1u16), (1e-4, 3), (1e-2, 5)] {
            let mut tiled = DenseScores::default();
            let mut direct = DenseScores::default();
            tiled.ensure(n);
            direct.ensure(n);
            // Seed a spread of nodes with assorted magnitudes, including
            // some the threshold prunes.
            for k in 0..n {
                if k % 3 == 0 {
                    tiled.seed(k, 1.0 / (k as f64 + 2.0));
                    direct.seed(k, 1.0 / (k as f64 + 2.0));
                }
            }
            // Call the sweeps directly: the fixture sits below the size
            // gate, so `propagate` itself would run both operands
            // through the direct path and the pin would be vacuous.
            tiled.propagate_tiled(&g, sqrt_c, threshold, rounds);
            direct.propagate_direct(&g, sqrt_c, threshold, rounds);
            // Identical frontier (it feeds the next round's iteration)
            // and bit-identical dense scores.
            assert_eq!(
                tiled.front_cur.bits, direct.front_cur.bits,
                "threshold {threshold}"
            );
            let tiled_bits: Vec<u64> = tiled.cur.iter().map(|v| v.to_bits()).collect();
            let direct_bits: Vec<u64> = direct.cur.iter().map(|v| v.to_bits()).collect();
            assert_eq!(tiled_bits, direct_bits, "threshold {threshold}");
        }
    }

    #[test]
    fn cycle_single_source_is_indicator() {
        let g = cycle_graph(7);
        let idx = build(&g, 0.05);
        let scores = idx.single_source(&g, NodeId(3));
        for v in g.nodes() {
            let expect = if v == NodeId(3) { 1.0 } else { 0.0 };
            assert_eq!(scores[v.index()], expect);
        }
    }
}
