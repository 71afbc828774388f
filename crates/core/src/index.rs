//! The SLING index: construction (§4.3–4.4, §5.2–5.3) and the query-side
//! plumbing shared by single-pair and single-source queries.

use std::io;

use sling_graph::{DiGraph, NodeId};

use crate::config::SlingConfig;
use crate::enhance::{expand_marked, MarkArena};
use crate::error::SlingError;
use crate::hp::{HpArena, HpEntry};
use crate::local_update::HpTriple;
use crate::obs::{QueryTrace, StageNanos};
use crate::parallel::{correction_phase, local_update_phase};
use crate::single_source::DenseScores;
use crate::store::{EngineRef, HpStore};
use crate::two_hop::{two_hop_into, TwoHopScratch};

/// Construction statistics, reported by the benchmark harness.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct BuildStats {
    /// Total √c-walk pairs drawn while estimating correction factors.
    pub dk_samples: u64,
    /// HP entries produced by Algorithm 2 before space reduction.
    pub entries_before_reduction: usize,
    /// HP entries actually stored.
    pub entries_stored: usize,
    /// Nodes whose step-1/2 entries were dropped (§5.2).
    pub reduced_nodes: usize,
    /// Entries marked for §5.3 on-the-fly expansion.
    pub marked_entries: usize,
}

/// The SLING index over a fixed graph.
///
/// Stores an approximate correction factor `d̃_k` per node and the packed
/// truncated hitting-probability sets `H(v)`. Queries take the graph by
/// reference (it is needed for §5.2 on-the-fly recomputation and for
/// Algorithm 6's propagation); callers must pass the same graph the index
/// was built on — a node/edge-count fingerprint is checked on load and in
/// debug builds.
#[derive(Clone, Debug)]
pub struct SlingIndex {
    pub(crate) config: SlingConfig,
    pub(crate) num_nodes: usize,
    pub(crate) num_edges: usize,
    pub(crate) d: Vec<f64>,
    pub(crate) hp: HpArena,
    /// `reduced[v]` ⇒ `H(v)` omits steps 1–2; recompute exactly at query
    /// time via Algorithm 5.
    pub(crate) reduced: Vec<bool>,
    /// §5.3 marks (empty arena when enhancement is off).
    pub(crate) marks: MarkArena,
    pub(crate) stats: BuildStats,
}

impl SlingIndex {
    /// Build the index on `config.threads` workers: Algorithm 4's
    /// correction factors, then Algorithm 2's triples, sorted in memory
    /// and assembled with §5.2 reduction and §5.3 marking. Every thread
    /// count builds the same index (see [`crate::parallel`]).
    ///
    /// Respects every knob in `config`; cost is
    /// `O(m/θ + n·(µ̄ + ε_d)/ε_d² · log(n/δ))` as in Theorem 1.
    pub fn build(graph: &DiGraph, config: &SlingConfig) -> Result<Self, SlingError> {
        config.validate()?;
        let (d, dk_samples) = correction_phase(graph, config)?;
        let mut triples = local_update_phase(graph, config)?;
        triples.sort_unstable_by_key(|t| (t.owner, t.step, t.target));
        assemble(graph, config, d, dk_samples, triples.into_iter().map(Ok))
    }

    /// The configuration the index was built with.
    pub fn config(&self) -> &SlingConfig {
        &self.config
    }

    /// Build statistics.
    pub fn stats(&self) -> BuildStats {
        self.stats
    }

    /// Number of nodes of the indexed graph.
    pub fn num_nodes(&self) -> usize {
        self.num_nodes
    }

    /// Correction factor estimate `d̃_k`.
    pub fn correction_factor(&self, k: NodeId) -> f64 {
        self.d[k.index()]
    }

    /// All correction factors.
    pub fn correction_factors(&self) -> &[f64] {
        &self.d
    }

    /// Stored entries of `H(v)` (after space reduction; excludes the
    /// on-the-fly step-1/2 and enhancement entries).
    pub fn stored_entries(&self, v: NodeId) -> impl Iterator<Item = HpEntry> + '_ {
        self.hp.entries(v)
    }

    /// Whether §5.2 dropped the step-1/2 entries of `v`.
    pub fn is_reduced(&self, v: NodeId) -> bool {
        self.reduced[v.index()]
    }

    /// Estimated resident bytes of the index (Figure 4's space metric):
    /// HP arena + correction factors + reduction bitmap + marks.
    pub fn resident_bytes(&self) -> usize {
        self.hp.resident_bytes()
            + self.d.len() * 8
            + self.reduced.len()
            + self.marks.resident_bytes()
    }

    /// Materialize the *effective* entry list of `v` used by queries
    /// (see [`effective_entries_into`]). In-memory convenience wrapper,
    /// retained for the unit tests that inspect effective lists directly.
    #[cfg(test)]
    pub(crate) fn effective_entries(
        &self,
        graph: &DiGraph,
        v: NodeId,
        ws: &mut QueryWorkspace,
        which: Buf,
    ) {
        debug_assert_eq!(graph.num_nodes(), self.num_nodes, "wrong graph for index");
        effective_entries_into(self.engine_ref(), graph, v, ws, which)
            .expect("in-memory HP store cannot fail");
    }

    /// Internal engine view over the in-memory arena.
    pub(crate) fn engine_ref(&self) -> EngineRef<'_, HpArena> {
        EngineRef {
            store: &self.hp,
            config: &self.config,
            d: &self.d,
            reduced: &self.reduced,
            marks: &self.marks,
        }
    }
}

/// Materialize the *effective* entry list of `v` used by queries into the
/// selected workspace buffer: stored entries, plus exact step-1/2 entries
/// when `v` is reduced (§5.2, Algorithm 5), plus §5.3 expansion entries
/// when enhancement is on. Sorted by `(step, node)`. Generic over the
/// storage backend; allocation-free after workspace warm-up on every
/// backend. This is how every query kernel reads a node: the store read
/// is traced as `entry_fetch`, the splice and expansion as `restore`.
pub(crate) fn effective_entries_into<S: HpStore>(
    e: EngineRef<'_, S>,
    graph: &DiGraph,
    v: NodeId,
    ws: &mut QueryWorkspace,
    which: Buf,
) -> Result<(), SlingError> {
    if e.reduced[v.index()] {
        // Stored = step 0 then steps >= 3; splice exact steps 1-2 in
        // between (disjoint step ranges keep the order sorted). The
        // stored run lands in the dedicated scratch so the two-hop splice
        // can build the output in order without a tail allocation.
        e.store.entries_into(v, &mut ws.stored)?;
        ws.trace.lap_entry_fetch();
        let out = match which {
            Buf::A => &mut ws.buf_a,
            Buf::B => &mut ws.buf_b,
        };
        out.clear();
        let split = ws
            .stored
            .iter()
            .position(|x| x.step > 0)
            .unwrap_or(ws.stored.len());
        out.extend_from_slice(&ws.stored[..split]);
        two_hop_into(graph, e.config.sqrt_c(), v, &mut ws.two_hop, out);
        out.extend_from_slice(&ws.stored[split..]);
    } else {
        let out = match which {
            Buf::A => &mut ws.buf_a,
            Buf::B => &mut ws.buf_b,
        };
        e.store.entries_into(v, out)?;
        ws.trace.lap_entry_fetch();
    }
    if e.config.enhance_accuracy && !e.marks.is_empty() {
        expand_marked(e, graph, v, ws, which)?;
    }
    ws.trace.lap_restore();
    Ok(())
}

/// Selector for the two entry buffers of a [`QueryWorkspace`].
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub(crate) enum Buf {
    A,
    B,
}

/// Reusable buffers for every query kind. One workspace per querying
/// thread answers single-pair (Algorithm 3), single-source
/// (Algorithm 6), top-k, join and batch queries alike: every query API
/// has a `_with` variant taking `&mut` workspace, so hot loops (server
/// workers, the benchmark harness) allocate nothing once it is warm.
///
/// Every query writes the entry buffers: each endpoint's stored run is
/// read into them and, for a §5.2-reduced or §5.3-marked node, restored
/// to its effective list there. So one query against a hub node grows a
/// buffer to the largest list in the index. Long-lived workers should
/// call [`QueryWorkspace::trim_excess`] between requests so hub-sized
/// capacity is not pinned per thread forever. Algorithm 6 also keeps
/// its dense propagation state here, sized to the graph on the first
/// single-source query; a workspace that only answers pairs never
/// allocates it.
#[derive(Debug, Default)]
pub struct QueryWorkspace {
    pub(crate) buf_a: Vec<HpEntry>,
    pub(crate) buf_b: Vec<HpEntry>,
    pub(crate) two_hop: TwoHopScratch,
    /// Raw stored run of the node being materialized (reduced path).
    pub(crate) stored: Vec<HpEntry>,
    pub(crate) extras: Vec<HpEntry>,
    pub(crate) merged: Vec<HpEntry>,
    /// Algorithm 6's score arrays and frontiers.
    pub(crate) dense: DenseScores,
    /// Per-stage tracer (disabled by default; see [`crate::obs::trace`]).
    pub(crate) trace: QueryTrace,
}

impl QueryWorkspace {
    /// Retention threshold of [`QueryWorkspace::trim_excess`]: buffers
    /// whose capacity exceeds this many entries are shrunk back to it
    /// (4096 entries ≈ 96 KiB per buffer). Comfortably above the
    /// `O(1/ε)` list lengths of typical configurations, so steady-state
    /// queries never re-allocate; only hub-outlier growth is reclaimed.
    pub const TRIM_THRESHOLD_ENTRIES: usize = 4096;

    /// Fresh workspace.
    pub fn new() -> Self {
        Self::default()
    }

    /// Release excess retained capacity: any internal buffer that grew
    /// past [`QueryWorkspace::TRIM_THRESHOLD_ENTRIES`] entries is
    /// cleared and shrunk back to the threshold. The buffers are pure
    /// scratch between queries (every consumer clears or overwrites them
    /// before reading), and clearing first matters: `shrink_to` cannot
    /// reduce capacity below the retained `len`, and the buffers keep
    /// their last query's length until the next one reuses them. Only
    /// call between queries, never mid-query. A capacity check per
    /// buffer — effectively free when nothing outgrew the threshold —
    /// so long-lived server workers can call this after every request.
    /// Algorithm 6's dense arrays and frontier bitsets are kept: they
    /// are sized by the graph, not by the largest query seen.
    pub fn trim_excess(&mut self) {
        for buf in [
            &mut self.buf_a,
            &mut self.buf_b,
            &mut self.stored,
            &mut self.extras,
            &mut self.merged,
        ] {
            if buf.capacity() > Self::TRIM_THRESHOLD_ENTRIES {
                buf.clear();
                buf.shrink_to(Self::TRIM_THRESHOLD_ENTRIES);
            }
        }
        self.two_hop.trim_excess(Self::TRIM_THRESHOLD_ENTRIES);
    }

    /// Enable or disable per-stage query tracing on this workspace.
    /// Disabled (the default) every trace hook in the kernels is one
    /// predictable branch — no clock reads; see [`crate::obs::trace`].
    pub fn set_trace_enabled(&mut self, enabled: bool) {
        self.trace.set_enabled(enabled);
    }

    /// Drain the stage breakdown accumulated since the last call (all
    /// zeros unless tracing is enabled).
    pub fn take_trace(&mut self) -> StageNanos {
        self.trace.take()
    }
}

/// The one index assembler, shared by [`SlingIndex::build`] and
/// [`crate::out_of_core::build_out_of_core`]: pack a triple stream sorted
/// by `(owner, step, target)` into the arena, dropping the step-1/2
/// entries of §5.2-reduced nodes, then apply §5.3 marking and record the
/// [`BuildStats`]. The first stream error aborts the build.
pub(crate) fn assemble(
    graph: &DiGraph,
    config: &SlingConfig,
    d: Vec<f64>,
    dk_samples: u64,
    sorted: impl Iterator<Item = io::Result<HpTriple>>,
) -> Result<SlingIndex, SlingError> {
    let n = graph.num_nodes();

    // §5.2: nodes with cheap exact two-hop recomputation drop steps 1-2.
    let eta_budget = config.gamma / config.theta;
    let mut reduced = vec![false; n];
    let mut reduced_nodes = 0usize;
    if config.space_reduction {
        for v in graph.nodes() {
            if (graph.two_hop_in_cost(v) as f64) <= eta_budget {
                reduced[v.index()] = true;
                reduced_nodes += 1;
            }
        }
    }

    let mut entries_before = 0usize;
    let mut stream_err = None;
    let hp = HpArena::from_sorted_entries(
        n,
        sorted
            .map_while(|t| t.map_err(|e| stream_err = Some(e)).ok())
            .inspect(|_| entries_before += 1)
            .filter(|t| !(reduced[t.owner.index()] && (t.step == 1 || t.step == 2)))
            .map(|t| (t.owner.0, HpEntry::new(t.step, t.target, t.value))),
    );
    if let Some(e) = stream_err {
        return Err(e.into());
    }

    let marks = if config.enhance_accuracy {
        MarkArena::compute(graph, config, &hp)
    } else {
        MarkArena::empty(n)
    };

    let stats = BuildStats {
        dk_samples,
        entries_before_reduction: entries_before,
        entries_stored: hp.total_entries(),
        reduced_nodes,
        marked_entries: marks.total_marks(),
    };
    Ok(SlingIndex {
        config: config.clone(),
        num_nodes: n,
        num_edges: graph.num_edges(),
        d,
        hp,
        reduced,
        marks,
        stats,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::reference::{exact_dk, exact_simrank};
    use sling_graph::generators::{complete_graph, cycle_graph, star_graph, two_cliques_bridge};

    fn cfg(eps: f64) -> SlingConfig {
        SlingConfig::from_epsilon(0.6, eps).with_seed(2024)
    }

    #[test]
    fn build_on_toy_graphs_succeeds() {
        for g in [
            cycle_graph(8),
            star_graph(6),
            complete_graph(5),
            two_cliques_bridge(4),
        ] {
            let idx = SlingIndex::build(&g, &cfg(0.05)).unwrap();
            assert_eq!(idx.num_nodes(), g.num_nodes());
            assert_eq!(idx.correction_factors().len(), g.num_nodes());
            idx.hp.validate().unwrap();
        }
    }

    #[test]
    fn correction_factors_close_to_exact() {
        let g = two_cliques_bridge(4);
        let config = cfg(0.02);
        let idx = SlingIndex::build(&g, &config).unwrap();
        let s = exact_simrank(&g, 0.6, 60);
        let exact = exact_dk(&g, 0.6, &s);
        for (k, (&est, &ex)) in idx.correction_factors().iter().zip(&exact).enumerate() {
            assert!(
                (est - ex).abs() <= config.eps_d + 1e-9,
                "node {k}: d̃={est} d={ex} eps_d={}",
                config.eps_d
            );
        }
    }

    #[test]
    fn deterministic_given_seed() {
        let g = two_cliques_bridge(5);
        let a = SlingIndex::build(&g, &cfg(0.05)).unwrap();
        let b = SlingIndex::build(&g, &cfg(0.05)).unwrap();
        assert_eq!(a.d, b.d);
        assert_eq!(a.hp, b.hp);
    }

    #[test]
    fn space_reduction_shrinks_storage_without_losing_entries_elsewhere() {
        let g = two_cliques_bridge(6);
        let with = SlingIndex::build(&g, &cfg(0.05)).unwrap();
        let without = SlingIndex::build(&g, &cfg(0.05).with_space_reduction(false)).unwrap();
        assert!(with.stats().reduced_nodes > 0);
        assert!(with.stats().entries_stored < without.stats().entries_stored);
        // Steps 0 and >= 3 must be identical.
        for v in g.nodes() {
            let a: Vec<_> = with
                .stored_entries(v)
                .filter(|e| e.step == 0 || e.step >= 3)
                .collect();
            let b: Vec<_> = without
                .stored_entries(v)
                .filter(|e| e.step == 0 || e.step >= 3)
                .collect();
            assert_eq!(a, b, "node {v:?}");
        }
    }

    #[test]
    fn effective_entries_restore_reduced_steps() {
        let g = two_cliques_bridge(6);
        let with = SlingIndex::build(&g, &cfg(0.05)).unwrap();
        let without = SlingIndex::build(&g, &cfg(0.05).with_space_reduction(false)).unwrap();
        let mut ws = QueryWorkspace::new();
        for v in g.nodes() {
            with.effective_entries(&g, v, &mut ws, Buf::A);
            // Effective list is sorted and its step-1/2 entries are exact,
            // hence >= the truncated stored values of the unreduced index.
            assert!(ws.buf_a.windows(2).all(|w| w[0].key() < w[1].key()));
            for e in without
                .stored_entries(v)
                .filter(|e| e.step == 1 || e.step == 2)
            {
                let found = ws
                    .buf_a
                    .iter()
                    .find(|x| x.key() == e.key())
                    .unwrap_or_else(|| panic!("entry {e:?} lost for {v:?}"));
                assert!(found.value >= e.value - 1e-12);
            }
        }
    }

    #[test]
    fn resident_bytes_reflects_reduction() {
        let g = two_cliques_bridge(6);
        let with = SlingIndex::build(&g, &cfg(0.05)).unwrap();
        let without = SlingIndex::build(&g, &cfg(0.05).with_space_reduction(false)).unwrap();
        assert!(with.resident_bytes() < without.resident_bytes());
    }

    #[test]
    fn trim_excess_releases_hub_sized_buffers() {
        let mut ws = QueryWorkspace::new();
        let big = QueryWorkspace::TRIM_THRESHOLD_ENTRIES * 4;
        // Simulate a hub query's aftermath: buffers still *hold* their
        // lists (len == capacity pressure), exactly the state a server
        // worker is in between requests.
        ws.buf_a
            .resize(big, crate::hp::HpEntry::new(0, NodeId(0), 1.0));
        ws.stored
            .resize(big, crate::hp::HpEntry::new(0, NodeId(0), 1.0));
        ws.merged.reserve(big);
        ws.trim_excess();
        for (name, buf) in [
            ("buf_a", &ws.buf_a),
            ("stored", &ws.stored),
            ("merged", &ws.merged),
        ] {
            assert!(
                buf.capacity() < 2 * QueryWorkspace::TRIM_THRESHOLD_ENTRIES,
                "{name} still pins {} entries of capacity",
                buf.capacity()
            );
        }
        // Trimming must not corrupt subsequent queries.
        let g = two_cliques_bridge(4);
        let idx = SlingIndex::build(&g, &cfg(0.05)).unwrap();
        let want = idx.single_pair(&g, NodeId(0), NodeId(1));
        let mut out = 0.0;
        for _ in 0..2 {
            out = idx.single_pair_with(&g, &mut ws, NodeId(0), NodeId(1));
            ws.trim_excess();
        }
        assert_eq!(out, want);
    }

    #[test]
    fn invalid_config_is_rejected() {
        let g = cycle_graph(4);
        let mut config = cfg(0.05);
        config.theta *= 1e3;
        assert!(SlingIndex::build(&g, &config).is_err());
    }
}
