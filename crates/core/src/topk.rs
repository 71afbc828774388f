//! Top-k single-source SimRank queries.
//!
//! The paper's §8 surveys top-k SimRank queries as a major related query
//! type; the SLING index supports them directly. This module provides two
//! query strategies on top of Algorithm 6:
//!
//! * [`SlingIndex::top_k`] — run the full single-source query, then
//!   select the k best with a bounded min-heap instead of sorting all `n`
//!   scores. Algorithm 6 records which nodes it wrote, so the selection
//!   visits only those `t` nodes, in `O(t log k)`; [`select_top_k`] is
//!   the same heap over a whole dense vector, in `O(n log k)`.
//! * [`SlingIndex::top_k_approx`] — an early-terminating variant. The
//!   step-ℓ term of Eq. (13) contributes at most `c^ℓ` to *any* pair's
//!   score (each hitting-probability row sums to `(√c)^ℓ` and `d_k ≤ 1`),
//!   so once the steps still unprocessed can contribute at most `slack`,
//!   propagation stops. Every returned score is then within `slack` of the
//!   full Algorithm-6 estimate, and since deep steps are the expensive
//!   ones to propagate, the saving is real on graphs with long HP tails.

use std::cmp::Ordering;
use std::collections::BinaryHeap;

use sling_graph::{DiGraph, NodeId};

use crate::error::SlingError;
use crate::index::{QueryWorkspace, SlingIndex};
use crate::single_source::single_source_with_cutoff;
use crate::store::{EngineRef, HpStore};

/// A `(score, node)` pair ordered by descending score with ascending
/// node-id tie-breaking — "greater" means "ranks higher".
#[derive(Clone, Copy, Debug, PartialEq)]
struct Ranked {
    score: f64,
    node: u32,
}

impl Eq for Ranked {}

impl Ord for Ranked {
    fn cmp(&self, other: &Self) -> Ordering {
        // Scores are finite (clamped to [0, 1] by the query paths).
        self.score
            .partial_cmp(&other.score)
            .expect("SimRank scores are finite")
            .then(other.node.cmp(&self.node))
    }
}

impl PartialOrd for Ranked {
    fn partial_cmp(&self, other: &Self) -> Option<Ordering> {
        Some(self.cmp(other))
    }
}

/// Select the `k` best `(node, score)` pairs from a dense score vector,
/// excluding `exclude` and zero scores, in `O(n log k)`, ordered by
/// descending score with ascending node-id tie-breaking. `k` is clamped
/// to `scores.len()` first, so an untrusted `k` (a wire request, a CLI
/// flag) sizes the heap by the candidates, never by itself. The engine
/// and index top-k paths run the same selection over only the nodes
/// Algorithm 6 reached, in `O(t log k)`; this dense form is the oracle
/// they are tested against, and is public so external harnesses can
/// compose it with the buffer-reusing single-source APIs.
pub fn select_top_k(scores: &[f64], exclude: Option<NodeId>, k: usize) -> Vec<(NodeId, f64)> {
    select_ranked(scores.iter().copied().enumerate(), scores.len(), exclude, k)
}

/// The one bounded-heap selection behind every top-k path: the `k` best
/// of at most `len` `(node index, score)` candidates, skipping `exclude`
/// and scores `≤ 0`. `k` is clamped to `len` before the heap is sized.
fn select_ranked(
    cands: impl Iterator<Item = (usize, f64)>,
    len: usize,
    exclude: Option<NodeId>,
    k: usize,
) -> Vec<(NodeId, f64)> {
    let k = k.min(len);
    if k == 0 {
        return Vec::new();
    }
    // Min-heap of the k best seen so far: `Reverse` puts the worst kept
    // candidate at the root for O(log k) eviction.
    let mut heap: BinaryHeap<std::cmp::Reverse<Ranked>> = BinaryHeap::with_capacity(k + 1);
    for (i, score) in cands {
        if score <= 0.0 || Some(NodeId::from_index(i)) == exclude {
            continue;
        }
        let cand = Ranked {
            score,
            node: i as u32,
        };
        if heap.len() < k {
            heap.push(std::cmp::Reverse(cand));
        } else if cand > heap.peek().expect("heap non-empty").0 {
            heap.pop();
            heap.push(std::cmp::Reverse(cand));
        }
    }
    let mut out: Vec<(NodeId, f64)> = heap
        .into_iter()
        .map(|std::cmp::Reverse(r)| (NodeId(r.node), r.score))
        .collect();
    out.sort_unstable_by(|a, b| b.1.partial_cmp(&a.1).unwrap().then(a.0.cmp(&b.0)));
    out
}

/// Top-k over any storage backend: Algorithm 6 into `scores` (truncated
/// by `slack`, see [`single_source_truncated_core`]), then the selection
/// over only the nodes the query reached. Every other slot of `scores`
/// is `0.0`, which the selection skips anyway, so the answer equals
/// [`select_top_k`] over the whole vector, bit for bit.
pub(crate) fn top_k_core<S: HpStore>(
    e: EngineRef<'_, S>,
    graph: &DiGraph,
    ws: &mut QueryWorkspace,
    scores: &mut Vec<f64>,
    u: NodeId,
    k: usize,
    slack: f64,
) -> Result<Vec<(NodeId, f64)>, SlingError> {
    single_source_truncated_core(e, graph, ws, u, slack, scores)?;
    let dense = &ws.dense;
    let cands = dense.touched().map(|i| (i, scores[i]));
    Ok(select_ranked(cands, dense.touched_count(), Some(u), k))
}

impl SlingIndex {
    /// Top-k most similar nodes to `u` (excluding `u` itself), ordered by
    /// descending score with node-id tie-breaking. Built on Algorithm 6;
    /// the selection is [`select_top_k`]'s bounded heap, run over only the
    /// `t` nodes the query reached in `O(t log k)`.
    ///
    /// ```
    /// use sling_core::{SlingConfig, SlingIndex};
    /// use sling_graph::generators::two_cliques_bridge;
    ///
    /// let g = two_cliques_bridge(5);
    /// let index = SlingIndex::build(&g, &SlingConfig::from_epsilon(0.6, 0.05)).unwrap();
    /// let top = index.top_k(&g, 0u32.into(), 3);
    /// assert_eq!(top.len(), 3);
    /// assert!(top.windows(2).all(|w| w[0].1 >= w[1].1));
    /// ```
    pub fn top_k(&self, graph: &DiGraph, u: NodeId, k: usize) -> Vec<(NodeId, f64)> {
        self.top_k_approx(graph, u, k, 0.0)
    }

    /// Early-terminating top-k: stops propagating Algorithm 6's step runs
    /// once the unprocessed steps can add at most `slack` to any score.
    ///
    /// Each returned score `s` underestimates the full Algorithm-6 result
    /// by at most `slack`, so with the index's ε guarantee the total error
    /// versus true SimRank is at most `ε + slack`. With `slack = 0.0` this
    /// is exactly [`SlingIndex::top_k`].
    pub fn top_k_approx(
        &self,
        graph: &DiGraph,
        u: NodeId,
        k: usize,
        slack: f64,
    ) -> Vec<(NodeId, f64)> {
        debug_assert_eq!(graph.num_nodes(), self.num_nodes, "wrong graph for index");
        let mut ws = QueryWorkspace::new();
        let mut scores = Vec::new();
        top_k_core(self.engine_ref(), graph, &mut ws, &mut scores, u, k, slack)
            .expect("in-memory HP store cannot fail")
    }

    /// Algorithm 6 with early termination: skip step runs whose maximum
    /// possible remaining contribution (`Σ_{ℓ' ≥ ℓ} c^ℓ' = c^ℓ/(1-c)`)
    /// is at most `slack`. Returns the residual bound that was dropped
    /// (0.0 when every stored step was processed).
    pub fn single_source_truncated(
        &self,
        graph: &DiGraph,
        ws: &mut QueryWorkspace,
        u: NodeId,
        slack: f64,
        out: &mut Vec<f64>,
    ) -> f64 {
        debug_assert_eq!(graph.num_nodes(), self.num_nodes, "wrong graph for index");
        single_source_truncated_core(self.engine_ref(), graph, ws, u, slack, out)
            .expect("in-memory HP store cannot fail")
    }
}

/// Early-terminating Algorithm 6 over any storage backend (see
/// [`SlingIndex::single_source_truncated`]): maps `slack` to a step
/// cutoff, then runs the shared Algorithm 6 driver
/// ([`single_source_with_cutoff`]).
pub(crate) fn single_source_truncated_core<S: HpStore>(
    e: EngineRef<'_, S>,
    graph: &DiGraph,
    ws: &mut QueryWorkspace,
    u: NodeId,
    slack: f64,
    out: &mut Vec<f64>,
) -> Result<f64, SlingError> {
    let c = e.config.c;
    // Largest step we must still process: the smallest ℓ with
    // c^ℓ/(1-c) ≤ slack can be dropped along with everything deeper.
    let cutoff: Option<u16> = if slack <= 0.0 {
        None
    } else {
        // c^ℓ ≤ slack (1-c)  ⇔  ℓ ≥ log(slack (1-c)) / log(c).
        let bound = (slack * (1.0 - c)).ln() / c.ln();
        if bound <= 0.0 {
            Some(0)
        } else {
            Some(bound.ceil() as u16)
        }
    };
    single_source_with_cutoff(e, graph, ws, u, cutoff, out)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::SlingConfig;
    use sling_graph::generators::{barabasi_albert, complete_graph, two_cliques_bridge};

    const C: f64 = 0.6;

    fn build(g: &DiGraph, eps: f64) -> SlingIndex {
        SlingIndex::build(g, &SlingConfig::from_epsilon(C, eps).with_seed(17)).unwrap()
    }

    #[test]
    fn select_top_k_basic() {
        let scores = vec![0.1, 0.5, 0.0, 0.5, 0.3];
        let top = select_top_k(&scores, None, 3);
        // Ties broken by ascending node id.
        assert_eq!(
            top,
            vec![(NodeId(1), 0.5), (NodeId(3), 0.5), (NodeId(4), 0.3)]
        );
    }

    #[test]
    fn select_top_k_excludes_and_clips() {
        let scores = vec![0.9, 0.2];
        assert_eq!(
            select_top_k(&scores, Some(NodeId(0)), 5),
            vec![(NodeId(1), 0.2)]
        );
        assert!(select_top_k(&scores, None, 0).is_empty());
    }

    #[test]
    fn select_top_k_clamps_huge_k() {
        let scores = vec![0.1, 0.5, 0.0, 0.5, 0.3];
        let all = select_top_k(&scores, Some(NodeId(4)), scores.len());
        assert_eq!(all.len(), 3);
        for k in [1 << 40, usize::MAX] {
            assert_eq!(select_top_k(&scores, Some(NodeId(4)), k), all, "k = {k}");
        }
        assert!(select_top_k(&[], None, usize::MAX).is_empty());
    }

    /// Full-sort selection: the oracle the bounded heap must reproduce.
    fn sort_top_k(scores: &[f64], exclude: NodeId, k: usize) -> Vec<(NodeId, f64)> {
        let mut ranked: Vec<(NodeId, f64)> = scores
            .iter()
            .enumerate()
            .filter(|&(i, &s)| i != exclude.index() && s > 0.0)
            .map(|(i, &s)| (NodeId::from_index(i), s))
            .collect();
        ranked.sort_unstable_by(|a, b| b.1.partial_cmp(&a.1).unwrap().then(a.0.cmp(&b.0)));
        ranked.truncate(k);
        ranked
    }

    #[test]
    fn heap_matches_sort_based_top_k() {
        let g = barabasi_albert(300, 3, 5).unwrap();
        let idx = build(&g, 0.1);
        for u in [NodeId(0), NodeId(7), NodeId(123)] {
            let scores = idx.single_source(&g, u);
            for k in [0, 1, 5, 50, 300, usize::MAX] {
                let heaped = idx.top_k(&g, u, k);
                assert_eq!(heaped, sort_top_k(&scores, u, k), "u = {u:?}, k = {k}");
            }
        }
    }

    /// A query cut short by the slack cutoff leaves the workspace in a
    /// state the next full top-k cannot observe: answers and the score
    /// vector equal those of a fresh workspace, bit for bit.
    #[test]
    fn truncated_query_then_top_k_matches_fresh_workspace() {
        let g = barabasi_albert(300, 3, 5).unwrap();
        let engine = crate::store::SharedEngine::from(build(&g, 0.1));
        let mut ws = QueryWorkspace::new();
        let (mut scores, mut fresh_scores) = (Vec::new(), Vec::new());
        for (cut, full) in [(0u32, 7u32), (123, 123), (7, 299)] {
            let residual = engine
                .single_source_truncated(&g, &mut ws, NodeId(cut), 0.05, &mut scores)
                .unwrap();
            assert!(residual > 0.0, "slack must cut the run sequence short");
            for k in [0, 1, 10, usize::MAX] {
                let got = engine
                    .top_k_with(&g, &mut ws, &mut scores, NodeId(full), k)
                    .unwrap();
                let want = engine
                    .top_k_with(
                        &g,
                        &mut QueryWorkspace::new(),
                        &mut fresh_scores,
                        NodeId(full),
                        k,
                    )
                    .unwrap();
                assert_eq!(got, want, "cut {cut}, full {full}, k {k}");
                let bits = |v: &[f64]| v.iter().map(|s| s.to_bits()).collect::<Vec<_>>();
                assert_eq!(bits(&scores), bits(&fresh_scores), "cut {cut}, full {full}");
            }
        }
    }

    #[test]
    fn approx_with_zero_slack_is_exact() {
        let g = two_cliques_bridge(5);
        let idx = build(&g, 0.05);
        for u in g.nodes() {
            assert_eq!(idx.top_k_approx(&g, u, 4, 0.0), idx.top_k(&g, u, 4));
        }
    }

    #[test]
    fn approx_scores_within_slack() {
        let g = barabasi_albert(200, 3, 9).unwrap();
        let idx = build(&g, 0.1);
        let slack = 0.02;
        for u in [NodeId(1), NodeId(50), NodeId(150)] {
            let full = idx.single_source(&g, u);
            let mut ws = QueryWorkspace::new();
            let mut truncated = Vec::new();
            let residual = idx.single_source_truncated(&g, &mut ws, u, slack, &mut truncated);
            assert!(residual <= slack + 1e-12);
            for v in g.nodes() {
                let diff = full[v.index()] - truncated[v.index()];
                assert!(
                    (-1e-12..=slack + 1e-12).contains(&diff),
                    "({u:?},{v:?}): full {} vs truncated {}",
                    full[v.index()],
                    truncated[v.index()]
                );
            }
        }
    }

    #[test]
    fn huge_slack_keeps_only_step_zero() {
        // slack ≥ c/(1-c) allows dropping every step except ℓ = 0; the
        // diagonal survives because step 0 always has h(0)(u,u) = 1.
        let g = complete_graph(4);
        let idx = build(&g, 0.1);
        let top = idx.top_k_approx(&g, NodeId(0), 3, C / (1.0 - C) + 0.01);
        // With only step 0 processed, off-diagonal scores vanish.
        assert!(top.iter().all(|&(_, s)| s >= 0.0));
        let mut ws = QueryWorkspace::new();
        let mut scores = Vec::new();
        let residual =
            idx.single_source_truncated(&g, &mut ws, NodeId(0), C / (1.0 - C) + 0.01, &mut scores);
        assert!(residual > 0.0);
        assert_eq!(scores[0], 1.0);
    }

    #[test]
    fn truncated_respects_exact_diagonal_flag() {
        let g = two_cliques_bridge(4);
        let idx = build(&g, 0.1);
        let mut ws = QueryWorkspace::new();
        let mut scores = Vec::new();
        idx.single_source_truncated(&g, &mut ws, NodeId(2), 0.01, &mut scores);
        assert_eq!(scores[2], 1.0);
    }

    #[test]
    fn workspace_clean_after_truncated_query() {
        let g = two_cliques_bridge(4);
        let idx = build(&g, 0.05);
        let mut ws = QueryWorkspace::new();
        let mut a = Vec::new();
        idx.single_source_truncated(&g, &mut ws, NodeId(0), 0.05, &mut a);
        let mut b = Vec::new();
        idx.single_source_truncated(&g, &mut ws, NodeId(0), 0.05, &mut b);
        assert_eq!(a, b);
    }
}
