//! SimRank similarity joins over the SLING index.
//!
//! The paper's §8 surveys similarity joins — "all pairs of nodes whose
//! SimRank scores are among the largest k, or are larger than a predefined
//! threshold" — as a major SimRank query class. The SLING index answers
//! both without any additional precomputation:
//!
//! * [`SlingIndex::threshold_join`] — every unordered pair `{u, v}` with
//!   `s̃(u, v) ≥ tau`.
//! * [`SlingIndex::top_k_join`] — the `k` unordered pairs with the highest
//!   scores.
//!
//! Two execution strategies are provided:
//!
//! * **PerSource** runs Algorithm 6 once per node — `O(n · m log² 1/ε)`
//!   worst case but with tiny constants and `O(n)` transient memory.
//! * **InvertedLists** materializes the inverted HP lists `L(k, ℓ)` of §6
//!   for *all* nodes at once and accumulates Eq. (13) per pair:
//!   `s̃(u, v) = Σ_{ℓ,k} h̃⁽ℓ⁾(u,k) · d̃_k · h̃⁽ℓ⁾(v,k)`. Cost is
//!   `Σ_{ℓ,k} |L(k,ℓ)|²`, which on sparse similarity structures is far
//!   below `n` single-source queries, but degrades on graphs with hub
//!   nodes whose inverted lists are long (the classic quadratic blow-up of
//!   inverted-list joins). Transient memory is one entry per nonzero pair.
//!
//! The strategies differ in which approximation they evaluate, exactly as
//! the paper's two query algorithms do: **InvertedLists** evaluates the
//! Algorithm-3 sum (stored `H*` entries on both sides), while
//! **PerSource** evaluates Algorithm 6 (forward propagation with the
//! scaled pruning threshold). Both carry the index's ε guarantee, and they
//! agree pairwise within the extra truncation budget
//! `2√c·θ/((1-√c)(1-c))` — the same slack that separates Algorithms 3 and
//! 6 on single-source queries. Tests pin them to each other within that
//! slack and to the power-method ground truth within ε.

use sling_graph::{DiGraph, NodeId};

use crate::error::SlingError;
use crate::index::{effective_entries_into, Buf, QueryWorkspace, SlingIndex};
use crate::single_source::{single_source_core, SingleSourceWorkspace};
use crate::store::{EngineRef, HpStore};

/// How a join materializes pair scores.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum JoinStrategy {
    /// One Algorithm-6 query per node; `O(n)` transient memory.
    PerSource,
    /// Global inverted-list accumulation of Eq. (13); memory proportional
    /// to the number of nonzero pairs.
    InvertedLists,
}

/// One joined pair: `u < v` and its approximate SimRank score.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct JoinPair {
    /// Smaller endpoint.
    pub u: NodeId,
    /// Larger endpoint.
    pub v: NodeId,
    /// `s̃(u, v)`, clamped to `[0, 1]`.
    pub score: f64,
}

fn sort_pairs(pairs: &mut [JoinPair]) {
    pairs.sort_unstable_by(|a, b| {
        b.score
            .partial_cmp(&a.score)
            .expect("scores are finite")
            .then(a.u.cmp(&b.u))
            .then(a.v.cmp(&b.v))
    });
}

impl SlingIndex {
    /// All unordered pairs `{u, v}` (`u ≠ v`) with `s̃(u, v) ≥ tau`,
    /// ordered by descending score (ties: ascending `(u, v)`).
    ///
    /// `tau` must be positive: a zero threshold would ask for all `n(n-1)/2`
    /// pairs, which is never the intent of a similarity join.
    ///
    /// ```
    /// use sling_core::join::JoinStrategy;
    /// use sling_core::{SlingConfig, SlingIndex};
    /// use sling_graph::generators::two_cliques_bridge;
    ///
    /// let g = two_cliques_bridge(4);
    /// let index = SlingIndex::build(&g, &SlingConfig::from_epsilon(0.6, 0.05)).unwrap();
    /// let pairs = index.threshold_join(&g, 0.1, JoinStrategy::PerSource).unwrap();
    /// assert!(pairs.iter().all(|p| p.score >= 0.1 && p.u < p.v));
    /// ```
    pub fn threshold_join(
        &self,
        graph: &DiGraph,
        tau: f64,
        strategy: JoinStrategy,
    ) -> Result<Vec<JoinPair>, SlingError> {
        threshold_join_core(self.engine_ref(), graph, tau, strategy)
    }

    /// The `k` unordered pairs with the largest scores (self-pairs
    /// excluded, matching the paper's top-k evaluation protocol), ordered
    /// by descending score.
    ///
    /// `prune` is a score threshold below which pairs can be discarded
    /// early; pass the smallest score still of interest (e.g. the paper's
    /// Figure 7 protocol only ranks pairs with non-negligible scores) or
    /// a tiny positive value for an exact global top-k over nonzero pairs.
    pub fn top_k_join(
        &self,
        graph: &DiGraph,
        k: usize,
        prune: f64,
        strategy: JoinStrategy,
    ) -> Result<Vec<JoinPair>, SlingError> {
        let mut pairs = self.threshold_join(graph, prune.max(f64::MIN_POSITIVE), strategy)?;
        pairs.truncate(k);
        Ok(pairs)
    }
}

/// Similarity join over any storage backend (see
/// [`SlingIndex::threshold_join`] for the contract).
pub(crate) fn threshold_join_core<S: HpStore>(
    e: EngineRef<'_, S>,
    graph: &DiGraph,
    tau: f64,
    strategy: JoinStrategy,
) -> Result<Vec<JoinPair>, SlingError> {
    if tau.partial_cmp(&0.0) != Some(std::cmp::Ordering::Greater) {
        return Err(SlingError::InvalidConfig(format!(
            "threshold join requires tau > 0 (got {tau})"
        )));
    }
    let mut pairs = match strategy {
        JoinStrategy::PerSource => join_per_source(e, graph, tau)?,
        JoinStrategy::InvertedLists => join_inverted(e, graph, tau)?,
    };
    sort_pairs(&mut pairs);
    Ok(pairs)
}

fn join_per_source<S: HpStore>(
    e: EngineRef<'_, S>,
    graph: &DiGraph,
    tau: f64,
) -> Result<Vec<JoinPair>, SlingError> {
    let mut ws = SingleSourceWorkspace::new();
    let mut scores = Vec::new();
    let mut out = Vec::new();
    for u in graph.nodes() {
        single_source_core(e, graph, &mut ws, u, &mut scores)?;
        // Untouched slots are `0.0 < tau`: scan only the reached nodes
        // above `u`, ascending.
        for i in ws.dense.touched().skip_while(|&i| i <= u.index()) {
            let s = scores[i];
            if s >= tau {
                out.push(JoinPair {
                    u,
                    v: NodeId::from_index(i),
                    score: s,
                });
            }
        }
    }
    Ok(out)
}

fn join_inverted<S: HpStore>(
    e: EngineRef<'_, S>,
    graph: &DiGraph,
    tau: f64,
) -> Result<Vec<JoinPair>, SlingError> {
    // 1. Materialize every node's effective entry list as global
    //    triples (step, k, owner, value), then group by (step, k) to
    //    obtain the inverted lists L(k, ℓ) of §6.
    let mut triples: Vec<(u16, u32, u32, f64)> = Vec::new();
    let mut ws = QueryWorkspace::new();
    for v in graph.nodes() {
        effective_entries_into(e, graph, v, &mut ws, Buf::A)?;
        for x in &ws.buf_a {
            triples.push((x.step, x.node.0, v.0, x.value));
        }
    }
    triples.sort_unstable_by_key(|&(step, k, owner, _)| (step, k, owner));

    // 2. Accumulate Eq. (13) per unordered pair across all lists.
    let mut acc: sling_graph::FxHashMap<(u32, u32), f64> = sling_graph::FxHashMap::default();
    let mut lo = 0;
    while lo < triples.len() {
        let (step, k, _, _) = triples[lo];
        let mut hi = lo;
        while hi < triples.len() && triples[hi].0 == step && triples[hi].1 == k {
            hi += 1;
        }
        let dk = e.d[k as usize];
        if dk > 0.0 {
            let list = &triples[lo..hi];
            for (i, &(_, _, a, ha)) in list.iter().enumerate() {
                let weighted = ha * dk;
                for &(_, _, b, hb) in &list[i + 1..] {
                    // owners within a list are strictly ascending.
                    *acc.entry((a, b)).or_insert(0.0) += weighted * hb;
                }
            }
        }
        lo = hi;
    }

    // 3. Threshold, clamp, done.
    Ok(acc
        .into_iter()
        .filter(|&(_, s)| s.min(1.0) >= tau)
        .map(|((a, b), s)| JoinPair {
            u: NodeId(a),
            v: NodeId(b),
            score: s.clamp(0.0, 1.0),
        })
        .collect())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::SlingConfig;
    use crate::reference::exact_simrank;
    use sling_graph::generators::{
        barabasi_albert, complete_graph, cycle_graph, star_graph, two_cliques_bridge,
    };

    const C: f64 = 0.6;

    fn build(g: &DiGraph, eps: f64) -> SlingIndex {
        SlingIndex::build(g, &SlingConfig::from_epsilon(C, eps).with_seed(23)).unwrap()
    }

    #[test]
    fn rejects_nonpositive_threshold() {
        let g = cycle_graph(4);
        let idx = build(&g, 0.1);
        assert!(idx
            .threshold_join(&g, 0.0, JoinStrategy::PerSource)
            .is_err());
        assert!(idx
            .threshold_join(&g, -0.5, JoinStrategy::InvertedLists)
            .is_err());
    }

    #[test]
    fn strategies_agree_within_truncation_slack() {
        let tau = 0.01;
        for g in [
            two_cliques_bridge(4),
            star_graph(7),
            complete_graph(5),
            barabasi_albert(60, 2, 3).unwrap(),
        ] {
            let idx = build(&g, 0.05);
            let sc = C.sqrt();
            let slack = 2.0 * sc * idx.config().theta / ((1.0 - sc) * (1.0 - C)) + 1e-9;
            let to_map = |pairs: Vec<JoinPair>| -> sling_graph::FxHashMap<(u32, u32), f64> {
                pairs
                    .into_iter()
                    .map(|p| ((p.u.0, p.v.0), p.score))
                    .collect()
            };
            let a = to_map(
                idx.threshold_join(&g, tau, JoinStrategy::PerSource)
                    .unwrap(),
            );
            let b = to_map(
                idx.threshold_join(&g, tau, JoinStrategy::InvertedLists)
                    .unwrap(),
            );
            for (key, &sa) in &a {
                match b.get(key) {
                    Some(&sb) => assert!((sa - sb).abs() <= slack, "{key:?}: {sa} vs {sb}"),
                    // A pair found by only one strategy must sit within
                    // the slack band around the threshold.
                    None => assert!(sa < tau + slack, "{key:?}: {sa} missing from inverted"),
                }
            }
            for (key, &sb) in &b {
                if !a.contains_key(key) {
                    assert!(sb < tau + slack, "{key:?}: {sb} missing from per-source");
                }
            }
        }
    }

    #[test]
    fn join_matches_ground_truth_pair_set() {
        let g = two_cliques_bridge(4);
        let eps = 0.05;
        let idx = build(&g, eps);
        let truth = exact_simrank(&g, C, 60);
        let tau = 0.15;
        let joined = idx
            .threshold_join(&g, tau, JoinStrategy::InvertedLists)
            .unwrap();
        let found: std::collections::BTreeSet<(u32, u32)> =
            joined.iter().map(|p| (p.u.0, p.v.0)).collect();
        for u in 0..g.num_nodes() {
            for v in (u + 1)..g.num_nodes() {
                let s = truth[u][v];
                // Pairs clearly above tau must be found; pairs clearly
                // below must not be (the ±eps band is allowed either way).
                if s >= tau + eps {
                    assert!(
                        found.contains(&(u as u32, v as u32)),
                        "missing ({u},{v}): s={s}"
                    );
                }
                if s < tau - eps {
                    assert!(
                        !found.contains(&(u as u32, v as u32)),
                        "spurious ({u},{v}): s={s}"
                    );
                }
            }
        }
    }

    #[test]
    fn join_scores_within_eps_of_truth() {
        let g = star_graph(6);
        let eps = 0.05;
        let idx = build(&g, eps);
        let truth = exact_simrank(&g, C, 60);
        for p in idx
            .threshold_join(&g, 0.01, JoinStrategy::PerSource)
            .unwrap()
        {
            let t = truth[p.u.index()][p.v.index()];
            assert!((p.score - t).abs() <= eps, "{p:?} truth {t}");
        }
    }

    #[test]
    fn results_ordered_and_deduplicated() {
        let g = barabasi_albert(80, 3, 5).unwrap();
        let idx = build(&g, 0.1);
        let joined = idx
            .threshold_join(&g, 0.02, JoinStrategy::InvertedLists)
            .unwrap();
        assert!(joined.windows(2).all(|w| w[0].score >= w[1].score));
        let mut keys: Vec<(u32, u32)> = joined.iter().map(|p| (p.u.0, p.v.0)).collect();
        let before = keys.len();
        keys.sort_unstable();
        keys.dedup();
        assert_eq!(keys.len(), before, "duplicate pairs emitted");
        assert!(joined.iter().all(|p| p.u < p.v), "pairs not canonicalized");
    }

    #[test]
    fn top_k_join_takes_best_pairs() {
        let g = two_cliques_bridge(5);
        let idx = build(&g, 0.05);
        let all = idx
            .threshold_join(&g, 0.001, JoinStrategy::PerSource)
            .unwrap();
        let top3 = idx
            .top_k_join(&g, 3, 0.001, JoinStrategy::PerSource)
            .unwrap();
        assert_eq!(&all[..3], &top3[..]);
        // Within-clique pairs dominate cross-clique ones.
        for p in &top3 {
            assert_eq!(p.u.0 < 5, p.v.0 < 5, "cross-clique pair {p:?} in top 3");
        }
    }

    /// The per-source join scans only the nodes each query reached; it
    /// must yield exactly the pairs a scan of every dense row does.
    #[test]
    fn per_source_join_matches_dense_scan_oracle() {
        let g = barabasi_albert(300, 3, 7).unwrap();
        let idx = build(&g, 0.1);
        let rows: Vec<Vec<f64>> = g.nodes().map(|u| idx.single_source(&g, u)).collect();
        let bits = |pairs: &[JoinPair]| -> Vec<(NodeId, NodeId, u64)> {
            pairs
                .iter()
                .map(|p| (p.u, p.v, p.score.to_bits()))
                .collect()
        };
        let mut sizes = Vec::new();
        for tau in [0.005, 0.05] {
            let mut oracle = Vec::new();
            for (u, row) in rows.iter().enumerate() {
                for (v, &score) in row.iter().enumerate().skip(u + 1) {
                    if score >= tau {
                        oracle.push(JoinPair {
                            u: NodeId::from_index(u),
                            v: NodeId::from_index(v),
                            score,
                        });
                    }
                }
            }
            sort_pairs(&mut oracle);
            let joined = idx
                .threshold_join(&g, tau, JoinStrategy::PerSource)
                .unwrap();
            assert!(!joined.is_empty(), "tau {tau} joins nothing");
            assert_eq!(bits(&joined), bits(&oracle), "tau {tau}");
            sizes.push(joined.len());
        }
        assert!(
            sizes[0] > sizes[1],
            "the two thresholds must differ: {sizes:?}"
        );
    }

    #[test]
    fn cycle_has_no_joined_pairs() {
        // On a directed cycle every off-diagonal SimRank score is 0.
        let g = cycle_graph(6);
        let idx = build(&g, 0.05);
        for strategy in [JoinStrategy::PerSource, JoinStrategy::InvertedLists] {
            assert!(idx.threshold_join(&g, 0.01, strategy).unwrap().is_empty());
        }
    }
}
