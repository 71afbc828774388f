//! Algorithm 2 — deterministic local-update construction of the
//! approximate hitting-probability sets.
//!
//! For each node `v_k`, a breadth-first propagation over **out**-edges
//! computes, level by level, the approximate probabilities
//! `h̃⁽ℓ⁾(v_i, v_k)` that a √c-walk *from* `v_i` hits `v_k` at step ℓ,
//! using the recurrence (Eq. 16)
//!
//! ```text
//! h⁽ℓ⁺¹⁾(v_i, v_k) = (√c / |I(v_i)|) · Σ_{v_x ∈ I(v_i)} h⁽ℓ⁾(v_x, v_k).
//! ```
//!
//! Entries that fall to `≤ θ` are pruned (neither retained nor
//! propagated), which gives the one-sided Lemma 7 guarantee
//!
//! ```text
//! 0 ≥ h̃⁽ℓ⁾ − h⁽ℓ⁾ ≥ −(1 − (√c)ℓ)/(1 − √c) · θ
//! ```
//!
//! and bounds the work at `O(m/θ)` and the output at `O(1/θ)` entries per
//! node.

use sling_graph::{DiGraph, FxHashMap, NodeId};

/// One retained triple: `h̃⁽ˢᵗᵉᵖ⁾(owner, target) = value`, produced by the
/// traversal started at `target`.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct HpTriple {
    /// The node whose `H(owner)` set this entry belongs to.
    pub owner: NodeId,
    /// Step ℓ.
    pub step: u16,
    /// The traversal root `v_k` (the node being hit).
    pub target: NodeId,
    /// Approximate hitting probability, always `> θ`.
    pub value: f64,
}

/// Hard cap on the level count. Values at level ℓ are at most `(√c)^ℓ`,
/// so the loop stops naturally once `(√c)^ℓ ≤ θ`; the cap only guards
/// against pathological `θ ≈ 0` configurations.
pub const MAX_LEVELS: u16 = 256;

/// Run Algorithm 2's traversal from a single target `v_k`, invoking
/// `emit` for every retained entry. Entries for a fixed level are emitted
/// in ascending owner order (maps are drained through a sorted buffer),
/// making the overall emission order deterministic.
pub fn reverse_hp_from<F>(graph: &DiGraph, sqrt_c: f64, theta: f64, vk: NodeId, emit: &mut F)
where
    F: FnMut(HpTriple),
{
    debug_assert!(theta > 0.0);
    let mut current: FxHashMap<u32, f64> = FxHashMap::default();
    current.insert(vk.0, 1.0);
    let mut next: FxHashMap<u32, f64> = FxHashMap::default();
    let mut sorted: Vec<(u32, f64)> = Vec::new();

    for level in 0..MAX_LEVELS {
        if current.is_empty() {
            break;
        }
        sorted.clear();
        sorted.extend(current.iter().map(|(&k, &v)| (k, v)));
        sorted.sort_unstable_by_key(|&(k, _)| k);
        for &(owner, value) in &sorted {
            if value <= theta {
                continue; // pruned: not retained, not propagated
            }
            emit(HpTriple {
                owner: NodeId(owner),
                step: level,
                target: vk,
                value,
            });
            for &out in graph.out_neighbors(NodeId(owner)) {
                let contrib = sqrt_c * value / graph.in_degree(out) as f64;
                *next.entry(out.0).or_insert(0.0) += contrib;
            }
        }
        current.clear();
        std::mem::swap(&mut current, &mut next);
    }
}

/// Run Algorithm 2 for every target node in id order on the calling
/// thread, emitting all retained triples — the one stream the
/// out-of-core builder feeds its external sort. The in-memory build runs
/// the same per-target routine on the block loop of [`crate::parallel`].
pub fn reverse_hp_all<F>(graph: &DiGraph, sqrt_c: f64, theta: f64, emit: &mut F)
where
    F: FnMut(HpTriple),
{
    for vk in graph.nodes() {
        reverse_hp_from(graph, sqrt_c, theta, vk, emit);
    }
}

/// Collect the triples of a single traversal (testing convenience).
pub fn collect_from(graph: &DiGraph, sqrt_c: f64, theta: f64, vk: NodeId) -> Vec<HpTriple> {
    let mut out = Vec::new();
    reverse_hp_from(graph, sqrt_c, theta, vk, &mut |t| out.push(t));
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::reference::exact_hp_to_target;
    use sling_graph::generators::{complete_graph, cycle_graph, star_graph, two_cliques_bridge};
    use sling_graph::DiGraph;

    const C: f64 = 0.6;

    #[test]
    fn cycle_hits_walk_backwards() {
        // In a cycle 0->1->...->n-1->0, a √c-walk from v moves to v-1,
        // v-2, ...; hitting v_k at step ℓ has probability (√c)^ℓ iff
        // k ≡ v - ℓ (mod n).
        let n = 5u32;
        let g = cycle_graph(n as usize);
        let theta = 0.01;
        let sc = C.sqrt();
        let triples = collect_from(&g, sc, theta, NodeId(0));
        for t in &triples {
            let expected_owner = (t.step as u32) % n;
            assert_eq!(t.owner.0, expected_owner);
            assert!((t.value - sc.powi(t.step as i32)).abs() < 1e-12);
        }
        // Levels continue until (√c)^ℓ <= θ.
        let max_level = triples.iter().map(|t| t.step).max().unwrap();
        assert!(sc.powi(max_level as i32) > theta);
        assert!(sc.powi(max_level as i32 + 1) <= theta);
    }

    #[test]
    fn star_hub_traversal() {
        // Star: leaves point at hub 0. Out-neighbors of a leaf = {0};
        // I(0) = all q leaves. Traversal from leaf j: level 0 (j, 1.0);
        // level 1: hub gets √c/q; level 2: nothing (hub has no out-edges).
        let q = 4usize;
        let g = star_graph(q + 1);
        let triples = collect_from(&g, C.sqrt(), 0.001, NodeId(1));
        assert_eq!(triples.len(), 2);
        assert_eq!(triples[0].owner, NodeId(1));
        assert_eq!(triples[0].step, 0);
        assert_eq!(triples[1].owner, NodeId(0));
        assert_eq!(triples[1].step, 1);
        assert!((triples[1].value - C.sqrt() / q as f64).abs() < 1e-12);
    }

    /// Lemma 7: one-sided error, bounded by (1-(√c)^ℓ)/(1-√c)·θ.
    fn assert_lemma7(g: &DiGraph, theta: f64, vk: NodeId) {
        let sc = C.sqrt();
        let triples = collect_from(g, sc, theta, vk);
        let max_step = triples.iter().map(|t| t.step).max().unwrap_or(0).max(8);
        let exact = exact_hp_to_target(g, C, vk, max_step);
        for t in &triples {
            let h = exact[t.step as usize][t.owner.index()];
            let err = t.value - h;
            let bound = (1.0 - sc.powi(t.step as i32)) / (1.0 - sc) * theta;
            assert!(
                err <= 1e-12,
                "h̃ must underestimate: owner {:?} step {} err {err}",
                t.owner,
                t.step
            );
            assert!(
                err >= -bound - 1e-12,
                "err {err} below Lemma 7 bound {bound} at step {}",
                t.step
            );
        }
    }

    #[test]
    fn lemma7_bound_on_assorted_graphs() {
        assert_lemma7(&two_cliques_bridge(4), 0.02, NodeId(0));
        assert_lemma7(&complete_graph(5), 0.01, NodeId(2));
        assert_lemma7(&cycle_graph(6), 0.05, NodeId(3));
        assert_lemma7(&star_graph(6), 0.01, NodeId(0));
    }

    #[test]
    fn retained_values_exceed_theta() {
        let g = two_cliques_bridge(5);
        let theta = 0.01;
        for t in collect_from(&g, C.sqrt(), theta, NodeId(2)) {
            assert!(t.value > theta);
        }
    }

    #[test]
    fn per_node_output_bounded_by_observation_1() {
        // Σ_owner h̃(ℓ)(owner, vk) ≤ Σ_owner h(ℓ)(owner, vk) ... the bound
        // |entries at level ℓ| ≤ (√c)^ℓ/θ follows; summing levels gives
        // O(1/θ) per traversal. Verify the level-wise bound directly.
        let g = two_cliques_bridge(6);
        let theta = 0.005;
        let sc = C.sqrt();
        let triples = collect_from(&g, sc, theta, NodeId(0));
        let max_step = triples.iter().map(|t| t.step).max().unwrap();
        for l in 0..=max_step {
            let count = triples.iter().filter(|t| t.step == l).count();
            let cap = (sc.powi(l as i32) / theta).floor() as usize;
            assert!(count <= cap.max(1), "level {l}: {count} > {cap}");
        }
    }

    #[test]
    fn level_sums_respect_total_probability() {
        // Σ_owner h̃(ℓ)(owner, ·) over all targets equals the probability
        // mass of walks alive at step ℓ, ≤ n·(√c)^ℓ in aggregate.
        let g = complete_graph(5);
        let sc = C.sqrt();
        let mut level_sum = vec![0.0f64; 32];
        let mut emit = |t: HpTriple| level_sum[t.step as usize] += t.value;
        reverse_hp_all(&g, sc, 0.001, &mut emit);
        let n = g.num_nodes() as f64;
        for (l, &s) in level_sum.iter().enumerate() {
            assert!(
                s <= n * sc.powi(l as i32) + 1e-9,
                "level {l} mass {s} exceeds n(√c)^ℓ"
            );
        }
    }

    #[test]
    fn emission_order_is_deterministic() {
        let g = two_cliques_bridge(4);
        let a = collect_from(&g, C.sqrt(), 0.01, NodeId(1));
        let b = collect_from(&g, C.sqrt(), 0.01, NodeId(1));
        assert_eq!(a, b);
    }
}
