//! Hitting probabilities vs personalized PageRank (Appendix B).
//!
//! The paper's Appendix B contrasts SLING's hitting probabilities with
//! personalized PageRank: both are random-walk relevance measures, both
//! admit local-update computation, but they answer different questions —
//! PPR ranks nodes by where a walk *stops* (directional relevance),
//! SimRank by whether two walks *meet* (mutual structural similarity).
//! This example runs both on the same collaboration-style graph and
//! contrasts the rankings they induce around one node.
//!
//! ```sh
//! cargo run --release --example ppr_vs_simrank
//! ```

use sling_simrank::core::ppr::{ppr_from_source, ppr_to_target};
use sling_simrank::core::{SlingConfig, SlingIndex};
use sling_simrank::graph::generators::barabasi_albert;
use sling_simrank::graph::transform::transpose;
use sling_simrank::graph::NodeId;

const C: f64 = 0.6;

fn main() {
    let graph = barabasi_albert(3000, 3, 21).expect("valid generator");
    println!(
        "graph: {} nodes, {} edges",
        graph.num_nodes(),
        graph.num_edges()
    );
    let anchor = NodeId(100);

    // SimRank top-10 via the SLING index.
    let config = SlingConfig::from_epsilon(C, 0.025).with_seed(5);
    let index = SlingIndex::build(&graph, &config).expect("valid config");
    let simrank_top = index.top_k(&graph, anchor, 10);

    // PPR over the same edge direction √c-walks use (in-edges), i.e. on
    // the transpose graph, with matching decay α = √c. Forward power
    // iteration here; `ppr_to_target` is the local-update (reverse push)
    // form shown afterwards.
    let alpha = C.sqrt();
    let gt = transpose(&graph);
    let ppr = ppr_from_source(&gt, alpha, anchor, 1e-12);
    let mut ppr_top: Vec<(usize, f64)> = ppr
        .iter()
        .copied()
        .enumerate()
        .filter(|&(v, s)| v != anchor.index() && s > 0.0)
        .collect();
    ppr_top.sort_by(|a, b| b.1.partial_cmp(&a.1).unwrap());
    ppr_top.truncate(10);

    println!("\n{:^28} | {:^28}", "SimRank top-10", "PPR top-10");
    println!("{:-^28} | {:-^28}", "", "");
    for i in 0..10 {
        let left = simrank_top
            .get(i)
            .map(|&(v, s)| format!("{:>6}  s = {s:.4}", v.0))
            .unwrap_or_default();
        let right = ppr_top
            .get(i)
            .map(|&(v, s)| format!("{v:>6}  p = {s:.4}"))
            .unwrap_or_default();
        println!("{left:<28} | {right:<28}");
    }
    let overlap = simrank_top
        .iter()
        .filter(|(v, _)| ppr_top.iter().any(|&(w, _)| w == v.index()))
        .count();
    println!("\noverlap between the two top-10 lists: {overlap}/10");

    // The local-update form: ppr(·, anchor) for every source at once,
    // touching only the anchor's neighborhood (Algorithm 2's relative).
    let to_anchor = ppr_to_target(&gt, alpha, anchor, 1e-4);
    let touched = to_anchor.iter().filter(|&&p| p > 0.0).count();
    println!(
        "reverse push to the anchor touched {touched} of {} nodes (θ = 1e-4)",
        graph.num_nodes()
    );
}
