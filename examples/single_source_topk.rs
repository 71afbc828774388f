//! "Who to follow": single-source SimRank recommendations on a directed
//! social graph, comparing the two single-source strategies of §6 —
//! Algorithm 6 (on-the-fly inverted lists) vs Algorithm 3 once per node.
//!
//! ```sh
//! cargo run --release --example single_source_topk
//! ```

use sling_simrank::core::{QueryWorkspace, SlingConfig, SlingIndex};
use sling_simrank::graph::generators::{rmat, RmatConfig};
use sling_simrank::graph::NodeId;

fn main() {
    // Directed follower graph with hub structure.
    let graph = rmat(14, 120_000, RmatConfig::default(), 123).expect("valid config");
    println!(
        "graph: {} nodes, {} edges",
        graph.num_nodes(),
        graph.num_edges()
    );

    let config = SlingConfig::from_epsilon(0.6, 0.05).with_seed(4);
    let index = SlingIndex::build(&graph, &config).expect("valid config");
    println!(
        "index: {} entries, {} bytes",
        index.stats().entries_stored,
        index.resident_bytes()
    );

    // Pick a well-connected user.
    let user = (0..graph.num_nodes() as u32)
        .map(NodeId)
        .max_by_key(|&v| graph.in_degree(v))
        .expect("non-empty graph");

    // Algorithm 6.
    let mut ws = QueryWorkspace::new();
    let mut scores = Vec::new();
    let start = std::time::Instant::now();
    index.single_source_with(&graph, &mut ws, user, &mut scores);
    let alg6 = start.elapsed();

    // Algorithm 3 once per node (the straightforward O(n/eps) strategy).
    let start = std::time::Instant::now();
    let via_pairs = index.single_source_via_pairs(&graph, user);
    let alg3 = start.elapsed();

    println!("single-source from node {user}: Algorithm 6 {alg6:.2?} vs Algorithm 3xN {alg3:.2?}");
    println!("(the paper's Figure 2 shows the same ordering: Algorithm 6 wins in practice)");

    // The two strategies agree within the scaled truncation slack of
    // Algorithm 6 (Lemma 12).
    let worst = scores
        .iter()
        .zip(&via_pairs)
        .map(|(a, b)| (a - b).abs())
        .fold(0.0f64, f64::max);
    println!("max disagreement between strategies: {worst:.5}");
    assert!(worst <= config.epsilon);

    // Show the recommendations.
    println!("top-10 similar accounts for user {user}:");
    for (v, s) in index.top_k(&graph, user, 10) {
        println!("  {v:>7}  s = {s:.4}  (in-degree {})", graph.in_degree(v));
    }
}
