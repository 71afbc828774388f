//! Item-to-item recommendation on a user–item click graph.
//!
//! The SLING paper's introduction motivates SimRank with collaborative
//! filtering; SimRank++ (Antonellis et al.) applied it to query–ad click
//! graphs. This example builds a bipartite "users click items" graph with
//! preferential popularity, then:
//!
//! 1. recommends similar items with top-k single-source queries,
//! 2. compares plain SimRank against the SimRank++ evidence reweighting,
//! 3. mines globally similar item pairs with a threshold similarity join.
//!
//! ```sh
//! cargo run --release --example recommendation
//! ```

use sling_simrank::baselines::evidence;
use sling_simrank::core::join::JoinStrategy;
use sling_simrank::core::{SlingConfig, SlingIndex};
use sling_simrank::graph::generators::preferential_bipartite;
use sling_simrank::graph::NodeId;

const USERS: usize = 3000;
const ITEMS: usize = 400;
const CLICKS_PER_USER: usize = 4;

fn main() {
    // Users 0..USERS, items USERS..USERS+ITEMS; each user clicks four
    // items, popular items attract more clicks (preferential urn).
    let graph = preferential_bipartite(USERS, ITEMS, CLICKS_PER_USER, 99).expect("valid generator");
    println!(
        "click graph: {} users x {} items, {} clicks",
        USERS,
        ITEMS,
        graph.num_edges()
    );

    // Item similarity flows through shared clickers: item <- user -> item.
    let config = SlingConfig::from_epsilon(0.6, 0.025).with_seed(17);
    let start = std::time::Instant::now();
    let index = SlingIndex::build(&graph, &config).expect("valid config");
    println!("index built in {:.2?}", start.elapsed());

    // 1. "Customers who clicked this also clicked" — top-k per item.
    let anchor = NodeId((USERS + 3) as u32);
    let start = std::time::Instant::now();
    let recs = index.top_k(&graph, anchor, 5);
    println!(
        "\ntop-5 items similar to item {} ({:.1?}):",
        anchor.0 - USERS as u32,
        start.elapsed()
    );
    for (v, s) in &recs {
        println!("  item {:>4}  s = {s:.4}", v.0 - USERS as u32);
    }

    // 2. Evidence reweighting: pairs sharing many clickers gain rank.
    println!("\nSimRank vs SimRank++ evidence for the top recommendations:");
    for (v, s) in &recs {
        let e = evidence(&graph, anchor, *v);
        println!(
            "  item {:>4}  s = {s:.4}  evidence = {e:.3}  s++ = {:.4}",
            v.0 - USERS as u32,
            s * e
        );
    }

    // 3. Catalog-wide similar-item mining via the threshold join. Items
    //    live on the right side; restrict the report to item pairs.
    let start = std::time::Instant::now();
    let pairs = index
        .threshold_join(&graph, 0.05, JoinStrategy::InvertedLists)
        .expect("positive threshold");
    let item_pairs: Vec<_> = pairs
        .iter()
        .filter(|p| p.u.index() >= USERS && p.v.index() >= USERS)
        .collect();
    println!(
        "\nthreshold join (tau = 0.05): {} item pairs of {} total pairs in {:.2?}",
        item_pairs.len(),
        pairs.len(),
        start.elapsed()
    );
    for p in item_pairs.iter().take(5) {
        println!(
            "  items ({:>4}, {:>4})  s = {:.4}",
            p.u.0 - USERS as u32,
            p.v.0 - USERS as u32,
            p.score
        );
    }
}
