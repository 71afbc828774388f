//! Benchmarks for the extension query types (top-k join, threshold join,
//! dynamic updates, out-of-core queries) — features beyond the paper's
//! evaluation, measured so EXPERIMENTS.md can report their costs.

use criterion::{criterion_group, criterion_main, Criterion};
use sling_bench::{params_for, sling_config};
use sling_core::dynamic::{DynamicConfig, DynamicSling, StalePolicy};
use sling_core::join::JoinStrategy;
use sling_core::{Residency, SharedEngine, SlingIndex};
use sling_graph::datasets::{by_name, Tier};
use sling_graph::NodeId;

fn bench_joins(c: &mut Criterion) {
    let graph = by_name("as-sim").unwrap().build();
    let params = params_for(Tier::Small, Some(0.05));
    let index = SlingIndex::build(&graph, &sling_config(&params, 42)).unwrap();
    let mut group = c.benchmark_group("extensions/threshold_join");
    group.sample_size(10);
    for (name, strategy) in [
        ("per_source", JoinStrategy::PerSource),
        ("inverted_lists", JoinStrategy::InvertedLists),
    ] {
        group.bench_function(name, |b| {
            b.iter(|| std::hint::black_box(index.threshold_join(&graph, 0.1, strategy).unwrap()))
        });
    }
    group.finish();
}

fn bench_dynamic_updates(c: &mut Criterion) {
    let graph = by_name("as-sim").unwrap().build();
    let params = params_for(Tier::Small, Some(0.05));
    let n = graph.num_nodes() as u32;
    let mut group = c.benchmark_group("extensions/dynamic");
    group.sample_size(10);
    group.bench_function("update_and_tainted_query_mc", |b| {
        let mut cfg = DynamicConfig::new(sling_config(&params, 42));
        cfg.policy = StalePolicy::MonteCarloFallback { delta: 1e-4 };
        cfg.rebuild_fraction = f64::INFINITY;
        let mut idx = DynamicSling::new(&graph, cfg).unwrap();
        let mut i = 0u32;
        b.iter(|| {
            let (u, v) = (i % n, (i * 7 + 1) % n);
            i += 1;
            // Toggle an edge and immediately query near it.
            if !idx.insert_edge(NodeId(u), NodeId(v)).unwrap() {
                idx.remove_edge(NodeId(u), NodeId(v)).unwrap();
            }
            std::hint::black_box(idx.single_pair(NodeId(v), NodeId((v + 1) % n)).unwrap())
        })
    });
    group.bench_function("untainted_query_after_update", |b| {
        let mut cfg = DynamicConfig::new(sling_config(&params, 42));
        cfg.policy = StalePolicy::ServeStale;
        cfg.rebuild_fraction = f64::INFINITY;
        let mut idx = DynamicSling::new(&graph, cfg).unwrap();
        idx.insert_edge(NodeId(0), NodeId(1)).unwrap();
        let mut i = 0u32;
        b.iter(|| {
            let (u, v) = (i % n, (i * 13 + 3) % n);
            i += 1;
            std::hint::black_box(idx.single_pair(NodeId(u), NodeId(v)).unwrap())
        })
    });
    group.finish();
}

fn bench_mapped_store(c: &mut Criterion) {
    let graph = by_name("as-sim").unwrap().build();
    let params = params_for(Tier::Small, Some(0.05));
    let index = SlingIndex::build(&graph, &sling_config(&params, 42)).unwrap();
    let path = std::env::temp_dir().join(format!("sling_bench_mapped_{}", std::process::id()));
    index.save(&path).unwrap();
    let engine = SharedEngine::open(&graph, &path, Residency::Mapped).unwrap();
    let n = graph.num_nodes() as u32;
    let mut group = c.benchmark_group("extensions/out_of_core_query");
    group.sample_size(20);
    let mut i = 0u32;
    group.bench_function("mapped_single_pair", |b| {
        b.iter(|| {
            let (u, v) = (i % n, (i * 31 + 5) % n);
            i += 1;
            std::hint::black_box(engine.single_pair(&graph, NodeId(u), NodeId(v)).unwrap())
        })
    });
    let mut i = 0u32;
    group.bench_function("mapped_single_source", |b| {
        b.iter(|| {
            let u = i % n;
            i += 1;
            std::hint::black_box(engine.single_source(&graph, NodeId(u)).unwrap())
        })
    });
    group.finish();
    std::fs::remove_file(&path).ok();
}

criterion_group!(
    benches,
    bench_joins,
    bench_dynamic_updates,
    bench_mapped_store
);
criterion_main!(benches);
