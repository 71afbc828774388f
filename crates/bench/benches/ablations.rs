//! Ablation benchmarks for the §5 optimizations and the extension
//! features, the design choices `DESIGN.md` §3 calls out:
//!
//! * space reduction (§5.2) on/off — query cost of recomputing step-1/2
//!   HPs on the fly versus reading them from the index;
//! * accuracy enhancement (§5.3) on/off — the marked-HP expansion's query
//!   overhead;
//! * adaptive (Algorithm 4) vs basic (Algorithm 1) d̃ estimation — build
//!   time;
//! * top-k: exact vs early-terminating approximate propagation;
//! * single-pair result caching under a skewed (hot-node) workload.

use criterion::{criterion_group, criterion_main, Criterion};
use sling_bench::{params_for, sample_pairs, sling_config};
use sling_core::{QueryWorkspace, ShardedResultCache, SlingIndex};
use sling_graph::datasets::{by_name, Tier};
use sling_graph::NodeId;

fn bench_space_reduction_and_enhancement(c: &mut Criterion) {
    let graph = by_name("grqc-sim").unwrap().build();
    let params = params_for(Tier::Small, Some(0.05));
    let base = sling_config(&params, 42);
    let variants = [
        (
            "baseline",
            base.clone()
                .with_space_reduction(false)
                .with_enhancement(false),
        ),
        (
            "space_reduction",
            base.clone()
                .with_space_reduction(true)
                .with_enhancement(false),
        ),
        (
            "enhancement",
            base.clone()
                .with_space_reduction(false)
                .with_enhancement(true),
        ),
        (
            "both",
            base.clone()
                .with_space_reduction(true)
                .with_enhancement(true),
        ),
    ];
    let pairs = sample_pairs(graph.num_nodes(), 256, 7);
    let mut group = c.benchmark_group("ablation/single_pair_query");
    group.sample_size(20);
    for (name, config) in variants {
        let index = SlingIndex::build(&graph, &config).unwrap();
        let mut ws = QueryWorkspace::new();
        let mut cursor = 0usize;
        group.bench_function(name, |b| {
            b.iter(|| {
                let (u, v) = pairs[cursor % pairs.len()];
                cursor += 1;
                std::hint::black_box(index.single_pair_with(&graph, &mut ws, u, v))
            })
        });
    }
    group.finish();
}

fn bench_dk_estimators(c: &mut Criterion) {
    let graph = by_name("as-sim").unwrap().build();
    let params = params_for(Tier::Small, Some(0.05));
    let mut group = c.benchmark_group("ablation/dk_estimation_build");
    group.sample_size(10);
    for (name, adaptive) in [("algorithm1_basic", false), ("algorithm4_adaptive", true)] {
        let config = sling_config(&params, 42).with_adaptive_dk(adaptive);
        group.bench_function(name, |b| {
            b.iter(|| std::hint::black_box(SlingIndex::build(&graph, &config).unwrap()))
        });
    }
    group.finish();
}

fn bench_topk_strategies(c: &mut Criterion) {
    let graph = by_name("grqc-sim").unwrap().build();
    let params = params_for(Tier::Small, Some(0.05));
    let index = SlingIndex::build(&graph, &sling_config(&params, 42)).unwrap();
    let sources: Vec<NodeId> = (0..32u32)
        .map(|i| NodeId(i * 61 % graph.num_nodes() as u32))
        .collect();
    let k = 50;
    let mut group = c.benchmark_group("ablation/topk");
    group.sample_size(20);
    let mut cursor = 0usize;
    group.bench_function("exact", |b| {
        b.iter(|| {
            let u = sources[cursor % sources.len()];
            cursor += 1;
            std::hint::black_box(index.top_k(&graph, u, k))
        })
    });
    let mut cursor = 0usize;
    group.bench_function("approx_slack_0.01", |b| {
        b.iter(|| {
            let u = sources[cursor % sources.len()];
            cursor += 1;
            std::hint::black_box(index.top_k_approx(&graph, u, k, 0.01))
        })
    });
    group.finish();
}

fn bench_query_cache(c: &mut Criterion) {
    let graph = by_name("grqc-sim").unwrap().build();
    let params = params_for(Tier::Small, Some(0.05));
    let index = SlingIndex::build(&graph, &sling_config(&params, 42)).unwrap();
    // Skewed workload: 32 hot nodes queried against each other repeatedly.
    let hot: Vec<NodeId> = (0..32u32)
        .map(|i| NodeId(i * 17 % graph.num_nodes() as u32))
        .collect();
    let workload: Vec<(NodeId, NodeId)> = (0..1024)
        .map(|i| (hot[i % 32], hot[(i * 7 + 1) % 32]))
        .collect();
    let engine = index.into_shared_engine();
    let mut group = c.benchmark_group("ablation/query_cache");
    group.sample_size(20);
    let mut ws = QueryWorkspace::new();
    let mut cursor = 0usize;
    group.bench_function("uncached", |b| {
        b.iter(|| {
            let (u, v) = workload[cursor % workload.len()];
            cursor += 1;
            std::hint::black_box(engine.single_pair_with(&graph, &mut ws, u, v).unwrap())
        })
    });
    let cache = ShardedResultCache::with_capacity(4096);
    let mut cursor = 0usize;
    group.bench_function("lru_cached", |b| {
        b.iter(|| {
            let (u, v) = workload[cursor % workload.len()];
            cursor += 1;
            std::hint::black_box(
                engine
                    .single_pair_cached(&graph, &mut ws, &cache, u, v)
                    .unwrap(),
            )
        })
    });
    group.finish();
}

criterion_group!(
    benches,
    bench_space_reduction_and_enhancement,
    bench_dk_estimators,
    bench_topk_strategies,
    bench_query_cache
);
criterion_main!(benches);
