//! Criterion micro-benchmark behind Figure 2: single-source latency of
//! SLING's Algorithm 6 vs Algorithm-3-per-node vs Linearize.

use criterion::{criterion_group, criterion_main, Criterion};
use sling_baselines::linearize::Linearize;
use sling_bench::{params_for, sample_nodes, sling_config};
use sling_core::{QueryWorkspace, SlingIndex};
use sling_graph::datasets::{by_name, Tier};

fn bench_single_source(c: &mut Criterion) {
    let spec = by_name("as-sim").unwrap();
    let graph = spec.build();
    let params = params_for(Tier::Small, Some(0.05));
    let sling = SlingIndex::build(&graph, &sling_config(&params, 42)).unwrap();
    let lin = Linearize::build(&graph, &params.lin);
    let sources = sample_nodes(graph.num_nodes(), 64, 3);

    let mut group = c.benchmark_group("single_source/as-sim");
    group.sample_size(10);
    let mut ws = QueryWorkspace::new();
    let mut out = Vec::new();
    let mut cursor = 0usize;
    group.bench_function("sling_alg6", |b| {
        b.iter(|| {
            let u = sources[cursor % sources.len()];
            cursor += 1;
            sling.single_source_with(&graph, &mut ws, u, &mut out);
            std::hint::black_box(out[0])
        })
    });
    let mut cursor = 0usize;
    group.bench_function("linearize", |b| {
        b.iter(|| {
            let u = sources[cursor % sources.len()];
            cursor += 1;
            std::hint::black_box(lin.single_source(&graph, u))
        })
    });
    let mut cursor = 0usize;
    group.bench_function("sling_alg3_per_node", |b| {
        b.iter(|| {
            let u = sources[cursor % sources.len()];
            cursor += 1;
            std::hint::black_box(sling.single_source_via_pairs(&graph, u))
        })
    });
    group.finish();
}

criterion_group!(benches, bench_single_source);
criterion_main!(benches);
