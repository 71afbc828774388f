//! Query kernels on the in-memory and mapped backends — the microbench
//! behind the `BENCH_query.json` baseline (`sling bench-query` is the
//! CLI-level, machine-readable sibling).
//!
//! Both series read every endpoint into the workspace
//! (`HpStore::entries_into`, then the §5.2/§5.3 restore), so they differ
//! only where named:
//!
//! * `single_pair/streaming` vs `single_pair/materialized` — the
//!   skew-dispatched merge (galloping for ≥ 8× length skew) against the
//!   linear-merge oracle;
//! * the same comparison on a hub-pair workload (maximum list-length
//!   skew, the galloping merge's home turf);
//! * `single_source/streaming` vs `single_source/fresh_workspace` — one
//!   reused workspace against a fresh one per query, i.e. the cost of
//!   not keeping a worker's buffers warm.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use sling_bench::{params_for, sample_pairs, sling_config};
use sling_core::single_source::SingleSourceWorkspace;
use sling_core::{QueryWorkspace, Residency, SharedEngine, SlingIndex};
use sling_graph::datasets::{by_name, Tier};
use sling_graph::NodeId;

fn bench_query_kernels(c: &mut Criterion) {
    let spec = by_name("as-sim").unwrap();
    let graph = spec.build();
    let params = params_for(Tier::Small, Some(0.1));
    let index = SlingIndex::build(&graph, &sling_config(&params, 11)).unwrap();
    let dir = std::env::temp_dir().join(format!("sling_bench_kernels_{}", std::process::id()));
    std::fs::create_dir_all(&dir).unwrap();
    let path = dir.join("index.slng");
    index.save(&path).unwrap();

    let mem = SharedEngine::open(&graph, &path, Residency::Mem).unwrap();
    let mmap = SharedEngine::open(&graph, &path, Residency::Mapped).unwrap();
    let engines = [("mem", mem), ("mmap", mmap)];

    let n = graph.num_nodes();
    let mixed = sample_pairs(n, 512, 3);
    let hub = graph
        .nodes()
        .max_by_key(|&v| graph.in_degree(v))
        .expect("non-empty graph");
    let hub_pairs: Vec<(NodeId, NodeId)> = (0..512u32)
        .map(|i| (hub, NodeId((i * 131 + 1) % n as u32)))
        .collect();

    for (workload, pairs) in [("mixed", &mixed), ("hub", &hub_pairs)] {
        let mut group = c.benchmark_group(format!("kernels/single_pair_{workload}"));
        for (backend, engine) in &engines {
            let mut ws = QueryWorkspace::new();
            let mut cursor = 0usize;
            group.bench_with_input(
                BenchmarkId::from_parameter(format!("{backend}/streaming")),
                &(),
                |b, _| {
                    b.iter(|| {
                        let (u, v) = pairs[cursor % pairs.len()];
                        cursor += 1;
                        std::hint::black_box(
                            engine.single_pair_with(&graph, &mut ws, u, v).unwrap(),
                        )
                    })
                },
            );
            let mut cursor = 0usize;
            group.bench_with_input(
                BenchmarkId::from_parameter(format!("{backend}/materialized")),
                &(),
                |b, _| {
                    b.iter(|| {
                        let (u, v) = pairs[cursor % pairs.len()];
                        cursor += 1;
                        std::hint::black_box(
                            engine
                                .single_pair_materialized_with(&graph, &mut ws, u, v)
                                .unwrap(),
                        )
                    })
                },
            );
        }
        group.finish();
    }

    let sources: Vec<NodeId> = (0..64u32).map(|i| NodeId((i * 97) % n as u32)).collect();
    let mut group = c.benchmark_group("kernels/single_source");
    for (backend, engine) in &engines {
        let mut ws = SingleSourceWorkspace::new();
        let mut out = Vec::new();
        let mut cursor = 0usize;
        group.bench_with_input(
            BenchmarkId::from_parameter(format!("{backend}/streaming")),
            &(),
            |b, _| {
                b.iter(|| {
                    let u = sources[cursor % sources.len()];
                    cursor += 1;
                    engine
                        .single_source_with(&graph, &mut ws, u, &mut out)
                        .unwrap();
                    std::hint::black_box(out.len())
                })
            },
        );
        let mut cursor = 0usize;
        group.bench_with_input(
            BenchmarkId::from_parameter(format!("{backend}/fresh_workspace")),
            &(),
            |b, _| {
                b.iter(|| {
                    let u = sources[cursor % sources.len()];
                    cursor += 1;
                    engine
                        .single_source_with(&graph, &mut SingleSourceWorkspace::new(), u, &mut out)
                        .unwrap();
                    std::hint::black_box(out.len())
                })
            },
        );
    }
    group.finish();

    std::fs::remove_dir_all(&dir).ok();
}

criterion_group!(benches, bench_query_kernels);
criterion_main!(benches);
