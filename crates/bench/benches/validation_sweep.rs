//! The validation every mapped read pays, measured where it runs: the
//! per-entry index, node and value checks of every `entries_into` on the
//! `SLNGIDX1` mapping, and the one validating pass over each block a
//! compressed run touches.
//!
//! Three hub-pair series isolate the cost:
//!
//! * `mem` — no validation (columns were checked at decode), only the
//!   copy into the workspace: the floor;
//! * `mmap` — every entry of the hub's run is decoded and checked on
//!   every query, so the delta to `mem` is the checked decode;
//! * `mmap-compressed` — every run read walks and validates its whole
//!   block, so block passes dominate.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use sling_bench::{params_for, sling_config};
use sling_core::codec::CompressOptions;
use sling_core::{QueryWorkspace, Residency, SharedEngine, SlingIndex};
use sling_graph::datasets::{by_name, Tier};
use sling_graph::NodeId;

fn bench_validation_sweep(c: &mut Criterion) {
    let spec = by_name("as-sim").unwrap();
    let graph = spec.build();
    let params = params_for(Tier::Small, Some(0.1));
    let index = SlingIndex::build(&graph, &sling_config(&params, 11)).unwrap();
    let dir = std::env::temp_dir().join(format!("sling_bench_sweep_{}", std::process::id()));
    std::fs::create_dir_all(&dir).unwrap();
    let raw_path = dir.join("index.slng");
    index.save(&raw_path).unwrap();
    let v3_path = dir.join("index.slng3");
    // Small blocks: the hub run spans many of them, and every pair below
    // reads and validates each of them again.
    let opts = CompressOptions {
        block_entries: 512,
        quantize_values: false,
    };
    index.save_v3(&v3_path, &opts).unwrap();

    let engines = [
        ("mem", &raw_path, Residency::Mem),
        ("mmap", &raw_path, Residency::Mapped),
        ("mmap-compressed", &v3_path, Residency::Mapped),
    ]
    .map(|(label, p, residency)| (label, SharedEngine::open(&graph, p, residency).unwrap()));

    let n = graph.num_nodes() as u32;
    let hub = graph
        .nodes()
        .max_by_key(|&v| graph.in_degree(v))
        .expect("non-empty graph");
    let pairs: Vec<(NodeId, NodeId)> = (0..512u32)
        .map(|i| (hub, NodeId((i * 131 + 1) % n)))
        .collect();

    let mut group = c.benchmark_group("validation_sweep/hub_pair");
    for (backend, engine) in &engines {
        let mut ws = QueryWorkspace::new();
        let mut cursor = 0usize;
        group.bench_with_input(BenchmarkId::from_parameter(backend), &(), |b, _| {
            b.iter(|| {
                let (u, v) = pairs[cursor % pairs.len()];
                cursor += 1;
                std::hint::black_box(engine.single_pair_with(&graph, &mut ws, u, v).unwrap())
            })
        });
    }
    group.finish();

    std::fs::remove_dir_all(&dir).ok();
}

criterion_group!(benches, bench_validation_sweep);
criterion_main!(benches);
