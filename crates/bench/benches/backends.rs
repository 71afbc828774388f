//! Storage-backend comparison: the same persisted index served by the
//! in-memory arena and mapped through the one opener — the raw
//! `SLNGIDX1` view and the block-compressed `SLNGIDX2` view, lossless
//! and quantized. Reports the on-disk footprint of each format up front,
//! then measures single-pair and single-source latency per backend: the
//! price of each residency profile, and the benchmark behind both the
//! §5.4 claim that queries stay cheap out of core and the ROADMAP claim
//! that compressed payloads keep decode-on-read cheap.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use sling_bench::{params_for, sample_pairs, sling_config};
use sling_core::codec::CompressOptions;
use sling_core::single_source::SingleSourceWorkspace;
use sling_core::{inspect_file, QueryWorkspace, Residency, SharedEngine, SlingIndex};
use sling_graph::datasets::{by_name, Tier};
use sling_graph::NodeId;

fn bench_backends(c: &mut Criterion) {
    let spec = by_name("as-sim").unwrap();
    let graph = spec.build();
    let params = params_for(Tier::Small, Some(0.1));
    let index = SlingIndex::build(&graph, &sling_config(&params, 11)).unwrap();

    let dir = std::env::temp_dir().join(format!("sling_bench_backends_{}", std::process::id()));
    std::fs::create_dir_all(&dir).unwrap();
    let path = dir.join("index.slng");
    index.save(&path).unwrap();
    let v2_path = dir.join("index.slng2");
    index
        .save_v2(&v2_path, &CompressOptions::default())
        .unwrap();
    let v2q_path = dir.join("index.q.slng2");
    index
        .save_v2(
            &v2q_path,
            &CompressOptions {
                quantize_values: true,
                ..CompressOptions::default()
            },
        )
        .unwrap();

    // Footprint report: what each format costs on disk for the same
    // entries (the quantity `sling compact`/`sling inspect` manage).
    for (label, p) in [
        ("v1 raw", &path),
        ("v2 lossless", &v2_path),
        ("v2 quantized", &v2q_path),
    ] {
        let info = inspect_file(p).unwrap();
        eprintln!(
            "backends: {label:>12}: {} payload bytes ({:.1}% of raw), {} total",
            info.payload_bytes,
            info.compression_ratio() * 100.0,
            info.total_bytes,
        );
    }

    let engines = [
        ("mem", &path, Residency::Mem),
        ("mmap", &path, Residency::Mapped),
        ("mmap_compressed", &v2_path, Residency::Mapped),
        ("mmap_quantized", &v2q_path, Residency::Mapped),
    ]
    .map(|(label, p, residency)| (label, SharedEngine::open(&graph, p, residency).unwrap()));

    let pairs = sample_pairs(graph.num_nodes(), 512, 3);

    let mut group = c.benchmark_group("backends/single_pair");
    for (label, engine) in &engines {
        let mut ws = QueryWorkspace::new();
        let mut cursor = 0usize;
        group.bench_with_input(BenchmarkId::from_parameter(label), &(), |b, _| {
            b.iter(|| {
                let (u, v) = pairs[cursor % pairs.len()];
                cursor += 1;
                std::hint::black_box(engine.single_pair_with(&graph, &mut ws, u, v).unwrap())
            })
        });
    }
    group.finish();

    let mut group = c.benchmark_group("backends/single_source");
    let sources: Vec<NodeId> = (0..64u32)
        .map(|i| NodeId((i * 97) % graph.num_nodes() as u32))
        .collect();
    for (label, engine) in &engines {
        let mut ws = SingleSourceWorkspace::new();
        let mut out = Vec::new();
        let mut cursor = 0usize;
        group.bench_with_input(BenchmarkId::from_parameter(label), &(), |b, _| {
            b.iter(|| {
                let u = sources[cursor % sources.len()];
                cursor += 1;
                engine
                    .single_source_with(&graph, &mut ws, u, &mut out)
                    .unwrap();
                std::hint::black_box(out.len())
            })
        });
    }
    group.finish();

    drop(engines);
    std::fs::remove_dir_all(&dir).ok();
}

criterion_group!(benches, bench_backends);
criterion_main!(benches);
