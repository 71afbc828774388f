//! `repro` — regenerates every table and figure of the SLING paper's
//! evaluation (§7 and Appendix C) on the synthetic dataset suite.
//!
//! ```text
//! repro <command> [options]
//!
//! Commands:
//!   table1        query-time scaling vs 1/ε (the Table 1 complexity check)
//!   table3        dataset statistics
//!   fig1          single-pair query time per method per dataset
//!   fig2          single-source query time per method per dataset
//!   fig3          preprocessing time per method per dataset
//!   fig4          index space per method per dataset
//!   fig5          max all-pair error over repeated runs (4 small datasets)
//!   fig6          average error by SimRank group S1/S2/S3
//!   fig7          top-k precision, k = 400..2000
//!   fig9          parallel preprocessing speed-up (thread sweep)
//!   fig10         out-of-core preprocessing vs memory buffer size
//!   extensions    costs of the beyond-paper features (top-k, joins, dynamic, cache, out-of-core)
//!   all           everything above
//!
//! Options:
//!   --quick         much smaller workloads (CI smoke run)
//!   --tier T        small | medium | large   (default: medium)
//!   --dataset NAME  restrict to one dataset
//!   --eps X         override SLING's ε for every tier
//!   --runs N        runs for fig5/fig6 (default 10, paper setting)
//! ```

use sling_baselines::linearize::Linearize;
use sling_baselines::monte_carlo::McIndex;
use sling_baselines::{grouped_errors, max_error, power_simrank, top_k_precision, DenseMatrix};
use sling_bench::*;
use sling_core::out_of_core::{build_out_of_core, OutOfCoreConfig};
use sling_core::SlingIndex;
use sling_graph::datasets::{DatasetSpec, Tier};
use sling_graph::{DiGraph, GraphStats};

#[derive(Clone, Debug)]
struct Options {
    quick: bool,
    tier: Tier,
    dataset: Option<String>,
    eps: Option<f64>,
    runs: usize,
}

impl Default for Options {
    fn default() -> Self {
        Options {
            quick: false,
            tier: Tier::Medium,
            dataset: None,
            eps: None,
            runs: 10,
        }
    }
}

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    if args.is_empty() {
        print_usage();
        std::process::exit(2);
    }
    let command = args[0].clone();
    let mut opts = Options::default();
    let mut i = 1;
    while i < args.len() {
        match args[i].as_str() {
            "--quick" => opts.quick = true,
            "--tier" => {
                i += 1;
                opts.tier = match args.get(i).map(String::as_str) {
                    Some("small") => Tier::Small,
                    Some("medium") => Tier::Medium,
                    Some("large") => Tier::Large,
                    other => {
                        eprintln!("unknown tier {other:?}");
                        std::process::exit(2);
                    }
                };
            }
            "--dataset" => {
                i += 1;
                opts.dataset = args.get(i).cloned();
            }
            "--eps" => {
                i += 1;
                opts.eps = args.get(i).and_then(|s| s.parse().ok());
            }
            "--runs" => {
                i += 1;
                opts.runs = args.get(i).and_then(|s| s.parse().ok()).unwrap_or(10);
            }
            other => {
                eprintln!("unknown option {other}");
                std::process::exit(2);
            }
        }
        i += 1;
    }
    if opts.quick {
        opts.runs = opts.runs.min(2);
    }

    match command.as_str() {
        "table1" => table1(&opts),
        "table3" => table3(&opts),
        "fig1" => fig1(&opts),
        "fig2" => fig2(&opts),
        "fig3" => fig3(&opts),
        "fig4" => fig4(&opts),
        "fig5" => accuracy(&opts, AccuracyReport::MaxError),
        "fig6" => accuracy(&opts, AccuracyReport::Grouped),
        "fig7" => accuracy(&opts, AccuracyReport::TopK),
        "fig9" => fig9(&opts),
        "fig10" => fig10(&opts),
        "extensions" => extensions(&opts),
        "all" => {
            table3(&opts);
            table1(&opts);
            fig1(&opts);
            fig2(&opts);
            fig3(&opts);
            fig4(&opts);
            accuracy(&opts, AccuracyReport::All);
            fig9(&opts);
            fig10(&opts);
            extensions(&opts);
        }
        other => {
            eprintln!("unknown command {other}");
            print_usage();
            std::process::exit(2);
        }
    }
}

fn print_usage() {
    eprintln!(
        "usage: repro <table1|table3|fig1|fig2|fig3|fig4|fig5|fig6|fig7|fig9|fig10|extensions|all> \
         [--quick] [--tier small|medium|large] [--dataset NAME] [--eps X] [--runs N]"
    );
}

fn section(title: &str) {
    println!();
    println!("==== {title} ====");
}

/// Methods built for one dataset under its tier parameters.
struct Built {
    graph: DiGraph,
    params: TierParams,
    sling: SlingIndex,
    sling_secs: f64,
    lin: Linearize,
    lin_secs: f64,
    mc: Option<McIndex>,
    mc_secs: f64,
}

fn build_all(spec: &DatasetSpec, opts: &Options, seed: u64) -> Built {
    let graph = spec.build();
    let params = params_for(spec.tier, opts.eps);
    let (sling, sling_secs) =
        time(|| SlingIndex::build(&graph, &sling_config(&params, seed)).expect("valid config"));
    let (lin, lin_secs) = time(|| Linearize::build(&graph, &params.lin));
    let (mc, mc_secs) = if params.run_mc {
        let (mc, secs) =
            time(|| McIndex::build(&graph, C, params.mc_walks, params.mc_truncation, seed));
        (Some(mc), secs)
    } else {
        (None, 0.0)
    };
    Built {
        graph,
        params,
        sling,
        sling_secs,
        lin,
        lin_secs,
        mc,
        mc_secs,
    }
}

// ---------------------------------------------------------------- table 3

fn table3(opts: &Options) {
    section("Table 3: datasets (synthetic analogues; paper n/m for reference)");
    println!(
        "{:<16} {:<10} {:>9} {:>11} {:>9} {:>13} {:>15}",
        "dataset", "type", "n", "m", "wcc", "paper n", "paper m"
    );
    for spec in datasets_for_run(opts.tier, opts.dataset.as_deref()) {
        let g = spec.build();
        let stats = GraphStats::compute(&g);
        let (labels, count) = sling_graph::components::weakly_connected_components(&g);
        let wcc = sling_graph::components::largest_component_size(&labels, count);
        println!(
            "{:<16} {:<10} {:>9} {:>11} {:>9} {:>13} {:>15}",
            spec.name,
            if spec.directed {
                "directed"
            } else {
                "undirected"
            },
            stats.nodes,
            stats.edges,
            wcc,
            spec.paper_n,
            spec.paper_m
        );
    }
}

// ---------------------------------------------------------------- table 1

fn table1(opts: &Options) {
    section("Table 1 check: SLING query time scales as O(1/eps)");
    let name = opts.dataset.as_deref().unwrap_or("grqc-sim");
    let spec = sling_graph::datasets::by_name(name).expect("dataset exists");
    let graph = spec.build();
    let n = graph.num_nodes();
    let pair_count = if opts.quick { 200 } else { 1000 };
    let source_count = if opts.quick { 5 } else { 50 };
    println!("dataset: {} (n={n})", spec.name);
    println!(
        "{:>8} {:>14} {:>14} {:>14} {:>12}",
        "eps", "pair query", "source query", "index size", "entries"
    );
    let mut prev_pair: Option<f64> = None;
    for &eps in &[0.2, 0.1, 0.05, 0.025] {
        let params = params_for(spec.tier, Some(eps));
        let idx = SlingIndex::build(&graph, &sling_config(&params, 42)).unwrap();
        let pairs = sample_pairs(n, pair_count, 7);
        let pair_t = bench_sling_single_pair(&idx, &graph, &pairs);
        let sources = sample_nodes(n, source_count, 8);
        let source_t = bench_sling_single_source(&idx, &graph, &sources);
        let ratio = prev_pair.map(|p| pair_t / p).unwrap_or(1.0);
        println!(
            "{:>8} {:>14} {:>14} {:>14} {:>12}   (pair-time x{ratio:.2} vs previous eps)",
            eps,
            fmt_secs(pair_t),
            fmt_secs(source_t),
            fmt_bytes(idx.resident_bytes()),
            idx.stats().entries_stored,
        );
        prev_pair = Some(pair_t);
    }
    println!("(halving eps should roughly double pair-query time and index size: O(1/eps))");
}

// ------------------------------------------------------------- fig 1 & 2

fn fig1(opts: &Options) {
    section("Figure 1: average single-pair query time");
    let count = if opts.quick { 100 } else { 1000 };
    println!(
        "{:<16} {:>12} {:>12} {:>12} {:>10}",
        "dataset", "SLING", "Linearize", "MC", "speedup"
    );
    for spec in datasets_for_run(opts.tier, opts.dataset.as_deref()) {
        let b = build_all(spec, opts, 42);
        let n = b.graph.num_nodes();
        let pairs = sample_pairs(n, count, 17);
        let sling_t = bench_sling_single_pair(&b.sling, &b.graph, &pairs);
        let lin_pairs = &pairs[..pairs.len().min(if opts.quick { 10 } else { 50 })];
        let (_, lin_total) = time(|| {
            for &(u, v) in lin_pairs {
                std::hint::black_box(b.lin.single_pair(&b.graph, u, v));
            }
        });
        let lin_t = lin_total / lin_pairs.len() as f64;
        let mc_t = b.mc.as_ref().map(|mc| {
            let (_, total) = time(|| {
                for &(u, v) in &pairs {
                    std::hint::black_box(mc.single_pair(u, v));
                }
            });
            total / pairs.len() as f64
        });
        println!(
            "{:<16} {:>12} {:>12} {:>12} {:>9.0}x",
            spec.name,
            fmt_secs(sling_t),
            fmt_secs(lin_t),
            mc_t.map(fmt_secs).unwrap_or_else(|| "-".into()),
            lin_t / sling_t,
        );
    }
}

fn fig2(opts: &Options) {
    section("Figure 2: average single-source query time");
    let count = if opts.quick { 5 } else { 100 };
    println!(
        "{:<16} {:>14} {:>14} {:>12} {:>12}",
        "dataset", "SLING(Alg6)", "SLING(Alg3xn)", "Linearize", "MC"
    );
    for spec in datasets_for_run(opts.tier, opts.dataset.as_deref()) {
        let b = build_all(spec, opts, 42);
        let n = b.graph.num_nodes();
        let sources = sample_nodes(n, count, 23);
        let alg6_t = bench_sling_single_source(&b.sling, &b.graph, &sources);
        // Algorithm-3-per-node is only competitive on tiny graphs; the
        // paper likewise omits it beyond the four smallest datasets.
        let alg3_t = if spec.tier == Tier::Small {
            let few = &sources[..sources.len().min(3)];
            let (_, total) = time(|| {
                for &u in few {
                    std::hint::black_box(b.sling.single_source_via_pairs(&b.graph, u));
                }
            });
            Some(total / few.len() as f64)
        } else {
            None
        };
        let lin_sources = &sources[..sources.len().min(if opts.quick { 3 } else { 20 })];
        let (_, lin_total) = time(|| {
            for &u in lin_sources {
                std::hint::black_box(b.lin.single_source(&b.graph, u));
            }
        });
        let lin_t = lin_total / lin_sources.len() as f64;
        let mc_t = b.mc.as_ref().map(|mc| {
            let few = &sources[..sources.len().min(5)];
            let (_, total) = time(|| {
                for &u in few {
                    std::hint::black_box(mc.single_source(u));
                }
            });
            total / few.len() as f64
        });
        println!(
            "{:<16} {:>14} {:>14} {:>12} {:>12}",
            spec.name,
            fmt_secs(alg6_t),
            alg3_t.map(fmt_secs).unwrap_or_else(|| "-".into()),
            fmt_secs(lin_t),
            mc_t.map(fmt_secs).unwrap_or_else(|| "-".into()),
        );
    }
}

// ------------------------------------------------------------- fig 3 & 4

fn fig3(opts: &Options) {
    section("Figure 3: preprocessing time");
    println!(
        "{:<16} {:>12} {:>12} {:>12}",
        "dataset", "SLING", "Linearize", "MC"
    );
    for spec in datasets_for_run(opts.tier, opts.dataset.as_deref()) {
        let b = build_all(spec, opts, 42);
        println!(
            "{:<16} {:>12} {:>12} {:>12}",
            spec.name,
            fmt_secs(b.sling_secs),
            fmt_secs(b.lin_secs),
            if b.mc.is_some() {
                fmt_secs(b.mc_secs)
            } else {
                "-".into()
            },
        );
    }
}

fn fig4(opts: &Options) {
    section("Figure 4: index space");
    println!(
        "{:<16} {:>12} {:>12} {:>12} {:>16}",
        "dataset", "SLING", "Linearize", "MC", "SLING entries"
    );
    for spec in datasets_for_run(opts.tier, opts.dataset.as_deref()) {
        let b = build_all(spec, opts, 42);
        println!(
            "{:<16} {:>12} {:>12} {:>12} {:>16}",
            spec.name,
            fmt_bytes(b.sling.resident_bytes()),
            fmt_bytes(b.lin.resident_bytes()),
            b.mc.as_ref()
                .map(|m| fmt_bytes(m.resident_bytes()))
                .unwrap_or_else(|| "-".into()),
            b.sling.stats().entries_stored,
        );
        let _ = &b.params;
    }
}

// --------------------------------------------------------- figs 5, 6, 7

enum AccuracyReport {
    MaxError,
    Grouped,
    TopK,
    All,
}

fn accuracy(opts: &Options, report: AccuracyReport) {
    let runs = opts.runs.max(1);
    let specs: Vec<_> = datasets_for_run(Tier::Small, opts.dataset.as_deref())
        .into_iter()
        .filter(|s| s.tier == Tier::Small)
        .collect();
    for spec in specs {
        let graph = spec.build();
        let params = params_for(spec.tier, opts.eps);
        println!();
        println!(
            "---- accuracy on {} (n={}, eps={}, {} runs) ----",
            spec.name,
            graph.num_nodes(),
            params.eps,
            runs
        );
        let iters = sling_baselines::iterations_for_error(C, 1e-11);
        let (truth, truth_secs) = time(|| power_simrank(&graph, C, iters));
        println!(
            "ground truth: power method, {iters} iterations, {}",
            fmt_secs(truth_secs)
        );

        let mut sling_maxes = Vec::new();
        let mut lin_maxes = Vec::new();
        let mut mc_maxes = Vec::new();
        let mut last: Option<(DenseMatrix, DenseMatrix, DenseMatrix)> = None;
        for run in 0..runs {
            let seed = 1000 + run as u64;
            // Figures 5-7 measure the raw estimator: exact-diagonal off.
            let cfg = sling_config(&params, seed).with_exact_diagonal(false);
            let sling = SlingIndex::build(&graph, &cfg).unwrap();
            let s_mat = all_pairs_sling(&sling, &graph);
            let mut lin_cfg = params.lin.clone();
            lin_cfg.seed = seed;
            let lin = Linearize::build(&graph, &lin_cfg);
            let l_mat = all_pairs_linearize(&lin, &graph);
            let mc = McIndex::build(
                &graph,
                C,
                params.mc_walks_accuracy,
                params.mc_truncation,
                seed,
            );
            let m_mat = all_pairs_mc(&mc, &graph);
            sling_maxes.push(max_error(&truth, &s_mat));
            lin_maxes.push(max_error(&truth, &l_mat));
            mc_maxes.push(max_error(&truth, &m_mat));
            last = Some((s_mat, l_mat, m_mat));
        }

        if matches!(report, AccuracyReport::MaxError | AccuracyReport::All) {
            println!(
                "Figure 5: max all-pair error per run (eps = {})",
                params.eps
            );
            println!(
                "{:>5} {:>12} {:>12} {:>12}",
                "run", "SLING", "Linearize", "MC"
            );
            for run in 0..runs {
                println!(
                    "{:>5} {:>12.6} {:>12.6} {:>12.6}",
                    run + 1,
                    sling_maxes[run],
                    lin_maxes[run],
                    mc_maxes[run]
                );
            }
        }
        let (s_mat, l_mat, m_mat) = last.expect("at least one run");
        if matches!(report, AccuracyReport::Grouped | AccuracyReport::All) {
            println!("Figure 6: average error by group (last run)");
            println!(
                "{:>10} {:>12} {:>12} {:>12}",
                "group", "SLING", "Linearize", "MC"
            );
            let gs = grouped_errors(&truth, &s_mat, false);
            let gl = grouped_errors(&truth, &l_mat, false);
            let gm = grouped_errors(&truth, &m_mat, false);
            for (label, a, b, c_) in [
                ("S1[.1,1]", gs.s1, gl.s1, gm.s1),
                ("S2[.01,.1)", gs.s2, gl.s2, gm.s2),
                ("S3[<.01]", gs.s3, gl.s3, gm.s3),
            ] {
                println!("{label:>10} {a:>12.2e} {b:>12.2e} {c_:>12.2e}");
            }
            println!("(group sizes: {:?})", gs.counts);
        }
        if matches!(report, AccuracyReport::TopK | AccuracyReport::All) {
            println!("Figure 7: top-k precision (last run)");
            println!(
                "{:>6} {:>10} {:>10} {:>10}",
                "k", "SLING", "Linearize", "MC"
            );
            for k in [400, 800, 1200, 1600, 2000] {
                println!(
                    "{:>6} {:>10.4} {:>10.4} {:>10.4}",
                    k,
                    top_k_precision(&truth, &s_mat, k),
                    top_k_precision(&truth, &l_mat, k),
                    top_k_precision(&truth, &m_mat, k),
                );
            }
        }
    }
}

// ------------------------------------------------------------------ fig 9

fn fig9(opts: &Options) {
    section("Figure 9: SLING preprocessing time vs number of threads");
    let available = std::thread::available_parallelism()
        .map(|p| p.get())
        .unwrap_or(4);
    // Sweep at least 1/2/4 threads even on small hosts so the curve
    // exists; with fewer cores than threads the curve is flat and the
    // run demonstrates only correctness of the parallel path.
    let mut sweep: Vec<usize> = vec![1, 2, 4];
    for t in [8, 16] {
        if t <= available {
            sweep.push(t);
        }
    }
    println!("(host parallelism: {available}; datasets of tier {:?} only, as the paper uses its largest graphs)", opts.tier);
    println!(
        "{:<16} {}",
        "dataset",
        sweep
            .iter()
            .map(|t| format!("{:>16}", format!("{t} thread(s)")))
            .collect::<String>()
    );
    for spec in datasets_for_run(opts.tier, opts.dataset.as_deref())
        .into_iter()
        .filter(|s| s.tier == opts.tier || opts.dataset.is_some())
    {
        let graph = spec.build();
        let params = params_for(spec.tier, opts.eps);
        let mut row = format!("{:<16}", spec.name);
        let mut base = 0.0;
        for &t in &sweep {
            let cfg = sling_config(&params, 42).with_threads(t);
            let (_, secs) = time(|| SlingIndex::build(&graph, &cfg).unwrap());
            if t == 1 {
                base = secs;
                row.push_str(&format!("{:>16}", fmt_secs(secs)));
            } else {
                row.push_str(&format!(
                    "{:>16}",
                    format!("{} (x{:.1})", fmt_secs(secs), base / secs)
                ));
            }
        }
        println!("{row}");
    }
}

// ----------------------------------------------------------------- fig 10

fn fig10(opts: &Options) {
    section("Figure 10: out-of-core preprocessing time vs memory buffer");
    // The paper sweeps 256MB..2GB on multi-GB indexes; our scaled indexes
    // are MBs, so the sweep is scaled accordingly.
    let buffers: &[(usize, &str)] = &[
        (256 << 10, "256KB"),
        (1 << 20, "1MB"),
        (4 << 20, "4MB"),
        (16 << 20, "16MB"),
        (usize::MAX / 2, "all"),
    ];
    println!(
        "{:<16} {}",
        "dataset",
        buffers
            .iter()
            .map(|(_, l)| format!("{l:>10}"))
            .collect::<String>()
    );
    for spec in datasets_for_run(opts.tier, opts.dataset.as_deref())
        .into_iter()
        .filter(|s| s.tier == opts.tier || opts.dataset.is_some())
    {
        let graph = spec.build();
        let params = params_for(spec.tier, opts.eps);
        let cfg = sling_config(&params, 42);
        let mut row = format!("{:<16}", spec.name);
        for &(bytes, _) in buffers {
            let occ = OutOfCoreConfig::with_buffer(bytes);
            let (idx, secs) = time(|| build_out_of_core(&graph, &cfg, &occ).unwrap());
            std::hint::black_box(idx.stats());
            row.push_str(&format!("{:>10}", fmt_secs(secs)));
        }
        println!("{row}");
    }
}

/// `extensions` — measured costs of the features beyond the paper's
/// evaluation (top-k strategies, similarity joins, dynamic maintenance,
/// query cache, out-of-core queries). Feeds the "Extensions" section of
/// EXPERIMENTS.md.
fn extensions(opts: &Options) {
    use sling_core::dynamic::{DynamicConfig, DynamicSling, StalePolicy};
    use sling_core::join::JoinStrategy;
    use sling_core::{Residency, ShardedResultCache, SharedEngine};
    use sling_graph::NodeId;

    println!("\n== extensions: costs of the beyond-paper query types ==");
    let specs = datasets_for_run(Tier::Small, opts.dataset.as_deref());
    for spec in specs {
        let graph = spec.build();
        let params = params_for(Tier::Small, opts.eps);
        let cfg = sling_config(&params, 42);
        let index = SlingIndex::build(&graph, &cfg).unwrap();
        let n = graph.num_nodes();
        println!(
            "\n-- {} (n = {}, m = {}) --",
            spec.name,
            n,
            graph.num_edges()
        );

        // Top-k strategies (64 sources, k = 50).
        let sources = sample_nodes(n, if opts.quick { 8 } else { 64 }, 3);
        let k = 50;
        let (_, t_exact) = time(|| {
            for &u in &sources {
                std::hint::black_box(index.top_k(&graph, u, k));
            }
        });
        let (_, t_approx) = time(|| {
            for &u in &sources {
                std::hint::black_box(index.top_k_approx(&graph, u, k, 0.01));
            }
        });
        println!(
            "top-k (k=50, per query)   exact {:>9}  approx(0.01) {:>9}",
            fmt_secs(t_exact / sources.len() as f64),
            fmt_secs(t_approx / sources.len() as f64),
        );

        // Threshold joins.
        let tau = 0.1;
        let (a, t_ps) = time(|| {
            index
                .threshold_join(&graph, tau, JoinStrategy::PerSource)
                .unwrap()
        });
        let (b, t_il) = time(|| {
            index
                .threshold_join(&graph, tau, JoinStrategy::InvertedLists)
                .unwrap()
        });
        println!(
            "join (tau=0.1)            per-source {:>9} ({} pairs)  inverted {:>9} ({} pairs)",
            fmt_secs(t_ps),
            a.len(),
            fmt_secs(t_il),
            b.len(),
        );

        // Batch parallel queries (single-source over 64 sources).
        let (_, t1) = time(|| std::hint::black_box(index.batch_single_source(&graph, &sources, 1)));
        let threads = std::thread::available_parallelism()
            .map(|p| p.get())
            .unwrap_or(1);
        let (_, tp) =
            time(|| std::hint::black_box(index.batch_single_source(&graph, &sources, threads)));
        println!(
            "batch single-source x{}   1 thread {:>9}   {} threads {:>9}  (speed-up {:.2}x)",
            sources.len(),
            fmt_secs(t1),
            threads,
            fmt_secs(tp),
            t1 / tp.max(1e-12),
        );

        // Dynamic maintenance: update + tainted query under MC fallback.
        let mut dcfg = DynamicConfig::new(cfg.clone());
        dcfg.policy = StalePolicy::MonteCarloFallback { delta: 1e-4 };
        dcfg.rebuild_fraction = f64::INFINITY;
        let mut dynamic = DynamicSling::new(&graph, dcfg).unwrap();
        let rounds = if opts.quick { 8 } else { 64 };
        let (_, t_dyn) = time(|| {
            for i in 0..rounds as u32 {
                let (u, v) = (i % n as u32, (i * 7 + 1) % n as u32);
                if !dynamic.insert_edge(NodeId(u), NodeId(v)).unwrap() {
                    dynamic.remove_edge(NodeId(u), NodeId(v)).unwrap();
                }
                std::hint::black_box(
                    dynamic
                        .single_pair(NodeId(v), NodeId((v + 1) % n as u32))
                        .unwrap(),
                );
            }
        });
        let (_, t_rebuild) = time(|| dynamic.rebuild().unwrap());
        println!(
            "dynamic (MC fallback)     update+query {:>9}/op   full rebuild {:>9}",
            fmt_secs(t_dyn / rounds as f64),
            fmt_secs(t_rebuild),
        );

        // LRU cache on a skewed workload (32 hot nodes).
        let hot = sample_nodes(n, 32, 11);
        let workload: Vec<(NodeId, NodeId)> = (0..if opts.quick { 512 } else { 4096 })
            .map(|i| (hot[i % 32], hot[(i * 7 + 1) % 32]))
            .collect();
        // Out-of-core engine: the index file mapped, O(n) resident.
        let path = std::env::temp_dir().join(format!("sling_repro_mapped_{}", std::process::id()));
        index.save(&path).unwrap();
        let mapped = SharedEngine::open(&graph, &path, Residency::Mapped).unwrap();

        let mut ws = sling_core::QueryWorkspace::new();
        let (_, t_uncached) = time(|| {
            for &(u, v) in &workload {
                std::hint::black_box(mapped.single_pair_with(&graph, &mut ws, u, v).unwrap());
            }
        });
        let cache = ShardedResultCache::with_capacity(4096);
        let (_, t_cached) = time(|| {
            for &(u, v) in &workload {
                std::hint::black_box(
                    mapped
                        .single_pair_cached(&graph, &mut ws, &cache, u, v)
                        .unwrap(),
                );
            }
        });
        println!(
            "cache (hot-32 workload)   uncached {:>9}/q   cached {:>9}/q   hit-rate {:.1}%",
            fmt_secs(t_uncached / workload.len() as f64),
            fmt_secs(t_cached / workload.len() as f64),
            100.0 * cache.stats().hit_rate(),
        );

        let pairs = sample_pairs(n, if opts.quick { 64 } else { 512 }, 17);
        let (_, t_mapped) = time(|| {
            for &(u, v) in &pairs {
                std::hint::black_box(mapped.single_pair(&graph, u, v).unwrap());
            }
        });
        let (_, t_mapped_ss) = time(|| {
            for &u in sources.iter().take(16) {
                std::hint::black_box(mapped.single_source(&graph, u).unwrap());
            }
        });
        println!(
            "mapped engine             single-pair {:>9}/q   single-source {:>9}/q   resident {} KB",
            fmt_secs(t_mapped / pairs.len() as f64),
            fmt_secs(t_mapped_ss / 16.0),
            mapped.resident_bytes() / 1024,
        );
        std::fs::remove_file(&path).ok();
    }
}
