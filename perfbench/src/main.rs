//! The SLING benchmark: one command per workload that prints every
//! end-to-end metric (`--trace 0`) or every per-layer metric
//! (`--trace 1`) as the last line of its output, and fails the run when
//! any answer differs from an in-process reference index.
//!
//! ```text
//! perfbench --workload <serve-pair-hot|embed-pair-cold|serve-topk-cold>
//!           --seed <n> --seconds <s> --trace <0|1> [--toy]
//! ```
//!
//! `--toy` shrinks every graph to 1500 nodes (the self-test uses it).
//! Scratch files go to `.bench_out/` under the working directory; the
//! traced run leaves its spans there as `spans-<workload>.tsv`.

mod rig;
mod spans;

use std::hint::black_box;
use std::path::PathBuf;
use std::process::ExitCode;
use std::sync::Arc;
use std::time::Instant;

use sling_core::correction::estimate_dk;
use sling_core::local_update::reverse_hp_all;
use sling_core::walk::{task_rng, WalkEngine};
use sling_core::{ShardedResultCache, SlingConfig, SlingIndex};
use sling_graph::DiGraph;
use sling_server::Request;

use rig::{
    after, config, generate, median, mismatches, percentile, run_phase, secs, server_config, setup,
    KernelSnap, KeyGen, PhaseOut, Rig, StatsSnap, Stop, Workload, WARMUP_QUERIES,
};
use spans::Span;

/// Set-up + measurement rounds per untraced run.
const ROUNDS: usize = 3;
/// Length of one slice of the untraced timed window, s.
const SLICE_S: f64 = 0.25;
/// Share of the untraced run's slices, fastest first, that its timing
/// metrics pool.
const FAST_SHARE: f64 = 0.25;
/// Alternating untraced/traced slices of the traced run's window.
const TRACE_SLICES: usize = 4;
/// Request lines timed through `Request::encode` / `Request::parse`.
const PROTOCOL_LINES: usize = 20_000;

/// End-to-end metrics (`--trace 0`), with units.
const END_TO_END: &[(&str, &str)] = &[
    ("setup_s", "s"),
    ("index_bytes", "B"),
    ("peak_rss_mb", "MiB"),
    ("qps", "1/s"),
    ("p50_us", "us"),
    ("p99_us", "us"),
];

/// Per-layer metrics (`--trace 1`), with units. A metric that does not
/// apply to a workload reads 0 there.
const PER_LAYER: &[(&str, &str)] = &[
    ("build.dk_s", "s"),
    ("build.hp_s", "s"),
    ("build.assemble_s", "s"),
    ("build.total_s", "s"),
    ("build.encode_s", "s"),
    ("build.peak_rss_mb", "MiB"),
    ("build.dk_samples", "count"),
    ("build.entries_stored", "count"),
    ("build.reduced_nodes", "count"),
    ("build.marked_entries", "count"),
    ("store.open_s", "s"),
    ("store.index_blocks", "count"),
    ("store.block_decodes_per_query", "count"),
    ("store.bytes_read_per_query", "B"),
    ("kernel.call_p50_us", "us"),
    ("kernel.call_p99_us", "us"),
    ("kernel.fetch_ns", "ns"),
    ("kernel.restore_ns", "ns"),
    ("kernel.merge_ns", "ns"),
    ("kernel.propagate_ns", "ns"),
    ("kernel.restore_hit_rate", "ratio"),
    ("kernel.gallop_share", "ratio"),
    ("kernel.frontier_words_per_query", "count"),
    ("cache.hit_rate", "ratio"),
    ("cache.evictions", "count"),
    ("server.start_s", "s"),
    ("server.overhead_p50_us", "us"),
    ("server.latency_p50_us", "us"),
    ("server.latency_p99_us", "us"),
    ("server.turns_per_request", "count"),
    ("server.wakeups_per_request", "count"),
    ("protocol.parse_ns", "ns"),
    ("protocol.encode_ns", "ns"),
    ("traffic.distinct_keys", "count"),
    ("traffic.reduced_share", "ratio"),
    ("error_frac", "ratio"),
    ("trace_overhead.qps", "1/s"),
    ("trace_overhead.p50_us", "us"),
    ("trace_overhead.p99_us", "us"),
];

struct Args {
    workload: Workload,
    seed: u64,
    seconds: f64,
    trace: bool,
    toy: bool,
}

fn parse_args() -> Result<Args, String> {
    let mut workload = None;
    let mut seed = None;
    let mut seconds = None;
    let mut trace = None;
    let mut toy = false;
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        if flag == "--toy" {
            toy = true;
            continue;
        }
        let value = it.next().ok_or(format!("{flag} needs a value"))?;
        let bad = |what: &str| format!("{flag}: {what}, got {value:?}");
        match flag.as_str() {
            "--workload" => {
                workload = Some(Workload::parse(&value).ok_or_else(|| bad("unknown workload"))?)
            }
            "--seed" => seed = Some(value.parse().map_err(|_| bad("expected an integer"))?),
            "--seconds" => {
                seconds = Some(
                    value
                        .parse::<f64>()
                        .ok()
                        .filter(|s| *s > 0.0)
                        .ok_or_else(|| bad("expected a positive number"))?,
                )
            }
            "--trace" => {
                trace = Some(match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(bad("expected 0 or 1")),
                })
            }
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    Ok(Args {
        workload: workload.ok_or("--workload is required")?,
        seed: seed.ok_or("--seed is required")?,
        seconds: seconds.ok_or("--seconds is required")?,
        trace: trace.ok_or("--trace is required")?,
        toy,
    })
}

/// A finished run: the counts and the metric values in table order.
struct Outcome {
    attempted: u64,
    failed: u64,
    metrics: Vec<(&'static str, f64)>,
}

impl Outcome {
    fn to_json(&self, table: &[(&str, &str)]) -> String {
        let metrics: Vec<String> = table
            .iter()
            .map(|&(name, unit)| {
                let value = self
                    .metrics
                    .iter()
                    .find(|(n, _)| *n == name)
                    .map(|&(_, v)| v)
                    .unwrap_or_else(|| panic!("metric {name} was not measured"));
                let value = if value.is_finite() { value } else { 0.0 };
                format!("\"{name}\": {{\"value\": {value}, \"unit\": \"{unit}\"}}")
            })
            .collect();
        format!(
            "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
            self.failed == 0,
            self.attempted,
            self.failed,
            metrics.join(", ")
        )
    }
}

/// `.bench_out/<workload>-<pid>/` for the run's index file, removed on
/// drop.
struct Scratch(PathBuf);

impl Scratch {
    fn new(workload: Workload) -> Result<Scratch, String> {
        let dir = out_dir().join(format!("{}-{}", workload.name(), std::process::id()));
        std::fs::create_dir_all(&dir).map_err(|e| format!("{}: {e}", dir.display()))?;
        Ok(Scratch(dir))
    }

    fn index_path(&self) -> PathBuf {
        self.0.join("index.slng")
    }
}

impl Drop for Scratch {
    fn drop(&mut self) {
        let _ = std::fs::remove_dir_all(&self.0);
    }
}

fn out_dir() -> PathBuf {
    PathBuf::from(".bench_out")
}

extern "C" {
    /// glibc: return free heap memory to the operating system.
    fn malloc_trim(pad: usize) -> i32;
}

/// Make `VmHWM` cover serving only, as in a server started on a prebuilt
/// index: hand the set-ups' freed heap back to the operating system,
/// then restart the peak mark from the current resident set. (How much
/// freed heap a build leaves behind depends on how its vectors happened
/// to grow, which would make the figure jump between seeds; the build's
/// own peak is the per-layer `build.peak_rss_mb`.)
fn reset_peak_rss() {
    // SAFETY: malloc_trim only releases free memory held by the
    // allocator; it has no preconditions and touches no live allocation.
    unsafe {
        malloc_trim(0);
    }
    let _ = std::fs::write("/proc/self/clear_refs", "5");
}

/// Peak resident set (`VmHWM`) of this process, MiB.
fn peak_rss_mb() -> f64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|s| {
            s.lines()
                .find_map(|l| l.strip_prefix("VmHWM:"))
                .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        })
        .map_or(0.0, |kb| kb / 1024.0)
}

fn warm_up(rig: &Rig, drivers: &mut [rig::Driver], cache: &ShardedResultCache) -> u64 {
    let per_driver = WARMUP_QUERIES.div_ceil(drivers.len());
    let out = run_phase(rig, drivers, Stop::Count(per_driver), false, cache);
    out.failed + mismatches(rig, &out.samples)
}

fn local_cache() -> ShardedResultCache {
    ShardedResultCache::with_capacity(server_config().cache_capacity)
}

/// `--trace 0`: [`ROUNDS`] rounds of set-up, warm-up and a third of the
/// timed window, each checked for correctness. `setup_s` is the median
/// over the rounds. The window is cut into slices of [`SLICE_S`];
/// `qps`, `p50_us` and `p99_us` pool the fastest [`FAST_SHARE`] of all
/// slices. On a shared host, co-tenants slow the same code by about 1.5x
/// in spells of a few seconds, and how much of a run they cover varies
/// from run to run; interference only ever slows the program, so its
/// fastest slices are the steadiest estimate of its own speed. A change
/// that adds work to every query slows those slices as much as any.
fn untraced(args: &Args) -> Result<Outcome, String> {
    let graph = Arc::new(generate(args.workload, args.seed, args.toy)?);
    let cfg = config(args.seed);
    let scratch = Scratch::new(args.workload)?;
    let cache = local_cache();
    let mut setup_s = Vec::with_capacity(ROUNDS);
    let mut peak_rss = 0.0;
    let slices_per_round = ((args.seconds / ROUNDS as f64 / SLICE_S).round() as usize).max(1);
    let mut slices = Vec::with_capacity(ROUNDS * slices_per_round);
    let mut attempted = 0;
    let mut failed = 0;
    let mut index_bytes = 0.0;
    for round in 0..ROUNDS {
        let rig = setup(args.workload, &graph, &cfg, &scratch.index_path())?;
        setup_s.push(rig.marks.total_s());
        index_bytes = rig.index_bytes as f64;
        if round == 0 {
            reset_peak_rss();
        }
        let mut drivers = rig.drivers(args.seed, round)?;
        failed += warm_up(&rig, &mut drivers, &cache);
        // Read in the first round only: later rounds inherit heap pages
        // that earlier rounds left partly used. Read before the window:
        // how far the result cache grows in it depends on how many
        // queries it completed, so a later reading would move with `qps`.
        if round == 0 {
            peak_rss = peak_rss_mb();
        }
        for _ in 0..slices_per_round {
            let mut out = run_phase(&rig, &mut drivers, Stop::At(after(SLICE_S)), false, &cache);
            failed += out.failed + mismatches(&rig, &std::mem::take(&mut out.samples));
            attempted += out.attempted;
            out.lat_us.shrink_to_fit();
            slices.push(out);
        }
    }
    slices.sort_by(|a, b| b.qps().total_cmp(&a.qps()));
    let keep = ((slices.len() as f64 * FAST_SHARE).ceil() as usize).clamp(1, slices.len());
    eprintln!(
        "{} slices of {SLICE_S} s; qps fastest {:.0}, last kept ({keep}) {:.0}, slowest {:.0}",
        slices.len(),
        slices[0].qps(),
        slices[keep - 1].qps(),
        slices[slices.len() - 1].qps(),
    );
    let mut fast = PhaseOut::default();
    for out in slices.into_iter().take(keep) {
        fast.absorb(out);
    }
    Ok(Outcome {
        attempted,
        failed,
        metrics: vec![
            ("setup_s", median(&mut setup_s)),
            ("index_bytes", index_bytes),
            ("peak_rss_mb", peak_rss),
            ("qps", fast.qps()),
            ("p50_us", percentile(&mut fast.lat_us, 50.0)),
            ("p99_us", percentile(&mut fast.lat_us, 99.0)),
        ],
    })
}

/// Serial build phases timed from outside: Algorithm 4 correction
/// sampling over every node, Algorithm 2 local updates over every node,
/// and the whole serial build; assembly (§5.2/§5.3 passes and packing)
/// is the build minus the other two. Returns `(dk_s, hp_s, assemble_s)`.
fn build_phases(
    graph: &DiGraph,
    cfg: &SlingConfig,
    spans: &mut Vec<Span>,
) -> Result<(f64, f64, f64), String> {
    let cfg = cfg.clone().with_threads(1);
    let t0 = Instant::now();
    let walks = WalkEngine::new(graph, cfg.c);
    let delta_d = cfg.delta_d(graph.num_nodes());
    let mut samples = 0u64;
    for k in graph.nodes() {
        let mut rng = task_rng(cfg.seed, k.0 as u64);
        let est = estimate_dk(
            graph,
            &walks,
            &mut rng,
            k,
            cfg.c,
            cfg.eps_d,
            delta_d,
            cfg.adaptive_dk,
        );
        samples += est.samples;
    }
    black_box(samples);
    let t1 = Instant::now();
    let mut triples = Vec::new();
    reverse_hp_all(graph, cfg.sqrt_c(), cfg.theta, &mut |t| triples.push(t));
    black_box(triples.len());
    drop(triples);
    let t2 = Instant::now();
    let serial = SlingIndex::build(graph, &cfg).map_err(|e| format!("serial build: {e}"))?;
    let t3 = Instant::now();
    black_box(serial.stats());
    drop(serial);
    spans.push(Span::new(10, 0, 0, "build.phases", t0, t3));
    spans.push(Span::new(11, 10, 0, "build.dk", t0, t1));
    spans.push(Span::new(12, 10, 0, "build.hp", t1, t2));
    spans.push(Span::new(13, 10, 0, "build.serial", t2, t3));
    let (dk, hp) = (secs(t0, t1), secs(t1, t2));
    Ok((dk, hp, (secs(t2, t3) - dk - hp).max(0.0)))
}

/// Mean ns per line of `Request::encode` and `Request::parse` over the
/// workload's own request stream (median of five passes each).
fn protocol_ns(args: &Args, n: u32) -> (f64, f64) {
    let hot = Arc::new(rig::HotSet::new(args.seed, n));
    let mut keys = KeyGen::new(args.workload, args.seed, 0, n, hot);
    let requests: Vec<Request> = (0..PROTOCOL_LINES)
        .map(|_| keys.next_key().request())
        .collect();
    let per_line = |t: Instant| t.elapsed().as_nanos() as f64 / PROTOCOL_LINES as f64;
    let mut encode = Vec::new();
    let mut parse = Vec::new();
    let mut lines = Vec::new();
    for _ in 0..5 {
        let t = Instant::now();
        lines = requests.iter().map(|r| black_box(r).encode()).collect();
        encode.push(per_line(t));
        let t = Instant::now();
        for line in &lines {
            black_box(Request::parse(black_box(line)).is_ok());
        }
        parse.push(per_line(t));
    }
    black_box(lines);
    (median(&mut parse), median(&mut encode))
}

/// `--trace 1`: one set-up, the serial build phases, warm-up, then the
/// window split into alternating untraced and traced slices. Counters
/// and `STATS` deltas come from the untraced slices (nothing but the
/// workload runs there); spans, stage times and in-process kernel calls
/// from the traced ones.
fn traced(args: &Args) -> Result<Outcome, String> {
    let epoch = Instant::now();
    let w = args.workload;
    let graph = Arc::new(generate(w, args.seed, args.toy)?);
    let cfg = config(args.seed);
    let scratch = Scratch::new(w)?;
    let mut rig = setup(w, &graph, &cfg, &scratch.index_path())?;
    let build_peak_rss = peak_rss_mb();
    let m = rig.marks;
    let mut spans = vec![
        Span::new(1, 0, 0, "setup", m.start, m.serving),
        Span::new(2, 1, 0, "build.total", m.start, m.built),
        Span::new(3, 1, 0, "build.encode", m.built, m.written),
        Span::new(4, 1, 0, "store.open", m.written, m.opened),
        Span::new(5, 1, 0, "server.start", m.opened, m.serving),
    ];
    let (dk_s, hp_s, assemble_s) = build_phases(&graph, &cfg, &mut spans)?;

    let cache = local_cache();
    let mut drivers = rig.drivers(args.seed, 0)?;
    let mut failed = warm_up(&rig, &mut drivers, &cache);
    let mut plain = PhaseOut::default();
    let mut with_trace = PhaseOut::default();
    let mut kernel = KernelSnap::default();
    let mut stats = StatsSnap::default();
    let slice = args.seconds / TRACE_SLICES as f64;
    for i in 0..TRACE_SLICES {
        let is_traced = i % 2 == 1;
        let k0 = KernelSnap::now();
        let s0 = match rig.served.as_mut() {
            Some(s) => Some(StatsSnap::read(&mut s.control)?),
            None => None,
        };
        let out = run_phase(
            &rig,
            &mut drivers,
            Stop::At(after(slice)),
            is_traced,
            &cache,
        );
        if is_traced {
            with_trace.absorb(out);
            continue;
        }
        kernel.add_delta(&k0, &KernelSnap::now());
        if let (Some(s), Some(s0)) = (rig.served.as_mut(), s0) {
            stats.add_delta(&s0, &StatsSnap::read(&mut s.control)?);
        }
        plain.absorb(out);
    }
    let end_stats = match rig.served.as_mut() {
        Some(s) => StatsSnap::read(&mut s.control)?,
        None => StatsSnap::default(),
    };
    drop(drivers);
    failed += plain.failed + with_trace.failed;
    failed += mismatches(&rig, &plain.samples) + mismatches(&rig, &with_trace.samples);
    let attempted = plain.attempted + with_trace.attempted;

    let (parse_ns, encode_ns) = if w.served() {
        protocol_ns(args, graph.num_nodes() as u32)
    } else {
        (0.0, 0.0)
    };
    let plain_queries = plain.attempted.max(1) as f64;
    let traced_queries = with_trace.traced.kernel_us.len().max(1) as f64;
    let ratio = |a: u64, b: u64| {
        if a + b == 0 {
            0.0
        } else {
            a as f64 / (a + b) as f64
        }
    };
    let per_served = |x: u64| x as f64 / stats.served.max(1) as f64;
    let st = rig.reference.stats();
    let qps_overhead = with_trace.qps() - plain.qps();
    let t = &mut with_trace.traced;
    let metrics = vec![
        ("build.dk_s", dk_s),
        ("build.hp_s", hp_s),
        ("build.assemble_s", assemble_s),
        ("build.total_s", secs(m.start, m.built)),
        ("build.encode_s", secs(m.built, m.written)),
        ("build.peak_rss_mb", build_peak_rss),
        ("build.dk_samples", st.dk_samples as f64),
        ("build.entries_stored", st.entries_stored as f64),
        ("build.reduced_nodes", st.reduced_nodes as f64),
        ("build.marked_entries", st.marked_entries as f64),
        ("store.open_s", secs(m.written, m.opened)),
        ("store.index_blocks", rig.engine.index_blocks() as f64),
        (
            "store.block_decodes_per_query",
            kernel.block_decodes as f64 / plain_queries,
        ),
        (
            "store.bytes_read_per_query",
            kernel.bytes_read as f64 / plain_queries,
        ),
        ("kernel.call_p50_us", percentile(&mut t.kernel_us, 50.0)),
        ("kernel.call_p99_us", percentile(&mut t.kernel_us, 99.0)),
        (
            "kernel.fetch_ns",
            t.stages.entry_fetch as f64 / traced_queries,
        ),
        (
            "kernel.restore_ns",
            t.stages.restore as f64 / traced_queries,
        ),
        ("kernel.merge_ns", t.stages.merge as f64 / traced_queries),
        (
            "kernel.propagate_ns",
            t.stages.propagate as f64 / traced_queries,
        ),
        (
            "kernel.restore_hit_rate",
            ratio(kernel.restore_hits, kernel.restore_misses),
        ),
        ("kernel.gallop_share", ratio(kernel.gallop, kernel.linear)),
        (
            "kernel.frontier_words_per_query",
            kernel.frontier_words as f64 / plain_queries,
        ),
        (
            "cache.hit_rate",
            ratio(stats.cache_hits, stats.cache_misses),
        ),
        ("cache.evictions", stats.cache_evictions as f64),
        ("server.start_s", secs(m.opened, m.serving)),
        (
            "server.overhead_p50_us",
            percentile(&mut t.overhead_us, 50.0),
        ),
        ("server.latency_p50_us", end_stats.latency_p50_us),
        ("server.latency_p99_us", end_stats.latency_p99_us),
        ("server.turns_per_request", per_served(stats.turns)),
        ("server.wakeups_per_request", per_served(stats.wakeups)),
        ("protocol.parse_ns", parse_ns),
        ("protocol.encode_ns", encode_ns),
        ("traffic.distinct_keys", t.keys.len() as f64),
        ("traffic.reduced_share", t.reduced as f64 / traced_queries),
        ("error_frac", failed as f64 / attempted.max(1) as f64),
        ("trace_overhead.qps", qps_overhead),
        (
            "trace_overhead.p50_us",
            percentile(&mut with_trace.lat_us, 50.0) - percentile(&mut plain.lat_us, 50.0),
        ),
        (
            "trace_overhead.p99_us",
            percentile(&mut with_trace.lat_us, 99.0) - percentile(&mut plain.lat_us, 99.0),
        ),
    ];
    spans.append(&mut with_trace.traced.spans);
    drop(rig);
    let path = out_dir().join(format!("spans-{}.tsv", w.name()));
    spans::write_tsv(&path, epoch, &spans).map_err(|e| format!("{}: {e}", path.display()))?;
    eprintln!("wrote {} spans to {}", spans.len(), path.display());
    Ok(Outcome {
        attempted,
        failed,
        metrics,
    })
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(args) => args,
        Err(e) => {
            eprintln!("perfbench: {e}");
            return ExitCode::from(2);
        }
    };
    let (result, table) = if args.trace {
        (traced(&args), PER_LAYER)
    } else {
        (untraced(&args), END_TO_END)
    };
    match result {
        Ok(outcome) => {
            println!("{}", outcome.to_json(table));
            if outcome.failed == 0 {
                ExitCode::SUCCESS
            } else {
                eprintln!(
                    "perfbench: {} of {} queries failed or answered wrongly",
                    outcome.failed, outcome.attempted
                );
                ExitCode::FAILURE
            }
        }
        Err(e) => {
            eprintln!("perfbench: {e}");
            ExitCode::from(2)
        }
    }
}
