//! Subcommand implementations.
//!
//! Every command is a plain function from parsed [`Args`] to a `String`
//! report (printed by `main`), so the full CLI surface is unit-testable
//! without spawning processes.

use std::fmt::Write as _;
use std::path::Path;
use std::sync::Arc;
use std::time::Duration;

use sling_core::lifecycle::{GenId, GenerationStore};
use sling_core::obs::{MetricsRegistry, StageNanos};
use sling_core::workload::{
    adversarial_cold_scan, characterize, diurnal_burst, read_trace_file, read_trace_tolerant,
    zipf_sweep, SynthOpts, Trace, TraceKey, TraceRecord, TraceVerb, TraceWriter,
};
use sling_core::{
    Admission, IndexStore, QueryWorkspace, Residency, ShardedResultCache, SharedEngine,
    SlingConfig, SlingIndex,
};
use sling_graph::traversal::double_sweep_diameter;
use sling_graph::{
    binfmt, components, datasets, edgelist, generators, DegreeDistribution, DegreeKind, DiGraph,
    GraphStats, NodeId,
};
use sling_server::{
    serve, serve_reloadable, stats_field, Client, Listener, ReloadableEngine, ServerConfig,
};

use crate::args::{Args, Spec};

/// One `sling` subcommand. Its synopsis is both its help text and its
/// flag declaration: the parser accepts exactly the flags it names (see
/// [`Spec::from_synopsis`]).
struct Command {
    name: &'static str,
    /// Usage forms, without the command name.
    synopsis: &'static [&'static str],
    about: &'static str,
    run: fn(&Args) -> Result<String, String>,
}

/// Every subcommand, in `sling help` order.
const COMMANDS: &[Command] = &[
    Command {
        name: "datasets",
        synopsis: &[""],
        about: "list the bundled synthetic dataset suite",
        run: cmd_datasets,
    },
    Command {
        name: "generate",
        synopsis: &[
            "--dataset NAME --out FILE [--text]",
            "--ba N,K | --er N,M | --ws N,K,BETA | --grid R,C [--seed S] --out FILE [--text]",
        ],
        about: "materialize a suite dataset or a random graph, in the binary format or as a \
                text edge list (--text)",
        run: cmd_generate,
    },
    Command {
        name: "stats",
        synopsis: &["GRAPH [--degrees]"],
        about: "structural statistics of a graph file",
        run: cmd_stats,
    },
    Command {
        name: "build",
        synopsis: &["GRAPH --out FILE [--eps E] [--c C] [--seed S] [--threads T]"],
        about: "build the SLING index of a graph",
        run: cmd_build,
    },
    Command {
        name: "query",
        synopsis: &[
            "GRAPH INDEX pair U V [--index-backend B]",
            "GRAPH INDEX source U [--top K] [--index-backend B]",
        ],
        about: "one SimRank score, or the top-k of a single-source query",
        run: cmd_query,
    },
    Command {
        name: "join",
        synopsis: &["GRAPH INDEX --tau T [--limit L] [--index-backend B]"],
        about: "all pairs with score >= T",
        run: cmd_join,
    },
    Command {
        name: "compact",
        synopsis: &["INDEX --out FILE [--quantize] [--block-entries N]"],
        about: "convert an index of any format to the block-compressed SLNGIDX3, with a \
                before/after byte report (lossless unless --quantize)",
        run: cmd_compact,
    },
    Command {
        name: "inspect",
        synopsis: &["INDEX"],
        about: "header version, per-section byte breakdown, and compression ratio",
        run: cmd_inspect,
    },
    Command {
        name: "batch",
        synopsis: &[
            "GRAPH INDEX --random N | --pairs FILE [--threads T] [--cache CAP] [--seed S] \
             [--index-backend B]",
        ],
        about: "bulk single-pair scoring through the shared engine and sharded result cache",
        run: cmd_batch,
    },
    Command {
        name: "serve",
        synopsis: &[
            "GRAPH INDEX [--listen ADDR] [--unix PATH] [--workers N] [--cache CAP] [--shards S] \
             [--max-connections N] [--index-backend B] [--slow-query-us U] [--deadline-us D] \
             [--shed-pending-bytes P] [--faults SPEC] \
             [--metrics-snapshot FILE [--metrics-snapshot-ms N]] \
             [--record FILE [--record-sample N]] [--cache-admission lru|tinylfu]",
            "--index-root DIR [GRAPH] [--watch] [--watch-ms N] [--rollback-errors E] [..]",
        ],
        about: "long-lived epoll-based query server (wire protocol: see sling-server docs). \
                Queries at or above U microseconds land in the SLOWLOG ring (default 10000, \
                0 disables); a query whose bytes waited longer than D microseconds answers ERR \
                deadline, and one arriving while its connection owes P pending bytes answers \
                ERR overloaded (0 = off). \
                --faults installs a deterministic fault schedule (see sling-core faults docs; \
                also read from SLING_FAULTS). --metrics-snapshot dumps the metrics registry to \
                FILE as JSON every N ms (default 1000). --record streams a SLNGTRACE traffic \
                trace to FILE (every Nth query, default 1) without ever blocking the event \
                loop. --cache-admission picks the result cache's admission policy (default \
                lru; tinylfu is frequency-aware). With --index-root it serves the promoted \
                generation of an index root and hot-swaps (zero dropped requests) when a new \
                one is promoted: on RELOAD, or every N ms with --watch-ms (1000 with --watch). \
                GRAPH is the fallback for generations without a graph snapshot. After E \
                runtime corruption/IO errors (default 8, 0 = off) the serving generation is \
                quarantined and the server rolls back to the newest verified prior one.",
        run: cmd_serve,
    },
    Command {
        name: "generations",
        synopsis: &["ROOT [--gc KEEP]"],
        about: "list and inspect the generations of an index root; --gc removes retired ones, \
                keeping KEEP rollback candidates",
        run: cmd_generations,
    },
    Command {
        name: "promote",
        synopsis: &["ROOT [--gen N | --index FILE [--graph FILE]]"],
        about: "verify and atomically promote a generation (the newest by default) to \
                CURRENT; --index first publishes the file as a new generation",
        run: cmd_promote,
    },
    Command {
        name: "client",
        synopsis: &["MODE [..] --connect HOST:PORT | --unix PATH [--force]"],
        about: "one request to a running server. MODE is pair U V | source U | topk U K | \
                stats | metrics | slowlog | reload | ping | shutdown; reload --force lifts a \
                rollback quarantine",
        run: cmd_client,
    },
    Command {
        name: "metrics",
        synopsis: &["--connect HOST:PORT | --unix PATH [--slow]"],
        about: "scrape a running server's Prometheus text exposition (METRICS verb); --slow \
                prints the slow-query ring instead",
        run: cmd_metrics,
    },
    Command {
        name: "record",
        synopsis: &[
            "--connect HOST:PORT | --unix PATH --out FILE [--duration-ms D] \
             [--poll-ms P] [--max-records N]",
        ],
        about: "capture a SLNGTRACE traffic trace from a server running with --record \
                (pull-based over the TRACE verb; written to FILE.tmp, renamed when complete)",
        run: cmd_record,
    },
    Command {
        name: "replay",
        synopsis: &[
            "GRAPH INDEX TRACE | --synth zipf|diurnal|scan [--records N] [--nodes N] \
             [--seed S] [--speed X] [--cache CAP] [--cache-admission lru|tinylfu] \
             [--spot-check N]",
            "GRAPH INDEX --suite [--out FILE]",
        ],
        about: "replay a captured or synthesized trace through the local engine at X× \
                recorded pacing (0 = flat out); every Nth pair answer is recomputed uncached \
                and must be bit-identical. --suite runs the pinned admission-policy \
                comparison (three synthetic scenarios, the adversarial scan under both lru \
                and tinylfu); its --out writes the machine-readable BENCH_replay.json",
        run: cmd_replay,
    },
    Command {
        name: "traffic-report",
        synopsis: &["TRACE"],
        about: "SkyServer-style characterization of a trace: verb mix, key-popularity skew, \
                burstiness, and hit-rate-vs-cache-size curves per policy",
        run: cmd_traffic_report,
    },
    Command {
        name: "bench-serve",
        synopsis: &[
            "GRAPH INDEX [--threads T] [--requests N] [--hot F] [--hot-keys K] \
             [--connections C] [--workers W] [--cache CAP] [--shards S] \
             [--max-connections N] [--slow-query-us U] [--cache-admission lru|tinylfu] \
             [--index-backend B] [--quick] [--trace] [--out FILE] [--seed S]",
        ],
        about: "drive an in-process server with concurrent skewed client traffic; \
                --connections holds a mostly-idle fleet open during the run; --trace appends \
                the server-side stage breakdown; --out runs the worker/connection-scaling \
                sweep (TCP + Unix, ≥1k idle connections) and writes the machine-readable \
                BENCH_serve.json",
        run: cmd_bench_serve,
    },
    Command {
        name: "bench-query",
        synopsis: &[
            "GRAPH INDEX [--quick] [--out FILE] [--pairs N] [--sources N] [--threads T] \
             [--seed S] [--trace]",
        ],
        about: "pinned single-pair / single-source / top-k / batch workloads on mem, mmap \
                (v1), and mmap over lossless and quantized v3 files; writes the \
                machine-readable BENCH_query.json (the default FILE); --trace appends the \
                per-stage kernel-time table",
        run: cmd_bench_query,
    },
    Command {
        name: "transform",
        synopsis: &["GRAPH PASS --out FILE [--k K] [--text]"],
        about: "PASS is largest-wcc | transpose | k-core | peel-dangling",
        run: cmd_transform,
    },
    Command {
        name: "ppr",
        synopsis: &["GRAPH SOURCE [--alpha A] [--top K]"],
        about: "personalized PageRank ranking",
        run: cmd_ppr,
    },
    Command {
        name: "audit",
        synopsis: &["GRAPH INDEX [--pairs N] [--mc M] [--seed S] [--exact]"],
        about: "empirically verify the eps guarantee on sampled pairs (or on all of them \
                against exact SimRank with --exact)",
        run: cmd_audit,
    },
];

/// Printed after the command list.
const NOTES: &str = "\
--index-backend B picks how an index file is read:
  mem   decode the whole index into memory (default)
  mmap  map the file and read entries out of the page cache, keeping only
        O(n) metadata resident; each query reads and checks the runs it
        needs (SLNGIDX1 in place, SLNGIDX2/3 one pass over each block
        the run touches)
Any index format works with either backend: both read it through the
same validating reader, accept the same files, and return identical
scores (bit-identical for lossless files).

Graph files may be SNAP-style text edge lists or the binary format
written by generate (detected by magic bytes).";

/// `sling help`: every command of [`COMMANDS`], then [`NOTES`].
fn usage() -> String {
    let mut out = String::from(
        "sling — SimRank queries with the SLING index (SIGMOD 2016 reproduction)\n\n\
         USAGE: sling <command> [args]\n\nCOMMANDS:\n",
    );
    for cmd in COMMANDS {
        out.push_str(&help_block(cmd));
    }
    out.push('\n');
    out.push_str(NOTES);
    out
}

/// One command's help: each usage form, then the description.
fn help_block(cmd: &Command) -> String {
    let mut out = String::new();
    for form in cmd.synopsis {
        wrap(&mut out, &format!("{} {form}", cmd.name), 2, 8);
    }
    wrap(&mut out, cmd.about, 6, 6);
    out
}

/// Append `text` word-wrapped to 80 columns, indenting its first line by
/// `first` spaces and the rest by `rest`.
fn wrap(out: &mut String, text: &str, first: usize, rest: usize) {
    let (mut indent, mut line) = (first, String::new());
    for word in text.split_whitespace() {
        if !line.is_empty() && indent + line.len() + 1 + word.len() > 80 {
            let _ = writeln!(out, "{:indent$}{line}", "");
            indent = rest;
            line.clear();
        }
        if !line.is_empty() {
            line.push(' ');
        }
        line.push_str(word);
    }
    let _ = writeln!(out, "{:indent$}{line}", "");
}

/// Dispatch a full command line (without the binary name).
pub fn run(argv: &[String]) -> Result<String, String> {
    let Some((name, rest)) = argv.split_first() else {
        return Err(usage());
    };
    if matches!(name.as_str(), "help" | "--help" | "-h") {
        return Ok(usage());
    }
    let Some(cmd) = COMMANDS.iter().find(|cmd| cmd.name == name) else {
        return Err(format!("unknown command {name:?}\n\n{}", usage()));
    };
    (cmd.run)(&Args::parse(
        rest.iter().cloned(),
        Spec::from_synopsis(cmd.synopsis),
    )?)
}

/// Convenience for tests: run a command given as whitespace-split string.
#[cfg(test)]
pub fn run_str(line: &str) -> Result<String, String> {
    let argv: Vec<String> = line.split_whitespace().map(String::from).collect();
    run(&argv)
}

/// Load a graph from either the binary format or a text edge list.
pub fn load_graph(path: &str) -> Result<DiGraph, String> {
    let bytes = std::fs::read(path).map_err(|e| format!("{path}: {e}"))?;
    if bytes.starts_with(b"SLNGGRF1") {
        binfmt::from_bytes(&bytes).map_err(|e| format!("{path}: {e}"))
    } else {
        edgelist::parse(bytes.as_slice(), edgelist::ParseOptions::default())
            .map_err(|e| format!("{path}: {e}"))
    }
}

fn save_graph(g: &DiGraph, path: &str, text: bool) -> Result<(), String> {
    if text {
        edgelist::save_path(g, path).map_err(|e| format!("{path}: {e}"))
    } else {
        binfmt::save_path(g, path).map_err(|e| format!("{path}: {e}"))
    }
}

fn parse_tuple<const N: usize>(raw: &str, flag: &str) -> Result<[f64; N], String> {
    let parts: Vec<&str> = raw.split(',').collect();
    if parts.len() != N {
        return Err(format!("--{flag} expects {N} comma-separated values"));
    }
    let mut out = [0.0; N];
    for (dst, part) in out.iter_mut().zip(parts) {
        *dst = part
            .trim()
            .parse()
            .map_err(|_| format!("--{flag}: cannot parse {part:?}"))?;
    }
    Ok(out)
}

/// `sling datasets`
pub fn cmd_datasets(_args: &Args) -> Result<String, String> {
    let mut out = String::new();
    writeln!(
        out,
        "{:<16} {:<12} {:>9} {:>11} {:<9} tier",
        "name", "stands for", "paper n", "paper m", "type"
    )
    .unwrap();
    for d in datasets::suite() {
        writeln!(
            out,
            "{:<16} {:<12} {:>9} {:>11} {:<9} {:?}",
            d.name,
            d.paper_name,
            d.paper_n,
            d.paper_m,
            if d.directed { "directed" } else { "undirected" },
            d.tier,
        )
        .unwrap();
    }
    Ok(out)
}

/// `sling generate`
pub fn cmd_generate(args: &Args) -> Result<String, String> {
    let out_path: String = args.flag_required("out")?;
    let seed: u64 = args.flag_parse("seed", 1u64)?;
    let text = args.switch("text");
    let g = if let Some(name) = args.flag("dataset") {
        datasets::by_name(name)
            .ok_or_else(|| format!("unknown dataset {name:?}; run `sling datasets`"))?
            .build()
    } else if let Some(raw) = args.flag("ba") {
        let [n, k] = parse_tuple::<2>(raw, "ba")?;
        generators::barabasi_albert(n as usize, k as usize, seed).map_err(|e| e.to_string())?
    } else if let Some(raw) = args.flag("er") {
        let [n, m] = parse_tuple::<2>(raw, "er")?;
        generators::erdos_renyi_directed(n as usize, m as usize, seed).map_err(|e| e.to_string())?
    } else if let Some(raw) = args.flag("ws") {
        let [n, k, beta] = parse_tuple::<3>(raw, "ws")?;
        generators::watts_strogatz(n as usize, k as usize, beta, seed).map_err(|e| e.to_string())?
    } else if let Some(raw) = args.flag("grid") {
        let [r, c] = parse_tuple::<2>(raw, "grid")?;
        generators::grid_graph(r as usize, c as usize)
    } else {
        return Err("generate needs --dataset, --ba, --er, --ws, or --grid".to_string());
    };
    save_graph(&g, &out_path, text)?;
    Ok(format!(
        "wrote {} (n = {}, m = {})",
        out_path,
        g.num_nodes(),
        g.num_edges()
    ))
}

/// `sling stats`
pub fn cmd_stats(args: &Args) -> Result<String, String> {
    let path = args.positional(0, "graph")?;
    let g = load_graph(path)?;
    let stats = GraphStats::compute(&g);
    let (wcc_labels, wcc_count) = components::weakly_connected_components(&g);
    let largest = components::largest_component_size(&wcc_labels, wcc_count);
    let (_, scc_count) = components::strongly_connected_components(&g);
    let mut out = String::new();
    writeln!(out, "{stats}").unwrap();
    writeln!(
        out,
        "wcc={wcc_count} (largest {largest}) scc={scc_count} diameter>={}",
        double_sweep_diameter(&g, NodeId(0)),
    )
    .unwrap();
    if args.switch("degrees") {
        for kind in [DegreeKind::In, DegreeKind::Out] {
            let d = DegreeDistribution::compute(&g, kind);
            writeln!(
                out,
                "{:?}-degree: mean={:.2} median={} p90={} p99={} max={} gini={:.3}",
                kind,
                d.mean(),
                d.median(),
                d.quantile(0.9),
                d.quantile(0.99),
                d.max(),
                d.gini(),
            )
            .unwrap();
        }
    }
    Ok(out)
}

/// `sling build`
pub fn cmd_build(args: &Args) -> Result<String, String> {
    let graph_path = args.positional(0, "graph")?;
    let out_path: String = args.flag_required("out")?;
    let c: f64 = args.flag_parse("c", 0.6)?;
    let eps: f64 = args.flag_parse("eps", 0.025)?;
    let seed: u64 = args.flag_parse("seed", 1u64)?;
    let threads: usize = args.flag_parse("threads", 1usize)?;
    let g = load_graph(graph_path)?;
    let config = SlingConfig::from_epsilon(c, eps)
        .with_seed(seed)
        .with_threads(threads);
    let start = std::time::Instant::now();
    let index = SlingIndex::build(&g, &config).map_err(|e| e.to_string())?;
    let elapsed = start.elapsed();
    let bytes = index.to_bytes();
    std::fs::write(&out_path, &bytes).map_err(|e| format!("{out_path}: {e}"))?;
    Ok(format!(
        "built index: n = {}, {} bytes on disk, {:.2?} build time (eps = {eps}, c = {c})",
        index.num_nodes(),
        bytes.len(),
        elapsed,
    ))
}

fn load_index(graph: &DiGraph, path: &str) -> Result<SlingIndex, String> {
    SlingIndex::load(graph, path).map_err(|e| match e {
        sling_core::SlingError::Io(e) => format!("{path}: {e}"),
        e => e.to_string(),
    })
}

/// Residency selected by `--index-backend` (`mem` by default).
fn parse_backend(args: &Args) -> Result<Residency, String> {
    match args.flag("index-backend").unwrap_or("mem") {
        "mem" => Ok(Residency::Mem),
        "mmap" => Ok(Residency::Mapped),
        other => Err(format!("unknown --index-backend {other:?} (mem|mmap)")),
    }
}

/// Open `index_path` for querying `graph` — every command that serves
/// queries from an index file goes through here. Both residencies read
/// every format and return identical scores; only the residency profile
/// differs (full decode vs page cache).
fn open_engine(
    graph: &DiGraph,
    index_path: &str,
    residency: Residency,
) -> Result<SharedEngine<IndexStore>, String> {
    SharedEngine::open(graph, index_path, residency).map_err(|e| format!("{index_path}: {e}"))
}

fn parse_node(raw: &str, n: usize) -> Result<NodeId, String> {
    let id: u32 = raw.parse().map_err(|_| format!("bad node id {raw:?}"))?;
    if (id as usize) < n {
        Ok(NodeId(id))
    } else {
        Err(format!("node {id} out of range (n = {n})"))
    }
}

/// `sling query`
pub fn cmd_query(args: &Args) -> Result<String, String> {
    let graph_path = args.positional(0, "graph")?;
    let index_path = args.positional(1, "index")?;
    let mode = args.positional(2, "pair|source")?;
    let backend = parse_backend(args)?;
    let g = load_graph(graph_path)?;
    match mode {
        "pair" => {
            let u = parse_node(args.positional(3, "u")?, g.num_nodes())?;
            let v = parse_node(args.positional(4, "v")?, g.num_nodes())?;
            let engine = open_engine(&g, index_path, backend)?;
            let start = std::time::Instant::now();
            let s = engine.single_pair(&g, u, v).map_err(|e| e.to_string())?;
            Ok(format!(
                "s({}, {}) = {s:.6}   [{:.1?}, {backend:?} backend]",
                u.0,
                v.0,
                start.elapsed()
            ))
        }
        "source" => {
            let u = parse_node(args.positional(3, "u")?, g.num_nodes())?;
            let k: usize = args.flag_parse("top", 10usize)?;
            let engine = open_engine(&g, index_path, backend)?;
            let start = std::time::Instant::now();
            let top = engine.top_k(&g, u, k).map_err(|e| e.to_string())?;
            let elapsed = start.elapsed();
            let mut out = String::new();
            writeln!(
                out,
                "top {} similar to node {}   [{:.1?}, {backend:?} backend]",
                k, u.0, elapsed
            )
            .unwrap();
            for (v, s) in top {
                writeln!(out, "  {:>8}  {s:.6}", v.0).unwrap();
            }
            Ok(out)
        }
        other => Err(format!("unknown query mode {other:?} (pair|source)")),
    }
}

/// `sling join`
pub fn cmd_join(args: &Args) -> Result<String, String> {
    let graph_path = args.positional(0, "graph")?;
    let index_path = args.positional(1, "index")?;
    let tau: f64 = args.flag_required("tau")?;
    let limit: usize = args.flag_parse("limit", 50usize)?;
    let backend = parse_backend(args)?;
    let g = load_graph(graph_path)?;
    let engine = open_engine(&g, index_path, backend)?;
    let pairs = engine
        .threshold_join(&g, tau, sling_core::join::JoinStrategy::InvertedLists)
        .map_err(|e| e.to_string())?;
    let mut out = String::new();
    writeln!(out, "{} pairs with s >= {tau}", pairs.len()).unwrap();
    for p in pairs.iter().take(limit) {
        writeln!(out, "  ({:>6}, {:>6})  {:.6}", p.u.0, p.v.0, p.score).unwrap();
    }
    if pairs.len() > limit {
        writeln!(out, "  ... {} more (raise --limit)", pairs.len() - limit).unwrap();
    }
    Ok(out)
}

fn xorshift(state: &mut u64) -> u64 {
    let mut x = *state;
    x ^= x << 13;
    x ^= x >> 7;
    x ^= x << 17;
    *state = x;
    x
}

/// Deterministic random node pair (excluding self-pairs when n > 1).
fn random_pair(state: &mut u64, n: u32) -> (u32, u32) {
    let u = (xorshift(state) % n as u64) as u32;
    let v = (xorshift(state) % n as u64) as u32;
    if u == v && n > 1 {
        (u, (v + 1) % n)
    } else {
        (u, v)
    }
}

fn format_cache_stats(stats: sling_core::CacheStats) -> String {
    format!(
        "cache: {} hits, {} misses, {} evictions, hit rate {:.2}%",
        stats.hits,
        stats.misses,
        stats.evictions,
        stats.hit_rate() * 100.0
    )
}

/// `sling batch` — bulk single-pair scoring through the owned
/// [`SharedEngine`] API, memoized in a [`ShardedResultCache`] unless
/// `--cache 0`.
pub fn cmd_batch(args: &Args) -> Result<String, String> {
    let graph_path = args.positional(0, "graph")?;
    let index_path = args.positional(1, "index")?;
    let backend = parse_backend(args)?;
    let threads: usize = args.flag_parse("threads", 4usize)?;
    let cache_cap: usize = args.flag_parse("cache", 1usize << 16)?;
    let seed: u64 = args.flag_parse("seed", 1u64)?;
    let g = load_graph(graph_path)?;
    let n = g.num_nodes() as u32;
    if n == 0 {
        return Err("cannot batch-query an empty graph".to_string());
    }
    let pairs: Vec<(NodeId, NodeId)> = if let Some(file) = args.flag("pairs") {
        let text = std::fs::read_to_string(file).map_err(|e| format!("{file}: {e}"))?;
        let mut out = Vec::new();
        for (lineno, line) in text.lines().enumerate() {
            let line = line.trim();
            if line.is_empty() || line.starts_with('#') {
                continue;
            }
            let mut it = line.split_whitespace();
            let (u, v) = (it.next(), it.next());
            let (Some(u), Some(v)) = (u, v) else {
                return Err(format!("{file}:{}: expected `u v`", lineno + 1));
            };
            out.push((parse_node(u, g.num_nodes())?, parse_node(v, g.num_nodes())?));
        }
        out
    } else {
        let count: usize = args.flag_parse("random", 0usize)?;
        if count == 0 {
            return Err("batch needs --random N or --pairs FILE".to_string());
        }
        let mut state = seed | 1;
        (0..count)
            .map(|_| {
                let (u, v) = random_pair(&mut state, n);
                (NodeId(u), NodeId(v))
            })
            .collect()
    };
    // Canonicalize up front so the cached and cacheless paths compute
    // the same (min, max) orientation — SimRank is symmetric, but float
    // merge order is not, and answers must not depend on --cache.
    let pairs: Vec<(NodeId, NodeId)> = pairs
        .iter()
        .map(|&(u, v)| if u.0 <= v.0 { (u, v) } else { (v, u) })
        .collect();
    let engine = open_engine(&g, index_path, backend)?;
    let start = std::time::Instant::now();
    let (scores, cache_line) = if cache_cap > 0 {
        let cache = ShardedResultCache::with_capacity(cache_cap);
        let scores = engine
            .batch_single_pair_cached(&g, &pairs, threads, &cache)
            .map_err(|e| e.to_string())?;
        (scores, format_cache_stats(cache.stats()))
    } else {
        let scores = engine
            .batch_single_pair(&g, &pairs, threads)
            .map_err(|e| e.to_string())?;
        (scores, "cache: off".to_string())
    };
    let elapsed = start.elapsed();
    let mean = scores.iter().sum::<f64>() / scores.len().max(1) as f64;
    Ok(format!(
        "scored {} pairs in {:.2?} on {} threads ({:.0} pairs/s), mean score {:.6}\n{}",
        scores.len(),
        elapsed,
        threads,
        scores.len() as f64 / elapsed.as_secs_f64().max(1e-9),
        mean,
        cache_line,
    ))
}

fn bind_listener(args: &Args, default_addr: &str) -> Result<Listener, String> {
    if let Some(path) = args.flag("unix") {
        Listener::bind_unix(path).map_err(|e| format!("{path}: {e}"))
    } else {
        let addr = args.flag("listen").unwrap_or(default_addr);
        Listener::bind_tcp(addr).map_err(|e| format!("{addr}: {e}"))
    }
}

/// The server settings `serve` and `bench-serve` both accept; the rest
/// keep their [`ServerConfig::default`].
fn server_config(args: &Args) -> Result<ServerConfig, String> {
    let default = ServerConfig::default();
    Ok(ServerConfig {
        workers: args.flag_parse("workers", default.workers)?,
        cache_capacity: args.flag_parse("cache", default.cache_capacity)?,
        cache_shards: args.flag_parse("shards", default.cache_shards)?,
        max_connections: args.flag_parse("max-connections", default.max_connections)?,
        slow_query_us: args.flag_parse("slow-query-us", default.slow_query_us)?,
        cache_admission: parse_admission(args)?,
        ..default
    })
}

/// [`server_config`] plus the settings only `serve` accepts.
fn serve_config(args: &Args) -> Result<ServerConfig, String> {
    let shared = server_config(args)?;
    let watch_default = if args.switch("watch") { 1000 } else { 0 };
    Ok(ServerConfig {
        watch_interval_ms: args.flag_parse("watch-ms", watch_default)?,
        deadline_us: args.flag_parse("deadline-us", shared.deadline_us)?,
        shed_pending_bytes: args.flag_parse("shed-pending-bytes", shared.shed_pending_bytes)?,
        rollback_error_threshold: args
            .flag_parse("rollback-errors", shared.rollback_error_threshold)?,
        record_path: args.flag("record").map(std::path::PathBuf::from),
        record_sample: args.flag_parse("record-sample", shared.record_sample)?,
        ..shared
    })
}

/// Parse `--cache-admission {lru,tinylfu}` (default `lru`).
fn parse_admission(args: &Args) -> Result<Admission, String> {
    match args.flag("cache-admission") {
        None => Ok(Admission::Lru),
        Some(tok) => Admission::parse(tok)
            .ok_or_else(|| format!("unknown cache admission policy {tok:?} (lru|tinylfu)")),
    }
}

/// Install the deterministic fault schedule from `--faults SPEC` (or,
/// absent the flag, the `SLING_FAULTS` environment variable). Serving
/// commands call this before binding so injected faults cover the whole
/// lifetime of the process.
fn install_faults(args: &Args) -> Result<(), String> {
    match args.flag("faults") {
        Some(spec) => sling_core::faults::install_from_spec(spec)
            .map_err(|e| format!("--faults {spec:?}: {e}")),
        None => sling_core::faults::install_from_env()
            .map(|_| ())
            .map_err(|e| format!("SLING_FAULTS: {e}")),
    }
}

/// Parsed `--metrics-snapshot` options: dump the registry's JSON
/// snapshot to this path every interval.
#[derive(Clone)]
struct SnapshotOpts {
    path: std::path::PathBuf,
    interval: Duration,
}

fn snapshot_opts(args: &Args) -> Result<Option<SnapshotOpts>, String> {
    let Some(path) = args.flag("metrics-snapshot") else {
        return Ok(None);
    };
    Ok(Some(SnapshotOpts {
        path: std::path::PathBuf::from(path),
        interval: Duration::from_millis(args.flag_parse("metrics-snapshot-ms", 1000u64)?.max(10)),
    }))
}

/// Detached exporter thread behind `serve --metrics-snapshot`: renders
/// the registry as JSON every interval and atomically replaces the
/// target file (tmp + rename), so scrapers and post-mortem tooling never
/// read a torn snapshot. The first write happens immediately; the
/// thread dies with the process.
fn spawn_metrics_snapshot(registry: Arc<MetricsRegistry>, opts: SnapshotOpts) {
    let _ = std::thread::Builder::new()
        .name("metrics-snapshot".into())
        .spawn(move || loop {
            let tmp = opts.path.with_extension("tmp");
            if std::fs::write(&tmp, registry.render_json()).is_ok() {
                let _ = std::fs::rename(&tmp, &opts.path);
            }
            std::thread::sleep(opts.interval);
        });
}

/// `sling serve` — the long-lived concurrent query server: one shared
/// engine, thread-per-core workers, sharded result cache. Blocks until a
/// client sends `SHUTDOWN`.
///
/// Two engine sources: `serve GRAPH INDEX` pins one index file for the
/// server's lifetime, while `serve --index-root DIR [GRAPH]` serves the
/// promoted generation of a [`GenerationStore`] and hot-swaps whenever a
/// new generation is promoted (on `RELOAD`, or automatically with
/// `--watch` / `--watch-ms`). The optional `GRAPH` positional is the
/// fallback for generations without a co-located graph snapshot.
pub fn cmd_serve(args: &Args) -> Result<String, String> {
    // Contradictory flag combinations are rejected before faults are
    // installed or the listener is bound, so the operator hears the flag
    // error whatever state the port is in.
    let root = args.flag("index-root");
    if root.is_some() && args.positional(1, "index").is_ok() {
        // With --index-root the only positional is the optional fallback
        // graph; a leftover INDEX argument means the operator bolted
        // --index-root onto a pinned `serve GRAPH INDEX` invocation and
        // would otherwise have it silently dropped.
        return Err(
            "--index-root serves the store's promoted generation; drop the INDEX \
             positional (only an optional fallback GRAPH is accepted)"
                .to_string(),
        );
    }
    if root.is_none() && (args.switch("watch") || args.flag("watch-ms").is_some()) {
        // Pinned single-index serving: there is nothing to watch, so a
        // watch flag here means the operator expected hot reload and
        // must hear that it will not happen.
        return Err(
            "--watch/--watch-ms only apply with --index-root DIR (a pinned GRAPH INDEX \
             server has no generation store to watch)"
                .to_string(),
        );
    }
    install_faults(args)?;
    let backend = parse_backend(args)?;
    let config = serve_config(args)?;
    let snapshot = snapshot_opts(args)?;
    let listener = bind_listener(args, "127.0.0.1:7462")?;
    if let Some(root) = root {
        let store = GenerationStore::open(root).map_err(|e| format!("{root}: {e}"))?;
        let fallback = match args.positional(0, "graph") {
            Ok(path) => Some(Arc::new(load_graph(path)?)),
            Err(_) => None,
        };
        return serve_root(store, fallback, backend, listener, config, snapshot);
    }
    let graph_path = args.positional(0, "graph")?;
    let index_path = args.positional(1, "index")?;
    let g = load_graph(graph_path)?;
    let engine = open_engine(&g, index_path, backend)?;
    let handle = serve(Arc::new(engine), Arc::new(g), listener, config)
        .map_err(|e| format!("failed to start server: {e}"))?;
    if let Some(opts) = snapshot {
        spawn_metrics_snapshot(handle.metrics_registry(), opts);
    }
    match handle.local_addr() {
        Some(addr) => println!("sling-server listening on {addr} (send SHUTDOWN to stop)"),
        None => println!("sling-server listening on unix socket (send SHUTDOWN to stop)"),
    }
    Ok(format!("server shut down: {}", handle.join()))
}

/// Serve the promoted generation of a store, hot-swapping on promotion.
/// Every generation is opened with `residency`, whatever its format.
fn serve_root(
    store: GenerationStore,
    fallback_graph: Option<Arc<DiGraph>>,
    residency: Residency,
    listener: Listener,
    config: ServerConfig,
    snapshot: Option<SnapshotOpts>,
) -> Result<String, String> {
    let root = store.root().display().to_string();
    let open = move |g: &DiGraph, p: &Path| SharedEngine::open(g, p, residency);
    let reloadable = ReloadableEngine::watching_store(store, fallback_graph, open)
        .map_err(|e| format!("{root}: {e}"))?;
    let serving = reloadable.current().name().to_string();
    let watch_interval_ms = config.watch_interval_ms;
    let handle = serve_reloadable(Arc::new(reloadable), listener, config)
        .map_err(|e| format!("failed to start server: {e}"))?;
    if let Some(opts) = snapshot {
        spawn_metrics_snapshot(handle.metrics_registry(), opts);
    }
    let watch = if watch_interval_ms > 0 {
        format!(", watching CURRENT every {watch_interval_ms} ms")
    } else {
        ", hot reload on RELOAD".to_string()
    };
    match handle.local_addr() {
        Some(addr) => println!(
            "sling-server listening on {addr}, serving {serving} from {root}{watch} \
             (send SHUTDOWN to stop)"
        ),
        None => println!(
            "sling-server listening on unix socket, serving {serving} from {root}{watch} \
             (send SHUTDOWN to stop)"
        ),
    }
    Ok(format!("server shut down: {}", handle.join()))
}

fn connect_client(args: &Args) -> Result<Client, String> {
    if let Some(path) = args.flag("unix") {
        Client::connect_unix(path).map_err(|e| format!("{path}: {e}"))
    } else if let Some(addr) = args.flag("connect") {
        Client::connect_tcp(addr).map_err(|e| format!("{addr}: {e}"))
    } else {
        Err("client needs --connect HOST:PORT or --unix PATH".to_string())
    }
}

/// `sling client` — one-shot protocol client for a running server.
pub fn cmd_client(args: &Args) -> Result<String, String> {
    let mode = args.positional(0, "mode")?;
    let mut client = connect_client(args)?;
    let err = |e: std::io::Error| e.to_string();
    match mode {
        "pair" => {
            let u: u32 = args
                .positional(1, "u")?
                .parse()
                .map_err(|_| "bad node id".to_string())?;
            let v: u32 = args
                .positional(2, "v")?
                .parse()
                .map_err(|_| "bad node id".to_string())?;
            let s = client.pair(u, v).map_err(err)?;
            Ok(format!("s({u}, {v}) = {s:.6}"))
        }
        "source" => {
            let u: u32 = args
                .positional(1, "u")?
                .parse()
                .map_err(|_| "bad node id".to_string())?;
            let scores = client.single_source(u).map_err(err)?;
            let mut ranked: Vec<(usize, f64)> = scores
                .iter()
                .copied()
                .enumerate()
                .filter(|&(v, s)| v != u as usize && s > 0.0)
                .collect();
            ranked.sort_by(|a, b| b.1.partial_cmp(&a.1).unwrap().then(a.0.cmp(&b.0)));
            ranked.truncate(10);
            let mut out = format!(
                "{} scores from node {u}; top {}:\n",
                scores.len(),
                ranked.len()
            );
            for (v, s) in ranked {
                writeln!(out, "  {v:>8}  {s:.6}").unwrap();
            }
            Ok(out)
        }
        "topk" => {
            let u: u32 = args
                .positional(1, "u")?
                .parse()
                .map_err(|_| "bad node id".to_string())?;
            let k: usize = args
                .positional(2, "k")?
                .parse()
                .map_err(|_| "bad k".to_string())?;
            let top = client.top_k(u, k).map_err(err)?;
            let mut out = format!("top {} similar to node {u} (served)\n", top.len());
            for (v, s) in top {
                writeln!(out, "  {v:>8}  {s:.6}").unwrap();
            }
            Ok(out)
        }
        "stats" => client.stats_line().map_err(err),
        "metrics" => client.metrics().map_err(err),
        "slowlog" => {
            let log = client.slow_queries().map_err(err)?;
            Ok(if log.is_empty() {
                "(no slow queries recorded)".to_string()
            } else {
                log
            })
        }
        "reload" => {
            let force = args.switch("force");
            let (generation, swapped) = client.reload_with(force).map_err(err)?;
            Ok(if swapped {
                format!("swapped to {generation}")
            } else if force {
                format!("already serving {generation}")
            } else {
                format!(
                    "already serving {generation} \
                     (no newer promotion, or the newer one is quarantined; see --force)"
                )
            })
        }
        "ping" => {
            client.ping().map_err(err)?;
            Ok("pong".to_string())
        }
        "shutdown" => {
            client.shutdown().map_err(err)?;
            Ok("server shutting down".to_string())
        }
        other => Err(format!(
            "unknown client mode {other:?} \
             (pair|source|topk|stats|metrics|slowlog|reload|ping|shutdown)"
        )),
    }
}

/// `sling metrics` — scrape a running server's full Prometheus text
/// exposition (the `METRICS` verb); `--slow` prints the slow-query ring
/// instead, one structured record per line, oldest first.
pub fn cmd_metrics(args: &Args) -> Result<String, String> {
    let mut client = connect_client(args)?;
    if args.switch("slow") {
        let log = client.slow_queries().map_err(|e| e.to_string())?;
        Ok(if log.is_empty() {
            "(no slow queries recorded)".to_string()
        } else {
            log
        })
    } else {
        client.metrics().map_err(|e| e.to_string())
    }
}

/// `sling record` — capture a traffic trace from a running server into a
/// `SLNGTRACE v1` file.
///
/// Polls the server's `TRACE` verb with a running cursor, so capture is
/// pull-based: the server's ring buffer never blocks the event loop, and
/// a slow recorder client loses old records (counted below) instead of
/// slowing queries down. The file is written to `OUT.tmp` and renamed
/// into place at the end, so a crashed capture never leaves a
/// half-written file under the final name. The server must be running
/// with `serve --record FILE` (the ring exists only then); this command
/// is a second, independent consumer of the same ring.
///
/// Accounting in the final report:
/// * `captured` — records written to OUT;
/// * `server dropped` — records the server itself lost to ring
///   contention or sampling (its cumulative counter);
/// * `overwritten` — records that aged out of the ring between our
///   polls (visible as sequence gaps).
pub fn cmd_record(args: &Args) -> Result<String, String> {
    let out_path: String = args.flag_required("out")?;
    let duration_ms: u64 = args.flag_parse("duration-ms", 2000u64)?;
    let poll_ms: u64 = args.flag_parse("poll-ms", 50u64)?;
    let max_records: u64 = args.flag_parse("max-records", 0u64)?; // 0 = unlimited
    let mut client = connect_client(args)?;
    let err = |e: std::io::Error| e.to_string();

    let tmp = format!("{out_path}.tmp");
    let deadline = std::time::Instant::now() + Duration::from_millis(duration_ms);
    let mut writer: Option<TraceWriter<std::io::BufWriter<std::fs::File>>> = None;
    let mut cursor = 0u64;
    let mut captured = 0u64;
    let mut overwritten = 0u64;
    let mut server_dropped;
    let mut started = false;
    loop {
        let seg = client.trace_from(cursor, 4096).map_err(err)?;
        server_dropped = seg.dropped;
        if writer.is_none() {
            let file = std::fs::File::create(&tmp).map_err(|e| format!("{tmp}: {e}"))?;
            let w = TraceWriter::new(std::io::BufWriter::new(file), seg.base_us)
                .map_err(|e| format!("{tmp}: {e}"))?;
            writer = Some(w);
        }
        let w = writer.as_mut().expect("writer was just created");
        if let Some(&(first_seq, _)) = seg.records.first() {
            // A gap between where we left off and the oldest record the
            // ring still holds means records aged out between polls. The
            // very first poll starts wherever the ring starts, by design.
            if started {
                overwritten += first_seq.saturating_sub(cursor);
            }
            started = true;
        }
        let full_batch = seg.records.len() >= 4096;
        for (_, rec) in &seg.records {
            w.write(rec).map_err(|e| format!("{tmp}: {e}"))?;
        }
        captured += seg.records.len() as u64;
        cursor = cursor.max(seg.next_seq);
        if max_records > 0 && captured >= max_records {
            break;
        }
        let now = std::time::Instant::now();
        if now >= deadline {
            break;
        }
        if !full_batch {
            // Ring drained: wait for fresh traffic, but never past the
            // deadline.
            let remaining = deadline - now;
            std::thread::sleep(remaining.min(Duration::from_millis(poll_ms.max(1))));
        }
    }
    let w = writer.expect("first poll always creates the writer");
    let records = w.records_written();
    let bytes = w.bytes_written();
    let inner = w.into_inner().map_err(|e| format!("{tmp}: {e}"))?;
    inner
        .get_ref()
        .sync_data()
        .map_err(|e| format!("{tmp}: {e}"))?;
    drop(inner);
    std::fs::rename(&tmp, &out_path).map_err(|e| format!("{tmp} -> {out_path}: {e}"))?;
    Ok(format!(
        "captured {records} records ({bytes} bytes) to {out_path}\n\
         server dropped {server_dropped} (sampling/contention), \
         {overwritten} overwritten between polls"
    ))
}

/// `sling traffic-report` — the SkyServer-style characterization of a
/// captured (or synthesized) trace file: verb mix, key-popularity skew,
/// burstiness, and hit-rate-vs-cache-size curves under both admission
/// policies. Uses the tolerant reader, so a torn tail from an in-flight
/// recorder degrades to fewer records (reported), never to an error.
pub fn cmd_traffic_report(args: &Args) -> Result<String, String> {
    let path = args.positional(0, "trace")?;
    let file = std::fs::File::open(path).map_err(|e| format!("{path}: {e}"))?;
    let (trace, dropped) = read_trace_tolerant(std::io::BufReader::new(file));
    let Some(trace) = trace else {
        return Err(format!("{path}: not a readable SLNGTRACE v1 file"));
    };
    let mut out = format!("traffic report for {path}\n\n");
    out.push_str(&characterize(&trace).to_string());
    if dropped > 0 {
        let _ = write!(
            out,
            "\nnote: {dropped} damaged or torn line(s) dropped by the tolerant reader"
        );
    }
    Ok(out)
}

/// Counters from one [`replay_records`] pass over a trace.
#[derive(Clone, Copy, Debug, Default)]
struct ReplayRun {
    replayed: u64,
    skipped: u64,
    pair: u64,
    source: u64,
    topk: u64,
    spot_checks: u64,
    hits: u64,
    misses: u64,
    rejects: u64,
    elapsed_s: f64,
}

impl ReplayRun {
    fn hit_rate(&self) -> f64 {
        let total = self.hits + self.misses;
        if total == 0 {
            return 0.0;
        }
        self.hits as f64 / total as f64
    }
}

/// Drive every record of a trace through the local engine, optionally
/// through a result cache, at `speed`× recorded pacing (0 = as fast as
/// possible). Every `spot_every`-th pair answer is recomputed uncached
/// and must be bit-identical — the replay-correctness check.
fn replay_records(
    engine: &SharedEngine<IndexStore>,
    g: &DiGraph,
    records: &[TraceRecord],
    cache: Option<&ShardedResultCache>,
    speed: f64,
    spot_every: u64,
) -> Result<ReplayRun, String> {
    let n = g.num_nodes() as u32;
    let mut run = ReplayRun::default();
    let mut ws = QueryWorkspace::new();
    let mut scores: Vec<f64> = Vec::new();
    let t0 = records.first().map(|r| r.t_us).unwrap_or(0);
    let start = std::time::Instant::now();
    for rec in records {
        if speed > 0.0 {
            let offset = Duration::from_micros((rec.t_us.saturating_sub(t0) as f64 / speed) as u64);
            let now = start.elapsed();
            if offset > now {
                std::thread::sleep(offset - now);
            }
        }
        match (rec.verb, rec.key) {
            (TraceVerb::Pair | TraceVerb::Batch, TraceKey::Pair(u, v)) => {
                if u >= n || v >= n {
                    run.skipped += 1;
                    continue;
                }
                // Canonicalize exactly as the server does, so cached and
                // uncached answers share one merge orientation.
                let (a, b) = (NodeId(u.min(v)), NodeId(u.max(v)));
                let got = match cache {
                    Some(c) => engine
                        .single_pair_cached_tagged(g, &mut ws, c, a, b, 0)
                        .map_err(|e| e.to_string())?,
                    None => engine
                        .single_pair_with(g, &mut ws, a, b)
                        .map_err(|e| e.to_string())?,
                };
                run.pair += 1;
                if spot_every > 0 && run.pair % spot_every == 0 {
                    let want = engine
                        .single_pair_with(g, &mut ws, a, b)
                        .map_err(|e| e.to_string())?;
                    if got.to_bits() != want.to_bits() {
                        return Err(format!(
                            "replay spot-check failed: s({}, {}) = {got} via cache \
                             but {want} uncached (not bit-identical)",
                            a.0, b.0
                        ));
                    }
                    run.spot_checks += 1;
                }
            }
            (TraceVerb::Source, TraceKey::Node(u)) => {
                if u >= n {
                    run.skipped += 1;
                    continue;
                }
                engine
                    .single_source_with(g, &mut ws, NodeId(u), &mut scores)
                    .map_err(|e| e.to_string())?;
                run.source += 1;
            }
            (TraceVerb::TopK, TraceKey::NodeK(u, k)) => {
                if u >= n {
                    run.skipped += 1;
                    continue;
                }
                engine
                    .top_k_with(g, &mut ws, &mut scores, NodeId(u), k.max(1) as usize)
                    .map_err(|e| e.to_string())?;
                run.topk += 1;
            }
            // A verb/key mismatch can only come from a hand-edited
            // trace; replay it as a no-op rather than failing the run.
            _ => {
                run.skipped += 1;
                continue;
            }
        }
        run.replayed += 1;
    }
    run.elapsed_s = start.elapsed().as_secs_f64();
    if let Some(c) = cache {
        let s = c.stats();
        run.hits = s.hits;
        run.misses = s.misses;
        run.rejects = c.admission_rejects();
    }
    Ok(run)
}

fn synth_trace(kind: &str, opts: SynthOpts) -> Result<Trace, String> {
    match kind {
        "zipf" | "zipf_sweep" => Ok(zipf_sweep(opts)),
        "diurnal" | "diurnal_burst" => Ok(diurnal_burst(opts)),
        "scan" | "adversarial_cold_scan" => Ok(adversarial_cold_scan(opts)),
        other => Err(format!(
            "unknown --synth scenario {other:?} (zipf|diurnal|scan)"
        )),
    }
}

/// `sling replay` — drive a captured or synthesized trace through the
/// local engine at recorded (or scaled) pacing.
///
/// `replay GRAPH INDEX TRACE` replays a `SLNGTRACE v1` file (strict
/// reader — replay wants exactness); `replay GRAPH INDEX --synth
/// zipf|diurnal|scan` synthesizes one of the three scenario families
/// instead. `--cache CAP` routes pair queries through a result cache
/// under `--cache-admission lru|tinylfu`; `--spot-check N` recomputes
/// every Nth pair uncached and fails unless answers are bit-identical.
/// `--speed X` paces records at X× recorded speed (0, the default,
/// replays as fast as possible).
///
/// `--suite [--out FILE]` ignores TRACE/--synth and runs the pinned
/// admission-policy comparison (the three synthetic scenarios, with the
/// adversarial cold scan replayed under both LRU and TinyLFU at the same
/// capacity), writing the machine-readable `BENCH_replay.json`:
///
/// ```json
/// {
///   "bench": "replay",
///   "schema_version": 1,
///   "fixture": {"graph_nodes": .., "graph_edges": .., "trace_nodes": ..,
///               "records_per_trace": .., "seed": .., "cache_capacity": ..},
///   "results": [
///     {"scenario": "adversarial_cold_scan", "policy": "tinylfu", "replayed": ..,
///      "skipped": .., "hits": .., "misses": .., "admission_rejects": ..,
///      "hit_rate": .., "spot_checks": .., "elapsed_s": .., "qps": ..}
///   ],
///   "scan_admission": {"capacity": .., "hit_rate_lru": ..,
///                      "hit_rate_tinylfu": .., "advantage": ..}
/// }
/// ```
///
/// Each result is one line with a fixed key order so CI can extract
/// fields with `sed` (see `ci/bench_replay_floor.json` for the gated
/// floors). `advantage` is `hit_rate_tinylfu - hit_rate_lru` on the
/// adversarial scan — the number the frequency-aware admission policy
/// exists to keep positive.
pub fn cmd_replay(args: &Args) -> Result<String, String> {
    let graph_path = args.positional(0, "graph")?;
    let index_path = args.positional(1, "index")?;
    let g = load_graph(graph_path)?;
    let n = g.num_nodes() as u32;
    if n < 2 {
        return Err("replay needs a graph with at least 2 nodes".to_string());
    }
    let engine = open_engine(&g, index_path, Residency::Mem)?;

    if args.switch("suite") {
        return replay_suite(args, &engine, &g);
    }

    let trace: Trace = if let Some(kind) = args.flag("synth") {
        let opts = SynthOpts {
            nodes: args.flag_parse("nodes", n)?.min(n),
            records: args.flag_parse("records", 10_000usize)?,
            seed: args.flag_parse("seed", 41u64)?,
        };
        synth_trace(kind, opts)?
    } else {
        let path = args.positional(2, "trace (or pass --synth zipf|diurnal|scan)")?;
        read_trace_file(path).map_err(|e| format!("{path}: {e}"))?
    };

    let speed: f64 = args.flag_parse("speed", 0.0f64)?;
    let spot: u64 = args.flag_parse("spot-check", 0u64)?;
    let cache_cap: usize = args.flag_parse("cache", 0usize)?;
    let cache = if cache_cap > 0 {
        // One shard keeps admission decisions deterministic, so two
        // replays of one trace agree exactly.
        Some(ShardedResultCache::with_admission(
            cache_cap,
            1,
            parse_admission(args)?,
        ))
    } else {
        None
    };
    let run = replay_records(&engine, &g, &trace.records, cache.as_ref(), speed, spot)?;
    let mut out = format!(
        "replayed {} records in {:.2}s ({:.0} rec/s): {} pair, {} source, {} topk, {} skipped\n",
        run.replayed,
        run.elapsed_s,
        run.replayed as f64 / run.elapsed_s.max(1e-9),
        run.pair,
        run.source,
        run.topk,
        run.skipped,
    );
    match &cache {
        Some(c) => {
            let _ = writeln!(
                out,
                "cache: capacity {} policy {} — {} hits, {} misses, hit rate {:.2}%, \
                 {} admission rejects",
                cache_cap,
                c.admission().as_str(),
                run.hits,
                run.misses,
                run.hit_rate() * 100.0,
                run.rejects,
            );
        }
        None => out.push_str("cache: off\n"),
    }
    if spot > 0 {
        let _ = writeln!(out, "spot-checks: {} bit-identical", run.spot_checks);
    }
    Ok(out)
}

/// The pinned `--suite` runs for [`cmd_replay`]: (scenario, policy).
const REPLAY_SUITE: &[(&str, Admission)] = &[
    ("zipf_sweep", Admission::Lru),
    ("diurnal_burst", Admission::Lru),
    ("adversarial_cold_scan", Admission::Lru),
    ("adversarial_cold_scan", Admission::TinyLfu),
];

fn replay_suite(
    args: &Args,
    engine: &SharedEngine<IndexStore>,
    g: &DiGraph,
) -> Result<String, String> {
    let n = g.num_nodes() as u32;
    // Pinned fixture: small enough to run in CI, skewed enough that the
    // admission comparison is meaningful. Matches the sim-layer tests.
    let opts = SynthOpts {
        nodes: args.flag_parse("nodes", n.min(400))?.min(n),
        records: args.flag_parse("records", 12_000usize)?,
        seed: args.flag_parse("seed", 41u64)?,
    };
    let capacity: usize = args.flag_parse("cache", 192usize)?;
    let spot: u64 = args.flag_parse("spot-check", 997u64)?;

    let mut lines = Vec::new();
    let mut human = String::from("replay suite (pinned admission comparison)\n");
    let mut scan_rates: Vec<(Admission, f64)> = Vec::new();
    for &(scenario, policy) in REPLAY_SUITE {
        let trace = synth_trace(scenario, opts)?;
        let cache = ShardedResultCache::with_admission(capacity, 1, policy);
        let run = replay_records(engine, g, &trace.records, Some(&cache), 0.0, spot)?;
        if scenario == "adversarial_cold_scan" {
            scan_rates.push((policy, run.hit_rate()));
        }
        let _ = writeln!(
            human,
            "  {scenario:<22} {:<8} hit rate {:>6.2}%  ({} hits, {} misses, {} rejects, \
             {} spot-checks ok)",
            policy.as_str(),
            run.hit_rate() * 100.0,
            run.hits,
            run.misses,
            run.rejects,
            run.spot_checks,
        );
        lines.push(format!(
            "{{\"scenario\": \"{scenario}\", \"policy\": \"{}\", \"replayed\": {}, \
             \"skipped\": {}, \"hits\": {}, \"misses\": {}, \"admission_rejects\": {}, \
             \"hit_rate\": {:.4}, \"spot_checks\": {}, \"elapsed_s\": {:.3}, \"qps\": {:.1}}}",
            policy.as_str(),
            run.replayed,
            run.skipped,
            run.hits,
            run.misses,
            run.rejects,
            run.hit_rate(),
            run.spot_checks,
            run.elapsed_s,
            run.replayed as f64 / run.elapsed_s.max(1e-9),
        ));
    }
    let rate_of = |policy: Admission| {
        scan_rates
            .iter()
            .find(|(p, _)| *p == policy)
            .map(|&(_, r)| r)
            .unwrap_or(0.0)
    };
    let (lru, tiny) = (rate_of(Admission::Lru), rate_of(Admission::TinyLfu));
    let _ = writeln!(
        human,
        "adversarial scan: tinylfu {:.2}% vs lru {:.2}% (advantage {:+.2} points)",
        tiny * 100.0,
        lru * 100.0,
        (tiny - lru) * 100.0,
    );

    let mut json = String::from("{\n  \"bench\": \"replay\",\n  \"schema_version\": 1,\n");
    let _ = writeln!(
        json,
        "  \"fixture\": {{\"graph_nodes\": {}, \"graph_edges\": {}, \"trace_nodes\": {}, \
         \"records_per_trace\": {}, \"seed\": {}, \"cache_capacity\": {capacity}}},",
        g.num_nodes(),
        g.num_edges(),
        opts.nodes,
        opts.records,
        opts.seed,
    );
    json.push_str("  \"results\": [\n");
    for (i, line) in lines.iter().enumerate() {
        json.push_str("    ");
        json.push_str(line);
        if i + 1 < lines.len() {
            json.push(',');
        }
        json.push('\n');
    }
    json.push_str("  ],\n");
    let _ = writeln!(
        json,
        "  \"scan_admission\": {{\"capacity\": {capacity}, \"hit_rate_lru\": {lru:.4}, \
         \"hit_rate_tinylfu\": {tiny:.4}, \"advantage\": {:.4}}}",
        tiny - lru,
    );
    json.push_str("}\n");
    if let Some(out_path) = args.flag("out") {
        std::fs::write(out_path, &json).map_err(|e| format!("{out_path}: {e}"))?;
        let _ = write!(human, "wrote {out_path}");
    } else {
        human.push_str(&json);
    }
    Ok(human)
}

/// `sling bench-serve` — start an in-process server and drive it with
/// concurrent, hot-key-skewed client traffic; reports throughput and the
/// cache hit rate, after spot-checking served scores against the local
/// engine bit-for-bit. `--connections N` additionally holds a
/// mostly-idle fleet of `N - threads - 1` silent sockets open across
/// the timed window, so the measurement includes the event-loop cost of
/// parked connections.
///
/// With `--out FILE` it instead runs the fixed connection-scaling sweep
/// (TCP workers=1, TCP workers=4, TCP workers=4 + 1000 idle
/// connections, Unix workers=4 + 1000 idle connections) and writes the
/// machine-readable `BENCH_serve.json`:
///
/// ```json
/// {
///   "bench": "serve",
///   "schema_version": 1,
///   "fixture": {"nodes": .., "edges": .., "threads": .., "requests_per_run": .., "hot": .., "hot_keys": .., "quick": ..},
///   "results": [
///     {"transport": "tcp", "workers": 4, "connections": 1000, "requests": ..,
///      "elapsed_s": .., "qps": .., "p50_us": .., "p99_us": .., "p999_us": ..,
///      "open_connections": .., "idle_connections": ..,
///      "evloop_wakeups": .., "evloop_turns": ..}
///   ],
///   "idle_scaling": {"qps_tcp_w1": .., "qps_tcp_w4_idle": .., "ratio": ..}
/// }
/// ```
///
/// Each result is one line with a fixed key order so CI can extract
/// fields with `sed` (see `ci/bench_serve_floor.json` for the gated
/// floors); latencies are client-side microseconds, and the connection
/// gauges are sampled from `STATS` while the idle fleet is still open.
pub fn cmd_bench_serve(args: &Args) -> Result<String, String> {
    let graph_path = args.positional(0, "graph")?;
    let index_path = args.positional(1, "index")?;
    let backend = parse_backend(args)?;
    let quick = args.switch("quick");
    let opts = ServeBenchOpts {
        threads: args.flag_parse("threads", 8usize)?,
        requests: args.flag_parse("requests", if quick { 1500usize } else { 4000usize })?,
        hot: args.flag_parse("hot", 0.9f64)?,
        hot_keys: args.flag_parse("hot-keys", 64usize)?,
        connections: args.flag_parse("connections", 0usize)?,
        out: args.flag("out").map(str::to_string),
        seed: args.flag_parse("seed", 0x5DEECE66Du64)?,
        quick,
        trace: args.switch("trace"),
        config: server_config(args)?,
    };
    if !(0.0..=1.0).contains(&opts.hot) {
        return Err(format!("--hot must lie in [0,1], got {}", opts.hot));
    }
    let g = load_graph(graph_path)?;
    let engine = Arc::new(open_engine(&g, index_path, backend)?);
    let graph = Arc::new(g);
    match &opts.out {
        None => bench_serve_run(
            engine,
            graph,
            ServeTransport::Tcp,
            opts.connections,
            opts.threads,
            opts.requests,
            opts.hot,
            opts.hot_keys,
            opts.seed,
            opts.trace,
            opts.config.clone(),
        )
        .map(|(human, _)| human),
        Some(path) => bench_serve_sweep(engine, graph, &opts, path),
    }
}

/// Parsed `bench-serve` options shared by the single-run and sweep paths.
struct ServeBenchOpts {
    threads: usize,
    requests: usize,
    hot: f64,
    hot_keys: usize,
    /// Total connections to hold open during the run (driver clients plus
    /// a mostly-idle fleet); `0` means just the driver clients.
    connections: usize,
    /// When set, run the fixed transport/worker/connection sweep and
    /// write the machine-readable `BENCH_serve.json` to this path.
    out: Option<String>,
    /// Seed of the hot-key set and per-thread request streams, so two
    /// runs (or two policies) replay the same workload.
    seed: u64,
    quick: bool,
    /// Append the server-side kernel-stage latency breakdown (read from
    /// the metrics registry's `sling_query_stage_*_ns` histograms).
    trace: bool,
    config: ServerConfig,
}

/// Where `bench-serve` binds its in-process server.
enum ServeTransport {
    Tcp,
    Unix(std::path::PathBuf),
}

/// An open-but-silent client socket, held for the duration of a run to
/// measure the cost of mostly-idle connections on the event loops.
#[allow(dead_code)] // sockets are held only for their Drop side effect
enum IdleSock {
    Tcp(std::net::TcpStream),
    Unix(std::os::unix::net::UnixStream),
}

/// One bench-serve measurement. Serialized as a single fixed-key-order
/// JSON line in `BENCH_serve.json` so CI can extract fields with `sed`.
struct ServeBenchRecord {
    transport: &'static str,
    workers: usize,
    /// Requested total connection count for the run (`0` = drivers only).
    connections: usize,
    /// Requests actually issued (threads x per-thread share).
    requests: usize,
    elapsed_s: f64,
    latency: sling_bench::LatencySummary,
    /// `open_connections` gauge sampled from `STATS` at the end of the
    /// timed window, while the idle fleet is still connected.
    open_connections: u64,
    idle_connections: u64,
    /// Event-loop wakeups / readiness turns summed across workers.
    evloop_wakeups: u64,
    evloop_turns: u64,
}

impl ServeBenchRecord {
    fn qps(&self) -> f64 {
        self.requests as f64 / self.elapsed_s.max(1e-9)
    }

    fn to_json_line(&self) -> String {
        format!(
            "{{\"transport\": \"{}\", \"workers\": {}, \"connections\": {}, \
             \"requests\": {}, \"elapsed_s\": {:.3}, \"qps\": {:.1}, \
             \"p50_us\": {:.1}, \"p99_us\": {:.1}, \"p999_us\": {:.1}, \
             \"open_connections\": {}, \"idle_connections\": {}, \
             \"evloop_wakeups\": {}, \"evloop_turns\": {}}}",
            self.transport,
            self.workers,
            self.connections,
            self.requests,
            self.elapsed_s,
            self.qps(),
            self.latency.p50_us,
            self.latency.p99_us,
            self.latency.p999_us,
            self.open_connections,
            self.idle_connections,
            self.evloop_wakeups,
            self.evloop_turns,
        )
    }
}

/// The integer `key` of a `STATS` reply or body, summed over workers
/// for the comma-separated per-worker keys; 0 when absent.
fn stats_value(stats: &str, key: &str) -> u64 {
    stats_field(stats, key).map_or(0, |v| {
        v.split(',').filter_map(|x| x.parse::<u64>().ok()).sum()
    })
}

/// The committed-baseline sweep behind `bench-serve --out`: worker
/// scaling over TCP, then the ≥1k mostly-idle-connection runs the epoll
/// rewrite exists for, on both transports.
fn bench_serve_sweep(
    engine: Arc<SharedEngine<IndexStore>>,
    graph: Arc<DiGraph>,
    opts: &ServeBenchOpts,
    out_path: &str,
) -> Result<String, String> {
    let fleet = if opts.connections > 0 {
        opts.connections
    } else {
        1000
    };
    let sock = std::env::temp_dir().join(format!("sling-bench-serve-{}.sock", std::process::id()));
    let plan: [(&str, usize, usize); 4] = [
        ("tcp", 1, 0),
        ("tcp", 4, 0),
        ("tcp", 4, fleet),
        ("unix", 4, fleet),
    ];
    let mut records: Vec<ServeBenchRecord> = Vec::with_capacity(plan.len());
    let mut human = String::from("bench-serve sweep:\n");
    for &(transport, workers, conns) in &plan {
        let mut config = opts.config.clone();
        config.workers = workers;
        let target = if transport == "tcp" {
            ServeTransport::Tcp
        } else {
            let _ = std::fs::remove_file(&sock);
            ServeTransport::Unix(sock.clone())
        };
        let (_, rec) = bench_serve_run(
            Arc::clone(&engine),
            Arc::clone(&graph),
            target,
            conns,
            opts.threads,
            opts.requests,
            opts.hot,
            opts.hot_keys,
            opts.seed,
            opts.trace,
            config,
        )?;
        let _ = writeln!(
            human,
            "  {} workers={} connections={} -> {:.0} qps, p50={:.1}us p99={:.1}us p999={:.1}us \
             (open={} idle={}, evloop wakeups={} turns={})",
            rec.transport,
            rec.workers,
            rec.connections,
            rec.qps(),
            rec.latency.p50_us,
            rec.latency.p99_us,
            rec.latency.p999_us,
            rec.open_connections,
            rec.idle_connections,
            rec.evloop_wakeups,
            rec.evloop_turns,
        );
        records.push(rec);
    }
    let _ = std::fs::remove_file(&sock);

    let qps_of = |t: &str, w: usize, c: usize| {
        records
            .iter()
            .find(|r| r.transport == t && r.workers == w && r.connections == c)
            .map(|r| r.qps())
            .unwrap_or(0.0)
    };
    let base_w1 = qps_of("tcp", 1, 0);
    let idle_w4 = qps_of("tcp", 4, fleet);
    let ratio = idle_w4 / base_w1.max(1e-9);

    let mut json = String::from("{\n  \"bench\": \"serve\",\n  \"schema_version\": 1,\n");
    let _ = writeln!(
        json,
        "  \"fixture\": {{\"nodes\": {}, \"edges\": {}, \"threads\": {}, \
         \"requests_per_run\": {}, \"hot\": {}, \"hot_keys\": {}, \"quick\": {}}},",
        graph.num_nodes(),
        graph.num_edges(),
        opts.threads,
        opts.requests,
        opts.hot,
        opts.hot_keys,
        opts.quick,
    );
    json.push_str("  \"results\": [\n");
    for (i, r) in records.iter().enumerate() {
        json.push_str("    ");
        json.push_str(&r.to_json_line());
        if i + 1 < records.len() {
            json.push(',');
        }
        json.push('\n');
    }
    json.push_str("  ],\n");
    let _ = writeln!(
        json,
        "  \"idle_scaling\": {{\"qps_tcp_w1\": {base_w1:.1}, \
         \"qps_tcp_w4_idle\": {idle_w4:.1}, \"ratio\": {ratio:.3}}}"
    );
    json.push_str("}\n");
    std::fs::write(out_path, &json).map_err(|e| format!("{out_path}: {e}"))?;

    let _ = writeln!(
        human,
        "idle scaling: tcp workers=4 with {fleet} mostly-idle connections runs at \
         {ratio:.2}x the workers=1 no-fleet baseline"
    );
    let _ = write!(human, "wrote {out_path}");
    Ok(human)
}

/// Open one silent client socket, retrying briefly: with a ≥1k fleet the
/// listener backlog can fill faster than the acceptor drains it.
fn open_idle_sock(
    transport: &ServeTransport,
    addr: Option<std::net::SocketAddr>,
) -> Result<IdleSock, String> {
    let mut attempt = 0usize;
    loop {
        let result = match transport {
            ServeTransport::Tcp => {
                std::net::TcpStream::connect(addr.expect("tcp server has an address"))
                    .map(IdleSock::Tcp)
            }
            ServeTransport::Unix(path) => {
                std::os::unix::net::UnixStream::connect(path).map(IdleSock::Unix)
            }
        };
        match result {
            Ok(sock) => return Ok(sock),
            Err(e) if attempt < 500 => {
                attempt += 1;
                std::thread::sleep(std::time::Duration::from_millis(1));
                let _ = e;
            }
            Err(e) => return Err(format!("idle connection failed: {e}")),
        }
    }
}

fn bench_serve_run(
    engine: Arc<SharedEngine<IndexStore>>,
    graph: Arc<DiGraph>,
    transport: ServeTransport,
    connections: usize,
    threads: usize,
    requests: usize,
    hot: f64,
    hot_keys: usize,
    seed: u64,
    trace: bool,
    config: ServerConfig,
) -> Result<(String, ServeBenchRecord), String> {
    let n = graph.num_nodes() as u32;
    if n < 2 {
        return Err("bench-serve needs a graph with at least 2 nodes".to_string());
    }
    let threads = threads.max(1);
    let listener = match &transport {
        ServeTransport::Tcp => Listener::bind_tcp("127.0.0.1:0"),
        ServeTransport::Unix(path) => Listener::bind_unix(path),
    }
    .map_err(|e| e.to_string())?;
    let handle = serve(Arc::clone(&engine), Arc::clone(&graph), listener, config)
        .map_err(|e| format!("failed to start server: {e}"))?;
    // The registry Arc outlives `handle.join()`, so `--trace` can read
    // the stage histograms after the server has fully shut down.
    let registry = handle.metrics_registry();
    let addr = handle.local_addr();
    let connect = |transport: &ServeTransport| -> Result<Client, String> {
        match transport {
            ServeTransport::Tcp => Client::connect_tcp(addr.expect("tcp server has an address")),
            ServeTransport::Unix(path) => Client::connect_unix(path),
        }
        .map_err(|e| e.to_string())
    };

    // Skewed hot key set shared by every client thread.
    let hot_pairs: Vec<(u32, u32)> = {
        let mut state = seed;
        (0..hot_keys.max(1))
            .map(|_| random_pair(&mut state, n))
            .collect()
    };
    let per_thread = requests.div_ceil(threads);

    // Everything that can fail runs in this closure so every error path
    // still tears the in-process server down (threads, acceptor, port)
    // instead of leaking it into the host process.
    let bench = || -> Result<(std::time::Duration, Vec<f64>, String), String> {
        // Spot-check served scores against the local engine before timing.
        let mut control = connect(&transport)?;
        let mut ws = QueryWorkspace::new();
        for &(u, v) in hot_pairs.iter().take(5) {
            let got = control.pair(u, v).map_err(|e| e.to_string())?;
            let (a, b) = (u.min(v), u.max(v));
            let want = engine
                .single_pair_with(&graph, &mut ws, NodeId(a), NodeId(b))
                .map_err(|e| e.to_string())?;
            if got.to_bits() != want.to_bits() {
                return Err(format!(
                    "served score for ({u},{v}) diverged from the local engine: {got} vs {want}"
                ));
            }
        }

        // Open the mostly-idle fleet before timing starts: these sockets
        // send nothing, but each occupies an epoll registration on a
        // worker for the whole measured window.
        let idle_goal = connections.saturating_sub(threads + 1);
        let mut idle_socks: Vec<IdleSock> = Vec::with_capacity(idle_goal);
        for _ in 0..idle_goal {
            idle_socks.push(open_idle_sock(&transport, addr)?);
        }

        let start = std::time::Instant::now();
        let results: Vec<Result<Vec<f64>, String>> = std::thread::scope(|s| {
            let handles: Vec<_> = (0..threads)
                .map(|t| {
                    let hot_pairs = &hot_pairs;
                    let connect = &connect;
                    let transport = &transport;
                    s.spawn(move || -> Result<Vec<f64>, String> {
                        let mut client = connect(transport)?;
                        let mut state = seed
                            .wrapping_add(t as u64 + 1)
                            .wrapping_mul(0xA24B_AED4_963E_E407)
                            | 1;
                        let mut lat_us = Vec::with_capacity(per_thread);
                        for i in 0..per_thread {
                            let t0 = std::time::Instant::now();
                            if i % 10 == 9 {
                                let u = (xorshift(&mut state) % n as u64) as u32;
                                client.top_k(u, 10).map_err(|e| e.to_string())?;
                            } else {
                                let (u, v) =
                                    if (xorshift(&mut state) as f64 / u64::MAX as f64) < hot {
                                        hot_pairs[xorshift(&mut state) as usize % hot_pairs.len()]
                                    } else {
                                        random_pair(&mut state, n)
                                    };
                                client.pair(u, v).map_err(|e| e.to_string())?;
                            }
                            lat_us.push(t0.elapsed().as_secs_f64() * 1e6);
                        }
                        Ok(lat_us)
                    })
                })
                .collect();
            handles
                .into_iter()
                .map(|h| h.join().expect("bench client panicked"))
                .collect()
        });
        let elapsed = start.elapsed();
        let mut lat_us = Vec::with_capacity(per_thread * threads);
        for r in results {
            lat_us.extend(r.map_err(|err| format!("bench client failed: {err}"))?);
        }
        let stats_line = control.stats_line().map_err(|e| e.to_string())?;
        control.shutdown().map_err(|e| e.to_string())?;
        Ok((elapsed, lat_us, stats_line))
    };
    let (elapsed, lat_us, stats_line) = match bench() {
        Ok(result) => result,
        Err(message) => {
            handle.shutdown();
            return Err(message);
        }
    };
    let final_stats = handle.join();
    let total = per_thread * threads;
    let lat = sling_bench::LatencySummary::from_latencies_us(lat_us);
    let record = ServeBenchRecord {
        transport: match &transport {
            ServeTransport::Tcp => "tcp",
            ServeTransport::Unix(_) => "unix",
        },
        workers: stats_value(&final_stats, "workers") as usize,
        connections,
        requests: total,
        elapsed_s: elapsed.as_secs_f64(),
        latency: lat,
        open_connections: stats_value(&stats_line, "open_connections"),
        idle_connections: stats_value(&stats_line, "idle_connections"),
        evloop_wakeups: stats_value(&final_stats, "evloop_wakeups"),
        evloop_turns: stats_value(&final_stats, "evloop_turns"),
    };
    let mut human = format!(
        "{} client threads x {} requests in {:.2?} -> {:.0} req/s \
         (hot fraction {:.2}, {} hot keys)\n\
         client latency ({} samples): p50={:.1}us p99={:.1}us p999={:.1}us\n",
        threads,
        per_thread,
        elapsed,
        record.qps(),
        hot,
        hot_pairs.len(),
        lat.count,
        lat.p50_us,
        lat.p99_us,
        lat.p999_us,
    );
    if connections > 0 {
        let _ = writeln!(
            human,
            "connection fleet: {} total requested, server saw open={} idle={} at stats time",
            connections, record.open_connections, record.idle_connections,
        );
    }
    let _ = write!(human, "server stats at shutdown: {final_stats}");
    if trace {
        let _ = write!(human, "\n{}", format_stage_breakdown(&registry));
    }
    Ok((human, record))
}

/// Render the server-side kernel-stage breakdown behind `bench-serve
/// --trace`: per-stage query counts and percentiles from the registry's
/// `sling_query_stage_*_ns` histograms. A stage's count is the number of
/// queries that exercised it — cache hits record no stages, so the gap
/// between `requests` and these counts is the cache doing its job.
fn format_stage_breakdown(registry: &MetricsRegistry) -> String {
    let mut out = String::from("kernel stage breakdown (server-side, traced queries only):\n");
    let _ = writeln!(
        out,
        "  {:<12} {:>10} {:>10} {:>10} {:>10}",
        "stage", "queries", "p50", "p99", "p999"
    );
    for stage in ["entry_fetch", "restore", "merge", "propagate"] {
        let Some(report) = registry.histogram_report(&format!("sling_query_stage_{stage}_ns"))
        else {
            continue;
        };
        let _ = writeln!(
            out,
            "  {:<12} {:>10} {:>10} {:>10} {:>10}",
            stage,
            report.count,
            sling_bench::fmt_secs(report.p50_us / 1e6),
            sling_bench::fmt_secs(report.p99_us / 1e6),
            sling_bench::fmt_secs(report.p999_us / 1e6),
        );
    }
    out
}

/// `sling transform`
pub fn cmd_transform(args: &Args) -> Result<String, String> {
    let path = args.positional(0, "graph")?;
    let pass = args.positional(1, "pass")?;
    let out_path: String = args.flag_required("out")?;
    let g = load_graph(path)?;
    let (result, kept): (sling_graph::DiGraph, Option<usize>) = match pass {
        "largest-wcc" => {
            let r = sling_graph::transform::largest_wcc(&g);
            let kept = r.graph.num_nodes();
            (r.graph, Some(kept))
        }
        "transpose" => (sling_graph::transform::transpose(&g), None),
        "k-core" => {
            let k: usize = args.flag_required("k")?;
            let r = sling_graph::transform::k_core(&g, k);
            let kept = r.graph.num_nodes();
            (r.graph, Some(kept))
        }
        "peel-dangling" => {
            let r = sling_graph::transform::peel_dangling_in(&g);
            let kept = r.graph.num_nodes();
            (r.graph, Some(kept))
        }
        other => {
            return Err(format!(
                "unknown pass {other:?} (largest-wcc|transpose|k-core|peel-dangling)"
            ))
        }
    };
    save_graph(&result, &out_path, args.switch("text"))?;
    let note = kept
        .map(|k| format!(" ({k} of {} nodes kept)", g.num_nodes()))
        .unwrap_or_default();
    Ok(format!(
        "wrote {} (n = {}, m = {}){note}",
        out_path,
        result.num_nodes(),
        result.num_edges()
    ))
}

/// `sling ppr`
pub fn cmd_ppr(args: &Args) -> Result<String, String> {
    let path = args.positional(0, "graph")?;
    let source = args.positional(1, "source")?;
    let alpha: f64 = args.flag_parse("alpha", 0.6f64.sqrt())?;
    let k: usize = args.flag_parse("top", 10usize)?;
    if !(alpha > 0.0 && alpha < 1.0) {
        return Err(format!("--alpha must lie in (0,1), got {alpha}"));
    }
    let g = load_graph(path)?;
    let u = parse_node(source, g.num_nodes())?;
    let scores = sling_core::ppr::ppr_from_source(&g, alpha, u, 1e-12);
    let mut ranked: Vec<(usize, f64)> = scores
        .iter()
        .copied()
        .enumerate()
        .filter(|&(v, s)| v != u.index() && s > 0.0)
        .collect();
    ranked.sort_by(|a, b| b.1.partial_cmp(&a.1).unwrap().then(a.0.cmp(&b.0)));
    ranked.truncate(k);
    let mut out = String::new();
    writeln!(out, "top {k} PPR (alpha = {alpha:.3}) from node {}", u.0).unwrap();
    for (v, s) in ranked {
        writeln!(out, "  {v:>8}  {s:.6}").unwrap();
    }
    Ok(out)
}

/// Human + machine readable summary of one index file's geometry.
fn format_index_info(path: &str, info: &sling_core::IndexFileInfo) -> String {
    let mut out = String::new();
    writeln!(
        out,
        "{path}: {} index, n = {}, m = {}, {} entries",
        info.version, info.num_nodes, info.num_edges, info.entries
    )
    .unwrap();
    writeln!(
        out,
        "  total_bytes={} payload_bytes={} raw_payload_bytes={} meta_bytes={}",
        info.total_bytes,
        info.payload_bytes,
        info.raw_payload_bytes,
        info.total_bytes - info.payload_bytes,
    )
    .unwrap();
    if info.num_blocks > 0 {
        writeln!(
            out,
            "  blocks={} block_entries={} values_exact={} directory_bytes={} global_dict_bytes={}",
            info.num_blocks,
            info.block_entries,
            info.values_exact,
            info.directory_bytes,
            info.global_dict_bytes
        )
        .unwrap();
    }
    writeln!(
        out,
        "  payload_ratio={:.4} ({:.1}% of the raw layout)",
        info.compression_ratio(),
        info.compression_ratio() * 100.0
    )
    .unwrap();
    out
}

/// Human name of a value-section codec tag (see
/// `sling_core::codec::value`).
fn value_codec_name(tag: u8) -> &'static str {
    match tag {
        0 => "raw_f64",
        1 => "dict_f64",
        2 => "fixed_u32",
        3 => "global_dict",
        _ => "unknown",
    }
}

/// Per-section byte attribution lines appended by `sling inspect` — the
/// report that makes a compression win attributable to a column or
/// codec. The `payload_bytes=` line above stays sed-parseable.
fn format_breakdown(bd: &sling_core::PayloadBreakdown) -> String {
    let mut out = String::new();
    writeln!(
        out,
        "  sections: steps_runs={} nodes={} values={} directory={} global_dict={}",
        bd.step_bytes, bd.node_bytes, bd.value_bytes, bd.directory_bytes, bd.global_dict_bytes
    )
    .unwrap();
    if !bd.value_codecs.is_empty() {
        let per_codec: Vec<String> = bd
            .value_codecs
            .iter()
            .map(|(tag, blocks, bytes)| format!("{}={bytes}B/{blocks}blk", value_codec_name(*tag)))
            .collect();
        writeln!(out, "  value_codecs: {}", per_codec.join(" ")).unwrap();
    }
    out
}

/// `sling inspect` — header version, per-section byte breakdown, and the
/// compression ratio of a persisted index (any format generation).
pub fn cmd_inspect(args: &Args) -> Result<String, String> {
    let path = args.positional(0, "index")?;
    let read = || -> Result<_, sling_core::SlingError> {
        let bytes = std::fs::read(path)?;
        Ok((
            sling_core::inspect_bytes(&bytes)?,
            sling_core::payload_breakdown(&bytes)?,
        ))
    };
    let (info, breakdown) = read().map_err(|e| format!("{path}: {e}"))?;
    let mut out = format_index_info(path, &info);
    out.push_str(&format_breakdown(&breakdown));
    Ok(out)
}

/// Parse a generation argument: `gen-0007`, `0007`, or `7`.
fn parse_gen(raw: &str) -> Result<GenId, String> {
    GenId::parse(raw)
        .or_else(|| raw.parse().ok().map(GenId))
        .ok_or_else(|| format!("cannot parse generation {raw:?} (expected gen-NNNN or NNNN)"))
}

/// `sling generations` — list and inspect the generations of an index
/// root, optionally garbage-collecting retired ones.
pub fn cmd_generations(args: &Args) -> Result<String, String> {
    let root = args.positional(0, "root")?;
    let store = GenerationStore::open(root).map_err(|e| format!("{root}: {e}"))?;
    let mut out = String::new();
    if let Some(keep) = args.flag("gc") {
        let keep: usize = keep
            .parse()
            .map_err(|_| format!("--gc: cannot parse {keep:?}"))?;
        let removed = store.gc(keep).map_err(|e| format!("{root}: {e}"))?;
        match removed.len() {
            0 => writeln!(
                out,
                "gc: nothing to retire (keeping {keep} rollback candidates)"
            )
            .unwrap(),
            n => writeln!(
                out,
                "gc: removed {n} retired generation(s): {}",
                removed
                    .iter()
                    .map(|g| g.dir_name())
                    .collect::<Vec<_>>()
                    .join(", ")
            )
            .unwrap(),
        }
    }
    let generations = store.list().map_err(|e| format!("{root}: {e}"))?;
    let current = store.current().map_err(|e| format!("{root}: {e}"))?;
    writeln!(
        out,
        "{root}: {} generation(s), current {}",
        generations.len(),
        current.map_or("none".to_string(), |g| g.dir_name())
    )
    .unwrap();
    for gen in generations {
        let marker = if Some(gen) == current { '*' } else { ' ' };
        let state = match current {
            Some(c) if gen == c => "current",
            Some(c) if gen < c => "retired",
            Some(_) => "pending",
            None => "pending",
        };
        match store.manifest(gen) {
            Ok(m) => {
                let graph = match &m.graph {
                    Some(g) => format!(", graph {} bytes", g.bytes),
                    None => String::new(),
                };
                writeln!(
                    out,
                    "{marker} {}  {}  n={} m={} eps={} c={} seed={}  index {} bytes{graph}  [{state}]",
                    gen.dir_name(),
                    m.format,
                    m.num_nodes,
                    m.num_edges,
                    m.epsilon,
                    m.c,
                    m.seed,
                    m.index.bytes,
                )
                .unwrap();
            }
            Err(e) => writeln!(out, "{marker} {}  INVALID: {e}", gen.dir_name()).unwrap(),
        }
    }
    Ok(out.trim_end().to_string())
}

/// `sling promote` — atomically promote a generation to `CURRENT`
/// (write-temp + fsync + rename; full payload verification first).
/// With `--index FILE` the file (and optionally `--graph FILE`) is first
/// *published* as a new generation, then promoted — the one-command path
/// from `sling build` output to a live server swap.
pub fn cmd_promote(args: &Args) -> Result<String, String> {
    let root = args.positional(0, "root")?;
    let store = GenerationStore::open(root).map_err(|e| format!("{root}: {e}"))?;
    if args.flag("gen").is_some() && args.flag("index").is_some() {
        return Err(
            "--gen and --index are mutually exclusive: --gen promotes an existing \
             generation, --index publishes a new one and promotes it"
                .to_string(),
        );
    }
    let (gen, published) = if let Some(index_path) = args.flag("index") {
        let index_bytes = std::fs::read(index_path).map_err(|e| format!("{index_path}: {e}"))?;
        let graph_bytes = match args.flag("graph") {
            Some(path) => Some(std::fs::read(path).map_err(|e| format!("{path}: {e}"))?),
            None => None,
        };
        let gen = store
            .publish_bytes(&index_bytes, graph_bytes.as_deref())
            .map_err(|e| format!("{index_path}: {e}"))?;
        (gen, true)
    } else if let Some(raw) = args.flag("gen") {
        (parse_gen(raw)?, false)
    } else {
        let latest = store
            .list()
            .map_err(|e| format!("{root}: {e}"))?
            .last()
            .copied()
            .ok_or_else(|| format!("{root}: no generations to promote (use --index FILE)"))?;
        (latest, false)
    };
    store
        .promote(gen)
        .map_err(|e| format!("{}: {e}", gen.dir_name()))?;
    Ok(format!(
        "{}{} is now CURRENT in {root} (verified, atomically promoted)",
        if published { "published " } else { "" },
        gen.dir_name()
    ))
}

/// `sling compact` — convert an index file of any format (v2 included)
/// to the block-compressed `SLNGIDX3`, reporting before/after byte
/// sizes. Lossless by default (bit-identical answers from every
/// backend); `--quantize` stores 4-byte fixed-point values (≤ 2⁻³³
/// error, flagged in the header). No graph is needed: the header
/// fingerprint travels with the payload.
pub fn cmd_compact(args: &Args) -> Result<String, String> {
    let in_path = args.positional(0, "index")?;
    let out_path: String = args.flag_required("out")?;
    let block_entries: usize =
        args.flag_parse("block-entries", sling_core::codec::DEFAULT_BLOCK_ENTRIES)?;
    if block_entries == 0 {
        return Err("--block-entries must be at least 1".to_string());
    }
    let opts = sling_core::CompressOptions {
        block_entries,
        quantize_values: args.switch("quantize"),
    };
    let bytes = std::fs::read(in_path).map_err(|e| format!("{in_path}: {e}"))?;
    let before = sling_core::inspect_bytes(&bytes).map_err(|e| format!("{in_path}: {e}"))?;
    let index = SlingIndex::decode(&bytes).map_err(|e| format!("{in_path}: {e}"))?;
    let out_bytes = index.to_bytes_v3(&opts);
    std::fs::write(&out_path, &out_bytes).map_err(|e| format!("{out_path}: {e}"))?;
    let after = sling_core::inspect_bytes(&out_bytes).map_err(|e| e.to_string())?;
    let mut out = String::new();
    out.push_str(&format_index_info(in_path, &before));
    out.push_str(&format_index_info(&out_path, &after));
    writeln!(
        out,
        "compacted: payload {} -> {} bytes ({:.1}% of input), file {} -> {} bytes{}",
        before.payload_bytes,
        after.payload_bytes,
        100.0 * after.payload_bytes as f64 / before.payload_bytes.max(1) as f64,
        before.total_bytes,
        after.total_bytes,
        if opts.quantize_values {
            " [quantized values]"
        } else {
            " [lossless]"
        },
    )
    .unwrap();
    Ok(out)
}

/// One measured `(backend, workload)` cell of `sling bench-query`.
struct BenchRecord {
    backend: &'static str,
    workload: &'static str,
    queries: usize,
    elapsed_s: f64,
    latency: sling_bench::LatencySummary,
}

impl BenchRecord {
    fn qps(&self) -> f64 {
        self.queries as f64 / self.elapsed_s.max(1e-12)
    }

    /// One JSON object on one line, keys in a fixed order so CI can
    /// extract fields with `sed`.
    fn to_json_line(&self) -> String {
        format!(
            "{{\"backend\": \"{}\", \"workload\": \"{}\", \"queries\": {}, \
             \"elapsed_s\": {:.6}, \"qps\": {:.1}, \"p50_us\": {:.2}, \
             \"p99_us\": {:.2}}}",
            self.backend,
            self.workload,
            self.queries,
            self.elapsed_s,
            self.qps(),
            self.latency.p50_us,
            self.latency.p99_us,
        )
    }
}

/// Workload inputs shared by every backend of one `bench-query` run.
struct BenchWorkloads {
    /// Uniform random pairs.
    mixed_pairs: Vec<(NodeId, NodeId)>,
    /// `(hub, random)` pairs — the skewed shape that triggers the
    /// galloping merge on power-law graphs.
    hub_pairs: Vec<(NodeId, NodeId)>,
    /// Single-source / top-k source nodes.
    sources: Vec<NodeId>,
    /// Repetitions of the whole-batch workload.
    batch_rounds: usize,
    threads: usize,
    /// Enable per-stage query tracing on the bench workspaces (the
    /// `--trace` flag). Off by default so the headline numbers measure
    /// the untraced kernel.
    trace: bool,
}

/// One `--trace` row: kernel-stage time accumulated across a whole
/// workload run on one backend.
struct TraceRow {
    backend: &'static str,
    workload: &'static str,
    stages: StageNanos,
}

/// Time `queries` invocations of `f`, returning the total plus
/// per-query latencies in µs.
fn time_each(queries: usize, mut f: impl FnMut(usize)) -> (f64, Vec<f64>) {
    let mut lat = Vec::with_capacity(queries);
    let start = std::time::Instant::now();
    for i in 0..queries {
        let q0 = std::time::Instant::now();
        f(i);
        lat.push(q0.elapsed().as_secs_f64() * 1e6);
    }
    (start.elapsed().as_secs_f64(), lat)
}

fn record(
    backend: &'static str,
    workload: &'static str,
    queries: usize,
    elapsed_s: f64,
    lat_us: Vec<f64>,
) -> BenchRecord {
    BenchRecord {
        backend,
        workload,
        queries,
        elapsed_s,
        latency: sling_bench::LatencySummary::from_latencies_us(lat_us),
    }
}

/// Run the pinned workloads against one backend and append the records.
/// `spot` holds the mem backend's answers for the first hub pairs; every
/// other backend must reproduce them bit-for-bit before being timed —
/// a perf number for a kernel that silently diverged is worse than no
/// number.
fn bench_one_backend(
    backend: &'static str,
    engine: &SharedEngine<IndexStore>,
    g: &DiGraph,
    w: &BenchWorkloads,
    spot: &mut Vec<f64>,
    results: &mut Vec<BenchRecord>,
    traces: &mut Vec<TraceRow>,
) -> Result<(), String> {
    let err = |e: sling_core::SlingError| format!("{backend}: {e}");
    let mut ws = QueryWorkspace::new();
    ws.set_trace_enabled(w.trace);
    // Drain the workspace trace between workloads so each pushed row
    // covers exactly one timed loop (the spot-check above the first
    // loop, and the untraced materialized loop, are discarded).
    let trace_row = |traces: &mut Vec<TraceRow>, workload, stages: StageNanos| {
        if w.trace {
            traces.push(TraceRow {
                backend,
                workload,
                stages,
            });
        }
    };
    for (i, &(u, v)) in w.hub_pairs.iter().take(8).enumerate() {
        let s = engine.single_pair_with(g, &mut ws, u, v).map_err(err)?;
        if spot.len() <= i {
            spot.push(s);
        } else if s.to_bits() != spot[i].to_bits() {
            return Err(format!(
                "{backend}: hub pair ({},{}) diverged from mem: {s} vs {}",
                u.0, v.0, spot[i]
            ));
        }
    }

    let mut acc = 0.0f64;
    let _ = ws.take_trace();
    let (total, lat) = time_each(w.mixed_pairs.len(), |i| {
        let (u, v) = w.mixed_pairs[i];
        acc += engine
            .single_pair_with(g, &mut ws, u, v)
            .unwrap_or(f64::NAN);
    });
    trace_row(traces, "single_pair", ws.take_trace());
    results.push(record(
        backend,
        "single_pair",
        w.mixed_pairs.len(),
        total,
        lat,
    ));

    let (total, lat) = time_each(w.hub_pairs.len(), |i| {
        let (u, v) = w.hub_pairs[i];
        acc += engine
            .single_pair_with(g, &mut ws, u, v)
            .unwrap_or(f64::NAN);
    });
    trace_row(traces, "single_pair_hub", ws.take_trace());
    results.push(record(
        backend,
        "single_pair_hub",
        w.hub_pairs.len(),
        total,
        lat,
    ));

    // The linear-merge oracle on the same hub workload: both rows read
    // the same lists into the workspace, so the per-backend gap between
    // this row and `single_pair_hub` is the galloping merge alone.
    let (total, lat) = time_each(w.hub_pairs.len(), |i| {
        let (u, v) = w.hub_pairs[i];
        acc += engine
            .single_pair_materialized_with(g, &mut ws, u, v)
            .unwrap_or(f64::NAN);
    });
    let _ = ws.take_trace();
    results.push(record(
        backend,
        "single_pair_materialized",
        w.hub_pairs.len(),
        total,
        lat,
    ));

    let mut out = Vec::new();
    let (total, lat) = time_each(w.sources.len(), |i| {
        engine
            .single_source_with(g, &mut ws, w.sources[i], &mut out)
            .unwrap_or_default();
        acc += out.first().copied().unwrap_or(0.0);
    });
    trace_row(traces, "single_source", ws.take_trace());
    results.push(record(
        backend,
        "single_source",
        w.sources.len(),
        total,
        lat,
    ));

    // The path `TOPK` serves: Algorithm 6 plus the selection over the
    // nodes it reached.
    let mut scores = Vec::new();
    let (total, lat) = time_each(w.sources.len(), |i| {
        let top = engine
            .top_k_with(g, &mut ws, &mut scores, w.sources[i], 10)
            .unwrap_or_default();
        acc += top.first().map(|&(_, s)| s).unwrap_or(0.0);
    });
    trace_row(traces, "top_k", ws.take_trace());
    results.push(record(backend, "top_k", w.sources.len(), total, lat));

    let (total, lat) = time_each(w.batch_rounds, |_| {
        let scores = engine
            .batch_single_pair(g, &w.mixed_pairs, w.threads)
            .unwrap_or_default();
        acc += scores.first().copied().unwrap_or(0.0);
    });
    // Amortize each whole-batch sample down to per-pair latency so the
    // p50/p99 columns mean the same thing in every row of the report
    // (queries already counts pairs, making qps per-pair too).
    let per_pair = w.mixed_pairs.len().max(1) as f64;
    let lat = lat.into_iter().map(|us| us / per_pair).collect();
    results.push(record(
        backend,
        "batch_single_pair",
        w.batch_rounds * w.mixed_pairs.len(),
        total,
        lat,
    ));
    std::hint::black_box(acc);
    Ok(())
}

/// `sling bench-query` — pinned single-pair / single-source / top-k /
/// batch workloads on the in-memory and mapped backends (mapped over a
/// v1, a lossless v3 and a quantized v3 file), emitting the
/// machine-readable `BENCH_query.json` perf baseline (throughput plus
/// p50/p99 latency per backend × workload) that CI and later perf PRs
/// are judged against. `--quick` shrinks the workloads for smoke runs.
pub fn cmd_bench_query(args: &Args) -> Result<String, String> {
    let graph_path = args.positional(0, "graph")?;
    let index_path = args.positional(1, "index")?;
    let quick = args.switch("quick");
    let trace = args.switch("trace");
    let out_path: String = args.flag("out").unwrap_or("BENCH_query.json").to_string();
    let pairs_n: usize = args.flag_parse("pairs", if quick { 1000 } else { 4000 })?;
    let sources_n: usize = args.flag_parse("sources", if quick { 30 } else { 120 })?;
    let seed: u64 = args.flag_parse("seed", 1u64)?;
    let threads: usize = args.flag_parse(
        "threads",
        std::thread::available_parallelism().map_or(1, |n| n.get()),
    )?;
    let g = load_graph(graph_path)?;
    let n = g.num_nodes() as u32;
    if n < 2 {
        return Err("bench-query needs a graph with at least 2 nodes".to_string());
    }
    let index = load_index(&g, index_path)?;

    // Workloads, pinned by seed. The hub workload pairs the
    // highest-in-degree node (longest entry list) with uniform partners.
    let hub = g
        .nodes()
        .max_by_key(|&v| g.in_degree(v))
        .expect("non-empty graph");
    let mut state = seed | 1;
    let mixed_pairs: Vec<(NodeId, NodeId)> = (0..pairs_n)
        .map(|_| {
            let (u, v) = random_pair(&mut state, n);
            (NodeId(u), NodeId(v))
        })
        .collect();
    let hub_pairs: Vec<(NodeId, NodeId)> = (0..pairs_n)
        .map(|_| {
            let v = (xorshift(&mut state) % n as u64) as u32;
            (hub, NodeId(if v == hub.0 { (v + 1) % n } else { v }))
        })
        .collect();
    let sources: Vec<NodeId> = (0..sources_n)
        .map(|_| NodeId((xorshift(&mut state) % n as u64) as u32))
        .collect();
    let workloads = BenchWorkloads {
        mixed_pairs,
        hub_pairs,
        sources,
        batch_rounds: if quick { 2 } else { 4 },
        threads: threads.max(1),
        trace,
    };

    // Persist the v1 and v3 files the four backends serve, under a temp
    // dir that is removed on *every* exit path (a failing backend must
    // not leak index-sized files per invocation).
    let dir = std::env::temp_dir().join(format!("sling_bench_query_{}", std::process::id()));
    std::fs::create_dir_all(&dir).map_err(|e| e.to_string())?;
    let backends: [&'static str; 4] = [
        "mem",
        "mmap",
        "mmap-compressed",
        "mmap-compressed-quantized",
    ];
    let run_all = || -> Result<(Vec<BenchRecord>, Vec<TraceRow>), String> {
        let v1 = dir.join("bench.slng");
        let v3 = dir.join("bench.slng3");
        let v3q = dir.join("bench.q.slng3");
        index.save(&v1).map_err(|e| e.to_string())?;
        // The compressed rows serve the current best compressed format
        // (SLNGIDX3); v2 files go through the identical blocked readers.
        index
            .save_v3(&v3, &sling_core::CompressOptions::default())
            .map_err(|e| e.to_string())?;
        index
            .save_v3(
                &v3q,
                &sling_core::CompressOptions {
                    quantize_values: true,
                    ..Default::default()
                },
            )
            .map_err(|e| e.to_string())?;
        let mut results: Vec<BenchRecord> = Vec::new();
        let mut traces: Vec<TraceRow> = Vec::new();
        let mut spot: Vec<f64> = Vec::new();
        // Quantized values differ from the lossless spot answers by
        // design; that row checks internal consistency only.
        let mut q_spot: Vec<f64> = Vec::new();
        let files = [
            (&v1, Residency::Mem),
            (&v1, Residency::Mapped),
            (&v3, Residency::Mapped),
            (&v3q, Residency::Mapped),
        ];
        for (backend, (path, residency)) in backends.into_iter().zip(files) {
            let engine = SharedEngine::open(&g, path, residency).map_err(|e| e.to_string())?;
            bench_one_backend(
                backend,
                &engine,
                &g,
                &workloads,
                if path == &v3q { &mut q_spot } else { &mut spot },
                &mut results,
                &mut traces,
            )?;
        }
        Ok((results, traces))
    };
    let results = run_all();
    std::fs::remove_dir_all(&dir).ok();
    let (results, trace_rows) = results?;

    // Served-vs-linear-merge-oracle speedup per backend (hub workload),
    // reported under its historical key `streaming_speedup_hub`.
    let qps_of = |backend: &str, workload: &str| {
        results
            .iter()
            .find(|r| r.backend == backend && r.workload == workload)
            .map(|r| r.qps())
            .unwrap_or(0.0)
    };
    let speedups: Vec<(&str, f64)> = backends
        .iter()
        .map(|&b| {
            let mat = qps_of(b, "single_pair_materialized");
            (b, qps_of(b, "single_pair_hub") / mat.max(1e-12))
        })
        .collect();

    // Machine-readable report: one result object per line.
    let mut json = String::new();
    json.push_str("{\n");
    let _ = writeln!(json, "  \"bench\": \"query\",");
    let _ = writeln!(json, "  \"schema_version\": 1,");
    let _ = writeln!(
        json,
        "  \"fixture\": {{\"nodes\": {}, \"edges\": {}, \"eps\": {}, \"c\": {}, \
         \"seed\": {seed}, \"quick\": {quick}, \"pairs\": {}, \"sources\": {}, \
         \"threads\": {}}},",
        g.num_nodes(),
        g.num_edges(),
        index.config().epsilon,
        index.config().c,
        workloads.mixed_pairs.len(),
        workloads.sources.len(),
        workloads.threads,
    );
    json.push_str("  \"results\": [\n");
    for (i, r) in results.iter().enumerate() {
        let _ = writeln!(
            json,
            "    {}{}",
            r.to_json_line(),
            if i + 1 < results.len() { "," } else { "" }
        );
    }
    json.push_str("  ],\n");
    json.push_str("  \"streaming_speedup_hub\": {");
    for (i, (b, s)) in speedups.iter().enumerate() {
        let _ = write!(json, "{}\"{b}\": {s:.3}", if i > 0 { ", " } else { "" });
    }
    json.push_str("}\n}\n");
    std::fs::write(&out_path, &json).map_err(|e| format!("{out_path}: {e}"))?;

    // Human summary.
    let mut out = String::new();
    let _ = writeln!(
        out,
        "bench-query: n = {}, m = {}, {} mixed + {} hub pairs, {} sources{}",
        g.num_nodes(),
        g.num_edges(),
        workloads.mixed_pairs.len(),
        workloads.hub_pairs.len(),
        workloads.sources.len(),
        if quick { " [quick]" } else { "" },
    );
    let _ = writeln!(
        out,
        "{:<26} {:<26} {:>12} {:>10} {:>10}",
        "backend", "workload", "qps", "p50", "p99"
    );
    for r in &results {
        let _ = writeln!(
            out,
            "{:<26} {:<26} {:>12.0} {:>10} {:>10}",
            r.backend,
            r.workload,
            r.qps(),
            sling_bench::fmt_secs(r.latency.p50_us / 1e6),
            sling_bench::fmt_secs(r.latency.p99_us / 1e6),
        );
    }
    for (b, s) in &speedups {
        let _ = writeln!(out, "streaming speedup ({b}, hub pairs): {s:.2}x");
    }
    if !trace_rows.is_empty() {
        let _ = writeln!(
            out,
            "kernel stage-time breakdown (--trace; total ms per workload):"
        );
        let _ = writeln!(
            out,
            "{:<26} {:<16} {:>11} {:>9} {:>9} {:>10}",
            "backend", "workload", "entry_fetch", "restore", "merge", "propagate"
        );
        let ms = |ns: u64| ns as f64 / 1e6;
        for row in &trace_rows {
            let _ = writeln!(
                out,
                "{:<26} {:<16} {:>11.2} {:>9.2} {:>9.2} {:>10.2}",
                row.backend,
                row.workload,
                ms(row.stages.entry_fetch),
                ms(row.stages.restore),
                ms(row.stages.merge),
                ms(row.stages.propagate),
            );
        }
    }
    let _ = writeln!(out, "wrote {out_path}");
    Ok(out)
}

/// `sling audit`
pub fn cmd_audit(args: &Args) -> Result<String, String> {
    let graph_path = args.positional(0, "graph")?;
    let index_path = args.positional(1, "index")?;
    let g = load_graph(graph_path)?;
    let index = load_index(&g, index_path)?;
    let audit = if args.switch("exact") {
        if g.num_nodes() > 5000 {
            return Err(format!(
                "--exact builds an n x n ground truth; n = {} is too large (use sampled mode)",
                g.num_nodes()
            ));
        }
        sling_core::verify::audit_exact(&index, &g)
    } else {
        let pairs: usize = args.flag_parse("pairs", 200usize)?;
        let mc: u32 = args.flag_parse("mc", 50_000u32)?;
        let seed: u64 = args.flag_parse("seed", 1u64)?;
        sling_core::verify::audit_sampled(&index, &g, pairs, mc, seed)
    };
    Ok(format!(
        "{audit}\n{}",
        if audit.passed() { "PASS" } else { "FAIL" }
    ))
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::path::PathBuf;

    fn tmpdir(tag: &str) -> PathBuf {
        let dir = std::env::temp_dir().join(format!("sling_cli_{tag}_{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        dir
    }

    /// Write `index` re-encoded as `SLNGIDX2`, which no command writes.
    fn save_v2_copy(index: &Path, out: &Path) {
        SlingIndex::decode(&std::fs::read(index).unwrap())
            .unwrap()
            .save_v2(out, &sling_core::CompressOptions::default())
            .unwrap();
    }

    #[test]
    fn help_and_parser_agree_on_every_declared_flag() {
        let help = run_str("help").unwrap();
        for cmd in COMMANDS {
            let spec = Spec::from_synopsis(cmd.synopsis);
            let block = help_block(cmd);
            assert!(help.contains(&block), "{} missing from help", cmd.name);
            assert!(block.starts_with(&format!("  {}", cmd.name)), "{block}");
            let words: Vec<&str> = block
                .split_whitespace()
                .map(|w| w.trim_matches(['[', ']']))
                .collect();
            for flag in spec.value_flags.iter().chain(&spec.switches) {
                let flag = format!("--{flag}");
                assert!(
                    words.contains(&flag.as_str()),
                    "{}: {flag} not in help",
                    cmd.name
                );
            }
            for flag in &spec.value_flags {
                assert!(
                    !spec.switches.contains(flag),
                    "{}: --{flag} is both",
                    cmd.name
                );
                let err = run(&[cmd.name.to_string(), format!("--{flag}")]).unwrap_err();
                assert!(
                    err.contains("expects a value"),
                    "{} --{flag}: {err}",
                    cmd.name
                );
            }
            for switch in &spec.switches {
                let parsed = Args::parse([format!("--{switch}")], spec.clone()).unwrap();
                assert!(parsed.switch(switch), "{} --{switch}", cmd.name);
            }
            let err = run(&[cmd.name.to_string(), "--bogus".to_string()]).unwrap_err();
            assert!(err.contains("unknown flag --bogus"), "{}: {err}", cmd.name);
        }
    }

    #[test]
    fn datasets_lists_suite() {
        let out = run_str("datasets").unwrap();
        assert!(out.contains("grqc-sim"));
        assert!(out.contains("GrQc"));
    }

    #[test]
    fn generate_stats_roundtrip_binary_and_text() {
        let dir = tmpdir("gen");
        for (flag, file) in [("", "g.bin"), ("--text", "g.txt")] {
            let path = dir.join(file);
            let cmd = format!(
                "generate --ba 200,3 --seed 5 --out {} {flag}",
                path.display()
            );
            let out = run_str(cmd.trim()).unwrap();
            assert!(out.contains("n = 200"), "{out}");
            let stats = run_str(&format!("stats {} --degrees", path.display())).unwrap();
            assert!(stats.contains("n=200"), "{stats}");
            assert!(stats.contains("In-degree"), "{stats}");
        }
    }

    #[test]
    fn generate_requires_a_source() {
        let err = run_str("generate --out /tmp/x.bin").unwrap_err();
        assert!(err.contains("--dataset"));
    }

    #[test]
    fn full_pipeline_build_query_join() {
        let dir = tmpdir("pipeline");
        let g = dir.join("g.bin");
        let idx = dir.join("idx.slng");
        run_str(&format!(
            "generate --ws 100,2,0.2 --seed 3 --out {}",
            g.display()
        ))
        .unwrap();
        let built = run_str(&format!(
            "build {} --out {} --eps 0.05 --seed 9",
            g.display(),
            idx.display()
        ))
        .unwrap();
        assert!(built.contains("built index"), "{built}");

        let pair = run_str(&format!("query {} {} pair 0 1", g.display(), idx.display())).unwrap();
        assert!(pair.starts_with("s(0, 1) ="), "{pair}");

        let source = run_str(&format!(
            "query {} {} source 0 --top 5",
            g.display(),
            idx.display()
        ))
        .unwrap();
        assert!(source.contains("top 5 similar to node 0"), "{source}");

        let join = run_str(&format!(
            "join {} {} --tau 0.05 --limit 3",
            g.display(),
            idx.display()
        ))
        .unwrap();
        assert!(join.contains("pairs with s >= 0.05"), "{join}");
    }

    #[test]
    fn query_backends_agree_and_report_themselves() {
        let dir = tmpdir("backends");
        let g = dir.join("g.bin");
        let idx = dir.join("idx.slng");
        run_str(&format!(
            "generate --ba 150,3 --seed 8 --out {}",
            g.display()
        ))
        .unwrap();
        run_str(&format!(
            "build {} --out {} --eps 0.1 --seed 2",
            g.display(),
            idx.display()
        ))
        .unwrap();
        let score_of = |out: &str| out.split("   [").next().unwrap().to_string();
        let mem = run_str(&format!(
            "query {} {} pair 3 77",
            g.display(),
            idx.display()
        ))
        .unwrap();
        let got = run_str(&format!(
            "query {} {} pair 3 77 --index-backend mmap",
            g.display(),
            idx.display()
        ))
        .unwrap();
        assert_eq!(score_of(&mem), score_of(&got), "mmap diverged");
        assert!(got.contains("Mapped backend"), "{got}");
        // Source mode and join run on every backend too.
        for backend in ["mem", "mmap"] {
            let src = run_str(&format!(
                "query {} {} source 0 --top 3 --index-backend {backend}",
                g.display(),
                idx.display()
            ))
            .unwrap();
            assert!(src.contains("top 3 similar to node 0"), "{src}");
            let join = run_str(&format!(
                "join {} {} --tau 0.2 --limit 2 --index-backend {backend}",
                g.display(),
                idx.display()
            ))
            .unwrap();
            assert!(join.contains("pairs with s >= 0.2"), "{join}");
        }
        // Unknown backends are rejected, the retired ones included.
        for backend in ["floppy", "disk", "mmap-compressed"] {
            let err = run_str(&format!(
                "query {} {} pair 0 1 --index-backend {backend}",
                g.display(),
                idx.display()
            ))
            .unwrap_err();
            assert!(err.contains("(mem|mmap)"), "{backend}: {err}");
        }
    }

    #[test]
    fn mmap_backend_answers_on_every_format() {
        let dir = tmpdir("mmap_formats");
        let g = dir.join("g.bin");
        let v1 = dir.join("idx.slng");
        run_str(&format!(
            "generate --ba 200,3 --seed 12 --out {}",
            g.display()
        ))
        .unwrap();
        run_str(&format!(
            "build {} --out {} --eps 0.1 --seed 6",
            g.display(),
            v1.display()
        ))
        .unwrap();
        let v2 = dir.join("idx.v2.slng");
        let v3 = dir.join("idx.v3.slng");
        let v3q = dir.join("idx.v3q.slng");
        save_v2_copy(&v1, &v2);
        for (out, flags) in [(&v3, ""), (&v3q, "--quantize")] {
            run_str(&format!(
                "compact {} --out {} {flags}",
                v1.display(),
                out.display()
            ))
            .unwrap();
        }
        let score_of = |out: &str| out.split("   [").next().unwrap().to_string();
        let value_of = |out: &str| -> f64 {
            let score = score_of(out);
            score.split('=').nth(1).unwrap().trim().parse().unwrap()
        };
        let mem = run_str(&format!("query {} {} pair 3 77", g.display(), v1.display())).unwrap();
        for (path, lossless) in [(&v1, true), (&v2, true), (&v3, true), (&v3q, false)] {
            let got = run_str(&format!(
                "query {} {} pair 3 77 --index-backend mmap",
                g.display(),
                path.display()
            ))
            .unwrap();
            if lossless {
                assert_eq!(score_of(&mem), score_of(&got), "{path:?}");
            } else {
                let (s, want) = (value_of(&got), value_of(&mem));
                assert!((s - want).abs() < 1e-6, "{path:?}: {s} vs {want}");
            }
            let top = run_str(&format!(
                "query {} {} source 3 --top 4 --index-backend mmap",
                g.display(),
                path.display()
            ))
            .unwrap();
            assert!(top.contains("top 4 similar to node 3"), "{top}");
        }
    }

    #[test]
    fn compact_inspect_and_compressed_backend_roundtrip() {
        let dir = tmpdir("compact");
        let g = dir.join("g.bin");
        let v1 = dir.join("idx.slng");
        let v2 = dir.join("idx.slng2");
        run_str(&format!(
            "generate --ba 300,3 --seed 11 --out {}",
            g.display()
        ))
        .unwrap();
        run_str(&format!(
            "build {} --out {} --eps 0.1 --seed 4",
            g.display(),
            v1.display()
        ))
        .unwrap();

        // Inspect the v1 file.
        let v1_info = run_str(&format!("inspect {}", v1.display())).unwrap();
        assert!(v1_info.contains("SLNGIDX1 index"), "{v1_info}");
        assert!(v1_info.contains("payload_ratio=1.0000"), "{v1_info}");

        // Lossless compact shrinks the payload; the default target is the
        // newest generation (SLNGIDX3, with the global value dictionary).
        let report = run_str(&format!("compact {} --out {}", v1.display(), v2.display())).unwrap();
        assert!(report.contains("[lossless]"), "{report}");
        assert!(report.contains("SLNGIDX3 index"), "{report}");
        let v2_info = run_str(&format!("inspect {}", v2.display())).unwrap();
        assert!(v2_info.contains("values_exact=true"), "{v2_info}");
        assert!(v2_info.contains("global_dict_bytes="), "{v2_info}");
        let ratio: f64 = v2_info
            .lines()
            .find_map(|l| l.trim().strip_prefix("payload_ratio="))
            .and_then(|l| l.split_whitespace().next())
            .unwrap()
            .parse()
            .unwrap();
        assert!(ratio < 0.8, "lossless compaction too weak: {ratio}");

        // Scores through the compressed file match the v1 file byte for
        // byte in the formatted output, mapped or decoded.
        let score_of = |out: &str| out.split("   [").next().unwrap().to_string();
        let mem = run_str(&format!("query {} {} pair 3 77", g.display(), v1.display())).unwrap();
        for backend in ["mem", "mmap"] {
            let got = run_str(&format!(
                "query {} {} pair 3 77 --index-backend {backend}",
                g.display(),
                v2.display()
            ))
            .unwrap();
            assert_eq!(score_of(&mem), score_of(&got), "{backend} on v3 diverged");
        }
        // Batch over the compressed engine.
        let out = run_str(&format!(
            "batch {} {} --random 100 --threads 2 --index-backend mmap",
            g.display(),
            v2.display()
        ))
        .unwrap();
        assert!(out.contains("scored 100 pairs"), "{out}");

        // Quantized compact shrinks further and is flagged.
        let vq = dir.join("idx.q.slng2");
        let report = run_str(&format!(
            "compact {} --out {} --quantize",
            v1.display(),
            vq.display()
        ))
        .unwrap();
        assert!(report.contains("[quantized values]"), "{report}");
        let q_info = run_str(&format!("inspect {}", vq.display())).unwrap();
        assert!(q_info.contains("values_exact=false"), "{q_info}");
        let q_ratio: f64 = q_info
            .lines()
            .find_map(|l| l.trim().strip_prefix("payload_ratio="))
            .and_then(|l| l.split_whitespace().next())
            .unwrap()
            .parse()
            .unwrap();
        assert!(
            q_ratio < ratio,
            "quantized {q_ratio} not below lossless {ratio}"
        );

        // The previous generation stays readable: a v2 file inspects,
        // serves the same bits, and compacts to v3.
        let v2_old = dir.join("idx.v2.slng2");
        save_v2_copy(&v1, &v2_old);
        let info = run_str(&format!("inspect {}", v2_old.display())).unwrap();
        assert!(info.contains("SLNGIDX2 index"), "{info}");
        let got = run_str(&format!(
            "query {} {} pair 3 77 --index-backend mmap",
            g.display(),
            v2_old.display()
        ))
        .unwrap();
        assert_eq!(score_of(&mem), score_of(&got), "v2 backend diverged");
        let v3_again = dir.join("idx.v3.slng3");
        let report = run_str(&format!(
            "compact {} --out {}",
            v2_old.display(),
            v3_again.display()
        ))
        .unwrap();
        assert!(report.contains("SLNGIDX2 index"), "{report}");
        assert!(report.contains("SLNGIDX3 index"), "{report}");

        // Bad invocations; compact writes v3 only.
        assert!(run_str(&format!("compact {}", v1.display()))
            .unwrap_err()
            .contains("--out"));
        assert!(run_str(&format!(
            "compact {} --out {} --format v2",
            v1.display(),
            v2_old.display()
        ))
        .unwrap_err()
        .contains("unknown flag --format"));
        assert!(run_str("inspect /nonexistent.slng").is_err());
    }

    #[test]
    fn query_rejects_bad_nodes_and_modes() {
        let dir = tmpdir("badquery");
        let g = dir.join("g.bin");
        let idx = dir.join("idx.slng");
        run_str(&format!("generate --er 20,60 --out {}", g.display())).unwrap();
        run_str(&format!(
            "build {} --out {} --eps 0.1",
            g.display(),
            idx.display()
        ))
        .unwrap();
        assert!(run_str(&format!(
            "query {} {} pair 0 99",
            g.display(),
            idx.display()
        ))
        .unwrap_err()
        .contains("out of range"));
        assert!(
            run_str(&format!("query {} {} walk 0", g.display(), idx.display()))
                .unwrap_err()
                .contains("unknown query mode")
        );
    }

    #[test]
    fn transform_pipeline() {
        let dir = tmpdir("transform");
        let g = dir.join("g.bin");
        run_str(&format!("generate --ba 100,2 --out {}", g.display())).unwrap();
        let wcc = dir.join("wcc.bin");
        let out = run_str(&format!(
            "transform {} largest-wcc --out {}",
            g.display(),
            wcc.display()
        ))
        .unwrap();
        assert!(out.contains("nodes kept"), "{out}");
        let t = dir.join("t.bin");
        run_str(&format!(
            "transform {} transpose --out {}",
            g.display(),
            t.display()
        ))
        .unwrap();
        let core = dir.join("core.bin");
        let out = run_str(&format!(
            "transform {} k-core --k 3 --out {}",
            g.display(),
            core.display()
        ))
        .unwrap();
        assert!(out.contains("wrote"), "{out}");
        assert!(run_str(&format!(
            "transform {} bogus --out {}",
            g.display(),
            t.display()
        ))
        .unwrap_err()
        .contains("unknown pass"));
        assert!(run_str(&format!(
            "transform {} k-core --out {}",
            g.display(),
            t.display()
        ))
        .unwrap_err()
        .contains("--k"));
    }

    #[test]
    fn ppr_command_ranks() {
        let dir = tmpdir("ppr");
        let g = dir.join("g.bin");
        run_str(&format!(
            "generate --er 50,200 --seed 2 --out {}",
            g.display()
        ))
        .unwrap();
        let out = run_str(&format!("ppr {} 0 --top 3", g.display())).unwrap();
        assert!(out.contains("top 3 PPR"), "{out}");
        assert!(run_str(&format!("ppr {} 0 --alpha 1.5", g.display()))
            .unwrap_err()
            .contains("alpha"));
        assert!(run_str(&format!("ppr {} 999", g.display()))
            .unwrap_err()
            .contains("out of range"));
    }

    #[test]
    fn audit_command_passes_on_fresh_index() {
        let dir = tmpdir("audit");
        let g = dir.join("g.bin");
        let idx = dir.join("idx.slng");
        run_str(&format!(
            "generate --er 40,160 --seed 4 --out {}",
            g.display()
        ))
        .unwrap();
        run_str(&format!(
            "build {} --out {} --eps 0.1",
            g.display(),
            idx.display()
        ))
        .unwrap();
        let out = run_str(&format!(
            "audit {} {} --pairs 20 --mc 20000",
            g.display(),
            idx.display()
        ))
        .unwrap();
        assert!(out.contains("PASS"), "{out}");
        let exact = run_str(&format!("audit {} {} --exact", g.display(), idx.display())).unwrap();
        assert!(exact.contains("PASS"), "{exact}");
    }

    #[test]
    fn batch_command_scores_pairs_on_every_backend() {
        let dir = tmpdir("batch");
        let g = dir.join("g.bin");
        let idx = dir.join("idx.slng");
        run_str(&format!(
            "generate --ba 120,3 --seed 6 --out {}",
            g.display()
        ))
        .unwrap();
        run_str(&format!(
            "build {} --out {} --eps 0.1 --seed 3",
            g.display(),
            idx.display()
        ))
        .unwrap();
        for backend in ["mem", "mmap"] {
            let out = run_str(&format!(
                "batch {} {} --random 200 --threads 4 --index-backend {backend}",
                g.display(),
                idx.display()
            ))
            .unwrap();
            assert!(out.contains("scored 200 pairs"), "{backend}: {out}");
            assert!(out.contains("hit rate"), "{backend}: {out}");
        }
        // Cacheless path and a pairs file.
        let pairs_file = dir.join("pairs.txt");
        std::fs::write(&pairs_file, "# comment\n0 1\n5 80\n80 5\n").unwrap();
        let out = run_str(&format!(
            "batch {} {} --pairs {} --cache 0",
            g.display(),
            idx.display(),
            pairs_file.display()
        ))
        .unwrap();
        assert!(out.contains("scored 3 pairs"), "{out}");
        assert!(out.contains("cache: off"), "{out}");
        assert!(run_str(&format!("batch {} {}", g.display(), idx.display()))
            .unwrap_err()
            .contains("--random"));
    }

    #[test]
    fn serve_client_roundtrip_over_unix_socket() {
        let dir = tmpdir("serve");
        let g = dir.join("g.bin");
        let idx = dir.join("idx.slng");
        run_str(&format!(
            "generate --ba 100,3 --seed 4 --out {}",
            g.display()
        ))
        .unwrap();
        run_str(&format!(
            "build {} --out {} --eps 0.1 --seed 2",
            g.display(),
            idx.display()
        ))
        .unwrap();
        let sock = dir.join("sling.sock");
        let snapshot = dir.join("metrics.json");
        let serve_cmd = format!(
            "serve {} {} --unix {} --workers 2 --cache 256 --index-backend mmap \
             --slow-query-us 1 --metrics-snapshot {} --metrics-snapshot-ms 20",
            g.display(),
            idx.display(),
            sock.display(),
            snapshot.display()
        );
        let server = std::thread::spawn(move || run_str(&serve_cmd));
        // Wait for the socket to come up.
        let deadline = std::time::Instant::now() + std::time::Duration::from_secs(10);
        while !sock.exists() && std::time::Instant::now() < deadline {
            std::thread::sleep(std::time::Duration::from_millis(10));
        }
        let client = |mode: &str| run_str(&format!("client {mode} --unix {}", sock.display()));
        assert_eq!(client("ping").unwrap(), "pong");
        let pair = client("pair 0 1").unwrap();
        assert!(pair.starts_with("s(0, 1) ="), "{pair}");
        // Same canonical pair from the other order: identical output.
        assert_eq!(
            client("pair 1 0").unwrap().split('=').nth(1),
            pair.split('=').nth(1)
        );
        let topk = client("topk 0 3").unwrap();
        assert!(topk.contains("top 3 similar to node 0"), "{topk}");
        let stats = client("stats").unwrap();
        assert!(stats.contains("cache_hit_rate="), "{stats}");
        // Observability surface: the Prometheus exposition through both
        // the client mode and the dedicated `metrics` command, the
        // slow-query ring (threshold 1 µs admits everything), and the
        // periodic JSON snapshot file.
        let prom = client("metrics").unwrap();
        assert!(
            prom.contains("# TYPE sling_server_requests_total counter"),
            "{prom}"
        );
        assert!(prom.contains("sling_query_stage_merge_ns_count"), "{prom}");
        // A second scrape through the dedicated command (counters move
        // between scrapes, so compare families, not bytes).
        let prom2 = run_str(&format!("metrics --unix {}", sock.display())).unwrap();
        assert!(prom2.contains("sling_cache_hits_total"), "{prom2}");
        assert!(prom2.contains("sling_index_epoch"), "{prom2}");
        let slow = run_str(&format!("metrics --slow --unix {}", sock.display())).unwrap();
        assert!(slow.lines().all(|l| l.starts_with("slow verb=")), "{slow}");
        assert!(slow.contains("total_us="), "{slow}");
        assert_eq!(client("slowlog").unwrap(), slow);
        let deadline = std::time::Instant::now() + std::time::Duration::from_secs(10);
        while !snapshot.exists() && std::time::Instant::now() < deadline {
            std::thread::sleep(std::time::Duration::from_millis(10));
        }
        let snap = std::fs::read_to_string(&snapshot).unwrap();
        assert!(snap.contains("\"sling_server_requests_total\""), "{snap}");
        assert_eq!(client("shutdown").unwrap(), "server shutting down");
        let report = server.join().unwrap().unwrap();
        assert!(report.contains("server shut down"), "{report}");
        assert!(report.contains("cache_hit_rate="), "{report}");
        assert!(client("ping").is_err(), "socket should be gone");
    }

    #[test]
    fn bench_serve_reports_throughput_and_hit_rate() {
        let dir = tmpdir("benchserve");
        let g = dir.join("g.bin");
        let idx = dir.join("idx.slng");
        run_str(&format!(
            "generate --ba 100,3 --seed 5 --out {}",
            g.display()
        ))
        .unwrap();
        run_str(&format!(
            "build {} --out {} --eps 0.1 --seed 9",
            g.display(),
            idx.display()
        ))
        .unwrap();
        let out = run_str(&format!(
            "bench-serve {} {} --threads 8 --requests 160 --workers 2 \
             --hot 0.9 --hot-keys 8 --index-backend mmap --trace",
            g.display(),
            idx.display()
        ))
        .unwrap();
        assert!(out.contains("req/s"), "{out}");
        // --trace appends the server-side stage breakdown read back from
        // the metrics registry after shutdown.
        assert!(out.contains("kernel stage breakdown"), "{out}");
        assert!(out.contains("propagate"), "{out}");
        assert!(out.contains("cache_hit_rate="), "{out}");
        assert!(out.contains("per_worker="), "{out}");
        // Client-side exact percentiles and the server's histogram-based
        // ones both surface.
        assert!(out.contains("client latency"), "{out}");
        assert!(out.contains("p999="), "{out}");
        assert!(out.contains("latency_p99_us="), "{out}");
        assert!(run_str(&format!(
            "bench-serve {} {} --hot 1.5",
            g.display(),
            idx.display()
        ))
        .unwrap_err()
        .contains("--hot"),);
    }

    #[test]
    fn bench_query_emits_the_json_baseline() {
        let dir = tmpdir("benchquery");
        let g = dir.join("g.bin");
        let idx = dir.join("idx.slng");
        let json_path = dir.join("BENCH_query.json");
        run_str(&format!(
            "generate --ba 150,3 --seed 5 --out {}",
            g.display()
        ))
        .unwrap();
        run_str(&format!(
            "build {} --out {} --eps 0.1 --seed 9",
            g.display(),
            idx.display()
        ))
        .unwrap();
        let out = run_str(&format!(
            "bench-query {} {} --quick --pairs 60 --sources 4 --trace --out {}",
            g.display(),
            idx.display(),
            json_path.display()
        ))
        .unwrap();
        // --trace appends the per-workload stage-time table (4 traced
        // workloads x 4 backends).
        assert!(out.contains("kernel stage-time breakdown"), "{out}");
        assert_eq!(out.matches("single_source").count(), 4 + 4, "{out}");
        // All four backends report, and the streaming-vs-materializing
        // comparison is part of the summary.
        for backend in [
            "mem",
            "mmap",
            "mmap-compressed",
            "mmap-compressed-quantized",
        ] {
            assert!(out.contains(backend), "{backend} missing: {out}");
        }
        assert!(out.contains("streaming speedup"), "{out}");
        let json = std::fs::read_to_string(&json_path).unwrap();
        assert!(json.contains("\"bench\": \"query\""), "{json}");
        assert!(
            json.contains("\"backend\": \"mem\", \"workload\": \"single_pair\","),
            "{json}"
        );
        assert!(json.contains("\"streaming_speedup_hub\""), "{json}");
        assert!(json.contains("\"p99_us\""), "{json}");
        // Every backend × workload cell is present: 4 backends × 6
        // workloads.
        assert_eq!(json.matches("\"qps\":").count(), 24, "{json}");
    }

    #[test]
    fn unknown_command_shows_usage() {
        let err = run_str("frobnicate").unwrap_err();
        assert!(err.contains("unknown command \"frobnicate\""), "{err}");
        assert!(err.ends_with(&usage()));
        assert!(run_str("help").unwrap().contains("USAGE"));
        for alias in ["-h", "--help"] {
            assert_eq!(run_str(alias).unwrap(), usage());
        }
        assert_eq!(run(&[]).unwrap_err(), usage());
    }

    /// One graph + index fixture shared by the workload tests below.
    fn workload_fixture(tag: &str) -> (PathBuf, PathBuf, PathBuf) {
        let dir = tmpdir(tag);
        let g = dir.join("g.bin");
        let idx = dir.join("idx.slng");
        run_str(&format!(
            "generate --ba 120,3 --seed 6 --out {}",
            g.display()
        ))
        .unwrap();
        run_str(&format!(
            "build {} --out {} --eps 0.1 --seed 7",
            g.display(),
            idx.display()
        ))
        .unwrap();
        (dir, g, idx)
    }

    #[test]
    fn replay_synthesized_trace_with_spot_checks() {
        let (_dir, g, idx) = workload_fixture("replaysynth");
        let out = run_str(&format!(
            "replay {} {} --synth zipf --records 2000 --nodes 80 --seed 11 \
             --cache 64 --cache-admission tinylfu --spot-check 25",
            g.display(),
            idx.display()
        ))
        .unwrap();
        assert!(out.contains("replayed 2000 records"), "{out}");
        assert!(out.contains("policy tinylfu"), "{out}");
        assert!(out.contains("bit-identical"), "{out}");
        assert!(!out.contains("spot-checks: 0 bit-identical"), "{out}");
        // Cacheless replay of the same trace still works (and says so).
        let plain = run_str(&format!(
            "replay {} {} --synth zipf --records 500 --nodes 80 --seed 11",
            g.display(),
            idx.display()
        ))
        .unwrap();
        assert!(plain.contains("cache: off"), "{plain}");
        // Unknown scenario and missing trace are real errors.
        assert!(run_str(&format!(
            "replay {} {} --synth nope",
            g.display(),
            idx.display()
        ))
        .unwrap_err()
        .contains("unknown --synth"));
        assert!(
            run_str(&format!("replay {} {}", g.display(), idx.display()))
                .unwrap_err()
                .contains("--synth")
        );
    }

    #[test]
    fn replay_suite_writes_the_json_baseline() {
        let (dir, g, idx) = workload_fixture("replaysuite");
        let json_path = dir.join("BENCH_replay.json");
        let out = run_str(&format!(
            "replay {} {} --suite --records 4000 --out {}",
            g.display(),
            idx.display(),
            json_path.display()
        ))
        .unwrap();
        assert!(out.contains("adversarial scan"), "{out}");
        assert!(out.contains("advantage"), "{out}");
        let json = std::fs::read_to_string(&json_path).unwrap();
        assert!(json.contains("\"bench\": \"replay\""), "{json}");
        assert!(json.contains("\"scenario\": \"zipf_sweep\""), "{json}");
        assert!(json.contains("\"scenario\": \"diurnal_burst\""), "{json}");
        // The adversarial scan appears under both policies.
        assert_eq!(
            json.matches("\"scenario\": \"adversarial_cold_scan\"")
                .count(),
            2,
            "{json}"
        );
        assert!(json.contains("\"hit_rate_tinylfu\""), "{json}");
        assert!(json.contains("\"advantage\""), "{json}");
        // Spot-checks ran in every suite row.
        assert!(!json.contains("\"spot_checks\": 0"), "{json}");
    }

    /// The offline cache simulator counts what the engine-backed replay
    /// counts on every pinned suite row: the same hits, misses and
    /// admission rejects on the same trace, capacity and policy. The
    /// serving path answers identity pairs without a lookup under the
    /// default `exact_diagonal`, so the simulator must skip them too.
    #[test]
    fn cache_simulator_matches_the_engine_replay_on_every_suite_row() {
        let dir = tmpdir("simreplay");
        let (g_path, idx_path) = (dir.join("g.bin"), dir.join("idx.slng"));
        run_str(&format!(
            "generate --ba 400,3 --seed 6 --out {}",
            g_path.display()
        ))
        .unwrap();
        run_str(&format!(
            "build {} --out {} --eps 0.1 --seed 7",
            g_path.display(),
            idx_path.display()
        ))
        .unwrap();
        let g = load_graph(g_path.to_str().unwrap()).unwrap();
        let engine = open_engine(&g, idx_path.to_str().unwrap(), Residency::Mem).unwrap();
        assert!(engine.config().exact_diagonal);
        // The suite's defaults: 400 trace nodes, 12,000 records, seed
        // 41, capacity 192.
        let opts = SynthOpts {
            nodes: 400,
            records: 12_000,
            seed: 41,
        };
        for &(scenario, policy) in REPLAY_SUITE {
            let trace = synth_trace(scenario, opts).unwrap();
            let cache = ShardedResultCache::with_admission(192, 1, policy);
            let run = replay_records(&engine, &g, &trace.records, Some(&cache), 0.0, 0).unwrap();
            assert_eq!(run.skipped, 0, "{scenario}");
            let sim = sling_core::workload::simulate_pair_cache(&trace.records, 192, policy);
            assert_eq!(
                (run.hits, run.misses, run.rejects),
                (sim.hits, sim.misses, sim.rejects),
                "{scenario} {}",
                policy.as_str()
            );
        }
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn traffic_report_reads_a_written_trace() {
        let dir = tmpdir("report");
        let path = dir.join("t.slng");
        let trace = zipf_sweep(SynthOpts {
            nodes: 60,
            records: 3000,
            seed: 5,
        });
        let file = std::fs::File::create(&path).unwrap();
        let mut w = TraceWriter::new(std::io::BufWriter::new(file), trace.base_us).unwrap();
        for rec in &trace.records {
            w.write(rec).unwrap();
        }
        w.into_inner().unwrap();
        let out = run_str(&format!("traffic-report {}", path.display())).unwrap();
        assert!(out.contains("traffic report"), "{out}");
        assert!(out.contains("verb mix"), "{out}");
        assert!(out.contains("zipf exponent"), "{out}");
        assert!(out.contains("hit rate vs cache size"), "{out}");
        // A torn tail degrades to fewer records plus a note, not an error.
        let mut bytes = std::fs::read(&path).unwrap();
        bytes.truncate(bytes.len() - 7);
        let torn = dir.join("torn.slng");
        std::fs::write(&torn, &bytes).unwrap();
        let out = run_str(&format!("traffic-report {}", torn.display())).unwrap();
        assert!(out.contains("dropped by the tolerant reader"), "{out}");
        // A non-trace file is an error.
        assert!(run_str(&format!("traffic-report {}", dir.join("g.bin").display())).is_err());
    }

    #[test]
    fn record_capture_report_replay_roundtrip_over_live_server() {
        let (dir, g, idx) = workload_fixture("recordloop");
        let sock = dir.join("rec.sock");
        let server_trace = dir.join("server_side.slng");
        let serve_cmd = format!(
            "serve {} {} --unix {} --workers 2 --cache 64 --cache-admission tinylfu \
             --record {}",
            g.display(),
            idx.display(),
            sock.display(),
            server_trace.display()
        );
        let server = std::thread::spawn(move || run_str(&serve_cmd));
        let deadline = std::time::Instant::now() + std::time::Duration::from_secs(10);
        while !sock.exists() && std::time::Instant::now() < deadline {
            std::thread::sleep(std::time::Duration::from_millis(10));
        }
        let client = |mode: &str| run_str(&format!("client {mode} --unix {}", sock.display()));
        // Mixed traffic for the recorder to see.
        for i in 0..30u32 {
            client(&format!("pair {} {}", i % 7, (i + 1) % 13)).unwrap();
        }
        client("source 1").unwrap();
        client("topk 0 3").unwrap();
        // The STATS surface knows recording is on and which admission
        // policy the cache runs.
        let stats = client("stats").unwrap();
        assert!(stats.contains("trace=on"), "{stats}");
        assert!(stats.contains("cache_admission=tinylfu"), "{stats}");
        assert!(stats.contains("trace_records="), "{stats}");
        // Pull the same ring over the wire into a client-side capture.
        let cap = dir.join("capture.slng");
        let rec_out = run_str(&format!(
            "record --unix {} --out {} --duration-ms 600 --poll-ms 20",
            sock.display(),
            cap.display()
        ))
        .unwrap();
        assert!(rec_out.contains("captured"), "{rec_out}");
        assert!(!rec_out.contains("captured 0 records"), "{rec_out}");
        client("shutdown").unwrap();
        server.join().unwrap().unwrap();
        // The captured trace characterizes (32 pair-keyed lines dominate).
        let report = run_str(&format!("traffic-report {}", cap.display())).unwrap();
        assert!(report.contains("PAIR"), "{report}");
        // And replays against the local engine with every pair answer
        // spot-checked bit-identical through the cache — the record →
        // replay correctness loop.
        let replay = run_str(&format!(
            "replay {} {} {} --cache 32 --cache-admission tinylfu --spot-check 1",
            g.display(),
            idx.display(),
            cap.display()
        ))
        .unwrap();
        assert!(replay.contains("bit-identical"), "{replay}");
        assert!(!replay.contains("spot-checks: 0"), "{replay}");
        // The server-side recorder published its own complete file too
        // (tmp+rename: the final name is always a whole, parseable trace).
        let server_report = run_str(&format!("traffic-report {}", server_trace.display())).unwrap();
        assert!(server_report.contains("traffic report"), "{server_report}");
        assert!(!dir.join("server_side.slng.tmp").exists());
    }

    #[test]
    fn record_requires_a_recording_server() {
        let (dir, g, idx) = workload_fixture("recordoff");
        let sock = dir.join("plain.sock");
        let serve_cmd = format!(
            "serve {} {} --unix {} --workers 1",
            g.display(),
            idx.display(),
            sock.display()
        );
        let server = std::thread::spawn(move || run_str(&serve_cmd));
        let deadline = std::time::Instant::now() + std::time::Duration::from_secs(10);
        while !sock.exists() && std::time::Instant::now() < deadline {
            std::thread::sleep(std::time::Duration::from_millis(10));
        }
        let err = run_str(&format!(
            "record --unix {} --out {} --duration-ms 200",
            sock.display(),
            dir.join("nope.slng").display()
        ))
        .unwrap_err();
        assert!(err.contains("not enabled"), "{err}");
        run_str(&format!("client shutdown --unix {}", sock.display())).unwrap();
        server.join().unwrap().unwrap();
    }

    #[test]
    fn promote_and_generations_manage_an_index_root() {
        let (dir, g, idx) = workload_fixture("genroot");
        let root = dir.join("root");
        let root = root.display();
        let promote = |flags: &str| run_str(&format!("promote {root} {flags}"));
        let out = promote(&format!(
            "--index {} --graph {}",
            idx.display(),
            g.display()
        ))
        .unwrap();
        assert!(
            out.starts_with("published gen-0001 is now CURRENT"),
            "{out}"
        );
        let out = promote(&format!("--index {}", idx.display())).unwrap();
        assert!(
            out.starts_with("published gen-0002 is now CURRENT"),
            "{out}"
        );
        let out = promote("--gen 1").unwrap();
        assert!(out.starts_with("gen-0001 is now CURRENT"), "{out}");

        let list = run_str(&format!("generations {root}")).unwrap();
        assert!(list.contains("2 generation(s), current gen-0001"), "{list}");
        assert!(list.contains("* gen-0001  SLNGIDX1  n=120"), "{list}");
        assert!(list.contains(", graph "), "{list}");
        assert!(
            list.contains("[current]") && list.contains("[pending]"),
            "{list}"
        );

        // No flag promotes the newest generation, retiring gen-0001.
        let out = promote("").unwrap();
        assert!(out.starts_with("gen-0002 is now CURRENT"), "{out}");
        let gc = run_str(&format!("generations {root} --gc 0")).unwrap();
        assert!(
            gc.contains("removed 1 retired generation(s): gen-0001"),
            "{gc}"
        );
        assert!(gc.contains("1 generation(s), current gen-0002"), "{gc}");
        let gc = run_str(&format!("generations {root} --gc 0")).unwrap();
        assert!(gc.contains("gc: nothing to retire"), "{gc}");

        let both = promote(&format!("--gen 2 --index {}", idx.display())).unwrap_err();
        assert!(both.contains("mutually exclusive"), "{both}");
        assert!(promote("--gen two")
            .unwrap_err()
            .contains("cannot parse generation"));
        assert!(promote("--gen 1").is_err(), "gen-0001 was collected");
        assert!(run_str(&format!("generations {root} --gc all"))
            .unwrap_err()
            .contains("--gc"));
    }

    #[test]
    fn read_only_commands_create_no_index_root() {
        let (dir, _g, idx) = workload_fixture("noroot");
        let typo = dir.join("typo");
        let deep = typo.join("a").join("b").display().to_string();
        let err = run_str(&format!("generations {deep}")).unwrap_err();
        assert!(err.starts_with(&deep), "{err}");
        let sock = dir.join("noroot.sock");
        let err = run_str(&format!(
            "serve --index-root {deep} --unix {}",
            sock.display()
        ))
        .unwrap_err();
        assert!(err.starts_with(&deep), "{err}");
        assert!(!typo.exists(), "a read-only command created {deep}");
        // Publishing still creates the root it writes into.
        let fresh = dir.join("fresh");
        let out = run_str(&format!(
            "promote {} --index {}",
            fresh.display(),
            idx.display()
        ))
        .unwrap();
        assert!(
            out.starts_with("published gen-0001 is now CURRENT"),
            "{out}"
        );
        assert!(fresh.join("gen-0001").join("index.slng").is_file());
    }

    #[test]
    fn serve_reports_flag_errors_before_binding() {
        let (dir, g, idx) = workload_fixture("serveflags");
        // Hold the port, so binding it would fail with "Address already
        // in use"; each flag error must still be the one reported.
        let held = std::net::TcpListener::bind("127.0.0.1:0").unwrap();
        let addr = held.local_addr().unwrap();
        let (g, idx) = (g.display(), idx.display());
        let err = run_str(&format!("serve {g} {idx} --listen {addr} --watch")).unwrap_err();
        assert!(err.contains("--watch/--watch-ms only apply"), "{err}");
        let err = run_str(&format!("serve {g} {idx} --listen {addr} --watch-ms 50")).unwrap_err();
        assert!(err.contains("--watch/--watch-ms only apply"), "{err}");
        let root = dir.join("root");
        let err = run_str(&format!(
            "serve --index-root {} {g} {idx} --listen {addr}",
            root.display()
        ))
        .unwrap_err();
        assert!(err.contains("drop the INDEX positional"), "{err}");
    }

    #[test]
    fn dataset_generation_by_name() {
        let dir = tmpdir("byname");
        let path = dir.join("as.bin");
        let out = run_str(&format!(
            "generate --dataset as-sim --out {}",
            path.display()
        ));
        // Name must exist in the suite; if suite names change this test
        // flags the CLI docs going stale.
        assert!(out.is_ok(), "{out:?}");
        assert!(
            run_str(&format!("generate --dataset nope --out {}", path.display()))
                .unwrap_err()
                .contains("unknown dataset")
        );
    }
}
