//! Chaos suite: a live loopback server under seeded fault schedules.
//!
//! Every test drives real sockets against a real server while the
//! `sling_core::faults` registry injects IO errors, short reads/writes,
//! and corruption on deterministic schedules, and asserts the
//! resilience contract from the crate docs: no panics, retrying clients
//! converge on bit-identical answers, overload sheds bounded fractions
//! instead of collapsing, corrupt generations roll back automatically,
//! and every failure mode is visible in `METRICS`.
//!
//! The fault registry is process-global, so tests that arm it serialize
//! on [`chaos_lock`] and disarm through a drop guard (panic-safe).

use std::io::{BufRead, BufReader, Read, Write};
use std::net::TcpStream;
use std::path::{Path, PathBuf};
use std::sync::atomic::Ordering;
use std::sync::{Arc, Mutex, MutexGuard};
use std::time::{Duration, Instant};

use sling_core::lifecycle::GenerationStore;
use sling_core::obs::CLIENT;
use sling_core::workload::{TraceKey, TraceOutcome, TraceVerb};
use sling_core::{faults, MmapHpArena, SharedEngine, SlingConfig, SlingError, SlingIndex};
use sling_graph::generators::barabasi_albert;
use sling_graph::{DiGraph, NodeId};
use sling_server::{
    serve, serve_reloadable, stats_field, Client, ClientConfig, Listener, ReloadableEngine,
    Request, RetryingClient, ServerConfig, ServerHandle,
};

/// Serializes fault-arming tests: the registry is process-global.
fn chaos_lock() -> MutexGuard<'static, ()> {
    static LOCK: Mutex<()> = Mutex::new(());
    LOCK.lock().unwrap_or_else(|e| e.into_inner())
}

/// Disarms the fault registry when dropped, so a panicking test cannot
/// leak its schedule into the next one.
struct FaultGuard;

impl FaultGuard {
    fn install(spec: &str) -> FaultGuard {
        faults::install_from_spec(spec).unwrap();
        FaultGuard
    }
}

impl Drop for FaultGuard {
    fn drop(&mut self) {
        faults::clear();
    }
}

fn fixture() -> DiGraph {
    barabasi_albert(120, 3, 41).unwrap()
}

fn build(g: &DiGraph, seed: u64) -> SlingIndex {
    let config = SlingConfig::from_epsilon(0.6, 0.1)
        .with_seed(seed)
        .with_enhancement(true);
    SlingIndex::build(g, &config).unwrap()
}

fn tmp_root(tag: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("sling_chaos_{tag}_{}", std::process::id()));
    std::fs::remove_dir_all(&dir).ok();
    dir
}

fn start_pinned(
    g: DiGraph,
    idx: SlingIndex,
    config: ServerConfig,
) -> (ServerHandle, std::net::SocketAddr) {
    let handle = serve(
        Arc::new(SharedEngine::from(idx)),
        Arc::new(g),
        Listener::bind_tcp("127.0.0.1:0").unwrap(),
        config,
    )
    .unwrap();
    let addr = handle.local_addr().unwrap();
    (handle, addr)
}

/// Extract one un-labeled sample value from a Prometheus text
/// exposition.
fn metric_value(exposition: &str, name: &str) -> Option<f64> {
    exposition
        .lines()
        .filter(|l| !l.starts_with('#'))
        .find_map(|l| l.strip_prefix(name)?.trim().parse().ok())
}

/// Extract `key=N` from a `STATS` line.
fn stat_value(stats: &str, key: &str) -> Option<u64> {
    stats
        .split_ascii_whitespace()
        .find_map(|kv| kv.strip_prefix(&format!("{key}="))?.parse().ok())
}

/// Tentpole end-to-end: 8 retrying client threads complete every
/// request with bit-identical answers while seeded faults kill reads,
/// kill writes, and stall writes underneath them — and the retries,
/// reconnects, and injected faults are all visible in `METRICS`.
#[test]
fn retrying_clients_survive_seeded_connection_faults_bit_identically() {
    let _lock = chaos_lock();
    let g = fixture();
    let idx = build(&g, 7);
    let n = g.num_nodes() as u32;
    let hot: Vec<(u32, u32)> = (0..24u32).map(|i| (i % n, (i * 7 + 1) % n)).collect();
    let want: Vec<f64> = hot
        .iter()
        .map(|&(u, v)| idx.single_pair(&g, NodeId(u), NodeId(v)))
        .collect();
    let (handle, addr) = start_pinned(
        g,
        idx,
        ServerConfig {
            workers: 2,
            cache_capacity: 1024,
            cache_shards: 4,
            ..ServerConfig::default()
        },
    );

    let faults_before = faults::injected_total();
    let retries_before = CLIENT.retries.load(Ordering::Relaxed);
    let guard = FaultGuard::install(
        "server.read:error:every=23;\
         server.write:error:every=31;\
         server.write:delay:delay_us=1500:every=37",
    );

    std::thread::scope(|s| {
        for t in 0..8usize {
            let (hot, want) = (&hot, &want);
            s.spawn(move || {
                let config = ClientConfig {
                    max_retries: 12,
                    backoff_base: Duration::from_millis(1),
                    backoff_max: Duration::from_millis(20),
                    jitter_seed: 0xC0FFEE + t as u64,
                    read_timeout: Some(Duration::from_secs(10)),
                    ..ClientConfig::default()
                };
                let mut client = RetryingClient::connect_tcp(addr, config).unwrap();
                for i in 0..40usize {
                    let k = (i * 3 + t) % hot.len();
                    let (u, v) = hot[k];
                    let got = client
                        .pair(u, v)
                        .unwrap_or_else(|e| panic!("thread {t} request {i} gave up: {e}"));
                    assert_eq!(
                        got.to_bits(),
                        want[k].to_bits(),
                        "thread {t}: pair ({u},{v}) answered {got}, want {}",
                        want[k]
                    );
                }
            });
        }
    });

    let faults_fired = faults::injected_total() - faults_before;
    let retries_made = CLIENT.retries.load(Ordering::Relaxed) - retries_before;
    assert!(faults_fired > 0, "schedule never fired");
    assert!(retries_made > 0, "clients never had to retry");

    // Disarm, then scrape: every counter the chaos ran up must be
    // visible in the server's own exposition.
    drop(guard);
    let mut control = Client::connect_tcp(addr).unwrap();
    let exposition = control.metrics().unwrap();
    assert!(metric_value(&exposition, "sling_faults_injected_total").unwrap() > 0.0);
    assert!(metric_value(&exposition, "sling_retries_total").unwrap() > 0.0);
    assert!(metric_value(&exposition, "sling_client_reconnects_total").unwrap() > 0.0);
    control.shutdown().unwrap();
    handle.join();
}

/// A pipelined burst against a tight pending-bytes high-water mark:
/// some requests are answered, the rest shed with `ERR overloaded` —
/// never dropped, never a panic — and the shed count lands in `STATS`
/// and `METRICS`.
#[test]
fn burst_sheds_bounded_with_err_overloaded() {
    let _lock = chaos_lock();
    let g = fixture();
    let idx = build(&g, 7);
    let (handle, addr) = start_pinned(
        g,
        idx,
        ServerConfig {
            workers: 1,
            cache_capacity: 64,
            cache_shards: 1,
            shed_pending_bytes: 16 * 1024,
            ..ServerConfig::default()
        },
    );

    const BURST: usize = 500;
    let mut raw = TcpStream::connect(addr).unwrap();
    raw.set_read_timeout(Some(Duration::from_secs(30))).unwrap();
    let mut pipeline = String::new();
    for i in 0..BURST {
        pipeline.push_str(&format!("SOURCE {}\n", i % 120));
    }
    raw.write_all(pipeline.as_bytes()).unwrap();
    let mut reader = BufReader::new(raw);
    let (mut served, mut shed) = (0usize, 0usize);
    let mut line = String::new();
    for _ in 0..BURST {
        line.clear();
        assert!(
            reader.read_line(&mut line).unwrap() > 0,
            "connection died mid-burst"
        );
        if line.starts_with("OK ") {
            served += 1;
        } else if line.trim_end() == "ERR overloaded" {
            shed += 1;
        } else {
            panic!("unexpected response {line:?}");
        }
    }
    assert_eq!(served + shed, BURST);
    assert!(served > 0, "everything shed: admission control too eager");
    assert!(shed > 0, "nothing shed despite a {BURST}-deep burst");

    let mut control = Client::connect_tcp(addr).unwrap();
    let stats = control.stats_line().unwrap();
    assert_eq!(stat_value(&stats, "shed"), Some(shed as u64), "{stats}");
    let exposition = control.metrics().unwrap();
    assert_eq!(
        metric_value(&exposition, "sling_requests_shed_total"),
        Some(shed as f64)
    );
    control.shutdown().unwrap();
    handle.join();
}

/// A pipelined burst against a small per-request deadline budget: the
/// head of the pipeline is answered, requests that sat buffered past
/// the budget answer `ERR deadline` instead of burning engine time.
#[test]
fn stale_pipelined_requests_answer_err_deadline() {
    let _lock = chaos_lock();
    let g = fixture();
    let idx = build(&g, 7);
    let (handle, addr) = start_pinned(
        g,
        idx,
        ServerConfig {
            workers: 1,
            cache_capacity: 64,
            cache_shards: 1,
            deadline_us: 1_000,
            ..ServerConfig::default()
        },
    );

    const BURST: usize = 800;
    let mut raw = TcpStream::connect(addr).unwrap();
    raw.set_read_timeout(Some(Duration::from_secs(30))).unwrap();
    let mut pipeline = String::new();
    for i in 0..BURST {
        pipeline.push_str(&format!("SOURCE {}\n", i % 120));
    }
    raw.write_all(pipeline.as_bytes()).unwrap();
    let mut reader = BufReader::new(raw);
    let (mut served, mut expired) = (0usize, 0usize);
    let mut line = String::new();
    for _ in 0..BURST {
        line.clear();
        assert!(
            reader.read_line(&mut line).unwrap() > 0,
            "connection died mid-burst"
        );
        if line.starts_with("OK ") {
            served += 1;
        } else if line.trim_end() == "ERR deadline" {
            expired += 1;
        } else {
            panic!("unexpected response {line:?}");
        }
    }
    assert_eq!(served + expired, BURST);
    assert!(
        served > 0,
        "even the head of the pipeline missed its budget"
    );
    assert!(expired > 0, "no request expired despite a 1 ms budget");

    let mut control = Client::connect_tcp(addr).unwrap();
    let stats = control.stats_line().unwrap();
    assert_eq!(
        stat_value(&stats, "deadline_exceeded"),
        Some(expired as u64),
        "{stats}"
    );
    control.shutdown().unwrap();
    handle.join();
}

fn mmap_opener(g: &DiGraph, p: &Path) -> Result<SharedEngine<MmapHpArena>, SlingError> {
    SharedEngine::open_mmap(g, p)
}

/// A generation that starts corrupting *after* promotion: runtime
/// `CorruptIndex` errors cross the threshold, the server quarantines it
/// and rolls back to the newest verified prior generation on its own,
/// plain `RELOAD` refuses to re-promote the quarantined generation, and
/// `RELOAD FORCE` lifts the quarantine. Zero panics, zero dropped
/// connections, every transition visible in `STATS`.
#[test]
fn corrupt_generation_rolls_back_and_quarantines() {
    let _lock = chaos_lock();
    let g = fixture();
    let idx_a = build(&g, 7);
    let idx_b = build(&g, 8);
    let (u, v) = (0u32, 1u32);
    let score_a = idx_a.single_pair(&g, NodeId(u), NodeId(v));
    let score_b = idx_b.single_pair(&g, NodeId(u), NodeId(v));
    assert_ne!(
        score_a.to_bits(),
        score_b.to_bits(),
        "fixture pair must distinguish"
    );

    let root = tmp_root("rollback");
    let store = GenerationStore::open(&root).unwrap();
    let gen1 = store.publish_index(&idx_a, Some(&g)).unwrap();
    store.promote(gen1).unwrap();
    let gen2 = store.publish_index(&idx_b, Some(&g)).unwrap();
    store.promote(gen2).unwrap();

    let reloadable = ReloadableEngine::watching_store(store.clone(), None, mmap_opener).unwrap();
    let handle = serve_reloadable(
        Arc::new(reloadable),
        Listener::bind_tcp("127.0.0.1:0").unwrap(),
        ServerConfig {
            workers: 1,
            cache_capacity: 64,
            cache_shards: 1,
            rollback_error_threshold: 3,
            ..ServerConfig::default()
        },
    )
    .unwrap();
    let addr = handle.local_addr().unwrap();
    let mut client = Client::connect_tcp(addr).unwrap();

    // Healthy: serving gen-0002 (the promoted CURRENT).
    assert_eq!(client.pair(u, v).unwrap().to_bits(), score_b.to_bits());
    let stats = client.stats_line().unwrap();
    assert!(
        stats.contains(&format!("index_generation={}", gen2.dir_name())),
        "{stats}"
    );

    // The index starts rotting: exactly three validations corrupt, so
    // three distinct uncached queries fail, hitting the threshold on
    // the third — which must quarantine gen-0002 and roll back.
    let guard = FaultGuard::install("mmap.validate:corrupt:times=3");
    let mut corrupt_errors = 0;
    for (cu, cv) in [(2u32, 3u32), (4, 5), (6, 7)] {
        let err = client.pair(cu, cv).unwrap_err();
        assert!(err.to_string().contains("injected corruption"), "{err}");
        corrupt_errors += 1;
    }
    assert_eq!(corrupt_errors, 3);
    drop(guard);

    // Rolled back: same connection, no interruption, now answering
    // bit-identical to the prior generation.
    assert_eq!(client.pair(u, v).unwrap().to_bits(), score_a.to_bits());
    let stats = client.stats_line().unwrap();
    assert!(
        stats.contains(&format!("index_generation={}", gen1.dir_name())),
        "{stats}"
    );
    assert_eq!(stat_value(&stats, "rollbacks"), Some(1), "{stats}");
    assert_eq!(stat_value(&stats, "quarantined"), Some(1), "{stats}");
    let exposition = client.metrics().unwrap();
    assert_eq!(
        metric_value(&exposition, "sling_rollbacks_total"),
        Some(1.0)
    );

    // CURRENT still points at the quarantined generation; a plain
    // RELOAD must refuse to walk back into it.
    let (serving, swapped) = client.reload(false).unwrap();
    assert!(
        !swapped,
        "plain RELOAD re-promoted a quarantined generation"
    );
    assert_eq!(serving, gen1.dir_name());

    // RELOAD FORCE lifts the quarantine; the re-verified on-disk bytes
    // are pristine (the corruption was injected at validation), so the
    // server swaps forward again and serves gen-0002 cleanly.
    let (serving, swapped) = client.reload(true).unwrap();
    assert!(swapped, "RELOAD FORCE did not lift the quarantine");
    assert_eq!(serving, gen2.dir_name());
    assert_eq!(client.pair(u, v).unwrap().to_bits(), score_b.to_bits());

    client.shutdown().unwrap();
    let report = handle.join();
    let served: u64 = stats_field(&report, "served").unwrap().parse().unwrap();
    assert!(served > 0, "{report}");
    std::fs::remove_dir_all(&root).ok();
}

/// A pinned server has no generation store: runtime errors past the
/// rollback threshold are charged to `runtime_errors`, but there is
/// nothing to quarantine, reload or roll back to, so none of those
/// counts move and the generation keeps serving once the faults stop.
#[test]
fn pinned_server_charges_runtime_errors_but_never_quarantines() {
    let _lock = chaos_lock();
    let g = fixture();
    let idx = build(&g, 7);
    let want = idx.single_pair(&g, NodeId(0), NodeId(1));
    let path = tmp_root("pinned_mmap").with_extension("slng");
    idx.save(&path).unwrap();
    let handle = serve(
        Arc::new(mmap_opener(&g, &path).unwrap()),
        Arc::new(g),
        Listener::bind_tcp("127.0.0.1:0").unwrap(),
        ServerConfig {
            workers: 1,
            cache_capacity: 64,
            cache_shards: 1,
            rollback_error_threshold: 3,
            ..ServerConfig::default()
        },
    )
    .unwrap();
    let mut client = Client::connect_tcp(handle.local_addr().unwrap()).unwrap();

    // Ten distinct uncached pairs, every mapped read failing: more than
    // three times the threshold.
    let guard = FaultGuard::install("mmap.validate:error");
    let errors = 10u32;
    for i in 0..errors {
        let err = client.pair(2 * i + 2, 2 * i + 3).unwrap_err();
        assert!(err.to_string().contains("injected"), "{err}");
    }
    drop(guard);

    let stats = client.stats_line().unwrap();
    assert!(stats.contains("index_generation=static"), "{stats}");
    assert_eq!(
        stat_value(&stats, "runtime_errors"),
        Some(errors as u64),
        "{stats}"
    );
    for key in ["quarantined", "reload_failures", "rollbacks", "swaps"] {
        assert_eq!(stat_value(&stats, key), Some(0), "{key}: {stats}");
    }
    assert_eq!(client.pair(0, 1).unwrap().to_bits(), want.to_bits());
    client.shutdown().unwrap();
    handle.join();
    std::fs::remove_file(&path).ok();
}

/// Transient acceptor faults: connects keep succeeding (the pending
/// connection stays in the backlog while the acceptor backs off with
/// jitter), and the error count is exported.
#[test]
fn accept_faults_back_off_and_are_counted() {
    let _lock = chaos_lock();
    let g = fixture();
    let idx = build(&g, 7);
    let (handle, addr) = start_pinned(
        g,
        idx,
        ServerConfig {
            workers: 1,
            cache_capacity: 16,
            cache_shards: 1,
            ..ServerConfig::default()
        },
    );

    let guard = FaultGuard::install("server.accept:error:every=2:times=8");
    for i in 0..6 {
        let mut client = Client::connect_tcp(addr)
            .unwrap_or_else(|e| panic!("connect {i} failed under accept faults: {e}"));
        client.ping().unwrap();
        client.quit().ok();
    }
    drop(guard);

    let mut control = Client::connect_tcp(addr).unwrap();
    let exposition = control.metrics().unwrap();
    assert!(
        metric_value(&exposition, "sling_accept_errors_total").unwrap() >= 1.0,
        "injected accept errors were not counted"
    );
    control.shutdown().unwrap();
    handle.join();
}

/// Drain-grace interaction with a slow writer: a connection still owed
/// a large response at `SHUTDOWN` — with every write stalled to one
/// byte by the fault schedule — is either fully served or closed when
/// the grace expires. The server must join promptly either way; a
/// leaked connection would hang the join and fail the watchdog.
#[test]
fn slow_writer_is_served_or_closed_within_drain_grace() {
    let _lock = chaos_lock();
    let g = fixture();
    let idx = build(&g, 7);
    let (handle, addr) = start_pinned(
        g,
        idx,
        ServerConfig {
            workers: 1,
            cache_capacity: 16,
            cache_shards: 1,
            ..ServerConfig::default()
        },
    );

    // ~10k-pair batch => a ~200 KiB response; at one byte per
    // readiness turn it cannot finish inside the 250 ms drain grace.
    let _guard = FaultGuard::install("server.write:short_read:every=1");
    let mut slow = TcpStream::connect(addr).unwrap();
    slow.set_read_timeout(Some(Duration::from_secs(10)))
        .unwrap();
    let mut request = String::from("BATCH");
    for i in 0..10_000u32 {
        request.push_str(&format!(" {},{}", i % 120, (i * 7 + 1) % 120));
    }
    request.push('\n');
    slow.write_all(request.as_bytes()).unwrap();
    // Let the server compute the response and start trickling it out.
    std::thread::sleep(Duration::from_millis(100));

    let mut control = Client::connect_tcp(addr).unwrap();
    control.shutdown().unwrap();
    let shutdown_at = Instant::now();

    // Watchdog join: a leaked slow-writer connection would hang this.
    let (tx, rx) = std::sync::mpsc::channel();
    std::thread::spawn(move || {
        let report = handle.join();
        tx.send(report).ok();
    });
    let report = rx
        .recv_timeout(Duration::from_secs(10))
        .expect("server never finished draining: slow-writer connection leaked");
    assert!(
        shutdown_at.elapsed() < Duration::from_secs(8),
        "drain took {:?}, grace is 250 ms",
        shutdown_at.elapsed()
    );
    let served: u64 = stats_field(&report, "served").unwrap().parse().unwrap();
    assert!(served > 0, "{report}");

    // The slow connection saw a clean prefix of its response (partial
    // write), then a close — either an orderly EOF or a reset (the
    // kernel sends RST when a socket with unread data is dropped, and
    // may discard buffered bytes with it). Never garbage, never a hang.
    let mut got = Vec::new();
    let mut chunk = [0u8; 4096];
    loop {
        match slow.read(&mut chunk) {
            Ok(0) => break,
            Ok(n) => got.extend_from_slice(&chunk[..n]),
            Err(e) if e.kind() == std::io::ErrorKind::ConnectionReset => break,
            Err(e) => panic!("slow connection died uncleanly: {e}"),
        }
    }
    if !got.is_empty() {
        assert!(
            got.starts_with(b"OK "),
            "response prefix is garbage: {:?}",
            &got[..8.min(got.len())]
        );
    }
}

/// How the test sends one request line.
#[derive(Clone, Copy)]
enum Send {
    /// The whole line in one write.
    Whole,
    /// The line followed by 20 KB of an unfinished second line, so the
    /// connection owes more than the shed threshold when the request is
    /// parsed; the padding line is finished afterwards and answers a
    /// parse error.
    Padded,
    /// The line minus its newline, a pause longer than the deadline
    /// budget, then the newline.
    Stale,
}

/// The trace spelling of a key, as the slow log renders it.
fn key_text(key: TraceKey) -> String {
    match key {
        TraceKey::Pair(u, v) => format!("{u},{v}"),
        TraceKey::Node(u) => format!("{u}"),
        TraceKey::NodeK(u, k) => format!("{u}:{k}"),
    }
}

/// Every `PAIR`, `SOURCE` and `TOPK` and every `BATCH` pair leaves one
/// trace record whose verb, key and outcome match the answer it got —
/// served, failed on an injected read error, shed, or past its
/// deadline — and every slow-log line names its query exactly as that
/// query's trace record does.
#[test]
fn every_query_key_is_traced_once_and_slow_lines_match_the_trace() {
    let _lock = chaos_lock();
    let g = fixture();
    let idx = build(&g, 7);
    let root = tmp_root("one_path");
    std::fs::create_dir_all(&root).unwrap();
    let index_path = root.join("idx.slng");
    idx.save(&index_path).unwrap();
    let engine = SharedEngine::open_mmap(&g, &index_path).unwrap();
    let handle = serve(
        Arc::new(engine),
        Arc::new(g),
        Listener::bind_tcp("127.0.0.1:0").unwrap(),
        ServerConfig {
            workers: 1,
            cache_capacity: 64,
            cache_shards: 1,
            slow_query_us: 1,
            shed_pending_bytes: 16 * 1024,
            deadline_us: 50_000,
            record_path: Some(root.join("capture.trace")),
            ..ServerConfig::default()
        },
    )
    .unwrap();
    let addr = handle.local_addr().unwrap();

    let mut raw = TcpStream::connect(addr).unwrap();
    raw.set_read_timeout(Some(Duration::from_secs(30))).unwrap();
    let mut reader = BufReader::new(raw.try_clone().unwrap());
    let read_reply = |reader: &mut BufReader<TcpStream>| {
        let mut line = String::new();
        assert!(
            reader.read_line(&mut line).unwrap() > 0,
            "connection closed"
        );
        line.trim_end().to_string()
    };
    let mut sent: Vec<(Request, String)> = Vec::new();
    let mut ask = |line: &str, how: Send| {
        match how {
            Send::Whole => raw.write_all(format!("{line}\n").as_bytes()).unwrap(),
            Send::Padded => {
                let padding = " ".repeat(20_000);
                raw.write_all(format!("{line}\n{padding}").as_bytes())
                    .unwrap();
            }
            Send::Stale => {
                raw.write_all(line.as_bytes()).unwrap();
                std::thread::sleep(Duration::from_millis(150));
                raw.write_all(b"\n").unwrap();
            }
        }
        let reply = read_reply(&mut reader);
        if let Send::Padded = how {
            raw.write_all(b"\n").unwrap();
            let junk = read_reply(&mut reader);
            assert!(junk.starts_with("ERR "), "padding line answered {junk:?}");
        }
        sent.push((Request::parse(line).unwrap(), reply));
    };

    let served = [
        "PAIR 3 17",
        "PAIR 17 3",
        "PAIR 5 5",
        "SOURCE 3",
        "TOPK 3 5",
        "BATCH 1,2 2,1 4,9",
    ];
    for line in served {
        ask(line, Send::Whole);
    }
    // Two store reads fail: the PAIR's first endpoint and the BATCH's
    // first pair, which ends the BATCH before its second pair.
    let guard = FaultGuard::install("mmap.validate:error:times=2");
    ask("PAIR 10 20", Send::Whole);
    ask("BATCH 21,22 23,24", Send::Whole);
    drop(guard);
    for line in ["TOPK 4 3", "BATCH 5,6 7,8", "PAIR 30 31"] {
        ask(line, Send::Padded);
    }
    for line in ["SOURCE 7", "BATCH 8,9 10,11", "TOPK 9 4"] {
        ask(line, Send::Stale);
    }
    for line in ["PAIR 40 41", "TOPK 3 5", "BATCH 3,17 50,60"] {
        ask(line, Send::Whole);
    }

    // What each request's answer says its keys' trace records must be.
    let mut expected: Vec<(TraceVerb, TraceKey, TraceOutcome)> = Vec::new();
    let mut admitted_keys = 0u64;
    let mut outcomes = std::collections::HashSet::new();
    for (req, reply) in &sent {
        let (verb, keys) = match req {
            Request::Pair { u, v } => (TraceVerb::Pair, vec![TraceKey::Pair(*u, *v)]),
            Request::Source { u } => (TraceVerb::Source, vec![TraceKey::Node(*u)]),
            Request::TopK { u, k } => (TraceVerb::TopK, vec![TraceKey::NodeK(*u, *k as u32)]),
            Request::Batch { pairs } => (
                TraceVerb::Batch,
                pairs.iter().map(|&(u, v)| TraceKey::Pair(u, v)).collect(),
            ),
            other => panic!("not a query: {other:?}"),
        };
        let (outcome, traced) = if reply.starts_with("OK ") {
            (TraceOutcome::Ok, keys.len())
        } else if reply == "ERR overloaded" {
            (TraceOutcome::Shed, keys.len())
        } else if reply == "ERR deadline" {
            (TraceOutcome::Deadline, keys.len())
        } else {
            assert!(reply.contains("injected"), "{reply}");
            (TraceOutcome::Err, 1)
        };
        if matches!(outcome, TraceOutcome::Ok | TraceOutcome::Err) {
            admitted_keys += keys.len() as u64;
        }
        outcomes.insert((verb, outcome));
        expected.extend(keys[..traced].iter().map(|&key| (verb, key, outcome)));
    }
    for want in [
        (TraceVerb::Pair, TraceOutcome::Ok),
        (TraceVerb::Source, TraceOutcome::Ok),
        (TraceVerb::TopK, TraceOutcome::Ok),
        (TraceVerb::Batch, TraceOutcome::Ok),
        (TraceVerb::Pair, TraceOutcome::Err),
        (TraceVerb::Batch, TraceOutcome::Err),
        (TraceVerb::Batch, TraceOutcome::Shed),
        (TraceVerb::TopK, TraceOutcome::Shed),
        (TraceVerb::Batch, TraceOutcome::Deadline),
        (TraceVerb::Source, TraceOutcome::Deadline),
    ] {
        assert!(outcomes.contains(&want), "no {want:?} in {sent:?}");
    }

    let mut control = Client::connect_tcp(addr).unwrap();
    let segment = control.trace_from(0, 4096).unwrap();
    let slow = control.slow_queries().unwrap();
    let stats = control.stats_line().unwrap();
    control.shutdown().unwrap();
    handle.join();

    // One record per key, in the order the keys were answered. A record
    // the recorder dropped under ring contention is counted, never
    // invented, so the records are `expected` minus `dropped` entries.
    let records: Vec<_> = segment.records.iter().map(|(_, r)| *r).collect();
    assert_eq!(
        records.len() as u64 + segment.dropped,
        expected.len() as u64,
        "records {records:?}\nexpected {expected:?}"
    );
    let mut rest = expected.iter();
    for r in &records {
        assert_eq!(r.epoch, 0);
        assert!(
            rest.any(|&(verb, key, outcome)| (verb, key, outcome) == (r.verb, r.key, r.outcome)),
            "trace record {r:?} out of order or unexpected\nexpected {expected:?}"
        );
    }
    assert_eq!(stat_value(&stats, "served"), Some(admitted_keys), "{stats}");
    assert_eq!(stat_value(&stats, "shed"), Some(3), "{stats}");
    assert_eq!(stat_value(&stats, "deadline_exceeded"), Some(3), "{stats}");

    // Every slow line is a served key's trace record, in order, with the
    // same verb, key and latency.
    let served_records: Vec<_> = records
        .iter()
        .filter(|r| r.outcome == TraceOutcome::Ok)
        .collect();
    let mut rest = served_records.iter();
    let mut slow_verbs = std::collections::HashSet::new();
    for line in slow.lines() {
        let field = |name: &str| {
            line.split_ascii_whitespace()
                .find_map(|kv| kv.strip_prefix(name)?.strip_prefix('='))
                .unwrap_or_else(|| panic!("no {name}= in {line:?}"))
        };
        assert!(line.starts_with("slow verb="), "{line}");
        assert_eq!(field("generation"), "static", "{line}");
        assert_eq!(field("epoch"), "0", "{line}");
        let (verb, key, total_us) = (field("verb"), field("key"), field("total_us"));
        assert!(
            rest.any(|r| r.verb.as_str() == verb
                && key_text(r.key) == key
                && r.latency_us.to_string() == total_us),
            "slow line {line:?} matches no served trace record in order\n{served_records:?}"
        );
        slow_verbs.insert(verb.to_string());
    }
    // Algorithm 6 runs far above the 1 µs threshold.
    assert!(slow_verbs.contains("SOURCE"), "{slow}");
    assert!(slow_verbs.contains("TOPK"), "{slow}");
    std::fs::remove_dir_all(&root).ok();
}
