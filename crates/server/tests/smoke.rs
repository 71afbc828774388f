//! Server smoke tests over loopback sockets: concurrent mixed traffic
//! from ≥ 8 client threads against one shared engine must return scores
//! **bit-identical** to the serial in-memory path, report cache and
//! per-worker statistics, and shut down gracefully.

use std::sync::Arc;

use sling_core::{HpStore, SharedEngine, SlingConfig, SlingIndex};
use sling_graph::generators::barabasi_albert;
use sling_graph::{DiGraph, NodeId};
use sling_server::{serve, stats_field, Client, Listener, ServerConfig};

const CLIENT_THREADS: usize = 8;

fn setup() -> (DiGraph, SlingIndex) {
    let g = barabasi_albert(120, 3, 41).unwrap();
    let config = SlingConfig::from_epsilon(0.6, 0.1)
        .with_seed(7)
        .with_enhancement(true);
    let idx = SlingIndex::build(&g, &config).unwrap();
    (g, idx)
}

/// Deterministic per-thread query mix: mostly hot pairs (shared across
/// threads so the cache sees reuse), some cold pairs, some top-k.
fn pair_for(thread: usize, i: usize, n: u32) -> (u32, u32) {
    if i % 4 != 3 {
        // Hot set shared by every thread.
        let h = (i % 7) as u32;
        (h % n, (h * 3 + 1) % n)
    } else {
        let a = ((thread * 31 + i * 17) as u32) % n;
        let b = ((thread * 13 + i * 29 + 1) as u32) % n;
        (a, b)
    }
}

#[test]
fn concurrent_mixed_traffic_is_bit_identical_to_serial() {
    let (g, idx) = setup();
    let n = g.num_nodes() as u32;

    // Serial in-memory references, canonical pair order (the server
    // canonicalizes symmetric pairs before computing).
    let reference_pair = |u: u32, v: u32| idx.single_pair(&g, NodeId(u.min(v)), NodeId(u.max(v)));
    let reference_topk: Vec<Vec<(u32, f64)>> = (0..16u32)
        .map(|u| {
            idx.top_k(&g, NodeId(u), 5)
                .into_iter()
                .map(|(v, s)| (v.0, s))
                .collect()
        })
        .collect();
    let reference_source = idx.single_source(&g, NodeId(3));

    let engine: Arc<SharedEngine<_>> = Arc::new(idx.clone().into_shared_engine());
    let handle = serve(
        engine,
        Arc::new(g.clone()),
        Listener::bind_tcp("127.0.0.1:0").unwrap(),
        ServerConfig {
            workers: 4,
            cache_capacity: 512,
            cache_shards: 8,
            ..ServerConfig::default()
        },
    )
    .unwrap();
    let addr = handle.local_addr().unwrap();

    std::thread::scope(|s| {
        for t in 0..CLIENT_THREADS {
            let reference_topk = &reference_topk;
            s.spawn(move || {
                let mut client = Client::connect_tcp(addr).unwrap();
                client.ping().unwrap();
                for i in 0..40 {
                    match i % 5 {
                        4 => {
                            let u = ((t + i) % 16) as u32;
                            let got = client.top_k(u, 5).unwrap();
                            assert_eq!(got, reference_topk[u as usize], "TOPK {u} on thread {t}");
                        }
                        _ => {
                            let (u, v) = pair_for(t, i, n);
                            let got = client.pair(u, v).unwrap();
                            let want = reference_pair(u, v);
                            assert_eq!(
                                got.to_bits(),
                                want.to_bits(),
                                "PAIR {u} {v} on thread {t}: {got} vs {want}"
                            );
                        }
                    }
                }
                client.quit().unwrap();
            });
        }
    });

    // Batch and single-source answers through one more connection.
    let mut client = Client::connect_tcp(addr).unwrap();
    let pairs: Vec<(u32, u32)> = (0..20u32).map(|i| (i % n, (i * 7 + 2) % n)).collect();
    let batch = client.batch(&pairs).unwrap();
    for (&(u, v), got) in pairs.iter().zip(&batch) {
        assert_eq!(
            got.to_bits(),
            reference_pair(u, v).to_bits(),
            "BATCH ({u},{v})"
        );
    }
    let source = client.single_source(3).unwrap();
    assert_eq!(source.len(), reference_source.len());
    for (got, want) in source.iter().zip(&reference_source) {
        assert_eq!(got.to_bits(), want.to_bits(), "SOURCE row diverged");
    }

    // Stats report workers, served counts, and a live hit rate.
    let stats = client.stats_line().unwrap();
    assert!(stats.contains("workers=4"), "{stats}");
    assert!(stats.contains("cache=on"), "{stats}");
    assert!(stats.contains("cache_hits="), "{stats}");
    assert!(stats.contains("cache_hit_rate="), "{stats}");
    let hits: u64 = stats
        .split_whitespace()
        .find_map(|kv| kv.strip_prefix("cache_hits=").map(|v| v.parse().unwrap()))
        .unwrap();
    assert!(hits > 0, "hot keys must hit the shared cache: {stats}");

    // Errors come back as ERR without killing the session.
    let err = client.pair(0, 9999).unwrap_err();
    assert!(err.to_string().contains("range"), "{err}");
    client.ping().unwrap();

    // Graceful shutdown: join returns the final accounting.
    client.shutdown().unwrap();
    let report = handle.join();
    let per_worker = stats_field(&report, "per_worker").unwrap();
    assert_eq!(per_worker.split(',').count(), 4, "{report}");
    // 8 threads x 40 requests + 20 batch pairs + 1 source + 1 failed pair.
    let served: u64 = stats_field(&report, "served").unwrap().parse().unwrap();
    assert!(served >= 8 * 40 + 21, "{report}");
    assert_eq!(stats_field(&report, "cache"), Some("on"), "{report}");
    let hits: u64 = stats_field(&report, "cache_hits").unwrap().parse().unwrap();
    let misses: u64 = stats_field(&report, "cache_misses")
        .unwrap()
        .parse()
        .unwrap();
    assert!(hits > 0 && misses > 0, "{report}");
}

#[test]
fn unix_socket_serving_and_cacheless_mode() {
    let (g, idx) = setup();
    let want = idx.single_pair(&g, NodeId(1), NodeId(2));
    let engine = Arc::new(SharedEngine::from(idx));
    let path = std::env::temp_dir().join(format!("sling_server_smoke_{}.sock", std::process::id()));
    let handle = serve(
        engine,
        Arc::new(g),
        Listener::bind_unix(&path).unwrap(),
        ServerConfig {
            workers: 2,
            cache_capacity: 0, // cacheless: direct engine path
            cache_shards: 0,
            ..ServerConfig::default()
        },
    )
    .unwrap();
    assert!(handle.local_addr().is_none());
    let mut client = Client::connect_unix(&path).unwrap();
    let got = client.pair(2, 1).unwrap(); // canonicalized server-side
    assert_eq!(got.to_bits(), want.to_bits());
    let stats = client.stats_line().unwrap();
    assert!(stats.contains("cache=off"), "{stats}");
    client.shutdown().unwrap();
    let report = handle.join();
    assert_eq!(stats_field(&report, "cache"), Some("off"), "{report}");
    assert_eq!(stats_field(&report, "served"), Some("1"), "{report}");
    assert!(!path.exists(), "socket file must be removed on shutdown");
}

#[test]
fn mmap_backend_serves_identically_with_prefetch() {
    let (g, idx) = setup();
    let dir = std::env::temp_dir().join(format!("sling_server_mmap_{}", std::process::id()));
    std::fs::create_dir_all(&dir).unwrap();
    let path = dir.join("index.slng");
    idx.save(&path).unwrap();
    let engine = Arc::new(SharedEngine::open_mmap(&g, &path).unwrap());
    // The server's workers prefetch through this trait method; exercise
    // it directly too (advisory, must not affect results).
    engine.store().prefetch(NodeId(0));
    let handle = serve(
        engine,
        Arc::new(g.clone()),
        Listener::bind_tcp("127.0.0.1:0").unwrap(),
        ServerConfig {
            workers: 2,
            cache_capacity: 256,
            cache_shards: 4,
            ..ServerConfig::default()
        },
    )
    .unwrap();
    let addr = handle.local_addr().unwrap();
    let mut client = Client::connect_tcp(addr).unwrap();
    for (u, v) in [(0u32, 1u32), (5, 80), (40, 7)] {
        let want = idx.single_pair(&g, NodeId(u.min(v)), NodeId(u.max(v)));
        let got = client.pair(u, v).unwrap();
        assert_eq!(got.to_bits(), want.to_bits(), "mmap-served ({u},{v})");
    }
    client.shutdown().unwrap();
    handle.join();
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn shutdown_drains_despite_idle_connections() {
    let (g, idx) = setup();
    let engine = Arc::new(SharedEngine::from(idx));
    let handle = serve(
        engine,
        Arc::new(g),
        Listener::bind_tcp("127.0.0.1:0").unwrap(),
        ServerConfig {
            workers: 2,
            cache_capacity: 16,
            cache_shards: 1,
            ..ServerConfig::default()
        },
    )
    .unwrap();
    let addr = handle.local_addr().unwrap();
    // Two idle connections pin both workers mid-read without ever
    // sending a request...
    let idle_a = std::net::TcpStream::connect(addr).unwrap();
    let idle_b = std::net::TcpStream::connect(addr).unwrap();
    std::thread::sleep(std::time::Duration::from_millis(50));
    // ...a third client can still be served (queued until a worker
    // wakes) after shutdown is initiated from the handle side; the join
    // must return promptly instead of hanging on the idle readers.
    let (done_tx, done_rx) = std::sync::mpsc::channel();
    let shutdown_thread = std::thread::spawn(move || {
        let report = handle.shutdown();
        let per_worker = stats_field(&report, "per_worker").unwrap();
        done_tx.send(per_worker.split(',').count()).unwrap();
    });
    let workers = done_rx
        .recv_timeout(std::time::Duration::from_secs(10))
        .expect("shutdown hung on idle connections");
    assert_eq!(workers, 2);
    shutdown_thread.join().unwrap();
    drop(idle_a);
    drop(idle_b);
}

#[test]
fn idle_connection_cannot_starve_a_single_worker() {
    let (g, idx) = setup();
    let want = idx.single_pair(&g, NodeId(0), NodeId(1));
    let engine = Arc::new(SharedEngine::from(idx));
    let handle = serve(
        engine,
        Arc::new(g),
        Listener::bind_tcp("127.0.0.1:0").unwrap(),
        ServerConfig {
            workers: 1,
            cache_capacity: 16,
            cache_shards: 1,
            ..ServerConfig::default()
        },
    )
    .unwrap();
    let addr = handle.local_addr().unwrap();
    // Pin the only worker with a connection that never sends anything...
    let idle = std::net::TcpStream::connect(addr).unwrap();
    std::thread::sleep(std::time::Duration::from_millis(150));
    // ...a second client must still be served (the worker parks the
    // quiet session when it sees the queue is non-empty), including the
    // SHUTDOWN that ends the server.
    let mut client = Client::connect_tcp(addr).unwrap();
    let got = client.pair(0, 1).unwrap();
    assert_eq!(got.to_bits(), want.to_bits());
    client.shutdown().unwrap();
    let report = handle.join();
    assert_eq!(stats_field(&report, "served"), Some("1"), "{report}");
    drop(idle);
}

#[test]
fn busy_pipelining_client_cannot_starve_others() {
    let (g, idx) = setup();
    let want = idx.single_pair(&g, NodeId(0), NodeId(1));
    let engine = Arc::new(SharedEngine::from(idx));
    let handle = serve(
        engine,
        Arc::new(g),
        Listener::bind_tcp("127.0.0.1:0").unwrap(),
        ServerConfig {
            workers: 1,
            cache_capacity: 16,
            cache_shards: 1,
            ..ServerConfig::default()
        },
    )
    .unwrap();
    let addr = handle.local_addr().unwrap();
    // Hammer the single worker with back-to-back requests so its reads
    // always find data and never hit the idle-timeout branch...
    let stop = Arc::new(std::sync::atomic::AtomicBool::new(false));
    let stop_busy = Arc::clone(&stop);
    let busy = std::thread::spawn(move || {
        let mut client = Client::connect_tcp(addr).unwrap();
        while !stop_busy.load(std::sync::atomic::Ordering::SeqCst) {
            if client.ping().is_err() {
                break; // server shut down underneath us: fine
            }
        }
    });
    std::thread::sleep(std::time::Duration::from_millis(100));
    // ...a second client must still be served (the worker parks the
    // busy session between requests when the queue is non-empty).
    let (done_tx, done_rx) = std::sync::mpsc::channel();
    let prober = std::thread::spawn(move || {
        let mut client = Client::connect_tcp(addr).unwrap();
        let got = client.pair(0, 1).unwrap();
        client.shutdown().unwrap();
        done_tx.send(got).unwrap();
    });
    let got = done_rx
        .recv_timeout(std::time::Duration::from_secs(10))
        .expect("busy client starved the queued one");
    assert_eq!(got.to_bits(), want.to_bits());
    stop.store(true, std::sync::atomic::Ordering::SeqCst);
    prober.join().unwrap();
    busy.join().unwrap();
    handle.join();
}

#[test]
fn malformed_requests_get_err_lines() {
    let (g, idx) = setup();
    let engine = Arc::new(SharedEngine::from(idx));
    let handle = serve(
        engine,
        Arc::new(g),
        Listener::bind_tcp("127.0.0.1:0").unwrap(),
        ServerConfig {
            workers: 1,
            cache_capacity: 16,
            cache_shards: 1,
            ..ServerConfig::default()
        },
    )
    .unwrap();
    let addr = handle.local_addr().unwrap();
    use std::io::{BufRead, BufReader, Write};
    let stream = std::net::TcpStream::connect(addr).unwrap();
    let mut reader = BufReader::new(stream);
    let mut line = String::new();
    for (raw, expect) in [
        ("FROBNICATE 1\n", "ERR "),
        ("PAIR 1\n", "ERR "),
        ("PAIR a b\n", "ERR "),
        ("PING\n", "OK pong"),
    ] {
        reader.get_mut().write_all(raw.as_bytes()).unwrap();
        reader.get_mut().flush().unwrap();
        line.clear();
        reader.read_line(&mut line).unwrap();
        assert!(line.starts_with(expect), "{raw:?} -> {line:?}");
    }
    drop(reader);
    let mut client = Client::connect_tcp(addr).unwrap();
    client.shutdown().unwrap();
    handle.join();
}

#[test]
fn metrics_exposition_round_trips_with_live_families() {
    let (g, idx) = setup();
    let engine = Arc::new(SharedEngine::from(idx));
    let handle = serve(
        engine,
        Arc::new(g.clone()),
        Listener::bind_tcp("127.0.0.1:0").unwrap(),
        ServerConfig {
            workers: 2,
            cache_capacity: 256,
            cache_shards: 2,
            // Everything is "slow": the slow-query log must fill.
            slow_query_us: 1,
            ..ServerConfig::default()
        },
    )
    .unwrap();
    let addr = handle.local_addr().unwrap();
    let n = g.num_nodes() as u32;

    let mut client = Client::connect_tcp(addr).unwrap();
    for i in 0..32u32 {
        // Repeat a hot pair so the shared result cache records hits.
        let (u, v) = if i % 2 == 0 {
            (3, 77 % n)
        } else {
            (i % n, (i * 7 + 1) % n)
        };
        client.pair(u, v).unwrap();
    }
    client.single_source(5).unwrap();
    client.top_k(3, 4).unwrap();

    let text = client.metrics().unwrap();
    assert!(text.ends_with('\n'), "payload must be newline-terminated");
    // Prometheus text shape: every family has HELP and TYPE lines, and
    // every non-comment line is `name[{labels}] value`.
    let mut families = 0usize;
    for line in text.lines() {
        if let Some(rest) = line.strip_prefix("# TYPE ") {
            families += 1;
            let mut parts = rest.split_ascii_whitespace();
            let name = parts.next().unwrap();
            assert!(
                text.contains(&format!("# HELP {name} ")),
                "no HELP for {name}"
            );
            assert!(
                matches!(parts.next(), Some("counter" | "gauge" | "histogram")),
                "bad TYPE line {line:?}"
            );
        } else if !line.starts_with('#') {
            let mut parts = line.split_ascii_whitespace();
            let (name, value) = (parts.next().unwrap(), parts.next().unwrap());
            assert!(parts.next().is_none(), "trailing tokens in {line:?}");
            assert!(!name.is_empty());
            value
                .parse::<f64>()
                .unwrap_or_else(|_| panic!("bad value in {line:?}"));
        }
    }
    assert!(families >= 20, "only {families} families in:\n{text}");

    let metric = |name: &str| -> u64 {
        text.lines()
            .find(|l| l.split_ascii_whitespace().next() == Some(name))
            .unwrap_or_else(|| panic!("{name} missing from exposition"))
            .split_ascii_whitespace()
            .nth(1)
            .unwrap()
            .parse::<f64>()
            .unwrap() as u64
    };
    // Server family: 32 pairs + 1 source + 1 topk.
    assert_eq!(metric("sling_server_requests_total"), 34);
    assert_eq!(metric("sling_server_request_ns_count"), 34);
    // Cache family: the repeated hot pair must have hit.
    assert!(
        metric("sling_cache_hits_total") > 0,
        "no cache hits:\n{text}"
    );
    // Kernel-stage histograms: pair traffic exercises fetch+merge, the
    // source query exercises propagation.
    assert!(metric("sling_query_stage_entry_fetch_ns_count") > 0);
    assert!(metric("sling_query_stage_merge_ns_count") > 0);
    assert!(metric("sling_query_stage_propagate_ns_count") > 0);
    // Process-wide kernel + lifecycle families are registered.
    assert!(text.contains("sling_kernel_merge_linear_total"));
    assert!(text.contains("sling_lifecycle_promotions_total"));
    assert!(text.contains("sling_index_epoch"));

    // Slow-query log: threshold 1 µs admits essentially everything, the
    // ring is bounded, and records are structured one-liners.
    assert!(metric("sling_slow_queries_total") > 0);
    let slow = client.slow_queries().unwrap();
    assert!(!slow.is_empty(), "slow log empty despite 1 µs threshold");
    for line in slow.lines() {
        assert!(line.starts_with("slow verb="), "bad record {line:?}");
        assert!(line.contains(" total_us="), "bad record {line:?}");
        assert!(line.contains(" generation=static "), "bad record {line:?}");
    }

    // STATS must agree with the registry on the served count (same
    // underlying handles).
    let stats = client.stats_line().unwrap();
    assert!(stats.contains("served=34"), "{stats}");

    client.shutdown().unwrap();
    handle.join();
}

#[test]
fn slow_query_log_disabled_at_zero_threshold() {
    let (g, idx) = setup();
    let engine = Arc::new(SharedEngine::from(idx));
    let handle = serve(
        engine,
        Arc::new(g),
        Listener::bind_tcp("127.0.0.1:0").unwrap(),
        ServerConfig {
            workers: 1,
            cache_capacity: 16,
            cache_shards: 1,
            slow_query_us: 0,
            ..ServerConfig::default()
        },
    )
    .unwrap();
    let addr = handle.local_addr().unwrap();
    let mut client = Client::connect_tcp(addr).unwrap();
    for i in 0..8u32 {
        client.pair(i % 4, (i * 3 + 1) % 7).unwrap();
    }
    assert_eq!(client.slow_queries().unwrap(), "");
    client.shutdown().unwrap();
    handle.join();
}
