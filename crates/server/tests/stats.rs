//! The `STATS` wire contract and the per-server counter set: the key
//! sequence clients parse, `STATS` agreeing with `METRICS` key by key,
//! and two recording servers in one process counting only their own
//! traffic.

use std::path::PathBuf;
use std::sync::Arc;

use sling_core::{Admission, SharedEngine, SlingConfig, SlingIndex};
use sling_graph::generators::barabasi_albert;
use sling_graph::DiGraph;
use sling_server::{serve, Client, Listener, ServerConfig, ServerHandle};

fn fixture() -> (DiGraph, SlingIndex) {
    let g = barabasi_albert(120, 3, 41).unwrap();
    let config = SlingConfig::from_epsilon(0.6, 0.1)
        .with_seed(7)
        .with_enhancement(true);
    let idx = SlingIndex::build(&g, &config).unwrap();
    (g, idx)
}

/// A fresh directory for one test's trace captures.
fn trace_dir(tag: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("sling_stats_{tag}_{}", std::process::id()));
    std::fs::create_dir_all(&dir).unwrap();
    dir
}

fn start(config: ServerConfig) -> (ServerHandle, Client) {
    let (g, idx) = fixture();
    let handle = serve(
        Arc::new(SharedEngine::from(idx)),
        Arc::new(g),
        Listener::bind_tcp("127.0.0.1:0").unwrap(),
        config,
    )
    .unwrap();
    let client = Client::connect_tcp(handle.local_addr().unwrap()).unwrap();
    (handle, client)
}

fn keys(body: &str) -> Vec<&str> {
    body.split_ascii_whitespace()
        .map(|kv| kv.split_once('=').map_or(kv, |(k, _)| k))
        .collect()
}

/// The value of one `STATS` key, parsed as `T`.
fn value<T: std::str::FromStr>(body: &str, key: &str) -> T {
    body.split_ascii_whitespace()
        .find_map(|kv| kv.strip_prefix(key)?.strip_prefix('='))
        .unwrap_or_else(|| panic!("no {key} in {body}"))
        .parse()
        .unwrap_or_else(|_| panic!("{key} does not parse in {body}"))
}

/// A sample of the Prometheus exposition: `name value` on its own line.
fn sample(prom: &str, name: &str) -> f64 {
    prom.lines()
        .find_map(|l| l.strip_prefix(name)?.strip_prefix(' '))
        .unwrap_or_else(|| panic!("no {name} sample in\n{prom}"))
        .parse()
        .unwrap()
}

/// Clients (`perfbench`, `bench-serve`, CI) parse `STATS` by key name,
/// so its keys, their order and the sections `trace=off`/`cache=off`
/// close are wire contract.
#[test]
fn stats_keys_are_pinned() {
    let dir = trace_dir("wire");
    let (handle, mut client) = start(ServerConfig {
        workers: 2,
        cache_capacity: 64,
        cache_shards: 2,
        record_path: Some(dir.join("capture.trace")),
        ..ServerConfig::default()
    });
    client.pair(1, 2).unwrap();
    let stats = client.stats_line().unwrap();
    assert_eq!(
        keys(&stats),
        "workers served index_generation index_epoch swaps reload_failures \
         last_swap_unix_ms rollbacks quarantined runtime_errors shed deadline_exceeded \
         trace trace_records trace_dropped trace_bytes latency_count latency_p50_us \
         latency_p99_us latency_p999_us per_worker open_connections idle_connections \
         rejected_connections evloop_wakeups evloop_turns cache cache_entries \
         cache_capacity cache_shards cache_hits cache_misses cache_evictions \
         cache_hit_rate cache_admission cache_admission_rejects resident_bytes"
            .split_ascii_whitespace()
            .collect::<Vec<_>>(),
        "{stats}"
    );
    assert_eq!(value::<String>(&stats, "trace"), "on");
    assert_eq!(value::<String>(&stats, "cache"), "on");
    client.shutdown().unwrap();
    handle.join();

    let (handle, mut client) = start(ServerConfig {
        workers: 1,
        cache_capacity: 0,
        ..ServerConfig::default()
    });
    let stats = client.stats_line().unwrap();
    assert_eq!(
        keys(&stats),
        "workers served index_generation index_epoch swaps reload_failures \
         last_swap_unix_ms rollbacks quarantined runtime_errors shed deadline_exceeded \
         trace latency_count latency_p50_us latency_p99_us latency_p999_us per_worker \
         open_connections idle_connections rejected_connections evloop_wakeups \
         evloop_turns cache resident_bytes"
            .split_ascii_whitespace()
            .collect::<Vec<_>>(),
        "{stats}"
    );
    assert_eq!(value::<String>(&stats, "trace"), "off");
    assert_eq!(value::<String>(&stats, "cache"), "off");
    client.shutdown().unwrap();
    handle.join();
    std::fs::remove_dir_all(dir).ok();
}

/// Two recording servers in one process: the idle one's trace counters
/// read 0 in both `STATS` and `METRICS`, whatever the busy one served.
#[test]
fn recording_servers_count_only_their_own_traffic() {
    let dir = trace_dir("isolation");
    let (busy, mut busy_client) = start(ServerConfig {
        workers: 1,
        record_path: Some(dir.join("busy.trace")),
        ..ServerConfig::default()
    });
    let (idle, mut idle_client) = start(ServerConfig {
        workers: 1,
        record_path: Some(dir.join("idle.trace")),
        ..ServerConfig::default()
    });
    for i in 0..25u32 {
        busy_client.pair(i % 7, 20 + i % 5).unwrap();
    }
    let busy_stats = busy_client.stats_line().unwrap();
    assert_eq!(
        value::<u64>(&busy_stats, "trace_records"),
        25,
        "{busy_stats}"
    );
    assert_eq!(
        sample(&busy_client.metrics().unwrap(), "sling_trace_records_total"),
        25.0
    );

    let idle_stats = idle_client.stats_line().unwrap();
    assert_eq!(
        value::<u64>(&idle_stats, "trace_records"),
        0,
        "{idle_stats}"
    );
    assert_eq!(
        sample(&idle_client.metrics().unwrap(), "sling_trace_records_total"),
        0.0
    );
    busy_client.shutdown().unwrap();
    idle_client.shutdown().unwrap();
    busy.join();
    idle.join();
    std::fs::remove_dir_all(dir).ok();
}

/// The `METRICS` series each numeric `STATS` key reads, by key.
const SERIES: &[(&str, &str)] = &[
    ("served", "sling_server_requests_total"),
    ("index_epoch", "sling_index_epoch"),
    ("swaps", "sling_index_swaps_total"),
    ("reload_failures", "sling_index_reload_failures_total"),
    ("last_swap_unix_ms", "sling_index_last_swap_unix_ms"),
    ("rollbacks", "sling_rollbacks_total"),
    ("quarantined", "sling_index_quarantined"),
    ("runtime_errors", "sling_index_runtime_errors"),
    ("shed", "sling_requests_shed_total"),
    ("deadline_exceeded", "sling_requests_deadline_total"),
    ("trace_records", "sling_trace_records_total"),
    ("trace_dropped", "sling_trace_records_dropped_total"),
    ("trace_bytes", "sling_trace_bytes_total"),
    ("latency_count", "sling_server_request_ns_count"),
    ("open_connections", "sling_server_open_connections"),
    (
        "rejected_connections",
        "sling_server_rejected_connections_total",
    ),
    ("cache_entries", "sling_cache_entries"),
    ("cache_capacity", "sling_cache_capacity"),
    ("cache_shards", "sling_cache_shards"),
    ("cache_hits", "sling_cache_hits_total"),
    ("cache_misses", "sling_cache_misses_total"),
    ("cache_evictions", "sling_cache_evictions_total"),
    (
        "cache_admission_rejects",
        "sling_cache_admission_rejects_total",
    ),
    ("resident_bytes", "sling_index_resident_bytes"),
];

/// The per-worker `STATS` lists and the series each sums to.
const PER_WORKER: &[(&str, &str)] = &[
    ("per_worker", "sling_server_requests_total"),
    ("evloop_wakeups", "sling_evloop_wakeups_total"),
    ("evloop_turns", "sling_evloop_turns_total"),
];

/// The body `shutdown()` returns and the registry read after it agree
/// on every numeric key: each reads a series, lists a series' per-worker
/// shards, or is derived from series; only the four labels are not.
#[test]
fn final_stats_body_agrees_with_the_registry() {
    let dir = trace_dir("agree");
    let (handle, mut client) = start(ServerConfig {
        workers: 2,
        cache_capacity: 64,
        cache_shards: 4,
        cache_admission: Admission::TinyLfu,
        record_path: Some(dir.join("capture.trace")),
        ..ServerConfig::default()
    });
    let registry = handle.metrics_registry();
    for _ in 0..20 {
        client.pair(3, 77).unwrap();
    }
    client.single_source(3).unwrap();
    client.top_k(5, 4).unwrap();
    client.batch(&[(1, 2), (3, 77), (9, 40)]).unwrap();
    let body = handle.shutdown();
    let prom = registry.render_prometheus();

    let mut mapped = vec!["index_generation", "trace", "cache", "cache_admission"];
    assert_eq!(value::<String>(&body, "index_generation"), "static");
    assert_eq!(value::<String>(&body, "trace"), "on");
    assert_eq!(value::<String>(&body, "cache"), "on");
    assert_eq!(value::<String>(&body, "cache_admission"), "tinylfu");
    for &(key, series) in SERIES {
        assert_eq!(value::<f64>(&body, key), sample(&prom, series), "{key}");
        mapped.push(key);
    }
    for &(key, series) in PER_WORKER {
        let list: String = value(&body, key);
        let shards: Vec<u64> = list.split(',').map(|v| v.parse().unwrap()).collect();
        assert_eq!(shards.len(), 2, "{key}={list}");
        assert_eq!(
            shards.iter().sum::<u64>() as f64,
            sample(&prom, series),
            "{key}"
        );
        mapped.push(key);
    }
    assert_eq!(value::<usize>(&body, "workers"), 2);
    let latency = registry
        .histogram_report("sling_server_request_ns")
        .unwrap();
    for (key, want) in [
        ("latency_p50_us", latency.p50_us),
        ("latency_p99_us", latency.p99_us),
        ("latency_p999_us", latency.p999_us),
    ] {
        assert_eq!(value::<String>(&body, key), format!("{want:.1}"), "{key}");
        mapped.push(key);
    }
    let idle = sample(&prom, "sling_server_open_connections")
        - sample(&prom, "sling_server_active_connections");
    assert_eq!(value::<f64>(&body, "idle_connections"), idle.max(0.0));
    let (hits, misses) = (
        sample(&prom, "sling_cache_hits_total"),
        sample(&prom, "sling_cache_misses_total"),
    );
    assert_eq!(
        value::<String>(&body, "cache_hit_rate"),
        format!("{:.4}", hits / (hits + misses))
    );
    mapped.extend(["workers", "idle_connections", "cache_hit_rate"]);
    for key in keys(&body) {
        assert!(mapped.contains(&key), "{key} is not mapped to a series");
    }

    // The traffic moved the numbers compared above.
    assert_eq!(value::<u64>(&body, "served"), 25, "{body}");
    assert!(value::<u64>(&body, "cache_hits") >= 19, "{body}");
    assert_eq!(value::<u64>(&body, "trace_records"), 25, "{body}");
    assert!(value::<u64>(&body, "trace_bytes") > 0, "{body}");
    assert_eq!(value::<u64>(&body, "latency_count"), 25, "{body}");
    std::fs::remove_dir_all(dir).ok();
}
