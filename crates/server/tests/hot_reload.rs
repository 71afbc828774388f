//! Hot-reload tests: a loopback server must answer continuously while
//! index generations promote underneath it — every response bit-identical
//! to one of the live generations, no torn reads, caches provably
//! invalidated at each swap — and the `RELOAD` / watcher plumbing must
//! report the generation it serves.

use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::Arc;

use sling_core::lifecycle::GenerationStore;
use sling_core::{
    CompressOptions, FormatVersion, Residency, SharedEngine, SlingConfig, SlingError, SlingIndex,
};
use sling_graph::generators::barabasi_albert;
use sling_graph::{DiGraph, NodeId};
use sling_server::{
    serve, serve_reloadable, stats_field, Client, Listener, ReloadableEngine, ServerConfig,
    ServerHandle,
};

const CLIENT_THREADS: usize = 8;

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
    let dir = std::env::temp_dir().join(format!("sling_hot_reload_{tag}_{}", std::process::id()));
    std::fs::remove_dir_all(&dir).ok();
    dir
}

fn mem_opener(g: &DiGraph, p: &Path) -> Result<SharedEngine<sling_core::hp::HpArena>, SlingError> {
    SlingIndex::load(g, p).map(SlingIndex::into_shared_engine)
}

fn start_reloadable(
    store: &GenerationStore,
    config: ServerConfig,
) -> (ServerHandle, std::net::SocketAddr) {
    let reloadable = ReloadableEngine::watching_store(store.clone(), None, mem_opener).unwrap();
    let handle = serve_reloadable(
        Arc::new(reloadable),
        Listener::bind_tcp("127.0.0.1:0").unwrap(),
        config,
    )
    .unwrap();
    let addr = handle.local_addr().unwrap();
    (handle, addr)
}

/// 8 client threads hammer hot pairs while the main thread publishes and
/// promotes generations repeatedly (alternating between two builds whose
/// scores differ bit-wise). Every answer must be bit-identical to one of
/// the two live generations — no torn reads, no errors — and after the
/// final swap every hot pair must answer from the *new* generation,
/// which proves the result cache cannot serve hits computed against a
/// retired index.
#[test]
fn swap_under_load_answers_from_a_live_generation_only() {
    let g = fixture();
    let n = g.num_nodes() as u32;
    let idx_a = build(&g, 7);
    let idx_b = build(&g, 8);

    // Hot pairs where the two generations provably disagree bit-wise, so
    // a stale cache hit (or a torn read) cannot masquerade as correct.
    let canon = |u: u32, v: u32| (u.min(v), u.max(v));
    let mut hot: Vec<(u32, u32)> = Vec::new();
    let mut score_a: Vec<f64> = Vec::new();
    let mut score_b: Vec<f64> = Vec::new();
    for i in 0..64u32 {
        let (u, v) = canon(i % n, (i * 7 + 1) % n);
        let a = idx_a.single_pair(&g, NodeId(u), NodeId(v));
        let b = idx_b.single_pair(&g, NodeId(u), NodeId(v));
        if a.to_bits() != b.to_bits() {
            hot.push((u, v));
            score_a.push(a);
            score_b.push(b);
        }
    }
    assert!(
        hot.len() >= 16,
        "fixture too agreeable: only {} distinguishing pairs",
        hot.len()
    );

    let root = tmp_root("swap");
    let store = GenerationStore::open(&root).unwrap();
    store
        .promote(store.publish_index(&idx_a, Some(&g)).unwrap())
        .unwrap();

    let (handle, addr) = start_reloadable(
        &store,
        ServerConfig {
            workers: 4,
            cache_capacity: 4096,
            cache_shards: 8,
            ..ServerConfig::default()
        },
    );

    let stop = Arc::new(AtomicBool::new(false));
    let total = Arc::new(AtomicU64::new(0));
    std::thread::scope(|s| {
        // Traffic threads: continuous queries; every answer must match
        // one of the two generations exactly. Any ERR fails the test.
        for t in 0..CLIENT_THREADS {
            let (stop, total, hot, score_a, score_b) = (
                Arc::clone(&stop),
                Arc::clone(&total),
                &hot,
                &score_a,
                &score_b,
            );
            s.spawn(move || {
                let mut client = Client::connect_tcp(addr).unwrap();
                let mut i = t; // desynchronize threads
                while !stop.load(Ordering::Relaxed) {
                    let k = i % hot.len();
                    let (u, v) = hot[k];
                    let got = client
                        .pair(u, v)
                        .unwrap_or_else(|e| panic!("request errored during swap: {e}"));
                    assert!(
                        got.to_bits() == score_a[k].to_bits()
                            || got.to_bits() == score_b[k].to_bits(),
                        "pair ({u},{v}) answered {got}, which is neither generation \
                         ({} / {})",
                        score_a[k],
                        score_b[k]
                    );
                    total.fetch_add(1, Ordering::Relaxed);
                    i += 1;
                }
                client.quit().ok();
            });
        }

        // Promotion thread (the test body): swap generations repeatedly
        // under the live traffic above. Odd rounds serve idx_b, even
        // rounds idx_a; the final round lands on idx_b.
        let mut control = Client::connect_tcp(addr).unwrap();
        let mut last_gen = String::new();
        for round in 0..5 {
            std::thread::sleep(std::time::Duration::from_millis(30));
            let next = if round % 2 == 0 { &idx_b } else { &idx_a };
            let gen = store.publish_index(next, Some(&g)).unwrap();
            store.promote(gen).unwrap();
            let (serving, swapped) = control.reload().unwrap();
            assert!(swapped, "promotion of {} did not swap", gen.dir_name());
            assert_eq!(serving, gen.dir_name());
            last_gen = serving;
        }
        std::thread::sleep(std::time::Duration::from_millis(30));

        // Cache invalidation proof: the final generation is idx_b, and
        // every hot pair was cached under earlier generations. Repeated
        // queries must now answer idx_b's scores exactly — a single
        // surviving stale hit would return idx_a's bits instead.
        for _ in 0..2 {
            for (k, &(u, v)) in hot.iter().enumerate() {
                let got = control.pair(u, v).unwrap();
                assert_eq!(
                    got.to_bits(),
                    score_b[k].to_bits(),
                    "pair ({u},{v}) served a stale hit after the final swap"
                );
            }
        }

        // STATS surfaces the serving generation and the swap count.
        let stats = control.stats_line().unwrap();
        assert!(
            stats.contains(&format!("index_generation={last_gen}")),
            "{stats}"
        );
        assert!(stats.contains("swaps=5"), "{stats}");
        assert!(stats.contains("last_swap_unix_ms="), "{stats}");
        assert!(!stats.contains("last_swap_unix_ms=0"), "{stats}");

        stop.store(true, Ordering::Relaxed);
        control.shutdown().unwrap();
    });

    let report = handle.join();
    assert_eq!(stats_field(&report, "swaps"), Some("5"), "{report}");
    assert!(
        total.load(Ordering::Relaxed) > 0,
        "traffic threads never ran"
    );
    let served: u64 = stats_field(&report, "served").unwrap().parse().unwrap();
    assert!(served > 0, "{report}");
    std::fs::remove_dir_all(&root).ok();
}

/// The `--watch` path: no `RELOAD` is ever sent; the watcher thread
/// notices the moved `CURRENT` pointer on its own and swaps, with the
/// served answers flipping to the new generation.
#[test]
fn watcher_swaps_without_an_explicit_reload() {
    let g = fixture();
    let idx_a = build(&g, 7);
    let idx_b = build(&g, 8);
    // A pair the two builds disagree on.
    let (u, v) = (0u32, 1u32);
    let a = idx_a.single_pair(&g, NodeId(u), NodeId(v));
    let b = idx_b.single_pair(&g, NodeId(u), NodeId(v));
    assert_ne!(a.to_bits(), b.to_bits(), "fixture pair must distinguish");

    let root = tmp_root("watch");
    let store = GenerationStore::open(&root).unwrap();
    store
        .promote(store.publish_index(&idx_a, Some(&g)).unwrap())
        .unwrap();
    let (handle, addr) = start_reloadable(
        &store,
        ServerConfig {
            workers: 2,
            cache_capacity: 256,
            cache_shards: 4,
            watch_interval_ms: 20,
            ..ServerConfig::default()
        },
    );
    let mut client = Client::connect_tcp(addr).unwrap();
    assert_eq!(client.pair(u, v).unwrap().to_bits(), a.to_bits());

    let gen2 = store.publish_index(&idx_b, Some(&g)).unwrap();
    store.promote(gen2).unwrap();
    // Poll until the watcher swaps (bounded; typically one interval).
    let deadline = std::time::Instant::now() + std::time::Duration::from_secs(10);
    loop {
        let got = client.pair(u, v).unwrap();
        if got.to_bits() == b.to_bits() {
            break;
        }
        assert_eq!(got.to_bits(), a.to_bits(), "neither generation's score");
        assert!(
            std::time::Instant::now() < deadline,
            "watcher never swapped to {}",
            gen2.dir_name()
        );
        std::thread::sleep(std::time::Duration::from_millis(10));
    }
    let stats = client.stats_line().unwrap();
    assert!(
        stats.contains(&format!("index_generation={}", gen2.dir_name())),
        "{stats}"
    );
    client.shutdown().unwrap();
    handle.join();
    std::fs::remove_dir_all(&root).ok();
}

/// Generations of different formats behind one mapped server: gen-0001
/// is a raw `SLNGIDX1` file, gen-0002 a lossless `SLNGIDX3` one. The
/// opener sniffs each header, so the swap lands on the compressed
/// backend and every answer afterwards is gen-0002's exact bits.
#[test]
fn mapped_server_swaps_from_a_v1_to_a_v3_generation() {
    let g = fixture();
    let n = g.num_nodes() as u32;
    let idx_a = build(&g, 7);
    let idx_b = build(&g, 8);
    let root = tmp_root("mixed_formats");
    let store = GenerationStore::open(&root).unwrap();
    store
        .promote(store.publish_index(&idx_a, Some(&g)).unwrap())
        .unwrap();
    let mapped_opener = |g: &DiGraph, p: &Path| SharedEngine::open(g, p, Residency::Mapped);
    let reloadable = ReloadableEngine::watching_store(store.clone(), None, mapped_opener).unwrap();
    let handle = serve_reloadable(
        Arc::new(reloadable),
        Listener::bind_tcp("127.0.0.1:0").unwrap(),
        ServerConfig {
            workers: 2,
            cache_capacity: 256,
            cache_shards: 4,
            ..ServerConfig::default()
        },
    )
    .unwrap();
    let mut client = Client::connect_tcp(handle.local_addr().unwrap()).unwrap();
    // Canonical (min, max) pairs: the server computes in that order.
    let pairs: Vec<(u32, u32)> = (0..40u32)
        .map(|i| (i % n, (i * 7 + 1) % n))
        .map(|(u, v)| (u.min(v), u.max(v)))
        .collect();
    for &(u, v) in &pairs {
        let want = idx_a.single_pair(&g, NodeId(u), NodeId(v));
        assert_eq!(client.pair(u, v).unwrap().to_bits(), want.to_bits());
    }

    let v3 = idx_b.to_bytes_v3(&CompressOptions::default());
    let gen2 = store
        .publish_bytes(&v3, Some(&sling_graph::binfmt::to_bytes(&g)))
        .unwrap();
    assert_eq!(store.manifest(gen2).unwrap().format, FormatVersion::V3);
    store.promote(gen2).unwrap();
    let (serving, swapped) = client.reload().unwrap();
    assert!(swapped, "promotion of the v3 generation did not swap");
    assert_eq!(serving, gen2.dir_name());

    for &(u, v) in &pairs {
        let want = idx_b.single_pair(&g, NodeId(u), NodeId(v));
        let got = client.pair(u, v).unwrap();
        assert_eq!(
            got.to_bits(),
            want.to_bits(),
            "pair ({u},{v}) after the swap"
        );
    }
    let got: Vec<(u32, u64)> = client
        .top_k(3, 5)
        .unwrap()
        .into_iter()
        .map(|(v, s)| (v, s.to_bits()))
        .collect();
    let want: Vec<(u32, u64)> = idx_b
        .top_k(&g, NodeId(3), 5)
        .into_iter()
        .map(|(v, s)| (v.0, s.to_bits()))
        .collect();
    assert_eq!(got, want);
    client.shutdown().unwrap();
    handle.join();
    std::fs::remove_dir_all(&root).ok();
}

/// Pinned servers (plain `serve`) answer `RELOAD` with `swapped=false`
/// and report the `static` generation in `STATS` and the final report.
#[test]
fn pinned_server_reload_is_a_noop() {
    let g = fixture();
    let idx = build(&g, 7);
    let handle = serve(
        Arc::new(SharedEngine::from(idx)),
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
    let mut client = Client::connect_tcp(handle.local_addr().unwrap()).unwrap();
    let (generation, swapped) = client.reload().unwrap();
    assert_eq!(generation, "static");
    assert!(!swapped);
    let stats = client.stats_line().unwrap();
    assert!(stats.contains("index_generation=static"), "{stats}");
    assert!(stats.contains("swaps=0"), "{stats}");
    client.shutdown().unwrap();
    let report = handle.join();
    assert_eq!(
        stats_field(&report, "index_generation"),
        Some("static"),
        "{report}"
    );
    assert_eq!(stats_field(&report, "swaps"), Some("0"), "{report}");
    assert_eq!(
        stats_field(&report, "last_swap_unix_ms"),
        Some("0"),
        "{report}"
    );
}

/// A store with nothing promoted refuses to start serving (there is no
/// generation to pin), and a store whose promoted generation was
/// corrupted *after* promotion keeps the old generation serving when a
/// reload fails.
#[test]
fn reload_failures_keep_the_old_generation_serving() {
    let g = fixture();
    let idx = build(&g, 7);
    let want = idx.single_pair(&g, NodeId(0), NodeId(1));

    // Nothing promoted: watching_store must refuse to start.
    let empty_root = tmp_root("empty");
    let store = GenerationStore::open(&empty_root).unwrap();
    let Err(err) = ReloadableEngine::watching_store(store.clone(), None, mem_opener) else {
        panic!("watching_store started with nothing promoted");
    };
    assert!(err.to_string().contains("promote"), "{err}");

    // Promote a good generation, start serving, then corrupt the next
    // promotion target on disk *after* promoting it: RELOAD must fail,
    // and traffic must keep flowing on the old generation.
    store
        .promote(store.publish_index(&idx, Some(&g)).unwrap())
        .unwrap();
    let (handle, addr) = start_reloadable(
        &store,
        ServerConfig {
            workers: 2,
            cache_capacity: 64,
            cache_shards: 2,
            ..ServerConfig::default()
        },
    );
    let mut client = Client::connect_tcp(addr).unwrap();
    assert_eq!(client.pair(0, 1).unwrap().to_bits(), want.to_bits());

    let gen2 = store.publish_index(&idx, Some(&g)).unwrap();
    store.promote(gen2).unwrap();
    // Corrupt gen2's payload after promotion: the opener's manifest
    // check rejects it at reload time.
    let path = store.index_path(gen2);
    let bytes = std::fs::read(&path).unwrap();
    std::fs::write(&path, &bytes[..bytes.len() / 2]).unwrap();
    let err = client.reload().unwrap_err();
    assert!(err.to_string().contains("reload failed"), "{err}");
    // Old generation still serves, bit-identically.
    assert_eq!(client.pair(0, 1).unwrap().to_bits(), want.to_bits());
    let stats = client.stats_line().unwrap();
    assert!(stats.contains("index_generation=gen-0001"), "{stats}");
    client.shutdown().unwrap();
    handle.join();
    std::fs::remove_dir_all(&empty_root).ok();
}
