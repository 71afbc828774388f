//! Protocol-framing tests for the readiness loop: responses must be
//! **bit-identical** no matter how request bytes are fragmented across
//! reads (the epoll loop frames lines incrementally from whatever
//! arrives), and malformed or oversized lines must answer `ERR` without
//! desyncing the requests that follow them on the same connection.

use std::io::{BufRead, BufReader, Read, Write};
use std::net::{SocketAddr, TcpStream};
use std::sync::{Arc, OnceLock};
use std::time::Duration;

use proptest::prelude::*;
use sling_core::{SharedEngine, SlingConfig, SlingIndex};
use sling_graph::generators::barabasi_albert;
use sling_graph::{DiGraph, NodeId};
use sling_server::{serve, stats_field, Client, Listener, ServerConfig};

const NODES: u32 = 120;

fn fixture() -> (DiGraph, SlingIndex) {
    let g = barabasi_albert(NODES as usize, 3, 41).unwrap();
    let config = SlingConfig::from_epsilon(0.6, 0.1)
        .with_seed(7)
        .with_enhancement(true);
    let idx = SlingIndex::build(&g, &config).unwrap();
    (g, idx)
}

/// One shared server for the fragmentation tests; it serves for the
/// whole test process (each case only opens a fresh connection).
fn server_addr() -> SocketAddr {
    static ADDR: OnceLock<SocketAddr> = OnceLock::new();
    *ADDR.get_or_init(|| {
        let (g, idx) = fixture();
        let engine: Arc<SharedEngine<_>> = Arc::new(idx.into_shared_engine());
        let handle = serve(
            engine,
            Arc::new(g),
            Listener::bind_tcp("127.0.0.1:0").unwrap(),
            ServerConfig {
                workers: 2,
                cache_capacity: 512,
                cache_shards: 4,
                ..ServerConfig::default()
            },
        )
        .unwrap();
        let addr = handle.local_addr().unwrap();
        std::mem::forget(handle);
        addr
    })
}

/// Map a generated `(kind, a, b)` triple to a request line (no
/// trailing newline). Kinds 4–6 are deliberately out-of-range or
/// malformed so error responses are exercised mid-stream too.
fn request_line(kind: u8, a: u32, b: u32) -> String {
    match kind % 7 {
        0 => format!("PAIR {} {}", a % NODES, b % NODES),
        1 => format!("SOURCE {}", a % NODES),
        2 => format!("TOPK {} {}", a % NODES, 1 + b % 8),
        3 => format!(
            "BATCH {},{} {},{}",
            a % NODES,
            b % NODES,
            b % NODES,
            a % NODES
        ),
        4 => "PING".to_string(),
        5 => format!("PAIR {a} {b}"),
        _ => format!("FROB {a} {b}"),
    }
}

/// Write `payload` split at the given chunk sizes (with occasional
/// pauses so the server really observes separate reads), then collect
/// `responses` newline-terminated reply lines.
fn send_in_chunks(
    addr: SocketAddr,
    payload: &[u8],
    splits: &[usize],
    responses: usize,
) -> Vec<String> {
    let mut sock = TcpStream::connect(addr).unwrap();
    sock.set_nodelay(true).unwrap();
    let mut off = 0;
    for (i, &len) in splits.iter().enumerate() {
        if off >= payload.len() {
            break;
        }
        let end = (off + len.max(1)).min(payload.len());
        sock.write_all(&payload[off..end]).unwrap();
        off = end;
        if i % 3 == 2 {
            std::thread::sleep(Duration::from_micros(300));
        }
    }
    if off < payload.len() {
        sock.write_all(&payload[off..]).unwrap();
    }
    let mut reader = BufReader::new(sock);
    (0..responses)
        .map(|_| {
            let mut line = String::new();
            reader.read_line(&mut line).unwrap();
            assert!(line.ends_with('\n'), "truncated response: {line:?}");
            line
        })
        .collect()
}

proptest! {
    #![proptest_config(ProptestConfig { cases: 16, ..ProptestConfig::default() })]

    #[test]
    fn random_fragmentation_is_bit_identical_to_whole_line(
        reqs in proptest::collection::vec((0u8..7, 0u32..400, 0u32..400), 1..12),
        splits in proptest::collection::vec(1usize..40, 1..64),
    ) {
        let addr = server_addr();
        let lines: Vec<String> = reqs.iter().map(|&(k, a, b)| request_line(k, a, b)).collect();
        let payload: Vec<u8> = lines
            .iter()
            .flat_map(|l| l.bytes().chain([b'\n']))
            .collect();
        let whole = send_in_chunks(addr, &payload, &[payload.len()], lines.len());
        let fragmented = send_in_chunks(addr, &payload, &splits, lines.len());
        prop_assert_eq!(whole, fragmented);
    }
}

#[test]
fn byte_at_a_time_delivery_is_bit_identical_to_whole_line() {
    let addr = server_addr();
    let payload = b"PAIR 3 77\nTOPK 3 5\nPING\nSOURCE 9\nPAIR 500 1\nNOPE\nPAIR 77 3\n";
    let whole = send_in_chunks(addr, payload, &[payload.len()], 7);
    let trickled = send_in_chunks(addr, payload, &vec![1; payload.len()], 7);
    assert_eq!(whole, trickled);
    assert!(whole[0].starts_with("OK "));
    assert!(whole[4].starts_with("ERR "));
    assert!(whole[5].starts_with("ERR "));
    // Symmetric pair after the errors: same score, stream still in sync.
    assert_eq!(whole[0], whole[6]);
}

/// A `TOPK` whose `k` dwarfs the node count — up to `u64::MAX` — answers
/// exactly like `k = n`: the selection clamps `k` to the candidates
/// before sizing its heap. The server keeps serving afterwards.
#[test]
fn huge_topk_k_answers_like_k_equals_n_and_keeps_serving() {
    let addr = server_addr();
    let payload =
        format!("TOPK 0 {NODES}\nTOPK 0 1099511627776\nTOPK 0 18446744073709551615\nPING\n");
    let lines = send_in_chunks(addr, payload.as_bytes(), &[payload.len()], 4);
    assert!(lines[0].starts_with("OK "), "got {:?}", lines[0]);
    assert_eq!(lines[1], lines[0]);
    assert_eq!(lines[2], lines[0]);
    assert_eq!(lines[3], "OK pong\n");

    // The k = n answer is the local index's, bit for bit.
    let (g, idx) = fixture();
    let want: Vec<(u32, u64)> = idx
        .top_k(&g, NodeId(0), NODES as usize)
        .into_iter()
        .map(|(v, s)| (v.0, s.to_bits()))
        .collect();
    let mut client = Client::connect_tcp(addr).unwrap();
    let got: Vec<(u32, u64)> = client
        .top_k(0, usize::MAX)
        .unwrap()
        .into_iter()
        .map(|(v, s)| (v, s.to_bits()))
        .collect();
    assert_eq!(got, want);
    client.ping().unwrap();
}

#[test]
fn oversized_line_errors_and_resyncs() {
    let addr = server_addr();
    let reference = send_in_chunks(addr, b"PAIR 3 7\n", &[9], 1);

    let mut sock = TcpStream::connect(addr).unwrap();
    sock.write_all(b"PING\n").unwrap();
    // One line of > 1 MiB: rejected as soon as the server sees the
    // overflow, discarded through its terminating newline.
    sock.write_all(&vec![b'x'; (1 << 20) + 16]).unwrap();
    sock.write_all(b"\nPAIR 3 7\nPING\n").unwrap();
    let mut reader = BufReader::new(sock);
    let mut lines = Vec::new();
    for _ in 0..4 {
        let mut line = String::new();
        reader.read_line(&mut line).unwrap();
        lines.push(line);
    }
    assert_eq!(lines[0], "OK pong\n");
    assert_eq!(lines[1], "ERR request line too long\n");
    assert_eq!(lines[2], reference[0]);
    assert_eq!(lines[3], "OK pong\n");
}

#[test]
fn invalid_utf8_errors_without_desyncing() {
    let addr = server_addr();
    let reference = send_in_chunks(addr, b"PAIR 3 7\n", &[9], 1);

    let mut sock = TcpStream::connect(addr).unwrap();
    sock.write_all(b"PAIR \xff\xfe 3\nPING\nPAIR 3 7\n")
        .unwrap();
    let mut reader = BufReader::new(sock);
    let mut lines = Vec::new();
    for _ in 0..3 {
        let mut line = String::new();
        reader.read_line(&mut line).unwrap();
        lines.push(line);
    }
    assert!(lines[0].starts_with("ERR "), "got {:?}", lines[0]);
    assert_eq!(lines[1], "OK pong\n");
    assert_eq!(lines[2], reference[0]);
}

#[test]
fn connection_cap_rejects_with_err_busy_and_frees_on_close() {
    let (g, idx) = fixture();
    let engine: Arc<SharedEngine<_>> = Arc::new(idx.into_shared_engine());
    let handle = serve(
        engine,
        Arc::new(g),
        Listener::bind_tcp("127.0.0.1:0").unwrap(),
        ServerConfig {
            workers: 1,
            cache_capacity: 64,
            cache_shards: 2,
            max_connections: 2,
            ..ServerConfig::default()
        },
    )
    .unwrap();
    let addr = handle.local_addr().unwrap();

    let mut c1 = Client::connect_tcp(addr).unwrap();
    c1.ping().unwrap();
    let mut c2 = Client::connect_tcp(addr).unwrap();
    c2.ping().unwrap();

    // Past the cap: the acceptor answers `ERR busy` and closes without
    // ever registering the socket with a worker.
    let sock = TcpStream::connect(addr).unwrap();
    let mut reader = BufReader::new(sock);
    let mut line = String::new();
    reader.read_line(&mut line).unwrap();
    assert_eq!(line.trim_end(), "ERR busy");
    let mut rest = String::new();
    reader.read_to_string(&mut rest).unwrap();
    assert!(rest.is_empty(), "rejected socket stayed open: {rest:?}");

    // Closing an in-cap connection frees its slot once the worker
    // observes the EOF.
    drop(c1);
    let mut freed = None;
    for _ in 0..500 {
        if let Ok(mut c) = Client::connect_tcp(addr) {
            if c.ping().is_ok() {
                freed = Some(c);
                break;
            }
        }
        std::thread::sleep(Duration::from_millis(5));
    }
    let mut c3 = freed.expect("slot never freed after closing a connection");

    let stats = c3.stats_line().unwrap();
    for key in [
        "open_connections=",
        "idle_connections=",
        "rejected_connections=",
        "evloop_wakeups=",
        "evloop_turns=",
    ] {
        assert!(stats.contains(key), "missing {key} in STATS: {stats}");
    }
    let rejected: u64 = stats
        .split_ascii_whitespace()
        .find_map(|kv| kv.strip_prefix("rejected_connections="))
        .unwrap()
        .parse()
        .unwrap();
    assert!(rejected >= 1, "rejection not counted: {stats}");

    drop(c2);
    drop(c3);
    let report = handle.shutdown();
    let rejected: u64 = stats_field(&report, "rejected_connections")
        .unwrap()
        .parse()
        .unwrap();
    assert!(rejected >= 1, "{report}");
}
