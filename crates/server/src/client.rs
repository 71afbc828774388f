//! Blocking protocol client, used by the CLI `client` / `bench-serve`
//! subcommands and the loopback tests.
//!
//! One request, one response line (see the crate docs for the grammar).
//! `ERR <message>` responses surface as [`std::io::ErrorKind::InvalidData`]
//! errors carrying the server's message; the connection stays usable.
//!
//! [`RetryingClient`] wraps [`Client`] with the fault-tolerant policy
//! the crate docs' *error taxonomy* section defines: socket timeouts,
//! automatic reconnect, and bounded exponential backoff with jitter,
//! retrying **idempotent query verbs only** and only on retryable
//! errors (`ERR overloaded` / `ERR deadline` / `ERR busy` and
//! connection-level IO failures). Permanent errors — any other `ERR`,
//! malformed responses — surface immediately.

use std::io::{self, BufRead, BufReader, Read, Write};
use std::net::{SocketAddr, TcpStream, ToSocketAddrs};
use std::os::unix::net::UnixStream;
use std::path::{Path, PathBuf};
use std::sync::atomic::Ordering;
use std::time::Duration;

use sling_core::obs::CLIENT;
use sling_core::workload::trace::{parse_record, TraceRecord};

use crate::protocol::Request;
use crate::BoxConn;

/// One response to the `TRACE` wire verb (see [`Client::trace_from`]):
/// a window of the server's traffic-trace ring.
#[derive(Clone, Debug, Default)]
pub struct TraceSegment {
    /// Wall-clock capture origin (unix microseconds); record
    /// timestamps are relative to it.
    pub base_us: u64,
    /// The sequence number the server will assign next — resume
    /// polling here.
    pub next_seq: u64,
    /// Cumulative records the server has dropped (ring contention and
    /// overwrites).
    pub dropped: u64,
    /// `(sequence, record)` pairs in sequence order; record timestamps
    /// are absolute microseconds since `base_us`.
    pub records: Vec<(u64, TraceRecord)>,
}

/// Timeouts and retry policy for [`RetryingClient`] (and the `*_with`
/// constructors on [`Client`]).
#[derive(Clone, Debug)]
pub struct ClientConfig {
    /// TCP connect timeout (`None` = OS default). Unix-domain connects
    /// are local and complete immediately; the field is ignored there.
    pub connect_timeout: Option<Duration>,
    /// Socket read timeout (`None` = block forever).
    pub read_timeout: Option<Duration>,
    /// Socket write timeout (`None` = block forever).
    pub write_timeout: Option<Duration>,
    /// Retries *after* the first attempt (0 = fail on first error).
    pub max_retries: u32,
    /// First backoff delay; doubles per retry.
    pub backoff_base: Duration,
    /// Ceiling on one backoff delay (before jitter halves it at most).
    pub backoff_max: Duration,
    /// Seed for the deterministic backoff jitter.
    pub jitter_seed: u64,
}

impl Default for ClientConfig {
    fn default() -> Self {
        ClientConfig {
            connect_timeout: Some(Duration::from_secs(5)),
            read_timeout: Some(Duration::from_secs(30)),
            write_timeout: Some(Duration::from_secs(30)),
            max_retries: 4,
            backoff_base: Duration::from_millis(10),
            backoff_max: Duration::from_millis(500),
            jitter_seed: 0x5157_F00D,
        }
    }
}

/// A connected protocol client.
pub struct Client {
    reader: BufReader<BoxConn>,
    line: String,
}

impl Client {
    /// Connect over TCP.
    pub fn connect_tcp(addr: impl ToSocketAddrs) -> io::Result<Client> {
        let stream = TcpStream::connect(addr)?;
        let _ = stream.set_nodelay(true);
        Ok(Self::from_conn(Box::new(stream)))
    }

    fn connect_addrs(addrs: &[SocketAddr], config: &ClientConfig) -> io::Result<Client> {
        let mut last = None;
        for addr in addrs {
            let attempt = match config.connect_timeout {
                Some(limit) => TcpStream::connect_timeout(addr, limit),
                None => TcpStream::connect(addr),
            };
            match attempt {
                Ok(stream) => {
                    let _ = stream.set_nodelay(true);
                    stream.set_read_timeout(config.read_timeout)?;
                    stream.set_write_timeout(config.write_timeout)?;
                    return Ok(Self::from_conn(Box::new(stream)));
                }
                Err(e) => last = Some(e),
            }
        }
        Err(last.unwrap_or_else(|| {
            io::Error::new(io::ErrorKind::InvalidInput, "no address to connect to")
        }))
    }

    /// Connect over a Unix-domain socket.
    pub fn connect_unix(path: impl AsRef<Path>) -> io::Result<Client> {
        Ok(Self::from_conn(Box::new(UnixStream::connect(path)?)))
    }

    /// Connect over a Unix-domain socket with the config's read/write
    /// timeouts.
    pub fn connect_unix_with(path: impl AsRef<Path>, config: &ClientConfig) -> io::Result<Client> {
        let stream = UnixStream::connect(path)?;
        stream.set_read_timeout(config.read_timeout)?;
        stream.set_write_timeout(config.write_timeout)?;
        Ok(Self::from_conn(Box::new(stream)))
    }

    fn from_conn(conn: BoxConn) -> Client {
        Client {
            reader: BufReader::new(conn),
            line: String::new(),
        }
    }

    /// Send one request line, return the `OK` payload (without the `OK`
    /// prefix).
    fn roundtrip(&mut self, request: &str) -> io::Result<String> {
        let stream = self.reader.get_mut();
        stream.write_all(request.as_bytes())?;
        stream.write_all(b"\n")?;
        stream.flush()?;
        self.line.clear();
        if self.reader.read_line(&mut self.line)? == 0 {
            return Err(io::Error::new(
                io::ErrorKind::UnexpectedEof,
                "server closed the connection",
            ));
        }
        let response = self.line.trim_end_matches(['\n', '\r']);
        if let Some(payload) = response.strip_prefix("OK") {
            Ok(payload.trim_start().to_string())
        } else if let Some(message) = response.strip_prefix("ERR") {
            Err(io::Error::new(
                io::ErrorKind::InvalidData,
                format!("server error: {}", message.trim_start()),
            ))
        } else {
            Err(io::Error::new(
                io::ErrorKind::InvalidData,
                format!("malformed response {response:?}"),
            ))
        }
    }

    /// Single-pair SimRank score (bit-identical to the server's f64).
    pub fn pair(&mut self, u: u32, v: u32) -> io::Result<f64> {
        let payload = self.roundtrip(&Request::Pair { u, v }.encode())?;
        parse_f64(&payload)
    }

    /// Full single-source score vector from `u`.
    pub fn single_source(&mut self, u: u32) -> io::Result<Vec<f64>> {
        let payload = self.roundtrip(&Request::Source { u }.encode())?;
        parse_counted_scores(&payload)
    }

    /// Top-k most similar nodes to `u`.
    pub fn top_k(&mut self, u: u32, k: usize) -> io::Result<Vec<(u32, f64)>> {
        let payload = self.roundtrip(&Request::TopK { u, k }.encode())?;
        parse_top_k(&payload)
    }

    /// Positionally aligned scores for a batch of pairs.
    pub fn batch(&mut self, pairs: &[(u32, u32)]) -> io::Result<Vec<f64>> {
        let request = Request::Batch {
            pairs: pairs.to_vec(),
        }
        .encode();
        let payload = self.roundtrip(&request)?;
        let scores = parse_counted_scores(&payload)?;
        if scores.len() != pairs.len() {
            return Err(invalid("batch response length mismatch"));
        }
        Ok(scores)
    }

    /// Raw `key=value ..` statistics payload.
    pub fn stats_line(&mut self) -> io::Result<String> {
        self.roundtrip(&Request::Stats.encode())
    }

    /// Full Prometheus text exposition (the `METRICS` verb).
    pub fn metrics(&mut self) -> io::Result<String> {
        self.framed(&Request::Metrics.encode())
    }

    /// Recent slow-query records, one line each, oldest first (the
    /// `SLOWLOG` verb). An empty string means no queries crossed the
    /// threshold (or the log is disabled).
    pub fn slow_queries(&mut self) -> io::Result<String> {
        let payload = self.framed(&Request::Slowlog.encode())?;
        Ok(payload.trim_end_matches('\n').to_string())
    }

    /// Poll the server's traffic-trace ring (the `TRACE` verb): up to
    /// `max` retained records with sequence number `>= from`, in
    /// sequence order. Resume the next poll at
    /// [`TraceSegment::next_seq`] of the previous one; gaps in the
    /// returned sequence numbers are records the ring already
    /// overwrote. Errors with `server error: trace recording is not
    /// enabled ..` unless the server was started with recording on.
    pub fn trace_from(&mut self, from: u64, max: usize) -> io::Result<TraceSegment> {
        let payload = self.framed(&Request::Trace { from, max }.encode())?;
        let mut lines = payload.lines();
        let header = lines.next().ok_or_else(|| invalid("empty TRACE payload"))?;
        let mut seg = TraceSegment {
            base_us: 0,
            next_seq: 0,
            dropped: 0,
            records: Vec::new(),
        };
        for kv in header.split_ascii_whitespace() {
            if let Some(v) = kv.strip_prefix("base_us=") {
                seg.base_us = v.parse().map_err(|_| invalid("malformed base_us"))?;
            } else if let Some(v) = kv.strip_prefix("next_seq=") {
                seg.next_seq = v.parse().map_err(|_| invalid("malformed next_seq"))?;
            } else if let Some(v) = kv.strip_prefix("dropped=") {
                seg.dropped = v.parse().map_err(|_| invalid("malformed dropped"))?;
            }
        }
        for line in lines {
            let (seq, rest) = line
                .split_once(' ')
                .ok_or_else(|| invalid("malformed TRACE line"))?;
            let seq: u64 = seq.parse().map_err(|_| invalid("malformed TRACE seq"))?;
            // Wire lines carry absolute timestamps (delta from 0).
            let rec = parse_record(rest, 0)
                .map_err(|e| invalid(&format!("corrupt TRACE record: {e}")))?;
            seg.records.push((seq, rec));
        }
        Ok(seg)
    }

    /// Send one request whose response is length-framed: an `OK <bytes>`
    /// header line, then exactly that many payload bytes. This is how
    /// multi-line payloads travel over the one-line protocol.
    fn framed(&mut self, request: &str) -> io::Result<String> {
        let stream = self.reader.get_mut();
        stream.write_all(request.as_bytes())?;
        stream.write_all(b"\n")?;
        stream.flush()?;
        self.line.clear();
        if self.reader.read_line(&mut self.line)? == 0 {
            return Err(io::Error::new(
                io::ErrorKind::UnexpectedEof,
                "server closed the connection",
            ));
        }
        let header = self.line.trim_end_matches(['\n', '\r']);
        let len: usize = if let Some(rest) = header.strip_prefix("OK") {
            rest.trim()
                .parse()
                .map_err(|_| invalid(&format!("malformed length header {header:?}")))?
        } else if let Some(message) = header.strip_prefix("ERR") {
            return Err(io::Error::new(
                io::ErrorKind::InvalidData,
                format!("server error: {}", message.trim_start()),
            ));
        } else {
            return Err(invalid(&format!("malformed response {header:?}")));
        };
        // Grow with the bytes that arrive, never with the header's
        // claim: a forged length must not size an allocation.
        let mut payload = Vec::new();
        (&mut self.reader)
            .take(len as u64)
            .read_to_end(&mut payload)?;
        if payload.len() < len {
            return Err(io::Error::new(
                io::ErrorKind::UnexpectedEof,
                format!(
                    "framed payload truncated: header promised {len} bytes, \
                     connection closed after {}",
                    payload.len()
                ),
            ));
        }
        String::from_utf8(payload).map_err(|_| invalid("payload is not valid UTF-8"))
    }

    /// Ask the server to check for (and hot-swap to) a newer promoted
    /// index generation; `force` (`RELOAD FORCE`) swaps to it even when
    /// it is quarantined, lifting the quarantine (see the crate docs on
    /// rollback). Returns the generation now being served and whether
    /// this call swapped it in.
    pub fn reload(&mut self, force: bool) -> io::Result<(String, bool)> {
        let payload = self.roundtrip(&Request::Reload { force }.encode())?;
        let mut generation = None;
        let mut swapped = None;
        for kv in payload.split_ascii_whitespace() {
            if let Some(v) = kv.strip_prefix("generation=") {
                generation = Some(v.to_string());
            } else if let Some(v) = kv.strip_prefix("swapped=") {
                swapped = v.parse().ok();
            }
        }
        match (generation, swapped) {
            (Some(g), Some(s)) => Ok((g, s)),
            _ => Err(invalid("malformed reload response")),
        }
    }

    /// Liveness probe.
    pub fn ping(&mut self) -> io::Result<()> {
        let payload = self.roundtrip(&Request::Ping.encode())?;
        if payload == "pong" {
            Ok(())
        } else {
            Err(invalid("unexpected ping response"))
        }
    }

    /// Ask the server to drain and exit.
    pub fn shutdown(&mut self) -> io::Result<()> {
        self.roundtrip(&Request::Shutdown.encode()).map(|_| ())
    }

    /// Close this session server-side.
    pub fn quit(&mut self) -> io::Result<()> {
        self.roundtrip(&Request::Quit.encode()).map(|_| ())
    }
}

/// Where a [`RetryingClient`] reconnects to.
enum Target {
    Tcp(Vec<SocketAddr>),
    Unix(PathBuf),
}

/// Classification of a failed request: does the error taxonomy (crate
/// docs) permit retrying it, and must the connection be rebuilt first?
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
enum Disposition {
    /// Soft server rejection (`ERR overloaded` / `ERR deadline`): the
    /// connection is still healthy, retry on it after backing off.
    RetrySameConn,
    /// Connection-level failure (reset, timeout, EOF, `ERR busy`):
    /// drop the socket, reconnect, then retry.
    RetryReconnect,
    /// Permanent: surface to the caller immediately.
    Permanent,
}

/// Apply the crate-level error taxonomy to one failed request.
fn classify(err: &io::Error) -> Disposition {
    match err.kind() {
        io::ErrorKind::ConnectionReset
        | io::ErrorKind::ConnectionRefused
        | io::ErrorKind::ConnectionAborted
        | io::ErrorKind::NotConnected
        | io::ErrorKind::BrokenPipe
        | io::ErrorKind::UnexpectedEof
        | io::ErrorKind::TimedOut
        | io::ErrorKind::WouldBlock
        | io::ErrorKind::Interrupted => return Disposition::RetryReconnect,
        io::ErrorKind::InvalidData => {}
        _ => return Disposition::Permanent,
    }
    // `Client` surfaces `ERR <msg>` as InvalidData "server error: <msg>".
    let Some(message) = err
        .to_string()
        .strip_prefix("server error: ")
        .map(str::to_string)
    else {
        return Disposition::Permanent;
    };
    let first = message.split_ascii_whitespace().next().unwrap_or("");
    match first {
        // Soft rejections: the server kept the connection open.
        "overloaded" | "deadline" => Disposition::RetrySameConn,
        // The acceptor answers `ERR busy` and closes; reconnect.
        "busy" => Disposition::RetryReconnect,
        _ => Disposition::Permanent,
    }
}

/// A [`Client`] wrapper implementing the retry contract from the crate
/// docs: idempotent query verbs (`PAIR`, `SOURCE`, `TOPK`, `BATCH`,
/// `PING`) are retried on retryable errors with bounded exponential
/// backoff plus deterministic jitter, reconnecting as needed. Retries
/// and reconnects are counted into [`sling_core::obs::CLIENT`], so an
/// in-process client shows up in the same `METRICS` exposition as the
/// server it talks to.
pub struct RetryingClient {
    target: Target,
    config: ClientConfig,
    client: Option<Client>,
    rng: u64,
}

impl RetryingClient {
    /// Connect over TCP (resolving `addr` once, up front).
    pub fn connect_tcp(addr: impl ToSocketAddrs, config: ClientConfig) -> io::Result<Self> {
        let addrs: Vec<SocketAddr> = addr.to_socket_addrs()?.collect();
        if addrs.is_empty() {
            return Err(io::Error::new(
                io::ErrorKind::InvalidInput,
                "address resolved to nothing",
            ));
        }
        let mut this = Self::new(Target::Tcp(addrs), config);
        this.ensure_connected()?;
        Ok(this)
    }

    /// Connect over a Unix-domain socket.
    pub fn connect_unix(path: impl AsRef<Path>, config: ClientConfig) -> io::Result<Self> {
        let mut this = Self::new(Target::Unix(path.as_ref().to_path_buf()), config);
        this.ensure_connected()?;
        Ok(this)
    }

    fn new(target: Target, config: ClientConfig) -> Self {
        let rng = config.jitter_seed | 1;
        RetryingClient {
            target,
            config,
            client: None,
            rng,
        }
    }

    fn ensure_connected(&mut self) -> io::Result<&mut Client> {
        if self.client.is_none() {
            let fresh = match &self.target {
                Target::Tcp(addrs) => Client::connect_addrs(addrs, &self.config)?,
                Target::Unix(path) => Client::connect_unix_with(path, &self.config)?,
            };
            self.client = Some(fresh);
        }
        match self.client.as_mut() {
            Some(client) => Ok(client),
            // Unreachable: the slot was filled just above.
            None => Err(io::Error::other("connection slot empty")),
        }
    }

    /// Next backoff delay: exponential in the retry ordinal, capped at
    /// `backoff_max`, uniformly jittered into `[delay/2, delay]`.
    fn backoff(&mut self, attempt: u32) -> Duration {
        let exp = self
            .config
            .backoff_base
            .saturating_mul(1u32 << attempt.min(16));
        let capped = exp.min(self.config.backoff_max).as_micros() as u64;
        // xorshift64 step for the jitter draw.
        let mut x = self.rng;
        x ^= x << 13;
        x ^= x >> 7;
        x ^= x << 17;
        self.rng = x;
        let jittered = capped / 2 + x % (capped / 2).max(1);
        Duration::from_micros(jittered)
    }

    /// Run one idempotent request under the retry policy.
    fn with_retry<T>(&mut self, mut op: impl FnMut(&mut Client) -> io::Result<T>) -> io::Result<T> {
        let mut attempt = 0u32;
        loop {
            let result = match self.ensure_connected() {
                Ok(client) => op(client),
                Err(e) => Err(e),
            };
            let err = match result {
                Ok(v) => return Ok(v),
                Err(e) => e,
            };
            let disposition = classify(&err);
            if disposition == Disposition::Permanent || attempt >= self.config.max_retries {
                if disposition != Disposition::Permanent {
                    CLIENT.giveups.fetch_add(1, Ordering::Relaxed);
                }
                return Err(err);
            }
            if disposition == Disposition::RetryReconnect {
                self.client = None;
                CLIENT.reconnects.fetch_add(1, Ordering::Relaxed);
            }
            CLIENT.retries.fetch_add(1, Ordering::Relaxed);
            std::thread::sleep(self.backoff(attempt));
            attempt += 1;
        }
    }

    /// [`Client::pair`], retried per the policy.
    pub fn pair(&mut self, u: u32, v: u32) -> io::Result<f64> {
        self.with_retry(|c| c.pair(u, v))
    }

    /// [`Client::single_source`], retried per the policy.
    pub fn single_source(&mut self, u: u32) -> io::Result<Vec<f64>> {
        self.with_retry(|c| c.single_source(u))
    }

    /// [`Client::top_k`], retried per the policy.
    pub fn top_k(&mut self, u: u32, k: usize) -> io::Result<Vec<(u32, f64)>> {
        self.with_retry(|c| c.top_k(u, k))
    }

    /// [`Client::batch`], retried per the policy.
    pub fn batch(&mut self, pairs: &[(u32, u32)]) -> io::Result<Vec<f64>> {
        self.with_retry(|c| c.batch(pairs))
    }

    /// [`Client::ping`], retried per the policy.
    pub fn ping(&mut self) -> io::Result<()> {
        self.with_retry(|c| c.ping())
    }

    /// The underlying connection, for non-idempotent verbs (`RELOAD`,
    /// `SHUTDOWN`, ..) that must **not** be retried blindly. Reconnects
    /// first if the previous request tore the connection down.
    pub fn raw(&mut self) -> io::Result<&mut Client> {
        self.ensure_connected()
    }
}

fn invalid(message: &str) -> io::Error {
    io::Error::new(io::ErrorKind::InvalidData, message.to_string())
}

fn parse_f64(raw: &str) -> io::Result<f64> {
    raw.trim()
        .parse()
        .map_err(|_| invalid(&format!("cannot parse score {raw:?}")))
}

fn parse_tok<T: std::str::FromStr>(tok: Option<&str>, what: &str) -> io::Result<T> {
    tok.ok_or_else(|| invalid(&format!("missing {what}")))?
        .parse()
        .map_err(|_| invalid(&format!("cannot parse {what}")))
}

/// Capacity to reserve for `count` items announced by a reply: never
/// more than `payload` can hold (each item takes at least two bytes, a
/// separator and a digit), so a forged count cannot abort the client on
/// allocation; it ends in the "truncated" error instead.
fn bounded_capacity(count: usize, payload: &str) -> usize {
    count.min(payload.len() / 2)
}

/// Parse `<count> <s0> <s1> ..` into a score vector.
fn parse_counted_scores(payload: &str) -> io::Result<Vec<f64>> {
    let mut tokens = payload.split_ascii_whitespace();
    let count: usize = parse_tok(tokens.next(), "score count")?;
    let mut out = Vec::with_capacity(bounded_capacity(count, payload));
    for _ in 0..count {
        out.push(parse_f64(
            tokens.next().ok_or_else(|| invalid("truncated scores"))?,
        )?);
    }
    if tokens.next().is_some() {
        return Err(invalid("trailing tokens after scores"));
    }
    Ok(out)
}

/// Parse `<count> <node>:<score> ..` into top-k items.
fn parse_top_k(payload: &str) -> io::Result<Vec<(u32, f64)>> {
    let mut tokens = payload.split_ascii_whitespace();
    let count: usize = parse_tok(tokens.next(), "top-k count")?;
    let mut out = Vec::with_capacity(bounded_capacity(count, payload));
    for _ in 0..count {
        let tok = tokens
            .next()
            .ok_or_else(|| invalid("truncated top-k response"))?;
        let (node, score) = tok
            .split_once(':')
            .ok_or_else(|| invalid("malformed top-k item"))?;
        out.push((parse_tok(Some(node), "node id")?, parse_f64(score)?));
    }
    Ok(out)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn server_err(msg: &str) -> io::Error {
        io::Error::new(io::ErrorKind::InvalidData, format!("server error: {msg}"))
    }

    #[test]
    fn taxonomy_classifies_soft_rejections_as_retryable() {
        assert_eq!(
            classify(&server_err("overloaded")),
            Disposition::RetrySameConn
        );
        assert_eq!(
            classify(&server_err("deadline budget exhausted")),
            Disposition::RetrySameConn
        );
        assert_eq!(classify(&server_err("busy")), Disposition::RetryReconnect);
    }

    #[test]
    fn taxonomy_classifies_other_server_errors_as_permanent() {
        assert_eq!(
            classify(&server_err("node 99 out of range")),
            Disposition::Permanent
        );
        assert_eq!(
            classify(&server_err("unknown request")),
            Disposition::Permanent
        );
        // Malformed responses are InvalidData without the prefix.
        assert_eq!(
            classify(&invalid("malformed response \"?\"")),
            Disposition::Permanent
        );
    }

    #[test]
    fn taxonomy_classifies_connection_failures_as_reconnect() {
        for kind in [
            io::ErrorKind::ConnectionReset,
            io::ErrorKind::ConnectionRefused,
            io::ErrorKind::BrokenPipe,
            io::ErrorKind::UnexpectedEof,
            io::ErrorKind::TimedOut,
            io::ErrorKind::WouldBlock,
        ] {
            assert_eq!(
                classify(&io::Error::new(kind, "boom")),
                Disposition::RetryReconnect,
                "{kind:?}"
            );
        }
    }

    /// A reply announcing more items than it carries must end in the
    /// "truncated" error, not an allocation abort sized by the count.
    #[test]
    fn forged_counts_are_invalid_data_not_aborts() {
        for count in [1usize << 40, usize::MAX] {
            let scores = parse_counted_scores(&format!("{count} 0.5")).unwrap_err();
            assert_eq!(scores.kind(), io::ErrorKind::InvalidData, "{count}");
            assert!(scores.to_string().contains("truncated"), "{scores}");
            let top = parse_top_k(&format!("{count} 1:0.5")).unwrap_err();
            assert_eq!(top.kind(), io::ErrorKind::InvalidData, "{count}");
            assert!(top.to_string().contains("truncated"), "{top}");
        }
    }

    /// A length header larger than the bytes that follow must end in
    /// the "truncated" error, not an allocation abort sized by the
    /// header, on every length-framed verb.
    #[test]
    fn forged_frame_lengths_are_truncation_errors_not_aborts() {
        let listener = std::net::TcpListener::bind("127.0.0.1:0").unwrap();
        let addr = listener.local_addr().unwrap();
        let server = std::thread::spawn(move || {
            for _ in 0..3 {
                let (conn, _) = listener.accept().unwrap();
                let mut reader = BufReader::new(conn);
                let mut line = String::new();
                reader.read_line(&mut line).unwrap();
                reader
                    .get_mut()
                    .write_all(b"OK 1099511627776\nabc")
                    .unwrap();
            }
        });
        let calls: [fn(&mut Client) -> io::Result<()>; 3] = [
            |c| c.metrics().map(drop),
            |c| c.slow_queries().map(drop),
            |c| c.trace_from(0, 10).map(drop),
        ];
        for (i, call) in calls.into_iter().enumerate() {
            let mut client = Client::connect_tcp(addr).unwrap();
            let err = call(&mut client).unwrap_err();
            assert_eq!(err.kind(), io::ErrorKind::UnexpectedEof, "call {i}: {err}");
            assert!(err.to_string().contains("truncated"), "call {i}: {err}");
        }
        server.join().unwrap();
    }

    #[test]
    fn backoff_is_bounded_and_grows() {
        let config = ClientConfig {
            backoff_base: Duration::from_millis(10),
            backoff_max: Duration::from_millis(100),
            jitter_seed: 7,
            ..ClientConfig::default()
        };
        let mut client = RetryingClient::new(Target::Unix(PathBuf::from("/nonexistent")), config);
        let early = client.backoff(0);
        assert!(early >= Duration::from_millis(5) && early <= Duration::from_millis(10));
        for attempt in 0..40 {
            let d = client.backoff(attempt);
            assert!(d >= Duration::from_millis(5), "attempt {attempt}: {d:?}");
            assert!(d <= Duration::from_millis(100), "attempt {attempt}: {d:?}");
        }
    }
}
