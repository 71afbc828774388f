//! Workloads, set-up, and the closed-loop load drivers.
//!
//! Everything here calls the repository's public API from outside: the
//! benchmark builds the index, writes and opens it, starts the server,
//! and drives it, timing each call from its own code.

use std::collections::HashSet;
use std::io;
use std::net::SocketAddr;
use std::path::Path;
use std::sync::Arc;
use std::time::{Duration, Instant};

use sling_core::hp::HpArena;
use sling_core::obs::KERNEL;
use sling_core::single_source::SingleSourceWorkspace;
use sling_core::{
    CompressOptions, CompressedMmapArena, MmapHpArena, QueryWorkspace, ShardedResultCache,
    SharedEngine, SlingConfig, SlingIndex, StageNanos,
};
use sling_graph::{DiGraph, NodeId};
use sling_server::{serve, Client, Listener, Request, ServerConfig, ServerHandle};

use crate::spans::Span;

/// SimRank decay factor.
pub const C: f64 = 0.6;
/// Additive error bound of every index.
pub const EPSILON: f64 = 0.1;
/// Out-edges per new node of the Barabási–Albert generator.
pub const BA_EDGES: usize = 4;
/// Threads of the timed index build (the machine has two cores).
pub const BUILD_THREADS: usize = 2;
/// Connections of the served workloads (one client thread each).
pub const CLIENTS: usize = 2;
/// Untimed warm-up prefix, in queries summed over all clients. It fills
/// the result cache, the decoded-block and restore caches, and the page
/// cache before timing starts; cold-start cost belongs to `setup_s`.
pub const WARMUP_QUERIES: usize = 4000;
/// Hot pairs of `serve-pair-hot`, drawn Zipf(1)-ranked.
pub const HOT_KEYS: usize = 64;
/// Share of `serve-pair-hot` requests that go to the hot pairs.
pub const HOT_SHARE: f64 = 0.9;
/// `k` of the `TOPK` requests.
pub const TOP_K: usize = 10;
/// Latencies kept per client and phase; past this, reservoir sampling.
/// The buffer is touched in full up front so that the benchmark's own
/// memory does not grow with the query rate and move `peak_rss_mb`.
const LATENCY_CAP: usize = 1 << 17;
/// Every `SAMPLE_STRIDE`-th answer is kept for the bit-for-bit check.
const SAMPLE_STRIDE: u64 = 8;
/// At most this many kept answers per client.
const SAMPLE_CAP: usize = 4096;

#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Workload {
    ServePairHot,
    EmbedPairCold,
    ServeTopkCold,
}

impl Workload {
    pub const ALL: [Workload; 3] = [
        Workload::ServePairHot,
        Workload::EmbedPairCold,
        Workload::ServeTopkCold,
    ];

    pub fn name(self) -> &'static str {
        match self {
            Workload::ServePairHot => "serve-pair-hot",
            Workload::EmbedPairCold => "embed-pair-cold",
            Workload::ServeTopkCold => "serve-topk-cold",
        }
    }

    pub fn parse(name: &str) -> Option<Workload> {
        Workload::ALL.into_iter().find(|w| w.name() == name)
    }

    /// Graph size: BA(20000, 4) for the hot workload, BA(50000, 4) for
    /// the cold ones; `toy` shrinks every graph for the self-test.
    pub fn nodes(self, toy: bool) -> usize {
        match (toy, self) {
            (true, _) => 1500,
            (false, Workload::ServePairHot) => 20_000,
            (false, _) => 50_000,
        }
    }

    pub fn served(self) -> bool {
        self != Workload::EmbedPairCold
    }

    pub fn clients(self) -> usize {
        if self.served() {
            CLIENTS
        } else {
            1
        }
    }
}

/// The input graph, generated from the run's seed.
pub fn generate(workload: Workload, seed: u64, toy: bool) -> Result<DiGraph, String> {
    sling_graph::generators::barabasi_albert(workload.nodes(toy), BA_EDGES, seed)
        .map_err(|e| format!("graph generation failed: {e}"))
}

/// The index configuration (ε = 0.1, c = 0.6), seeded from the run seed.
pub fn config(seed: u64) -> SlingConfig {
    SlingConfig::from_epsilon(C, EPSILON).with_seed(splitmix(seed ^ 0x51_1D_E4))
}

/// The engine a workload queries, by storage backend.
#[derive(Clone)]
pub enum Engine {
    Mem(Arc<SharedEngine<HpArena>>),
    Mmap(Arc<SharedEngine<MmapHpArena>>),
    Compressed(Arc<SharedEngine<CompressedMmapArena>>),
}

macro_rules! dispatch {
    ($engine:expr, $e:ident => $body:expr) => {
        match $engine {
            Engine::Mem($e) => $body,
            Engine::Mmap($e) => $body,
            Engine::Compressed($e) => $body,
        }
    };
}

impl Engine {
    /// Decoded blocks of a compressed index (0 for the raw layouts).
    pub fn index_blocks(&self) -> usize {
        match self {
            Engine::Compressed(e) => e.store().num_blocks(),
            _ => 0,
        }
    }
}

/// Wall-clock marks of one set-up, in order.
#[derive(Clone, Copy, Debug)]
pub struct SetupMarks {
    pub start: Instant,
    pub built: Instant,
    pub written: Instant,
    pub opened: Instant,
    pub serving: Instant,
}

impl SetupMarks {
    pub fn total_s(&self) -> f64 {
        secs(self.start, self.serving)
    }
}

/// A running server with the control connection used for `STATS`.
pub struct Served {
    handle: Option<ServerHandle>,
    pub addr: SocketAddr,
    pub control: Client,
}

impl Drop for Served {
    fn drop(&mut self) {
        if let Some(handle) = self.handle.take() {
            handle.shutdown();
        }
    }
}

/// One set-up: the reference index, the engine opened from the written
/// file, and (for served workloads) the server in front of it.
pub struct Rig {
    pub workload: Workload,
    pub graph: Arc<DiGraph>,
    pub reference: SlingIndex,
    pub engine: Engine,
    pub served: Option<Served>,
    pub index_bytes: u64,
    pub marks: SetupMarks,
}

/// Build, encode and write, open, and serve: the work `setup_s` times.
pub fn setup(
    workload: Workload,
    graph: &Arc<DiGraph>,
    config: &SlingConfig,
    path: &Path,
) -> Result<Rig, String> {
    let start = Instant::now();
    let reference = SlingIndex::build(graph, &config.clone().with_threads(BUILD_THREADS))
        .map_err(|e| format!("index build failed: {e}"))?;
    let built = Instant::now();
    let bytes = match workload {
        Workload::EmbedPairCold => reference.to_bytes_v3(&CompressOptions::default()),
        _ => reference.to_bytes(),
    };
    std::fs::write(path, &bytes).map_err(|e| format!("{}: {e}", path.display()))?;
    let written = Instant::now();
    let open_err = |e: sling_core::SlingError| format!("{}: {e}", path.display());
    let engine = match workload {
        Workload::ServePairHot => Engine::Mem(Arc::new(
            SlingIndex::load(graph, path)
                .map_err(open_err)?
                .into_shared_engine(),
        )),
        Workload::EmbedPairCold => Engine::Compressed(Arc::new(
            SharedEngine::open_mmap_compressed(graph, path).map_err(open_err)?,
        )),
        Workload::ServeTopkCold => Engine::Mmap(Arc::new(
            SharedEngine::open_mmap(graph, path).map_err(open_err)?,
        )),
    };
    let opened = Instant::now();
    let served = if workload.served() {
        Some(start_server(&engine, graph)?)
    } else {
        None
    };
    let serving = Instant::now();
    Ok(Rig {
        workload,
        graph: Arc::clone(graph),
        reference,
        engine,
        served,
        index_bytes: bytes.len() as u64,
        marks: SetupMarks {
            start,
            built,
            written,
            opened,
            serving,
        },
    })
}

/// In-process server on TCP loopback: one worker, default result cache.
/// Returns once it has answered a `PING`.
fn start_server(engine: &Engine, graph: &Arc<DiGraph>) -> Result<Served, String> {
    let listener = Listener::bind_tcp("127.0.0.1:0").map_err(|e| format!("bind: {e}"))?;
    let handle = dispatch!(engine, e => serve(
        Arc::clone(e),
        Arc::clone(graph),
        listener,
        server_config(),
    ))
    .map_err(|e| format!("server start failed: {e}"))?;
    let Some(addr) = handle.local_addr() else {
        handle.shutdown();
        return Err("server has no TCP address".to_string());
    };
    match Client::connect_tcp(addr).and_then(|mut c| c.ping().map(|()| c)) {
        Ok(control) => Ok(Served {
            handle: Some(handle),
            addr,
            control,
        }),
        Err(e) => {
            handle.shutdown();
            Err(format!("server did not answer PING: {e}"))
        }
    }
}

pub fn server_config() -> ServerConfig {
    ServerConfig {
        workers: 1,
        ..ServerConfig::default()
    }
}

/// A query key.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub enum Key {
    Pair(u32, u32),
    TopK(u32),
}

impl Key {
    pub fn request(self) -> Request {
        match self {
            Key::Pair(u, v) => Request::Pair { u, v },
            Key::TopK(u) => Request::TopK { u, k: TOP_K },
        }
    }

    fn touches_reduced(self, index: &SlingIndex) -> bool {
        match self {
            Key::Pair(u, v) => index.is_reduced(NodeId(u)) || index.is_reduced(NodeId(v)),
            Key::TopK(u) => index.is_reduced(NodeId(u)),
        }
    }
}

/// An answer as it comes back, compared bit for bit.
#[derive(Clone, Debug)]
pub enum Answer {
    Score(f64),
    Top(Vec<(u32, f64)>),
}

impl Answer {
    fn same_bits(&self, other: &Answer) -> bool {
        match (self, other) {
            (Answer::Score(a), Answer::Score(b)) => a.to_bits() == b.to_bits(),
            (Answer::Top(a), Answer::Top(b)) => {
                a.len() == b.len()
                    && a.iter()
                        .zip(b)
                        .all(|(x, y)| x.0 == y.0 && x.1.to_bits() == y.1.to_bits())
            }
            _ => false,
        }
    }
}

/// The seeded key stream of one client.
pub struct KeyGen {
    state: u64,
    n: u32,
    workload: Workload,
    hot: Arc<HotSet>,
}

/// `serve-pair-hot`'s hot pairs with their Zipf(1) rank CDF.
pub struct HotSet {
    pairs: Vec<(u32, u32)>,
    cdf: Vec<f64>,
}

impl HotSet {
    pub fn new(seed: u64, n: u32) -> HotSet {
        let mut state = splitmix(seed ^ 0x4807);
        let mut pairs = Vec::with_capacity(HOT_KEYS);
        while pairs.len() < HOT_KEYS {
            let p = random_pair(&mut state, n);
            if !pairs.contains(&p) {
                pairs.push(p);
            }
        }
        let total: f64 = (1..=HOT_KEYS).map(|r| 1.0 / r as f64).sum();
        let mut acc = 0.0;
        let cdf = (1..=HOT_KEYS)
            .map(|r| {
                acc += 1.0 / r as f64 / total;
                acc
            })
            .collect();
        HotSet { pairs, cdf }
    }

    fn draw(&self, u: f64) -> (u32, u32) {
        let rank = self
            .cdf
            .partition_point(|&c| c < u)
            .min(self.pairs.len() - 1);
        self.pairs[rank]
    }
}

impl KeyGen {
    pub fn new(workload: Workload, seed: u64, stream: u64, n: u32, hot: Arc<HotSet>) -> KeyGen {
        KeyGen {
            state: splitmix(seed.wrapping_add(stream.wrapping_mul(0x9E37_79B9_7F4A_7C15))),
            n,
            workload,
            hot,
        }
    }

    pub fn next_key(&mut self) -> Key {
        match self.workload {
            Workload::ServePairHot => {
                if unit(&mut self.state) < HOT_SHARE {
                    let (u, v) = self.hot.draw(unit(&mut self.state));
                    Key::Pair(u, v)
                } else {
                    let (u, v) = random_pair(&mut self.state, self.n);
                    Key::Pair(u, v)
                }
            }
            Workload::EmbedPairCold => {
                let (u, v) = random_pair(&mut self.state, self.n);
                Key::Pair(u, v)
            }
            Workload::ServeTopkCold => Key::TopK((next(&mut self.state) % self.n as u64) as u32),
        }
    }
}

/// In-process query path with its own workspaces.
pub struct Kernel {
    ws: QueryWorkspace,
    ss: SingleSourceWorkspace,
    scores: Vec<f64>,
}

impl Kernel {
    pub fn new() -> Kernel {
        Kernel {
            ws: QueryWorkspace::new(),
            ss: SingleSourceWorkspace::new(),
            scores: Vec::new(),
        }
    }

    fn set_trace(&mut self, on: bool) {
        self.ws.set_trace_enabled(on);
        self.ss.set_trace_enabled(on);
    }

    fn take_trace(&mut self) -> StageNanos {
        let mut stages = self.ws.take_trace();
        stages.add(&self.ss.take_trace());
        stages
    }

    /// One query through the engine: memoized through `cache` when given
    /// (the server's single-pair path), plain otherwise.
    fn call(
        &mut self,
        engine: &Engine,
        graph: &DiGraph,
        cache: Option<&ShardedResultCache>,
        key: Key,
    ) -> Result<Answer, String> {
        let result = dispatch!(engine, e => match key {
            Key::Pair(u, v) => match cache {
                Some(cache) => e.single_pair_cached(graph, &mut self.ws, cache, NodeId(u), NodeId(v)),
                None => e.single_pair_with(graph, &mut self.ws, NodeId(u), NodeId(v)),
            }
            .map(Answer::Score),
            Key::TopK(u) => e
                .top_k_with(graph, &mut self.ss, &mut self.scores, NodeId(u), TOP_K)
                .map(|top| Answer::Top(top.into_iter().map(|(n, s)| (n.0, s)).collect())),
        });
        result.map_err(|e| e.to_string())
    }
}

fn client_request(client: &mut Client, key: Key) -> io::Result<Answer> {
    match key {
        Key::Pair(u, v) => client.pair(u, v).map(Answer::Score),
        Key::TopK(u) => client.top_k(u, TOP_K).map(Answer::Top),
    }
}

/// A fixed-size uniform sample of one client's latencies (Algorithm R).
struct Reservoir {
    buf: Vec<f64>,
    len: usize,
    seen: u64,
    state: u64,
}

impl Reservoir {
    fn new(seed: u64) -> Reservoir {
        Reservoir {
            buf: vec![0.0; LATENCY_CAP],
            len: 0,
            seen: 0,
            state: seed,
        }
    }

    fn push(&mut self, x: f64) {
        self.seen += 1;
        if self.len < self.buf.len() {
            self.buf[self.len] = x;
            self.len += 1;
        } else {
            let j = next(&mut self.state) % self.seen;
            if let Some(slot) = self.buf.get_mut(j as usize) {
                *slot = x;
            }
        }
    }

    fn into_vec(mut self) -> Vec<f64> {
        self.buf.truncate(self.len);
        self.buf
    }
}

/// One closed-loop client: its key stream, its connection (served
/// workloads), and its in-process kernel (the query path when embedded,
/// the traced `kernel.call` when served).
pub struct Driver {
    id: u64,
    keys: KeyGen,
    client: Option<Client>,
    kernel: Kernel,
    issued: u64,
}

/// The parts of a [`Rig`] the driver threads share.
#[derive(Clone, Copy)]
pub struct View<'a> {
    graph: &'a DiGraph,
    reference: &'a SlingIndex,
    engine: &'a Engine,
}

impl Rig {
    fn view(&self) -> View<'_> {
        View {
            graph: &self.graph,
            reference: &self.reference,
            engine: &self.engine,
        }
    }

    /// One driver per client, each with its own key stream; `round`
    /// selects fresh streams (over the same hot set) for each set-up.
    pub fn drivers(&self, seed: u64, round: usize) -> Result<Vec<Driver>, String> {
        let n = self.graph.num_nodes() as u32;
        let hot = Arc::new(HotSet::new(seed, n));
        let clients = self.workload.clients();
        (0..clients)
            .map(|i| {
                let stream = (round * clients + i) as u64;
                let client = match &self.served {
                    Some(s) => {
                        Some(Client::connect_tcp(s.addr).map_err(|e| format!("connect: {e}"))?)
                    }
                    None => None,
                };
                Ok(Driver {
                    id: i as u64 + 1,
                    keys: KeyGen::new(self.workload, seed, stream, n, Arc::clone(&hot)),
                    client,
                    kernel: Kernel::new(),
                    issued: 0,
                })
            })
            .collect()
    }
}

/// When a phase ends.
#[derive(Clone, Copy)]
pub enum Stop {
    /// After this many queries per driver (the warm-up).
    Count(usize),
    /// At this instant.
    At(Instant),
}

/// What a traced phase records on top of the latencies.
#[derive(Default)]
pub struct Traced {
    /// Duration of each `kernel.call` span, µs.
    pub kernel_us: Vec<f64>,
    /// Client round trip minus `kernel.call` of the same request, µs.
    pub overhead_us: Vec<f64>,
    pub stages: StageNanos,
    pub keys: HashSet<Key>,
    pub reduced: u64,
    pub spans: Vec<Span>,
}

/// The outcome of one phase, merged over its drivers.
#[derive(Default)]
pub struct PhaseOut {
    pub elapsed_s: f64,
    pub attempted: u64,
    /// `ERR` responses and IO errors.
    pub failed: u64,
    /// Per-query latency, µs: client round trip when served, call
    /// duration when embedded.
    pub lat_us: Vec<f64>,
    pub samples: Vec<(Key, Answer)>,
    pub traced: Traced,
}

impl PhaseOut {
    pub fn qps(&self) -> f64 {
        self.attempted as f64 / self.elapsed_s.max(1e-9)
    }

    pub fn absorb(&mut self, other: PhaseOut) {
        self.elapsed_s += other.elapsed_s;
        self.attempted += other.attempted;
        self.failed += other.failed;
        if self.lat_us.is_empty() {
            self.lat_us = other.lat_us;
        } else {
            self.lat_us.extend(other.lat_us);
        }
        self.samples.extend(other.samples);
        let t = other.traced;
        self.traced.kernel_us.extend(t.kernel_us);
        self.traced.overhead_us.extend(t.overhead_us);
        self.traced.stages.add(&t.stages);
        self.traced.keys.extend(t.keys);
        self.traced.reduced += t.reduced;
        self.traced.spans.extend(t.spans);
    }
}

/// Run every driver on its own thread until `stop`. With `traced`, each
/// request also gets a `kernel.call` span: on served workloads the same
/// key is answered in-process right after the round trip (through
/// `local_cache`, sized like the server's); embedded, the query itself
/// is the kernel call.
pub fn run_phase(
    rig: &Rig,
    drivers: &mut [Driver],
    stop: Stop,
    traced: bool,
    local_cache: &ShardedResultCache,
) -> PhaseOut {
    let view = rig.view();
    let start = Instant::now();
    let parts: Vec<PhaseOut> = std::thread::scope(|s| {
        let handles: Vec<_> = drivers
            .iter_mut()
            .map(|d| s.spawn(move || d.run(view, stop, traced, local_cache)))
            .collect();
        handles
            .into_iter()
            .map(|h| h.join().expect("driver thread panicked"))
            .collect()
    });
    let mut out = PhaseOut::default();
    for part in parts {
        out.absorb(part);
    }
    out.elapsed_s = start.elapsed().as_secs_f64();
    out
}

impl Driver {
    fn run(
        &mut self,
        rig: View<'_>,
        stop: Stop,
        traced: bool,
        local_cache: &ShardedResultCache,
    ) -> PhaseOut {
        let mut out = PhaseOut::default();
        let mut lat_us = Reservoir::new(splitmix(self.id ^ self.issued));
        self.kernel.set_trace(traced);
        let mut done = 0usize;
        loop {
            match stop {
                Stop::Count(n) if done >= n => break,
                Stop::At(t) if Instant::now() >= t => break,
                _ => {}
            }
            done += 1;
            let key = self.keys.next_key();
            self.issued += 1;
            let req = (self.id << 40) | self.issued;
            let t0 = Instant::now();
            let got = match self.client.as_mut() {
                Some(client) => client_request(client, key).map_err(|e| e.to_string()),
                None => self.kernel.call(rig.engine, rig.graph, None, key),
            };
            let t1 = Instant::now();
            out.attempted += 1;
            lat_us.push(micros(t0, t1));
            let got = match got {
                Ok(answer) => answer,
                Err(_) => {
                    out.failed += 1;
                    continue;
                }
            };
            if traced {
                let t = &mut out.traced;
                t.keys.insert(key);
                t.reduced += key.touches_reduced(rig.reference) as u64;
                if self.client.is_some() {
                    let k0 = Instant::now();
                    let here = self
                        .kernel
                        .call(rig.engine, rig.graph, Some(local_cache), key);
                    let k1 = Instant::now();
                    t.stages.add(&self.kernel.take_trace());
                    t.kernel_us.push(micros(k0, k1));
                    t.overhead_us.push(micros(t0, t1) - micros(k0, k1));
                    t.spans
                        .push(Span::new(req, 0, req, "client.request", t0, t1));
                    t.spans
                        .push(Span::new(req | 1 << 39, 0, req, "kernel.call", k0, k1));
                    if !here.is_ok_and(|a| a.same_bits(&got)) {
                        out.failed += 1;
                    }
                } else {
                    t.stages.add(&self.kernel.take_trace());
                    t.kernel_us.push(micros(t0, t1));
                    t.spans.push(Span::new(req, 0, req, "kernel.call", t0, t1));
                }
            }
            if self.issued.is_multiple_of(SAMPLE_STRIDE) && out.samples.len() < SAMPLE_CAP {
                out.samples.push((key, got));
            }
        }
        self.kernel.set_trace(false);
        out.lat_us = lat_us.into_vec();
        out
    }
}

/// Answers that differ, bit for bit, from the in-process reference index.
/// Served pairs are canonicalized to `(min, max)` by the server, so the
/// reference is asked the same way.
pub fn mismatches(rig: &Rig, samples: &[(Key, Answer)]) -> u64 {
    let g = &rig.graph;
    let ix = &rig.reference;
    samples
        .iter()
        .filter(|(key, got)| {
            let want = match *key {
                Key::Pair(u, v) if rig.workload.served() => {
                    Answer::Score(ix.single_pair(g, NodeId(u.min(v)), NodeId(u.max(v))))
                }
                Key::Pair(u, v) => Answer::Score(ix.single_pair(g, NodeId(u), NodeId(v))),
                Key::TopK(u) => Answer::Top(
                    ix.top_k(g, NodeId(u), TOP_K)
                        .into_iter()
                        .map(|(n, s)| (n.0, s))
                        .collect(),
                ),
            };
            !want.same_bits(got)
        })
        .count() as u64
}

/// A snapshot of the process-wide kernel counters.
#[derive(Clone, Copy, Default)]
pub struct KernelSnap {
    pub restore_hits: u64,
    pub restore_misses: u64,
    pub block_decodes: u64,
    pub bytes_read: u64,
    pub gallop: u64,
    pub linear: u64,
    pub frontier_words: u64,
}

impl KernelSnap {
    pub fn now() -> KernelSnap {
        use std::sync::atomic::Ordering::Relaxed;
        KernelSnap {
            restore_hits: KERNEL.restore_cache_hits.load(Relaxed),
            restore_misses: KERNEL.restore_cache_misses.load(Relaxed),
            block_decodes: KERNEL.block_decodes.load(Relaxed),
            bytes_read: KERNEL.backend_bytes_read.load(Relaxed),
            gallop: KERNEL.merge_gallop.load(Relaxed),
            linear: KERNEL.merge_linear.load(Relaxed),
            frontier_words: KERNEL.frontier_words.load(Relaxed),
        }
    }

    /// Accumulate `after - before` into `self`.
    pub fn add_delta(&mut self, before: &KernelSnap, after: &KernelSnap) {
        self.restore_hits += after.restore_hits - before.restore_hits;
        self.restore_misses += after.restore_misses - before.restore_misses;
        self.block_decodes += after.block_decodes - before.block_decodes;
        self.bytes_read += after.bytes_read - before.bytes_read;
        self.gallop += after.gallop - before.gallop;
        self.linear += after.linear - before.linear;
        self.frontier_words += after.frontier_words - before.frontier_words;
    }
}

/// The integer counters of one `STATS` line the benchmark reads.
#[derive(Clone, Copy, Default)]
pub struct StatsSnap {
    pub served: u64,
    pub cache_hits: u64,
    pub cache_misses: u64,
    pub cache_evictions: u64,
    pub wakeups: u64,
    pub turns: u64,
    pub latency_p50_us: f64,
    pub latency_p99_us: f64,
}

impl StatsSnap {
    pub fn read(client: &mut Client) -> Result<StatsSnap, String> {
        let line = client.stats_line().map_err(|e| format!("STATS: {e}"))?;
        let field = |key: &str| -> &str {
            line.split_ascii_whitespace()
                .find_map(|kv| kv.strip_prefix(key).and_then(|r| r.strip_prefix('=')))
                .unwrap_or("0")
        };
        // Per-worker counters are comma-separated; sum them.
        let sum = |key: &str| -> u64 {
            field(key)
                .split(',')
                .filter_map(|x| x.parse::<u64>().ok())
                .sum()
        };
        let float = |key: &str| field(key).parse::<f64>().unwrap_or(0.0);
        Ok(StatsSnap {
            served: sum("served"),
            cache_hits: sum("cache_hits"),
            cache_misses: sum("cache_misses"),
            cache_evictions: sum("cache_evictions"),
            wakeups: sum("evloop_wakeups"),
            turns: sum("evloop_turns"),
            latency_p50_us: float("latency_p50_us"),
            latency_p99_us: float("latency_p99_us"),
        })
    }

    /// Accumulate the counter deltas `after - before` into `self`.
    pub fn add_delta(&mut self, before: &StatsSnap, after: &StatsSnap) {
        self.served += after.served - before.served;
        self.cache_hits += after.cache_hits - before.cache_hits;
        self.cache_misses += after.cache_misses - before.cache_misses;
        self.cache_evictions += after.cache_evictions - before.cache_evictions;
        self.wakeups += after.wakeups - before.wakeups;
        self.turns += after.turns - before.turns;
    }
}

/// Nearest-rank percentile of `xs` (sorted in place); 0 when empty.
pub fn percentile(xs: &mut [f64], p: f64) -> f64 {
    if xs.is_empty() {
        return 0.0;
    }
    xs.sort_unstable_by(f64::total_cmp);
    let rank = ((p / 100.0) * xs.len() as f64).ceil() as usize;
    xs[rank.clamp(1, xs.len()) - 1]
}

pub fn median(xs: &mut [f64]) -> f64 {
    percentile(xs, 50.0)
}

pub fn secs(a: Instant, b: Instant) -> f64 {
    b.duration_since(a).as_secs_f64()
}

fn micros(a: Instant, b: Instant) -> f64 {
    b.duration_since(a).as_secs_f64() * 1e6
}

pub fn after(d: f64) -> Instant {
    Instant::now() + Duration::from_secs_f64(d)
}

pub fn splitmix(mut x: u64) -> u64 {
    x = x.wrapping_add(0x9E37_79B9_7F4A_7C15);
    x = (x ^ (x >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    x = (x ^ (x >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    x ^ (x >> 31)
}

fn next(state: &mut u64) -> u64 {
    *state = state.wrapping_add(1);
    splitmix(*state)
}

fn unit(state: &mut u64) -> f64 {
    (next(state) >> 11) as f64 / (1u64 << 53) as f64
}

fn random_pair(state: &mut u64, n: u32) -> (u32, u32) {
    let u = (next(state) % n as u64) as u32;
    let mut v = (next(state) % n as u64) as u32;
    if v == u {
        v = (v + 1) % n;
    }
    (u, v)
}
