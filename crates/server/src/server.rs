//! The server runtime: acceptor, per-worker epoll readiness loops, hot
//! generation reload, graceful shutdown, and per-worker statistics.
//!
//! Each worker owns one epoll instance (a [`polling::Poller`]) and a set
//! of nonblocking connections, handed to it round-robin by the acceptor.
//! A connection is a small state machine (`Conn`): bytes accumulate in
//! an incremental read buffer until a full newline-terminated request is
//! framed, every response produced in one readiness *turn* is coalesced
//! into a pending-write buffer and flushed with a single `write`, and a
//! partial write re-arms the connection for write readiness instead of
//! blocking the worker. Idle connections therefore cost one registration
//! each — no thread, no timeout probing — which is the regime skewed,
//! mostly-idle production traffic (SkyServer-shaped: bursty, hot-key
//! dominated, bot-heavy) actually presents.
//!
//! Scheduling is cooperative and fair: readiness events feed a
//! round-robin ready queue, a continuously pipelining connection yields
//! back to that queue after `YIELD_AFTER` requests, and a connection
//! owing more than `OUT_HIGH_WATER` pending response bytes stops being
//! read until the peer drains it (backpressure). Each worker keeps one
//! warm [`QueryWorkspace`] — the query hot path stays allocation-free
//! and lock-free. Shutdown is lost-wakeup-safe by construction: the
//! flag store is followed by an eventfd notify per worker, and the
//! eventfd stays readable until the worker drains it, so a worker
//! between its flag check and `epoll_wait` still wakes.
//!
//! ## Hot reload
//!
//! The engine lives in a [`ReloadableEngine`] — an epoch-tagged swap
//! slot holding one [`EngineGeneration`] (engine + graph + generation
//! name). Requests in flight keep the `Arc` of the generation they
//! started on; the next request a worker picks up observes the bumped
//! epoch with one atomic load and refetches. A swap also advances the
//! shared result cache's epoch *in the same critical section*, and every
//! insert is tagged with the epoch of the generation that computed it,
//! so a hit computed against a retired index can never be served (see
//! [`ShardedResultCache`]). A slot built by
//! [`ReloadableEngine::watching_store`] drives hot reload from its
//! [`GenerationStore`]: the `RELOAD` protocol verb and the periodic
//! `CURRENT`-staleness watcher ([`ServerConfig::watch_interval_ms`])
//! swap in the promoted generation, and a generation whose runtime
//! errors reach [`ServerConfig::rollback_error_threshold`] is
//! quarantined and rolled back to the newest verified older one — each
//! opened, fingerprint-checked and warmed the same way. A pinned server
//! ([`serve`]) has no store: it charges runtime errors to its one
//! generation but never quarantines it.

use std::collections::{HashSet, VecDeque};
use std::fmt::Write as _;
use std::io::{self, Read, Write};
use std::net::{SocketAddr, TcpListener, TcpStream, ToSocketAddrs};
use std::os::fd::{AsRawFd, RawFd};
use std::os::unix::net::{UnixListener, UnixStream};
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Arc, Mutex, MutexGuard, RwLock};
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

use polling::{Event, Events, Poller};

use sling_core::faults::{self, FaultAction};
use sling_core::lifecycle::{warm_engine, GenId, GenerationStore};
use sling_core::obs::{
    register_process_metrics, Counter, Histogram, LatencyReport, MetricsRegistry, SlowQueryLog,
    SlowQueryRecord, StageNanos,
};
use sling_core::workload::trace::{encode_record, TraceKey, TraceOutcome, TraceVerb};
use sling_core::{
    Admission, CacheStats, HpStore, QueryWorkspace, ShardedResultCache, SharedEngine, SlingError,
};
use sling_graph::{DiGraph, NodeId};

use crate::protocol::{write_scores, Request, MAX_LINE_BYTES};
use crate::recorder::{writer_loop, TraceCounters, TraceRecorder, MAX_TRACE_BATCH};

/// How often the non-blocking acceptor re-checks the shutdown flag.
const ACCEPT_POLL: Duration = Duration::from_millis(2);

/// Upper bound on an *idle* worker's `epoll_wait`, and the watcher's
/// sleep slice: even if a shutdown notify were somehow missed, every
/// thread re-checks the flag at least this often. The eventfd waker
/// makes the normal shutdown path immediate; this is the belt to that
/// suspender.
const SHUTDOWN_POLL: Duration = Duration::from_millis(100);

/// Consecutive unexpected `accept(2)` failures (e.g. fd exhaustion)
/// tolerated — with a poll-interval sleep between retries — before the
/// acceptor gives up and shuts the server down rather than zombifying.
const MAX_ACCEPT_ERRORS: u32 = 512;

/// Requests one connection may run in a single readiness turn before it
/// is re-queued behind the other ready connections. Amortizes dispatch
/// overhead for pipelining clients while bounding how long one busy
/// connection can monopolize a worker.
const YIELD_AFTER: u32 = 64;

/// Read-chunk size for draining a readable socket into a connection's
/// frame buffer.
const READ_CHUNK: usize = 16 * 1024;

/// Most bytes one turn will read from a single connection before
/// yielding — bounds per-turn latency under a firehose client without
/// stalling large (up to [`MAX_LINE_BYTES`]) requests, which resume on
/// the next readiness event.
const TURN_READ_CAP: usize = 256 * 1024;

/// Pending-write high-water mark: a connection owing more than this many
/// unflushed response bytes stops being *read* (backpressure) and is
/// armed for write readiness only, so a client that never drains its
/// receive buffer cannot balloon server memory.
const OUT_HIGH_WATER: usize = 1 << 20;

/// How long shutdown keeps serving connections that still owe work
/// (buffered requests or unflushed responses) before force-closing.
const DRAIN_GRACE: Duration = Duration::from_millis(250);

/// Pause between drain passes during shutdown.
const DRAIN_POLL: Duration = Duration::from_millis(10);

/// Slow-query ring capacity: enough recent offenders to characterize a
/// latency regression without unbounded retention.
const SLOW_LOG_CAPACITY: usize = 128;

/// Tuning knobs for [`serve`] / [`serve_reloadable`].
#[derive(Clone, Debug)]
pub struct ServerConfig {
    /// Worker threads; `0` means one per available core
    /// (thread-per-core).
    pub workers: usize,
    /// Total capacity of the shared single-pair result cache; `0`
    /// disables caching.
    pub cache_capacity: usize,
    /// Cache shard count (rounded up to a power of two); `0` picks
    /// [`ShardedResultCache::DEFAULT_SHARDS`].
    pub cache_shards: usize,
    /// Period of the `CURRENT`-staleness watcher in milliseconds; `0`
    /// disables it. Only meaningful for a slot built by
    /// [`ReloadableEngine::watching_store`] — a pinned server has no
    /// store to watch. Swaps can still be driven explicitly with the
    /// `RELOAD` verb either way.
    pub watch_interval_ms: u64,
    /// Maximum simultaneously open client connections; past the cap the
    /// acceptor answers `ERR busy` and closes the socket instead of
    /// queueing unboundedly. `0` means unlimited.
    pub max_connections: usize,
    /// Slow-query threshold in microseconds: requests at or above it are
    /// admitted to the ring-buffered slow-query log (`SLOWLOG` verb).
    /// `0` disables the log.
    pub slow_query_us: u64,
    /// Per-request deadline budget in microseconds, measured from when
    /// a request's first bytes reached the server. A query verb
    /// dispatched past its budget answers `ERR deadline` instead of
    /// computing a score nobody is waiting for. `0` disables deadlines.
    pub deadline_us: u64,
    /// Overload shedding by per-connection pending bytes: a query verb
    /// arriving while the connection already owes this many unserved
    /// input + unflushed output bytes answers `ERR overloaded`. `0`
    /// disables the byte trigger.
    pub shed_pending_bytes: usize,
    /// Runtime `CorruptIndex`/IO errors tolerated per generation before
    /// a slot built by [`ReloadableEngine::watching_store`] quarantines
    /// it and rolls back to the newest verified prior generation. `0`
    /// disables rollback. A pinned server counts the errors
    /// (`runtime_errors`) but never quarantines.
    pub rollback_error_threshold: u64,
    /// Capture served traffic to this `SLNGTRACE` file (the CLI's
    /// `serve --record FILE`). Enables the recorder ring, the writer
    /// thread, and the `TRACE` wire verb; `None` disables all three.
    pub record_path: Option<PathBuf>,
    /// Keep every Nth request outcome in the capture (`0`/`1` = keep
    /// all) — head-room for servers too hot to trace in full.
    pub record_sample: u64,
    /// Admission policy of the shared result cache (and, via
    /// [`serve_reloadable`], anything keyed off it): plain LRU, or
    /// TinyLFU frequency-sketch admission that rejects one-touch
    /// inserts which would evict a hotter resident.
    pub cache_admission: Admission,
}

impl Default for ServerConfig {
    fn default() -> Self {
        ServerConfig {
            workers: 0,
            cache_capacity: 1 << 18,
            cache_shards: 0,
            watch_interval_ms: 0,
            max_connections: 0,
            slow_query_us: 10_000,
            deadline_us: 0,
            shed_pending_bytes: 0,
            rollback_error_threshold: 8,
            record_path: None,
            record_sample: 1,
            cache_admission: Admission::Lru,
        }
    }
}

/// A bound accept socket: TCP or Unix-domain.
pub enum Listener {
    /// TCP listener (e.g. `127.0.0.1:0` for an ephemeral port).
    Tcp(TcpListener),
    /// Unix-domain listener; the socket file is removed when the server
    /// stops accepting.
    Unix(UnixListener, PathBuf),
}

impl Listener {
    /// Bind a TCP listener.
    pub fn bind_tcp(addr: impl ToSocketAddrs) -> io::Result<Listener> {
        Ok(Listener::Tcp(TcpListener::bind(addr)?))
    }

    /// Bind a Unix-domain listener, replacing a stale socket file.
    ///
    /// Only an existing *socket* is removed (assumed stale from a prior
    /// run); any other file at the path is an error — a typo'd `--unix`
    /// must never delete data.
    pub fn bind_unix(path: impl AsRef<Path>) -> io::Result<Listener> {
        let path = path.as_ref().to_path_buf();
        match std::fs::symlink_metadata(&path) {
            Ok(meta) => {
                use std::os::unix::fs::FileTypeExt as _;
                if meta.file_type().is_socket() {
                    std::fs::remove_file(&path)?;
                } else {
                    return Err(io::Error::new(
                        io::ErrorKind::AlreadyExists,
                        format!("{} exists and is not a socket", path.display()),
                    ));
                }
            }
            Err(e) if e.kind() == io::ErrorKind::NotFound => {}
            Err(e) => return Err(e),
        }
        Ok(Listener::Unix(UnixListener::bind(&path)?, path))
    }

    /// The bound TCP address (`None` for Unix sockets).
    pub fn local_addr(&self) -> Option<SocketAddr> {
        match self {
            Listener::Tcp(l) => l.local_addr().ok(),
            Listener::Unix(..) => None,
        }
    }
}

/// One live index generation: the engine, the graph it serves, and the
/// generation's name (`gen-NNNN`, or `static` for pinned deployments).
/// Immutable once published into a [`ReloadableEngine`]; requests hold
/// an `Arc` to the generation they started on, so a swap never tears a
/// response.
pub struct EngineGeneration<S: HpStore> {
    engine: Arc<SharedEngine<S>>,
    graph: Arc<DiGraph>,
    name: String,
    /// Swap epoch assigned when this generation is published into the
    /// slot (0 for the initial generation); also the tag its computed
    /// scores carry in the shared result cache.
    epoch: u64,
    /// Runtime `CorruptIndex`/IO errors observed while serving this
    /// generation — the signal corrupt-generation rollback triggers on.
    runtime_errors: AtomicU64,
}

impl<S: HpStore> EngineGeneration<S> {
    /// Package an engine + graph as a generation named `name`.
    fn new(engine: Arc<SharedEngine<S>>, graph: Arc<DiGraph>, name: impl Into<String>) -> Self {
        EngineGeneration {
            engine,
            graph,
            name: name.into(),
            epoch: 0,
            runtime_errors: AtomicU64::new(0),
        }
    }

    /// The shared engine.
    pub fn engine(&self) -> &SharedEngine<S> {
        &self.engine
    }

    /// The graph this generation was built from.
    pub fn graph(&self) -> &DiGraph {
        &self.graph
    }

    /// Generation name (`gen-NNNN` or `static`).
    pub fn name(&self) -> &str {
        &self.name
    }

    /// Swap epoch of this generation (see [`ReloadableEngine`]).
    pub fn epoch(&self) -> u64 {
        self.epoch
    }

    /// Runtime `CorruptIndex`/IO errors observed while serving this
    /// generation.
    pub fn runtime_errors(&self) -> u64 {
        self.runtime_errors.load(Ordering::Relaxed)
    }
}

/// Opens an index file against a graph — one line per storage backend.
type IndexOpener<S> = dyn Fn(&DiGraph, &Path) -> Result<SharedEngine<S>, SlingError> + Send + Sync;

/// Where a watching slot's generations come from: the store, the graph
/// for generations published without a snapshot, and the caller's
/// opener. [`GenerationSource::open`] serves the promoted successor and
/// the rollback target alike.
struct GenerationSource<S: HpStore> {
    store: GenerationStore,
    fallback_graph: Option<Arc<DiGraph>>,
    open: Box<IndexOpener<S>>,
}

impl<S: HpStore> GenerationSource<S> {
    /// Open one generation: check the manifest's payload sizes, take the
    /// graph from the generation's snapshot or else the fallback, open
    /// the index through the caller's opener — whose
    /// `DecodedMeta::check_graph` is the one graph fingerprint check —
    /// and warm the engine from the hot-key log before it takes traffic.
    fn open(&self, gen: GenId) -> io::Result<EngineGeneration<S>> {
        self.store.manifest(gen).map_err(io::Error::other)?;
        let graph = match self.store.load_graph(gen).map_err(io::Error::other)? {
            Some(snapshot) => Arc::new(snapshot),
            None => self.fallback_graph.clone().ok_or_else(|| {
                io::Error::other(format!(
                    "{gen} has no graph snapshot and no fallback graph was provided"
                ))
            })?,
        };
        let engine = (self.open)(&graph, &self.store.index_path(gen))
            .map_err(|e| io::Error::other(format!("{gen}: {e}")))?;
        // Warm-up failures must never block a promotion, so an empty or
        // stale key list is fine.
        warm_engine(&engine, &graph, &self.store.read_hot_keys());
        Ok(EngineGeneration::new(
            Arc::new(engine),
            graph,
            gen.dir_name(),
        ))
    }

    /// The promoted generation, unless it is `serving` (or the `CURRENT`
    /// pointer vanished — keep serving then).
    fn promoted(&self, serving: &str) -> io::Result<Option<GenId>> {
        let promoted = self.store.current().map_err(io::Error::other)?;
        Ok(promoted.filter(|gen| gen.dir_name() != serving))
    }

    /// The rollback target for `bad`: the newest generation strictly
    /// older than it that is not quarantined and passes full payload
    /// verification — never trade one corrupt index for another.
    fn rollback_target(
        &self,
        bad: &str,
        quarantined: &HashSet<String>,
    ) -> io::Result<Option<GenId>> {
        let bad_id = GenId::parse(bad);
        let mut gens = self.store.list().map_err(io::Error::other)?;
        gens.sort_unstable();
        Ok(gens.into_iter().rev().find(|&gen| {
            bad_id.is_none_or(|b| gen < b)
                && !quarantined.contains(&gen.dir_name())
                && self.store.verify(gen).is_ok()
        }))
    }
}

/// Epoch-tagged hot-swap slot for the serving engine.
///
/// Readers ([`ReloadableEngine::current`]) take an uncontended
/// `RwLock` read just long enough to clone the generation `Arc`; the
/// worker hot path avoids even that by caching the `Arc` and comparing
/// one relaxed-cost atomic epoch load per request. Swapping
/// ([`ReloadableEngine::try_reload`]) opens the new generation *outside*
/// the slot lock, then publishes it and advances the shared result
/// cache's epoch inside the write critical section — the ordering that
/// makes "a swap can never serve a hit computed against a retired index"
/// hold (see [`ShardedResultCache`]).
///
/// A slot built by [`ReloadableEngine::watching_store`] opens every
/// generation — the promoted successor and the rollback target — from
/// its generation store. The pinned slot [`serve`] wraps an engine in
/// has no store: it charges runtime errors to its one generation but
/// never quarantines it, reloads or rolls back.
pub struct ReloadableEngine<S: HpStore> {
    slot: RwLock<Arc<EngineGeneration<S>>>,
    /// Epoch of the generation currently in `slot` (bumped on swap).
    epoch: AtomicU64,
    swaps: AtomicU64,
    last_swap_unix_ms: AtomicU64,
    /// Reloads and rollbacks that failed (the old generation kept
    /// serving). Surfaced through `STATS` and `METRICS` so a permanently
    /// failing promotion is diagnosable even under `--watch`.
    reload_failures: AtomicU64,
    /// Where generations open from; `None` for a pinned slot.
    source: Option<GenerationSource<S>>,
    /// Generations quarantined after crossing the runtime-error
    /// threshold. A quarantined generation is refused by
    /// [`ReloadableEngine::try_reload`] until `RELOAD FORCE` lifts it.
    quarantined: Mutex<HashSet<String>>,
    /// Completed corrupt-generation rollbacks.
    rollbacks: AtomicU64,
    /// Serializes reloads and rollbacks, so concurrent callers (watcher,
    /// `RELOAD`, a worker crossing the error threshold) cannot
    /// double-open one generation.
    reload_lock: Mutex<()>,
}

fn unix_ms_now() -> u64 {
    std::time::SystemTime::now()
        .duration_since(std::time::UNIX_EPOCH)
        .map(|d| d.as_millis() as u64)
        .unwrap_or(0)
}

impl<S: HpStore> ReloadableEngine<S> {
    /// A slot pinned to one generation forever — what [`serve`] wraps a
    /// plain engine in. `RELOAD` reports `swapped=false` and the watcher
    /// never starts.
    fn pinned(engine: Arc<SharedEngine<S>>, graph: Arc<DiGraph>) -> Self {
        Self::with_source(EngineGeneration::new(engine, graph, "static"), None)
    }

    fn with_source(initial: EngineGeneration<S>, source: Option<GenerationSource<S>>) -> Self {
        ReloadableEngine {
            epoch: AtomicU64::new(initial.epoch),
            slot: RwLock::new(Arc::new(initial)),
            swaps: AtomicU64::new(0),
            last_swap_unix_ms: AtomicU64::new(0),
            reload_failures: AtomicU64::new(0),
            source,
            quarantined: Mutex::new(HashSet::new()),
            rollbacks: AtomicU64::new(0),
            reload_lock: Mutex::new(()),
        }
    }

    /// Watch a [`GenerationStore`]: open its promoted generation now
    /// (erroring when nothing is promoted) and reload whenever `CURRENT`
    /// moves. `open` maps a graph + index path to an engine — one line
    /// per storage backend — and checks the index against the graph.
    /// Each generation's graph comes from its co-located snapshot when
    /// present, else from `fallback_graph`, and each freshly opened
    /// engine is warmed from the store's hot-key log before it starts
    /// serving.
    pub fn watching_store<F>(
        store: GenerationStore,
        fallback_graph: Option<Arc<DiGraph>>,
        open: F,
    ) -> io::Result<ReloadableEngine<S>>
    where
        F: Fn(&DiGraph, &Path) -> Result<SharedEngine<S>, SlingError> + Send + Sync + 'static,
        S: 'static,
    {
        let current = store.current().map_err(io::Error::other)?.ok_or_else(|| {
            io::Error::other(format!(
                "{}: no promoted generation (run `sling promote` first)",
                store.root().display()
            ))
        })?;
        let source = GenerationSource {
            store,
            fallback_graph,
            open: Box::new(open),
        };
        let initial = source.open(current)?;
        Ok(Self::with_source(initial, Some(source)))
    }

    /// The generation currently being served.
    pub fn current(&self) -> Arc<EngineGeneration<S>> {
        Arc::clone(&self.slot.read().unwrap_or_else(|e| e.into_inner()))
    }

    /// Epoch of the serving generation — one atomic load, so callers can
    /// cheaply detect a swap and refetch [`ReloadableEngine::current`].
    pub fn epoch(&self) -> u64 {
        self.epoch.load(Ordering::Acquire)
    }

    /// Publish `next` as the serving generation: bump the epoch, retag
    /// the shared result cache (when one is given) in the same critical
    /// section, and record swap accounting. In-flight requests finish on
    /// the generation `Arc` they hold; the old generation is dropped
    /// when its last request completes.
    fn swap(&self, next: EngineGeneration<S>, cache: Option<&ShardedResultCache>) {
        let mut slot = self.slot.write().unwrap_or_else(|e| e.into_inner());
        let epoch = self.epoch.load(Ordering::Acquire) + 1;
        let mut next = next;
        next.epoch = epoch;
        *slot = Arc::new(next);
        // Cache first, then the epoch the workers poll: a worker that
        // observes the new epoch must also observe the retagged cache.
        if let Some(cache) = cache {
            cache.set_epoch(epoch);
        }
        self.epoch.store(epoch, Ordering::Release);
        self.swaps.fetch_add(1, Ordering::Relaxed);
        self.last_swap_unix_ms
            .store(unix_ms_now(), Ordering::Relaxed);
    }

    fn quarantined(&self) -> MutexGuard<'_, HashSet<String>> {
        self.quarantined.lock().unwrap_or_else(|e| e.into_inner())
    }

    /// Swap to the store's promoted generation if it is not the one
    /// being served. Returns whether a swap happened; `Ok(false)` for
    /// pinned slots. A quarantined promotion is refused (`Ok(false)`,
    /// the rolled-back-to generation keeps serving) unless `force`
    /// (`RELOAD FORCE`) lifts its quarantine, so the watcher cannot
    /// re-promote an index that was quarantined at runtime. A failed
    /// open counts in `reload_failures` and leaves the old generation
    /// serving.
    ///
    /// **Synchronous by design**: the open, verification, and warm-up
    /// run on the calling thread, so a `RELOAD` verb answers with the
    /// definitive outcome — at the cost of occupying that worker for
    /// the load duration. On small worker pools serving a large index,
    /// prefer the watcher ([`ServerConfig::watch_interval_ms`]), which
    /// performs the same load on its own thread while every worker
    /// keeps serving; workers then pick the new generation up with one
    /// atomic compare.
    pub fn try_reload(&self, cache: Option<&ShardedResultCache>, force: bool) -> io::Result<bool> {
        let Some(source) = &self.source else {
            return Ok(false);
        };
        let _serialized = self.reload_lock.lock().unwrap_or_else(|e| e.into_inner());
        let serving = self.current().name.clone();
        let next = source
            .promoted(&serving)
            .and_then(|promoted| match promoted {
                Some(gen) if force || !self.quarantined().contains(&gen.dir_name()) => {
                    source.open(gen).map(Some)
                }
                _ => Ok(None),
            });
        match next {
            Ok(Some(next)) => {
                self.quarantined().remove(next.name());
                self.swap(next, cache);
                Ok(true)
            }
            Ok(None) => Ok(false),
            Err(e) => {
                self.reload_failures.fetch_add(1, Ordering::Relaxed);
                Err(e)
            }
        }
    }

    /// Charge one runtime `CorruptIndex`/IO error to `gen`. On a slot
    /// with a store, crossing `threshold` (exactly once per generation —
    /// the thread whose increment lands on the threshold wins)
    /// quarantines the generation and rolls back to the newest verified
    /// prior generation; a failed rollback counts in `reload_failures`.
    /// A pinned slot only counts: it has nothing to roll back to.
    fn note_runtime_error(
        &self,
        gen: &EngineGeneration<S>,
        threshold: u64,
        cache: Option<&ShardedResultCache>,
    ) {
        let count = gen.runtime_errors.fetch_add(1, Ordering::Relaxed) + 1;
        let Some(source) = &self.source else {
            return;
        };
        if threshold == 0 || count != threshold {
            return;
        }
        if let Err(e) = self.quarantine_and_rollback(source, &gen.name, cache) {
            eprintln!("sling-server: rollback from {} failed: {e}", gen.name);
            self.reload_failures.fetch_add(1, Ordering::Relaxed);
        }
    }

    /// Quarantine generation `bad` and, when it is still the one being
    /// served, swap in the rollback target. Runs synchronously on the
    /// calling worker (like `RELOAD`); the quarantine is deliberately
    /// serving-side only — the on-disk `CURRENT` pointer is left
    /// untouched, and [`ReloadableEngine::try_reload`] refuses the
    /// quarantined name until `RELOAD FORCE`.
    fn quarantine_and_rollback(
        &self,
        source: &GenerationSource<S>,
        bad: &str,
        cache: Option<&ShardedResultCache>,
    ) -> io::Result<()> {
        let _serialized = self.reload_lock.lock().unwrap_or_else(|e| e.into_inner());
        let quarantined = {
            let mut quarantined = self.quarantined();
            quarantined.insert(bad.to_string());
            quarantined.clone()
        };
        if self.current().name != bad {
            // A swap already replaced the bad generation (watcher race);
            // the quarantine above still blocks its re-promotion.
            return Ok(());
        }
        let Some(target) = source.rollback_target(bad, &quarantined)? else {
            return Err(io::Error::other(format!(
                "{bad} quarantined but no verified prior generation exists"
            )));
        };
        let prior = source.open(target)?;
        eprintln!(
            "sling-server: quarantined {bad} after runtime errors; rolling back to {}",
            prior.name
        );
        self.swap(prior, cache);
        self.rollbacks.fetch_add(1, Ordering::Relaxed);
        Ok(())
    }
}

/// An accepted client socket, TCP or Unix-domain, in nonblocking mode.
enum Stream {
    Tcp(TcpStream),
    Unix(UnixStream),
}

impl Stream {
    fn set_nonblocking(&self, nonblocking: bool) -> io::Result<()> {
        match self {
            Stream::Tcp(s) => s.set_nonblocking(nonblocking),
            Stream::Unix(s) => s.set_nonblocking(nonblocking),
        }
    }
}

impl Read for Stream {
    fn read(&mut self, buf: &mut [u8]) -> io::Result<usize> {
        match self {
            Stream::Tcp(s) => s.read(buf),
            Stream::Unix(s) => s.read(buf),
        }
    }
}

impl Write for Stream {
    fn write(&mut self, buf: &[u8]) -> io::Result<usize> {
        match self {
            Stream::Tcp(s) => s.write(buf),
            Stream::Unix(s) => s.write(buf),
        }
    }

    fn flush(&mut self) -> io::Result<()> {
        match self {
            Stream::Tcp(s) => s.flush(),
            Stream::Unix(s) => s.flush(),
        }
    }
}

impl AsRawFd for Stream {
    fn as_raw_fd(&self) -> RawFd {
        match self {
            Stream::Tcp(s) => s.as_raw_fd(),
            Stream::Unix(s) => s.as_raw_fd(),
        }
    }
}

/// Per-connection state machine: a nonblocking socket, the incremental
/// frame buffer requests accumulate in, and the pending-write buffer
/// responses coalesce into. One readiness turn ([`serve_turn`]) flushes
/// what the last turn left behind, drains the socket, serves every
/// complete line it framed (up to [`YIELD_AFTER`]), and flushes all of
/// those responses with a single `write`.
struct Conn {
    stream: Stream,
    /// Bytes received but not yet consumed; a request line may arrive in
    /// arbitrarily many fragments across turns.
    inbuf: Vec<u8>,
    /// Coalesced responses not yet accepted by the socket.
    outbuf: Vec<u8>,
    /// Prefix of `outbuf` already written (partial-write resume point).
    outpos: usize,
    /// An over-long line is being skipped: bytes are dropped until its
    /// terminating newline, then parsing resyncs on the next request
    /// (the `ERR request line too long` answer was already queued).
    discarding: bool,
    /// `QUIT`/`SHUTDOWN` answered: close once `outbuf` drains.
    close_after_flush: bool,
    /// The peer half-closed its write side (read returned 0).
    eof: bool,
    /// Already queued on the worker's ready list (dedupe flag).
    in_ready: bool,
    /// When the oldest unserved bytes in `inbuf` arrived — the start of
    /// the per-request deadline budget. `None` while the buffer is
    /// empty; pipelined requests framed from one read share the stamp.
    read_at: Option<Instant>,
}

impl Conn {
    fn new(stream: Stream) -> Conn {
        Conn {
            stream,
            inbuf: Vec::new(),
            outbuf: Vec::new(),
            outpos: 0,
            discarding: false,
            close_after_flush: false,
            eof: false,
            in_ready: false,
            read_at: None,
        }
    }

    /// Unflushed response bytes this connection still owes its peer.
    fn pending_out(&self) -> usize {
        self.outbuf.len() - self.outpos
    }

    /// The epoll interest to re-arm with when this connection parks:
    /// readable unless closing or backpressured, writable while
    /// responses are pending.
    fn interest(&self, key: usize) -> Event {
        let pending = self.pending_out();
        Event {
            key,
            readable: !self.eof && !self.close_after_flush && pending < OUT_HIGH_WATER,
            writable: pending > 0,
        }
    }
}

/// One worker's shared face: its epoll instance (also the acceptor's
/// hand-off and shutdown waker) plus its event-loop counter shards.
struct WorkerShared {
    poller: Poller,
    /// Connections accepted but not yet adopted by the worker; pushed by
    /// the acceptor (round-robin), drained after every `epoll_wait`.
    inbox: Mutex<Vec<Stream>>,
    /// Connections on this worker's ready list as of its last dispatch —
    /// the "not idle" gauge.
    active: AtomicU64,
    /// This worker's shard of `sling_evloop_wakeups_total`: `epoll_wait`
    /// returns (including idle ticks and notifies).
    wakeups: Counter,
    /// This worker's shard of `sling_evloop_turns_total`: readiness
    /// turns dispatched to connections.
    turns: Counter,
}

/// Per-worker shards of the four kernel-stage histograms — one set per
/// worker so recording a stage breakdown touches only worker-private
/// cache lines; the registry merges shards on scrape.
struct StageShards {
    entry_fetch: Arc<Histogram>,
    restore: Arc<Histogram>,
    merge: Arc<Histogram>,
    propagate: Arc<Histogram>,
}

/// Shared, non-generic server state: the per-worker event loops, the
/// live state the registry's gauges read, and the registry handles the
/// hot path counts into.
struct Control {
    shutdown: AtomicBool,
    /// Ring-buffered slow-query log, served by the `SLOWLOG` verb.
    slowlog: Arc<SlowQueryLog>,
    /// Per-worker shards of `sling_server_requests_total`.
    served: Box<[Counter]>,
    /// Per-worker shards of `sling_server_request_ns`, so recording a
    /// latency is one relaxed add on worker-private state.
    latency: Box<[Arc<Histogram>]>,
    /// Per-worker kernel-stage histogram shards.
    stages: Box<[StageShards]>,
    cache: Option<ShardedResultCache>,
    /// [`ServerConfig::max_connections`] (0 = unlimited).
    max_connections: usize,
    /// Currently open client connections (accepted and not yet closed).
    open_connections: AtomicU64,
    /// Connections refused with `ERR busy` by the cap.
    rejected_connections: Counter,
    /// [`ServerConfig::deadline_us`] as a duration (zero = off).
    deadline: Duration,
    /// [`ServerConfig::shed_pending_bytes`] (0 = off).
    shed_pending_bytes: usize,
    /// [`ServerConfig::rollback_error_threshold`] (0 = off).
    rollback_error_threshold: u64,
    /// Query verbs answered `ERR overloaded` by the shed triggers.
    requests_shed: Counter,
    /// Query verbs answered `ERR deadline` past their budget.
    requests_deadline: Counter,
    /// Acceptor errors (transient skips and unexpected failures alike).
    accept_errors: Counter,
    /// Traffic-trace recorder ([`ServerConfig::record_path`]); feeds
    /// the capture file and the `TRACE` wire verb.
    recorder: Option<Arc<TraceRecorder>>,
    workers: Box<[WorkerShared]>,
}

impl Control {
    fn initiate_shutdown(&self) {
        // Store the flag, then wake every worker. The eventfd behind
        // `notify` stays readable until the worker drains it inside
        // `wait`, so a worker between its flag check and `epoll_wait`
        // still observes the wakeup — no lost-wakeup window.
        self.shutdown.store(true, Ordering::SeqCst);
        for worker in self.workers.iter() {
            let _ = worker.poller.notify();
        }
    }
}

/// Register the gauges and counters that read live state — the
/// connection gauges, the shared result cache and the swap slot — as
/// closures. They hold strong references: `Control` and the slot do not
/// refer to the registry, so no cycle forms, and a registry kept past
/// [`ServerHandle::join`] still reads the final values.
fn register_live_metrics<S>(
    metrics: &MetricsRegistry,
    control: &Arc<Control>,
    reloadable: &Arc<ReloadableEngine<S>>,
) where
    S: HpStore + Send + Sync + 'static,
{
    let c = Arc::clone(control);
    metrics.gauge_fn(
        "sling_server_open_connections",
        "client connections currently open",
        move || c.open_connections.load(Ordering::Relaxed) as f64,
    );
    let c = Arc::clone(control);
    metrics.gauge_fn(
        "sling_server_active_connections",
        "connections on worker ready queues (not idle)",
        move || {
            c.workers
                .iter()
                .map(|w| w.active.load(Ordering::Relaxed))
                .sum::<u64>() as f64
        },
    );
    let cache_counter = |name: &str, help: &str, read: fn(&ShardedResultCache) -> u64| {
        let c = Arc::clone(control);
        metrics.counter_fn(name, help, move || c.cache.as_ref().map_or(0, read));
    };
    cache_counter("sling_cache_hits_total", "shared result-cache hits", |c| {
        c.stats().hits
    });
    cache_counter(
        "sling_cache_misses_total",
        "shared result-cache misses",
        |c| c.stats().misses,
    );
    cache_counter(
        "sling_cache_evictions_total",
        "shared result-cache evictions",
        |c| c.stats().evictions,
    );
    cache_counter(
        "sling_cache_admission_rejects_total",
        "result-cache inserts rejected by TinyLFU admission",
        ShardedResultCache::admission_rejects,
    );
    let cache_gauge = |name: &str, help: &str, read: fn(&ShardedResultCache) -> usize| {
        let c = Arc::clone(control);
        metrics.gauge_fn(name, help, move || c.cache.as_ref().map_or(0, read) as f64);
    };
    cache_gauge(
        "sling_cache_entries",
        "entries resident in the shared result cache",
        ShardedResultCache::len,
    );
    cache_gauge(
        "sling_cache_capacity",
        "configured capacity of the shared result cache",
        ShardedResultCache::capacity,
    );
    cache_gauge(
        "sling_cache_shards",
        "shards of the shared result cache",
        ShardedResultCache::num_shards,
    );
    let slot_counter = |name: &str, help: &str, read: fn(&ReloadableEngine<S>) -> u64| {
        let r = Arc::clone(reloadable);
        metrics.counter_fn(name, help, move || read(&r));
    };
    slot_counter(
        "sling_index_swaps_total",
        "completed generation swaps",
        |r| r.swaps.load(Ordering::Relaxed),
    );
    slot_counter(
        "sling_index_reload_failures_total",
        "reloads and rollbacks that failed (the old generation kept serving)",
        |r| r.reload_failures.load(Ordering::Relaxed),
    );
    slot_counter(
        "sling_rollbacks_total",
        "corrupt-generation rollbacks completed",
        |r| r.rollbacks.load(Ordering::Relaxed),
    );
    let slot_gauge = |name: &str, help: &str, read: fn(&ReloadableEngine<S>) -> u64| {
        let r = Arc::clone(reloadable);
        metrics.gauge_fn(name, help, move || read(&r) as f64);
    };
    slot_gauge(
        "sling_index_epoch",
        "swap epoch of the serving generation",
        ReloadableEngine::epoch,
    );
    slot_gauge(
        "sling_index_last_swap_unix_ms",
        "unix time in ms of the last generation swap (0 before the first)",
        |r| r.last_swap_unix_ms.load(Ordering::Relaxed),
    );
    slot_gauge(
        "sling_index_quarantined",
        "generations quarantined until RELOAD FORCE",
        |r| r.quarantined().len() as u64,
    );
    slot_gauge(
        "sling_index_runtime_errors",
        "runtime CorruptIndex/IO errors charged to the serving generation",
        |r| r.current().runtime_errors(),
    );
    slot_gauge(
        "sling_index_resident_bytes",
        "memory-resident bytes of the serving generation's engine",
        |r| r.current().engine.resident_bytes() as u64,
    );
}

/// Where one `STATS` value comes from.
#[derive(Clone, Copy)]
enum Stat {
    /// Label: name of the serving generation.
    Generation,
    /// Label: `on`/`off`; `off` omits the `trace_*` keys.
    Trace,
    /// Label: `on`/`off`; `off` omits the `cache_*` keys.
    Cache,
    /// Label: the result cache's admission policy.
    Admission,
    /// A counter, summed over its shards.
    Counter(&'static str),
    /// A gauge, printed as an integer.
    Gauge(&'static str),
    /// How many shards (one per worker) a counter has.
    Shards(&'static str),
    /// A counter's shards, worker 0 first, comma-separated.
    PerWorker(&'static str),
    /// A histogram's sample count.
    Count(&'static str),
    /// A histogram percentile in µs, to one decimal.
    Percentile(&'static str, fn(&LatencyReport) -> f64),
    /// The first gauge minus the second, floored at 0.
    Excess(&'static str, &'static str),
    /// Hits over hits plus misses (two counters), to four decimals.
    HitRate(&'static str, &'static str),
}

/// The `STATS` reply, key by key in wire order. Clients (`perfbench`,
/// `sling bench-serve`, CI) parse these keys by name, so their spelling
/// and order are wire contract. Every value but the four labels reads
/// the server's registry — the one place a server number lives — so
/// `STATS`, `METRICS` and the body [`ServerHandle::join`] returns cannot
/// disagree.
#[rustfmt::skip]
const STATS: &[(&str, Stat)] = &[
    ("workers",                 Stat::Shards("sling_server_requests_total")),
    ("served",                  Stat::Counter("sling_server_requests_total")),
    ("index_generation",        Stat::Generation),
    ("index_epoch",             Stat::Gauge("sling_index_epoch")),
    ("swaps",                   Stat::Counter("sling_index_swaps_total")),
    ("reload_failures",         Stat::Counter("sling_index_reload_failures_total")),
    ("last_swap_unix_ms",       Stat::Gauge("sling_index_last_swap_unix_ms")),
    ("rollbacks",               Stat::Counter("sling_rollbacks_total")),
    ("quarantined",             Stat::Gauge("sling_index_quarantined")),
    ("runtime_errors",          Stat::Gauge("sling_index_runtime_errors")),
    ("shed",                    Stat::Counter("sling_requests_shed_total")),
    ("deadline_exceeded",       Stat::Counter("sling_requests_deadline_total")),
    ("trace",                   Stat::Trace),
    ("trace_records",           Stat::Counter("sling_trace_records_total")),
    ("trace_dropped",           Stat::Counter("sling_trace_records_dropped_total")),
    ("trace_bytes",             Stat::Counter("sling_trace_bytes_total")),
    ("latency_count",           Stat::Count("sling_server_request_ns")),
    ("latency_p50_us",          Stat::Percentile("sling_server_request_ns", |r| r.p50_us)),
    ("latency_p99_us",          Stat::Percentile("sling_server_request_ns", |r| r.p99_us)),
    ("latency_p999_us",         Stat::Percentile("sling_server_request_ns", |r| r.p999_us)),
    ("per_worker",              Stat::PerWorker("sling_server_requests_total")),
    ("open_connections",        Stat::Gauge("sling_server_open_connections")),
    ("idle_connections",        Stat::Excess("sling_server_open_connections",
                                             "sling_server_active_connections")),
    ("rejected_connections",    Stat::Counter("sling_server_rejected_connections_total")),
    ("evloop_wakeups",          Stat::PerWorker("sling_evloop_wakeups_total")),
    ("evloop_turns",            Stat::PerWorker("sling_evloop_turns_total")),
    ("cache",                   Stat::Cache),
    ("cache_entries",           Stat::Gauge("sling_cache_entries")),
    ("cache_capacity",          Stat::Gauge("sling_cache_capacity")),
    ("cache_shards",            Stat::Gauge("sling_cache_shards")),
    ("cache_hits",              Stat::Counter("sling_cache_hits_total")),
    ("cache_misses",            Stat::Counter("sling_cache_misses_total")),
    ("cache_evictions",         Stat::Counter("sling_cache_evictions_total")),
    ("cache_hit_rate",          Stat::HitRate("sling_cache_hits_total", "sling_cache_misses_total")),
    ("cache_admission",         Stat::Admission),
    ("cache_admission_rejects", Stat::Counter("sling_cache_admission_rejects_total")),
    ("resident_bytes",          Stat::Gauge("sling_index_resident_bytes")),
];

/// Append the `STATS` body (`workers=.. served=.. ..`) to `out`: the
/// [`STATS`] table read from `metrics`, with the labels taken from
/// `control` and `generation`. The `STATS` verb and
/// [`ServerHandle::join`] both render through here.
fn render_stats(metrics: &MetricsRegistry, control: &Control, generation: &str, out: &mut String) {
    let traced = control.recorder.is_some();
    let cache = control.cache.as_ref();
    let counter = |name| metrics.counter_value(name).unwrap_or(0);
    let gauge = |name| metrics.gauge_value(name).unwrap_or(0.0);
    let shards = |name| metrics.counter_shards(name).unwrap_or_default();
    let latency = |name| metrics.histogram_report(name).unwrap_or_default();
    let on_off = |on: bool| if on { "on" } else { "off" };
    for (i, &(key, stat)) in STATS.iter().enumerate() {
        if (!traced && key.starts_with("trace_")) || (cache.is_none() && key.starts_with("cache_"))
        {
            continue;
        }
        if i > 0 {
            out.push(' ');
        }
        let _ = write!(out, "{key}=");
        let _ = match stat {
            Stat::Generation => write!(out, "{generation}"),
            Stat::Trace => write!(out, "{}", on_off(traced)),
            Stat::Cache => write!(out, "{}", on_off(cache.is_some())),
            Stat::Admission => write!(out, "{}", cache.map_or("", |c| c.admission().as_str())),
            Stat::Counter(name) => write!(out, "{}", counter(name)),
            Stat::Gauge(name) => write!(out, "{}", gauge(name) as u64),
            Stat::Shards(name) => write!(out, "{}", shards(name).len()),
            Stat::PerWorker(name) => {
                for (w, v) in shards(name).into_iter().enumerate() {
                    if w > 0 {
                        out.push(',');
                    }
                    let _ = write!(out, "{v}");
                }
                Ok(())
            }
            Stat::Count(name) => write!(out, "{}", latency(name).count),
            Stat::Percentile(name, pick) => write!(out, "{:.1}", pick(&latency(name))),
            Stat::Excess(a, b) => write!(out, "{}", (gauge(a) - gauge(b)).max(0.0) as u64),
            Stat::HitRate(hits, misses) => {
                let stats = CacheStats {
                    hits: counter(hits),
                    misses: counter(misses),
                    evictions: 0,
                };
                write!(out, "{:.4}", stats.hit_rate())
            }
        };
    }
}

/// Handle to a running server: its address, a shutdown lever, and the
/// worker/acceptor threads to join.
pub struct ServerHandle {
    addr: Option<SocketAddr>,
    control: Arc<Control>,
    metrics: Arc<MetricsRegistry>,
    threads: Vec<JoinHandle<()>>,
    /// Name of the serving generation, the one `STATS` label `control`
    /// does not hold (the slot is generic over the backend; the handle
    /// is not).
    generation: Box<dyn Fn() -> String + Send + Sync>,
}

impl ServerHandle {
    /// Bound TCP address (`None` for Unix-socket servers) — what clients
    /// of a `127.0.0.1:0` test server connect to.
    pub fn local_addr(&self) -> Option<SocketAddr> {
        self.addr
    }

    /// The server's metrics registry — render Prometheus text or JSON
    /// snapshots from another thread while the server runs (what the
    /// CLI's `--metrics-snapshot` exporter does). It outlives
    /// [`ServerHandle::join`] and then reads the final values.
    pub fn metrics_registry(&self) -> Arc<MetricsRegistry> {
        Arc::clone(&self.metrics)
    }

    /// Block until the server exits (a client sends `SHUTDOWN`), then
    /// return its final `STATS` body: the `STATS` reply without its
    /// `OK `, rendered from the registry by the same function.
    pub fn join(mut self) -> String {
        for t in self.threads.drain(..) {
            let _ = t.join();
        }
        let mut body = String::new();
        render_stats(
            &self.metrics,
            &self.control,
            &(self.generation)(),
            &mut body,
        );
        body
    }

    /// Initiate shutdown from the owning process (equivalent to a client
    /// `SHUTDOWN`) and join: the final `STATS` body, as
    /// [`ServerHandle::join`].
    pub fn shutdown(self) -> String {
        self.control.initiate_shutdown();
        self.join()
    }
}

/// Start serving a pinned `engine` over `listener` (no hot reload; the
/// `RELOAD` verb reports `swapped=false`). See [`serve_reloadable`].
pub fn serve<S>(
    engine: Arc<SharedEngine<S>>,
    graph: Arc<DiGraph>,
    listener: Listener,
    config: ServerConfig,
) -> io::Result<ServerHandle>
where
    S: HpStore + Send + Sync + 'static,
{
    serve_reloadable(
        Arc::new(ReloadableEngine::pinned(engine, graph)),
        listener,
        config,
    )
}

/// Start serving the generation held by `reloadable` over `listener`.
///
/// Spawns `config.workers` worker threads (thread-per-core by default),
/// each owning one query workspace, plus one acceptor thread — and,
/// when the slot watches a generation store and
/// [`ServerConfig::watch_interval_ms`] is nonzero, a watcher thread that
/// periodically checks for a newer promoted generation and hot-swaps it
/// under live traffic. The engine and graph are shared immutably; the
/// only shared mutable state is the connection queue, the sharded result
/// cache, and the swap slot. Returns immediately with a
/// [`ServerHandle`].
pub fn serve_reloadable<S>(
    reloadable: Arc<ReloadableEngine<S>>,
    listener: Listener,
    config: ServerConfig,
) -> io::Result<ServerHandle>
where
    S: HpStore + Send + Sync + 'static,
{
    let workers = if config.workers == 0 {
        std::thread::available_parallelism()
            .map(|n| n.get())
            .unwrap_or(1)
    } else {
        config.workers
    };
    let cache = (config.cache_capacity > 0).then(|| {
        let shards = if config.cache_shards == 0 {
            ShardedResultCache::DEFAULT_SHARDS
        } else {
            config.cache_shards
        };
        ShardedResultCache::with_admission(config.cache_capacity, shards, config.cache_admission)
    });
    let metrics = Arc::new(MetricsRegistry::new());
    register_process_metrics(&metrics);
    let worker_shared = (0..workers)
        .map(|_| {
            Ok(WorkerShared {
                poller: Poller::new()?,
                inbox: Mutex::new(Vec::new()),
                active: AtomicU64::new(0),
                wakeups: metrics.counter(
                    "sling_evloop_wakeups_total",
                    "epoll_wait returns across workers (including idle ticks)",
                ),
                turns: metrics.counter(
                    "sling_evloop_turns_total",
                    "readiness turns dispatched to connections across workers",
                ),
            })
        })
        .collect::<io::Result<Box<[WorkerShared]>>>()?;
    let slowlog = Arc::new(SlowQueryLog::new(
        Duration::from_micros(config.slow_query_us),
        SLOW_LOG_CAPACITY,
    ));
    {
        let sl = Arc::clone(&slowlog);
        metrics.counter_fn(
            "sling_slow_queries_total",
            "queries at or above the slow-query threshold",
            move || sl.admitted(),
        );
    }
    let served = (0..workers)
        .map(|_| {
            metrics.counter(
                "sling_server_requests_total",
                "queries served (batch pairs counted individually)",
            )
        })
        .collect();
    let latency = (0..workers)
        .map(|_| {
            metrics.histogram(
                "sling_server_request_ns",
                "server-side request handling latency",
            )
        })
        .collect();
    let stages = (0..workers)
        .map(|_| StageShards {
            entry_fetch: metrics.histogram(
                "sling_query_stage_entry_fetch_ns",
                "per-query backend entry-run resolution time",
            ),
            restore: metrics.histogram(
                "sling_query_stage_restore_ns",
                "per-query restore (space-reduction recomputation) time",
            ),
            merge: metrics.histogram(
                "sling_query_stage_merge_ns",
                "per-query intersect-merge time",
            ),
            propagate: metrics.histogram(
                "sling_query_stage_propagate_ns",
                "per-query frontier propagation time",
            ),
        })
        .collect();
    let requests_shed = metrics.counter(
        "sling_requests_shed_total",
        "query verbs answered ERR overloaded by the shed triggers",
    );
    let requests_deadline = metrics.counter(
        "sling_requests_deadline_total",
        "query verbs answered ERR deadline past their budget",
    );
    let trace_counters = TraceCounters::register(&metrics);
    let recorder = config.record_path.as_ref().map(|_| {
        Arc::new(TraceRecorder::new(
            unix_ms_now() * 1000,
            config.record_sample,
            trace_counters,
        ))
    });
    let control = Arc::new(Control {
        shutdown: AtomicBool::new(false),
        slowlog,
        served,
        latency,
        stages,
        cache,
        max_connections: config.max_connections,
        open_connections: AtomicU64::new(0),
        rejected_connections: metrics.counter(
            "sling_server_rejected_connections_total",
            "connections refused with ERR busy by the connection cap",
        ),
        deadline: Duration::from_micros(config.deadline_us),
        shed_pending_bytes: config.shed_pending_bytes,
        rollback_error_threshold: config.rollback_error_threshold,
        requests_shed,
        requests_deadline,
        accept_errors: metrics.counter(
            "sling_accept_errors_total",
            "acceptor errors (transient and unexpected accept failures)",
        ),
        recorder: recorder.clone(),
        workers: worker_shared,
    });
    register_live_metrics(&metrics, &control, &reloadable);
    let addr = listener.local_addr();
    let mut threads = Vec::with_capacity(workers + 2);
    for id in 0..workers {
        let control = Arc::clone(&control);
        let reloadable = Arc::clone(&reloadable);
        let metrics = Arc::clone(&metrics);
        threads.push(
            std::thread::Builder::new()
                .name(format!("sling-worker-{id}"))
                .spawn(move || worker_loop(&reloadable, &control, metrics, id))?,
        );
    }
    let acceptor_control = Arc::clone(&control);
    threads.push(
        std::thread::Builder::new()
            .name("sling-acceptor".to_string())
            .spawn(move || accept_loop(listener, &acceptor_control))?,
    );
    if let (Some(rec), Some(path)) = (recorder, config.record_path.clone()) {
        let c = Arc::clone(&control);
        threads.push(
            std::thread::Builder::new()
                .name("sling-recorder".to_string())
                .spawn(move || {
                    writer_loop(&rec, &path, || c.shutdown.load(Ordering::SeqCst));
                })?,
        );
    }
    if config.watch_interval_ms > 0 && reloadable.source.is_some() {
        let control = Arc::clone(&control);
        let watched = Arc::clone(&reloadable);
        let interval = Duration::from_millis(config.watch_interval_ms);
        threads.push(
            std::thread::Builder::new()
                .name("sling-watcher".to_string())
                .spawn(move || watch_loop(&watched, &control, interval))?,
        );
    }
    Ok(ServerHandle {
        addr,
        control,
        metrics,
        threads,
        generation: Box::new(move || reloadable.current().name.clone()),
    })
}

/// Periodically re-check the promoted generation and hot-swap on change.
/// Sleeps in `SHUTDOWN_POLL` slices so `SHUTDOWN` is observed promptly; a
/// failing reload (a promotion racing its own publish, transient IO) is
/// retried at the next tick rather than taking the server down — the
/// old generation keeps serving, which is the whole point.
fn watch_loop<S: HpStore>(reloadable: &ReloadableEngine<S>, control: &Control, interval: Duration) {
    let mut since_check = Duration::ZERO;
    let mut failing = false;
    loop {
        if control.shutdown.load(Ordering::SeqCst) {
            return;
        }
        let slice = SHUTDOWN_POLL.min(interval);
        std::thread::sleep(slice);
        since_check += slice;
        if since_check >= interval {
            since_check = Duration::ZERO;
            match reloadable.try_reload(control.cache.as_ref(), false) {
                Ok(_) => failing = false,
                Err(e) => {
                    // One stderr line per failure streak (not per tick):
                    // a corrupt promotion under --watch must be visible
                    // somewhere, and STATS carries the running count.
                    if !failing {
                        eprintln!("sling-server: generation reload failed: {e}");
                    }
                    failing = true;
                }
            }
        }
    }
}

/// Accept connections until shutdown; non-blocking with a short poll so
/// the flag is observed promptly, since `accept(2)` has no portable
/// cancellation.
///
/// Accepted sockets are switched to nonblocking mode and distributed
/// round-robin across the worker inboxes; each hand-off is followed by a
/// `notify` so the target worker adopts the connection on its next
/// wakeup. Past [`ServerConfig::max_connections`] the acceptor answers
/// `ERR busy` and closes instead (the acceptor is the only incrementer
/// of the open-connection gauge, so the cap cannot be raced past).
///
/// Error policy: every accept failure — transient per-connection skips
/// (aborted handshakes, resets) and unexpected errors alike — counts
/// into `sling_accept_errors_total`, so a reset storm or fd exhaustion
/// is visible on a dashboard instead of silently eaten. Unexpected
/// errors (e.g. `EMFILE`) are retried under a jittered exponential
/// backoff — doubling from [`ACCEPT_POLL`] up to ~128× with a
/// deterministic xorshift jitter, so a fleet of servers hitting the
/// same fault does not retry in lockstep. If the listener stays broken
/// for [`MAX_ACCEPT_ERRORS`] consecutive attempts, the acceptor
/// initiates a full shutdown — a server nobody can connect to must
/// terminate, not linger as a zombie that `SHUTDOWN` can no longer
/// reach.
fn accept_loop(listener: Listener, control: &Control) {
    let _ = match &listener {
        Listener::Tcp(l) => l.set_nonblocking(true),
        Listener::Unix(l, _) => l.set_nonblocking(true),
    };
    let mut consecutive_errors = 0u32;
    let mut next_worker = 0usize;
    // Deterministic jitter stream for the error backoff (seeded from
    // the listener fd so two servers in one process still diverge).
    let mut jitter_rng: u64 = 0x9e37_79b9 ^ {
        let fd = match &listener {
            Listener::Tcp(l) => l.as_raw_fd(),
            Listener::Unix(l, _) => l.as_raw_fd(),
        };
        fd as u64
    };
    loop {
        if control.shutdown.load(Ordering::SeqCst) {
            break;
        }
        let accepted: io::Result<Stream> = match faults::check_io(faults::point::SERVER_ACCEPT) {
            // An injected accept fault leaves the pending connection in
            // the backlog — a later retry accepts it, like a real
            // transient failure.
            Err(e) => Err(e),
            Ok(_) => match &listener {
                Listener::Tcp(l) => l.accept().map(|(stream, _)| {
                    let _ = stream.set_nodelay(true);
                    Stream::Tcp(stream)
                }),
                Listener::Unix(l, _) => l.accept().map(|(stream, _)| Stream::Unix(stream)),
            },
        };
        match accepted {
            Ok(mut stream) => {
                consecutive_errors = 0;
                if control.max_connections > 0
                    && control.open_connections.load(Ordering::Relaxed)
                        >= control.max_connections as u64
                {
                    // Over the cap: say why, then close. The socket is
                    // still blocking and its send buffer empty, so this
                    // cannot stall the acceptor.
                    control.rejected_connections.inc();
                    let _ = stream.write_all(b"ERR busy\n");
                    continue;
                }
                if stream.set_nonblocking(true).is_err() {
                    continue;
                }
                control.open_connections.fetch_add(1, Ordering::Relaxed);
                let shared = &control.workers[next_worker];
                next_worker = (next_worker + 1) % control.workers.len();
                shared
                    .inbox
                    .lock()
                    .unwrap_or_else(|e| e.into_inner())
                    .push(stream);
                let _ = shared.poller.notify();
            }
            Err(e) if e.kind() == io::ErrorKind::WouldBlock => {
                consecutive_errors = 0;
                std::thread::sleep(ACCEPT_POLL);
            }
            Err(e)
                if matches!(
                    e.kind(),
                    io::ErrorKind::Interrupted
                        | io::ErrorKind::ConnectionAborted
                        | io::ErrorKind::ConnectionReset
                ) =>
            {
                // Transient per-connection failure: skip the connection
                // but make the event observable.
                control.accept_errors.inc();
            }
            Err(_) => {
                control.accept_errors.inc();
                consecutive_errors += 1;
                if consecutive_errors >= MAX_ACCEPT_ERRORS {
                    control.initiate_shutdown();
                    break;
                }
                std::thread::sleep(accept_backoff(consecutive_errors, &mut jitter_rng));
            }
        }
    }
    if let Listener::Unix(_, path) = &listener {
        let _ = std::fs::remove_file(path);
    }
}

/// Jittered exponential backoff for acceptor errors: [`ACCEPT_POLL`]
/// doubled per consecutive error (capped at 128×, ~256ms), multiplied
/// by a uniform factor in [0.5, 1.5) from the xorshift stream.
fn accept_backoff(consecutive_errors: u32, rng: &mut u64) -> Duration {
    let mut x = *rng | 1;
    x ^= x << 13;
    x ^= x >> 7;
    x ^= x << 17;
    *rng = x;
    let scale = 1u32 << consecutive_errors.min(7);
    let base_us = ACCEPT_POLL.as_micros() as u64 * scale as u64;
    // Uniform jitter in [0.5, 1.5): half to one-and-a-half times base.
    let jittered = base_us / 2 + (x % base_us.max(1));
    Duration::from_micros(jittered)
}

/// Per-worker reusable buffers: workspaces warm up once, then the hot
/// path is allocation-free for pair queries. The worker also caches the
/// generation `Arc` it is serving, refreshed with one atomic epoch
/// compare per request ([`WorkerCtx::generation`]).
struct WorkerCtx<S: HpStore> {
    /// The one workspace every query kind runs in.
    ws: QueryWorkspace,
    /// The last `SOURCE`/`TOPK` score vector.
    scores: Vec<f64>,
    response: String,
    /// The server's registry, which `METRICS` and `STATS` render.
    metrics: Arc<MetricsRegistry>,
    /// The generation currently being served, held only while the
    /// worker is actively serving (`None` while parked on the queue, so
    /// an idle worker never pins a retired generation's engine in
    /// memory across a swap).
    gen: Option<Arc<EngineGeneration<S>>>,
}

impl<S: HpStore> WorkerCtx<S> {
    /// The serving generation, refetched from the swap slot only when
    /// the epoch moved — one `Acquire` load on the hot path. In-flight
    /// requests keep whatever generation they started with; this is
    /// where the *next* request picks up a promoted one.
    fn generation(&mut self, reloadable: &ReloadableEngine<S>) -> Arc<EngineGeneration<S>> {
        let epoch = reloadable.epoch();
        match &self.gen {
            Some(gen) if gen.epoch == epoch => Arc::clone(gen),
            _ => {
                let gen = reloadable.current();
                self.gen = Some(Arc::clone(&gen));
                gen
            }
        }
    }
}

/// The readiness loop: one epoll instance, a slab of connections, and a
/// round-robin ready queue.
///
/// Each pass waits for events (blocking up to [`SHUTDOWN_POLL`] when
/// idle, non-blocking while the ready queue holds work), adopts newly
/// accepted connections from the inbox, marks event keys ready, and
/// dispatches one [`serve_turn`] to every ready connection. A
/// connection with more framed requests after its turn goes to the back
/// of the queue ([`YIELD_AFTER`] fairness); one that consumed its
/// readiness re-arms its oneshot epoll interest and parks costing
/// nothing until the next event.
fn worker_loop<S: HpStore>(
    reloadable: &ReloadableEngine<S>,
    control: &Control,
    metrics: Arc<MetricsRegistry>,
    worker: usize,
) {
    let shared = &control.workers[worker];
    let mut ctx = WorkerCtx {
        ws: QueryWorkspace::new(),
        scores: Vec::new(),
        response: String::new(),
        metrics,
        gen: None,
    };
    // Serving always traces: the stage histograms and slow-query log
    // need per-request breakdowns, and the cost is a handful of clock
    // reads per query.
    ctx.ws.set_trace_enabled(true);
    let mut conns: Vec<Option<Conn>> = Vec::new();
    let mut free: Vec<usize> = Vec::new();
    let mut ready: VecDeque<usize> = VecDeque::new();
    let mut events = Events::new();
    loop {
        if control.shutdown.load(Ordering::SeqCst) {
            break;
        }
        if ready.is_empty() {
            // Going idle: release the generation (a parked worker must
            // not keep a retired engine — potentially the whole previous
            // index — alive across a swap) and hub-sized query scratch.
            // Capacity checks only, so idle ticks stay cheap.
            ctx.gen = None;
            ctx.ws.trim_excess();
        }
        let timeout = if ready.is_empty() {
            SHUTDOWN_POLL
        } else {
            Duration::ZERO
        };
        if shared.poller.wait(&mut events, Some(timeout)).is_err() {
            // epoll_wait failing (beyond EINTR, which the stub absorbs)
            // means a programming error; pace the retry so a persistent
            // failure cannot busy-spin the core.
            std::thread::sleep(ACCEPT_POLL);
            continue;
        }
        shared.wakeups.inc();
        adopt_inbox(control, shared, &mut conns, &mut free);
        for ev in events.iter() {
            if let Some(Some(conn)) = conns.get_mut(ev.key) {
                if !conn.in_ready {
                    conn.in_ready = true;
                    ready.push_back(ev.key);
                }
            }
        }
        shared.active.store(ready.len() as u64, Ordering::Relaxed);
        // One dispatch round over the queue as it stands now; re-queued
        // connections run again only after the next event poll, keeping
        // accept hand-offs and fresh events interleaved with busy
        // pipeliners.
        for _ in 0..ready.len() {
            let Some(key) = ready.pop_front() else {
                break;
            };
            let Some(mut conn) = conns[key].take() else {
                continue;
            };
            conn.in_ready = false;
            shared.turns.inc();
            match serve_turn(reloadable, control, worker, &mut conn, &mut ctx) {
                Turn::Close => {
                    close_conn(control, shared, conn);
                    free.push(key);
                }
                Turn::MoreWork => {
                    conn.in_ready = true;
                    conns[key] = Some(conn);
                    ready.push_back(key);
                }
                Turn::Wait => {
                    let interest = conn.interest(key);
                    if shared.poller.modify(&conn.stream, interest).is_err() {
                        close_conn(control, shared, conn);
                        free.push(key);
                    } else {
                        conns[key] = Some(conn);
                    }
                }
            }
            if control.shutdown.load(Ordering::SeqCst) {
                break;
            }
        }
        shared.active.store(ready.len() as u64, Ordering::Relaxed);
    }
    drain_worker(reloadable, control, shared, worker, &mut conns, &mut ctx);
    shared.active.store(0, Ordering::Relaxed);
}

/// Adopt connections the acceptor handed over: register each with this
/// worker's poller under a slab key, armed for read readiness.
fn adopt_inbox(
    control: &Control,
    shared: &WorkerShared,
    conns: &mut Vec<Option<Conn>>,
    free: &mut Vec<usize>,
) {
    for stream in std::mem::take(&mut *shared.inbox.lock().unwrap_or_else(|e| e.into_inner())) {
        let key = free.pop().unwrap_or_else(|| {
            conns.push(None);
            conns.len() - 1
        });
        let conn = Conn::new(stream);
        match shared.poller.add(&conn.stream, Event::readable(key)) {
            Ok(()) => conns[key] = Some(conn),
            Err(_) => {
                // Registration failed (fd pressure): drop the socket.
                free.push(key);
                control.open_connections.fetch_sub(1, Ordering::Relaxed);
            }
        }
    }
}

/// Deregister (before the fd closes, so a recycled fd cannot deliver a
/// stale key), account, and drop one connection.
fn close_conn(control: &Control, shared: &WorkerShared, conn: Conn) {
    let _ = shared.poller.delete(&conn.stream);
    control.open_connections.fetch_sub(1, Ordering::Relaxed);
}

/// Shutdown drain: keep serving connections that still owe work —
/// buffered requests or unflushed responses — and close the rest, for at
/// most [`DRAIN_GRACE`]. Mirrors the old blocking loop's semantics:
/// in-flight requests are answered, idle connections are dropped.
fn drain_worker<S: HpStore>(
    reloadable: &ReloadableEngine<S>,
    control: &Control,
    shared: &WorkerShared,
    worker: usize,
    conns: &mut [Option<Conn>],
    ctx: &mut WorkerCtx<S>,
) {
    let deadline = Instant::now() + DRAIN_GRACE;
    let mut events = Events::new();
    loop {
        // Hand-offs that raced the shutdown flag: never served, just
        // un-account and drop them.
        for stream in std::mem::take(&mut *shared.inbox.lock().unwrap_or_else(|e| e.into_inner())) {
            drop(stream);
            control.open_connections.fetch_sub(1, Ordering::Relaxed);
        }
        let mut live = 0usize;
        for slot in conns.iter_mut() {
            let Some(mut conn) = slot.take() else {
                continue;
            };
            match serve_turn(reloadable, control, worker, &mut conn, ctx) {
                Turn::Close => close_conn(control, shared, conn),
                Turn::MoreWork => {
                    live += 1;
                    *slot = Some(conn);
                }
                Turn::Wait => {
                    if conn.pending_out() == 0 {
                        // Nothing owed: an idle (or mid-line) connection
                        // is dropped during drain.
                        close_conn(control, shared, conn);
                    } else {
                        live += 1;
                        *slot = Some(conn);
                    }
                }
            }
        }
        if live == 0 || Instant::now() >= deadline {
            break;
        }
        let _ = shared.poller.wait(&mut events, Some(DRAIN_POLL));
    }
    for slot in conns.iter_mut() {
        if let Some(conn) = slot.take() {
            close_conn(control, shared, conn);
        }
    }
    for stream in std::mem::take(&mut *shared.inbox.lock().unwrap_or_else(|e| e.into_inner())) {
        drop(stream);
        control.open_connections.fetch_sub(1, Ordering::Relaxed);
    }
}

/// What the request dispatcher asks the connection loop to do after a
/// response.
enum Action {
    Continue,
    Close,
    Shutdown,
}

/// Outcome of one readiness turn on a connection.
enum Turn {
    /// Close and drop the connection (EOF drained, QUIT/SHUTDOWN
    /// flushed, or broken socket).
    Close,
    /// More complete requests are already framed: go to the back of the
    /// ready queue, no epoll round-trip needed.
    MoreWork,
    /// Readiness consumed: re-arm interest and park until the next
    /// event.
    Wait,
}

/// Position of the first newline, scanning only the unparsed suffix.
fn find_newline(buf: &[u8]) -> Option<usize> {
    buf.iter().position(|&b| b == b'\n')
}

/// Write as much pending response data as the socket accepts; only a
/// genuinely broken socket is an error (`WouldBlock` leaves the rest
/// for the next write-readiness event).
fn flush_pending(conn: &mut Conn) -> io::Result<()> {
    // Fault point: one check per flush pass that has bytes to write.
    // `Error` breaks the socket (connection closes, client reconnects);
    // `Delay` models a write stall; `ShortRead` caps this pass to one
    // byte, exercising the partial-write resume path.
    let write_fault = if conn.pending_out() == 0 {
        None
    } else {
        match faults::check(faults::point::SERVER_WRITE) {
            Some(FaultAction::Error) => {
                return Err(faults::injected_error(faults::point::SERVER_WRITE))
            }
            Some(FaultAction::Delay(d)) => {
                std::thread::sleep(d);
                None
            }
            other => other,
        }
    };
    while conn.outpos < conn.outbuf.len() {
        let limit = if write_fault == Some(FaultAction::ShortRead) {
            (conn.outpos + 1).min(conn.outbuf.len())
        } else {
            conn.outbuf.len()
        };
        match conn.stream.write(&conn.outbuf[conn.outpos..limit]) {
            Ok(0) => return Err(io::ErrorKind::WriteZero.into()),
            Ok(n) => {
                conn.outpos += n;
                if write_fault == Some(FaultAction::ShortRead) {
                    break; // leave the rest for the next readiness turn
                }
            }
            Err(e) if e.kind() == io::ErrorKind::WouldBlock => break,
            Err(e) if e.kind() == io::ErrorKind::Interrupted => {}
            Err(e) => return Err(e),
        }
    }
    if conn.outpos == conn.outbuf.len() {
        conn.outbuf.clear();
        conn.outpos = 0;
        // A burst (large BATCH fan-out, backpressured peer) must not pin
        // its high-water allocation on a long-lived connection forever.
        if conn.outbuf.capacity() > 2 * OUT_HIGH_WATER {
            conn.outbuf.shrink_to(READ_CHUNK);
        }
    } else if conn.outpos >= READ_CHUNK {
        // Partially flushed: drop the sent prefix so repeated partial
        // writes cannot creep the buffer.
        conn.outbuf.drain(..conn.outpos);
        conn.outpos = 0;
    }
    Ok(())
}

/// One readiness turn on one connection: flush what the last turn left
/// behind, drain the socket into the frame buffer, serve every complete
/// request line framed so far (up to [`YIELD_AFTER`]), and flush all of
/// those responses with a single coalesced `write`.
///
/// Framing is byte-exact regardless of fragmentation: a request
/// delivered byte-at-a-time accumulates across turns and parses
/// identically to one delivered whole. An over-long line (>
/// [`MAX_LINE_BYTES`]) answers `ERR request line too long` once and
/// switches to discard mode until its terminating newline, so the
/// *next* request on the connection parses cleanly — one bad line never
/// desyncs the stream or tears down the session.
fn serve_turn<S: HpStore>(
    reloadable: &ReloadableEngine<S>,
    control: &Control,
    worker: usize,
    conn: &mut Conn,
    ctx: &mut WorkerCtx<S>,
) -> Turn {
    if flush_pending(conn).is_err() {
        return Turn::Close;
    }
    // Read first — unless backpressured: a peer that owes us a drain
    // gets no more requests buffered on its behalf.
    if conn.pending_out() < OUT_HIGH_WATER && !conn.eof {
        // Fault point: one check per turn. `Error` breaks the socket
        // (the client sees a reset and reconnects), `Delay` models a
        // stalled read, `ShortRead` truncates this turn's first read to
        // one byte (framing must resume byte-exactly).
        let read_fault = match faults::check(faults::point::SERVER_READ) {
            Some(FaultAction::Error) => return Turn::Close,
            Some(FaultAction::Delay(d)) => {
                std::thread::sleep(d);
                None
            }
            other => other,
        };
        let mut turn_read = 0usize;
        let mut chunk = [0u8; READ_CHUNK];
        while turn_read < TURN_READ_CAP {
            let window = if read_fault == Some(FaultAction::ShortRead) && turn_read == 0 {
                1
            } else {
                READ_CHUNK
            };
            match conn.stream.read(&mut chunk[..window]) {
                Ok(0) => {
                    conn.eof = true;
                    break;
                }
                Ok(n) => {
                    if conn.read_at.is_none() {
                        conn.read_at = Some(Instant::now());
                    }
                    conn.inbuf.extend_from_slice(&chunk[..n]);
                    turn_read += n;
                    if n < window {
                        break; // drained the socket
                    }
                }
                Err(e) if e.kind() == io::ErrorKind::WouldBlock => break,
                Err(e) if e.kind() == io::ErrorKind::Interrupted => {}
                Err(_) => return Turn::Close,
            }
        }
    }
    // Serve the complete lines framed so far.
    let mut consumed = 0usize;
    let mut served_this_turn = 0u32;
    let mut shutdown_now = false;
    loop {
        if conn.discarding {
            // Skip the tail of an over-long line; its error response was
            // queued when discard mode started.
            match find_newline(&conn.inbuf[consumed..]) {
                Some(nl) => {
                    consumed += nl + 1;
                    conn.discarding = false;
                }
                None => {
                    consumed = conn.inbuf.len();
                    break;
                }
            }
            continue;
        }
        if served_this_turn >= YIELD_AFTER
            || conn.close_after_flush
            || conn.pending_out() >= OUT_HIGH_WATER
        {
            break;
        }
        let rest_len = conn.inbuf.len() - consumed;
        let Some(nl) = find_newline(&conn.inbuf[consumed..]) else {
            if rest_len > MAX_LINE_BYTES {
                // The line already exceeds the cap with no newline in
                // sight: answer once, then discard until it ends.
                conn.outbuf
                    .extend_from_slice(b"ERR request line too long\n");
                conn.discarding = true;
                consumed = conn.inbuf.len();
            }
            break;
        };
        ctx.response.clear();
        let action = if nl > MAX_LINE_BYTES {
            ctx.response.push_str("ERR request line too long");
            Action::Continue
        } else {
            let line = &conn.inbuf[consumed..consumed + nl];
            match std::str::from_utf8(line) {
                Err(_) => {
                    ctx.response.push_str("ERR request is not valid UTF-8");
                    Action::Continue
                }
                Ok(text) => match Request::parse(text.trim_end_matches(['\n', '\r'])) {
                    Err(msg) => {
                        let _ = write!(ctx.response, "ERR {msg}");
                        Action::Continue
                    }
                    Ok(req) => handle_request(reloadable, control, worker, conn, req, ctx),
                },
            }
        };
        consumed += nl + 1;
        served_this_turn += 1;
        // Coalesce: every response of this turn accumulates here and is
        // flushed below with one write.
        conn.outbuf.extend_from_slice(ctx.response.as_bytes());
        conn.outbuf.push(b'\n');
        match action {
            Action::Continue => {}
            Action::Close => conn.close_after_flush = true,
            Action::Shutdown => {
                conn.close_after_flush = true;
                shutdown_now = true;
            }
        }
    }
    if consumed > 0 {
        conn.inbuf.drain(..consumed);
    }
    if conn.inbuf.is_empty() {
        // Buffer fully consumed: the next bytes to arrive start a fresh
        // deadline budget.
        conn.read_at = None;
        if conn.inbuf.capacity() > TURN_READ_CAP {
            conn.inbuf.shrink_to(READ_CHUNK);
        }
    }
    if shutdown_now {
        control.initiate_shutdown();
    }
    if flush_pending(conn).is_err() {
        return Turn::Close;
    }
    let pending = conn.pending_out();
    if pending == 0 && (conn.close_after_flush || conn.eof) {
        return Turn::Close;
    }
    let has_line = !conn.discarding && find_newline(&conn.inbuf).is_some();
    if has_line && !conn.close_after_flush && pending < OUT_HIGH_WATER {
        return Turn::MoreWork;
    }
    Turn::Wait
}

/// A query request's trace verb and the keys it is answered by, in
/// order: one key for `PAIR`, `SOURCE` and `TOPK`, one per pair for
/// `BATCH`. `None` for the admin verbs (PING/STATS/METRICS/SLOWLOG/
/// TRACE/RELOAD/QUIT/SHUTDOWN), which admission always passes: an
/// operator must be able to inspect — and stop — an overloaded server.
/// A `TOPK` `k` above `u32::MAX` is clamped, as the trace encodes it;
/// no graph has that many nodes, so the answer is the same.
fn query_keys(req: &Request) -> Option<(TraceVerb, impl Iterator<Item = TraceKey> + Clone + '_)> {
    let (verb, one, pairs) = match *req {
        Request::Pair { u, v } => (TraceVerb::Pair, Some(TraceKey::Pair(u, v)), &[][..]),
        Request::Source { u } => (TraceVerb::Source, Some(TraceKey::Node(u)), &[][..]),
        Request::TopK { u, k } => {
            let k = k.min(u32::MAX as usize) as u32;
            (TraceVerb::TopK, Some(TraceKey::NodeK(u, k)), &[][..])
        }
        Request::Batch { ref pairs } => (TraceVerb::Batch, None, &pairs[..]),
        _ => return None,
    };
    let pairs = pairs.iter().map(|&(u, v)| TraceKey::Pair(u, v));
    Some((verb, one.into_iter().chain(pairs)))
}

/// Fast-fail admission control, checked once per query request before
/// any key touches the engine: [`TraceOutcome::Shed`] (`ERR
/// overloaded`) when this connection already owes
/// [`ServerConfig::shed_pending_bytes`] unserved input plus unflushed
/// output bytes, [`TraceOutcome::Deadline`] (`ERR deadline`) when the
/// request's bytes have already waited longer than the budget. Both
/// answers are retryable by contract (see the crate-level error
/// taxonomy) — the client backs off and re-sends, which is cheaper for
/// everyone than queue collapse.
fn admission(control: &Control, conn: &Conn) -> Option<TraceOutcome> {
    let pending = conn.pending_out() + conn.inbuf.len();
    if control.shed_pending_bytes > 0 && pending >= control.shed_pending_bytes {
        control.requests_shed.inc();
        return Some(TraceOutcome::Shed);
    }
    if !control.deadline.is_zero()
        && conn
            .read_at
            .is_some_and(|at| at.elapsed() > control.deadline)
    {
        control.requests_deadline.inc();
        return Some(TraceOutcome::Deadline);
    }
    None
}

/// What one answered key adds to the reply.
enum Answer {
    /// A `PAIR` or `BATCH` pair's score.
    Score(f64),
    /// A `SOURCE` vector, left in the worker's `scores`.
    Scores,
    /// A `TOPK` selection.
    Top(Vec<(NodeId, f64)>),
}

impl Answer {
    /// Append ` <answer>` to the reply; `scores` is the worker's
    /// `SOURCE` vector.
    fn write_to(self, out: &mut String, scores: &[f64]) {
        match self {
            Answer::Score(score) => {
                let _ = write!(out, " {score}");
            }
            Answer::Scores => {
                out.push(' ');
                write_scores(out, scores);
            }
            Answer::Top(top) => {
                let _ = write!(out, " {}", top.len());
                for (node, score) in top {
                    let _ = write!(out, " {}:{score}", node.0);
                }
            }
        }
    }
}

/// Answer one query key in the worker's one workspace. A pair is
/// canonicalized and scored through the shared cache when one is
/// configured (the cached path prefetches internally, on misses only —
/// a hit never touches the store, so advising it would waste syscalls
/// on the hottest path). Cache inserts are tagged with the generation's
/// epoch, so a swap landing mid-query can never get a
/// retired-generation score admitted as fresh.
fn answer_key<S: HpStore>(
    gen: &EngineGeneration<S>,
    control: &Control,
    ws: &mut QueryWorkspace,
    scores: &mut Vec<f64>,
    key: TraceKey,
) -> Result<Answer, SlingError> {
    let (engine, graph) = (&gen.engine, &*gen.graph);
    match key {
        TraceKey::Pair(u, v) => {
            let (a, b) = (NodeId(u.min(v)), NodeId(u.max(v)));
            match &control.cache {
                Some(cache) => engine.single_pair_cached_tagged(graph, ws, cache, a, b, gen.epoch),
                None => {
                    engine.store().prefetch(a);
                    if a != b {
                        engine.store().prefetch(b);
                    }
                    engine.single_pair_with(graph, ws, a, b)
                }
            }
            .map(Answer::Score)
        }
        TraceKey::Node(u) => {
            engine.store().prefetch(NodeId(u));
            engine
                .single_source_with(graph, ws, NodeId(u), scores)
                .map(|()| Answer::Scores)
        }
        TraceKey::NodeK(u, k) => {
            engine.store().prefetch(NodeId(u));
            engine
                .top_k_with(graph, ws, scores, NodeId(u), k as usize)
                .map(Answer::Top)
        }
    }
}

/// How one query key ended.
enum Outcome<'a> {
    /// Answered in the given time, with the kernel's stage breakdown.
    Served(Duration, StageNanos),
    /// The engine failed after the given time.
    Failed(Duration, &'a SlingError),
    /// Refused by admission, `Shed` or `Deadline`, before any work.
    Refused(TraceOutcome),
}

/// Record how one query key ended, everywhere it is observed. Every
/// outcome goes to the traffic trace when one is recording, so a
/// capture shows offered load, not just served load. A served key also
/// feeds the latency histogram, the per-stage kernel histograms (zero
/// stages are skipped, so each stage family's `_count` counts the
/// queries that actually exercised it) and — at or above the threshold
/// — the slow-query log. A failed key charges storage-layer errors
/// (`CorruptIndex`/IO — the signatures of an index rotting *after*
/// promotion) to its generation; on a slot with a generation store,
/// crossing the configured threshold quarantines the generation and
/// rolls back (see [`ReloadableEngine::note_runtime_error`]).
fn record_key<S: HpStore>(
    reloadable: &ReloadableEngine<S>,
    control: &Control,
    worker: usize,
    gen: &EngineGeneration<S>,
    (verb, key): (TraceVerb, TraceKey),
    outcome: Outcome<'_>,
) {
    let (traced, elapsed) = match outcome {
        Outcome::Served(elapsed, _) => (TraceOutcome::Ok, elapsed),
        Outcome::Failed(elapsed, _) => (TraceOutcome::Err, elapsed),
        Outcome::Refused(refused) => (refused, Duration::ZERO),
    };
    if let Some(rec) = &control.recorder {
        rec.push(verb, key, traced, elapsed, gen.epoch);
    }
    match outcome {
        Outcome::Served(_, stages) => {
            control.latency[worker].record(elapsed);
            let shard = &control.stages[worker];
            for (hist, ns) in [
                (&shard.entry_fetch, stages.entry_fetch),
                (&shard.restore, stages.restore),
                (&shard.merge, stages.merge),
                (&shard.propagate, stages.propagate),
            ] {
                if ns > 0 {
                    hist.record_ns(ns);
                }
            }
            let threshold = control.slowlog.threshold();
            if !threshold.is_zero() && elapsed >= threshold {
                control.slowlog.record(SlowQueryRecord {
                    verb,
                    key,
                    generation: gen.name.clone(),
                    epoch: gen.epoch,
                    total: elapsed,
                    stages,
                });
            }
        }
        Outcome::Failed(_, err) => {
            if matches!(err, SlingError::CorruptIndex(_) | SlingError::Io(_)) {
                reloadable.note_runtime_error(
                    gen,
                    control.rollback_error_threshold,
                    control.cache.as_ref(),
                );
            }
        }
        Outcome::Refused(_) => {}
    }
}

/// Frame a multi-line payload for the one-line protocol: `OK <bytes>`
/// followed by exactly that many payload bytes. The connection loop
/// appends the response's final `\n`, so the payload's trailing newline
/// is emitted by it — `<bytes>` always counts a newline-terminated
/// payload.
fn write_framed(out: &mut String, payload: &str) {
    let body = payload.strip_suffix('\n').unwrap_or(payload);
    let _ = write!(out, "OK {}", body.len() + 1);
    out.push('\n');
    out.push_str(body);
}

/// Answer one request. A query request is mapped once to its verb and
/// keys ([`query_keys`]) and admitted or refused whole ([`admission`]);
/// each admitted key is timed, answered in the worker's one workspace
/// ([`answer_key`]) and recorded ([`record_key`]). `served` counts
/// every admitted key up front, a `BATCH`'s pairs included; a `BATCH`
/// stops at its first failed pair and answers only that error.
fn handle_request<S: HpStore>(
    reloadable: &ReloadableEngine<S>,
    control: &Control,
    worker: usize,
    conn: &Conn,
    req: Request,
    ctx: &mut WorkerCtx<S>,
) -> Action {
    // Refresh the cached generation if a swap landed (one atomic
    // compare); the Arc clone keeps this request on one consistent
    // generation even if another swap lands mid-request.
    let gen = ctx.generation(reloadable);
    let Some((verb, keys)) = query_keys(&req) else {
        return handle_admin(reloadable, control, &gen, req, ctx);
    };
    let record = |key, outcome| record_key(reloadable, control, worker, &gen, (verb, key), outcome);
    let out = &mut ctx.response;
    if let Some(refused) = admission(control, conn) {
        for key in keys {
            record(key, Outcome::Refused(refused));
        }
        out.push_str(match refused {
            TraceOutcome::Deadline => "ERR deadline",
            _ => "ERR overloaded",
        });
        return Action::Continue;
    }
    let admitted = keys.clone().count();
    control.served[worker].add(admitted as u64);
    out.push_str("OK");
    if verb == TraceVerb::Batch {
        let _ = write!(out, " {admitted}");
    }
    for key in keys {
        let t0 = Instant::now();
        let answer = answer_key(&gen, control, &mut ctx.ws, &mut ctx.scores, key);
        let elapsed = t0.elapsed();
        let stages = ctx.ws.take_trace();
        match answer {
            Ok(answer) => {
                record(key, Outcome::Served(elapsed, stages));
                answer.write_to(out, &ctx.scores);
            }
            Err(e) => {
                record(key, Outcome::Failed(elapsed, &e));
                out.clear();
                let _ = write!(out, "ERR {e}");
                break;
            }
        }
    }
    Action::Continue
}

/// Answer one admin request (every verb [`query_keys`] maps to `None`).
fn handle_admin<S: HpStore>(
    reloadable: &ReloadableEngine<S>,
    control: &Control,
    gen: &EngineGeneration<S>,
    req: Request,
    ctx: &mut WorkerCtx<S>,
) -> Action {
    let out = &mut ctx.response;
    match req {
        Request::Ping => out.push_str("OK pong"),
        Request::Quit => {
            out.push_str("OK bye");
            return Action::Close;
        }
        Request::Shutdown => {
            out.push_str("OK shutting-down");
            return Action::Shutdown;
        }
        Request::Reload { force } => match reloadable.try_reload(control.cache.as_ref(), force) {
            Ok(swapped) => {
                let _ = write!(
                    out,
                    "OK generation={} epoch={} swapped={swapped}",
                    reloadable.current().name,
                    reloadable.epoch()
                );
            }
            Err(e) => {
                let _ = write!(out, "ERR reload failed: {e}");
            }
        },
        Request::Stats => {
            out.push_str("OK ");
            render_stats(&ctx.metrics, control, &gen.name, out);
        }
        Request::Metrics => {
            write_framed(out, &ctx.metrics.render_prometheus());
        }
        Request::Slowlog => {
            let mut payload = String::new();
            for rec in control.slowlog.snapshot() {
                let _ = writeln!(payload, "{rec}");
            }
            write_framed(out, &payload);
        }
        Request::Trace { from, max } => match &control.recorder {
            None => out.push_str("ERR trace recording is not enabled (serve --record)"),
            Some(rec) => {
                let chunk = rec.read_from(from, max.min(MAX_TRACE_BATCH));
                let mut payload = format!(
                    "base_us={} next_seq={} dropped={}\n",
                    chunk.base_us, chunk.next_seq, chunk.dropped
                );
                for (seq, r) in &chunk.records {
                    let _ = write!(payload, "{seq} ");
                    // Absolute timestamps (delta from 0): wire lines are
                    // independently parseable, so a poller can dedup by
                    // sequence without threading a running clock.
                    encode_record(r, 0, &mut payload);
                }
                write_framed(out, &payload);
            }
        },
        // Query verbs: answered by `handle_request`.
        Request::Pair { .. }
        | Request::Source { .. }
        | Request::TopK { .. }
        | Request::Batch { .. } => {}
    }
    Action::Continue
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Each query verb maps to its trace verb and keys once; admin verbs
    /// map to none, so admission never refuses them.
    #[test]
    fn query_keys_map_each_query_verb_and_no_admin_verb() {
        let keys = |line: &str| {
            let req = Request::parse(line).unwrap();
            query_keys(&req).map(|(verb, keys)| (verb, keys.collect::<Vec<_>>()))
        };
        let one = |verb, key| Some((verb, vec![key]));
        assert_eq!(
            keys("PAIR 3 77"),
            one(TraceVerb::Pair, TraceKey::Pair(3, 77))
        );
        assert_eq!(keys("SOURCE 3"), one(TraceVerb::Source, TraceKey::Node(3)));
        assert_eq!(
            keys("TOPK 3 5"),
            one(TraceVerb::TopK, TraceKey::NodeK(3, 5))
        );
        // A k past u32::MAX is clamped as the trace encodes it.
        assert_eq!(
            keys("TOPK 3 99999999999"),
            one(TraceVerb::TopK, TraceKey::NodeK(3, u32::MAX))
        );
        assert_eq!(
            keys("BATCH 1,2 2,1 4,4"),
            Some((
                TraceVerb::Batch,
                vec![
                    TraceKey::Pair(1, 2),
                    TraceKey::Pair(2, 1),
                    TraceKey::Pair(4, 4)
                ]
            ))
        );
        for admin in [
            "PING",
            "STATS",
            "METRICS",
            "SLOWLOG",
            "TRACE 0 16",
            "RELOAD",
            "RELOAD FORCE",
            "QUIT",
            "SHUTDOWN",
        ] {
            assert_eq!(keys(admin), None, "{admin}");
        }
    }
}
