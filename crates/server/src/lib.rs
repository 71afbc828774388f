//! # sling-server
//!
//! A long-lived, concurrent query server over a shared SLING engine —
//! the serving layer the SkyServer-style production traces motivate:
//! heavily skewed, hot-key-dominated query streams answered by warm
//! workers sharing one immutable index and one global result cache.
//!
//! ## Architecture
//!
//! * **One engine, many event loops.** The server holds an
//!   `Arc<SharedEngine<S>>` — typically one opened by
//!   [`sling_core::SharedEngine::open`] with
//!   [`sling_core::Residency::Mapped`], so the entry payload lives in the
//!   page cache — and spawns a *thread-per-core* worker pool. Each worker owns
//!   one epoll instance (via the vendored `polling` stub: oneshot
//!   `epoll_ctl` interest plus a level-triggered eventfd waker) and one
//!   [`sling_core::QueryWorkspace`], in which it answers every query
//!   kind, so the hot path shares only immutable state plus the sharded
//!   cache.
//! * **Sharded result cache.** Single-pair answers are memoized in a
//!   [`sling_core::ShardedResultCache`] shared by all workers; pairs are
//!   canonicalized before computing, so responses are bit-identical
//!   regardless of argument order, cache state, or which worker computed
//!   the entry first.
//! * **Prefetch.** Before running a query, workers call
//!   [`sling_core::HpStore::prefetch`] for its endpoints — on the mmap
//!   backend that issues `madvise(WILLNEED)` for the entry byte ranges,
//!   so cold out-of-core queries fault their pages in one batch.
//! * **Hot generation reload.** The engine lives in an epoch-tagged
//!   [`ReloadableEngine`] slot wired (optionally) to a
//!   [`sling_core::lifecycle::GenerationStore`]: promoting a new index
//!   generation (`sling promote`) and issuing `RELOAD` — or running the
//!   server with a watch interval — hot-swaps engines under live
//!   traffic. In-flight requests finish on the generation they started
//!   on, the next request per worker picks up the new one (one atomic
//!   compare on the hot path), and the result cache's epoch advances
//!   with the swap so a hit computed against a retired index is never
//!   served. Freshly opened generations are warmed from the store's
//!   hot-key log before taking traffic.
//! * **Nonblocking readiness loops, not blocking sessions.** The
//!   acceptor distributes incoming connections round-robin across the
//!   worker event loops (past [`ServerConfig::max_connections`] it
//!   answers `ERR busy` and closes instead). Each connection is a small
//!   state machine: requests are framed incrementally from whatever
//!   fragments arrive, all responses of one readiness turn are
//!   coalesced into a single `write`, and partial writes re-arm the
//!   connection for write readiness (with a pending-byte high-water
//!   mark for backpressure). Idle connections cost one epoll
//!   registration — no thread — so tens of thousands of mostly-idle
//!   clients are fine; busy pipeliners yield to the ready queue every
//!   64 requests, so they cannot starve others. Graceful shutdown:
//!   `SHUTDOWN` stores a flag and wakes every worker through its
//!   eventfd (lost-wakeup-safe), connections still owing work are
//!   drained for a grace period, idle ones are dropped, and
//!   [`ServerHandle::join`] returns the final `STATS` body.
//!
//! ## Wire protocol
//!
//! Newline-delimited UTF-8 text over TCP or a Unix-domain socket; one
//! request line yields exactly one response line. Node ids are decimal
//! `u32`. Scores are printed with Rust's shortest round-trip `f64`
//! formatting, so parsing a score back yields the **bit-identical**
//! float the server computed.
//!
//! | request | response |
//! |---|---|
//! | `PAIR <u> <v>` | `OK <score>` — single-pair SimRank (Algorithm 3); symmetric, canonicalized to `(min, max)` |
//! | `SOURCE <u>` | `OK <n> <s0> .. <s_{n-1}>` — full single-source vector (Algorithm 6) |
//! | `TOPK <u> <k>` | `OK <m> <node>:<score> ..` — top-k most similar to `u`, excluding `u` |
//! | `BATCH <u1>,<v1> <u2>,<v2> ..` | `OK <m> <s1> .. <sm>` — positionally aligned single-pair scores |
//! | `STATS` | `OK key=value ..` — the server's registry (see *Observability*) read key by key, in a fixed order clients parse by name: workers and served counts (`per_worker`, `evloop_wakeups` and `evloop_turns` comma-separated, worker 0 first), the serving index generation (`index_generation`, `index_epoch`, `swaps`, `last_swap_unix_ms`, rollback state), shed and deadline refusals, `trace=on\|off` then the recorder's counters, query-latency percentiles (`latency_count`, `latency_p50_us`, `latency_p99_us`, `latency_p999_us`, from per-worker log-bucketed histograms: ~12% resolution, lock-free on the hot path), connection gauges (`open_connections`, `idle_connections`, `rejected_connections`), `cache=on\|off` then the cache's size, hits/misses/evictions/hit-rate and admission policy, and `resident_bytes`; see [`stats_field`] |
//! | `METRICS` | `OK <bytes>` then exactly `<bytes>` payload bytes — the full Prometheus text exposition (see *Observability* below) |
//! | `SLOWLOG` | `OK <bytes>` then exactly `<bytes>` payload bytes — recent slow-query records, one per line, oldest first |
//! | `RELOAD` | `OK generation=<name> epoch=<e> swapped=<bool>` — check the generation store's `CURRENT` pointer and hot-swap to a newer promoted generation (`swapped=false` on pinned servers or when already current) |
//! | `PING` | `OK pong` |
//! | `QUIT` | `OK bye`, then the server closes this connection |
//! | `SHUTDOWN` | `OK shutting-down`, then the whole server drains and exits |
//!
//! Malformed requests and failed queries (node out of range, corrupt
//! index read) answer `ERR <message>` on the same connection — one bad
//! request never tears down the session, and IO errors only drop the
//! offending connection, never the server. An over-long request line
//! (> 1 MiB) answers `ERR request line too long` and is discarded up to
//! its terminating newline, so framing resyncs on the next request
//! instead of desyncing the stream.
//!
//! ```text
//! > PAIR 3 77
//! OK 0.08421108008291852
//! > TOPK 3 2
//! OK 2 41:0.22182040766777856 17:0.1821445210624356
//! > STATS
//! OK workers=8 served=1042 index_generation=static ... per_worker=130,131,... cache=on ...
//! ```
//!
//! ## Observability
//!
//! Every server owns a [`sling_core::obs::MetricsRegistry`] holding the
//! counters, gauges, and log-bucketed latency histograms of all layers.
//! It is the one place a server number lives: `METRICS` renders it as
//! Prometheus text, and `STATS` and [`ServerHandle::join`] render one
//! fixed table of its series, so no two expositions can disagree. What
//! the server counts itself is a handle in this registry, never a
//! process-wide atomic, so two servers in one process keep apart.
//!
//! Every query takes one path. A `PAIR`, `SOURCE` or `TOPK` request is
//! one query key and a `BATCH` one key per pair, each spelled as the
//! traffic trace spells it ([`sling_core::workload::TraceVerb`],
//! [`sling_core::workload::TraceKey`]). Admission admits or refuses a
//! request whole; `sling_server_requests_total` counts every admitted
//! key up front. One function then records how each key ended:
//!
//! * **served** — `sling_server_request_ns`, the stage histograms, the
//!   trace (`ok`) and, at or above the threshold, the slow log;
//! * **failed** — the runtime-error charge that drives rollback, and
//!   the trace (`err`);
//! * **refused by admission** — the trace (`shed` or `deadline`).
//!
//! So a slow-log line and the trace record of the same query carry the
//! same verb and key.
//!
//! * **Server** — `sling_server_requests_total` (per-worker sharded),
//!   `sling_server_request_ns` (histogram), connection gauges
//!   (`sling_server_open_connections`, `sling_server_active_connections`,
//!   `sling_server_rejected_connections_total`,
//!   `sling_accept_errors_total`), per-worker event-loop counters
//!   (`sling_evloop_wakeups_total`, `sling_evloop_turns_total`), shed
//!   and deadline refusals, and `sling_slow_queries_total`.
//! * **Traffic trace** — the recorder's `sling_trace_records_total`,
//!   `sling_trace_records_dropped_total` and `sling_trace_bytes_total`
//!   (0 when recording is off).
//! * **Cache** — `sling_cache_{hits,misses,evictions,admission_rejects}_total`
//!   plus the `sling_cache_entries` / `sling_cache_capacity` /
//!   `sling_cache_shards` gauges.
//! * **Kernel stages** — per-query breakdowns recorded by the traced
//!   worker workspaces into `sling_query_stage_{entry_fetch,restore,
//!   merge,propagate}_ns` histograms, alongside the process-wide kernel
//!   counters (`sling_kernel_*_total`) from [`sling_core::obs::KERNEL`].
//! * **Lifecycle** — `sling_lifecycle_*_total` (publish / promote / GC /
//!   warm-up) and the swap-slot family (`sling_index_epoch`,
//!   `sling_index_swaps_total`, `sling_index_reload_failures_total`,
//!   `sling_index_last_swap_unix_ms`, `sling_rollbacks_total`,
//!   `sling_index_quarantined`, `sling_index_runtime_errors`,
//!   `sling_index_resident_bytes`), so a hot reload is visible in the
//!   same scrape as the latency shift it caused.
//!
//! Names follow `sling_<subsystem>_<what>[_total|_ns]`: `_total` marks
//! monotone counters, `_ns` marks nanosecond histograms rendered on an
//! exact power-of-two `le` ladder (1 µs … ~17 s). The `METRICS` and
//! `SLOWLOG` responses are **length-framed** because their payloads are
//! multi-line: the response is `OK <bytes>\n` followed by exactly
//! `<bytes>` payload bytes (always newline-terminated); everything else
//! on the connection stays newline-delimited. Queries at or above
//! [`ServerConfig::slow_query_us`] are admitted to a fixed-capacity ring
//! ([`sling_core::obs::SlowQueryLog`]) as structured one-line records:
//! `slow verb=.. key=.. generation=.. epoch=.. total_us=..
//! entry_fetch_us=.. restore_us=.. merge_us=.. propagate_us=..`, with
//! `verb` and `key` in the trace's encoding (`slow verb=TOPK key=3:5
//! ..`; a `BATCH` logs one line per slow pair).
//!
//! ## Error taxonomy and the client retry contract
//!
//! Every failure a client can observe falls into exactly one of two
//! classes, and the `ERR` message's **first token** is the contract:
//!
//! * **Retryable** — the request was refused *before* any query work
//!   ran, so retrying cannot double-apply anything and the answer,
//!   once admitted, is bit-identical to an unrefused run:
//!   * `ERR overloaded` — admission control shed the request because
//!     the connection's pending bytes (unserved input plus unflushed
//!     output) reached [`ServerConfig::shed_pending_bytes`]. The
//!     connection stays open; back off and retry on it.
//!   * `ERR deadline` — the request sat in server buffers longer than
//!     [`ServerConfig::deadline_us`] before dispatch; the server
//!     answers instead of burning index time on a reply the caller has
//!     likely abandoned. Connection stays open.
//!   * `ERR busy` — the acceptor is at
//!     [`ServerConfig::max_connections`]; the server closes this
//!     connection, so reconnect before retrying.
//!   * Connection-level IO errors (reset / refused / aborted / broken
//!     pipe / unexpected EOF / timeout) — the request outcome is
//!     unknown, but every query verb is a pure read, so reconnect and
//!     retry is always safe.
//! * **Permanent** — any other `ERR <message>` (unknown verb, parse
//!   failure, node out of range, over-long line, corrupt index read).
//!   Retrying the same request yields the same refusal; surface it.
//!
//! [`client::RetryingClient`] implements the client half of this
//! contract: **idempotent query verbs only** (`PAIR`, `SOURCE`,
//! `TOPK`, `BATCH`, `PING`) are retried, up to
//! [`client::ClientConfig::max_retries`] times with exponential
//! backoff and deterministic jitter, reconnecting when the taxonomy
//! calls for it. Mutating admin verbs (`RELOAD`, `SHUTDOWN`) are never
//! auto-retried — use [`client::RetryingClient::raw`] and decide at
//! the call site. Shed and deadline refusals are counted in
//! `sling_requests_shed_total` / `sling_requests_deadline_total`;
//! client-side retries, reconnects, and give-ups land in
//! `sling_retries_total`, `sling_client_reconnects_total`, and
//! `sling_client_giveups_total`.
//!
//! ## Fault injection
//!
//! The server's IO edges (`server.accept`, `server.read`,
//! `server.write`) are instrumented with
//! [`sling_core::faults`] checkpoints, alongside the storage-layer
//! points (`mmap.validate`, `lifecycle.publish`, `lifecycle.promote`);
//! [`sling_core::faults::point::ALL`] lists them all, and a schedule
//! naming any other point is refused. A deterministic fault schedule
//! (`SLING_FAULTS` or `sling serve --faults`) drives the chaos suite in
//! `tests/chaos.rs`; with no schedule installed every checkpoint is a
//! single relaxed atomic load. Runtime `CorruptIndex` / IO errors
//! observed while serving count against the live generation; at
//! [`ServerConfig::rollback_error_threshold`] the generation is
//! quarantined and the server rolls back to the newest verified prior
//! generation (`sling_rollbacks_total`), refusing to re-promote the
//! quarantined one until `RELOAD FORCE`.

#![cfg_attr(not(test), deny(clippy::unwrap_used, clippy::expect_used))]

pub mod client;
pub mod protocol;
mod recorder;
pub mod server;

pub use client::{Client, ClientConfig, RetryingClient, TraceSegment};
pub use protocol::{stats_field, Request};
pub use server::{
    serve, serve_reloadable, EngineGeneration, Listener, ReloadableEngine, ServerConfig,
    ServerHandle,
};

/// Type-erased bidirectional connection (TCP or Unix stream) used by
/// the blocking [`Client`]. (The server side no longer boxes
/// connections: its readiness loop owns nonblocking sockets directly.)
pub(crate) trait Conn: std::io::Read + std::io::Write + Send {}

impl Conn for std::net::TcpStream {}

impl Conn for std::os::unix::net::UnixStream {}

pub(crate) type BoxConn = Box<dyn Conn>;
