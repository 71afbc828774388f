//! # sling-core
//!
//! The **SLING** index — *SimRank via Local updates and samplING* — from
//! Tian & Xiao, *SLING: A Near-Optimal Index Structure for SimRank*,
//! SIGMOD 2016.
//!
//! SLING answers single-pair SimRank queries in `O(1/ε)` time and
//! single-source queries in `O(n/ε)` (or the practically faster
//! `O(m log² 1/ε)` Algorithm 6), using `O(n/ε)` space, while guaranteeing
//! at most `ε` additive error in every score with probability `1 − δ`.
//!
//! ## The two index components
//!
//! The index rests on the paper's reformulation of SimRank (Lemma 4):
//!
//! ```text
//! s(vi, vj) = Σ_{ℓ≥0} Σ_k  h⁽ℓ⁾(vi, vk) · d_k · h⁽ℓ⁾(vj, vk)
//! ```
//!
//! where `h⁽ℓ⁾(v, k)` is the probability that a **√c-walk** from `v` is at
//! `k` in its ℓ-th step (a reverse random walk that halts with probability
//! `1 − √c` at each step), and `d_k` is the probability that two √c-walks
//! from `k` never meet again after step 0. Correspondingly, the index
//! stores:
//!
//! * `d̃_k` per node, estimated by the adaptive sampling of **Algorithm 4**
//!   ([`correction`], [`bernoulli`]), and
//! * a truncated set `H(v)` of hitting probabilities `> θ`, built
//!   deterministically by the **Algorithm 2** local updates
//!   ([`local_update`]).
//!
//! ## Quick start
//!
//! ```
//! use sling_graph::generators::two_cliques_bridge;
//! use sling_core::{SlingConfig, SlingIndex};
//!
//! let graph = two_cliques_bridge(8);
//! let config = SlingConfig::from_epsilon(0.6, 0.05).with_seed(7);
//! let index = SlingIndex::build(&graph, &config).unwrap();
//!
//! // Single-pair query (Algorithm 3) — O(1/ε).
//! let s = index.single_pair(&graph, 0u32.into(), 1u32.into());
//! assert!(s > 0.0 && s <= 1.0);
//!
//! // Single-source query (Algorithm 6).
//! let scores = index.single_source(&graph, 0u32.into());
//! assert_eq!(scores.len(), graph.num_nodes());
//! ```
//!
//! ## Optimizations from §5 of the paper
//!
//! * adaptive correction-factor estimation with an asymptotically optimal
//!   sample count (§5.1, [`bernoulli`]);
//! * space reduction: step-1/2 hitting probabilities dropped for nodes
//!   whose two-hop in-neighborhood is small and recomputed exactly at
//!   query time (§5.2, [`two_hop`]);
//! * accuracy enhancement via on-the-fly expansion of marked entries
//!   (§5.3, [`enhance`]);
//! * one construction pipeline, parallel and out of core (§5.4): the
//!   d̃_k phase and the Algorithm 2 phase run on the block loop of
//!   [`parallel`] on any number of threads, and one assembler applies
//!   §5.2 and §5.3 to the sorted triples; the out-of-core builder
//!   ([`out_of_core`]) swaps only the in-memory sort for a bounded-memory
//!   external one. Every thread count and both sorts give the same
//!   index, byte for byte.
//!
//! ## Architecture: storage backends, engines, and serving
//!
//! The crate is layered like a small DBMS. At the bottom sits the
//! [`store::HpStore`] trait — the read interface to the packed per-node
//! hitting-probability sets — with one backend per residency, serving
//! the *same* persisted index with **identical scores**:
//!
//! | backend | residency | open cost | format |
//! |---|---|---|---|
//! | [`hp::HpArena`] | full decode in RAM | `O(n/ε)` decode | v1 + v2 + v3 |
//! | [`store::MmapHpArena`] | page cache, each run read and checked per query | metadata (+ block directory) | v1 + v2 + v3 |
//!
//! Both read a file's entries through one validating reader in
//! [`mod@format`]: the eager decode one block-sized chunk at a time, the
//! mapped backend one node's run at a time, so the two accept exactly
//! the same files. The mapped backend is the one out-of-core path
//! (§5.4): only the `O(n)` metadata is resident, and the OS page cache
//! is the buffer pool. Callers that pick the residency at run time open
//! every index through [`store::SharedEngine::open`]
//! ([`store::Residency::Mem`] or [`store::Residency::Mapped`]), which
//! returns an engine over the enum-dispatched [`store::IndexStore`].
//!
//! Persistence is versioned ([`mod@format`]): `SLNGIDX1` stores the entry
//! payload as raw fixed-width sections (14 bytes/entry, decode-free);
//! `SLNGIDX2` stores it as independently decodable compressed blocks
//! (the [`codec`] subsystem — delta-varint node ids per `(owner, step)`
//! run, run-length-coded steps, dictionary or fixed-point values behind
//! the [`codec::value::SectionCodec`] trait). `SLNGIDX3` extends the
//! block format with cross-block value compression: a file-global hub
//! dictionary for the values repeated across many owners, split
//! sign/exponent/mantissa planes for the residual f64s, and a
//! varint-delta block directory. Lossless compression (the default)
//! keeps every backend bit-identical — ~⅔ of the raw payload as v2,
//! ≤ 60% as v3 — while quantized v3 reaches ~40% with ≤ 2⁻³³ value
//! error, flagged in the header. Older generations stay readable
//! forever; `sling compact` converts any of them to v3 (the v2 writer
//! is kept for read-compatibility tests and benches) and `sling
//! inspect` reports the geometry, including the per-section payload
//! breakdown.
//!
//! Above the trait, every query algorithm is written **once**, generic
//! over `S: HpStore` — the §5.2/§5.3 effective-entry materialization
//! ([`index`]), Algorithm 3 ([`single_pair`]), Algorithm 6
//! ([`single_source`]), top-k ([`topk`]), joins ([`join`]), parallel
//! batches ([`batch`]), and result caching ([`cache`]). The trait also
//! carries an advisory [`store::HpStore::prefetch`] hook: the mmap
//! backends `madvise(WILLNEED)` a query's entry byte ranges so cold
//! out-of-core queries fault their pages in one batch.
//!
//! ### Query kernels
//!
//! The query kernels read every node the same way: the one store read,
//! [`store::HpStore::entries_into`], copies the node's validated run
//! into a buffer of the caller's [`QueryWorkspace`] — a slice copy from
//! the arena, a checked decode from the `SLNGIDX1` mapping, one
//! validating pass over each block the run touches for the compressed
//! files. A node whose effective list differs from its stored run
//! (§5.2-reduced or §5.3-marked) is then restored in that workspace, on
//! the engine and the bare [`SlingIndex`] alike. On BA(n, 4) graphs
//! of 2k–200k nodes at ε = 0.1 and the default γ, §5.2 reduces more
//! than 99.8% of the nodes, so almost every endpoint takes that path.
//! The workspace keeps its buffers' capacity from query to query, and
//! the kernels consume the resulting `&[HpEntry]` lists. The
//! single-pair merge dispatches on list-length skew: ≥ 8× apart
//! (hub-versus-leaf pairs, the dominant shape on power-law graphs)
//! switches the linear pass to a galloping merge over the longer list —
//! bit-identical by construction, since both kernels visit matches in
//! the same order. The linear merge survives as
//! [`store::SharedEngine::single_pair_materialized_with`], the oracle
//! the equivalence proptests pin the dispatch to (bit-equality on every
//! backend × query type) and a row of `sling bench-query`, which emits
//! the `BENCH_query.json` perf baseline.
//!
//! Two front-ends sit on top of a backend, over the same generic cores:
//!
//! * [`store::SharedEngine`] — the one query engine: a store bundled
//!   with the query-side metadata (correction factors, reduction
//!   bitmap, marks), owned, `Send + Sync` and `Arc`-shareable. Open an
//!   index once (in memory or mapped) and share it across threads for
//!   the process lifetime; workers keep per-thread workspaces, so the
//!   hot path shares only immutable state and the sharded caches.
//! * [`SlingIndex`]'s infallible convenience methods over the
//!   in-memory arena.
//!
//! For concurrent serving, [`cache::ShardedResultCache`] adds a global
//! single-pair result cache — power-of-two lock-per-shard over an
//! intrusive-list LRU, with [`cache::AtomicCacheStats`] counters that
//! stay exact under concurrency. Pairs are canonicalized before
//! computing, so cached and uncached answers are bit-identical across
//! threads and backends ([`store::SharedEngine::single_pair_cached`],
//! [`store::SharedEngine::batch_single_pair_cached`]). Only computed
//! scores are cached: a pair naming an out-of-range id fails its `O(1)`
//! range check before the cache is probed, so garbage traffic evicts
//! nothing. The `sling-server` crate stands a thread-per-core
//! TCP/Unix-socket server on exactly these pieces. This is what backs
//! §5.4's claim that SLING answers queries "even when its index
//! structure does not fit in the main memory": pick the backend at open
//! time, keep the algorithms — and now, keep them warm behind a server,
//! at a fraction of the mapped footprint.
//!
//! ### Index lifecycle: generations, promotion, warm restart
//!
//! Because the index is immutable and file-backed, *reindexing* is a
//! data-release problem, not a mutation problem. The [`lifecycle`]
//! subsystem turns that into an operational layer: a
//! [`lifecycle::GenerationStore`] holds versioned `gen-NNNN` directories
//! (each an index file, an optional graph snapshot, and a checksummed
//! `MANIFEST` recording format version, build config, and the
//! source-graph fingerprint), a `CURRENT` pointer is swapped by
//! write-temp + fsync + rename after full payload verification (crash
//! safe: at every instant `CURRENT` names a valid generation), retired
//! generations are GC'd on a retention policy, and
//! [`lifecycle::warm_engine`] primes a freshly opened generation
//! (prefetch + hot-key-log replay) before it takes traffic. The result
//! cache is **epoch-tagged** ([`ShardedResultCache`]) so a generation
//! swap invalidates it in O(1) — a hit computed against a retired index
//! is never served — and `sling-server` holds its engine in an
//! epoch-tagged reloadable slot that hot-swaps generations under live
//! traffic (`RELOAD`, or `serve --index-root <dir> --watch`).
//! [`dynamic::DynamicSling`]
//! rebuilds can publish-and-promote into the store
//! ([`dynamic::DynamicSling::rebuild_into`]) instead of replacing the
//! engine in place, closing the loop from graph churn to zero-downtime
//! swap.
//!
//! ### Observability: metrics registry and query tracing
//!
//! The [`obs`] layer is the single telemetry surface for all of the
//! above: a lock-free [`obs::MetricsRegistry`] of named counters,
//! gauges, and log-bucketed histograms (per-worker shards merged on
//! snapshot; stable Prometheus-text and fixed-key-order JSON
//! renderers), process-wide kernel counters ([`obs::KERNEL`]: block
//! decodes, backend bytes read, gallop-vs-linear merge dispatch,
//! frontier words swept) and
//! lifecycle counters ([`obs::LIFECYCLE`]: publishes, promotions, GC,
//! warm-ups), and a zero-cost-when-disabled [`obs::QueryTrace`] inside
//! every [`QueryWorkspace`] that charges wall time to the four kernel
//! stages (entry fetch, §5.2 restore, merge, Algorithm-6 propagation).
//! `sling-server` gives each server a registry of its own and renders
//! both its `STATS` line and its `METRICS` exposition from it, beside a
//! ring-buffered [`obs::SlowQueryLog`]; only the kernel, lifecycle and
//! client counters are process-global.
//!
//! Where `obs` reports what the server is doing, [`workload`] records
//! what the *traffic* looked like: the versioned, checksummed
//! `SLNGTRACE` traffic-trace format with streaming writer/readers
//! ([`workload::trace`]), deterministic SkyServer-shaped scenario
//! generators ([`workload::synth`]), offline cache simulation over a
//! trace ([`workload::sim`]), and the traffic-report characterization —
//! verb mix, popularity skew, burstiness, hit-rate-vs-size
//! ([`workload::report`]). The loop closes in [`cache`]: the
//! [`cache::Admission`] policy adds TinyLFU frequency-sketch admission
//! (epoch-tagged, reset on generation swap) to the result cache, tuned
//! and proven against exactly those traces.
//!
//! ## Extension features beyond the paper's evaluation
//!
//! * top-k single-source queries with bounded-heap selection over only
//!   the nodes Algorithm 6 reached (`O(t log k)` for `t` reached nodes)
//!   and an early-terminating approximate variant ([`topk`]);
//! * threshold and top-k similarity joins over the index ([`join`]);
//! * incremental maintenance under edge updates with taint tracking and
//!   pluggable staleness policies ([`dynamic`]) — the paper's stated
//!   future work;
//! * parallel batch query execution ([`batch`]) and an LRU single-pair
//!   result cache ([`cache`]), both generic over the storage backend;
//! * local-update personalized PageRank ([`ppr`]), the Appendix-B
//!   relative of Algorithm 2, with the HP ↔ PPR identity under test.

pub mod batch;
pub mod bernoulli;
pub mod cache;
pub mod codec;
pub mod config;
pub mod correction;
pub mod dynamic;
pub mod enhance;
pub mod error;
pub mod external_sort;
pub mod faults;
pub mod format;
pub mod hp;
pub mod index;
pub mod join;
pub mod lifecycle;
pub mod local_update;
pub mod obs;
pub mod out_of_core;
pub mod parallel;
pub mod ppr;
pub mod reference;
pub mod single_pair;
pub mod single_source;
pub mod store;
pub mod topk;
pub mod two_hop;
pub mod verify;
pub mod walk;
pub mod workload;

pub use cache::{Admission, AtomicCacheStats, CacheStats, ShardedResultCache};
pub use codec::CompressOptions;
pub use config::SlingConfig;
pub use error::SlingError;
pub use format::{
    inspect_bytes, inspect_file, payload_breakdown, FormatVersion, IndexFileInfo, PayloadBreakdown,
};
pub use hp::HpEntry;
pub use index::{QueryWorkspace, SlingIndex};
pub use lifecycle::{GenId, GenerationStore, Manifest};
pub use obs::{MetricsRegistry, QueryTrace, SlowQueryLog, SlowQueryRecord, StageNanos};
pub use store::{CompressedMmapArena, HpStore, IndexStore, MmapHpArena, Residency, SharedEngine};
pub use topk::select_top_k;
pub use walk::WalkEngine;
