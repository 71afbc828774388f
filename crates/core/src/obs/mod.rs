//! # obs — unified observability
//!
//! One subsystem for everything the stack can tell an operator:
//!
//! * [`registry`] — the [`MetricsRegistry`] of named counters, gauges,
//!   and histograms, with a stable Prometheus text renderer and a
//!   fixed-key-order JSON snapshot;
//! * [`histogram`] — the lock-free log-bucketed [`Histogram`] (shared
//!   with the server's latency reporting; one implementation in tree);
//! * [`trace`] — the zero-cost-when-disabled per-query [`QueryTrace`]
//!   stage breakdown and the ring-buffered [`SlowQueryLog`].
//!
//! ## Kernel and lifecycle counters
//!
//! The query kernels and lifecycle sit *below* any server, and their
//! hot paths must not thread a registry reference through every
//! backend call. They instead increment the process-wide relaxed
//! atomics in [`KERNEL`] / [`LIFECYCLE`] / [`CLIENT`] — one `fetch_add`
//! per event, loop-local accumulation where an event would land inside
//! an inner loop — and [`register_process_metrics`] surfaces them in a
//! registry as closure-backed counters. The counters are monotone and
//! process-global: rates and deltas, not per-engine gauges. Everything
//! a server counts for itself — requests, connections, event loops, its
//! traffic-trace recorder — is a handle in that server's own registry
//! instead, so two servers in one process never share a count.
//!
//! Outside tests this layer never unwraps: a scrape must not panic
//! because an earlier one did, so a poisoned registry or slow-log lock
//! is recovered, not unwrapped.

#![cfg_attr(not(test), deny(clippy::unwrap_used, clippy::expect_used))]

pub mod histogram;
pub mod registry;
pub mod trace;

pub use histogram::{Histogram, LatencyReport};
pub use registry::{Counter, MetricsRegistry};
pub use trace::{QueryTrace, SlowQueryLog, SlowQueryRecord, StageNanos};

use std::sync::atomic::{AtomicU64, Ordering};

/// Process-wide kernel event counters (see module docs).
#[derive(Debug)]
pub struct KernelCounters {
    /// Always 0: nothing memoizes restored lists, so no lookup can
    /// hit. Kept for readers that report the restore hit rate.
    pub restore_cache_hits: AtomicU64,
    /// Always 0, like [`KernelCounters::restore_cache_hits`].
    pub restore_cache_misses: AtomicU64,
    /// Compressed blocks decoded (the v2/v3 mmap backend).
    pub block_decodes: AtomicU64,
    /// Encoded block bytes decoded from backend storage on behalf of
    /// queries.
    pub backend_bytes_read: AtomicU64,
    /// Intersect-merges dispatched to the galloping kernel (≥8× skew).
    pub merge_gallop: AtomicU64,
    /// Intersect-merges dispatched to the linear kernel.
    pub merge_linear: AtomicU64,
    /// Frontier bitset words swept by Algorithm-6 propagation.
    pub frontier_words: AtomicU64,
}

impl KernelCounters {
    const fn new() -> Self {
        KernelCounters {
            restore_cache_hits: AtomicU64::new(0),
            restore_cache_misses: AtomicU64::new(0),
            block_decodes: AtomicU64::new(0),
            backend_bytes_read: AtomicU64::new(0),
            merge_gallop: AtomicU64::new(0),
            merge_linear: AtomicU64::new(0),
            frontier_words: AtomicU64::new(0),
        }
    }

    /// One relaxed increment; the kernels call this, never `fetch_add`
    /// directly, so every hook site reads the same way.
    #[inline]
    pub fn bump(cell: &AtomicU64) {
        cell.fetch_add(1, Ordering::Relaxed);
    }

    /// One relaxed bulk add (for loop-local accumulations).
    #[inline]
    pub fn bump_by(cell: &AtomicU64, n: u64) {
        if n > 0 {
            cell.fetch_add(n, Ordering::Relaxed);
        }
    }
}

/// The kernel counters. Static so `HpStore` impls and kernels can
/// increment without carrying a registry handle.
pub static KERNEL: KernelCounters = KernelCounters::new();

/// Process-wide index-lifecycle event counters.
#[derive(Debug)]
pub struct LifecycleCounters {
    /// Generations published into a `GenerationStore`.
    pub publishes: AtomicU64,
    /// `CURRENT` promotions (including rollbacks).
    pub promotions: AtomicU64,
    /// Retired generations removed by GC.
    pub gc_removed: AtomicU64,
    /// Warm-up priming passes run against a fresh engine.
    pub warmups: AtomicU64,
    /// Hot keys primed across all warm-up passes.
    pub warmup_keys: AtomicU64,
}

impl LifecycleCounters {
    const fn new() -> Self {
        LifecycleCounters {
            publishes: AtomicU64::new(0),
            promotions: AtomicU64::new(0),
            gc_removed: AtomicU64::new(0),
            warmups: AtomicU64::new(0),
            warmup_keys: AtomicU64::new(0),
        }
    }
}

/// The lifecycle counters (see [`KERNEL`] for the pattern).
pub static LIFECYCLE: LifecycleCounters = LifecycleCounters::new();

/// Process-wide client-resilience counters. `RetryingClient` lives in
/// `sling-server`, but the counters sit here so in-process clients
/// (benches, chaos tests) surface through the same registry the server
/// exports — `sling_retries_total` shows up in the server's own
/// `METRICS` when the harness shares the process.
#[derive(Debug)]
pub struct ClientCounters {
    /// Requests re-sent after a retryable failure.
    pub retries: AtomicU64,
    /// Connections re-established after an IO failure.
    pub reconnects: AtomicU64,
    /// Requests abandoned after exhausting the retry budget.
    pub giveups: AtomicU64,
}

impl ClientCounters {
    const fn new() -> Self {
        ClientCounters {
            retries: AtomicU64::new(0),
            reconnects: AtomicU64::new(0),
            giveups: AtomicU64::new(0),
        }
    }
}

/// The client-resilience counters (see [`KERNEL`] for the pattern).
pub static CLIENT: ClientCounters = ClientCounters::new();

macro_rules! register_static_counters {
    ($reg:expr, $src:expr, { $($name:literal => $field:ident: $help:literal,)+ }) => {
        $($reg.counter_fn($name, $help, || $src.$field.load(Ordering::Relaxed));)+
    };
}

/// Register the process-wide kernel, lifecycle, client and
/// fault-injection counters into `reg` (the `sling_kernel_*`,
/// `sling_lifecycle_*`, client-retry and `sling_faults_*` families).
pub fn register_process_metrics(reg: &MetricsRegistry) {
    register_static_counters!(reg, KERNEL, {
        "sling_kernel_block_decodes_total" => block_decodes:
            "compressed index blocks decoded",
        "sling_kernel_backend_bytes_read_total" => backend_bytes_read:
            "bytes fetched from backend storage for queries",
        "sling_kernel_merge_gallop_total" => merge_gallop:
            "intersect-merges dispatched to the galloping kernel",
        "sling_kernel_merge_linear_total" => merge_linear:
            "intersect-merges dispatched to the linear kernel",
        "sling_kernel_frontier_words_total" => frontier_words:
            "frontier bitset words swept by Algorithm-6 propagation",
    });
    register_static_counters!(reg, LIFECYCLE, {
        "sling_lifecycle_publishes_total" => publishes:
            "index generations published",
        "sling_lifecycle_promotions_total" => promotions:
            "CURRENT promotions (including rollbacks)",
        "sling_lifecycle_gc_removed_total" => gc_removed:
            "retired generations removed by GC",
        "sling_lifecycle_warmups_total" => warmups:
            "warm-up priming passes",
        "sling_lifecycle_warmup_keys_total" => warmup_keys:
            "hot keys primed during warm-up",
    });
    register_static_counters!(reg, CLIENT, {
        "sling_retries_total" => retries:
            "client requests re-sent after a retryable failure",
        "sling_client_reconnects_total" => reconnects:
            "client connections re-established after an IO failure",
        "sling_client_giveups_total" => giveups:
            "client requests abandoned after exhausting retries",
    });
    reg.counter_fn(
        "sling_faults_injected_total",
        "faults injected by the deterministic fault registry",
        crate::faults::injected_total,
    );
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn process_metrics_register_and_read() {
        let reg = MetricsRegistry::new();
        register_process_metrics(&reg);
        // Statics are process-global, so only assert presence and
        // monotonicity — other tests may be incrementing concurrently.
        let before = reg
            .counter_value("sling_kernel_merge_linear_total")
            .expect("kernel counter registered");
        KernelCounters::bump(&KERNEL.merge_linear);
        let after = reg
            .counter_value("sling_kernel_merge_linear_total")
            .unwrap();
        assert!(after > before);
        assert!(reg
            .counter_value("sling_lifecycle_promotions_total")
            .is_some());
        let text = reg.render_prometheus();
        assert!(text.contains("sling_kernel_frontier_words_total"));
    }

    #[test]
    fn bump_by_zero_is_a_no_op() {
        let cell = AtomicU64::new(5);
        KernelCounters::bump_by(&cell, 0);
        assert_eq!(cell.load(Ordering::Relaxed), 5);
        KernelCounters::bump_by(&cell, 3);
        assert_eq!(cell.load(Ordering::Relaxed), 8);
    }
}
