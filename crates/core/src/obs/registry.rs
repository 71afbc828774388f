//! The process-wide metrics registry: named counters, gauges, and
//! log-bucketed histograms with a stable Prometheus-text renderer and a
//! fixed-key-order JSON snapshot.
//!
//! Registration (cold path) takes a mutex; every handle it returns is
//! **lock-free on the hot path** — a [`Counter`] is one relaxed
//! `fetch_add`, a [`Histogram`] record is one relaxed `fetch_add` into a
//! log bucket. A metric name may be registered repeatedly to obtain
//! per-worker *shards* of the same logical series (one cache line per
//! writer); snapshots merge the shards. Gauges and derived counters are
//! closure-backed, so existing atomics anywhere in the process (cache
//! stats, generation epochs, connection gauges) surface in a scrape
//! without being rehomed.
//!
//! ## Naming scheme
//!
//! `sling_<subsystem>_<what>[_total|_ns]` in `[a-z0-9_]`: `_total`
//! suffixes monotone counters, `_ns` suffixes nanosecond histograms
//! (rendered with an exact power-of-two `le` ladder — see
//! [`cumulative_below_pow2`]). Renders are sorted by metric name, so
//! both expositions are byte-stable for a given set of values.

use std::collections::btree_map::Entry;
use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex, MutexGuard, PoisonError};

use super::histogram::{
    approx_sum_ns, cumulative_below_pow2, report_from_counts, Histogram, LatencyReport, BUCKETS,
};

/// Exponents of the fixed `le` ladder used when rendering histograms:
/// powers of two from 1 µs to ~17 s. Octave boundaries are bucket
/// boundaries, so every rendered cumulative count is exact.
const LE_EXPONENTS: [u32; 13] = [10, 12, 14, 16, 18, 20, 22, 24, 26, 28, 30, 32, 34];

/// A lock-free monotone counter handle (one shard of a named series).
#[derive(Clone, Debug)]
pub struct Counter(Arc<AtomicU64>);

impl Counter {
    #[inline]
    pub fn inc(&self) {
        self.0.fetch_add(1, Ordering::Relaxed);
    }

    #[inline]
    pub fn add(&self, n: u64) {
        self.0.fetch_add(n, Ordering::Relaxed);
    }

    pub fn get(&self) -> u64 {
        self.0.load(Ordering::Relaxed)
    }
}

type ValueFn = Box<dyn Fn() -> u64 + Send + Sync>;
type GaugeFn = Box<dyn Fn() -> f64 + Send + Sync>;

enum Kind {
    /// Owned shards, summed on snapshot.
    Counter(Vec<Arc<AtomicU64>>),
    /// Closure-backed counters reading foreign atomics, summed.
    CounterFn(Vec<ValueFn>),
    /// Closure-backed gauges, summed (a single shard reads verbatim).
    GaugeFn(Vec<GaugeFn>),
    /// Histogram shards, bucket-merged on snapshot.
    Histogram(Vec<Arc<Histogram>>),
}

impl Kind {
    fn type_name(&self) -> &'static str {
        match self {
            Kind::Counter(_) | Kind::CounterFn(_) => "counter",
            Kind::GaugeFn(_) => "gauge",
            Kind::Histogram(_) => "histogram",
        }
    }
}

struct Metric {
    help: String,
    kind: Kind,
}

/// The registry. Cheap to share (`Arc`); see the module docs.
#[derive(Default)]
pub struct MetricsRegistry {
    metrics: Mutex<BTreeMap<String, Metric>>,
}

fn assert_valid_name(name: &str) {
    let ok = !name.is_empty()
        && name.starts_with(|c: char| c.is_ascii_lowercase() || c == '_')
        && name
            .chars()
            .all(|c| c.is_ascii_lowercase() || c.is_ascii_digit() || c == '_');
    assert!(ok, "invalid metric name {name:?} (want [a-z_][a-z0-9_]*)");
}

impl MetricsRegistry {
    pub fn new() -> Self {
        Self::default()
    }

    /// The metric map. Every update under this lock is one insert or one
    /// shard push, so a panic while it was held (a closure-backed metric
    /// that panicked mid-render, say) cannot leave the map half-updated;
    /// a poisoned lock is recovered instead of failing every later scrape.
    fn lock(&self) -> MutexGuard<'_, BTreeMap<String, Metric>> {
        self.metrics.lock().unwrap_or_else(PoisonError::into_inner)
    }

    fn with_metric<R>(
        &self,
        name: &str,
        help: &str,
        new_kind: impl FnOnce() -> Kind,
        join: impl FnOnce(&mut Kind) -> R,
    ) -> R {
        assert_valid_name(name);
        let mut metrics = self.lock();
        let metric = match metrics.entry(name.to_string()) {
            Entry::Occupied(e) => e.into_mut(),
            Entry::Vacant(e) => e.insert(Metric {
                help: help.to_string(),
                kind: new_kind(),
            }),
        };
        join(&mut metric.kind)
    }

    /// Register (or shard) a monotone counter and return its handle.
    pub fn counter(&self, name: &str, help: &str) -> Counter {
        self.with_metric(
            name,
            help,
            || Kind::Counter(Vec::new()),
            |kind| match kind {
                Kind::Counter(cells) => {
                    let cell = Arc::new(AtomicU64::new(0));
                    cells.push(cell.clone());
                    Counter(cell)
                }
                other => panic!("{name} already registered as {}", other.type_name()),
            },
        )
    }

    /// Register a derived counter that reads an existing atomic/source.
    pub fn counter_fn(&self, name: &str, help: &str, f: impl Fn() -> u64 + Send + Sync + 'static) {
        self.with_metric(
            name,
            help,
            || Kind::CounterFn(Vec::new()),
            |kind| match kind {
                Kind::CounterFn(fns) => fns.push(Box::new(f)),
                other => panic!("{name} already registered as {}", other.type_name()),
            },
        )
    }

    /// Register a closure-backed gauge (shards are summed).
    pub fn gauge_fn(&self, name: &str, help: &str, f: impl Fn() -> f64 + Send + Sync + 'static) {
        self.with_metric(
            name,
            help,
            || Kind::GaugeFn(Vec::new()),
            |kind| match kind {
                Kind::GaugeFn(fns) => fns.push(Box::new(f)),
                other => panic!("{name} already registered as {}", other.type_name()),
            },
        )
    }

    /// Register (or shard) a histogram and return the shard handle.
    pub fn histogram(&self, name: &str, help: &str) -> Arc<Histogram> {
        self.with_metric(
            name,
            help,
            || Kind::Histogram(Vec::new()),
            |kind| match kind {
                Kind::Histogram(shards) => {
                    let shard = Arc::new(Histogram::new());
                    shards.push(shard.clone());
                    shard
                }
                other => panic!("{name} already registered as {}", other.type_name()),
            },
        )
    }

    /// Merged value of a (possibly sharded) counter.
    pub fn counter_value(&self, name: &str) -> Option<u64> {
        let metrics = self.lock();
        match &metrics.get(name)?.kind {
            Kind::Counter(cells) => Some(cells.iter().map(|c| c.load(Ordering::Relaxed)).sum()),
            Kind::CounterFn(fns) => Some(fns.iter().map(|f| f()).sum()),
            _ => None,
        }
    }

    /// Per-shard values of a sharded counter, in registration order (a
    /// server registers one shard per worker, worker 0 first).
    pub fn counter_shards(&self, name: &str) -> Option<Vec<u64>> {
        let metrics = self.lock();
        match &metrics.get(name)?.kind {
            Kind::Counter(cells) => Some(cells.iter().map(|c| c.load(Ordering::Relaxed)).collect()),
            _ => None,
        }
    }

    /// Merged value of a gauge.
    pub fn gauge_value(&self, name: &str) -> Option<f64> {
        let metrics = self.lock();
        match &metrics.get(name)?.kind {
            Kind::GaugeFn(fns) => Some(fns.iter().map(|f| f()).sum()),
            _ => None,
        }
    }

    /// Shard-merged percentile report of a histogram.
    pub fn histogram_report(&self, name: &str) -> Option<LatencyReport> {
        let metrics = self.lock();
        match &metrics.get(name)?.kind {
            Kind::Histogram(shards) => {
                let mut acc = [0u64; BUCKETS];
                for shard in shards {
                    shard.snapshot_into(&mut acc);
                }
                Some(report_from_counts(&acc))
            }
            _ => None,
        }
    }

    /// Render the Prometheus text exposition format: `# HELP` / `# TYPE`
    /// per family, families sorted by name, histograms on the fixed
    /// power-of-two `le` ladder. Byte-stable for a given value set.
    pub fn render_prometheus(&self) -> String {
        let metrics = self.lock();
        let mut out = String::new();
        for (name, metric) in metrics.iter() {
            let _ = writeln!(out, "# HELP {name} {}", metric.help);
            let _ = writeln!(out, "# TYPE {name} {}", metric.kind.type_name());
            match &metric.kind {
                Kind::Counter(cells) => {
                    let v: u64 = cells.iter().map(|c| c.load(Ordering::Relaxed)).sum();
                    let _ = writeln!(out, "{name} {v}");
                }
                Kind::CounterFn(fns) => {
                    let v: u64 = fns.iter().map(|f| f()).sum();
                    let _ = writeln!(out, "{name} {v}");
                }
                Kind::GaugeFn(fns) => {
                    let v: f64 = fns.iter().map(|f| f()).sum();
                    let _ = writeln!(out, "{name} {v}");
                }
                Kind::Histogram(shards) => {
                    let mut acc = [0u64; BUCKETS];
                    for shard in shards {
                        shard.snapshot_into(&mut acc);
                    }
                    let count: u64 = acc.iter().sum();
                    for &exp in &LE_EXPONENTS {
                        let le = 1u64 << exp;
                        let cum = cumulative_below_pow2(&acc, exp);
                        let _ = writeln!(out, "{name}_bucket{{le=\"{le}\"}} {cum}");
                    }
                    let _ = writeln!(out, "{name}_bucket{{le=\"+Inf\"}} {count}");
                    let _ = writeln!(out, "{name}_sum {}", approx_sum_ns(&acc));
                    let _ = writeln!(out, "{name}_count {count}");
                }
            }
        }
        out
    }

    /// Render a JSON snapshot with a fixed key order (sorted by metric
    /// name; histogram sub-keys in a fixed order), one metric per line.
    pub fn render_json(&self) -> String {
        let metrics = self.lock();
        let mut out = String::from("{\n");
        let mut first = true;
        for (name, metric) in metrics.iter() {
            if !first {
                out.push_str(",\n");
            }
            first = false;
            match &metric.kind {
                Kind::Counter(cells) => {
                    let v: u64 = cells.iter().map(|c| c.load(Ordering::Relaxed)).sum();
                    let _ = write!(out, "  \"{name}\": {v}");
                }
                Kind::CounterFn(fns) => {
                    let v: u64 = fns.iter().map(|f| f()).sum();
                    let _ = write!(out, "  \"{name}\": {v}");
                }
                Kind::GaugeFn(fns) => {
                    let v: f64 = fns.iter().map(|f| f()).sum();
                    let _ = write!(out, "  \"{name}\": {v}");
                }
                Kind::Histogram(shards) => {
                    let mut acc = [0u64; BUCKETS];
                    for shard in shards {
                        shard.snapshot_into(&mut acc);
                    }
                    let r = report_from_counts(&acc);
                    let _ = write!(
                        out,
                        "  \"{name}\": {{\"count\": {}, \"p50_us\": {}, \"p99_us\": {}, \
                         \"p999_us\": {}}}",
                        r.count, r.p50_us, r.p99_us, r.p999_us
                    );
                }
            }
        }
        out.push_str("\n}\n");
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::time::Duration;

    #[test]
    fn counters_gauges_histograms_round_trip() {
        let reg = MetricsRegistry::new();
        let c = reg.counter("sling_test_ops_total", "ops");
        c.inc();
        c.add(4);
        assert_eq!(reg.counter_value("sling_test_ops_total"), Some(5));
        reg.counter("sling_test_ops_total", "ops").add(2);
        assert_eq!(reg.counter_shards("sling_test_ops_total"), Some(vec![5, 2]));
        assert_eq!(reg.counter_value("sling_test_ops_total"), Some(7));

        reg.counter_fn("sling_test_derived_total", "derived", || 17);
        assert_eq!(reg.counter_value("sling_test_derived_total"), Some(17));
        assert_eq!(reg.counter_shards("sling_test_derived_total"), None);

        reg.gauge_fn("sling_test_depth", "depth", || 2.5);
        reg.gauge_fn("sling_test_depth", "depth", || 1.5);
        assert_eq!(reg.gauge_value("sling_test_depth"), Some(4.0));

        let h = reg.histogram("sling_test_wait_ns", "wait");
        h.record(Duration::from_micros(10));
        let r = reg.histogram_report("sling_test_wait_ns").unwrap();
        assert_eq!(r.count, 1);
        assert_eq!(reg.counter_value("sling_test_wait_ns"), None);
        assert_eq!(reg.counter_value("missing"), None);
    }

    #[test]
    fn sharded_counters_sum_exactly_across_threads() {
        // N threads hammering per-thread shards of one series: the
        // snapshot must equal the sum of per-thread contributions.
        const THREADS: usize = 8;
        const PER_THREAD: u64 = 10_000;
        let reg = Arc::new(MetricsRegistry::new());
        let handles: Vec<_> = (0..THREADS)
            .map(|_| {
                let c = reg.counter("sling_test_hammer_total", "hammered");
                let h = reg.histogram("sling_test_hammer_ns", "hammered");
                std::thread::spawn(move || {
                    for i in 0..PER_THREAD {
                        c.inc();
                        h.record_ns(i % 4096);
                    }
                })
            })
            .collect();
        for t in handles {
            t.join().unwrap();
        }
        let total = THREADS as u64 * PER_THREAD;
        assert_eq!(reg.counter_value("sling_test_hammer_total"), Some(total));
        assert_eq!(
            reg.histogram_report("sling_test_hammer_ns").unwrap().count,
            total
        );
    }

    #[test]
    fn prometheus_render_golden() {
        let reg = MetricsRegistry::new();
        let c = reg.counter("sling_test_b_total", "b counter");
        c.add(3);
        reg.gauge_fn("sling_test_a_gauge", "a gauge", || 1.5);
        let h = reg.histogram("sling_test_c_ns", "c histogram");
        h.record_ns(1000); // below 1 µs
        h.record_ns(3000); // in (1024, 4096]
        let golden = "\
# HELP sling_test_a_gauge a gauge
# TYPE sling_test_a_gauge gauge
sling_test_a_gauge 1.5
# HELP sling_test_b_total b counter
# TYPE sling_test_b_total counter
sling_test_b_total 3
# HELP sling_test_c_ns c histogram
# TYPE sling_test_c_ns histogram
sling_test_c_ns_bucket{le=\"1024\"} 1
sling_test_c_ns_bucket{le=\"4096\"} 2
sling_test_c_ns_bucket{le=\"16384\"} 2
sling_test_c_ns_bucket{le=\"65536\"} 2
sling_test_c_ns_bucket{le=\"262144\"} 2
sling_test_c_ns_bucket{le=\"1048576\"} 2
sling_test_c_ns_bucket{le=\"4194304\"} 2
sling_test_c_ns_bucket{le=\"16777216\"} 2
sling_test_c_ns_bucket{le=\"67108864\"} 2
sling_test_c_ns_bucket{le=\"268435456\"} 2
sling_test_c_ns_bucket{le=\"1073741824\"} 2
sling_test_c_ns_bucket{le=\"4294967296\"} 2
sling_test_c_ns_bucket{le=\"17179869184\"} 2
sling_test_c_ns_bucket{le=\"+Inf\"} 2
sling_test_c_ns_sum 3776
sling_test_c_ns_count 2
";
        assert_eq!(reg.render_prometheus(), golden);
        // Rendering twice with no writes in between is byte-identical.
        assert_eq!(reg.render_prometheus(), golden);
    }

    #[test]
    fn json_snapshot_has_fixed_key_order() {
        let reg = MetricsRegistry::new();
        reg.counter("sling_test_z_total", "z").inc();
        reg.counter("sling_test_a_total", "a").add(2);
        let h = reg.histogram("sling_test_m_ns", "m");
        h.record(Duration::from_micros(8));
        let json = reg.render_json();
        let a = json.find("sling_test_a_total").unwrap();
        let m = json.find("sling_test_m_ns").unwrap();
        let z = json.find("sling_test_z_total").unwrap();
        assert!(a < m && m < z, "keys not sorted: {json}");
        assert!(json.contains("\"sling_test_a_total\": 2"));
        assert!(json.contains("\"count\": 1"));
    }

    #[test]
    fn a_panicking_metric_does_not_poison_the_registry() {
        let reg = MetricsRegistry::new();
        reg.counter("sling_test_ok_total", "ok").add(2);
        let first_call = std::sync::atomic::AtomicBool::new(true);
        reg.counter_fn("sling_test_flaky_total", "panics once", move || {
            assert!(!first_call.swap(false, Ordering::Relaxed), "first read");
            7
        });
        let render =
            std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| reg.render_prometheus()));
        assert!(render.is_err(), "the flaky metric should panic once");
        assert!(reg
            .render_prometheus()
            .contains("\nsling_test_flaky_total 7\n"));
        assert_eq!(reg.counter_value("sling_test_ok_total"), Some(2));
        reg.counter("sling_test_late_total", "registered after")
            .inc();
        assert_eq!(reg.counter_value("sling_test_late_total"), Some(1));
    }

    #[test]
    #[should_panic(expected = "already registered")]
    fn kind_mismatch_panics() {
        let reg = MetricsRegistry::new();
        reg.counter("sling_test_dup", "c");
        reg.histogram("sling_test_dup", "h");
    }

    #[test]
    #[should_panic(expected = "invalid metric name")]
    fn bad_name_panics() {
        MetricsRegistry::new().counter("Sling-Bad", "nope");
    }
}
