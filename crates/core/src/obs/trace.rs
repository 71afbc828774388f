//! Per-query stage tracing and the ring-buffered slow-query log.
//!
//! A [`QueryTrace`] lives inside every
//! [`QueryWorkspace`](crate::QueryWorkspace), the one workspace that
//! single-pair, single-source, top-k, join and batch queries all run
//! in. Disabled — the default — it is **zero cost**: every hook is one
//! predictable branch, no clock reads, no atomics. Enabled, the kernels
//! charge wall time to four stages:
//!
//! * `entry_fetch` — reading a node's stored run from the backend into
//!   the workspace (copy, mapped decode, block pass),
//! * `restore` — the §5.2 Algorithm 5 splice and the §5.3 mark
//!   expansion,
//! * `merge` — the Algorithm-3 intersect-merge (linear or galloping),
//! * `propagate` — the Algorithm-6 frontier propagation.
//!
//! A query opens its trace with [`QueryTrace::start`] and closes each
//! stage with a lap, which reads the clock once and charges the time
//! since the previous boundary to the stage it names — so one clock read
//! per stage boundary, however the stages interleave between the two
//! endpoints of a pair.
//!
//! Callers drain the accumulated [`StageNanos`] per query
//! ([`QueryTrace::take`]) and feed them to stage histograms, the
//! slow-query log, or a bench breakdown table. A [`SlowQueryRecord`]
//! names its query by the traffic trace's own verb and key
//! ([`TraceVerb`], [`TraceKey`]), so a slow-log line and the trace
//! record of the same query spell it alike.

use std::collections::VecDeque;
use std::fmt;
use std::sync::{Mutex, PoisonError};
use std::time::{Duration, Instant};

use crate::workload::trace::{TraceKey, TraceVerb};

/// Wall time charged to each kernel stage, in nanoseconds.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct StageNanos {
    /// Backend entry-run resolution (fetch/decode/read).
    pub entry_fetch: u64,
    /// §5.2 restore + §5.3 expansion.
    pub restore: u64,
    /// Algorithm-3 intersect-merge.
    pub merge: u64,
    /// Algorithm-6 propagation.
    pub propagate: u64,
}

impl StageNanos {
    /// Sum of all stage times.
    pub fn total(&self) -> u64 {
        self.entry_fetch + self.restore + self.merge + self.propagate
    }

    /// Accumulate another breakdown into this one.
    pub fn add(&mut self, other: &StageNanos) {
        self.entry_fetch += other.entry_fetch;
        self.restore += other.restore;
        self.merge += other.merge;
        self.propagate += other.propagate;
    }
}

/// Per-workspace stage tracer. See the module docs; disabled by default.
#[derive(Debug, Default)]
pub struct QueryTrace {
    enabled: bool,
    stages: StageNanos,
    /// The last stage boundary; `None` when disabled or before the
    /// first [`QueryTrace::start`].
    mark: Option<Instant>,
}

impl QueryTrace {
    /// Enable or disable tracing (also clears any accumulated stages).
    pub fn set_enabled(&mut self, enabled: bool) {
        self.enabled = enabled;
        self.stages = StageNanos::default();
        self.mark = None;
    }

    #[inline]
    pub fn is_enabled(&self) -> bool {
        self.enabled
    }

    /// Open a query's first stage; no clock read when disabled.
    #[inline]
    pub fn start(&mut self) {
        if self.enabled {
            self.mark = Some(Instant::now());
        }
    }

    /// Close the running stage: the nanoseconds since the last boundary,
    /// which becomes now. 0 and no clock read when disabled.
    #[inline]
    fn lap(&mut self) -> u64 {
        let Some(t0) = self.mark else {
            return 0;
        };
        let now = Instant::now();
        self.mark = Some(now);
        now.duration_since(t0).as_nanos().min(u64::MAX as u128) as u64
    }

    /// Charge the running stage to `entry_fetch`.
    #[inline]
    pub fn lap_entry_fetch(&mut self) {
        self.stages.entry_fetch += self.lap();
    }

    /// Charge the running stage to `restore`.
    #[inline]
    pub fn lap_restore(&mut self) {
        self.stages.restore += self.lap();
    }

    /// Charge the running stage to `merge`.
    #[inline]
    pub fn lap_merge(&mut self) {
        self.stages.merge += self.lap();
    }

    /// Charge the running stage to `propagate`.
    #[inline]
    pub fn lap_propagate(&mut self) {
        self.stages.propagate += self.lap();
    }

    /// Drain the breakdown accumulated since the last `take`.
    pub fn take(&mut self) -> StageNanos {
        std::mem::take(&mut self.stages)
    }
}

/// One structured slow-query record: everything an operator needs to
/// attribute a slow request without re-running it.
#[derive(Clone, Debug)]
pub struct SlowQueryRecord {
    /// Protocol verb, as the traffic trace records it.
    pub verb: TraceVerb,
    /// The query's key, as the traffic trace records it: `3,77` for a
    /// pair (one line per pair of a `BATCH`), `3` for a source, `3:5`
    /// for a top-k.
    pub key: TraceKey,
    /// Index generation serving the query.
    pub generation: String,
    /// Engine epoch at query time.
    pub epoch: u64,
    /// End-to-end handler time.
    pub total: Duration,
    /// Per-stage kernel breakdown.
    pub stages: StageNanos,
}

impl fmt::Display for SlowQueryRecord {
    /// One line, `key=value` pairs in a fixed order — grep-friendly.
    /// `verb=` and `key=` use the traffic trace's encoding.
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let mut key = String::new();
        self.key.encode(&mut key);
        write!(
            f,
            "slow verb={} key={key} generation={} epoch={} total_us={} entry_fetch_us={} \
             restore_us={} merge_us={} propagate_us={}",
            self.verb.as_str(),
            self.generation,
            self.epoch,
            self.total.as_micros(),
            self.stages.entry_fetch / 1_000,
            self.stages.restore / 1_000,
            self.stages.merge / 1_000,
            self.stages.propagate / 1_000,
        )
    }
}

/// Ring buffer of the most recent slow queries, with a configurable
/// admission threshold. `record` is called per request, so the common
/// fast-path (under threshold) is one comparison — no lock.
#[derive(Debug)]
pub struct SlowQueryLog {
    threshold: Duration,
    capacity: usize,
    /// Every update is one pop or one push, so a poisoned lock is
    /// recovered rather than unwrapped.
    ring: Mutex<VecDeque<SlowQueryRecord>>,
    admitted: std::sync::atomic::AtomicU64,
}

impl SlowQueryLog {
    /// `threshold = Duration::ZERO` disables the log entirely.
    pub fn new(threshold: Duration, capacity: usize) -> Self {
        SlowQueryLog {
            threshold,
            capacity: capacity.max(1),
            ring: Mutex::new(VecDeque::new()),
            admitted: std::sync::atomic::AtomicU64::new(0),
        }
    }

    pub fn threshold(&self) -> Duration {
        self.threshold
    }

    /// Admit `record` if it is at or above threshold, evicting the
    /// oldest entry once the ring is full.
    pub fn record(&self, record: SlowQueryRecord) {
        if self.threshold.is_zero() || record.total < self.threshold {
            return;
        }
        self.admitted
            .fetch_add(1, std::sync::atomic::Ordering::Relaxed);
        let mut ring = self.ring.lock().unwrap_or_else(PoisonError::into_inner);
        if ring.len() == self.capacity {
            ring.pop_front();
        }
        ring.push_back(record);
    }

    /// Total records admitted since startup (including evicted ones).
    pub fn admitted(&self) -> u64 {
        self.admitted.load(std::sync::atomic::Ordering::Relaxed)
    }

    /// Oldest-first snapshot of the retained records.
    pub fn snapshot(&self) -> Vec<SlowQueryRecord> {
        self.ring
            .lock()
            .unwrap_or_else(PoisonError::into_inner)
            .iter()
            .cloned()
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// A record of `verb` with a key of that verb's shape.
    fn rec(verb: TraceVerb, total_us: u64) -> SlowQueryRecord {
        let key = match verb {
            TraceVerb::Pair | TraceVerb::Batch => TraceKey::Pair(3, 77),
            TraceVerb::Source => TraceKey::Node(3),
            TraceVerb::TopK => TraceKey::NodeK(3, 5),
        };
        SlowQueryRecord {
            verb,
            key,
            generation: "gen-0001".to_string(),
            epoch: 2,
            total: Duration::from_micros(total_us),
            stages: StageNanos {
                entry_fetch: 1_000,
                restore: 2_000,
                merge: 3_000,
                propagate: 0,
            },
        }
    }

    #[test]
    fn disabled_trace_reads_no_clock_and_accumulates_nothing() {
        let mut t = QueryTrace::default();
        assert!(!t.is_enabled());
        t.start();
        assert!(t.mark.is_none());
        t.lap_merge();
        t.lap_entry_fetch();
        assert_eq!(t.take(), StageNanos::default());
    }

    #[test]
    fn enabled_trace_charges_stages() {
        let mut t = QueryTrace::default();
        t.set_enabled(true);
        t.start();
        assert!(t.mark.is_some());
        std::thread::sleep(Duration::from_millis(1));
        t.lap_restore();
        // Each lap charges only the time since the previous boundary.
        t.lap_entry_fetch();
        let stages = t.take();
        assert!(stages.restore >= 1_000_000, "restore {}", stages.restore);
        assert!(stages.entry_fetch < stages.restore, "{stages:?}");
        assert_eq!(stages.merge, 0);
        // take() drained it.
        assert_eq!(t.take(), StageNanos::default());
        // Disabling drops the open stage.
        t.set_enabled(false);
        t.lap_merge();
        assert_eq!(t.take(), StageNanos::default());
    }

    #[test]
    fn slow_log_respects_threshold() {
        let log = SlowQueryLog::new(Duration::from_micros(100), 8);
        log.record(rec(TraceVerb::Pair, 99));
        assert_eq!(log.snapshot().len(), 0);
        log.record(rec(TraceVerb::Pair, 100));
        log.record(rec(TraceVerb::Source, 5_000));
        let snap = log.snapshot();
        assert_eq!(snap.len(), 2);
        assert_eq!(snap[0].verb, TraceVerb::Pair);
        assert_eq!(log.admitted(), 2);
        // Zero threshold disables entirely.
        let off = SlowQueryLog::new(Duration::ZERO, 8);
        off.record(rec(TraceVerb::Pair, u64::MAX >> 20));
        assert_eq!(off.snapshot().len(), 0);
    }

    #[test]
    fn slow_log_ring_evicts_oldest() {
        let log = SlowQueryLog::new(Duration::from_micros(1), 3);
        for i in 0..5u64 {
            let mut r = rec(TraceVerb::Pair, 10 + i);
            r.epoch = i;
            log.record(r);
        }
        let snap = log.snapshot();
        assert_eq!(snap.len(), 3);
        let epochs: Vec<u64> = snap.iter().map(|r| r.epoch).collect();
        assert_eq!(epochs, vec![2, 3, 4], "oldest evicted first");
        assert_eq!(log.admitted(), 5);
    }

    #[test]
    fn slow_log_survives_a_panic_under_its_lock() {
        let log = SlowQueryLog::new(Duration::from_micros(1), 3);
        log.record(rec(TraceVerb::Pair, 10));
        let poisoned = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            let _held = log.ring.lock();
            panic!("panic while the ring is locked");
        }));
        assert!(poisoned.is_err() && log.ring.is_poisoned());
        log.record(rec(TraceVerb::Source, 20));
        let verbs: Vec<TraceVerb> = log.snapshot().iter().map(|r| r.verb).collect();
        assert_eq!(verbs, [TraceVerb::Pair, TraceVerb::Source]);
    }

    #[test]
    fn record_renders_one_grepable_line() {
        let line = rec(TraceVerb::TopK, 1234).to_string();
        assert_eq!(
            line,
            "slow verb=TOPK key=3:5 generation=gen-0001 epoch=2 total_us=1234 \
             entry_fetch_us=1 restore_us=2 merge_us=3 propagate_us=0"
        );
        assert!(!line.contains('\n'));
        // Every key shape is spelled as the traffic trace spells it.
        for (verb, key) in [
            (TraceVerb::Pair, "PAIR key=3,77 "),
            (TraceVerb::Batch, "BATCH key=3,77 "),
            (TraceVerb::Source, "SOURCE key=3 "),
        ] {
            let line = rec(verb, 1).to_string();
            assert!(line.starts_with(&format!("slow verb={key}")), "{line}");
        }
    }
}
