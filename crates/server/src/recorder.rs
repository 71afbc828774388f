//! Workload capture: the in-server traffic-trace recorder.
//!
//! The recorder sits between the worker event loops and the
//! `SLNGTRACE` file format (see `sling_core::workload::trace`). Its
//! contract is **never block a worker**: a request outcome is pushed
//! into a fixed ring under a `try_lock` — if the lock is contended the
//! record is *dropped and counted*, not waited for. Everything slow
//! (encoding, file IO, fsync) happens on a dedicated writer thread that
//! drains the ring by sequence number; a drain that falls behind the
//! ring's retention loses the overwritten records, and the gap is
//! counted as drops too. The counters never lie: `records + dropped`
//! equals the number of outcomes offered to the recorder (after
//! sampling). They are handles in the owning server's registry
//! (`sling_trace_*`), so `STATS` and `METRICS` read the same values and
//! two recorders in one process never share a count.
//!
//! The capture file is published atomically: the writer creates
//! `FILE.tmp`, writes the header, fsyncs, and renames it to `FILE`
//! once — the fd follows the inode, so the writer keeps appending to
//! the published path and a reader never observes a file without a
//! valid header.
//!
//! The same ring also feeds the `TRACE <from> <max>` wire verb
//! ([`TraceRecorder::read_from`]), so `sling record` can tail a live
//! server over the protocol without touching its capture file.

use std::io::BufWriter;
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Mutex;
use std::time::{Duration, Instant};

use sling_core::obs::{Counter, MetricsRegistry};
use sling_core::workload::trace::{TraceKey, TraceOutcome, TraceRecord, TraceVerb, TraceWriter};

/// Ring retention (records). Power of two so the seq→slot map is a
/// mask. At ~60 bytes a record this bounds recorder memory to a few MB
/// while giving the writer thread (and `TRACE` pollers) tens of
/// milliseconds of slack at even extreme query rates.
pub(crate) const RING_CAPACITY: usize = 1 << 16;

/// Upper bound on records served by one `TRACE` verb response.
pub(crate) const MAX_TRACE_BATCH: usize = 4096;

/// Writer-thread drain cadence.
const WRITER_POLL: Duration = Duration::from_millis(20);

/// Records drained per lock acquisition, so a full-ring catch-up does
/// not hold the lock (and starve `push`) for the whole sweep.
const WRITER_CHUNK: usize = 1024;

/// One chunk of the ring, as served to the `TRACE` verb and the writer
/// thread: the capture origin, the next sequence number the recorder
/// will assign (so a poller knows where to resume), the cumulative drop
/// count, and `(seq, record)` pairs in sequence order.
pub(crate) struct TraceChunk {
    pub base_us: u64,
    pub next_seq: u64,
    pub dropped: u64,
    pub records: Vec<(u64, TraceRecord)>,
}

struct Ring {
    slots: Box<[Option<(u64, TraceRecord)>]>,
    next_seq: u64,
}

/// The recorder's counters, registered in the server's registry (also
/// when recording is off, so `METRICS` always renders the family).
pub(crate) struct TraceCounters {
    /// Records captured into the ring.
    records: Counter,
    /// Records dropped: ring contended, or overwritten before draining.
    dropped: Counter,
    /// Bytes written to the capture file (stays 0 for ring-only
    /// recorders).
    bytes: Counter,
}

impl TraceCounters {
    pub(crate) fn register(metrics: &MetricsRegistry) -> TraceCounters {
        TraceCounters {
            records: metrics.counter(
                "sling_trace_records_total",
                "traffic-trace records captured",
            ),
            dropped: metrics.counter(
                "sling_trace_records_dropped_total",
                "traffic-trace records dropped by the recorder",
            ),
            bytes: metrics.counter("sling_trace_bytes_total", "traffic-trace bytes written"),
        }
    }
}

/// The recorder: sampling gate, drop counters, and the retention ring.
pub(crate) struct TraceRecorder {
    /// Wall-clock capture origin (unix microseconds), written into the
    /// trace header and the `TRACE` verb's response.
    base_us: u64,
    /// Monotonic origin; record timestamps are measured against it.
    start: Instant,
    /// Keep every Nth outcome (1 = keep all).
    sample: u64,
    sample_counter: AtomicU64,
    counters: TraceCounters,
    ring: Mutex<Ring>,
}

impl TraceRecorder {
    pub(crate) fn new(base_us: u64, sample: u64, counters: TraceCounters) -> TraceRecorder {
        TraceRecorder {
            base_us,
            start: Instant::now(),
            sample: sample.max(1),
            sample_counter: AtomicU64::new(0),
            counters,
            ring: Mutex::new(Ring {
                slots: vec![None; RING_CAPACITY].into_boxed_slice(),
                next_seq: 0,
            }),
        }
    }

    /// Offer one request outcome. Sampled out → free. Ring contended →
    /// dropped and counted. Never blocks.
    pub(crate) fn push(
        &self,
        verb: TraceVerb,
        key: TraceKey,
        outcome: TraceOutcome,
        latency: Duration,
        epoch: u64,
    ) {
        if self.sample > 1
            && !self
                .sample_counter
                .fetch_add(1, Ordering::Relaxed)
                .is_multiple_of(self.sample)
        {
            return;
        }
        let rec = TraceRecord {
            t_us: self.start.elapsed().as_micros() as u64,
            verb,
            key,
            outcome,
            latency_us: latency.as_micros().min(u32::MAX as u128) as u32,
            epoch,
        };
        match self.ring.try_lock() {
            Ok(mut ring) => {
                let seq = ring.next_seq;
                ring.next_seq += 1;
                let idx = seq as usize & (RING_CAPACITY - 1);
                ring.slots[idx] = Some((seq, rec));
                self.counters.records.inc();
            }
            Err(_) => self.counters.dropped.inc(),
        }
    }

    /// Records currently retained with `seq >= from`, up to `max`, in
    /// sequence order. Entries older than the ring's retention are
    /// simply absent — the caller detects the loss from the sequence
    /// gap (the writer thread charges it to `dropped`; `sling record`
    /// reports it).
    pub(crate) fn read_from(&self, from: u64, max: usize) -> TraceChunk {
        let ring = match self.ring.lock() {
            Ok(guard) => guard,
            // A panic while holding the ring lock cannot corrupt the
            // slot array (each slot write is all-or-nothing), so a
            // poisoned ring keeps serving.
            Err(poisoned) => poisoned.into_inner(),
        };
        let next = ring.next_seq;
        let lo = from.max(next.saturating_sub(RING_CAPACITY as u64));
        let mut records = Vec::new();
        let mut seq = lo;
        while seq < next && records.len() < max {
            if let Some((s, rec)) = ring.slots[seq as usize & (RING_CAPACITY - 1)] {
                if s == seq {
                    records.push((seq, rec));
                }
            }
            seq += 1;
        }
        TraceChunk {
            base_us: self.base_us,
            next_seq: next,
            dropped: self.counters.dropped.get(),
            records,
        }
    }

    /// Capture origin (unix microseconds).
    pub(crate) fn base_us(&self) -> u64 {
        self.base_us
    }
}

/// The writer thread: drain the ring to `path` until `is_shutdown`
/// reports true *and* the ring is empty, then flush, fsync, and exit.
///
/// IO errors are terminal for the file (one stderr line; the ring and
/// the `TRACE` verb keep working) — a capture must never take down the
/// server that is being observed.
pub(crate) fn writer_loop(recorder: &TraceRecorder, path: &Path, is_shutdown: impl Fn() -> bool) {
    match write_capture(recorder, path, is_shutdown) {
        Ok(()) => {}
        Err(e) => eprintln!(
            "sling-server: trace capture to {} failed: {e}",
            path.display()
        ),
    }
}

fn write_capture(
    recorder: &TraceRecorder,
    path: &Path,
    is_shutdown: impl Fn() -> bool,
) -> std::io::Result<()> {
    // Header to FILE.tmp, fsync, publish by rename. The fd follows the
    // inode: appends after the rename land in the published file.
    let tmp = tmp_path(path);
    let file = std::fs::File::create(&tmp)?;
    let mut writer = TraceWriter::new(BufWriter::new(file), recorder.base_us())?;
    writer.flush()?;
    writer.get_ref().get_ref().sync_data()?;
    std::fs::rename(&tmp, path)?;
    let mut cursor = 0u64;
    let mut published = writer.bytes_written();
    recorder.counters.bytes.add(published);
    loop {
        let stopping = is_shutdown();
        let mut wrote = false;
        loop {
            let chunk = recorder.read_from(cursor, WRITER_CHUNK);
            if chunk.records.is_empty() {
                // Everything still retained is on disk; anything the
                // ring already overwrote is unrecoverable — charge it.
                if chunk.next_seq > cursor {
                    recorder.counters.dropped.add(chunk.next_seq - cursor);
                    cursor = chunk.next_seq;
                }
                break;
            }
            for &(seq, ref rec) in &chunk.records {
                if seq > cursor {
                    recorder.counters.dropped.add(seq - cursor);
                }
                writer.write(rec)?;
                cursor = seq + 1;
            }
            wrote = true;
        }
        if wrote {
            writer.flush()?;
            writer.get_ref().get_ref().sync_data()?;
            let total = writer.bytes_written();
            recorder.counters.bytes.add(total - published);
            published = total;
        }
        if stopping {
            return Ok(());
        }
        std::thread::sleep(WRITER_POLL);
    }
}

fn tmp_path(path: &Path) -> PathBuf {
    let mut name = path.file_name().unwrap_or_default().to_os_string();
    name.push(".tmp");
    path.with_file_name(name)
}

#[cfg(test)]
mod tests {
    use super::*;
    use sling_core::workload::trace::read_trace_file;
    use std::sync::atomic::AtomicBool;

    fn tmp_root(tag: &str) -> PathBuf {
        let dir = std::env::temp_dir().join(format!("sling_recorder_{tag}_{}", std::process::id()));
        std::fs::remove_dir_all(&dir).ok();
        std::fs::create_dir_all(&dir).unwrap();
        dir
    }

    fn recorder(base_us: u64, sample: u64) -> TraceRecorder {
        TraceRecorder::new(
            base_us,
            sample,
            TraceCounters::register(&MetricsRegistry::new()),
        )
    }

    /// Records captured, dropped, file bytes written.
    fn counts(rec: &TraceRecorder) -> (u64, u64, u64) {
        let c = &rec.counters;
        (c.records.get(), c.dropped.get(), c.bytes.get())
    }

    fn push_n(rec: &TraceRecorder, n: usize) {
        for i in 0..n {
            rec.push(
                TraceVerb::Pair,
                TraceKey::Pair(i as u32, i as u32 + 1),
                TraceOutcome::Ok,
                Duration::from_micros(7),
                3,
            );
        }
    }

    #[test]
    fn ring_serves_reads_by_sequence() {
        let rec = recorder(1_000_000, 1);
        push_n(&rec, 10);
        let chunk = rec.read_from(0, 100);
        assert_eq!(chunk.next_seq, 10);
        assert_eq!(chunk.records.len(), 10);
        assert_eq!(chunk.records[0].0, 0);
        assert_eq!(
            chunk.records[4].1.key,
            TraceKey::Pair(4, 5),
            "slots map back to their sequence"
        );
        // Resume from the middle.
        let tail = rec.read_from(7, 100);
        assert_eq!(tail.records.len(), 3);
        assert_eq!(tail.records[0].0, 7);
        // max is honoured.
        assert_eq!(rec.read_from(0, 3).records.len(), 3);
    }

    #[test]
    fn ring_overwrite_drops_oldest_not_newest() {
        let rec = recorder(0, 1);
        push_n(&rec, RING_CAPACITY + 50);
        let chunk = rec.read_from(0, RING_CAPACITY + 100);
        assert_eq!(chunk.next_seq, (RING_CAPACITY + 50) as u64);
        assert_eq!(chunk.records.len(), RING_CAPACITY);
        assert_eq!(chunk.records[0].0, 50, "oldest 50 were overwritten");
    }

    #[test]
    fn sampling_keeps_every_nth() {
        let rec = recorder(0, 4);
        push_n(&rec, 40);
        let chunk = rec.read_from(0, 100);
        assert_eq!(chunk.records.len(), 10);
        let (records, dropped, _) = counts(&rec);
        assert_eq!(records, 10);
        assert_eq!(dropped, 0, "sampled-out records are not drops");
    }

    #[test]
    fn writer_publishes_by_rename_and_drains_on_shutdown() {
        let dir = tmp_root("publish");
        let path = dir.join("capture.trace");
        let rec = recorder(42_000_000, 1);
        push_n(&rec, 257);
        let stop = AtomicBool::new(true); // one pass: drain + exit
        writer_loop(&rec, &path, || stop.load(Ordering::Relaxed));
        assert!(!tmp_path(&path).exists(), "tmp file was renamed away");
        let trace = read_trace_file(&path).unwrap();
        assert_eq!(trace.base_us, 42_000_000);
        assert_eq!(trace.records.len(), 257);
        assert_eq!(trace.records[0].key, TraceKey::Pair(0, 1));
        let (records, dropped, bytes) = counts(&rec);
        assert_eq!(records, 257);
        assert_eq!(dropped, 0);
        assert!(bytes > 0);
        // Timestamps decoded monotone.
        for pair in trace.records.windows(2) {
            assert!(pair[0].t_us <= pair[1].t_us);
        }
    }

    #[test]
    fn writer_charges_overwritten_records_as_drops() {
        let dir = tmp_root("lossy");
        let path = dir.join("lossy.trace");
        let rec = recorder(0, 1);
        push_n(&rec, RING_CAPACITY + 10);
        let stop = AtomicBool::new(true);
        writer_loop(&rec, &path, || stop.load(Ordering::Relaxed));
        let trace = read_trace_file(&path).unwrap();
        assert_eq!(trace.records.len(), RING_CAPACITY);
        let (_, dropped, _) = counts(&rec);
        assert_eq!(dropped, 10, "the 10 overwritten records are counted");
    }
}
