//! Lock-free log-bucketed histograms — the one histogram implementation
//! shared by the whole tree (the server's request latency is one).
//!
//! Each writer (a server worker, a bench thread) owns one [`Histogram`]
//! shard and records into it with a single relaxed `fetch_add` per
//! sample — no locks, no shared cache lines between writers on the hot
//! path. Readers merge the shards on demand: the registry extracts
//! p50/p99/p999 via [`report_from_counts`] (what `STATS` prints), and
//! the Prometheus renderer walks exact power-of-two cumulative counts
//! via [`cumulative_below_pow2`].
//!
//! Buckets are logarithmic with four sub-buckets per power-of-two
//! octave of nanoseconds, so every reported quantile is within ~12% of
//! the true value across the full ns→minutes range — plenty for a
//! serving dashboard, and far cheaper than recording raw samples
//! server-side. (Exact client-side percentiles come from
//! `sling bench-serve`, which keeps every sample.)

use std::sync::atomic::{AtomicU64, Ordering};
use std::time::Duration;

/// Buckets: 8 unit buckets under 8 ns, then 4 sub-buckets per octave.
pub const BUCKETS: usize = 256;

/// Merged percentile snapshot of one or more histograms.
#[derive(Clone, Copy, Debug, Default, PartialEq)]
pub struct LatencyReport {
    /// Samples recorded.
    pub count: u64,
    /// Median, µs (bucket midpoint).
    pub p50_us: f64,
    /// 99th percentile, µs.
    pub p99_us: f64,
    /// 99.9th percentile, µs.
    pub p999_us: f64,
}

/// One writer's histogram shard.
#[derive(Debug)]
pub struct Histogram {
    buckets: Box<[AtomicU64; BUCKETS]>,
}

impl Default for Histogram {
    fn default() -> Self {
        Histogram::new()
    }
}

/// Bucket index of a nanosecond measurement.
#[inline]
fn bucket_of(n: u64) -> usize {
    if n < 8 {
        return n as usize;
    }
    let exp = 63 - n.leading_zeros() as usize; // >= 3
    let sub = ((n >> (exp - 2)) & 3) as usize; // top two mantissa bits
    (8 + (exp - 3) * 4 + sub).min(BUCKETS - 1)
}

/// Midpoint nanosecond value represented by bucket `idx`.
pub fn bucket_midpoint(idx: usize) -> f64 {
    if idx < 8 {
        return idx as f64;
    }
    // Saturate the octave: bucket_of never emits an index above 251
    // (exp 63, sub 3), but the defensive clamps that *name* the last
    // buckets must not compute `1u64 << 64`.
    let exp = (3 + (idx - 8) / 4).min(63);
    let sub = (idx - 8) % 4;
    let quarter = (1u64 << exp) as f64 / 4.0;
    (1u64 << exp) as f64 + sub as f64 * quarter + quarter / 2.0
}

impl Histogram {
    pub fn new() -> Self {
        Histogram {
            buckets: Box::new([0u64; BUCKETS].map(AtomicU64::new)),
        }
    }

    /// Record one duration (relaxed; exact ordering is not worth a
    /// fence on the hot path).
    #[inline]
    pub fn record(&self, d: Duration) {
        self.record_ns(d.as_nanos().min(u64::MAX as u128) as u64);
    }

    /// Record one raw nanosecond (or other log-scaled) value.
    #[inline]
    pub fn record_ns(&self, n: u64) {
        self.buckets[bucket_of(n)].fetch_add(1, Ordering::Relaxed);
    }

    /// Add this shard's bucket counts into `acc`.
    pub fn snapshot_into(&self, acc: &mut [u64; BUCKETS]) {
        for (a, b) in acc.iter_mut().zip(self.buckets.iter()) {
            *a += b.load(Ordering::Relaxed);
        }
    }
}

/// Sum of samples below `2^exp` ns. Exact, not interpolated: octave
/// boundaries are bucket boundaries, so the cumulative count at any
/// power of two is a prefix sum of whole buckets. This is what makes a
/// stable Prometheus `le` ladder possible on a log-bucketed histogram.
pub fn cumulative_below_pow2(acc: &[u64; BUCKETS], exp: u32) -> u64 {
    let end = if exp < 3 {
        1usize << exp
    } else {
        (8 + (exp as usize - 3) * 4).min(BUCKETS)
    };
    acc[..end].iter().sum()
}

/// Approximate sum of all recorded values (bucket midpoints), in ns.
pub fn approx_sum_ns(acc: &[u64; BUCKETS]) -> f64 {
    acc.iter()
        .enumerate()
        .filter(|&(_, &c)| c > 0)
        .map(|(idx, &c)| c as f64 * bucket_midpoint(idx))
        .sum()
}

/// Extract the report quantiles from merged bucket counts.
pub fn report_from_counts(acc: &[u64; BUCKETS]) -> LatencyReport {
    let count: u64 = acc.iter().sum();
    if count == 0 {
        return LatencyReport::default();
    }
    let quantile = |q: f64| -> f64 {
        let target = ((q * count as f64).ceil() as u64).clamp(1, count);
        let mut seen = 0u64;
        for (idx, &c) in acc.iter().enumerate() {
            seen += c;
            if seen >= target {
                return bucket_midpoint(idx) / 1e3;
            }
        }
        bucket_midpoint(BUCKETS - 1) / 1e3
    };
    LatencyReport {
        count,
        p50_us: quantile(0.50),
        p99_us: quantile(0.99),
        p999_us: quantile(0.999),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn merge_report(histograms: &[Histogram]) -> LatencyReport {
        let mut acc = [0u64; BUCKETS];
        for h in histograms {
            h.snapshot_into(&mut acc);
        }
        report_from_counts(&acc)
    }

    #[test]
    fn buckets_are_monotone_and_cover_the_range() {
        let mut prev = 0usize;
        for shift in 0..60 {
            let n = 1u64 << shift;
            let b = bucket_of(n);
            assert!(b >= prev, "bucket not monotone at 2^{shift}");
            prev = b;
            // The midpoint stays within the bucket's octave.
            let mid = bucket_midpoint(b);
            if n >= 8 {
                assert!(
                    mid >= n as f64 && mid <= 2.0 * n as f64,
                    "2^{shift}: mid {mid}"
                );
            }
        }
        assert!(bucket_of(u64::MAX) < BUCKETS);
        // The defensive clamps name the last buckets; computing their
        // midpoint must not overflow the shift (exp saturates at 63).
        for idx in 248..BUCKETS {
            assert!(bucket_midpoint(idx).is_finite());
        }
    }

    #[test]
    fn quantiles_land_within_bucket_resolution() {
        let h = Histogram::new();
        // 1000 samples at ~10 µs, 10 at ~1 ms: p50 ≈ 10 µs, p999 ≈ 1 ms.
        for _ in 0..1000 {
            h.record(Duration::from_micros(10));
        }
        for _ in 0..10 {
            h.record(Duration::from_millis(1));
        }
        let r = merge_report(std::slice::from_ref(&h));
        assert_eq!(r.count, 1010);
        assert!((r.p50_us - 10.0).abs() / 10.0 < 0.25, "p50 {}", r.p50_us);
        assert!(
            (r.p999_us - 1000.0).abs() / 1000.0 < 0.25,
            "p999 {}",
            r.p999_us
        );
        assert!(r.p99_us <= r.p999_us);
    }

    #[test]
    fn empty_histograms_report_zeros() {
        let r = merge_report(&[Histogram::new(), Histogram::new()]);
        assert_eq!(r, LatencyReport::default());
    }

    #[test]
    fn merge_sums_across_workers() {
        let a = Histogram::new();
        let b = Histogram::new();
        a.record(Duration::from_micros(5));
        b.record(Duration::from_micros(5));
        assert_eq!(merge_report(&[a, b]).count, 2);
    }

    #[test]
    fn cumulative_pow2_is_exact_at_octave_boundaries() {
        let h = Histogram::new();
        // 3 samples below 1024 ns, 2 in [1024, 4096), 1 far above.
        h.record_ns(7);
        h.record_ns(500);
        h.record_ns(1000);
        h.record_ns(1024);
        h.record_ns(4000);
        h.record_ns(1 << 20);
        let mut acc = [0u64; BUCKETS];
        h.snapshot_into(&mut acc);
        assert_eq!(cumulative_below_pow2(&acc, 10), 3);
        assert_eq!(cumulative_below_pow2(&acc, 12), 5);
        assert_eq!(cumulative_below_pow2(&acc, 21), 6);
        assert_eq!(cumulative_below_pow2(&acc, 0), 0);
        assert_eq!(cumulative_below_pow2(&acc, 2), 0);
        let sum = approx_sum_ns(&acc);
        assert!(sum > 0.0 && sum.is_finite());
    }
}
