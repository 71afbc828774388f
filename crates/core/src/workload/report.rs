//! SkyServer-style traffic characterization — the analysis behind
//! `sling traffic-report`.
//!
//! The SkyServer Traffic Report distilled five years of public query
//! logs into a handful of operator-facing facts: what the verb mix is,
//! how skewed key popularity is (and what Zipf exponent fits it), how
//! bursty arrivals are, and what a cache of a given size would have
//! done with the traffic. [`characterize`] computes the same facts for
//! one of our traces; [`TrafficReport`]'s `Display` renders them as the
//! report the CLI prints.

use std::collections::HashMap;
use std::fmt;

use super::sim::simulate_pair_cache;
use super::trace::{Trace, TraceKey, TraceOutcome, TraceVerb};
use crate::cache::Admission;

/// Cache capacities the hit-rate-vs-size curve samples.
const CURVE_CAPACITIES: [usize; 5] = [64, 256, 1024, 4096, 16384];

/// How many top keys the report lists.
const TOP_KEYS: usize = 10;

/// One row of the hit-rate-vs-cache-size curve.
#[derive(Clone, Copy, Debug)]
pub struct HitRatePoint {
    /// Cache capacity in entries.
    pub capacity: usize,
    /// Simulated hit rate under plain LRU.
    pub lru: f64,
    /// Simulated hit rate under TinyLFU admission.
    pub tinylfu: f64,
}

/// Everything `sling traffic-report` prints, as data.
#[derive(Clone, Debug)]
pub struct TrafficReport {
    /// Records characterized.
    pub records: usize,
    /// Capture span in microseconds (first to last record).
    pub duration_us: u64,
    /// Mean arrival rate over the span, records per second.
    pub mean_qps: f64,
    /// Per-verb record counts, in [`TraceVerb`] declaration order.
    pub verb_counts: [(TraceVerb, u64); 4],
    /// Per-outcome record counts, in [`TraceOutcome`] declaration order.
    pub outcome_counts: [(TraceOutcome, u64); 4],
    /// Distinct keys seen.
    pub distinct_keys: usize,
    /// The most popular keys with their counts, descending.
    pub top_keys: Vec<(TraceKey, u64)>,
    /// Share of all traffic going to the most popular 1% of keys.
    pub top1pct_share: f64,
    /// Share of all traffic going to the most popular 10% of keys.
    pub top10pct_share: f64,
    /// Zipf exponent fitted to the rank-frequency curve by log-log
    /// least squares (0 when the trace is too small to fit).
    pub zipf_exponent: f64,
    /// Peak one-second arrival count.
    pub peak_second: u64,
    /// Peak-to-mean ratio of per-second arrival counts (1.0 = perfectly
    /// smooth; SkyServer-style bot traffic pushes this far above 1).
    pub burstiness: f64,
    /// Coefficient of variation of per-second arrival counts.
    pub arrival_cv: f64,
    /// Simulated hit rate at each `CURVE_CAPACITIES` entry.
    pub hit_rate_curve: Vec<HitRatePoint>,
    /// Generation epochs spanned (max − min observed epoch + 1).
    pub epochs_spanned: u64,
}

/// Characterize a trace: verb/outcome mix, key-popularity skew with a
/// fitted Zipf exponent, arrival burstiness, and hit-rate-vs-size
/// curves computed by [`simulate_pair_cache`].
pub fn characterize(trace: &Trace) -> TrafficReport {
    let records = &trace.records;
    let duration_us = trace.duration_us();
    let span_s = (duration_us as f64 / 1e6).max(1e-6);

    let mut verb_counts = [
        (TraceVerb::Pair, 0u64),
        (TraceVerb::Source, 0),
        (TraceVerb::TopK, 0),
        (TraceVerb::Batch, 0),
    ];
    let mut outcome_counts = [
        (TraceOutcome::Ok, 0u64),
        (TraceOutcome::Err, 0),
        (TraceOutcome::Shed, 0),
        (TraceOutcome::Deadline, 0),
    ];
    let mut key_counts: HashMap<TraceKey, u64> = HashMap::new();
    let mut per_second: HashMap<u64, u64> = HashMap::new();
    let mut epoch_min = u64::MAX;
    let mut epoch_max = 0u64;
    for rec in records {
        for slot in verb_counts.iter_mut() {
            if slot.0 == rec.verb {
                slot.1 += 1;
            }
        }
        for slot in outcome_counts.iter_mut() {
            if slot.0 == rec.outcome {
                slot.1 += 1;
            }
        }
        *key_counts.entry(rec.key).or_insert(0) += 1;
        *per_second.entry(rec.t_us / 1_000_000).or_insert(0) += 1;
        epoch_min = epoch_min.min(rec.epoch);
        epoch_max = epoch_max.max(rec.epoch);
    }

    // Rank-frequency curve, descending.
    let mut freqs: Vec<u64> = key_counts.values().copied().collect();
    freqs.sort_unstable_by(|a, b| b.cmp(a));
    let total: u64 = freqs.iter().sum();
    let share_of_top = |fraction: f64| -> f64 {
        if total == 0 {
            return 0.0;
        }
        let k = ((freqs.len() as f64 * fraction).ceil() as usize).max(1);
        let top: u64 = freqs.iter().take(k).sum();
        top as f64 / total as f64
    };

    let mut top_keys: Vec<(TraceKey, u64)> = key_counts.iter().map(|(k, c)| (*k, *c)).collect();
    top_keys.sort_unstable_by(|a, b| {
        b.1.cmp(&a.1)
            .then_with(|| format!("{:?}", a.0).cmp(&format!("{:?}", b.0)))
    });
    top_keys.truncate(TOP_KEYS);

    // Arrival buckets: fill the whole span so idle seconds count as 0
    // (burstiness against the true mean, not just the busy seconds).
    let buckets_spanned = duration_us / 1_000_000 + 1;
    let mut arrivals: Vec<u64> = Vec::with_capacity(buckets_spanned.min(1 << 20) as usize);
    for s in 0..buckets_spanned.min(1 << 20) {
        arrivals.push(per_second.get(&s).copied().unwrap_or(0));
    }
    let mean_arrivals = if arrivals.is_empty() {
        0.0
    } else {
        arrivals.iter().sum::<u64>() as f64 / arrivals.len() as f64
    };
    let peak_second = arrivals.iter().copied().max().unwrap_or(0);
    let burstiness = if mean_arrivals > 0.0 {
        peak_second as f64 / mean_arrivals
    } else {
        0.0
    };
    let arrival_cv = if mean_arrivals > 0.0 {
        let var = arrivals
            .iter()
            .map(|&a| {
                let d = a as f64 - mean_arrivals;
                d * d
            })
            .sum::<f64>()
            / arrivals.len() as f64;
        var.sqrt() / mean_arrivals
    } else {
        0.0
    };

    let hit_rate_curve = CURVE_CAPACITIES
        .iter()
        .map(|&capacity| HitRatePoint {
            capacity,
            lru: simulate_pair_cache(records, capacity, Admission::Lru).hit_rate(),
            tinylfu: simulate_pair_cache(records, capacity, Admission::TinyLfu).hit_rate(),
        })
        .collect();

    TrafficReport {
        records: records.len(),
        duration_us,
        mean_qps: records.len() as f64 / span_s,
        verb_counts,
        outcome_counts,
        distinct_keys: key_counts.len(),
        top_keys,
        top1pct_share: share_of_top(0.01),
        top10pct_share: share_of_top(0.10),
        zipf_exponent: fit_zipf_exponent(&freqs),
        peak_second,
        burstiness,
        arrival_cv,
        hit_rate_curve,
        epochs_spanned: if records.is_empty() {
            0
        } else {
            epoch_max - epoch_min + 1
        },
    }
}

/// Least-squares slope of `ln(frequency)` against `ln(rank)` over the
/// rank-frequency curve — the Zipf exponent `s` in `f(r) ∝ r^-s`.
/// Returns 0 when fewer than two distinct ranks exist.
fn fit_zipf_exponent(freqs_desc: &[u64]) -> f64 {
    // Fit over the head (up to 1000 ranks): the tail of one-touch keys
    // flattens into a plateau that is measurement floor, not law.
    let n = freqs_desc.len().min(1000);
    if n < 2 {
        return 0.0;
    }
    let (mut sx, mut sy, mut sxx, mut sxy) = (0.0f64, 0.0f64, 0.0f64, 0.0f64);
    for (i, &f) in freqs_desc.iter().take(n).enumerate() {
        let x = ((i + 1) as f64).ln();
        let y = (f.max(1) as f64).ln();
        sx += x;
        sy += y;
        sxx += x * x;
        sxy += x * y;
    }
    let n = n as f64;
    let denom = n * sxx - sx * sx;
    if denom.abs() < 1e-12 {
        return 0.0;
    }
    // Slope is negative for decaying frequency; report the exponent.
    -((n * sxy - sx * sy) / denom)
}

fn key_label(key: &TraceKey) -> String {
    let mut label = String::new();
    key.encode(&mut label);
    label
}

impl fmt::Display for TrafficReport {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        writeln!(f, "traffic report")?;
        writeln!(
            f,
            "  records          {}  span {:.3}s  mean {:.1} q/s",
            self.records,
            self.duration_us as f64 / 1e6,
            self.mean_qps
        )?;
        write!(f, "  verb mix        ")?;
        for (verb, count) in &self.verb_counts {
            let pct = if self.records > 0 {
                *count as f64 * 100.0 / self.records as f64
            } else {
                0.0
            };
            write!(f, " {}={} ({:.1}%)", verb.as_str(), count, pct)?;
        }
        writeln!(f)?;
        write!(f, "  outcomes        ")?;
        for (outcome, count) in &self.outcome_counts {
            write!(f, " {}={}", outcome.as_str(), count)?;
        }
        writeln!(f)?;
        writeln!(
            f,
            "  keys             {} distinct; top 1% of keys take {:.1}% of traffic, top 10% take {:.1}%",
            self.distinct_keys,
            self.top1pct_share * 100.0,
            self.top10pct_share * 100.0
        )?;
        writeln!(f, "  zipf exponent    {:.2}", self.zipf_exponent)?;
        writeln!(
            f,
            "  burstiness       peak {}/s = {:.1}x mean; arrival CV {:.2}",
            self.peak_second, self.burstiness, self.arrival_cv
        )?;
        writeln!(f, "  top keys        ")?;
        for (key, count) in &self.top_keys {
            writeln!(f, "    {:>12}  {}", key_label(key), count)?;
        }
        writeln!(f, "  hit rate vs cache size (simulated, pair traffic)")?;
        writeln!(f, "    {:>8}  {:>6}  {:>8}", "entries", "lru", "tinylfu")?;
        for point in &self.hit_rate_curve {
            writeln!(
                f,
                "    {:>8}  {:>5.1}%  {:>7.1}%",
                point.capacity,
                point.lru * 100.0,
                point.tinylfu * 100.0
            )?;
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::workload::synth::{adversarial_cold_scan, diurnal_burst, zipf_sweep, SynthOpts};

    const OPTS: SynthOpts = SynthOpts {
        nodes: 300,
        records: 6_000,
        seed: 11,
    };

    #[test]
    fn empty_trace_reports_zeros() {
        let report = characterize(&Trace {
            base_us: 0,
            records: Vec::new(),
        });
        assert_eq!(report.records, 0);
        assert_eq!(report.distinct_keys, 0);
        assert_eq!(report.zipf_exponent, 0.0);
        assert_eq!(report.epochs_spanned, 0);
        // Display must not panic on the degenerate report.
        let _ = report.to_string();
    }

    #[test]
    fn verb_mix_sums_to_records() {
        let report = characterize(&zipf_sweep(OPTS));
        let verb_total: u64 = report.verb_counts.iter().map(|(_, c)| c).sum();
        assert_eq!(verb_total as usize, report.records);
        let (_, pair_count) = report.verb_counts[0];
        assert!(pair_count as usize > report.records / 2, "PAIR dominates");
    }

    #[test]
    fn zipf_trace_fits_a_positive_exponent() {
        let report = characterize(&zipf_sweep(OPTS));
        assert!(
            report.zipf_exponent > 0.3,
            "fit too flat: {}",
            report.zipf_exponent
        );
        assert!(report.top1pct_share > 0.02, "no skew measured");
        assert!(report.top10pct_share >= report.top1pct_share);
    }

    #[test]
    fn bursty_trace_measures_bursty() {
        let bursty = characterize(&diurnal_burst(OPTS));
        assert!(
            bursty.burstiness > 1.2,
            "diurnal+bot trace should be bursty, got {:.2}",
            bursty.burstiness
        );
    }

    #[test]
    fn hit_rate_curve_shows_tinylfu_advantage_on_scan() {
        let report = characterize(&adversarial_cold_scan(SynthOpts {
            records: 12_000,
            ..OPTS
        }));
        // At some modest capacity the sketch should beat plain LRU.
        assert!(
            report
                .hit_rate_curve
                .iter()
                .any(|p| p.tinylfu > p.lru + 0.01),
            "curve: {:?}",
            report.hit_rate_curve
        );
    }

    #[test]
    fn display_contains_the_headline_sections() {
        let text = characterize(&zipf_sweep(OPTS)).to_string();
        for needle in [
            "verb mix",
            "zipf exponent",
            "burstiness",
            "hit rate vs cache size",
            "tinylfu",
        ] {
            assert!(text.contains(needle), "missing {needle:?} in:\n{text}");
        }
    }
}
