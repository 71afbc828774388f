//! Offline cache simulation over a trace — the engine behind the
//! hit-rate-vs-cache-size curves in `sling traffic-report` and the
//! admission-policy comparison in `BENCH_replay.json`.
//!
//! The simulator replays a trace's pair-keyed queries through a live
//! one-shard [`ShardedResultCache`] — the cache the server runs, not a
//! model of it — so a simulated hit rate is what the real cache would
//! see at that capacity and policy.

use sling_graph::NodeId;

use super::trace::{TraceKey, TraceRecord, TraceVerb};
use crate::cache::{Admission, ShardedResultCache};

/// Outcome of one [`simulate_pair_cache`] run.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct SimResult {
    /// Simulated cache capacity (entries).
    pub capacity: usize,
    /// Admission policy simulated.
    pub policy: Admission,
    /// Pair lookups served from the simulated cache.
    pub hits: u64,
    /// Pair lookups that missed.
    pub misses: u64,
    /// Inserts the admission policy rejected (always 0 for LRU).
    pub rejects: u64,
}

impl SimResult {
    /// Fraction of pair lookups that hit, in `[0, 1]`; 0 when the trace
    /// held no pair traffic.
    pub fn hit_rate(&self) -> f64 {
        let total = self.hits + self.misses;
        if total == 0 {
            return 0.0;
        }
        self.hits as f64 / total as f64
    }
}

/// Replay the pair-keyed records of a trace (`PAIR` and `BATCH` lines —
/// the verbs the result cache serves) through a single-shard cache of
/// `capacity` entries under `policy`, and report the hit rate.
///
/// Each record is one lookup; a miss inserts the pair, which the
/// admission policy may refuse. Keys are canonicalized symmetric pairs,
/// as in every use of the cache.
pub fn simulate_pair_cache(
    records: &[TraceRecord],
    capacity: usize,
    policy: Admission,
) -> SimResult {
    let capacity = capacity.max(1);
    let cache = ShardedResultCache::with_admission(capacity, 1, policy);
    for rec in records {
        let (u, v) = match (rec.verb, rec.key) {
            (TraceVerb::Pair | TraceVerb::Batch, TraceKey::Pair(u, v)) => (NodeId(u), NodeId(v)),
            _ => continue,
        };
        if cache.lookup(u, v).is_none() {
            cache.insert(u, v, 0.0);
        }
    }
    let stats = cache.stats();
    SimResult {
        capacity,
        policy,
        hits: stats.hits,
        misses: stats.misses,
        rejects: cache.admission_rejects(),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::workload::synth::{adversarial_cold_scan, zipf_sweep, SynthOpts};
    use crate::workload::trace::TraceOutcome;

    const OPTS: SynthOpts = SynthOpts {
        nodes: 400,
        records: 12_000,
        seed: 41,
    };

    #[test]
    fn empty_trace_is_all_zero() {
        let r = simulate_pair_cache(&[], 64, Admission::Lru);
        assert_eq!((r.hits, r.misses, r.rejects), (0, 0, 0));
        assert_eq!(r.hit_rate(), 0.0);
    }

    #[test]
    fn non_pair_verbs_are_ignored() {
        let recs = vec![TraceRecord {
            t_us: 0,
            verb: TraceVerb::Source,
            key: TraceKey::Node(7),
            outcome: TraceOutcome::Ok,
            latency_us: 0,
            epoch: 0,
        }];
        let r = simulate_pair_cache(&recs, 64, Admission::TinyLfu);
        assert_eq!(r.hits + r.misses, 0);
    }

    #[test]
    fn symmetric_pairs_share_one_entry() {
        let mk = |u, v| TraceRecord {
            t_us: 0,
            verb: TraceVerb::Pair,
            key: TraceKey::Pair(u, v),
            outcome: TraceOutcome::Ok,
            latency_us: 0,
            epoch: 0,
        };
        let r = simulate_pair_cache(&[mk(3, 9), mk(9, 3)], 8, Admission::Lru);
        assert_eq!((r.hits, r.misses), (1, 1));
    }

    #[test]
    fn bigger_caches_hit_more() {
        let trace = zipf_sweep(OPTS);
        let small = simulate_pair_cache(&trace.records, 64, Admission::Lru);
        let large = simulate_pair_cache(&trace.records, 4096, Admission::Lru);
        assert!(large.hit_rate() > small.hit_rate());
    }

    #[test]
    fn tinylfu_beats_lru_on_the_adversarial_scan() {
        let trace = adversarial_cold_scan(OPTS);
        let lru = simulate_pair_cache(&trace.records, 192, Admission::Lru);
        let tiny = simulate_pair_cache(&trace.records, 192, Admission::TinyLfu);
        assert!(
            tiny.hit_rate() > lru.hit_rate(),
            "tinylfu {:.3} vs lru {:.3}",
            tiny.hit_rate(),
            lru.hit_rate()
        );
        assert!(tiny.rejects > 0);
        assert_eq!(lru.rejects, 0);
    }

    /// Exact counts on the adversarial scan, pinned so any change to the
    /// lookup-then-admit rule the simulation runs shows up here.
    #[test]
    fn adversarial_scan_counts_are_pinned() {
        let trace = adversarial_cold_scan(OPTS);
        let counts = [Admission::Lru, Admission::TinyLfu].map(|policy| {
            let r = simulate_pair_cache(&trace.records, 192, policy);
            (r.hits, r.misses, r.rejects)
        });
        assert_eq!(counts, [(2888, 9112, 0), (3479, 8521, 7411)]);
    }
}
