//! Offline cache simulation over a trace — the engine behind the
//! hit-rate-vs-cache-size curves in `sling traffic-report` and the
//! admission-policy comparison in `BENCH_replay.json`.
//!
//! The simulator replays a trace's pair-keyed queries through the exact
//! structures the live result cache uses (`LruList` plus
//! [`FrequencySketch`]) with the same lookup-then-admit logic as
//! `ShardedResultCache`, so a simulated hit rate is a faithful
//! prediction of the real cache at that capacity and policy — not a
//! model of it.

use super::trace::{TraceKey, TraceRecord, TraceVerb};
use crate::cache::{pair_hash, Admission, FrequencySketch, LruList};

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
/// Mirrors `ShardedResultCache` exactly: every lookup charges the
/// frequency sketch, and at capacity a TinyLFU candidate is admitted
/// only when its sketch estimate strictly beats the LRU victim's. Keys
/// are canonicalized symmetric pairs, as in the live cache.
pub fn simulate_pair_cache(
    records: &[TraceRecord],
    capacity: usize,
    policy: Admission,
) -> SimResult {
    let capacity = capacity.max(1);
    let mut list: LruList<(u32, u32), ()> = LruList::new();
    let mut sketch = match policy {
        Admission::TinyLfu => FrequencySketch::with_capacity(capacity),
        Admission::Lru => FrequencySketch::default(),
    };
    let mut result = SimResult {
        capacity,
        policy,
        hits: 0,
        misses: 0,
        rejects: 0,
    };
    for rec in records {
        let (u, v) = match (rec.verb, rec.key) {
            (TraceVerb::Pair | TraceVerb::Batch, TraceKey::Pair(u, v)) => (u, v),
            _ => continue,
        };
        let key = (u.min(v), u.max(v));
        let hash = pair_hash(key);
        sketch.increment(hash);
        if list.get(&key).is_some() {
            result.hits += 1;
            continue;
        }
        result.misses += 1;
        if list.len() >= capacity {
            if policy == Admission::TinyLfu {
                let victim_hash = list.peek_lru().map(|(k, _)| pair_hash(*k));
                if let Some(victim_hash) = victim_hash {
                    if sketch.estimate(hash) <= sketch.estimate(victim_hash) {
                        result.rejects += 1;
                        continue;
                    }
                }
            }
            list.pop_lru();
        }
        list.insert(key, ());
    }
    result
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
}
