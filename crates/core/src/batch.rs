//! Parallel batch query execution.
//!
//! Index construction is not the only embarrassingly parallel part of
//! SLING: queries share the immutable store and graph, so a batch of
//! single-pair or single-source queries shards across threads with no
//! synchronization beyond one lock per claimed block. This is the engine
//! the accuracy experiments (Figures 5–7 compute all-pairs scores) and
//! any bulk-scoring application (link-prediction sweeps, offline
//! recommendation refreshes) want.
//!
//! Batches run on the block loop of [`crate::parallel`], the one that
//! index construction runs on: a worker claims an input block together
//! with the matching disjoint block of output slots, so every slot is
//! written by exactly one worker and results are deterministic and
//! identical to the serial path. The cores are generic over
//! [`HpStore`]`: Sync`, so batches run against the in-memory arena and
//! the mapped backends alike; a failing store read aborts the batch
//! with the first error observed.

use sling_graph::{DiGraph, NodeId};

use crate::cache::ShardedResultCache;
use crate::error::SlingError;
use crate::index::{QueryWorkspace, SlingIndex};
use crate::parallel::run_batch;
use crate::single_pair::single_pair_core;
use crate::single_source::{single_source_core, SingleSourceWorkspace};
use crate::store::{EngineRef, HpStore, SharedEngine};

/// Batched Algorithm 3 over any `Sync` storage backend.
pub(crate) fn batch_single_pair_core<S: HpStore + Sync>(
    e: EngineRef<'_, S>,
    graph: &DiGraph,
    pairs: &[(NodeId, NodeId)],
    threads: usize,
) -> Result<Vec<f64>, SlingError> {
    let mut out = vec![0.0; pairs.len()];
    run_batch(
        pairs,
        &mut out,
        threads,
        QueryWorkspace::new,
        |ws, block, slots| {
            // Advise the backend about the whole claimed block up
            // front: out-of-core stores stage all 2·BLOCK entry ranges
            // with batched readahead instead of faulting them in one
            // query at a time (no-op for resident backends).
            for &(u, v) in block {
                e.store.prefetch(u);
                e.store.prefetch(v);
            }
            for (slot, &(u, v)) in slots.iter_mut().zip(block) {
                *slot = single_pair_core(e, graph, ws, u, v)?;
            }
            Ok(())
        },
    )?;
    Ok(out)
}

/// Batched Algorithm 6 over any `Sync` storage backend.
pub(crate) fn batch_single_source_core<S: HpStore + Sync>(
    e: EngineRef<'_, S>,
    graph: &DiGraph,
    sources: &[NodeId],
    threads: usize,
) -> Result<Vec<Vec<f64>>, SlingError> {
    let mut out: Vec<Vec<f64>> = vec![Vec::new(); sources.len()];
    run_batch(
        sources,
        &mut out,
        threads,
        SingleSourceWorkspace::new,
        |ws, block, slots| {
            for (slot, &u) in slots.iter_mut().zip(block) {
                single_source_core(e, graph, ws, u, slot)?;
            }
            Ok(())
        },
    )?;
    Ok(out)
}

impl<S: HpStore + Sync> SharedEngine<S> {
    /// Batched Algorithm 3 memoized through a shared
    /// [`ShardedResultCache`] — the bulk analogue of
    /// [`SharedEngine::single_pair_cached`], and the path the CLI batch
    /// and server workloads share. Each pair is canonicalized before
    /// computing, so results are positionally aligned with `pairs` and
    /// bit-identical to the serial canonical answers regardless of
    /// thread count, cache state, or which worker populated an entry.
    ///
    /// Node ids are validated per pair inside the query path (no
    /// duplicate up-front sweep); an out-of-range pair aborts the batch
    /// with the first error observed, possibly after earlier pairs have
    /// populated the cache — harmless, since entries are immutable.
    pub fn batch_single_pair_cached(
        &self,
        graph: &DiGraph,
        pairs: &[(NodeId, NodeId)],
        threads: usize,
        cache: &ShardedResultCache,
    ) -> Result<Vec<f64>, SlingError> {
        let mut out = vec![0.0; pairs.len()];
        run_batch(
            pairs,
            &mut out,
            threads,
            QueryWorkspace::new,
            |ws, block, slots| {
                for (slot, &(u, v)) in slots.iter_mut().zip(block) {
                    *slot = self.single_pair_cached(graph, ws, cache, u, v)?;
                }
                Ok(())
            },
        )?;
        Ok(out)
    }
}

impl SlingIndex {
    /// Evaluate a batch of single-pair queries on `threads` workers.
    /// Results are positionally aligned with `pairs` and identical to
    /// the serial answers.
    pub fn batch_single_pair(
        &self,
        graph: &DiGraph,
        pairs: &[(NodeId, NodeId)],
        threads: usize,
    ) -> Vec<f64> {
        batch_single_pair_core(self.engine_ref(), graph, pairs, threads)
            .expect("in-memory HP store cannot fail")
    }

    /// Evaluate single-source queries from every node in `sources` on
    /// `threads` workers; `result[i]` is the full score vector of
    /// `sources[i]`.
    pub fn batch_single_source(
        &self,
        graph: &DiGraph,
        sources: &[NodeId],
        threads: usize,
    ) -> Vec<Vec<f64>> {
        batch_single_source_core(self.engine_ref(), graph, sources, threads)
            .expect("in-memory HP store cannot fail")
    }

    /// All-pairs scores as `n` single-source rows (the Figures 5–7
    /// protocol), parallelized over sources.
    pub fn all_pairs(&self, graph: &DiGraph, threads: usize) -> Vec<Vec<f64>> {
        let sources: Vec<NodeId> = graph.nodes().collect();
        self.batch_single_source(graph, &sources, threads)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::SlingConfig;
    use sling_graph::generators::{barabasi_albert, two_cliques_bridge};

    const C: f64 = 0.6;

    fn build(g: &DiGraph) -> SlingIndex {
        SlingIndex::build(g, &SlingConfig::from_epsilon(C, 0.1).with_seed(21)).unwrap()
    }

    #[test]
    fn batch_pairs_match_serial_for_any_thread_count() {
        let g = barabasi_albert(300, 3, 3).unwrap();
        let idx = build(&g);
        let pairs: Vec<(NodeId, NodeId)> = (0..257u32)
            .map(|i| (NodeId(i % 300), NodeId((i * 7 + 1) % 300)))
            .collect();
        let serial = idx.batch_single_pair(&g, &pairs, 1);
        for threads in [2, 3, 8] {
            let parallel = idx.batch_single_pair(&g, &pairs, threads);
            assert_eq!(serial, parallel, "threads = {threads}");
        }
    }

    #[test]
    fn batch_sources_match_serial() {
        let g = two_cliques_bridge(6);
        let idx = build(&g);
        let sources: Vec<NodeId> = g.nodes().collect();
        let serial = idx.batch_single_source(&g, &sources, 1);
        let parallel = idx.batch_single_source(&g, &sources, 4);
        assert_eq!(serial, parallel);
        // And each row matches the direct query.
        for (i, &u) in sources.iter().enumerate() {
            assert_eq!(serial[i], idx.single_source(&g, u));
        }
    }

    #[test]
    fn all_pairs_is_square_and_diagonal_one() {
        let g = two_cliques_bridge(4);
        let idx = build(&g);
        let all = idx.all_pairs(&g, 3);
        assert_eq!(all.len(), 8);
        for (i, row) in all.iter().enumerate() {
            assert_eq!(row.len(), 8);
            assert_eq!(row[i], 1.0);
        }
    }

    #[test]
    fn empty_batches_are_fine() {
        let g = two_cliques_bridge(3);
        let idx = build(&g);
        assert!(idx.batch_single_pair(&g, &[], 4).is_empty());
        assert!(idx.batch_single_source(&g, &[], 4).is_empty());
    }

    #[test]
    fn cached_batch_matches_canonical_serial_for_any_thread_count() {
        let g = barabasi_albert(200, 3, 9).unwrap();
        let idx = build(&g);
        let pairs: Vec<(NodeId, NodeId)> = (0..300u32)
            .map(|i| (NodeId(i % 200), NodeId((i * 13 + 5) % 200)))
            .collect();
        // Reference: canonical-order serial answers.
        let want: Vec<f64> = pairs
            .iter()
            .map(|&(u, v)| {
                let (a, b) = (u.0.min(v.0), u.0.max(v.0));
                idx.single_pair(&g, NodeId(a), NodeId(b))
            })
            .collect();
        let engine: SharedEngine<crate::hp::HpArena> = idx.into();
        for threads in [1, 4, 8] {
            let cache = ShardedResultCache::new(128, 8);
            let got = engine
                .batch_single_pair_cached(&g, &pairs, threads, &cache)
                .unwrap();
            assert_eq!(got, want, "threads = {threads}");
            // Run the same batch again: now dominated by hits, same bits.
            let again = engine
                .batch_single_pair_cached(&g, &pairs, threads, &cache)
                .unwrap();
            assert_eq!(again, want, "threads = {threads} (warm)");
            let s = cache.stats();
            assert!(s.hits > 0, "threads = {threads}: {s:?}");
        }
        // An out-of-range pair aborts the batch, alone or in a late block
        // of a parallel batch.
        let mut late = pairs.clone();
        late.push((NodeId(0), NodeId(9999)));
        for (bad, threads) in [(&[(NodeId(0), NodeId(9999))][..], 2), (&late[..], 4)] {
            assert!(matches!(
                engine.batch_single_pair_cached(
                    &g,
                    bad,
                    threads,
                    &ShardedResultCache::with_capacity(8)
                ),
                Err(SlingError::NodeOutOfRange { .. })
            ));
        }
    }

    #[test]
    fn oversubscribed_threads_clamp() {
        let g = two_cliques_bridge(3);
        let idx = build(&g);
        let pairs = vec![(NodeId(0), NodeId(1))];
        let got = idx.batch_single_pair(&g, &pairs, 64);
        assert_eq!(got.len(), 1);
        assert_eq!(got[0], idx.single_pair(&g, NodeId(0), NodeId(1)));
    }
}
