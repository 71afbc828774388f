//! Parallel batch query execution.
//!
//! Index construction is not the only embarrassingly parallel part of
//! SLING: queries share the immutable store and graph, so a batch of
//! single-pair or single-source queries shards across threads with zero
//! synchronization beyond an atomic work cursor. This is the engine the
//! accuracy experiments (Figures 5–7 compute all-pairs scores) and any
//! bulk-scoring application (link-prediction sweeps, offline
//! recommendation refreshes) want.
//!
//! Work is claimed in fixed blocks from an atomic counter — the same
//! skew-balancing scheme as [`crate::parallel`] — and every output slot
//! is written by exactly one worker, so results are deterministic and
//! identical to the serial path. The cores are generic over
//! [`HpStore`]`: Sync`, so batches run against the in-memory arena and
//! the mapped backends alike; a failing store read aborts the batch
//! with the first error observed.

use std::sync::atomic::{AtomicUsize, Ordering};

use parking_lot::Mutex;
use sling_graph::{DiGraph, NodeId};

use crate::cache::ShardedResultCache;
use crate::error::SlingError;
use crate::index::{QueryWorkspace, SlingIndex};
use crate::single_pair::single_pair_core;
use crate::single_source::{single_source_core, SingleSourceWorkspace};
use crate::store::{EngineRef, HpStore, SharedEngine};

/// Pairs/sources claimed per atomic fetch.
const BLOCK: usize = 32;

/// Disjoint mutable block views over an output slice, handed to workers.
/// Safe because blocks are claimed exactly once from the atomic cursor.
struct SlotWriter<T> {
    base: *mut T,
    len: usize,
}
unsafe impl<T: Send> Sync for SlotWriter<T> {}

impl<T> SlotWriter<T> {
    fn new(slice: &mut [T]) -> Self {
        SlotWriter {
            base: slice.as_mut_ptr(),
            len: slice.len(),
        }
    }

    /// # Safety
    /// Each index must be written by at most one thread, which the
    /// block-claiming cursor guarantees.
    unsafe fn write(&self, i: usize, value: T) {
        debug_assert!(i < self.len);
        unsafe { self.base.add(i).write(value) };
    }
}

/// Record the first store error a worker hit; later errors are dropped.
fn record_error(slot: &Mutex<Option<SlingError>>, err: SlingError) {
    let mut guard = slot.lock();
    if guard.is_none() {
        *guard = Some(err);
    }
}

/// Batched Algorithm 3 over any `Sync` storage backend.
pub(crate) fn batch_single_pair_core<S: HpStore + Sync>(
    e: EngineRef<'_, S>,
    graph: &DiGraph,
    pairs: &[(NodeId, NodeId)],
    threads: usize,
) -> Result<Vec<f64>, SlingError> {
    let mut out = vec![0.0; pairs.len()];
    let threads = threads.max(1).min(pairs.len().max(1));
    if threads == 1 {
        let mut ws = QueryWorkspace::new();
        for (slot, &(u, v)) in out.iter_mut().zip(pairs) {
            *slot = single_pair_core(e, graph, &mut ws, u, v)?;
        }
        return Ok(out);
    }
    let cursor = AtomicUsize::new(0);
    let first_error: Mutex<Option<SlingError>> = Mutex::new(None);
    let writer = SlotWriter::new(&mut out);
    crossbeam::scope(|scope| {
        for _ in 0..threads {
            scope.spawn(|_| {
                let mut ws = QueryWorkspace::new();
                'outer: loop {
                    let lo = cursor.fetch_add(BLOCK, Ordering::Relaxed);
                    if lo >= pairs.len() {
                        break;
                    }
                    let hi = (lo + BLOCK).min(pairs.len());
                    // Advise the backend about the whole claimed block up
                    // front: out-of-core stores stage all 2·BLOCK entry
                    // ranges with batched readahead instead of faulting
                    // them in one query at a time (no-op for resident
                    // backends).
                    for &(u, v) in &pairs[lo..hi] {
                        e.store.prefetch(u);
                        e.store.prefetch(v);
                    }
                    for (i, &(u, v)) in pairs[lo..hi].iter().enumerate() {
                        match single_pair_core(e, graph, &mut ws, u, v) {
                            // SAFETY: block [lo, hi) is claimed exactly once.
                            Ok(s) => unsafe { writer.write(lo + i, s) },
                            Err(err) => {
                                record_error(&first_error, err);
                                break 'outer;
                            }
                        }
                    }
                }
            });
        }
    })
    .expect("batch query worker panicked");
    match first_error.into_inner() {
        Some(err) => Err(err),
        None => Ok(out),
    }
}

/// Batched Algorithm 6 over any `Sync` storage backend.
pub(crate) fn batch_single_source_core<S: HpStore + Sync>(
    e: EngineRef<'_, S>,
    graph: &DiGraph,
    sources: &[NodeId],
    threads: usize,
) -> Result<Vec<Vec<f64>>, SlingError> {
    let mut out: Vec<Vec<f64>> = vec![Vec::new(); sources.len()];
    let threads = threads.max(1).min(sources.len().max(1));
    if threads == 1 {
        let mut ws = SingleSourceWorkspace::new();
        for (slot, &u) in out.iter_mut().zip(sources) {
            single_source_core(e, graph, &mut ws, u, slot)?;
        }
        return Ok(out);
    }
    let cursor = AtomicUsize::new(0);
    let first_error: Mutex<Option<SlingError>> = Mutex::new(None);
    let writer = SlotWriter::new(&mut out);
    crossbeam::scope(|scope| {
        for _ in 0..threads {
            scope.spawn(|_| {
                let mut ws = SingleSourceWorkspace::new();
                'outer: loop {
                    let lo = cursor.fetch_add(BLOCK, Ordering::Relaxed);
                    if lo >= sources.len() {
                        break;
                    }
                    let hi = (lo + BLOCK).min(sources.len());
                    for (i, &u) in sources[lo..hi].iter().enumerate() {
                        let mut scores = Vec::new();
                        match single_source_core(e, graph, &mut ws, u, &mut scores) {
                            // SAFETY: block [lo, hi) is claimed exactly once.
                            Ok(()) => unsafe { writer.write(lo + i, scores) },
                            Err(err) => {
                                record_error(&first_error, err);
                                break 'outer;
                            }
                        }
                    }
                }
            });
        }
    })
    .expect("batch query worker panicked");
    match first_error.into_inner() {
        Some(err) => Err(err),
        None => Ok(out),
    }
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
        let threads = threads.max(1).min(pairs.len().max(1));
        let run_one = |ws: &mut QueryWorkspace, u: NodeId, v: NodeId| {
            self.single_pair_cached(graph, ws, cache, u, v)
        };
        if threads == 1 {
            let mut ws = QueryWorkspace::new();
            for (slot, &(u, v)) in out.iter_mut().zip(pairs) {
                *slot = run_one(&mut ws, u, v)?;
            }
            return Ok(out);
        }
        let cursor = AtomicUsize::new(0);
        let first_error: Mutex<Option<SlingError>> = Mutex::new(None);
        let writer = SlotWriter::new(&mut out);
        crossbeam::scope(|scope| {
            for _ in 0..threads {
                scope.spawn(|_| {
                    let mut ws = QueryWorkspace::new();
                    'outer: loop {
                        let lo = cursor.fetch_add(BLOCK, Ordering::Relaxed);
                        if lo >= pairs.len() {
                            break;
                        }
                        let hi = (lo + BLOCK).min(pairs.len());
                        for (i, &(u, v)) in pairs[lo..hi].iter().enumerate() {
                            match run_one(&mut ws, u, v) {
                                // SAFETY: block [lo, hi) is claimed exactly once.
                                Ok(s) => unsafe { writer.write(lo + i, s) },
                                Err(err) => {
                                    record_error(&first_error, err);
                                    break 'outer;
                                }
                            }
                        }
                    }
                });
            }
        })
        .expect("batch query worker panicked");
        match first_error.into_inner() {
            Some(err) => Err(err),
            None => Ok(out),
        }
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
        assert!(matches!(
            engine.batch_single_pair_cached(
                &g,
                &[(NodeId(0), NodeId(9999))],
                2,
                &ShardedResultCache::with_capacity(8)
            ),
            Err(SlingError::NodeOutOfRange { .. })
        ));
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
