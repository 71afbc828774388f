//! §5.4 — the block loop every parallel pass runs on, and the two
//! embarrassingly parallel construction phases.
//!
//! `run_batch` is the one worker loop. A worker claims the next
//! fixed-size block of inputs together with the matching disjoint block
//! of output slots, one lock per claim, which balances the degree skew of
//! real graphs far better than a static partition. Every output slot is
//! written by exactly one worker, all in safe code, and each worker's
//! workspace is handed back at the end, so per-worker accumulators come
//! out of the loop. With one thread the loop runs inline. Batch queries
//! ([`crate::batch`]) and both construction phases run on it.
//!
//! Both construction phases shard perfectly by node:
//!
//! * `correction_phase` (Algorithm 4): each `d̃_k` is an independent
//!   sampling task whose RNG stream is keyed by `(seed, k)` and whose
//!   estimate lands in slot `k`; each worker sums its own sample count;
//! * `local_update_phase` (Algorithm 2): each traversal (one per target
//!   `v_k`) only reads the graph and appends its triples to its worker's
//!   buffer, and the buffers are concatenated once.
//!
//! A `(owner, step, target)` key names one triple at most, so after the
//! total sort every schedule yields the same triple sequence, and
//! [`crate::index::SlingIndex::build`] writes the same index, byte for
//! byte, for every thread count. The out-of-core builder
//! ([`crate::out_of_core`]) reuses the correction phase and swaps only
//! the sort.

use parking_lot::Mutex;
use sling_graph::{DiGraph, NodeId};

use crate::config::SlingConfig;
use crate::correction::estimate_dk;
use crate::error::SlingError;
use crate::local_update::{reverse_hp_from, HpTriple};
use crate::walk::{task_rng, WalkEngine};

/// Inputs (and output slots) claimed per worker turn.
const BLOCK: usize = 32;

/// The one block loop: evaluate `run` over `inputs` into the
/// positionally aligned `out` on `threads` workers, each with its own
/// workspace from `workspace`, and return the workspaces. A worker
/// claims the next input block together with its output block and hands
/// both to `run`. The first error aborts the loop: once it is recorded
/// no worker claims another block, and it is returned.
pub(crate) fn run_batch<I: Sync, T: Send, W: Send>(
    inputs: &[I],
    out: &mut [T],
    threads: usize,
    workspace: impl Fn() -> W + Sync,
    run: impl Fn(&mut W, &[I], &mut [T]) -> Result<(), SlingError> + Sync,
) -> Result<Vec<W>, SlingError> {
    debug_assert_eq!(inputs.len(), out.len());
    let threads = threads.max(1).min(inputs.len().div_ceil(BLOCK).max(1));
    let claims = Mutex::new((
        inputs.chunks(BLOCK).zip(out.chunks_mut(BLOCK)),
        None::<SlingError>,
    ));
    let work = || {
        let mut ws = workspace();
        loop {
            let claimed = {
                let mut guard = claims.lock();
                let (blocks, error) = &mut *guard;
                match error {
                    Some(_) => None,
                    None => blocks.next(),
                }
            };
            let Some((block, slots)) = claimed else {
                break;
            };
            if let Err(err) = run(&mut ws, block, slots) {
                claims.lock().1.get_or_insert(err);
                break;
            }
        }
        ws
    };
    let workspaces = if threads == 1 {
        vec![work()]
    } else {
        crossbeam::scope(|scope| {
            let workers: Vec<_> = (0..threads).map(|_| scope.spawn(|_| work())).collect();
            workers
                .into_iter()
                .map(|w| w.join().expect("block-loop worker panicked"))
                .collect()
        })
        .expect("block-loop worker panicked")
    };
    match claims.into_inner().1 {
        Some(err) => Err(err),
        None => Ok(workspaces),
    }
}

/// Algorithm 4 for every node on `config.threads` workers: the
/// correction factors `d̃_k`, indexed by node, and the total number of
/// √c-walk pairs sampled.
pub(crate) fn correction_phase(
    graph: &DiGraph,
    config: &SlingConfig,
) -> Result<(Vec<f64>, u64), SlingError> {
    let nodes: Vec<NodeId> = graph.nodes().collect();
    let engine = WalkEngine::new(graph, config.c);
    let delta_d = config.delta_d(nodes.len());
    let mut d = vec![0.0; nodes.len()];
    let samples = run_batch(
        &nodes,
        &mut d,
        config.threads,
        || 0u64,
        |samples, block, slots| {
            for (slot, &k) in slots.iter_mut().zip(block) {
                let mut rng = task_rng(config.seed, k.0 as u64);
                let est = estimate_dk(
                    graph,
                    &engine,
                    &mut rng,
                    k,
                    config.c,
                    config.eps_d,
                    delta_d,
                    config.adaptive_dk,
                );
                *samples += est.samples;
                *slot = est.d;
            }
            Ok(())
        },
    )?;
    Ok((d, samples.into_iter().sum()))
}

/// Algorithm 2 from every node on `config.threads` workers: all retained
/// triples, unsorted. Each worker appends to one buffer of its own; the
/// buffers are concatenated once (a lone worker's buffer is returned as
/// is).
pub(crate) fn local_update_phase(
    graph: &DiGraph,
    config: &SlingConfig,
) -> Result<Vec<HpTriple>, SlingError> {
    let nodes: Vec<NodeId> = graph.nodes().collect();
    let mut parts = run_batch(
        &nodes,
        &mut vec![(); nodes.len()],
        config.threads,
        Vec::new,
        |triples, block, _| {
            for &vk in block {
                reverse_hp_from(graph, config.sqrt_c(), config.theta, vk, &mut |t| {
                    triples.push(t)
                });
            }
            Ok(())
        },
    )?;
    Ok(if parts.len() == 1 {
        parts.swap_remove(0)
    } else {
        parts.concat()
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::SlingConfig;
    use crate::index::SlingIndex;
    use sling_graph::generators::{barabasi_albert, two_cliques_bridge};

    fn assert_same_index(a: &SlingIndex, b: &SlingIndex) {
        assert_eq!(a.d, b.d, "correction factors must be identical");
        assert_eq!(a.hp, b.hp, "HP arenas must be identical");
        assert_eq!(a.reduced, b.reduced);
        assert_eq!(a.marks, b.marks);
        assert_eq!(a.stats(), b.stats());
        assert_eq!(a.to_bytes(), b.to_bytes());
    }

    #[test]
    fn parallel_build_equals_serial_build() {
        let g = barabasi_albert(300, 3, 17).unwrap();
        for enhance in [false, true] {
            let serial_cfg = SlingConfig::from_epsilon(0.6, 0.1)
                .with_seed(9)
                .with_enhancement(enhance);
            let a = SlingIndex::build(&g, &serial_cfg).unwrap();
            let b = SlingIndex::build(&g, &serial_cfg.clone().with_threads(4)).unwrap();
            assert_eq!(a.stats().marked_entries > 0, enhance);
            assert_same_index(&a, &b);
        }
    }

    #[test]
    fn parallel_build_with_enhancement_and_more_threads_than_blocks() {
        let g = two_cliques_bridge(5); // only 10 nodes, 8 threads
        let cfg = SlingConfig::from_epsilon(0.6, 0.1)
            .with_seed(4)
            .with_threads(8)
            .with_enhancement(true);
        let idx = SlingIndex::build(&g, &cfg).unwrap();
        let serial = SlingIndex::build(&g, &cfg.clone().with_threads(1)).unwrap();
        assert_same_index(&idx, &serial);
    }

    #[test]
    fn queries_agree_between_serial_and_parallel_indexes() {
        let g = barabasi_albert(200, 2, 3).unwrap();
        let cfg = SlingConfig::from_epsilon(0.6, 0.1).with_seed(5);
        let a = SlingIndex::build(&g, &cfg).unwrap();
        let b = SlingIndex::build(&g, &cfg.clone().with_threads(3)).unwrap();
        for u in [0u32, 7, 42, 199] {
            let su = a.single_source(&g, NodeId(u));
            let sv = b.single_source(&g, NodeId(u));
            assert_eq!(su, sv);
        }
    }

    #[test]
    fn block_loop_hands_back_every_workspace() {
        let inputs: Vec<u32> = (0..1000).collect();
        for threads in [1, 3] {
            let mut out = vec![0u32; inputs.len()];
            let claimed = run_batch(
                &inputs,
                &mut out,
                threads,
                || 0usize,
                |count, block, slots| {
                    for (slot, &x) in slots.iter_mut().zip(block) {
                        *slot = 2 * x;
                    }
                    *count += block.len();
                    Ok(())
                },
            )
            .unwrap();
            assert_eq!(claimed.len(), threads);
            assert_eq!(claimed.iter().sum::<usize>(), inputs.len());
            assert!(out.iter().zip(&inputs).all(|(&o, &x)| o == 2 * x));
        }
    }
}
