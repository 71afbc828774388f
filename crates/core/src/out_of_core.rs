//! §5.4 — out-of-core index construction.
//!
//! Algorithm 2's triples are streamed through the [`ExternalSorter`] with
//! a caller-bounded memory buffer, then the globally sorted stream is
//! assembled directly into the packed arena — at no point does the
//! unsorted triple set reside in memory. Only the `O(n)` correction
//! factors and the final arena are memory-resident, mirroring the paper's
//! description (Figure 10 sweeps the buffer size).
//!
//! Out-of-core *querying* needs no code of its own: the mapped backends
//! in [`crate::store`] ([`crate::store::MmapHpArena`],
//! [`crate::store::CompressedMmapArena`], opened by
//! [`crate::store::SharedEngine::open`] with
//! [`crate::store::Residency::Mapped`]) keep only the `O(n)` metadata
//! resident and read each query's `O(1/ε)` entries out of the page cache.

use std::io;
use std::path::PathBuf;

use sling_graph::DiGraph;

use crate::config::SlingConfig;
use crate::correction::estimate_dk;
use crate::enhance::MarkArena;
use crate::error::SlingError;
use crate::external_sort::ExternalSorter;
use crate::hp::{HpArena, HpEntry};
use crate::index::{BuildStats, SlingIndex};
use crate::local_update::reverse_hp_all;
use crate::walk::{task_rng, WalkEngine};

/// Options for the out-of-core builder.
#[derive(Clone, Debug)]
pub struct OutOfCoreConfig {
    /// Memory budget for the triple sort buffer, in bytes.
    pub buffer_bytes: usize,
    /// Directory for temporary run files.
    pub temp_dir: PathBuf,
}

impl OutOfCoreConfig {
    /// Budget of `buffer_bytes` with run files under the system temp dir.
    pub fn with_buffer(buffer_bytes: usize) -> Self {
        OutOfCoreConfig {
            buffer_bytes,
            temp_dir: std::env::temp_dir().join(format!("sling-ooc-{}", std::process::id())),
        }
    }
}

/// Build a [`SlingIndex`] with the external-sort pipeline. Produces an
/// index identical to [`SlingIndex::build`] for the same config/seed.
pub fn build_out_of_core(
    graph: &DiGraph,
    config: &SlingConfig,
    occ: &OutOfCoreConfig,
) -> Result<SlingIndex, SlingError> {
    config.validate()?;
    let n = graph.num_nodes();
    let engine = WalkEngine::new(graph, config.c);
    let delta_d = config.delta_d(n);

    let mut dk_samples = 0u64;
    let mut d = Vec::with_capacity(n);
    for k in graph.nodes() {
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
        dk_samples += est.samples;
        d.push(est.d);
    }

    let mut sorter = ExternalSorter::new(&occ.temp_dir, occ.buffer_bytes)?;
    let mut push_err: Option<io::Error> = None;
    reverse_hp_all(graph, config.sqrt_c(), config.theta, &mut |t| {
        if push_err.is_none() {
            if let Err(e) = sorter.push(t) {
                push_err = Some(e);
            }
        }
    });
    if let Some(e) = push_err {
        return Err(e.into());
    }

    // §5.2 reduction decisions (same rule as the in-memory assembler).
    let eta_budget = config.gamma / config.theta;
    let mut reduced = vec![false; n];
    let mut reduced_nodes = 0usize;
    if config.space_reduction {
        for v in graph.nodes() {
            if (graph.two_hop_in_cost(v) as f64) <= eta_budget {
                reduced[v.index()] = true;
                reduced_nodes += 1;
            }
        }
    }

    // Stream the sorted triples straight into the arena.
    let mut entries_before = 0usize;
    let mut stream_err: Option<io::Error> = None;
    let hp = {
        let reduced = &reduced;
        let iter = sorter
            .into_sorted_iter()?
            .filter_map(|r| match r {
                Ok(t) => Some(t),
                Err(e) => {
                    stream_err = Some(e);
                    None
                }
            })
            .inspect(|_| entries_before += 1)
            .filter(|t| !(reduced[t.owner.index()] && (t.step == 1 || t.step == 2)))
            .map(|t| (t.owner.0, HpEntry::new(t.step, t.target, t.value)));
        HpArena::from_sorted_entries(n, iter)
    };
    if let Some(e) = stream_err {
        return Err(e.into());
    }
    std::fs::remove_dir_all(&occ.temp_dir).ok();

    let marks = if config.enhance_accuracy {
        MarkArena::compute(graph, config, &hp)
    } else {
        MarkArena::empty(n)
    };
    let stats = BuildStats {
        dk_samples,
        entries_before_reduction: entries_before,
        entries_stored: hp.total_entries(),
        reduced_nodes,
        marked_entries: marks.total_marks(),
    };
    Ok(SlingIndex {
        config: config.clone(),
        num_nodes: n,
        num_edges: graph.num_edges(),
        d,
        hp,
        reduced,
        marks,
        stats,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use sling_graph::generators::{barabasi_albert, two_cliques_bridge};

    fn cfg() -> SlingConfig {
        SlingConfig::from_epsilon(0.6, 0.1).with_seed(11)
    }

    fn tmp(tag: &str) -> PathBuf {
        let p = std::env::temp_dir().join(format!("sling_ooc_test_{tag}_{}", std::process::id()));
        std::fs::create_dir_all(&p).unwrap();
        p
    }

    #[test]
    fn out_of_core_build_matches_in_memory_build() {
        let g = barabasi_albert(200, 3, 5).unwrap();
        let config = cfg();
        let mem = SlingIndex::build(&g, &config).unwrap();
        // Tiny buffer forces many runs; result must still be identical.
        let occ = OutOfCoreConfig {
            buffer_bytes: 4 * 1024,
            temp_dir: tmp("small_buf"),
        };
        let disk = build_out_of_core(&g, &config, &occ).unwrap();
        assert_eq!(mem.d, disk.d);
        assert_eq!(mem.hp, disk.hp);
        assert_eq!(mem.reduced, disk.reduced);
        assert_eq!(
            mem.stats().entries_before_reduction,
            disk.stats().entries_before_reduction
        );
    }

    #[test]
    fn large_buffer_single_run_also_matches() {
        let g = two_cliques_bridge(5);
        let config = cfg();
        let mem = SlingIndex::build(&g, &config).unwrap();
        let occ = OutOfCoreConfig {
            buffer_bytes: 64 << 20,
            temp_dir: tmp("big_buf"),
        };
        let disk = build_out_of_core(&g, &config, &occ).unwrap();
        assert_eq!(mem.hp, disk.hp);
    }
}
