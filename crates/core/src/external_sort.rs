//! Bounded-memory external sort of hitting-probability triples (§5.4).
//!
//! The out-of-core index builder streams Algorithm 2's triples through
//! this sorter: triples accumulate in a memory buffer of at most
//! `buffer_bytes`; full buffers are sorted and spilled to temporary run
//! files; a final k-way merge (binary heap over run heads) yields the
//! globally `(owner, step, target)`-sorted stream the index assembler
//! consumes. Total IO is one write and one read per triple plus the merge
//! — the `O((n/ε) log(n/ε))` access pattern described in §5.4.
//!
//! Each sorter spills into a fresh directory of its own, created under
//! the caller's directory and removed, runs and all, when the sorter or
//! its [`MergeIter`] is dropped — on success, error and early return
//! alike. Sorters in one process or in several never share a run file,
//! and nothing else in the caller's directory is touched.

use std::cmp::Reverse;
use std::collections::BinaryHeap;
use std::fs::File;
use std::io::{self, BufReader, BufWriter, Read, Write};
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicU64, Ordering};

use bytes::{Buf, BufMut};
use sling_graph::NodeId;

use crate::local_update::HpTriple;

/// Bytes per encoded triple: owner u32 + step u16 + target u32 + value f64.
pub const RECORD_BYTES: usize = 18;

fn encode(t: &HpTriple, out: &mut Vec<u8>) {
    out.put_u32_le(t.owner.0);
    out.put_u16_le(t.step);
    out.put_u32_le(t.target.0);
    out.put_f64_le(t.value);
}

fn decode(mut buf: &[u8]) -> HpTriple {
    let owner = NodeId(buf.get_u32_le());
    let step = buf.get_u16_le();
    let target = NodeId(buf.get_u32_le());
    let value = buf.get_f64_le();
    HpTriple {
        owner,
        step,
        target,
        value,
    }
}

#[inline]
fn key(t: &HpTriple) -> (u32, u16, u32) {
    (t.owner.0, t.step, t.target.0)
}

/// A run directory this sorter created; removed with its contents on
/// drop.
struct RunDir(PathBuf);

impl RunDir {
    /// Create a directory no one else uses under `parent` (created if
    /// missing): `create_dir` fails on an existing path, so a name taken
    /// by another sorter or process is skipped, never reused.
    fn create(parent: &Path) -> io::Result<RunDir> {
        static NEXT: AtomicU64 = AtomicU64::new(0);
        std::fs::create_dir_all(parent)?;
        loop {
            let n = NEXT.fetch_add(1, Ordering::Relaxed);
            let path = parent.join(format!("sling-sort-{}-{n}", std::process::id()));
            match std::fs::create_dir(&path) {
                Ok(()) => return Ok(RunDir(path)),
                Err(e) if e.kind() == io::ErrorKind::AlreadyExists => continue,
                Err(e) => return Err(e),
            }
        }
    }
}

impl Drop for RunDir {
    fn drop(&mut self) {
        let _ = std::fs::remove_dir_all(&self.0);
    }
}

/// Accumulates triples, spilling sorted runs to a directory of its own
/// whenever the in-memory buffer exceeds `buffer_bytes`.
pub struct ExternalSorter {
    dir: RunDir,
    capacity: usize,
    buf: Vec<HpTriple>,
    runs: Vec<PathBuf>,
    scratch: Vec<u8>,
}

impl ExternalSorter {
    /// New sorter spilling into a fresh directory under `parent` (see
    /// the module docs). `buffer_bytes` is a floor of one record.
    pub fn new(parent: impl AsRef<Path>, buffer_bytes: usize) -> io::Result<Self> {
        let dir = RunDir::create(parent.as_ref())?;
        let capacity = (buffer_bytes / RECORD_BYTES).max(1);
        Ok(ExternalSorter {
            dir,
            capacity,
            buf: Vec::with_capacity(capacity.min(1 << 20)),
            runs: Vec::new(),
            scratch: Vec::new(),
        })
    }

    /// Add one triple, spilling a run if the buffer is full.
    pub fn push(&mut self, t: HpTriple) -> io::Result<()> {
        self.buf.push(t);
        if self.buf.len() >= self.capacity {
            self.spill()?;
        }
        Ok(())
    }

    /// Number of run files spilled so far (observable for tests and the
    /// Figure 10 harness).
    pub fn runs_spilled(&self) -> usize {
        self.runs.len()
    }

    fn spill(&mut self) -> io::Result<()> {
        if self.buf.is_empty() {
            return Ok(());
        }
        self.buf.sort_unstable_by_key(key);
        let path = self.dir.0.join(format!("run-{}.bin", self.runs.len()));
        let mut w = BufWriter::new(File::create(&path)?);
        self.scratch.clear();
        for t in &self.buf {
            encode(t, &mut self.scratch);
        }
        w.write_all(&self.scratch)?;
        w.flush()?;
        self.scratch.clear();
        self.buf.clear();
        self.runs.push(path);
        Ok(())
    }

    /// Finish: spill the tail and return the k-way merged, globally sorted
    /// stream. The run directory is removed when the iterator is dropped,
    /// or here when this fails.
    pub fn into_sorted_iter(mut self) -> io::Result<MergeIter> {
        self.spill()?;
        let mut readers = Vec::with_capacity(self.runs.len());
        for path in &self.runs {
            readers.push(RunReader::open(path)?);
        }
        let mut heap = BinaryHeap::with_capacity(readers.len());
        for (i, reader) in readers.iter_mut().enumerate() {
            if let Some(t) = reader.next_record()? {
                heap.push(Reverse((key(&t), i, HeapTriple(t))));
            }
        }
        Ok(MergeIter {
            readers,
            heap,
            _dir: self.dir,
        })
    }
}

/// Wrapper giving `HpTriple` the `Ord` the heap needs; ordering is fully
/// determined by the key tuple that precedes it, so comparisons on the
/// payload never actually run.
struct HeapTriple(HpTriple);

impl PartialEq for HeapTriple {
    fn eq(&self, other: &Self) -> bool {
        key(&self.0) == key(&other.0)
    }
}
impl Eq for HeapTriple {}
impl PartialOrd for HeapTriple {
    fn partial_cmp(&self, other: &Self) -> Option<std::cmp::Ordering> {
        Some(self.cmp(other))
    }
}
impl Ord for HeapTriple {
    fn cmp(&self, other: &Self) -> std::cmp::Ordering {
        key(&self.0).cmp(&key(&other.0))
    }
}

struct RunReader {
    reader: BufReader<File>,
    record: [u8; RECORD_BYTES],
}

impl RunReader {
    fn open(path: &Path) -> io::Result<Self> {
        Ok(RunReader {
            reader: BufReader::with_capacity(1 << 16, File::open(path)?),
            record: [0u8; RECORD_BYTES],
        })
    }

    fn next_record(&mut self) -> io::Result<Option<HpTriple>> {
        match self.reader.read_exact(&mut self.record) {
            Ok(()) => Ok(Some(decode(&self.record))),
            Err(e) if e.kind() == io::ErrorKind::UnexpectedEof => Ok(None),
            Err(e) => Err(e),
        }
    }
}

/// Globally sorted triple stream produced by [`ExternalSorter`].
pub struct MergeIter {
    readers: Vec<RunReader>,
    heap: BinaryHeap<Reverse<((u32, u16, u32), usize, HeapTriple)>>,
    /// Dropped after the readers: the runs go once nothing reads them.
    _dir: RunDir,
}

impl Iterator for MergeIter {
    type Item = io::Result<HpTriple>;

    fn next(&mut self) -> Option<Self::Item> {
        let Reverse((_, src, t)) = self.heap.pop()?;
        match self.readers[src].next_record() {
            Ok(Some(next)) => self.heap.push(Reverse((key(&next), src, HeapTriple(next)))),
            Ok(None) => {}
            Err(e) => return Some(Err(e)),
        }
        Some(Ok(t.0))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::SmallRng;
    use rand::{RngExt, SeedableRng};

    fn tmpdir(tag: &str) -> PathBuf {
        let dir = std::env::temp_dir().join(format!("sling_extsort_{tag}_{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        dir
    }

    fn random_triples(count: usize, seed: u64) -> Vec<HpTriple> {
        let mut rng = SmallRng::seed_from_u64(seed);
        (0..count)
            .map(|_| HpTriple {
                owner: NodeId(rng.random_range(0..500)),
                step: rng.random_range(0..16),
                target: NodeId(rng.random_range(0..500)),
                value: rng.random::<f64>(),
            })
            .collect()
    }

    #[test]
    fn encode_decode_round_trip() {
        let t = HpTriple {
            owner: NodeId(123),
            step: 7,
            target: NodeId(u32::MAX),
            value: 0.123456789,
        };
        let mut buf = Vec::new();
        encode(&t, &mut buf);
        assert_eq!(buf.len(), RECORD_BYTES);
        assert_eq!(decode(&buf), t);
    }

    #[test]
    fn sorts_across_many_runs() {
        let dir = tmpdir("many");
        let triples = random_triples(5000, 1);
        // Tiny buffer: forces dozens of spill files.
        let mut sorter = ExternalSorter::new(&dir, 128 * RECORD_BYTES).unwrap();
        for &t in &triples {
            sorter.push(t).unwrap();
        }
        assert!(sorter.runs_spilled() > 10);
        let merged: Vec<HpTriple> = sorter
            .into_sorted_iter()
            .unwrap()
            .map(|r| r.unwrap())
            .collect();
        let mut expected = triples;
        expected.sort_by_key(key);
        assert_eq!(merged.len(), expected.len());
        assert!(merged.windows(2).all(|w| key(&w[0]) <= key(&w[1])));
        // Same multiset (values ride along correctly).
        let mut got = merged;
        got.sort_by(|a, b| {
            key(a)
                .cmp(&key(b))
                .then(a.value.partial_cmp(&b.value).unwrap())
        });
        expected.sort_by(|a, b| {
            key(a)
                .cmp(&key(b))
                .then(a.value.partial_cmp(&b.value).unwrap())
        });
        assert_eq!(got, expected);
        std::fs::remove_dir_all(dir).ok();
    }

    #[test]
    fn single_run_fits_in_buffer() {
        let dir = tmpdir("single");
        let mut sorter = ExternalSorter::new(&dir, 1 << 20).unwrap();
        for t in random_triples(100, 2) {
            sorter.push(t).unwrap();
        }
        assert_eq!(sorter.runs_spilled(), 0);
        let merged: Vec<_> = sorter
            .into_sorted_iter()
            .unwrap()
            .map(|r| r.unwrap())
            .collect();
        assert_eq!(merged.len(), 100);
        assert!(merged.windows(2).all(|w| key(&w[0]) <= key(&w[1])));
        std::fs::remove_dir_all(dir).ok();
    }

    #[test]
    fn empty_input_yields_empty_stream() {
        let dir = tmpdir("empty");
        let sorter = ExternalSorter::new(&dir, 1024).unwrap();
        assert_eq!(sorter.into_sorted_iter().unwrap().count(), 0);
        std::fs::remove_dir_all(dir).ok();
    }

    #[test]
    fn failed_merge_leaves_no_run_file() {
        let dir = tmpdir("failed_merge");
        let mut sorter = ExternalSorter::new(&dir, 16 * RECORD_BYTES).unwrap();
        for t in random_triples(8 * 16, 4) {
            sorter.push(t).unwrap();
        }
        assert_eq!(sorter.runs_spilled(), 8);
        std::fs::remove_file(&sorter.runs[0]).unwrap();
        assert!(sorter.into_sorted_iter().is_err());
        assert_eq!(std::fs::read_dir(&dir).unwrap().count(), 0);
        std::fs::remove_dir_all(dir).ok();
    }

    #[test]
    fn run_files_are_cleaned_up() {
        let dir = tmpdir("cleanup");
        let mut sorter = ExternalSorter::new(&dir, RECORD_BYTES).unwrap();
        for t in random_triples(64, 3) {
            sorter.push(t).unwrap();
        }
        let iter = sorter.into_sorted_iter().unwrap();
        drop(iter);
        let leftovers = std::fs::read_dir(&dir).unwrap().count();
        assert_eq!(leftovers, 0);
        std::fs::remove_dir_all(dir).ok();
    }
}
