//! Hitting-probability entries and their packed arena storage.

use sling_graph::NodeId;

/// One approximate hitting probability `h̃⁽ˢᵗᵉᵖ⁾(owner, node) = value`,
/// stored in the owner's `H(owner)` set.
///
/// Entries are ordered by `(step, node)`; single-pair queries intersect
/// two sorted entry runs with a linear merge.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct HpEntry {
    /// Walk step ℓ ≥ 0. √c-walks decay geometrically, so ℓ never exceeds
    /// `log_{√c} θ` (≈ 28 for the paper parameters) — `u16` is plenty.
    pub step: u16,
    /// The node hit at step ℓ.
    pub node: NodeId,
    /// The approximate probability, in `(θ, 1]` for stored entries.
    pub value: f64,
}

impl HpEntry {
    /// Construct an entry.
    #[inline]
    pub fn new(step: u16, node: NodeId, value: f64) -> Self {
        HpEntry { step, node, value }
    }

    /// The `(step, node)` sort key.
    #[inline(always)]
    pub fn key(&self) -> (u16, NodeId) {
        (self.step, self.node)
    }
}

/// The run-order rule: inside one node's run, `(step, node)` keys
/// strictly ascend, so `next` may follow `prev`. The decoder applies it
/// to the whole arena ([`HpArena::validate`]) and the mapped backend to
/// every run it reads, so both residencies accept the same files.
#[inline]
pub(crate) fn in_run_order(prev: (u16, u32), next: (u16, u32)) -> bool {
    prev < next
}

/// Packed per-node HP sets: a CSR-style arena over all nodes.
///
/// `offsets` has `n + 1` entries; node `v`'s set occupies index range
/// `offsets[v] .. offsets[v+1]` of the three parallel arrays. Parallel
/// arrays (instead of an array of structs) avoid padding: 14 bytes per
/// entry instead of the 16 of an [`HpEntry`].
#[derive(Clone, Debug, Default, PartialEq)]
pub struct HpArena {
    pub(crate) offsets: Vec<u64>,
    pub(crate) steps: Vec<u16>,
    pub(crate) nodes: Vec<u32>,
    pub(crate) values: Vec<f64>,
}

impl HpArena {
    /// Build from per-node entry lists already sorted by `(step, node)`.
    pub fn from_sorted_entries(n: usize, entries: impl Iterator<Item = (u32, HpEntry)>) -> Self {
        let mut arena = HpArena {
            offsets: Vec::with_capacity(n + 1),
            steps: Vec::new(),
            nodes: Vec::new(),
            values: Vec::new(),
        };
        arena.offsets.push(0);
        let mut current = 0u32;
        for (owner, e) in entries {
            debug_assert!(owner >= current, "entries must arrive grouped by owner");
            while current < owner {
                arena.offsets.push(arena.steps.len() as u64);
                current += 1;
            }
            arena.steps.push(e.step);
            arena.nodes.push(e.node.0);
            arena.values.push(e.value);
        }
        while arena.offsets.len() < n + 1 {
            arena.offsets.push(arena.steps.len() as u64);
        }
        arena
    }

    /// Number of nodes covered.
    #[inline]
    pub fn num_nodes(&self) -> usize {
        self.offsets.len().saturating_sub(1)
    }

    /// Total entries across all nodes.
    #[inline]
    pub fn total_entries(&self) -> usize {
        self.steps.len()
    }

    /// Entry index range of node `v`.
    #[inline(always)]
    pub fn range(&self, v: NodeId) -> std::ops::Range<usize> {
        let i = v.index();
        self.offsets[i] as usize..self.offsets[i + 1] as usize
    }

    /// Number of entries in `H(v)`.
    #[inline]
    pub fn len_of(&self, v: NodeId) -> usize {
        let r = self.range(v);
        r.end - r.start
    }

    /// Iterate `H(v)` in `(step, node)` order.
    pub fn entries(&self, v: NodeId) -> impl Iterator<Item = HpEntry> + '_ {
        self.range(v).map(move |i| HpEntry {
            step: self.steps[i],
            node: NodeId(self.nodes[i]),
            value: self.values[i],
        })
    }

    /// Copy `H(v)` into a buffer (reused across queries by workspaces):
    /// one pass over the run's three column slices, bounds-checked once.
    pub fn fill(&self, v: NodeId, out: &mut Vec<HpEntry>) {
        let r = self.range(v);
        let columns = self.steps[r.clone()]
            .iter()
            .zip(&self.nodes[r.clone()])
            .zip(&self.values[r]);
        out.clear();
        out.extend(columns.map(|((&step, &node), &value)| HpEntry {
            step,
            node: NodeId(node),
            value,
        }));
    }

    /// Whether `H(v)` contains an entry with this exact `(step, node)` key
    /// (binary search on the sorted run).
    pub fn contains_key(&self, v: NodeId, step: u16, node: NodeId) -> bool {
        let r = self.range(v);
        let steps = &self.steps[r.clone()];
        let nodes = &self.nodes[r];
        let mut lo = 0usize;
        let mut hi = steps.len();
        while lo < hi {
            let mid = (lo + hi) / 2;
            match (steps[mid], nodes[mid]).cmp(&(step, node.0)) {
                std::cmp::Ordering::Less => lo = mid + 1,
                std::cmp::Ordering::Greater => hi = mid,
                std::cmp::Ordering::Equal => return true,
            }
        }
        false
    }

    /// Estimated resident bytes of the arena (for the Figure 4 space
    /// report): offsets + steps + nodes + values.
    pub fn resident_bytes(&self) -> usize {
        self.offsets.len() * 8 + self.steps.len() * 2 + self.nodes.len() * 4 + self.values.len() * 8
    }

    /// Full structural check: parallel-array lengths agree, offsets are
    /// monotone and in bounds, and every per-node run is strictly
    /// `(step, node)`-ordered. Used by tests and by the binary-format
    /// decoder (a corrupted file must never yield an arena that panics
    /// at query time).
    pub fn validate(&self) -> bool {
        if self.steps.len() != self.nodes.len() || self.steps.len() != self.values.len() {
            return false;
        }
        if self.offsets.first() != Some(&0)
            || *self.offsets.last().unwrap_or(&0) as usize != self.steps.len()
        {
            return false;
        }
        if self
            .offsets
            .windows(2)
            .any(|w| w[0] > w[1] || w[1] as usize > self.steps.len())
        {
            return false;
        }
        for v in 0..self.num_nodes() {
            let r = self.range(NodeId::from_index(v));
            for i in r.clone().skip(1) {
                if !in_run_order(
                    (self.steps[i - 1], self.nodes[i - 1]),
                    (self.steps[i], self.nodes[i]),
                ) {
                    return false;
                }
            }
        }
        true
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn arena() -> HpArena {
        // node 0: (0,0,1.0), (1,2,0.3); node 1: empty; node 2: (0,2,1.0)
        HpArena::from_sorted_entries(
            3,
            vec![
                (0, HpEntry::new(0, NodeId(0), 1.0)),
                (0, HpEntry::new(1, NodeId(2), 0.3)),
                (2, HpEntry::new(0, NodeId(2), 1.0)),
            ]
            .into_iter(),
        )
    }

    #[test]
    fn construction_and_ranges() {
        let a = arena();
        assert_eq!(a.num_nodes(), 3);
        assert_eq!(a.total_entries(), 3);
        assert_eq!(a.len_of(NodeId(0)), 2);
        assert_eq!(a.len_of(NodeId(1)), 0);
        assert_eq!(a.len_of(NodeId(2)), 1);
        assert!(a.validate());
    }

    #[test]
    fn entry_iteration() {
        let a = arena();
        let e: Vec<_> = a.entries(NodeId(0)).collect();
        assert_eq!(e.len(), 2);
        assert_eq!(e[0].key(), (0, NodeId(0)));
        assert_eq!(e[1].key(), (1, NodeId(2)));
        assert_eq!(e[1].value, 0.3);
    }

    #[test]
    fn contains_key_binary_search() {
        let a = arena();
        assert!(a.contains_key(NodeId(0), 1, NodeId(2)));
        assert!(!a.contains_key(NodeId(0), 1, NodeId(1)));
        assert!(!a.contains_key(NodeId(1), 0, NodeId(1)));
    }

    #[test]
    fn fill_reuses_buffer() {
        let a = arena();
        let mut buf = vec![HpEntry::new(9, NodeId(9), 9.0)];
        a.fill(NodeId(2), &mut buf);
        assert_eq!(buf.len(), 1);
        assert_eq!(buf[0].node, NodeId(2));
        for v in 0..a.num_nodes() as u32 {
            a.fill(NodeId(v), &mut buf);
            assert!(buf.iter().copied().eq(a.entries(NodeId(v))), "node {v}");
        }
    }

    #[test]
    fn trailing_empty_nodes_get_offsets() {
        let a =
            HpArena::from_sorted_entries(4, vec![(1, HpEntry::new(0, NodeId(1), 1.0))].into_iter());
        assert_eq!(a.num_nodes(), 4);
        assert_eq!(a.len_of(NodeId(0)), 0);
        assert_eq!(a.len_of(NodeId(3)), 0);
        assert!(a.validate());
    }

    #[test]
    fn validate_catches_disorder() {
        let mut a = arena();
        a.nodes.swap(0, 1); // break (step,node) order within node 0
        a.steps.swap(0, 1);
        assert!(!a.validate());
    }

    #[test]
    fn resident_bytes_counts_all_arrays() {
        let a = arena();
        assert_eq!(a.resident_bytes(), 4 * 8 + 3 * 2 + 3 * 4 + 3 * 8);
    }
}
