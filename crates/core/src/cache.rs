//! Result caching for single-pair queries: a reusable intrusive-list
//! LRU, frequency-sketch admission, and a sharded global cache for
//! concurrent serving.
//!
//! SimRank workloads in the applications the paper motivates (link
//! prediction, collaborative filtering, "who to follow") exhibit heavy
//! query-key reuse: hot nodes participate in many pair queries, and
//! SkyServer-style production traces are dominated by a small hot key
//! set. Since the index is immutable after construction, caching is
//! trivially coherent. Keys are canonicalized (`min(u,v), max(u,v)`)
//! because SimRank is symmetric, doubling the effective hit rate.
//!
//! Three layers live here:
//!
//! * `LruList` *(private)* — an open-hash map over an intrusive
//!   doubly-linked LRU list, built on the workspace's [`FxHashMap`]; all
//!   operations `O(1)` expected, no external LRU crate.
//! * `FrequencySketch` *(private)* — the count-min sketch behind
//!   [`Admission::TinyLfu`], which keeps one-touch scans from churning
//!   the hot entries of an LRU.
//! * [`ShardedResultCache`] — a `Sync` global result cache: N
//!   power-of-two shards, each an independently locked `LruList` with
//!   its sketch, and [`AtomicCacheStats`] counters that stay exact under
//!   concurrency. This is what a long-lived server shares across its
//!   worker threads (see `sling-server`), what the cached batch path
//!   ([`crate::store::SharedEngine::batch_single_pair_cached`]) uses, and
//!   what the cache simulator in [`crate::workload::sim`] replays traces
//!   through. It memoizes computed scores only, identity pairs `(u, u)`
//!   included when their Eq. (17) estimate is a real computation
//!   (`exact_diagonal` off); a pair naming an out-of-range node id fails
//!   its `O(1)` range check before the cache is probed.

use std::hash::Hash;
use std::sync::atomic::{AtomicU64, Ordering};

use parking_lot::Mutex;
use sling_graph::{DiGraph, FxHashMap, NodeId};

use crate::error::SlingError;
use crate::index::QueryWorkspace;
use crate::store::{HpStore, SharedEngine};

/// Running hit/miss counters (a point-in-time snapshot; see
/// [`AtomicCacheStats`] for the concurrent accumulator).
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct CacheStats {
    /// Queries answered from the cache.
    pub hits: u64,
    /// Queries that had to run Algorithm 3.
    pub misses: u64,
    /// Entries evicted by the LRU policy.
    pub evictions: u64,
}

impl CacheStats {
    /// Hit fraction in `[0, 1]` (0 when no queries were made).
    pub fn hit_rate(&self) -> f64 {
        let total = self.hits + self.misses;
        if total == 0 {
            0.0
        } else {
            self.hits as f64 / total as f64
        }
    }
}

/// Hit/miss/eviction counters that stay exact under concurrent access.
///
/// Plain `u64` counters torn across threads silently undercount; every
/// concurrent cache in this crate records through relaxed atomics instead
/// (ordering between counters is irrelevant — only totals are reported)
/// and hands out [`CacheStats`] snapshots.
#[derive(Debug, Default)]
pub struct AtomicCacheStats {
    hits: AtomicU64,
    misses: AtomicU64,
    evictions: AtomicU64,
}

impl AtomicCacheStats {
    /// Fresh zeroed counters.
    pub fn new() -> Self {
        Self::default()
    }

    /// Record one cache hit.
    #[inline]
    pub fn record_hit(&self) {
        self.hits.fetch_add(1, Ordering::Relaxed);
    }

    /// Record one cache miss.
    #[inline]
    pub fn record_miss(&self) {
        self.misses.fetch_add(1, Ordering::Relaxed);
    }

    /// Record `n` evictions.
    #[inline]
    pub fn record_evictions(&self, n: u64) {
        if n > 0 {
            self.evictions.fetch_add(n, Ordering::Relaxed);
        }
    }

    /// Point-in-time snapshot of the counters.
    pub fn snapshot(&self) -> CacheStats {
        CacheStats {
            hits: self.hits.load(Ordering::Relaxed),
            misses: self.misses.load(Ordering::Relaxed),
            evictions: self.evictions.load(Ordering::Relaxed),
        }
    }
}

const NIL: u32 = u32::MAX;

struct Slot<K, V> {
    key: K,
    value: V,
    prev: u32,
    next: u32,
}

/// Open-hash map over an intrusive doubly-linked LRU list.
///
/// The one LRU implementation in the crate: each [`ShardedResultCache`]
/// shard keys it by canonical pair.
/// Slots are recycled through a free list, links are `u32` indices into
/// one slab — no per-entry allocation, `O(1)` expected `get` / `insert` /
/// `pop_lru`.
struct LruList<K, V> {
    map: FxHashMap<K, u32>,
    slots: Vec<Slot<K, V>>,
    head: u32,
    tail: u32,
    free: Vec<u32>,
}

impl<K, V> Default for LruList<K, V> {
    fn default() -> Self {
        LruList {
            map: FxHashMap::default(),
            slots: Vec::new(),
            head: NIL,
            tail: NIL,
            free: Vec::new(),
        }
    }
}

impl<K: Copy + Eq + Hash, V: Default> LruList<K, V> {
    fn new() -> Self {
        Self::default()
    }

    /// Entries currently resident.
    fn len(&self) -> usize {
        self.map.len()
    }

    /// Whether the list holds no entries.
    fn is_empty(&self) -> bool {
        self.map.is_empty()
    }

    fn detach(&mut self, idx: u32) {
        let (prev, next) = {
            let s = &self.slots[idx as usize];
            (s.prev, s.next)
        };
        if prev != NIL {
            self.slots[prev as usize].next = next;
        } else {
            self.head = next;
        }
        if next != NIL {
            self.slots[next as usize].prev = prev;
        } else {
            self.tail = prev;
        }
    }

    fn push_front(&mut self, idx: u32) {
        self.slots[idx as usize].prev = NIL;
        self.slots[idx as usize].next = self.head;
        if self.head != NIL {
            self.slots[self.head as usize].prev = idx;
        }
        self.head = idx;
        if self.tail == NIL {
            self.tail = idx;
        }
    }

    /// Value of `key`, promoted to most-recently-used.
    fn get(&mut self, key: &K) -> Option<&V> {
        let idx = *self.map.get(key)?;
        self.detach(idx);
        self.push_front(idx);
        Some(&self.slots[idx as usize].value)
    }

    /// Insert a key **not currently present** as most-recently-used,
    /// reusing a freed slot when one exists.
    fn insert(&mut self, key: K, value: V) {
        debug_assert!(!self.map.contains_key(&key), "LruList::insert on live key");
        let idx = if let Some(reuse) = self.free.pop() {
            let s = &mut self.slots[reuse as usize];
            s.key = key;
            s.value = value;
            reuse
        } else {
            self.slots.push(Slot {
                key,
                value,
                prev: NIL,
                next: NIL,
            });
            (self.slots.len() - 1) as u32
        };
        self.push_front(idx);
        self.map.insert(key, idx);
    }

    /// Remove one key (used to drop entries invalidated by an epoch
    /// bump); its slot is recycled through the free list.
    fn remove(&mut self, key: &K) -> Option<V> {
        let idx = self.map.remove(key)?;
        self.detach(idx);
        self.free.push(idx);
        Some(std::mem::take(&mut self.slots[idx as usize].value))
    }

    /// Evict and return the least-recently-used entry.
    fn pop_lru(&mut self) -> Option<(K, V)> {
        let victim = self.tail;
        if victim == NIL {
            return None;
        }
        self.detach(victim);
        let slot = &mut self.slots[victim as usize];
        let key = slot.key;
        let value = std::mem::take(&mut slot.value);
        self.map.remove(&key);
        self.free.push(victim);
        Some((key, value))
    }

    /// The least-recently-used entry, without evicting or touching it —
    /// the candidate-versus-victim probe frequency-sketch admission
    /// needs before committing to an eviction.
    fn peek_lru(&self) -> Option<(&K, &V)> {
        if self.tail == NIL {
            return None;
        }
        let slot = &self.slots[self.tail as usize];
        Some((&slot.key, &slot.value))
    }
}

/// Admission policy of the [`ShardedResultCache`] (and so of the offline
/// cache simulation in [`crate::workload::sim`], which runs one).
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub enum Admission {
    /// Plain LRU: every insert is admitted, evicting the tail.
    #[default]
    Lru,
    /// TinyLFU-style frequency-sketch admission: at capacity, a
    /// candidate only displaces the LRU victim when the sketch says it
    /// is accessed at least as often. One-touch scan traffic (the
    /// adversarial pattern in the SkyServer-style traces) stops evicting
    /// the hot working set.
    TinyLfu,
}

impl Admission {
    /// Stable token for CLI flags and bench JSON.
    pub fn as_str(self) -> &'static str {
        match self {
            Admission::Lru => "lru",
            Admission::TinyLfu => "tinylfu",
        }
    }

    /// Parse a CLI token.
    pub fn parse(tok: &str) -> Option<Admission> {
        match tok {
            "lru" => Some(Admission::Lru),
            "tinylfu" => Some(Admission::TinyLfu),
            _ => None,
        }
    }
}

/// A count-min frequency sketch with 4-bit saturating counters — the
/// TinyLFU recency-weighted popularity estimate. Each key is charged to
/// four counters chosen by independent mixes of its hash; the estimate
/// is their minimum. When total additions reach the sample cap, every
/// counter is halved ("aging"), so popularity decays and a formerly-hot
/// key cannot squat forever.
///
/// The sketch is plain mutable state — callers wrap it in the same lock
/// as the LRU list it advises, so advising admission adds no extra
/// synchronization.
#[derive(Debug, Default)]
struct FrequencySketch {
    /// 16 packed 4-bit counters per word; length a power of two.
    table: Vec<u64>,
    /// `table.len() - 1`.
    mask: usize,
    /// Counter increments since the last halving.
    additions: u64,
    /// Halve all counters when `additions` reaches this.
    sample_cap: u64,
}

impl FrequencySketch {
    /// Sketch sized for a cache of `capacity` entries: ~8 counters per
    /// entry, aged every `10 × capacity` additions (the Caffeine
    /// defaults, which keep estimate error small at 4 bits).
    fn with_capacity(capacity: usize) -> Self {
        let words = (capacity.max(16) / 2).next_power_of_two();
        FrequencySketch {
            table: vec![0; words],
            mask: words - 1,
            additions: 0,
            sample_cap: capacity.max(16) as u64 * 10,
        }
    }

    /// Whether the sketch has a table (a defaulted sketch is a no-op
    /// placeholder used by LRU-policy shards).
    fn is_enabled(&self) -> bool {
        !self.table.is_empty()
    }

    /// The i-th derived position for `hash`: a word index and the bit
    /// shift of a 4-bit counter inside it.
    #[inline]
    fn position(&self, hash: u64, i: u64) -> (usize, u32) {
        // One multiply-mix per probe; distinct odd constants decorrelate
        // the four probes.
        const SEEDS: [u64; 4] = [
            0x9E37_79B9_7F4A_7C15,
            0xC2B2_AE3D_27D4_EB4F,
            0x1656_67B1_9E37_79F9,
            0xD6E8_FEB8_6659_FD93,
        ];
        let h = (hash ^ h_rot(hash, i)).wrapping_mul(SEEDS[i as usize]);
        let word = ((h >> 32) as usize) & self.mask;
        let slot = (h >> 28) as u32 & 15;
        (word, slot * 4)
    }

    /// Charge one access to `hash` (saturating at 15), aging the table
    /// at the sample cap.
    fn increment(&mut self, hash: u64) {
        if !self.is_enabled() {
            return;
        }
        let mut added = false;
        for i in 0..4 {
            let (word, shift) = self.position(hash, i);
            let counter = (self.table[word] >> shift) & 15;
            if counter < 15 {
                self.table[word] += 1u64 << shift;
                added = true;
            }
        }
        if added {
            self.additions += 1;
            if self.additions >= self.sample_cap {
                self.halve();
            }
        }
    }

    /// Estimated access frequency of `hash` (0–15).
    fn estimate(&self, hash: u64) -> u64 {
        if !self.is_enabled() {
            return 0;
        }
        (0..4)
            .map(|i| {
                let (word, shift) = self.position(hash, i);
                (self.table[word] >> shift) & 15
            })
            .min()
            .unwrap_or(0)
    }

    /// Halve every counter (the TinyLFU aging step).
    fn halve(&mut self) {
        for word in self.table.iter_mut() {
            *word = (*word >> 1) & 0x7777_7777_7777_7777;
        }
        self.additions /= 2;
    }

    /// Forget everything — called on generation-epoch swaps, where
    /// popularity measured against the retired index must not bias
    /// admission on the new one.
    fn clear(&mut self) {
        self.table.iter_mut().for_each(|w| *w = 0);
        self.additions = 0;
    }
}

#[inline]
fn h_rot(hash: u64, i: u64) -> u64 {
    hash.rotate_left(17 + 13 * i as u32)
}

/// Hash a canonical pair key for the frequency sketch.
#[inline]
fn pair_hash(key: (u32, u32)) -> u64 {
    let mut z = ((key.0 as u64) << 32) | key.1 as u64;
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// Canonical symmetric pair key: SimRank is symmetric, so `{u, v}` and
/// `{v, u}` share one cache entry.
#[inline]
fn pair_key(u: NodeId, v: NodeId) -> (u32, u32) {
    (u.0.min(v.0), u.0.max(v.0))
}

/// One cached entry: the value plus the **generation epoch** it was
/// computed under. A serving layer that hot-swaps index generations
/// advances the cache's epoch at the swap ([`ShardedResultCache::set_epoch`]);
/// entries tagged with a retired epoch read as misses (and are dropped
/// on touch), so a hit computed against a retired index can never be
/// served. Inserts are tagged by the *caller* with the epoch of the
/// engine that actually computed the value — capturing the tag before
/// the computation closes the race where a swap lands mid-query and a
/// stale score would otherwise be admitted as fresh.
#[derive(Clone, Copy, Debug, Default, PartialEq)]
struct EpochSlot {
    epoch: u64,
    value: f64,
}

/// Sharded global LRU result cache for concurrent serving.
///
/// The cache is pure shared state — `get`/`insert` take `&self` — split
/// into a power-of-two number of shards, each an independently locked
/// `LruList`, so concurrent queries for different keys proceed in
/// parallel and hot-key traffic contends only on its own shard. Counters
/// are [`AtomicCacheStats`], exact under concurrency.
///
/// The cache stores canonical symmetric pairs and is backend-agnostic:
/// any number of threads querying one [`SharedEngine`] (in-memory or
/// mapped) can share it — see [`SharedEngine::single_pair_cached`] and the
/// cached batch path. Since the index is immutable, a racing insert of
/// the same key writes the same bits; the first insert wins and later
/// ones are dropped.
pub struct ShardedResultCache {
    shards: Box<[Mutex<ResultShard>]>,
    shard_capacity: usize,
    admission: Admission,
    /// Inserts refused by frequency-sketch admission (always 0 under
    /// plain LRU).
    admission_rejects: AtomicU64,
    stats: AtomicCacheStats,
    /// Current generation epoch; entries tagged with any other epoch
    /// are invalid (see [`EpochSlot`]). Static deployments never touch
    /// it and stay at 0.
    epoch: AtomicU64,
}

/// One lock's worth of cache: the LRU list plus (under TinyLFU
/// admission) the frequency sketch advising its evictions — same lock,
/// so admission adds no synchronization.
#[derive(Default)]
struct ResultShard {
    list: LruList<(u32, u32), EpochSlot>,
    sketch: FrequencySketch,
}

impl ShardedResultCache {
    /// Default shard count: enough to keep 8–16 workers off each other's
    /// locks without fragmenting small capacities.
    pub const DEFAULT_SHARDS: usize = 16;

    /// Cache holding up to `capacity` pair results across `shards` locks
    /// (rounded up to a power of two; each shard gets an equal slice,
    /// at least one entry), with plain-LRU admission.
    pub fn new(capacity: usize, shards: usize) -> Self {
        Self::with_admission(capacity, shards, Admission::Lru)
    }

    /// [`ShardedResultCache::new`] with an explicit admission policy.
    pub fn with_admission(capacity: usize, shards: usize, admission: Admission) -> Self {
        let shards = shards.clamp(1, 1 << 16).next_power_of_two();
        let shard_capacity = capacity.div_ceil(shards).max(1);
        ShardedResultCache {
            shards: (0..shards)
                .map(|_| {
                    Mutex::new(ResultShard {
                        list: LruList::new(),
                        sketch: match admission {
                            Admission::Lru => FrequencySketch::default(),
                            Admission::TinyLfu => FrequencySketch::with_capacity(shard_capacity),
                        },
                    })
                })
                .collect(),
            shard_capacity,
            admission,
            admission_rejects: AtomicU64::new(0),
            stats: AtomicCacheStats::new(),
            epoch: AtomicU64::new(0),
        }
    }

    /// Cache over [`ShardedResultCache::DEFAULT_SHARDS`] shards.
    pub fn with_capacity(capacity: usize) -> Self {
        Self::new(capacity, Self::DEFAULT_SHARDS)
    }

    /// The configured admission policy.
    pub fn admission(&self) -> Admission {
        self.admission
    }

    /// Inserts refused by frequency-sketch admission.
    pub fn admission_rejects(&self) -> u64 {
        self.admission_rejects.load(Ordering::Relaxed)
    }

    /// Number of shards (a power of two).
    pub fn num_shards(&self) -> usize {
        self.shards.len()
    }

    /// Total capacity across all shards.
    pub fn capacity(&self) -> usize {
        self.shard_capacity * self.shards.len()
    }

    #[inline]
    fn shard_index(&self, key: (u32, u32)) -> usize {
        // Fibonacci hashing on the packed pair; take high bits (the low
        // bits of a product depend only on the low bits of the inputs).
        let packed = ((key.0 as u64) << 32) | key.1 as u64;
        let h = packed.wrapping_mul(0x9E37_79B9_7F4A_7C15);
        ((h >> 32) as usize) & (self.shards.len() - 1)
    }

    /// The current generation epoch. Entries are only served while their
    /// tag matches it; new deployments start (and static ones stay) at 0.
    pub fn epoch(&self) -> u64 {
        self.epoch.load(Ordering::Acquire)
    }

    /// Set the generation epoch, lazily invalidating every entry tagged
    /// with a different one. A serving layer calls this when it swaps
    /// index generations (monotone values keep the tags unambiguous).
    /// Frequency sketches are reset eagerly: popularity measured against
    /// the retired index must not veto admissions on the new one.
    pub fn set_epoch(&self, epoch: u64) {
        self.epoch.store(epoch, Ordering::Release);
        self.reset_sketches();
    }

    fn reset_sketches(&self) {
        if self.admission == Admission::TinyLfu {
            for shard in self.shards.iter() {
                shard.lock().sketch.clear();
            }
        }
    }

    /// Cached score of the (canonicalized) pair, recording a hit or
    /// miss. An entry from a retired generation epoch reads as a miss
    /// and is dropped on touch.
    pub fn lookup(&self, u: NodeId, v: NodeId) -> Option<f64> {
        self.lookup_tagged(u, v, self.epoch())
    }

    /// [`ShardedResultCache::lookup`] against an explicit generation
    /// epoch: only entries computed under exactly that epoch are served.
    /// A hot-swapping server passes the epoch of the generation the
    /// *request* is being answered on, so a request that started on the
    /// retired generation cannot be handed a score computed on the new
    /// one mid-flight (one `BATCH` response never mixes indexes), and
    /// vice versa. Entries from epochs that are neither the requested
    /// nor the current one are dropped on touch; an entry from the
    /// current epoch observed by an older-generation request is left in
    /// place for the requests that can use it.
    pub fn lookup_tagged(&self, u: NodeId, v: NodeId, epoch: u64) -> Option<f64> {
        let key = pair_key(u, v);
        let current = self.epoch();
        let hit = {
            let mut shard = self.shards[self.shard_index(key)].lock();
            // Every lookup — hit or miss — is one observation of the
            // key's popularity; the sketch is what admission consults
            // when this key later competes for a slot.
            shard.sketch.increment(pair_hash(key));
            match shard.list.get(&key).copied() {
                Some(slot) if slot.epoch == epoch => Some(slot.value),
                Some(slot) => {
                    if slot.epoch != current {
                        // Computed against a retired index: free the
                        // slot so the live generation can refill it.
                        shard.list.remove(&key);
                    }
                    None
                }
                None => None,
            }
        };
        match hit {
            Some(_) => self.stats.record_hit(),
            None => self.stats.record_miss(),
        }
        hit
    }

    /// Insert a computed score tagged with the **current** epoch,
    /// evicting the shard's LRU entry at capacity. A key another thread
    /// already inserted is left untouched (deterministic queries make
    /// the values identical). Non-finite values are rejected — no
    /// backend can legitimately produce one. Callers racing a generation
    /// swap should use [`ShardedResultCache::insert_tagged`] with an
    /// epoch captured *before* computing.
    pub fn insert(&self, u: NodeId, v: NodeId, value: f64) {
        self.insert_tagged(u, v, value, self.epoch());
    }

    /// Insert a score computed under generation `epoch`. If the epoch is
    /// no longer current (a swap landed while the value was being
    /// computed) the insert is dropped — a score from a retired index
    /// must never be admitted as fresh.
    pub fn insert_tagged(&self, u: NodeId, v: NodeId, value: f64, epoch: u64) {
        if !value.is_finite() || epoch != self.epoch() {
            return; // not a score, or computed against a retired generation
        }
        let key = pair_key(u, v);
        let mut shard = self.shards[self.shard_index(key)].lock();
        match shard.list.get(&key) {
            // First insert wins while the entry is live...
            Some(live) if live.epoch == epoch => return,
            // ...but a retired-epoch entry is dead weight: replace it.
            Some(_) => {
                shard.list.remove(&key);
            }
            None => {}
        }
        if shard.list.len() >= self.shard_capacity {
            // TinyLFU admission: the candidate must out-earn the LRU
            // victim in sketched frequency, or the insert is refused
            // and the resident entry survives. This is what keeps a
            // one-touch cold scan from churning the hot working set.
            if self.admission == Admission::TinyLfu {
                if let Some((&victim, victim_slot)) = shard.list.peek_lru() {
                    // Strictly greater, as in Caffeine: ties reject, so
                    // one-touch keys cannot churn each other either. A
                    // retired-epoch victim is dead weight and is never
                    // protected.
                    if victim_slot.epoch == epoch
                        && shard.sketch.estimate(pair_hash(key))
                            <= shard.sketch.estimate(pair_hash(victim))
                    {
                        drop(shard);
                        self.admission_rejects.fetch_add(1, Ordering::Relaxed);
                        return;
                    }
                }
            }
            shard.list.pop_lru();
            self.stats.record_evictions(1);
        }
        shard.list.insert(key, EpochSlot { epoch, value });
    }

    /// Counter snapshot (exact even while other threads query).
    pub fn stats(&self) -> CacheStats {
        self.stats.snapshot()
    }

    /// Entries currently resident across all shards.
    pub fn len(&self) -> usize {
        self.shards.iter().map(|s| s.lock().list.len()).sum()
    }

    /// Whether no shard holds an entry.
    pub fn is_empty(&self) -> bool {
        self.shards.iter().all(|s| s.lock().list.is_empty())
    }
}

impl<S: HpStore> SharedEngine<S> {
    /// Single-pair query memoized through a shared [`ShardedResultCache`].
    ///
    /// The pair is canonicalized to `(min, max)` **before computing**, so
    /// the score is bit-identical regardless of argument order, cache
    /// state, or which thread populated the entry — the property the
    /// multi-threaded equivalence tests pin down.
    ///
    /// Identity pairs `(u, u)`, which run the full Eq. (17) estimate
    /// when `exact_diagonal` is off, cache their score like any other
    /// pair. A pair naming an out-of-range node id fails its `O(1)`
    /// range check before the cache is probed, so garbage traffic takes
    /// no shard lock and evicts nothing.
    pub fn single_pair_cached(
        &self,
        graph: &DiGraph,
        ws: &mut QueryWorkspace,
        cache: &ShardedResultCache,
        u: NodeId,
        v: NodeId,
    ) -> Result<f64, SlingError> {
        self.single_pair_cached_tagged(graph, ws, cache, u, v, cache.epoch())
    }

    /// [`SharedEngine::single_pair_cached`] with an explicit generation
    /// epoch tag for both the lookup and the insert. A hot-swapping
    /// server passes the epoch of the engine generation it is querying —
    /// captured *before* the computation — which gives two guarantees: a
    /// swap landing mid-query can never get a score computed on the
    /// retired generation admitted as fresh (the tagged insert is simply
    /// dropped), and a request answering on one generation can never be
    /// served a hit computed on another (the tagged lookup only matches
    /// its own epoch, so e.g. one `BATCH` response never mixes indexes).
    /// Static callers pass `cache.epoch()`.
    pub fn single_pair_cached_tagged(
        &self,
        graph: &DiGraph,
        ws: &mut QueryWorkspace,
        cache: &ShardedResultCache,
        u: NodeId,
        v: NodeId,
        epoch: u64,
    ) -> Result<f64, SlingError> {
        // Range-check the canonical pair first, so either argument
        // order gives the same structured error.
        let (a, b) = if u.0 <= v.0 { (u, v) } else { (v, u) };
        let e = self.engine_ref();
        e.check_node(a)?;
        e.check_node(b)?;
        // Under `exact_diagonal` an identity pair is a literal constant —
        // cheaper to answer than to probe a shard lock, and caching it
        // would evict scores that are actually expensive.
        if a == b && self.config().exact_diagonal {
            return self.single_pair_with(graph, ws, a, b);
        }
        if let Some(hit) = cache.lookup_tagged(a, b, epoch) {
            return Ok(hit);
        }
        // Prefetch only on the miss path: a hit never touches the store,
        // so advising it would be pure syscall overhead on the hot path.
        self.store().prefetch(a);
        self.store().prefetch(b);
        let value = self.single_pair_with(graph, ws, a, b)?;
        cache.insert_tagged(a, b, value, epoch);
        Ok(value)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::SlingConfig;
    use crate::hp::HpArena;
    use crate::index::SlingIndex;
    use sling_graph::generators::two_cliques_bridge;

    const C: f64 = 0.6;

    fn setup() -> (DiGraph, SlingIndex) {
        let g = two_cliques_bridge(5);
        let idx = SlingIndex::build(&g, &SlingConfig::from_epsilon(C, 0.05).with_seed(3)).unwrap();
        (g, idx)
    }

    #[test]
    fn hit_rate_math() {
        let stats = CacheStats {
            hits: 3,
            misses: 1,
            evictions: 0,
        };
        assert_eq!(stats.hit_rate(), 0.75);
        assert_eq!(CacheStats::default().hit_rate(), 0.0);
    }

    #[test]
    fn lru_list_core_operations() {
        let mut lru: LruList<u32, u64> = LruList::new();
        assert!(lru.is_empty());
        assert_eq!(lru.pop_lru(), None);
        for k in 0..4u32 {
            lru.insert(k, u64::from(k) * 10);
        }
        assert_eq!(lru.len(), 4);
        // Touch 0: it becomes MRU, so LRU order is now 1, 2, 3, 0.
        assert_eq!(lru.get(&0), Some(&0));
        assert_eq!(lru.pop_lru(), Some((1, 10)));
        assert_eq!(lru.pop_lru(), Some((2, 20)));
        // Freed slots are recycled.
        lru.insert(9, 90);
        assert_eq!(lru.len(), 3);
        assert_eq!(lru.pop_lru(), Some((3, 30)));
        assert_eq!(lru.pop_lru(), Some((0, 0)));
        assert_eq!(lru.pop_lru(), Some((9, 90)));
        assert_eq!(lru.pop_lru(), None);
        assert!(lru.is_empty());
    }

    #[test]
    fn atomic_stats_are_exact_under_contention() {
        let stats = AtomicCacheStats::new();
        std::thread::scope(|s| {
            for _ in 0..8 {
                s.spawn(|| {
                    for _ in 0..1000 {
                        stats.record_hit();
                    }
                    for _ in 0..500 {
                        stats.record_miss();
                    }
                    stats.record_evictions(3);
                });
            }
        });
        let snap = stats.snapshot();
        assert_eq!(snap.hits, 8000);
        assert_eq!(snap.misses, 4000);
        assert_eq!(snap.evictions, 24);
    }

    #[test]
    fn sharded_cache_basic_hit_miss_evict() {
        let cache = ShardedResultCache::new(8, 4);
        assert_eq!(cache.num_shards(), 4);
        assert_eq!(cache.capacity(), 8);
        assert_eq!(cache.lookup(NodeId(1), NodeId(2)), None);
        cache.insert(NodeId(2), NodeId(1), 0.25); // canonicalized
        assert_eq!(cache.lookup(NodeId(1), NodeId(2)), Some(0.25));
        let s = cache.stats();
        assert_eq!((s.hits, s.misses), (1, 1));
        // Double insert of a live key is a no-op.
        cache.insert(NodeId(1), NodeId(2), 0.99);
        assert_eq!(cache.lookup(NodeId(1), NodeId(2)), Some(0.25));
    }

    #[test]
    fn out_of_range_pairs_never_touch_the_cache() {
        let (g, idx) = setup(); // n = 10
        let n = g.num_nodes() as u32;
        let engine: SharedEngine<HpArena> = idx.into();
        let cache = ShardedResultCache::with_capacity(16);
        let mut ws = QueryWorkspace::new();
        let mut query = |u, v| {
            engine
                .single_pair_cached(&g, &mut ws, &cache, NodeId(u), NodeId(v))
                .unwrap_err()
        };
        // One bad endpoint, in either argument order, and repeated.
        for _ in 0..3 {
            for (u, v) in [(2, n + 7), (n + 7, 2)] {
                let err = query(u, v);
                assert!(
                    matches!(err, SlingError::NodeOutOfRange { node, .. } if node == n + 7),
                    "({u}, {v}): {err}"
                );
            }
        }
        // Two bad endpoints name the smaller id in either order, and so
        // does an out-of-range identity pair.
        let (a, b) = (query(n + 9, n + 3), query(n + 3, n + 9));
        assert!(matches!(a, SlingError::NodeOutOfRange { node, .. } if node == n + 3));
        assert_eq!(a.to_string(), b.to_string());
        assert!(matches!(query(n, n), SlingError::NodeOutOfRange { node, .. } if node == n));
        assert_eq!(cache.len(), 0);
        assert_eq!(cache.stats(), CacheStats::default());
    }

    #[test]
    fn identity_pairs_are_cached_when_estimated() {
        // With exact_diagonal off, s(u, u) runs the full Eq. (17)
        // estimate — worth a cache slot.
        let g = two_cliques_bridge(5);
        let idx = SlingIndex::build(
            &g,
            &SlingConfig::from_epsilon(C, 0.05)
                .with_seed(3)
                .with_exact_diagonal(false),
        )
        .unwrap();
        let want = idx.single_pair(&g, NodeId(3), NodeId(3));
        let engine: SharedEngine<HpArena> = idx.into();
        let cache = ShardedResultCache::with_capacity(16);
        let mut ws = QueryWorkspace::new();
        let first = engine
            .single_pair_cached(&g, &mut ws, &cache, NodeId(3), NodeId(3))
            .unwrap();
        assert_eq!(first, want);
        assert_eq!(cache.stats().misses, 1);
        let again = engine
            .single_pair_cached(&g, &mut ws, &cache, NodeId(3), NodeId(3))
            .unwrap();
        assert_eq!(again, want);
        assert_eq!(cache.stats().hits, 1, "identity repeat must hit");
    }

    #[test]
    fn exact_diagonal_identity_pairs_bypass_the_cache() {
        // With exact_diagonal on (the default), s(u, u) = 1.0 is a
        // constant; it must not take shard locks or occupy a slot.
        let (g, idx) = setup();
        let engine: SharedEngine<HpArena> = idx.into();
        let cache = ShardedResultCache::with_capacity(16);
        let mut ws = QueryWorkspace::new();
        for _ in 0..3 {
            assert_eq!(
                engine
                    .single_pair_cached(&g, &mut ws, &cache, NodeId(2), NodeId(2))
                    .unwrap(),
                1.0
            );
        }
        assert!(cache.is_empty());
        assert_eq!(cache.stats(), CacheStats::default());
    }

    #[test]
    fn non_finite_scores_are_never_admitted() {
        let cache = ShardedResultCache::with_capacity(8);
        cache.insert(NodeId(0), NodeId(1), f64::NAN);
        cache.insert(NodeId(0), NodeId(1), f64::INFINITY);
        cache.insert(NodeId(0), NodeId(1), f64::NEG_INFINITY);
        assert!(cache.is_empty());
        assert_eq!(cache.lookup(NodeId(0), NodeId(1)), None);
    }

    #[test]
    fn epoch_bump_invalidates_resident_entries() {
        let cache = ShardedResultCache::new(8, 1);
        cache.insert(NodeId(0), NodeId(1), 0.25);
        cache.insert(NodeId(0), NodeId(99), 0.125);
        assert_eq!(cache.lookup(NodeId(0), NodeId(1)), Some(0.25));
        assert_eq!(cache.lookup(NodeId(0), NodeId(99)), Some(0.125));
        // A generation swap sets the next epoch: both entries must now
        // read as misses (and be dropped on touch).
        cache.set_epoch(1);
        assert_eq!(cache.epoch(), 1);
        assert_eq!(cache.lookup(NodeId(0), NodeId(1)), None);
        assert_eq!(cache.lookup(NodeId(0), NodeId(99)), None);
        assert!(cache.is_empty(), "stale entries must be dropped on touch");
        // The new generation refills the same keys.
        cache.insert(NodeId(0), NodeId(1), 0.5);
        assert_eq!(cache.lookup(NodeId(0), NodeId(1)), Some(0.5));
    }

    #[test]
    fn tagged_lookup_never_crosses_generations() {
        let cache = ShardedResultCache::new(8, 1);
        cache.set_epoch(2);
        cache.insert_tagged(NodeId(0), NodeId(1), 0.5, 2);
        // A request still answering on the previous generation (epoch 1)
        // must not be served the new generation's entry — one response
        // never mixes indexes...
        assert_eq!(cache.lookup_tagged(NodeId(0), NodeId(1), 1), None);
        // ...and probing it must not evict the current generation's
        // entry, which stays served to current-epoch requests.
        assert_eq!(cache.lookup_tagged(NodeId(0), NodeId(1), 2), Some(0.5));
        assert_eq!(cache.len(), 1);
        // An entry from neither the requested nor the current epoch is
        // dead weight and is dropped on touch.
        cache.set_epoch(3);
        assert_eq!(cache.lookup_tagged(NodeId(0), NodeId(1), 1), None);
        assert!(cache.is_empty());
    }

    #[test]
    fn stale_tagged_inserts_are_dropped() {
        let cache = ShardedResultCache::new(8, 1);
        // A worker captures the epoch, computes... and a swap lands
        // before it inserts: the stale score must not be admitted.
        let before = cache.epoch();
        cache.set_epoch(7);
        cache.insert_tagged(NodeId(0), NodeId(1), 0.25, before);
        assert!(cache.is_empty());
        // A stale-epoch entry already resident is *replaced* by a live
        // insert rather than blocking it.
        cache.insert_tagged(NodeId(0), NodeId(2), 0.1, 7);
        cache.set_epoch(8);
        cache.insert_tagged(NodeId(0), NodeId(2), 0.9, 8);
        assert_eq!(cache.lookup(NodeId(0), NodeId(2)), Some(0.9));
        assert_eq!(cache.len(), 1);
    }

    #[test]
    fn tagged_engine_queries_respect_a_mid_query_swap() {
        let (g, idx) = setup();
        let want = idx.single_pair(&g, NodeId(0), NodeId(1));
        let engine: SharedEngine<HpArena> = idx.into();
        let cache = ShardedResultCache::with_capacity(16);
        let mut ws = QueryWorkspace::new();
        // Simulate: epoch captured at 0, swap to 1 mid-compute. The
        // answer is still returned (computed on the engine the caller
        // held), but it is never cached.
        cache.set_epoch(1);
        let got = engine
            .single_pair_cached_tagged(&g, &mut ws, &cache, NodeId(0), NodeId(1), 0)
            .unwrap();
        assert_eq!(got, want);
        assert!(cache.is_empty(), "stale-epoch result was cached");
        // The untagged path tags with the current epoch and caches.
        let got = engine
            .single_pair_cached(&g, &mut ws, &cache, NodeId(0), NodeId(1))
            .unwrap();
        assert_eq!(got, want);
        assert_eq!(cache.len(), 1);
    }

    #[test]
    fn sharded_cache_evicts_per_shard() {
        // 1 shard of capacity 2 makes eviction deterministic.
        let cache = ShardedResultCache::new(2, 1);
        cache.insert(NodeId(0), NodeId(1), 0.1);
        cache.insert(NodeId(0), NodeId(2), 0.2);
        assert!(cache.lookup(NodeId(0), NodeId(1)).is_some()); // {0,1} -> MRU
        cache.insert(NodeId(0), NodeId(3), 0.3); // evicts {0,2}
        assert_eq!(cache.stats().evictions, 1);
        assert_eq!(cache.len(), 2);
        assert!(cache.lookup(NodeId(0), NodeId(2)).is_none());
        assert!(cache.lookup(NodeId(0), NodeId(1)).is_some());
    }

    #[test]
    fn shard_count_rounds_to_power_of_two() {
        let cache = ShardedResultCache::new(100, 5);
        assert_eq!(cache.num_shards(), 8);
        let one = ShardedResultCache::new(10, 0);
        assert_eq!(one.num_shards(), 1);
    }

    #[test]
    fn engine_cached_single_pair_is_order_independent_and_exact() {
        let (g, idx) = setup();
        let reference = idx.clone();
        let engine: SharedEngine<HpArena> = idx.into();
        let cache = ShardedResultCache::with_capacity(64);
        let mut ws = QueryWorkspace::new();
        for u in g.nodes() {
            for v in g.nodes() {
                let got = engine
                    .single_pair_cached(&g, &mut ws, &cache, u, v)
                    .unwrap();
                // Canonical order makes both query orders bit-identical.
                let (a, b) = (u.0.min(v.0), u.0.max(v.0));
                let want = reference.single_pair(&g, NodeId(a), NodeId(b));
                assert_eq!(got, want, "({u:?},{v:?})");
            }
        }
        let s = cache.stats();
        assert!(s.hits > 0 && s.misses > 0);
    }

    #[test]
    fn sharded_cache_concurrent_hammer_is_consistent() {
        let (g, idx) = setup();
        let serial: Vec<((u32, u32), f64)> = {
            let mut out = Vec::new();
            for u in g.nodes() {
                for v in g.nodes() {
                    if u.0 < v.0 {
                        out.push(((u.0, v.0), idx.single_pair(&g, u, v)));
                    }
                }
            }
            out
        };
        let engine: SharedEngine<HpArena> = idx.into();
        let cache = ShardedResultCache::new(32, 4);
        std::thread::scope(|s| {
            for t in 0..8usize {
                let (engine, cache, g, serial) = (&engine, &cache, &g, &serial);
                s.spawn(move || {
                    let mut ws = QueryWorkspace::new();
                    for round in 0..4 {
                        for (i, &((a, b), want)) in serial.iter().enumerate() {
                            if (i + t + round) % 3 == 0 {
                                continue; // vary the interleaving per thread
                            }
                            // Alternate argument order across threads.
                            let (u, v) = if t % 2 == 0 { (a, b) } else { (b, a) };
                            let got = engine
                                .single_pair_cached(g, &mut ws, cache, NodeId(u), NodeId(v))
                                .unwrap();
                            assert_eq!(got, want, "pair ({a},{b}) diverged on thread {t}");
                        }
                    }
                });
            }
        });
        // 45 canonical pairs, 15 of which each (thread, round) skips:
        // 8 threads x 4 rounds x 30 queries, every one counted exactly once.
        let s = cache.stats();
        assert_eq!(s.hits + s.misses, 8 * 4 * 30);
        assert!(s.hits > 0);
    }

    #[test]
    fn sketch_counts_and_ages() {
        let mut sketch = FrequencySketch::with_capacity(64);
        let hot = pair_hash((3, 77));
        let cold = pair_hash((5, 99));
        for _ in 0..10 {
            sketch.increment(hot);
        }
        sketch.increment(cold);
        assert!(sketch.estimate(hot) >= 8, "{}", sketch.estimate(hot));
        assert!(sketch.estimate(cold) <= 2);
        assert_eq!(sketch.estimate(pair_hash((1, 2))), 0, "untouched key");
        // Saturation: 100 more increments cap at 15, never wrap.
        for _ in 0..100 {
            sketch.increment(hot);
        }
        assert!(sketch.estimate(hot) <= 15);
        // Aging halves, clear forgets.
        sketch.halve();
        assert!(sketch.estimate(hot) <= 7);
        sketch.clear();
        assert_eq!(sketch.estimate(hot), 0);
    }

    #[test]
    fn default_sketch_is_a_noop() {
        let mut sketch = FrequencySketch::default();
        sketch.increment(pair_hash((1, 2)));
        assert_eq!(sketch.estimate(pair_hash((1, 2))), 0);
    }

    /// The adversarial pattern from the workload traces: a hot working
    /// set that fits the cache, interleaved 1:2 with a one-touch cold
    /// scan much bigger than it. Under plain LRU each hot key is
    /// evicted by ~70 fresher scan keys before its next touch; under
    /// TinyLFU admission the scan keys lose the frequency contest and
    /// the hot set stays resident.
    #[test]
    fn tinylfu_resists_cold_scan_where_lru_thrashes() {
        let hot: Vec<(u32, u32)> = (0..24).map(|i| (i, i + 1000)).collect();
        let run = |cache: &ShardedResultCache| {
            for &(u, v) in &hot {
                cache.lookup(NodeId(u), NodeId(v));
                cache.insert(NodeId(u), NodeId(v), 0.25);
            }
            let mut hot_hits = 0usize;
            let mut cold = 0u32;
            for i in 0..6000usize {
                if i % 3 == 0 {
                    let (u, v) = hot[(i / 3) % hot.len()];
                    match cache.lookup(NodeId(u), NodeId(v)) {
                        Some(_) => hot_hits += 1,
                        None => cache.insert(NodeId(u), NodeId(v), 0.25),
                    }
                } else {
                    cold += 1;
                    let (u, v) = (NodeId(100_000 + cold), NodeId(200_000 + cold));
                    assert!(cache.lookup(u, v).is_none(), "cold keys are one-touch");
                    cache.insert(u, v, 0.5);
                }
            }
            hot_hits
        };
        let lru = ShardedResultCache::new(32, 1);
        let tiny = ShardedResultCache::with_admission(32, 1, Admission::TinyLfu);
        let lru_hits = run(&lru);
        let tiny_hits = run(&tiny);
        // 2000 hot accesses each. LRU thrashes (hot keys rarely survive
        // the 48 interleaved cold inserts between their touches);
        // TinyLFU serves nearly all of them.
        assert!(
            lru_hits < 500,
            "LRU unexpectedly scan-resistant: {lru_hits}"
        );
        assert!(tiny_hits > 1500, "TinyLFU thrashes: {tiny_hits}");
        assert!(tiny_hits > lru_hits * 3);
        assert!(tiny.admission_rejects() > 1000);
        assert_eq!(lru.admission_rejects(), 0);
    }

    /// An epoch swap must reset sketched popularity: the new
    /// generation's traffic starts from a clean slate instead of being
    /// vetoed by the retired index's hot set.
    #[test]
    fn tinylfu_sketch_resets_on_epoch_swap() {
        let cache = ShardedResultCache::with_admission(16, 1, Admission::TinyLfu);
        // Make 16 old-generation keys very popular and resident.
        for _ in 0..10 {
            for i in 0..16u32 {
                if cache.lookup(NodeId(i), NodeId(i + 100)).is_none() {
                    cache.insert(NodeId(i), NodeId(i + 100), 0.5);
                }
            }
        }
        // A fresh key is refused: zero sketched frequency vs a popular
        // victim.
        cache.insert(NodeId(777), NodeId(888), 0.25);
        assert!(cache.lookup(NodeId(777), NodeId(888)).is_none());
        assert!(cache.admission_rejects() > 0);
        let rejects_before = cache.admission_rejects();
        // Swap generations: resident entries invalidate lazily, the
        // sketch resets eagerly, and new traffic is admitted freely
        // (candidate 0 >= victim 0).
        cache.set_epoch(1);
        for i in 0..16u32 {
            cache.insert(NodeId(500 + i), NodeId(600 + i), 0.75);
        }
        for i in 0..16u32 {
            assert_eq!(cache.lookup(NodeId(500 + i), NodeId(600 + i)), Some(0.75));
        }
        assert_eq!(cache.admission_rejects(), rejects_before);
    }

    #[test]
    fn admission_parses_and_prints() {
        assert_eq!(Admission::parse("lru"), Some(Admission::Lru));
        assert_eq!(Admission::parse("tinylfu"), Some(Admission::TinyLfu));
        assert_eq!(Admission::parse("arc"), None);
        assert_eq!(Admission::TinyLfu.as_str(), "tinylfu");
        assert_eq!(Admission::default(), Admission::Lru);
    }
}
