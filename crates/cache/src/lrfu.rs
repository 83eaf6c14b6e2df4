//! The LRFU replacement policy (Lee et al., 2001).
//!
//! Every cached block carries a *Combined Recency and Frequency* (CRF)
//! value. On a reference at logical time `t`, the block's CRF becomes
//! `1 + crf_old · 2^(−λ (t − t_last))`: each historical reference
//! contributes a weight that halves every `1/λ` references. The victim is
//! the block with the smallest CRF. `λ → 0` degenerates to LFU (pure
//! counts), large `λ` degenerates to LRU (only the last reference matters).
//!
//! Ordering trick: comparing CRFs "now" is equivalent to comparing
//! `log2(crf) + λ · t_last`, which is constant between updates — so victims
//! can be kept in a priority queue without global decay sweeps.
//!
//! Layout: entries live in a slab (`Vec<Entry>` plus a free list of
//! vacated slots); a block → slot map finds them; and an implicit binary
//! min-heap of slots, each entry storing its own heap position, orders
//! them by `(rank bits, block)`. The block breaks rank ties, so the key is
//! a total order over resident blocks and the heap root is exactly the
//! victim a sorted index would yield first. A touch is one map probe and
//! one O(log n) sift in place; an eviction pops the root and hands its
//! slot straight to the incoming block.

use crate::{BufferCache, CacheOutcome};
use std::collections::HashMap;
use std::hash::{BuildHasherDefault, Hasher};

/// Multiplicative (Fibonacci) hasher for block numbers.
///
/// Block numbers are physical blocks the simulator generates itself, never
/// outside input, so no one can craft keys that collide; SipHash's
/// flooding resistance buys nothing here and costs a large share of every
/// probe. The final rotation moves the well-mixed high product bits into
/// the low bits the table indexes by.
#[derive(Debug, Default, Clone, Copy)]
struct BlockHasher(u64);

impl Hasher for BlockHasher {
    fn write(&mut self, bytes: &[u8]) {
        for &b in bytes {
            self.write_u64(b as u64);
        }
    }

    fn write_u64(&mut self, n: u64) {
        self.0 = (self.0 ^ n).wrapping_mul(0x9e37_79b9_7f4a_7c15);
    }

    fn finish(&self) -> u64 {
        self.0.rotate_left(26)
    }
}

type BlockMap = HashMap<u64, u32, BuildHasherDefault<BlockHasher>>;

#[derive(Debug, Clone, Copy)]
struct Entry {
    block: u64,
    crf: f64,
    last: u64,
    /// Heap key (bits of the f64 rank, see `rank_bits`).
    key: u64,
    /// Index of this slot in `heap`.
    pos: u32,
    dirty: bool,
}

impl Entry {
    /// The heap order: rank first, block id breaks ties.
    fn order(&self) -> (u64, u64) {
        (self.key, self.block)
    }
}

/// LRFU buffer cache.
///
/// # Examples
///
/// ```
/// use nvhsm_cache::{BufferCache, LrfuCache};
/// let mut c = LrfuCache::new(100, 0.3);
/// c.access(7, false);
/// assert!(c.contains(7));
/// ```
#[derive(Debug, Clone)]
pub struct LrfuCache {
    capacity: usize,
    lambda: f64,
    clock: u64,
    /// Slab of entries; slots listed in `free` are vacant.
    slots: Vec<Entry>,
    free: Vec<u32>,
    /// Resident block → its slot.
    index: BlockMap,
    /// Min-heap of slots by `Entry::order`; the root is the eviction victim.
    heap: Vec<u32>,
    hits: u64,
    misses: u64,
}

/// Maps the eviction rank `log2(crf) + λ·last` to order-preserving bits.
fn rank_bits(crf: f64, last: u64, lambda: f64) -> u64 {
    let rank = crf.log2() + lambda * last as f64;
    // rank can be slightly negative (crf < 1 never happens on insert, but
    // guard anyway): shift into positive territory before bit-casting.
    let shifted = rank + 1024.0;
    debug_assert!(shifted > 0.0);
    shifted.to_bits()
}

impl LrfuCache {
    /// Creates a cache holding up to `capacity` blocks with decay `lambda`.
    ///
    /// A zero capacity is legal and yields a cache that never admits:
    /// every access is a miss with no eviction, so a disabled cache
    /// stage costs nothing and changes nothing.
    ///
    /// # Panics
    ///
    /// Panics if `lambda` is negative or non-finite, or if `capacity`
    /// exceeds `u32::MAX` blocks (slots are 32-bit).
    pub fn new(capacity: usize, lambda: f64) -> Self {
        assert!(
            lambda >= 0.0 && lambda.is_finite(),
            "lambda must be a non-negative finite number"
        );
        assert!(
            u32::try_from(capacity).is_ok(),
            "capacity must fit in 32-bit slot indices"
        );
        LrfuCache {
            capacity,
            lambda,
            clock: 0,
            slots: Vec::with_capacity(capacity),
            free: Vec::new(),
            index: BlockMap::with_capacity_and_hasher(capacity, Default::default()),
            heap: Vec::with_capacity(capacity),
            hits: 0,
            misses: 0,
        }
    }

    /// The decay parameter λ.
    pub fn lambda(&self) -> f64 {
        self.lambda
    }

    fn order_at(&self, pos: usize) -> (u64, u64) {
        self.slots[self.heap[pos] as usize].order()
    }

    /// Writes `slot` at heap position `pos` and records the position.
    fn place(&mut self, pos: usize, slot: u32) {
        self.heap[pos] = slot;
        self.slots[slot as usize].pos = pos as u32;
    }

    /// Restores the heap property for the slot at `pos` after its key
    /// changed in either direction.
    fn sift(&mut self, mut pos: usize) {
        let slot = self.heap[pos];
        let key = self.slots[slot as usize].order();
        while pos > 0 {
            let parent = (pos - 1) / 2;
            if self.order_at(parent) <= key {
                break;
            }
            self.place(pos, self.heap[parent]);
            pos = parent;
        }
        let len = self.heap.len();
        loop {
            let left = 2 * pos + 1;
            if left >= len {
                break;
            }
            let right = left + 1;
            let child = if right < len && self.order_at(right) < self.order_at(left) {
                right
            } else {
                left
            };
            if key <= self.order_at(child) {
                break;
            }
            self.place(pos, self.heap[child]);
            pos = child;
        }
        self.place(pos, slot);
    }

    /// Unlinks the heap entry at `pos` and frees its slot; the caller
    /// drops the block from `index`.
    fn remove_at(&mut self, pos: usize) -> Entry {
        let slot = self.heap.swap_remove(pos);
        if pos < self.heap.len() {
            // The former last slot now sits at `pos`; `sift` re-places it.
            self.sift(pos);
        }
        self.free.push(slot);
        self.slots[slot as usize]
    }

    fn touch(&mut self, slot: u32, write: bool) {
        let lambda = self.lambda;
        let clock = self.clock;
        let entry = &mut self.slots[slot as usize];
        let elapsed = (clock - entry.last) as f64;
        entry.crf = 1.0 + entry.crf * 2f64.powf(-lambda * elapsed);
        entry.last = clock;
        entry.key = rank_bits(entry.crf, entry.last, lambda);
        entry.dirty |= write;
        let pos = entry.pos as usize;
        self.sift(pos);
    }

    fn evict(&mut self) -> Option<(u64, bool)> {
        if self.heap.is_empty() {
            return None;
        }
        let victim = self.remove_at(0);
        // Invariant: index and heap always hold the same set. Guarded
        // rather than unwrapped so a bookkeeping bug degrades instead of
        // panicking on the request path.
        let slot = self.index.remove(&victim.block);
        debug_assert!(slot.is_some(), "heap entry must have an index entry");
        Some((victim.block, victim.dirty))
    }

    fn insert(&mut self, block: u64, write: bool) {
        let entry = Entry {
            block,
            crf: 1.0,
            last: self.clock,
            key: rank_bits(1.0, self.clock, self.lambda),
            pos: self.heap.len() as u32,
            dirty: write,
        };
        let slot = match self.free.pop() {
            Some(slot) => {
                self.slots[slot as usize] = entry;
                slot
            }
            None => {
                self.slots.push(entry);
                (self.slots.len() - 1) as u32
            }
        };
        self.heap.push(slot);
        self.sift(self.heap.len() - 1);
        self.index.insert(block, slot);
    }
}

impl BufferCache for LrfuCache {
    fn access(&mut self, block: u64, write: bool) -> CacheOutcome {
        self.clock += 1;
        if let Some(&slot) = self.index.get(&block) {
            self.touch(slot, write);
            self.hits += 1;
            return CacheOutcome::hit();
        }
        self.misses += 1;
        if self.capacity == 0 {
            // Never admits: the disabled configuration is a pure pass-through.
            return CacheOutcome::miss(None);
        }
        let evicted = if self.index.len() >= self.capacity {
            self.evict()
        } else {
            None
        };
        self.insert(block, write);
        CacheOutcome::miss(evicted)
    }

    fn invalidate(&mut self, block: u64) -> Option<bool> {
        let slot = self.index.remove(&block)?;
        let pos = self.slots[slot as usize].pos as usize;
        Some(self.remove_at(pos).dirty)
    }

    fn contains(&self, block: u64) -> bool {
        self.index.contains_key(&block)
    }

    fn capacity(&self) -> usize {
        self.capacity
    }

    fn len(&self) -> usize {
        self.index.len()
    }

    fn hits(&self) -> u64 {
        self.hits
    }

    fn misses(&self) -> u64 {
        self.misses
    }

    fn reset_counters(&mut self) {
        self.hits = 0;
        self.misses = 0;
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::lfu::LfuCache;
    use crate::lru::LruCache;
    use nvhsm_sim::SimRng;

    #[test]
    fn capacity_never_exceeded() {
        let mut c = LrfuCache::new(8, 0.5);
        for b in 0..100 {
            c.access(b, false);
            assert!(c.len() <= 8);
        }
        assert_eq!(c.len(), 8);
    }

    #[test]
    fn high_lambda_behaves_like_lru() {
        // λ large: only recency matters. Trace: fill 1..=3, re-touch 1,
        // insert 4 -> LRU evicts 2.
        let mut c = LrfuCache::new(3, 8.0);
        for b in [1, 2, 3, 1] {
            c.access(b, false);
        }
        let out = c.access(4, false);
        assert_eq!(out.evicted, Some((2, false)));
    }

    #[test]
    fn low_lambda_behaves_like_lfu() {
        // λ = 0: pure frequency. Block 1 referenced 3x, 2 and 3 once;
        // inserting 4 evicts the least frequent (tie 2/3 -> earliest rank).
        let mut c = LrfuCache::new(3, 0.0);
        for b in [1, 1, 1, 2, 3] {
            c.access(b, false);
        }
        let out = c.access(4, false);
        let victim = out.evicted.unwrap().0;
        assert!(victim == 2 || victim == 3, "victim {victim}");
        assert!(c.contains(1));
    }

    #[test]
    fn lambda_extremes_match_reference_policies_on_random_trace() {
        // λ→1 (strong decay) should track LRU closely; λ=0 is exactly LFU
        // by hit/miss counts on any trace with deterministic tie-breaks
        // being the only divergence. We compare hit counts within a small
        // tolerance.
        let mut rng = SimRng::new(42);
        let trace: Vec<u64> = (0..20_000).map(|_| rng.below(400)).collect();

        let mut lrfu_hi = LrfuCache::new(64, 10.0);
        let mut lru = LruCache::new(64);
        let mut lrfu_lo = LrfuCache::new(64, 0.0);
        let mut lfu = LfuCache::new(64);
        for &b in &trace {
            lrfu_hi.access(b, false);
            lru.access(b, false);
            lrfu_lo.access(b, false);
            lfu.access(b, false);
        }
        let close = |a: u64, b: u64| (a as f64 - b as f64).abs() / (b.max(1) as f64) < 0.05;
        assert!(
            close(lrfu_hi.hits(), lru.hits()),
            "λ→∞: lrfu {} vs lru {}",
            lrfu_hi.hits(),
            lru.hits()
        );
        assert!(
            close(lrfu_lo.hits(), lfu.hits()),
            "λ=0: lrfu {} vs lfu {}",
            lrfu_lo.hits(),
            lfu.hits()
        );
    }

    #[test]
    fn scan_resistance_between_extremes() {
        // A live hot set interleaved with a one-shot scan that inserts
        // faster than the hot set is re-touched: LRU's recency-only rule
        // evicts hot blocks (re-touch gap 64 > capacity 32 insertions),
        // while LRFU's frequency component keeps them.
        let capacity = 32;
        let mut lrfu = LrfuCache::new(capacity, 0.01);
        let mut lru = LruCache::new(capacity);
        // Warm the hot set of 16 blocks.
        for round in 0..20 {
            for b in 0..16u64 {
                lrfu.access(b, false);
                lru.access(b, false);
                let _ = round;
            }
        }
        // Interleave: 1 hot touch, then 3 scan inserts.
        let mut scan = 1000u64;
        for round in 0..8 {
            for b in 0..16u64 {
                lrfu.access(b, false);
                lru.access(b, false);
                for _ in 0..3 {
                    lrfu.access(scan, false);
                    lru.access(scan, false);
                    scan += 1;
                }
            }
            let _ = round;
        }
        let lrfu_kept = (0..16u64).filter(|&b| lrfu.contains(b)).count();
        let lru_kept = (0..16u64).filter(|&b| lru.contains(b)).count();
        assert!(
            lrfu_kept > lru_kept,
            "lrfu kept {lrfu_kept}, lru kept {lru_kept}"
        );
    }

    #[test]
    fn invalidate_removes_from_order_index() {
        let mut c = LrfuCache::new(2, 0.5);
        c.access(1, true);
        c.access(2, false);
        assert_eq!(c.invalidate(1), Some(true));
        // Inserting two more must evict 2 (not the ghost of 1).
        let out3 = c.access(3, false);
        assert!(out3.evicted.is_none());
        let out4 = c.access(4, false);
        assert_eq!(out4.evicted, Some((2, false)));
    }

    #[test]
    fn zero_capacity_never_admits() {
        let mut c = LrfuCache::new(0, 0.5);
        for b in 0..8u64 {
            let out = c.access(b, false);
            assert!(!out.hit);
            assert_eq!(out.evicted, None);
        }
        assert_eq!(c.len(), 0);
        assert_eq!(c.misses(), 8);
    }
}
