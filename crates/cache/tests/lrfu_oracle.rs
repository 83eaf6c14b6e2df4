//! Differential oracle for `LrfuCache`.
//!
//! The cache indexes victims in a slab-backed min-heap. This file keeps
//! the original formulation — a `HashMap` of entries beside a `BTreeMap`
//! sorted on `(rank bits, block)` — as a reference model, and drives both
//! with the same random traces of accesses and invalidations. Every
//! outcome, every `(victim, dirty)` pair and every observable counter must
//! agree at every step: the two share the CRF arithmetic and the total
//! order, so any divergence is a bookkeeping bug in the heap.

use nvhsm_cache::{BufferCache, CacheOutcome, LrfuCache};
use proptest::prelude::*;
use std::collections::{BTreeMap, HashMap};

#[derive(Debug, Clone, Copy)]
struct RefEntry {
    crf: f64,
    last: u64,
    key: u64,
    dirty: bool,
}

/// The sorted-index LRFU: victims come off the front of a `BTreeMap`.
struct ReferenceLrfu {
    capacity: usize,
    lambda: f64,
    clock: u64,
    entries: HashMap<u64, RefEntry>,
    order: BTreeMap<(u64, u64), ()>,
    hits: u64,
    misses: u64,
}

fn rank_bits(crf: f64, last: u64, lambda: f64) -> u64 {
    (crf.log2() + lambda * last as f64 + 1024.0).to_bits()
}

impl ReferenceLrfu {
    fn new(capacity: usize, lambda: f64) -> Self {
        ReferenceLrfu {
            capacity,
            lambda,
            clock: 0,
            entries: HashMap::new(),
            order: BTreeMap::new(),
            hits: 0,
            misses: 0,
        }
    }

    fn access(&mut self, block: u64, write: bool) -> CacheOutcome {
        self.clock += 1;
        if let Some(entry) = self.entries.get_mut(&block) {
            self.order.remove(&(entry.key, block));
            let elapsed = (self.clock - entry.last) as f64;
            entry.crf = 1.0 + entry.crf * 2f64.powf(-self.lambda * elapsed);
            entry.last = self.clock;
            entry.key = rank_bits(entry.crf, entry.last, self.lambda);
            entry.dirty |= write;
            self.order.insert((entry.key, block), ());
            self.hits += 1;
            return CacheOutcome::hit();
        }
        self.misses += 1;
        if self.capacity == 0 {
            return CacheOutcome::miss(None);
        }
        let evicted = if self.entries.len() >= self.capacity {
            self.order.pop_first().map(|((_, victim), ())| {
                let entry = self.entries.remove(&victim).expect("indexed victim");
                (victim, entry.dirty)
            })
        } else {
            None
        };
        let entry = RefEntry {
            crf: 1.0,
            last: self.clock,
            key: rank_bits(1.0, self.clock, self.lambda),
            dirty: write,
        };
        self.order.insert((entry.key, block), ());
        self.entries.insert(block, entry);
        CacheOutcome::miss(evicted)
    }

    fn invalidate(&mut self, block: u64) -> Option<bool> {
        let entry = self.entries.remove(&block)?;
        self.order.remove(&(entry.key, block));
        Some(entry.dirty)
    }
}

#[derive(Debug, Clone, Copy)]
enum Op {
    Access(u64, bool),
    Invalidate(u64),
}

/// Blocks the traces draw from: a little wider than the largest capacity.
const UNIVERSE: u64 = 96;

/// Mostly accesses, so hits, evictions and re-admissions all occur, with
/// one op in eight an invalidation.
fn op_strategy() -> impl Strategy<Value = Op> {
    (0..UNIVERSE, proptest::bool::ANY, 0u8..8).prop_map(|(block, write, tag)| {
        if tag == 0 {
            Op::Invalidate(block)
        } else {
            Op::Access(block, write)
        }
    })
}

/// Pure LFU, the paper's λ, a mid decay, and LRU-like strong decay.
const LAMBDAS: [f64; 4] = [0.0, 0.05, 0.3, 10.0];

proptest! {
    #![proptest_config(ProptestConfig::with_cases(128))]

    #[test]
    fn prop_heap_lrfu_matches_sorted_index_reference(
        capacity in 0usize..64,
        ops in proptest::collection::vec(op_strategy(), 0..600),
    ) {
        for lambda in LAMBDAS {
            let mut cache = LrfuCache::new(capacity, lambda);
            let mut oracle = ReferenceLrfu::new(capacity, lambda);
            for (step, &op) in ops.iter().enumerate() {
                match op {
                    Op::Access(block, write) => {
                        let got = cache.access(block, write);
                        let want = oracle.access(block, write);
                        prop_assert_eq!(
                            got, want,
                            "λ {} step {} access({}, {})", lambda, step, block, write
                        );
                    }
                    Op::Invalidate(block) => {
                        let got = cache.invalidate(block);
                        let want = oracle.invalidate(block);
                        prop_assert_eq!(
                            got, want,
                            "λ {} step {} invalidate({})", lambda, step, block
                        );
                    }
                }
                prop_assert_eq!(cache.len(), oracle.entries.len(), "λ {} step {}", lambda, step);
                prop_assert_eq!(cache.hits(), oracle.hits, "λ {} step {}", lambda, step);
                prop_assert_eq!(cache.misses(), oracle.misses, "λ {} step {}", lambda, step);
                for b in 0..UNIVERSE {
                    prop_assert_eq!(
                        cache.contains(b),
                        oracle.entries.contains_key(&b),
                        "λ {} step {} contains({})", lambda, step, b
                    );
                }
            }
        }
    }
}

/// The `node_mix` shape at full size: a 4,096-block cache at the paper's
/// λ under a skewed ~20k-block working set, long enough for the heap to
/// see hundreds of thousands of sifts and tens of thousands of evictions.
#[test]
fn node_scale_trace_matches_reference() {
    let mut cache = LrfuCache::new(4096, 0.05);
    let mut oracle = ReferenceLrfu::new(4096, 0.05);
    let mut x = 0x2545_f491_4f6c_dd1du64;
    let mut evictions = 0u64;
    for step in 0..200_000u32 {
        x ^= x << 13;
        x ^= x >> 7;
        x ^= x << 17;
        // Half the traffic on a 2k-block hot set, half over 20k blocks.
        let block = if x & 1 == 0 {
            (x >> 8) % 2_048
        } else {
            (x >> 8) % 20_480
        };
        let write = (x >> 40) & 3 == 0;
        let got = cache.access(block, write);
        assert_eq!(got, oracle.access(block, write), "step {step}");
        evictions += got.evicted.is_some() as u64;
        if step.is_multiple_of(97) {
            let b = (x >> 20) % 20_480;
            assert_eq!(cache.invalidate(b), oracle.invalidate(b), "step {step}");
        }
    }
    assert_eq!(cache.len(), oracle.entries.len());
    assert_eq!((cache.hits(), cache.misses()), (oracle.hits, oracle.misses));
    assert!(evictions > 10_000, "only {evictions} evictions");
}
