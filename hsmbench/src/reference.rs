//! The host-speed reference: a fixed piece of work timed beside every
//! repetition, so host times can be reported at one nominal host speed.
//!
//! The benchmark shares its host with other machines' work, and that
//! contention slowed the simulator by up to 75% for minutes at a time. A
//! median over one run cannot absorb drift that lasts longer than the run,
//! so each repetition's host times are divided by the host's slowdown
//! while it ran: the reference's time, measured just before and just after
//! the repetition, over [`NOMINAL_S`]. The reference is the benchmark's
//! own code and never calls the simulator, so a change to the simulator
//! moves the normalised times in the same proportion as the raw ones.
//!
//! Its three parts stand for what the simulator spends its time on: an
//! ordered event queue, random lookups in a table larger than the caches,
//! and sorting with floating-point work. Over sets of five to eight runs
//! of `cluster_crash` under drifting contention, the run medians of their
//! geometric mean correlated at r = 0.6–0.9 with those of the
//! repetitions' host time, and normalising cut the quartile spread of the
//! run medians by 30–70%; a pure integer loop correlated at only
//! r = 0.4–0.5, so the drift is mostly contention for the memory system,
//! not clock speed.

use std::collections::{BTreeMap, HashMap};
use std::hint::black_box;
use std::sync::OnceLock;
use std::time::Instant;

/// The reference's time on the nominal host, seconds: about its time on
/// an idle two-vCPU Xeon (Sapphire Rapids) virtual machine.
pub const NOMINAL_S: f64 = 0.020;

/// The host's slowdown against the nominal host, from the reference's
/// times just before and just after the work being normalised.
pub fn slowdown(before_s: f64, after_s: f64) -> f64 {
    (before_s * after_s).sqrt() / NOMINAL_S
}

/// Runs the reference once and returns its time, seconds: the geometric
/// mean of its three parts.
pub fn time() -> f64 {
    let parts = [event_queue(), table_lookups(), sort_pass()];
    (parts.iter().map(|t| t.ln()).sum::<f64>() / parts.len() as f64).exp()
}

fn xorshift(x: &mut u64) -> u64 {
    *x ^= *x << 13;
    *x ^= *x >> 7;
    *x ^= *x << 17;
    *x
}

const SEED: u64 = 0x9e37_79b9_7f4a_7c15;

/// A discrete-event loop: 50,000 pending events in an ordered map, then
/// 150,000 steps that each pop the earliest and schedule a later one.
fn event_queue() -> f64 {
    let t = Instant::now();
    let mut x = SEED;
    let mut queue: BTreeMap<(u64, u32), u64> = BTreeMap::new();
    for i in 0..50_000u32 {
        let at = xorshift(&mut x) % 1_000_000;
        queue.insert((at, i), x);
    }
    for i in 50_000..200_000u32 {
        let Some(((at, _), v)) = queue.pop_first() else {
            break;
        };
        queue.insert((at + v % 1_000_000, i), xorshift(&mut x));
    }
    black_box(queue.len());
    t.elapsed().as_secs_f64()
}

/// Entries in the lookup table: about 32 MiB, more than one tenant's share
/// of a shared last-level cache.
const TABLE_ENTRIES: u64 = 1 << 20;

/// 200,000 random lookups in a table built once per process (the build is
/// not timed).
fn table_lookups() -> f64 {
    static TABLE: OnceLock<HashMap<u64, u64>> = OnceLock::new();
    let key = |i: u64| i.wrapping_mul(SEED);
    let table = TABLE.get_or_init(|| (0..TABLE_ENTRIES).map(|i| (key(i), i)).collect());
    let t = Instant::now();
    let mut x = SEED;
    let mut sum = 0u64;
    for _ in 0..200_000 {
        let k = key(xorshift(&mut x) % TABLE_ENTRIES);
        sum = sum.wrapping_add(table.get(&k).copied().unwrap_or(0));
    }
    black_box(sum);
    t.elapsed().as_secs_f64()
}

/// Three rounds of sorting 100,000 floats and rewriting each through `sin`.
fn sort_pass() -> f64 {
    let t = Instant::now();
    let mut v: Vec<f64> = (0..100_000).map(|i| (i as f64).sin()).collect();
    for _ in 0..3 {
        v.sort_by(f64::total_cmp);
        for (i, e) in v.iter_mut().enumerate() {
            *e = (*e * 1.0001 + i as f64).sin();
        }
    }
    black_box(v[0]);
    t.elapsed().as_secs_f64()
}
