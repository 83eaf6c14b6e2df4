//! Differential oracle for Eq. 4 initial placement.
//!
//! `Manager::initial_placement_from` computes each store's Eq. 5 term once
//! and previews the §5.1.1 imbalance from the two largest and two smallest
//! steering terms. This file keeps the original formulation — every
//! candidate re-evaluates every other store's term and collects a fresh
//! preview vector — as a reference model, and drives both with seeded
//! random observation sets: both policy families, τ below 1 (so the
//! preview's veto fires), all three health states, NaN latencies and
//! predictions, capacity misses, infinite hops, every kind of `home` and
//! the empty slice. The two must return the same store on every case:
//! they share the float summation order, so any divergence is a bug in
//! the hoisting or the preview bookkeeping.
//!
//! A second sweep does the same for `ShardedPolicyEngine` against the
//! original shard lookup (scan the shard ranges, take the home shard's
//! position, spill over `shard_summaries`), on node layouts with gaps so
//! that homes and whole shards go missing.

use nvhsm_core::manager::{DeviceHealth, DeviceObservation, ResidentInfo};
use nvhsm_core::{
    pretrain_models, shard_summaries, DatastoreId, Manager, NetworkCosts, PolicyEngine, PolicyKind,
    ShardedPolicyEngine, VmdkId,
};
use nvhsm_device::{DeviceKind, EpochStats};
use nvhsm_model::Features;
use nvhsm_sim::{OnlineStats, SimDuration, SimRng};
use std::collections::HashMap;
use std::ops::Range;

// ---- the reference model ------------------------------------------------

fn counts_for_imbalance(o: &DeviceObservation) -> bool {
    o.epoch.io_count() >= 10 && o.health.available()
}

/// Eq. 5 device performance, as the manager defines it.
fn device_perf_us(m: &Manager, o: &DeviceObservation) -> f64 {
    if m.policy().uses_prediction() && o.kind == DeviceKind::Nvdimm {
        let loaded: Vec<&ResidentInfo> = o.residents.iter().filter(|r| r.io_count > 0).collect();
        if loaded.is_empty() {
            return 0.0;
        }
        loaded
            .iter()
            .map(|r| m.models().predict_us(DeviceKind::Nvdimm, &r.features))
            .sum::<f64>()
            / loaded.len() as f64
    } else {
        o.epoch.mean_latency_us()
    }
}

/// The destination what-if: the workload's features with the device's
/// measured OIO and free space folded in.
fn what_if_add_us(m: &Manager, o: &DeviceObservation, w: &ResidentInfo) -> f64 {
    let mut f = w.features;
    f.oios += o.epoch.oio();
    f.free_space_ratio = o.free_space;
    m.models().predict_us(o.kind, &f)
}

/// The O(n²) Eq. 4 scan: every candidate rebuilds the whole average and
/// the whole preview.
fn reference_placement(
    m: &Manager,
    observations: &[DeviceObservation],
    new_workload: &ResidentInfo,
    home: Option<usize>,
) -> Option<DatastoreId> {
    let mut best: Option<(DatastoreId, f64)> = None;
    for (i, obs) in observations.iter().enumerate() {
        if !obs.health.available() || obs.free_capacity_blocks < new_workload.size_blocks {
            continue;
        }
        let hop = home.map_or(0.0, |h| {
            if obs.node != h {
                m.network().hop_us
            } else {
                0.0
            }
        });
        let with_new = what_if_add_us(m, obs, new_workload) + hop;
        if !with_new.is_finite() {
            continue;
        }
        let mut total = 0.0;
        let mut norms = Vec::with_capacity(observations.len());
        for (j, other) in observations.iter().enumerate() {
            let p = if j == i {
                with_new
            } else if other.health.available() {
                let p = device_perf_us(m, other);
                if p.is_finite() {
                    p
                } else {
                    0.0
                }
            } else {
                0.0
            };
            total += p;
            if j == i || counts_for_imbalance(other) {
                norms.push(p);
            }
        }
        let avg = total / observations.len() as f64;
        let max_n = norms.iter().cloned().fold(0.0f64, f64::max);
        let min_n = norms.iter().cloned().fold(f64::INFINITY, f64::min);
        let imbalance = if max_n > 0.0 && norms.len() > 1 {
            (max_n - min_n) / max_n
        } else {
            0.0
        };
        if imbalance > m.tau() {
            continue;
        }
        if best.is_none_or(|(_, b)| avg < b) {
            best = Some((obs.ds, avg));
        }
    }
    best.map(|(ds, _)| ds)
}

/// Per-shard contiguous ranges of a node-sorted observation set, by a
/// linear scan.
fn shard_ranges(observations: &[DeviceObservation], nps: usize) -> Vec<Range<usize>> {
    let mut ranges = Vec::new();
    let mut start = 0;
    for i in 1..=observations.len() {
        if i == observations.len() || observations[i].node / nps != observations[start].node / nps {
            ranges.push(start..i);
            start = i;
        }
    }
    ranges
}

/// The sharded placement as first written: ranges by scan, the home shard
/// by `position` (falling back to the first shard), then the spill path
/// in summary order. Returns the placement and whether it spilled.
fn reference_sharded(
    m: &Manager,
    observations: &[DeviceObservation],
    w: &ResidentInfo,
    home: Option<usize>,
    nps: usize,
) -> (Option<DatastoreId>, bool) {
    let ranges = shard_ranges(observations, nps);
    if ranges.len() <= 1 {
        return (reference_placement(m, observations, w, home), false);
    }
    let home_shard = home
        .map(|h| h / nps)
        .and_then(|s| {
            ranges
                .iter()
                .position(|r| observations[r.start].node / nps == s)
        })
        .unwrap_or(0);
    if let Some(ds) = reference_placement(m, &observations[ranges[home_shard].clone()], w, home) {
        return (Some(ds), false);
    }
    let summaries = shard_summaries(observations, nps);
    let mut spill: Vec<usize> = (0..ranges.len())
        .filter(|&i| {
            i != home_shard
                && summaries[i].available > 0
                && summaries[i].max_free_blocks >= w.size_blocks
        })
        .collect();
    spill.sort_by(|&a, &b| {
        summaries[a]
            .mean_latency_us
            .total_cmp(&summaries[b].mean_latency_us)
            .then(a.cmp(&b))
    });
    for i in spill {
        if let Some(ds) = reference_placement(m, &observations[ranges[i].clone()], w, home) {
            return (Some(ds), true);
        }
    }
    (None, false)
}

// ---- random inputs ------------------------------------------------------

const KINDS: [DeviceKind; 3] = [DeviceKind::Nvdimm, DeviceKind::Ssd, DeviceKind::Hdd];

fn pick<T: Copy>(rng: &mut SimRng, items: &[T]) -> T {
    items[rng.below(items.len() as u64) as usize]
}

fn features(rng: &mut SimRng) -> Features {
    let mut f = Features {
        wr_ratio: rng.uniform(),
        oios: rng.uniform_range(0.0, 8.0),
        ios: pick(rng, &[1.0, 2.0, 8.0, 32.0]),
        wr_rand: rng.uniform(),
        rd_rand: rng.uniform(),
        free_space_ratio: rng.uniform(),
    };
    // A zero-IO epoch can hand the model 0/0 rates.
    if rng.chance(0.05) {
        f.oios = f64::NAN;
    }
    f
}

fn resident(rng: &mut SimRng, id: u32) -> ResidentInfo {
    ResidentInfo {
        vmdk: VmdkId(id),
        size_blocks: 32 + rng.below(96),
        features: features(rng),
        io_count: pick(rng, &[0, 0, 1, 40, 300]),
        mean_latency_us: rng.uniform_range(5.0, 3_000.0),
        live_blocks: rng.below(1_000),
    }
}

/// One store on `node`. Loads straddle the 10-request steering threshold,
/// latencies span three decades (so Δ/max lands on both sides of τ), and
/// a few are NaN or absent.
fn store(rng: &mut SimRng, ds: usize, node: usize) -> DeviceObservation {
    let io = pick(rng, &[0, 5, 10, 60, 400]);
    let reads = rng.below(io + 1);
    let mut latency_us = OnlineStats::new();
    match rng.below(10) {
        0 => latency_us.add(f64::NAN),
        1 => {}
        _ => latency_us.add(rng.uniform_range(5.0, 5_000.0)),
    }
    let residents = (0..rng.below(4))
        .map(|k| resident(rng, (ds * 8 + k as usize) as u32))
        .collect();
    DeviceObservation {
        ds: DatastoreId(ds),
        node,
        kind: pick(rng, &KINDS),
        epoch: EpochStats {
            duration: SimDuration::from_ms(200),
            reads,
            writes: io - reads,
            seq_reads: 0,
            seq_writes: 0,
            read_blocks: reads,
            write_blocks: io - reads,
            latency_us,
            per_stream_latency_us: Default::default(),
            migrated_ios: 0,
        },
        free_space: rng.uniform(),
        free_capacity_blocks: pick(rng, &[0, 64, 100, 1_000_000]),
        residents,
        health: pick(
            rng,
            &[
                DeviceHealth::Healthy,
                DeviceHealth::Healthy,
                DeviceHealth::Healthy,
                DeviceHealth::Degraded,
                DeviceHealth::Offline,
            ],
        ),
    }
}

/// Up to `max_stores` stores on ascending nodes; node steps of 0 to 7
/// leave gaps wide enough to skip whole shards. Some stores repeat their
/// predecessor under a new id: the exact ties that leave the choice to the
/// float summation order.
fn fleet(rng: &mut SimRng, max_stores: u64) -> Vec<DeviceObservation> {
    let mut node = rng.below(4) as usize;
    let mut stores: Vec<DeviceObservation> = Vec::new();
    for ds in 0..rng.below(max_stores + 1) as usize {
        let o = match stores.last() {
            Some(prev) if rng.chance(0.2) => DeviceObservation {
                ds: DatastoreId(ds),
                ..prev.clone()
            },
            _ => {
                node += pick(rng, &[0, 0, 1, 1, 2, 7]);
                store(rng, ds, node)
            }
        };
        stores.push(o);
    }
    stores
}

/// No home, a node of the observed cluster, or a node outside it.
fn home(rng: &mut SimRng, observations: &[DeviceObservation]) -> Option<usize> {
    let last = observations.last().map_or(0, |o| o.node);
    match rng.below(3) {
        0 => None,
        1 => Some(pick(rng, &[0, last / 2, last])),
        _ => Some(last + 1 + rng.below(20) as usize),
    }
}

fn tau(rng: &mut SimRng) -> f64 {
    if rng.chance(0.2) {
        1.0
    } else {
        rng.uniform_range(0.05, 1.0)
    }
}

fn network(rng: &mut SimRng) -> NetworkCosts {
    NetworkCosts {
        hop_us: pick(rng, &[0.0, 120.0, 2_000.0, f64::INFINITY]),
        per_block_us: 0.0,
    }
}

/// One manager per policy; cases retune τ and the network in place.
fn managers() -> Vec<Manager> {
    PolicyKind::ALL
        .iter()
        .enumerate()
        .map(|(i, &p)| Manager::new(p, 1.0, pretrain_models(4, 31 + i as u64)))
        .collect()
}

// ---- the sweeps ---------------------------------------------------------

#[test]
fn placement_matches_the_quadratic_reference() {
    let mut managers = managers();
    let mut rng = SimRng::new(0x00E4_0A11);
    let (mut placed, mut vetoed) = (0, 0);
    for case in 0..3_000 {
        let m = &mut managers[case % PolicyKind::ALL.len()];
        m.set_tau(tau(&mut rng));
        m.set_network(network(&mut rng));
        let observations = fleet(&mut rng, 10);
        let w = resident(&mut rng, 1_000_000);
        let home = home(&mut rng, &observations);

        let want = reference_placement(m, &observations, &w, home);
        let got = m.initial_placement_from(&observations, &w, home);
        assert_eq!(
            got,
            want,
            "case {case}: {:?} τ={} home={home:?} over {} stores",
            m.policy(),
            m.tau(),
            observations.len()
        );
        placed += usize::from(want.is_some());
        // The preview changed the outcome: τ = 1 would have placed
        // somewhere else (or somewhere at all).
        let tau = m.tau();
        m.set_tau(1.0);
        vetoed += usize::from(reference_placement(m, &observations, &w, home) != want);
        m.set_tau(tau);
    }
    // The sweep must exercise both outcomes and the τ veto, or it proves
    // nothing about the preview.
    assert!(placed > 500, "only {placed} placements");
    assert!(vetoed > 100, "the τ preview changed only {vetoed} outcomes");
}

#[test]
fn placement_onto_an_empty_slice_is_refused() {
    let mut rng = SimRng::new(5);
    let m = Manager::new(PolicyKind::Bca, 0.3, pretrain_models(4, 5));
    let w = resident(&mut rng, 7);
    assert_eq!(m.initial_placement_from(&[], &w, None), None);
    assert_eq!(m.initial_placement_from(&[], &w, Some(3)), None);
}

#[test]
fn sharded_placement_matches_the_scanning_reference() {
    // One engine per (policy family, τ, shard width), built on first use:
    // the routing under test does not depend on the policy beyond that.
    const POLICIES: [PolicyKind; 2] = [PolicyKind::Pesto, PolicyKind::BcaLazyArch];
    const TAUS: [f64; 3] = [0.15, 0.5, 1.0];
    let mut engines: HashMap<(usize, usize, usize), ShardedPolicyEngine> = HashMap::new();
    let mut rng = SimRng::new(0x5AAD_ED04);
    let mut spilled = 0;
    for case in 0..3_000 {
        let key = (
            rng.below(2) as usize,
            rng.below(3) as usize,
            1 + rng.below(3) as usize,
        );
        let net = network(&mut rng);
        let observations = fleet(&mut rng, 16);
        let w = resident(&mut rng, 1_000_000);
        let home = home(&mut rng, &observations);

        let engine = engines.entry(key).or_insert_with(|| {
            let (p, t, nps) = key;
            let models = pretrain_models(4, 31 + p as u64);
            ShardedPolicyEngine::new(Manager::new(POLICIES[p], TAUS[t], models), nps)
        });
        engine.set_network(net);
        let (want, want_spill) = reference_sharded(engine.inner(), &observations, &w, home, key.2);
        let spills_before = engine.spill_placements();
        let got = engine.initial_placement_from(&observations, &w, home);
        assert_eq!(
            (got, engine.spill_placements() - spills_before),
            (want, u64::from(want_spill)),
            "case {case}: {:?} τ={} nps={} home={home:?} nodes={:?}",
            POLICIES[key.0],
            TAUS[key.1],
            key.2,
            observations.iter().map(|o| o.node).collect::<Vec<_>>()
        );
        spilled += usize::from(want_spill);
    }
    assert!(spilled > 20, "only {spilled} spill placements");
}
