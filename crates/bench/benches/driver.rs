//! Benchmarks of the scenario-parallel driver and the hot-path kernels it
//! leans on: the event-queue `pop_due` fast path, the device-model
//! prediction, the staged buffer-cache probe and eviction, the bus-slowdown lookup
//! table, O(1) report building, one full mix scenario, and grid throughput
//! at 1 vs all workers.
//!
//! `scripts/bench_snapshot.sh` runs this with `CRITERION_JSON_OUT` set and
//! packages the results as `BENCH_driver.json`.

use criterion::{black_box, criterion_group, criterion_main, Criterion};
use nvhsm_cache::{AccessClass, BypassCache, LrfuCache};
use nvhsm_core::manager::{NetworkCosts, PolicyEngine, ResidentInfo};
use nvhsm_core::migration::ActiveMigration;
use nvhsm_core::training::pretrain_models;
use nvhsm_core::{
    shard_summaries, DatastoreId, Manager, MigrationMode, ModelSource, NodeConfig, NodeSim,
    OnlineModelConfig, PolicyKind, RefitPolicy, ServingConfig, ServingSim, ShardedPolicyEngine,
    VmdkId,
};
use nvhsm_device::{DeviceKind, IoOp, IoRequest, SsdConfig, SsdDevice, StorageDevice};
use nvhsm_experiments::mix::{run_mix, MixParams};
use nvhsm_experiments::Scale;
use nvhsm_mem::{AnalyticBus, CalibrationCurve, DramConfig};
use nvhsm_model::Features;
use nvhsm_sim::{parallel, EventQueue, SimDuration, SimRng, SimTime};

fn bench_pop_due(c: &mut Criterion) {
    // 1024 events over 1 ms of virtual time, drained in 2 µs deadline
    // steps (so roughly half the probes hit the fast not-due branch).
    c.bench_function("driver/event_queue_pop_due_1k", |b| {
        let mut rng = SimRng::new(1);
        b.iter(|| {
            let mut q = EventQueue::with_capacity(1024);
            q.reserve(1024);
            for i in 0..1024u64 {
                q.push(SimTime::from_ns(rng.below(1_000_000)), i);
            }
            let mut acc = 0u64;
            let mut now = SimTime::ZERO;
            while !q.is_empty() {
                while let Some((_, e)) = q.pop_due(now) {
                    acc = acc.wrapping_add(e);
                }
                now += SimDuration::from_ns(2_000);
            }
            black_box(acc)
        })
    });
    // Same schedule through the batch `drain_due` API instead of one
    // `pop_due` call per event.
    c.bench_function("driver/event_queue_drain_due_1k", |b| {
        let mut rng = SimRng::new(1);
        let mut batch: Vec<(SimTime, u64)> = Vec::with_capacity(1024);
        b.iter(|| {
            let mut q = EventQueue::with_capacity(1024);
            q.reserve(1024);
            for i in 0..1024u64 {
                q.push(SimTime::from_ns(rng.below(1_000_000)), i);
            }
            let mut acc = 0u64;
            let mut now = SimTime::ZERO;
            while !q.is_empty() {
                batch.clear();
                q.drain_due(now, &mut batch);
                for &(_, e) in &batch {
                    acc = acc.wrapping_add(e);
                }
                now += SimDuration::from_ns(2_000);
            }
            black_box(acc)
        })
    });
    // Baseline: the pre-optimization shape — peek to check the deadline,
    // then pop as a second queue access.
    c.bench_function("driver/event_queue_peek_then_pop_1k", |b| {
        let mut rng = SimRng::new(1);
        b.iter(|| {
            let mut q = EventQueue::with_capacity(1024);
            for i in 0..1024u64 {
                q.push(SimTime::from_ns(rng.below(1_000_000)), i);
            }
            let mut acc = 0u64;
            let mut now = SimTime::ZERO;
            while !q.is_empty() {
                while q.peek().is_some_and(|(t, _)| t <= now) {
                    let (_, e) = q.pop().expect("peeked entry");
                    acc = acc.wrapping_add(e);
                }
                now += SimDuration::from_ns(2_000);
            }
            black_box(acc)
        })
    });
}

fn bench_predict(c: &mut Criterion) {
    let models = pretrain_models(40, 7);
    let mut rng = SimRng::new(8);
    let probes: Vec<Features> = (0..64)
        .map(|_| Features {
            wr_ratio: rng.uniform(),
            oios: rng.uniform() * 16.0,
            ios: 1.0 + rng.uniform() * 7.0,
            wr_rand: rng.uniform(),
            rd_rand: rng.uniform(),
            free_space_ratio: rng.uniform(),
        })
        .collect();
    // An epoch decision predicts each resident's feature vector once per
    // candidate move it evaluates, so every vector is looked up many times
    // per epoch. Model that: 8 passes over the probe set per iteration.
    const PASSES: usize = 8;
    c.bench_function("driver/predict_uncached_64x8", |b| {
        let model = models.model(DeviceKind::Ssd);
        b.iter(|| {
            let mut acc = 0.0;
            for _ in 0..PASSES {
                for f in &probes {
                    acc += model.predict(f);
                }
            }
            black_box(acc)
        })
    });
    // The online source with a learned correction installed: the worst
    // case the epoch-decision hot path can hit (base-tree walk plus one
    // residual-tree walk per prediction).
    let mut online = ModelSource::new(
        models.clone(),
        Some(OnlineModelConfig {
            policy: RefitPolicy::Periodic,
            refit_every: 1,
            min_refit_samples: 16,
            ..OnlineModelConfig::default()
        }),
    );
    for f in &probes {
        let truth = online.base().predict_us(DeviceKind::Ssd, f) + 150.0;
        online.observe(DeviceKind::Ssd, f, truth);
    }
    online.end_epoch();
    assert!(online.has_correction(DeviceKind::Ssd));
    c.bench_function("driver/predict_online_64x8", |b| {
        b.iter(|| {
            let mut acc = 0.0;
            for _ in 0..PASSES {
                for f in &probes {
                    acc += online.predict(DeviceKind::Ssd, f);
                }
            }
            black_box(acc)
        })
    });
}

fn bench_cache_probe(c: &mut Criterion) {
    // The staged datapath probes the node's buffer cache on every
    // foreground request before device submission, so the warm-hit probe
    // is a per-request kernel like the prediction above. Same
    // shape: 64 resident blocks, 8 passes per iteration.
    const PASSES: usize = 8;
    const WORKING_SET: u64 = 64;
    c.bench_function("driver/cache_hit_64x8", |b| {
        let mut cache = BypassCache::new(LrfuCache::new(512, 0.05));
        for blk in 0..WORKING_SET {
            cache.access_classified(blk, false, AccessClass::Normal);
        }
        b.iter(|| {
            let mut hits = 0u64;
            for _ in 0..PASSES {
                for blk in 0..WORKING_SET {
                    let out = cache.access_classified(blk, false, AccessClass::Normal);
                    hits += out.hit as u64;
                }
            }
            black_box(hits)
        })
    });
    // The eviction-heavy side: node_mix's 4,096-block LRFU at λ = 0.05
    // under random probes over a 20,480-block working set, so about four
    // probes in five miss and evict the heap root. Each iteration takes
    // the next 1,024 probes of a 64 Ki-probe ring (sixteen cache
    // capacities), so replays of the ring stay a random stream rather
    // than settling into a resident set.
    c.bench_function("driver/cache_miss_evict_4k", |b| {
        const CAPACITY: usize = 4096;
        const RING: usize = 1 << 16;
        const STEP: usize = 1024;
        let mut rng = SimRng::new(5);
        let probes: Vec<(u64, bool)> = (0..RING)
            .map(|_| (rng.below(20_480), rng.below(4) == 0))
            .collect();
        let mut cache = BypassCache::new(LrfuCache::new(CAPACITY, 0.05));
        for &(blk, write) in &probes {
            cache.access_classified(blk, write, AccessClass::Normal);
        }
        let mut cursor = 0;
        b.iter(|| {
            let mut evictions = 0u64;
            for &(blk, write) in &probes[cursor..cursor + STEP] {
                let out = cache.access_classified(blk, write, AccessClass::Normal);
                evictions += out.evicted.is_some() as u64;
            }
            cursor = (cursor + STEP) % RING;
            black_box(evictions)
        })
    });
    // The sweep side of Fig. 15: migration-class probes take the bypass
    // branch, touching counters but never the replacement state.
    c.bench_function("driver/cache_bypass_64x8", |b| {
        let mut cache = BypassCache::new(LrfuCache::new(512, 0.05));
        for blk in 0..WORKING_SET {
            cache.access_classified(blk, false, AccessClass::Normal);
        }
        b.iter(|| {
            let mut hits = 0u64;
            for _ in 0..PASSES {
                for blk in 0..WORKING_SET {
                    let out = cache.access_classified(blk, false, AccessClass::Migrated);
                    hits += out.hit as u64;
                }
            }
            black_box(hits)
        })
    });
}

fn bench_bus_lut(c: &mut Criterion) {
    let bus = AnalyticBus::new(&DramConfig::ddr3_1600());
    c.bench_function("driver/bus_slowdown_lut_1k", |b| {
        b.iter(|| {
            let mut acc = 0.0;
            for i in 0..1000 {
                acc += bus.slowdown(i as f64 / 1000.0);
            }
            black_box(acc)
        })
    });
    // Baseline: the segment-scanning curve interpolation the LUT replaced.
    let curve = CalibrationCurve::processor_sharing();
    c.bench_function("driver/bus_slowdown_exact_1k", |b| {
        b.iter(|| {
            let mut acc = 0.0;
            for i in 0..1000 {
                acc += curve.slowdown(i as f64 / 1000.0);
            }
            black_box(acc)
        })
    });
}

fn bench_report_build(c: &mut Criterion) {
    // The series are Arc-shared into the report, so building one is O(1)
    // in series length; this measures exactly the end-of-run path.
    let mut cfg = NodeConfig::small();
    cfg.policy = PolicyKind::Bca;
    cfg.train_requests = 40;
    let mut sim = NodeSim::new(cfg, 42);
    for p in nvhsm_workload::hibench::all_profiles().into_iter().take(3) {
        let blocks = p.working_set_blocks / 16;
        sim.add_workload(p.with_working_set(blocks));
    }
    sim.run_secs(2);
    c.bench_function("driver/report_build", |b| {
        b.iter(|| black_box(sim.run(SimDuration::ZERO)))
    });
    // Baseline: what the pre-Arc report build paid — a deep copy of every
    // series the run accumulated.
    c.bench_function("driver/report_build_deepcopy", |b| {
        b.iter(|| {
            let r = sim.run(SimDuration::ZERO);
            black_box((
                r.nvdimm_hit_ratio.to_vec(),
                r.nvdimm_latency_series.to_vec(),
                r.bus_utilization_series.to_vec(),
                r.migration_log.to_vec(),
            ))
        })
    });
}

fn bench_replay_journal(c: &mut Criterion) {
    // The crash-recovery hot kernel: rebuilding a suspended migration's
    // location map from the journaled checkpoint. 256 Ki blocks (a 1 GiB
    // VMDK) with half the copy done at checkpoint time, further progress
    // and scattered dirty/stale traffic lost to the crash.
    const BLOCKS: u64 = 262_144;
    let mut m = ActiveMigration::new(
        VmdkId(0),
        DatastoreId(0),
        DatastoreId(1),
        MigrationMode::Mirror,
        BLOCKS,
        SimTime::ZERO,
    );
    let mut rng = SimRng::new(3);
    for _ in 0..BLOCKS / 2 {
        if let Some(b) = m.next_copy_block() {
            m.record_copied(b);
        }
    }
    let journal = (m.bitmap.clone(), m.cursor);
    for _ in 0..BLOCKS / 4 {
        if let Some(b) = m.next_copy_block() {
            m.record_copied(b);
        }
    }
    for _ in 0..4_096 {
        m.record_mirrored_write(rng.below(BLOCKS));
        m.record_stale_write(rng.below(BLOCKS));
    }
    let crashed = m;
    c.bench_function("driver/replay_journal_256k", |b| {
        b.iter(|| {
            let mut m = crashed.clone();
            let dropped = m.crash_restore(Some((&journal.0, journal.1)));
            black_box((m.bitmap.count_set(), dropped))
        })
    });
}

fn bench_shard_scan(c: &mut Criterion) {
    // The serving-plane placement kernel at datacenter scale: a warm
    // 1,000-node fleet (3,000 datastores) with load spread across it, one
    // arriving VMDK to place. The sharded engine scans its home shard
    // (5 nodes = 15 stores); the 50-node engine scans fleet_churn's
    // 150-store home shard, where the O(shard²) float adds of the Eq. 4
    // averages show; the flat manager scans all 3,000 stores.
    let mut cfg = ServingConfig::small(1000);
    cfg.train_requests = 20;
    let mut sim = ServingSim::new(cfg);
    for t in 0..600u32 {
        let spec = nvhsm_workload::tenant::TenantSpec {
            tenant: t,
            home_node: (t as usize * 37) % 1000,
            slo_us: 2_000.0,
            class: nvhsm_workload::tenant::TenantClass::Standard,
            vmdks: vec![nvhsm_workload::tenant::VmdkDemand {
                blocks: 20_000,
                iops: 120.0,
                wr_ratio: 0.3,
                rd_rand: 0.6,
                wr_rand: 0.4,
                mean_size_blocks: 8.0,
            }],
        };
        let _ = sim.admit_tenant(&spec);
    }
    sim.run_epoch();
    let obs = sim.observations();

    let net = NetworkCosts {
        hop_us: 120.0,
        per_block_us: 0.0,
    };
    let mut sharded = ShardedPolicyEngine::new(
        Manager::new(PolicyKind::Pesto, 1.0, pretrain_models(20, 11)),
        5,
    );
    sharded.set_network(net);
    let mut shard50 = ShardedPolicyEngine::new(
        Manager::new(PolicyKind::Pesto, 1.0, pretrain_models(20, 11)),
        50,
    );
    shard50.set_network(net);
    let mut flat = Manager::new(PolicyKind::Pesto, 1.0, pretrain_models(20, 11));
    flat.set_network(net);

    let base = 120.0;
    let arrival = ResidentInfo {
        vmdk: VmdkId(1_000_000),
        size_blocks: 20_000,
        features: Features {
            wr_ratio: 0.3,
            oios: 120.0 * base * 1e-6,
            ios: 8.0,
            wr_rand: 0.4,
            rd_rand: 0.6,
            free_space_ratio: 1.0,
        },
        io_count: 7_200,
        mean_latency_us: base,
        live_blocks: 57_600,
    };

    c.bench_function("driver/shard_summaries_3k_stores", |b| {
        b.iter(|| black_box(shard_summaries(obs, 5)))
    });
    c.bench_function("driver/placement_scan_1k_sharded", |b| {
        b.iter(|| black_box(sharded.initial_placement_from(obs, &arrival, Some(500))))
    });
    c.bench_function("driver/placement_scan_1k_shard50", |b| {
        b.iter(|| black_box(shard50.initial_placement_from(obs, &arrival, Some(500))))
    });
    // Baseline: the O(cluster) scan sharding replaces.
    c.bench_function("driver/placement_scan_1k_flat", |b| {
        b.iter(|| black_box(flat.initial_placement_from(obs, &arrival, Some(500))))
    });
}

/// A deliberately small device-level scenario for grid-throughput runs.
fn small_scenario(seed: u64) -> f64 {
    let mut dev = SsdDevice::new(SsdConfig::small_test());
    dev.prefill(0..dev.logical_blocks() / 4);
    let mut rng = SimRng::new(seed);
    let mut t = SimTime::ZERO;
    let mut sum = 0.0;
    let span = dev.logical_blocks() / 4;
    for i in 0..2_000u64 {
        let op = if i % 4 == 0 { IoOp::Write } else { IoOp::Read };
        let c = dev
            .try_submit(&IoRequest::normal(0, rng.below(span), 2, op, t))
            .expect("no fault hook installed");
        sum += c.latency.as_us_f64();
        t += SimDuration::from_us(30);
    }
    sum
}

fn bench_grid(c: &mut Criterion) {
    const TASKS: usize = 16;
    let mut group = c.benchmark_group("driver");
    group.sample_size(10);
    group.bench_function("grid_16_jobs1", |b| {
        parallel::set_jobs(Some(1));
        b.iter(|| {
            let out = parallel::map_grid((0..TASKS as u64).collect(), small_scenario);
            black_box(out)
        });
        parallel::set_jobs(None);
    });
    group.bench_function("grid_16_jobs_all", |b| {
        parallel::set_jobs(None);
        b.iter(|| {
            let out = parallel::map_grid((0..TASKS as u64).collect(), small_scenario);
            black_box(out)
        })
    });
    group.finish();
}

fn bench_single_scenario(c: &mut Criterion) {
    // One full standard-mix scenario at Quick scale: the unit of work the
    // driver fans out. Quick covers 8 simulated seconds of measured window,
    // so ns/iter ÷ 8e3 gives ns per simulated millisecond.
    let mut group = c.benchmark_group("driver");
    group.sample_size(2);
    group.bench_function("single_scenario_quick_8sim_s", |b| {
        b.iter(|| black_box(run_mix(MixParams::standard(PolicyKind::Bca), Scale::Quick)))
    });
    group.finish();
}

criterion_group!(
    benches,
    bench_pop_due,
    bench_predict,
    bench_cache_probe,
    bench_bus_lut,
    bench_report_build,
    bench_replay_journal,
    bench_shard_scan,
    bench_grid,
    bench_single_scenario
);
criterion_main!(benches);
