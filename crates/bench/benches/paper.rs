//! One benchmark group per paper table/figure (the regeneration machinery),
//! plus the DESIGN.md ablations.

use criterion::{black_box, criterion_group, criterion_main, BenchmarkId, Criterion};
use nvhsm_cache::{AccessClass, BufferCache, BypassCache, LrfuCache};
use nvhsm_device::{
    HddConfig, HddDevice, IoOp, IoRequest, NvdimmConfig, NvdimmDevice, SsdConfig, SsdDevice,
    StorageDevice,
};
use nvhsm_flash::sched::{simulate, SchedConfig, SchedPolicy, WriteClass, WriteRequest};
use nvhsm_mem::{AnalyticBus, BusModel, DramConfig, DramSystem};
use nvhsm_model::{
    Dataset, Features, LinearRegression, PerfModel, RegTreeConfig, RegressionTree, Sample,
};
use nvhsm_sim::{SimDuration, SimRng, SimTime};
use nvhsm_workload::synthetic::training_grid;

/// Fig. 5 (a/b/d): device latency sweeps.
fn bench_fig5(c: &mut Criterion) {
    let mut group = c.benchmark_group("fig5_device_sweeps");
    group.bench_function("ssd_random_reads", |b| {
        let mut rng = SimRng::new(11);
        b.iter(|| {
            let mut dev = SsdDevice::new(SsdConfig::small_test());
            dev.prefill(0..100_000);
            let mut t = SimTime::ZERO;
            for _ in 0..200 {
                let req = IoRequest::normal(0, rng.below(100_000), 1, IoOp::Read, t);
                t = dev.try_submit(&req).expect("no fault hook installed").done;
            }
            black_box(t)
        })
    });
    group.bench_function("hdd_random_reads", |b| {
        let mut rng = SimRng::new(12);
        b.iter(|| {
            let mut dev = HddDevice::new(HddConfig::small_test());
            let mut t = SimTime::ZERO;
            for _ in 0..100 {
                let req = IoRequest::normal(0, rng.below(500_000), 1, IoOp::Read, t);
                t = dev.try_submit(&req).expect("no fault hook installed").done;
            }
            black_box(t)
        })
    });
    for util in [0.0f64, 0.6] {
        group.bench_with_input(
            BenchmarkId::new("nvdimm_reads_at_util", format!("{util:.1}")),
            &util,
            |b, &util| {
                let mut rng = SimRng::new(13);
                b.iter(|| {
                    let mut dev = NvdimmDevice::new(NvdimmConfig::small_test());
                    dev.prefill(0..50_000);
                    dev.set_ambient_bus_utilization(util);
                    let mut t = SimTime::ZERO;
                    for _ in 0..200 {
                        let req = IoRequest::normal(0, rng.below(50_000), 1, IoOp::Read, t);
                        t = dev.try_submit(&req).expect("no fault hook installed").done;
                    }
                    black_box(t)
                })
            },
        );
    }
    group.finish();
}

/// Table 3 / Fig. 6 + Fig. 7: regression-tree construction and training.
fn bench_model_pipeline(c: &mut Criterion) {
    let mut group = c.benchmark_group("fig7_model");
    let grid = training_grid();
    let mut rng = SimRng::new(14);
    let data: Dataset = grid
        .iter()
        .map(|s| Sample {
            features: Features {
                wr_ratio: s.wr_ratio,
                oios: rng.uniform() * 8.0,
                ios: s.size_blocks as f64,
                wr_rand: s.wr_rand,
                rd_rand: s.rd_rand,
                free_space_ratio: rng.uniform(),
            },
            latency_us: 30.0 + 200.0 * s.rd_rand + 10.0 * s.size_blocks as f64,
        })
        .collect();
    group.bench_function("train_on_grid", |b| {
        b.iter(|| black_box(PerfModel::train(&data)))
    });
    group.finish();
}

/// Fig. 9/10/14: the scheduling policy simulator.
fn bench_fig14(c: &mut Criterion) {
    let mut group = c.benchmark_group("fig14_sched");
    let trace: Vec<WriteRequest> = {
        let mut rng = SimRng::new(15);
        (0..800u64)
            .map(|i| WriteRequest {
                id: i,
                class: if rng.chance(0.4) {
                    WriteClass::Migrated
                } else {
                    WriteClass::Persistent
                },
                channel: rng.below(16) as usize,
                epoch: (i / 8) as u32,
                arrival: SimTime::from_us(i * 8),
                addr: rng.below(1 << 20) * 4096,
            })
            .collect()
    };
    for policy in [
        SchedPolicy::Baseline,
        SchedPolicy::PolicyOne,
        SchedPolicy::PolicyTwo,
        SchedPolicy::Both,
        SchedPolicy::BothNpBarrier,
    ] {
        group.bench_with_input(
            BenchmarkId::new("simulate", format!("{policy:?}")),
            &policy,
            |b, &policy| b.iter(|| black_box(simulate(&SchedConfig::table4(), &trace, policy))),
        );
    }
    group.finish();
}

/// Fig. 15/16: cache bypassing under a migration sweep.
fn bench_fig15(c: &mut Criterion) {
    let mut group = c.benchmark_group("fig15_bypass");
    for bypass in [false, true] {
        group.bench_with_input(
            BenchmarkId::new("sweep", if bypass { "bypass" } else { "plain" }),
            &bypass,
            |b, &bypass| {
                let mut rng = SimRng::new(16);
                b.iter(|| {
                    let mut cache = BypassCache::new(LrfuCache::new(512, 0.05));
                    for i in 0..5_000u64 {
                        cache.access_classified(rng.below(400), false, AccessClass::Normal);
                        let class = if bypass {
                            AccessClass::Migrated
                        } else {
                            AccessClass::Normal
                        };
                        cache.access_classified(1_000_000 + i, false, class);
                    }
                    black_box(cache.hit_ratio())
                })
            },
        );
    }
    group.finish();
}

/// DESIGN.md ablation: regression tree vs plain linear regression vs the
/// OIO-only aggregation model (the paper's §4.4 argument).
fn bench_model_ablation(c: &mut Criterion) {
    let mut group = c.benchmark_group("model_ablation");
    let mut rng = SimRng::new(17);
    let samples: Vec<Sample> = (0..400)
        .map(|_| {
            let f = Features {
                wr_ratio: rng.uniform(),
                oios: rng.uniform() * 16.0,
                ios: 1.0 + rng.uniform() * 15.0,
                wr_rand: rng.uniform(),
                rd_rand: rng.uniform(),
                free_space_ratio: rng.uniform(),
            };
            Sample {
                features: f,
                latency_us: 25.0
                    + 300.0 * f.rd_rand * f.rd_rand
                    + 8.0 * f.oios
                    + if f.free_space_ratio < 0.2 { 150.0 } else { 0.0 },
            }
        })
        .collect();
    group.bench_function("regression_tree", |b| {
        b.iter(|| black_box(RegressionTree::fit(&samples, &RegTreeConfig::default())))
    });
    group.bench_function("linear_regression", |b| {
        b.iter(|| black_box(LinearRegression::fit(&samples)))
    });
    group.finish();
}

/// DESIGN.md ablation: detailed bank-level bus vs calibrated analytic bus.
fn bench_bus_models(c: &mut Criterion) {
    let mut group = c.benchmark_group("bus_models");
    group.bench_function("detailed_transfer", |b| {
        b.iter(|| {
            let mut sys = DramSystem::new(DramConfig::single_channel());
            let mut t = SimTime::ZERO;
            for _ in 0..64 {
                let out = sys.nvdimm_transfer(0, 4096, t);
                t = out.done + SimDuration::from_us(1);
            }
            black_box(t)
        })
    });
    group.bench_function("analytic_transfer", |b| {
        let bus = AnalyticBus::new(&DramConfig::ddr3_1600());
        b.iter(|| {
            let mut acc = SimDuration::ZERO;
            for i in 0..64 {
                acc += bus.transfer_time(4096, (i % 10) as f64 / 10.0);
            }
            black_box(acc)
        })
    });
    group.finish();
}

criterion_group!(
    benches,
    bench_fig5,
    bench_model_pipeline,
    bench_fig14,
    bench_fig15,
    bench_model_ablation,
    bench_bus_models
);
criterion_main!(benches);
