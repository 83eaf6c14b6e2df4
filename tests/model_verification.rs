//! Cross-crate integration: the §4 model pipeline — train on synthetic
//! contention-free workloads, predict live device behaviour, isolate bus
//! contention (the Fig. 7 property).

use nvdimm_hsm::core::pretrain_models;
use nvdimm_hsm::device::{DeviceKind, IoOp, IoRequest, NvdimmConfig, NvdimmDevice, StorageDevice};
use nvdimm_hsm::model::{ContentionEstimator, Features};
use nvdimm_hsm::sim::{SimDuration, SimRng, SimTime};

fn epoch_features(
    stats: &nvdimm_hsm::device::EpochStats,
    free_space: f64,
    baseline_us: f64,
) -> Features {
    Features {
        wr_ratio: stats.wr_ratio(),
        // Issue concurrency: latency-derived OIO would leak contention
        // into the feature vector.
        oios: stats.oio_at(baseline_us),
        ios: stats.mean_ios_blocks(),
        wr_rand: stats.wr_rand(),
        rd_rand: stats.rd_rand(),
        free_space_ratio: free_space,
    }
}

/// Drives one epoch of a mixed workload; returns (features, measured µs).
fn drive_epoch(
    dev: &mut NvdimmDevice,
    rng: &mut SimRng,
    start: SimTime,
    util: f64,
    baseline_us: f64,
) -> (Features, f64) {
    dev.set_ambient_bus_utilization(util);
    let mut t = start;
    let end = start + SimDuration::from_ms(200);
    while t < end {
        let block = rng.below(30_000);
        let op = if rng.chance(0.3) {
            IoOp::Write
        } else {
            IoOp::Read
        };
        dev.try_submit(&IoRequest::normal(0, block, 1, op, t))
            .expect("no fault hook installed");
        t += SimDuration::from_us(300);
    }
    let stats = dev.stats_mut().take_epoch(end);
    let f = epoch_features(&stats, dev.free_space_ratio(), baseline_us);
    (f, stats.mean_latency_us())
}

#[test]
fn model_tracks_contention_free_behaviour() {
    let models = pretrain_models(60, 7);
    let model = models.model(DeviceKind::Nvdimm);
    let mut dev = NvdimmDevice::new(NvdimmConfig::small_test());
    dev.prefill(0..30_000);
    let mut rng = SimRng::new(9);
    let mut t = SimTime::ZERO;
    let baseline = models.baseline_us(DeviceKind::Nvdimm);
    let mut total_err = 0.0;
    let mut n = 0.0;
    for _ in 0..10 {
        let (f, measured) = drive_epoch(&mut dev, &mut rng, t, 0.0, baseline);
        t += SimDuration::from_ms(200);
        let predicted = model.predict(&f);
        total_err += ((predicted - measured) / measured).abs();
        n += 1.0;
    }
    let mape = total_err / n;
    assert!(
        mape < 0.35,
        "contention-free model error {:.0}%",
        mape * 100.0
    );
}

#[test]
fn contention_estimate_rises_with_bus_utilization() {
    let models = pretrain_models(60, 7);
    let model = models.model(DeviceKind::Nvdimm);
    let mut dev = NvdimmDevice::new(NvdimmConfig::small_test());
    dev.prefill(0..30_000);
    let mut rng = SimRng::new(13);
    let mut estimator = ContentionEstimator::new();
    let mut t = SimTime::ZERO;

    let baseline = models.baseline_us(DeviceKind::Nvdimm);
    let mut bc_by_util = Vec::new();
    for &util in &[0.0, 0.4, 0.8] {
        let mut acc = 0.0;
        for _ in 0..4 {
            let (f, measured) = drive_epoch(&mut dev, &mut rng, t, util, baseline);
            t += SimDuration::from_ms(200);
            acc += estimator.observe(model, &f, measured);
        }
        bc_by_util.push(acc / 4.0);
    }
    assert!(
        bc_by_util[2] > bc_by_util[1] && bc_by_util[1] > bc_by_util[0],
        "BC not increasing with utilization: {bc_by_util:?}"
    );
    assert!(
        bc_by_util[2] > 50.0,
        "BC at heavy traffic too small: {bc_by_util:?}"
    );
    assert!(estimator.epochs() == 12);
}

#[test]
fn tier_characteristics_ordered() {
    let models = pretrain_models(40, 21);
    let nv = models.baseline_us(DeviceKind::Nvdimm);
    let ssd = models.baseline_us(DeviceKind::Ssd);
    let hdd = models.baseline_us(DeviceKind::Hdd);
    assert!(
        nv < ssd && ssd < hdd,
        "tiers out of order: {nv} {ssd} {hdd}"
    );
    // Streaming unit costs: SSD readahead hides NAND reads behind the
    // controller path; the HDD streams at the media rate.
    assert!(models.seq_block_us(DeviceKind::Hdd) < 1_000.0);
}
