//! Training and verifying the §4 performance model: fit the regression
//! tree on contention-free synthetic workloads, then watch `BC = MP − PP`
//! isolate the memory-bus contention on a live NVDIMM (the Fig. 7 setup).
//!
//! Run with: `cargo run --release --example model_training`

use nvdimm_hsm::core::pretrain_models;
use nvdimm_hsm::device::{DeviceKind, IoOp, IoRequest, NvdimmConfig, NvdimmDevice, StorageDevice};
use nvdimm_hsm::model::{ContentionEstimator, Features};
use nvdimm_hsm::sim::{SimDuration, SimRng, SimTime};
use nvdimm_hsm::workload::{SpecProgram, SpecTraffic};

fn main() {
    println!("pretraining device models on the synthetic grid…");
    let models = pretrain_models(80, 42);
    for kind in [DeviceKind::Nvdimm, DeviceKind::Ssd, DeviceKind::Hdd] {
        println!(
            "  {:6} baseline {:8.1} µs, OIO slope {:6.1} µs, streaming {:6.1} µs/blk",
            kind.to_string(),
            models.baseline_us(kind),
            models.slope_us_per_oio(kind),
            models.seq_block_us(kind)
        );
    }

    // Live phase: an NVDIMM under fluctuating mcf memory traffic.
    let model = models.model(DeviceKind::Nvdimm);
    let mut estimator = ContentionEstimator::new();
    let mut dev = NvdimmDevice::new(NvdimmConfig::small_test());
    dev.prefill(0..40_000);
    let spec = SpecTraffic::new(SpecProgram::Mcf429);
    let mut rng = SimRng::new(7);

    println!("\nepoch  util  measured(µs)  predicted(µs)  contention(µs)");
    let epoch = SimDuration::from_ms(200);
    let mut t = SimTime::ZERO;
    for e in 0..16 {
        let util = spec.utilization_at(t + epoch / 2);
        dev.set_ambient_bus_utilization(util);
        let end = t + epoch;
        while t < end {
            let block = rng.below(40_000);
            let op = if rng.chance(0.3) {
                IoOp::Write
            } else {
                IoOp::Read
            };
            dev.try_submit(&IoRequest::normal(0, block, 1, op, t))
                .expect("no fault hook installed");
            t += SimDuration::from_us(400);
        }
        let stats = dev.stats_mut().take_epoch(t);
        if stats.io_count() == 0 {
            continue;
        }
        let features = Features {
            wr_ratio: stats.wr_ratio(),
            oios: stats.oio(),
            ios: stats.mean_ios_blocks(),
            wr_rand: stats.wr_rand(),
            rd_rand: stats.rd_rand(),
            free_space_ratio: dev.free_space_ratio(),
        };
        let measured = stats.mean_latency_us();
        let bc = estimator.observe(model, &features, measured);
        println!(
            "{e:>5}  {util:>4.2}  {measured:>12.1}  {:>13.1}  {bc:>14.1}",
            model.predict(&features)
        );
    }
    println!(
        "\nmean contention estimate over the run: {:.1} µs (Eq. 3: BC = MP − PP)",
        estimator.mean_us()
    );
}
