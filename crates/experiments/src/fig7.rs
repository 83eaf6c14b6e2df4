//! Fig. 7 — model verification: the predicted NVDIMM latency tracks the
//! measured latency *without* memory traffic, while the measured latency
//! *with* traffic deviates hugely; model error stays small even at 10 %
//! free space (GC territory).

use crate::harness::{ExperimentResult, Row, Scale};
use nvhsm_core::pretrain_models;
use nvhsm_device::{DeviceKind, IoOp, IoRequest, NvdimmConfig, NvdimmDevice, StorageDevice};
use nvhsm_model::{mape, Features, PerfModel};
use nvhsm_sim::{SimDuration, SimRng, SimTime};
use nvhsm_workload::{GenOp, IoGenerator, SpecProgram, SpecTraffic, WorkloadProfile};

struct Panel {
    predicted: Vec<f64>,
    with_traffic: Vec<f64>,
    without_traffic: Vec<f64>,
}

/// Drives twin NVDIMMs (same workload; one under mcf interference, one
/// quiet) and predicts per epoch from the quiet device's features.
fn run_panel(model: &PerfModel, initial_fill: f64, scale: Scale, seed: u64) -> Panel {
    let cfg = NvdimmConfig::small_test();
    let mut noisy = NvdimmDevice::new(cfg.clone());
    let mut quiet = NvdimmDevice::new(cfg);
    let logical = noisy.logical_blocks();
    let filled = ((logical as f64 * initial_fill) as u64).max(1);
    noisy.prefill(0..filled);
    quiet.prefill(0..filled);

    let profile = WorkloadProfile {
        name: "fig7".into(),
        wr_ratio: 0.35,
        rd_rand: 0.6,
        wr_rand: 0.6,
        mean_size_blocks: 2.0,
        max_size_blocks: 8,
        iops: 1500.0,
        working_set_blocks: filled,
        zipf_theta: 0.0,
        ..WorkloadProfile::default()
    };
    let mut generator = IoGenerator::new(profile, SimRng::new(seed));
    let spec = SpecTraffic::with_period(SpecProgram::Mcf429, SimDuration::from_ms(800));

    let epoch = SimDuration::from_ms(100);
    let epochs = 10 * scale.horizon_secs() as usize;
    let mut panel = Panel {
        predicted: Vec::new(),
        with_traffic: Vec::new(),
        without_traffic: Vec::new(),
    };
    let mut next_epoch = SimTime::ZERO + epoch;
    let mut served = 0usize;
    loop {
        let (when, gen) = generator.next_request();
        while when >= next_epoch {
            // Close the epoch on both devices.
            let e_noisy = noisy.stats_mut().take_epoch(next_epoch);
            let e_quiet = quiet.stats_mut().take_epoch(next_epoch);
            if e_quiet.io_count() > 0 {
                let features = Features {
                    wr_ratio: e_quiet.wr_ratio(),
                    oios: e_quiet.oio(),
                    ios: e_quiet.mean_ios_blocks(),
                    wr_rand: e_quiet.wr_rand(),
                    rd_rand: e_quiet.rd_rand(),
                    free_space_ratio: quiet.free_space_ratio(),
                };
                panel.predicted.push(model.predict(&features));
                panel.with_traffic.push(e_noisy.mean_latency_us());
                panel.without_traffic.push(e_quiet.mean_latency_us());
            }
            next_epoch += epoch;
            if panel.predicted.len() >= epochs {
                return panel;
            }
        }
        noisy.set_ambient_bus_utilization(spec.utilization_at(when));
        let op = match gen.op {
            GenOp::Read => IoOp::Read,
            GenOp::Write => IoOp::Write,
        };
        let req = IoRequest::normal(0, gen.offset, gen.size_blocks, op, when);
        noisy.try_submit(&req).expect("no fault hook installed");
        quiet.try_submit(&req).expect("no fault hook installed");
        served += 1;
        if served > 4_000_000 {
            return panel; // safety net
        }
    }
}

/// Runs both panels (100 % and 10 % initial free space).
pub fn run(scale: Scale) -> ExperimentResult {
    let models = pretrain_models(scale.train_requests(), 77);
    let model = models.model(DeviceKind::Nvdimm);

    let mut result = ExperimentResult::new(
        "fig7",
        "Model verification: predicted vs measured NVDIMM latency (Fig. 7)",
        vec![
            "err_vs_quiet".into(),
            "traffic_dev".into(),
            "mean_pred".into(),
            "mean_quiet".into(),
            "mean_noisy".into(),
        ],
    );

    for (label, fill) in [("a_100pct_free", 0.05), ("b_10pct_free", 0.90)] {
        let p = run_panel(model, fill, scale, 7);
        let err = mape(
            p.predicted
                .iter()
                .cloned()
                .zip(p.without_traffic.iter().cloned()),
        );
        let traffic_dev = mape(
            p.with_traffic
                .iter()
                .cloned()
                .zip(p.without_traffic.iter().cloned()),
        );
        let mean = |v: &[f64]| v.iter().sum::<f64>() / v.len().max(1) as f64;
        result.push_row(Row::new(
            label,
            vec![
                err,
                traffic_dev,
                mean(&p.predicted),
                mean(&p.without_traffic),
                mean(&p.with_traffic),
            ],
        ));
        result.note(format!(
            "{label}: model error {:.1}% vs contention-free truth; bus contention deviates {:.0}% (paper: ~5% error, huge contention deviation)",
            err * 100.0,
            traffic_dev * 100.0
        ));
    }
    result
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn model_tracks_quiet_latency_and_contention_deviates() {
        let r = run(Scale::Quick);
        for row in &r.rows {
            let err = row.values[0];
            let traffic_dev = row.values[1];
            assert!(
                err < 0.25,
                "{}: model error {:.1}% too large",
                row.label,
                err * 100.0
            );
            assert!(
                traffic_dev > err * 1.5,
                "{}: contention deviation {:.2} not clearly above model error {:.2}",
                row.label,
                traffic_dev,
                err
            );
        }
    }
}
