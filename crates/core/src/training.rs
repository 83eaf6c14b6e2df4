//! Offline pretraining of the §4 performance model, one per device tier.
//!
//! The paper trains its black-box model on synthetic workloads spanning
//! the Eq. 2 feature space, measured *without* memory interference. We do
//! the same: scratch devices (not the ones used in the experiment) are
//! driven by the [`nvhsm_workload::synthetic`] grid at several fill levels,
//! and the observed `(features, latency)` pairs fit one
//! [`PerfModel`] per device kind. Baseline per-device characteristics
//! (idle latency, latency-vs-OIO slope) for the BASIL/Pesto-style what-if
//! models are measured in the same pass.

use nvhsm_device::{
    DeviceKind, HddConfig, HddDevice, IoOp, IoRequest, NvdimmConfig, NvdimmDevice, SsdConfig,
    SsdDevice, StorageDevice,
};
use nvhsm_model::{Dataset, Features, PerfModel, Sample};
use nvhsm_sim::{SimDuration, SimRng, SimTime};
use nvhsm_workload::synthetic::training_grid;
use nvhsm_workload::{GenOp, IoGenerator};

/// Dense index of a device kind into the per-kind tables below. The
/// tables are plain arrays rather than maps: `predict_us` sits on the
/// epoch-decision hot path, and hashing even a one-byte enum key per
/// call used to cost more than the tree walk itself.
pub(crate) const fn kind_index(kind: DeviceKind) -> usize {
    match kind {
        DeviceKind::Nvdimm => 0,
        DeviceKind::Ssd => 1,
        DeviceKind::Hdd => 2,
    }
}

/// Trained models plus baseline characteristics per device kind, all
/// indexed by `kind_index`.
#[derive(Debug, Clone)]
pub struct DeviceModels {
    models: [PerfModel; 3],
    /// Idle (low-load, contention-free) mean latency per kind, µs.
    baselines: [f64; 3],
    /// Marginal latency per outstanding I/O, µs (the Pesto-style LQ
    /// slope used for baseline what-if estimates).
    slopes: [f64; 3],
    /// Per-block sequential streaming latency per kind, µs — what a bulk
    /// migration copy actually costs (Eq. 6's per-unit terms).
    seq_block: [f64; 3],
}

impl DeviceModels {
    /// The model for `kind`.
    pub fn model(&self, kind: DeviceKind) -> &PerfModel {
        &self.models[kind_index(kind)]
    }

    /// Idle latency of `kind`, µs.
    pub fn baseline_us(&self, kind: DeviceKind) -> f64 {
        self.baselines[kind_index(kind)]
    }

    /// Latency-per-OIO slope of `kind`, µs.
    pub fn slope_us_per_oio(&self, kind: DeviceKind) -> f64 {
        self.slopes[kind_index(kind)]
    }

    /// Per-block sequential streaming latency of `kind`, µs.
    pub fn seq_block_us(&self, kind: DeviceKind) -> f64 {
        self.seq_block[kind_index(kind)]
    }

    /// Model prediction for `kind`, µs: the tree walk of
    /// `self.model(kind).predict(features)`.
    pub fn predict_us(&self, kind: DeviceKind, features: &Features) -> f64 {
        self.models[kind_index(kind)].predict(features)
    }
}

/// One observed (workload characteristics, measured latency) pair, as
/// tapped from the staged datapath's accounting point and handed to the
/// model source at each epoch boundary.
#[derive(Debug, Clone, Copy)]
pub struct ModelObservation {
    /// Device tier the workload was served from.
    pub kind: DeviceKind,
    /// Eq. 2 features of the workload in the closing epoch.
    pub features: Features,
    /// Measured mean service latency over the epoch, µs (the `MP` the
    /// online model learns from).
    pub measured_us: f64,
}

/// What a model source did at an epoch boundary.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum ModelEvent {
    /// The windowed prediction-error statistic crossed its threshold.
    Drift {
        /// Affected device tier.
        kind: DeviceKind,
        /// Page–Hinkley statistic at the crossing, µs.
        stat_us: f64,
        /// The configured threshold λ, µs.
        threshold_us: f64,
    },
    /// A refit of the affected tier's correction tree was installed.
    Refit {
        /// Affected device tier.
        kind: DeviceKind,
        /// Window samples the refit trained on.
        samples: usize,
        /// Mean absolute prediction error over the window before the
        /// refit, µs.
        err_before_us: f64,
        /// Mean absolute prediction error over the window after the
        /// refit, µs.
        err_after_us: f64,
    },
}

/// Cumulative counters of a model source, for reports and metrics.
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct ModelSourceStats {
    /// (features, latency) pairs observed.
    pub observations: u64,
    /// Drift detections.
    pub drifts: u64,
    /// Refits installed.
    pub refits: u64,
    /// Sum of absolute prediction errors at observation time, µs.
    pub err_sum_us: f64,
    /// Errors accumulated into `err_sum_us`.
    pub err_count: u64,
}

impl ModelSourceStats {
    /// Mean absolute prediction error over everything observed, µs.
    pub fn mean_abs_err_us(&self) -> f64 {
        if self.err_count == 0 {
            0.0
        } else {
            self.err_sum_us / self.err_count as f64
        }
    }
}

/// Measures the per-block sequential streaming latency of a fresh device
/// (the unit cost of a bulk migration copy).
fn measure_seq_block_us(kind: DeviceKind) -> f64 {
    let mut dev = scratch_device(kind);
    let span = (dev.logical_blocks() / 4).max(1);
    dev.prefill(0..span);
    let mut t = dev.drained_at();
    let n = 512u64.min(span);
    let start = t;
    for b in 0..n {
        let req = IoRequest::normal(0, b, 1, IoOp::Read, t);
        t = dev.try_submit(&req).expect("no fault hook installed").done;
    }
    ((t - start).as_us_f64() / n as f64).max(1.0)
}

fn scratch_device(kind: DeviceKind) -> Box<dyn StorageDevice> {
    match kind {
        DeviceKind::Nvdimm => Box::new(NvdimmDevice::new(NvdimmConfig::small_test())),
        DeviceKind::Ssd => Box::new(SsdDevice::new(SsdConfig::small_test())),
        DeviceKind::Hdd => Box::new(HddDevice::new(HddConfig::small_test())),
    }
}

/// Runs one synthetic profile against `dev` for `requests` requests and
/// returns the observed feature/latency sample.
fn run_profile(
    dev: &mut dyn StorageDevice,
    profile: nvhsm_workload::WorkloadProfile,
    requests: usize,
    rng: SimRng,
) -> Sample {
    let base_time = dev.drained_at() + SimDuration::from_ms(1);
    let mut generator = IoGenerator::new(profile, rng);
    let mut last_done = base_time;
    for _ in 0..requests {
        let (when, gen) = generator.next_request();
        let arrival = base_time + (when - SimTime::ZERO);
        let op = match gen.op {
            GenOp::Read => IoOp::Read,
            GenOp::Write => IoOp::Write,
        };
        let req = IoRequest::normal(0, gen.offset, gen.size_blocks, op, arrival);
        let completion = dev.try_submit(&req).expect("no fault hook installed");
        last_done = last_done.max(completion.done);
        // Closed-loop backpressure: a saturated device slows the workload
        // down instead of growing an unbounded queue.
        if completion.latency > SimDuration::from_ms(50) {
            generator.fast_forward(SimTime::ZERO + (completion.done - base_time));
        }
    }
    let epoch = dev.stats_mut().take_epoch(last_done);
    Sample {
        features: Features {
            wr_ratio: epoch.wr_ratio(),
            oios: epoch.oio(),
            ios: epoch.mean_ios_blocks(),
            wr_rand: epoch.wr_rand(),
            rd_rand: epoch.rd_rand(),
            free_space_ratio: dev.free_space_ratio(),
        },
        latency_us: epoch.mean_latency_us(),
    }
}

/// Trained characteristics of one device kind.
struct KindCharacteristics {
    model: PerfModel,
    baseline_us: f64,
    slope_us_per_oio: f64,
    seq_block_us: f64,
}

/// Training fill levels per kind: flash devices are additionally trained
/// at a high fill level so the model sees the GC write cliff
/// (free_space_ratio feature).
fn fills_for(kind: DeviceKind) -> &'static [f64] {
    match kind {
        DeviceKind::Hdd => &[0.0],
        _ => &[0.2, 0.9],
    }
}

/// Trains one device kind, consuming one pre-forked RNG per grid point.
fn train_kind(
    kind: DeviceKind,
    requests_per_point: usize,
    rngs: Vec<SimRng>,
) -> KindCharacteristics {
    let mut rngs = rngs.into_iter();
    let mut data = Dataset::new();
    for &fill in fills_for(kind) {
        let mut dev = scratch_device(kind);
        let ws = (dev.logical_blocks() as f64 * 0.2) as u64;
        if fill > 0.0 {
            let filled = (dev.logical_blocks() as f64 * fill) as u64;
            dev.prefill(0..filled);
        } else {
            dev.prefill(0..ws);
        }
        // HDD is slow per request: trim the grid workload volume.
        let reqs = match kind {
            DeviceKind::Hdd => requests_per_point / 2,
            _ => requests_per_point,
        }
        .max(20);
        for spec in training_grid() {
            let mut profile = spec.to_profile(ws);
            if kind == DeviceKind::Hdd {
                // The grid's flash-scale rates would swamp a disk; scale
                // to HDD-feasible rates while keeping relative spread.
                profile.iops = (profile.iops / 20.0).max(20.0);
            }
            data.push(run_profile(
                dev.as_mut(),
                profile,
                reqs,
                rngs.next().expect("one RNG fork per grid point"),
            ));
        }
    }
    let model = PerfModel::train(&data);

    // Baseline + slope from the collected samples: baseline is the mean
    // latency of the lowest-OIO tercile, slope a two-point fit.
    // total_cmp: measured OIOs are finite by construction, but a NaN
    // slipping in should not panic the whole pretraining pass.
    let mut by_oio: Vec<&Sample> = data.samples().iter().collect();
    by_oio.sort_by(|a, b| a.features.oios.total_cmp(&b.features.oios));
    let third = (by_oio.len() / 3).max(1);
    let lo = &by_oio[..third];
    let hi = &by_oio[by_oio.len() - third..];
    let mean = |s: &[&Sample]| -> (f64, f64) {
        let n = s.len() as f64;
        (
            s.iter().map(|x| x.features.oios).sum::<f64>() / n,
            s.iter().map(|x| x.latency_us).sum::<f64>() / n,
        )
    };
    let (oio_lo, lat_lo) = mean(lo);
    let (oio_hi, lat_hi) = mean(hi);
    let slope = if oio_hi > oio_lo {
        ((lat_hi - lat_lo) / (oio_hi - oio_lo)).max(0.0)
    } else {
        0.0
    };
    KindCharacteristics {
        model,
        baseline_us: lat_lo.max(1.0),
        slope_us_per_oio: slope,
        seq_block_us: measure_seq_block_us(kind),
    }
}

/// Trains the per-kind performance models and baseline characteristics.
///
/// `requests_per_point` trades training fidelity for speed; 200 is enough
/// for the management experiments, tests use less.
///
/// The three kinds train as one scenario grid. Their RNG streams are
/// pre-forked serially from `seed` in fixed kind order, so the result is
/// bit-identical whether the kinds run serially or on three workers —
/// and identical to the original single-threaded implementation.
pub fn pretrain_models(requests_per_point: usize, seed: u64) -> DeviceModels {
    const KINDS: [DeviceKind; 3] = [DeviceKind::Nvdimm, DeviceKind::Ssd, DeviceKind::Hdd];
    let mut rng = SimRng::new(seed);
    let grid_len = training_grid().len();
    let tasks: Vec<(DeviceKind, Vec<SimRng>)> = KINDS
        .iter()
        .map(|&kind| {
            let n = fills_for(kind).len() * grid_len;
            (kind, (0..n).map(|_| rng.fork()).collect())
        })
        .collect();
    let trained = nvhsm_sim::parallel::map_grid(tasks, move |(kind, rngs)| {
        train_kind(kind, requests_per_point, rngs)
    });

    // `trained` comes back in KINDS order, which matches `kind_index`.
    debug_assert!(KINDS.iter().enumerate().all(|(i, &k)| kind_index(k) == i));
    let mut it = trained.into_iter();
    let chars: [KindCharacteristics; 3] =
        std::array::from_fn(|_| it.next().expect("one result per kind"));
    let baselines = std::array::from_fn(|i| chars[i].baseline_us);
    let slopes = std::array::from_fn(|i| chars[i].slope_us_per_oio);
    let seq_block = std::array::from_fn(|i| chars[i].seq_block_us);
    let models = chars.map(|c| c.model);

    DeviceModels {
        models,
        baselines,
        slopes,
        seq_block,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn pretraining_produces_sane_characteristics() {
        let m = pretrain_models(40, 7);
        // Tier ordering: NVDIMM fastest, HDD slowest, by orders of
        // magnitude.
        let nv = m.baseline_us(DeviceKind::Nvdimm);
        let ssd = m.baseline_us(DeviceKind::Ssd);
        let hdd = m.baseline_us(DeviceKind::Hdd);
        assert!(nv < ssd, "NVDIMM {nv} !< SSD {ssd}");
        assert!(ssd < hdd, "SSD {ssd} !< HDD {hdd}");
        assert!(hdd > 1_000.0, "HDD baseline {hdd} too fast");
    }

    #[test]
    fn nvdimm_model_predicts_in_reasonable_range() {
        let m = pretrain_models(40, 11);
        let pred = m.model(DeviceKind::Nvdimm).predict(&Features {
            wr_ratio: 0.3,
            oios: 1.0,
            ios: 2.0,
            wr_rand: 0.5,
            rd_rand: 0.5,
            free_space_ratio: 0.8,
        });
        assert!(pred > 0.5 && pred < 5_000.0, "prediction {pred}");
    }
}
