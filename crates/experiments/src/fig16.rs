//! Fig. 16 — combining the §5.3.1 scheduling policies with the §5.3.2
//! cache bypassing: workload I/O performance on an NVDIMM serving a
//! migration, across the four tuning combinations.

use crate::harness::{ExperimentResult, Row, Scale};
use nvhsm_device::{IoOp, IoRequest, MigrationTuning, NvdimmConfig, NvdimmDevice, StorageDevice};
use nvhsm_sim::{SimDuration, SimRng, SimTime};
use nvhsm_workload::hibench::Benchmark;

/// Mean workload latency (µs) while the device simultaneously ingests a
/// migration (reads out + writes in), under the given tuning.
fn run_one(tuning: MigrationTuning, benchmark: Benchmark, n: usize, seed: u64) -> f64 {
    let profile = nvhsm_workload::hibench::profile(benchmark);
    let cfg = NvdimmConfig::small_test().with_tuning(tuning);
    let mut dev = NvdimmDevice::new(cfg);
    let span = dev.logical_blocks() / 2;
    dev.prefill(0..span);
    let mut rng = SimRng::new(seed);
    let hot = 2_000u64;

    // Warm cache with the workload's hot set.
    let mut t = SimTime::ZERO;
    for _ in 0..3 * hot {
        dev.try_submit(&IoRequest::normal(0, rng.below(hot), 1, IoOp::Read, t))
            .expect("no fault hook installed");
        t += SimDuration::from_us(40);
    }

    let mut sum = 0.0;
    let mut count = 0.0;
    let mut mig_out = 200_000u64;
    let mut mig_in = 300_000u64;
    for i in 0..n {
        // Workload read (reads are the migration's victims: they miss the
        // polluted cache and queue behind migrated programs; writes are
        // buffer-absorbed either way).
        let block = if rng.chance(profile.rd_rand) {
            rng.below(hot)
        } else {
            (i as u64 * 3) % hot
        };
        let c = dev
            .try_submit(&IoRequest::normal(0, block, 1, IoOp::Read, t))
            .expect("no fault hook installed");
        sum += c.latency.as_us_f64();
        count += 1.0;

        // Interleaved migration traffic: source-side reads at twice the
        // workload rate (cheap for the chips, corrosive for the cache),
        // destination-side writes at a sustainable ingest rate (~4k/s
        // against the ordered lane's ~12k/s ceiling).
        for _ in 0..2 {
            dev.try_submit(&IoRequest::migrated(8, mig_out % span, 1, IoOp::Read, t))
                .expect("no fault hook installed");
            mig_out += 1;
        }
        if i % 2 == 0 {
            dev.try_submit(&IoRequest::migrated(9, mig_in % span, 1, IoOp::Write, t))
                .expect("no fault hook installed");
            mig_in += 1;
        }
        t += SimDuration::from_us(120);
    }
    sum / count
}

/// Runs the four combinations over all benchmarks.
pub fn run(scale: Scale) -> ExperimentResult {
    // The scenario is a steady-state measurement: its physics (sweep
    // volume vs cache size) must not change with the scale knob.
    let n = 1200;
    let _ = scale;
    let combos = [
        ("baseline", MigrationTuning::baseline()),
        (
            "sched_only",
            MigrationTuning {
                cache_bypass: false,
                sched_optimization: true,
            },
        ),
        (
            "bypass_only",
            MigrationTuning {
                cache_bypass: true,
                sched_optimization: false,
            },
        ),
        ("both", MigrationTuning::optimized()),
    ];
    let mut result = ExperimentResult::new(
        "fig16",
        "Scheduling + bypassing combined speedup (Fig. 16)",
        combos.iter().map(|(l, _)| l.to_string()).collect(),
    );
    let mut sums = [0.0f64; 4];
    // Flat benchmarks × combos grid (32 independent device simulations).
    let grid: Vec<(MigrationTuning, Benchmark, u64)> = Benchmark::ALL
        .iter()
        .enumerate()
        .flat_map(|(bi, &b)| combos.iter().map(move |&(_, t)| (t, b, 160 + bi as u64)))
        .collect();
    let lat_grid =
        nvhsm_sim::parallel::map_grid(grid, move |(tuning, b, seed)| run_one(tuning, b, n, seed));
    for (b, lats) in Benchmark::ALL.iter().zip(lat_grid.chunks(combos.len())) {
        // Speedup over the baseline combo.
        let speedups: Vec<f64> = lats.iter().map(|&l| lats[0] / l).collect();
        for (s, v) in sums.iter_mut().zip(speedups.iter()) {
            *s += v;
        }
        result.push_row(Row::new(b.name(), speedups));
    }
    let avg: Vec<f64> = sums
        .iter()
        .map(|s| s / Benchmark::ALL.len() as f64)
        .collect();
    result.push_row(Row::new("average", avg.clone()));
    result.note(format!(
        "average combined speedup {:.1}% (paper: up to 45%, avg ~32%)",
        (avg[3] - 1.0) * 100.0
    ));
    result
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn combined_beats_each_alone_on_average() {
        let r = run(Scale::Quick);
        let avg = r.rows.last().unwrap();
        let (sched, bypass, both) = (avg.values[1], avg.values[2], avg.values[3]);
        assert!(both > 1.05, "combined speedup {both}");
        assert!(
            both >= sched.max(bypass) * 0.98,
            "combined {both} vs {sched}/{bypass}"
        );
    }
}
