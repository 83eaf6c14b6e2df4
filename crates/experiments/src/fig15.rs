//! Fig. 15 — the cache-bypassing effect: under a migration sweep the plain
//! LRFU buffer cache's hit ratio collapses, while the §5.3.2 bypassing
//! cache stays stable. Single-node and multi-node (several concurrently
//! swept NVDIMMs) variants.

use crate::harness::{ExperimentResult, Row, Scale};
use nvhsm_cache::BufferCache;
use nvhsm_device::{IoOp, IoRequest, MigrationTuning, NvdimmConfig, NvdimmDevice, StorageDevice};
use nvhsm_sim::{SimDuration, SimRng, SimTime};

/// Hit-ratio series: drives a hot workload while a migration sweeps the
/// device; samples the cache hit ratio every `window` requests.
fn hit_ratio_series(bypass: bool, devices: usize, n_requests: usize, seed: u64) -> Vec<f64> {
    let window = (n_requests / 12).max(1);
    let mut series = Vec::new();
    let mut devs: Vec<NvdimmDevice> = (0..devices)
        .map(|_| {
            let cfg = NvdimmConfig::small_test().with_tuning(MigrationTuning {
                cache_bypass: bypass,
                sched_optimization: false,
            });
            let mut d = NvdimmDevice::new(cfg);
            d.prefill(0..d.logical_blocks() / 2);
            d
        })
        .collect();
    let mut rng = SimRng::new(seed);
    let hot_blocks = 3_500u64; // commensurate with the 4096-block test cache

    // Warm the caches.
    for d in &mut devs {
        let mut t = SimTime::ZERO;
        for _ in 0..4 * hot_blocks {
            let req = IoRequest::normal(0, rng.below(hot_blocks), 1, IoOp::Read, t);
            d.try_submit(&req).expect("no fault hook installed");
            t += SimDuration::from_us(50);
        }
    }
    let mut last = vec![(0u64, 0u64); devices];
    for (i, d) in devs.iter_mut().enumerate() {
        last[i] = (d.cache().hits(), d.cache().misses());
    }

    let mut sweep_cursor = 100_000u64;
    let mut t = SimTime::from_secs(1);
    for i in 0..n_requests {
        let di = i % devices;
        let d = &mut devs[di];
        // One hot access per step; the migration sweep runs at device
        // speed — a 32-block burst per workload request, like a real bulk
        // copy racing a ~1k IOPS workload.
        let hot = IoRequest::normal(0, rng.below(hot_blocks), 1, IoOp::Read, t);
        d.try_submit(&hot).expect("no fault hook installed");
        let span = d.logical_blocks() / 2;
        for _ in 0..32 {
            let mig = IoRequest::migrated(9, sweep_cursor % span, 1, IoOp::Read, t);
            d.try_submit(&mig).expect("no fault hook installed");
            sweep_cursor += 1;
        }
        t += SimDuration::from_us(80);

        if (i + 1) % window == 0 {
            // Aggregate hit ratio delta across devices.
            let mut dh = 0u64;
            let mut dm = 0u64;
            for (j, dev) in devs.iter().enumerate() {
                let (h, m) = (dev.cache().hits(), dev.cache().misses());
                dh += h - last[j].0;
                dm += m - last[j].1;
                last[j] = (h, m);
            }
            series.push(if dh + dm > 0 {
                dh as f64 / (dh + dm) as f64
            } else {
                0.0
            });
        }
    }
    series
}

/// Runs single-node and multi-node panels, with and without bypassing.
pub fn run(scale: Scale) -> ExperimentResult {
    // Fixed volume: the sweep:cache ratio is the experiment's physics.
    let n = 6_000;
    let _ = scale;
    let mut result = ExperimentResult::new(
        "fig15",
        "NVDIMM buffer-cache hit ratio under migration (Fig. 15)",
        (0..12).map(|i| format!("w{i}")).collect(),
    );
    // Four independent panels — one grid point each.
    let panels = vec![
        (false, 1, 15u64),
        (true, 1, 15),
        (false, 3, 16),
        (true, 3, 16),
    ];
    let mut series = nvhsm_sim::parallel::map_grid(panels, move |(bypass, devices, seed)| {
        hit_ratio_series(bypass, devices, n, seed)
    })
    .into_iter();
    let single_lrfu = series.next().unwrap();
    let single_bypass = series.next().unwrap();
    let multi_lrfu = series.next().unwrap();
    let multi_bypass = series.next().unwrap();

    let tail_mean = |v: &[f64]| -> f64 {
        let tail = &v[v.len() / 2..];
        tail.iter().sum::<f64>() / tail.len().max(1) as f64
    };
    result.note(format!(
        "single node: steady-state hit ratio {:.2} (plain LRFU) vs {:.2} (bypassing); paper: <0.18 vs stable",
        tail_mean(&single_lrfu),
        tail_mean(&single_bypass)
    ));
    result.note(format!(
        "multiple nodes: {:.2} (plain) vs {:.2} (bypassing)",
        tail_mean(&multi_lrfu),
        tail_mean(&multi_bypass)
    ));
    result.push_row(Row::new("single_lrfu", single_lrfu));
    result.push_row(Row::new("single_bypass", single_bypass));
    result.push_row(Row::new("multi_lrfu", multi_lrfu));
    result.push_row(Row::new("multi_bypass", multi_bypass));
    result
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn bypassing_keeps_hit_ratio_stable() {
        let r = run(Scale::Quick);
        let get = |label: &str| -> Vec<f64> {
            r.rows
                .iter()
                .find(|x| x.label == label)
                .unwrap()
                .values
                .clone()
        };
        let lrfu = get("single_lrfu");
        let bypass = get("single_bypass");
        let tail =
            |v: &[f64]| v[v.len() / 2..].iter().sum::<f64>() / (v.len() - v.len() / 2) as f64;
        assert!(
            tail(&bypass) > 0.85,
            "bypassing cache degraded: {:?}",
            bypass
        );
        assert!(
            tail(&lrfu) < tail(&bypass) - 0.2,
            "plain LRFU did not collapse: {} vs {}",
            tail(&lrfu),
            tail(&bypass)
        );
    }
}
