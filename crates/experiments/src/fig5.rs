//! Fig. 5 — the relationship between device performance and workload
//! characteristics:
//!
//! * (a) SSD latency vs outstanding I/Os — linear;
//! * (b) SSD latency vs read randomness — non-linear (convex);
//! * (c) HDD latency vs read randomness — linear;
//! * (d) NVDIMM latency vs memory intensity — linear.

use crate::harness::{ExperimentResult, Row, Scale};
use nvhsm_device::{
    HddConfig, HddDevice, IoOp, IoRequest, NvdimmConfig, NvdimmDevice, SsdConfig, SsdDevice,
    StorageDevice,
};
use nvhsm_sim::{SimDuration, SimRng, SimTime};

/// Mean latency (µs) of a closed-loop random-read run at queue depth `oio`.
fn latency_at_oio(dev: &mut dyn StorageDevice, oio: usize, rounds: usize, rng: &mut SimRng) -> f64 {
    let span = dev.logical_blocks() / 2;
    let mut t = dev.drained_at();
    let mut sum = 0.0;
    let mut n = 0.0;
    for _ in 0..rounds {
        let mut last = t;
        for _ in 0..oio {
            let req = IoRequest::normal(0, rng.below(span), 1, IoOp::Read, t);
            let c = dev.try_submit(&req).expect("no fault hook installed");
            sum += c.latency.as_us_f64();
            n += 1.0;
            last = last.max(c.done);
        }
        t = last;
    }
    sum / n
}

/// Mean latency (µs) with a `rand_frac` random / sequential read mix at a
/// fixed offered rate (`gap` between arrivals). Random probes and the
/// sequential run use separate streams.
fn latency_at_randomness(
    dev: &mut dyn StorageDevice,
    rand_frac: f64,
    n: usize,
    gap: SimDuration,
    rng: &mut SimRng,
) -> f64 {
    let span = dev.logical_blocks() / 2;
    let mut t = dev.drained_at();
    let mut cursor = 0u64;
    let mut sum = 0.0;
    for _ in 0..n {
        let c = if rng.chance(rand_frac) {
            dev.try_submit(&IoRequest::normal(1, rng.below(span), 1, IoOp::Read, t))
                .expect("no fault hook installed")
        } else {
            cursor += 1;
            dev.try_submit(&IoRequest::normal(0, cursor % span, 1, IoOp::Read, t))
                .expect("no fault hook installed")
        };
        sum += c.latency.as_us_f64();
        t += gap;
    }
    sum / n as f64
}

/// Runs all four panels.
pub fn run(scale: Scale) -> ExperimentResult {
    let mut result = ExperimentResult::new(
        "fig5",
        "Device latency vs workload characteristics (Fig. 5)",
        vec![
            "x1".into(),
            "x2".into(),
            "x3".into(),
            "x4".into(),
            "x5".into(),
        ],
    );
    let n = 300 * scale.factor();
    let mut rng = SimRng::new(55);

    // (a) SSD latency vs OIOs.
    let oios = [1usize, 4, 8, 16, 32];
    let mut ssd_oio = Vec::new();
    for &q in &oios {
        let mut dev = SsdDevice::new(SsdConfig::small_test());
        dev.prefill(0..dev.logical_blocks() / 2);
        ssd_oio.push(latency_at_oio(&mut dev, q, n / 10, &mut rng));
    }
    result.push_row(Row::new(
        "a_ssd_oio_x",
        oios.iter().map(|&x| x as f64).collect(),
    ));
    result.push_row(Row::new("a_ssd_oio_us", ssd_oio.clone()));

    // (b) SSD latency vs read randomness.
    let fracs = [0.0, 0.25, 0.5, 0.75, 1.0];
    let mut ssd_rand = Vec::new();
    for &f in &fracs {
        let mut dev = SsdDevice::new(SsdConfig::small_test());
        dev.prefill(0..dev.logical_blocks() / 2);
        ssd_rand.push(latency_at_randomness(
            &mut dev,
            f,
            n,
            SimDuration::from_us(2),
            &mut rng,
        ));
    }
    result.push_row(Row::new("b_rand_frac", fracs.to_vec()));
    result.push_row(Row::new("b_ssd_rand_us", ssd_rand.clone()));

    // (c) HDD latency vs read randomness.
    let mut hdd_rand = Vec::new();
    for &f in &fracs {
        let mut dev = HddDevice::new(HddConfig::small_test());
        // Closed loop on the disk (open loop would explode the queue).
        let span = dev.logical_blocks() / 2;
        let mut t = SimTime::ZERO;
        let mut cursor = 0u64;
        let mut sum = 0.0;
        let runs = (n / 3).max(50);
        for _ in 0..runs {
            let c = if rng.chance(f) {
                dev.try_submit(&IoRequest::normal(1, rng.below(span), 1, IoOp::Read, t))
                    .expect("no fault hook installed")
            } else {
                cursor += 1;
                dev.try_submit(&IoRequest::normal(0, cursor % span, 1, IoOp::Read, t))
                    .expect("no fault hook installed")
            };
            sum += c.latency.as_us_f64();
            t = c.done;
        }
        hdd_rand.push(sum / runs as f64);
    }
    result.push_row(Row::new("c_hdd_rand_us", hdd_rand.clone()));

    // (d) NVDIMM latency vs memory intensity (ambient bus utilization).
    let utils = [0.0, 0.2, 0.4, 0.6, 0.8];
    let mut nv_lat = Vec::new();
    for &u in &utils {
        let mut dev = NvdimmDevice::new(NvdimmConfig::small_test());
        dev.prefill(0..dev.logical_blocks() / 2);
        dev.set_ambient_bus_utilization(u);
        nv_lat.push(latency_at_randomness(
            &mut dev,
            0.5,
            n,
            SimDuration::from_us(200),
            &mut rng,
        ));
    }
    result.push_row(Row::new("d_mem_util", utils.to_vec()));
    result.push_row(Row::new("d_nvdimm_us", nv_lat.clone()));

    // Shape checks against the paper.
    let lin = |v: &[f64]| -> f64 {
        // Ratio of the largest to smallest successive increment (1 = linear).
        let incs: Vec<f64> = v.windows(2).map(|w| w[1] - w[0]).collect();
        let max = incs.iter().cloned().fold(f64::NEG_INFINITY, f64::max);
        let min = incs.iter().cloned().fold(f64::INFINITY, f64::min);
        if min <= 0.0 {
            f64::INFINITY
        } else {
            max / min
        }
    };
    result.note(format!(
        "(a) SSD latency rises with OIOs ({}): paper says linear",
        if ssd_oio.windows(2).all(|w| w[0] < w[1]) {
            "monotone"
        } else {
            "NOT monotone"
        }
    ));
    let convex = (ssd_rand[4] - ssd_rand[2]) > (ssd_rand[2] - ssd_rand[0]);
    result.note(format!(
        "(b) SSD randomness curve convex: {convex} (paper: non-linear, worst at high randomness)"
    ));
    result.note(format!(
        "(c) HDD randomness linearity ratio {:.2} (1 = perfectly linear)",
        lin(&hdd_rand)
    ));
    result.note(format!(
        "(d) NVDIMM latency at peak intensity {:.1}x the idle latency (paper: linear growth)",
        nv_lat[4] / nv_lat[0].max(1e-9)
    ));
    result
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn shapes_match_paper() {
        let r = run(Scale::Quick);
        let oio = r.rows.iter().find(|x| x.label == "a_ssd_oio_us").unwrap();
        assert!(
            oio.values.windows(2).all(|w| w[0] < w[1]),
            "(a) not monotone: {:?}",
            oio.values
        );
        let srand = r.rows.iter().find(|x| x.label == "b_ssd_rand_us").unwrap();
        assert!(
            srand.values[4] - srand.values[2] > srand.values[2] - srand.values[0],
            "(b) not convex: {:?}",
            srand.values
        );
        let hrand = r.rows.iter().find(|x| x.label == "c_hdd_rand_us").unwrap();
        assert!(
            hrand.values.windows(2).all(|w| w[0] < w[1]),
            "(c) not monotone: {:?}",
            hrand.values
        );
        let nv = r.rows.iter().find(|x| x.label == "d_nvdimm_us").unwrap();
        assert!(
            nv.values.windows(2).all(|w| w[0] < w[1]),
            "(d) not monotone: {:?}",
            nv.values
        );
    }
}
