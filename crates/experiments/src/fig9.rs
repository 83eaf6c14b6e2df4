//! Fig. 9 — the paper's worked scheduling example: eight writes (RA…RH),
//! three barriers, two flash channels. Reproduces the exact schedules of
//! Fig. 9 (a) baseline, (b) Policy One, (c) Policy One + Two.

use crate::harness::{ExperimentResult, Row, Scale};
use nvhsm_flash::sched::{simulate, SchedConfig, SchedPolicy, WriteClass, WriteRequest};
use nvhsm_sim::{SimDuration, SimTime};

/// The Fig. 9 request set: RA,RB,RE,RF persistent; RC,RD,RG,RH migrated;
/// barriers after RA, after RD, after RE; RC and RG on flash channel 2.
pub fn fig9_trace() -> Vec<WriteRequest> {
    use WriteClass::{Migrated as M, Persistent as P};
    let mk = |id: u64, class, channel, epoch| WriteRequest {
        id,
        class,
        channel,
        epoch,
        arrival: SimTime::ZERO,
        addr: id * 4096,
    };
    vec![
        mk(0, P, 0, 0), // RA
        mk(1, P, 0, 1), // RB
        mk(2, M, 1, 1), // RC
        mk(3, M, 0, 1), // RD
        mk(4, P, 0, 2), // RE
        mk(5, P, 0, 3), // RF
        mk(6, M, 1, 3), // RG
        mk(7, M, 0, 3), // RH
    ]
}

const NAMES: [&str; 8] = ["RA", "RB", "RC", "RD", "RE", "RF", "RG", "RH"];

/// Runs the example under the three Fig. 9 schedules; one column per
/// request, values are completion times in service units.
pub fn run(_scale: Scale) -> ExperimentResult {
    let cfg = SchedConfig {
        channels: 2,
        chips_per_channel: 1,
        service: SimDuration::from_us(100),
        np_barrier_delay: SimDuration::from_secs(1),
    };
    let trace = fig9_trace();
    let mut result = ExperimentResult::new(
        "fig9",
        "The Fig. 9 example: completion time of RA..RH in service units",
        NAMES.iter().map(|n| n.to_string()).collect(),
    );
    let service_us = cfg.service.as_us_f64();
    for (label, policy) in [
        ("a_baseline", SchedPolicy::Baseline),
        ("b_policy_one", SchedPolicy::PolicyOne),
        ("c_both", SchedPolicy::Both),
    ] {
        let (_, completions) = crate::obs::with_sched_trace(format!("fig9/{label}"), |sink| {
            simulate(&cfg, &trace, policy, sink).expect("the Fig. 9 trace is valid")
        });
        result.push_row(Row::new(
            label,
            completions
                .iter()
                .map(|c| c.map(|us| us / service_us).unwrap_or(0.0))
                .collect(),
        ));
    }
    let rc_base = result.value_or("a_baseline", 2, 0.0);
    let rc_p1 = result.value_or("b_policy_one", 2, 0.0);
    let rg_base = result.value_or("a_baseline", 6, 0.0);
    let rg_p1 = result.value_or("b_policy_one", 6, 0.0);
    result.note(format!(
        "Policy One frees the migrated writes from barriers: RC runs concurrently with RA \
         (t={rc_p1:.0} vs baseline {rc_base:.0}) and RG moves from t={rg_base:.0} to \
         t={rg_p1:.0}. RH stays last: flash channel 1 carries six writes, so its serial \
         service bounds RH either way (our single-server channel model)."
    ));
    result
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn policy_one_unblocks_the_second_channel() -> Result<(), crate::harness::MissingValue> {
        let r = run(Scale::Quick);
        // RC (migrated, channel 2) completes in the first service slot
        // under Policy One — concurrent with RA.
        let ra_p1 = r.require("b_policy_one", 0)?;
        let rc_p1 = r.require("b_policy_one", 2)?;
        assert_eq!(rc_p1, ra_p1, "RC should run concurrently with RA");
        // RG (migrated, channel 2, last epoch) also jumps ahead.
        let rg_base = r.require("a_baseline", 6)?;
        let rg_p1 = r.require("b_policy_one", 6)?;
        assert!(
            rg_p1 < rg_base,
            "RG not earlier under P1: {rg_p1} vs {rg_base}"
        );
        // Nothing finishes later than it did under the baseline.
        for i in 0..8 {
            let base = r.require("a_baseline", i)?;
            let p1 = r.require("b_policy_one", i)?;
            assert!(p1 <= base, "request {i} regressed: {p1} vs {base}");
        }
        Ok(())
    }

    #[test]
    fn baseline_respects_every_barrier() -> Result<(), crate::harness::MissingValue> {
        let r = run(Scale::Quick);
        // Epoch order: RA < {RB,RC,RD} < RE < {RF,RG,RH}.
        let mut t = [0.0f64; 8];
        for (i, slot) in t.iter_mut().enumerate() {
            *slot = r.require("a_baseline", i)?;
        }
        assert!(t[0] < t[1] && t[0] < t[2] && t[0] < t[3]);
        assert!(t[1].max(t[2]).max(t[3]) <= t[4]);
        assert!(t[4] < t[5] && t[4] < t[6] && t[4] < t[7]);
        Ok(())
    }
}
