//! Fig. 10 — the over-delay problem and the non-persistent barrier.
//!
//! Policy Two prioritizes persistent writes, so under a persistent-heavy
//! stream a migrated write can be passed over indefinitely (Fig. 10 (a)).
//! The non-persistent barrier bounds that wait (Fig. 10 (b)). This harness
//! sweeps the persistent pressure and reports the worst-case migrated-write
//! latency with and without the mechanism.

use crate::harness::{ExperimentResult, Row, Scale};
use nvhsm_flash::sched::{simulate, SchedConfig, SchedPolicy, WriteClass, WriteRequest};
use nvhsm_sim::{SimDuration, SimRng, SimTime};

/// A persistent-heavy trace over few channels with a handful of migrated
/// writes in front: the starvation scenario.
fn starvation_trace(n: usize, persistent_share: f64, seed: u64) -> Vec<WriteRequest> {
    let mut rng = SimRng::new(seed);
    let mut out = Vec::with_capacity(n);
    for i in 0..n {
        let migrated = !rng.chance(persistent_share);
        out.push(WriteRequest {
            id: i as u64,
            class: if migrated {
                WriteClass::Migrated
            } else {
                WriteClass::Persistent
            },
            channel: rng.below(2) as usize,
            epoch: (i / 16) as u32,
            arrival: SimTime::from_us(i as u64 * 40),
            addr: rng.below(1 << 16) * 4096,
        });
    }
    out
}

/// Sweeps persistent pressure; columns are worst-case migrated latency
/// under Policy One+Two alone vs with the non-persistent barrier.
pub fn run(scale: Scale) -> ExperimentResult {
    let n = 600 * scale.factor().min(2);
    let cfg = SchedConfig {
        channels: 2,
        chips_per_channel: 1,
        service: SimDuration::from_us(200),
        np_barrier_delay: SimDuration::from_ms(1),
    };
    let mut result = ExperimentResult::new(
        "fig10",
        "Migrated-write over-delay and the non-persistent barrier (Fig. 10)",
        vec![
            "both_max_us".into(),
            "np_max_us".into(),
            "both_mean_us".into(),
            "np_mean_us".into(),
        ],
    );
    for share in [0.80, 0.90, 0.95] {
        let trace = starvation_trace(n, share, 101);
        let pct = (share * 100.0) as u32;
        let both = crate::obs::with_sched_trace(format!("fig10/{pct}pct/both"), |sink| {
            simulate(&cfg, &trace, SchedPolicy::Both, sink)
        })
        .expect("the starvation trace is valid")
        .0;
        let np = crate::obs::with_sched_trace(format!("fig10/{pct}pct/np_barrier"), |sink| {
            simulate(&cfg, &trace, SchedPolicy::BothNpBarrier, sink)
        })
        .expect("the starvation trace is valid")
        .0;
        result.push_row(Row::new(
            format!("persistent_{:.0}pct", share * 100.0),
            vec![
                both.migrated_max_us,
                np.migrated_max_us,
                both.migrated_mean_us,
                np.migrated_mean_us,
            ],
        ));
    }
    let worst_both = result.rows.iter().map(|r| r.values[0]).fold(0.0, f64::max);
    let worst_np = result.rows.iter().map(|r| r.values[1]).fold(0.0, f64::max);
    result.note(format!(
        "worst migrated-write delay: {worst_both:.0} µs unbounded vs {worst_np:.0} µs with the \
         non-persistent barrier (paper: the mechanism resolves the over-delayed issue)"
    ));
    result
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn np_barrier_bounds_the_worst_case() {
        let r = run(Scale::Quick);
        for row in &r.rows {
            let (both_max, np_max) = (row.values[0], row.values[1]);
            assert!(
                np_max <= both_max,
                "{}: np {np_max} > unbounded {both_max}",
                row.label
            );
        }
        // At the heaviest persistent share the bound must actually bind.
        let heaviest = r.rows.last().unwrap();
        assert!(
            heaviest.values[1] < heaviest.values[0],
            "np barrier did not help: {:?}",
            heaviest.values
        );
    }
}
