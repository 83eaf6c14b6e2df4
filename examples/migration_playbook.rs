//! The §5.3 architectural playbook at device level: how migration traffic
//! hurts an NVDIMM, and what the scheduling policies (Fig. 9/14) and the
//! cache bypass (Fig. 11/15) each buy back.
//!
//! Run with: `cargo run --release --example migration_playbook`

use nvdimm_hsm::cache::BufferCache;
use nvdimm_hsm::device::{
    IoOp, IoRequest, MigrationTuning, NvdimmConfig, NvdimmDevice, StorageDevice,
};
use nvdimm_hsm::flash::sched::{simulate, SchedConfig, SchedPolicy, WriteClass, WriteRequest};
use nvdimm_hsm::sim::{SimDuration, SimRng, SimTime};

/// Drives a hot workload + migration sweep under the given tuning; returns
/// (mean workload latency µs, cache hit ratio).
fn serve_with_tuning(tuning: MigrationTuning) -> (f64, f64) {
    let mut dev = NvdimmDevice::new(NvdimmConfig::small_test().with_tuning(tuning));
    let span = dev.logical_blocks() / 2;
    dev.prefill(0..span);
    let mut rng = SimRng::new(3);
    let hot = 800u64;
    let mut t = SimTime::ZERO;
    // Warm the cache.
    for _ in 0..4 * hot {
        dev.try_submit(&IoRequest::normal(0, rng.below(hot), 1, IoOp::Read, t))
            .expect("no fault hook installed");
        t += SimDuration::from_us(40);
    }
    dev.cache().hits(); // warm counters exist; reset via stats epoch
    let mut sum = 0.0;
    let n = 4_000;
    for sweep in 200_000u64..200_000 + n {
        let c = dev
            .try_submit(&IoRequest::normal(0, rng.below(hot), 1, IoOp::Read, t))
            .expect("no fault hook installed");
        sum += c.latency.as_us_f64();
        // Interleaved migration: read out + write in.
        dev.try_submit(&IoRequest::migrated(8, sweep % span, 1, IoOp::Read, t))
            .expect("no fault hook installed");
        dev.try_submit(&IoRequest::migrated(
            9,
            (sweep + span / 2) % span,
            1,
            IoOp::Write,
            t,
        ))
        .expect("no fault hook installed");
        t += SimDuration::from_us(100);
    }
    (sum / n as f64, dev.cache().hit_ratio())
}

fn main() {
    println!("== cache bypassing + scheduling at the device level ==\n");
    println!(
        "{:<24} {:>16} {:>12}",
        "tuning", "workload lat (µs)", "hit ratio"
    );
    for (name, tuning) in [
        ("baseline", MigrationTuning::baseline()),
        (
            "bypass only",
            MigrationTuning {
                cache_bypass: true,
                sched_optimization: false,
            },
        ),
        (
            "sched only",
            MigrationTuning {
                cache_bypass: false,
                sched_optimization: true,
            },
        ),
        ("bypass + sched", MigrationTuning::optimized()),
    ] {
        let (lat, hit) = serve_with_tuning(tuning);
        println!("{name:<24} {lat:>16.1} {hit:>12.2}");
    }

    println!("\n== write scheduling policies (Fig. 9/14) ==\n");
    let mut rng = SimRng::new(5);
    // Barriers delimit epochs of *persistent* writes (every 4th); migrated
    // writes from a concurrent migration interleave at a 50% share.
    let mut epoch = 0u32;
    let mut persistent_seen = 0u64;
    let trace: Vec<WriteRequest> = (0..1_200u64)
        .map(|i| {
            let migrated = rng.chance(0.4);
            if !migrated {
                persistent_seen += 1;
                if persistent_seen.is_multiple_of(4) {
                    epoch += 1;
                }
            }
            WriteRequest {
                id: i,
                class: if migrated {
                    WriteClass::Migrated
                } else {
                    WriteClass::Persistent
                },
                channel: rng.below(16) as usize,
                epoch,
                arrival: SimTime::from_us(i * 8),
                addr: rng.below(1 << 20) * 4096,
            }
        })
        .collect();
    let cfg = SchedConfig::table4();
    let base = simulate(&cfg, &trace, SchedPolicy::Baseline);
    println!(
        "{:<16} {:>14} {:>14} {:>12}",
        "policy", "persist (µs)", "migrated (µs)", "makespan(ms)"
    );
    for policy in [
        SchedPolicy::Baseline,
        SchedPolicy::PolicyOne,
        SchedPolicy::PolicyTwo,
        SchedPolicy::Both,
        SchedPolicy::BothNpBarrier,
    ] {
        let s = simulate(&cfg, &trace, policy);
        println!(
            "{:<16} {:>14.1} {:>14.1} {:>12.2}",
            format!("{policy:?}"),
            s.persistent_mean_us,
            s.migrated_mean_us,
            s.makespan.as_ms_f64(),
        );
    }
    let _ = base;
}
