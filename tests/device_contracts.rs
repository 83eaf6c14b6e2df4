//! Cross-crate integration: every storage device honours the
//! `StorageDevice` contract.

use nvdimm_hsm::device::{
    DeviceKind, HddConfig, HddDevice, IoOp, IoRequest, NvdimmConfig, NvdimmDevice, SsdConfig,
    SsdDevice, StorageDevice,
};
use nvdimm_hsm::sim::{SimDuration, SimRng, SimTime};

fn devices() -> Vec<Box<dyn StorageDevice>> {
    vec![
        Box::new(NvdimmDevice::new(NvdimmConfig::small_test())),
        Box::new(SsdDevice::new(SsdConfig::small_test())),
        Box::new(HddDevice::new(HddConfig::small_test())),
    ]
}

#[test]
fn completions_never_precede_arrivals() {
    for mut dev in devices() {
        dev.prefill(0..10_000);
        let mut rng = SimRng::new(1);
        let mut t = SimTime::ZERO;
        for _ in 0..300 {
            let op = if rng.chance(0.4) {
                IoOp::Write
            } else {
                IoOp::Read
            };
            let req = IoRequest::normal(0, rng.below(10_000), 1, op, t);
            let c = dev.try_submit(&req).expect("no fault hook installed");
            assert!(c.done >= t, "{}", dev.kind());
            assert_eq!(c.latency, c.done - t);
            t += SimDuration::from_us(100);
        }
        assert!(dev.drained_at() >= t - SimDuration::from_us(100));
    }
}

#[test]
fn stats_count_served_requests() {
    for mut dev in devices() {
        dev.prefill(0..1_000);
        for i in 0..50u64 {
            let req = IoRequest::normal(0, i, 1, IoOp::Read, SimTime::from_us(i * 200));
            dev.try_submit(&req).expect("no fault hook installed");
        }
        assert_eq!(dev.stats().lifetime_requests(), 50, "{}", dev.kind());
        let epoch = dev.stats_mut().take_epoch(SimTime::from_ms(100));
        assert_eq!(epoch.reads, 50, "{}", dev.kind());
        assert_eq!(epoch.writes, 0, "{}", dev.kind());
    }
}

#[test]
fn migrated_requests_do_not_skew_workload_stats() {
    for mut dev in devices() {
        dev.prefill(0..1_000);
        dev.try_submit(&IoRequest::normal(0, 0, 1, IoOp::Read, SimTime::ZERO))
            .expect("no fault hook installed");
        dev.try_submit(&IoRequest::migrated(9, 1, 1, IoOp::Read, SimTime::ZERO))
            .expect("no fault hook installed");
        let epoch = dev.stats_mut().take_epoch(SimTime::from_ms(1));
        assert_eq!(epoch.io_count(), 1, "{}", dev.kind());
        assert_eq!(epoch.migrated_ios, 1, "{}", dev.kind());
    }
}

#[test]
fn tier_latency_ordering_holds_for_random_reads() {
    let mut means = Vec::new();
    for mut dev in devices() {
        dev.prefill(0..100_000);
        let mut rng = SimRng::new(3);
        let mut t = SimTime::ZERO;
        let mut sum = 0.0;
        for _ in 0..100 {
            let req = IoRequest::normal(0, rng.below(100_000), 1, IoOp::Read, t);
            let c = dev.try_submit(&req).expect("no fault hook installed");
            sum += c.latency.as_us_f64();
            t = c.done;
        }
        means.push((dev.kind(), sum / 100.0));
    }
    assert_eq!(means[0].0, DeviceKind::Nvdimm);
    assert!(
        means[0].1 < means[1].1 && means[1].1 < means[2].1,
        "tier ordering violated: {means:?}"
    );
    // Table 1 magnitudes (scaled model): NVDIMM well under SSD, SSD well
    // under HDD.
    assert!(means[1].1 / means[0].1 > 2.0, "{means:?}");
    assert!(means[2].1 / means[1].1 > 5.0, "{means:?}");
}

#[test]
fn discard_block_forgets_data() {
    for mut dev in devices() {
        dev.prefill(0..100);
        dev.discard_block(5);
        // Contract: no panic, and flash-backed devices free the space.
        if dev.kind() != DeviceKind::Hdd {
            assert!(dev.free_space_ratio() > 0.99, "{}", dev.kind());
        }
    }
}
