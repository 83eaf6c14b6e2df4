use super::datapath::{route_request, Route};
use super::*;
use crate::cluster::ClusterReport;
use crate::datastore::DatastoreId;
use crate::manager::MigrationDecision;
use crate::migration::{ActiveMigration, MigrationMode};
use nvhsm_device::{IoOp, IoRequest};
use nvhsm_workload::hibench::{all_profiles, profile, Benchmark};
use nvhsm_workload::SpecProgram;

fn quick_cfg(policy: PolicyKind) -> NodeConfig {
    let mut cfg = NodeConfig::small();
    cfg.policy = policy;
    cfg.train_requests = 30;
    cfg
}

#[test]
fn basic_run_serves_io() {
    let mut sim = NodeSim::new(quick_cfg(PolicyKind::Bca), 1);
    // Scaled-down working sets so even an HDD placement keeps serving.
    sim.add_workload(profile(Benchmark::Sort).with_working_set(8_000));
    sim.add_workload(profile(Benchmark::Bayes).with_working_set(6_000));
    let report = sim.run_secs(2);
    assert!(report.io_count > 500, "io_count {}", report.io_count);
    assert!(report.mean_latency_us > 0.0);
    assert_eq!(report.devices.len(), 3);
}

#[test]
fn space_greedy_placement_spreads_vmdks() {
    let mut sim = NodeSim::new(quick_cfg(PolicyKind::Basil), 2);
    let a = sim.add_workload(profile(Benchmark::Sort));
    let b = sim.add_workload(profile(Benchmark::Wordcount));
    let c = sim.add_workload(profile(Benchmark::DfsioeR));
    let placements: Vec<usize> = [a, b, c]
        .iter()
        .map(|&v| sim.placement_of(v).unwrap())
        .collect();
    // Not all on one datastore.
    assert!(
        placements.windows(2).any(|w| w[0] != w[1]),
        "{placements:?}"
    );
}

#[test]
fn eq4_placement_lands_somewhere_valid() {
    let mut sim = NodeSim::new(quick_cfg(PolicyKind::Bca), 3);
    let v = sim
        .add_workload_placed(profile(Benchmark::Pagerank))
        .expect("a small VMDK always fits");
    assert!(sim.placement_of(v).is_some());
}

#[test]
fn oversized_admission_is_rejected_gracefully() {
    let mut sim = NodeSim::new(quick_cfg(PolicyKind::Bca), 1);
    let err = sim
        .add_workload_placed(profile(Benchmark::Pagerank).with_working_set(2_000_000))
        .unwrap_err();
    assert_eq!(
        err,
        PlacementError::NoFeasibleDatastore {
            size_blocks: 2_000_000
        }
    );
    // The rejection is counted and the node keeps admitting.
    let v = sim
        .add_workload_placed(profile(Benchmark::Sort).with_working_set(8_000))
        .expect("normal admission still works");
    assert!(sim.placement_of(v).is_some());
    let report = sim.run(SimDuration::from_ms(50));
    assert_eq!(report.placements_rejected, 1);
}

#[test]
fn pinned_admission_on_full_store_is_a_typed_error() {
    let mut sim = NodeSim::new(quick_cfg(PolicyKind::Bca), 1);
    let err = sim
        .add_workload_on(profile(Benchmark::Pagerank).with_working_set(2_000_000), 0)
        .unwrap_err();
    assert_eq!(
        err,
        PlacementError::DatastoreFull {
            ds: 0,
            size_blocks: 2_000_000
        }
    );
    // The failed admission consumed nothing: the same store still takes a
    // VMDK that fits, and it gets the first id.
    let v = sim
        .add_workload_on(profile(Benchmark::Sort).with_working_set(8_000), 0)
        .expect("a small VMDK fits");
    assert_eq!(v, VmdkId(0));
    assert_eq!(sim.placement_of(v), Some(0));
}

#[test]
fn cross_node_migration_moves_data_over_the_wire() {
    let mut cfg = quick_cfg(PolicyKind::Bca);
    cfg.tau = 1.0; // the manager stays out; the test forces the move
    let mut sim = NodeSim::with_nodes(cfg, 2, 5);
    sim.add_workload_on(profile(Benchmark::Pagerank).with_working_set(2_048), 2)
        .unwrap();
    sim.run(SimDuration::from_ms(300));
    sim.start_migration(MigrationDecision {
        vmdk: VmdkId(0),
        src: DatastoreId(2), // node 0 HDD
        dst: DatastoreId(4), // node 1 SSD
        mode: MigrationMode::FullCopy,
    });
    let report = sim.run(SimDuration::from_secs(4));
    assert_eq!(report.remote_migrations, 1);
    assert_eq!(report.migrations_completed, 1, "{report:?}");
    assert!(
        report.net_bytes >= 2_048 * 4096,
        "net bytes {}",
        report.net_bytes
    );
    let links = sim.link_stats();
    assert!(links[0].tx.bytes > 0, "node 0 sent nothing");
    assert!(links[1].rx.bytes > 0, "node 1 received nothing");
}

#[test]
fn cross_node_outage_preserves_blocks() {
    use nvhsm_fault::{DeviceFaultSchedule, FaultKind, FaultWindow};

    // The remote destination (node 1's SSD, ds 4) drops offline briefly
    // mid-migration; the bitmap protocol must survive the wire hop.
    let mut schedules = vec![DeviceFaultSchedule::healthy(); 6];
    schedules[4] = DeviceFaultSchedule::from_windows(vec![FaultWindow {
        from: SimTime::from_ms(600),
        until: SimTime::from_ms(900),
        kind: FaultKind::Offline,
    }]);
    let mut cfg = quick_cfg(PolicyKind::Bca);
    cfg.tau = 1.0;
    cfg.faults = Some(nvhsm_fault::FaultPlan::from_schedules(schedules, 3));
    cfg.degraded_cooldown = SimDuration::from_ms(200);
    let mut sim = NodeSim::with_nodes(cfg, 2, 5);
    sim.add_workload_on(profile(Benchmark::Pagerank).with_working_set(20_000), 2)
        .unwrap();
    sim.run(SimDuration::from_ms(400));
    sim.start_migration(MigrationDecision {
        vmdk: VmdkId(0),
        src: DatastoreId(2),
        dst: DatastoreId(4),
        mode: MigrationMode::Lazy,
    });
    assert_eq!(sim.active_migrations(), 1);
    let report = sim.run(SimDuration::from_secs(4));
    assert_eq!(report.blocks_lost, 0);
    assert!(
        report.migrations_resumed >= 1 || report.migrations_aborted >= 1,
        "outage never touched the migration: {report:?}"
    );
}

#[test]
fn migration_log_records_moves() {
    let mut cfg = quick_cfg(PolicyKind::Basil);
    cfg.tau = 0.3;
    let mut sim = NodeSim::new(cfg, 5);
    sim.add_workload_on(profile(Benchmark::Pagerank).with_working_set(20_000), 2)
        .unwrap();
    let report = sim.run_secs(4);
    assert_eq!(report.migration_log.len() as u64, report.migrations_started);
    for e in report.migration_log.iter() {
        assert_ne!(e.src, e.dst);
    }
}

#[test]
fn migration_happens_under_pressure() {
    // Overload the HDD with a random workload; the manager should move
    // it off.
    let mut cfg = quick_cfg(PolicyKind::Basil);
    cfg.tau = 0.3;
    let mut sim = NodeSim::new(cfg, 5);
    let hdd_ds = 2;
    let v = sim
        .add_workload_on(
            profile(Benchmark::Pagerank).with_working_set(20_000),
            hdd_ds,
        )
        .unwrap();
    let report = sim.run_secs(4);
    assert!(
        report.migrations_started >= 1,
        "no migration started: {report:?}"
    );
    let _ = v;
}

#[test]
fn multi_node_runs() {
    let mut sim = NodeSim::with_nodes(quick_cfg(PolicyKind::Pesto), 3, 9);
    for b in [Benchmark::Sort, Benchmark::Bayes, Benchmark::Kmeans] {
        sim.add_workload(profile(b));
    }
    let report = sim.run_secs(1);
    assert_eq!(report.devices.len(), 9);
    assert!(report.io_count > 0);

    // Space-greedy admission spreads the HiBench suite over several nodes.
    let mut sim = NodeSim::with_nodes(quick_cfg(PolicyKind::Bca), 3, 3);
    let ids: Vec<_> = all_profiles()
        .into_iter()
        .map(|p| sim.add_workload(p))
        .collect();
    let nodes: std::collections::HashSet<usize> = ids
        .iter()
        .filter_map(|&v| sim.placement_of(v))
        .map(|ds| ds / 3)
        .collect();
    assert!(nodes.len() >= 2, "all VMDKs on one node: {nodes:?}");

    // The cluster report's per-node view covers every node.
    let mut sim = NodeSim::with_nodes(quick_cfg(PolicyKind::Bca), 3, 5);
    sim.add_workload(profile(Benchmark::Sort));
    sim.add_workload(profile(Benchmark::Bayes));
    let report = ClusterReport {
        report: sim.run_secs(1),
        nodes: 3,
        links: sim.link_stats(),
    };
    let per_node = report.per_node_mean_latency_us();
    assert_eq!(per_node.len(), 3);
    assert!(per_node.iter().any(|&l| l > 0.0));
}

#[test]
fn fault_free_plan_changes_nothing() {
    // A config with an all-healthy plan must replay the fault-free run
    // byte-identically: hooks exist but never fire.
    let run = |faults: Option<nvhsm_fault::FaultPlan>| {
        let mut cfg = quick_cfg(PolicyKind::Bca);
        cfg.faults = faults;
        let mut sim = NodeSim::new(cfg, 17);
        sim.add_workload(profile(Benchmark::Sort).with_working_set(8_000));
        sim.add_workload(profile(Benchmark::Bayes).with_working_set(6_000));
        sim.run_secs(2)
    };
    let plain = run(None);
    let healthy = run(Some(nvhsm_fault::FaultPlan::healthy(3)));
    assert_eq!(
        serde_json::to_string(&plain).unwrap(),
        serde_json::to_string(&healthy).unwrap()
    );
    assert_eq!(plain.availability, 1.0);
    assert_eq!(plain.io_errors, 0);
    assert!(plain.p99_latency_us > 0.0);
}

#[test]
fn faulty_run_retries_and_never_loses_blocks() {
    let horizon = SimDuration::from_secs(3);
    let mut cfg = quick_cfg(PolicyKind::Basil);
    cfg.tau = 0.3;
    cfg.faults = Some(nvhsm_fault::FaultPlan::generate(
        99,
        3,
        horizon,
        nvhsm_fault::FaultIntensity::Severe,
    ));
    let mut sim = NodeSim::new(cfg, 5);
    sim.add_workload_on(profile(Benchmark::Pagerank).with_working_set(20_000), 2)
        .unwrap();
    sim.add_workload_on(profile(Benchmark::Bayes).with_working_set(6_000), 1)
        .unwrap();
    let report = sim.run_secs(3);
    assert!(report.io_errors > 0, "severe plan produced no errors");
    assert!(report.retries > 0, "no retry attempts recorded");
    assert!(
        report.availability > 0.5 && report.availability <= 1.0,
        "availability {}",
        report.availability
    );
    assert_eq!(report.blocks_lost, 0, "abort/rollback lost data");
}

#[test]
fn faulty_run_is_deterministic() {
    let run = || {
        let horizon = SimDuration::from_secs(2);
        let mut cfg = quick_cfg(PolicyKind::Basil);
        cfg.tau = 0.3;
        cfg.faults = Some(nvhsm_fault::FaultPlan::generate(
            7,
            3,
            horizon,
            nvhsm_fault::FaultIntensity::Moderate,
        ));
        let mut sim = NodeSim::new(cfg, 5);
        sim.add_workload_on(profile(Benchmark::Pagerank).with_working_set(20_000), 2)
            .unwrap();
        sim.run_secs(2)
    };
    let a = serde_json::to_string(&run()).unwrap();
    let b = serde_json::to_string(&run()).unwrap();
    assert_eq!(a, b);
}

#[test]
fn offline_destination_suspends_and_recovers_migration() {
    use nvhsm_fault::{DeviceFaultSchedule, FaultKind, FaultWindow};

    // Hand-built plan: the SSD (ds 1) drops offline shortly after the
    // run starts and comes back quickly — within the abort grace.
    let schedules = vec![
        DeviceFaultSchedule::healthy(),
        DeviceFaultSchedule::from_windows(vec![FaultWindow {
            from: SimTime::from_ms(600),
            until: SimTime::from_ms(900),
            kind: FaultKind::Offline,
        }]),
        DeviceFaultSchedule::healthy(),
    ];
    let mut cfg = quick_cfg(PolicyKind::Bca);
    cfg.faults = Some(nvhsm_fault::FaultPlan::from_schedules(schedules, 3));
    cfg.degraded_cooldown = SimDuration::from_ms(200);
    let mut sim = NodeSim::new(cfg, 5);
    sim.add_workload_on(profile(Benchmark::Pagerank).with_working_set(20_000), 2)
        .unwrap();
    // Force a lazy migration HDD -> SSD into the outage window.
    sim.run(SimDuration::from_ms(400));
    let start = MigrationDecision {
        vmdk: VmdkId(0),
        src: DatastoreId(2),
        dst: DatastoreId(1),
        mode: MigrationMode::Lazy,
    };
    sim.start_migration(start);
    assert_eq!(sim.active_migrations(), 1);
    let report = sim.run(SimDuration::from_secs(4));
    // The migration either resumed after the outage and completed, or
    // is still copying — but nothing was lost either way.
    assert_eq!(report.blocks_lost, 0);
    assert!(
        report.migrations_resumed >= 1 || report.migrations_aborted >= 1,
        "outage never touched the migration: {report:?}"
    );
}

#[test]
fn degraded_store_gets_evacuated() {
    use nvhsm_fault::{DeviceFaultSchedule, FaultKind, FaultWindow};

    // The HDD (ds 2) flaps early, then stays up; its resident should be
    // moved off by the evacuation path even with balancing disabled.
    let schedules = vec![
        DeviceFaultSchedule::healthy(),
        DeviceFaultSchedule::healthy(),
        DeviceFaultSchedule::from_windows(vec![FaultWindow {
            from: SimTime::from_ms(300),
            until: SimTime::from_ms(500),
            kind: FaultKind::Offline,
        }]),
    ];
    let mut cfg = quick_cfg(PolicyKind::Bca);
    cfg.tau = 1.0; // imbalance path effectively never triggers
    cfg.faults = Some(nvhsm_fault::FaultPlan::from_schedules(schedules, 11));
    cfg.degraded_cooldown = SimDuration::from_secs(2);
    let mut sim = NodeSim::new(cfg, 5);
    let v = sim
        .add_workload_on(profile(Benchmark::Bayes).with_working_set(6_000), 2)
        .unwrap();
    let report = sim.run_secs(4);
    assert!(
        report.migrations_started >= 1,
        "no evacuation started: {report:?}"
    );
    let placed = sim.placement_of(v).unwrap();
    assert_ne!(placed, 2, "resident still on the degraded store");
}

#[test]
fn spec_traffic_inflates_nvdimm_latency() {
    let run = |spec: Option<SpecProgram>| -> f64 {
        let mut cfg = quick_cfg(PolicyKind::Basil);
        cfg.tau = 1.0; // effectively disable migration
        cfg.spec = spec;
        let mut sim = NodeSim::new(cfg, 11);
        sim.add_workload_on(profile(Benchmark::Bayes), 0).unwrap(); // on the NVDIMM
        let report = sim.run_secs(2);
        report.devices[0].mean_latency_us
    };
    let quiet = run(None);
    let noisy = run(Some(SpecProgram::Mcf429));
    assert!(
        noisy > quiet * 1.1,
        "contention had no effect: {noisy} vs {quiet}"
    );
}

// ---------------------------------------------------------------------------
// Pipeline stage tests: each stage in isolation, then composition.
// ---------------------------------------------------------------------------

/// A migration table with one active (unsuspended) mirror migration of
/// VMDK 0 from ds 1 to ds 0 over 64 blocks, with block 3 copied and
/// block 7 dirty (mirrored write).
fn mirror_table() -> Vec<MigrationRun> {
    let mut active = ActiveMigration::new(
        VmdkId(0),
        DatastoreId(1),
        DatastoreId(0),
        MigrationMode::Mirror,
        64,
        SimTime::ZERO,
    );
    active.record_copied(3);
    active.record_mirrored_write(7);
    vec![MigrationRun {
        active,
        next_copy_at: SimTime::ZERO,
    }]
}

#[test]
fn route_stage_without_migration_is_identity() {
    let r = route_request(2, VmdkId(0), IoOp::Read, 5, &[]);
    assert_eq!(
        r,
        Route {
            target_ds: 2,
            migration: None,
            mirror_route: None,
            stale_write: None,
            fallback_src: None,
        }
    );
}

#[test]
fn route_stage_mirrors_writes_to_destination() {
    let table = mirror_table();
    let r = route_request(1, VmdkId(0), IoOp::Write, 5, &table);
    assert_eq!(r.target_ds, 0, "writes go to the migration destination");
    assert_eq!(r.mirror_route, Some(0), "success must set bitmap bits");
    assert_eq!(r.fallback_src, Some(1), "source still holds a valid copy");
    assert_eq!(r.stale_write, None);
    // A different VMDK is untouched by the migration.
    let other = route_request(2, VmdkId(9), IoOp::Write, 5, &table);
    assert_eq!(other.target_ds, 2);
    assert_eq!(other.migration, None);
}

#[test]
fn route_stage_reads_follow_the_bitmap() {
    let table = mirror_table();
    // Uncopied block: read from the source, no fallback needed.
    let cold = route_request(1, VmdkId(0), IoOp::Read, 5, &table);
    assert_eq!((cold.target_ds, cold.fallback_src), (1, None));
    // Copied block: read from the destination, source is still valid.
    let copied = route_request(1, VmdkId(0), IoOp::Read, 3, &table);
    assert_eq!((copied.target_ds, copied.fallback_src), (0, Some(1)));
    // Dirty block: only the destination copy is current — no fallback.
    let dirty = route_request(1, VmdkId(0), IoOp::Read, 7, &table);
    assert_eq!((dirty.target_ds, dirty.fallback_src), (0, None));
}

#[test]
fn route_stage_pins_suspended_migrations_to_the_source() {
    let mut table = mirror_table();
    table[0].active.suspend(SimTime::from_ms(1));
    // Writes land on the source and must clear bitmap bits.
    let w = route_request(1, VmdkId(0), IoOp::Write, 3, &table);
    assert_eq!(
        (w.target_ds, w.stale_write, w.mirror_route),
        (1, Some(0), None)
    );
    // Reads of copied-but-clean blocks use the source replica...
    let clean = route_request(1, VmdkId(0), IoOp::Read, 3, &table);
    assert_eq!(clean.target_ds, 1);
    // ...but dirty blocks exist only at the destination.
    let dirty = route_request(1, VmdkId(0), IoOp::Read, 7, &table);
    assert_eq!(dirty.target_ds, 0);
}

#[test]
fn retry_stage_retries_transients_then_surfaces_the_error() {
    use nvhsm_fault::{DeviceFaultSchedule, FaultKind, FaultWindow};

    // The SSD fails every request for one second.
    let mut schedules = vec![DeviceFaultSchedule::healthy(); 3];
    schedules[1] = DeviceFaultSchedule::from_windows(vec![FaultWindow {
        from: SimTime::ZERO,
        until: SimTime::from_secs(1),
        kind: FaultKind::Transient { fail_prob: 1.0 },
    }]);
    let mut cfg = quick_cfg(PolicyKind::Bca);
    cfg.faults = Some(nvhsm_fault::FaultPlan::from_schedules(schedules, 3));
    let mut sim = NodeSim::new(cfg, 1);
    let req = IoRequest::normal(0, 0, 1, IoOp::Write, SimTime::ZERO);
    let err = sim.submit_with_retry(1, &req).unwrap_err();
    assert!(err.is_retryable(), "transient errors stay retryable");
    // 1 initial attempt + max_retries resubmissions, every one counted.
    let max = sim.cfg.max_retries as u64;
    assert_eq!(sim.retries, max);
    assert_eq!(sim.io_errors, max + 1);
    // Outside the window the same stage succeeds on the first attempt.
    let late = IoRequest::normal(0, 0, 1, IoOp::Write, SimTime::from_secs(2));
    assert!(sim.submit_with_retry(1, &late).is_ok());
    assert_eq!(sim.io_errors, max + 1, "no new errors after recovery");
}

#[test]
fn latency_stage_folds_wire_hops_additively() {
    // The same workload, same seed, homed next to its datastore vs across
    // the interconnect: the remote run must pay the NIC hops on every
    // request, through the same single accounting stage.
    let mean_latency = |home_node: usize| -> f64 {
        let mut cfg = quick_cfg(PolicyKind::Bca);
        cfg.tau = 1.0; // keep the manager out of the way
        let mut sim = NodeSim::with_nodes(cfg, 2, 7);
        sim.add_workload_with_home(
            profile(Benchmark::Sort).with_working_set(4_000),
            4, // node 1's SSD
            home_node,
        )
        .unwrap();
        sim.run(SimDuration::from_ms(500)).mean_latency_us
    };
    let local = mean_latency(1);
    let remote = mean_latency(0);
    // One hop is nic_latency (100 µs) plus wire time; reads pay it after
    // service, writes before — either way at least one hop per request.
    assert!(
        remote > local + 90.0,
        "wire hops not folded in: remote {remote} vs local {local}"
    );
}

proptest::proptest! {
    #![proptest_config(proptest::test_runner::ProptestConfig::with_cases(8))]
    /// Composing the pipeline with Null stages — a fault plan that never
    /// fires, a trace sink that discards everything, metrics enabled —
    /// must reproduce the bare fast path byte-for-byte, for arbitrary
    /// seeds and workloads.
    #[test]
    fn prop_null_stages_compose_to_identity(seed in 0u64..1_000, bench in 0u64..4) {
        let benches = [
            Benchmark::Sort,
            Benchmark::Bayes,
            Benchmark::Wordcount,
            Benchmark::Kmeans,
        ];
        let run = |null_stages: bool| {
            let mut cfg = quick_cfg(PolicyKind::BcaLazy);
            cfg.tau = 0.3;
            if null_stages {
                cfg.faults = Some(nvhsm_fault::FaultPlan::healthy(3));
            }
            let mut sim = NodeSim::new(cfg, seed);
            if null_stages {
                sim.set_trace_sink(Some(nvhsm_obs::shared(nvhsm_obs::NullSink)));
                sim.enable_metrics();
            }
            sim.add_workload(
                profile(benches[bench as usize]).with_working_set(8_000),
            );
            sim.run(SimDuration::from_ms(400))
        };
        let plain = serde_json::to_string(&run(false)).unwrap();
        let nulled = serde_json::to_string(&run(true)).unwrap();
        proptest::prop_assert_eq!(plain, nulled);
    }
}
