//! Parallel execution must be invisible in experiment output: any table
//! merged from a scenario grid is byte-identical whether the grid ran on
//! one worker or many.

use nvhsm_device::{IoOp, IoRequest, SsdConfig, SsdDevice, StorageDevice};
use nvhsm_experiments::churn::{self, ChurnIntensity, ChurnParams};
use nvhsm_experiments::obs::{self, ObsOptions};
use nvhsm_experiments::{cache, cluster, crash, drift, faults, fig12, Scale};
use nvhsm_obs::to_jsonl;
use nvhsm_sim::{parallel, SimDuration, SimRng, SimTime};
use std::sync::Mutex;

/// The jobs override is process-global; tests that flip it take this lock
/// so each one really exercises the worker count it configures.
static JOBS_LOCK: Mutex<()> = Mutex::new(());

#[test]
fn fig12_output_is_byte_identical_across_job_counts() {
    let _guard = JOBS_LOCK.lock().unwrap();
    parallel::set_jobs(Some(1));
    let serial = fig12::run(Scale::Quick);
    parallel::set_jobs(Some(4));
    let parallel_run = fig12::run(Scale::Quick);
    parallel::set_jobs(None);

    // Rendered table, CSV, and serialized form: all byte-identical.
    assert_eq!(serial.render(), parallel_run.render());
    assert_eq!(serial.to_csv(), parallel_run.to_csv());
    assert_eq!(
        serde_json::to_string(&serial).expect("serializable"),
        serde_json::to_string(&parallel_run).expect("serializable"),
    );
}

#[test]
fn fault_injection_is_byte_identical_across_job_counts() {
    // Fault schedules and retry/abort decisions must derive only from the
    // plan seed, never from worker scheduling: the whole point of the
    // deterministic fault subsystem is that a failure seen at --jobs 4
    // reproduces exactly at --jobs 1.
    let _guard = JOBS_LOCK.lock().unwrap();
    parallel::set_jobs(Some(1));
    let serial = faults::run(Scale::Quick);
    parallel::set_jobs(Some(4));
    let parallel_run = faults::run(Scale::Quick);
    parallel::set_jobs(None);

    assert_eq!(serial.render(), parallel_run.render());
    assert_eq!(serial.to_csv(), parallel_run.to_csv());
    assert_eq!(
        serde_json::to_string(&serial).expect("serializable"),
        serde_json::to_string(&parallel_run).expect("serializable"),
    );
}

#[test]
fn crash_experiment_is_byte_identical_across_job_counts() {
    // Node fault schedules, replay ordering and scrub probes must derive
    // only from the plan seed and the simulation clock, never from worker
    // scheduling: a crash/recovery sequence seen at --jobs 4 reproduces
    // exactly at --jobs 1.
    let _guard = JOBS_LOCK.lock().unwrap();
    parallel::set_jobs(Some(1));
    let serial = crash::run(Scale::Quick);
    parallel::set_jobs(Some(4));
    let parallel_run = crash::run(Scale::Quick);
    parallel::set_jobs(None);

    assert_eq!(serial.render(), parallel_run.render());
    assert_eq!(serial.to_csv(), parallel_run.to_csv());
    assert_eq!(
        serde_json::to_string(&serial).expect("serializable"),
        serde_json::to_string(&parallel_run).expect("serializable"),
    );
}

#[test]
fn cluster_output_is_byte_identical_across_job_counts() {
    // The interconnect is a pure function of its call sequence, and the
    // call sequence is a pure function of the scenario — so the whole
    // cluster sweep (reports, link stats, per-node latencies) must not see
    // the worker count.
    let _guard = JOBS_LOCK.lock().unwrap();
    parallel::set_jobs(Some(1));
    let serial = cluster::run(Scale::Quick);
    parallel::set_jobs(Some(4));
    let parallel_run = cluster::run(Scale::Quick);
    parallel::set_jobs(None);

    assert_eq!(serial.render(), parallel_run.render());
    assert_eq!(serial.to_csv(), parallel_run.to_csv());
    assert_eq!(
        serde_json::to_string(&serial).expect("serializable"),
        serde_json::to_string(&parallel_run).expect("serializable"),
    );
}

/// Runs the cluster sweep with tracing + metrics armed and renders every
/// scenario capture into one string, exactly as `--trace`/`--metrics` would.
fn traced_cluster_dump() -> String {
    obs::set_observation(ObsOptions {
        trace: true,
        metrics: true,
    });
    let report = cluster::run(Scale::Quick);
    let mut dump = String::new();
    for s in obs::take_observations() {
        dump.push_str(&format!(
            "## grid={} case={} label={} dropped={}\n",
            s.grid, s.case, s.label, s.dropped
        ));
        dump.push_str(&to_jsonl(&s.events));
        if let Some(snap) = &s.metrics {
            dump.push_str(&serde_json::to_string(snap).expect("serializable snapshot"));
            dump.push('\n');
        }
    }
    obs::set_observation(ObsOptions::OFF);
    dump.push_str(&report.to_csv());
    dump
}

#[test]
fn cluster_traces_are_byte_identical_across_job_counts() {
    // Cross-node NetTransfer events and NIC metrics must order by
    // (grid, case), never by worker completion.
    let _guard = JOBS_LOCK.lock().unwrap();
    parallel::set_jobs(Some(1));
    let serial = traced_cluster_dump();
    parallel::set_jobs(Some(4));
    let fanned = traced_cluster_dump();
    parallel::set_jobs(None);

    assert!(!serial.is_empty());
    assert_eq!(serial, fanned);
}

/// Runs fig12 with tracing + metrics armed and renders every scenario
/// capture — ordering fields, label, JSONL events, metrics snapshot — into
/// one string, exactly as `--trace`/`--metrics` would see them.
fn traced_fig12_dump() -> String {
    obs::set_observation(ObsOptions {
        trace: true,
        metrics: true,
    });
    let report = fig12::run(Scale::Quick);
    let mut dump = String::new();
    for s in obs::take_observations() {
        dump.push_str(&format!(
            "## grid={} case={} label={} dropped={}\n",
            s.grid, s.case, s.label, s.dropped
        ));
        dump.push_str(&to_jsonl(&s.events));
        if let Some(snap) = &s.metrics {
            dump.push_str(&serde_json::to_string(snap).expect("serializable snapshot"));
            dump.push('\n');
        }
    }
    obs::set_observation(ObsOptions::OFF);
    dump.push_str(&report.to_csv());
    dump
}

#[test]
fn traces_are_byte_identical_across_job_counts() {
    // The observation layer must not leak worker scheduling: the JSONL
    // trace and metrics dumps for --jobs 1 and --jobs 4 are byte-identical,
    // scenario order included.
    let _guard = JOBS_LOCK.lock().unwrap();
    parallel::set_jobs(Some(1));
    let serial = traced_fig12_dump();
    parallel::set_jobs(Some(4));
    let fanned = traced_fig12_dump();
    parallel::set_jobs(None);

    assert!(!serial.is_empty());
    assert_eq!(serial, fanned);
}

/// Runs the cache sweep with tracing + metrics armed and renders every
/// scenario capture into one string, exactly as `--trace`/`--metrics` would.
fn traced_cache_dump() -> String {
    obs::set_observation(ObsOptions {
        trace: true,
        metrics: true,
    });
    let report = cache::run(Scale::Quick);
    let mut dump = String::new();
    for s in obs::take_observations() {
        dump.push_str(&format!(
            "## grid={} case={} label={} dropped={}\n",
            s.grid, s.case, s.label, s.dropped
        ));
        dump.push_str(&to_jsonl(&s.events));
        if let Some(snap) = &s.metrics {
            dump.push_str(&serde_json::to_string(snap).expect("serializable snapshot"));
            dump.push('\n');
        }
    }
    obs::set_observation(ObsOptions::OFF);
    dump.push_str(&report.to_csv());
    dump
}

#[test]
fn cache_experiment_is_byte_identical_across_job_counts() {
    // The cache stage keeps no RNG of its own: hit/miss sequences, sweep
    // bypass verdicts and classifier scores derive only from the request
    // stream and the simulation clock, so the whole sweep table must not
    // see the worker count.
    let _guard = JOBS_LOCK.lock().unwrap();
    parallel::set_jobs(Some(1));
    let serial = cache::run(Scale::Quick);
    parallel::set_jobs(Some(4));
    let parallel_run = cache::run(Scale::Quick);
    parallel::set_jobs(None);

    assert_eq!(serial.render(), parallel_run.render());
    assert_eq!(serial.to_csv(), parallel_run.to_csv());
    assert_eq!(
        serde_json::to_string(&serial).expect("serializable"),
        serde_json::to_string(&parallel_run).expect("serializable"),
    );
}

#[test]
fn cache_traces_are_byte_identical_across_job_counts() {
    // CacheHit/CacheMiss/CacheEvict/CacheBypass events and the cache
    // counters must order by (grid, case), never by worker completion.
    let _guard = JOBS_LOCK.lock().unwrap();
    parallel::set_jobs(Some(1));
    let serial = traced_cache_dump();
    parallel::set_jobs(Some(4));
    let fanned = traced_cache_dump();
    parallel::set_jobs(None);

    assert!(!serial.is_empty());
    assert!(
        serial.contains("CacheBypass"),
        "cache trace is missing sweep-bypass events"
    );
    assert_eq!(serial, fanned);
}

#[test]
fn churn_experiment_is_byte_identical_across_job_counts() {
    // Tenant arrival schedules, admission decisions and SLO accounting
    // derive only from per-tenant seeded RNG streams and the epoch clock:
    // a rejection seen at --jobs 4 reproduces exactly at --jobs 1.
    let _guard = JOBS_LOCK.lock().unwrap();
    parallel::set_jobs(Some(1));
    let serial = churn::run(Scale::Quick);
    parallel::set_jobs(Some(4));
    let parallel_run = churn::run(Scale::Quick);
    parallel::set_jobs(None);

    assert_eq!(serial.render(), parallel_run.render());
    assert_eq!(serial.to_csv(), parallel_run.to_csv());
    assert_eq!(
        serde_json::to_string(&serial).expect("serializable"),
        serde_json::to_string(&parallel_run).expect("serializable"),
    );
}

/// Runs the churn sweep with tracing + metrics armed and renders every
/// scenario capture into one string, exactly as `--trace`/`--metrics` would.
fn traced_churn_dump() -> String {
    obs::set_observation(ObsOptions {
        trace: true,
        metrics: true,
    });
    let report = churn::run(Scale::Quick);
    let mut dump = String::new();
    for s in obs::take_observations() {
        dump.push_str(&format!(
            "## grid={} case={} label={} dropped={}\n",
            s.grid, s.case, s.label, s.dropped
        ));
        dump.push_str(&to_jsonl(&s.events));
        if let Some(snap) = &s.metrics {
            dump.push_str(&serde_json::to_string(snap).expect("serializable snapshot"));
            dump.push('\n');
        }
    }
    obs::set_observation(ObsOptions::OFF);
    dump.push_str(&report.to_csv());
    dump
}

#[test]
fn churn_traces_are_byte_identical_across_job_counts() {
    // TenantAdmit/Placement/SloViolation/TenantRetire events and the
    // per-tenant QoS metrics must order by (grid, case), never by worker
    // completion.
    let _guard = JOBS_LOCK.lock().unwrap();
    parallel::set_jobs(Some(1));
    let serial = traced_churn_dump();
    parallel::set_jobs(Some(4));
    let fanned = traced_churn_dump();
    parallel::set_jobs(None);

    assert!(!serial.is_empty());
    assert!(
        serial.contains("TenantAdmit"),
        "churn trace is missing tenant lifecycle events"
    );
    assert_eq!(serial, fanned);
}

/// The datacenter-scale acceptance case: 1,000 nodes (3,000 datastores)
/// under flash-crowd churn, placing well over 10,000 VMDKs.
fn datacenter_churn_dump() -> (String, u64) {
    obs::set_observation(ObsOptions {
        trace: true,
        metrics: true,
    });
    let reports = churn::run_churn_grid(
        vec![ChurnParams {
            nodes: 1000,
            shard_nodes: 5,
            intensity: ChurnIntensity::Flash,
            seed: 9,
            phantom_heat: false,
        }],
        Scale::Quick,
    );
    let mut dump = String::new();
    for s in obs::take_observations() {
        dump.push_str(&format!(
            "## grid={} case={} label={} dropped={}\n",
            s.grid, s.case, s.label, s.dropped
        ));
        dump.push_str(&to_jsonl(&s.events));
        if let Some(snap) = &s.metrics {
            dump.push_str(&serde_json::to_string(snap).expect("serializable snapshot"));
            dump.push('\n');
        }
    }
    obs::set_observation(ObsOptions::OFF);
    let placed = reports[0].placed_vmdks;
    dump.push_str(&serde_json::to_string(&reports).expect("serializable"));
    (dump, placed)
}

#[test]
fn datacenter_scale_churn_is_byte_identical_across_job_counts() {
    // The tentpole acceptance scenario: a 1,000-node sharded fleet under
    // open-loop flash churn places >10k VMDKs, and the full JSON report,
    // JSONL trace and metrics snapshot are byte-identical at --jobs 1
    // and --jobs 4.
    let _guard = JOBS_LOCK.lock().unwrap();
    parallel::set_jobs(Some(1));
    let (serial, placed) = datacenter_churn_dump();
    parallel::set_jobs(Some(4));
    let (fanned, _) = datacenter_churn_dump();
    parallel::set_jobs(None);

    assert!(
        placed >= 10_000,
        "datacenter scenario too small: {placed} VMDKs placed"
    );
    assert_eq!(serial, fanned);
}

#[test]
fn drift_experiment_is_byte_identical_across_job_counts() {
    // Online refits must consume no simulation RNG and key only to epoch
    // boundaries: the learned corrections, drift detections and the
    // decisions they steer reproduce exactly regardless of the worker
    // count.
    let _guard = JOBS_LOCK.lock().unwrap();
    parallel::set_jobs(Some(1));
    let serial = drift::run(Scale::Quick);
    parallel::set_jobs(Some(4));
    let parallel_run = drift::run(Scale::Quick);
    parallel::set_jobs(None);

    assert_eq!(serial.render(), parallel_run.render());
    assert_eq!(serial.to_csv(), parallel_run.to_csv());
    assert_eq!(
        serde_json::to_string(&serial).expect("serializable"),
        serde_json::to_string(&parallel_run).expect("serializable"),
    );
}

/// Runs the drift sweep with tracing + metrics armed and renders every
/// scenario capture into one string, exactly as `--trace`/`--metrics` would.
fn traced_drift_dump() -> String {
    obs::set_observation(ObsOptions {
        trace: true,
        metrics: true,
    });
    let report = drift::run(Scale::Quick);
    let mut dump = String::new();
    for s in obs::take_observations() {
        dump.push_str(&format!(
            "## grid={} case={} label={} dropped={}\n",
            s.grid, s.case, s.label, s.dropped
        ));
        dump.push_str(&to_jsonl(&s.events));
        if let Some(snap) = &s.metrics {
            dump.push_str(&serde_json::to_string(snap).expect("serializable snapshot"));
            dump.push('\n');
        }
    }
    obs::set_observation(ObsOptions::OFF);
    dump.push_str(&report.to_csv());
    dump
}

#[test]
fn drift_traces_are_byte_identical_across_job_counts() {
    // ModelRefit/DriftDetected events and the pred_error_us metrics must
    // order by (grid, case), never by worker completion — and the online
    // arms must actually emit them.
    let _guard = JOBS_LOCK.lock().unwrap();
    parallel::set_jobs(Some(1));
    let serial = traced_drift_dump();
    parallel::set_jobs(Some(4));
    let fanned = traced_drift_dump();
    parallel::set_jobs(None);

    assert!(!serial.is_empty());
    assert!(
        serial.contains("ModelRefit"),
        "drift trace is missing model refit events"
    );
    assert!(
        serial.contains("DriftDetected"),
        "drift trace is missing drift detection events"
    );
    assert_eq!(serial, fanned);
}

/// A small but non-trivial device scenario; returns latencies as raw bits
/// so the comparison below tolerates no floating-point slack at all.
fn ssd_scenario(seed: u64) -> Vec<u64> {
    let mut dev = SsdDevice::new(SsdConfig::small_test());
    dev.prefill(0..dev.logical_blocks() / 4);
    let mut rng = SimRng::new(seed);
    let span = dev.logical_blocks() / 4;
    let mut t = SimTime::ZERO;
    (0..500u64)
        .map(|i| {
            let op = if i % 4 == 0 { IoOp::Write } else { IoOp::Read };
            let c = dev
                .try_submit(&IoRequest::normal(0, rng.below(span), 2, op, t))
                .expect("no fault hook installed");
            t += SimDuration::from_us(30);
            c.latency.as_us_f64().to_bits()
        })
        .collect()
}

#[test]
fn random_scenario_grids_match_serial_bit_for_bit() {
    let _guard = JOBS_LOCK.lock().unwrap();
    let mut rng = SimRng::new(0xD5);
    for round in 0..3 {
        let grid_len = 5 + round * 7;
        let seeds: Vec<u64> = (0..grid_len).map(|_| rng.next_u64()).collect();
        parallel::set_jobs(Some(1));
        let serial = parallel::map_grid(seeds.clone(), ssd_scenario);
        parallel::set_jobs(Some(1 + grid_len / 2));
        let fanned = parallel::map_grid(seeds, ssd_scenario);
        parallel::set_jobs(None);
        assert_eq!(serial, fanned, "grid of {grid_len} scenarios diverged");
    }
}
