//! The three workloads: their seeded inputs and one repetition each,
//! driven only through the simulator's public API.
//!
//! A repetition is set-up (model pretraining, engine construction and
//! admission — timed), a warm-up (simulated but neither timed nor
//! counted), then the measured window, timed call by call. Everything
//! simulated is a pure function of the inputs, so every repetition of one
//! seed yields the same report; [`SimOutcome::digest`] pins that.

use crate::sink::DEVICES;
use crate::stats::Digest;
use nvdimm_hsm::core::{
    NodeCacheConfig, NodeConfig, NodeReport, NodeSim, PolicyKind, RecoveryPolicy, ServingConfig,
    ServingSim,
};
use nvdimm_hsm::device::{NvdimmDevice, SsdDevice};
use nvdimm_hsm::fault::{FaultIntensity, FaultPlan, LatentFault, NodeFaultPlan, NodeFaultSchedule};
use nvdimm_hsm::obs::{MetricsRegistry, SharedSink};
use nvdimm_hsm::sim::{SimDuration, SimRng, SimTime};
use nvdimm_hsm::workload::hibench::all_profiles;
use nvdimm_hsm::workload::tenant::{self, ChurnAction, ChurnConfig, ChurnEvent};
use nvdimm_hsm::workload::{SpecProgram, WorkloadProfile};
use std::collections::BTreeSet;
use std::time::Instant;

/// The benchmark's workloads.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Workload {
    /// One node, the paper's default mix, cache smaller than the working set.
    NodeMix,
    /// Four nodes on 1 GbE with cross-node homes, faults, crashes and scrub.
    ClusterCrash,
    /// A 1,000-node serving plane under flash-crowd tenant churn.
    FleetChurn,
}

impl Workload {
    pub const ALL: [Workload; 3] = [
        Workload::NodeMix,
        Workload::ClusterCrash,
        Workload::FleetChurn,
    ];

    pub fn name(self) -> &'static str {
        match self {
            Workload::NodeMix => "node_mix",
            Workload::ClusterCrash => "cluster_crash",
            Workload::FleetChurn => "fleet_churn",
        }
    }

    pub fn parse(name: &str) -> Option<Self> {
        Self::ALL.into_iter().find(|w| w.name() == name)
    }

    /// Timed repetitions every run makes, whatever its time budget, so its
    /// medians never rest on fewer.
    pub fn min_reps(self) -> usize {
        match self {
            Workload::NodeMix => 10,
            Workload::ClusterCrash => 6,
            Workload::FleetChurn => 3,
        }
    }

    /// Builds the workload's inputs from `seed`. Input generation is not
    /// part of any timed span.
    pub fn inputs(self, seed: u64) -> Inputs {
        match self {
            Workload::NodeMix => Inputs::Node(node_mix(seed)),
            Workload::ClusterCrash => Inputs::Node(cluster_crash(seed)),
            Workload::FleetChurn => Inputs::Fleet(fleet_churn(seed)),
        }
    }
}

/// Observability attached to one repetition.
#[derive(Clone, Default)]
pub struct Obs {
    /// Trace sink, attached for the measured window only.
    pub sink: Option<SharedSink>,
    /// Metrics registry (node engines; the serving plane's is always on).
    pub metrics: bool,
}

/// A workload's generated inputs.
pub enum Inputs {
    Node(NodeInputs),
    Fleet(FleetInputs),
}

impl Inputs {
    /// Runs one repetition.
    pub fn run(&self, obs: &Obs) -> Rep {
        match self {
            Inputs::Node(n) => n.run(obs),
            Inputs::Fleet(f) => f.run(obs),
        }
    }

    /// Model pretraining parameters `(requests per grid point, seed)` the
    /// engine uses, so its cost can be timed on its own.
    pub fn pretrain_args(&self) -> (usize, u64) {
        match self {
            Inputs::Node(n) => {
                let first = &n.instances[0];
                (first.cfg.train_requests, SimRng::new(first.seed).next_u64())
            }
            Inputs::Fleet(f) => (f.cfg.train_requests, f.cfg.seed),
        }
    }
}

/// What one repetition measured.
#[derive(Debug, Clone, Default)]
pub struct Rep {
    /// Host seconds of set-up: pretraining, construction, admission.
    pub setup_s: f64,
    /// Host µs of each admission call (`add_workload_placed_from` /
    /// `admit_tenant`), set-up and churn alike.
    pub admit_us: Vec<f64>,
    /// Host µs of each Eq. 4 placement (per VMDK placed).
    pub place_us: Vec<f64>,
    /// Host µs of each `retire_tenant` call.
    pub retire_us: Vec<f64>,
    /// Host ms of each measured management epoch.
    pub epoch_ms: Vec<f64>,
    /// Host seconds of every timed call in the measured window.
    pub run_s: f64,
    /// The simulated result.
    pub sim: SimOutcome,
    /// Failed correctness checks, as messages.
    pub failures: Vec<String>,
    /// The host's slowdown while this repetition ran, which its host times
    /// have been divided by; 0 until [`Rep::normalise`] sets it.
    pub host_factor: f64,
}

impl Rep {
    /// Divides every host time by `factor`, the host's slowdown against
    /// the nominal host (see [`crate::reference`]).
    pub fn normalise(&mut self, factor: f64) {
        self.host_factor = factor;
        self.setup_s /= factor;
        self.run_s /= factor;
        for xs in [
            &mut self.admit_us,
            &mut self.place_us,
            &mut self.retire_us,
            &mut self.epoch_ms,
        ] {
            xs.iter_mut().for_each(|x| *x /= factor);
        }
    }
}

/// Simulated statistics of one repetition: identical for every
/// repetition of one seed, traced or not. On request-level workloads,
/// `ios`, `attempted` and the cache/fallback/evacuation layers come from
/// the metrics registry, so only metrics-enabled repetitions carry them.
#[derive(Debug, Clone, Default)]
pub struct SimOutcome {
    /// Simulated seconds in the measured window.
    pub sim_s: f64,
    /// Workload I/O requests issued in the window (served + failed). On
    /// `fleet_churn`, the I/O the analytic model accounts to tenants.
    pub ios: u64,
    /// Mean and p99 request latency (the median over instances of each
    /// engine's own); on `fleet_churn`, the I/O-weighted analytic store
    /// latency and the p99 over tenant-epochs of each tenant's p99.
    pub mean_latency_us: f64,
    pub p99_latency_us: f64,
    /// Failed requests (node) or refused admissions (fleet) ...
    pub failed: u64,
    /// ... over attempted requests or admissions.
    pub attempted: u64,
    /// Migration copy-busy time, summed over instances.
    pub migration_busy_s: f64,
    /// Violating tenant-epochs over tenant-epochs (`fleet_churn`).
    pub slo_violations: u64,
    pub tenant_epochs: u64,
    /// Per-layer simulated counts, by per-layer metric name.
    pub layers: Vec<(&'static str, f64)>,
    /// FNV-1a over the canonical reports and every statistic above that
    /// all repetitions carry.
    pub digest: u64,
}

impl SimOutcome {
    /// Finishes the digest: `d` already holds the canonical report(s).
    fn seal(mut self, mut d: Digest) -> Self {
        for x in [
            self.sim_s,
            self.mean_latency_us,
            self.p99_latency_us,
            self.migration_busy_s,
        ] {
            d.f64(x);
        }
        for x in [
            self.ios,
            self.failed,
            self.attempted,
            self.slo_violations,
            self.tenant_epochs,
        ] {
            d.u64(x);
        }
        for (name, v) in &self.layers {
            d.bytes(name.as_bytes());
            d.f64(*v);
        }
        self.digest = d.finish();
        self
    }
}

// ---- request-level workloads ---------------------------------------------

/// One request-level workload: independent engine instances, each a full
/// draw of the workload under its own sub-seed, run one after another.
/// Pooling several draws keeps a run's figures from hinging on the luck
/// of one draw's placement.
pub struct NodeInputs {
    instances: Vec<NodeInstance>,
    warmup: SimDuration,
    epochs: u32,
}

/// One engine's configuration and admissions.
struct NodeInstance {
    cfg: NodeConfig,
    nodes: usize,
    seed: u64,
    /// Profiles in admission order, each with its compute node (`None`:
    /// wherever Eq. 4 places it).
    admissions: Vec<(WorkloadProfile, Option<usize>)>,
}

/// `n` sub-seeds drawn from `seed`.
fn sub_seeds(seed: u64, n: usize) -> Vec<u64> {
    let mut rng = SimRng::new(seed);
    (0..n).map(|_| rng.next_u64()).collect()
}

/// The eight HiBench profiles at 1/16 working set with MapReduce-style
/// intensity phases, their arrival rates scaled by `iops_scale`.
fn hibench_mix(iops_scale: f64) -> Vec<WorkloadProfile> {
    all_profiles()
        .into_iter()
        .enumerate()
        .map(|(i, p)| {
            let blocks = p.working_set_blocks / 16;
            let mut p = p.with_working_set(blocks);
            p.iops *= iops_scale;
            p.phase_amplitude = 0.85;
            p.phase_period_s = 2.0 + 0.7 * (i % 5) as f64;
            p
        })
        .collect()
}

/// Single-node instances per `node_mix` repetition.
/// Thirteen make 104 admissions and 650 epochs, enough distinct calls
/// for a p90 tail of each.
const NODE_MIX_INSTANCES: usize = 13;

fn node_mix(seed: u64) -> NodeInputs {
    let mut cfg = NodeConfig::small();
    cfg.policy = PolicyKind::BcaLazyArch;
    cfg.spec = Some(SpecProgram::Mcf429);
    // 4,096 blocks (16 MiB) of LRFU against a 20,992-block (82 MiB)
    // working set: the cache cannot hold the mix.
    cfg.cache = Some(NodeCacheConfig::small_test());
    // At the profiles' full rates the NVDIMM sits at its saturation knee
    // under the co-runner's bus load, and whether a draw lands above or
    // below it decides every figure; 70% keeps the node below the knee.
    let admissions: Vec<_> = hibench_mix(0.7).into_iter().map(|p| (p, None)).collect();
    NodeInputs {
        instances: sub_seeds(seed, NODE_MIX_INSTANCES)
            .into_iter()
            .map(|seed| NodeInstance {
                cfg: cfg.clone(),
                nodes: 1,
                seed,
                admissions: admissions.clone(),
            })
            .collect(),
        warmup: SimDuration::from_secs(2),
        epochs: 50,
    }
}

/// Nodes per `cluster_crash` instance, and instances per repetition.
const CLUSTER_NODES: usize = 4;
const CLUSTER_INSTANCES: usize = 8;

fn cluster_crash(seed: u64) -> NodeInputs {
    let warmup = SimDuration::from_secs(2);
    let epochs = 40;
    let mut cfg = NodeConfig::small();
    cfg.policy = PolicyKind::BcaLazyArch;
    cfg.spec = None;
    // 16,384 blocks (64 MiB) per node against a 41,984-block cluster
    // working set with at most 12,288 blocks homed per node: the cache
    // holds the hot set.
    cfg.cache = Some(NodeCacheConfig {
        capacity_blocks: 16_384,
        ..NodeCacheConfig::small_test()
    });
    cfg.recovery = RecoveryPolicy::Resume;
    cfg.scrub_rate = 2048;
    let horizon = warmup + cfg.epoch * epochs as u64 + SimDuration::from_secs(2);
    // Write-heavy: every profile writes at least half its requests.
    let profiles: Vec<WorkloadProfile> = hibench_mix(1.0)
        .into_iter()
        .map(|mut p| {
            p.wr_ratio = 0.5 + 0.5 * p.wr_ratio;
            p
        })
        .collect();
    // Four VMDKs per node; half of each node's run their compute on
    // node 0, so their I/O and migrations cross the NIC.
    let admissions: Vec<_> = (0..CLUSTER_NODES)
        .flat_map(|node| {
            let profiles = &profiles;
            (0..4).map(move |j| {
                let p = profiles[(4 * node + j) % profiles.len()].clone();
                (p, Some(if j % 2 == 0 { 0 } else { node }))
            })
        })
        .collect();
    NodeInputs {
        instances: sub_seeds(seed, CLUSTER_INSTANCES)
            .into_iter()
            .map(|seed| {
                let mut cfg = cfg.clone();
                cfg.faults = Some(FaultPlan::generate(
                    seed,
                    CLUSTER_NODES * 3,
                    horizon,
                    FaultIntensity::Light,
                ));
                cfg.node_faults = Some(crash_plan(seed, horizon));
                NodeInstance {
                    cfg,
                    nodes: CLUSTER_NODES,
                    seed,
                    admissions: admissions.clone(),
                }
            })
            .collect(),
        warmup,
        epochs,
    }
}

/// Whole-node power loss: about one short outage per node per 15
/// simulated seconds, so most failed requests come from device faults
/// exhausting their retries rather than from dark nodes; plus a latent
/// block fault per node every ~700 ms for the scrubber.
fn crash_plan(seed: u64, horizon: SimDuration) -> NodeFaultPlan {
    let mut master = SimRng::new(seed ^ 0x6372_6173_685f_6e6f);
    let end = SimTime::ZERO + horizon;
    let schedules = (0..CLUSTER_NODES)
        .map(|_| {
            let mut rng = master.fork();
            let mut outages = Vec::new();
            let mut at = SimTime::ZERO + SimDuration::from_us_f64(rng.exponential(15e6));
            while at < end {
                let len = SimDuration::from_us_f64(rng.uniform_range(40e3, 120e3));
                outages.push((at, at + len));
                at = at + len + SimDuration::from_us_f64(rng.exponential(15e6));
            }
            let mut latents = Vec::new();
            let mut at = SimTime::ZERO + SimDuration::from_us_f64(rng.exponential(700e3));
            while at < end {
                latents.push(LatentFault {
                    at,
                    slot: rng.below(3) as u8,
                    frac: rng.uniform(),
                });
                at += SimDuration::from_us_f64(rng.exponential(700e3));
            }
            NodeFaultSchedule::from_outages(outages).with_latents(latents)
        })
        .collect();
    NodeFaultPlan::from_schedules(schedules, seed)
}

/// Summed value of every counter named `name`.
fn counter_sum(m: &MetricsRegistry, name: &str) -> u64 {
    m.snapshot()
        .counters
        .iter()
        .filter(|c| c.key.name == name)
        .map(|c| c.value)
        .sum()
}

/// Cumulative flash GC stall of every NVDIMM and SSD, ns.
fn gc_stall_ns(sim: &NodeSim) -> u64 {
    sim.datastores()
        .iter()
        .map(|ds| {
            let dev = ds.device().as_any();
            if let Some(d) = dev.downcast_ref::<NvdimmDevice>() {
                d.flash().gc_stall_ns()
            } else if let Some(d) = dev.downcast_ref::<SsdDevice>() {
                d.flash().gc_stall_ns()
            } else {
                0
            }
        })
        .sum()
}

/// What one instance's measured window produced.
struct InstanceRun {
    report: NodeReport,
    gc_ms: f64,
    link_busy_s: f64,
    /// Counter sums from the metrics registry, when it was enabled.
    metrics: Option<Vec<(&'static str, u64)>>,
}

/// Registry counters the node layers read, by per-layer name.
const NODE_COUNTERS: [(&str, &str); 9] = [
    ("served", "requests"),
    ("failed", "failed_requests"),
    ("cache.hits", "cache_hits"),
    ("cache.misses", "cache_misses"),
    ("cache.evictions", "cache_evictions"),
    ("cache.bypassed", "cache_bypassed"),
    ("cache.writebacks", "cache_writebacks"),
    ("node.mirror_fallbacks", "mirror_fallbacks"),
    ("manager.evacuations", "evacuations"),
];

impl NodeInputs {
    fn run(&self, obs: &Obs) -> Rep {
        let mut rep = Rep::default();
        let runs: Vec<InstanceRun> = self
            .instances
            .iter()
            .map(|inst| self.run_instance(inst, obs, &mut rep))
            .collect();
        let window_s = (self.instances[0].cfg.epoch * self.epochs as u64).as_secs_f64();
        rep.sim = self.outcome(&runs, window_s, &mut rep.failures);
        rep
    }

    fn run_instance(&self, inst: &NodeInstance, obs: &Obs, rep: &mut Rep) -> InstanceRun {
        let cfg = inst.cfg.clone();
        let admissions = inst.admissions.clone();

        let t0 = Instant::now();
        let mut sim = NodeSim::with_nodes(cfg, inst.nodes, inst.seed);
        if obs.metrics {
            sim.enable_metrics();
        }
        for (profile, home) in admissions {
            let a = Instant::now();
            let placed = sim.add_workload_placed_from(profile, home);
            let us = a.elapsed().as_secs_f64() * 1e6;
            rep.admit_us.push(us);
            rep.place_us.push(us);
            if let Err(e) = placed {
                rep.failures.push(format!("admission refused: {e}"));
            }
        }
        rep.setup_s += t0.elapsed().as_secs_f64();

        sim.run(self.warmup);
        sim.reset_metrics();
        let gc_before = gc_stall_ns(&sim);
        sim.set_trace_sink(obs.sink.clone());
        let mut report = None;
        for _ in 0..self.epochs {
            let e = Instant::now();
            let r = sim.run(inst.cfg.epoch);
            let s = e.elapsed().as_secs_f64();
            rep.epoch_ms.push(s * 1e3);
            rep.run_s += s;
            report = Some(r);
        }
        sim.set_trace_sink(None);
        let report = report.expect("a node workload measures at least one epoch");
        if report.blocks_lost != 0 {
            rep.failures
                .push(format!("{} blocks lost", report.blocks_lost));
        }
        let metrics = sim.metrics().map(|m| {
            let mut counts: Vec<(&'static str, u64)> = NODE_COUNTERS
                .iter()
                .map(|&(name, counter)| (name, counter_sum(m, counter)))
                .collect();
            let samples = m
                .snapshot()
                .histograms
                .iter()
                .filter(|h| h.key.name == "latency_us")
                .map(|h| h.hist.count())
                .sum();
            counts.push(("latency_samples", samples));
            counts
        });
        if let Some(counts) = &metrics {
            check_served(&report, counts, &mut rep.failures);
        }
        let link_busy = sim
            .link_stats()
            .iter()
            .flat_map(|l| [l.tx.busy, l.rx.busy])
            .max()
            .unwrap_or(SimDuration::ZERO);
        InstanceRun {
            gc_ms: gc_stall_ns(&sim).saturating_sub(gc_before) as f64 / 1e6,
            link_busy_s: link_busy.as_secs_f64(),
            report,
            metrics,
        }
    }

    /// Pools the instances' simulated statistics.
    fn outcome(
        &self,
        runs: &[InstanceRun],
        window_s: f64,
        failures: &mut Vec<String>,
    ) -> SimOutcome {
        let sum = |f: &dyn Fn(&NodeReport) -> f64| runs.iter().map(|r| f(&r.report)).sum::<f64>();
        let med = |f: &dyn Fn(&NodeReport) -> f64| {
            crate::stats::median(&runs.iter().map(|r| f(&r.report)).collect::<Vec<_>>())
        };
        let mut layers = Vec::new();
        for (i, name) in [
            ("device.nvdimm.ios", "device.nvdimm.sim_mean_latency_us"),
            ("device.ssd.ios", "device.ssd.sim_mean_latency_us"),
            ("device.hdd.ios", "device.hdd.sim_mean_latency_us"),
        ]
        .into_iter()
        .enumerate()
        {
            let devices = || {
                runs.iter()
                    .flat_map(|r| &r.report.devices)
                    .filter(|d| d.kind.to_string() == DEVICES[i])
            };
            let n: u64 = devices().map(|d| d.io_count).sum();
            let lat: f64 = devices()
                .map(|d| d.io_count as f64 * d.mean_latency_us)
                .sum();
            layers.push((name.0, n as f64));
            layers.push((name.1, if n > 0 { lat / n as f64 } else { 0.0 }));
        }
        let observations = sum(&|r| r.model_observations as f64);
        layers.extend([
            ("flash.gc_stall_ms", runs.iter().map(|r| r.gc_ms).sum()),
            (
                "mem.bus_util_mean",
                med(&|r| {
                    let s = &r.bus_utilization_series;
                    s.iter().sum::<f64>() / s.len().max(1) as f64
                }),
            ),
            ("fault.io_errors", sum(&|r| r.io_errors as f64)),
            ("fault.retries", sum(&|r| r.retries as f64)),
            ("node.failed_requests", sum(&|r| r.failed_requests as f64)),
            ("migration.started", sum(&|r| r.migrations_started as f64)),
            (
                "migration.completed",
                sum(&|r| r.migrations_completed as f64),
            ),
            ("migration.aborted", sum(&|r| r.migrations_aborted as f64)),
            ("migration.resumed", sum(&|r| r.migrations_resumed as f64)),
            ("migration.copied_blocks", sum(&|r| r.copied_blocks as f64)),
            (
                "migration.mirrored_blocks",
                sum(&|r| r.mirrored_blocks as f64),
            ),
            ("net.bytes", sum(&|r| r.net_bytes as f64)),
            (
                "net.remote_migrations",
                sum(&|r| r.remote_migrations as f64),
            ),
            (
                "net.max_link_utilization",
                runs.iter().map(|r| r.link_busy_s).fold(0.0, f64::max) / window_s,
            ),
            ("recovery.node_crashes", sum(&|r| r.node_crashes as f64)),
            ("recovery.replays", sum(&|r| r.replays as f64)),
            ("recovery.time_ms", sum(&|r| r.recovery_time.as_ms_f64())),
            ("scrub.scanned", sum(&|r| r.scrub_scanned as f64)),
            ("scrub.repaired", sum(&|r| r.scrub_repaired as f64)),
            (
                "manager.placements_rejected",
                sum(&|r| r.placements_rejected as f64),
            ),
            ("model.observations", observations),
            (
                "model.pred_err_us",
                sum(&|r| r.model_pred_err_us * r.model_observations as f64) / observations.max(1.0),
            ),
            ("model.refits", sum(&|r| r.model_refits as f64)),
        ]);
        let mut d = Digest::new();
        for r in runs {
            d.bytes(
                serde_json::to_string(&r.report)
                    .expect("reports serialize")
                    .as_bytes(),
            );
        }
        let mut out = SimOutcome {
            sim_s: window_s * runs.len() as f64,
            mean_latency_us: med(&|r| r.mean_latency_us),
            p99_latency_us: med(&|r| r.p99_latency_us),
            failed: sum(&|r| r.failed_requests as f64) as u64,
            migration_busy_s: sum(&|r| r.migration_time.as_secs_f64()),
            layers,
            ..SimOutcome::default()
        }
        .seal(d);
        // What only the metrics registry counts stays out of the digest,
        // so metrics-enabled and plain repetitions digest alike.
        if runs.iter().all(|r| r.metrics.is_some()) {
            let count = |name: &str| -> u64 {
                runs.iter()
                    .flat_map(|r| r.metrics.iter().flatten())
                    .filter(|(n, _)| *n == name)
                    .map(|&(_, v)| v)
                    .sum()
            };
            out.ios = count("served") + count("failed");
            out.attempted = out.ios;
            let (hits, misses) = (count("cache.hits") as f64, count("cache.misses") as f64);
            out.layers.push((
                "cache.hit_ratio",
                if hits + misses > 0.0 {
                    hits / (hits + misses)
                } else {
                    0.0
                },
            ));
            for &(name, _) in &NODE_COUNTERS[2..9] {
                out.layers.push((name, count(name) as f64));
            }
        } else if runs.iter().any(|r| r.metrics.is_some()) {
            failures.push("metrics enabled on only some instances".into());
        }
        out
    }
}

/// Checks the served/failed bookkeeping of one instance: the engine's own
/// counters (its availability ratio and failed count), the accounting
/// tap's per-device counters, and its latency histograms must agree, so
/// served + failed is the number of requests attempted.
fn check_served(r: &NodeReport, counts: &[(&str, u64)], failures: &mut Vec<String>) {
    let get = |name: &str| {
        counts
            .iter()
            .find(|(n, _)| *n == name)
            .map_or(0, |&(_, v)| v)
    };
    let (served, failed, samples) = (get("served"), get("failed"), get("latency_samples"));
    if failed != r.failed_requests {
        failures.push(format!(
            "failed requests: metrics {failed} != engine {}",
            r.failed_requests
        ));
    }
    if samples != served {
        failures.push(format!(
            "served requests: counters {served} != latency samples {samples}"
        ));
    }
    let attempted = served + failed;
    let availability = if attempted == 0 {
        1.0
    } else {
        served as f64 / attempted as f64
    };
    if (availability - r.availability).abs() > 1e-12 {
        failures.push(format!(
            "served + failed != attempted: availability {availability} from the \
             counters, {} from the engine",
            r.availability
        ));
    }
}

// ---- fleet_churn ------------------------------------------------------------

/// The serving-plane workload: a churn schedule and a fleet to run it on.
pub struct FleetInputs {
    cfg: ServingConfig,
    schedule: Vec<ChurnEvent>,
    slo_us: f64,
    horizon_s: f64,
    epoch_s: f64,
    /// Leading epochs excluded from the window's statistics and timings.
    warmup_epochs: u64,
}

/// Fleet size and shard width of `fleet_churn`.
const FLEET_NODES: usize = 1_000;
const FLEET_SHARD: usize = 50;

fn fleet_churn(seed: u64) -> FleetInputs {
    let mut churn = ChurnConfig::flash(FLEET_NODES, seed);
    // Two hours make 115 measured epochs, enough distinct calls for a
    // p90 tail of the epoch time.
    churn.hours = 2.0;
    // Scale the open-loop arrival rate with the fleet, as the churn
    // experiment does, so a large fleet is not idle.
    churn.arrivals_per_hour *= FLEET_NODES as f64 / 4.0;
    let mut cfg = ServingConfig::small(FLEET_NODES);
    cfg.shard_nodes = FLEET_SHARD;
    cfg.train_requests = 40;
    cfg.seed = seed;
    FleetInputs {
        epoch_s: cfg.epoch_s,
        cfg,
        schedule: tenant::generate(&churn),
        slo_us: churn.slo_us,
        horizon_s: churn.hours * 3600.0,
        warmup_epochs: 5,
    }
}

impl FleetInputs {
    fn run(&self, obs: &Obs) -> Rep {
        let mut rep = Rep::default();
        let cfg = self.cfg.clone();
        let t0 = Instant::now();
        let mut sim = ServingSim::new(cfg);
        rep.setup_s = t0.elapsed().as_secs_f64();
        if let Some(sink) = &obs.sink {
            sim.set_trace_sink(sink.clone());
        }

        let (mut admits_ok, mut admits_refused, mut retires_ok) = (0u64, 0u64, 0u64);
        let mut live: BTreeSet<u32> = BTreeSet::new();
        let mut tenant_p99: Vec<f64> = Vec::new();
        let (mut io_weight, mut io_latency) = (0u64, 0.0f64);
        let (mut violations_all, mut violations, mut tenant_epochs) = (0u64, 0u64, 0u64);
        let mut epoch = 0u64;
        let mut next = self.schedule.iter().peekable();
        let mut epoch_end = self.epoch_s;
        while epoch_end <= self.horizon_s + self.epoch_s {
            let measured = epoch >= self.warmup_epochs;
            while let Some(ev) = next.next_if(|e| e.at_s <= epoch_end) {
                sim.set_now_s(ev.at_s);
                match &ev.action {
                    ChurnAction::Admit(spec) => {
                        let a = Instant::now();
                        let admitted = sim.admit_tenant(spec);
                        let s = a.elapsed().as_secs_f64();
                        rep.admit_us.push(s * 1e6);
                        rep.place_us.push(s * 1e6 / spec.vmdks.len().max(1) as f64);
                        rep.run_s += if measured { s } else { 0.0 };
                        // Refusals are admission control working: typed,
                        // counted, never fatal.
                        if admitted.is_ok() {
                            admits_ok += 1;
                            live.insert(spec.tenant);
                        } else {
                            admits_refused += 1;
                        }
                    }
                    ChurnAction::Retire(t) => {
                        let a = Instant::now();
                        let retired = sim.retire_tenant(*t);
                        let s = a.elapsed().as_secs_f64();
                        rep.retire_us.push(s * 1e6);
                        rep.run_s += if measured { s } else { 0.0 };
                        if retired {
                            retires_ok += 1;
                        }
                        if retired != live.remove(t) {
                            rep.failures
                                .push(format!("retire of tenant {t} disagrees with admissions"));
                        }
                    }
                }
            }
            let e = Instant::now();
            sim.run_epoch();
            let s = e.elapsed().as_secs_f64();
            epoch += 1;

            // QoS as settled for this epoch: every live tenant's p99.
            let m = sim.metrics();
            for &t in &live {
                let p99 = m.gauge("tenant_p99_us", "", t).unwrap_or(f64::NAN);
                let violating = p99 > self.slo_us;
                violations_all += violating as u64;
                if epoch > self.warmup_epochs {
                    tenant_p99.push(p99);
                    violations += violating as u64;
                    tenant_epochs += 1;
                }
            }
            if epoch > self.warmup_epochs {
                rep.epoch_ms.push(s * 1e3);
                rep.run_s += s;
                for o in sim.observations() {
                    for r in &o.residents {
                        io_weight += r.io_count;
                        io_latency += r.io_count as f64 * r.mean_latency_us;
                    }
                }
            }
            epoch_end += self.epoch_s;
        }

        let r = sim.report();
        let attempts = admits_ok + admits_refused;
        let refused = r.rejected_quota + r.rejected_capacity;
        if r.admitted != admits_ok || refused != admits_refused {
            rep.failures.push(format!(
                "admitted + rejected != attempted: report {} + {refused}, \
                 calls {admits_ok} ok + {admits_refused} refused",
                r.admitted
            ));
        }
        if r.retired != retires_ok || r.live_tenants != live.len() as u64 {
            rep.failures.push(format!(
                "tenant ledger: report retired {} live {}, calls {retires_ok} / {}",
                r.retired,
                r.live_tenants,
                live.len()
            ));
        }
        if r.slo_violation_epochs != violations_all {
            rep.failures.push(format!(
                "SLO epochs: report {} != settled gauges {violations_all}",
                r.slo_violation_epochs
            ));
        }
        if sim.store_usage().iter().any(|&(used, cap)| used > cap) {
            rep.failures
                .push("a store ledger exceeds its capacity".into());
        }
        if tenant_p99.iter().any(|x| x.is_nan()) {
            rep.failures.push("a live tenant has no settled p99".into());
        }

        let window_epochs = epoch.saturating_sub(self.warmup_epochs);
        tenant_p99.sort_by(f64::total_cmp);
        let p99 = tenant_p99
            .get((tenant_p99.len() * 99).div_ceil(100).max(1) - 1)
            .copied()
            .unwrap_or(0.0);
        let model = sim.model_stats();
        let layers = vec![
            ("serving.admitted", r.admitted as f64),
            ("serving.rejected", refused as f64),
            ("serving.spill_placements", r.spill_placements as f64),
            ("serving.migrations", r.migrations as f64),
            ("serving.tenant_epochs", tenant_epochs as f64),
            ("model.observations", model.observations as f64),
            ("model.pred_err_us", model.mean_abs_err_us()),
            ("model.refits", model.refits as f64),
        ];
        rep.sim = SimOutcome {
            sim_s: window_epochs as f64 * self.epoch_s,
            ios: io_weight,
            mean_latency_us: if io_weight > 0 {
                io_latency / io_weight as f64
            } else {
                0.0
            },
            p99_latency_us: p99,
            failed: admits_refused,
            attempted: attempts,
            migration_busy_s: 0.0,
            slo_violations: violations,
            tenant_epochs,
            layers,
            digest: 0,
        }
        .seal({
            let mut d = Digest::new();
            d.bytes(
                serde_json::to_string(&r)
                    .expect("reports serialize")
                    .as_bytes(),
            );
            d
        });
        rep
    }
}

#[cfg(test)]
mod tests {
    use super::Rep;

    #[test]
    fn normalise_divides_every_host_time() {
        let mut rep = Rep {
            setup_s: 2.0,
            run_s: 4.0,
            admit_us: vec![10.0],
            place_us: vec![6.0],
            retire_us: vec![8.0],
            epoch_ms: vec![1.0, 3.0],
            ..Rep::default()
        };
        rep.normalise(2.0);
        assert_eq!(rep.host_factor, 2.0);
        assert_eq!((rep.setup_s, rep.run_s), (1.0, 2.0));
        assert_eq!(
            (rep.admit_us, rep.place_us, rep.retire_us, rep.epoch_ms),
            (vec![5.0], vec![3.0], vec![4.0], vec![0.5, 1.5])
        );
    }
}
