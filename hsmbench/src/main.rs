//! `hsmbench` — the end-to-end benchmark of the nvdimm-hsm simulator.
//!
//! ```text
//! hsmbench --workload <node_mix|cluster_crash|fleet_churn> --seed <n>
//!          --seconds <s> --trace <0|1>
//! ```
//!
//! One run builds the workload's inputs from the seed, runs one audit
//! repetition with the metrics registry on (correctness checks, simulated
//! counts, and a warm process), then repeats the workload untraced for
//! `--seconds` (at least [`Workload::min_reps`] times) and reports the
//! end-to-end metrics. With `--trace 1` it splits the budget between
//! untraced repetitions and traced ones (benchmark-owned [`TimingSink`]
//! plus metrics) and reports the per-layer metrics instead.
//!
//! Every repetition of a seed must digest to the same simulated report,
//! traced or not. Any failed check makes the run print `"correct": false`
//! and exit with status 1; bad arguments exit with status 2 before any
//! result is printed. See `README.md` beside this crate for the metric
//! definitions.

mod metrics;
mod reference;
mod scenario;
mod sink;
mod stats;

use metrics::{Better, Metric, END_TO_END, PER_LAYER};
use nvdimm_hsm::core::pretrain_models;
use nvdimm_hsm::obs::{shared, SharedSink};
use scenario::{Inputs, Obs, Rep, Workload};
use sink::TimingSink;
use stats::{median, tail, Tail};
use std::process::ExitCode;
use std::time::{Duration, Instant};

const USAGE: &str = "usage: hsmbench --workload <node_mix|cluster_crash|fleet_churn> \
                     --seed <n> --seconds <s> --trace <0|1>";

/// Traced repetitions a `--trace 1` run makes at least.
const MIN_TRACED_REPS: usize = 3;

struct Args {
    workload: Workload,
    seed: u64,
    seconds: f64,
    trace: bool,
}

impl Args {
    fn parse(mut it: impl Iterator<Item = String>) -> Result<Args, String> {
        let (mut workload, mut seed, mut seconds, mut trace) = (None, None, None, None);
        while let Some(flag) = it.next() {
            let value = it.next().ok_or(format!("{flag} needs a value"))?;
            let bad = |what: &str| format!("{flag}: {what}, got {value:?}");
            match flag.as_str() {
                "--workload" => {
                    workload = Some(Workload::parse(&value).ok_or_else(|| bad("unknown workload"))?)
                }
                "--seed" => seed = Some(value.parse().map_err(|_| bad("expected an integer"))?),
                "--seconds" => {
                    let s: f64 = value.parse().map_err(|_| bad("expected a number"))?;
                    if !(s.is_finite() && s > 0.0 && s <= 3600.0) {
                        return Err(bad("expected 0 < seconds <= 3600"));
                    }
                    seconds = Some(s);
                }
                "--trace" => {
                    trace = Some(match value.as_str() {
                        "0" => false,
                        "1" => true,
                        _ => return Err(bad("expected 0 or 1")),
                    })
                }
                _ => return Err(format!("unknown flag {flag:?}")),
            }
        }
        Ok(Args {
            workload: workload.ok_or("--workload is required")?,
            seed: seed.ok_or("--seed is required")?,
            seconds: seconds.ok_or("--seconds is required")?,
            trace: trace.ok_or("--trace is required")?,
        })
    }
}

fn main() -> ExitCode {
    let args = match Args::parse(std::env::args().skip(1)) {
        Ok(a) => a,
        Err(e) => {
            eprintln!("hsmbench: {e}\n{USAGE}");
            return ExitCode::from(2);
        }
    };
    // Single-threaded throughout, model pretraining included: the numbers
    // must not depend on how many cores the host lends the run.
    nvdimm_hsm::sim::parallel::set_jobs(Some(1));
    let run = Run::new(&args);
    let (metrics, checks) = if args.trace {
        run.per_layer(args.seconds)
    } else {
        run.end_to_end(args.seconds)
    };
    let mut failures = run.audit.failures.clone();
    failures.extend(checks);
    print_result(&args, &run, &metrics, failures)
}

/// The inputs of one run plus its audit repetition.
struct Run {
    workload: Workload,
    inputs: Inputs,
    audit: Rep,
    /// The process's peak resident set once the audit repetition ended,
    /// MiB: before any timed repetition, so it does not grow with how many
    /// of them fit in the budget.
    audit_rss_mb: Option<f64>,
    /// Repetitions run, and those that failed a check.
    reps: std::cell::Cell<(u64, u64)>,
}

impl Run {
    fn new(args: &Args) -> Run {
        let inputs = args.workload.inputs(args.seed);
        let audit = inputs.run(&Obs {
            sink: None,
            metrics: true,
        });
        let failed = !audit.failures.is_empty();
        Run {
            workload: args.workload,
            inputs,
            audit,
            audit_rss_mb: peak_rss_mb(),
            reps: std::cell::Cell::new((1, failed as u64)),
        }
    }

    /// Repeats the workload under `obs()` until `budget` has passed and at
    /// least `min` repetitions ran; checks each against the audit digest.
    fn repeat(
        &self,
        obs: impl Fn() -> Obs,
        min: usize,
        budget: Duration,
        checks: &mut Vec<String>,
    ) -> Vec<(Rep, Obs)> {
        let start = Instant::now();
        let mut out = Vec::new();
        while out.len() < min || start.elapsed() < budget {
            let o = obs();
            let before = reference::time();
            let mut rep = self.inputs.run(&o);
            rep.normalise(reference::slowdown(before, reference::time()));
            if rep.sim.digest != self.audit.sim.digest {
                rep.failures.push(format!(
                    "simulated report digest {:016x} != audit {:016x}",
                    rep.sim.digest, self.audit.sim.digest
                ));
            }
            let (n, failed) = self.reps.get();
            self.reps
                .set((n + 1, failed + !rep.failures.is_empty() as u64));
            checks.append(&mut rep.failures);
            out.push((rep, o));
        }
        out
    }

    fn untraced(&self, min: usize, budget: Duration, checks: &mut Vec<String>) -> Vec<Rep> {
        self.repeat(Obs::default, min, budget, checks)
            .into_iter()
            .map(|(rep, _)| rep)
            .collect()
    }

    /// The simulated outcomes of the audit repetition; `None` where a
    /// workload has no such notion (node engines carry no tenant SLO; the
    /// serving plane moves VMDKs instantly, with no copy to time).
    fn outcomes(&self) -> [(&'static str, Option<f64>); 5] {
        let sim = &self.audit.sim;
        let fleet = self.workload == Workload::FleetChurn;
        [
            ("sim_mean_latency_us", Some(sim.mean_latency_us)),
            ("sim_p99_latency_us", Some(sim.p99_latency_us)),
            (
                "failed_share",
                Some(sim.failed as f64 / sim.attempted.max(1) as f64),
            ),
            ("migration_busy_s", (!fleet).then_some(sim.migration_busy_s)),
            (
                "slo_violation_share",
                fleet.then(|| sim.slo_violations as f64 / sim.tenant_epochs.max(1) as f64),
            ),
        ]
    }

    /// The end-to-end metrics, from untraced repetitions.
    fn end_to_end(&self, seconds: f64) -> (Vec<Metric>, Vec<String>) {
        let mut checks = Vec::new();
        let min = self.workload.min_reps();
        let reps = self.untraced(min, Duration::from_secs_f64(seconds), &mut checks);
        let sim = &self.audit.sim;
        let run_s = median(&collect(&reps, |r| vec![r.run_s]));
        let epochs = collect(&reps, |r| r.epoch_ms.clone());
        let admits = collect(&reps, |r| r.admit_us.clone());
        // Repetitions re-time the same calls, so the tail rule counts the
        // distinct calls of one repetition; the value uses every sample.
        let epoch_tail = tail(&epochs, self.audit.epoch_ms.len());
        let admit_tail = tail(&admits, self.audit.admit_us.len());
        let mut values = vec![
            ("setup_s", median(&collect(&reps, |r| vec![r.setup_s]))),
            ("sim_s_per_host_s", sim.sim_s / run_s),
            ("sim_ios_per_host_s", sim.ios as f64 / run_s),
            ("epoch_host_ms_p50", median(&epochs)),
            ("epoch_host_ms_tail", tail_value(epoch_tail, &mut checks)),
            ("admit_host_us_p50", median(&admits)),
            ("admit_host_us_tail", tail_value(admit_tail, &mut checks)),
        ];
        match self.audit_rss_mb {
            Some(mb) => values.push(("peak_rss_mb", mb)),
            None => checks.push("peak RSS unavailable (/proc/self/status)".into()),
        }
        println!(
            "{} untraced repetitions, host times normalised by a median \
             slowdown of {:.3}; tails: epoch {}, admission {}",
            reps.len(),
            median(&collect(&reps, |r| vec![r.host_factor])),
            describe(epoch_tail, self.audit.epoch_ms.len()),
            describe(admit_tail, self.audit.admit_us.len())
        );
        for (name, value) in self.outcomes() {
            let shown = value.map_or("n/a".into(), |v| v.to_string());
            println!(
                "{:<14} {name:<34} {shown:>22} (simulated, exact per seed)",
                self.workload.name()
            );
        }
        (
            metrics::resolve(&END_TO_END, &values, false, &mut checks),
            checks,
        )
    }

    /// The per-layer metrics, from traced repetitions (with untraced ones
    /// for the tracing overhead).
    fn per_layer(&self, seconds: f64) -> (Vec<Metric>, Vec<String>) {
        let mut checks = Vec::new();
        let half = Duration::from_secs_f64(seconds / 2.0);
        let untraced = self.untraced(MIN_TRACED_REPS, half, &mut checks);
        let traced = self.repeat(
            || Obs {
                sink: Some(shared(TimingSink::new())),
                metrics: true,
            },
            MIN_TRACED_REPS,
            half,
            &mut checks,
        );
        let sinks: Vec<(&Rep, TimingSink)> = traced
            .iter()
            .map(|(rep, obs)| {
                let sink = obs.sink.as_ref().expect("traced repetitions carry a sink");
                (rep, take_sink(sink))
            })
            .collect();
        for (_, s) in &sinks {
            if s.unpaired() != 0 {
                checks.push(format!("{} unpaired device trace events", s.unpaired()));
            }
        }
        let sink0 = &sinks[0].1;
        let sim = &self.audit.sim;
        let ios = sim.ios as f64;
        let per_rep = |f: &dyn Fn(&Rep, &TimingSink) -> f64| {
            median(&sinks.iter().map(|(r, s)| f(r, s)).collect::<Vec<_>>())
        };
        let pretrain_ms = {
            let (requests, seed) = self.inputs.pretrain_args();
            let times: Vec<f64> = (0..MIN_TRACED_REPS)
                .map(|_| {
                    let before = reference::time();
                    let t = Instant::now();
                    std::hint::black_box(pretrain_models(requests, seed));
                    let ms = t.elapsed().as_secs_f64() * 1e3;
                    ms / reference::slowdown(before, reference::time())
                })
                .collect();
            median(&times)
        };
        let request_level = self.workload != Workload::FleetChurn;
        let node_io = |x: f64| if request_level && ios > 0.0 { x } else { 0.0 };
        let mut values = vec![
            ("node.ios_attempted", if request_level { ios } else { 0.0 }),
            (
                "node.host_ns_per_io",
                node_io(per_rep(&|r, _| r.run_s * 1e9 / ios)),
            ),
            (
                "node.self_host_ns_per_io",
                node_io(per_rep(&|r, s| {
                    (r.run_s - s.device_time().as_secs_f64() / r.host_factor) * 1e9 / ios
                })),
            ),
            (
                "flash.barrier_dispatches",
                sink0.count("BarrierDispatch") as f64,
            ),
            (
                "flash.barrier_discards",
                sink0.count("BarrierDiscard") as f64,
            ),
            (
                "manager.imbalance_triggers",
                sink0.imbalance_triggers() as f64,
            ),
            ("manager.imbalance_vetoes", sink0.imbalance_vetoes() as f64),
            (
                "manager.place_host_us",
                median(&collect_refs(&sinks, |r| r.place_us.clone())),
            ),
            (
                "serving.retire_host_us_p50",
                zero_if_nan(median(&collect_refs(&sinks, |r| r.retire_us.clone()))),
            ),
            ("training.pretrain_host_ms", pretrain_ms),
            ("obs.trace_events", sink0.events() as f64),
            (
                "obs.trace_overhead_ratio",
                per_rep(&|r, _| r.run_s) / median(&collect(&untraced, |r| vec![r.run_s])),
            ),
            (
                "host.reference_ms",
                per_rep(&|r, _| r.host_factor * reference::NOMINAL_S * 1e3),
            ),
        ];
        values.extend(
            self.outcomes()
                .into_iter()
                .filter_map(|(name, v)| Some((name, v?))),
        );
        let span_metrics = [
            "device.nvdimm.host_ns_per_io",
            "device.ssd.host_ns_per_io",
            "device.hdd.host_ns_per_io",
        ];
        for (i, name) in span_metrics.into_iter().enumerate() {
            let ns = per_rep(&|r, s| {
                let sp = s.spans(i);
                sp.total.as_secs_f64() * 1e9 / sp.count.max(1) as f64 / r.host_factor
            });
            values.push((name, ns));
        }
        values.extend(sim.layers.iter().copied());
        println!(
            "{} untraced + {} traced repetitions",
            untraced.len(),
            sinks.len()
        );
        (
            metrics::resolve(&PER_LAYER, &values, true, &mut checks),
            checks,
        )
    }
}

fn collect(reps: &[Rep], f: impl Fn(&Rep) -> Vec<f64>) -> Vec<f64> {
    reps.iter().flat_map(f).collect()
}

fn collect_refs(reps: &[(&Rep, TimingSink)], f: impl Fn(&Rep) -> Vec<f64>) -> Vec<f64> {
    reps.iter().flat_map(|(r, _)| f(r)).collect()
}

fn zero_if_nan(x: f64) -> f64 {
    if x.is_nan() {
        0.0
    } else {
        x
    }
}

fn tail_value(t: Option<Tail>, checks: &mut Vec<String>) -> f64 {
    t.map(|t| t.value).unwrap_or_else(|| {
        checks.push("too few samples for a tail percentile".into());
        f64::NAN
    })
}

fn describe(t: Option<Tail>, distinct: usize) -> String {
    t.map_or("n/a".into(), |t| {
        format!(
            "p{} of {} samples ({distinct} distinct calls)",
            t.percentile, t.samples
        )
    })
}

/// Takes the sink's state out of its shared handle.
fn take_sink(sink: &SharedSink) -> TimingSink {
    let mut guard = sink.lock().expect("no thread panicked holding the sink");
    std::mem::take(
        guard
            .as_any()
            .downcast_mut::<TimingSink>()
            .expect("the benchmark attaches only TimingSinks"),
    )
}

/// The process's peak resident set, MiB.
fn peak_rss_mb() -> Option<f64> {
    let status = std::fs::read_to_string("/proc/self/status").ok()?;
    let line = status.lines().find(|l| l.starts_with("VmHWM:"))?;
    let kb: f64 = line.split_whitespace().nth(1)?.parse().ok()?;
    Some(kb / 1024.0)
}

fn print_result(args: &Args, run: &Run, metrics: &[Metric], failures: Vec<String>) -> ExitCode {
    let name = run.workload.name();
    for m in metrics {
        let better = match m.better {
            Better::Higher => "higher is better",
            Better::Lower => "lower is better",
        };
        println!(
            "{name:<14} {:<34} {:>22} {:<6} {better}",
            m.name, m.value, m.unit
        );
    }
    println!(
        "digest {name} seed={} {:016x}",
        args.seed, run.audit.sim.digest
    );
    for f in &failures {
        println!("CHECK FAILED: {f}");
    }
    let correct = failures.is_empty();
    let (attempted, failed) = run.reps.get();
    let body: Vec<String> = metrics
        .iter()
        .map(|m| {
            format!(
                "\"{}\": {{\"value\": {}, \"unit\": \"{}\"}}",
                m.name, m.value, m.unit
            )
        })
        .collect();
    println!(
        "{{\"correct\": {correct}, \"attempted\": {attempted}, \"failed\": {failed}, \
         \"metrics\": {{{}}}}}",
        body.join(", ")
    );
    if correct {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}
