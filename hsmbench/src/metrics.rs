//! The metric catalogue: every metric the benchmark reports, with its unit
//! and direction. `BENCHMARK.json` at the repository root lists the same
//! names (a test below keeps the two in step).

/// Which way a metric improves.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Better {
    Higher,
    Lower,
}

/// A catalogue entry.
pub struct Spec {
    pub name: &'static str,
    pub unit: &'static str,
    pub better: Better,
}

const fn spec(name: &'static str, unit: &'static str, better: Better) -> Spec {
    Spec { name, unit, better }
}

use Better::{Higher, Lower};

/// End-to-end host-side metrics (untraced runs), reported on every
/// workload, each with a regression bound in `BENCHMARK.json`.
pub const END_TO_END: [Spec; 8] = [
    spec("setup_s", "s", Lower),
    spec("sim_s_per_host_s", "s/s", Higher),
    spec("sim_ios_per_host_s", "1/s", Higher),
    spec("epoch_host_ms_p50", "ms", Lower),
    spec("epoch_host_ms_tail", "ms", Lower),
    spec("admit_host_us_p50", "us", Lower),
    spec("admit_host_us_tail", "us", Lower),
    spec("peak_rss_mb", "MiB", Lower),
];

/// Per-layer metrics (traced runs). A layer a workload does not exercise
/// reads 0 there.
pub const PER_LAYER: [Spec; 63] = [
    // Simulated outcomes. Exact for a seed but far apart across seeds
    // (and some read 0 on some workload), so no relative bound can hold
    // over a set of seeds; the report digest guards them instead.
    spec("sim_mean_latency_us", "us", Lower),
    spec("sim_p99_latency_us", "us", Lower),
    spec("failed_share", "ratio", Lower),
    spec("migration_busy_s", "s", Lower),
    spec("slo_violation_share", "ratio", Lower),
    // core.node
    spec("node.ios_attempted", "count", Higher),
    spec("node.host_ns_per_io", "ns", Lower),
    spec("node.self_host_ns_per_io", "ns", Lower),
    // device
    spec("device.nvdimm.ios", "count", Higher),
    spec("device.ssd.ios", "count", Higher),
    spec("device.hdd.ios", "count", Higher),
    spec("device.nvdimm.host_ns_per_io", "ns", Lower),
    spec("device.ssd.host_ns_per_io", "ns", Lower),
    spec("device.hdd.host_ns_per_io", "ns", Lower),
    spec("device.nvdimm.sim_mean_latency_us", "us", Lower),
    spec("device.ssd.sim_mean_latency_us", "us", Lower),
    spec("device.hdd.sim_mean_latency_us", "us", Lower),
    // flash
    spec("flash.barrier_dispatches", "count", Higher),
    spec("flash.barrier_discards", "count", Higher),
    spec("flash.gc_stall_ms", "ms", Lower),
    // mem
    spec("mem.bus_util_mean", "ratio", Lower),
    // cache
    spec("cache.hits", "count", Higher),
    spec("cache.misses", "count", Lower),
    spec("cache.hit_ratio", "ratio", Higher),
    spec("cache.evictions", "count", Lower),
    spec("cache.bypassed", "count", Higher),
    spec("cache.writebacks", "count", Lower),
    // fault / retry
    spec("fault.io_errors", "count", Lower),
    spec("fault.retries", "count", Lower),
    spec("node.failed_requests", "count", Lower),
    spec("node.mirror_fallbacks", "count", Lower),
    // core.migration
    spec("migration.started", "count", Lower),
    spec("migration.completed", "count", Higher),
    spec("migration.aborted", "count", Lower),
    spec("migration.resumed", "count", Higher),
    spec("migration.copied_blocks", "count", Lower),
    spec("migration.mirrored_blocks", "count", Higher),
    // core.net
    spec("net.bytes", "bytes", Lower),
    spec("net.remote_migrations", "count", Lower),
    spec("net.max_link_utilization", "ratio", Lower),
    // core.node.recovery / scrub
    spec("recovery.node_crashes", "count", Lower),
    spec("recovery.replays", "count", Lower),
    spec("recovery.time_ms", "ms", Lower),
    spec("scrub.scanned", "count", Higher),
    spec("scrub.repaired", "count", Higher),
    // core.manager
    spec("manager.imbalance_triggers", "count", Lower),
    spec("manager.imbalance_vetoes", "count", Lower),
    spec("manager.evacuations", "count", Lower),
    spec("manager.placements_rejected", "count", Lower),
    spec("manager.place_host_us", "us", Lower),
    // core.serving
    spec("serving.admitted", "count", Higher),
    spec("serving.rejected", "count", Lower),
    spec("serving.spill_placements", "count", Lower),
    spec("serving.migrations", "count", Lower),
    spec("serving.tenant_epochs", "count", Higher),
    spec("serving.retire_host_us_p50", "us", Lower),
    // core.training / model
    spec("training.pretrain_host_ms", "ms", Lower),
    spec("model.observations", "count", Higher),
    spec("model.pred_err_us", "us", Lower),
    spec("model.refits", "count", Lower),
    // obs
    spec("obs.trace_events", "count", Lower),
    spec("obs.trace_overhead_ratio", "ratio", Lower),
    // host: the reference's raw time; every host time is divided by it
    // over its nominal time (see src/reference.rs)
    spec("host.reference_ms", "ms", Lower),
];

/// A measured metric.
pub struct Metric {
    pub name: &'static str,
    pub unit: &'static str,
    pub better: Better,
    pub value: f64,
}

/// Lines up measured `values` with the catalogue `specs`. A per-layer
/// metric the workload does not produce reads 0; a missing or non-finite
/// end-to-end metric fails a check (and reads 0 so the output stays
/// valid JSON).
pub fn resolve(
    specs: &[Spec],
    values: &[(&'static str, f64)],
    zero_if_missing: bool,
    checks: &mut Vec<String>,
) -> Vec<Metric> {
    specs
        .iter()
        .map(|s| {
            let found = values.iter().find(|(n, _)| *n == s.name).map(|&(_, v)| v);
            let value = match found {
                Some(v) if v.is_finite() => v,
                None if zero_if_missing => 0.0,
                other => {
                    checks.push(format!("{} not measured ({other:?})", s.name));
                    0.0
                }
            };
            Metric {
                name: s.name,
                unit: s.unit,
                better: s.better,
                value,
            }
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use serde_json::Value;

    fn field<'a>(v: &'a Value, key: &str) -> &'a Value {
        match v {
            Value::Map(m) => m
                .iter()
                .find(|(k, _)| k == key)
                .map(|(_, v)| v)
                .unwrap_or_else(|| panic!("no {key:?}")),
            _ => panic!("not an object"),
        }
    }

    fn text(v: &Value) -> &str {
        match v {
            Value::Str(s) => s,
            _ => panic!("not a string"),
        }
    }

    fn entries(v: &Value) -> &[Value] {
        match v {
            Value::Seq(s) => s,
            _ => panic!("not a list"),
        }
    }

    #[test]
    fn catalogue_matches_benchmark_json() {
        let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
        let json = std::fs::read_to_string(path).expect("BENCHMARK.json beside the benchmark");
        let root: Value = serde_json::from_str(&json).expect("BENCHMARK.json parses");
        for (key, specs) in [
            ("end_to_end", &END_TO_END[..]),
            ("per_layer", &PER_LAYER[..]),
        ] {
            let listed = entries(field(&root, key));
            assert_eq!(listed.len(), specs.len(), "{key} length");
            for (e, s) in listed.iter().zip(specs) {
                assert_eq!(text(field(e, "name")), s.name);
                assert_eq!(text(field(e, "unit")), s.unit, "{}", s.name);
                let better = match s.better {
                    Higher => "higher",
                    Lower => "lower",
                };
                assert_eq!(text(field(e, "better")), better, "{}", s.name);
            }
        }
        let names: Vec<&str> = entries(field(&root, "workloads"))
            .iter()
            .map(|w| text(field(w, "name")))
            .collect();
        let ours: Vec<&str> = crate::scenario::Workload::ALL
            .iter()
            .map(|w| w.name())
            .collect();
        assert_eq!(names, ours);
    }

    #[test]
    fn names_are_unique() {
        let mut all: Vec<&str> = END_TO_END
            .iter()
            .chain(PER_LAYER.iter())
            .map(|s| s.name)
            .collect();
        all.sort_unstable();
        let n = all.len();
        all.dedup();
        assert_eq!(all.len(), n);
    }

    #[test]
    fn resolve_zero_fills_only_per_layer() {
        let specs = [spec("a", "s", Lower), spec("b", "s", Lower)];
        let mut checks = Vec::new();
        let m = resolve(&specs, &[("a", 1.5)], true, &mut checks);
        assert_eq!((m[0].value, m[1].value), (1.5, 0.0));
        assert!(checks.is_empty());
        let m = resolve(&specs, &[("a", f64::NAN)], false, &mut checks);
        assert_eq!((m[0].value, m[1].value), (0.0, 0.0));
        assert_eq!(checks.len(), 2);
    }
}
