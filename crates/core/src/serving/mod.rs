//! Datacenter-scale multi-tenant serving: the control plane alone.
//!
//! [`crate::NodeSim`] simulates every I/O request, which caps it at a
//! handful of nodes. The serving plane asks a different question — does
//! placement, admission control and SLO accounting hold up at thousands of
//! nodes and tens of thousands of VMDKs under open-loop tenant churn? —
//! and for that the per-request detail is wasted work. [`ServingSim`]
//! keeps only the management view: per-store capacity ledgers, an
//! analytic latency model (`baseline + slope × OIO`, the same LQ shape
//! the manager's baselines assume), and the *real* policy brain behind
//! the [`PolicyEngine`] seam — the identical `Manager` /
//! [`ShardedPolicyEngine`] code that drives the request-level simulator,
//! fed synthesized [`DeviceObservation`]s instead of measured ones.
//!
//! Each epoch the sim rebuilds observations from the ledgers, runs the
//! engine's Eq. 5 balance pass (applying any migration instantly — the
//! copy itself is below this abstraction), and settles per-tenant QoS:
//! a tenant's p99 is its worst VMDK's store latency (plus the
//! interconnect hop when placed off its home node) scaled by a tail
//! factor. SLO violations are counted every violating epoch but traced
//! only on *onset*, so a long-degraded tenant costs one event, not one
//! per epoch.
//!
//! Admissions are all-or-nothing: a tenant's VMDKs place one at a time
//! through Eq. 4, and any failure rolls back the ones already placed, so
//! capacity ledgers never carry a partially admitted tenant. Rejections
//! are typed [`PlacementError`]s — quota refusals never panic and never
//! touch the ledgers.
//!
//! Determinism: everything here is a pure function of the config and the
//! admission/retire sequence. Two sims fed the same churn schedule
//! produce byte-identical reports, traces and metrics regardless of how
//! many worker threads the surrounding experiment grid uses.

use crate::datastore::DatastoreId;
use crate::manager::{
    DeviceHealth, DeviceObservation, Manager, NetworkCosts, PolicyEngine, ResidentInfo,
    ShardedPolicyEngine,
};
use crate::node::PlacementError;
use crate::online::{ModelSource, OnlineModelConfig};
use crate::policy::PolicyKind;
use crate::training::{
    pretrain_models, DeviceModels, ModelEvent, ModelObservation, ModelSourceStats,
};
use crate::vmdk::VmdkId;
use nvhsm_device::{DeviceKind, EpochStats};
use nvhsm_model::Features;
use nvhsm_obs::{emit, MetricsRegistry, SharedSink, TraceEvent};
use nvhsm_sim::{OnlineStats, SimDuration};
use nvhsm_workload::tenant::{TenantSpec, VmdkDemand};
use serde::{Deserialize, Serialize};
use std::collections::BTreeMap;

/// Tiers per node, in store-index order (NVDIMM, SSD, HDD — Fig. 1).
const TIERS: [DeviceKind; 3] = [DeviceKind::Nvdimm, DeviceKind::Ssd, DeviceKind::Hdd];

/// Serving-plane configuration.
#[derive(Debug, Clone)]
pub struct ServingConfig {
    /// Server nodes; each carries one store per tier.
    pub nodes: usize,
    /// Nodes per placement shard (`0` = one unsharded [`Manager`];
    /// `>= nodes` = a single shard, byte-identical to unsharded).
    pub shard_nodes: usize,
    /// Management policy.
    pub policy: PolicyKind,
    /// Eq. 5 imbalance threshold τ.
    pub tau: f64,
    /// Management epoch length, seconds.
    pub epoch_s: f64,
    /// Per-tier store capacity, blocks (NVDIMM, SSD, HDD).
    pub tier_blocks: [u64; 3],
    /// Admission-control quota: total blocks one tenant may hold.
    pub tenant_quota_blocks: u64,
    /// Interconnect hop latency, µs (charged when a VMDK serves off its
    /// tenant's home node).
    pub hop_us: f64,
    /// Tail factor: p99 ≈ factor × mean latency.
    pub p99_factor: f64,
    /// Model-training stream length (see [`pretrain_models`]).
    pub train_requests: usize,
    /// Training seed.
    pub seed: u64,
    /// Online model updating for the engine (`None` = the static
    /// pretrained source, byte-identical to builds without the online
    /// subsystem).
    pub online_model: Option<OnlineModelConfig>,
}

impl ServingConfig {
    /// A small fleet with roomy stores and a quota that admits most
    /// tenants drawn by [`nvhsm_workload::tenant::ChurnConfig::calm`].
    pub fn small(nodes: usize) -> Self {
        ServingConfig {
            nodes,
            shard_nodes: 0,
            policy: PolicyKind::Pesto,
            // τ = 1 disables the Eq. 4 imbalance preview (Δ/max cannot
            // exceed 1). The preview compares latencies *across tiers*,
            // and at fleet scale the NVDIMM/HDD spread keeps it above any
            // realistic τ permanently — admission would refuse a fleet
            // with oceans of free capacity. Serving-plane rejections
            // should be capacity judgements; epoch balancing still runs
            // the full Eq. 5/6/7 pipeline.
            tau: 1.0,
            epoch_s: 60.0,
            tier_blocks: [80_000, 400_000, 2_000_000],
            tenant_quota_blocks: 150_000,
            hop_us: 120.0,
            p99_factor: 3.0,
            train_requests: 30,
            seed: 11,
            online_model: None,
        }
    }
}

/// One store's capacity ledger.
#[derive(Debug, Clone)]
struct StoreState {
    node: usize,
    kind: DeviceKind,
    capacity_blocks: u64,
    used_blocks: u64,
    /// Resident VMDKs, in admission order.
    residents: Vec<u32>,
}

/// One placed VMDK.
#[derive(Debug, Clone)]
struct VmdkState {
    tenant: u32,
    store: usize,
    demand: VmdkDemand,
}

/// One live tenant.
#[derive(Debug, Clone)]
struct TenantState {
    slo_us: f64,
    home_node: usize,
    vmdks: Vec<u32>,
    blocks: u64,
    /// Epochs spent past the SLO.
    violation_epochs: u64,
    /// Whether the previous epoch violated (onset edge detector).
    in_violation: bool,
}

/// Aggregate run counters (serializable for experiment JSON).
#[derive(Debug, Clone, Default, Serialize, Deserialize)]
pub struct ServingReport {
    /// Tenants admitted.
    pub admitted: u64,
    /// VMDKs placed by admissions over the run (migrations not counted).
    pub placed_vmdks: u64,
    /// Tenants retired.
    pub retired: u64,
    /// Admissions refused by the quota gate.
    pub rejected_quota: u64,
    /// Admissions refused for lack of feasible capacity.
    pub rejected_capacity: u64,
    /// Placements that landed outside the tenant's home shard.
    pub spill_placements: u64,
    /// Balance migrations applied.
    pub migrations: u64,
    /// Tenant-epochs spent in SLO violation.
    pub slo_violation_epochs: u64,
    /// Worst per-tenant p99 seen, µs.
    pub worst_p99_us: f64,
    /// Management epochs run.
    pub epochs: u64,
    /// Tenants still live at the end.
    pub live_tenants: u64,
    /// VMDKs still placed at the end.
    pub live_vmdks: u64,
}

/// The control-plane simulator.
pub struct ServingSim {
    cfg: ServingConfig,
    engine: Box<dyn PolicyEngine>,
    /// The sim's own copy of the trained models for latency synthesis
    /// (the engine's source holds an identical clone).
    models: DeviceModels,
    stores: Vec<StoreState>,
    vmdks: BTreeMap<u32, VmdkState>,
    tenants: BTreeMap<u32, TenantState>,
    next_vmdk: u32,
    /// Observation cache: rebuilt each epoch, patched incrementally by
    /// admissions/retirements so mid-epoch placements see current
    /// capacity. Latencies go stale between epochs by design — the real
    /// manager also only samples at epoch boundaries.
    obs: Vec<DeviceObservation>,
    now_ns: u64,
    report: ServingReport,
    metrics: MetricsRegistry,
    trace: Option<SharedSink>,
}

impl ServingSim {
    /// Builds the serving plane.
    ///
    /// # Panics
    ///
    /// Panics if `cfg.nodes` is zero.
    pub fn new(cfg: ServingConfig) -> Self {
        assert!(cfg.nodes > 0, "serving plane needs at least one node");
        let net = NetworkCosts {
            hop_us: cfg.hop_us,
            per_block_us: 0.0,
        };
        let models = pretrain_models(cfg.train_requests, cfg.seed);
        let source = ModelSource::new(models.clone(), cfg.online_model);
        let mut engine: Box<dyn PolicyEngine> = if cfg.shard_nodes > 0 {
            Box::new(ShardedPolicyEngine::new(
                Manager::with_source(cfg.policy, cfg.tau, source),
                cfg.shard_nodes,
            ))
        } else {
            Box::new(Manager::with_source(cfg.policy, cfg.tau, source))
        };
        engine.set_network(net);
        let tier_blocks = cfg.tier_blocks;
        let stores = (0..cfg.nodes)
            .flat_map(|node| {
                TIERS
                    .iter()
                    .enumerate()
                    .map(move |(tier, &kind)| StoreState {
                        node,
                        kind,
                        capacity_blocks: tier_blocks[tier],
                        used_blocks: 0,
                        residents: Vec::new(),
                    })
            })
            .collect::<Vec<_>>();
        let mut sim = ServingSim {
            engine,
            models,
            stores,
            vmdks: BTreeMap::new(),
            tenants: BTreeMap::new(),
            next_vmdk: 0,
            obs: Vec::new(),
            now_ns: 0,
            report: ServingReport::default(),
            metrics: MetricsRegistry::new(),
            trace: None,
            cfg,
        };
        sim.obs = sim.build_observations();
        sim
    }

    /// Attaches a trace sink.
    pub fn set_trace_sink(&mut self, sink: SharedSink) {
        self.trace = Some(sink);
    }

    /// Advances the wall clock (monotonic; earlier times are ignored).
    pub fn set_now_s(&mut self, s: f64) {
        let ns = (s * 1e9) as u64;
        self.now_ns = self.now_ns.max(ns);
    }

    /// Admits a tenant: quota gate, then Eq. 4 placement of every VMDK.
    /// All-or-nothing — any failure rolls back and the ledgers are
    /// untouched.
    pub fn admit_tenant(&mut self, spec: &TenantSpec) -> Result<(), PlacementError> {
        let requested = spec.total_blocks();
        if requested > self.cfg.tenant_quota_blocks {
            self.report.rejected_quota += 1;
            self.metrics
                .counter_inc("tenant_rejected_quota", "", spec.tenant);
            return Err(PlacementError::TenantOverQuota {
                tenant: spec.tenant,
                requested_blocks: requested,
                quota_blocks: self.cfg.tenant_quota_blocks,
            });
        }
        let home = spec.home_node % self.cfg.nodes;
        let mut placed: Vec<(u32, usize)> = Vec::with_capacity(spec.vmdks.len());
        for demand in &spec.vmdks {
            let id = self.next_vmdk + placed.len() as u32;
            let info = self.arrival_info(id, demand);
            let Some(DatastoreId(store)) =
                self.engine
                    .initial_placement_from(&self.obs, &info, Some(home))
            else {
                // Roll back the siblings placed so far (`placed` aligns
                // with the spec's VMDK prefix).
                for (&(vid, store), d) in placed.iter().zip(&spec.vmdks) {
                    self.remove_vmdk_from_store(vid, store, d);
                }
                self.report.rejected_capacity += 1;
                self.metrics
                    .counter_inc("tenant_rejected_capacity", "", spec.tenant);
                return Err(PlacementError::NoFeasibleDatastore {
                    size_blocks: demand.blocks,
                });
            };
            self.place_vmdk(id, store, demand);
            placed.push((id, store));
        }
        debug_assert_eq!(placed.len(), spec.vmdks.len());
        // Commit: the admission precedes its placements in the trace.
        let (t, vmdks) = (self.now_ns, spec.vmdks.len() as u32);
        emit(&self.trace, || TraceEvent::TenantAdmit {
            t,
            tenant: spec.tenant,
            vmdks,
            blocks: requested,
        });
        for (&(id, store), demand) in placed.iter().zip(&spec.vmdks) {
            self.vmdks.insert(
                id,
                VmdkState {
                    tenant: spec.tenant,
                    store,
                    demand: *demand,
                },
            );
            // checked_div: unsharded (shard_nodes = 0) means no shard
            // boundaries, so nothing ever counts as a spill.
            let node = self.stores[store].node;
            let shards = self.cfg.shard_nodes;
            if node.checked_div(shards) != home.checked_div(shards) {
                self.report.spill_placements += 1;
            }
            let (t, kind) = (self.now_ns, self.stores[store].kind);
            emit(&self.trace, || TraceEvent::Placement {
                t,
                vmdk: id,
                dst: format!("{kind}@{store}"),
            });
        }
        self.next_vmdk += placed.len() as u32;
        self.report.placed_vmdks += placed.len() as u64;
        self.tenants.insert(
            spec.tenant,
            TenantState {
                slo_us: spec.slo_us,
                home_node: home,
                vmdks: placed.iter().map(|&(id, _)| id).collect(),
                blocks: requested,
                violation_epochs: 0,
                in_violation: false,
            },
        );
        self.report.admitted += 1;
        self.metrics.counter_inc("tenant_admitted", "", spec.tenant);
        Ok(())
    }

    /// Retires a tenant, releasing every block it held. Returns `false`
    /// for tenants never admitted (e.g. rejected at arrival).
    pub fn retire_tenant(&mut self, tenant: u32) -> bool {
        let Some(state) = self.tenants.remove(&tenant) else {
            return false;
        };
        for id in state.vmdks {
            if let Some(v) = self.vmdks.remove(&id) {
                self.remove_vmdk_from_store(id, v.store, &v.demand);
            }
        }
        self.report.retired += 1;
        self.metrics.counter_inc("tenant_retired", "", tenant);
        let (t, violations) = (self.now_ns, state.violation_epochs);
        emit(&self.trace, || TraceEvent::TenantRetire {
            t,
            tenant,
            violations,
        });
        true
    }

    /// Closes one management epoch: refresh observations, run the
    /// engine's balance pass (applying any move instantly), then settle
    /// per-tenant QoS.
    pub fn run_epoch(&mut self) {
        self.now_ns += (self.cfg.epoch_s * 1e9) as u64;
        self.report.epochs += 1;
        self.obs = self.build_observations();
        self.feed_model();
        if let Some(d) = self.engine.epoch_decision(&self.obs, false) {
            let (src, dst) = (d.src.0, d.dst.0);
            let demand = self.vmdks.get(&d.vmdk.0).map(|v| v.demand);
            if let Some(demand) = demand {
                if self.store_free(dst) >= demand.blocks {
                    self.remove_vmdk_from_store(d.vmdk.0, src, &demand);
                    self.place_vmdk(d.vmdk.0, dst, &demand);
                    if let Some(v) = self.vmdks.get_mut(&d.vmdk.0) {
                        v.store = dst;
                    }
                    self.report.migrations += 1;
                    self.metrics.counter_inc("serving_migrations", "", 0);
                }
            }
        }
        let diag = self.engine.last_diagnostics();
        let (t, epoch) = (self.now_ns, self.report.epochs);
        let (imbalance, triggered, vetoed) = (diag.imbalance, diag.triggered, diag.vetoed);
        emit(&self.trace, || TraceEvent::ImbalanceTrigger {
            t,
            epoch,
            imbalance,
            triggered,
            vetoed,
        });
        self.settle_qos();
    }

    /// Feeds the engine's model source this epoch's (features, analytic
    /// latency) pairs and closes its model epoch — the serving-plane
    /// mirror of the request-level simulator's feedback tap, so flat and
    /// sharded engines learn from the same seam at both scales.
    fn feed_model(&mut self) {
        let fed: Vec<ModelObservation> = self
            .obs
            .iter()
            .flat_map(|o| {
                o.residents
                    .iter()
                    .filter(|r| r.io_count > 0)
                    .map(|r| ModelObservation {
                        kind: o.kind,
                        features: r.features,
                        measured_us: r.mean_latency_us,
                    })
            })
            .collect();
        let before = self.engine.model_stats();
        self.engine.observe_model(&fed);
        let after = self.engine.model_stats();
        let d_count = after.err_count.saturating_sub(before.err_count);
        if d_count > 0 {
            let d_err = (after.err_sum_us - before.err_sum_us).max(0.0);
            self.metrics
                .observe("pred_error_us", "", 0, d_err / d_count as f64);
        }
        let t = self.now_ns;
        for e in self.engine.end_model_epoch() {
            match e {
                ModelEvent::Drift {
                    kind,
                    stat_us,
                    threshold_us,
                } => {
                    emit(&self.trace, || TraceEvent::DriftDetected {
                        t,
                        device: kind.to_string(),
                        stat_us,
                        threshold_us,
                    });
                    self.metrics
                        .counter_inc("model_drifts", &kind.to_string(), 0);
                }
                ModelEvent::Refit {
                    kind,
                    samples,
                    err_before_us,
                    err_after_us,
                } => {
                    emit(&self.trace, || TraceEvent::ModelRefit {
                        t,
                        device: kind.to_string(),
                        samples: samples as u64,
                        err_before_us,
                        err_after_us,
                    });
                    self.metrics
                        .counter_inc("model_refits", &kind.to_string(), 0);
                }
            }
        }
    }

    /// The engine's model-source statistics so far (observations fed,
    /// drifts, refits, mean absolute prediction error).
    pub fn model_stats(&self) -> ModelSourceStats {
        self.engine.model_stats()
    }

    /// Forwards a hot/cold heat observation to the engine (see
    /// [`PolicyEngine::observe_heat`]). The serving plane has no request
    /// datapath of its own, so heat arrives from outside — a node-level
    /// classifier or an operator hint; hot VMDKs are preferred as
    /// migration candidates at the next epoch.
    pub fn observe_heat(&mut self, hot: &[crate::vmdk::VmdkId]) {
        self.engine.observe_heat(hot);
    }

    /// Per-tenant QoS settlement for the epoch that just closed.
    fn settle_qos(&mut self) {
        let store_lat: Vec<f64> = (0..self.stores.len())
            .map(|s| self.store_mean_us(s))
            .collect();
        let mut onsets: Vec<(u32, f64, f64)> = Vec::new();
        for (&tenant, state) in &mut self.tenants {
            let mut worst_mean = 0.0f64;
            let mut served = 0u64;
            for &id in &state.vmdks {
                let v = &self.vmdks[&id];
                let hop = if self.stores[v.store].node == state.home_node {
                    0.0
                } else {
                    self.cfg.hop_us
                };
                worst_mean = worst_mean.max(store_lat[v.store] + hop);
                served += (v.demand.iops * self.cfg.epoch_s) as u64;
            }
            let p99 = worst_mean * self.cfg.p99_factor;
            self.report.worst_p99_us = self.report.worst_p99_us.max(p99);
            self.metrics.gauge_set("tenant_p99_us", "", tenant, p99);
            // Served I/O is added to the tenant key here and to the store
            // key below with the *same* integer amounts, so per-tenant
            // counters sum exactly to per-store totals.
            self.metrics
                .counter_add("served_ios", "tenant", tenant, served);
            if p99 > state.slo_us {
                state.violation_epochs += 1;
                self.report.slo_violation_epochs += 1;
                self.metrics.counter_inc("tenant_slo_epochs", "", tenant);
                if !state.in_violation {
                    onsets.push((tenant, p99, state.slo_us));
                }
                state.in_violation = true;
            } else {
                state.in_violation = false;
            }
        }
        for s in 0..self.stores.len() {
            let served: u64 = self.stores[s]
                .residents
                .iter()
                .map(|id| (self.vmdks[id].demand.iops * self.cfg.epoch_s) as u64)
                .sum();
            if served > 0 {
                self.metrics
                    .counter_add("served_ios", "store", s as u32, served);
            }
        }
        let t = self.now_ns;
        for (tenant, p99_us, slo_us) in onsets {
            emit(&self.trace, || TraceEvent::SloViolation {
                t,
                tenant,
                p99_us,
                slo_us,
            });
        }
    }

    /// The run report so far (counters settle as epochs close).
    pub fn report(&self) -> ServingReport {
        let mut r = self.report.clone();
        r.live_tenants = self.tenants.len() as u64;
        r.live_vmdks = self.vmdks.len() as u64;
        r
    }

    /// The metrics registry (always on — the serving plane records only
    /// per-tenant and per-store aggregates, never per-request samples).
    pub fn metrics(&self) -> &MetricsRegistry {
        &self.metrics
    }

    /// Current per-store `(used, capacity)` blocks, for invariant checks.
    pub fn store_usage(&self) -> Vec<(u64, u64)> {
        self.stores
            .iter()
            .map(|s| (s.used_blocks, s.capacity_blocks))
            .collect()
    }

    /// Blocks currently held per tenant, for invariant checks.
    pub fn tenant_usage(&self) -> BTreeMap<u32, u64> {
        self.tenants.iter().map(|(&t, s)| (t, s.blocks)).collect()
    }

    /// The current observation cache (the shard-scan benchmark scans it).
    pub fn observations(&self) -> &[DeviceObservation] {
        &self.obs
    }

    // ---- internals -----------------------------------------------------

    fn store_free(&self, store: usize) -> u64 {
        let s = &self.stores[store];
        s.capacity_blocks.saturating_sub(s.used_blocks)
    }

    /// Analytic store latency: `baseline + slope × OIO`, with OIO from
    /// Little's law over the residents' demanded arrival rates. VMDKs not
    /// yet committed to the registry (mid-admission) are skipped — their
    /// load lands at the next epoch rebuild.
    fn store_mean_us(&self, store: usize) -> f64 {
        let s = &self.stores[store];
        let base = self.models.baseline_us(s.kind);
        let iops: f64 = s
            .residents
            .iter()
            .filter_map(|id| self.vmdks.get(id))
            .map(|v| v.demand.iops)
            .sum();
        let oio = iops * base * 1e-6;
        base + self.models.slope_us_per_oio(s.kind) * oio
    }

    fn place_vmdk(&mut self, id: u32, store: usize, demand: &VmdkDemand) {
        let s = &mut self.stores[store];
        s.used_blocks += demand.blocks;
        s.residents.push(id);
        let lat = self.store_mean_us(store);
        let info = self.resident_info(VmdkId(id), demand, lat, store);
        if let Some(o) = self.patch_store_obs(store) {
            o.residents.push(info);
        }
    }

    fn remove_vmdk_from_store(&mut self, id: u32, store: usize, demand: &VmdkDemand) {
        let s = &mut self.stores[store];
        s.used_blocks = s.used_blocks.saturating_sub(demand.blocks);
        s.residents.retain(|&r| r != id);
        if let Some(o) = self.patch_store_obs(store) {
            o.residents.retain(|r| r.vmdk.0 != id);
        }
    }

    /// Keeps the observation cache's capacity view of `store` current
    /// between epoch rebuilds, and hands the cached observation back so the
    /// caller can append or drop the resident it just placed or removed.
    /// Latency in the cache refreshes only at the next epoch (documented
    /// staleness).
    fn patch_store_obs(&mut self, store: usize) -> Option<&mut DeviceObservation> {
        let free = self.store_free(store);
        let free_space = free as f64 / self.stores[store].capacity_blocks.max(1) as f64;
        let o = self.obs.get_mut(store)?;
        o.free_capacity_blocks = free;
        o.free_space = free_space;
        Some(o)
    }

    /// A [`ResidentInfo`] for a VMDK demanded at `store` (or, for
    /// arrivals, hypothetically anywhere).
    fn resident_info(
        &self,
        vmdk: VmdkId,
        d: &VmdkDemand,
        lat_us: f64,
        store: usize,
    ) -> ResidentInfo {
        let epoch_ios = (d.iops * self.cfg.epoch_s) as u64;
        ResidentInfo {
            vmdk,
            size_blocks: d.blocks,
            features: Features {
                wr_ratio: d.wr_ratio,
                oios: d.iops * self.models.baseline_us(self.stores[store].kind) * 1e-6,
                ios: d.mean_size_blocks,
                wr_rand: d.wr_rand,
                rd_rand: d.rd_rand,
                free_space_ratio: self.store_free(store) as f64
                    / self.stores[store].capacity_blocks.max(1) as f64,
            },
            io_count: epoch_ios,
            mean_latency_us: lat_us,
            live_blocks: (d.iops * self.cfg.epoch_s * d.mean_size_blocks) as u64,
        }
    }

    /// The `ResidentInfo` describing an arriving VMDK before placement
    /// (no store yet — nominal SSD service time for the OIO estimate).
    fn arrival_info(&self, id: u32, d: &VmdkDemand) -> ResidentInfo {
        let base = self.models.baseline_us(DeviceKind::Ssd);
        ResidentInfo {
            vmdk: VmdkId(id),
            size_blocks: d.blocks,
            features: Features {
                wr_ratio: d.wr_ratio,
                oios: d.iops * base * 1e-6,
                ios: d.mean_size_blocks,
                wr_rand: d.wr_rand,
                rd_rand: d.rd_rand,
                free_space_ratio: 1.0,
            },
            io_count: (d.iops * self.cfg.epoch_s) as u64,
            mean_latency_us: base,
            live_blocks: (d.iops * self.cfg.epoch_s * d.mean_size_blocks) as u64,
        }
    }

    /// Synthesizes the full per-store observation set from the ledgers.
    fn build_observations(&self) -> Vec<DeviceObservation> {
        let epoch = SimDuration::from_ns_f64(self.cfg.epoch_s * 1e9);
        self.stores
            .iter()
            .enumerate()
            .map(|(si, s)| {
                let lat = self.store_mean_us(si);
                let mut reads = 0u64;
                let mut writes = 0u64;
                let mut seq_reads = 0u64;
                let mut seq_writes = 0u64;
                let mut read_blocks = 0u64;
                let mut write_blocks = 0u64;
                let residents: Vec<ResidentInfo> = s
                    .residents
                    .iter()
                    .map(|&id| {
                        let v = &self.vmdks[&id];
                        let d = &v.demand;
                        let ios = (d.iops * self.cfg.epoch_s) as u64;
                        let w = (ios as f64 * d.wr_ratio) as u64;
                        let r = ios - w;
                        reads += r;
                        writes += w;
                        seq_reads += (r as f64 * (1.0 - d.rd_rand)) as u64;
                        seq_writes += (w as f64 * (1.0 - d.wr_rand)) as u64;
                        read_blocks += (r as f64 * d.mean_size_blocks) as u64;
                        write_blocks += (w as f64 * d.mean_size_blocks) as u64;
                        let hop = if self.stores[v.store].node == self.tenants[&v.tenant].home_node
                        {
                            0.0
                        } else {
                            self.cfg.hop_us
                        };
                        self.resident_info(VmdkId(id), d, lat + hop, si)
                    })
                    .collect();
                let mut latency_us = OnlineStats::default();
                if reads + writes > 0 {
                    latency_us.add(lat);
                }
                DeviceObservation {
                    ds: DatastoreId(si),
                    node: s.node,
                    kind: s.kind,
                    epoch: EpochStats {
                        duration: epoch,
                        reads,
                        writes,
                        seq_reads,
                        seq_writes,
                        read_blocks,
                        write_blocks,
                        latency_us,
                        per_stream_latency_us: Default::default(),
                        migrated_ios: 0,
                    },
                    free_space: self.store_free(si) as f64 / s.capacity_blocks.max(1) as f64,
                    free_capacity_blocks: self.store_free(si),
                    residents,
                    health: DeviceHealth::Healthy,
                }
            })
            .collect()
    }
}

#[cfg(test)]
mod tests;
