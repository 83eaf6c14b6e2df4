//! The per-epoch management brain: performance estimation (Eq. 5),
//! imbalance detection (threshold τ), candidate selection, the cost/benefit
//! gate (Eq. 6/7) and initial placement (Eq. 4).
//!
//! The [`Manager`] is policy-parameterized: the BCA family estimates
//! NVDIMM performance with the §4 model (de-biasing bus contention), while
//! the baselines use measured latency — which is exactly how contention
//! tricks them into ping-pong migrations (§3, Fig. 3).

use crate::datastore::DatastoreId;
use crate::migration::{migration_benefit_us, migration_cost_us, MigrationMode, UnitCosts};
use crate::online::ModelSource;
use crate::policy::PolicyKind;
use crate::training::{DeviceModels, ModelEvent, ModelObservation, ModelSourceStats};
use crate::vmdk::VmdkId;
use nvhsm_device::{DeviceKind, EpochStats};
use nvhsm_model::Features;
use serde::{Deserialize, Serialize};

/// Per-resident-VMDK information handed to the manager each epoch.
#[derive(Debug, Clone)]
pub struct ResidentInfo {
    /// The VMDK.
    pub vmdk: VmdkId,
    /// Image size in blocks.
    pub size_blocks: u64,
    /// Eq. 2 features of this workload in the closing epoch (profile mix +
    /// measured OIO share).
    pub features: Features,
    /// Requests this workload issued in the epoch.
    pub io_count: u64,
    /// Measured mean latency of this workload, µs.
    pub mean_latency_us: f64,
    /// Anticipated live traffic, blocks over the manager's lookahead
    /// (`Q_live` in Eq. 7).
    pub live_blocks: u64,
}

/// Operational health of a datastore, as judged by the node from its fault
/// history over the recent epochs.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Default, Serialize, Deserialize)]
pub enum DeviceHealth {
    /// Fully operational: participates in placement, imbalance and
    /// migration targeting.
    #[default]
    Healthy,
    /// Reachable but recently offline or flapping: excluded from Eq. 4
    /// placement and Eq. 5 imbalance, and its residents are candidates for
    /// evacuation while it can still be read.
    Degraded,
    /// Currently unreachable: excluded from everything; residents must wait
    /// for recovery (nothing can be read off it).
    Offline,
}

impl DeviceHealth {
    /// Whether the store may receive placements and count toward imbalance.
    pub fn available(self) -> bool {
        self == DeviceHealth::Healthy
    }

    /// Whether the store can currently serve I/O at all.
    pub fn reachable(self) -> bool {
        self != DeviceHealth::Offline
    }
}

impl std::fmt::Display for DeviceHealth {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            DeviceHealth::Healthy => write!(f, "healthy"),
            DeviceHealth::Degraded => write!(f, "degraded"),
            DeviceHealth::Offline => write!(f, "offline"),
        }
    }
}

/// Per-datastore observation for one epoch.
#[derive(Debug, Clone)]
pub struct DeviceObservation {
    /// Which datastore.
    pub ds: DatastoreId,
    /// Node the datastore lives on. Moves between datastores on different
    /// nodes pay the interconnect hop in every what-if estimate.
    pub node: usize,
    /// Device tier.
    pub kind: DeviceKind,
    /// Epoch statistics from the device.
    pub epoch: EpochStats,
    /// Device free-space ratio (GC pressure).
    pub free_space: f64,
    /// Largest VMDK that still fits, blocks.
    pub free_capacity_blocks: u64,
    /// Residents and their per-epoch info.
    pub residents: Vec<ResidentInfo>,
    /// Operational health (fault-aware nodes mark offline/flapping stores;
    /// everything is `Healthy` in fault-free runs).
    pub health: DeviceHealth,
}

impl DeviceObservation {
    fn loaded(&self) -> bool {
        self.epoch.io_count() >= 10
    }

    /// Loaded *and* healthy: the only stores whose latency should steer
    /// Eq. 5 — a flapping device's measured latency reflects its faults,
    /// not its load, and acting on it would chase ghosts.
    fn counts_for_imbalance(&self) -> bool {
        self.loaded() && self.health.available()
    }
}

/// The manager's verdict for one epoch.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub struct MigrationDecision {
    /// VMDK to move.
    pub vmdk: VmdkId,
    /// From.
    pub src: DatastoreId,
    /// To.
    pub dst: DatastoreId,
    /// How.
    pub mode: MigrationMode,
}

/// Detailed rationale of one epoch decision (for tests and experiment
/// logging).
#[derive(Debug, Clone, Default)]
pub struct EpochDiagnostics {
    /// Device performance (µs, Eq. 5) per datastore, in observation order.
    pub normalized_perf: Vec<(DatastoreId, f64)>,
    /// Imbalance fraction Δ/max.
    pub imbalance: f64,
    /// Whether the τ threshold was exceeded.
    pub triggered: bool,
    /// Whether the cost/benefit or what-if gate vetoed the candidate.
    pub vetoed: bool,
}

/// Interconnect cost terms the manager folds into cross-node what-if
/// estimates. Both default to zero, which reproduces the node-local
/// behaviour exactly.
#[derive(Debug, Clone, Copy, Default, PartialEq, Serialize, Deserialize)]
pub struct NetworkCosts {
    /// Extra per-request latency of serving I/O across the interconnect,
    /// µs (one-way propagation plus the wire time of a typical request).
    pub hop_us: f64,
    /// Interconnect transfer time per migrated 4 KiB block, µs (the Eq. 6
    /// network term).
    pub per_block_us: f64,
}

/// The storage manager.
#[derive(Debug)]
pub struct Manager {
    policy: PolicyKind,
    tau: f64,
    source: ModelSource,
    /// Cumulative model accounting: observation count, prediction error,
    /// drift/refit tallies — uniform across static and online sources.
    model_stats: ModelSourceStats,
    net: NetworkCosts,
    last_diagnostics: EpochDiagnostics,
    /// Consecutive epochs the imbalance threshold has been exceeded.
    /// Short epochs are statistically noisy (the paper samples 30-minute
    /// windows); requiring persistence debounces one-epoch spikes.
    consecutive_triggers: u32,
    /// Classifier-hot VMDKs, replaced wholesale each epoch via
    /// [`Manager::observe_heat`]. Hot residents sort ahead of cold ones in
    /// candidate selection: moving sustained traffic off an overloaded
    /// device beats moving a one-shot burst that has already cooled. Empty
    /// (no classifier feeding the engine) leaves the ordering untouched.
    hot: std::collections::BTreeSet<u32>,
}

impl Manager {
    /// Builds a manager over the static pretrained models.
    ///
    /// # Panics
    ///
    /// Panics if `tau` is not in `(0, 1]`.
    pub fn new(policy: PolicyKind, tau: f64, models: DeviceModels) -> Self {
        Self::with_source(policy, tau, ModelSource::new(models, None))
    }

    /// Builds a manager over an explicit model source (static or online).
    ///
    /// # Panics
    ///
    /// Panics if `tau` is not in `(0, 1]`.
    pub fn with_source(policy: PolicyKind, tau: f64, source: ModelSource) -> Self {
        assert!(tau > 0.0 && tau <= 1.0, "tau must be in (0, 1]");
        Manager {
            policy,
            tau,
            source,
            model_stats: ModelSourceStats::default(),
            net: NetworkCosts::default(),
            last_diagnostics: EpochDiagnostics::default(),
            consecutive_triggers: 1, // first call may act immediately
            hot: std::collections::BTreeSet::new(),
        }
    }

    /// Replaces the classifier-hot set steering candidate selection. The
    /// shared hot/cold classifier publishes its per-epoch verdicts here;
    /// an empty set restores the pure Eq. 6/7 contribution ordering.
    pub fn observe_heat(&mut self, hot: &[VmdkId]) {
        self.hot = hot.iter().map(|v| v.0).collect();
    }

    /// Sets the interconnect cost terms for cross-node what-if estimates.
    pub fn set_network(&mut self, net: NetworkCosts) {
        self.net = net;
    }

    /// The interconnect cost terms in force.
    pub fn network(&self) -> NetworkCosts {
        self.net
    }

    /// The hop penalty of serving `from`'s resident from `to`'s datastore:
    /// zero when both share a node.
    fn hop_us(&self, from_node: usize, to: &DeviceObservation) -> f64 {
        if to.node != from_node {
            self.net.hop_us
        } else {
            0.0
        }
    }

    /// The policy in force.
    pub fn policy(&self) -> PolicyKind {
        self.policy
    }

    /// The imbalance threshold τ.
    pub fn tau(&self) -> f64 {
        self.tau
    }

    /// Changes τ (the §6.2.1 sweep).
    ///
    /// # Panics
    ///
    /// Panics if `tau` is not in `(0, 1]`.
    pub fn set_tau(&mut self, tau: f64) {
        assert!(tau > 0.0 && tau <= 1.0, "tau must be in (0, 1]");
        self.tau = tau;
    }

    /// The pretrained device models (the base characteristics even an
    /// online source never updates: baselines, slopes, per-block costs).
    pub fn models(&self) -> &DeviceModels {
        self.source.base()
    }

    /// Feeds one epoch's observed (WC, MP) pairs to the model source and
    /// accounts prediction error against the *pre-update* model.
    pub fn observe_model(&mut self, observations: &[ModelObservation]) {
        for o in observations {
            let err = self.source.observe(o.kind, &o.features, o.measured_us);
            self.model_stats.observations += 1;
            if err.is_finite() && o.measured_us.is_finite() {
                self.model_stats.err_sum_us += err;
                self.model_stats.err_count += 1;
            }
        }
    }

    /// Closes the model epoch: drift detection and any due refits run
    /// here (and only here — predictions are stable within an epoch).
    pub fn end_model_epoch(&mut self) -> Vec<ModelEvent> {
        let events = self.source.end_epoch();
        for e in &events {
            match e {
                ModelEvent::Drift { .. } => self.model_stats.drifts += 1,
                ModelEvent::Refit { .. } => self.model_stats.refits += 1,
            }
        }
        events
    }

    /// Cumulative model accounting since construction.
    pub fn model_stats(&self) -> ModelSourceStats {
        self.model_stats
    }

    /// Diagnostics of the most recent [`Manager::epoch_decision`] call.
    pub fn last_diagnostics(&self) -> &EpochDiagnostics {
        &self.last_diagnostics
    }

    /// Device performance per Eq. 5: measured for non-NVDIMM devices (and
    /// for every device under the baselines), model-predicted for NVDIMMs
    /// under BCA. Returned in µs.
    fn device_perf_us(&self, obs: &DeviceObservation) -> f64 {
        if self.policy.uses_prediction() && obs.kind == DeviceKind::Nvdimm {
            // PP_d = mean over resident workloads of PP_w (Eq. 5, NVDIMM
            // branch).
            self.mean_prediction(obs.residents.iter().filter(|r| r.io_count > 0), obs.kind)
        } else {
            obs.epoch.mean_latency_us()
        }
    }

    /// Mean model prediction over `residents` on a `kind` device; 0 when
    /// there are none.
    fn mean_prediction<'a>(
        &self,
        residents: impl Iterator<Item = &'a ResidentInfo> + Clone,
        kind: DeviceKind,
    ) -> f64 {
        let n = residents.clone().count();
        if n == 0 {
            return 0.0;
        }
        residents
            .map(|r| self.source.predict(kind, &r.features))
            .sum::<f64>()
            / n as f64
    }

    /// Estimated per-unit latency of `obs`'s device if workload `w` were
    /// added (`+1`) or removed (`-1`): the what-if model.
    ///
    /// The *destination* estimate uses the trained device model for every
    /// policy — BASIL and Pesto maintain online device models of exactly
    /// this kind; what distinguishes them from BCA is not model quality
    /// but contention-blindness on the *source* side.
    fn what_if_us(&self, obs: &DeviceObservation, w: &ResidentInfo, add: bool) -> f64 {
        if add {
            let mut f = w.features;
            // At the destination the workload competes with the resident
            // load: fold the device's measured OIO in.
            f.oios += obs.epoch.oio();
            f.free_space_ratio = obs.free_space;
            return self.source.predict(obs.kind, &f);
        }
        if self.policy.uses_prediction() && obs.kind == DeviceKind::Nvdimm {
            // Removing it from an NVDIMM: remaining residents' prediction
            // (Eq. 5 applies the model to NVDIMMs only).
            let rest = obs
                .residents
                .iter()
                .filter(|r| r.vmdk != w.vmdk && r.io_count > 0);
            self.mean_prediction(rest, obs.kind)
        } else {
            let current = self.device_perf_us(obs);
            // The baselines attribute the device's measured latency to its
            // I/O load: removing a workload is expected to shave its share
            // off. This is exactly the misattribution the paper describes —
            // when the latency actually comes from bus contention, the
            // expected gain never materializes.
            let share = if obs.epoch.io_count() > 0 {
                w.io_count as f64 / obs.epoch.io_count() as f64
            } else {
                0.0
            };
            (current * (1.0 - share)).max(0.0)
        }
    }

    /// The per-epoch decision: detect imbalance, select a candidate, gate
    /// it. `migration_active` suppresses new decisions while one runs.
    pub fn epoch_decision(
        &mut self,
        observations: &[DeviceObservation],
        migration_active: bool,
    ) -> Option<MigrationDecision> {
        let mut diag = EpochDiagnostics::default();
        // Raw per-device latencies (Eq. 5): the paper compares device
        // performance directly, which is what drives load toward the fast
        // tier and exposes contention mispredictions.
        let perfs: Vec<f64> = observations
            .iter()
            .map(|o| {
                if o.counts_for_imbalance() {
                    // A zero-IO epoch can feed the model NaN features (0/0
                    // rates); a non-finite or negative prediction carries no
                    // Eq. 5 signal and must not poison Δ/max, which stays in
                    // [0, 1] by construction.
                    let p = self.device_perf_us(o);
                    if p.is_finite() {
                        p.max(0.0)
                    } else {
                        0.0
                    }
                } else {
                    // Idle or degraded/offline stores contribute no Eq. 5
                    // signal; degraded ones are handled by evacuation, not
                    // load balancing.
                    0.0
                }
            })
            .collect();
        for (o, &p) in observations.iter().zip(&perfs) {
            diag.normalized_perf.push((o.ds, p));
        }

        let (max_i, max_p) = perfs
            .iter()
            .enumerate()
            .max_by(|a, b| a.1.total_cmp(b.1))
            .map(|(i, &p)| (i, p))?;
        // Δ is computed over *loaded* devices; an idle tier is a candidate
        // destination, not a counted imbalance (otherwise any load at all
        // reads as Δ/max = 1).
        let loaded_perfs: Vec<f64> = observations
            .iter()
            .zip(&perfs)
            .filter(|(o, _)| o.counts_for_imbalance())
            .map(|(_, &p)| p)
            .collect();
        let min_p = if loaded_perfs.len() >= 2 {
            loaded_perfs.iter().copied().fold(f64::INFINITY, f64::min)
        } else {
            // A single loaded device next to idle tiers: the idle side
            // counts as zero load.
            0.0
        };
        diag.imbalance = if max_p > 0.0 && observations.len() >= 2 {
            (max_p - min_p) / max_p
        } else {
            0.0
        };
        let exceeded = diag.imbalance > self.tau;
        if exceeded {
            self.consecutive_triggers += 1;
        } else {
            self.consecutive_triggers = 0;
        }
        diag.triggered = exceeded && self.consecutive_triggers >= 2 && !migration_active;
        if !diag.triggered {
            self.last_diagnostics = diag;
            return None;
        }

        let src_obs = &observations[max_i];
        // Candidate workloads: residents of the overloaded device in
        // descending latency contribution; the first one that passes the
        // gates moves.
        let mut candidates: Vec<&ResidentInfo> = src_obs
            .residents
            .iter()
            .filter(|r| r.io_count > 0)
            .collect();
        // Classifier-hot residents first (sustained traffic is worth
        // moving; a cooled burst is not), then by descending latency
        // contribution. With no heat verdicts the hot set is empty and
        // the ordering is the pure Eq. 6/7 contribution sort.
        // total_cmp, not partial_cmp: a resident whose measured latency is
        // NaN (no completed requests) must sort deterministically instead
        // of panicking the whole epoch.
        candidates.sort_by(|a, b| {
            let (ha, hb) = (self.hot.contains(&a.vmdk.0), self.hot.contains(&b.vmdk.0));
            hb.cmp(&ha).then_with(|| {
                (b.io_count as f64 * b.mean_latency_us)
                    .total_cmp(&(a.io_count as f64 * a.mean_latency_us))
            })
        });
        // Source-side Eq. 6/7 terms do not depend on the candidate.
        let src_before = self.device_perf_us(src_obs);
        let src_contention_us = self.contention_us(src_obs);
        let src_read_us = per_block_read_us(src_obs, self.source.base());
        for w in candidates {
            // Destination: the device whose predicted latency after receiving
            // the workload is lowest (Eq. 4's minimum-average criterion reduces
            // to this for a single move). Remote datastores are candidates
            // too, with the interconnect hop folded into their what-if cost;
            // NaN estimates compare greatest under total_cmp, so they lose
            // to any finite candidate instead of panicking.
            let dst = observations
                .iter()
                .filter(|o| {
                    o.ds != src_obs.ds
                        && o.health.available()
                        && o.free_capacity_blocks >= w.size_blocks
                })
                .map(|o| {
                    (
                        o,
                        self.what_if_us(o, w, true) + self.hop_us(src_obs.node, o),
                    )
                })
                .min_by(|a, b| a.1.total_cmp(&b.1));
            let Some((dst_obs, dst_after)) = dst else {
                continue;
            };

            // Gates.
            // Eq. 7: "if the destination has no load, the migrated workload is
            // used for the calculation at the destination" — the before-side of
            // an empty destination is the workload's current latency, so the
            // benefit reflects what the workload itself stands to gain.
            let dst_before = if dst_obs.loaded() {
                self.device_perf_us(dst_obs)
            } else {
                w.mean_latency_us
            };
            // `dst_after` already carries the hop for remote destinations,
            // so Eq. 7's benefit shrinks by the recurring network cost of
            // serving the workload from the other node.
            let src_after = self.what_if_us(src_obs, w, false);

            let accept = if self.policy.cost_benefit() {
                let unit = UnitCosts {
                    src_read_us,
                    dst_write_us: per_block_write_us(dst_obs, self.source.base()),
                    src_contention_us,
                    dst_contention_us: self.contention_us(dst_obs),
                    net_us: if dst_obs.node != src_obs.node {
                        self.net.per_block_us
                    } else {
                        0.0
                    },
                };
                let moved = if self.policy.mirroring() {
                    // Mirroring avoids copying blocks the workload will
                    // overwrite anyway: discount by the write ratio.
                    (w.size_blocks as f64 * (1.0 - w.features.wr_ratio)) as u64
                } else {
                    w.size_blocks
                };
                let cost = migration_cost_us(moved, &unit);
                let benefit = migration_benefit_us(
                    w.live_blocks,
                    src_before + dst_before,
                    src_after + dst_after,
                );
                benefit > cost
            } else {
                // BASIL: accept any move its model says improves the hot spot.
                dst_after < max_p
            };

            if !accept {
                continue;
            }
            self.last_diagnostics = diag;

            let mode = if self.policy.lazy_copy() {
                MigrationMode::Lazy
            } else if self.policy.mirroring() {
                MigrationMode::Mirror
            } else {
                MigrationMode::FullCopy
            };
            return Some(MigrationDecision {
                vmdk: w.vmdk,
                src: src_obs.ds,
                dst: dst_obs.ds,
                mode,
            });
        }
        diag.vetoed = true;
        self.last_diagnostics = diag;
        None
    }

    /// Bus-contention term per block for Eq. 6: BCA estimates it as
    /// measured − predicted on NVDIMMs; baselines (and non-NVDIMMs) carry
    /// no term.
    fn contention_us(&self, obs: &DeviceObservation) -> f64 {
        if !self.policy.uses_prediction() || obs.kind != DeviceKind::Nvdimm || !obs.loaded() {
            return 0.0;
        }
        let predicted = self.device_perf_us(obs);
        (obs.epoch.mean_latency_us() - predicted).max(0.0)
    }

    /// Eq. 4 initial placement: choose the datastore minimizing the average
    /// predicted system latency, skipping those that would immediately
    /// trigger a migration (imbalance above τ after placement).
    pub fn initial_placement(
        &self,
        observations: &[DeviceObservation],
        new_workload: &ResidentInfo,
    ) -> Option<DatastoreId> {
        self.initial_placement_from(observations, new_workload, None)
    }

    /// Eq. 4 placement of a workload arriving at `home` node: remote
    /// datastores stay eligible, but pay the interconnect hop on top of
    /// their what-if estimate. `home = None` ignores node boundaries (the
    /// single-node behaviour).
    pub fn initial_placement_from(
        &self,
        observations: &[DeviceObservation],
        new_workload: &ResidentInfo,
        home: Option<usize>,
    ) -> Option<DatastoreId> {
        // Each store's Eq. 5 term in every other candidate's average,
        // computed once: a NaN estimate (zero-IO epoch) contributes no
        // signal, and a degraded store's measured latency reflects its
        // faults, so it neither helps nor hurts a placement elsewhere.
        let terms: Vec<f64> = observations
            .iter()
            .map(
                |o| match o.health.available().then(|| self.device_perf_us(o)) {
                    Some(p) if p.is_finite() => p,
                    _ => 0.0,
                },
            )
            .collect();
        // Idle devices do not participate in the imbalance preview — an
        // empty tier is an opportunity, not a hot spot. Keeping the two
        // largest and two smallest steering terms lets each candidate's
        // preview leave its own term out in O(1).
        let steering = || {
            observations
                .iter()
                .zip(&terms)
                .enumerate()
                .filter(|(_, (o, _))| o.counts_for_imbalance())
                .map(|(j, (_, &p))| (j, p))
        };
        let highest = top_two(steering(), |a, b| a > b);
        let lowest = top_two(steering(), |a, b| a < b);

        let mut best: Option<(DatastoreId, f64)> = None;
        // Σ terms[..i], accumulated in index order.
        let mut prefix = 0.0;
        for (i, obs) in observations.iter().enumerate() {
            let head = prefix;
            prefix += terms[i];
            if !obs.health.available() || obs.free_capacity_blocks < new_workload.size_blocks {
                continue;
            }
            let with_new = self.what_if_us(obs, new_workload, true)
                + home.map_or(0.0, |h| self.hop_us(h, obs));
            if !with_new.is_finite() {
                // The model has no usable estimate for this candidate;
                // placing on it would be a blind bet.
                continue;
            }
            // Average system performance if placed here (Eq. 4), summed
            // left to right in store order rather than as Σ − term +
            // what-if: float addition is not associative, and reordering
            // it would move choices between near-tied candidates.
            let total = terms[i + 1..]
                .iter()
                .fold(head + with_new, |acc, &p| acc + p);
            let avg = total / observations.len() as f64;
            // §5.1.1: reject candidates whose placement would immediately
            // trip the imbalance detector (raw-latency imbalance) over this
            // store's what-if and every other steering store. With no other
            // steering store, max and min are both `with_new` and Δ/max
            // comes out 0.
            let max_n = excluding(highest, i).map_or(with_new, |p| with_new.max(p));
            let min_n = excluding(lowest, i).map_or(with_new, |p| with_new.min(p));
            let imbalance = if max_n > 0.0 {
                (max_n - min_n) / max_n
            } else {
                0.0
            };
            if imbalance > self.tau {
                continue;
            }
            if best.is_none_or(|(_, b)| avg < b) {
                best = Some((obs.ds, avg));
            }
        }
        best.map(|(ds, _)| ds)
    }

    /// Re-plans residents of degraded (but still reachable) datastores:
    /// returns a migration moving the most active resident of the first
    /// degraded store to the healthy destination with the lowest what-if
    /// latency. Offline stores are skipped — nothing can be read off them
    /// until they recover.
    ///
    /// Evacuations always use [`MigrationMode::FullCopy`]: mirroring new
    /// writes *onto* a store while fleeing it would be self-defeating, and
    /// the lazy gate would happily keep cold blocks on a device that is
    /// about to disappear.
    pub fn evacuation_decision(
        &self,
        observations: &[DeviceObservation],
    ) -> Option<MigrationDecision> {
        for src_obs in observations
            .iter()
            .filter(|o| o.health == DeviceHealth::Degraded)
        {
            // Most active resident first: it has the most to lose from the
            // next outage.
            let mut residents: Vec<&ResidentInfo> = src_obs.residents.iter().collect();
            residents.sort_by_key(|r| std::cmp::Reverse(r.io_count));
            for w in residents {
                // Remote destinations are eligible (fleeing a flapping
                // store beats staying local) but pay the hop, and NaN
                // what-ifs lose under total_cmp instead of panicking.
                let dst = observations
                    .iter()
                    .filter(|o| {
                        o.ds != src_obs.ds
                            && o.health.available()
                            && o.free_capacity_blocks >= w.size_blocks
                    })
                    .map(|o| {
                        (
                            o,
                            self.what_if_us(o, w, true) + self.hop_us(src_obs.node, o),
                        )
                    })
                    .min_by(|a, b| a.1.total_cmp(&b.1));
                if let Some((dst_obs, _)) = dst {
                    return Some(MigrationDecision {
                        vmdk: w.vmdk,
                        src: src_obs.ds,
                        dst: dst_obs.ds,
                        mode: MigrationMode::FullCopy,
                    });
                }
            }
        }
        None
    }
}

/// An indexed value and its runner-up under `better`, first-wins on ties.
type TopTwo = [Option<(usize, f64)>; 2];

/// The two best `(index, value)` pairs of `items` under `better`.
fn top_two(items: impl Iterator<Item = (usize, f64)>, better: impl Fn(f64, f64) -> bool) -> TopTwo {
    let mut top: TopTwo = [None, None];
    for (j, p) in items {
        if top[0].is_none_or(|(_, b)| better(p, b)) {
            top = [Some((j, p)), top[0]];
        } else if top[1].is_none_or(|(_, b)| better(p, b)) {
            top[1] = Some((j, p));
        }
    }
    top
}

/// The best value of `top` that does not belong to index `i`.
fn excluding(top: TopTwo, i: usize) -> Option<f64> {
    top.into_iter()
        .flatten()
        .find(|&(j, _)| j != i)
        .map(|(_, p)| p)
}

/// Per-block source read time estimate for Eq. 6, µs. Bulk copies stream
/// sequentially, so the unit cost is the device's measured streaming rate,
/// not the congested random-access latency.
fn per_block_read_us(obs: &DeviceObservation, models: &DeviceModels) -> f64 {
    models.seq_block_us(obs.kind)
}

/// Per-block destination write time estimate for Eq. 6, µs.
fn per_block_write_us(obs: &DeviceObservation, models: &DeviceModels) -> f64 {
    models.seq_block_us(obs.kind)
}

/// The narrow seam between the simulation engine and the policy brain.
///
/// [`crate::NodeSim`] holds its manager as a `Box<dyn PolicyEngine>` and
/// drives it exclusively through these six methods: the engine can ask for
/// placements and epoch decisions but cannot reach into Eq. 4–7
/// internals, and the policy code never sees simulator state beyond the
/// [`DeviceObservation`]s handed to it. Tests substitute scripted engines
/// to exercise the data path under decisions the real manager would not
/// make.
pub trait PolicyEngine: Send {
    /// Sets the interconnect cost terms for cross-node what-if estimates.
    fn set_network(&mut self, net: NetworkCosts);

    /// Eq. 4 placement of a workload arriving at `home` node (`None`
    /// ignores node boundaries).
    fn initial_placement_from(
        &self,
        observations: &[DeviceObservation],
        new_workload: &ResidentInfo,
        home: Option<usize>,
    ) -> Option<DatastoreId>;

    /// Per-epoch balance decision: Eq. 5 imbalance detection plus the
    /// Eq. 6/7 cost/benefit gate. `migration_active` suppresses new moves.
    fn epoch_decision(
        &mut self,
        observations: &[DeviceObservation],
        migration_active: bool,
    ) -> Option<MigrationDecision>;

    /// Moves the hottest resident off a degraded store, if any.
    fn evacuation_decision(&self, observations: &[DeviceObservation]) -> Option<MigrationDecision>;

    /// Diagnostics of the most recent epoch decision.
    fn last_diagnostics(&self) -> &EpochDiagnostics;

    /// Contention-free service time of `kind`, µs — the engine uses it
    /// for OIO estimation and the lazy copy gate.
    fn baseline_us(&self, kind: DeviceKind) -> f64;

    /// Feeds one epoch's observed (WC, MP) pairs to the engine's model
    /// source. Defaults to a no-op so scripted test engines need not
    /// care about model feedback.
    fn observe_model(&mut self, _observations: &[ModelObservation]) {}

    /// Closes the model epoch: drift detection and refits run here, at
    /// the epoch boundary only. Defaults to no events.
    fn end_model_epoch(&mut self) -> Vec<ModelEvent> {
        Vec::new()
    }

    /// Cumulative model accounting. Defaults to all-zero.
    fn model_stats(&self) -> ModelSourceStats {
        ModelSourceStats::default()
    }

    /// Publishes the shared hot/cold classifier's per-epoch hot set so
    /// candidate selection can prefer sustained-hot residents. Defaults
    /// to a no-op: engines without heat awareness (and every run without
    /// the cache stage) keep the pure Eq. 6/7 ordering.
    fn observe_heat(&mut self, _hot: &[VmdkId]) {}
}

impl PolicyEngine for Manager {
    fn set_network(&mut self, net: NetworkCosts) {
        Manager::set_network(self, net);
    }

    fn initial_placement_from(
        &self,
        observations: &[DeviceObservation],
        new_workload: &ResidentInfo,
        home: Option<usize>,
    ) -> Option<DatastoreId> {
        Manager::initial_placement_from(self, observations, new_workload, home)
    }

    fn epoch_decision(
        &mut self,
        observations: &[DeviceObservation],
        migration_active: bool,
    ) -> Option<MigrationDecision> {
        Manager::epoch_decision(self, observations, migration_active)
    }

    fn evacuation_decision(&self, observations: &[DeviceObservation]) -> Option<MigrationDecision> {
        Manager::evacuation_decision(self, observations)
    }

    fn last_diagnostics(&self) -> &EpochDiagnostics {
        Manager::last_diagnostics(self)
    }

    fn baseline_us(&self, kind: DeviceKind) -> f64 {
        self.models().baseline_us(kind)
    }

    fn observe_model(&mut self, observations: &[ModelObservation]) {
        Manager::observe_model(self, observations);
    }

    fn end_model_epoch(&mut self) -> Vec<ModelEvent> {
        Manager::end_model_epoch(self)
    }

    fn model_stats(&self) -> ModelSourceStats {
        Manager::model_stats(self)
    }

    fn observe_heat(&mut self, hot: &[VmdkId]) {
        Manager::observe_heat(self, hot);
    }
}

pub mod sharded;
pub use sharded::{shard_summaries, ShardSummary, ShardedPolicyEngine};

#[cfg(test)]
mod tests;
