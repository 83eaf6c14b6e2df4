//! Differential oracle for the online model source.
//!
//! The online `ModelSource` promises that learning is *additive*: until
//! a refit actually installs a residual correction, every prediction is
//! the pretrained `DeviceModels` verbatim, and the simulation — placements,
//! migrations, traces, metrics — is byte-identical to the static arm on
//! the same scenario. These tests pin that promise end to end through
//! the real drift experiment driver by configuring online sources that
//! can never refit (an unreachable Page–Hinkley threshold, and a
//! disabled periodic cadence) and comparing rendered JSONL traces,
//! serialized metrics snapshots, and outcome debug strings as strings —
//! so *any* divergence fails.

use nvhsm_core::{OnlineModelConfig, RefitPolicy};
use nvhsm_experiments::drift::{run_drift_observed, DriftParams};
use nvhsm_experiments::obs::ObsOptions;
use nvhsm_experiments::Scale;
use nvhsm_obs::to_jsonl;

const OBSERVED: ObsOptions = ObsOptions {
    trace: true,
    metrics: true,
};

/// Runs one drift arm fully observed and flattens everything comparable
/// into one string.
fn fingerprint(params: DriftParams) -> String {
    let (outcome, obs) = run_drift_observed(params, Scale::Quick, OBSERVED);
    let metrics = obs
        .metrics
        .as_ref()
        .map(|m| serde_json::to_string(m).expect("serializable snapshot"))
        .unwrap_or_default();
    format!(
        "{outcome:?}\ndropped={}\n{}\n{}",
        obs.dropped,
        to_jsonl(&obs.events),
        metrics
    )
}

#[test]
fn unreachable_drift_threshold_is_byte_identical_to_static() {
    // λ beyond any error the scenario can produce: Page–Hinkley never
    // fires, no correction is ever installed, and the run must be
    // indistinguishable from the static pretrained model.
    let frozen = DriftParams {
        online: Some(OnlineModelConfig {
            policy: RefitPolicy::OnDrift,
            lambda_us: 1e18,
            ..OnlineModelConfig::default()
        }),
        seed: 42,
    };
    assert_eq!(
        fingerprint(DriftParams::static_model(42)),
        fingerprint(frozen),
        "a never-refitting online source diverged from the static model"
    );
}

#[test]
fn disabled_periodic_cadence_is_byte_identical_to_static() {
    // `refit_every: 0` documents "periodic refits disabled": the window
    // fills, the detector runs, but no correction may ever install.
    let frozen = DriftParams {
        online: Some(OnlineModelConfig {
            policy: RefitPolicy::Periodic,
            refit_every: 0,
            lambda_us: 1e18,
            ..OnlineModelConfig::default()
        }),
        seed: 42,
    };
    assert_eq!(
        fingerprint(DriftParams::static_model(42)),
        fingerprint(frozen),
        "a disabled-cadence online source diverged from the static model"
    );
}

#[test]
fn learning_arm_actually_diverges_from_static() {
    // Sanity check on the oracle itself: with a reachable threshold the
    // online arm must refit and change the run — otherwise the two
    // byte-identity tests above would pass vacuously.
    let (static_outcome, _) =
        run_drift_observed(DriftParams::static_model(42), Scale::Quick, ObsOptions::OFF);
    let (online_outcome, _) =
        run_drift_observed(DriftParams::on_drift(42), Scale::Quick, ObsOptions::OFF);
    assert!(
        online_outcome.refits >= 1,
        "learning arm never refit: {online_outcome:?}"
    );
    assert_eq!(static_outcome.refits, 0, "{static_outcome:?}");
    assert_ne!(
        format!("{static_outcome:?}"),
        format!("{online_outcome:?}"),
        "the learning arm should produce a different run than static"
    );
}
