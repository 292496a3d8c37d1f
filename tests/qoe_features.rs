//! Engine-configuration invariance of extracted flow features.
//!
//! The QoE proxy (DESIGN.md §12) predicts scores from the
//! [`FlowFeatures`] the client extracts on the delivery path, so those
//! features must inherit the engine's byte-identity contract: the same
//! policed chain has to yield the same canonical feature bytes under the
//! timing-wheel and binary-heap event queues and under the cluster-exact
//! canonical-spec rewrite (equal canonical JSON is the premise
//! `DSV_CLUSTER=exact` reuses outcomes on). This suite pins that property
//! on live QBone points — EF policer in the path — with the parameters
//! drawn by proptest strategies.
//!
//! Every case is three full simulations, so the property caps its case
//! count well below the default (`PROPTEST_CASES` can lower it further,
//! never raise it past the cap). A pinned starved point runs first so
//! the loss-run machinery is exercised deterministically, not just when
//! the strategy happens to draw a sub-encoding token rate.

use dsv_core::artifacts::ArtifactStore;
use dsv_core::prelude::*;
use dsv_core::qbone::{qbone_spec, QboneConfig};
use dsv_net::features::FlowFeatures;
use dsv_net::network::Simulation;
use dsv_scenario::{canonicalize, compile, CompileOptions, ScenarioSpec};
use dsv_sim::{EventQueue, QueueBackend, SimTime};
use proptest::prelude::*;

const ENC: u64 = 1_500_000;

fn config(rate_frac: f64, depth: u32, cross: bool) -> QboneConfig {
    let mut cfg = QboneConfig::new(
        ClipId2::Lost,
        ENC,
        EfProfile::new((ENC as f64 * rate_frac) as u64, depth),
    );
    cfg.cross_traffic = cross;
    cfg
}

/// Compile `spec`, run it to `horizon` under an explicit queue backend,
/// and return the client's extracted features.
fn drive_features(spec: &ScenarioSpec, horizon: SimTime, backend: QueueBackend) -> FlowFeatures {
    let compiled = compile(
        spec,
        CompileOptions {
            store: Some(&ArtifactStore),
            wrap: None,
        },
    )
    .expect("spec compiles");
    let client = compiled.sole_client().expect("one client").clone();
    let mut queue = EventQueue::with_backend(backend);
    compiled.net.schedule_starts(&mut queue);
    let mut sim = Simulation {
        net: compiled.net,
        queue,
    };
    sim.run_until(horizon);
    let features = client.borrow().report().features.clone();
    features
}

/// Run one configuration under all engine axes and assert the canonical
/// feature bytes are identical. Returns the reference features.
fn check_invariance(cfg: &QboneConfig) -> FlowFeatures {
    let spec = qbone_spec(cfg);
    let horizon = SimTime::ZERO + run_horizon(cfg.clip.into());

    let reference = drive_features(&spec, horizon, QueueBackend::Wheel);
    let bytes = reference.canonical_bytes();
    prop_assert!(
        reference.packets > 0,
        "vacuous case: no media delivered at {:?}",
        cfg.profile
    );

    let heap = drive_features(&spec, horizon, QueueBackend::Heap);
    prop_assert_eq!(
        &bytes,
        &heap.canonical_bytes(),
        "heap backend changed the features at {:?}",
        cfg.profile
    );

    let canon = canonicalize(&spec).spec;
    let clustered = drive_features(&canon, horizon, QueueBackend::Wheel);
    prop_assert_eq!(
        &bytes,
        &clustered.canonical_bytes(),
        "canonical-spec rewrite changed the features at {:?}",
        cfg.profile
    );

    reference
}

#[test]
fn features_are_engine_configuration_invariant_on_a_live_policed_chain() {
    // Non-vacuity for the loss machinery: a pinned starved point (the
    // scenario_differential "starved corner") must show sequence-gap
    // losses from the live policer.
    let starved = check_invariance(&config(0.88, DEPTH_2MTU, false));
    assert!(
        starved.lost_packets > 0,
        "the starved corner should lose packets to the EF policer"
    );
    assert!(starved.loss_runs > 0 && starved.max_burst_loss > 0);

    // Property: invariance holds across the sampled grid neighbourhood —
    // token rates around the encoding, both paper depths, with and
    // without backbone cross traffic.
    let mut rng = TestRng::from_label("qoe_features_invariance");
    let strategy = (0.82f64..1.30, 0u8..2, 0u8..2);
    for _ in 0..cases().min(3) {
        let (frac, depth, cross) = strategy.generate(&mut rng);
        let depth = if depth == 0 { DEPTH_2MTU } else { DEPTH_3MTU };
        check_invariance(&config(frac, depth, cross == 1));
    }
}
