//! The symmetry-cluster layer's correctness contract, end to end.
//!
//! Exact clustering (`DSV_CLUSTER=exact`, the runner default) merges
//! grid points only when their compiled specs share a symmetry-normal
//! form, so its contract is *byte-identity*: for every committed
//! testbed, a clustered grid's outcomes — including the transplanted
//! members — must equal the unclustered serial run's exactly.
//!
//! Every run here is on the timing wheel, as in every experiment;
//! `tests/hop_chain_equivalence.rs` holds the wheel to the binary heap
//! on whole workloads of the same testbeds.

use dsv_core::af::AfConfig;
use dsv_core::aggregate::{aggregate_spec, AggregateConfig};
use dsv_core::local::{LocalConfig, LocalTransport};
use dsv_core::prelude::{ClipId2, ClusterMode, EfProfile, Job, PointSource, Runner, DEPTH_2MTU};
use dsv_core::qbone::QboneConfig;
use dsv_scenario::{canonicalize, ActionSpec};

fn qbone_cfg(rate: u64) -> QboneConfig {
    QboneConfig::new(ClipId2::Lost, 1_000_000, EfProfile::new(rate, DEPTH_2MTU))
}

fn outcomes_json<T: serde::Serialize>(outs: &[T]) -> Vec<String> {
    outs.iter()
        .map(|o| serde_json::to_string(o).unwrap())
        .collect()
}

#[test]
fn exact_mode_is_byte_identical_on_the_single_stream_testbeds() {
    // One mixed batch over three testbeds (QBone, local Frame-Relay,
    // AF), with a deliberate duplicate per testbed so the cluster layer
    // actually transplants something on each.
    let local = LocalConfig::new(
        ClipId2::Lost,
        EfProfile::new(1_100_000, DEPTH_2MTU),
        LocalTransport::Udp,
    );
    let af = AfConfig::new(ClipId2::Lost, 1_000_000, 2_000_000);
    let jobs = [
        Job::Qbone(qbone_cfg(1_000_000)),
        Job::Local(local.clone()),
        Job::Af(af.clone()),
        Job::Qbone(qbone_cfg(1_400_000)),
        Job::Qbone(qbone_cfg(1_000_000)),
        Job::Local(local),
        Job::Af(af),
    ];
    let full = Runner::serial().run(&jobs);
    let clustered = Runner::serial()
        .with_cluster(ClusterMode::Exact)
        .run_clustered(&jobs);

    // The duplicates were transplanted, the rest simulated…
    let sources: Vec<bool> = clustered.iter().map(|p| p.source.is_direct()).collect();
    assert_eq!(sources, [true, true, true, true, false, false, false]);
    for (member, rep) in [(4usize, 0usize), (5, 1), (6, 2)] {
        assert!(
            matches!(clustered[member].source, PointSource::Reused { representative } if representative == rep),
            "point {member} should reuse {rep}: {:?}",
            clustered[member].source
        );
    }
    // …and every outcome, transplanted or not, byte-matches the
    // unclustered serial reference.
    let clustered_outs: Vec<_> = clustered.into_iter().map(|p| p.outcome).collect();
    assert_eq!(outcomes_json(&full), outcomes_json(&clustered_outs));
}

#[test]
fn exact_mode_is_byte_identical_on_rotated_aggregates() {
    // The aggregate testbed's symmetry class is nontrivial: a rotated
    // declaration order is a *different* spec whose per-flow outcomes
    // permute, so the transplant must route through the canonical flow
    // ranks, not just clone. Byte-identity against the unclustered run
    // is exactly the per-position invariance claim.
    let base = AggregateConfig::new(
        ClipId2::Lost,
        1_000_000,
        3,
        EfProfile::new(3_600_000, 2 * DEPTH_2MTU),
    );
    let starved = AggregateConfig::new(
        ClipId2::Lost,
        1_000_000,
        3,
        EfProfile::new(2_400_000, DEPTH_2MTU),
    );
    let cfgs = [
        base.clone(),
        starved,
        base.clone().with_rotation(1),
        base.with_rotation(2),
    ];
    let full = Runner::serial().run(&cfgs);
    let clustered = Runner::serial()
        .with_cluster(ClusterMode::Exact)
        .run_clustered(&cfgs);
    assert!(matches!(clustered[0].source, PointSource::Simulated));
    assert!(matches!(clustered[1].source, PointSource::Simulated));
    for p in &clustered[2..] {
        assert!(
            matches!(p.source, PointSource::Reused { representative: 0 }),
            "rotations must reuse the unrotated representative: {:?}",
            p.source
        );
    }
    let clustered_outs: Vec<_> = clustered.into_iter().map(|p| p.outcome).collect();
    assert_eq!(outcomes_json(&full), outcomes_json(&clustered_outs));
    // Non-vacuity: the transplanted rotation is not a trivial clone —
    // at a starved point the per-position outcomes differ, so the
    // rank-routed per-flow vectors must differ between rotations of one
    // one representative. (At this clean operating point they may tie;
    // assert on the starved grid instead.)
    let starved_pair = [
        AggregateConfig::new(
            ClipId2::Lost,
            1_000_000,
            3,
            EfProfile::new(2_400_000, DEPTH_2MTU),
        ),
        AggregateConfig::new(
            ClipId2::Lost,
            1_000_000,
            3,
            EfProfile::new(2_400_000, DEPTH_2MTU),
        )
        .with_rotation(1),
    ];
    let pair = Runner::serial()
        .with_cluster(ClusterMode::Exact)
        .run_clustered(&starved_pair);
    assert!(matches!(
        pair[1].source,
        PointSource::Reused { representative: 0 }
    ));
    assert_ne!(
        serde_json::to_string(&pair[0].outcome).unwrap(),
        serde_json::to_string(&pair[1].outcome).unwrap(),
        "a rotated starved aggregate must permute, not clone, per-flow outcomes"
    );
}

#[test]
fn exact_mode_is_byte_identical_on_rotated_af_tcp_declarations() {
    // The transport-level testbed added for the AF second act: a
    // heterogeneous-target AF-TCP scenario near capacity, declared in
    // three rotations, mixed with a genuinely different RTT layout so
    // the batch has two classes. The rotations must collapse onto the
    // unrotated representative and the rank-routed per-flow transplant
    // must byte-match the unclustered serial run.
    use dsv_core::prelude::{AfTcpConfig, FlowJob};
    let hetero = AfTcpConfig::new(vec![500_000, 1_000_000, 1_500_000, 2_700_000], vec![0; 4]);
    let jobs = [
        FlowJob::AfTcp(hetero.clone()),
        FlowJob::AfTcp(AfTcpConfig::new(vec![1_050_000; 4], vec![0, 0, 40, 40])),
        FlowJob::AfTcp(hetero.clone().with_rotation(1)),
        FlowJob::AfTcp(hetero.clone().with_rotation(3)),
    ];
    let full = Runner::serial().run(&jobs);
    let clustered = Runner::serial()
        .with_cluster(ClusterMode::Exact)
        .run_clustered(&jobs);
    assert!(matches!(clustered[0].source, PointSource::Simulated));
    assert!(matches!(clustered[1].source, PointSource::Simulated));
    for p in &clustered[2..] {
        assert!(
            matches!(p.source, PointSource::Reused { representative: 0 }),
            "rotations must reuse the unrotated representative: {:?}",
            p.source
        );
    }
    let clustered_outs: Vec<_> = clustered.into_iter().map(|p| p.outcome).collect();
    assert_eq!(outcomes_json(&full), outcomes_json(&clustered_outs));
    // Non-vacuity: the heterogeneous targets make the per-position
    // outcomes genuinely distinct, so the rotated transplant is a
    // permutation, not a clone.
    assert_ne!(
        serde_json::to_string(&full[0]).unwrap(),
        serde_json::to_string(&full[2]).unwrap(),
        "rotation must permute per-flow AF outcomes"
    );
}

#[test]
fn perturbing_one_conditioner_row_breaks_the_merge() {
    // The negative contract: clustering must never merge specs that are
    // not provably symmetric. Nudge a single conditioner row of one
    // aggregate pair and the canonical forms — and so the cluster
    // classes — must separate.
    let cfg = AggregateConfig::new(
        ClipId2::Lost,
        1_000_000,
        2,
        EfProfile::new(2_800_000, 2 * DEPTH_2MTU),
    );
    let spec = aggregate_spec(&cfg);
    let mut perturbed = spec.clone();
    let rule = &mut perturbed.conditioners[0].rules[0];
    match &mut rule.action {
        ActionSpec::Police { rate_bps, .. } => *rate_bps += 1,
        other => panic!("aggregate border rule should police, got {other:?}"),
    }
    assert_ne!(
        canonicalize(&spec).json(),
        canonicalize(&perturbed).json(),
        "a one-row conditioner perturbation must change the canonical form"
    );

    // Same property end to end through the runner: jobs whose configs
    // differ by one policer parameter land in distinct classes and both
    // simulate.
    let jobs = [
        Job::Qbone(qbone_cfg(1_000_000)),
        Job::Qbone(qbone_cfg(1_000_001)),
    ];
    let clustered = Runner::serial()
        .with_cluster(ClusterMode::Exact)
        .run_clustered(&jobs);
    assert!(clustered.iter().all(|p| p.source.is_direct()));
}
