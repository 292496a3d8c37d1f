//! The multi-flow EF-aggregate sweep the scenario IR unlocks.
//!
//! The paper polices a *single* video stream against its EF profile
//! (§4.1) and conjectures that providers will police *aggregates* of EF
//! traffic at the edge. This grid asks the question the paper could not:
//! when N identical paced video flows share one aggregate token-bucket
//! profile, does provisioning the aggregate at N × (per-flow rate) keep
//! every flow watchable?
//!
//! The answer — no, unless the bucket depth also scales — is the
//! committed finding here. The N paced servers start in phase, so the
//! policer sees N-MTU bursts; a fixed 2- or 3-MTU bucket drops part of
//! every burst regardless of the token rate.
//!
//! The grid loads a committed golden (`results/findings_aggregate.json`)
//! through [`dsv_core::golden::golden`]: a checksum over the
//! generating configs fails loudly if the tested grid drifts from the
//! committed one, and `DSV_REGEN=1` re-simulates and rewrites the file.

use dsv_core::prelude::*;

const ENC: u64 = 1_000_000;
const FLOWS: [u32; 4] = [1, 2, 4, 8];
/// Aggregate token rate as a fraction of N × encoding rate.
const FRACTIONS: [f64; 5] = [0.9, 1.0, 1.1, 1.25, 1.4];
const DEPTHS: [u32; 2] = [DEPTH_2MTU, DEPTH_3MTU];

/// The committed grid, depth-major, then flow count, then rate fraction.
fn grid() -> Vec<AggregateConfig> {
    let mut cfgs = Vec::new();
    for &depth in &DEPTHS {
        for &n in &FLOWS {
            for &frac in &FRACTIONS {
                let rate = (ENC as f64 * n as f64 * frac) as u64;
                cfgs.push(AggregateConfig::new(
                    ClipId2::Lost,
                    ENC,
                    n,
                    EfProfile::new(rate, depth),
                ));
            }
        }
    }
    cfgs
}

fn outcomes() -> Vec<AggregateOutcome> {
    golden("findings_aggregate", &grid())
}

/// Exact clustering's contract on this grid: every point simulated on its
/// own reproduces the committed golden byte for byte.
#[test]
#[ignore = "re-simulates the whole grid; ci.sh runs it"]
fn golden_reproduces_point_by_point() {
    dsv_core::golden::assert_reproduced_point_by_point("findings_aggregate", &grid());
}

/// Outcome at (depth index, flow-count index, fraction index).
fn at(outs: &[AggregateOutcome], d: usize, n: usize, f: usize) -> &AggregateOutcome {
    &outs[(d * FLOWS.len() + n) * FRACTIONS.len() + f]
}

#[test]
fn rotation_sweep_collapses_to_the_committed_grid() {
    // The declaration-order fairness sweep: every config in the
    // committed grid, re-declared at each distinct rotation (up to 4 per
    // config — enough to cover every N in the grid without quadratic
    // blow-up at N = 8). The N paced pairs are in-phase permutation
    // symmetries, so the canonicalizer must collapse all rotations of a
    // config into one class: the sweep's class count is pinned to the
    // committed grid's size, and the reuse count — members minus
    // classes — is what the cluster layer saves on this sweep.
    use std::collections::HashSet;
    let mut members = 0usize;
    let mut classes: HashSet<String> = HashSet::new();
    for cfg in grid() {
        for rot in 0..cfg.flows.min(4) {
            members += 1;
            let canon = dsv_scenario::canonicalize(&dsv_core::aggregate::aggregate_spec(
                &cfg.clone().with_rotation(rot),
            ));
            classes.insert(canon.json());
        }
    }
    assert_eq!(
        members, 110,
        "2 depths × 5 fractions × (1 + 2 + 4 + 4) rotations"
    );
    assert_eq!(
        classes.len(),
        grid().len(),
        "every rotation must collapse onto its unrotated config's class"
    );
    assert_eq!(
        members - classes.len(),
        70,
        "pinned cluster reuse on this sweep"
    );
}

#[test]
fn single_flow_recovers_the_paper_regimes() {
    // The N = 1 rows are ordinary QBone runs (the aggregate policer
    // matches the one EF flow): starved below the encoding rate, clean
    // with headroom — the paper's §4.1 shape at this encoding.
    let outs = outcomes();
    for (d, &depth) in DEPTHS.iter().enumerate() {
        let starved = at(&outs, d, 0, 0); // 0.9 × enc
        let clean = at(&outs, d, 0, FRACTIONS.len() - 1); // 1.4 × enc
        assert!(
            starved.mean_quality() > 0.8,
            "depth {depth} under-provisioned single flow: {}",
            starved.mean_quality()
        );
        assert!(
            clean.mean_quality() < 0.1,
            "depth {depth} over-provisioned single flow: {}",
            clean.mean_quality()
        );
    }
}

#[test]
fn proportional_rate_does_not_keep_aggregates_watchable() {
    // The headline finding: at the *most generous* rate in the grid
    // (1.4 × N × encoding) the single flow is clean, yet with a fixed
    // bucket depth the 8-flow aggregate still delivers an unwatchable
    // worst flow — token rate cannot buy back what the shallow bucket
    // drops from the N-deep in-phase bursts.
    let outs = outcomes();
    let f_top = FRACTIONS.len() - 1;
    for (d, &depth) in DEPTHS.iter().enumerate() {
        let one = at(&outs, d, 0, f_top);
        let eight = at(&outs, d, FLOWS.len() - 1, f_top);
        assert!(
            one.worst_quality() < 0.1,
            "depth {depth}: lone flow should be clean: {}",
            one.worst_quality()
        );
        assert!(
            eight.worst_quality() > 0.5,
            "depth {depth}: 8-flow aggregate should stay degraded: {}",
            eight.worst_quality()
        );
        assert!(
            eight.total_policer_drops() > 0,
            "the degradation must come from the aggregate policer"
        );
    }
}

#[test]
fn degradation_grows_with_aggregation_level() {
    // At the most generous provisioning in the grid (1.4 × N × encoding)
    // per-flow packet loss still grows with the aggregation level: each
    // extra flow deepens the in-phase burst the fixed bucket must absorb,
    // and the VQM score saturates long before loss does — loss is the
    // monotone signal.
    let outs = outcomes();
    let f_top = FRACTIONS.len() - 1;
    for (d, &depth) in DEPTHS.iter().enumerate() {
        let loss: Vec<f64> = (0..FLOWS.len())
            .map(|n| at(&outs, d, n, f_top).mean_packet_loss())
            .collect();
        for w in loss.windows(2) {
            assert!(
                w[1] >= w[0] - 0.01,
                "depth {depth}: loss should not shrink with N: {loss:?}"
            );
        }
        assert!(
            loss[FLOWS.len() - 1] > loss[0] + 0.3,
            "depth {depth}: 8 flows must lose clearly more than 1: {loss:?}"
        );
    }
}

#[test]
fn deeper_bucket_absorbs_more_of_the_burst() {
    // The paper's bucket-depth finding survives aggregation in relative
    // terms: at every aggregation level the 3-MTU bucket drops no more
    // than the 2-MTU bucket (summed over the rate sweep), even though
    // neither depth is deep enough to make large aggregates clean.
    let outs = outcomes();
    for (n, &flows) in FLOWS.iter().enumerate() {
        let drops = |d: usize| -> u64 {
            (0..FRACTIONS.len())
                .map(|f| at(&outs, d, n, f).total_policer_drops())
                .sum()
        };
        assert!(
            drops(1) <= drops(0),
            "N = {flows}: 3-MTU bucket should drop no more ({} vs {})",
            drops(1),
            drops(0)
        );
    }
}

#[test]
fn per_flow_loss_declines_with_aggregate_rate() {
    // Within each (depth, N) series more aggregate tokens still help:
    // mean packet loss is non-increasing in the token rate (modulo the
    // small wobble the paper flags for single-flow curves).
    let outs = outcomes();
    for (d, &depth) in DEPTHS.iter().enumerate() {
        for (n, &flows) in FLOWS.iter().enumerate() {
            let loss: Vec<f64> = (0..FRACTIONS.len())
                .map(|f| at(&outs, d, n, f).mean_packet_loss())
                .collect();
            for w in loss.windows(2) {
                assert!(
                    w[1] <= w[0] + 0.02,
                    "depth {depth}, N {flows}: loss should not grow with rate: {loss:?}"
                );
            }
        }
    }
}
