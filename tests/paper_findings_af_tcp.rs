//! The Lochin & Anelli AF second act: TCP flows with committed rates
//! through srTCM/trTCM markers into a WRED AF bottleneck.
//!
//! The related-work question layered onto the paper's engine: when a
//! video-scale TCP flow buys an AF "rate guarantee" (a committed rate
//! marked green by a token-bucket meter, excess demoted to higher drop
//! precedence), does it actually receive that rate? The reproduction
//! pins the known answer — the guarantee holds only while the aggregate
//! committed rate stays well below the bottleneck capacity, erodes as
//! provisioning approaches one, and is RTT-biased throughout, with the
//! trTCM's peak-rate band softening none of it.
//!
//! The grid loads a committed golden (`results/findings_af_tcp.json`)
//! through [`dsv_core::golden::golden`]: a checksum over the
//! generating configs fails loudly if the tested grid drifts from the
//! committed one, and `DSV_REGEN=1` re-simulates and rewrites the file.

use dsv_core::prelude::*;

/// Aggregate committed rate as a fraction of the 6 Mbit/s bottleneck.
const FRACTIONS: [f64; 5] = [0.3, 0.5, 0.7, 0.85, 0.95];
const BOTTLENECK: u64 = 6_000_000;
const FLOWS: usize = 4;

/// Four equal committed rates summing to `frac` of the bottleneck.
fn equal(frac: f64, trtcm: bool) -> AfTcpConfig {
    let per_flow = (BOTTLENECK as f64 * frac / FLOWS as f64) as u64;
    let mut cfg = AfTcpConfig::new(vec![per_flow; FLOWS], vec![0; FLOWS]);
    cfg.trtcm = trtcm;
    cfg
}

/// The committed grid: the srTCM provisioning ladder, the same ladder
/// re-metered with trTCM, then the heterogeneity probes.
fn grid() -> Vec<FlowJob> {
    let mut jobs = Vec::new();
    for &trtcm in &[false, true] {
        for &frac in &FRACTIONS {
            jobs.push(FlowJob::AfTcp(equal(frac, trtcm)));
        }
    }
    // RTT heterogeneity at comfortable provisioning: two short paths,
    // two with 40 ms extra, all with the same committed rate.
    jobs.push(FlowJob::AfTcp(AfTcpConfig::new(
        vec![1_050_000; FLOWS],
        vec![0, 0, 40, 40],
    )));
    // Target heterogeneity, underprovisioned and near capacity.
    jobs.push(FlowJob::AfTcp(AfTcpConfig::new(
        vec![250_000, 500_000, 750_000, 1_350_000],
        vec![0; FLOWS],
    )));
    jobs.push(FlowJob::AfTcp(AfTcpConfig::new(
        vec![500_000, 1_000_000, 1_500_000, 2_700_000],
        vec![0; FLOWS],
    )));
    jobs
}

fn outcomes() -> Vec<FlowsOutcome> {
    golden("findings_af_tcp", &grid())
}

/// Outcome on the srTCM (`trtcm = false`) provisioning ladder.
fn srtcm(outs: &[FlowsOutcome], f: usize) -> &FlowsOutcome {
    &outs[f]
}

/// Outcome on the trTCM provisioning ladder.
fn trtcm(outs: &[FlowsOutcome], f: usize) -> &FlowsOutcome {
    &outs[FRACTIONS.len() + f]
}

const RTT_PAIR: usize = 10;
const HETERO_LOW: usize = 11;
const HETERO_NEAR: usize = 12;

/// Per-flow achieved/target ratios for one outcome.
fn ratios(out: &FlowsOutcome) -> Vec<f64> {
    out.per_flow
        .iter()
        .map(|f| f.achieved_bps / f.target_bps as f64)
        .collect()
}

/// The worst achieved/target ratio across an outcome's flows.
fn worst_ratio(out: &FlowsOutcome) -> f64 {
    ratios(out).into_iter().fold(f64::INFINITY, f64::min)
}

#[test]
fn golden_covers_the_grid() {
    let outs = outcomes();
    assert_eq!(outs.len(), 2 * FRACTIONS.len() + 3);
    for out in &outs {
        assert_eq!(out.per_flow.len(), FLOWS);
        // AF meters re-mark, never drop; congestion management is
        // WRED's job and it is active in every cell of the grid.
        assert_eq!(out.total_policer_drops(), 0, "meters must not drop");
        assert!(out.total_queue_drops() > 0, "WRED must be active");
    }
}

#[test]
fn guarantee_holds_only_well_below_capacity() {
    // The headline reproduction: with the aggregate committed rate at
    // 30–50 % of the bottleneck every flow clears its target with slack
    // (TCP shares the excess), at 70 % the worst flow is already down to
    // its bare committed rate, and from 85 % up no flow reaches it.
    let outs = outcomes();
    for f in [0, 1] {
        assert_eq!(
            srtcm(&outs, f).flows_meeting_target(1.0),
            FLOWS,
            "frac {}: every flow must meet its target: {:?}",
            FRACTIONS[f],
            ratios(srtcm(&outs, f))
        );
        assert!(worst_ratio(srtcm(&outs, f)) > 1.3, "excess must be shared");
    }
    assert_eq!(
        srtcm(&outs, 3).flows_meeting_target(1.0),
        0,
        "85 %: {:?}",
        ratios(srtcm(&outs, 3))
    );
    assert_eq!(
        srtcm(&outs, 4).flows_meeting_target(0.9),
        0,
        "95 %: {:?}",
        ratios(srtcm(&outs, 4))
    );
}

#[test]
fn erosion_is_monotone_on_the_provisioning_ladder() {
    // The worst flow's achieved/target ratio strictly decreases as the
    // aggregate committed rate climbs toward the bottleneck, and the
    // standing AF queue deepens with it: the mean per-flow delay grows
    // strictly along the same ladder.
    let outs = outcomes();
    let worst: Vec<f64> = (0..FRACTIONS.len())
        .map(|f| worst_ratio(srtcm(&outs, f)))
        .collect();
    assert!(
        worst.windows(2).all(|w| w[0] > w[1]),
        "worst ratio must erode monotonically: {worst:?}"
    );
    let delay: Vec<f64> = (0..FRACTIONS.len())
        .map(|f| {
            let out = srtcm(&outs, f);
            out.per_flow.iter().map(|x| x.mean_delay_ms).sum::<f64>() / FLOWS as f64
        })
        .collect();
    assert!(
        delay.windows(2).all(|w| w[0] < w[1]),
        "standing queue must deepen with committed load: {delay:?}"
    );
}

#[test]
fn trtcm_peak_band_rescues_nothing_and_costs_fairness() {
    // The two-rate meter's yellow band admits bursts above the committed
    // rate, but near capacity the guarantee fails exactly as it does
    // under srTCM — and from mid-ladder up the extra band *widens* the
    // spread between equal-target flows, where the single-rate meter
    // keeps the split tight.
    let outs = outcomes();
    assert_eq!(trtcm(&outs, 0).flows_meeting_target(1.0), FLOWS);
    assert_eq!(
        trtcm(&outs, 4).flows_meeting_target(1.0),
        0,
        "95 % trTCM: {:?}",
        ratios(trtcm(&outs, 4))
    );
    let spread = |out: &FlowsOutcome| {
        let a: Vec<f64> = out.per_flow.iter().map(|f| f.achieved_bps).collect();
        a.iter().fold(0.0f64, |m, &x| m.max(x)) / a.iter().fold(f64::INFINITY, |m, &x| m.min(x))
    };
    for (f, frac) in FRACTIONS.iter().enumerate() {
        assert!(
            spread(srtcm(&outs, f)) < 1.2,
            "srTCM keeps equal flows within 20 %: frac {frac}"
        );
    }
    for f in [2, 3, 4] {
        assert!(
            spread(trtcm(&outs, f)) > spread(srtcm(&outs, f)),
            "frac {}: the peak band must cost fairness",
            FRACTIONS[f]
        );
    }
    assert!(
        spread(trtcm(&outs, 3)) > 1.3,
        "trTCM spread blows past srTCM's band: {:?}",
        ratios(trtcm(&outs, 3))
    );
}

#[test]
fn the_guarantee_is_rtt_biased() {
    // Equal committed rates, unequal paths: both short-RTT flows beat
    // both long-RTT flows outright, clear their targets with headroom,
    // and only they do — window growth is RTT-bound while the meter's
    // green band is not.
    let outs = outcomes();
    let out = &outs[RTT_PAIR];
    let short_min = out.per_flow[0]
        .achieved_bps
        .min(out.per_flow[1].achieved_bps);
    let long_max = out.per_flow[2]
        .achieved_bps
        .max(out.per_flow[3].achieved_bps);
    assert!(
        short_min > long_max,
        "short paths must dominate: {:?}",
        ratios(out)
    );
    assert_eq!(
        out.flows_meeting_target(1.0),
        2,
        "only the short paths collect the guarantee: {:?}",
        ratios(out)
    );
}

#[test]
fn large_commitments_miss_first() {
    // With heterogeneous targets the achieved/target ratio falls
    // strictly as the committed rate grows — TCP's loss-bound rate does
    // not scale with the purchase. Near capacity the largest commitment
    // collects less than half of what it bought; even underprovisioned,
    // the flow whose target approaches the TCP-fair share is the one
    // left short.
    let outs = outcomes();
    for i in [HETERO_LOW, HETERO_NEAR] {
        let r = ratios(&outs[i]);
        assert!(
            r.windows(2).all(|w| w[0] > w[1]),
            "ratio must fall with target size: {r:?}"
        );
    }
    assert!(
        outs[HETERO_NEAR].per_flow[3].achieved_bps
            < 0.5 * outs[HETERO_NEAR].per_flow[3].target_bps as f64,
        "the big buyer near capacity gets less than half"
    );
    assert!(
        outs[HETERO_LOW].flows_meeting_target(1.0) >= 3,
        "small commitments are honored even as the big one slips: {:?}",
        ratios(&outs[HETERO_LOW])
    );
}
