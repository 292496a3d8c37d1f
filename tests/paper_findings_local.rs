//! End-to-end verification of the paper's local-testbed findings (§4.2)
//! and the server-behaviour observations of §4.
//!
//! Point runs load the committed golden `results/findings_local_points
//! .json` (checksum-guarded; regenerate with `DSV_REGEN=1` — see
//! DESIGN.md §7). The one assertion that needs a full client report
//! (TCP delivers every frame) still simulates live, since reports are
//! not part of the golden schema.

use dsv_core::prelude::*;

fn udp(rate: u64, depth: u32) -> LocalConfig {
    LocalConfig::new(
        ClipId2::Lost,
        EfProfile::new(rate, depth),
        LocalTransport::Udp,
    )
}

// Indices into the shared point golden (job order is the contract — the
// checksum catches any drift).
const WMT_2MTU_GENEROUS: usize = 0;
const WMT_3MTU_NOMINAL: usize = 1;
const DEPTH_LOCAL_3000: usize = 2;
const DEPTH_LOCAL_4500: usize = 3;
const DEPTH_QBONE_3000: usize = 4;
const DEPTH_QBONE_4500: usize = 5;
const SHAPE_UNSHAPED: usize = 6;
const SHAPE_SHAPED: usize = 7;
const TCP_UDP_BASE: usize = 8;
const TCP_SHAPED: usize = 9;
const SPIRAL_STARVED: usize = 10;
const SPIRAL_HEALTHY: usize = 11;
const CT_QUIET: usize = 12;
const CT_LOADED: usize = 13;
const BIMODAL_BURSTY: usize = 14;
const BIMODAL_PACED: usize = 15;

/// Every point run the findings below share, as one golden.
fn point_outcomes() -> Vec<RunOutcome> {
    let enc = 1_500_000u64;
    let qbone_probe = |depth| {
        Job::Qbone(QboneConfig::new(
            ClipId2::Lost,
            enc,
            EfProfile::new((enc as f64 * 1.45) as u64, depth),
        ))
    };
    let mut shaped = udp(1_100_000, DEPTH_2MTU);
    shaped.shaped = true;
    let tcp_rate = 1_300_000u64;
    let mut tcp = LocalConfig::new(
        ClipId2::Lost,
        EfProfile::new(tcp_rate, DEPTH_2MTU),
        LocalTransport::Tcp,
    );
    tcp.shaped = true;
    let mut spiral = udp(800_000, DEPTH_2MTU);
    spiral.multi_rate = true;
    let mut healthy = udp(1_800_000, DEPTH_3MTU);
    healthy.multi_rate = true;
    let mut loaded = udp(1_600_000, DEPTH_3MTU);
    loaded.cross_traffic = true;
    let mut bursty = QboneConfig::new(
        ClipId2::Lost,
        enc,
        EfProfile::new(3_000_000, DEPTH_2MTU), // 2× the encoding!
    );
    bursty.server = QboneServer::Bursty;
    let mut paced = bursty.clone();
    paced.server = QboneServer::Paced;
    let jobs = vec![
        Job::Local(udp(2_000_000, DEPTH_2MTU)),
        Job::Local(udp(1_600_000, DEPTH_3MTU)),
        Job::Local(udp(1_450_000, DEPTH_2MTU)),
        Job::Local(udp(1_450_000, DEPTH_3MTU)),
        qbone_probe(DEPTH_2MTU),
        qbone_probe(DEPTH_3MTU),
        Job::Local(udp(1_100_000, DEPTH_2MTU)),
        Job::Local(shaped),
        Job::Local(udp(tcp_rate, DEPTH_2MTU)),
        Job::Local(tcp),
        Job::Local(spiral),
        Job::Local(healthy),
        Job::Local(udp(1_600_000, DEPTH_3MTU)),
        Job::Local(loaded),
        Job::Qbone(bursty),
        Job::Qbone(paced),
    ];
    golden("findings_local_points", &jobs)
}

#[test]
fn bursty_wmt_needs_rates_far_above_its_encoding() {
    // "despite a token rate of about twice the maximum encoding rate, we
    // were still not able to achieve the best quality level" with the
    // 2-MTU bucket. The WMV cap is ≈1.02 Mbps; test at 2.0 Mbps.
    let outcomes = point_outcomes();
    let out = &outcomes[WMT_2MTU_GENEROUS];
    assert!(
        out.quality > 0.01,
        "2-MTU bucket should never be perfect for the bursty server: {}",
        out.quality
    );
    // "increasing the token bucket depth to 4500 bytes largely eliminates
    // this difference."
    let out45 = &outcomes[WMT_3MTU_NOMINAL];
    assert!(
        out45.quality < 0.05,
        "3-MTU bucket should reach ~perfect: {}",
        out45.quality
    );
}

#[test]
fn depth_benefit_is_larger_for_the_bursty_server() {
    // "the benefits derived from allowing a slight increase in bucket size
    // are much larger with this type of server and encoding" than on the
    // QBone. Compare the quality improvement 3000→4500 at a rate ~1.4×
    // the nominal encoding for both testbeds.
    let outcomes = point_outcomes();
    let local_gain = outcomes[DEPTH_LOCAL_3000].quality - outcomes[DEPTH_LOCAL_4500].quality;
    let qbone_gain = outcomes[DEPTH_QBONE_3000].quality - outcomes[DEPTH_QBONE_4500].quality;
    assert!(
        local_gain > qbone_gain + 0.05,
        "depth gain should be larger locally: local {local_gain:.3} vs qbone {qbone_gain:.3}"
    );
}

#[test]
fn shaping_rescues_the_bursty_stream() {
    let outcomes = point_outcomes();
    let unshaped = &outcomes[SHAPE_UNSHAPED];
    let shaped = &outcomes[SHAPE_SHAPED];
    assert!(
        shaped.quality + 0.3 < unshaped.quality,
        "shaped {:.3} vs unshaped {:.3}",
        shaped.quality,
        unshaped.quality
    );
    // The shaper converts most policer drops into delay. (Both counts are
    // small in absolute terms — the WMV delta chain amplifies every drop
    // into up to a key-frame interval of corrupt frames, which is why the
    // quality gap is so much larger than the drop gap.)
    assert!(
        shaped.policer_drops * 2 <= unshaped.policer_drops,
        "shaped {} vs unshaped {}",
        shaped.policer_drops,
        unshaped.policer_drops
    );
}

#[test]
fn shaped_tcp_beats_unshaped_udp() {
    // "UDP streaming remained too bursty to allow meaningful
    // experimentation … TCP streaming … resulted in a smoother traffic
    // flow that produced better quality results" (§4.2). The comparison
    // the paper draws is TCP (with the shaping front end it relied on)
    // against the bursty UDP output.
    let outcomes = point_outcomes();
    let udp_out = &outcomes[TCP_UDP_BASE];
    let tcp_out = &outcomes[TCP_SHAPED];
    // TCP is reliable: every frame is eventually delivered. This needs
    // the client's full report, which goldens do not carry — simulate
    // the one run live.
    let mut t = LocalConfig::new(
        ClipId2::Lost,
        EfProfile::new(1_300_000, DEPTH_2MTU),
        LocalTransport::Tcp,
    );
    t.shaped = true;
    let (_, tcp_report) = run_local_detailed(&t);
    let received = tcp_report.received.iter().filter(|&&x| x).count();
    assert_eq!(
        received,
        tcp_report.received.len(),
        "TCP delivers all frames"
    );
    assert!(
        tcp_out.quality + 0.15 < udp_out.quality,
        "tcp {:.3} should beat bursty udp {:.3}",
        tcp_out.quality,
        udp_out.quality
    );
}

#[test]
fn death_spiral_collapses_and_can_break_the_session() {
    // At a rate the profile cannot sustain, the adaptation loop misfires:
    // compensation raises the rate, losses mount, the server collapses.
    let outcomes = point_outcomes();
    let out = &outcomes[SPIRAL_STARVED];
    assert!(
        out.collapses >= 1,
        "expected at least one collapse, got {}",
        out.collapses
    );
    // With a generous profile the same server never collapses.
    let healthy = &outcomes[SPIRAL_HEALTHY];
    assert_eq!(healthy.collapses, 0);
    assert!(!healthy.broken);
    assert!(healthy.quality < 0.1, "healthy quality {}", healthy.quality);
}

#[test]
fn cross_traffic_adds_jitter_but_ef_protects_the_stream() {
    // "only minor variations were observed that were primarily a
    // reflection of how the different routers implemented the
    // prioritization of EF traffic."
    let outcomes = point_outcomes();
    let quiet = &outcomes[CT_QUIET];
    let loaded = &outcomes[CT_LOADED];
    assert!(
        (quiet.quality - loaded.quality).abs() < 0.15,
        "quiet {:.3} vs loaded {:.3}",
        quiet.quality,
        loaded.quality
    );
}

#[test]
fn bimodal_server_is_unusable_under_any_reasonable_profile() {
    // §4: the large-datagram servers were "mostly bi-modal with poor
    // performance until sufficient (peak) bandwidth was allocated".
    let outcomes = point_outcomes();
    let out = &outcomes[BIMODAL_BURSTY];
    assert!(
        out.quality > 0.9,
        "bursty server should be unusable at 2x rate with 2-MTU bucket: {}",
        out.quality
    );
    // The paced server at the same profile is perfect.
    let p = &outcomes[BIMODAL_PACED];
    assert!(p.quality < 0.02, "paced quality {}", p.quality);
}
