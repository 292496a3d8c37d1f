//! The bursty-vs-TCP-vs-ABR smoothing sweep under QBone EF policers.
//!
//! The paper's §5 conjecture: a TCP-based streaming server would not
//! need the explicit pacing shaper, because congestion control
//! "self-smooths" the burst structure the policer punishes. This grid
//! pins what the engine actually shows, in three acts:
//!
//! * **Loss terms, shallow buckets** — at the paper's 2-MTU depth the
//!   closed loop concedes rate and takes a small fraction of the open
//!   loop's policer drops. That is the conjecture, confirmed — but only
//!   in loss terms: the concession is so deep that goodput is capped by
//!   the bucket depth, not the token rate.
//! * **Deep buckets invert the ranking** — once the bucket admits a full
//!   congestion window, the open-loop sender is conformant (zero drops,
//!   full rate) while TCP's probing still overshoots. Self-smoothing is
//!   a shallow-bucket phenomenon.
//! * **ABR turns the loss story into a quality story** — the ladder
//!   downshifts instead of stalling wherever the bucket is workable, and
//!   climbs with provisioning; only the shallowest bucket breaks it.
//!
//! The grid loads a committed golden
//! (`results/findings_tcp_smoothing.json`) through
//! [`dsv_core::golden::golden`]: a checksum over the generating
//! configs fails loudly if the tested grid drifts from the committed
//! one, and `DSV_REGEN=1` re-simulates and rewrites the file.

use dsv_core::prelude::*;
use dsv_core::smoothing::{DEPTH_10MTU, DEPTH_40MTU};

const ENC: u64 = 1_500_000;
const SERVERS: [SmoothingServer; 3] = [
    SmoothingServer::Bursty,
    SmoothingServer::Tcp,
    SmoothingServer::Abr,
];
/// Token rates spanning under-, at-, and over-provisioned profiles
/// relative to the 1.5 Mbit/s encoding.
const RATES: [u64; 3] = [800_000, 1_650_000, 5_000_000];
/// The paper's shallow bucket, a one-window bucket, and a deep one.
const DEPTHS: [u32; 3] = [DEPTH_2MTU, DEPTH_10MTU, DEPTH_40MTU];

/// The committed grid, server-major, then token rate, then bucket depth.
fn grid() -> Vec<FlowJob> {
    let mut jobs = Vec::new();
    for &server in &SERVERS {
        for &rate in &RATES {
            for &depth in &DEPTHS {
                jobs.push(FlowJob::Smoothing(SmoothingConfig::new(
                    ClipId2::Lost,
                    ENC,
                    server,
                    EfProfile::new(rate, depth),
                )));
            }
        }
    }
    jobs
}

fn outcomes() -> Vec<FlowsOutcome> {
    golden("findings_tcp_smoothing", &grid())
}

/// Exact clustering's contract on this grid: every point simulated on its
/// own reproduces the committed golden byte for byte.
#[test]
#[ignore = "re-simulates the whole grid; ci.sh runs it"]
fn golden_reproduces_point_by_point() {
    dsv_core::golden::assert_reproduced_point_by_point("findings_tcp_smoothing", &grid());
}

/// The single flow at (server index, rate index, depth index).
fn flow(outs: &[FlowsOutcome], s: usize, r: usize, d: usize) -> &FlowOutcome {
    &outs[(s * RATES.len() + r) * DEPTHS.len() + d].per_flow[0]
}

#[test]
fn golden_covers_the_grid() {
    let outs = outcomes();
    assert_eq!(outs.len(), SERVERS.len() * RATES.len() * DEPTHS.len());
    for out in &outs {
        assert_eq!(out.per_flow.len(), 1, "smoothing runs are single-flow");
    }
}

#[test]
fn tcp_self_smooths_in_loss_terms_at_the_paper_bucket() {
    // The conjecture, confirmed where the paper posed it: at 2 MTU the
    // open loop blasts into the drops while the closed loop concedes.
    let outs = outcomes();
    let b = flow(&outs, 0, 1, 0);
    let t = flow(&outs, 1, 1, 0);
    assert!(b.packet_loss > 0.4, "open loop bleeds: {}", b.packet_loss);
    assert!(
        t.policer_drops * 3 < b.policer_drops,
        "tcp {} vs bursty {} policer drops",
        t.policer_drops,
        b.policer_drops
    );
    assert!(t.packet_loss < b.packet_loss);
}

#[test]
fn bucket_depth_not_token_rate_caps_the_closed_loop() {
    // The cost of the concession: at 2 MTU, doubling the token rate buys
    // TCP nothing — line-rate window bursts are clipped by the bucket
    // depth, so 800 kbit/s and 1.65 Mbit/s profiles land on the *same*
    // goodput, far below even the smaller token rate.
    let outs = outcomes();
    let low = flow(&outs, 1, 0, 0);
    let mid = flow(&outs, 1, 1, 0);
    assert_eq!(
        low.achieved_bps, mid.achieved_bps,
        "token rate must be irrelevant at 2 MTU"
    );
    assert!(
        low.achieved_bps < 0.5 * RATES[0] as f64,
        "goodput {} is bucket-capped, not token-capped",
        low.achieved_bps
    );
}

#[test]
fn deep_buckets_invert_the_ranking() {
    // A 40-MTU bucket admits the whole burst: the open loop becomes
    // conformant (zero policer drops, full encoding rate) while TCP's
    // probing still overshoots and undershoots the open loop's goodput.
    // Self-smoothing is a shallow-bucket phenomenon.
    let outs = outcomes();
    let b = flow(&outs, 0, 1, 2);
    let t = flow(&outs, 1, 1, 2);
    assert_eq!(b.policer_drops, 0, "open loop conformant at 40 MTU");
    assert!(
        b.achieved_bps > 0.95 * b.target_bps as f64,
        "open loop holds its rate: {} vs {}",
        b.achieved_bps,
        b.target_bps
    );
    assert!(
        t.achieved_bps < b.achieved_bps,
        "tcp {} must trail the conformant open loop {}",
        t.achieved_bps,
        b.achieved_bps
    );
}

#[test]
fn open_loop_is_token_limited_when_underprovisioned() {
    // At 800 kbit/s the open loop delivers the token rate at every
    // depth — the policer, not the bucket, is the binding constraint —
    // and pays for it in loss at the shallow bucket.
    let outs = outcomes();
    for (d, depth) in DEPTHS.iter().enumerate() {
        let b = flow(&outs, 0, 0, d);
        let ratio = b.achieved_bps / RATES[0] as f64;
        assert!(
            (0.9..=1.1).contains(&ratio),
            "depth {depth}: achieved {} should track the token rate",
            b.achieved_bps
        );
    }
    assert!(flow(&outs, 0, 0, 0).packet_loss > 0.3);
}

#[test]
fn tcp_goodput_grows_from_shallow_to_deep() {
    // Across the bucket sweep TCP recovers goodput as the bucket
    // deepens; at the encoding-rate profile the growth is monotone.
    let outs = outcomes();
    for r in [0, 1] {
        assert!(
            flow(&outs, 1, r, 0).achieved_bps < flow(&outs, 1, r, 2).achieved_bps,
            "rate {}: deep bucket must beat shallow",
            RATES[r]
        );
    }
    let shallow = flow(&outs, 1, 1, 0).achieved_bps;
    let window = flow(&outs, 1, 1, 1).achieved_bps;
    let deep = flow(&outs, 1, 1, 2).achieved_bps;
    assert!(
        shallow < window && window < deep,
        "{shallow} {window} {deep}"
    );
}

#[test]
fn abr_downshifts_instead_of_breaking_given_a_workable_bucket() {
    // The shallowest bucket starves even the lowest rung mid-session;
    // from one congestion window up, the ladder absorbs every profile in
    // the grid without abandoning the session.
    let outs = outcomes();
    for (r, rate) in RATES.iter().enumerate() {
        assert!(
            flow(&outs, 2, r, 0).broken,
            "rate {rate}: 2 MTU must break the session"
        );
        for d in [1, 2] {
            let a = flow(&outs, 2, r, d);
            assert!(
                !a.broken,
                "rate {rate} depth {}: ladder must finish",
                DEPTHS[d]
            );
        }
    }
}

#[test]
fn abr_ladder_climbs_with_provisioning() {
    // At the deep bucket the mean rung is strictly ordered by token
    // rate, and the generous profile plays the top of the ladder with a
    // clean session: no stalls, no rebuffers.
    let outs = outcomes();
    let rungs: Vec<f64> = (0..RATES.len())
        .map(|r| flow(&outs, 2, r, 2).mean_rung)
        .collect();
    assert!(
        rungs[0] < rungs[1] && rungs[1] < rungs[2],
        "mean rung must climb with the token rate: {rungs:?}"
    );
    let top = flow(&outs, 2, 2, 2);
    assert!(top.mean_rung > 2.0, "generous profile: {}", top.mean_rung);
    assert_eq!(top.rebuffers, 0);
    assert_eq!(top.stall_s, 0.0);
}
