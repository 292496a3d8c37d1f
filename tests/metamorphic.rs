//! Metamorphic properties of the reproduction.
//!
//! Rather than pinning absolute outputs, these tests assert relations
//! that must hold between *pairs or families* of runs:
//!
//! * **Time dilation** — scaling every rate down and every duration up
//!   by the same integer factor scales all timestamps exactly and must
//!   not change a single per-packet decision.
//! * **Rate monotonicity** — raising the token rate (all else equal)
//!   never loses more traffic, on the live policer chain and on the
//!   committed paper grids.
//! * **Depth monotonicity** — the paper's b = 4500 B profile is never
//!   worse than b = 3000 B at the same rate.
//! * **Shaping monotonicity** — a shaped WMT stream is never worse than
//!   the same stream unshaped at a starved profile (§4.2).
//!
//! The live chain and shaping properties run on both event-queue
//! backends, chosen with `EventQueue::with_backend`; the AF-TCP ones run
//! on the timing wheel, which `tests/hop_chain_equivalence.rs` holds to
//! the heap on an AF-TCP workload. The grid properties load the
//! committed goldens (see `dsv_core::golden`).

use dsv_check::scenario::{run_policer_chain, ChainConfig};
use dsv_core::artifacts::ArtifactStore;
use dsv_core::local::local_spec;
use dsv_core::prelude::*;
use dsv_net::network::Simulation;
use dsv_scenario::{compile, CompileOptions};
use dsv_sim::{EventQueue, QueueBackend, SimDuration, SimTime};

const ENC: u64 = 1_500_000;

fn both_backends() -> [QueueBackend; 2] {
    [QueueBackend::Wheel, QueueBackend::Heap]
}

/// A policed chain with real drops: 12 Mbps offered against 2 Mbps.
fn starved_chain(backend: QueueBackend) -> ChainConfig {
    ChainConfig {
        packets: 300,
        size: 1500,
        gap: SimDuration::from_millis(1),
        rate_bps: 2_000_000,
        depth_bytes: 3000,
        link_bps: 10_000_000,
        prop: SimDuration::from_micros(50),
        backend,
        ..ChainConfig::default()
    }
}

#[test]
fn time_dilation_preserves_every_decision() {
    // k = 4 divides both rates, so the dilated run's timestamps are
    // exactly 4× the originals and the policer sees identical
    // rate × interval products — same admissions, same drops, same
    // delivery order, identical loss fraction. Checked on both queue
    // backends: the wheel must not introduce scale-dependent rounding.
    const K: u64 = 4;
    for backend in both_backends() {
        let base_cfg = starved_chain(backend);
        let base = run_policer_chain(&base_cfg);
        let dilated = run_policer_chain(&base_cfg.dilated(K));
        assert!(base.drops > 0, "property needs a policed run");
        assert_eq!(
            base.delivered_ids, dilated.delivered_ids,
            "{backend:?}: dilation changed per-packet decisions"
        );
        assert_eq!(base.drops, dilated.drops);
        assert_eq!(base.loss_fraction(), dilated.loss_fraction());
        assert_eq!(
            dilated.end_time.as_nanos(),
            K * base.end_time.as_nanos(),
            "{backend:?}: timestamps must scale exactly by k"
        );
        assert_eq!(
            base.dispatched, dilated.dispatched,
            "{backend:?}: dilation changed the event structure"
        );
    }
}

#[test]
fn chain_loss_is_monotone_in_token_rate() {
    for backend in both_backends() {
        let mut losses = Vec::new();
        for rate in [1_000_000u64, 2_000_000, 4_000_000, 8_000_000, 16_000_000] {
            let out = run_policer_chain(&ChainConfig {
                rate_bps: rate,
                ..starved_chain(backend)
            });
            losses.push((rate, out.loss_fraction()));
        }
        assert!(
            losses.windows(2).all(|w| w[1].1 <= w[0].1),
            "{backend:?}: loss not monotone in rate: {losses:?}"
        );
        assert!(losses[0].1 > 0.5, "lowest rate should starve: {losses:?}");
        assert_eq!(losses.last().unwrap().1, 0.0, "highest rate is generous");
    }
}

#[test]
fn chain_loss_is_monotone_in_bucket_depth() {
    for backend in both_backends() {
        for rate in [1_500_000u64, 2_000_000, 3_000_000, 6_000_000] {
            let loss_at = |depth: u32| {
                run_policer_chain(&ChainConfig {
                    rate_bps: rate,
                    depth_bytes: depth,
                    ..starved_chain(backend)
                })
                .loss_fraction()
            };
            let shallow = loss_at(3000);
            let deep = loss_at(4500);
            assert!(
                deep <= shallow,
                "{backend:?}: deeper bucket lost more at {rate} bps: {deep} vs {shallow}"
            );
        }
    }
}

/// The committed QBone findings grid (same golden the paper-findings
/// tests load — one source of truth for both suites).
fn qbone_findings_sweep() -> SweepResult {
    let base = QboneConfig::new(ClipId2::Lost, ENC, EfProfile::new(ENC, DEPTH_2MTU));
    let rates: Vec<u64> = (0..8)
        .map(|i| (ENC as f64 * (0.88 + i as f64 * 0.08)) as u64)
        .collect();
    golden_qbone_sweep(
        "findings_qbone_sweep",
        &base,
        &rates,
        &[DEPTH_2MTU, DEPTH_3MTU],
        "findings sweep",
    )
}

#[test]
fn frame_loss_is_monotone_in_rate_on_the_paper_grid() {
    let sweep = qbone_findings_sweep();
    for depth in [DEPTH_2MTU, DEPTH_3MTU] {
        let curve = sweep.curve(depth);
        // Real sweeps wobble a little (the paper flags the same); allow
        // the run-to-run tolerance the findings tests use.
        assert!(
            curve.windows(2).all(|w| w[1].2 <= w[0].2 + 0.08),
            "depth {depth}: frame loss not monotone in rate: {curve:?}"
        );
    }
}

#[test]
fn deeper_bucket_is_never_worse_on_the_paper_grid() {
    let sweep = qbone_findings_sweep();
    let shallow = sweep.curve(DEPTH_2MTU);
    let deep = sweep.curve(DEPTH_3MTU);
    assert_eq!(shallow.len(), deep.len());
    for (s, d) in shallow.iter().zip(&deep) {
        assert_eq!(s.0, d.0, "curves must share the rate grid");
        assert!(
            d.2 <= s.2 + 0.05,
            "at {} bps the 4500 B bucket lost more frames ({} vs {})",
            s.0,
            d.2,
            s.2
        );
        assert!(
            d.1 <= s.1 + 0.05,
            "at {} bps the 4500 B bucket scored worse ({} vs {})",
            s.0,
            d.1,
            s.1
        );
    }
}

fn starved_local(shaped: bool) -> LocalConfig {
    let mut cfg = LocalConfig::new(
        ClipId2::Lost,
        EfProfile::new(1_100_000, DEPTH_2MTU),
        LocalTransport::Udp,
    );
    cfg.shaped = shaped;
    cfg
}

#[test]
fn shaping_is_never_worse_on_the_committed_pairs() {
    // Shaped-vs-unshaped WMT pairs at two starved profiles, committed as
    // goldens. Quality is a penalty (lower = better).
    let mut jobs = Vec::new();
    for rate in [1_000_000u64, 1_100_000] {
        for shaped in [false, true] {
            let mut cfg = starved_local(shaped);
            cfg.profile = EfProfile::new(rate, DEPTH_2MTU);
            jobs.push(Job::Local(cfg));
        }
    }
    let outcomes = golden_outcomes("metamorphic_local_pairs", &jobs);
    for pair in outcomes.chunks(2) {
        let (unshaped, shaped) = (&pair[0], &pair[1]);
        assert!(
            shaped.quality <= unshaped.quality + 0.02,
            "shaping hurt quality: {} vs {}",
            shaped.quality,
            unshaped.quality
        );
        assert!(
            shaped.frame_loss <= unshaped.frame_loss + 0.02,
            "shaping hurt frame loss: {} vs {}",
            shaped.frame_loss,
            unshaped.frame_loss
        );
        assert!(
            shaped.policer_drops <= unshaped.policer_drops,
            "shaping must reduce policer drops"
        );
    }
}

#[test]
fn abr_ladder_decisions_are_dilation_invariant() {
    // The ABR policy is a pure function of (buffer, estimate) against
    // (rungs, step): scaling every rate and every duration by the same
    // factor k cancels inside both the buffer quotient and the rung
    // comparison, so the chosen rung is identical — the transport-level
    // analogue of the chain dilation property, checked exactly.
    use dsv_stream::abr::AbrPolicy;
    const K: u64 = 7;
    let rungs = vec![375_000u64, 750_000, 1_125_000, 1_500_000];
    let step = 4_000_000u64;
    let base = AbrPolicy::new(rungs.clone(), step);
    let dilated = AbrPolicy::new(rungs.iter().map(|r| r / 125).collect(), step * K);
    // (rungs/125, est/125) scales the rate axis; (step·k, buffer·k)
    // scales the time axis — independently, as dilation does.
    for buffer_us in (0..30_000_000u64).step_by(1_371_733) {
        for est in (0..6_000_000u64).step_by(271_250) {
            assert_eq!(
                base.choose(buffer_us, est),
                dilated.choose(buffer_us * K, est / 125),
                "dilation changed the rung at buffer {buffer_us} est {est}"
            );
        }
    }
}

/// Scales an AF scenario in time: committed rates and the bottleneck
/// down by k, durations (including the extra RTT) up by k.
fn af_dilated(cfg: &AfTcpConfig, k: u64) -> AfTcpConfig {
    let mut d = cfg.clone();
    d.targets_bps = cfg.targets_bps.iter().map(|t| t / k).collect();
    d.bottleneck_bps = cfg.bottleneck_bps / k;
    d.rtt_extra_ms = cfg.rtt_extra_ms.iter().map(|r| r * k).collect();
    d.duration_us = cfg.duration_us * k;
    d
}

#[test]
fn af_guarantee_finding_survives_time_dilation() {
    // Mini-TCP carries absolute clocks — the 1 s initial RTO, the
    // 200 ms floor, the 60 s ceiling — so AF runs cannot dilate
    // *exactly* the way the open-loop chain does. The metamorphic claim
    // is therefore qualitative: the provisioning verdict (does every
    // flow collect its committed rate?) is scale-free. An
    // underprovisioned ladder stays fully honored and a near-capacity
    // ladder stays broken when the whole scenario runs at half the
    // rates for twice as long.
    const K: u64 = 2;
    let under = AfTcpConfig::new(vec![450_000; 4], vec![0; 4]);
    for cfg in [under.clone(), af_dilated(&under, K)] {
        let out = run_af_tcp(&cfg);
        assert_eq!(
            out.flows_meeting_target(1.0),
            4,
            "underprovisioned verdict must be scale-free"
        );
    }
    let near = AfTcpConfig::new(vec![1_425_000; 4], vec![0; 4]);
    for cfg in [near.clone(), af_dilated(&near, K)] {
        let out = run_af_tcp(&cfg);
        assert_eq!(
            out.flows_meeting_target(0.95),
            0,
            "near-capacity verdict must be scale-free"
        );
    }
}

#[test]
fn af_achieved_is_monotone_in_committed_rate() {
    // Two flows share the AF bottleneck; only the first flow's
    // committed rate grows. Its achieved goodput must not fall — more
    // green tokens never hurt — while staying a genuine contest (the
    // competitor keeps a fixed commitment throughout).
    let mut achieved = Vec::new();
    for cir in [250_000u64, 1_000_000, 2_000_000] {
        let out = run_af_tcp(&AfTcpConfig::new(vec![cir, 1_000_000], vec![0, 0]));
        achieved.push((cir, out.per_flow[0].achieved_bps));
    }
    assert!(
        achieved.windows(2).all(|w| w[1].1 >= w[0].1),
        "achieved must be monotone in the committed rate: {achieved:?}"
    );
}

/// The local client's report from one run of `cfg` on an explicit
/// event-queue backend, as text.
fn local_report(cfg: &LocalConfig, backend: QueueBackend) -> String {
    let compiled = compile(
        &local_spec(cfg),
        CompileOptions {
            store: Some(&ArtifactStore),
            wrap: None,
        },
    )
    .expect("local spec compiles");
    let client = compiled.sole_client().expect("one client").clone();
    let horizon = compiled.horizon.expect("local spec sets a horizon");
    let mut queue = EventQueue::with_backend(backend);
    compiled.net.schedule_starts(&mut queue);
    let mut sim = Simulation {
        net: compiled.net,
        queue,
    };
    sim.run_until(SimTime::ZERO + horizon);
    let report = format!("{:?}", client.borrow().report());
    report
}

#[test]
fn shaping_is_never_worse_live_under_both_backends() {
    // One live pair (the committed pairs above cover the grid). Each
    // side's client report is byte-identical on both backends, and a
    // run's quality is a function of its report, so the property checked
    // on the `run_local` path holds on either backend.
    for shaped in [false, true] {
        let cfg = starved_local(shaped);
        assert_eq!(
            local_report(&cfg, QueueBackend::Wheel),
            local_report(&cfg, QueueBackend::Heap),
            "shaped={shaped}: the client report differs between backends"
        );
    }
    let unshaped = run_local(&starved_local(false));
    let shaped = run_local(&starved_local(true));
    assert!(
        shaped.quality <= unshaped.quality + 0.02,
        "shaping hurt quality: {} vs {}",
        shaped.quality,
        unshaped.quality
    );
}
