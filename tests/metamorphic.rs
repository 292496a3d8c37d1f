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
//! * **Policer independence** — what reaches the QBone ingress policer
//!   does not depend on its profile: the paced server ignores feedback,
//!   so every packet reaches the policer at the same instant whatever
//!   (r, b) it enforces. This is what lets the paced server replay one
//!   pacing plan per encoding at every point of a grid.
//! * **Policer arithmetic** — a point's policer drops are a pure function
//!   of that trace: replaying it through a lone token bucket reproduces
//!   the simulated and the committed counts, and the least rate at which
//!   that bucket drops nothing brackets where each committed curve stops
//!   dropping.
//!
//! The live chain and shaping properties run on both event-queue
//! backends, chosen with `EventQueue::with_backend`; the AF-TCP ones run
//! on the timing wheel, which `tests/hop_chain_equivalence.rs` holds to
//! the heap on an AF-TCP workload. The grid properties load the
//! committed goldens (see `dsv_core::golden`).

use std::sync::{Arc, Mutex, OnceLock};

use dsv_check::scenario::{run_policer_chain, ChainConfig};
use dsv_core::artifacts::ArtifactStore;
use dsv_core::local::local_spec;
use dsv_core::prelude::*;
use dsv_core::qbone::{qbone_spec, MEDIA_FLOW};
use dsv_diffserv::policer::Policer;
use dsv_net::conditioner::{ConditionOutcome, Conditioner, Released};
use dsv_net::network::Simulation;
use dsv_net::packet::{DropReason, Dscp, FlowId, NodeId, Packet, PacketId, Proto};
use dsv_scenario::{compile, BoxConditioner, CompileOptions};
use dsv_sim::{EventQueue, QueueBackend, SimDuration, SimTime};
use dsv_stream::payload::StreamPayload;

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
    let rates: Vec<u64> = (0..8)
        .map(|i| (ENC as f64 * (0.88 + i as f64 * 0.08)) as u64)
        .collect();
    let depths = [DEPTH_2MTU, DEPTH_3MTU];
    let jobs = sweep_jobs(&rates, &depths, |profile| {
        Job::Qbone(QboneConfig::new(ClipId2::Lost, ENC, profile))
    });
    let outcomes = golden("findings_qbone_sweep", &jobs);
    SweepResult::new("findings sweep", &rates, &depths, outcomes)
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
    let outcomes = golden("metamorphic_local_pairs", &jobs);
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

/// One packet a conditioner was handed: instant, flow, id and size.
type Arrival = (SimTime, FlowId, PacketId, u32);

/// Records every packet it is handed, then hands it to the conditioner
/// it wraps. It offers no fast path, so every packet passes `submit`.
struct Recorder {
    inner: BoxConditioner,
    seen: Arc<Mutex<Vec<Arrival>>>,
}

impl Conditioner<StreamPayload> for Recorder {
    fn submit(
        &mut self,
        now: SimTime,
        pkt: Packet<StreamPayload>,
    ) -> ConditionOutcome<StreamPayload> {
        let arrival = (now, pkt.flow, pkt.id, pkt.size);
        self.seen.lock().expect("recorder poisoned").push(arrival);
        self.inner.submit(now, pkt)
    }

    fn release(&mut self, now: SimTime) -> Released<StreamPayload> {
        self.inner.release(now)
    }

    fn held(&self) -> usize {
        self.inner.held()
    }
}

/// Every packet the `ingress` tap of a QBone point of `clip` at
/// `encoding_bps` sees, and the media packets its policer drops.
fn ingress_arrivals(
    clip: ClipId2,
    encoding_bps: u64,
    rate_bps: u64,
    depth_bytes: u32,
) -> (Vec<Arrival>, u64) {
    let spec = qbone_spec(&QboneConfig::new(
        clip,
        encoding_bps,
        EfProfile::new(rate_bps, depth_bytes),
    ));
    let seen = Arc::new(Mutex::new(Vec::new()));
    let wrap = |tap: &str, inner: BoxConditioner| -> BoxConditioner {
        assert_eq!(tap, "ingress", "the QBone spec has one tap");
        Box::new(Recorder {
            inner,
            seen: Arc::clone(&seen),
        })
    };
    let compiled = compile(
        &spec,
        CompileOptions {
            store: Some(&ArtifactStore),
            wrap: Some(&wrap),
        },
    )
    .expect("qbone spec compiles");
    let horizon = compiled.horizon.map_or(SimTime::MAX, |h| SimTime::ZERO + h);
    let mut sim = Simulation::new(compiled.net);
    sim.run_until(horizon);
    let drops = sim
        .net
        .stats
        .flow(MEDIA_FLOW)
        .drops_for(DropReason::PolicerNonConformant);
    let arrivals = std::mem::take(&mut *seen.lock().expect("recorder poisoned"));
    (arrivals, drops)
}

/// The paper grid's six (clip, encoding) classes, each with its committed
/// figure: 24 policer profiles apiece.
fn paper_grid() -> [(ClipId2, u64, SweepResult); 6] {
    let committed = |json: &str| -> SweepResult {
        serde_json::from_str(json).expect("a committed figure parses")
    };
    [
        (
            ClipId2::Lost,
            1_700_000,
            committed(include_str!("../results/fig07_qbone_lost_1700k.json")),
        ),
        (
            ClipId2::Lost,
            1_500_000,
            committed(include_str!("../results/fig08_qbone_lost_1500k.json")),
        ),
        (
            ClipId2::Lost,
            1_000_000,
            committed(include_str!("../results/fig09_qbone_lost_1000k.json")),
        ),
        (
            ClipId2::Dark,
            1_700_000,
            committed(include_str!("../results/fig10_qbone_dark_1700k.json")),
        ),
        (
            ClipId2::Dark,
            1_500_000,
            committed(include_str!("../results/fig11_qbone_dark_1500k.json")),
        ),
        (
            ClipId2::Dark,
            1_000_000,
            committed(include_str!("../results/fig12_qbone_dark_1000k.json")),
        ),
    ]
}

/// One class of the paper grid: its committed figure, and the ingress
/// trace and simulated policer drops of its first and last committed
/// points.
struct IngressClass {
    label: String,
    committed: SweepResult,
    first: (Vec<Arrival>, u64),
    last: (Vec<Arrival>, u64),
}

/// [`IngressClass`] of each class of [`paper_grid`], simulated once for
/// every test that reads them.
fn ingress_runs() -> &'static [IngressClass] {
    static RUNS: OnceLock<Vec<IngressClass>> = OnceLock::new();
    RUNS.get_or_init(|| {
        paper_grid()
            .into_iter()
            .map(|(clip, encoding_bps, committed)| {
                let run = |p: &SweepPoint| {
                    ingress_arrivals(clip, encoding_bps, p.token_rate_bps, p.bucket_depth_bytes)
                };
                let first = run(committed.points.first().expect("a committed point"));
                let last = run(committed.points.last().expect("a committed point"));
                IngressClass {
                    label: committed.label.clone(),
                    committed,
                    first,
                    last,
                }
            })
            .collect()
    })
}

/// Claim 1 of the analytic oracle: in each class of the paper grid the
/// policer sees the same packets at the same instants at its first
/// committed point (the lowest rate and depth, which drops) and its last
/// (the highest, which does not), so its arrivals do not depend on the
/// profile.
#[test]
fn ingress_arrivals_do_not_depend_on_the_policer_profile() {
    for class in ingress_runs() {
        let (first, first_drops) = &class.first;
        let (last, last_drops) = &class.last;
        assert!(
            first.iter().filter(|a| a.1 == MEDIA_FLOW).count() > 6000,
            "{}: the tap sees the whole stream",
            class.label
        );
        assert!(
            *first_drops > 0 && *last_drops == 0,
            "{}: drops {first_drops} at the first point, {last_drops} at the last",
            class.label
        );
        assert!(
            first == last,
            "{}: the ingress tap saw another trace at the last point",
            class.label
        );
    }
}

/// The media packets of `arrivals` that a fresh CAR policer of profile
/// (`rate_bps`, `depth_bytes`), built as `compile` builds QBone's, drops
/// when each arrives at its recorded instant.
fn replayed_drops(arrivals: &[Arrival], rate_bps: u64, depth_bytes: u32) -> u64 {
    let mut policer = Policer::car_drop(rate_bps, depth_bytes);
    let mut drops = 0;
    for &(at, flow, id, size) in arrivals.iter().filter(|a| a.1 == MEDIA_FLOW) {
        let mut pkt = Packet {
            id,
            flow,
            src: NodeId(0),
            dst: NodeId(1),
            size,
            dscp: Dscp::EF_QBONE,
            proto: Proto::Udp,
            fragment: None,
            sent_at: at,
            payload: (),
        };
        if !policer.police_in_place(at, &mut pkt) {
            drops += 1;
        }
    }
    drops
}

/// Claim 2 of the analytic oracle: every point's policer drops are the
/// token bucket's arithmetic on its class's ingress trace alone (891 at
/// 880 kb/s and 3000 B on the Lost 1.0 Mbps encoding, for one): the first
/// point's trace replays each of the 24 committed points of Figures 7-12,
/// and the simulated drops of the first and last. The recorder keeps
/// every packet on the per-hop path (it does not decide any pair alone),
/// so the replay is also an arithmetic reference for the verdicts a hop
/// chain takes inside its walk, which produced the committed figures.
#[test]
fn policer_drops_replay_from_the_ingress_trace() {
    for class in ingress_runs() {
        let (arrivals, _) = &class.first;
        let points = &class.committed.points;
        assert_eq!(points.len(), 24, "{}", class.label);
        for (point, simulated) in [(&points[0], class.first.1), (&points[23], class.last.1)] {
            let replayed = replayed_drops(arrivals, point.token_rate_bps, point.bucket_depth_bytes);
            assert_eq!(
                replayed, simulated,
                "{}: replay against the simulated policer",
                class.label
            );
        }
        for point in points {
            let (rate, depth) = (point.token_rate_bps, point.bucket_depth_bytes);
            assert_eq!(
                replayed_drops(arrivals, rate, depth),
                point.outcome.policer_drops,
                "{} ({rate} b/s, {depth} B): replay against the committed figure",
                class.label
            );
        }
    }
}

/// The least token rate at which a CAR policer of depth `depth_bytes`
/// drops none of `arrivals`, found by bisection between a rate that drops
/// (`drops_at`) and one that does not (`clean_at`). Exact, because a
/// bucket that never fires is dominated by every larger one: whatever the
/// smaller one admits, the larger one admits too.
fn zero_drop_rate(arrivals: &[Arrival], depth_bytes: u32, drops_at: u64, clean_at: u64) -> u64 {
    let (mut drops_at, mut clean_at) = (drops_at, clean_at);
    assert!(replayed_drops(arrivals, drops_at, depth_bytes) > 0);
    assert_eq!(replayed_drops(arrivals, clean_at, depth_bytes), 0);
    while clean_at - drops_at > 1 {
        let mid = drops_at + (clean_at - drops_at) / 2;
        if replayed_drops(arrivals, mid, depth_bytes) == 0 {
            clean_at = mid;
        } else {
            drops_at = mid;
        }
    }
    clean_at
}

/// Claim 3 of the analytic oracle: for b = 3000 B and b = 4500 B, the
/// least zero-drop rate r*(b) of each class's ingress trace, searched
/// from 1 kb/s to 100 Mb/s without looking at the grid, brackets the
/// first committed grid point that drops nothing: the grid rate just
/// below it drops, the one at it does not. A 3-MTU bucket never needs a
/// higher rate than a 2-MTU one.
#[test]
fn the_least_zero_drop_rate_brackets_each_curves_first_clean_point() {
    for class in ingress_runs() {
        let (arrivals, _) = &class.first;
        let mut least = Vec::new();
        for depth in [DEPTH_2MTU, DEPTH_3MTU] {
            let r_star = zero_drop_rate(arrivals, depth, 1_000, 100_000_000);
            let mut curve: Vec<&SweepPoint> = class
                .committed
                .points
                .iter()
                .filter(|p| p.bucket_depth_bytes == depth)
                .collect();
            curve.sort_by_key(|p| p.token_rate_bps);
            assert_eq!(curve.len(), 12, "{} at {depth} B", class.label);
            let first_clean = curve
                .iter()
                .position(|p| p.outcome.policer_drops == 0)
                .unwrap_or_else(|| panic!("{} at {depth} B never stops dropping", class.label));
            assert!(first_clean > 0, "{} at {depth} B never drops", class.label);
            let (below, at) = (curve[first_clean - 1], curve[first_clean]);
            assert!(
                below.token_rate_bps < r_star && r_star <= at.token_rate_bps,
                "{} at {depth} B: r* = {r_star} b/s outside ({}, {}]",
                class.label,
                below.token_rate_bps,
                at.token_rate_bps
            );
            for p in &curve {
                assert_eq!(
                    p.outcome.policer_drops == 0,
                    p.token_rate_bps >= r_star,
                    "{} ({} b/s, {depth} B): r* = {r_star} b/s",
                    class.label,
                    p.token_rate_bps
                );
            }
            least.push(r_star);
        }
        assert!(least[1] <= least[0], "{}: r* {least:?}", class.label);
    }
}
