//! Property-based invariants of the ABR client state machines, plus the
//! backend-determinism contract for full ABR sessions.
//!
//! The ladder policy ([`AbrPolicy`]) and playout buffer ([`AbrBuffer`])
//! are pure state machines, so proptest drives them directly with
//! randomized schedules: the buffer can never go negative, the ladder is
//! monotone in buffer level, and a session whose sustained throughput
//! covers the lowest rung never stalls after startup. The one
//! network-level property — a full QBone ABR session is bit-identical
//! under both event-queue backends — closes the loop from the state
//! machines to the committed goldens.
//!
//! [`AbrPolicy`]: dsv_stream::abr::AbrPolicy
//! [`AbrBuffer`]: dsv_stream::abr::AbrBuffer

use dsv_core::artifacts::ArtifactStore;
use dsv_core::prelude::*;
use dsv_core::qbone::MEDIA_FLOW;
use dsv_core::smoothing::{smoothing_spec, DEPTH_10MTU};
use dsv_net::network::Simulation;
use dsv_net::stats::FlowCounters;
use dsv_scenario::{compile, CompileOptions};
use dsv_sim::{EventQueue, QueueBackend, SimDuration, SimTime};
use dsv_stream::abr::{segment_bytes, AbrBuffer, AbrPolicy};
use proptest::prelude::*;

/// A random ladder of 1–6 rungs plus a positive step. Callers sort the
/// rungs ascending (the vendored proptest has no mapping combinator).
fn ladder_strategy() -> impl Strategy<Value = (Vec<u64>, u64)> {
    (
        prop::collection::vec(50_000u64..5_000_000, 1..6),
        500_000u64..8_000_000,
    )
}

/// Sorts a raw ladder draw into the ascending form [`AbrPolicy`] needs.
fn ascending(lad: (Vec<u64>, u64)) -> (Vec<u64>, u64) {
    let (mut rungs, step) = lad;
    rungs.sort_unstable();
    (rungs, step)
}

proptest! {
    /// The playout buffer never goes negative and its stall accounting
    /// is consistent for any completion schedule: stalls only grow,
    /// rebuffer events never outnumber completions, and the buffered
    /// content never exceeds what was actually delivered.
    #[test]
    fn buffer_never_negative_and_stalls_are_consistent(
        gaps in prop::collection::vec(0u64..8_000_000_000, 1..60),
        seg_us in 200_000u64..5_000_000,
    ) {
        let mut b = AbrBuffer::new();
        let seg = SimDuration::from_micros(seg_us);
        let mut now = SimTime::ZERO;
        let mut last_stall = SimDuration::ZERO;
        for (i, &gap) in gaps.iter().enumerate() {
            now += SimDuration::from_nanos(gap);
            b.on_segment_complete(now, seg);
            // Never negative: buffer_at saturates at zero by contract,
            // and right after a completion it holds at least nothing and
            // at most everything delivered so far.
            let buf = b.buffer_at(now);
            prop_assert!(buf >= SimDuration::ZERO);
            prop_assert!(buf <= seg * (i as u64 + 1), "buffer exceeds delivered content");
            // Stall time is monotone and rebuffers bounded by arrivals.
            prop_assert!(b.stall >= last_stall, "stall time shrank");
            last_stall = b.stall;
            prop_assert!(b.rebuffers as usize <= i + 1);
            // Probing the buffer far in the future still never underflows.
            prop_assert_eq!(
                b.buffer_at(now + seg * 1000),
                SimDuration::ZERO,
                "drained buffer must read zero, not wrap"
            );
        }
    }

    /// The ladder choice is monotone in buffer level (more buffered
    /// content never selects a lower rung) and capped by the top rung.
    #[test]
    fn ladder_is_monotone_in_buffer_level(
        lad in ladder_strategy(),
        est in 0u64..6_000_000,
        probes in prop::collection::vec(0u64..60_000_000, 2..40),
    ) {
        let (rungs, step) = ascending(lad);
        let p = AbrPolicy::new(rungs.clone(), step);
        let mut sorted = probes;
        sorted.sort_unstable();
        let mut last = 0usize;
        for &buffer_us in &sorted {
            let r = p.choose(buffer_us, est);
            prop_assert!(r < rungs.len());
            prop_assert!(r >= last, "ladder dropped as the buffer grew");
            last = r;
        }
    }

    /// The ladder choice is also monotone in the throughput estimate.
    #[test]
    fn ladder_is_monotone_in_throughput_estimate(
        lad in ladder_strategy(),
        buffer_us in 0u64..60_000_000,
        ests in prop::collection::vec(0u64..8_000_000, 2..40),
    ) {
        let (rungs, step) = ascending(lad);
        let p = AbrPolicy::new(rungs, step);
        let mut ests = ests;
        ests.sort_unstable();
        let mut last = 0usize;
        for &est in &ests {
            let r = p.choose(buffer_us, est);
            prop_assert!(r >= last, "ladder dropped as the estimate grew");
            last = r;
        }
    }

    /// The no-stall guarantee: drive a whole idealized session through
    /// the pure state machines at a constant delivery rate at least the
    /// lowest rung. Every chosen rung is then affordable (the rate cap
    /// picks a rung the throughput sustains), each fetch completes
    /// within one segment duration, and the buffer never runs dry after
    /// the first segment: zero rebuffers, zero stall.
    #[test]
    fn no_stall_when_throughput_covers_the_lowest_rung(
        lad in ladder_strategy(),
        headroom_pct in 0u64..300,
        segments in 2u32..40,
        seg_us in 500_000u64..4_000_000,
    ) {
        let (rungs, step) = ascending(lad);
        let bps = rungs[0] + rungs[0] * headroom_pct / 100;
        let p = AbrPolicy::new(rungs, step);
        let mut b = AbrBuffer::new();
        let seg_dur = SimDuration::from_micros(seg_us);
        let mut now = SimTime::ZERO;
        let mut est = 0u64;
        for _ in 0..segments {
            let buffer_us = b.buffer_at(now).as_nanos() / 1_000;
            let rung = p.choose(buffer_us, est);
            let bytes = segment_bytes(p.rungs[rung], seg_us);
            // Constant-rate delivery: the fetch takes bytes·8/bps.
            let fetch = SimDuration::from_nanos(bytes * 8 * 1_000_000_000 / bps);
            now += fetch;
            b.on_segment_complete(now, seg_dur);
            est = bps;
        }
        prop_assert_eq!(b.rebuffers, 0, "sustained throughput must not stall");
        prop_assert_eq!(b.stall, SimDuration::ZERO);
    }

    /// Rate-cap safety: the chosen rung's encoding rate never exceeds
    /// the throughput estimate once an estimate exists (the buffer cap
    /// can only push the choice *down*).
    #[test]
    fn chosen_rung_is_affordable(
        lad in ladder_strategy(),
        buffer_us in 0u64..60_000_000,
        est in 1u64..8_000_000,
    ) {
        let (rungs, step) = ascending(lad);
        let p = AbrPolicy::new(rungs.clone(), step);
        let r = p.choose(buffer_us, est);
        if rungs[0] <= est {
            prop_assert!(p.rungs[r] <= est, "rung {r} not affordable at {est}");
        } else {
            prop_assert_eq!(r, 0, "below the floor rung the policy pins to 0");
        }
    }
}

/// A flow's counters as text, drop reasons in a fixed order (the
/// counters keep them in a `HashMap`).
fn counters_text(c: &FlowCounters) -> String {
    let mut drops: Vec<String> = c.drops.iter().map(|(r, n)| format!("{r:?}={n}")).collect();
    drops.sort();
    format!(
        "tx {} pkts {} B, rx {} pkts {} B, drops {drops:?}, delay {:?}, hist {:?}",
        c.tx_packets, c.tx_bytes, c.rx_packets, c.rx_bytes, c.delay, c.delay_hist
    )
}

/// Run the smoothing session `cfg` on an explicit event-queue backend;
/// returns the media flow's counters and the ABR client's report, as text.
fn abr_session(cfg: &SmoothingConfig, backend: QueueBackend) -> (String, String) {
    let compiled = compile(
        &smoothing_spec(cfg),
        CompileOptions {
            store: Some(&ArtifactStore),
            wrap: None,
        },
    )
    .expect("smoothing spec compiles");
    let client = compiled.abr_clients[0].1.clone();
    let horizon = compiled.horizon.expect("smoothing spec sets a horizon");
    let mut queue = EventQueue::with_backend(backend);
    compiled.net.schedule_starts(&mut queue);
    let mut sim = Simulation {
        net: compiled.net,
        queue,
    };
    sim.run_until(SimTime::ZERO + horizon);
    let report = format!("{:?}", client.borrow().report());
    (counters_text(&sim.net.stats.flow(MEDIA_FLOW)), report)
}

#[test]
fn abr_session_is_deterministic_across_queue_backends() {
    // The full QBone ABR session — ladder, mini-TCP, policer, WAN path —
    // must leave byte-identical media-flow counters and ABR report (all
    // a FlowsOutcome is made of) on both event-queue backends, or the
    // committed goldens would depend on which backend regenerated them.
    let cfg = SmoothingConfig::new(
        ClipId2::Lost,
        1_500_000,
        SmoothingServer::Abr,
        EfProfile::new(1_200_000, DEPTH_10MTU),
    );
    let (wheel_media, wheel_report) = abr_session(&cfg, QueueBackend::Wheel);
    let (heap_media, heap_report) = abr_session(&cfg, QueueBackend::Heap);
    assert!(
        wheel_report.contains("done: true"),
        "vacuous case: the session did not finish: {wheel_report}"
    );
    assert_eq!(
        wheel_media, heap_media,
        "media flow counters differ between backends"
    );
    assert_eq!(
        wheel_report, heap_report,
        "ABR report differs between backends"
    );
}
