//! Self-test for the audit's `tick-tie:` oracle.
//!
//! A paced server wakes only at the ticks that send, and a wake-up that
//! skipped idle ticks is stamped as filed one tick before it fires, where
//! the skipped tick would have filed it. A packet it sends ahead of the
//! wake-up, within its inbound lookahead, files its events stamped where
//! a send at its own tick would have filed them. Against another event
//! due at the same instant and filed at that same instant, the per-tick
//! loop's sequence numbers would have decided the order, so the audit
//! must report it. Two servers started together wake up together, and
//! their packets sent ahead fall due together; one nanosecond apart, the
//! run is clean and byte-identical to the per-tick loop. A packet sent
//! ahead also stands for a tick that is never dispatched, and a delivery
//! due and filed with that tick is reported too.

#[path = "../../../tests/support/per_tick_server.rs"]
mod per_tick_server;

use dsv_media::encoder::{mpeg1, EncodedClip};
use dsv_media::scene::ClipId;
use dsv_net::app::Application;
use dsv_net::audit::AuditReport;
use dsv_net::link::Link;
use dsv_net::network::{NetworkBuilder, Simulation};
use dsv_net::packet::{Dscp, FlowId};
use dsv_net::stats::TraceEntry;
use dsv_net::traffic::CountingSink;
use dsv_sim::{SimDuration, SimTime};
use dsv_stream::payload::StreamPayload;
use dsv_stream::server::paced::{PacedConfig, PacedServer};

use per_tick_server::PerTickPacedServer;

type Server = fn(PacedConfig, &EncodedClip) -> Box<dyn Application<StreamPayload> + Send>;

fn paced(cfg: PacedConfig, clip: &EncodedClip) -> Box<dyn Application<StreamPayload> + Send> {
    Box::new(PacedServer::unshared(cfg, clip))
}

fn per_tick(cfg: PacedConfig, clip: &EncodedClip) -> Box<dyn Application<StreamPayload> + Send> {
    Box::new(PerTickPacedServer::new(cfg, clip))
}

/// Five seconds of the 1 Mbps Lost encoding, whose pacer idles through
/// about half its ticks.
fn clip() -> EncodedClip {
    let mut clip = mpeg1::encode(&ClipId::Lost.model(), 1_000_000);
    clip.frames.truncate(150);
    clip
}

/// Two paced servers stream through one router, each to its own sink, the
/// second starting `offset` after the first. Undeclared, every host may
/// send to every other, so a server's inbound lookahead is a few
/// microseconds and it sends ahead only within a tick; `declared`, each
/// server sends only to its sink and nothing to the servers, so each
/// sends its whole clip ahead when it starts. Returns the audit report and
/// both flows' counters and packet traces.
fn audited(server: Server, offset: SimTime, declared: bool) -> (AuditReport, Vec<String>) {
    let clip = clip();
    let mut b = NetworkBuilder::new();
    let r = b.add_router("r");
    let mut flows = Vec::new();
    for (i, start) in [SimTime::ZERO, offset].into_iter().enumerate() {
        let flow = FlowId(i as u32 + 1);
        let sink = b.add_host(&format!("client-{i}"), Box::new(CountingSink::default()));
        let mut cfg = PacedConfig::new(sink, flow, Dscp::EF_QBONE);
        cfg.wait_for_play = false;
        let host = b.add_host_starting(&format!("server-{i}"), server(cfg, &clip), start);
        b.connect(host, r, Link::fast_ethernet());
        b.connect(r, sink, Link::ethernet_10mbps());
        if declared {
            b.declare_traffic(host, Some(sink));
            b.declare_traffic(sink, None);
        }
        flows.push(flow);
    }
    let mut net = b.build().audited();
    for &flow in &flows {
        net.stats.trace_flow(flow);
    }
    let mut sim = Simulation::new(net);
    sim.run();
    let report = sim.net.audit_report();
    let stats = &sim.net.stats;
    let observed = flows
        .iter()
        .map(|&flow| {
            let c = stats.flow(flow);
            assert!(c.rx_packets > 100, "flow {}: {c:?}", flow.0);
            format!("{c:?} {:?}", stats.trace_of(flow))
        })
        .collect();
    (report, observed)
}

#[test]
fn servers_waking_up_together_are_a_tick_tie() {
    let (report, _) = audited(paced, SimTime::ZERO, false);
    assert!(
        report.has_violation_matching("tick-tie:"),
        "{:?}",
        report.violations
    );
    assert!(
        report.violations.iter().all(|v| v.starts_with("tick-tie:")),
        "{:?}",
        report.violations
    );
    // Timers set at the instant they are filed are never watched: the
    // per-tick loop's coinciding ticks report nothing.
    let (report, _) = audited(per_tick, SimTime::ZERO, false);
    report.assert_clean("per-tick servers started together");
}

/// With nothing to hear, each server sends its whole clip when it starts
/// and never wakes again, so every tie is between packets sent ahead.
#[test]
fn packets_sent_ahead_together_are_a_tick_tie() {
    let (report, _) = audited(paced, SimTime::ZERO, true);
    assert!(
        report.has_violation_matching("tick-tie:"),
        "{:?}",
        report.violations
    );
    assert!(
        report.violations.iter().all(|v| v.starts_with("tick-tie:")),
        "{:?}",
        report.violations
    );
    let (report, _) = audited(per_tick, SimTime::ZERO, true);
    report.assert_clean("per-tick servers started together");
}

#[test]
fn servers_one_nanosecond_apart_run_clean_and_as_the_per_tick_loop() {
    let offset = SimTime::from_nanos(1);
    for declared in [false, true] {
        let (report, woken) = audited(paced, offset, declared);
        report.assert_clean("paced servers 1 ns apart");
        let (_, ticked) = audited(per_tick, offset, declared);
        assert_eq!(woken, ticked, "declared: {declared}");
    }
}

/// One server streams to a sink over one 12 Mb/s link of `propagation`
/// and hears nothing, so it sends the whole clip ahead when it starts.
/// Returns the audit report and the media trace.
fn one_link(server: Server, propagation: SimDuration) -> (AuditReport, Vec<TraceEntry>) {
    let clip = clip();
    let mut b = NetworkBuilder::new();
    let sink = b.add_host("client", Box::new(CountingSink::default()));
    let mut cfg = PacedConfig::new(sink, FlowId(1), Dscp::EF_QBONE);
    cfg.wait_for_play = false;
    let host = b.add_host("server", server(cfg, &clip));
    b.connect(host, sink, Link::new(12_000_000, propagation));
    b.declare_traffic(host, Some(sink));
    b.declare_traffic(sink, None);
    let mut net = b.build().audited();
    net.stats.trace_flow(FlowId(1));
    let mut sim = Simulation::new(net);
    sim.run();
    let report = sim.net.audit_report();
    let trace = sim.net.stats.trace_of(FlowId(1)).expect("traced");
    (report, trace.to_vec())
}

/// A full 1500-byte packet takes exactly one tick to reach the sink (1 ms
/// to serialize at 12 Mb/s, 4 ms to propagate), so it arrives at the next
/// tick, filed at the tick it left: where the per-tick loop filed that
/// next tick's timer, after sending it. When that next tick is sent
/// ahead, only sequence numbers would order its send and the delivery,
/// so the audit reports it; the per-tick trace indeed reads the delivery
/// first, the other order. A nanosecond more propagation runs clean and
/// as the per-tick loop.
#[test]
fn a_delivery_due_and_filed_with_a_tick_sent_ahead_is_a_tick_tie() {
    let tick_long = SimDuration::from_millis(4);
    let (report, woken) = one_link(paced, tick_long);
    assert!(
        report.has_violation_matching("tick-tie:"),
        "{:?}",
        report.violations
    );
    assert!(
        report.violations.iter().all(|v| v.starts_with("tick-tie:")),
        "{:?}",
        report.violations
    );
    let (report, ticked) = one_link(per_tick, tick_long);
    report.assert_clean("per-tick server");
    assert_ne!(woken, ticked);

    let longer = tick_long + SimDuration::from_nanos(1);
    let (report, woken) = one_link(paced, longer);
    report.assert_clean("paced server, a nanosecond past the tick");
    let (_, ticked) = one_link(per_tick, longer);
    assert_eq!(woken, ticked);
}
