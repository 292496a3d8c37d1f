//! Self-test for the audit's `tick-tie:` oracle.
//!
//! A paced server wakes only at the ticks that send, and a wake-up that
//! skipped idle ticks is stamped as filed one tick before it fires, where
//! the skipped tick would have filed it. Against another event due at the
//! same instant and filed at that same instant, the per-tick loop's
//! sequence numbers would have decided the order, so the audit must
//! report it. Two servers started together wake up together; one
//! nanosecond apart, the run is clean and byte-identical to the per-tick
//! loop.

#[path = "../../../tests/support/per_tick_server.rs"]
mod per_tick_server;

use dsv_media::encoder::{mpeg1, EncodedClip};
use dsv_media::scene::ClipId;
use dsv_net::app::Application;
use dsv_net::audit::AuditReport;
use dsv_net::link::Link;
use dsv_net::network::{NetworkBuilder, Simulation};
use dsv_net::packet::{Dscp, FlowId};
use dsv_net::traffic::CountingSink;
use dsv_sim::SimTime;
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
/// second starting `offset` after the first. Returns the audit report and
/// both flows' counters and packet traces.
fn audited(server: Server, offset: SimTime) -> (AuditReport, Vec<String>) {
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
    let (report, _) = audited(paced, SimTime::ZERO);
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
    let (report, _) = audited(per_tick, SimTime::ZERO);
    report.assert_clean("per-tick servers started together");
}

#[test]
fn servers_one_nanosecond_apart_run_clean_and_as_the_per_tick_loop() {
    let offset = SimTime::from_nanos(1);
    let (report, woken) = audited(paced, offset);
    report.assert_clean("paced servers 1 ns apart");
    let (_, ticked) = audited(per_tick, offset);
    assert_eq!(woken, ticked);
}
