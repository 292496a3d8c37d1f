//! Absorbing hosts against dispatch, where no committed figure reaches.
//!
//! A host whose application absorbs a packet takes it from its inbox
//! without an event (DESIGN.md §6b, "Absorbed packets"). Each case here
//! runs twice, audited: with the applications as built, and with each
//! behind a delegate that keeps the default answer to
//! `Application::absorbs`, so every packet to a host is dispatched. The
//! two must agree on every application's state, every flow's counters and
//! every traced flow's trace, and both audits must be clean. The cases:
//!
//! * a UDP client with feedback, whose report timer reads the window the
//!   packets it absorbed filled, feeding an adaptive server's tier choice;
//! * a sink fed by two flows whose arrivals interleave;
//! * a run stopped at a horizon while absorbed packets are in flight, then
//!   resumed with `run_for`;
//! * a traced flow, which keeps its `Arrive`s beside an absorbed one at
//!   the same host.

#[path = "support/dispatched.rs"]
mod dispatched;

use dsv_core::artifacts::ArtifactStore;
use dsv_core::local::{local_spec, LocalConfig, LocalTransport};
use dsv_core::prelude::*;
use dsv_core::qbone::qbone_spec;
use dsv_net::app::{Handle, Shared};
use dsv_net::audit::SimAudit;
use dsv_net::link::Link;
use dsv_net::network::{NetworkBuilder, Simulation};
use dsv_net::packet::{FlowId, NodeId};
use dsv_net::stats::NetStats;
use dsv_scenario::apps::{IdSink, Pump};
use dsv_scenario::{compile, CompileOptions, CompiledScenario, ScenarioSpec};
use dsv_sim::engine::RunStats;
use dsv_sim::{SimDuration, SimTime};
use dsv_stream::payload::StreamPayload;

use dispatched::dispatch_every_packet;

/// Every flow's counters and trace, one line each.
fn flows(stats: &NetStats) -> Vec<String> {
    let mut flows: Vec<_> = stats.flows().collect();
    flows.sort_by_key(|(flow, _)| flow.0);
    flows
        .into_iter()
        .map(|(flow, c)| {
            let mut drops: Vec<_> = c
                .drops
                .iter()
                .map(|(reason, n)| (format!("{reason:?}"), *n))
                .collect();
            drops.sort();
            format!(
                "flow {}: tx {} {} rx {} {} drops {drops:?} delay {:?} hist {:?} trace {:?}",
                flow.0,
                c.tx_packets,
                c.tx_bytes,
                c.rx_packets,
                c.rx_bytes,
                c.delay,
                c.delay_hist,
                stats.trace_of(*flow)
            )
        })
        .collect()
}

/// A compiled scenario in its audited simulation, and the handles that
/// read its applications back.
struct Run {
    sim: Simulation<StreamPayload, SimAudit>,
    apps: CompiledScenario,
}

impl Run {
    /// `spec` with its applications as built (`absorb`), or each behind
    /// [`dispatched::Dispatched`].
    fn new(spec: &ScenarioSpec, absorb: bool) -> Run {
        let mut apps = compile(
            spec,
            CompileOptions {
                store: Some(&ArtifactStore),
                wrap: None,
            },
        )
        .expect("spec compiles");
        let mut net = std::mem::replace(&mut apps.net, NetworkBuilder::new().build());
        if !absorb {
            let hosts: Vec<NodeId> = spec
                .nodes
                .iter()
                .filter(|n| n.app.is_some())
                .map(|n| apps.node(&n.name))
                .collect();
            dispatch_every_packet(&mut net, &hosts);
        }
        Run {
            sim: Simulation::new(net.audited()),
            apps,
        }
    }

    /// Everything the run reports, one line per item.
    fn observed(&self) -> Vec<String> {
        let mut out = flows(&self.sim.net.stats);
        for (name, h) in &self.apps.clients {
            out.push(format!("client {name}: {:?}", h.borrow().report()));
        }
        for (name, h) in &self.apps.adaptives {
            out.push(format!(
                "adaptive {name}: {}",
                h.borrow().current_tier_bps()
            ));
        }
        out
    }
}

/// Run `spec` to its horizon both ways and require the same report and
/// clean audits. Returns the absorbing run and the events each way
/// dispatched.
fn assert_absorbs_like_dispatch(label: &str, spec: &ScenarioSpec) -> (Run, u64, u64) {
    let end = SimTime::from_nanos(spec.horizon_ns.expect("spec sets a horizon"));
    let mut absorbing = Run::new(spec, true);
    let mut dispatching = Run::new(spec, false);
    let a = absorbing.sim.run_until(end);
    let d = dispatching.sim.run_until(end);
    assert_eq!(absorbing.observed(), dispatching.observed(), "{label}");
    assert_eq!(
        a.end_time, d.end_time,
        "{label}: the run ends at its last delivery"
    );
    absorbing.sim.net.audit_report().assert_clean(label);
    dispatching.sim.net.audit_report().assert_clean(label);
    (absorbing, a.dispatched, d.dispatched)
}

#[test]
fn a_feedback_client_reports_what_it_absorbed() {
    // The local testbed's UDP client reports every second, from a timer,
    // the loss, delay and goodput of the media it absorbed since the last
    // report; the multi-rate adaptive server boosts and picks its tier on
    // those reports, through a policer tight enough to drop.
    let mut cfg = LocalConfig::new(
        ClipId2::Lost,
        EfProfile::new(700_000, DEPTH_2MTU),
        LocalTransport::Udp,
    );
    cfg.multi_rate = true;
    cfg.cross_traffic = true;
    let (run, absorbed, dispatched) = assert_absorbs_like_dispatch("local udp", &local_spec(&cfg));
    let stats = &run.sim.net.stats;
    let media = stats.flow(dsv_core::local::MEDIA_FLOW);
    assert!(media.total_drops() > 0, "the policer drops media");
    assert!(
        stats.flow(dsv_core::local::UP_FLOW).tx_packets > 50,
        "the client sends a report every second"
    );
    assert!(
        absorbed + media.rx_packets <= dispatched,
        "every media packet the client received was absorbed: {absorbed} + {} > {dispatched}",
        media.rx_packets
    );
}

/// `tx1` and `tx2` → `r` → `rx` over 10 Mb/s links: two constant-rate
/// flows of 1000-byte packets, 1.1 ms and 1.7 ms apart, sent over links
/// of 3 ms and 0.5 ms propagation, whose packets interleave at `rx`, an
/// [`IdSink`]. Flow `traced` is traced. Runs audited to the end.
fn two_flow_sink(
    absorb: bool,
    traced: Option<FlowId>,
) -> (Simulation<(), SimAudit>, Handle<IdSink>, RunStats) {
    let mut b = NetworkBuilder::new();
    let (sink, app) = Shared::new(IdSink::default());
    let rx = b.add_host("rx", Box::new(app));
    let r = b.add_router("r");
    let pump = |flow, count, gap_us| Pump {
        dst: rx,
        flow: FlowId(flow),
        count,
        size: 1000,
        gap: SimDuration::from_micros(gap_us),
        sent: 0,
    };
    let tx1 = b.add_host("tx1", Box::new(pump(1, 300, 1_100)));
    let tx2 = b.add_host("tx2", Box::new(pump(2, 200, 1_700)));
    let ethernet = |prop_us| Link::new(10_000_000, SimDuration::from_micros(prop_us));
    b.connect(tx1, r, ethernet(3_000));
    b.connect(tx2, r, ethernet(500));
    b.connect(r, rx, ethernet(100));
    for (host, dst) in [(tx1, Some(rx)), (tx2, Some(rx)), (rx, None)] {
        b.declare_traffic(host, dst);
    }
    let mut net = b.build();
    if !absorb {
        dispatch_every_packet(&mut net, &[rx]);
    }
    if let Some(flow) = traced {
        net.stats.trace_flow(flow);
    }
    let mut sim = Simulation::new(net.audited());
    let run = sim.run();
    sim.net.audit_report().assert_clean("two-flow sink");
    (sim, sink, run)
}

#[test]
fn a_sink_fed_by_two_interleaving_flows() {
    let (absorbing, a_ids, a) = two_flow_sink(true, None);
    let (dispatching, d_ids, d) = two_flow_sink(false, None);
    assert_eq!(flows(&absorbing.net.stats), flows(&dispatching.net.stats));
    let ids = a_ids.borrow().ids.clone();
    assert_eq!(ids, d_ids.borrow().ids);
    assert_eq!(ids.len(), 500);
    // The flows' ids restart at zero, so interleaving shows as a step back.
    assert!(ids.windows(2).filter(|w| w[1] < w[0]).count() > 100);
    assert_eq!(a.end_time, d.end_time);
    assert_eq!(
        a.dispatched + 500,
        d.dispatched,
        "every packet to the sink is absorbed"
    );
}

#[test]
fn a_traced_flow_keeps_its_arrivals_beside_an_absorbed_one() {
    let (absorbing, a_ids, a) = two_flow_sink(true, Some(FlowId(1)));
    let (dispatching, d_ids, d) = two_flow_sink(false, Some(FlowId(1)));
    assert_eq!(flows(&absorbing.net.stats), flows(&dispatching.net.stats));
    let trace = absorbing
        .net
        .stats
        .trace_of(FlowId(1))
        .expect("flow 1 is traced");
    assert_eq!(trace.len(), 600, "each packet's send and delivery");
    assert_eq!(a_ids.borrow().ids, d_ids.borrow().ids);
    assert_eq!(
        a.dispatched + 200,
        d.dispatched,
        "only the untraced flow's 200 packets are absorbed"
    );
}

#[test]
fn a_run_stopped_with_absorbed_packets_in_flight_resumes_exactly() {
    let spec = qbone_spec(&QboneConfig::new(
        ClipId2::Lost,
        1_700_000,
        EfProfile::new(1_500_000, DEPTH_2MTU),
    ));
    let stop = SimTime::from_nanos(20_000_123_457);
    let end = SimTime::from_nanos(spec.horizon_ns.expect("spec sets a horizon"));
    let mut absorbing = Run::new(&spec, true);
    let mut dispatching = Run::new(&spec, false);
    for run in [&mut absorbing, &mut dispatching] {
        assert!(run.sim.run_until(stop).hit_horizon);
    }
    assert_eq!(absorbing.observed(), dispatching.observed(), "at the stop");
    let media = absorbing.sim.net.stats.flow(dsv_core::qbone::MEDIA_FLOW);
    assert!(
        media.tx_packets > media.rx_packets + media.total_drops(),
        "media packets are in flight to the client at the stop"
    );
    // Both queues hold the same delivery key: a run that absorbs counts
    // its last delivery as dispatch would have, so both resume for the
    // same span.
    assert_eq!(absorbing.sim.queue.now(), dispatching.sim.queue.now());
    let span = end.saturating_since(absorbing.sim.queue.now());
    for run in [&mut absorbing, &mut dispatching] {
        run.sim.run_for(span);
    }
    assert_eq!(
        absorbing.observed(),
        dispatching.observed(),
        "after resuming"
    );
    absorbing
        .sim
        .net
        .audit_report()
        .assert_clean("stopped and resumed");
    dispatching
        .sim
        .net
        .audit_report()
        .assert_clean("stopped and resumed");
}
