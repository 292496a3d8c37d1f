//! Self-test for the audit's `chain-tie:` oracle.
//!
//! A packet walked through a relay hop has its `Arrive` stamped as filed
//! when its last hop began to serialize. Against an event due at the same
//! node and instant and filed at that very instant, per-hop dispatch
//! could have sorted it either way, so the audit must report it; one
//! nanosecond apart, the order is exact and the audit stays silent.
//!
//! The whole file compiles only with `--features audit`.

#![cfg(feature = "audit")]

use dsv_net::app::{AppCtx, Application, SendSpec};
use dsv_net::audit::AuditReport;
use dsv_net::link::Link;
use dsv_net::network::{NetworkBuilder, Simulation};
use dsv_net::packet::{Dscp, FlowId, NodeId, Packet, Proto};
use dsv_sim::SimDuration;

/// Sends two 1000-byte packets to `dst` the moment it starts.
struct Pair {
    dst: NodeId,
}

impl Application<()> for Pair {
    fn on_start(&mut self, ctx: &mut AppCtx<()>) {
        for _ in 0..2 {
            ctx.send(SendSpec {
                dst: self.dst,
                flow: FlowId(1),
                size: 1000,
                dscp: Dscp::BEST_EFFORT,
                proto: Proto::Udp,
                fragment: None,
                payload: (),
            });
        }
    }
    fn on_packet(&mut self, _ctx: &mut AppCtx<()>, _pkt: Packet<()>) {}
    fn on_timer(&mut self, _ctx: &mut AppCtx<()>, _token: u64) {}
}

/// Sets one timer, `delay` after its first packet arrives.
struct Waker {
    delay: SimDuration,
    armed: bool,
}

impl Application<()> for Waker {
    fn on_start(&mut self, _ctx: &mut AppCtx<()>) {}
    fn on_packet(&mut self, ctx: &mut AppCtx<()>, _pkt: Packet<()>) {
        if !self.armed {
            self.armed = true;
            ctx.set_timer(self.delay, 0);
        }
    }
    fn on_timer(&mut self, _ctx: &mut AppCtx<()>, _token: u64) {}
}

/// `tx` → `r` → `rx` over 8 Mbps links with no propagation delay, so a
/// 1000-byte packet takes 1 ms per hop. The second packet is walked
/// through `r` from 2 ms to 3 ms; the first reaches `rx` at 2 ms, and
/// `rx` then sets a timer `delay` later.
fn audited(delay: SimDuration) -> AuditReport {
    let mut b = NetworkBuilder::new();
    let rx = b.add_host(
        "rx",
        Box::new(Waker {
            delay,
            armed: false,
        }),
    );
    let r = b.add_router("r");
    let tx = b.add_host("tx", Box::new(Pair { dst: rx }));
    let link = Link::new(8_000_000, SimDuration::ZERO);
    b.connect(tx, r, link);
    b.connect(r, rx, link);
    let mut net = b.build();
    net.audit_mut().enable();
    let mut sim = Simulation::new(net);
    sim.run();
    assert_eq!(sim.net.stats.flow(FlowId(1)).rx_packets, 2);
    sim.net.audit_finish();
    sim.net.audit().report()
}

#[test]
fn a_timer_filed_as_the_last_hop_begins_is_a_chain_tie() {
    // The timer falls due at 3 ms, the second packet's arrival, and was
    // filed at 2 ms, the instant its walked hop began.
    let report = audited(SimDuration::from_millis(1));
    assert!(
        report.has_violation_matching("chain-tie:"),
        "{:?}",
        report.violations
    );
    assert_eq!(report.total_violations, 1, "{:?}", report.violations);
}

#[test]
fn a_timer_one_nanosecond_apart_is_not() {
    for delay in [
        SimDuration::from_nanos(999_999),
        SimDuration::from_nanos(1_000_001),
    ] {
        audited(delay).assert_clean("timer next to a walked arrival");
    }
}
