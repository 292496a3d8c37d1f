//! Self-test for the audit's `chain-tie:` oracle.
//!
//! A packet walked through a relay hop has its `Arrive` stamped as filed
//! when its last hop began to serialize, and so has the drop event of a
//! packet the walk discards at a conditioner. Against an event due at the
//! same node and instant and filed at that very instant, per-hop dispatch
//! could have sorted it either way, so the audit must report it; one
//! nanosecond apart, the order is exact and the audit stays silent.

use dsv_diffserv::classifier::MatchRule;
use dsv_diffserv::policer::Policer;
use dsv_diffserv::policy::{PolicyAction, PolicyTable};
use dsv_net::app::{AppCtx, Application, NullApp, SendSpec};
use dsv_net::audit::AuditReport;
use dsv_net::link::Link;
use dsv_net::network::{NetworkBuilder, Simulation};
use dsv_net::packet::{DropReason, Dscp, FlowId, NodeId, Packet, Proto};
use dsv_net::qdisc::{DropTailQueue, QueueLimits, StrictPriorityQueue};
use dsv_sim::{SimDuration, SimTime};

/// Sends `count` 1000-byte best-effort packets of `flow` to `dst` the
/// moment it starts.
struct Pair {
    dst: NodeId,
    flow: FlowId,
    count: u32,
}

impl Application<()> for Pair {
    fn on_start(&mut self, ctx: &mut AppCtx<()>) {
        for _ in 0..self.count {
            ctx.send(SendSpec {
                dst: self.dst,
                flow: self.flow,
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
/// 1000-byte packet takes 1 ms per hop. The traffic is declared (`rx`
/// sends nothing), so `r`'s port toward `rx` has one feeder. The second
/// packet is walked through `r` from 2 ms to 3 ms; the first reaches `rx`
/// at 2 ms, and `rx` then sets a timer `delay` later.
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
    let tx = b.add_host(
        "tx",
        Box::new(Pair {
            dst: rx,
            flow: FlowId(1),
            count: 2,
        }),
    );
    let link = Link::new(8_000_000, SimDuration::ZERO);
    b.connect(tx, r, link);
    b.connect(r, rx, link);
    b.declare_traffic(tx, Some(rx));
    b.declare_traffic(rx, None);
    let mut sim = Simulation::new(b.build().audited());
    sim.run();
    assert_eq!(sim.net.stats.flow(FlowId(1)).rx_packets, 2);
    sim.net.audit_report()
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

/// `tx1` → `r1` → `r` → `rx` and `tx2` → `r` → `rx2`, over 8 Mbps links
/// (1 ms per 1000-byte packet). `r` polices `tx1`'s pair with a bucket too
/// shallow for any packet, so `tx1`'s packet is walked through `r1` from
/// 1 ms and dropped at `r` at 2 ms by a drop event stamped as filed at
/// 1 ms. `tx2`'s best-effort packet, sent at `tx2_start` over a link of
/// propagation `tx2_prop`, meets a strict-priority port at `r` and is
/// dispatched there.
fn audited_drop(tx2_start: SimTime, tx2_prop: SimDuration) -> AuditReport {
    let mut b = NetworkBuilder::new();
    let rx = b.add_host("rx", Box::new(NullApp));
    let rx2 = b.add_host("rx2", Box::new(NullApp));
    let r1 = b.add_router("r1");
    let r = b.add_router("r");
    let pair = |dst, flow| {
        Box::new(Pair {
            dst,
            flow: FlowId(flow),
            count: 1,
        })
    };
    let tx1 = b.add_host("tx1", pair(rx, 1));
    let tx2 = b.add_host_starting("tx2", pair(rx2, 2), tx2_start);
    for (host, dst) in [(tx1, Some(rx)), (tx2, Some(rx2)), (rx, None), (rx2, None)] {
        b.declare_traffic(host, dst);
    }
    let link = Link::new(8_000_000, SimDuration::ZERO);
    b.connect(tx1, r1, link);
    b.connect(r1, r, link);
    b.connect(r, rx, link);
    b.connect(tx2, r, Link::new(8_000_000, tx2_prop));
    b.connect_with(
        r,
        rx2,
        link,
        link,
        Box::new(StrictPriorityQueue::ef_default(
            QueueLimits::UNBOUNDED,
            QueueLimits::UNBOUNDED,
        )),
        Box::new(DropTailQueue::new(QueueLimits::UNBOUNDED)),
    );
    b.set_conditioner(
        r,
        Box::new(PolicyTable::new().with(
            MatchRule::src_dst(tx1, rx),
            PolicyAction::Police(Policer::car_drop(1_000_000, 999)),
        )),
    );
    let mut sim = Simulation::new(b.build().audited());
    let run = sim.run();
    let stats = &sim.net.stats;
    assert_eq!(
        stats
            .flow(FlowId(1))
            .drops_for(DropReason::PolicerNonConformant),
        1
    );
    assert_eq!(stats.flow(FlowId(2)).rx_packets, 1);
    // Four starts, the drop event, and `tx2`'s arrival at `r`; `rx2`
    // absorbs the packet without an event.
    assert_eq!(run.dispatched, 6, "tx1's packet is walked through r");
    sim.net.audit_report()
}

#[test]
fn an_arrival_filed_as_a_dropped_packets_last_hop_begins_is_a_chain_tie() {
    // `tx2`'s packet reaches `r` at 2 ms, sent at 1 ms: the drop event's
    // instant and filing instant.
    let report = audited_drop(SimTime::from_millis(1), SimDuration::ZERO);
    assert!(
        report.has_violation_matching("chain-tie:"),
        "{:?}",
        report.violations
    );
    assert_eq!(report.total_violations, 1, "{:?}", report.violations);
}

#[test]
fn an_arrival_filed_one_nanosecond_earlier_is_not() {
    let report = audited_drop(SimTime::from_nanos(999_999), SimDuration::from_nanos(1));
    report.assert_clean("arrival next to a walked drop");
}
