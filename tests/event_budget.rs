//! The simulate layer's event budget, pinned exactly, by event kind.
//!
//! A point's simulate time is events dispatched × cost per event, and the
//! pending-event population sizes the queue (DESIGN.md §6b). Both counts
//! are deterministic and identical on the wheel and heap backends, so
//! they are pinned exactly, split by [`NetEvent`] kind, on a paper QBone
//! point, an 8-flow aggregate point, a bursty-server smoothing point and
//! an AF-TCP point: an engine change that dispatches more events per
//! packet, or lets timers pile up in the queue, fails here before it
//! shows up as a slower benchmark. A deliberate change to any count
//! updates its pin and says why.
//!
//! The counts are taken by a [`World`] wrapper around the network, so the
//! engine itself carries no counters.

use dsv_core::af_tcp::{af_tcp_spec, AfTcpConfig};
use dsv_core::aggregate::{aggregate_spec, AggregateConfig};
use dsv_core::artifacts::ArtifactStore;
use dsv_core::prelude::*;
use dsv_core::qbone::qbone_spec;
use dsv_core::smoothing::{smoothing_spec, SmoothingConfig, SmoothingServer, DEPTH_10MTU};
use dsv_net::network::{NetEvent, Network, Simulation};
use dsv_scenario::{compile, CompileOptions, ScenarioSpec};
use dsv_sim::{EventQueue, Settled, SimTime, World};
use dsv_stream::payload::StreamPayload;

/// Events dispatched by kind, their total, and the queue's high-water
/// mark over one run.
#[derive(Debug, Default, PartialEq, Eq)]
struct Budget {
    start: u64,
    timer: u64,
    arrive: u64,
    port_ready: u64,
    cond_poll: u64,
    drop: u64,
    total: u64,
    high_water: usize,
}

/// Counts each event by kind, then hands it to the network.
struct Tally<'n> {
    net: &'n mut Network<StreamPayload>,
    budget: Budget,
}

impl World for Tally<'_> {
    type Event = NetEvent;

    fn handle(&mut self, now: SimTime, event: NetEvent, queue: &mut EventQueue<NetEvent>) {
        let b = &mut self.budget;
        match event {
            NetEvent::Start(_) => b.start += 1,
            NetEvent::Timer { .. } => b.timer += 1,
            NetEvent::Arrive { .. } => b.arrive += 1,
            NetEvent::PortReady { .. } => b.port_ready += 1,
            NetEvent::CondPoll(_) => b.cond_poll += 1,
            NetEvent::Drop { .. } => b.drop += 1,
        }
        self.net.handle(now, event, queue);
    }

    fn settle(&mut self, horizon: SimTime, queue: &mut EventQueue<NetEvent>) -> Settled {
        self.net.settle(horizon, queue)
    }
}

/// Compile `spec`, run it to its horizon, and return its budget.
fn budget(spec: &ScenarioSpec) -> Budget {
    let compiled = compile(
        spec,
        CompileOptions {
            store: Some(&ArtifactStore),
            wrap: None,
        },
    )
    .expect("spec compiles");
    let horizon = SimTime::ZERO + compiled.horizon.expect("spec sets a horizon");
    let mut sim = Simulation::new(compiled.net);
    let mut tally = Tally {
        net: &mut sim.net,
        budget: Budget::default(),
    };
    let stats = dsv_sim::run_until(&mut tally, &mut sim.queue, horizon);
    let mut budget = tally.budget;
    budget.total = stats.dispatched;
    budget.high_water = sim.queue.high_water();
    let kinds = budget.start
        + budget.timer
        + budget.arrive
        + budget.port_ready
        + budget.cond_poll
        + budget.drop;
    assert_eq!(kinds, budget.total, "every dispatch has a kind");
    budget
}

/// Figure 7's Lost clip at 1.7 Mbps through a 1.7 Mbps, 2-MTU EF policer.
///
/// The CAR policer at `remote-edge` decides the server-to-client pair
/// alone, so each media packet is walked through it: its `Arrive` there
/// (21,763 → 10,621 arrivals) and the port's wake-ups behind it (869 → 452)
/// are gone, and each of the 531 packets the policer refuses costs one
/// drop event instead.
///
/// The server sends every packet due within its 30.01 ms inbound
/// lookahead at one wake-up: timers 10,688 → 1,999 (one per 7-tick
/// window), and every packet takes the Lindley step at the server's own
/// port, so the 452 wake-ups of that port are gone too. Arrivals and drops
/// do not move. Up to a window of packets sent ahead each hold a pending
/// `Arrive` or `Drop` (high-water 9 → 14).
///
/// The client absorbs its media chunks (`StreamClient::absorbs`: they
/// only feed reassembly), so each waits in its inbox under the key its
/// `Arrive` would have had and is handed over without a dispatch:
/// arrivals 10,621 → 12 (the client's `DescribeReply` and 11 arrivals at
/// the server and routers), 0.23 events per packet. A window sent ahead
/// holds its packets in the inbox, not the queue (high-water 14 → 3).
#[test]
fn qbone_point_event_budget() {
    let cfg = QboneConfig::new(
        ClipId2::Lost,
        1_700_000,
        EfProfile::new(1_700_000, DEPTH_2MTU),
    );
    assert_eq!(
        budget(&qbone_spec(&cfg)),
        Budget {
            start: 2,
            timer: 1_999,
            arrive: 12,
            port_ready: 0,
            cond_poll: 0,
            drop: 531,
            total: 2_544,
            high_water: 3,
        }
    );
}

/// Figure 16's 8-flow aggregate: eight 1 Mbps Lost streams through one
/// 8.8 Mbps, 2-MTU aggregate EF policer.
///
/// Each server sends its 30.01 ms window at one wake-up: timers
/// 53,376 → 15,128, and the 952 wake-ups of the servers' own ports are
/// gone (port wake-ups 9,104 → 8,152; the rest queue at `remote-edge`).
/// Every packet sent ahead holds its `Arrive` at `remote-edge` pending
/// until then (high-water 31 → 56).
///
/// The eight clients absorb their media chunks without a dispatch:
/// arrivals 69,229 → 54,440. Every media packet still stops at
/// `remote-edge`, whose policer shares one bucket across the pairs, and
/// no longer holds a pending `Arrive` at its client behind it
/// (high-water 56 → 48).
#[test]
fn aggregate_point_event_budget() {
    let cfg = AggregateConfig::new(
        ClipId2::Lost,
        1_000_000,
        8,
        EfProfile::new(8_800_000, DEPTH_2MTU),
    );
    assert_eq!(
        budget(&aggregate_spec(&cfg)),
        Budget {
            start: 16,
            timer: 15_128,
            arrive: 54_440,
            port_ready: 8_152,
            cond_poll: 0,
            drop: 0,
            total: 77_736,
            high_water: 48,
        }
    );
}

/// Figure 17's bursty server: the 1.5 Mbps Lost encoding in large
/// datagrams through a 1.65 Mbps, 10-MTU EF policer.
///
/// The policer decides the media pair alone and no rule matches the
/// client's packets, so both directions walk through `remote-edge`:
/// arrivals 19,819 → 9,560, and the bursts queue there without wake-ups
/// (15,505 → 8,107). The 709 refused packets cost a drop event each, and
/// a burst walked into the policer's queue holds one more pending event
/// at its peak (high-water 14 → 15).
///
/// The client absorbs the media chunks: arrivals 9,560 → 12, and a burst
/// in flight holds no pending `Arrive` (high-water 15 → 4).
#[test]
fn bursty_smoothing_point_event_budget() {
    let cfg = SmoothingConfig::new(
        ClipId2::Lost,
        1_500_000,
        SmoothingServer::Bursty,
        EfProfile::new(1_650_000, DEPTH_10MTU),
    );
    assert_eq!(
        budget(&smoothing_spec(&cfg)),
        Budget {
            start: 2,
            timer: 2_150,
            arrive: 12,
            port_ready: 8_107,
            cond_poll: 0,
            drop: 709,
            total: 10_980,
            high_water: 4,
        }
    );
}

/// Figure 18's "hetero-near" run: four bulk TCP pairs with unequal
/// commitments over the 6 Mbps WRED bottleneck, 60 simulated seconds.
///
/// The sinks' ACKs match none of `edge`'s meter rules, so they walk
/// through `edge` toward their senders: 36,400 fewer arrivals
/// (186,946 → 150,546). The meters re-mark the data segments, which keep
/// their `Arrive` there. The sinks acknowledge every segment, so they
/// absorb nothing.
#[test]
fn af_tcp_point_event_budget() {
    let cfg = AfTcpConfig::new(vec![500_000, 1_000_000, 1_500_000, 2_700_000], vec![0; 4]);
    assert_eq!(
        budget(&af_tcp_spec(&cfg)),
        Budget {
            start: 8,
            timer: 13_649,
            arrive: 150_546,
            port_ready: 50_067,
            cond_poll: 0,
            drop: 0,
            total: 214_270,
            high_water: 280,
        }
    );
}
