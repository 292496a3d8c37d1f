//! Long-lived bulk TCP transfer endpoints for the AF throughput-guarantee
//! scenarios (Lochin & Anelli).
//!
//! Those experiments measure what throughput a greedy TCP flow *achieves*
//! against the committed rate its srTCM/trTCM profile *promises*. The
//! endpoints here are the simplest apps that produce that measurement: a
//! sender that writes one large byte count into the mini-TCP at start and
//! lets congestion control do the rest, and a sink that ACKs and counts.
//! The sender is counter-based (no per-byte storage), so multi-megabyte
//! transfers cost O(1) memory.

use dsv_net::app::{AppCtx, Application, SendSpec};
use dsv_net::packet::{Dscp, FlowId, NodeId, Packet, Proto};

use crate::payload::{StreamPayload, TcpSegment, ACK_PACKET_BYTES};
use crate::tcp::{SenderActions, TcpReceiver, TcpSender};

/// Timer token: the sender's retransmission timer.
const TOK_RTO: u64 = 1;

/// Bulk sender configuration.
#[derive(Debug, Clone)]
pub struct BulkTcpConfig {
    /// Destination sink.
    pub client: NodeId,
    /// Flow id of the data segments.
    pub flow: FlowId,
    /// DSCP pre-marking of data segments (edge meters usually re-mark).
    pub dscp: Dscp,
    /// Application bytes to transfer.
    pub total_bytes: u64,
}

/// A greedy bulk TCP sender: writes `total_bytes` at start and transmits
/// as fast as the congestion window allows.
pub struct BulkTcpSender {
    cfg: BulkTcpConfig,
    sender: TcpSender,
    /// Diagnostic: data segments transmitted (including retransmissions).
    pub segments_sent: u64,
}

impl BulkTcpSender {
    /// Create for one transfer.
    pub fn new(cfg: BulkTcpConfig) -> BulkTcpSender {
        BulkTcpSender {
            cfg,
            sender: TcpSender::new(),
            segments_sent: 0,
        }
    }

    /// Borrow the transport state machine (diagnostics).
    pub fn sender(&self) -> &TcpSender {
        &self.sender
    }

    fn perform(&mut self, ctx: &mut AppCtx<StreamPayload>, acts: SenderActions) {
        let cfg = &self.cfg;
        self.segments_sent += acts.perform(ctx, cfg.client, cfg.flow, cfg.dscp, TOK_RTO);
    }
}

impl Application<StreamPayload> for BulkTcpSender {
    fn on_start(&mut self, ctx: &mut AppCtx<StreamPayload>) {
        self.sender.write(self.cfg.total_bytes);
        let acts = self.sender.poll_send(ctx.now());
        self.perform(ctx, acts);
    }

    fn on_packet(&mut self, ctx: &mut AppCtx<StreamPayload>, pkt: Packet<StreamPayload>) {
        if let StreamPayload::Tcp(seg) = pkt.payload {
            if seg.is_ack {
                let acts = self.sender.on_ack(ctx.now(), seg.ack);
                self.perform(ctx, acts);
            }
        }
    }

    fn on_timer(&mut self, ctx: &mut AppCtx<StreamPayload>, token: u64) {
        if token == TOK_RTO {
            let acts = self.sender.on_rto_timer(ctx.now());
            self.perform(ctx, acts);
        }
    }
}

/// The receiving end of a bulk transfer: ACKs everything and exposes the
/// contiguously delivered byte count.
pub struct BulkTcpSink {
    /// The sending host (ACK destination).
    pub server: NodeId,
    /// Flow id of the ACK traffic.
    pub up_flow: FlowId,
    tcp: TcpReceiver,
    /// Diagnostic: data packets received.
    pub packets_received: u64,
}

impl BulkTcpSink {
    /// Create for one transfer.
    pub fn new(server: NodeId, up_flow: FlowId) -> BulkTcpSink {
        BulkTcpSink {
            server,
            up_flow,
            tcp: TcpReceiver::new(),
            packets_received: 0,
        }
    }

    /// Contiguously delivered application bytes.
    pub fn delivered(&self) -> u64 {
        self.tcp.delivered()
    }
}

impl Application<StreamPayload> for BulkTcpSink {
    fn on_start(&mut self, _ctx: &mut AppCtx<StreamPayload>) {}

    fn on_packet(&mut self, ctx: &mut AppCtx<StreamPayload>, pkt: Packet<StreamPayload>) {
        if let StreamPayload::Tcp(seg) = pkt.payload {
            if seg.is_ack {
                return;
            }
            self.packets_received += 1;
            let ack = self.tcp.on_segment(seg.seq, seg.len);
            ctx.send(SendSpec {
                dst: self.server,
                flow: self.up_flow,
                size: ACK_PACKET_BYTES,
                dscp: Dscp::BEST_EFFORT,
                proto: Proto::Tcp,
                fragment: None,
                payload: StreamPayload::Tcp(TcpSegment {
                    seq: 0,
                    len: 0,
                    ack,
                    is_ack: true,
                }),
            });
        }
    }

    fn on_timer(&mut self, _ctx: &mut AppCtx<StreamPayload>, _token: u64) {}
}

#[cfg(test)]
mod tests {
    use super::*;
    use dsv_net::link::Link;
    use dsv_net::network::{NetworkBuilder, Simulation};

    #[test]
    fn bulk_transfer_completes_over_clean_link() {
        let total = 2_000_000u64;
        let mut b = NetworkBuilder::new();
        let r = b.add_router("r");
        let server_guess = NodeId(2);
        let sink = b.add_host("sink", Box::new(BulkTcpSink::new(server_guess, FlowId(2))));
        let sender = b.add_host(
            "sender",
            Box::new(BulkTcpSender::new(BulkTcpConfig {
                client: sink,
                flow: FlowId(1),
                dscp: Dscp::BEST_EFFORT,
                total_bytes: total,
            })),
        );
        assert_eq!(sender, server_guess, "node id layout assumption");
        b.connect(sink, r, Link::fast_ethernet());
        b.connect(sender, r, Link::fast_ethernet());
        let mut sim = Simulation::new(b.build());
        sim.run();
        let media = sim.net.stats.flow(FlowId(1));
        assert_eq!(media.total_drops(), 0);
        assert!(
            media.rx_bytes - media.rx_packets * crate::payload::HEADER_BYTES as u64 >= total,
            "all bytes delivered"
        );
    }

    /// A bulk sender that tallies its RTO arms — callbacks after which the
    /// transport tracks a new retransmission deadline — and the timer
    /// callbacks it receives.
    struct TimerTally {
        inner: BulkTcpSender,
        arms: u64,
        timers: u64,
    }

    impl TimerTally {
        fn observe(&mut self, callback: impl FnOnce(&mut BulkTcpSender)) {
            let before = self.inner.sender().rto_deadline();
            callback(&mut self.inner);
            let after = self.inner.sender().rto_deadline();
            if after.is_some() && after != before {
                self.arms += 1;
            }
        }
    }

    impl Application<StreamPayload> for TimerTally {
        fn on_start(&mut self, ctx: &mut AppCtx<StreamPayload>) {
            self.observe(|s| s.on_start(ctx));
        }
        fn on_packet(&mut self, ctx: &mut AppCtx<StreamPayload>, pkt: Packet<StreamPayload>) {
            self.observe(|s| s.on_packet(ctx, pkt));
        }
        fn on_timer(&mut self, ctx: &mut AppCtx<StreamPayload>, token: u64) {
            self.timers += 1;
            self.observe(|s| s.on_timer(ctx, token));
        }
    }

    #[test]
    fn lossy_transfer_dispatches_no_more_timers_than_rto_arms() {
        use dsv_net::app::Shared;
        use dsv_net::qdisc::{DropTailQueue, QueueLimits};
        use dsv_sim::{SimDuration, SimTime};

        // A greedy transfer into a 1 Mbps bottleneck with a four-packet
        // queue: overflow losses, fast retransmits and timeouts.
        let mut b = NetworkBuilder::new();
        let r = b.add_router("r");
        let sink = b.add_host("sink", Box::new(BulkTcpSink::new(NodeId(2), FlowId(2))));
        let (tally, app) = Shared::new(TimerTally {
            inner: BulkTcpSender::new(BulkTcpConfig {
                client: sink,
                flow: FlowId(1),
                dscp: Dscp::BEST_EFFORT,
                total_bytes: 1_000_000,
            }),
            arms: 0,
            timers: 0,
        });
        let sender = b.add_host("sender", Box::new(app));
        assert_eq!(sender, NodeId(2), "node id layout assumption");
        let bottleneck = Link::new(1_000_000, SimDuration::from_millis(20));
        b.connect_with(
            r,
            sink,
            bottleneck,
            bottleneck,
            Box::new(DropTailQueue::new(QueueLimits::packets(4))),
            Box::new(DropTailQueue::new(QueueLimits::UNBOUNDED)),
        );
        b.connect(sender, r, Link::fast_ethernet());
        let mut sim = Simulation::new(b.build());
        sim.run_until(SimTime::from_secs(30));

        let t = tally.borrow();
        let tcp = t.inner.sender();
        assert!(sim.net.stats.flow(FlowId(1)).total_drops() > 0, "lossy");
        assert!(
            tcp.timeouts > 0 && tcp.fast_retransmits > 0,
            "both loss paths"
        );
        // Each arm schedules exactly one timer and nothing else does: a
        // stale timer must not re-arm itself into a chain.
        assert!(
            t.timers <= t.arms,
            "{} timer dispatches for {} RTO arms",
            t.timers,
            t.arms
        );
    }
}
