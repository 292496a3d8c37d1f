//! Buffer-driven ABR (adaptive bitrate) streaming over the mini-TCP.
//!
//! The paper's adaptive server reacts to *loss feedback* and spirals; a
//! modern client reacts to *buffer occupancy* and degrades gracefully. This
//! module supplies that second act: a deterministic quality ladder chosen
//! from buffer level and throughput estimate ([`AbrPolicy`]), a playout
//! buffer with stall/rebuffer accounting ([`AbrBuffer`]), and the
//! client/server applications ([`AbrClient`], [`AbrServer`]) that fetch the
//! clip segment by segment over [`crate::tcp`].
//!
//! The policy and buffer are pure state machines (no network, no clock
//! ownership) so property tests can drive them directly; the applications
//! are thin event adapters in the style of
//! [`crate::server::tcp_server::TcpStreamServer`].

use dsv_net::app::{AppCtx, Application, SendSpec};
use dsv_net::packet::{Dscp, FlowId, NodeId, Packet, Proto};
use dsv_sim::{SimDuration, SimTime};

use crate::payload::{
    ControlMsg, StreamPayload, TcpSegment, ACK_PACKET_BYTES, CONTROL_PACKET_BYTES,
};
use crate::tcp::{SenderActions, TcpReceiver, TcpSender};

/// Timer token: the client's deferred next-segment request (buffer full).
const TOK_NEXT: u64 = 1;
/// Timer token: the server's retransmission timer.
const TOK_RTO: u64 = 2;

/// Media bytes in one segment encoded at `rate_bps` lasting `segment_us`.
///
/// Integer arithmetic so both endpoints (and the golden findings) agree on
/// the byte count exactly.
pub fn segment_bytes(rate_bps: u64, segment_us: u64) -> u64 {
    (rate_bps * segment_us / 8_000_000).max(1)
}

/// The deterministic ladder policy: which rung to fetch next.
///
/// The choice is the *minimum* of two independent caps — a buffer cap (one
/// rung per `step_us` of buffered content, so a draining buffer forces the
/// ladder down long before it empties) and a rate cap (the highest rung the
/// measured throughput can sustain). This is the shape of the Elvis
/// `streaming_client` exemplar: conservative on startup, monotone in buffer
/// level, and free of the loss-feedback death spiral.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct AbrPolicy {
    /// Ladder of encoding rates, ascending, bits per second.
    pub rungs: Vec<u64>,
    /// Buffered microseconds required per rung step.
    pub step_us: u64,
}

impl AbrPolicy {
    /// Create a policy; `rungs` must be non-empty and ascending.
    pub fn new(rungs: Vec<u64>, step_us: u64) -> AbrPolicy {
        assert!(!rungs.is_empty(), "ladder needs at least one rung");
        assert!(rungs.windows(2).all(|w| w[0] <= w[1]), "ladder ascends");
        assert!(step_us > 0, "step must be positive");
        AbrPolicy { rungs, step_us }
    }

    /// Rung index to request given `buffer_us` of buffered content and an
    /// `est_bps` throughput estimate (0 = no estimate yet).
    pub fn choose(&self, buffer_us: u64, est_bps: u64) -> usize {
        let top = self.rungs.len() - 1;
        let buffer_rung = ((buffer_us / self.step_us) as usize).min(top);
        let rate_rung = self
            .rungs
            .iter()
            .rposition(|&r| r <= est_bps)
            .unwrap_or(0)
            .min(top);
        buffer_rung.min(rate_rung)
    }

    /// Segment size in bytes at rung `r` for a `segment_us` segment.
    pub fn bytes_at(&self, rung: usize, segment_us: u64) -> u64 {
        segment_bytes(self.rungs[rung], segment_us)
    }
}

/// The client playout buffer: tracks how much fetched-but-unplayed content
/// exists and accounts stalls exactly.
///
/// Playback starts at the first segment completion. Each completed segment
/// extends the playable horizon by its duration; if a segment lands after
/// the horizon already passed, the gap is a stall (rebuffer) and playback
/// resumes from the arrival instant.
#[derive(Debug, Clone, Default)]
pub struct AbrBuffer {
    started_at: Option<SimTime>,
    playhead_end: SimTime,
    /// Total stalled (frozen playback) time.
    pub stall: SimDuration,
    /// Number of distinct rebuffer events.
    pub rebuffers: u32,
}

impl AbrBuffer {
    /// Fresh empty buffer.
    pub fn new() -> AbrBuffer {
        AbrBuffer::default()
    }

    /// When playback started, if it has.
    pub fn started_at(&self) -> Option<SimTime> {
        self.started_at
    }

    /// Buffered content remaining at `now` (zero before playback starts
    /// and never negative: the playhead cannot outrun delivered content).
    pub fn buffer_at(&self, now: SimTime) -> SimDuration {
        if self.started_at.is_none() {
            return SimDuration::ZERO;
        }
        self.playhead_end.saturating_since(now)
    }

    /// A segment of duration `seg_dur` finished downloading at `now`.
    pub fn on_segment_complete(&mut self, now: SimTime, seg_dur: SimDuration) {
        match self.started_at {
            None => {
                self.started_at = Some(now);
                self.playhead_end = now + seg_dur;
            }
            Some(_) => {
                if now > self.playhead_end {
                    // The playhead caught up and froze until this arrival.
                    self.stall += now.saturating_since(self.playhead_end);
                    self.rebuffers += 1;
                    self.playhead_end = now + seg_dur;
                } else {
                    self.playhead_end += seg_dur;
                }
            }
        }
    }
}

/// ABR client configuration.
#[derive(Debug, Clone)]
pub struct AbrClientConfig {
    /// The serving host.
    pub server: NodeId,
    /// Flow id of client→server traffic (requests and ACKs).
    pub up_flow: FlowId,
    /// The ladder policy.
    pub policy: AbrPolicy,
    /// Segment duration, microseconds.
    pub segment_us: u64,
    /// Segments in the session.
    pub segments: u32,
    /// Buffer high-water mark: the client pauses fetching while more than
    /// this much content is buffered.
    pub max_buffer_us: u64,
}

/// What an ABR session produced — the raw material for `FlowOutcome`.
#[derive(Debug, Clone, Default)]
pub struct AbrReport {
    /// Segments fully downloaded.
    pub segments_completed: u32,
    /// Rung chosen for each completed segment, in order.
    pub rungs: Vec<u8>,
    /// Time from session start to first playable segment.
    pub startup: SimDuration,
    /// Total stalled time.
    pub stall: SimDuration,
    /// Distinct rebuffer events.
    pub rebuffers: u32,
    /// Media bytes delivered (TCP stream bytes).
    pub bytes_received: u64,
    /// Data packets received.
    pub packets_received: u64,
    /// True once every segment completed.
    pub done: bool,
}

impl AbrReport {
    /// Mean ladder rung over completed segments (0 if none completed).
    pub fn mean_rung(&self) -> f64 {
        if self.rungs.is_empty() {
            return 0.0;
        }
        self.rungs.iter().map(|&r| r as f64).sum::<f64>() / self.rungs.len() as f64
    }
}

/// The buffer-driven ABR client application.
pub struct AbrClient {
    cfg: AbrClientConfig,
    tcp: TcpReceiver,
    buffer: AbrBuffer,
    start_at: Option<SimTime>,
    /// Next segment index to request.
    next_segment: u32,
    /// Stream offset at which the in-flight segment completes (None when
    /// no request is outstanding).
    expected_end: Option<u64>,
    requested_at: SimTime,
    requested_bytes: u64,
    est_bps: u64,
    rungs: Vec<u8>,
    packets_received: u64,
    done: bool,
}

impl AbrClient {
    /// Create a client for one session.
    pub fn new(cfg: AbrClientConfig) -> AbrClient {
        assert!(cfg.segments > 0, "session needs at least one segment");
        AbrClient {
            cfg,
            tcp: TcpReceiver::new(),
            buffer: AbrBuffer::new(),
            start_at: None,
            next_segment: 0,
            expected_end: None,
            requested_at: SimTime::ZERO,
            requested_bytes: 0,
            est_bps: 0,
            rungs: Vec::new(),
            packets_received: 0,
            done: false,
        }
    }

    /// Snapshot the session results.
    pub fn report(&self) -> AbrReport {
        let start = self.start_at.unwrap_or(SimTime::ZERO);
        AbrReport {
            segments_completed: self.rungs.len() as u32,
            rungs: self.rungs.clone(),
            startup: self
                .buffer
                .started_at()
                .map(|t| t.saturating_since(start))
                .unwrap_or(SimDuration::ZERO),
            stall: self.buffer.stall,
            rebuffers: self.buffer.rebuffers,
            bytes_received: self.tcp.delivered(),
            packets_received: self.packets_received,
            done: self.done,
        }
    }

    fn request_next(&mut self, ctx: &mut AppCtx<StreamPayload>) {
        debug_assert!(self.expected_end.is_none(), "one request in flight");
        let buffer_us = self.buffer.buffer_at(ctx.now()).as_nanos() / 1_000;
        let rung = self.cfg.policy.choose(buffer_us, self.est_bps);
        let bytes = self.cfg.policy.bytes_at(rung, self.cfg.segment_us);
        self.expected_end = Some(self.tcp.delivered() + bytes);
        self.requested_at = ctx.now();
        self.requested_bytes = bytes;
        self.rungs.push(rung as u8);
        ctx.send(SendSpec {
            dst: self.cfg.server,
            flow: self.cfg.up_flow,
            size: CONTROL_PACKET_BYTES,
            dscp: Dscp::BEST_EFFORT,
            proto: Proto::Tcp,
            fragment: None,
            payload: StreamPayload::Control(ControlMsg::SegmentRequest {
                segment: self.next_segment,
                rung: rung as u8,
            }),
        });
        self.next_segment += 1;
    }

    fn on_segment_complete(&mut self, ctx: &mut AppCtx<StreamPayload>) {
        let elapsed = ctx.now().saturating_since(self.requested_at);
        let elapsed_us = (elapsed.as_nanos() / 1_000).max(1);
        self.est_bps = self.requested_bytes * 8_000_000 / elapsed_us;
        self.expected_end = None;
        self.buffer
            .on_segment_complete(ctx.now(), SimDuration::from_micros(self.cfg.segment_us));
        if self.next_segment >= self.cfg.segments {
            self.done = true;
            return;
        }
        let buffered = self.buffer.buffer_at(ctx.now()).as_nanos() / 1_000;
        if buffered > self.cfg.max_buffer_us {
            ctx.set_timer(
                SimDuration::from_micros(buffered - self.cfg.max_buffer_us),
                TOK_NEXT,
            );
        } else {
            self.request_next(ctx);
        }
    }
}

impl Application<StreamPayload> for AbrClient {
    fn on_start(&mut self, ctx: &mut AppCtx<StreamPayload>) {
        self.start_at = Some(ctx.now());
        self.request_next(ctx);
    }

    fn on_packet(&mut self, ctx: &mut AppCtx<StreamPayload>, pkt: Packet<StreamPayload>) {
        if let StreamPayload::Tcp(seg) = pkt.payload {
            if seg.is_ack {
                return;
            }
            self.packets_received += 1;
            let ack = self.tcp.on_segment(seg.seq, seg.len);
            ctx.send(SendSpec {
                dst: self.cfg.server,
                flow: self.cfg.up_flow,
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
            if let Some(end) = self.expected_end {
                if self.tcp.delivered() >= end {
                    self.on_segment_complete(ctx);
                }
            }
        }
    }

    fn on_timer(&mut self, ctx: &mut AppCtx<StreamPayload>, token: u64) {
        if token == TOK_NEXT && self.expected_end.is_none() && !self.done {
            self.request_next(ctx);
        }
    }
}

/// ABR server configuration. The ladder must match the client's policy so
/// both sides compute identical segment byte counts.
#[derive(Debug, Clone)]
pub struct AbrServerConfig {
    /// Destination client.
    pub client: NodeId,
    /// Media flow id.
    pub flow: FlowId,
    /// DSCP pre-marking of data segments.
    pub dscp: Dscp,
    /// Ladder of encoding rates, ascending, bits per second.
    pub rungs: Vec<u64>,
    /// Segment duration, microseconds.
    pub segment_us: u64,
}

/// The ABR origin server: serves whatever rung each request names, over
/// one mini-TCP byte stream.
pub struct AbrServer {
    cfg: AbrServerConfig,
    sender: TcpSender,
    /// Diagnostic: segments requested so far.
    pub segments_requested: u64,
    /// Diagnostic: data segments transmitted (including retransmissions).
    pub segments_sent: u64,
}

impl AbrServer {
    /// Create for one session.
    pub fn new(cfg: AbrServerConfig) -> AbrServer {
        AbrServer {
            cfg,
            sender: TcpSender::new(),
            segments_requested: 0,
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

impl Application<StreamPayload> for AbrServer {
    fn on_start(&mut self, _ctx: &mut AppCtx<StreamPayload>) {}

    fn on_packet(&mut self, ctx: &mut AppCtx<StreamPayload>, pkt: Packet<StreamPayload>) {
        match pkt.payload {
            StreamPayload::Control(ControlMsg::SegmentRequest { rung, .. }) => {
                self.segments_requested += 1;
                let rung = (rung as usize).min(self.cfg.rungs.len() - 1);
                self.sender
                    .write(segment_bytes(self.cfg.rungs[rung], self.cfg.segment_us));
                let acts = self.sender.poll_send(ctx.now());
                self.perform(ctx, acts);
            }
            StreamPayload::Tcp(seg) if seg.is_ack => {
                let acts = self.sender.on_ack(ctx.now(), seg.ack);
                self.perform(ctx, acts);
            }
            _ => {}
        }
    }

    fn on_timer(&mut self, ctx: &mut AppCtx<StreamPayload>, token: u64) {
        if token == TOK_RTO {
            let acts = self.sender.on_rto_timer(ctx.now());
            self.perform(ctx, acts);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use dsv_net::link::Link;
    use dsv_net::network::{NetworkBuilder, Simulation};

    fn ladder() -> AbrPolicy {
        AbrPolicy::new(vec![300_000, 700_000, 1_500_000], 4_000_000)
    }

    #[test]
    fn choose_is_monotone_in_buffer() {
        let p = ladder();
        let mut last = 0;
        for us in (0..20_000_000).step_by(500_000) {
            let r = p.choose(us, u64::MAX);
            assert!(r >= last, "ladder dropped as buffer grew");
            last = r;
        }
        assert_eq!(last, 2, "deep buffer reaches the top rung");
    }

    #[test]
    fn choose_caps_by_rate() {
        let p = ladder();
        assert_eq!(p.choose(u64::MAX, 0), 0);
        assert_eq!(p.choose(u64::MAX, 800_000), 1);
        assert_eq!(p.choose(u64::MAX, 2_000_000), 2);
    }

    #[test]
    fn buffer_accounts_stalls() {
        let mut b = AbrBuffer::new();
        let seg = SimDuration::from_secs(4);
        b.on_segment_complete(SimTime::from_secs(1), seg);
        assert_eq!(b.buffer_at(SimTime::from_secs(1)), seg);
        // Second segment lands late: playhead ran dry at t=5, arrival t=7.
        b.on_segment_complete(SimTime::from_secs(7), seg);
        assert_eq!(b.stall, SimDuration::from_secs(2));
        assert_eq!(b.rebuffers, 1);
        // Third lands on time: horizon extends, no new stall.
        b.on_segment_complete(SimTime::from_secs(8), seg);
        assert_eq!(b.rebuffers, 1);
        assert_eq!(
            b.buffer_at(SimTime::from_secs(8)),
            seg + SimDuration::from_secs(3)
        );
    }

    #[test]
    fn buffer_never_negative() {
        let b = AbrBuffer::new();
        assert_eq!(b.buffer_at(SimTime::from_secs(100)), SimDuration::ZERO);
        let mut b = AbrBuffer::new();
        b.on_segment_complete(SimTime::ZERO, SimDuration::from_secs(1));
        assert_eq!(b.buffer_at(SimTime::from_secs(50)), SimDuration::ZERO);
    }

    #[test]
    fn segment_bytes_is_exact() {
        assert_eq!(segment_bytes(1_500_000, 4_000_000), 750_000);
        assert_eq!(segment_bytes(300_000, 2_000_000), 75_000);
        assert_eq!(segment_bytes(0, 1), 1, "floor of one byte");
    }

    #[test]
    fn abr_session_completes_over_clean_link() {
        let policy = ladder();
        let mut b = NetworkBuilder::new();
        let r = b.add_router("r");
        let server_guess = NodeId(2);
        let client = b.add_host(
            "client",
            Box::new(AbrClient::new(AbrClientConfig {
                server: server_guess,
                up_flow: FlowId(2),
                policy: policy.clone(),
                segment_us: 2_000_000,
                segments: 10,
                max_buffer_us: 12_000_000,
            })),
        );
        let server = b.add_host(
            "server",
            Box::new(AbrServer::new(AbrServerConfig {
                client,
                flow: FlowId(1),
                dscp: Dscp::BEST_EFFORT,
                rungs: policy.rungs.clone(),
                segment_us: 2_000_000,
            })),
        );
        assert_eq!(server, server_guess, "node id layout assumption");
        b.connect(client, r, Link::fast_ethernet());
        b.connect(server, r, Link::fast_ethernet());
        let mut sim = Simulation::new(b.build());
        sim.run();
        let media = sim.net.stats.flow(FlowId(1));
        assert!(media.rx_packets > 0, "media flowed");
        assert_eq!(media.total_drops(), 0);
        // All 10 segments' bytes arrived: at least 10 × the smallest rung.
        let floor = 10 * segment_bytes(300_000, 2_000_000);
        assert!(
            media.rx_bytes >= floor,
            "delivered {} < floor {}",
            media.rx_bytes,
            floor
        );
    }
}
