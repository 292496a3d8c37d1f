//! TCP streaming server (the paper's WMT-over-TCP configuration).
//!
//! Writes the encoded clip into a mini-TCP socket in real time; TCP's
//! self-clocking smooths the wire traffic and converts policer drops into
//! retransmissions (lateness at the client rather than missing frames) —
//! the mechanism behind the paper's observation that TCP streaming
//! "resulted in a smoother traffic flow that produced better quality
//! results" (§4.2).

use dsv_media::encoder::EncodedClip;
use dsv_net::app::{AppCtx, Application, SendSpec};
use dsv_net::packet::{Dscp, FlowId, NodeId, Packet, Proto};
use dsv_sim::{SimDuration, SimTime};

use crate::payload::{ControlMsg, StreamPayload, CONTROL_PACKET_BYTES};
use crate::server::{read_time, TOK_FRAME, TOK_RTO};
use crate::tcp::{SenderActions, TcpSender};

/// The standard pacing lead every TCP streaming configuration shares: how
/// far ahead of the playout schedule the server reads the file into the
/// socket. One definition, so the figure builders and the smoothing sweep
/// cannot drift apart.
pub const TCP_READ_AHEAD: SimDuration = SimDuration::from_secs(15);

/// TCP server configuration.
#[derive(Debug, Clone)]
pub struct TcpServerConfig {
    /// Destination client.
    pub client: NodeId,
    /// Media flow id.
    pub flow: FlowId,
    /// DSCP pre-marking of data segments.
    pub dscp: Dscp,
    /// Wait for `Play`.
    pub wait_for_play: bool,
    /// How far ahead of the nominal playout schedule the server writes
    /// into the socket. Streaming a *file* over TCP is ahead-of-schedule
    /// by nature — the transport repays loss-episode deficits from this
    /// lead, which is what made the paper's TCP runs smooth. Zero means
    /// strict real-time writing.
    pub read_ahead: SimDuration,
}

impl TcpServerConfig {
    /// Standard configuration with the [`TCP_READ_AHEAD`] write-ahead.
    pub fn new(client: NodeId, flow: FlowId, dscp: Dscp) -> TcpServerConfig {
        TcpServerConfig {
            client,
            flow,
            dscp,
            wait_for_play: true,
            read_ahead: TCP_READ_AHEAD,
        }
    }
}

/// The TCP streaming server application.
pub struct TcpStreamServer {
    cfg: TcpServerConfig,
    frames_bytes: Vec<u32>,
    nominal_bps: u64,
    sender: TcpSender,
    next_frame: u32,
    play_start: Option<SimTime>,
    /// Diagnostics.
    pub segments_sent: u64,
}

impl TcpStreamServer {
    /// Borrow the transport state machine (diagnostics).
    pub fn sender(&self) -> &TcpSender {
        &self.sender
    }
}

impl TcpStreamServer {
    /// Create for one encoded clip.
    pub fn new(cfg: TcpServerConfig, clip: &EncodedClip) -> TcpStreamServer {
        TcpStreamServer {
            cfg,
            frames_bytes: clip.frames.iter().map(|f| f.bytes).collect(),
            nominal_bps: clip.target_bps,
            sender: TcpSender::new(),
            next_frame: 0,
            play_start: None,
            segments_sent: 0,
        }
    }

    fn begin(&mut self, ctx: &mut AppCtx<StreamPayload>) {
        if self.play_start.is_some() {
            return;
        }
        self.play_start = Some(ctx.now());
        ctx.set_timer(SimDuration::ZERO, TOK_FRAME);
    }

    fn perform(&mut self, ctx: &mut AppCtx<StreamPayload>, acts: SenderActions) {
        let cfg = &self.cfg;
        self.segments_sent += acts.perform(ctx, cfg.client, cfg.flow, cfg.dscp, TOK_RTO);
    }
}

impl Application<StreamPayload> for TcpStreamServer {
    fn on_start(&mut self, ctx: &mut AppCtx<StreamPayload>) {
        if !self.cfg.wait_for_play {
            self.begin(ctx);
        }
    }

    fn on_packet(&mut self, ctx: &mut AppCtx<StreamPayload>, pkt: Packet<StreamPayload>) {
        match pkt.payload {
            StreamPayload::Control(ControlMsg::Describe) => {
                ctx.send(SendSpec {
                    dst: self.cfg.client,
                    flow: self.cfg.flow,
                    size: CONTROL_PACKET_BYTES,
                    dscp: Dscp::BEST_EFFORT,
                    proto: Proto::Tcp,
                    fragment: None,
                    payload: StreamPayload::Control(ControlMsg::DescribeReply {
                        frames: self.frames_bytes.len() as u32,
                        nominal_bps: self.nominal_bps,
                    }),
                });
            }
            StreamPayload::Control(ControlMsg::Play) => self.begin(ctx),
            StreamPayload::Tcp(seg) if seg.is_ack => {
                let acts = self.sender.on_ack(ctx.now(), seg.ack);
                self.perform(ctx, acts);
            }
            _ => {}
        }
    }

    fn on_timer(&mut self, ctx: &mut AppCtx<StreamPayload>, token: u64) {
        match token {
            TOK_FRAME => {
                let start = self.play_start.expect("playing");
                while (self.next_frame as usize) < self.frames_bytes.len()
                    && read_time(start, self.next_frame) - self.cfg.read_ahead <= ctx.now()
                {
                    self.sender
                        .write(self.frames_bytes[self.next_frame as usize] as u64);
                    self.next_frame += 1;
                }
                let acts = self.sender.poll_send(ctx.now());
                self.perform(ctx, acts);
                if (self.next_frame as usize) < self.frames_bytes.len() {
                    let next_at = read_time(start, self.next_frame) - self.cfg.read_ahead;
                    ctx.set_timer(next_at.saturating_since(ctx.now()), TOK_FRAME);
                }
            }
            TOK_RTO => {
                let acts = self.sender.on_rto_timer(ctx.now());
                self.perform(ctx, acts);
            }
            _ => {}
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::client::{ClientConfig, ClientMode, StreamClient};
    use crate::playback::PlaybackConfig;
    use dsv_media::encoder::mpeg1;
    use dsv_media::scene::ClipId;
    use dsv_net::link::Link;
    use dsv_net::network::{NetworkBuilder, Simulation};

    #[test]
    fn tcp_delivers_entire_clip_reliably() {
        let clip = mpeg1::encode(&ClipId::Lost.model(), 1_000_000);
        let frame_bytes: Vec<u32> = clip.frames.iter().map(|f| f.bytes).collect();
        let fidelities: Vec<f64> = clip.frames.iter().map(|f| f.fidelity).collect();

        let mut b = NetworkBuilder::new();
        // Client first so ids are stable.
        let client_cfg_placeholder = NodeId(0);
        let _ = client_cfg_placeholder;
        let r = b.add_router("r");
        let server_id = NodeId(2);
        let client = b.add_host(
            "client",
            Box::new(StreamClient::new(ClientConfig {
                server: server_id,
                up_flow: FlowId(2),
                frames: clip.frames.len() as u32,
                kind_fn: mpeg1::frame_kind,
                playback: PlaybackConfig::default(),
                feedback_interval: None,
                mode: ClientMode::Tcp {
                    frame_bytes: frame_bytes.clone(),
                    fidelities,
                },
            })),
        );
        let server = b.add_host(
            "server",
            Box::new(TcpStreamServer::new(
                TcpServerConfig::new(client, FlowId(1), Dscp::EF),
                &clip,
            )),
        );
        assert_eq!(server, server_id, "node id layout assumption");
        b.connect(client, r, Link::fast_ethernet());
        b.connect(server, r, Link::fast_ethernet());
        let mut sim = Simulation::new(b.build());
        sim.run();

        // Borrow the client app back to inspect its report. The network
        // doesn't expose downcasting; rebuild the report via a fresh
        // client is impossible — so verify at the stats level instead and
        // rely on client unit tests for report mechanics.
        let media = sim.net.stats.flow(FlowId(1));
        let total: u64 = frame_bytes.iter().map(|&b| b as u64).sum();
        assert!(
            media.rx_bytes - media.rx_packets * 28 >= total,
            "all media bytes delivered"
        );
        assert_eq!(media.total_drops(), 0);
        let acks = sim.net.stats.flow(FlowId(2));
        assert!(acks.tx_packets > 1000, "client ACK-clocked the transfer");
    }
}
