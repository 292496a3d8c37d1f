//! The paced (Video-Charger-style) streaming server.
//!
//! Reads the encoded clip in real time into a send buffer and drains it
//! through a `Pacer`: small messages (one packet each),
//! smooth transmission whose rate tracks the clip's windowed rate. This is
//! the server used for all QBone experiments; packets are pre-marked with
//! the EF code point exactly as the remote Video Charger pre-marked them
//! (paper §3.2.2).
//!
//! The pacer runs on an OS-timer tick (5 ms), and before each tick the
//! server reads every frame due by then. A tick that releases no packet
//! changes nothing anyone observes, so the server is woken only at the
//! ticks that send: at `Play` and at each wake-up it runs the pacer ahead,
//! tick by tick, to the next one that releases packets, holds them, and
//! sets its one timer for that tick. The timer is stamped as filed one
//! tick before it falls due ([`AppCtx::set_timer_filed_at`]), where a
//! timer per tick would have been filed, so it sorts against every event
//! filed at any other instant exactly as that tick would have (DESIGN.md
//! §6b, "Paced servers wake only to send"). A `Teardown` drops the held
//! packets along with the rest of the send buffer.

use dsv_media::encoder::EncodedClip;
use dsv_media::frame::EncodedFrame;
use dsv_net::app::{AppCtx, Application, SendSpec};
use dsv_net::packet::{Dscp, FlowId, NodeId, Packet, Proto};
use dsv_sim::{SimDuration, SimTime};

use crate::packetize::frame_chunks;
use crate::payload::{ControlMsg, MediaChunk, StreamPayload, CONTROL_PACKET_BYTES};
use crate::server::{read_time, Pacer, TOK_TICK};

/// Paced-server configuration.
#[derive(Debug, Clone)]
pub struct PacedConfig {
    /// Destination client.
    pub client: NodeId,
    /// Media flow id.
    pub flow: FlowId,
    /// DSCP the server pre-marks on media packets.
    pub dscp: Dscp,
    /// Pacing low-pass window (larger = smoother output).
    pub smoothing: SimDuration,
    /// OS timer granularity: packets due within a tick leave back-to-back.
    /// Frames due at a tick's instant are read before it.
    pub tick: SimDuration,
    /// Pacing floor.
    pub min_rate_bps: u64,
    /// If true, wait for the client's `Play` before streaming; otherwise
    /// start immediately.
    pub wait_for_play: bool,
}

impl PacedConfig {
    /// Defaults matching the Video Charger observations: smooth pacing
    /// (≈400 ms smoothing) with a 5 ms release timer.
    pub fn new(client: NodeId, flow: FlowId, dscp: Dscp) -> PacedConfig {
        PacedConfig {
            client,
            flow,
            dscp,
            smoothing: SimDuration::from_millis(250),
            tick: SimDuration::from_millis(5),
            min_rate_bps: 200_000,
            wait_for_play: true,
        }
    }
}

/// The paced server application.
pub struct PacedServer {
    cfg: PacedConfig,
    frames: Vec<EncodedFrame>,
    nominal_bps: u64,
    pacer: Pacer,
    next_frame: u32,
    seq: u64,
    play_start: Option<SimTime>,
    /// The packets the tick of the pending wake-up released, sent when it
    /// fires. One buffer serves the whole stream, so the wake-up (the
    /// hottest application path in the QBone sweeps) allocates nothing.
    held: Vec<crate::packetize::ChunkSpec>,
    /// Total media packets handed to the network (diagnostics).
    pub packets_sent: u64,
}

impl PacedServer {
    /// Create a multi-rate server: given several encodings of the same
    /// content (sorted by rate), serve the highest one whose nominal rate
    /// fits within `bandwidth_estimate_bps`. The paper notes its MPEG
    /// servers lacked this ("we expect such a capability to be available
    /// in future MPEG servers"); this constructor is that future server.
    ///
    /// # Panics
    /// Panics if `tiers` is empty or unsorted by rate.
    pub fn new_multi_rate(
        cfg: PacedConfig,
        tiers: &[EncodedClip],
        bandwidth_estimate_bps: u64,
    ) -> PacedServer {
        let refs: Vec<&EncodedClip> = tiers.iter().collect();
        PacedServer::new_multi_rate_shared(cfg, &refs, bandwidth_estimate_bps)
    }

    /// [`new_multi_rate`](PacedServer::new_multi_rate) over borrowed
    /// tiers, so sweep drivers can pass shared (`Arc`-owned) encodings
    /// without cloning each tier at every grid point.
    ///
    /// # Panics
    /// Panics if `tiers` is empty or unsorted by rate.
    pub fn new_multi_rate_shared(
        cfg: PacedConfig,
        tiers: &[&EncodedClip],
        bandwidth_estimate_bps: u64,
    ) -> PacedServer {
        assert!(!tiers.is_empty(), "need at least one encoding");
        assert!(
            tiers.windows(2).all(|w| w[0].target_bps <= w[1].target_bps),
            "tiers must be sorted by rate"
        );
        let chosen = tiers
            .iter()
            .rev()
            .find(|t| t.target_bps <= bandwidth_estimate_bps)
            .copied()
            .unwrap_or(tiers[0]);
        PacedServer::new(cfg, chosen)
    }

    /// Nominal rate of the encoding being served (diagnostics).
    pub fn nominal_bps(&self) -> u64 {
        self.nominal_bps
    }

    /// Create a server for one encoded clip.
    pub fn new(cfg: PacedConfig, clip: &EncodedClip) -> PacedServer {
        let pacer = Pacer::new(cfg.smoothing, cfg.min_rate_bps);
        PacedServer {
            cfg,
            frames: clip.frames.clone(),
            nominal_bps: clip.target_bps,
            pacer,
            next_frame: 0,
            seq: 0,
            play_start: None,
            held: Vec::new(),
            packets_sent: 0,
        }
    }

    fn begin(&mut self, ctx: &mut AppCtx<StreamPayload>) {
        if self.play_start.is_some() {
            return;
        }
        self.play_start = Some(ctx.now());
        self.run_ahead(ctx);
    }

    /// Run the pacer forward from now, one tick at a time, reading the
    /// frames due by each tick before it, until a tick releases packets:
    /// hold them and wake up at that tick. A stream that ends first sets
    /// no wake-up.
    fn run_ahead(&mut self, ctx: &mut AppCtx<StreamPayload>) {
        let now = ctx.now();
        let mut at = now;
        while !self.done() {
            at += self.cfg.tick;
            self.read_frames_due(at);
            self.pacer.tick_into(self.cfg.tick, 1.0, &mut self.held);
            if !self.held.is_empty() {
                // Stamped where a timer per tick would have been filed:
                // by the tick before this one.
                ctx.set_timer_filed_at(at.saturating_since(now), at - self.cfg.tick, TOK_TICK);
                return;
            }
        }
    }

    fn read_frames_due(&mut self, at: SimTime) {
        let start = self.play_start.expect("begin() ran");
        while (self.next_frame as usize) < self.frames.len()
            && read_time(start, self.next_frame) <= at
        {
            let f = self.frames[self.next_frame as usize];
            for c in frame_chunks(&f) {
                self.pacer.push(c);
            }
            self.next_frame += 1;
        }
    }

    fn send_chunks(
        &mut self,
        ctx: &mut AppCtx<StreamPayload>,
        chunks: &[crate::packetize::ChunkSpec],
    ) {
        for &c in chunks {
            let fidelity = self.frames[c.frame_index as usize].fidelity;
            let seq = self.seq;
            self.seq += 1;
            self.packets_sent += 1;
            ctx.send(SendSpec {
                dst: self.cfg.client,
                flow: self.cfg.flow,
                size: c.wire_bytes,
                dscp: self.cfg.dscp,
                proto: Proto::Udp,
                fragment: None,
                payload: StreamPayload::Media(MediaChunk {
                    seq,
                    frame_index: c.frame_index,
                    chunk: c.chunk,
                    chunks_in_frame: c.chunks_in_frame,
                    repair: false,
                    fidelity,
                }),
            });
        }
    }

    fn done(&self) -> bool {
        self.next_frame as usize >= self.frames.len() && self.pacer.is_empty()
    }
}

impl Application<StreamPayload> for PacedServer {
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
                        frames: self.frames.len() as u32,
                        nominal_bps: self.nominal_bps,
                    }),
                });
            }
            StreamPayload::Control(ControlMsg::Play) => self.begin(ctx),
            StreamPayload::Control(ControlMsg::Teardown) => {
                self.next_frame = self.frames.len() as u32;
                self.pacer.clear();
                self.held.clear();
            }
            // The paced server has no adaptation loop: feedback ignored.
            _ => {}
        }
    }

    fn on_timer(&mut self, ctx: &mut AppCtx<StreamPayload>, token: u64) {
        if token == TOK_TICK {
            let held = std::mem::take(&mut self.held);
            self.send_chunks(ctx, &held);
            self.held = held;
            self.run_ahead(ctx);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use dsv_media::encoder::mpeg1;
    use dsv_media::scene::ClipId;
    use dsv_net::link::Link;
    use dsv_net::network::{NetworkBuilder, Simulation};
    use dsv_net::traffic::CountingSink;

    #[test]
    fn streams_whole_clip_smoothly() {
        let clip = mpeg1::encode(&ClipId::Lost.model(), 1_000_000);
        let total_bytes = clip.total_bytes();
        let mut b = NetworkBuilder::new();
        let sink = b.add_host("client", Box::new(CountingSink::default()));
        let r = b.add_router("r");
        let mut cfg = PacedConfig::new(sink, FlowId(1), Dscp::EF_QBONE);
        cfg.wait_for_play = false;
        let server = b.add_host("server", Box::new(PacedServer::new(cfg, &clip)));
        b.connect(server, r, Link::fast_ethernet());
        b.connect(r, sink, Link::fast_ethernet());
        let mut sim = Simulation::new(b.build());
        sim.run();
        let s = sim.net.stats.flow(FlowId(1));
        assert_eq!(s.total_drops(), 0);
        // All media payload delivered (wire bytes exceed media bytes by
        // the per-packet header).
        assert!(s.rx_bytes > total_bytes);
        let header_overhead = s.rx_packets * 28;
        assert_eq!(s.rx_bytes - header_overhead, total_bytes);
        // Transmission should span the clip duration (real-time read),
        // not finish early in one blast.
        let span = s.delay.count; // packets delivered
        assert!(span > 6000, "expected thousands of packets, got {span}");
    }

    #[test]
    fn output_rate_tracks_clip_windowed_rate() {
        let clip = mpeg1::encode(&ClipId::Lost.model(), 1_700_000);
        let mut b = NetworkBuilder::new();
        let sink = b.add_host("client", Box::new(CountingSink::default()));
        let r = b.add_router("r");
        let mut cfg = PacedConfig::new(sink, FlowId(1), Dscp::EF_QBONE);
        cfg.wait_for_play = false;
        let server = b.add_host("server", Box::new(PacedServer::new(cfg, &clip)));
        b.connect(server, r, Link::fast_ethernet());
        b.connect(r, sink, Link::fast_ethernet());
        let mut net = b.build();
        net.stats.trace_flow(FlowId(1));
        let mut sim = Simulation::new(net);
        sim.run();
        let series = sim
            .net
            .stats
            .send_rate_series(FlowId(1), SimDuration::from_secs(1));
        // Skip warm-up and tail; the middle windows must hover near the
        // clip rate and never exceed ~1.45x target.
        let mid = &series[2..series.len() - 2];
        for (t, rate) in mid {
            assert!(
                *rate < 1.45 * 1_700_000.0,
                "window at {t}: {rate} bps too bursty"
            );
            assert!(
                *rate > 0.5 * 1_700_000.0,
                "window at {t}: {rate} bps starved"
            );
        }
        let avg: f64 = mid.iter().map(|(_, r)| r).sum::<f64>() / mid.len() as f64;
        assert!(
            (avg - 1_700_000.0 * 1.019).abs() / 1_700_000.0 < 0.08,
            "average wire rate {avg} (media 1.7M + headers)"
        );
    }

    #[test]
    fn multi_rate_selects_the_best_fitting_tier() {
        let model = ClipId::Lost.model();
        let tiers = vec![
            mpeg1::encode(&model, 1_000_000),
            mpeg1::encode(&model, 1_500_000),
            mpeg1::encode(&model, 1_700_000),
        ];
        let cfg = || PacedConfig::new(NodeId(0), FlowId(1), Dscp::EF_QBONE);
        assert_eq!(
            PacedServer::new_multi_rate(cfg(), &tiers, 1_600_000).nominal_bps(),
            1_500_000
        );
        assert_eq!(
            PacedServer::new_multi_rate(cfg(), &tiers, 2_500_000).nominal_bps(),
            1_700_000
        );
        // Below every tier: fall back to the lowest.
        assert_eq!(
            PacedServer::new_multi_rate(cfg(), &tiers, 500_000).nominal_bps(),
            1_000_000
        );
    }

    #[test]
    fn waits_for_play_when_configured() {
        let clip = mpeg1::encode(&ClipId::Lost.model(), 1_000_000);
        let mut b = NetworkBuilder::new();
        let sink = b.add_host("client", Box::new(CountingSink::default()));
        let r = b.add_router("r");
        let cfg = PacedConfig::new(sink, FlowId(1), Dscp::EF_QBONE);
        let server = b.add_host("server", Box::new(PacedServer::new(cfg, &clip)));
        b.connect(server, r, Link::fast_ethernet());
        b.connect(r, sink, Link::fast_ethernet());
        let mut sim = Simulation::new(b.build());
        sim.run();
        // No Describe/Play ever sent (sink is silent): nothing streams.
        assert_eq!(sim.net.stats.flow(FlowId(1)).tx_packets, 0);
    }
}
