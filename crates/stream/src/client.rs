//! The streaming client: reassembly, the storage filter, feedback, and the
//! final quality-pipeline report.
//!
//! This is the counterpart of the paper's instrumented DirectShow client
//! (§3.1.1): it receives media (UDP chunks or mini-TCP segments), records
//! per-frame **arrival times** exactly as the storage filter recorded them,
//! sends periodic receiver reports (the information a WMT-style server's
//! adaptation loop consumes), and at the end of the run produces a
//! [`ClientReport`] — the emulated renderer output that feeds `dsv-vqm`.

use dsv_media::decoder::decodable_frames;
use dsv_media::frame::{EncodedFrame, FrameKind};
use dsv_net::app::{AppCtx, Application, SendSpec};
use dsv_net::features::{FeatureExtractor, FlowFeatures};
use dsv_net::packet::{Dscp, FlowId, NodeId, Packet, Proto};
use dsv_sim::{SimDuration, SimTime};

use crate::payload::{
    ControlMsg, FeedbackReport, MediaChunk, StreamPayload, TcpSegment, ACK_PACKET_BYTES,
    CONTROL_PACKET_BYTES, FEEDBACK_PACKET_BYTES,
};
use crate::playback::{playback_schedule, PlaybackConfig, PlaybackResult};
use crate::tcp::TcpReceiver;

/// Timer token: send the next feedback report.
const TOK_FEEDBACK: u64 = 0xFEED;

/// How the media reaches the client.
#[derive(Debug, Clone)]
pub enum ClientMode {
    /// UDP media chunks (frame structure learned from the chunks).
    Udp,
    /// Mini-TCP byte stream; frame boundaries and per-frame fidelity are
    /// session metadata (the MMS control channel describes the content).
    Tcp {
        /// Encoded size of each frame in bytes.
        frame_bytes: Vec<u32>,
        /// Encoding fidelity of each frame.
        fidelities: Vec<f64>,
    },
}

/// Client configuration.
#[derive(Debug, Clone)]
pub struct ClientConfig {
    /// The server host.
    pub server: NodeId,
    /// Flow id for client→server packets (feedback/ACK/control).
    pub up_flow: FlowId,
    /// Total frames in the clip.
    pub frames: u32,
    /// Picture-type of each frame index (codec GOP structure).
    pub kind_fn: fn(u32) -> FrameKind,
    /// Renderer model parameters.
    pub playback: PlaybackConfig,
    /// Interval between receiver reports (None = no feedback).
    pub feedback_interval: Option<SimDuration>,
    /// Transport mode.
    pub mode: ClientMode,
    /// Nominal media rate of the session, bps — the normalizer for the
    /// flow-feature extractor's throughput-deficit signals (0 = unknown).
    pub media_rate_bps: u64,
}

/// Per-frame reassembly state (UDP mode).
#[derive(Debug, Default, Clone)]
struct FrameAssembly {
    chunks_got: Vec<bool>,
    complete_at: Option<SimTime>,
    fidelity: f64,
}

/// The instrumented streaming client application.
pub struct StreamClient {
    cfg: ClientConfig,
    /// Per-frame reassembly state, indexed by display-order frame index
    /// (UDP mode). A flat vector: the lookup runs once per received media
    /// packet, and the frame count is known up front.
    assemblies: Vec<Option<FrameAssembly>>,
    /// TCP receive state (Tcp mode).
    tcp: TcpReceiver,
    tcp_frame_ends: Vec<u64>,
    tcp_complete_at: Vec<Option<SimTime>>,
    /// The first frame the delivered byte prefix does not yet cover; every
    /// frame before it is complete.
    tcp_next_frame: usize,
    /// Feedback window state.
    fb_seq: u64,
    fb_window_first_seq: Option<u64>,
    fb_window_highest_seq: Option<u64>,
    fb_window_received: u64,
    fb_window_bytes: u64,
    fb_window_delay_sum: SimDuration,
    /// Totals.
    packets_received: u64,
    bytes_received: u64,
    /// Streaming flow-feature accumulator (the QoE proxy's input); rides
    /// the media delivery path without retaining packets or frames.
    extractor: FeatureExtractor,
    /// Session state.
    described: bool,
}

impl StreamClient {
    /// Create a client.
    pub fn new(cfg: ClientConfig) -> StreamClient {
        let tcp_frame_ends = match &cfg.mode {
            ClientMode::Tcp { frame_bytes, .. } => {
                let mut acc = 0u64;
                frame_bytes
                    .iter()
                    .map(|&b| {
                        acc += b as u64;
                        acc
                    })
                    .collect()
            }
            ClientMode::Udp => Vec::new(),
        };
        let n = cfg.frames as usize;
        let extractor = FeatureExtractor::new(cfg.media_rate_bps);
        StreamClient {
            cfg,
            assemblies: std::iter::repeat_with(|| None).take(n).collect(),
            tcp: TcpReceiver::new(),
            tcp_frame_ends,
            tcp_complete_at: vec![None; n],
            tcp_next_frame: 0,
            fb_seq: 0,
            fb_window_first_seq: None,
            fb_window_highest_seq: None,
            fb_window_received: 0,
            fb_window_bytes: 0,
            fb_window_delay_sum: SimDuration::ZERO,
            packets_received: 0,
            bytes_received: 0,
            extractor,
            described: false,
        }
    }

    fn on_media(&mut self, now: SimTime, chunk: MediaChunk, pkt_size: u32, delay: SimDuration) {
        self.packets_received += 1;
        self.bytes_received += pkt_size as u64;
        self.extractor
            .observe(now, Some(chunk.seq), pkt_size, delay);
        // Feedback window accounting (repair packets count as received
        // traffic).
        self.fb_window_received += 1;
        self.fb_window_bytes += pkt_size as u64;
        self.fb_window_delay_sum += delay;
        if self.fb_window_first_seq.is_none() {
            self.fb_window_first_seq = Some(chunk.seq);
        }
        self.fb_window_highest_seq = Some(
            self.fb_window_highest_seq
                .map_or(chunk.seq, |h| h.max(chunk.seq)),
        );

        if chunk.repair {
            return;
        }
        let idx = chunk.frame_index as usize;
        if idx >= self.assemblies.len() {
            // A frame index beyond the advertised clip length (defensive;
            // servers never send one).
            self.assemblies.resize_with(idx + 1, || None);
        }
        let asm = self.assemblies[idx].get_or_insert_with(|| FrameAssembly {
            chunks_got: vec![false; chunk.chunks_in_frame as usize],
            complete_at: None,
            fidelity: chunk.fidelity,
        });
        if (chunk.chunk as usize) < asm.chunks_got.len() && !asm.chunks_got[chunk.chunk as usize] {
            asm.chunks_got[chunk.chunk as usize] = true;
            if asm.complete_at.is_none() && asm.chunks_got.iter().all(|&g| g) {
                asm.complete_at = Some(now);
            }
        }
    }

    fn on_tcp(
        &mut self,
        ctx: &mut AppCtx<StreamPayload>,
        now: SimTime,
        seg: TcpSegment,
        pkt_size: u32,
        delay: SimDuration,
    ) {
        if seg.is_ack {
            return; // we are the receiver; stray ACK
        }
        self.packets_received += 1;
        self.bytes_received += seg.len as u64;
        // Mini-TCP retransmits hide network loss from the application, so
        // the byte stream feeds the sequence-free feature path: loss-run
        // features stay zero and throughput/jitter/delay still accumulate.
        self.extractor.observe(now, None, pkt_size, delay);
        let ack = self.tcp.on_segment(seg.seq, seg.len);
        // Mark newly completed frames. The delivered prefix only grows, so
        // the scan resumes at the first frame it left incomplete.
        let delivered = self.tcp.delivered();
        while let Some(&end) = self.tcp_frame_ends.get(self.tcp_next_frame) {
            if end > delivered {
                break;
            }
            self.tcp_complete_at[self.tcp_next_frame] = Some(now);
            self.tcp_next_frame += 1;
        }
        // Send the ACK.
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
    }

    fn send_feedback(&mut self, ctx: &mut AppCtx<StreamPayload>) {
        let expected = match (self.fb_window_first_seq, self.fb_window_highest_seq) {
            (Some(f), Some(h)) => h - f + 1,
            _ => 0,
        };
        let loss = if expected == 0 {
            0.0
        } else {
            1.0 - (self.fb_window_received as f64 / expected as f64).min(1.0)
        };
        let mean_delay = if self.fb_window_received == 0 {
            SimDuration::ZERO
        } else {
            self.fb_window_delay_sum / self.fb_window_received
        };
        let interval = self
            .cfg
            .feedback_interval
            .expect("feedback timer without interval");
        let goodput = self.fb_window_bytes as f64 * 8.0 / interval.as_secs_f64();
        self.fb_seq += 1;
        ctx.send(SendSpec {
            dst: self.cfg.server,
            flow: self.cfg.up_flow,
            size: FEEDBACK_PACKET_BYTES,
            dscp: Dscp::BEST_EFFORT,
            proto: Proto::Udp,
            fragment: None,
            payload: StreamPayload::Feedback(FeedbackReport {
                seq: self.fb_seq,
                loss_fraction: loss,
                mean_delay,
                goodput_bps: goodput,
            }),
        });
        // Reset the window; the next window's base is the highest seen so
        // far so in-flight reordering across the boundary is tolerated.
        self.fb_window_first_seq = self.fb_window_highest_seq.map(|h| h + 1);
        self.fb_window_highest_seq = None;
        self.fb_window_received = 0;
        self.fb_window_bytes = 0;
        self.fb_window_delay_sum = SimDuration::ZERO;
    }

    /// Produce the final report (call after the simulation has run).
    pub fn report(&self) -> ClientReport {
        let n = self.cfg.frames as usize;
        let mut received = vec![false; n];
        let mut arrival: Vec<Option<SimTime>> = vec![None; n];
        let mut fidelity = vec![1.0f64; n];
        match &self.cfg.mode {
            ClientMode::Udp => {
                for (idx, asm) in self.assemblies.iter().enumerate() {
                    let Some(asm) = asm else { continue };
                    if let Some(t) = asm.complete_at {
                        if idx < n {
                            received[idx] = true;
                            arrival[idx] = Some(t);
                            fidelity[idx] = asm.fidelity;
                        }
                    }
                }
            }
            ClientMode::Tcp { fidelities, .. } => {
                for i in 0..n {
                    if let Some(t) = self.tcp_complete_at[i] {
                        received[i] = true;
                        arrival[i] = Some(t);
                    }
                    if i < fidelities.len() {
                        fidelity[i] = fidelities[i];
                    }
                }
            }
        }
        // Decode-dependency pass.
        let meta: Vec<EncodedFrame> = (0..self.cfg.frames)
            .map(|i| EncodedFrame {
                index: i,
                kind: (self.cfg.kind_fn)(i),
                bytes: 0,
                fidelity: fidelity[i as usize],
            })
            .collect();
        let decodable = decodable_frames(&meta, &received);
        let playable: Vec<Option<SimTime>> = (0..n)
            .map(|i| if decodable[i] { arrival[i] } else { None })
            .collect();
        let playback = playback_schedule(&playable, &self.cfg.playback);
        ClientReport {
            received,
            decodable,
            arrival,
            fidelity,
            playback,
            packets_received: self.packets_received,
            bytes_received: self.bytes_received,
            features: self.extractor.finish(),
        }
    }
}

/// Everything the quality pipeline needs from a finished session.
#[derive(Debug, Clone)]
pub struct ClientReport {
    /// Per frame: all chunks arrived.
    pub received: Vec<bool>,
    /// Per frame: decodable given GOP dependencies.
    pub decodable: Vec<bool>,
    /// Per frame: completion time, if complete.
    pub arrival: Vec<Option<SimTime>>,
    /// Per frame: encoding fidelity of the received rendition.
    pub fidelity: Vec<f64>,
    /// Renderer emulation output.
    pub playback: PlaybackResult,
    /// Total media packets received.
    pub packets_received: u64,
    /// Total media bytes received.
    pub bytes_received: u64,
    /// Flow-level features extracted on the delivery path — the input to
    /// the QoE proxy (see `dsv-vqm`'s `qoe` module).
    pub features: FlowFeatures,
}

impl ClientReport {
    /// The paper's frame-loss metric: fraction of presentation slots that
    /// showed stale content.
    pub fn frame_loss_fraction(&self) -> f64 {
        self.playback.frame_loss_fraction()
    }
}

impl Application<StreamPayload> for StreamClient {
    fn on_start(&mut self, ctx: &mut AppCtx<StreamPayload>) {
        // MMS-style session setup.
        ctx.send(SendSpec {
            dst: self.cfg.server,
            flow: self.cfg.up_flow,
            size: CONTROL_PACKET_BYTES,
            dscp: Dscp::BEST_EFFORT,
            proto: Proto::Tcp,
            fragment: None,
            payload: StreamPayload::Control(ControlMsg::Describe),
        });
        if let Some(iv) = self.cfg.feedback_interval {
            ctx.set_timer(iv, TOK_FEEDBACK);
        }
    }

    fn on_packet(&mut self, ctx: &mut AppCtx<StreamPayload>, pkt: Packet<StreamPayload>) {
        let now = ctx.now();
        let delay = pkt.age(now);
        match pkt.payload {
            StreamPayload::Media(chunk) => self.on_media(now, chunk, pkt.size, delay),
            StreamPayload::Tcp(seg) => self.on_tcp(ctx, now, seg, pkt.size, delay),
            StreamPayload::Control(ControlMsg::DescribeReply { .. }) => {
                if !self.described {
                    self.described = true;
                    ctx.send(SendSpec {
                        dst: self.cfg.server,
                        flow: self.cfg.up_flow,
                        size: CONTROL_PACKET_BYTES,
                        dscp: Dscp::BEST_EFFORT,
                        proto: Proto::Tcp,
                        fragment: None,
                        payload: StreamPayload::Control(ControlMsg::Play),
                    });
                }
            }
            StreamPayload::Control(_) | StreamPayload::Feedback(_) | StreamPayload::Background => {}
        }
    }

    fn on_timer(&mut self, ctx: &mut AppCtx<StreamPayload>, token: u64) {
        if token == TOK_FEEDBACK {
            self.send_feedback(ctx);
            if let Some(iv) = self.cfg.feedback_interval {
                ctx.set_timer(iv, TOK_FEEDBACK);
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use dsv_media::encoder::mpeg1;
    use dsv_media::frame::presentation_time;

    fn cfg(frames: u32) -> ClientConfig {
        ClientConfig {
            server: NodeId(0),
            up_flow: FlowId(9),
            frames,
            kind_fn: mpeg1::frame_kind,
            playback: PlaybackConfig::default(),
            feedback_interval: None,
            mode: ClientMode::Udp,
            media_rate_bps: 1_000_000,
        }
    }

    fn media_pkt(seq: u64, frame: u32, chunk: u16, of: u16) -> Packet<StreamPayload> {
        Packet {
            id: dsv_net::packet::PacketId(seq),
            flow: FlowId(1),
            src: NodeId(0),
            dst: NodeId(1),
            size: 1500,
            dscp: Dscp::EF,
            proto: Proto::Udp,
            fragment: None,
            sent_at: SimTime::ZERO,
            payload: StreamPayload::Media(MediaChunk {
                seq,
                frame_index: frame,
                chunk,
                chunks_in_frame: of,
                repair: false,
                fidelity: 0.9,
            }),
        }
    }

    #[test]
    fn frame_completes_when_all_chunks_arrive() {
        let mut c = StreamClient::new(cfg(24));
        let mut ctx = AppCtx::new(presentation_time(0), NodeId(1));
        c.on_packet(&mut ctx, media_pkt(0, 0, 0, 2));
        let r = c.report();
        assert!(!r.received[0], "half a frame is not a frame");
        let mut ctx = AppCtx::new(presentation_time(1), NodeId(1));
        c.on_packet(&mut ctx, media_pkt(1, 0, 1, 2));
        let r = c.report();
        assert!(r.received[0]);
        assert_eq!(r.arrival[0], Some(presentation_time(1)));
        assert!((r.fidelity[0] - 0.9).abs() < 1e-12);
    }

    #[test]
    fn duplicate_chunks_are_idempotent() {
        let mut c = StreamClient::new(cfg(24));
        let mut ctx = AppCtx::new(SimTime::ZERO, NodeId(1));
        c.on_packet(&mut ctx, media_pkt(0, 0, 0, 2));
        c.on_packet(&mut ctx, media_pkt(0, 0, 0, 2));
        assert!(!c.report().received[0]);
    }

    #[test]
    fn report_applies_gop_dependencies() {
        let mut c = StreamClient::new(cfg(24));
        // Deliver all frames except frame 0 (the I frame).
        for f in 1..24u32 {
            let mut ctx = AppCtx::new(presentation_time(f), NodeId(1));
            c.on_packet(&mut ctx, media_pkt(f as u64, f, 0, 1));
        }
        let r = c.report();
        assert!(!r.received[0]);
        // GOP 0 is undecodable; GOP 1 (frames 12..) decodes.
        for i in 0..12 {
            assert!(!r.decodable[i], "frame {i}");
        }
        for i in 12..24 {
            assert!(r.decodable[i], "frame {i}");
        }
    }

    #[test]
    fn feedback_reports_loss() {
        let mut cfg = cfg(100);
        cfg.feedback_interval = Some(SimDuration::from_secs(1));
        let mut c = StreamClient::new(cfg);
        let mut ctx = AppCtx::new(SimTime::from_millis(100), NodeId(1));
        // Receive seqs 0..10 but skip 3 and 7 (two lost of 10).
        for s in 0..10u64 {
            if s == 3 || s == 7 {
                continue;
            }
            c.on_packet(&mut ctx, media_pkt(s, s as u32, 0, 1));
        }
        let mut ctx = AppCtx::new(SimTime::from_secs(1), NodeId(1));
        c.on_timer(&mut ctx, TOK_FEEDBACK);
        let cmds = ctx.take_commands();
        let fb = cmds
            .iter()
            .find_map(|c| match c {
                dsv_net::app::AppCommand::Send(s) => match &s.payload {
                    StreamPayload::Feedback(f) => Some(*f),
                    _ => None,
                },
                _ => None,
            })
            .expect("feedback sent");
        assert!(
            (fb.loss_fraction - 0.2).abs() < 1e-9,
            "{}",
            fb.loss_fraction
        );
    }

    #[test]
    fn tcp_mode_completes_frames_in_order() {
        let frame_bytes = vec![1000u32, 2000, 1500];
        let mut cfg = cfg(3);
        cfg.mode = ClientMode::Tcp {
            frame_bytes,
            fidelities: vec![0.8, 0.8, 0.8],
        };
        let mut c = StreamClient::new(cfg);
        let seg = |seq: u64, len: u32| Packet {
            id: dsv_net::packet::PacketId(seq),
            flow: FlowId(1),
            src: NodeId(0),
            dst: NodeId(1),
            size: len + 28,
            dscp: Dscp::EF,
            proto: Proto::Tcp,
            fragment: None,
            sent_at: SimTime::ZERO,
            payload: StreamPayload::Tcp(TcpSegment {
                seq,
                len,
                ack: 0,
                is_ack: false,
            }),
        };
        let mut ctx = AppCtx::new(SimTime::from_millis(10), NodeId(1));
        c.on_packet(&mut ctx, seg(0, 1448));
        // ACK goes back.
        assert!(ctx.pending_commands() > 0);
        let r = c.report();
        assert!(r.received[0], "frame 0 (1000 B) inside first segment");
        assert!(!r.received[1]);
        let mut ctx = AppCtx::new(SimTime::from_millis(20), NodeId(1));
        c.on_packet(&mut ctx, seg(1448, 1448));
        c.on_packet(&mut ctx, seg(2896, 1448));
        let r = c.report();
        assert!(r.received[1], "frame 1 ends at 3000 ≤ 4344 delivered");
        assert!(!r.received[2], "frame 2 ends at 4500 > 4344 delivered");
        let mut ctx = AppCtx::new(SimTime::from_millis(30), NodeId(1));
        c.on_packet(&mut ctx, seg(4344, 156));
        let r = c.report();
        assert!(r.received[2]);
        assert_eq!(r.arrival[2], Some(SimTime::from_millis(30)));
    }

    /// Frame completion times with a cursor equal a rescan of every frame
    /// end on each segment, under reordering and duplicates.
    #[test]
    fn tcp_frame_completion_matches_a_full_rescan() {
        let frame_bytes: Vec<u32> = (0..200).map(|i| 300 + (i * 7919) % 5_000).collect();
        let total: u64 = frame_bytes.iter().map(|&b| u64::from(b)).sum();
        let mut cfg = cfg(200);
        cfg.mode = ClientMode::Tcp {
            frame_bytes: frame_bytes.clone(),
            fidelities: vec![0.8; 200],
        };
        let mut c = StreamClient::new(cfg);
        let mut reference = TcpReceiver::new();
        let mut expected: Vec<Option<SimTime>> = vec![None; 200];
        // MSS segments, each pair swapped and every fifth sent twice.
        let mut segs: Vec<(u64, u32)> = (0..total.div_ceil(1448))
            .map(|k| (k * 1448, (total - k * 1448).min(1448) as u32))
            .collect();
        for pair in segs.chunks_mut(2) {
            pair.reverse();
        }
        let order = segs
            .iter()
            .enumerate()
            .flat_map(|(i, &s)| std::iter::repeat_n(s, if i % 5 == 0 { 2 } else { 1 }));
        for (i, (seq, len)) in order.enumerate() {
            let now = SimTime::from_millis(i as u64);
            let mut ctx = AppCtx::new(now, NodeId(1));
            c.on_packet(
                &mut ctx,
                Packet {
                    id: dsv_net::packet::PacketId(i as u64),
                    flow: FlowId(1),
                    src: NodeId(0),
                    dst: NodeId(1),
                    size: len + 28,
                    dscp: Dscp::EF,
                    proto: Proto::Tcp,
                    fragment: None,
                    sent_at: SimTime::ZERO,
                    payload: StreamPayload::Tcp(TcpSegment {
                        seq,
                        len,
                        ack: 0,
                        is_ack: false,
                    }),
                },
            );
            let delivered = reference.on_segment(seq, len);
            let mut end = 0u64;
            for (frame, &bytes) in frame_bytes.iter().enumerate() {
                end += u64::from(bytes);
                if end <= delivered && expected[frame].is_none() {
                    expected[frame] = Some(now);
                }
            }
            assert_eq!(c.tcp_complete_at, expected, "after segment {i}");
        }
        assert!(expected.iter().all(Option::is_some));
    }

    #[test]
    fn report_carries_flow_features() {
        let mut c = StreamClient::new(cfg(24));
        // Deliver seqs 0,1,3 (one lost) as single-chunk frames.
        for &s in &[0u64, 1, 3] {
            let mut ctx = AppCtx::new(presentation_time(s as u32), NodeId(1));
            c.on_packet(&mut ctx, media_pkt(s, s as u32, 0, 1));
        }
        let f = c.report().features;
        assert_eq!(f.packets, 3);
        assert_eq!(f.target_bps, 1_000_000);
        assert_eq!(f.lost_packets, 1);
        assert_eq!(f.loss_runs, 1);
        assert!((f.loss_fraction - 0.25).abs() < 1e-12);
    }

    #[test]
    fn report_sizes_match_config() {
        let c = StreamClient::new(cfg(50));
        let r = c.report();
        assert_eq!(r.received.len(), 50);
        assert_eq!(r.playback.displayed.len(), 50);
        assert!(r.playback.total_failure);
        assert_eq!(r.frame_loss_fraction(), 1.0);
    }
}
