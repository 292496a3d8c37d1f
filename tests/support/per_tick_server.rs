//! The paced server's reference: the per-tick loop it replaced.
//!
//! Two timers drive it. A frame timer reads each frame into the send
//! buffer at its read time, and a tick timer drains the buffer through the
//! public `Pacer` every `tick`, whether or not the tick releases a packet.
//! At an instant both fall due, the frame timer, filed a frame period
//! earlier, fires first. `PacedServer` replays its encoding's
//! `PacingPlan`, waking only at the ticks that send and sending ahead
//! every tick before its send horizon; the tests that include this file
//! compare the two byte for byte.

use dsv_media::encoder::EncodedClip;
use dsv_media::frame::{presentation_time, EncodedFrame};
use dsv_net::app::{AppCtx, Application, SendSpec};
use dsv_net::packet::{Dscp, Packet, Proto};
use dsv_sim::{SimDuration, SimTime};
use dsv_stream::packetize::{frame_chunks, ChunkSpec};
use dsv_stream::payload::{ControlMsg, MediaChunk, StreamPayload, CONTROL_PACKET_BYTES};
use dsv_stream::server::paced::{PacedConfig, MIN_RATE_BPS, SMOOTHING, TICK};
use dsv_stream::server::Pacer;

const TOK_FRAME: u64 = 1;
const TOK_TICK: u64 = 2;

/// A paced server that dispatches every frame read and every tick.
pub struct PerTickPacedServer {
    cfg: PacedConfig,
    frames: Vec<EncodedFrame>,
    nominal_bps: u64,
    pacer: Pacer,
    next_frame: u32,
    seq: u64,
    play_start: Option<SimTime>,
}

impl PerTickPacedServer {
    /// A reference server for `clip` under `cfg`.
    pub fn new(cfg: PacedConfig, clip: &EncodedClip) -> PerTickPacedServer {
        let pacer = Pacer::new(SMOOTHING, MIN_RATE_BPS);
        PerTickPacedServer {
            cfg,
            frames: clip.frames.clone(),
            nominal_bps: clip.target_bps,
            pacer,
            next_frame: 0,
            seq: 0,
            play_start: None,
        }
    }

    fn begin(&mut self, ctx: &mut AppCtx<StreamPayload>) {
        if self.play_start.is_some() {
            return;
        }
        self.play_start = Some(ctx.now());
        ctx.set_timer(SimDuration::ZERO, TOK_FRAME);
        ctx.set_timer(TICK, TOK_TICK);
    }

    fn read_time(&self, index: u32) -> SimTime {
        let start = self.play_start.expect("playing");
        start + presentation_time(index).saturating_since(SimTime::ZERO)
    }

    fn send(&mut self, ctx: &mut AppCtx<StreamPayload>, chunks: &[ChunkSpec]) {
        for &c in chunks {
            let seq = self.seq;
            self.seq += 1;
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
                    fidelity: self.frames[c.frame_index as usize].fidelity,
                }),
            });
        }
    }

    fn done(&self) -> bool {
        self.next_frame as usize >= self.frames.len() && self.pacer.is_empty()
    }
}

impl Application<StreamPayload> for PerTickPacedServer {
    fn on_start(&mut self, ctx: &mut AppCtx<StreamPayload>) {
        if !self.cfg.wait_for_play {
            self.begin(ctx);
        }
    }

    fn on_packet(&mut self, ctx: &mut AppCtx<StreamPayload>, pkt: Packet<StreamPayload>) {
        match pkt.payload {
            StreamPayload::Control(ControlMsg::Describe) => ctx.send(SendSpec {
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
            }),
            StreamPayload::Control(ControlMsg::Play) => self.begin(ctx),
            StreamPayload::Control(ControlMsg::Teardown) => {
                self.next_frame = self.frames.len() as u32;
                self.pacer.clear();
            }
            _ => {}
        }
    }

    fn on_timer(&mut self, ctx: &mut AppCtx<StreamPayload>, token: u64) {
        let now = ctx.now();
        if token == TOK_FRAME {
            while (self.next_frame as usize) < self.frames.len()
                && self.read_time(self.next_frame) <= now
            {
                for c in frame_chunks(&self.frames[self.next_frame as usize]) {
                    self.pacer.push(c);
                }
                self.next_frame += 1;
            }
            if (self.next_frame as usize) < self.frames.len() {
                let next_at = self.read_time(self.next_frame);
                ctx.set_timer(next_at.saturating_since(now), TOK_FRAME);
            }
        } else if token == TOK_TICK {
            let chunks = self.pacer.tick(TICK, 1.0);
            self.send(ctx, &chunks);
            if !self.done() {
                ctx.set_timer(TICK, TOK_TICK);
            }
        }
    }
}
