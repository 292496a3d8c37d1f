//! The paced (Video-Charger-style) streaming server.
//!
//! Reads the encoded clip in real time into a send buffer and drains it
//! through a `Pacer`: small messages (one packet each),
//! smooth transmission whose rate tracks the clip's windowed rate. This is
//! the server used for all QBone experiments; packets are pre-marked with
//! the EF code point exactly as the remote Video Charger pre-marked them
//! (paper §3.2.2).
//!
//! The pacer runs on an OS-timer tick ([`TICK`]), and before each tick the
//! server reads every frame due by then. The server ignores feedback, so
//! nothing the network does reaches that loop: which ticks send, counted
//! from `Play`, and how many packets each releases depend on the encoding
//! alone. A [`PacingPlan`] runs the loop once per encoding and records
//! just that; it holds no packets, because the pacer is FIFO and they are
//! the encoding's [`frame_chunks`] in order. A server replays a shared
//! plan: it wakes only at the ticks that send, and at each wake-up (and at
//! `Play`) it sends every packet the plan schedules before its send
//! horizon ([`AppCtx::send_horizon`]: nothing can reach it before then),
//! each at its own tick's instant ([`AppCtx::send_at`]). Then it sets its
//! one timer for the first sending tick past the horizon. The timer is
//! stamped as filed one tick before it falls due
//! ([`AppCtx::set_timer_filed_at`]), where a timer per tick would have
//! been filed, so it sorts against every event filed at any other instant
//! exactly as that tick would have (DESIGN.md §6b, "Paced servers wake
//! only to send" and "Paced servers send ahead within their inbound
//! lookahead"). A `Teardown` ends the replay, dropping the rest of the
//! send buffer; while one is in flight the horizon is the wake-up itself,
//! so the server wakes at every sending tick until it lands.

use std::sync::Arc;

use dsv_media::encoder::EncodedClip;
use dsv_net::app::{AppCtx, Application, SendSpec};
use dsv_net::packet::{Dscp, FlowId, NodeId, Packet, Proto};
use dsv_sim::{SimDuration, SimTime};

use crate::check_ladder;
use crate::packetize::{frame_chunk, frame_chunks};
use crate::payload::{ControlMsg, MediaChunk, StreamPayload, CONTROL_PACKET_BYTES};
use crate::server::{read_time, Pacer, TOK_TICK};

/// OS timer granularity: packets due within a tick leave back-to-back.
/// Frames due at a tick's instant are read before it.
pub const TICK: SimDuration = SimDuration::from_millis(5);
/// Pacing low-pass window (larger = smoother output).
pub const SMOOTHING: SimDuration = SimDuration::from_millis(250);
/// Pacing floor, bits per second.
pub const MIN_RATE_BPS: u64 = 200_000;

/// Paced-server configuration. The pacing itself is the Video Charger's
/// ([`TICK`], [`SMOOTHING`], [`MIN_RATE_BPS`]), fixed in the server's
/// [`PacingPlan`].
#[derive(Debug, Clone)]
pub struct PacedConfig {
    /// Destination client.
    pub client: NodeId,
    /// Media flow id.
    pub flow: FlowId,
    /// DSCP the server pre-marks on media packets.
    pub dscp: Dscp,
    /// If true, wait for the client's `Play` before streaming; otherwise
    /// start immediately.
    pub wait_for_play: bool,
}

impl PacedConfig {
    /// A server that streams to `client` on `flow`, marking `dscp`, once
    /// the client asks it to play.
    pub fn new(client: NodeId, flow: FlowId, dscp: Dscp) -> PacedConfig {
        PacedConfig {
            client,
            flow,
            dscp,
            wait_for_play: true,
        }
    }
}

/// When a paced server sends, for one encoding: each tick that releases
/// packets, counted from `Play`, and how many packets it releases.
///
/// [`PacingPlan::new`] runs the server's read-and-pace loop over the whole
/// clip, as the server would with `Play` at time zero. One plan serves
/// every server of that encoding, whatever policer follows it: a sweep
/// builds it once per encoding and shares it (`Arc`).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct PacingPlan {
    frames: usize,
    steps: Vec<Step>,
}

/// One entry of a plan, two bytes: `chunks` packets leave `gap` ticks
/// after the previous entry's tick (after `Play`, for the first). A
/// sending tick is one entry while it releases at most 255 packets, as
/// on every committed encoding; a larger release continues in entries
/// with gap 0. The gap always fits: a buffer that holds a packet gains
/// at least 125 bytes of allowance a tick at the [`MIN_RATE_BPS`] floor,
/// so its head (at most 1500 bytes) leaves within 12 ticks, and an empty
/// buffer gets the next frame within 7.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
struct Step {
    gap: u8,
    chunks: u8,
}

impl PacingPlan {
    /// Pace `clip`: tick by tick from `Play`, read every frame due by the
    /// tick, then drain the send buffer through the pacer, until the clip
    /// is read and the buffer empty.
    pub fn new(clip: &EncodedClip) -> PacingPlan {
        let frames = &clip.frames;
        let mut pacer = Pacer::new(SMOOTHING, MIN_RATE_BPS);
        let mut released = Vec::new();
        let mut steps = Vec::new();
        let mut next_frame = 0;
        let mut at = SimTime::ZERO;
        let mut gap = 0u64;
        while next_frame < frames.len() || !pacer.is_empty() {
            at += TICK;
            gap += 1;
            while next_frame < frames.len() && read_time(SimTime::ZERO, next_frame as u32) <= at {
                for c in frame_chunks(&frames[next_frame]) {
                    pacer.push(c);
                }
                next_frame += 1;
            }
            pacer.tick_into(TICK, 1.0, &mut released);
            if !released.is_empty() {
                push_steps(&mut steps, gap, released.len());
                gap = 0;
            }
        }
        steps.shrink_to_fit();
        PacingPlan {
            frames: frames.len(),
            steps,
        }
    }

    /// The first sending tick at or after entry `from`: the ticks from the
    /// previous one (or from `Play`), the packets it releases, and the
    /// entry after it. `None` once the plan is spent.
    fn next_send(&self, mut from: usize) -> Option<(u64, usize, usize)> {
        let (mut ticks, mut chunks) = (0, 0);
        while let Some(step) = self.steps.get(from) {
            if chunks > 0 && step.gap > 0 {
                break;
            }
            ticks += u64::from(step.gap);
            chunks += usize::from(step.chunks);
            from += 1;
        }
        (chunks > 0).then_some((ticks, chunks, from))
    }
}

/// Append the entries of one sending tick, `gap` ticks after the previous.
fn push_steps(steps: &mut Vec<Step>, gap: u64, mut chunks: usize) {
    let mut gap = u8::try_from(gap).expect("a paced server sends at least every 19 ticks");
    while chunks > 0 {
        let now = chunks.min(usize::from(u8::MAX));
        steps.push(Step {
            gap,
            chunks: now as u8,
        });
        chunks -= now;
        gap = 0;
    }
}

/// The tier a multi-rate server streams, from its tiers' nominal rates
/// (ascending): the highest that fits within `estimate_bps`, or the lowest
/// when none fits. Errs on a ladder that breaks [`check_ladder`].
pub fn multi_rate_tier(rates_bps: &[u64], estimate_bps: u64) -> Result<usize, &'static str> {
    check_ladder(rates_bps)?;
    Ok(rates_bps
        .iter()
        .rposition(|&rate| rate <= estimate_bps)
        .unwrap_or(0))
}

/// The paced server application.
pub struct PacedServer {
    cfg: PacedConfig,
    clip: Arc<EncodedClip>,
    plan: Arc<PacingPlan>,
    /// The plan entry after the next sending tick.
    step: usize,
    /// The next sending tick: when it falls due, and the packets it sends
    /// (none once the plan is spent or torn down).
    due_at: SimTime,
    due: usize,
    /// The next packet to send: its frame, and its chunk in that frame.
    frame: u32,
    chunk: u16,
    seq: u64,
    started: bool,
}

impl PacedServer {
    /// Create a multi-rate server: given several encodings of the same
    /// content (sorted by rate), serve the highest one whose nominal rate
    /// fits within `bandwidth_estimate_bps` ([`multi_rate_tier`]). The
    /// paper notes its MPEG servers lacked this ("we expect such a
    /// capability to be available in future MPEG servers"); this
    /// constructor is that future server.
    ///
    /// # Panics
    /// Panics if `tiers` is empty or unsorted by rate.
    pub fn new_multi_rate(
        cfg: PacedConfig,
        tiers: &[EncodedClip],
        bandwidth_estimate_bps: u64,
    ) -> PacedServer {
        let rates: Vec<u64> = tiers.iter().map(|t| t.target_bps).collect();
        let chosen =
            multi_rate_tier(&rates, bandwidth_estimate_bps).unwrap_or_else(|e| panic!("{e}"));
        PacedServer::unshared(cfg, &tiers[chosen])
    }

    /// A server that paces its own copy of `clip`.
    pub fn unshared(cfg: PacedConfig, clip: &EncodedClip) -> PacedServer {
        let plan = Arc::new(PacingPlan::new(clip));
        PacedServer::new(cfg, Arc::new(clip.clone()), plan)
    }

    /// A server that streams `clip` as `plan`, the clip's
    /// [`PacingPlan`], schedules it.
    ///
    /// # Panics
    /// Panics if `plan` paces a clip with another frame count.
    pub fn new(cfg: PacedConfig, clip: Arc<EncodedClip>, plan: Arc<PacingPlan>) -> PacedServer {
        assert_eq!(
            plan.frames,
            clip.frames.len(),
            "the pacing plan paces another clip"
        );
        PacedServer {
            cfg,
            clip,
            plan,
            step: 0,
            due_at: SimTime::ZERO,
            due: 0,
            frame: 0,
            chunk: 0,
            seq: 0,
            started: false,
        }
    }

    /// Nominal rate of the encoding being served (diagnostics).
    pub fn nominal_bps(&self) -> u64 {
        self.clip.target_bps
    }

    fn begin(&mut self, ctx: &mut AppCtx<StreamPayload>) {
        if !self.started {
            self.started = true;
            self.due_at = ctx.now();
            self.advance();
            self.send_window(ctx);
        }
    }

    /// Move on to the plan's next sending tick, if any.
    fn advance(&mut self) {
        match self.plan.next_send(self.step) {
            Some((ticks, chunks, next)) => {
                self.due_at += TICK.saturating_mul(ticks);
                self.due = chunks;
                self.step = next;
            }
            None => self.due = 0,
        }
    }

    /// Send the tick due now, if any, and every sending tick before the
    /// send horizon, each at its own instant; then set the wake-up for the
    /// first sending tick past it, stamped where a timer per tick would
    /// have been filed: by the tick before it.
    fn send_window(&mut self, ctx: &mut AppCtx<StreamPayload>) {
        let now = ctx.now();
        let horizon = ctx.send_horizon();
        while self.due > 0 && (self.due_at == now || self.due_at < horizon) {
            let at = self.due_at;
            for _ in 0..self.due {
                self.send_next(ctx, at);
            }
            self.advance();
        }
        if self.due > 0 {
            ctx.set_timer_filed_at(self.due_at - now, self.due_at - TICK, TOK_TICK);
        }
    }

    /// Send the next packet of the clip at `at`.
    fn send_next(&mut self, ctx: &mut AppCtx<StreamPayload>, at: SimTime) {
        let frame = &self.clip.frames[self.frame as usize];
        let c = frame_chunk(frame, self.chunk);
        if c.chunk + 1 == c.chunks_in_frame {
            self.frame += 1;
            self.chunk = 0;
        } else {
            self.chunk += 1;
        }
        let seq = self.seq;
        self.seq += 1;
        // A tick counts as filed one tick before it, where the per-tick
        // loop set its timer.
        ctx.send_at(
            at,
            at - TICK,
            SendSpec {
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
                    fidelity: frame.fidelity,
                }),
            },
        );
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
                        frames: self.clip.frames.len() as u32,
                        nominal_bps: self.clip.target_bps,
                    }),
                });
            }
            StreamPayload::Control(ControlMsg::Play) => self.begin(ctx),
            StreamPayload::Control(ControlMsg::Teardown) => {
                self.step = self.plan.steps.len();
                self.due = 0;
            }
            // The paced server has no adaptation loop: feedback ignored.
            _ => {}
        }
    }

    fn on_timer(&mut self, ctx: &mut AppCtx<StreamPayload>, token: u64) {
        if token == TOK_TICK {
            self.send_window(ctx);
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
        let server = b.add_host("server", Box::new(PacedServer::unshared(cfg, &clip)));
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
        let server = b.add_host("server", Box::new(PacedServer::unshared(cfg, &clip)));
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
    fn plan_releases_every_chunk_of_the_clip() {
        let clip = mpeg1::encode(&ClipId::Lost.model(), 1_000_000);
        let plan = PacingPlan::new(&clip);
        let chunks: usize = clip.frames.iter().map(|f| frame_chunks(f).len()).sum();
        let (mut sent, mut ticks, mut at) = (0, 0, 0);
        while let Some((gap, n, next)) = plan.next_send(at) {
            assert!(gap >= 1, "one sending tick per entry run");
            sent += n;
            ticks += 1;
            at = next;
        }
        assert_eq!(sent, chunks);
        assert_eq!(ticks, plan.steps.len(), "every gap and count fits a byte");
        assert_eq!(std::mem::size_of::<Step>(), 2);
    }

    #[test]
    fn large_releases_continue_in_entries_with_gap_zero() {
        let mut steps = Vec::new();
        push_steps(&mut steps, 3, 2);
        push_steps(&mut steps, 19, 600);
        push_steps(&mut steps, 1, 1);
        let plan = PacingPlan { frames: 0, steps };
        assert_eq!(plan.steps.len(), 5, "2, then 255 + 255 + 90, then 1");
        assert_eq!(plan.next_send(0), Some((3, 2, 1)));
        assert_eq!(plan.next_send(1), Some((19, 600, 4)));
        assert_eq!(plan.next_send(4), Some((1, 1, 5)));
        assert_eq!(plan.next_send(5), None);
    }

    #[test]
    fn waits_for_play_when_configured() {
        let clip = mpeg1::encode(&ClipId::Lost.model(), 1_000_000);
        let mut b = NetworkBuilder::new();
        let sink = b.add_host("client", Box::new(CountingSink::default()));
        let r = b.add_router("r");
        let cfg = PacedConfig::new(sink, FlowId(1), Dscp::EF_QBONE);
        let server = b.add_host("server", Box::new(PacedServer::unshared(cfg, &clip)));
        b.connect(server, r, Link::fast_ethernet());
        b.connect(r, sink, Link::fast_ethernet());
        let mut sim = Simulation::new(b.build());
        sim.run();
        // No Describe/Play ever sent (sink is silent): nothing streams.
        assert_eq!(sim.net.stats.flow(FlowId(1)).tx_packets, 0);
    }
}
