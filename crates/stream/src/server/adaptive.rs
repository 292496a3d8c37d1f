//! The adaptive (Windows-Media-style) streaming server.
//!
//! WMT monitors the connection through client receiver reports and adapts.
//! The paper found that under EF policing this adaptation *misfires*:
//! "the fact that delivered packets experienced small delays seems to have
//! been interpreted by the server as an indication that sufficient
//! bandwidth was available. As a result, the adaptation mechanism reacted
//! to the loss of packets (because of policing) by forcing the server to
//! increase its data rate to make up for the losses. This in turn resulted
//! in further packet losses followed by yet other rate increases until
//! performance got so poor that the server would back down to very low
//! transmission rates. This cycle would repeat a number of times, until
//! the client decided to break the connection" (§4).
//!
//! The model: a paced sender whose drain is *boosted* by a
//! loss-compensation factor (repair traffic). Feedback showing loss with
//! low delay raises the boost; sustained heavy loss collapses the session
//! to the lowest encoding tier for a hold-off period; repeated collapses
//! break the connection. With multiple encodings available (multi-rate
//! WMV), collapse also steps the tier down.

use std::sync::Arc;

use dsv_media::encoder::EncodedClip;
use dsv_net::app::{AppCtx, Application, SendSpec};
use dsv_net::packet::{Dscp, FlowId, NodeId, Packet, Proto};
use dsv_sim::{SimDuration, SimTime};

use crate::check_ladder;
use crate::packetize::{frame_chunks, ChunkSpec};
use crate::payload::{ControlMsg, FeedbackReport, MediaChunk, StreamPayload, CONTROL_PACKET_BYTES};
use crate::server::{read_time, Pacer, TOK_FRAME, TOK_RESUME, TOK_TICK};

/// Adaptation parameters (defaults reproduce the paper's description).
#[derive(Debug, Clone)]
pub struct AdaptiveConfig {
    /// Destination client.
    pub client: NodeId,
    /// Media flow id.
    pub flow: FlowId,
    /// DSCP pre-marking of media packets.
    pub dscp: Dscp,
    /// Pacing window — WMT's UDP output was burstier than Video Charger's,
    /// so the default is a shorter window than [`super::paced`] uses.
    pub smoothing: SimDuration,
    /// Release-timer granularity.
    pub tick: SimDuration,
    /// Pacing floor.
    pub min_rate_bps: u64,
    /// Loss above this (with low delay) triggers compensation.
    pub loss_compensate_threshold: f64,
    /// Delay below which loss is misread as "bandwidth available".
    pub low_delay_threshold: SimDuration,
    /// Loss above this triggers a collapse.
    pub collapse_threshold: f64,
    /// Consecutive bad reports before collapsing.
    pub collapse_reports: u32,
    /// How long a collapsed session stays quiet before resuming.
    pub collapse_holdoff: SimDuration,
    /// Collapses tolerated before the session is declared broken.
    pub max_collapses: u32,
    /// Wait for `Play`.
    pub wait_for_play: bool,
}

impl AdaptiveConfig {
    /// Defaults per the paper's qualitative description.
    pub fn new(client: NodeId, flow: FlowId, dscp: Dscp) -> AdaptiveConfig {
        AdaptiveConfig {
            client,
            flow,
            dscp,
            smoothing: SimDuration::from_millis(150),
            tick: SimDuration::from_millis(10),
            min_rate_bps: 150_000,
            loss_compensate_threshold: 0.01,
            low_delay_threshold: SimDuration::from_millis(150),
            collapse_threshold: 0.30,
            collapse_reports: 3,
            collapse_holdoff: SimDuration::from_secs(2),
            max_collapses: 4,
            wait_for_play: true,
        }
    }
}

/// The adaptive server application.
pub struct AdaptiveServer {
    cfg: AdaptiveConfig,
    /// Encoding tiers, lowest rate first, shared with whoever encoded
    /// them.
    tiers: Vec<Arc<EncodedClip>>,
    tier: usize,
    pacer: Pacer,
    next_frame: u32,
    seq: u64,
    play_start: Option<SimTime>,
    /// Loss-compensation boost (≥ 1; 1 = no repair traffic).
    boost: f64,
    bad_reports: u32,
    /// Collapsed until this time, if set.
    paused_until: Option<SimTime>,
    /// Collapse history.
    pub collapses: u32,
    /// True once the session broke (client or server gave up).
    pub broken: bool,
    /// Diagnostics.
    pub packets_sent: u64,
    /// Diagnostics: repair packets among them.
    pub repair_sent: u64,
    /// Boost trajectory: `(time, boost)` samples at each feedback event
    /// (drives the death-spiral ablation plot).
    pub boost_trace: Vec<(SimTime, f64)>,
    /// Reused per-tick chunk buffer (keeps the tick timer allocation-free).
    chunk_buf: Vec<ChunkSpec>,
}

impl AdaptiveServer {
    /// Create with one or more encoding tiers (lowest rate first).
    ///
    /// # Panics
    /// Panics if the tiers' rates break [`check_ladder`].
    pub fn new(cfg: AdaptiveConfig, tiers: Vec<Arc<EncodedClip>>) -> AdaptiveServer {
        let rates: Vec<u64> = tiers.iter().map(|t| t.target_bps).collect();
        check_ladder(&rates).unwrap_or_else(|e| panic!("{e}"));
        let pacer = Pacer::new(cfg.smoothing, cfg.min_rate_bps);
        let tier = tiers.len() - 1; // start optimistic: highest quality
        AdaptiveServer {
            cfg,
            tiers,
            tier,
            pacer,
            next_frame: 0,
            seq: 0,
            play_start: None,
            boost: 1.0,
            chunk_buf: Vec::new(),
            bad_reports: 0,
            paused_until: None,
            collapses: 0,
            broken: false,
            packets_sent: 0,
            repair_sent: 0,
            boost_trace: Vec::new(),
        }
    }

    /// Current tier's nominal rate (diagnostics).
    pub fn current_tier_bps(&self) -> u64 {
        self.tiers[self.tier].target_bps
    }

    fn frames_len(&self) -> usize {
        self.tiers[self.tier].frames.len()
    }

    fn begin(&mut self, ctx: &mut AppCtx<StreamPayload>) {
        if self.play_start.is_some() {
            return;
        }
        self.play_start = Some(ctx.now());
        ctx.set_timer(SimDuration::ZERO, TOK_FRAME);
        ctx.set_timer(self.cfg.tick, TOK_TICK);
    }

    fn on_feedback(&mut self, ctx: &mut AppCtx<StreamPayload>, fb: FeedbackReport) {
        if self.broken || self.play_start.is_none() {
            return;
        }
        let now = ctx.now();
        if fb.loss_fraction >= self.cfg.collapse_threshold {
            self.bad_reports += 1;
            if self.bad_reports >= self.cfg.collapse_reports {
                self.collapse(ctx);
            }
        } else {
            self.bad_reports = 0;
            if fb.loss_fraction > self.cfg.loss_compensate_threshold
                && fb.mean_delay < self.cfg.low_delay_threshold
            {
                // The misinterpretation: low delay + loss = "room to push".
                // Compensate for the losses by sending repair traffic.
                self.boost = (self.boost * (1.0 + 1.5 * fb.loss_fraction)).min(3.0);
            } else if fb.loss_fraction <= self.cfg.loss_compensate_threshold / 2.0 {
                // Healthy: decay the overhead.
                self.boost = (self.boost * 0.9).max(1.0);
            }
        }
        self.boost_trace.push((now, self.boost));
    }

    fn collapse(&mut self, ctx: &mut AppCtx<StreamPayload>) {
        self.collapses += 1;
        self.bad_reports = 0;
        self.boost = 1.0;
        self.pacer.clear();
        if self.collapses >= self.cfg.max_collapses {
            // "…until the client decided to break the connection."
            self.broken = true;
            self.paused_until = None;
            return;
        }
        if self.tier > 0 {
            self.tier -= 1;
        }
        let until = ctx.now() + self.cfg.collapse_holdoff;
        self.paused_until = Some(until);
        ctx.set_timer(self.cfg.collapse_holdoff, TOK_RESUME);
    }

    fn read_frames_due(&mut self, now: SimTime) {
        if self.paused_until.is_some() || self.broken {
            return;
        }
        let start = self.play_start.expect("begin() ran");
        while (self.next_frame as usize) < self.frames_len()
            && read_time(start, self.next_frame) <= now
        {
            let f = self.tiers[self.tier].frames[self.next_frame as usize];
            for c in frame_chunks(&f) {
                self.pacer.push(c);
            }
            self.next_frame += 1;
        }
    }

    fn send_tick(&mut self, ctx: &mut AppCtx<StreamPayload>) {
        if self.broken {
            return;
        }
        if self.paused_until.is_some() {
            return;
        }
        let mut chunks = std::mem::take(&mut self.chunk_buf);
        self.pacer.tick_into(self.cfg.tick, self.boost, &mut chunks);
        // The boost drains the buffer faster than real time; the surplus
        // slots carry repair packets so the *wire* rate rises by the boost
        // factor, as the paper describes.
        let repair_per_data = self.boost - 1.0;
        let mut repair_credit = 0.0f64;
        for &c in chunks.iter() {
            let fidelity = self.tiers[self.tier].frames[c.frame_index as usize].fidelity;
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
            repair_credit += repair_per_data;
            while repair_credit >= 1.0 {
                repair_credit -= 1.0;
                let seq = self.seq;
                self.seq += 1;
                self.packets_sent += 1;
                self.repair_sent += 1;
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
                        repair: true,
                        fidelity,
                    }),
                });
            }
        }
        self.chunk_buf = chunks;
    }

    fn done(&self) -> bool {
        self.broken || (self.next_frame as usize >= self.frames_len() && self.pacer.is_empty())
    }
}

impl Application<StreamPayload> for AdaptiveServer {
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
                        frames: self.frames_len() as u32,
                        nominal_bps: self.current_tier_bps(),
                    }),
                });
            }
            StreamPayload::Control(ControlMsg::Play) => self.begin(ctx),
            StreamPayload::Control(ControlMsg::Teardown) => {
                self.broken = true;
                self.pacer.clear();
            }
            StreamPayload::Feedback(fb) => self.on_feedback(ctx, fb),
            _ => {}
        }
    }

    fn on_timer(&mut self, ctx: &mut AppCtx<StreamPayload>, token: u64) {
        match token {
            TOK_FRAME => {
                if self.broken {
                    return;
                }
                if self.paused_until.is_some() {
                    // TOK_RESUME restarts the read loop after the hold-off;
                    // rescheduling here would spin at the current instant.
                    return;
                }
                self.read_frames_due(ctx.now());
                if (self.next_frame as usize) < self.frames_len() {
                    let start = self.play_start.expect("playing");
                    let next_at = read_time(start, self.next_frame);
                    ctx.set_timer(next_at.saturating_since(ctx.now()), TOK_FRAME);
                }
            }
            TOK_TICK => {
                self.send_tick(ctx);
                if !self.done() {
                    ctx.set_timer(self.cfg.tick, TOK_TICK);
                }
            }
            TOK_RESUME => {
                if let Some(until) = self.paused_until {
                    if ctx.now() >= until && !self.broken {
                        self.paused_until = None;
                        // Skip the frames whose read time passed during the
                        // pause (live streaming does not rewind): enqueue
                        // them, then discard.
                        self.read_frames_due(ctx.now());
                        self.pacer.clear(); // resume fresh at the new tier
                                            // Restart the read loop for the remaining frames.
                        if (self.next_frame as usize) < self.frames_len() {
                            let start = self.play_start.expect("playing");
                            let next_at = read_time(start, self.next_frame);
                            ctx.set_timer(next_at.saturating_since(ctx.now()), TOK_FRAME);
                        }
                    }
                }
            }
            _ => {}
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use dsv_media::encoder::wmv;
    use dsv_media::scene::ClipId;

    fn mk(tiers: Vec<EncodedClip>) -> AdaptiveServer {
        AdaptiveServer::new(
            AdaptiveConfig::new(NodeId(0), FlowId(1), Dscp::EF),
            tiers.into_iter().map(Arc::new).collect(),
        )
    }

    fn fb(loss: f64, delay_ms: u64) -> FeedbackReport {
        FeedbackReport {
            seq: 0,
            loss_fraction: loss,
            mean_delay: SimDuration::from_millis(delay_ms),
            goodput_bps: 500_000.0,
        }
    }

    fn feed(s: &mut AdaptiveServer, report: FeedbackReport, at_ms: u64) {
        let mut ctx = AppCtx::new(SimTime::from_millis(at_ms), NodeId(9));
        s.play_start = Some(SimTime::ZERO);
        s.on_feedback(&mut ctx, report);
    }

    #[test]
    fn low_delay_loss_raises_boost() {
        let clip = wmv::encode(&ClipId::Lost.model(), wmv::PAPER_CAP_BPS);
        let mut s = mk(vec![clip]);
        assert_eq!(s.boost, 1.0);
        feed(&mut s, fb(0.05, 10), 1000);
        assert!(s.boost > 1.0, "boost {}", s.boost);
        let b1 = s.boost;
        feed(&mut s, fb(0.08, 10), 2000);
        assert!(s.boost > b1, "spiral continues: {}", s.boost);
    }

    #[test]
    fn high_delay_loss_does_not_boost() {
        let clip = wmv::encode(&ClipId::Lost.model(), wmv::PAPER_CAP_BPS);
        let mut s = mk(vec![clip]);
        feed(&mut s, fb(0.05, 500), 1000);
        assert_eq!(s.boost, 1.0, "congestion-like loss must not boost");
    }

    #[test]
    fn healthy_reports_decay_boost() {
        let clip = wmv::encode(&ClipId::Lost.model(), wmv::PAPER_CAP_BPS);
        let mut s = mk(vec![clip]);
        feed(&mut s, fb(0.10, 10), 1000);
        let peak = s.boost;
        for i in 0..30 {
            feed(&mut s, fb(0.0, 10), 2000 + i * 1000);
        }
        assert!(s.boost < peak);
        assert!(
            (s.boost - 1.0).abs() < 0.05,
            "boost decays to 1: {}",
            s.boost
        );
    }

    #[test]
    fn sustained_heavy_loss_collapses_then_breaks() {
        let lo = wmv::encode(&ClipId::Lost.model(), 300_000);
        let hi = wmv::encode(&ClipId::Lost.model(), wmv::PAPER_CAP_BPS);
        let mut s = mk(vec![lo, hi]);
        assert_eq!(s.current_tier_bps(), wmv::PAPER_CAP_BPS);
        let mut t = 1000;
        // Three bad reports -> collapse 1 (tier down).
        for _ in 0..3 {
            feed(&mut s, fb(0.5, 10), t);
            t += 1000;
        }
        assert_eq!(s.collapses, 1);
        assert_eq!(s.current_tier_bps(), 300_000);
        assert!(s.paused_until.is_some());
        // Keep hammering: collapses 2, 3, 4 -> broken.
        for _ in 0..9 {
            feed(&mut s, fb(0.6, 10), t);
            t += 1000;
        }
        assert!(s.broken, "after {} collapses", s.collapses);
        assert_eq!(s.collapses, 4);
    }

    #[test]
    #[should_panic(expected = "sorted by rate")]
    fn tiers_must_be_sorted() {
        let hi = wmv::encode(&ClipId::Lost.model(), wmv::PAPER_CAP_BPS);
        let lo = wmv::encode(&ClipId::Lost.model(), 300_000);
        mk(vec![hi, lo]);
    }
}
