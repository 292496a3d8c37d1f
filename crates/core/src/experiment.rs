//! Experiment plumbing shared by both testbeds: configurations, the
//! outcome record, and the media glue that builds the reference and
//! displayed feature streams [`crate::qoe::score_session`] compares.

use dsv_media::encoder::EncodedClip;
use dsv_media::features::{encode_features, FeatureFrame};
use dsv_media::scene::{ClipId, SceneModel};
use dsv_net::stats::FlowCounters;
use dsv_sim::SimDuration;
use dsv_stream::client::ClientReport;
use serde::{Deserialize, Serialize};

use crate::qoe::QoeEstimate;

/// The EF service profile under test: the paper's two independent
/// variables.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub struct EfProfile {
    /// Token rate, bits per second.
    pub token_rate_bps: u64,
    /// Token bucket depth, bytes (the paper tests 3000 and 4500).
    pub bucket_depth_bytes: u32,
}

impl EfProfile {
    /// Convenience constructor.
    pub fn new(token_rate_bps: u64, bucket_depth_bytes: u32) -> EfProfile {
        EfProfile {
            token_rate_bps,
            bucket_depth_bytes,
        }
    }
}

/// The two bucket depths used throughout the paper.
pub const DEPTH_2MTU: u32 = 3000;
/// See [`DEPTH_2MTU`].
pub const DEPTH_3MTU: u32 = 4500;

/// What a single streaming run produced — one point on a paper figure.
#[derive(Debug, Clone, Default, Serialize, Deserialize)]
pub struct RunOutcome {
    /// VQM score against the same encoding (paper's first experiment set):
    /// 0 best, 1 worst.
    pub quality: f64,
    /// VQM score against the 1.7 Mbps reference encoding, when computed
    /// (paper's second experiment set).
    pub quality_vs_best: Option<f64>,
    /// Fraction of presentation slots showing stale content.
    pub frame_loss: f64,
    /// Fraction of media packets lost in the network.
    pub packet_loss: f64,
    /// Packets dropped by policers.
    pub policer_drops: u64,
    /// Packets dropped by queue overflow.
    pub queue_drops: u64,
    /// Packets dropped by shaper overflow.
    pub shaper_drops: u64,
    /// Media packets delivered.
    pub rx_packets: u64,
    /// Mean one-way delay of delivered media packets, milliseconds.
    pub mean_delay_ms: f64,
    /// Longest freeze run, frames.
    pub longest_freeze: usize,
    /// VQM segments that failed temporal calibration.
    pub failed_segments: usize,
    /// The adaptive server's collapse count (0 for other servers).
    pub collapses: u32,
    /// True if the session broke down entirely.
    pub broken: bool,
}

impl RunOutcome {
    /// Assemble from the pieces every testbed produces. The quality
    /// fields come from [`crate::qoe::score_session`]; everything else is
    /// transport-level fact.
    pub fn assemble(
        report: &ClientReport,
        media_flow: &FlowCounters,
        score: &QoeEstimate,
        shaper_drops: u64,
        collapses: u32,
        broken: bool,
    ) -> RunOutcome {
        RunOutcome {
            quality: score.quality,
            quality_vs_best: score.quality_vs_best,
            frame_loss: report.frame_loss_fraction(),
            packet_loss: media_flow.loss_fraction(),
            policer_drops: media_flow.drops_for(dsv_net::packet::DropReason::PolicerNonConformant),
            queue_drops: media_flow.drops_for(dsv_net::packet::DropReason::QueueOverflow),
            shaper_drops,
            rx_packets: media_flow.rx_packets,
            mean_delay_ms: media_flow.delay.mean().as_millis_f64(),
            longest_freeze: report.playback.longest_freeze,
            failed_segments: score.failed_segments,
            collapses,
            broken,
        }
    }
}

/// The per-frame features a decoder would produce for an encoded clip:
/// source content degraded by each frame's encoding fidelity. This is the
/// **reference** stream for same-encoding comparisons and the building
/// block for received streams.
pub fn encoded_features(model: &SceneModel, clip: &EncodedClip) -> Vec<FeatureFrame> {
    model
        .source_features()
        .iter()
        .zip(&clip.frames)
        .map(|(s, f)| encode_features(*s, f.fidelity))
        .collect()
}

/// Build the *received/displayed* feature stream from a client report
/// and the clip's source features: what the emulated renderer put on
/// screen, with each displayed frame carrying the fidelity it was
/// actually received at.
///
/// This is [`dsv_media::features::displayed_stream`] over every source
/// frame encoded at its received fidelity, built in one pass: it encodes
/// only the frames shown and the frames whose motion a freeze
/// accumulates, with the same arithmetic in the same order, so every
/// frame is bit-identical.
pub fn received_features_from(source: &[FeatureFrame], report: &ClientReport) -> Vec<FeatureFrame> {
    let encoded =
        |i: usize| encode_features(source[i], report.fidelity.get(i).copied().unwrap_or(1.0));
    let displayed = &report.playback.displayed;
    let mut out = Vec::with_capacity(displayed.len());
    let mut prev_shown: Option<u32> = None;
    for &src_idx in displayed {
        let mut f = encoded(src_idx as usize);
        match prev_shown {
            None => {}
            Some(p) if p == src_idx => f.ti = 0.0,
            Some(p) => {
                let lo = (p.min(src_idx) + 1) as usize;
                let hi = (src_idx.max(p) as usize).min(source.len() - 1);
                let sum_sq: f64 = (lo..=hi)
                    .map(|i| {
                        let ti = encoded(i).ti;
                        ti * ti
                    })
                    .sum();
                f.ti = sum_sq.sqrt();
            }
        }
        out.push(f);
        prev_shown = Some(src_idx);
    }
    out
}

/// Standard experiment durations: the clip length plus margin for the
/// session handshake, buffering and stragglers.
pub fn run_horizon(clip: ClipId) -> SimDuration {
    let frames = clip.frames() as u64;
    let clip_len =
        dsv_media::frame::presentation_time(frames as u32).saturating_since(dsv_sim::SimTime::ZERO);
    clip_len + SimDuration::from_secs(30)
}

#[cfg(test)]
mod tests {
    use super::*;
    use dsv_media::encoder::mpeg1;
    use dsv_media::features::displayed_stream;
    use dsv_vqm::Vqm;

    #[test]
    fn encoded_features_cover_clip() {
        let model = ClipId::Lost.model();
        let clip = mpeg1::encode(&model, 1_700_000);
        let f = encoded_features(&model, &clip);
        assert_eq!(f.len(), 2150);
        // Encoding at 1.7M keeps most detail.
        let src = model.source_features();
        for (a, b) in f.iter().zip(&src) {
            assert!(a.si <= b.si);
            assert!(a.si > 0.5 * b.si);
        }
    }

    #[test]
    fn higher_rate_reference_scores_lower_rate_encoding_worse_than_itself() {
        // The crux of the paper's second experiment set: against the 1.7M
        // reference, an unimpaired 1.0M stream scores worse than an
        // unimpaired 1.7M stream does.
        let model = ClipId::Lost.model();
        let best = encoded_features(&model, &mpeg1::encode(&model, 1_700_000));
        let low = encoded_features(&model, &mpeg1::encode(&model, 1_000_000));
        let vqm = Vqm::default();
        let self_score = vqm.score_streams(&best, &best).overall;
        let cross = vqm.score_streams(&best, &low).overall;
        assert!(self_score < 1e-9);
        assert!(
            cross > 0.02 && cross < 0.35,
            "encoding gap should be modest: {cross}"
        );
    }

    #[test]
    fn received_features_match_the_displayed_stream_of_every_frame_bit_for_bit() {
        use dsv_stream::playback::PlaybackResult;
        let model = ClipId::Lost.model();
        let source = model.source_features();
        let n = source.len() as u32;
        // Fidelities for a prefix of the clip only: the rest default to 1.
        let fidelity: Vec<f64> = (0..n - 7).map(|i| 0.3 + f64::from(i % 11) * 0.06).collect();
        let schedules: [Vec<u32>; 4] = [
            (0..n).collect(),
            // Freezes (repeats), skips over lost frames, and a step back.
            [0, 0, 0, 1, 5, 5, 6, 40, 39, 41, n - 2, n - 1, n - 1].to_vec(),
            (0..n).step_by(3).collect(),
            Vec::new(),
        ];
        for displayed in schedules {
            let report = ClientReport {
                received: vec![true; n as usize],
                decodable: vec![true; n as usize],
                arrival: vec![None; n as usize],
                fidelity: fidelity.clone(),
                playback: PlaybackResult {
                    displayed: displayed.clone(),
                    start: dsv_sim::SimTime::ZERO,
                    repeats: 0,
                    longest_freeze: 0,
                    total_failure: false,
                },
                packets_received: 0,
                bytes_received: 0,
            };
            let every_frame: Vec<FeatureFrame> = source
                .iter()
                .enumerate()
                .map(|(i, s)| encode_features(*s, fidelity.get(i).copied().unwrap_or(1.0)))
                .collect();
            let bits = |frames: &[FeatureFrame]| -> Vec<[u64; 5]> {
                frames
                    .iter()
                    .map(|f| [f.si, f.ti, f.y_mean, f.chroma, f.fidelity].map(f64::to_bits))
                    .collect()
            };
            assert_eq!(
                bits(&received_features_from(&source, &report)),
                bits(&displayed_stream(&every_frame, &displayed)),
                "{displayed:?}"
            );
        }
    }

    #[test]
    fn run_horizon_covers_clip() {
        assert!(run_horizon(ClipId::Lost).as_secs_f64() > 71.74);
        assert!(run_horizon(ClipId::Dark).as_secs_f64() > 140.77);
    }
}
