//! # dsv-vqm — objective video quality measurement
//!
//! A reduced-reference objective quality model in the architecture of the
//! ITS Video Quality Measurement tool (ANSI T1.801.03-1996) that the paper
//! used for all its assessments:
//!
//! 1. extract quality **features** from reference and received frames
//!    (done upstream in `dsv-media` — SI/TI/luma/chroma streams);
//! 2. **temporally calibrate** received segments against the reference
//!    within an alignment-uncertainty window ([`calibration`]);
//! 3. compute perception-based **parameters** from the aligned windows
//!    ([`params`]);
//! 4. combine them into a **composite score** per segment ([`score`]),
//!    where 0 is perfect, 1 the worst subjective grade, and scores may
//!    exceed 1 for distortions outside the subjective corpus (paper
//!    footnote 7);
//! 5. segment extended clips (300-frame segments, 100-frame overlap) and
//!    **average** segment scores, scoring failed calibrations as 1.0
//!    (paper §3.1.3).
//!
//! The headline API is [`Vqm::score_streams`]. A [`Reference`] is a
//! reference stream scored many times: each of its segments is scored
//! against the reference itself at most once, and a received segment the
//! network left intact takes that score instead of being aligned again.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod calibration;
pub mod params;
pub mod score;

use std::ops::Deref;
use std::sync::OnceLock;

use dsv_media::features::FeatureFrame;

use calibration::{align, Calibration};
use params::{extract, QualityParams};
use score::{composite, Weights};

/// Configuration of the measurement pipeline.
#[derive(Debug, Clone)]
pub struct VqmConfig {
    /// Frames per segment (paper: 300 = 10 s).
    pub segment_frames: usize,
    /// Overlap between consecutive segments (paper: 100).
    pub overlap_frames: usize,
    /// Alignment-uncertainty search range, frames (paper: the overlap).
    pub alignment_uncertainty: usize,
    /// Minimum correlation for calibration to succeed.
    pub calibration_threshold: f64,
    /// Score assigned to segments whose calibration fails (paper: 1.0,
    /// the worst subjective grade).
    pub failed_segment_score: f64,
    /// Composite weights.
    pub weights: Weights,
}

impl Default for VqmConfig {
    fn default() -> Self {
        VqmConfig {
            segment_frames: 300,
            overlap_frames: 100,
            alignment_uncertainty: 100,
            calibration_threshold: 0.35,
            failed_segment_score: 1.0,
            weights: Weights::default(),
        }
    }
}

/// Per-segment outcome.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct SegmentScore {
    /// First frame of the segment.
    pub start: usize,
    /// Composite score of the segment.
    pub score: f64,
    /// Whether temporal calibration succeeded.
    pub calibrated: bool,
    /// Alignment offset found (0 when failed).
    pub offset: i32,
    /// Parameters (zeroed when calibration failed).
    pub params: QualityParams,
}

/// Overall result for a clip.
#[derive(Debug, Clone)]
pub struct VqmResult {
    /// Mean of the per-segment scores — the number the paper plots.
    pub overall: f64,
    /// Segment detail.
    pub segments: Vec<SegmentScore>,
    /// How many segments failed calibration.
    pub failed_segments: usize,
    /// How many segments the network left intact: their received scoring
    /// window is bit-identical to the reference's, so they took the
    /// reference's own score and were not aligned.
    pub intact_segments: usize,
}

/// The measurement tool.
#[derive(Debug, Clone, Default)]
pub struct Vqm {
    /// Pipeline configuration.
    pub config: VqmConfig,
}

/// One lazily filled cell per segment: the segment's score against the
/// reference itself.
type SelfScores = [OnceLock<SegmentScore>];

impl Vqm {
    /// Create with a configuration.
    pub fn new(config: VqmConfig) -> Vqm {
        Vqm { config }
    }

    /// Score a received feature stream against a reference stream.
    ///
    /// Both streams are indexed by presentation slot; they must have equal
    /// length (the renderer model always produces one displayed frame per
    /// slot). This is [`Reference::score`] with self-score cells that
    /// live only for the call; a reference scored many times should be a
    /// [`Reference`], which keeps them.
    pub fn score_streams(
        &self,
        reference: &[FeatureFrame],
        received: &[FeatureFrame],
    ) -> VqmResult {
        let self_scores = self.self_score_cells(reference.len());
        self.score_against(reference, &self_scores, received)
    }

    /// Empty self-score cells, one per segment of an `n`-frame stream.
    fn self_score_cells(&self, n: usize) -> Box<SelfScores> {
        let cfg = &self.config;
        let segments = match n {
            0 => 0,
            // Short clip: one segment covering everything.
            n if n < cfg.segment_frames => 1,
            n => (n - cfg.segment_frames) / (cfg.segment_frames - cfg.overlap_frames) + 1,
        };
        (0..segments).map(|_| OnceLock::new()).collect()
    }

    /// The scorer: every segment whose received scoring window is
    /// bit-identical to the reference's takes its cell of `self_scores`
    /// (filled on first use), and every other segment is aligned and
    /// compared. Exact, because a segment's [`SegmentScore`] depends only
    /// on the whole reference and the received scoring window.
    fn score_against(
        &self,
        reference: &[FeatureFrame],
        self_scores: &SelfScores,
        received: &[FeatureFrame],
    ) -> VqmResult {
        assert_eq!(
            reference.len(),
            received.len(),
            "reference and received must cover the same slots"
        );
        let n = reference.len();
        let cfg = &self.config;
        if n == 0 {
            return VqmResult {
                overall: cfg.failed_segment_score,
                segments: Vec::new(),
                failed_segments: 0,
                intact_segments: 0,
            };
        }

        let stride = cfg.segment_frames - cfg.overlap_frames;
        let mut intact = 0;
        // The TI profiles the searches read, refilled for each aligned
        // segment.
        let mut ti = Vec::new();
        let segments: Vec<SegmentScore> = self_scores
            .iter()
            .enumerate()
            .map(|(k, self_score)| {
                let start = k * stride;
                let end = (start + cfg.segment_frames).min(n);
                // The scoring window is the middle of the segment (after
                // the overlap margin used for alignment); for short clips
                // it is the whole segment.
                let (w_lo, w_hi) = if end - start > 2 * cfg.overlap_frames {
                    (start + cfg.overlap_frames, end - cfg.overlap_frames)
                } else {
                    (start, end)
                };
                let window = &received[w_lo..w_hi];
                let ref_window = &reference[w_lo..w_hi];
                if same_bits(window, ref_window) {
                    intact += 1;
                    *self_score.get_or_init(|| {
                        self.score_segment(reference, ref_window, start, w_lo, &mut ti)
                    })
                } else {
                    self.score_segment(reference, window, start, w_lo, &mut ti)
                }
            })
            .collect();

        let failed = segments.iter().filter(|s| !s.calibrated).count();
        let overall = segments.iter().map(|s| s.score).sum::<f64>() / segments.len() as f64;
        VqmResult {
            overall,
            segments,
            failed_segments: failed,
            intact_segments: intact,
        }
    }

    /// Score the segment that starts at frame `start`: align its received
    /// scoring window `window` (frames `w_lo..`) against the reference's
    /// TI profile, copied into `ti` with the window's, then compare the
    /// aligned windows.
    fn score_segment(
        &self,
        reference: &[FeatureFrame],
        window: &[FeatureFrame],
        start: usize,
        w_lo: usize,
        ti: &mut Vec<f64>,
    ) -> SegmentScore {
        let cfg = &self.config;
        let uncertainty = cfg.alignment_uncertainty;
        // The search reaches `uncertainty` frames either side of the
        // window, clipped at the stream's edges.
        let lo = w_lo.saturating_sub(uncertainty);
        let hi = (w_lo + window.len() + uncertainty).min(reference.len());
        ti.clear();
        ti.extend(reference[lo..hi].iter().chain(window).map(|f| f.ti));
        let (ref_ti, rec_ti) = ti.split_at(hi - lo);
        match align(
            rec_ti,
            ref_ti,
            w_lo - lo,
            uncertainty,
            cfg.calibration_threshold,
        ) {
            Calibration::Failed => SegmentScore {
                start,
                score: cfg.failed_segment_score,
                calibrated: false,
                offset: 0,
                params: QualityParams::default(),
            },
            Calibration::Aligned { offset, .. } => {
                let ref_lo = (w_lo as i64 + offset as i64) as usize;
                let p = extract(&reference[ref_lo..ref_lo + window.len()], window);
                SegmentScore {
                    start,
                    score: composite(&p, &cfg.weights),
                    calibrated: true,
                    offset,
                    params: p,
                }
            }
        }
    }
}

/// Whether two windows hold the same bits in all five features.
fn same_bits(a: &[FeatureFrame], b: &[FeatureFrame]) -> bool {
    fn bits(f: &FeatureFrame) -> [u64; 5] {
        let FeatureFrame {
            si,
            ti,
            y_mean,
            chroma,
            fidelity,
        } = *f;
        [si, ti, y_mean, chroma, fidelity].map(f64::to_bits)
    }
    a.iter().zip(b).all(|(x, y)| bits(x) == bits(y))
}

/// A reference feature stream that is scored many times, with each of
/// its segments' scores against itself.
///
/// A segment's [`SegmentScore`] depends only on the whole reference and
/// on the received scoring window, so a received window bit-identical to
/// the reference's scores exactly as the reference scores against itself.
/// [`Reference::score`] takes such a segment from its cell, filling the
/// cell the first time any scoring needs it, and aligns only the segments
/// the network changed. Building a reference scores nothing, and the
/// cells are shared by every thread that holds it.
///
/// It dereferences to its frames.
#[derive(Debug)]
pub struct Reference {
    vqm: Vqm,
    frames: Vec<FeatureFrame>,
    self_scores: Box<SelfScores>,
}

impl Reference {
    /// A reference of `frames` scored by `vqm`, with no segment scored.
    pub fn new(vqm: Vqm, frames: Vec<FeatureFrame>) -> Reference {
        let self_scores = vqm.self_score_cells(frames.len());
        Reference {
            vqm,
            frames,
            self_scores,
        }
    }

    /// Score a received feature stream against this reference, as
    /// [`Vqm::score_streams`] does.
    pub fn score(&self, received: &[FeatureFrame]) -> VqmResult {
        self.vqm
            .score_against(&self.frames, &self.self_scores, received)
    }

    /// How many segments have been scored against the reference itself
    /// so far.
    pub fn self_scored_segments(&self) -> usize {
        self.self_scores
            .iter()
            .filter(|cell| cell.get().is_some())
            .count()
    }
}

impl Deref for Reference {
    type Target = [FeatureFrame];

    fn deref(&self) -> &[FeatureFrame] {
        &self.frames
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use dsv_media::features::displayed_stream;
    use dsv_media::scene::ClipId;

    fn reference() -> Vec<FeatureFrame> {
        // The Lost clip's source features are a realistic reference.
        ClipId::Lost.model().source_features()
    }

    #[test]
    fn pristine_stream_scores_zero() {
        let r = reference();
        let v = Vqm::default();
        let res = v.score_streams(&r, &r);
        assert_eq!(res.failed_segments, 0);
        assert!(res.overall < 1e-9, "overall {}", res.overall);
        // Lost: 2150 frames -> segments at stride 200 while s+300<=2150:
        // floor((2150-300)/200)+1 = 10.
        assert_eq!(res.segments.len(), 10);
    }

    #[test]
    fn sparse_losses_score_mildly() {
        let r = reference();
        // Lose ~1% of slots (repeat previous frame).
        let displayed: Vec<u32> = (0..r.len() as u32)
            .map(|i| if i % 97 == 5 && i > 0 { i - 1 } else { i })
            .collect();
        let rec = displayed_stream(&r, &displayed);
        let res = Vqm::default().score_streams(&r, &rec);
        assert_eq!(res.failed_segments, 0, "sparse loss must still calibrate");
        assert!(
            res.overall > 0.03 && res.overall < 0.4,
            "overall {}",
            res.overall
        );
    }

    #[test]
    fn heavy_freezing_fails_calibration() {
        let r = reference();
        // Freeze 20-second stretches: show frame 0 for the first 600
        // slots, then frame 600, etc.
        let displayed: Vec<u32> = (0..r.len() as u32).map(|i| (i / 600) * 600).collect();
        let rec = displayed_stream(&r, &displayed);
        let res = Vqm::default().score_streams(&r, &rec);
        assert!(
            res.failed_segments >= res.segments.len() / 2,
            "failed {}/{}",
            res.failed_segments,
            res.segments.len()
        );
        assert!(res.overall > 0.8, "overall {}", res.overall);
    }

    #[test]
    fn more_loss_scores_worse() {
        let r = reference();
        let lose_every = |k: u32| -> f64 {
            let displayed: Vec<u32> = {
                let mut last = 0u32;
                (0..r.len() as u32)
                    .map(|i| {
                        if i % k == 1 {
                            last
                        } else {
                            last = i;
                            i
                        }
                    })
                    .collect()
            };
            let rec = displayed_stream(&r, &displayed);
            Vqm::default().score_streams(&r, &rec).overall
        };
        let light = lose_every(100);
        let medium = lose_every(20);
        let heavy = lose_every(4);
        assert!(light < medium, "light {light} medium {medium}");
        assert!(medium < heavy, "medium {medium} heavy {heavy}");
    }

    #[test]
    fn encoding_degradation_scores_between_zero_and_loss() {
        use dsv_media::features::encode_features;
        let r = reference();
        let rec: Vec<FeatureFrame> = r.iter().map(|&f| encode_features(f, 0.8)).collect();
        let res = Vqm::default().score_streams(&r, &rec);
        assert_eq!(res.failed_segments, 0);
        assert!(
            res.overall > 0.02 && res.overall < 0.35,
            "encoding-only distortion {}",
            res.overall
        );
    }

    #[test]
    fn short_clip_single_segment() {
        let r: Vec<FeatureFrame> = reference()[..150].to_vec();
        let res = Vqm::default().score_streams(&r, &r);
        assert_eq!(res.segments.len(), 1);
        assert!(res.overall < 1e-9);
    }

    #[test]
    fn empty_streams_are_worst() {
        let res = Vqm::default().score_streams(&[], &[]);
        assert_eq!(res.overall, 1.0);
    }

    #[test]
    fn single_frame_clip_is_bounded() {
        // One slot: no full segment fits, so the whole clip becomes one
        // short segment. Scores must stay finite and in range for both a
        // perfect and an impaired rendition.
        let r = vec![FeatureFrame::neutral()];
        let mut bad = r.clone();
        bad[0].si = 5.0;
        bad[0].fidelity = 0.2;
        for rec in [&r, &bad] {
            let res = Vqm::default().score_streams(&r, rec);
            assert_eq!(res.segments.len(), 1);
            assert!(res.overall.is_finite(), "overall {}", res.overall);
            assert!(
                (0.0..=score::MAX_SCORE).contains(&res.overall),
                "overall {}",
                res.overall
            );
        }
    }

    #[test]
    fn zero_variance_streams_never_produce_nan() {
        // A perfectly flat clip (ti = 0 everywhere) has no temporal
        // structure to align on: correlation is undefined, calibration
        // fails, and every segment takes the failed-segment score — but
        // nothing divides by the zero variance.
        let flat = vec![FeatureFrame::neutral(); 400];
        let res = Vqm::default().score_streams(&flat, &flat);
        assert!(res.overall.is_finite(), "overall {}", res.overall);
        assert!((0.0..=score::MAX_SCORE).contains(&res.overall));
        assert_eq!(
            res.failed_segments,
            res.segments.len(),
            "flat clips cannot calibrate"
        );
        for seg in &res.segments {
            assert!(seg.score.is_finite());
        }
    }

    #[test]
    fn all_frames_dropped_scores_worst_without_panicking() {
        // Total failure: every slot repeats frame 0. The renderer model
        // produces a frozen feature stream; the score saturates high and
        // stays finite.
        let r = reference();
        let displayed: Vec<u32> = vec![0; r.len()];
        let rec = displayed_stream(&r, &displayed);
        let res = Vqm::default().score_streams(&r, &rec);
        assert!(res.overall.is_finite(), "overall {}", res.overall);
        assert!(
            res.overall > 0.8,
            "all-dropped clip must score near worst: {}",
            res.overall
        );
        assert!(res.overall <= score::MAX_SCORE);
    }

    /// Every field of two results, compared bit for bit.
    fn assert_same(a: &VqmResult, b: &VqmResult) {
        assert_eq!(a.overall.to_bits(), b.overall.to_bits());
        assert_eq!(a.segments, b.segments);
        assert_eq!(a.failed_segments, b.failed_segments);
        assert_eq!(a.intact_segments, b.intact_segments);
    }

    #[test]
    fn a_reference_scores_nothing_until_asked_and_each_segment_once() {
        let r = reference();
        let shared = Reference::new(Vqm::default(), r.clone());
        assert_eq!(shared.self_scored_segments(), 0, "building scores nothing");
        assert_eq!(shared.len(), r.len(), "it dereferences to its frames");
        // One lost slot inside the third segment's scoring window
        // (frames 500..600): only that segment is aligned.
        let displayed: Vec<u32> = (0..r.len() as u32)
            .map(|i| if i == 550 { 549 } else { i })
            .collect();
        let rec = displayed_stream(&r, &displayed);
        let first = shared.score(&rec);
        assert_eq!(first.intact_segments, 9);
        assert_eq!(shared.self_scored_segments(), 9);
        assert!(first.overall > 0.0);
        assert_same(&first, &Vqm::default().score_streams(&r, &rec));
        assert_same(&shared.score(&rec), &first);
        let pristine = shared.score(&r);
        assert_eq!(pristine.intact_segments, 10);
        assert_eq!(shared.self_scored_segments(), 10);
        assert_same(&pristine, &Vqm::default().score_streams(&r, &r));
    }

    #[test]
    fn a_change_in_any_feature_is_not_intact() {
        let r = reference();
        let shared = Reference::new(Vqm::default(), r.clone());
        let touches: [fn(&mut FeatureFrame); 5] = [
            |f| f.si += 1e-9,
            |f| f.ti += 1e-9,
            |f| f.y_mean += 1e-9,
            |f| f.chroma += 1e-9,
            |f| f.fidelity -= 1e-9,
        ];
        for touch in touches {
            // Frame 150 lies in the first segment's scoring window.
            let mut rec = r.clone();
            touch(&mut rec[150]);
            let res = shared.score(&rec);
            assert_eq!(res.intact_segments, 9);
            assert_same(&res, &Vqm::default().score_streams(&r, &rec));
        }
        // Equal as numbers is not equal as bits.
        let mut zeroed = r.clone();
        zeroed[150].chroma = 0.0;
        let mut rec = zeroed.clone();
        rec[150].chroma = -0.0;
        let res = Reference::new(Vqm::default(), zeroed.clone()).score(&rec);
        assert_eq!(res.intact_segments, 9);
        assert_same(&res, &Vqm::default().score_streams(&zeroed, &rec));
    }

    #[test]
    #[should_panic(expected = "same slots")]
    fn mismatched_lengths_panic() {
        let r = reference();
        Vqm::default().score_streams(&r, &r[..100]);
    }
}
