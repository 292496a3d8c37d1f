//! MPEG-1 constant-bit-rate encoder model.
//!
//! The QBone experiments streamed MPEG-1 encodings of the clips at constant
//! bit rates of 1.0, 1.5 and 1.7 Mbps (320×240). This model reproduces the
//! *externally visible* properties of those encodings — the properties the
//! network and the quality tool can observe:
//!
//! * a classic GOP structure (N = 12, M = 3: `I BB P BB P BB P BB`), with
//!   I/P/B frame-size ratios typical of MPEG-1;
//! * per-frame sizes modulated by scene complexity, under a VBV-style
//!   feedback controller that holds the long-run rate at the CBR target —
//!   so totals and average frame sizes land on the paper's Table 2, while
//!   1-second windowed rates fluctuate around the target by roughly ±20 %
//!   exactly as Table 2's max/min columns show;
//! * per-frame encoding *fidelity* — the fewer bits per unit of content
//!   complexity, the lower the fidelity — which drives the VQM comparisons
//!   against the high-rate reference (paper §4.1, second experiment set).

use crate::encoder::MIN_RATE_BPS;
use crate::frame::{fps, EncodedFrame, FrameKind};
use crate::scene::SceneModel;

/// GOP length (frames per I-frame).
pub const GOP_N: u32 = 12;
/// Anchor spacing (1 I/P every M frames; M−1 B frames between).
pub const GOP_M: u32 = 3;

/// Relative bit-cost weights of the three picture types.
const W_I: f64 = 5.0;
const W_P: f64 = 2.2;
const W_B: f64 = 1.0;

/// Rate at which this content is visually transparent (drives fidelity).
const TRANSPARENT_BPS: u64 = 1_900_000;

/// An encoded clip: the frame sequence plus summary of the encode.
#[derive(Debug, Clone)]
pub struct EncodedClip {
    /// Display-order frames.
    pub frames: Vec<EncodedFrame>,
    /// The CBR target, bits per second.
    pub target_bps: u64,
    /// Codec label for reports.
    pub codec: &'static str,
}

impl EncodedClip {
    /// Total encoded bytes.
    pub fn total_bytes(&self) -> u64 {
        self.frames.iter().map(|f| f.bytes as u64).sum()
    }

    /// Mean encoded frame size in bytes.
    pub fn mean_frame_bytes(&self) -> f64 {
        self.total_bytes() as f64 / self.frames.len() as f64
    }

    /// Clip duration in seconds.
    pub fn duration_secs(&self) -> f64 {
        self.frames.len() as f64 / fps()
    }

    /// Long-run average rate, bits per second.
    pub fn average_bps(&self) -> f64 {
        self.total_bytes() as f64 * 8.0 / self.duration_secs()
    }

    /// Mean fidelity across frames (1 = transparent).
    pub fn mean_fidelity(&self) -> f64 {
        self.frames.iter().map(|f| f.fidelity).sum::<f64>() / self.frames.len() as f64
    }
}

/// Picture type of display-order frame `index` under the N=12/M=3 pattern.
pub fn frame_kind(index: u32) -> FrameKind {
    let pos = index % GOP_N;
    if pos == 0 {
        FrameKind::I
    } else if pos % GOP_M == 0 {
        FrameKind::P
    } else {
        FrameKind::B
    }
}

/// Encode a scene model at a CBR target.
pub fn encode(model: &SceneModel, target_bps: u64) -> EncodedClip {
    assert!(target_bps >= MIN_RATE_BPS, "unreasonably low CBR target");
    let n_frames = model.total_frames();
    let bytes_per_frame_avg = target_bps as f64 / 8.0 / fps();

    // Normalize GOP weights so one GOP at neutral complexity hits target.
    // Per GOP of 12: 1×I, 3×P, 8×B.
    let gop_weight = W_I + 3.0 * W_P + 8.0 * W_B;
    let unit = bytes_per_frame_avg * GOP_N as f64 / gop_weight;

    let mut frames = Vec::with_capacity(n_frames as usize);
    // VBV-style feedback: cumulative deviation from target, fed back into
    // the next frame's allocation.
    let mut deviation_bytes = 0.0f64;
    // Feedback stiffness: fully correct a deviation over ~0.7 s (a tight
    // VBV, as CBR transport encoders use — long-window rate wander is what
    // a policer at the average rate cannot forgive).
    let correction_window_frames = (0.7 * fps()).round();

    for i in 0..n_frames {
        let kind = frame_kind(i);
        let w = match kind {
            FrameKind::I => W_I,
            FrameKind::P => W_P,
            _ => W_B,
        };
        // Scene-complexity modulation: ±25 % around neutral.
        let c = model.complexity(i);
        let modulation = 0.75 + 0.5 * c;
        // Feedback correction.
        let correction = 1.0 - (deviation_bytes / (bytes_per_frame_avg * correction_window_frames));
        let correction = correction.clamp(0.6, 1.4);

        let ideal = unit * w * modulation;
        let bytes = (ideal * correction).round().max(64.0);

        // Fidelity: bits granted relative to an *absolute* transparency
        // demand (the rate at which this content becomes visually
        // transparent at 320×240, ~1.9 Mbps). Tuned so 1.7 Mbps is
        // near-transparent (~0.95) and 1.0 Mbps visibly quantized (~0.8),
        // matching the modest encoding-quality differences the paper
        // observed between its three rates.
        let transparent_unit = TRANSPARENT_BPS as f64 / 8.0 / fps() * GOP_N as f64 / gop_weight;
        let demand = transparent_unit * w * (0.55 + 0.9 * c);
        let fidelity = (bytes / demand).min(1.0).powf(0.35).clamp(0.05, 1.0);

        deviation_bytes += bytes - bytes_per_frame_avg;
        frames.push(EncodedFrame {
            index: i,
            kind,
            bytes: bytes as u32,
            fidelity,
        });
    }

    EncodedClip {
        frames,
        target_bps,
        codec: "MPEG-1",
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::scene::ClipId;

    #[test]
    fn gop_pattern() {
        let kinds: Vec<FrameKind> = (0..13).map(frame_kind).collect();
        use FrameKind::*;
        assert_eq!(kinds, vec![I, B, B, P, B, B, P, B, B, P, B, B, I]);
    }

    #[test]
    fn cbr_totals_match_table2_lost() {
        // Paper Table 2 (Lost): 1.7M -> 15,276,442 B; 1.5M -> 13,453,779;
        // 1.0M -> 8,970,075. Our CBR controller should land within 2 %.
        let model = ClipId::Lost.model();
        for (target, expect) in [
            (1_700_000u64, 15_276_442f64),
            (1_500_000, 13_453_779.0),
            (1_000_000, 8_970_075.0),
        ] {
            let clip = encode(&model, target);
            let total = clip.total_bytes() as f64;
            let err = (total - expect).abs() / expect;
            assert!(
                err < 0.02,
                "target {target}: {total} vs paper {expect} ({:.1} %)",
                err * 100.0
            );
        }
    }

    #[test]
    fn cbr_totals_match_table2_dark() {
        let model = ClipId::Dark.model();
        for (target, expect) in [(1_700_000u64, 29_975_812f64), (1_500_000, 26_399_218.0)] {
            let clip = encode(&model, target);
            let total = clip.total_bytes() as f64;
            let err = (total - expect).abs() / expect;
            assert!(
                err < 0.02,
                "target {target}: {total} vs paper {expect} ({:.1} %)",
                err * 100.0
            );
        }
    }

    #[test]
    fn average_frame_sizes_match_table2() {
        // Paper: avg frame sizes ~7101 B (1.7M), ~6253 (1.5M), ~4168 (1M).
        let clip = encode(&ClipId::Lost.model(), 1_700_000);
        assert!((clip.mean_frame_bytes() - 7101.0).abs() < 150.0);
        let clip = encode(&ClipId::Lost.model(), 1_000_000);
        assert!((clip.mean_frame_bytes() - 4168.0).abs() < 100.0);
    }

    #[test]
    fn i_frames_are_biggest() {
        let clip = encode(&ClipId::Lost.model(), 1_500_000);
        let mean_of = |k: FrameKind| {
            let v: Vec<f64> = clip
                .frames
                .iter()
                .filter(|f| f.kind == k)
                .map(|f| f.bytes as f64)
                .collect();
            v.iter().sum::<f64>() / v.len() as f64
        };
        let i = mean_of(FrameKind::I);
        let p = mean_of(FrameKind::P);
        let b = mean_of(FrameKind::B);
        assert!(i > 1.5 * p, "I {i} vs P {p}");
        assert!(p > 1.5 * b, "P {p} vs B {b}");
    }

    #[test]
    fn higher_rate_higher_fidelity() {
        let lo = encode(&ClipId::Lost.model(), 1_000_000).mean_fidelity();
        let hi = encode(&ClipId::Lost.model(), 1_700_000).mean_fidelity();
        assert!(hi > lo, "hi {hi} lo {lo}");
        assert!(hi > 0.9, "1.7 Mbps should be near-transparent: {hi}");
        assert!(lo > 0.6, "1.0 Mbps should still be watchable: {lo}");
    }

    #[test]
    fn deterministic() {
        let a = encode(&ClipId::Lost.model(), 1_500_000);
        let b = encode(&ClipId::Lost.model(), 1_500_000);
        assert_eq!(a.frames, b.frames);
    }

    #[test]
    #[should_panic(expected = "unreasonably low")]
    fn rejects_tiny_target() {
        encode(&ClipId::Lost.model(), 1_000);
    }
}
