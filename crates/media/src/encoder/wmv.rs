//! Windows-Media-style capped-VBR encoder model.
//!
//! The local-testbed experiments streamed WMV encodings. The paper's Table 3
//! shows the crucial property: "the resulting encoding produced by
//! selecting a given bandwidth value is not a constant rate encoding, and
//! instead corresponds to a maximum bandwidth value" — the *Lost* encode
//! averaged 771.7 kbps against a 1015.5 kbps cap, *Dark* 680.5 kbps. This
//! model allocates bits on demand (scene complexity) up to a per-window
//! cap, with periodic key frames and a delta-frame chain in between, and
//! near-zero audio as in the paper's setup.

use crate::encoder::mpeg1::EncodedClip;
use crate::encoder::MIN_RATE_BPS;
use crate::frame::{fps, EncodedFrame, FrameKind};
use crate::scene::SceneModel;

/// Key-frame interval in frames (8 s — Windows Media default region).
pub const KEYFRAME_INTERVAL: u32 = 240;

/// Relative cost of a key frame versus an average delta frame.
const KEY_WEIGHT: f64 = 6.0;

/// Picture type of frame `index` under the fixed key-frame schedule.
pub fn frame_kind(index: u32) -> FrameKind {
    if index % KEYFRAME_INTERVAL == 0 {
        FrameKind::I
    } else {
        FrameKind::Delta
    }
}

/// Encode a scene model at a bandwidth *cap* (the encoder's "expected
/// bit rate" setting).
pub fn encode(model: &SceneModel, cap_bps: u64) -> EncodedClip {
    assert!(cap_bps >= MIN_RATE_BPS, "unreasonably low bandwidth cap");
    let n_frames = model.total_frames();
    let cap_frame_bytes = cap_bps as f64 / 8.0 / fps();

    let mut frames = Vec::with_capacity(n_frames as usize);
    // Demand-driven allocation with a sliding budget: the encoder may not
    // exceed the cap over any ~1 s window, enforced with a token-bucket-
    // like budget of one second of credit.
    let mut budget = cap_frame_bytes * fps(); // one second of credit
    for i in 0..n_frames {
        budget = (budget + cap_frame_bytes).min(cap_frame_bytes * fps());
        let is_key = i % KEYFRAME_INTERVAL == 0;
        let c = model.complexity(i);
        // Demand: how many bytes this frame wants for transparency.
        let weight = if is_key { KEY_WEIGHT } else { 0.45 + 0.75 * c };
        let demand = cap_frame_bytes * weight * 0.78;
        let bytes = demand.min(budget).max(48.0);
        budget -= bytes;
        let fidelity = (bytes / demand).min(1.0).powf(0.8).clamp(0.05, 1.0);
        frames.push(EncodedFrame {
            index: i,
            kind: if is_key {
                FrameKind::I
            } else {
                FrameKind::Delta
            },
            bytes: bytes as u32,
            fidelity,
        });
    }

    EncodedClip {
        frames,
        target_bps: cap_bps,
        codec: "WMV",
    }
}

/// The encoder setting used throughout the paper's local experiments:
/// 1015.5 kbps expected rate.
pub const PAPER_CAP_BPS: u64 = 1_015_500;

#[cfg(test)]
mod tests {
    use super::*;
    use crate::scene::ClipId;

    #[test]
    fn average_rate_is_below_cap() {
        // Table 3: Lost averaged 771.7 kbps against the 1015.5 kbps cap
        // (ratio 0.76); Dark 680.5 kbps (ratio 0.67). Allow ±12 % on the
        // ratios — the shape (VBR well under the cap, Dark lower than
        // Lost) is what matters.
        let lost = encode(&ClipId::Lost.model(), PAPER_CAP_BPS);
        let dark = encode(&ClipId::Dark.model(), PAPER_CAP_BPS);
        let lost_ratio = lost.average_bps() / PAPER_CAP_BPS as f64;
        let dark_ratio = dark.average_bps() / PAPER_CAP_BPS as f64;
        assert!(
            (lost_ratio - 0.76).abs() < 0.09,
            "Lost ratio {lost_ratio:.3}"
        );
        assert!(
            (dark_ratio - 0.67).abs() < 0.09,
            "Dark ratio {dark_ratio:.3}"
        );
        assert!(lost_ratio > dark_ratio, "Lost should out-demand Dark");
    }

    #[test]
    fn never_exceeds_cap_over_windows() {
        let clip = encode(&ClipId::Lost.model(), PAPER_CAP_BPS);
        // Over any 1-second window (30 frames), bytes <= cap/8 * 1s + one
        // second of banked credit (the encoder's VBV allowance).
        let w = 30usize;
        let sizes: Vec<u64> = clip.frames.iter().map(|f| f.bytes as u64).collect();
        let cap_window = PAPER_CAP_BPS as f64 / 8.0;
        for win in sizes.windows(w) {
            let sum: u64 = win.iter().sum();
            assert!(
                (sum as f64) <= 2.2 * cap_window,
                "window sum {sum} vs cap {cap_window}"
            );
        }
    }

    #[test]
    fn key_frames_on_schedule() {
        let clip = encode(&ClipId::Lost.model(), PAPER_CAP_BPS);
        for (i, f) in clip.frames.iter().enumerate() {
            let expect_key = (i as u32) % KEYFRAME_INTERVAL == 0;
            assert_eq!(f.kind == FrameKind::I, expect_key, "frame {i}");
        }
    }

    #[test]
    fn key_frames_are_large() {
        let clip = encode(&ClipId::Dark.model(), PAPER_CAP_BPS);
        let key_mean: f64 = {
            let v: Vec<f64> = clip
                .frames
                .iter()
                .filter(|f| f.kind == FrameKind::I)
                .map(|f| f.bytes as f64)
                .collect();
            v.iter().sum::<f64>() / v.len() as f64
        };
        let delta_mean: f64 = {
            let v: Vec<f64> = clip
                .frames
                .iter()
                .filter(|f| f.kind == FrameKind::Delta)
                .map(|f| f.bytes as f64)
                .collect();
            v.iter().sum::<f64>() / v.len() as f64
        };
        assert!(key_mean > 3.0 * delta_mean, "{key_mean} vs {delta_mean}");
    }

    #[test]
    fn deterministic() {
        let a = encode(&ClipId::Dark.model(), PAPER_CAP_BPS);
        let b = encode(&ClipId::Dark.model(), PAPER_CAP_BPS);
        assert_eq!(a.frames, b.frames);
    }
}
