//! The session verdict, and the learned proxy that estimates it from
//! flow features.
//!
//! Every run is scored with the full per-frame VQM pipeline
//! ([`Reference::score`](crate::Reference::score), called by
//! `dsv-core::qoe::score_session`), and its verdict is a [`QoeEstimate`].
//!
//! [`ProxyModel`] is a small linear regression over streaming
//! [`FlowFeatures`] (no frames retained anywhere), fit offline against
//! full-VQM truth on the committed experiment grids by the `fit_qoe`
//! bench binary. No run reports its predictions: it is a committed
//! model whose accuracy the `qoe_proxy` golden suite pins against that
//! truth on every committed grid (DESIGN.md §12). Predictions are always
//! finite and clamped to `[0, MAX_SCORE]`, even on degenerate sessions
//! (zero packets, total loss, single frame).

use dsv_net::features::FlowFeatures;

use crate::score::MAX_SCORE;

/// The quality verdict on one session.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct QoeEstimate {
    /// Quality against the same-encoding reference (0 best).
    pub quality: f64,
    /// Quality against the cross reference, when one was given.
    pub quality_vs_best: Option<f64>,
    /// VQM segments that failed temporal calibration.
    pub failed_segments: usize,
}

/// Number of regression terms (see [`ProxyModel::terms`]).
pub const PROXY_TERMS: usize = 24;

/// Ridge strength used by the `fit_qoe` least-squares fit. Mild
/// regularization: the vs-best target has few observations, and an
/// unregularized fit drives collinear spline terms to huge cancelling
/// coefficients.
pub const PROXY_RIDGE: f64 = 1e-3;

/// A unit ramp: 0 below `lo`, 1 above `hi`, linear in between. A few of
/// these on one variable form a monotone piecewise-linear spline — how
/// the proxy captures VQM's cliff-like response to small loss counts.
fn ramp(x: f64, lo: f64, hi: f64) -> f64 {
    ((x - lo) / (hi - lo)).clamp(0.0, 1.0)
}

/// The linear proxy: `quality ≈ coefficients · terms(features)`.
///
/// Two coefficient vectors, one per reference: the same-encoding score
/// the figures plot, and the cross-reference ("vs best") score of the
/// paper's second experiment set, whose extra signal is the encoding-rate
/// gap term.
#[derive(Debug, Clone)]
pub struct ProxyModel {
    /// Coefficients for the same-encoding quality.
    pub same: [f64; PROXY_TERMS],
    /// Coefficients for the quality against the 1.7 Mbps reference.
    pub vs_best: [f64; PROXY_TERMS],
}

/// Coefficients fit by `fit_qoe` (least squares over the committed-grid
/// dataset `results/findings_qoe_proxy.json`). Regenerate with:
/// `cargo run --release -p dsv-bench --bin fit_qoe`.
pub const COMMITTED_SAME: [f64; PROXY_TERMS] = [
    -0.18312498380465456,
    0.0676395079172989,
    0.6282664745396801,
    3.1616952493524533,
    -2.967348418827212,
    0.18505567216252292,
    -0.5348224978379762,
    -2.93270496350906,
    3.6966809946279424,
    -0.5071078387645718,
    0.051615322226786296,
    -0.06396234223648724,
    0.11561831806872636,
    0.24063613501491118,
    -0.015806803223831777,
    0.28820926011217857,
    0.7091341060419575,
    -0.12480278102772892,
    0.09815419160065188,
    -0.11603344238173975,
    0.3257351798572618,
    -0.0016322694583693444,
    0.0,
    0.03416950312717224,
];

/// See [`COMMITTED_SAME`]; fit against the cross-reference truth.
pub const COMMITTED_VS_BEST: [f64; PROXY_TERMS] = [
    0.29321782226535387,
    -0.13100627503065373,
    -0.28790850653904215,
    0.0498776863385531,
    -0.1400148622572237,
    -0.31173154712767387,
    0.44609844870329796,
    0.7656323702644847,
    0.19028771651301843,
    -0.7742843697154381,
    0.7809854623713463,
    0.13107636053672753,
    0.20682976854537397,
    -0.3593937816573266,
    0.09911256247677475,
    -0.059783782146161576,
    0.0,
    0.0,
    0.0029046596248674993,
    0.0,
    0.0,
    -0.029274119348797856,
    0.0,
    0.22347853575164528,
];

/// The documented ceiling on the proxy's **mean absolute quality error**
/// per committed grid (same-encoding and vs-best alike). Pinned by the
/// `qoe_proxy` golden suite, which also holds each live-simulated point
/// it re-scores to it. The fit's worst grid sits near 0.08 (the shaped
/// local testbed, where clip-dependent loss cliffs are invisible to
/// flow-level features); the bound leaves a small margin over it.
pub const PROXY_MAE_BOUND: f64 = 0.09;

impl Default for ProxyModel {
    fn default() -> Self {
        ProxyModel::committed()
    }
}

impl ProxyModel {
    /// The model with the committed coefficients.
    pub fn committed() -> ProxyModel {
        ProxyModel {
            same: COMMITTED_SAME,
            vs_best: COMMITTED_VS_BEST,
        }
    }

    /// The regression design vector of a feature record. Every term is
    /// finite by construction, bounded transforms throughout, so the dot
    /// product cannot produce NaN/∞ from any extractor output.
    ///
    /// The design (DESIGN.md §12) is a sum of small monotone splines
    /// rather than raw features, because VQM's response is cliff-like:
    ///
    /// * a log-lost-packet-count spline (`r2..r400`) — quality collapses
    ///   over the first handful of lost packets, then saturates;
    /// * mean-packet-size interactions with that spline — packet size
    ///   fingerprints the testbed/encoding family, whose cliffs sit at
    ///   different loss counts;
    /// * throughput-deficit splines, plus variants gated on a loss-free
    ///   session (`z`) — a TCP flow starves by slowing down (deficit
    ///   means stalls), while a clean VBR/UDP flow can show a harmless
    ///   constant deficit;
    /// * mean-delay ramps — shaper queueing delay is the only signal
    ///   separating shaped grids at equal loss;
    /// * the classic flow statistics (loss fraction, burst length,
    ///   throughput CV, jitter, reordering) and the encoding-rate gap to
    ///   the paper's 1.7 Mbps best encoding.
    pub fn terms(f: &FlowFeatures) -> [f64; PROXY_TERMS] {
        let finite = |x: f64| if x.is_finite() { x } else { 0.0 };
        let loss = finite(f.loss_fraction).clamp(0.0, 1.0);
        // Throughput deficit relative to the nominal media rate: the
        // starved-flow signal. An unknown target (0) reads the packet
        // count instead.
        let deficit = if f.target_bps == 0 {
            if f.packets == 0 {
                1.0
            } else {
                0.0
            }
        } else {
            (1.0 - finite(f.mean_throughput_bps) / f.target_bps as f64).clamp(0.0, 1.0)
        };
        let reorder_frac = if f.packets == 0 {
            0.0
        } else {
            (f.reordered as f64 / f.packets as f64).clamp(0.0, 1.0)
        };
        let llost = (f.lost_packets.min(1_000_000) as f64).ln_1p();
        let r2 = ramp(llost, 0.0, 3.0_f64.ln());
        let r10 = ramp(llost, 3.0_f64.ln(), 11.0_f64.ln());
        let r60 = ramp(llost, 11.0_f64.ln(), 61.0_f64.ln());
        let r400 = ramp(llost, 61.0_f64.ln(), 401.0_f64.ln());
        // Mean packet size, in MTUs: the testbed/encoding fingerprint.
        let psz = if f.packets == 0 {
            0.0
        } else {
            (f.bytes as f64 / f.packets as f64 / 1500.0).min(1.5)
        };
        // Loss-free session: every sent packet arrived, so any deficit
        // or delay reflects pacing, not drops (the TCP signature).
        let z = if f.lost_packets == 0 && f.packets > 0 {
            1.0
        } else {
            0.0
        };
        let delay = finite(f.mean_delay_ms).clamp(0.0, 1e4);
        [
            1.0,
            r2,
            r10,
            r60,
            r400,
            psz,
            psz * r10,
            psz * r60,
            psz * r400,
            loss,
            loss.sqrt(),
            finite(f.mean_burst_loss).clamp(0.0, 64.0).ln_1p(),
            finite(f.throughput_cv).clamp(0.0, 3.0),
            deficit,
            ramp(deficit, 0.25, 0.40),
            ramp(deficit, 0.40, 0.60),
            z * ramp(deficit, 0.20, 0.35),
            z * ramp(deficit, 0.35, 0.55),
            ramp(delay, 30.0, 100.0),
            ramp(delay, 100.0, 400.0),
            z * ramp(delay, 100.0, 400.0),
            finite(f.jitter_ms).clamp(0.0, 1e4).ln_1p(),
            reorder_frac,
            // Encoding-rate gap to the paper's 1.7 Mbps best encoding;
            // 0 at (or above) the reference rate. Carries the vs-best
            // offset for lower encodings.
            if f.target_bps == 0 {
                0.0
            } else {
                (1_700_000.0 / f.target_bps as f64).max(1.0).ln()
            },
        ]
    }

    /// Predict a quality score from coefficients and features: finite,
    /// clamped to `[0, MAX_SCORE]`.
    fn predict(coefs: &[f64; PROXY_TERMS], f: &FlowFeatures) -> f64 {
        // No media arrived at all: unwatchable, no regression needed
        // (and none possible — the fit never sees empty sessions).
        if f.packets == 0 {
            return MAX_SCORE;
        }
        let t = Self::terms(f);
        let raw: f64 = coefs.iter().zip(&t).map(|(c, x)| c * x).sum();
        if raw.is_finite() {
            raw.clamp(0.0, MAX_SCORE)
        } else {
            MAX_SCORE
        }
    }

    /// Predicted same-encoding quality.
    pub fn predict_same(&self, f: &FlowFeatures) -> f64 {
        Self::predict(&self.same, f)
    }

    /// Predicted quality against the 1.7 Mbps cross reference.
    pub fn predict_vs_best(&self, f: &FlowFeatures) -> f64 {
        Self::predict(&self.vs_best, f)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use dsv_net::features::FeatureExtractor;
    use dsv_sim::{SimDuration, SimTime};

    /// The proxy's (same-encoding, vs-best) predictions.
    fn estimate(f: &FlowFeatures) -> (f64, f64) {
        let model = ProxyModel::committed();
        (model.predict_same(f), model.predict_vs_best(f))
    }

    fn assert_bounded(&(same, vs_best): &(f64, f64)) {
        for q in [same, vs_best] {
            assert!(q.is_finite());
            assert!((0.0..=MAX_SCORE).contains(&q), "{q}");
        }
    }

    #[test]
    fn zero_throughput_flow_is_finite_and_bounded() {
        // No packets at all: the all-frames-dropped degenerate case seen
        // through the proxy path.
        let f = FeatureExtractor::new(1_500_000).finish();
        let e = estimate(&f);
        assert_bounded(&e);
        assert!(e.0 > 0.5, "a fully starved flow must score badly: {}", e.0);
    }

    #[test]
    fn single_packet_flow_is_finite_and_bounded() {
        // The single-frame degenerate case: one packet, no inter-arrival
        // structure, zero-duration session.
        let mut x = FeatureExtractor::new(1_000_000);
        x.observe(
            SimTime::from_millis(40),
            Some(0),
            1200,
            SimDuration::from_millis(3),
        );
        assert_bounded(&estimate(&x.finish()));
    }

    #[test]
    fn total_loss_tail_is_finite_and_bounded() {
        // One packet delivered, then a huge terminal gap.
        let mut x = FeatureExtractor::new(1_000_000);
        x.observe(SimTime::ZERO, Some(0), 1200, SimDuration::ZERO);
        x.observe(SimTime::from_secs(60), Some(5_000), 1200, SimDuration::ZERO);
        let f = x.finish();
        assert!(f.loss_fraction > 0.99);
        let e = estimate(&f);
        assert_bounded(&e);
        assert!(e.0 > 0.5, "near-total loss: {}", e.0);
    }

    #[test]
    fn hostile_features_never_escape_the_range() {
        // Hand-built pathological records (NaN/∞ cannot come out of the
        // extractor, but the proxy must not trust that).
        for f in [
            FlowFeatures {
                loss_fraction: f64::NAN,
                mean_burst_loss: f64::INFINITY,
                throughput_cv: -3.0,
                jitter_ms: f64::NEG_INFINITY,
                ..FlowFeatures::default()
            },
            FlowFeatures {
                packets: u64::MAX,
                reordered: u64::MAX,
                target_bps: 1,
                mean_throughput_bps: f64::MAX,
                ..FlowFeatures::default()
            },
        ] {
            assert_bounded(&estimate(&f));
        }
    }

    #[test]
    fn clean_flow_scores_better_than_lossy_flow() {
        let clean = {
            let mut x = FeatureExtractor::new(1_000_000);
            for s in 0..500u64 {
                x.observe(
                    SimTime::from_millis(10 * s),
                    Some(s),
                    1200,
                    SimDuration::from_millis(5),
                );
            }
            x.finish()
        };
        let lossy = {
            let mut x = FeatureExtractor::new(1_000_000);
            for s in 0..500u64 {
                if s % 3 == 1 {
                    continue; // one in three policed away
                }
                x.observe(
                    SimTime::from_millis(10 * s),
                    Some(s),
                    1200,
                    SimDuration::from_millis(5),
                );
            }
            x.finish()
        };
        let (c, l) = (estimate(&clean), estimate(&lossy));
        assert!(c.0 + 0.2 < l.0, "clean {} vs lossy {}", c.0, l.0);
    }
}
