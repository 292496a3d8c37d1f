//! Run scoring: [`score_session`] scores every finished session with the
//! full per-frame VQM pipeline.
//!
//! The client's displayed stream is rebuilt from its report
//! ([`received_features_from`]) and [`Vqm::score_streams`] compares it
//! with the same-encoding reference and, when given, the paper's 1.7 Mbps
//! "best" reference. This is the one scorer: every testbed, the QoE
//! dataset's truth and the benchmark go through it, and every committed
//! figure was generated by it.
//!
//! The learned [`ProxyModel`](dsv_vqm::qoe::ProxyModel) never scores a
//! run. It is a committed model whose accuracy against this scorer's
//! output is pinned by the `qoe_proxy` golden suite (DESIGN.md §12).

use dsv_media::features::FeatureFrame;
use dsv_stream::client::ClientReport;
use dsv_vqm::qoe::QoeEstimate;
use dsv_vqm::Vqm;

use crate::experiment::received_features_from;

/// The scorer a run uses. Full VQM is the only one; the type remains
/// because the benchmark records [`QoeMode::label`] in each run's
/// configuration.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum QoeMode {
    /// Full per-frame VQM.
    Full,
}

impl QoeMode {
    /// The scorer's name, as recorded in a run's configuration.
    pub fn label(&self) -> String {
        match self {
            QoeMode::Full => "full".to_string(),
        }
    }
}

/// The scorer every run uses: [`QoeMode::Full`].
pub fn mode() -> QoeMode {
    QoeMode::Full
}

/// Score one finished session against `reference` and, when given,
/// `best_reference`. `source` is the clip's source features, from which
/// the displayed stream is rebuilt.
pub fn score_session(
    source: &[FeatureFrame],
    reference: &[FeatureFrame],
    report: &ClientReport,
    best_reference: Option<&[FeatureFrame]>,
) -> QoeEstimate {
    let vqm = Vqm::default();
    let received = received_features_from(source, report);
    let same = vqm.score_streams(reference, &received);
    QoeEstimate {
        quality: same.overall,
        quality_vs_best: best_reference.map(|best| vqm.score_streams(best, &received).overall),
        failed_segments: same.failed_segments,
    }
}
