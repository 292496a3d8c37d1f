//! Estimator selection for run scoring: `DSV_QOE=full|proxy|sampled:<k>`.
//!
//! Every testbed scores a finished session through [`score_session`],
//! which dispatches on the process-wide [`QoeMode`]:
//!
//! * **`full`** (the default) — the per-frame VQM pipeline, byte-for-byte
//!   the scoring path the committed figures were generated with. The
//!   received feature stream is materialized and
//!   [`dsv_vqm::Vqm::score_streams`] runs exactly as before.
//! * **`proxy`** — the committed [`ProxyModel`] regression over the
//!   client's streaming [`FlowFeatures`]. No per-frame stream is ever
//!   materialized: scoring cost drops from O(frames) to O(1), which is
//!   the population-scale win.
//! * **`sampled:<k>`** — every flow is scored by the proxy, and every
//!   k-th flow (selected by a stable hash of its feature record, so the
//!   sample is deterministic and independent of scheduling) is *also*
//!   scored by full VQM. The absolute proxy errors observed this way
//!   accumulate in process-global counters and yield a **live error
//!   bound** ([`QoeSnapshot::live_mae`]) that must stay consistent with
//!   the committed [`PROXY_MAE_BOUND`].
//!
//! The mode changes outcome *values* (proxy scores are estimates), so any
//! non-default mode is stamped into the cache/cluster identity by
//! [`stamp_scoring`] — full-mode addresses stay byte-identical to every
//! address ever written, and proxy results can never be served to a
//! full-mode run or vice versa.

use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Mutex, MutexGuard};

use dsv_media::features::FeatureFrame;
use dsv_net::features::FlowFeatures;
use dsv_stream::client::ClientReport;
use dsv_vqm::qoe::{FullVqm, ProxyModel, QoeEstimate, QoeEstimator, QoeInputs};
use serde::Value;

use crate::experiment::received_features_from;
use crate::keys::fnv1a64;

pub use dsv_vqm::qoe::PROXY_MAE_BOUND;

/// Which estimator scores runs (see the module docs).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum QoeMode {
    /// Full per-frame VQM — the default and the committed-figure path.
    Full,
    /// The committed linear proxy over flow features.
    Proxy,
    /// Proxy everywhere, full VQM on every k-th flow for a live bound.
    Sampled(u64),
}

impl QoeMode {
    /// The `DSV_QOE` spelling of the mode (also the cache-key stamp).
    pub fn label(&self) -> String {
        match self {
            QoeMode::Full => "full".to_string(),
            QoeMode::Proxy => "proxy".to_string(),
            QoeMode::Sampled(k) => format!("sampled:{k}"),
        }
    }
}

/// Parse a `DSV_QOE` value; unrecognized input warns on stderr and falls
/// back to the full default rather than silently changing semantics.
fn qoe_mode_from_str(v: &str) -> QoeMode {
    match v {
        "" | "full" | "1" => QoeMode::Full,
        "proxy" => QoeMode::Proxy,
        _ => {
            if let Some(k) = v.strip_prefix("sampled:") {
                match k.trim().parse::<u64>() {
                    Ok(k) if k >= 1 => return QoeMode::Sampled(k),
                    _ => eprintln!(
                        "[runner] DSV_QOE={v:?}: sample period must be an integer >= 1; \
                         using full VQM"
                    ),
                }
            } else {
                eprintln!(
                    "[runner] DSV_QOE={v:?} not recognized \
                     (expected full, proxy or sampled:<k>); using full VQM"
                );
            }
            QoeMode::Full
        }
    }
}

/// The active mode: a live test override if one is in scope, else
/// `DSV_QOE` from the environment, else [`QoeMode::Full`].
pub fn mode() -> QoeMode {
    match MODE_OVERRIDE.lock().expect("qoe override poisoned").1 {
        Some(forced) => forced,
        None => std::env::var("DSV_QOE").map_or(QoeMode::Full, |v| qoe_mode_from_str(v.trim())),
    }
}

/// (guard-holder marker, forced value). The marker mutex serializes test
/// scopes; the value rides in the same lock so reads are consistent.
#[allow(clippy::type_complexity)]
static MODE_OVERRIDE: Mutex<((), Option<QoeMode>)> = Mutex::new(((), None));
static OVERRIDE_SCOPE: Mutex<()> = Mutex::new(());

/// RAII scope that forces the QoE mode process-wide. Scopes are
/// serialized by a global lock, so concurrent tests cannot interleave
/// overrides. Intended for tests and dataset regeneration.
pub struct QoeScope {
    _scope: MutexGuard<'static, ()>,
}

impl Drop for QoeScope {
    fn drop(&mut self) {
        MODE_OVERRIDE.lock().expect("qoe override poisoned").1 = None;
    }
}

/// Force a QoE mode until the returned guard drops.
pub fn force_mode(m: QoeMode) -> QoeScope {
    let scope = OVERRIDE_SCOPE
        .lock()
        .unwrap_or_else(|poisoned| poisoned.into_inner());
    MODE_OVERRIDE.lock().expect("qoe override poisoned").1 = Some(m);
    QoeScope { _scope: scope }
}

// Process-global scoring counters (same always-on shape as
// `crate::profile`): how many sessions each estimator scored, plus the
// sampled-mode error accumulators in fixed-point micro-quality units
// (atomics hold integers; 1 count = 1e-6 quality). Only the public
// wrappers add to them; the scoring core returns each call's own counts.
static FULL_SCORED: AtomicU64 = AtomicU64::new(0);
static PROXY_SCORED: AtomicU64 = AtomicU64::new(0);
static SAMPLED_CHECKED: AtomicU64 = AtomicU64::new(0);
static SAMPLED_ERRS: AtomicU64 = AtomicU64::new(0);
static SAMPLED_ERR_SUM_MICRO: AtomicU64 = AtomicU64::new(0);
static SAMPLED_ERR_MAX_MICRO: AtomicU64 = AtomicU64::new(0);

/// A point-in-time copy of the QoE scoring counters.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct QoeSnapshot {
    /// Sessions whose reported score came from full VQM.
    pub full_scored: u64,
    /// Sessions whose reported score came from the proxy.
    pub proxy_scored: u64,
    /// Proxy-scored sessions that were *also* full-VQM checked
    /// (`sampled:<k>` mode).
    pub sampled_checked: u64,
    /// Individual |proxy − full| comparisons accumulated (a checked
    /// session contributes one per reference it was scored against).
    pub sampled_errs: u64,
    /// Sum of absolute proxy errors, micro-quality units.
    pub err_sum_micro: u64,
    /// Largest absolute proxy error seen, micro-quality units.
    pub err_max_micro: u64,
}

impl QoeSnapshot {
    /// Counter totals since `other` (for bracketing a batch). The error
    /// maximum is a high-water mark, not a sum: the delta of a batch is
    /// simply the current peak.
    pub fn since(&self, other: &QoeSnapshot) -> QoeSnapshot {
        QoeSnapshot {
            full_scored: self.full_scored.saturating_sub(other.full_scored),
            proxy_scored: self.proxy_scored.saturating_sub(other.proxy_scored),
            sampled_checked: self.sampled_checked.saturating_sub(other.sampled_checked),
            sampled_errs: self.sampled_errs.saturating_sub(other.sampled_errs),
            err_sum_micro: self.err_sum_micro.saturating_sub(other.err_sum_micro),
            err_max_micro: self.err_max_micro,
        }
    }

    /// The live mean absolute proxy error measured by sampled checks,
    /// `None` until at least one comparison has run.
    pub fn live_mae(&self) -> Option<f64> {
        if self.sampled_errs == 0 {
            None
        } else {
            Some(self.err_sum_micro as f64 / 1e6 / self.sampled_errs as f64)
        }
    }

    /// The largest absolute proxy error measured by sampled checks.
    pub fn live_max_err(&self) -> f64 {
        self.err_max_micro as f64 / 1e6
    }

    /// Accumulate one |proxy − full| comparison.
    fn record_err(&mut self, abs_err: f64) {
        let micro = (abs_err.clamp(0.0, 1e6) * 1e6).round() as u64;
        self.sampled_errs += 1;
        self.err_sum_micro += micro;
        self.err_max_micro = self.err_max_micro.max(micro);
    }
}

/// Copy the current totals.
pub fn snapshot() -> QoeSnapshot {
    QoeSnapshot {
        full_scored: FULL_SCORED.load(Ordering::Relaxed),
        proxy_scored: PROXY_SCORED.load(Ordering::Relaxed),
        sampled_checked: SAMPLED_CHECKED.load(Ordering::Relaxed),
        sampled_errs: SAMPLED_ERRS.load(Ordering::Relaxed),
        err_sum_micro: SAMPLED_ERR_SUM_MICRO.load(Ordering::Relaxed),
        err_max_micro: SAMPLED_ERR_MAX_MICRO.load(Ordering::Relaxed),
    }
}

/// Add one call's counts to the process totals.
fn add_to_totals(d: &QoeSnapshot) {
    FULL_SCORED.fetch_add(d.full_scored, Ordering::Relaxed);
    PROXY_SCORED.fetch_add(d.proxy_scored, Ordering::Relaxed);
    SAMPLED_CHECKED.fetch_add(d.sampled_checked, Ordering::Relaxed);
    SAMPLED_ERRS.fetch_add(d.sampled_errs, Ordering::Relaxed);
    SAMPLED_ERR_SUM_MICRO.fetch_add(d.err_sum_micro, Ordering::Relaxed);
    SAMPLED_ERR_MAX_MICRO.fetch_max(d.err_max_micro, Ordering::Relaxed);
}

/// Whether the stable per-flow hash selects this feature record for a
/// full-VQM check at sample period `k`. Keying on the canonical feature
/// bytes (not an arrival index) keeps the sample identical across thread
/// schedules and queue backends.
pub fn sampled_selects(features: &FlowFeatures, k: u64) -> bool {
    k == 1 || fnv1a64(features.canonical_bytes().as_bytes()) % k == 0
}

/// Append the active QoE mode to a scoring identity **iff it is not the
/// default**. Full mode leaves the value untouched, so every address the
/// cache has ever written stays byte-identical; proxy/sampled runs get
/// their own cache entries and cluster classes.
pub fn stamp_scoring(scoring: Value) -> Value {
    stamp_with(mode(), scoring)
}

/// [`stamp_scoring`] under an explicit mode.
fn stamp_with(m: QoeMode, scoring: Value) -> Value {
    if m == QoeMode::Full {
        return scoring;
    }
    match scoring {
        Value::Object(mut fields) => {
            fields.push(("qoe".to_string(), Value::Str(m.label())));
            Value::Object(fields)
        }
        other => Value::Object(vec![
            ("scoring".to_string(), other),
            ("qoe".to_string(), Value::Str(m.label())),
        ]),
    }
}

/// Score one finished session under the active [`mode`], adding the
/// call's counts to the process totals ([`snapshot`]).
///
/// In full mode this is exactly the legacy
/// [`crate::experiment::score_run_shared`] computation; in proxy mode the
/// received stream is never materialized; in sampled mode the k-th-flow
/// full check feeds the live error bound and the *proxy* estimate is
/// still what the outcome reports (all flows in a sampled run are scored
/// by one estimator, so grids stay internally comparable).
pub fn score_session(
    source: &[FeatureFrame],
    reference: &[FeatureFrame],
    report: &ClientReport,
    best_reference: Option<&[FeatureFrame]>,
) -> QoeEstimate {
    let (estimate, counts) = score_with(mode(), source, reference, report, best_reference);
    add_to_totals(&counts);
    estimate
}

/// [`score_session`] under an explicit mode, touching no process state:
/// returns the estimate together with this call's own counts.
fn score_with(
    mode: QoeMode,
    source: &[FeatureFrame],
    reference: &[FeatureFrame],
    report: &ClientReport,
    best_reference: Option<&[FeatureFrame]>,
) -> (QoeEstimate, QoeSnapshot) {
    let full = || {
        let received = received_features_from(source, report);
        FullVqm::default().estimate(&QoeInputs {
            reference,
            best_reference,
            received: Some(&received),
            features: &report.features,
        })
    };
    let proxy = || {
        ProxyModel::committed().estimate(&QoeInputs {
            reference,
            best_reference,
            received: None,
            features: &report.features,
        })
    };
    let mut counts = QoeSnapshot::default();
    let estimate = match mode {
        QoeMode::Full => {
            counts.full_scored = 1;
            full()
        }
        QoeMode::Proxy => {
            counts.proxy_scored = 1;
            proxy()
        }
        QoeMode::Sampled(k) => {
            counts.proxy_scored = 1;
            let proxy = proxy();
            if sampled_selects(&report.features, k) {
                counts.sampled_checked = 1;
                let full = full();
                counts.record_err((proxy.quality - full.quality).abs());
                if let (Some(p), Some(f)) = (proxy.quality_vs_best, full.quality_vs_best) {
                    counts.record_err((p - f).abs());
                }
            }
            proxy
        }
    };
    (estimate, counts)
}

#[cfg(test)]
mod tests {
    use super::*;
    use dsv_stream::playback::PlaybackResult;

    fn tiny_report(frames: usize) -> ClientReport {
        // A loss-free toy session: every slot displays its own frame.
        ClientReport {
            received: vec![true; frames],
            decodable: vec![true; frames],
            arrival: vec![Some(dsv_sim::SimTime::ZERO); frames],
            fidelity: vec![1.0; frames],
            playback: PlaybackResult {
                displayed: (0..frames as u32).collect(),
                start: dsv_sim::SimTime::ZERO,
                repeats: 0,
                longest_freeze: 0,
                total_failure: false,
            },
            packets_received: frames as u64,
            bytes_received: 1000 * frames as u64,
            features: FlowFeatures::default(),
        }
    }

    #[test]
    fn mode_parses_all_spellings() {
        assert_eq!(qoe_mode_from_str(""), QoeMode::Full);
        assert_eq!(qoe_mode_from_str("full"), QoeMode::Full);
        assert_eq!(qoe_mode_from_str("proxy"), QoeMode::Proxy);
        assert_eq!(qoe_mode_from_str("sampled:4"), QoeMode::Sampled(4));
        assert_eq!(qoe_mode_from_str("sampled:0"), QoeMode::Full);
        assert_eq!(qoe_mode_from_str("nonsense"), QoeMode::Full);
        assert_eq!(QoeMode::Sampled(7).label(), "sampled:7");
    }

    #[test]
    fn force_mode_overrides_and_resets() {
        {
            let _g = force_mode(QoeMode::Proxy);
            assert_eq!(mode(), QoeMode::Proxy);
        }
        assert_eq!(mode(), QoeMode::Full);
    }

    #[test]
    fn full_mode_matches_legacy_scoring_exactly() {
        use crate::experiment::score_run_shared;
        let src = dsv_media::scene::ClipId::Talk.model().source_features();
        let report = tiny_report(src.len());
        let (same, vs_best) = score_run_shared(&src, &src, &report, Some(&src));
        let (est, _) = score_with(QoeMode::Full, &src, &src, &report, Some(&src));
        assert_eq!(est.quality, same.overall);
        assert_eq!(est.quality_vs_best, vs_best.map(|v| v.overall));
        assert_eq!(est.failed_segments, same.failed_segments);
    }

    #[test]
    fn proxy_mode_never_materializes_and_counts() {
        let src = dsv_media::scene::ClipId::Talk.model().source_features();
        let mut report = tiny_report(src.len());
        report.features.target_bps = 1_000_000;
        let (est, d) = score_with(QoeMode::Proxy, &src, &src, &report, None);
        assert!(est.quality.is_finite());
        assert_eq!(est.quality_vs_best, None);
        assert_eq!(est.failed_segments, 0);
        assert_eq!(d.proxy_scored, 1);
        assert_eq!(d.full_scored, 0);
    }

    #[test]
    fn sampled_every_flow_checks_and_bounds_error() {
        let src = dsv_media::scene::ClipId::Talk.model().source_features();
        let report = tiny_report(src.len());
        let (est, d) = score_with(QoeMode::Sampled(1), &src, &src, &report, Some(&src));
        assert_eq!(d.proxy_scored, 1);
        assert_eq!(d.sampled_checked, 1);
        assert_eq!(d.sampled_errs, 2, "same + vs_best comparisons");
        let mae = d.live_mae().expect("checked");
        assert!(mae.is_finite() && mae >= 0.0);
        assert!(d.live_max_err() >= mae);
        // The reported score is the proxy's, not the checker's.
        let proxy = ProxyModel::committed().predict_same(&report.features);
        assert_eq!(est.quality, proxy);
    }

    #[test]
    fn sampled_selection_is_a_stable_function_of_features() {
        let f = FlowFeatures {
            packets: 731,
            bytes: 1_000_000,
            ..FlowFeatures::default()
        };
        let k = 3;
        let first = sampled_selects(&f, k);
        for _ in 0..5 {
            assert_eq!(sampled_selects(&f, k), first);
        }
        assert!(sampled_selects(&f, 1), "k=1 checks every flow");
        // Over a population of distinct records roughly 1/k are selected.
        let hits = (0..300u64)
            .filter(|&i| {
                let g = FlowFeatures {
                    packets: i,
                    bytes: i * 1201,
                    ..FlowFeatures::default()
                };
                sampled_selects(&g, k)
            })
            .count();
        assert!((50..=150).contains(&hits), "selected {hits}/300 at k=3");
    }

    #[test]
    fn stamp_scoring_leaves_full_mode_addresses_untouched() {
        let scoring = || {
            Value::Object(vec![(
                "encoding_bps".to_string(),
                Value::Num(serde::Num::U(1_500_000)),
            )])
        };
        let stamped = stamp_with(QoeMode::Full, scoring());
        assert_eq!(
            serde_json::to_string(&stamped).unwrap(),
            serde_json::to_string(&scoring()).unwrap(),
            "full mode must not perturb a single address byte"
        );
        let stamped = serde_json::to_string(&stamp_with(QoeMode::Sampled(5), scoring())).unwrap();
        assert!(stamped.contains(r#""qoe":"sampled:5""#), "{stamped}");
        let stamped = serde_json::to_string(&stamp_with(QoeMode::Proxy, Value::Null)).unwrap();
        assert!(stamped.contains(r#""qoe":"proxy""#), "{stamped}");
    }
}
