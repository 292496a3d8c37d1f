//! The QoE proxy's error-bound contract (DESIGN.md §12).
//!
//! Three layers, all anchored to the committed dataset
//! `results/findings_qoe_proxy.json`:
//!
//! 1. the dataset itself is checksum-guarded against today's grid
//!    definitions (stale truth fails loudly, like every golden);
//! 2. the committed [`ProxyModel`] coefficients keep their mean absolute
//!    error within [`PROXY_MAE_BOUND`] on **every** committed grid, for
//!    both the same-encoding and vs-best targets;
//! 3. live simulations of committed points reproduce their features and
//!    their full-VQM quality exactly, and the proxy's prediction for each
//!    stays within the bound of that live score.

use dsv_core::prelude::*;
use dsv_core::qoe_dataset;
use dsv_vqm::qoe::{ProxyModel, COMMITTED_SAME, COMMITTED_VS_BEST, PROXY_MAE_BOUND};

#[test]
fn committed_dataset_matches_todays_grid_definitions() {
    // load() panics on a missing, unparseable, or stale file.
    let data = qoe_dataset::load();
    assert_eq!(data.grids.len(), 13, "one entry per committed grid");
    let total: usize = data.grids.iter().map(|g| g.points.len()).sum();
    assert_eq!(total, data.points, "redundant total is consistent");
    assert_eq!(
        data.points, 308,
        "296 simulations, aggregates contributing one record per flow"
    );
    for grid in &data.grids {
        assert!(!grid.points.is_empty(), "empty grid {}", grid.label);
    }
}

#[test]
fn proxy_mae_within_committed_bound_on_every_grid() {
    // Guard against placeholder coefficients sneaking into a commit.
    assert!(COMMITTED_SAME.iter().any(|&c| c != 0.0));
    assert!(COMMITTED_VS_BEST.iter().any(|&c| c != 0.0));

    let data = qoe_dataset::load();
    let model = ProxyModel::committed();
    for (label, mae_same, mae_vs_best) in qoe_dataset::proxy_grid_maes(&data, &model) {
        assert!(
            mae_same <= PROXY_MAE_BOUND,
            "grid {label}: same-encoding MAE {mae_same:.4} exceeds the \
             committed bound {PROXY_MAE_BOUND}"
        );
        if let Some(mae) = mae_vs_best {
            assert!(
                mae <= PROXY_MAE_BOUND,
                "grid {label}: vs-best MAE {mae:.4} exceeds the committed \
                 bound {PROXY_MAE_BOUND}"
            );
        }
    }
}

/// Two committed AF points, simulated live: features and full-VQM score
/// must be the committed ones, and the proxy must land within the bound
/// of the live score.
#[test]
fn sampled_mode_live_bound_agrees_with_committed_dataset() {
    let data = qoe_dataset::load();
    let af = data
        .grids
        .iter()
        .find(|g| g.label == "af_phb")
        .expect("af_phb grid committed");

    // The first two AF ablation configs, exactly as the dataset defines
    // them (cheap enough for a debug-mode simulation).
    let cfgs: Vec<AfConfig> = [(0u64, 0u64), (1_000_000, 500_000)]
        .iter()
        .map(|&(load, cir)| {
            let mut cfg = AfConfig::new(ClipId2::Lost, 1_500_000, load);
            cfg.cross_cir_bps = cir;
            cfg
        })
        .collect();

    let model = ProxyModel::committed();
    for (i, cfg) in cfgs.iter().enumerate() {
        let (out, report) = dsv_core::af::run_af_detailed(cfg);
        let point = &af.points[i];
        // The event-path extractor reproduces the committed features
        // byte-for-byte...
        assert_eq!(
            report.features.canonical_bytes(),
            point.features.canonical_bytes(),
            "af point {i}: live features diverge from the committed dataset"
        );
        // ...the live full-VQM score is the committed truth...
        assert_eq!(
            (out.quality, out.quality_vs_best),
            (point.quality, point.quality_vs_best),
            "af point {i}: live full-VQM score diverges from the committed dataset"
        );
        // ...and the proxy's prediction stays within the bound of it.
        let err = (model.predict_same(&report.features) - out.quality).abs();
        assert!(
            err <= PROXY_MAE_BOUND,
            "af point {i}: proxy error {err:.4} exceeds the committed bound {PROXY_MAE_BOUND}"
        );
    }
}
