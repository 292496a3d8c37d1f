//! The QoE proxy's training/validation dataset: flow features paired
//! with full-VQM truth over the committed experiment grids.
//!
//! The [`ProxyModel`](dsv_vqm::qoe::ProxyModel) is fit offline (the
//! `fit_qoe` bench binary) against `results/findings_qoe_proxy.json`,
//! whose points this module defines and generates. The grids mirror the
//! committed figures — the same QBone, vs-best, local, AF and aggregate
//! configurations the paper's plots commit — so the bounded error the
//! `qoe_proxy` golden suite asserts is measured exactly on the
//! population the proxy is meant to stand in for.
//!
//! Same staleness contract as [`crate::golden`]: the file carries an
//! FNV-1a checksum over every generating config, and a mismatch panics
//! loudly instead of validating against a stale population. Generation
//! runs full simulations (features are never cached), so — unlike the
//! cheap goldens — regeneration goes through the **release** `fit_qoe`
//! binary, not `DSV_REGEN=1` under `cargo test`.

use std::fs;
use std::path::PathBuf;

use dsv_net::features::FlowFeatures;
use serde::{Deserialize, Serialize};

use crate::af::{run_af_detailed, AfConfig};
use crate::aggregate::{run_aggregate_detailed, AggregateConfig};
use crate::experiment::{EfProfile, DEPTH_2MTU, DEPTH_3MTU};
use crate::keys::fnv1a64;
use crate::local::{run_local_detailed, LocalConfig, LocalTransport};
use crate::qbone::{run_qbone_detailed, ClipId2, QboneConfig};
use crate::runner::publish;
use crate::sweep::{qbone_grid, sweep_jobs};

/// One dataset record: a flow's extracted features and its full-VQM
/// truth.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct DatasetPoint {
    /// Event-path features of the delivered flow.
    pub features: FlowFeatures,
    /// Full-VQM quality against the same-encoding reference.
    pub quality: f64,
    /// Full-VQM quality against the 1.7 Mbps reference, when scored.
    pub quality_vs_best: Option<f64>,
}

/// One committed grid's worth of records.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct DatasetGrid {
    /// Which committed grid the points mirror.
    pub label: String,
    /// One record per flow, in config (and flow-label) order.
    pub points: Vec<DatasetPoint>,
}

/// On-disk format of the dataset (checksum rules as [`crate::golden`]).
#[derive(Debug, Serialize, Deserialize)]
pub struct QoeDataset {
    /// FNV-1a (hex) over the generating configs' kinds + config JSON.
    pub config_fnv: String,
    /// Total records across all grids (redundant, kept for diffs).
    pub points: usize,
    /// Per-grid records, in [`dataset_grids`] order.
    pub grids: Vec<DatasetGrid>,
}

/// A config whose detailed run contributes records to the dataset.
#[derive(Debug, Clone)]
pub enum DatasetConfig {
    /// A QBone point (one flow).
    Qbone(QboneConfig),
    /// A local-testbed point (one flow).
    Local(LocalConfig),
    /// An AF point (one flow).
    Af(AfConfig),
    /// An aggregate point (N flows, N records).
    Aggregate(AggregateConfig),
}

impl DatasetConfig {
    /// Cache-style kind tag (part of the checksum).
    pub fn kind(&self) -> &'static str {
        match self {
            DatasetConfig::Qbone(_) => "qbone",
            DatasetConfig::Local(_) => "local",
            DatasetConfig::Af(_) => "af",
            DatasetConfig::Aggregate(_) => "aggregate",
        }
    }

    /// Canonical JSON of the configuration (checksum input).
    pub fn config_json(&self) -> String {
        match self {
            DatasetConfig::Qbone(cfg) => serde_json::to_string(cfg),
            DatasetConfig::Local(cfg) => serde_json::to_string(cfg),
            DatasetConfig::Af(cfg) => serde_json::to_string(cfg),
            DatasetConfig::Aggregate(cfg) => serde_json::to_string(cfg),
        }
        .expect("config serializes")
    }

    /// Simulate the config and collect its records, with the full-VQM
    /// truth every run is scored with ([`crate::qoe::score_session`]).
    pub fn collect(&self) -> Vec<DatasetPoint> {
        match self {
            DatasetConfig::Qbone(cfg) => {
                let (out, report) = run_qbone_detailed(cfg);
                vec![DatasetPoint {
                    features: report.features,
                    quality: out.quality,
                    quality_vs_best: out.quality_vs_best,
                }]
            }
            DatasetConfig::Local(cfg) => {
                let (out, report) = run_local_detailed(cfg);
                vec![DatasetPoint {
                    features: report.features,
                    quality: out.quality,
                    quality_vs_best: out.quality_vs_best,
                }]
            }
            DatasetConfig::Af(cfg) => {
                let (out, report) = run_af_detailed(cfg);
                vec![DatasetPoint {
                    features: report.features,
                    quality: out.quality,
                    quality_vs_best: out.quality_vs_best,
                }]
            }
            DatasetConfig::Aggregate(cfg) => {
                let (outs, reports) = run_aggregate_detailed(cfg);
                outs.per_flow
                    .into_iter()
                    .zip(reports)
                    .map(|(out, report)| DatasetPoint {
                        features: report.features,
                        quality: out.quality,
                        quality_vs_best: out.quality_vs_best,
                    })
                    .collect()
            }
        }
    }
}

/// The dataset's grids, mirroring the committed figures (fig07–13, 15,
/// 16, and the AF ablation). Order is load-bearing: the checksum and the
/// on-disk grid order both follow it.
pub fn dataset_grids() -> Vec<(String, Vec<DatasetConfig>)> {
    let mut grids = Vec::new();

    // Figures 07–12: Lost and Dark, three encodings, 12 rates × 2 depths.
    for clip in [ClipId2::Lost, ClipId2::Dark] {
        for enc in [1_700_000u64, 1_500_000, 1_000_000] {
            let cfgs = sweep_jobs(&qbone_grid(enc), &[DEPTH_2MTU, DEPTH_3MTU], |profile| {
                DatasetConfig::Qbone(QboneConfig::new(clip, enc, profile))
            });
            grids.push((format!("qbone_{clip:?}_{}k", enc / 1000), cfgs));
        }
    }

    // Figure 13: relative quality against the 1.7 Mbps reference.
    let mut vs_best = Vec::new();
    for clip in [ClipId2::Lost, ClipId2::Dark] {
        for enc in [1_000_000u64, 1_500_000, 1_700_000] {
            for i in 0..10u64 {
                let rate = 1_000_000 + i * 150_000;
                let mut cfg = QboneConfig::new(clip, enc, EfProfile::new(rate, DEPTH_3MTU));
                cfg.score_vs_best = true;
                vs_best.push(DatasetConfig::Qbone(cfg));
            }
        }
    }
    grids.push(("qbone_vs_best".to_string(), vs_best));

    // Figure 15: the local testbed's four transport variants.
    for (tag, transport, shaped) in [
        ("udp_unshaped", LocalTransport::Udp, false),
        ("udp_shaped", LocalTransport::Udp, true),
        ("tcp", LocalTransport::Tcp, false),
        ("tcp_shaped", LocalTransport::Tcp, true),
    ] {
        let mut cfgs = Vec::new();
        for &depth in &[DEPTH_2MTU, DEPTH_3MTU] {
            for i in 0..10u64 {
                let rate = 700_000 + i * 150_000;
                let mut cfg =
                    LocalConfig::new(ClipId2::Lost, EfProfile::new(rate, depth), transport);
                cfg.shaped = shaped;
                cfgs.push(DatasetConfig::Local(cfg));
            }
        }
        grids.push((format!("local_{tag}"), cfgs));
    }

    // AF PHB ablation: quality vs in-profile cross-traffic load.
    let af = [
        (0u64, 0u64),
        (1_000_000, 500_000),
        (3_000_000, 2_000_000),
        (5_000_000, 3_500_000),
        (7_000_000, 5_000_000),
        (9_000_000, 6_500_000),
    ]
    .iter()
    .map(|&(load, cir)| {
        let mut cfg = AfConfig::new(ClipId2::Lost, 1_500_000, load);
        cfg.cross_cir_bps = cir;
        DatasetConfig::Af(cfg)
    })
    .collect();
    grids.push(("af_phb".to_string(), af));

    // Figure 16 subset: multi-flow aggregates (per-flow records).
    let mut agg = Vec::new();
    for &n in &[2u32, 4] {
        for &frac in &[0.9f64, 1.1, 1.4] {
            let rate = (1_000_000.0 * n as f64 * frac) as u64;
            agg.push(DatasetConfig::Aggregate(AggregateConfig::new(
                ClipId2::Lost,
                1_000_000,
                n,
                EfProfile::new(rate, DEPTH_3MTU),
            )));
        }
    }
    grids.push(("aggregate".to_string(), agg));

    grids
}

/// Checksum over every generating config, grid labels included (the
/// same kind + config-JSON content addressing as [`crate::golden`]).
pub fn dataset_fnv(grids: &[(String, Vec<DatasetConfig>)]) -> String {
    let mut bytes = Vec::new();
    for (label, cfgs) in grids {
        bytes.extend_from_slice(label.as_bytes());
        bytes.push(0xfe);
        for cfg in cfgs {
            bytes.extend_from_slice(cfg.kind().as_bytes());
            bytes.push(0);
            bytes.extend_from_slice(cfg.config_json().as_bytes());
            bytes.push(0xff);
        }
    }
    format!("{:016x}", fnv1a64(&bytes))
}

/// Where the committed dataset lives.
pub fn dataset_path() -> PathBuf {
    PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("../../results/findings_qoe_proxy.json")
}

/// Load the committed dataset, validating its checksum against today's
/// grid definitions.
///
/// # Panics
/// Panics if the file is missing, unreadable, or was generated from
/// different configs — regenerate with
/// `cargo run --release -p dsv-bench --bin fit_qoe`.
pub fn load() -> QoeDataset {
    let path = dataset_path();
    let sum = dataset_fnv(&dataset_grids());
    let text = fs::read_to_string(&path).unwrap_or_else(|e| {
        panic!(
            "QoE dataset {} is missing/unreadable ({e}); regenerate with \
             `cargo run --release -p dsv-bench --bin fit_qoe`",
            path.display()
        )
    });
    let file: QoeDataset = serde_json::from_str(&text).unwrap_or_else(|e| {
        panic!(
            "QoE dataset {} does not parse ({e}); regenerate with \
             `cargo run --release -p dsv-bench --bin fit_qoe`",
            path.display()
        )
    });
    assert_eq!(
        file.config_fnv,
        sum,
        "stale QoE dataset {}: generated from different configurations \
         (checksum {} on disk, {} expected). Regenerate with \
         `cargo run --release -p dsv-bench --bin fit_qoe` and refit.",
        path.display(),
        file.config_fnv,
        sum
    );
    file
}

/// Generate the dataset by simulating every grid (full VQM truth) and
/// write it to [`dataset_path`] atomically. Returns the fresh dataset.
/// Expensive — run from the release `fit_qoe` binary. Parallel over
/// configs (`DSV_THREADS` respected); output order is config order
/// regardless of completion order.
pub fn generate() -> QoeDataset {
    let grids = dataset_grids();
    let sum = dataset_fnv(&grids);
    let threads = dsv_sim::env::count_from_env(
        "DSV_THREADS",
        std::thread::available_parallelism().map_or(1, |n| n.get()),
    )
    .max(1);
    let out: Vec<DatasetGrid> = grids
        .iter()
        .map(|(label, cfgs)| {
            let results: Vec<std::sync::Mutex<Vec<DatasetPoint>>> = cfgs
                .iter()
                .map(|_| std::sync::Mutex::new(Vec::new()))
                .collect();
            let next = std::sync::atomic::AtomicUsize::new(0);
            std::thread::scope(|scope| {
                for _ in 0..threads.min(cfgs.len()) {
                    scope.spawn(|| loop {
                        let i = next.fetch_add(1, std::sync::atomic::Ordering::Relaxed);
                        let Some(cfg) = cfgs.get(i) else { break };
                        *results[i].lock().expect("dataset slot poisoned") = cfg.collect();
                    });
                }
            });
            let points: Vec<DatasetPoint> = results
                .into_iter()
                .flat_map(|slot| slot.into_inner().expect("dataset slot poisoned"))
                .collect();
            eprintln!("[fit_qoe] grid {label}: {} points", points.len());
            DatasetGrid {
                label: label.clone(),
                points,
            }
        })
        .collect();
    let file = QoeDataset {
        config_fnv: sum,
        points: out.iter().map(|g| g.points.len()).sum(),
        grids: out,
    };
    let text = serde_json::to_string_pretty(&file).expect("dataset serializes");
    publish(&dataset_path(), &text).expect("publish dataset file");
    file
}

/// Per-grid mean absolute error of a proxy against the dataset's truth:
/// `(label, mae_same, mae_vs_best)` — the vs-best column is `None` for
/// grids that never scored a cross reference.
pub fn proxy_grid_maes(
    data: &QoeDataset,
    model: &dsv_vqm::qoe::ProxyModel,
) -> Vec<(String, f64, Option<f64>)> {
    data.grids
        .iter()
        .map(|grid| {
            let mut same_sum = 0.0;
            let mut best_sum = 0.0;
            let mut best_n = 0usize;
            for p in &grid.points {
                same_sum += (model.predict_same(&p.features) - p.quality).abs();
                if let Some(truth) = p.quality_vs_best {
                    best_sum += (model.predict_vs_best(&p.features) - truth).abs();
                    best_n += 1;
                }
            }
            let n = grid.points.len().max(1) as f64;
            (
                grid.label.clone(),
                same_sum / n,
                (best_n > 0).then(|| best_sum / best_n as f64),
            )
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn grid_definitions_are_stable() {
        let grids = dataset_grids();
        let labels: Vec<&str> = grids.iter().map(|(l, _)| l.as_str()).collect();
        assert_eq!(
            labels,
            [
                "qbone_Lost_1700k",
                "qbone_Lost_1500k",
                "qbone_Lost_1000k",
                "qbone_Dark_1700k",
                "qbone_Dark_1500k",
                "qbone_Dark_1000k",
                "qbone_vs_best",
                "local_udp_unshaped",
                "local_udp_shaped",
                "local_tcp",
                "local_tcp_shaped",
                "af_phb",
                "aggregate",
            ]
        );
        let sims: usize = grids.iter().map(|(_, c)| c.len()).sum();
        assert_eq!(sims, 6 * 24 + 60 + 4 * 20 + 6 + 6, "296 simulations");
        // The checksum is a pure function of the definitions.
        assert_eq!(dataset_fnv(&grids), dataset_fnv(&dataset_grids()));
    }

    #[test]
    fn checksum_tracks_configuration() {
        let mut grids = dataset_grids();
        let base = dataset_fnv(&grids);
        if let DatasetConfig::Qbone(cfg) = &mut grids[0].1[0] {
            cfg.encoding_bps += 1;
        }
        assert_ne!(dataset_fnv(&grids), base);
    }
}
