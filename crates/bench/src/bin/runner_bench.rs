//! Macro-bench for the sweep pipeline: one QBone grid run four ways —
//! serial with artifact sharing disabled (the pre-sharing behaviour),
//! serial shared, threaded with a cold result cache, and threaded warm —
//! with byte-identity asserts between all of them, per-stage wall times
//! and event-dispatch rates from [`dsv_core::profile`], and the whole
//! report persisted to `results/BENCH_sweep.json` so perf regressions
//! show up in review diffs.
//!
//! `DSV_BENCH_SMOKE=1` shrinks the grid and writes the report to a temp
//! file instead of `results/` (CI smoke mode: exercises the harness
//! without dirtying the committed baseline).

use std::path::PathBuf;
use std::time::Instant;

use serde::Serialize;

use dsv_core::prelude::*;
use dsv_core::{artifacts, profile, qoe};

/// Numbers measured at the seed commit (before artifact sharing and the
/// conditioner-poll fix), kept in the report so the committed baseline
/// always shows the distance travelled. Measured single-thread, uncached,
/// on the reference container.
#[derive(Serialize)]
struct SeedBaseline {
    all_figures_cold_secs: f64,
    grid_points: usize,
    serial_uncached_secs: f64,
    serial_uncached_pts_per_sec: f64,
    warm_cache_fraction_of_cold: f64,
}

const SEED_BASELINE: SeedBaseline = SeedBaseline {
    all_figures_cold_secs: 27.29,
    grid_points: 16,
    serial_uncached_secs: 0.29,
    serial_uncached_pts_per_sec: 54.89,
    warm_cache_fraction_of_cold: 0.003,
};

#[derive(Serialize)]
struct RunReport {
    secs: f64,
    pts_per_sec: f64,
    stages: ProfileSnapshot,
    event_rate_per_sec: f64,
    /// Heap allocations per grid point; present only when built with
    /// `--features count-allocs` (the allocator shim skews timings, so the
    /// committed baseline omits it).
    allocs_per_point: Option<f64>,
}

#[derive(Serialize)]
struct BenchReport {
    seed_baseline: SeedBaseline,
    grid_points: usize,
    threads: usize,
    serial_unshared: RunReport,
    serial_shared: RunReport,
    threaded_cold_cache: RunReport,
    threaded_warm_cache: RunReport,
    sharing_speedup: f64,
    threaded_speedup_vs_serial: f64,
    warm_cache_fraction_of_cold: f64,
    byte_identical: bool,
}

fn main() {
    let smoke = std::env::var("DSV_BENCH_SMOKE").is_ok_and(|v| !v.trim().is_empty() && v != "0");
    let enc = 1_500_000u64;
    let base = QboneConfig::new(ClipId2::Lost, enc, EfProfile::new(enc, DEPTH_2MTU));
    let (rates, depths): (Vec<u64>, Vec<u32>) = if smoke {
        (default_rate_grid(enc, 2), vec![DEPTH_2MTU])
    } else {
        (default_rate_grid(enc, 8), vec![DEPTH_2MTU, DEPTH_3MTU])
    };
    let points = rates.len() * depths.len();
    let threads = std::thread::available_parallelism()
        .map(|n| n.get())
        .unwrap_or(1);
    println!(
        "runner bench: {points}-point QBone grid, {threads} core(s){}\n",
        if smoke { " [smoke]" } else { "" }
    );

    let cache: PathBuf =
        std::env::temp_dir().join(format!("dsv-runner-bench-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&cache);

    let label = "runner bench grid";
    let time = |tag: &str, runner: &Runner| -> (RunReport, String) {
        let before = profile::snapshot();
        let allocs_before = dsv_bench::alloc_count::allocations();
        let t0 = Instant::now();
        let sweep = runner.qbone_sweep(&base, &rates, &depths, label);
        let dt = t0.elapsed().as_secs_f64();
        let stages = profile::snapshot().since(&before);
        let allocs_per_point = allocs_before
            .zip(dsv_bench::alloc_count::allocations())
            .map(|(b, a)| (a - b) as f64 / points as f64);
        let alloc_note = allocs_per_point
            .map(|a| format!(", {a:.0} allocs/pt"))
            .unwrap_or_default();
        println!(
            "{tag:<24} {dt:7.2} s  ({:.2} pts/s, {:.2} M ev/s{alloc_note})",
            points as f64 / dt.max(1e-9),
            stages.event_rate_per_sec() / 1e6,
        );
        let report = RunReport {
            secs: dt,
            pts_per_sec: points as f64 / dt.max(1e-9),
            event_rate_per_sec: stages.event_rate_per_sec(),
            stages,
            allocs_per_point,
        };
        (report, serde_json::to_string(&sweep).expect("serialize"))
    };

    // The pre-sharing pipeline: every point rebuilds its own artifacts.
    let (unshared, json_unshared) = {
        let _guard = artifacts::force_sharing(false);
        time("serial, sharing off", &Runner::serial())
    };
    // Cold artifact store, shared from the first point on.
    artifacts::clear();
    let (shared, json_shared) = time("serial, shared", &Runner::serial());
    let (cold, json_cold) = time(
        "threaded, cold cache",
        &Runner::serial()
            .with_threads(threads)
            .with_cache(Some(cache.clone())),
    );
    let (warm, json_warm) = time(
        "threaded, warm cache",
        &Runner::serial()
            .with_threads(threads)
            .with_cache(Some(cache.clone())),
    );

    assert_eq!(json_unshared, json_shared, "sharing must not change output");
    assert_eq!(json_shared, json_cold, "parallel must match serial");
    assert_eq!(json_shared, json_warm, "cached must match computed");
    println!("\nall four runs byte-identical ✓");
    println!(
        "artifact sharing speedup:   {:.2}× (serial)",
        unshared.secs / shared.secs
    );
    println!(
        "parallel speedup vs serial: {:.2}× ({threads} worker(s))",
        shared.secs / cold.secs
    );
    println!(
        "warm cache vs cold:         {:.1}% of cold time",
        100.0 * warm.secs / cold.secs
    );

    let report = BenchReport {
        seed_baseline: SEED_BASELINE,
        grid_points: points,
        threads,
        sharing_speedup: unshared.secs / shared.secs,
        threaded_speedup_vs_serial: shared.secs / cold.secs,
        warm_cache_fraction_of_cold: warm.secs / cold.secs,
        byte_identical: true,
        serial_unshared: unshared,
        serial_shared: shared,
        threaded_cold_cache: cold,
        threaded_warm_cache: warm,
    };
    if smoke {
        let path =
            std::env::temp_dir().join(format!("BENCH_sweep-smoke-{}.json", std::process::id()));
        std::fs::write(
            &path,
            serde_json::to_string_pretty(&report).expect("serialize"),
        )
        .expect("write smoke report");
        println!("[smoke report written {}]", path.display());
        let _ = std::fs::remove_file(&path);
    } else if cfg!(feature = "audit") {
        // The committed BENCH_sweep baseline is measured on the default
        // (audit-free) build; an audit build must not rewrite it.
        println!("[audit build: BENCH_sweep baseline left untouched]");
    } else {
        dsv_bench::emit_json("BENCH_sweep", &report);
    }

    cluster_bench(threads, smoke);

    qoe_bench(&base, &rates, &depths, points, label, smoke);

    #[cfg(feature = "audit")]
    audit_overhead(&base, &rates, &depths, points, label, &json_shared, smoke);

    let _ = std::fs::remove_dir_all(&cache);
}

/// Prices the symmetry-cluster layer on the two sweeps it targets.
///
/// * The **aggregate declaration-order fairness sweep** (every committed
///   aggregate config re-declared at each distinct rotation) is where
///   exact clustering earns its keep: rotations are provable permutation
///   symmetries, so the clustered run simulates one representative per
///   class — at least 2× fewer simulations than the unclustered run —
///   while the transplanted outcomes stay byte-identical.
/// * The **dense QBone rate grid** is the honest counterpoint: its
///   points are all semantically distinct, so exact mode saves nothing
///   (recorded as `reduction 1.0×`), and `approx:<eps>` is the lever
///   that skips simulations there, with per-point error bounds recorded
///   in the provenance.
fn cluster_bench(threads: usize, smoke: bool) {
    #[derive(Serialize)]
    struct AggregateClusterReport {
        members: usize,
        full_simulated: usize,
        clustered_simulated: usize,
        simulation_reduction: f64,
        full_secs: f64,
        clustered_secs: f64,
        wall_clock_speedup: f64,
        byte_identical: bool,
    }

    #[derive(Serialize)]
    struct QboneClusterReport {
        grid_points: usize,
        exact_simulated: usize,
        exact_reduction: f64,
        approx_eps: f64,
        approx_simulated: usize,
        approx_interpolated: usize,
        approx_simulation_reduction: f64,
        approx_max_quality_bound: f64,
        approx_max_loss_bound: f64,
    }

    #[derive(Serialize)]
    struct ClusterReport {
        threads: usize,
        aggregate_rotation_sweep: AggregateClusterReport,
        qbone_rate_grid: QboneClusterReport,
    }

    // The aggregate fairness sweep: the committed findings grid, each
    // config re-declared at every distinct rotation (capped at 4 so the
    // N = 8 rows stay affordable).
    let enc = 1_000_000u64;
    let (depths, flows, fractions): (Vec<u32>, Vec<u32>, Vec<f64>) = if smoke {
        (vec![DEPTH_2MTU], vec![1, 2], vec![1.0, 1.4])
    } else {
        (
            vec![DEPTH_2MTU, DEPTH_3MTU],
            vec![1, 2, 4, 8],
            vec![0.9, 1.0, 1.1, 1.25, 1.4],
        )
    };
    let mut sweep: Vec<AggregateConfig> = Vec::new();
    for &depth in &depths {
        for &n in &flows {
            for &frac in &fractions {
                let rate = (enc as f64 * n as f64 * frac) as u64;
                let cfg = AggregateConfig::new(ClipId2::Lost, enc, n, EfProfile::new(rate, depth));
                for rot in 0..n.min(4) {
                    sweep.push(cfg.clone().with_rotation(rot));
                }
            }
        }
    }
    let members = sweep.len();
    println!("\ncluster layer (threaded, no result cache):");

    let full_runner = Runner::serial().with_threads(threads);
    let t0 = Instant::now();
    let full = full_runner.run_aggregate_batch(&sweep);
    let full_secs = t0.elapsed().as_secs_f64();
    let clustered_runner = full_runner.clone().with_cluster(ClusterMode::Exact);
    let t0 = Instant::now();
    let clustered = clustered_runner.run_aggregate_clustered(&sweep);
    let clustered_secs = t0.elapsed().as_secs_f64();
    let clustered_sims = clustered.iter().filter(|p| p.source.is_direct()).count();
    assert_eq!(
        serde_json::to_string(&full).expect("serialize"),
        serde_json::to_string(
            &clustered
                .iter()
                .map(|p| p.outcome.clone())
                .collect::<Vec<_>>()
        )
        .expect("serialize"),
        "clustered aggregate sweep must match the full run byte for byte"
    );
    let reduction = members as f64 / clustered_sims.max(1) as f64;
    println!(
        "  aggregate rotation sweep: {members} members, {clustered_sims} simulated \
         ({reduction:.2}× fewer), {full_secs:.2} s full → {clustered_secs:.2} s clustered \
         ({:.2}× wall clock), byte-identical ✓",
        full_secs / clustered_secs.max(1e-9),
    );
    if !smoke {
        assert!(
            reduction >= 2.0,
            "the fairness sweep must cluster at least 2×, got {reduction:.2}"
        );
    }
    let aggregate_report = AggregateClusterReport {
        members,
        full_simulated: members,
        clustered_simulated: clustered_sims,
        simulation_reduction: reduction,
        full_secs,
        clustered_secs,
        wall_clock_speedup: full_secs / clustered_secs.max(1e-9),
        byte_identical: true,
    };

    // The dense QBone rate grid: exact mode finds nothing to merge
    // (recorded honestly), approx trades bounded error for skipped
    // simulations.
    let qenc = 1_000_000u64;
    let qbase = QboneConfig::new(ClipId2::Lost, qenc, EfProfile::new(qenc, DEPTH_2MTU));
    let steps = if smoke { 8 } else { 64 };
    let jobs: Vec<Job> = default_rate_grid(qenc, steps)
        .into_iter()
        .map(|rate| {
            let mut cfg = qbase.clone();
            cfg.profile = EfProfile::new(rate, DEPTH_2MTU);
            Job::Qbone(cfg)
        })
        .collect();
    let exact = clustered_runner.run_clustered(&jobs);
    let exact_sims = exact.iter().filter(|p| p.source.is_direct()).count();
    let eps = 0.05;
    let approx = full_runner
        .clone()
        .with_cluster(ClusterMode::Approx(eps))
        .run_clustered(&jobs);
    let approx_sims = approx.iter().filter(|p| p.source.is_direct()).count();
    let mut max_quality_bound = 0.0f64;
    let mut max_loss_bound = 0.0f64;
    let mut interpolated = 0usize;
    for p in &approx {
        if let PointSource::Interpolated { ref bound, .. } = p.source {
            interpolated += 1;
            max_quality_bound = max_quality_bound.max(bound.quality);
            max_loss_bound = max_loss_bound.max(bound.frame_loss.max(bound.packet_loss));
        }
    }
    println!(
        "  qbone {steps}-point rate grid: exact simulates {exact_sims} \
         ({:.2}× — nothing symmetric to merge), approx:{eps} simulates {approx_sims} \
         ({interpolated} interpolated, worst bounds: quality {max_quality_bound:.3}, \
         loss {max_loss_bound:.3})",
        jobs.len() as f64 / exact_sims.max(1) as f64,
    );
    let report = ClusterReport {
        threads,
        aggregate_rotation_sweep: aggregate_report,
        qbone_rate_grid: QboneClusterReport {
            grid_points: jobs.len(),
            exact_simulated: exact_sims,
            exact_reduction: jobs.len() as f64 / exact_sims.max(1) as f64,
            approx_eps: eps,
            approx_simulated: approx_sims,
            approx_interpolated: interpolated,
            approx_simulation_reduction: jobs.len() as f64 / approx_sims.max(1) as f64,
            approx_max_quality_bound: max_quality_bound,
            approx_max_loss_bound: max_loss_bound,
        },
    };
    if smoke {
        let path =
            std::env::temp_dir().join(format!("BENCH_cluster-smoke-{}.json", std::process::id()));
        std::fs::write(
            &path,
            serde_json::to_string_pretty(&report).expect("serialize"),
        )
        .expect("write smoke cluster report");
        println!("[smoke cluster report written {}]", path.display());
        let _ = std::fs::remove_file(&path);
    } else if cfg!(feature = "audit") {
        println!("[audit build: BENCH_cluster baseline left untouched]");
    } else {
        dsv_bench::emit_json("BENCH_cluster", &report);
    }
}

/// Prices the QoE estimator fast path (DESIGN.md §12): the same serial,
/// shared-artifact, uncached sweep scored three ways.
///
/// * **full** — the per-frame VQM default; its score-stage share of the
///   staged wall time is the cost the proxy removes.
/// * **proxy** — the committed regression; outcome *values* differ from
///   full mode (they are estimates), so no byte-identity is asserted
///   between the two — the accuracy contract lives in the `qoe_proxy`
///   golden suite, not here.
/// * **sampled:4 and sampled:1** — must report exactly the proxy's
///   outcomes (the full-VQM checks are observers feeding the live error
///   bound), so byte-identity against the proxy run *is* asserted for
///   both. The sparse run's stats are recorded as-is — a handful of
///   checks is a noisy draw, not a mean, and may sit above the bound on
///   a cliff point. The `k = 1` run checks every flow, so its live MAE
///   *is* the grid's true MAE and is asserted against
///   [`PROXY_MAE_BOUND`].
fn qoe_bench(
    base: &QboneConfig,
    rates: &[u64],
    depths: &[u32],
    points: usize,
    label: &str,
    smoke: bool,
) {
    #[derive(Serialize)]
    struct ModeReport {
        secs: f64,
        score_secs: f64,
        /// Score-stage share of the batch's staged (encode + simulate +
        /// score) wall time.
        score_share: f64,
        flows_full_scored: u64,
        flows_proxy_scored: u64,
    }

    #[derive(Serialize)]
    struct SampledReport {
        k: u64,
        checked: u64,
        comparisons: u64,
        live_mae: Option<f64>,
        live_max_err: f64,
        committed_bound: f64,
        /// A sparse sample is a noisy draw; only the `k = 1` run's MAE
        /// (every flow checked) is asserted against the bound.
        mae_within_bound: bool,
    }

    #[derive(Serialize)]
    struct QoeBenchReport {
        grid_points: usize,
        full: ModeReport,
        proxy: ModeReport,
        /// Full-mode score-stage wall time over proxy-mode's.
        score_stage_speedup: f64,
        sampled_matches_proxy: bool,
        sampled_sparse: SampledReport,
        sampled_every_flow: SampledReport,
    }

    println!("\nqoe estimators (serial, shared artifacts, no result cache):");
    let time = |mode: QoeMode| -> (ModeReport, String) {
        let _scope = qoe::force_mode(mode);
        qoe::reset();
        let before = profile::snapshot();
        let t0 = Instant::now();
        let sweep = Runner::serial().qbone_sweep(base, rates, depths, label);
        let dt = t0.elapsed().as_secs_f64();
        let stages = profile::snapshot().since(&before);
        let d = qoe::snapshot();
        let staged = (stages.encode_ns + stages.simulate_ns + stages.score_ns) as f64;
        let score_secs = stages.score_ns as f64 / 1e9;
        let score_share = stages.score_ns as f64 / staged.max(1.0);
        println!(
            "  {:<12} {dt:7.2} s  (score stage {score_secs:.3} s = {:.1}% of staged time)",
            mode.label(),
            100.0 * score_share,
        );
        (
            ModeReport {
                secs: dt,
                score_secs,
                score_share,
                flows_full_scored: d.full_scored,
                flows_proxy_scored: d.proxy_scored,
            },
            serde_json::to_string(&sweep).expect("serialize"),
        )
    };

    let (full, _json_full) = time(QoeMode::Full);
    let (proxy, json_proxy) = time(QoeMode::Proxy);

    let sampled = |k: u64| -> SampledReport {
        let (json_sampled, d) = {
            let _scope = qoe::force_mode(QoeMode::Sampled(k));
            qoe::reset();
            let sweep = Runner::serial().qbone_sweep(base, rates, depths, label);
            (
                serde_json::to_string(&sweep).expect("serialize"),
                qoe::snapshot(),
            )
        };
        assert_eq!(
            json_proxy, json_sampled,
            "sampled:{k} must report the proxy's outcomes byte for byte"
        );
        let live_mae = d.live_mae();
        println!(
            "  sampled:{k}    {} of {} flows checked, live MAE {} (bound {PROXY_MAE_BOUND}), \
             outcomes byte-identical to proxy ✓",
            d.sampled_checked,
            d.proxy_scored,
            live_mae
                .map(|m| format!("{m:.4}"))
                .unwrap_or_else(|| "n/a".to_string()),
        );
        SampledReport {
            k,
            checked: d.sampled_checked,
            comparisons: d.sampled_errs,
            live_mae,
            live_max_err: d.live_max_err(),
            committed_bound: PROXY_MAE_BOUND,
            mae_within_bound: live_mae.is_none_or(|m| m <= PROXY_MAE_BOUND),
        }
    };
    let sparse = sampled(4);
    let every_flow = sampled(1);
    if !smoke {
        assert!(
            every_flow.mae_within_bound,
            "grid MAE {:?} (every flow checked) exceeds the committed bound {PROXY_MAE_BOUND}",
            every_flow.live_mae
        );
    }

    let report = QoeBenchReport {
        grid_points: points,
        score_stage_speedup: full.score_secs / proxy.score_secs.max(1e-9),
        full,
        proxy,
        sampled_matches_proxy: true,
        sampled_sparse: sparse,
        sampled_every_flow: every_flow,
    };
    if smoke {
        let path =
            std::env::temp_dir().join(format!("BENCH_qoe-smoke-{}.json", std::process::id()));
        std::fs::write(
            &path,
            serde_json::to_string_pretty(&report).expect("serialize"),
        )
        .expect("write smoke qoe report");
        println!("[smoke qoe report written {}]", path.display());
        let _ = std::fs::remove_file(&path);
    } else if cfg!(feature = "audit") {
        println!("[audit build: BENCH_qoe baseline left untouched]");
    } else {
        dsv_bench::emit_json("BENCH_qoe", &report);
    }
}

/// Overhead report for the audit oracles: the same serial shared sweep
/// with the runtime switch disarmed and armed. The disarmed run prices
/// the compiled-in hooks (one relaxed atomic load per event); the armed
/// run prices the full ledger. Both must reproduce the baseline output
/// byte for byte — the oracles are observers.
#[cfg(feature = "audit")]
fn audit_overhead(
    base: &QboneConfig,
    rates: &[u64],
    depths: &[u32],
    points: usize,
    label: &str,
    baseline_json: &str,
    smoke: bool,
) {
    #[derive(Serialize)]
    struct AuditBenchReport {
        grid_points: usize,
        disarmed_secs: f64,
        armed_secs: f64,
        disarmed_event_rate_per_sec: f64,
        armed_event_rate_per_sec: f64,
        /// armed wall time over disarmed (1.0 = free).
        armed_overhead_ratio: f64,
        byte_identical: bool,
    }

    println!("\naudit overhead (serial, shared artifacts, no result cache):");
    let time = |armed: bool| -> (f64, f64, String) {
        dsv_sim::audit::set_enabled_for_process(Some(armed));
        let before = profile::snapshot();
        let t0 = Instant::now();
        let sweep = Runner::serial().qbone_sweep(base, rates, depths, label);
        let dt = t0.elapsed().as_secs_f64();
        let rate = profile::snapshot().since(&before).event_rate_per_sec();
        dsv_sim::audit::set_enabled_for_process(None);
        println!(
            "  {:<10} {dt:7.2} s  ({:.2} pts/s, {:.2} M ev/s)",
            if armed { "armed" } else { "disarmed" },
            points as f64 / dt.max(1e-9),
            rate / 1e6,
        );
        (dt, rate, serde_json::to_string(&sweep).expect("serialize"))
    };
    let (off_secs, off_rate, off_json) = time(false);
    let (on_secs, on_rate, on_json) = time(true);
    assert_eq!(
        baseline_json, &off_json,
        "disarmed audit build must match the baseline output"
    );
    assert_eq!(&off_json, &on_json, "armed audits must not change results");
    println!(
        "  armed/disarmed ratio:  {:.2}× (outputs byte-identical ✓)",
        on_secs / off_secs
    );

    let report = AuditBenchReport {
        grid_points: points,
        disarmed_secs: off_secs,
        armed_secs: on_secs,
        disarmed_event_rate_per_sec: off_rate,
        armed_event_rate_per_sec: on_rate,
        armed_overhead_ratio: on_secs / off_secs,
        byte_identical: true,
    };
    if smoke {
        let path =
            std::env::temp_dir().join(format!("BENCH_audit-smoke-{}.json", std::process::id()));
        std::fs::write(
            &path,
            serde_json::to_string_pretty(&report).expect("serialize"),
        )
        .expect("write smoke report");
        println!("[smoke audit report written {}]", path.display());
        let _ = std::fs::remove_file(&path);
    } else {
        dsv_bench::emit_json("BENCH_audit", &report);
    }
}
