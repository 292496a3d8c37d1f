//! The figure/table regeneration routines. Each function reproduces one
//! artefact of the paper's evaluation; the `src/bin/` wrappers call them.

use dsv_core::prelude::*;
use dsv_media::encoder::{mpeg1, wmv};
use dsv_media::stats::{rate_series, ClipStats};
use serde::Serialize;

use crate::{emit_json, emit_sweep};

pub use dsv_core::sweep::qbone_grid;

/// Table 1: the Frame-Relay interface configuration.
pub fn table1() {
    use dsv_net::frame_relay::table1 as t1;
    let rows: Vec<Vec<String>> = t1::all()
        .into_iter()
        .map(|(router, ifname, p)| {
            vec![
                router.to_string(),
                ifname.to_string(),
                format!("{}", p.cir_bps),
                format!("{}", p.bc_bits),
                format!("{}", p.be_bits),
                format!("{:?}", p.interface),
            ]
        })
        .collect();
    println!("Table 1. Configurations of the Frame Relay Interfaces.\n");
    print!(
        "{}",
        format_table(&["Router #", "I/f #", "CIR", "Bc", "Be", "I/F Type"], &rows)
    );
}

#[derive(Serialize)]
struct Table2Row {
    clip: String,
    encoding_bps: u64,
    bytes: u64,
    frames: u32,
    length_secs: f64,
    avg_frame_bytes: f64,
    max_rate_bps: f64,
    avg_rate_bps: f64,
    min_rate_bps: f64,
}

/// Table 2: MPEG encoding properties of clips Lost and Dark.
pub fn table2() {
    println!("Table 2. MPEG Encoding Properties of Clips Lost and Dark.\n");
    let mut all = Vec::new();
    for clip in [ClipId::Lost, ClipId::Dark] {
        let model = clip.model();
        let mut rows = Vec::new();
        for rate in [1_700_000u64, 1_500_000, 1_000_000] {
            let enc = mpeg1::encode(&model, rate);
            let s = ClipStats::of(&enc);
            rows.push(vec![
                format!("{:.1}M", rate as f64 / 1e6),
                s.total_bytes.to_string(),
                s.frames.to_string(),
                format!("{:.2} s", s.length_secs),
                format!("{:.0} bytes", s.avg_frame_bytes),
                format!("{:.0}", s.max_rate_bps),
                format!("{:.2}", s.avg_rate_bps),
                format!("{:.0}", s.min_rate_bps),
            ]);
            all.push(Table2Row {
                clip: clip.name().to_string(),
                encoding_bps: rate,
                bytes: s.total_bytes,
                frames: s.frames,
                length_secs: s.length_secs,
                avg_frame_bytes: s.avg_frame_bytes,
                max_rate_bps: s.max_rate_bps,
                avg_rate_bps: s.avg_rate_bps,
                min_rate_bps: s.min_rate_bps,
            });
        }
        println!("Clip {}:", clip.name());
        print!(
            "{}",
            format_table(
                &[
                    "Encoding rate",
                    "Bytes read",
                    "Frames",
                    "Length",
                    "Avg. frame size",
                    "Max rate (bps)",
                    "Avg rate (bps)",
                    "Min rate (bps)",
                ],
                &rows
            )
        );
        println!();
    }
    emit_json("table2_mpeg_properties", &all);
}

#[derive(Serialize)]
struct Table3Row {
    clip: String,
    cap_bps: u64,
    bytes_encoded: u64,
    expected_kbps: f64,
    average_kbps: f64,
    frames: u32,
    fps: f64,
}

/// Table 3: properties of the Windows-Media encoded clips.
pub fn table3() {
    println!("Table 3. Properties of Windows Media Encoded Clips.\n");
    let mut all = Vec::new();
    let mut rows = Vec::new();
    for clip in [ClipId::Lost, ClipId::Dark] {
        let model = clip.model();
        let enc = wmv::encode(&model, wmv::PAPER_CAP_BPS);
        rows.push(vec![
            clip.name().to_string(),
            enc.total_bytes().to_string(),
            format!("{:.1} kbps", wmv::PAPER_CAP_BPS as f64 / 1e3),
            format!("{:.1} kbps", enc.average_bps() / 1e3),
            enc.frames.len().to_string(),
            format!("{:.1}", dsv_media::frame::fps()),
        ]);
        all.push(Table3Row {
            clip: clip.name().to_string(),
            cap_bps: wmv::PAPER_CAP_BPS,
            bytes_encoded: enc.total_bytes(),
            expected_kbps: wmv::PAPER_CAP_BPS as f64 / 1e3,
            average_kbps: enc.average_bps() / 1e3,
            frames: enc.frames.len() as u32,
            fps: dsv_media::frame::fps(),
        });
    }
    print!(
        "{}",
        format_table(
            &[
                "Clip",
                "Bytes encoded",
                "Bit rate (expected)",
                "Bit rate (average)",
                "Frames",
                "Frames/s",
            ],
            &rows
        )
    );
    emit_json("table3_wmv_properties", &all);
}

/// Table 4: summary of experimental configurations.
pub fn table4() {
    println!("Table 4. Summary of Experimental Configurations.\n");
    print!("{}", table4_summary());
}

/// Figure 6: instantaneous transmission rates of the MPEG-1 clips.
pub fn fig06() {
    println!("Figure 6. Instantaneous transmission rates (1 s sliding window).\n");
    #[derive(Serialize)]
    struct Series {
        clip: String,
        encoding_bps: u64,
        points: Vec<(f64, f64)>,
    }
    let mut all = Vec::new();
    for clip in [ClipId::Lost, ClipId::Dark] {
        for rate in [1_700_000u64, 1_500_000, 1_000_000] {
            let enc = mpeg1::encode(&clip.model(), rate);
            let series = rate_series(&enc, 30);
            // Print a decimated summary (every second).
            let decimated: Vec<(f64, f64)> = series.iter().step_by(30).copied().collect();
            let min = series.iter().map(|p| p.1).fold(f64::MAX, f64::min);
            let max = series.iter().map(|p| p.1).fold(f64::MIN, f64::max);
            println!(
                "{} @{:.1}M: windowed rate in [{:.0}, {:.0}] bps over {} samples",
                clip.name(),
                rate as f64 / 1e6,
                min,
                max,
                series.len()
            );
            all.push(Series {
                clip: clip.name().to_string(),
                encoding_bps: rate,
                points: decimated,
            });
        }
    }
    emit_json("fig06_instantaneous_rates", &all);
}

/// One QBone figure: `clip` at `enc` over [`qbone_grid`] and both paper
/// bucket depths.
fn qbone_figure(clip: ClipId2, enc: u64, label: String) -> SweepResult {
    let rates = qbone_grid(enc);
    let depths = [DEPTH_2MTU, DEPTH_3MTU];
    let jobs = sweep_jobs(&rates, &depths, |profile| {
        Job::Qbone(QboneConfig::new(clip, enc, profile))
    });
    SweepResult::new(label, &rates, &depths, Runner::from_env().run(&jobs))
}

/// Figures 7–9: QBone, clip Lost at 1.7/1.5/1.0 Mbps — quality and frame
/// loss versus token rate for both bucket depths.
pub fn fig07_09() {
    for (fig, enc) in [(7u32, 1_700_000u64), (8, 1_500_000), (9, 1_000_000)] {
        let sweep = qbone_figure(
            ClipId2::Lost,
            enc,
            format!(
                "Figure {fig}. QBone Streaming (Lost clip/{:.1} Mbps encoding): Video Quality & Frame Loss vs Token Rate",
                enc as f64 / 1e6
            ),
        );
        emit_sweep(&format!("fig{fig:02}_qbone_lost_{}k", enc / 1000), &sweep);
    }
}

/// Figures 10–12: same for clip Dark.
pub fn fig10_12() {
    for (fig, enc) in [(10u32, 1_700_000u64), (11, 1_500_000), (12, 1_000_000)] {
        let sweep = qbone_figure(
            ClipId2::Dark,
            enc,
            format!(
                "Figure {fig}. QBone Streaming (Dark clip/{:.1} Mbps encoding): Video Quality & Frame Loss vs Token Rate",
                enc as f64 / 1e6
            ),
        );
        emit_sweep(&format!("fig{fig}_qbone_dark_{}k", enc / 1000), &sweep);
    }
}

/// The paper's second QBone experiment set (figures 13–14 in spirit):
/// quality versus token rate with the **1.7 Mbps encoding as the common
/// reference** for all three encodings — the "is a lower encoding with
/// fewer losses better?" question.
pub fn fig13_relative() {
    #[derive(Serialize)]
    struct Row {
        clip: String,
        encoding_bps: u64,
        token_rate_bps: u64,
        depth: u32,
        quality_vs_best: f64,
        frame_loss: f64,
    }
    let mut all = Vec::new();
    let runner = Runner::from_env();
    for clip in [ClipId2::Lost, ClipId2::Dark] {
        println!(
            "\n# Relative quality (reference = 1.7 Mbps encoding), clip {:?}",
            clip
        );
        let rates: Vec<u64> = (0..10)
            .map(|i| (1_000_000.0 + i as f64 * 150_000.0) as u64)
            .collect();
        for enc in [1_000_000u64, 1_500_000, 1_700_000] {
            let jobs: Vec<Job> = rates
                .iter()
                .map(|&r| {
                    let mut cfg = QboneConfig::new(clip, enc, EfProfile::new(r, DEPTH_3MTU));
                    cfg.score_vs_best = true;
                    Job::Qbone(cfg)
                })
                .collect();
            let mut rows = Vec::new();
            for (&r, out) in rates.iter().zip(runner.run(&jobs)) {
                let q = out.quality_vs_best.expect("requested");
                rows.push(vec![
                    format!("{:.2}", r as f64 / 1e6),
                    format!("{q:.3}"),
                    format!("{:.4}", out.frame_loss),
                ]);
                all.push(Row {
                    clip: format!("{clip:?}"),
                    encoding_bps: enc,
                    token_rate_bps: r,
                    depth: DEPTH_3MTU,
                    quality_vs_best: q,
                    frame_loss: out.frame_loss,
                });
            }
            println!("\n## encoding {:.1} Mbps (depth 4500)", enc as f64 / 1e6);
            print!(
                "{}",
                format_table(
                    &["token rate (Mbps)", "quality vs 1.7M ref", "frame loss"],
                    &rows
                )
            );
        }
    }
    emit_json("fig13_relative_quality", &all);
}

/// The local-testbed figures (§4.2): WMT-style server, quality versus
/// token rate for both depths, UDP unshaped / UDP shaped / TCP.
pub fn fig15_local() {
    let rates: Vec<u64> = (0..10)
        .map(|i| (700_000.0 + i as f64 * 150_000.0) as u64)
        .collect();
    for (tag, transport, shaped) in [
        ("udp_unshaped", LocalTransport::Udp, false),
        ("udp_shaped", LocalTransport::Udp, true),
        ("tcp", LocalTransport::Tcp, false),
        ("tcp_shaped", LocalTransport::Tcp, true),
    ] {
        let depths = [DEPTH_2MTU, DEPTH_3MTU];
        let jobs = sweep_jobs(&rates, &depths, |profile| {
            let mut cfg = LocalConfig::new(ClipId2::Lost, profile, transport);
            cfg.shaped = shaped;
            Job::Local(cfg)
        });
        let sweep = SweepResult::new(
            format!(
                "Local testbed (Lost/WMV ≈1 Mbps, {tag}): Video Quality & Frame Loss vs Token Rate"
            ),
            &rates,
            &depths,
            Runner::from_env().run(&jobs),
        );
        emit_sweep(&format!("fig15_local_{tag}"), &sweep);
    }
}

/// Figure 16 (beyond the paper): N paced video flows behind one
/// aggregate EF policer at the edge — per-flow quality and loss versus
/// the aggregate token rate, for both paper bucket depths. The grid is
/// the one the `paper_findings_aggregate` suite pins as a golden: rate
/// alone cannot keep aggregates watchable because the N in-phase
/// server bursts outgrow any fixed bucket depth.
pub fn fig16_aggregate() {
    println!("Figure 16. Aggregate EF policing: per-flow quality vs aggregate token rate.\n");
    #[derive(Serialize)]
    struct Out {
        flows: u32,
        depth_bytes: u32,
        rate_fraction: f64,
        aggregate_rate_bps: u64,
        mean_quality: f64,
        worst_quality: f64,
        mean_packet_loss: f64,
        policer_drops: u64,
    }
    const ENC: u64 = 1_000_000;
    let fractions = [0.9, 1.0, 1.1, 1.25, 1.4];
    let mut cfgs = Vec::new();
    for &depth in &[DEPTH_2MTU, DEPTH_3MTU] {
        for &n in &[1u32, 2, 4, 8] {
            for &frac in &fractions {
                let rate = (ENC as f64 * n as f64 * frac) as u64;
                cfgs.push(AggregateConfig::new(
                    ClipId2::Lost,
                    ENC,
                    n,
                    EfProfile::new(rate, depth),
                ));
            }
        }
    }
    let outs = Runner::from_env().run(&cfgs);
    let mut all = Vec::new();
    let mut rows = Vec::new();
    for (cfg, out) in cfgs.iter().zip(&outs) {
        let frac = cfg.profile.token_rate_bps as f64 / (ENC as f64 * cfg.flows as f64);
        rows.push(vec![
            cfg.flows.to_string(),
            cfg.profile.bucket_depth_bytes.to_string(),
            format!("{frac:.2}"),
            cfg.profile.token_rate_bps.to_string(),
            format!("{:.3}", out.mean_quality()),
            format!("{:.3}", out.worst_quality()),
            format!("{:.3}", out.mean_packet_loss()),
            out.total_policer_drops().to_string(),
        ]);
        all.push(Out {
            flows: cfg.flows,
            depth_bytes: cfg.profile.bucket_depth_bytes,
            rate_fraction: frac,
            aggregate_rate_bps: cfg.profile.token_rate_bps,
            mean_quality: out.mean_quality(),
            worst_quality: out.worst_quality(),
            mean_packet_loss: out.mean_packet_loss(),
            policer_drops: out.total_policer_drops(),
        });
    }
    print!(
        "{}",
        format_table(
            &[
                "flows",
                "depth",
                "rate/N·enc",
                "agg rate (bps)",
                "mean VQM",
                "worst VQM",
                "pkt loss",
                "policer drops"
            ],
            &rows
        )
    );
    println!("\n(Provisioning the aggregate at N × the single-flow profile is not");
    println!("enough: the bucket depth must scale with N too, or the policer");
    println!("clips every in-phase burst no matter how generous the token rate.)");
    emit_json("fig16_aggregate", &all);
}

/// Figure 17 (beyond the paper): the §5 self-smoothing conjecture —
/// bursty vs TCP vs ABR goodput and loss versus bucket depth, on the
/// same grid the `paper_findings_tcp_smoothing` suite pins as a golden.
pub fn fig17_tcp_smoothing() {
    use dsv_core::smoothing::{DEPTH_10MTU, DEPTH_40MTU};
    println!("Figure 17. Server discipline vs EF profile: goodput, loss, and the ABR ladder.\n");
    #[derive(Serialize)]
    struct Out {
        server: String,
        token_rate_bps: u64,
        depth_bytes: u32,
        achieved_bps: f64,
        packet_loss: f64,
        policer_drops: u64,
        mean_rung: f64,
        stall_s: f64,
        broken: bool,
    }
    const ENC: u64 = 1_500_000;
    let mut jobs = Vec::new();
    for &server in &[
        SmoothingServer::Bursty,
        SmoothingServer::Tcp,
        SmoothingServer::Abr,
    ] {
        for &rate in &[800_000u64, 1_650_000, 5_000_000] {
            for &depth in &[DEPTH_2MTU, DEPTH_10MTU, DEPTH_40MTU] {
                jobs.push(FlowJob::Smoothing(SmoothingConfig::new(
                    ClipId2::Lost,
                    ENC,
                    server,
                    EfProfile::new(rate, depth),
                )));
            }
        }
    }
    let outs = Runner::from_env().run(&jobs);
    let mut all = Vec::new();
    let mut rows = Vec::new();
    for (job, out) in jobs.iter().zip(&outs) {
        let FlowJob::Smoothing(cfg) = job else {
            unreachable!()
        };
        let f = &out.per_flow[0];
        rows.push(vec![
            format!("{:?}", cfg.server),
            cfg.profile.token_rate_bps.to_string(),
            cfg.profile.bucket_depth_bytes.to_string(),
            format!("{:.0}", f.achieved_bps),
            format!("{:.3}", f.packet_loss),
            f.policer_drops.to_string(),
            format!("{:.2}", f.mean_rung),
            format!("{:.2}", f.stall_s),
            if f.broken { "yes" } else { "" }.to_string(),
        ]);
        all.push(Out {
            server: format!("{:?}", cfg.server),
            token_rate_bps: cfg.profile.token_rate_bps,
            depth_bytes: cfg.profile.bucket_depth_bytes,
            achieved_bps: f.achieved_bps,
            packet_loss: f.packet_loss,
            policer_drops: f.policer_drops,
            mean_rung: f.mean_rung,
            stall_s: f.stall_s,
            broken: f.broken,
        });
    }
    print!(
        "{}",
        format_table(
            &[
                "server",
                "token rate",
                "depth",
                "goodput (bps)",
                "pkt loss",
                "policer drops",
                "mean rung",
                "stall (s)",
                "broken"
            ],
            &rows
        )
    );
    println!("\n(TCP self-smooths only in loss terms at the paper's shallow buckets —");
    println!("its goodput is capped by the bucket depth, not the token rate. Deep");
    println!("buckets invert the ranking, and the ABR ladder turns the residual");
    println!("loss story into a rung/stall story.)");
    emit_json("fig17_tcp_smoothing", &all);
}

/// Figure 18 (beyond the paper): the Lochin & Anelli AF reproduction —
/// target vs achieved throughput for metered TCP flows into a WRED AF
/// bottleneck, on the grid `paper_findings_af_tcp` pins as a golden.
pub fn fig18_af_tcp() {
    println!("Figure 18. AF rate guarantees for TCP: target vs achieved throughput.\n");
    #[derive(Serialize)]
    struct Out {
        scenario: String,
        meter: String,
        provisioning: f64,
        flow: usize,
        rtt_extra_ms: u64,
        target_bps: u64,
        achieved_bps: f64,
        ratio: f64,
        mean_delay_ms: f64,
    }
    const BOTTLENECK: u64 = 6_000_000;
    let mut jobs = Vec::new();
    let mut labels = Vec::new();
    for &trtcm in &[false, true] {
        for &frac in &[0.3, 0.5, 0.7, 0.85, 0.95] {
            let per_flow = (BOTTLENECK as f64 * frac / 4.0) as u64;
            let mut cfg = AfTcpConfig::new(vec![per_flow; 4], vec![0; 4]);
            cfg.trtcm = trtcm;
            jobs.push(FlowJob::AfTcp(cfg));
            labels.push("equal".to_string());
        }
    }
    jobs.push(FlowJob::AfTcp(AfTcpConfig::new(
        vec![1_050_000; 4],
        vec![0, 0, 40, 40],
    )));
    labels.push("rtt-pair".to_string());
    jobs.push(FlowJob::AfTcp(AfTcpConfig::new(
        vec![250_000, 500_000, 750_000, 1_350_000],
        vec![0; 4],
    )));
    labels.push("hetero-low".to_string());
    jobs.push(FlowJob::AfTcp(AfTcpConfig::new(
        vec![500_000, 1_000_000, 1_500_000, 2_700_000],
        vec![0; 4],
    )));
    labels.push("hetero-near".to_string());

    let outs = Runner::from_env().run(&jobs);
    let mut all = Vec::new();
    let mut rows = Vec::new();
    for ((job, label), out) in jobs.iter().zip(&labels).zip(&outs) {
        let FlowJob::AfTcp(cfg) = job else {
            unreachable!()
        };
        let meter = if cfg.trtcm { "trTCM" } else { "srTCM" };
        for (i, f) in out.per_flow.iter().enumerate() {
            let ratio = f.achieved_bps / f.target_bps as f64;
            rows.push(vec![
                label.clone(),
                meter.to_string(),
                format!("{:.2}", cfg.provisioning()),
                i.to_string(),
                cfg.rtt_extra_ms[i].to_string(),
                f.target_bps.to_string(),
                format!("{:.0}", f.achieved_bps),
                format!("{ratio:.2}"),
                format!("{:.1}", f.mean_delay_ms),
            ]);
            all.push(Out {
                scenario: label.clone(),
                meter: meter.to_string(),
                provisioning: cfg.provisioning(),
                flow: i,
                rtt_extra_ms: cfg.rtt_extra_ms[i],
                target_bps: f.target_bps,
                achieved_bps: f.achieved_bps,
                ratio,
                mean_delay_ms: f.mean_delay_ms,
            });
        }
    }
    print!(
        "{}",
        format_table(
            &[
                "scenario",
                "meter",
                "prov",
                "flow",
                "rtt+ms",
                "target (bps)",
                "achieved (bps)",
                "ach/tgt",
                "delay (ms)"
            ],
            &rows
        )
    );
    println!("\n(The committed rate is honored only while the aggregate stays well");
    println!("below the bottleneck; near capacity every flow undershoots, long-RTT");
    println!("flows undershoot first, and the trTCM's peak band rescues nothing.)");
    emit_json("fig18_af_tcp", &all);
}

/// Ablation: the large-datagram servers' bi-modal behaviour (paper §4).
pub fn ablation_bimodal() {
    #[derive(Serialize)]
    struct Row {
        server: String,
        token_rate_bps: u64,
        quality: f64,
        frame_loss: f64,
        packet_loss: f64,
    }
    println!("Ablation: paced vs large-datagram (bi-modal) server under EF policing\n");
    let mut all = Vec::new();
    let enc = 1_500_000u64;
    let rates: Vec<u64> = (0..10)
        .map(|i| (enc as f64 * (0.9 + i as f64 * 0.55)) as u64)
        .collect();
    let runner = Runner::from_env();
    for (name, server) in [
        ("paced", QboneServer::Paced),
        ("bursty", QboneServer::Bursty),
    ] {
        let jobs: Vec<Job> = rates
            .iter()
            .map(|&r| {
                let mut cfg = QboneConfig::new(ClipId2::Lost, enc, EfProfile::new(r, DEPTH_2MTU));
                cfg.server = server;
                Job::Qbone(cfg)
            })
            .collect();
        let mut rows = Vec::new();
        for (&r, out) in rates.iter().zip(runner.run(&jobs)) {
            rows.push(vec![
                format!("{:.2}", r as f64 / 1e6),
                format!("{:.3}", out.quality),
                format!("{:.4}", out.frame_loss),
                format!("{:.4}", out.packet_loss),
            ]);
            all.push(Row {
                server: name.into(),
                token_rate_bps: r,
                quality: out.quality,
                frame_loss: out.frame_loss,
                packet_loss: out.packet_loss,
            });
        }
        println!("\n## {name} server (depth 3000)");
        print!(
            "{}",
            format_table(
                &["token rate (Mbps)", "quality", "frame loss", "packet loss"],
                &rows
            )
        );
    }
    emit_json("ablation_bimodal", &all);
}

/// Ablation: the WMT mis-adaptation death spiral (paper §4).
pub fn ablation_death_spiral() {
    println!("Ablation: adaptive-server death spiral under hard policing\n");
    #[derive(Serialize)]
    struct Out {
        token_rate_bps: u64,
        quality: f64,
        collapses: u32,
        broken: bool,
        frame_loss: f64,
    }
    let mut all = Vec::new();
    let mut rows = Vec::new();
    let rates = [
        600_000u64, 800_000, 1_000_000, 1_200_000, 1_600_000, 2_000_000,
    ];
    let jobs: Vec<Job> = rates
        .iter()
        .map(|&r| {
            let mut cfg = LocalConfig::new(
                ClipId2::Lost,
                EfProfile::new(r, DEPTH_2MTU),
                LocalTransport::Udp,
            );
            cfg.multi_rate = true;
            Job::Local(cfg)
        })
        .collect();
    for (&r, out) in rates.iter().zip(Runner::from_env().run(&jobs)) {
        rows.push(vec![
            format!("{:.2}", r as f64 / 1e6),
            format!("{:.3}", out.quality),
            out.collapses.to_string(),
            out.broken.to_string(),
            format!("{:.4}", out.frame_loss),
        ]);
        all.push(Out {
            token_rate_bps: r,
            quality: out.quality,
            collapses: out.collapses,
            broken: out.broken,
            frame_loss: out.frame_loss,
        });
    }
    print!(
        "{}",
        format_table(
            &[
                "token rate (Mbps)",
                "quality",
                "collapses",
                "broken",
                "frame loss"
            ],
            &rows
        )
    );
    emit_json("ablation_death_spiral", &all);
}

/// Ablation: fine bucket-depth sweep at a fixed token rate (extends the
/// paper's 2-vs-3-MTU finding to 1–4 MTU).
pub fn ablation_bucket_depth() {
    println!("Ablation: bucket depth 1–4 MTU at token rate = encoding average\n");
    #[derive(Serialize)]
    struct Out {
        depth_bytes: u32,
        quality: f64,
        frame_loss: f64,
    }
    let mut all = Vec::new();
    let mut rows = Vec::new();
    let enc = 1_500_000u64;
    let depths = [1500u32, 2250, 3000, 3750, 4500, 5250, 6000];
    let jobs: Vec<Job> = depths
        .iter()
        .map(|&depth| {
            Job::Qbone(QboneConfig::new(
                ClipId2::Lost,
                enc,
                EfProfile::new((enc as f64 * 1.06) as u64, depth),
            ))
        })
        .collect();
    for (&depth, out) in depths.iter().zip(Runner::from_env().run(&jobs)) {
        rows.push(vec![
            depth.to_string(),
            format!("{:.3}", out.quality),
            format!("{:.4}", out.frame_loss),
        ]);
        all.push(Out {
            depth_bytes: depth,
            quality: out.quality,
            frame_loss: out.frame_loss,
        });
    }
    print!(
        "{}",
        format_table(&["depth (bytes)", "quality", "frame loss"], &rows)
    );
    emit_json("ablation_bucket_depth", &all);
}

/// Ablation: content dependence — the same QBone sweep on three clips
/// spanning the content spectrum (fast-cut action, dark trailer, static
/// talking head). The paper argues shapes are content-independent while
/// absolute scores differ; the `Talk` clip (not in the paper) pushes that
/// claim to the low-motion extreme.
pub fn ablation_content() {
    println!("Ablation: quality vs token rate across content types (1.5 Mbps, depth 4500)\n");
    #[derive(Serialize)]
    struct Out {
        clip: String,
        token_rate_bps: u64,
        quality: f64,
        frame_loss: f64,
    }
    let mut all = Vec::new();
    let enc = 1_500_000u64;
    let rates: Vec<u64> = (0..8)
        .map(|i| (enc as f64 * (0.9 + i as f64 * 0.07)) as u64)
        .collect();
    let runner = Runner::from_env();
    for clip in [ClipId2::Lost, ClipId2::Dark, ClipId2::Talk] {
        let jobs: Vec<Job> = rates
            .iter()
            .map(|&r| Job::Qbone(QboneConfig::new(clip, enc, EfProfile::new(r, DEPTH_3MTU))))
            .collect();
        let mut rows = Vec::new();
        for (&r, out) in rates.iter().zip(runner.run(&jobs)) {
            rows.push(vec![
                format!("{:.2}", r as f64 / 1e6),
                format!("{:.3}", out.quality),
                format!("{:.4}", out.frame_loss),
            ]);
            all.push(Out {
                clip: format!("{clip:?}"),
                token_rate_bps: r,
                quality: out.quality,
                frame_loss: out.frame_loss,
            });
        }
        println!("\n## clip {clip:?}");
        print!(
            "{}",
            format_table(&["token rate (Mbps)", "quality", "frame loss"], &rows)
        );
    }
    emit_json("ablation_content", &all);
}

/// Ablation: the "future MPEG server" — multi-rate content selection
/// matched to the purchased profile, against a fixed 1.7 Mbps encoding.
/// Both scored against the 1.7 Mbps reference (the viewer's ideal).
pub fn ablation_multirate() {
    println!("Ablation: fixed 1.7 Mbps encoding vs multi-rate server (both vs 1.7M reference)\n");
    #[derive(Serialize)]
    struct Out {
        token_rate_bps: u64,
        fixed_quality: f64,
        multirate_quality: f64,
    }
    let mut all = Vec::new();
    let mut rows = Vec::new();
    let rates = [
        1_000_000u64,
        1_200_000,
        1_400_000,
        1_600_000,
        1_800_000,
        2_000_000,
        2_200_000,
    ];
    // One batch, fixed/multi-rate interleaved per rate point.
    let jobs: Vec<Job> = rates
        .iter()
        .flat_map(|&r| {
            let mut fixed =
                QboneConfig::new(ClipId2::Lost, 1_700_000, EfProfile::new(r, DEPTH_3MTU));
            fixed.score_vs_best = true;
            let mut multi = fixed.clone();
            multi.server = QboneServer::MultiRatePaced;
            [Job::Qbone(fixed), Job::Qbone(multi)]
        })
        .collect();
    let outs = Runner::from_env().run(&jobs);
    for (&r, pair) in rates.iter().zip(outs.chunks(2)) {
        let f = pair[0].quality_vs_best.expect("requested");
        let m = pair[1].quality_vs_best.expect("requested");
        rows.push(vec![
            format!("{:.1}", r as f64 / 1e6),
            format!("{f:.3}"),
            format!("{m:.3}"),
        ]);
        all.push(Out {
            token_rate_bps: r,
            fixed_quality: f,
            multirate_quality: m,
        });
    }
    print!(
        "{}",
        format_table(
            &[
                "token rate (Mbps)",
                "fixed 1.7M quality",
                "multi-rate quality"
            ],
            &rows
        )
    );
    println!("\n(The multi-rate server trades encoding fidelity for loss immunity —");
    println!("the winning trade everywhere the profile can't carry 1.7 Mbps.)");
    emit_json("ablation_multirate", &all);
}

/// Ablation: EF delay and jitter accumulation across hops — the
/// conclusion-section concern that larger buckets "can in turn contribute
/// to the accumulation of larger bursts as the EF traffic traverses
/// multiple hops".
pub fn ablation_hop_jitter() {
    use dsv_scenario::{
        ActionSpec, AppSpec, ClipId2, CodecSpec, ConditionerSpec, DscpSpec, LimitsSpec, LinkParams,
        LinkSpec, MatchSpec, MediaRef, NodeSpec, QdiscSpec, RuleSpec, ScenarioSpec, TransportSpec,
    };

    println!("Ablation: EF delay/jitter vs hop count (BE cross load at every hop)\n");
    #[derive(Serialize)]
    struct Out {
        hops: usize,
        p50_ms: f64,
        p99_ms: f64,
        jitter_ms: f64,
        frame_loss: f64,
    }
    let mut all = Vec::new();
    let mut rows = Vec::new();
    for hops in [1usize, 2, 4, 6, 8] {
        let media = MediaRef {
            clip: ClipId2::Lost,
            codec: CodecSpec::Mpeg1,
            rate_bps: 1_000_000,
        };
        let mut spec = ScenarioSpec::new(&format!("hop-jitter-{hops}"), 0x0BB5);
        spec.nodes.push(NodeSpec::host(
            "client",
            AppSpec::StreamClient {
                server: "server".to_string(),
                up_flow: dsv_core::qbone::UP_FLOW.0,
                media,
                transport: TransportSpec::Udp,
                feedback_us: None,
            },
        ));
        for h in 0..=hops {
            spec.nodes.push(NodeSpec::router(&format!("r{h}")));
        }
        spec.nodes.push(NodeSpec::host(
            "server",
            AppSpec::PacedServer {
                client: "client".to_string(),
                flow: dsv_core::qbone::MEDIA_FLOW.0,
                dscp: DscpSpec::Ef,
                media,
            },
        ));
        // BE cross load entering at hop h, leaving at the client edge.
        // Fork labels equal the hop index, consumed in hop order.
        for h in 0..hops {
            spec.nodes.push(NodeSpec::host(
                &format!("ct-sink{h}"),
                AppSpec::CountingSink,
            ));
            spec.nodes.push(NodeSpec::host(
                &format!("ct-src{h}"),
                AppSpec::OnOffSource {
                    dst: format!("ct-sink{h}"),
                    flow: 200 + h as u32,
                    packet_size: 1500,
                    peak_rate_bps: 4_000_000,
                    mean_on_us: 80_000,
                    mean_off_us: 120_000,
                    dscp: DscpSpec::BestEffort,
                    stop_at_us: 120_000_000,
                    rng_fork: h as u64,
                },
            ));
        }
        spec.links.push(LinkSpec::simple(
            "server",
            "r0",
            LinkParams::fast_ethernet(),
        ));
        spec.links.push(LinkSpec::simple(
            "client",
            &format!("r{hops}"),
            LinkParams::ethernet_10mbps(),
        ));
        let prio = QdiscSpec::StrictPriorityEf {
            ef: LimitsSpec::bytes(60_000),
            be: LimitsSpec::packets(40),
        };
        // 3 Mbps inter-router links: tight enough that BE load queues.
        let serial = LinkParams {
            rate_bps: 3_000_000,
            propagation_ns: 1_000_000,
        };
        for h in 0..hops {
            spec.links.push(LinkSpec::symmetric(
                &format!("r{h}"),
                &format!("r{}", h + 1),
                serial,
                prio,
            ));
            spec.links.push(LinkSpec::simple(
                &format!("ct-sink{h}"),
                &format!("r{}", h + 1),
                LinkParams::fast_ethernet(),
            ));
            spec.links.push(LinkSpec::simple(
                &format!("ct-src{h}"),
                &format!("r{h}"),
                LinkParams::fast_ethernet(),
            ));
        }
        // The EF profile: police at the first router.
        spec.conditioners.push(ConditionerSpec {
            node: "r0".to_string(),
            tap: None,
            rules: vec![RuleSpec {
                matches: MatchSpec::src_dst("server", "client"),
                action: ActionSpec::Police {
                    rate_bps: 1_300_000,
                    depth_bytes: 4500,
                    conform_mark: None,
                },
            }],
        });
        spec.horizon_ns = Some(110 * 1_000_000_000);

        let exec = dsv_core::execute(&spec).expect("hop-jitter spec compiles");
        let media = exec.stats.flow(dsv_core::qbone::MEDIA_FLOW);
        let rep = dsv_core::executor::named(&exec.clients, "client")
            .borrow()
            .report();
        let p50 = media
            .delay_hist
            .quantile(0.50)
            .map(|d| d.as_millis_f64())
            .unwrap_or(0.0);
        let p99 = media
            .delay_hist
            .quantile(0.99)
            .map(|d| d.as_millis_f64())
            .unwrap_or(0.0);
        let jit = media
            .delay_hist
            .jitter()
            .map(|d| d.as_millis_f64())
            .unwrap_or(0.0);
        rows.push(vec![
            hops.to_string(),
            format!("{p50:.1}"),
            format!("{p99:.1}"),
            format!("{jit:.1}"),
            format!("{:.4}", rep.frame_loss_fraction()),
        ]);
        all.push(Out {
            hops,
            p50_ms: p50,
            p99_ms: p99,
            jitter_ms: jit,
            frame_loss: rep.frame_loss_fraction(),
        });
    }
    print!(
        "{}",
        format_table(
            &[
                "hops",
                "p50 delay (ms)",
                "p99 delay (ms)",
                "jitter p99-p50 (ms)",
                "frame loss"
            ],
            &rows
        )
    );
    println!("\n(EF jitter grows with hop count but stays bounded by per-hop");
    println!("one-packet preemption delays — the accumulation the paper weighs");
    println!("against larger bucket depths.)");
    emit_json("ablation_hop_jitter", &all);
}

/// Ablation: the AF PHB experiment the paper excluded — video quality as
/// a function of background load on a shared WRED bottleneck.
pub fn ablation_af_phb() {
    println!("Ablation: AF PHB — video quality vs in-profile cross-traffic load\n");
    #[derive(Serialize)]
    struct Out {
        cross_load_bps: u64,
        cross_cir_bps: u64,
        quality: f64,
        frame_loss: f64,
        packet_loss: f64,
    }
    let mut all = Vec::new();
    let mut rows = Vec::new();
    let loads = [
        (0u64, 0u64),
        (1_000_000, 500_000),
        (3_000_000, 2_000_000),
        (5_000_000, 3_500_000),
        (7_000_000, 5_000_000),
        (9_000_000, 6_500_000),
    ];
    let jobs: Vec<Job> = loads
        .iter()
        .map(|&(load, cir)| {
            let mut cfg = AfConfig::new(ClipId2::Lost, 1_500_000, load);
            cfg.cross_cir_bps = cir;
            Job::Af(cfg)
        })
        .collect();
    for (&(load, cir), out) in loads.iter().zip(Runner::from_env().run(&jobs)) {
        rows.push(vec![
            format!("{:.1}", load as f64 / 1e6),
            format!("{:.1}", cir as f64 / 1e6),
            format!("{:.3}", out.quality),
            format!("{:.4}", out.frame_loss),
            format!("{:.4}", out.packet_loss),
        ]);
        all.push(Out {
            cross_load_bps: load,
            cross_cir_bps: cir,
            quality: out.quality,
            frame_loss: out.frame_loss,
            packet_loss: out.packet_loss,
        });
    }
    print!(
        "{}",
        format_table(
            &[
                "cross load (Mbps)",
                "cross CIR (Mbps)",
                "quality",
                "frame loss",
                "packet loss"
            ],
            &rows
        )
    );
    println!("\n(EF isolates the stream from all of this — see the cross-traffic");
    println!("tests; the load-dependence above is why the paper's AF results were");
    println!("excluded as 'heavily dependent on the level of cross traffic'.)");
    emit_json("ablation_af_phb", &all);
}

/// Ablation: shaping versus policing at identical (rate, depth) — the
/// "drop or delay" design choice.
pub fn ablation_shape_vs_drop() {
    println!("Ablation: shaper (delay) vs policer (drop) at identical profiles\n");
    #[derive(Serialize)]
    struct Out {
        token_rate_bps: u64,
        depth: u32,
        quality_drop: f64,
        quality_shaped: f64,
    }
    let mut all = Vec::new();
    let mut rows = Vec::new();
    let grid: Vec<(u64, u32)> = [900_000u64, 1_100_000, 1_300_000, 1_600_000]
        .into_iter()
        .flat_map(|r| [(r, DEPTH_2MTU), (r, DEPTH_3MTU)])
        .collect();
    // One batch, policed/shaped interleaved per (rate, depth) point.
    let jobs: Vec<Job> = grid
        .iter()
        .flat_map(|&(r, depth)| {
            [false, true].map(|shaped| {
                let mut cfg =
                    LocalConfig::new(ClipId2::Lost, EfProfile::new(r, depth), LocalTransport::Udp);
                cfg.shaped = shaped;
                Job::Local(cfg)
            })
        })
        .collect();
    let outs = Runner::from_env().run(&jobs);
    for (&(r, depth), pair) in grid.iter().zip(outs.chunks(2)) {
        let (dropped, shaped) = (&pair[0], &pair[1]);
        {
            rows.push(vec![
                format!("{:.2}", r as f64 / 1e6),
                depth.to_string(),
                format!("{:.3}", dropped.quality),
                format!("{:.3}", shaped.quality),
            ]);
            all.push(Out {
                token_rate_bps: r,
                depth,
                quality_drop: dropped.quality,
                quality_shaped: shaped.quality,
            });
        }
    }
    print!(
        "{}",
        format_table(
            &[
                "token rate (Mbps)",
                "depth",
                "quality (drop)",
                "quality (shaped)"
            ],
            &rows
        )
    );
    emit_json("ablation_shape_vs_drop", &all);
}
