//! The user's-eye view the paper takes: you are buying an EF service for a
//! video stream and must pick (token rate, bucket depth) — network
//! resources cost money, so you want the *cheapest* profile that still
//! looks good. This example sweeps the profile grid for one clip/encoding,
//! prints the quality surface, and recommends the minimal configuration.
//!
//! ```text
//! cargo run --release -p dsv-core --example token_bucket_tuning
//! ```

use dsv_core::prelude::*;

fn main() {
    let encoding_bps = 1_000_000u64;
    let target_quality = 0.1; // "good" on the VQM scale

    println!(
        "Tuning the EF profile for Lost @{:.1} Mbps (target quality ≤ {target_quality})…\n",
        encoding_bps as f64 / 1e6
    );

    let rates = default_rate_grid(encoding_bps, 9);
    let depths = [1500u32, DEPTH_2MTU, DEPTH_3MTU, 6000];
    let jobs = sweep_jobs(&rates, &depths, |profile| {
        Job::Qbone(QboneConfig::new(ClipId2::Lost, encoding_bps, profile))
    });
    let sweep = SweepResult::new(
        "tuning sweep",
        &rates,
        &depths,
        Runner::from_env().run(&jobs),
    );

    // Print the surface.
    println!("{}", format_sweep(&sweep));

    // Recommend: for each depth, the cheapest sustained-good token rate;
    // overall pick = minimal (rate + depth-cost) using rate as the cost.
    println!("Cheapest sustained-good token rate per bucket depth:");
    let mut best: Option<(u32, u64)> = None;
    for &depth in &depths {
        let curve = sweep.curve(depth);
        match cutoff_rate(&curve, target_quality) {
            Some(rate) => {
                println!("  depth {depth:>5} B → {:.2} Mbps", rate as f64 / 1e6);
                if best.is_none_or(|(_, r)| rate < r) {
                    best = Some((depth, rate));
                }
            }
            None => println!("  depth {depth:>5} B → never reaches the target in this grid"),
        }
    }
    match best {
        Some((depth, rate)) => println!(
            "\nRecommended profile: token rate {:.2} Mbps with a {depth}-byte bucket.",
            rate as f64 / 1e6
        ),
        None => println!("\nNo profile in the grid meets the target; widen the search."),
    }
}
