//! Runs every table/figure regeneration in paper order. What it prints is
//! committed as `results/all_figures.log`, which `ci.sh` compares with it.
use dsv_bench::figures as f;

fn main() {
    let sections: &[(&str, fn())] = &[
        ("Table 1", f::table1),
        ("Table 2", f::table2),
        ("Table 3", f::table3),
        ("Table 4", f::table4),
        ("Figure 6", f::fig06),
        ("Figures 7-9 (QBone, Lost)", f::fig07_09),
        ("Figures 10-12 (QBone, Dark)", f::fig10_12),
        ("Relative quality (vs 1.7M reference)", f::fig13_relative),
        ("Local testbed", f::fig15_local),
        ("Aggregate EF policing", f::fig16_aggregate),
        ("TCP self-smoothing", f::fig17_tcp_smoothing),
        ("AF rate guarantees (TCP)", f::fig18_af_tcp),
        ("Ablation: bi-modal servers", f::ablation_bimodal),
        ("Ablation: death spiral", f::ablation_death_spiral),
        ("Ablation: bucket depth", f::ablation_bucket_depth),
        ("Ablation: AF PHB", f::ablation_af_phb),
        ("Ablation: multi-rate server", f::ablation_multirate),
        ("Ablation: content dependence", f::ablation_content),
        ("Ablation: hop jitter", f::ablation_hop_jitter),
        ("Ablation: shape vs drop", f::ablation_shape_vs_drop),
    ];
    for (name, run) in sections {
        println!("\n=============================================================");
        println!("== {name}");
        println!("=============================================================\n");
        run();
    }
}
