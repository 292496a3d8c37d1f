//! # dsv-bench — the benchmark and figure-regeneration harness
//!
//! Two kinds of targets:
//!
//! * **Figure/table binaries** (`src/bin/*.rs`) — one per table and figure
//!   of the paper's evaluation. Each prints the same rows/series the paper
//!   reports and writes machine-readable JSON under `results/` so that
//!   `EXPERIMENTS.md` can be regenerated honestly. Run them all with
//!   `cargo run --release -p dsv-bench --bin all_figures`.
//! * **Criterion micro-benches** (`benches/`) — throughput of the hot
//!   components (token bucket, queues, event engine, VQM, rasterizer).
//!
//! This crate's library holds the small shared utilities.

pub mod figures;

use std::fs;
use std::path::PathBuf;

use dsv_core::sweep::SweepResult;

/// Directory where figure binaries drop their JSON series.
pub fn results_dir() -> PathBuf {
    let dir = PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("../../results");
    fs::create_dir_all(&dir).expect("create results dir");
    dir
}

/// Print a sweep in the paper's per-depth series form and persist it as
/// JSON under `results/<name>.json`.
pub fn emit_sweep(name: &str, sweep: &SweepResult) {
    print!("{}", dsv_core::report::format_sweep(sweep));
    let path = results_dir().join(format!("{name}.json"));
    let json = serde_json::to_string_pretty(sweep).expect("serialize sweep");
    fs::write(&path, json).expect("write sweep json");
    println!("\n[written {}]\n", path.display());
}

/// Persist any serializable value under `results/<name>.json`.
pub fn emit_json<T: serde::Serialize>(name: &str, value: &T) {
    let path = results_dir().join(format!("{name}.json"));
    let json = serde_json::to_string_pretty(value).expect("serialize");
    fs::write(&path, json).expect("write json");
    println!("[written {}]", path.display());
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn results_dir_is_creatable() {
        let d = results_dir();
        assert!(d.exists());
    }

    #[test]
    fn committed_results_are_pretty_printer_fixpoints() {
        // Every committed figure was written by `to_string_pretty`; parsing
        // one and printing it again must give back the file byte for byte.
        let mut checked = 0;
        for entry in fs::read_dir(results_dir()).expect("list results") {
            let path = entry.expect("results entry").path();
            if path.extension().is_none_or(|e| e != "json") {
                continue;
            }
            let text = fs::read_to_string(&path).expect("read result");
            let value = serde_json::parse_value(&text).expect("result parses");
            let printed = serde_json::to_string_pretty(&value).expect("reprints");
            assert!(
                printed == text,
                "{} is not reprinted byte for byte",
                path.display()
            );
            checked += 1;
        }
        assert!(checked > 0, "no committed results found");
    }
}
