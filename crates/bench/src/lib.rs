//! # dsv-bench — the figure-regeneration harness
//!
//! **Figure/table binaries** (`src/bin/*.rs`): one per table and figure of
//! the paper's evaluation. Each writes machine-readable JSON under
//! `results/` so that `EXPERIMENTS.md` can be regenerated honestly, and
//! prints what it wrote: a figure of flat rows prints them as a table
//! derived from those rows ([`emit_rows`]), a sweep as the paper's
//! per-depth series ([`emit_sweep`]). Run them all with
//! `cargo run --release -p dsv-bench --bin all_figures`; what that prints
//! is committed as `results/all_figures.log`. The repository benchmark,
//! with its micro-costs of the hot components, is the separate package
//! under `benchmark/`.
//!
//! This crate's library holds the emitters and the figure routines
//! ([`figures`]).

pub mod figures;

use dsv_core::report::{format_sweep, format_table};
use dsv_core::runner::{publish, results_dir};
use dsv_core::sweep::SweepResult;
use serde::Serialize;
use serde_json::{Num, Value};

/// Print a sweep in the paper's per-depth series form and write it as
/// `results/<name>.json`.
pub fn emit_sweep(name: &str, sweep: &SweepResult) {
    println!("{}", format_sweep(sweep));
    emit_json(name, sweep);
    println!();
}

/// Print `rows` as an aligned table and write them as
/// `results/<name>.json`, so the table shows exactly the file's fields:
/// one column per serialized field, in declaration order and headed by
/// its JSON name, and one line per row. Every cell has one format: a
/// string as it is, an integer in full, a float to four decimals, and
/// anything else as its JSON.
pub fn emit_rows<T: Serialize>(name: &str, rows: &[T]) {
    print!("{}", rows_table(rows));
    emit_json(name, rows);
}

/// Write any serializable value as `results/<name>.json`, through
/// [`publish`].
pub fn emit_json<T: Serialize + ?Sized>(name: &str, value: &T) {
    let json = serde_json::to_string_pretty(value).expect("serialize");
    publish(&results_dir().join(format!("{name}.json")), &json).expect("write results file");
    println!("[written results/{name}.json]");
}

/// The table [`emit_rows`] prints.
fn rows_table<T: Serialize>(rows: &[T]) -> String {
    let rows: Vec<Vec<(String, Value)>> = rows
        .iter()
        .map(|row| match serde_json::to_value(row) {
            Value::Object(fields) => fields,
            other => panic!("a table row serializes as an object, not {other:?}"),
        })
        .collect();
    let headers: Vec<&str> = rows.first().map_or(Vec::new(), |row| {
        row.iter().map(|(name, _)| name.as_str()).collect()
    });
    let cells: Vec<Vec<String>> = rows
        .iter()
        .map(|row| row.iter().map(|(_, value)| cell(value)).collect())
        .collect();
    format_table(&headers, &cells)
}

/// One cell of the table [`emit_rows`] prints.
fn cell(value: &Value) -> String {
    match value {
        Value::Str(s) => s.clone(),
        Value::Num(Num::F(x)) => format!("{x:.4}"),
        other => serde_json::to_string(other).expect("a value prints"),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::fs;

    #[test]
    fn results_dir_is_creatable() {
        let d = results_dir();
        fs::create_dir_all(&d).expect("create results dir");
        assert!(d.exists());
    }

    #[test]
    fn a_row_table_has_one_column_per_field_and_one_line_per_row() {
        #[derive(Serialize)]
        struct Row {
            server: String,
            token_rate_bps: u64,
            quality: f64,
            broken: bool,
        }
        let rows = [
            Row {
                server: "paced".into(),
                token_rate_bps: 1_600_000,
                quality: 0.125,
                broken: false,
            },
            Row {
                server: "bursty".into(),
                token_rate_bps: 900_000,
                quality: 1.0,
                broken: true,
            },
        ];
        assert_eq!(
            rows_table(&rows),
            "server  token_rate_bps  quality  broken\n\
             ------  --------------  -------  ------\n\
             paced   1600000         0.1250   false\n\
             bursty  900000          1.0000   true\n"
        );
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
