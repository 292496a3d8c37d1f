//! The `dsv` binary, driven as a user runs it.
//!
//! `dsv run --scenario <spec> --json` on each committed example must print
//! the bytes pinned under `tests/dsv_run/`, and a spec that cannot be
//! read, parsed or compiled must exit with status 2 and say why.

use std::path::{Path, PathBuf};
use std::process::{Command, Output};

fn repo_file(rel: &str) -> PathBuf {
    Path::new(env!("CARGO_MANIFEST_DIR"))
        .join("../..")
        .join(rel)
}

fn dsv_run(spec: &Path) -> Output {
    Command::new(env!("CARGO_BIN_EXE_dsv"))
        .args(["run", "--scenario"])
        .arg(spec)
        .arg("--json")
        .output()
        .expect("dsv starts")
}

/// Write `text` as a spec file in the test's scratch directory.
fn scratch_spec(name: &str, text: &str) -> PathBuf {
    let path = Path::new(env!("CARGO_TARGET_TMPDIR")).join(name);
    std::fs::write(&path, text).expect("scratch spec is writable");
    path
}

fn assert_exit_2(out: &Output, stderr_names: &str) {
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert_eq!(out.status.code(), Some(2), "stderr: {stderr}");
    assert!(out.stdout.is_empty(), "nothing on stdout");
    assert!(
        stderr.contains(stderr_names),
        "stderr should name {stderr_names:?}: {stderr}"
    );
}

#[test]
fn examples_print_their_pinned_json() {
    for name in [
        "scenario_policed_chain",
        "scenario_af_tcp",
        "scenario_abr_qbone",
    ] {
        let out = dsv_run(&repo_file(&format!("examples/{name}.json")));
        assert!(
            out.status.success(),
            "{name}: {}",
            String::from_utf8_lossy(&out.stderr)
        );
        let pinned = std::fs::read(
            Path::new(env!("CARGO_MANIFEST_DIR")).join(format!("tests/dsv_run/{name}.json")),
        )
        .expect("pinned output is readable");
        assert!(
            out.stdout == pinned,
            "{name}: output moved:\n{}",
            String::from_utf8_lossy(&out.stdout)
        );
    }
}

#[test]
fn a_missing_spec_exits_2() {
    let out = dsv_run(&repo_file("examples/no_such_spec.json"));
    assert_exit_2(&out, "cannot read");
}

#[test]
fn invalid_json_exits_2() {
    let out = dsv_run(&scratch_spec("invalid.json", "{ \"name\": "));
    assert_exit_2(&out, "invalid scenario spec");
}

#[test]
fn a_spec_naming_an_unknown_node_exits_2() {
    let text = std::fs::read_to_string(repo_file("examples/scenario_policed_chain.json"))
        .expect("example spec is readable");
    let renamed = text.replace("\"node\": \"edge\"", "\"node\": \"nowhere\"");
    assert_ne!(renamed, text, "the example conditions node `edge`");
    let out = dsv_run(&scratch_spec("unknown_node.json", &renamed));
    assert_exit_2(&out, "nowhere");
}
