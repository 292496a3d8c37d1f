//! The `dsv` binary, driven as a user runs it.
//!
//! `dsv run --scenario <spec> --json` on each committed example must print
//! the bytes pinned under `tests/dsv_run/`, and a spec that cannot be
//! read, parsed or compiled must exit with status 2 and say why, as must
//! a testbed subcommand whose configuration does not compile or an option
//! the subcommand does not take. Under `DSV_AUDIT=1` the same binary
//! audits the run and fails on a violation.

use std::path::{Path, PathBuf};
use std::process::{Command, Output};

use dsv_scenario::{
    ActionSpec, AppSpec, ClipId2, CodecSpec, DscpSpec, MatchSpec, MediaRef, QdiscSpec, RuleSpec,
    ScenarioSpec,
};
use serde::Value;

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
fn an_option_the_subcommand_does_not_take_exits_2() {
    let dsv = |args: &[&str]| {
        Command::new(env!("CARGO_BIN_EXE_dsv"))
            .args(args)
            .output()
            .expect("dsv starts")
    };
    let out = dsv(&[
        "qbone",
        "--clip",
        "lost",
        "--encoding",
        "1000000",
        "--rate",
        "1200000",
        "--depth",
        "3000",
        "--cross-trafic",
    ]);
    assert_exit_2(&out, "dsv qbone does not take --cross-trafic");
    assert_exit_2(&out, "usage:");
    let spec = repo_file("examples/scenario_policed_chain.json");
    let spec = spec.to_str().expect("the repository path is Unicode");
    let out = dsv(&["run", "--scenario", spec, "--jsn"]);
    assert_exit_2(&out, "dsv run does not take --jsn");
    assert_exit_2(&out, "usage:");
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

/// A 50 kb/s encoding is below both encoders' floor: `compile` rejects
/// it, naming the node, where the encoder used to panic (exit 101).
#[test]
fn a_media_rate_below_the_encoders_floor_exits_2() {
    let text = std::fs::read_to_string(repo_file("examples/scenario_policed_chain.json"))
        .expect("example spec is readable");
    let mut spec: ScenarioSpec = serde_json::from_str(&text).expect("example parses");
    let tx = spec
        .nodes
        .iter_mut()
        .find(|n| n.name == "tx")
        .expect("the example has a `tx` host");
    tx.app = Some(AppSpec::PacedServer {
        client: "rx".to_string(),
        flow: 1,
        dscp: DscpSpec::Ef,
        media: MediaRef {
            clip: ClipId2::Lost,
            codec: CodecSpec::Mpeg1,
            rate_bps: 50_000,
        },
    });
    let json = serde_json::to_string(&spec).expect("spec serializes");
    let out = dsv_run(&scratch_spec("low_media_rate.json", &json));
    assert_exit_2(&out, "node `tx`: media rate_bps 50000");

    let out = Command::new(env!("CARGO_BIN_EXE_dsv"))
        .args(["qbone", "--encoding", "50000", "--rate", "100000"])
        .args(["--depth", "3000"])
        .output()
        .expect("dsv starts");
    assert_exit_2(&out, "node `client`: media rate_bps 50000");
}

/// Malformed rate ladders in the ABR example, each of which used to
/// panic (exit 101): `compile` rejects each, naming the node.
#[test]
fn malformed_ladders_and_tiers_exit_2() {
    let text = std::fs::read_to_string(repo_file("examples/scenario_abr_qbone.json"))
        .expect("example spec is readable");
    let spec: ScenarioSpec = serde_json::from_str(&text).expect("example parses");
    // The example with `node`'s application edited by `edit`, as JSON.
    let variant = |node: &str, edit: &dyn Fn(&mut AppSpec)| {
        let mut spec = spec.clone();
        let app = spec
            .nodes
            .iter_mut()
            .find(|n| n.name == node)
            .and_then(|n| n.app.as_mut())
            .expect("the example's node has an app");
        edit(app);
        serde_json::to_string(&spec).expect("spec serializes")
    };
    let adaptive = |rates: &[u64]| {
        variant("video-server", &|app| {
            *app = AppSpec::AdaptiveServer {
                client: "client".to_string(),
                flow: 1,
                dscp: DscpSpec::EfQbone,
                tiers: rates
                    .iter()
                    .map(|&rate_bps| MediaRef {
                        clip: ClipId2::Lost,
                        codec: CodecSpec::Wmv,
                        rate_bps,
                    })
                    .collect(),
            }
        })
    };
    let client = |edit: fn(&mut Vec<u64>, &mut u64, &mut u32)| {
        variant("client", &|app| match app {
            AppSpec::AbrClient {
                rungs_bps,
                step_us,
                segments,
                ..
            } => edit(rungs_bps, step_us, segments),
            _ => panic!("the example's client is an ABR client"),
        })
    };
    let server_without_rungs = variant("video-server", &|app| match app {
        AppSpec::AbrServer { rungs_bps, .. } => rungs_bps.clear(),
        _ => panic!("the example's server is an ABR server"),
    });
    for (name, json, node, why) in [
        (
            "no_tiers",
            adaptive(&[]),
            "video-server",
            "at least one rate",
        ),
        (
            "unsorted_tiers",
            adaptive(&[1_000_000, 300_000]),
            "video-server",
            "sorted by rate",
        ),
        (
            "no_rungs",
            client(|rungs, _, _| rungs.clear()),
            "client",
            "at least one rate",
        ),
        (
            "descending_rungs",
            client(|rungs, _, _| rungs.reverse()),
            "client",
            "sorted by rate",
        ),
        (
            "zero_step",
            client(|_, step, _| *step = 0),
            "client",
            "step_us",
        ),
        (
            "no_segments",
            client(|_, _, segments| *segments = 0),
            "client",
            "at least one segment",
        ),
        (
            "server_without_rungs",
            server_without_rungs,
            "video-server",
            "at least one rate",
        ),
    ] {
        let out = dsv_run(&scratch_spec(&format!("ladder_{name}.json"), &json));
        assert_exit_2(&out, &format!("node `{node}`: "));
        assert_exit_2(&out, why);
    }
}

/// A WRED queue of zero bytes on the AF-TCP example's shared bottleneck
/// (link 8, `edge`-`egress`) used to panic in `WredQueue::new` (exit
/// 101): `compile` rejects it, naming the link.
#[test]
fn a_zero_capacity_wred_queue_exits_2() {
    let text = std::fs::read_to_string(repo_file("examples/scenario_af_tcp.json"))
        .expect("example spec is readable");
    let mut spec: ScenarioSpec = serde_json::from_str(&text).expect("example parses");
    let link = &mut spec.links[8];
    assert_eq!((link.a.as_str(), link.b.as_str()), ("edge", "egress"));
    match &mut link.qdisc_ab {
        QdiscSpec::Wred { capacity_bytes, .. } => *capacity_bytes = 0,
        _ => panic!("the example's bottleneck is WRED-managed"),
    }
    let json = serde_json::to_string(&spec).expect("spec serializes");
    let out = dsv_run(&scratch_spec("zero_capacity_wred.json", &json));
    assert_exit_2(&out, "link `edge`-`egress`: qdisc_ab.capacity_bytes");
}

/// A shaper whose bucket is shallower than a packet refuses that packet
/// as an overflow, counted as a drop; it used to queue it and panic.
#[test]
fn a_shaper_shallower_than_a_packet_drops_it() {
    let text = std::fs::read_to_string(repo_file("examples/scenario_policed_chain.json"))
        .expect("example spec is readable");
    let mut spec: ScenarioSpec = serde_json::from_str(&text).expect("example parses");
    let edge = spec
        .conditioners
        .iter_mut()
        .find(|c| c.node == "edge")
        .expect("the example conditions at `edge`");
    edge.rules.insert(
        0,
        RuleSpec {
            matches: MatchSpec {
                flow: Some(9),
                ..MatchSpec::ANY
            },
            action: ActionSpec::Shape {
                rate_bps: 1_500_000,
                depth_bytes: 1000,
                max_queue_bytes: 100_000,
            },
        },
    );
    let json = serde_json::to_string(&spec).expect("spec serializes");
    let out = dsv_run(&scratch_spec("shallow_shaper.json", &json));
    assert!(
        out.status.success(),
        "stderr: {}",
        String::from_utf8_lossy(&out.stderr)
    );
    let report =
        serde_json::parse_value(&String::from_utf8_lossy(&out.stdout)).expect("the report parses");
    let Some(Value::Array(flows)) = report.get("flows") else {
        panic!("the report lists its flows: {report:?}");
    };
    let count = |flow: &Value, key| serde::de_field::<u64>(flow, key).expect("a count");
    let flow = flows
        .iter()
        .find(|f| count(f, "flow") == 9)
        .expect("flow 9 is reported");
    // Every 1500-byte packet of flow 9 is larger than the 1000-byte bucket.
    assert!(count(flow, "tx_packets") > 0);
    assert_eq!(count(flow, "drops"), count(flow, "tx_packets"));
    assert_eq!(count(flow, "rx_packets"), 0);
}

#[test]
fn an_audited_run_that_breaks_its_bound_fails() {
    let text = std::fs::read_to_string(repo_file("examples/scenario_policed_chain.json"))
        .expect("example spec is readable");
    // The policer admits 1.5 Mbps; a 300 kbps bound cannot hold.
    let at = text
        .find("\"bounds\"")
        .expect("the example declares a bound");
    let (head, bounds) = text.split_at(at);
    let cut = format!(
        "{head}{}",
        bounds.replacen("\"rate_bps\": 1500000", "\"rate_bps\": 300000", 1)
    );
    assert_ne!(cut, text, "the example bounds flow 1 at 1.5 Mbps");
    let out = Command::new(env!("CARGO_BIN_EXE_dsv"))
        .args(["run", "--scenario"])
        .arg(scratch_spec("bound_cut.json", &cut))
        .arg("--json")
        .env("DSV_AUDIT", "1")
        .output()
        .expect("dsv starts");
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert!(!out.status.success(), "stderr: {stderr}");
    assert!(stderr.contains("conformance:"), "stderr: {stderr}");
}
