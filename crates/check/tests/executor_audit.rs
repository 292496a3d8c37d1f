//! The scenario executor closes the audit of every run it makes.
//!
//! `examples/scenario_policed_chain.json` declares the admission bound of
//! its edge policer. Run as committed, it is audit-clean; with the bound
//! tightened below the policer's token rate, the conformance oracle must
//! fire and `execute` must panic with its violations.
//!
//! The whole file compiles only with `--features audit`; auditing is
//! force-enabled programmatically so the tests do not depend on the
//! `DSV_AUDIT` environment.

#![cfg(feature = "audit")]

use dsv_core::execute;
use dsv_scenario::ScenarioSpec;
use dsv_sim::audit::set_enabled_for_process;

fn policed_chain() -> ScenarioSpec {
    let path = concat!(
        env!("CARGO_MANIFEST_DIR"),
        "/../../examples/scenario_policed_chain.json"
    );
    let text = std::fs::read_to_string(path).expect("example spec is readable");
    serde_json::from_str(&text).expect("example spec parses")
}

#[test]
fn committed_example_runs_audit_clean() {
    set_enabled_for_process(Some(true));
    let spec = policed_chain();
    assert_eq!(spec.bounds.len(), 1, "the example declares its bound");
    let exec = execute(&spec).expect("example compiles");
    // Positive proof the run was observed: a disarmed auditor would be
    // silent too.
    assert!(exec.run.audit_events > 0, "no events audited");
    assert!(exec.run.dispatched > 0);
}

#[test]
#[should_panic(expected = "conformance:")]
fn a_bound_below_the_policed_rate_panics() {
    set_enabled_for_process(Some(true));
    let mut spec = policed_chain();
    // The policer admits 1.5 Mbps; a 300 kbps bound cannot hold.
    spec.bounds[0].rate_bps = 300_000;
    let _ = execute(&spec);
}
