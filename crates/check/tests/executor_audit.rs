//! The scenario executor's audited run.
//!
//! `examples/scenario_policed_chain.json` declares the admission bound of
//! its edge policer. Run as committed, it is audit-clean; with the bound
//! tightened below the policer's token rate, the conformance oracle must
//! fire. The audit observes a run without changing it: every example spec
//! and a Figure 7 point report the same flows and clients audited as
//! unobserved, and the audit sees every event the run dispatches.

use dsv_core::artifacts::ArtifactStore;
use dsv_core::experiment::{EfProfile, DEPTH_2MTU};
use dsv_core::qbone::{qbone_spec, ClipId2, QboneConfig};
use dsv_core::{execute_audited, Execution};
use dsv_net::network::Simulation;
use dsv_scenario::{compile, CompileOptions, ScenarioSpec};
use dsv_sim::SimTime;

const EXAMPLES: [&str; 3] = [
    include_str!("../../../examples/scenario_policed_chain.json"),
    include_str!("../../../examples/scenario_abr_qbone.json"),
    include_str!("../../../examples/scenario_af_tcp.json"),
];

fn example(json: &str) -> ScenarioSpec {
    serde_json::from_str(json).expect("example spec parses")
}

/// `spec` compiled and run on the unobserved network, as the executor
/// runs it with `DSV_AUDIT` off.
fn unobserved(spec: &ScenarioSpec) -> Execution {
    let compiled = compile(
        spec,
        CompileOptions {
            store: Some(&ArtifactStore),
            wrap: None,
        },
    )
    .expect("spec compiles");
    let mut sim = Simulation::new(compiled.net);
    let run = sim.run_until(compiled.horizon.map_or(SimTime::MAX, |h| SimTime::ZERO + h));
    Execution {
        stats: std::mem::take(&mut sim.net.stats),
        clients: compiled.clients,
        adaptives: compiled.adaptives,
        abr_clients: compiled.abr_clients,
        bulk_sinks: compiled.bulk_sinks,
        id_sinks: compiled.id_sinks,
        run,
    }
}

/// Everything an execution reports, one line per item.
fn observed(exec: &Execution) -> Vec<String> {
    let mut flows: Vec<_> = exec.stats.flows().collect();
    flows.sort_by_key(|(flow, _)| flow.0);
    let mut out = vec![format!("{:?}", exec.run)];
    for (flow, c) in flows {
        let mut drops: Vec<(String, u64)> = c
            .drops
            .iter()
            .map(|(reason, n)| (format!("{reason:?}"), *n))
            .collect();
        drops.sort();
        out.push(format!(
            "flow {}: tx {} {} rx {} {} drops {drops:?} delay {:?} hist {:?}",
            flow.0, c.tx_packets, c.tx_bytes, c.rx_packets, c.rx_bytes, c.delay, c.delay_hist
        ));
    }
    for (name, h) in &exec.clients {
        out.push(format!("client {name}: {:?}", h.borrow().report()));
    }
    for (name, h) in &exec.abr_clients {
        out.push(format!("abr client {name}: {:?}", h.borrow().report()));
    }
    for (name, h) in &exec.adaptives {
        out.push(format!(
            "adaptive {name}: {}",
            h.borrow().current_tier_bps()
        ));
    }
    for (name, h) in &exec.bulk_sinks {
        out.push(format!("bulk sink {name}: {}", h.borrow().delivered()));
    }
    for (name, h) in &exec.id_sinks {
        out.push(format!("id sink {name}: {:?}", h.borrow().ids));
    }
    out
}

#[test]
fn committed_example_runs_audit_clean() {
    let spec = example(EXAMPLES[0]);
    assert_eq!(spec.bounds.len(), 1, "the example declares its bound");
    let (exec, report) = execute_audited(&spec).expect("example compiles");
    report.assert_clean("policed chain");
    assert!(exec.run.dispatched > 0);
}

#[test]
fn a_bound_below_the_policed_rate_is_a_conformance_violation() {
    let mut spec = example(EXAMPLES[0]);
    // The policer admits 1.5 Mbps; a 300 kbps bound cannot hold.
    spec.bounds[0].rate_bps = 300_000;
    let (_, report) = execute_audited(&spec).expect("example compiles");
    assert!(
        report.has_violation_matching("conformance:"),
        "{:?}",
        report.violations
    );
}

#[test]
fn audited_runs_match_unobserved_runs() {
    let fig07 = qbone_spec(&QboneConfig::new(
        ClipId2::Lost,
        1_700_000,
        EfProfile::new(1_500_000, DEPTH_2MTU),
    ));
    for spec in EXAMPLES.map(example).into_iter().chain([fig07]) {
        let (exec, report) = execute_audited(&spec).expect("spec compiles");
        report.assert_clean(&spec.name);
        assert!(
            report.finished,
            "{}: conservation closure never ran",
            spec.name
        );
        assert_eq!(
            report.events, exec.run.dispatched,
            "{}: the audit observed every event",
            spec.name
        );
        assert_eq!(
            observed(&exec),
            observed(&unobserved(&spec)),
            "{}",
            spec.name
        );
    }
}
