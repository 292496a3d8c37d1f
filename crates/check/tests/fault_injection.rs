//! Mutation-style self-tests for the audit oracles.
//!
//! Each test plants exactly one fault class from [`dsv_check::fault`]
//! into an otherwise healthy scenario and asserts that the matching
//! oracle fires — and, in the control tests, that *no* oracle fires on
//! an unfaulted run. An oracle that is never observed to fire proves
//! nothing; this file is what makes the audit claims falsifiable. The
//! fixtures always run audited.

use dsv_check::fault::{FaultKind, FaultPlan};
use dsv_check::scenario::{
    run_policer_chain, run_stream_chain, ChainConfig, ChainOutcome, StreamChainConfig, TAP,
};
use dsv_net::audit::AuditReport;
use dsv_sim::{QueueBackend, SimDuration};

/// Run the chain and return its audit report too.
fn audited(cfg: &ChainConfig) -> (ChainOutcome, AuditReport) {
    let out = run_policer_chain(cfg);
    let audit = out.audit.clone();
    // Positive proof the run was observed at all: an auditor that saw
    // nothing would also report zero violations.
    assert_eq!(audit.events, out.dispatched, "every event observed");
    assert!(audit.checks > 0, "no lifecycle checks ran");
    assert!(audit.finished, "conservation closure never ran");
    (out, audit)
}

fn faulted(kind: FaultKind) -> ChainConfig {
    ChainConfig {
        plan: FaultPlan::new(42).with(TAP, kind),
        ..ChainConfig::default()
    }
}

#[test]
fn unfaulted_run_is_silent() {
    let (out, audit) = audited(&ChainConfig::default());
    audit.assert_clean("unfaulted chain");
    assert_eq!(out.rx, out.tx);
}

#[test]
fn unfaulted_run_is_silent_on_the_heap_backend() {
    let (out, audit) = audited(&ChainConfig {
        backend: QueueBackend::Heap,
        ..ChainConfig::default()
    });
    audit.assert_clean("unfaulted chain, heap backend");
    assert_eq!(out.rx, out.tx);
}

#[test]
fn unfaulted_policed_run_is_silent() {
    // Policer drops are legal: accounted, conserved, within the bound.
    let (out, audit) = audited(&ChainConfig {
        rate_bps: 2_000_000,
        depth_bytes: 3000,
        ..ChainConfig::default()
    });
    audit.assert_clean("policed chain");
    assert!(out.drops > 0, "scenario should exercise the drop path");
}

#[test]
fn drop_fault_trips_conservation() {
    // A swallowed packet is missing from every balance: node, flow, pool.
    let (out, audit) = audited(&faulted(FaultKind::Drop { nth: 7 }));
    assert_eq!(out.rx, out.tx - 1, "exactly one packet should vanish");
    assert!(
        audit.has_violation_matching("conservation:"),
        "leak not caught: {:?}",
        audit.violations
    );
}

#[test]
fn duplicate_fault_trips_the_lifecycle_oracle() {
    // The second copy arrives with an id the auditor already retired.
    let (out, audit) = audited(&faulted(FaultKind::Duplicate { nth: 5 }));
    assert_eq!(out.rx, out.tx + 1, "one packet should arrive twice");
    assert!(
        audit.has_violation_matching("delivered twice")
            || audit.has_violation_matching("never sent"),
        "duplicate not caught: {:?}",
        audit.violations
    );
}

#[test]
fn reorder_fault_trips_fifo() {
    let (out, audit) = audited(&faulted(FaultKind::Reorder {
        nth: 10,
        hold: SimDuration::from_millis(5),
    }));
    // Everything still arrives — only the order is wrong, so
    // conservation must NOT be among the violations.
    assert_eq!(out.rx, out.tx);
    assert!(
        audit.has_violation_matching("fifo:"),
        "reordering not caught: {:?}",
        audit.violations
    );
    assert!(
        !audit.has_violation_matching("conservation:"),
        "reordering must not look like a leak: {:?}",
        audit.violations
    );
}

#[test]
fn size_flip_fault_trips_integrity() {
    let (_, audit) = audited(&faulted(FaultKind::SizeFlip { nth: 3, xor: 0x200 }));
    assert!(
        audit.has_violation_matching("integrity:"),
        "size corruption not caught: {:?}",
        audit.violations
    );
}

#[test]
fn clock_skew_fault_trips_the_conformance_bound() {
    // A policer whose clock runs 2× fast sees every refill interval
    // doubled, grants tokens at twice the contracted rate, and under a
    // saturating offered load admits more bytes than the analytic bound
    // (checked against true simulation time) allows.
    let (_, audit) = audited(&ChainConfig {
        rate_bps: 500_000, // offered 12 Mbps — heavily policed
        depth_bytes: 3000,
        plan: FaultPlan::new(42).with(TAP, FaultKind::ClockSkew { speedup: 2 }),
        ..ChainConfig::default()
    });
    assert!(
        audit.has_violation_matching("conformance:"),
        "over-admission not caught: {:?}",
        audit.violations
    );
}

#[test]
fn clock_skew_without_saturation_is_within_bound() {
    // The same skew under a generous token rate admits nothing beyond
    // what the bound allows — the oracle must not cry wolf.
    let (_, audit) = audited(&ChainConfig {
        rate_bps: 20_000_000,
        plan: FaultPlan::new(42).with(TAP, FaultKind::ClockSkew { speedup: 2 }),
        ..ChainConfig::default()
    });
    assert!(
        !audit.has_violation_matching("conformance:"),
        "false positive: {:?}",
        audit.violations
    );
}

#[test]
fn delay_fault_is_invisible_to_the_oracles() {
    // Order-preserving added latency is legal network behaviour; the
    // auditor must stay silent even though every packet was absorbed
    // and re-released by the fault wrapper.
    let (out, audit) = audited(&faulted(FaultKind::Delay {
        from: 50,
        hold: SimDuration::from_millis(20),
    }));
    audit.assert_clean("delayed chain");
    assert_eq!(out.rx, out.tx);
}

#[test]
fn seeded_plans_replay_identically() {
    let plan = FaultPlan::new(7);
    let nth = plan.pick(0, 2, 150);
    let run = || {
        audited(&ChainConfig {
            plan: FaultPlan::new(7).with(TAP, FaultKind::Drop { nth }),
            ..ChainConfig::default()
        })
    };
    let (a, ra) = run();
    let (b, rb) = run();
    assert_eq!(a.delivered_ids, b.delivered_ids);
    assert_eq!(ra.total_violations, rb.total_violations);
    assert_eq!(ra.violations, rb.violations);
}

#[test]
fn streaming_client_survives_delay_and_reorder_faults() {
    // Baseline: clean stream, clean audit, no playback failure.
    let clean = run_stream_chain(&StreamChainConfig::default());
    let clean_audit = &clean.audit;
    clean_audit.assert_clean("clean stream");
    assert!(clean_audit.events > 0);
    assert!(!clean.total_failure, "clean stream must play");
    assert!(clean.frame_loss < 0.02, "clean loss {}", clean.frame_loss);

    // A 150 ms order-preserving stall mid-stream: legal jitter. The
    // audit stays silent and playback absorbs it without collapsing.
    let delayed = run_stream_chain(&StreamChainConfig {
        plan: FaultPlan::new(1).with(
            TAP,
            FaultKind::Delay {
                from: 200,
                hold: SimDuration::from_millis(150),
            },
        ),
        ..StreamChainConfig::default()
    });
    delayed.audit.assert_clean("delayed stream");
    assert!(!delayed.total_failure, "client must ride out the stall");
    assert_eq!(delayed.displayed, clean.displayed);

    // A reordered packet: the oracle fires AND the client still plays —
    // robustness and detection are independent properties.
    let reordered = run_stream_chain(&StreamChainConfig {
        plan: FaultPlan::new(2).with(
            TAP,
            FaultKind::Reorder {
                nth: 100,
                hold: SimDuration::from_millis(40),
            },
        ),
        ..StreamChainConfig::default()
    });
    let audit = &reordered.audit;
    assert!(
        audit.has_violation_matching("fifo:"),
        "reorder not caught: {:?}",
        audit.violations
    );
    assert!(!reordered.total_failure, "client must survive reordering");
}
