//! The simulate layer's event budget, pinned exactly.
//!
//! A point's simulate time is events dispatched × cost per event, and the
//! pending-event population sizes the queue (DESIGN.md §6b). Both counts
//! are deterministic and identical on the wheel and heap backends, so
//! they are pinned exactly on one paper QBone point and one AF-TCP point:
//! an engine change that dispatches more events per packet, or lets
//! timers pile up in the queue, fails here before it shows up as a slower
//! benchmark. A deliberate change to either count updates its pin and
//! says why.

use dsv_core::af_tcp::{af_tcp_spec, AfTcpConfig};
use dsv_core::artifacts::ArtifactStore;
use dsv_core::prelude::*;
use dsv_core::qbone::qbone_spec;
use dsv_net::network::Simulation;
use dsv_scenario::{compile, CompileOptions, ScenarioSpec};
use dsv_sim::SimTime;

/// Compile `spec`, run it to its horizon, and return the events
/// dispatched and the queue's high-water mark.
fn budget(spec: &ScenarioSpec) -> (u64, usize) {
    let compiled = compile(
        spec,
        CompileOptions {
            store: Some(&ArtifactStore),
            wrap: None,
        },
    )
    .expect("spec compiles");
    let horizon = compiled.horizon.expect("spec sets a horizon");
    let mut sim = Simulation::new(compiled.net);
    let stats = sim.run_until(SimTime::ZERO + horizon);
    (stats.dispatched, sim.queue.high_water())
}

/// Figure 7's Lost clip at 1.7 Mbps through a 1.7 Mbps, 2-MTU EF policer.
#[test]
fn qbone_point_event_budget() {
    let cfg = QboneConfig::new(
        ClipId2::Lost,
        1_700_000,
        EfProfile::new(1_700_000, DEPTH_2MTU),
    );
    assert_eq!(budget(&qbone_spec(&cfg)), (72_189, 10));
}

/// Figure 18's "hetero-near" run: four bulk TCP pairs with unequal
/// commitments over the 6 Mbps WRED bottleneck, 60 simulated seconds.
#[test]
fn af_tcp_point_event_budget() {
    let cfg = AfTcpConfig::new(vec![500_000, 1_000_000, 1_500_000, 2_700_000], vec![0; 4]);
    assert_eq!(budget(&af_tcp_spec(&cfg)), (287_621, 280));
}
