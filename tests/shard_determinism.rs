//! Spec-level shard plans for the committed testbeds.
//!
//! `dsv_scenario::shard_plan` computes, without compiling a spec, the
//! same link-boundary partition `dsv_net::shard::partition_nodes`
//! computes on the compiled network (pinned by
//! `partition::tests::spec_edges_match_the_compiled_network`). A plan
//! depends only on the topology, so it is deterministic by construction;
//! this file records which committed testbeds admit one, so a topology
//! change that removes every usable cut is noticed.

use dsv_core::prelude::{ClipId2, EfProfile, DEPTH_2MTU};
use dsv_core::qbone::{qbone_spec, QboneConfig};
use dsv_scenario::shard_plan;

fn qbone_cfg() -> QboneConfig {
    QboneConfig::new(
        ClipId2::Lost,
        1_500_000,
        EfProfile::new(1_600_000, DEPTH_2MTU),
    )
}

#[test]
fn spec_level_plans_exist_for_the_wide_area_testbeds() {
    let qbone = shard_plan(&qbone_spec(&qbone_cfg()), 2);
    assert!(qbone.is_some(), "qbone must split");
}
