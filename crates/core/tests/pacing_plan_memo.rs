//! The artifact store's pacing-plan memo.
//!
//! Each paced server replays its encoding's `PacingPlan`, and the store
//! builds that plan at most once per encoding, however many points and
//! workers stream it. This file is its own test process because it
//! counts builds across `artifacts::clear`, which drops every memoized
//! artifact of the process.

use std::sync::Arc;

use dsv_core::artifacts::{self, Codec};
use dsv_core::prelude::*;
use dsv_core::sweep::qbone_grid;

const ENC: u64 = 1_000_000;

fn plan_runs() -> u64 {
    artifacts::plan_runs(ClipId::Lost, Codec::Mpeg1, ENC)
}

#[test]
fn a_qbone_class_builds_its_plan_once_until_the_store_is_cleared() {
    let jobs = sweep_jobs(&qbone_grid(ENC), &[DEPTH_2MTU, DEPTH_3MTU], |profile| {
        Job::Qbone(QboneConfig::new(ClipId2::Lost, ENC, profile))
    });
    assert_eq!(jobs.len(), 24, "one class of the paper grid");
    assert_eq!(plan_runs(), 0);

    Runner::serial().with_threads(2).run(&jobs);
    assert_eq!(plan_runs(), 1, "24 points on two workers share one plan");
    let plan = artifacts::paced_plan(ClipId::Lost, Codec::Mpeg1, ENC);
    assert_eq!(plan_runs(), 1, "served from the store");

    artifacts::clear();
    let rebuilt = artifacts::paced_plan(ClipId::Lost, Codec::Mpeg1, ENC);
    assert_eq!(plan_runs(), 2, "clear drops plans with the encodings");
    assert!(!Arc::ptr_eq(&plan, &rebuilt), "a cold store builds anew");
    assert_eq!(plan, rebuilt, "the same encoding paces the same way");
}
