//! Runtime gate shared by every compiled-in audit oracle.
//!
//! The oracles themselves live next to the state they check (`dsv-sim`'s
//! dispatch loop, `dsv-net`'s `SimAudit`, `dsv-diffserv`'s policer
//! cross-check); all of them exist only under `--features audit` and all
//! of them consult this single switch at run time. That two-level gate is
//! what lets one audit-enabled binary measure its own overhead: compile
//! the checks in, then flip them on and off per pass.
//!
//! The switch resolves, in order:
//! 1. a process-wide override set by [`set_enabled_for_process`]
//!    (used by benchmarks and the fault-injection self-tests), else
//! 2. the `DSV_AUDIT` environment variable, a flag read through
//!    [`crate::env::flag_from_env`] (off when unset).

use std::sync::atomic::{AtomicU8, Ordering};

/// 0 = follow `DSV_AUDIT`, 1 = forced on, 2 = forced off.
static FORCE: AtomicU8 = AtomicU8::new(0);

/// Force audits on or off for this process, overriding `DSV_AUDIT`;
/// `None` restores environment-variable control.
///
/// Benchmarks use this to compare audited and unaudited passes inside one
/// binary, and the fault-injection self-tests use it to arm the auditor
/// without mutating the process environment.
pub fn set_enabled_for_process(enabled: Option<bool>) {
    let v = match enabled {
        None => 0,
        Some(true) => 1,
        Some(false) => 2,
    };
    FORCE.store(v, Ordering::Relaxed);
}

/// Whether the compiled-in audit oracles should run right now.
///
/// Checked once per simulation run / network construction, not per event,
/// so the environment read is not on any hot path.
pub fn runtime_enabled() -> bool {
    match FORCE.load(Ordering::Relaxed) {
        1 => true,
        2 => false,
        _ => crate::env::flag_from_env("DSV_AUDIT").unwrap_or(false),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn override_beats_environment() {
        set_enabled_for_process(Some(true));
        assert!(runtime_enabled());
        set_enabled_for_process(Some(false));
        assert!(!runtime_enabled());
        set_enabled_for_process(None);
    }
}
