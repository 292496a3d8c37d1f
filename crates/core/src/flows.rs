//! Transport-level per-flow outcomes for the TCP/ABR sweeps.
//!
//! The VQM-scored [`crate::experiment::RunOutcome`] answers "how did the
//! *video* look"; the TCP-smoothing and AF-TCP experiments ask a
//! different question — "what throughput, loss and (for ABR) rebuffering
//! did each *transport session* see" — so they report through this
//! leaner, flow-indexed shape instead of growing the scored outcome.
//!
//! Like [`crate::aggregate::AggregateOutcome`], a [`FlowsOutcome`] is
//! indexed by flow label and bridges symmetry classes through canonical
//! rank maps, so the runner's cache and exact-cluster transplants work
//! unchanged (see [`to_canonical_order`] / [`from_canonical_order`]).
//!
//! These outcomes are never VQM-scored: a `FlowJob`'s address is its
//! spec plus, for a smoothing run, the clip and encoding it streams.

use serde::{Deserialize, Serialize};

/// What one transport flow achieved in a run.
///
/// Field set is frozen once a golden commits it: the hand-rolled serde
/// layer errors on missing fields, so additions would invalidate every
/// committed `results/findings_*.json`.
#[derive(Debug, Clone, Default, Serialize, Deserialize)]
pub struct FlowOutcome {
    /// The rate this flow was promised (committed rate at the marker, or
    /// the encoding rate the server tried to sustain).
    pub target_bps: u64,
    /// Goodput actually delivered to the receiving application.
    pub achieved_bps: f64,
    /// Bytes delivered to the receiving application.
    pub delivered_bytes: u64,
    /// Fraction of transmitted packets lost anywhere on the path.
    pub packet_loss: f64,
    /// Drops by token-bucket policers.
    pub policer_drops: u64,
    /// Drops by router queues (drop-tail or WRED).
    pub queue_drops: u64,
    /// Mean one-way delay of delivered packets, milliseconds.
    pub mean_delay_ms: f64,
    /// ABR only: time from session start to first segment completion,
    /// seconds (zero for non-ABR flows).
    pub startup_s: f64,
    /// ABR only: total rebuffering time, seconds.
    pub stall_s: f64,
    /// ABR only: number of rebuffering events.
    pub rebuffers: u32,
    /// ABR only: mean quality-ladder rung fetched (0 = lowest).
    pub mean_rung: f64,
    /// ABR only: segments fully delivered.
    pub segments_completed: u32,
    /// The session failed outright (ABR session did not finish).
    pub broken: bool,
}

/// Per-flow outcomes of one multi-flow transport run, in flow-label
/// order (flow `1 + i` at index `i`).
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct FlowsOutcome {
    /// One outcome per flow.
    pub per_flow: Vec<FlowOutcome>,
}

impl FlowsOutcome {
    /// Mean achieved goodput across flows.
    pub fn mean_achieved_bps(&self) -> f64 {
        if self.per_flow.is_empty() {
            return 0.0;
        }
        self.per_flow.iter().map(|f| f.achieved_bps).sum::<f64>() / self.per_flow.len() as f64
    }

    /// Worst (lowest) achieved goodput across flows.
    pub fn worst_achieved_bps(&self) -> f64 {
        self.per_flow
            .iter()
            .map(|f| f.achieved_bps)
            .fold(f64::INFINITY, f64::min)
    }

    /// Total policer drops across flows.
    pub fn total_policer_drops(&self) -> u64 {
        self.per_flow.iter().map(|f| f.policer_drops).sum()
    }

    /// Total queue drops across flows.
    pub fn total_queue_drops(&self) -> u64 {
        self.per_flow.iter().map(|f| f.queue_drops).sum()
    }

    /// How many flows achieved at least `fraction` of their target rate.
    pub fn flows_meeting_target(&self, fraction: f64) -> usize {
        self.per_flow
            .iter()
            .filter(|f| f.achieved_bps >= f.target_bps as f64 * fraction)
            .count()
    }
}

/// Reorder a label-indexed outcome into canonical order
/// (`canon[rank[i]] = per_flow[i]`; see
/// [`crate::aggregate::media_flow_ranks`]).
pub fn flows_to_canonical_order(out: &FlowsOutcome, rank: &[usize]) -> FlowsOutcome {
    let mut per_flow = out.per_flow.clone();
    for (i, f) in out.per_flow.iter().enumerate() {
        per_flow[rank[i]] = f.clone();
    }
    FlowsOutcome { per_flow }
}

/// Reorder a canonical-order outcome back into this config's flow-label
/// order (`per_flow[i] = canon[rank[i]]`).
pub fn flows_from_canonical_order(canon_out: &FlowsOutcome, rank: &[usize]) -> FlowsOutcome {
    FlowsOutcome {
        per_flow: rank
            .iter()
            .map(|&p| canon_out.per_flow[p].clone())
            .collect(),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn out(n: usize) -> FlowsOutcome {
        FlowsOutcome {
            per_flow: (0..n)
                .map(|i| FlowOutcome {
                    target_bps: 1_000_000,
                    achieved_bps: (i as f64 + 1.0) * 100_000.0,
                    delivered_bytes: i as u64,
                    ..Default::default()
                })
                .collect(),
        }
    }

    #[test]
    fn rank_round_trip_is_identity() {
        let o = out(4);
        let rank = vec![2usize, 0, 3, 1];
        let back = flows_from_canonical_order(&flows_to_canonical_order(&o, &rank), &rank);
        assert_eq!(
            serde_json::to_string(&back).unwrap(),
            serde_json::to_string(&o).unwrap()
        );
    }

    #[test]
    fn summaries_agree_with_hand_computation() {
        let o = out(4);
        assert!((o.mean_achieved_bps() - 250_000.0).abs() < 1e-9);
        assert!((o.worst_achieved_bps() - 100_000.0).abs() < 1e-9);
        // Targets are 1 Mbps; only the 300k/400k flows clear 25 %.
        assert_eq!(o.flows_meeting_target(0.25), 2);
        assert_eq!(o.flows_meeting_target(0.05), 4);
    }

    #[test]
    fn outcome_round_trips_through_serde() {
        let o = FlowOutcome {
            target_bps: 2_000_000,
            achieved_bps: 1_234_567.8,
            delivered_bytes: 99,
            packet_loss: 0.125,
            policer_drops: 3,
            queue_drops: 4,
            mean_delay_ms: 17.5,
            startup_s: 0.4,
            stall_s: 1.25,
            rebuffers: 2,
            mean_rung: 1.5,
            segments_completed: 30,
            broken: false,
        };
        let json = serde_json::to_string(&o).unwrap();
        let back: FlowOutcome = serde_json::from_str(&json).unwrap();
        assert_eq!(serde_json::to_string(&back).unwrap(), json);
    }
}
