//! Multi-flow EF aggregates: N paced video flows behind one edge policer.
//!
//! The paper studies one video stream against its own EF profile. The
//! QBone deployment model, however, polices an *aggregate*: every Premium
//! flow a site sends shares one CAR token bucket at the border. This
//! experiment scales the paper's QBone scenario to N simultaneous paced
//! servers (one per client) whose EF-marked media flows all pass the same
//! aggregate policer — exposing the provisioning question the
//! single-flow sweeps cannot ask: how much aggregate token rate does a
//! site need per flow, and does the bucket-depth effect survive
//! aggregation?
//!
//! The scenario is pure data ([`aggregate_spec`]): the single-flow QBone
//! topology with its client/server pair replicated N times. Because the
//! spec compiler resolves nodes by name, the N-flow variant is a loop
//! over names, not a re-derivation of creation-order ids.
//!
//! An [`AggregateConfig`] is a [`crate::runner::GridJob`] like any other
//! grid point: the runner caches and clusters it, storing and
//! transplanting its per-flow outcomes in canonical flow order through
//! [`media_flow_ranks`].

use dsv_net::packet::FlowId;
use dsv_scenario::{AppSpec, DscpSpec, MatchSpec, MediaRef, NodeSpec, ScenarioSpec, TransportSpec};
use serde::{Deserialize, Serialize};

use crate::artifacts::Codec;
use crate::executor::execute;
use crate::experiment::{run_horizon, EfProfile, RunOutcome};
use crate::qbone::{qbone_path, ClipId2, CodecSpec};

/// Base flow id of client→server control traffic (flow `1000 + i` for
/// client `i`); media flows are `1 + i`.
pub const UP_FLOW_BASE: u32 = 1000;

/// Configuration of one EF-aggregate run.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct AggregateConfig {
    /// Which clip every server streams.
    pub clip: ClipId2,
    /// MPEG-1 CBR encoding rate of every stream.
    pub encoding_bps: u64,
    /// How many simultaneous client/server pairs share the aggregate.
    pub flows: u32,
    /// The *aggregate* APS profile at the border policer — all N media
    /// flows share this one token bucket.
    pub profile: EfProfile,
    /// Experiment seed.
    pub seed: u64,
    /// Declaration-order rotation of the client/server pairs: the pair
    /// carrying label `(p + rotation) % flows` is declared at position
    /// `p`. The pairs are exact permutation symmetries (identical app,
    /// path and conditioner treatment; only names and flow labels
    /// differ), so every rotation canonicalizes to the same
    /// symmetry-normal form and a rotated run equals the unrotated run
    /// up to the flow↔position relabelling — which makes it the
    /// declaration-order fairness sweep the cluster layer collapses to
    /// one simulation.
    pub rotation: u32,
}

impl AggregateConfig {
    /// A standard aggregate run.
    pub fn new(
        clip: ClipId2,
        encoding_bps: u64,
        flows: u32,
        profile: EfProfile,
    ) -> AggregateConfig {
        AggregateConfig {
            clip,
            encoding_bps,
            flows,
            profile,
            seed: 7,
            rotation: 0,
        }
    }

    /// The same run with the client/server pairs declared rotated by
    /// `rotation` positions.
    pub fn with_rotation(mut self, rotation: u32) -> AggregateConfig {
        self.rotation = rotation;
        self
    }

    /// The media flow id of stream `i`.
    pub fn media_flow(i: u32) -> FlowId {
        FlowId(1 + i)
    }

    /// The pair label declared at position `p` under this config's
    /// rotation.
    fn label_at(&self, p: u32) -> u32 {
        (p + self.rotation) % self.flows.max(1)
    }
}

/// Per-flow outcomes of one aggregate run, in flow order.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct AggregateOutcome {
    /// One scored outcome per media flow (flow `1 + i` at index `i`).
    pub per_flow: Vec<RunOutcome>,
}

impl AggregateOutcome {
    /// Mean VQM quality across the aggregate's flows.
    pub fn mean_quality(&self) -> f64 {
        if self.per_flow.is_empty() {
            return 0.0;
        }
        self.per_flow.iter().map(|o| o.quality).sum::<f64>() / self.per_flow.len() as f64
    }

    /// Worst per-flow VQM quality (higher is worse).
    pub fn worst_quality(&self) -> f64 {
        self.per_flow.iter().map(|o| o.quality).fold(0.0, f64::max)
    }

    /// Mean per-flow packet loss.
    pub fn mean_packet_loss(&self) -> f64 {
        if self.per_flow.is_empty() {
            return 0.0;
        }
        self.per_flow.iter().map(|o| o.packet_loss).sum::<f64>() / self.per_flow.len() as f64
    }

    /// Total policer drops across all flows.
    pub fn total_policer_drops(&self) -> u64 {
        self.per_flow.iter().map(|o| o.policer_drops).sum()
    }
}

/// The declarative N-flow aggregate scenario: the QBone topology with
/// its client/server pair replicated `cfg.flows` times and a single
/// DSCP-matched policer rule at the remote border.
pub fn aggregate_spec(cfg: &AggregateConfig) -> ScenarioSpec {
    let media = MediaRef {
        clip: cfg.clip,
        codec: CodecSpec::Mpeg1,
        rate_bps: cfg.encoding_bps,
    };
    let mut spec = ScenarioSpec::new("aggregate", cfg.seed);

    // The single-flow QBone path with its client/server pair replicated.
    // The pairs are declared by *position*; the label carried at a
    // position comes from `cfg.rotation` (0 everywhere but the
    // declaration-order fairness sweep).
    let pairs = (0..cfg.flows)
        .map(|p| {
            let i = cfg.label_at(p);
            let client = NodeSpec::host(
                &format!("client-{i}"),
                AppSpec::StreamClient {
                    server: format!("server-{i}"),
                    up_flow: UP_FLOW_BASE + i,
                    media,
                    transport: TransportSpec::Udp,
                    feedback_us: None,
                },
            );
            let server = NodeSpec::host(
                &format!("server-{i}"),
                AppSpec::PacedServer {
                    client: format!("client-{i}"),
                    flow: AggregateConfig::media_flow(i).0,
                    dscp: DscpSpec::EfQbone,
                    media,
                },
            );
            (client, server)
        })
        .collect();
    // The aggregate policer: one rule, one token bucket, every EF-marked
    // packet — exactly how a border router polices a site's Premium
    // aggregate. Client control traffic is best-effort and passes. Every
    // flow leaving the policed border conforms to the aggregate bound (a
    // subset of a conformant stream is conformant), so the audit oracles
    // check each media flow against the full profile.
    qbone_path(
        &mut spec,
        pairs,
        MatchSpec::dscp(DscpSpec::EfQbone),
        &cfg.profile,
        (0..cfg.flows).map(|i| AggregateConfig::media_flow(i).0),
    );
    spec.horizon_ns = Some(run_horizon(cfg.clip.into()).as_nanos());
    spec
}

/// Canonical rank of each media flow: entry `i` is the position of flow
/// `1 + i`'s outcome in a canonical-order per-flow vector (media flows
/// sorted by their canonical flow ids). Two configs sharing a canonical
/// form agree on canonical positions, so ranks are the bridge for
/// transplanting per-flow outcomes between them (and the order cache
/// entries are stored in).
pub fn media_flow_ranks(canon: &dsv_scenario::Canonical, flows: u32) -> Vec<usize> {
    let mut by_canon: Vec<(u32, u32)> = (0..flows)
        .map(|i| {
            let canon_id = canon
                .canon_flow(AggregateConfig::media_flow(i).0)
                .expect("every media flow appears in the spec");
            (canon_id, i)
        })
        .collect();
    by_canon.sort_unstable();
    let mut rank = vec![0usize; flows as usize];
    for (pos, &(_, label)) in by_canon.iter().enumerate() {
        rank[label as usize] = pos;
    }
    rank
}

/// Run one aggregate session and score every flow.
pub fn run_aggregate(cfg: &AggregateConfig) -> AggregateOutcome {
    let exec = execute(&aggregate_spec(cfg)).expect("aggregate spec compiles");
    assert_eq!(
        exec.clients.len(),
        cfg.flows as usize,
        "one client handle per flow"
    );
    // Outcomes are reported per flow *label* (flow `1 + i` at index
    // `i`), whatever declaration position the rotation put the pair at —
    // the executor hands clients back by node name, so look each one up.
    // Every flow scores against the same shared source/reference
    // features — one encode, N scores.
    let clients = (0..cfg.flows).map(|i| (format!("client-{i}"), AggregateConfig::media_flow(i)));
    let per_flow = exec
        .score_clients(cfg.clip, Codec::Mpeg1, cfg.encoding_bps, None, clients)
        .into_iter()
        .map(|(outcome, _)| outcome)
        .collect();
    AggregateOutcome { per_flow }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::experiment::{DEPTH_2MTU, DEPTH_3MTU};
    use crate::qbone::{run_qbone, QboneConfig};
    use crate::runner::GridOutcome;

    #[test]
    fn single_flow_aggregate_matches_the_qbone_run() {
        // With N = 1 the aggregate scenario is the QBone scenario (same
        // node positions, same links, same policer behaviour — only the
        // names and flow labels differ, neither of which affects
        // timing). The outcome must agree exactly.
        let profile = EfProfile::new(1_550_000, DEPTH_2MTU);
        let agg = run_aggregate(&AggregateConfig::new(ClipId2::Lost, 1_500_000, 1, profile));
        let single = run_qbone(&QboneConfig::new(ClipId2::Lost, 1_500_000, profile));
        assert_eq!(agg.per_flow.len(), 1);
        assert_eq!(
            serde_json::to_string(&agg.per_flow[0]).unwrap(),
            serde_json::to_string(&single).unwrap(),
            "one-flow aggregate must reproduce the single-flow run"
        );
    }

    #[test]
    fn per_flow_share_shrinks_with_aggregation() {
        // An aggregate rate that comfortably covers one flow starves
        // four: the provisioning must scale with N.
        let profile = EfProfile::new(1_400_000, DEPTH_3MTU);
        let one = run_aggregate(&AggregateConfig::new(ClipId2::Lost, 1_000_000, 1, profile));
        let four = run_aggregate(&AggregateConfig::new(ClipId2::Lost, 1_000_000, 4, profile));
        assert!(one.mean_quality() < 0.1, "one flow: {}", one.mean_quality());
        assert!(
            four.mean_quality() > one.mean_quality() + 0.3,
            "four flows under the same aggregate must starve: {} vs {}",
            four.mean_quality(),
            one.mean_quality()
        );
        assert!(four.total_policer_drops() > 0);
    }

    #[test]
    fn scaling_rate_and_depth_restores_quality() {
        // Rate alone is not enough: the N paced servers start in phase,
        // so their packets reach the policer as an N-MTU burst that a
        // fixed 3-MTU bucket cannot absorb no matter the token rate. The
        // aggregate profile must scale *both* dimensions — N × rate and
        // N × depth — to restore every flow's quality.
        let n = 4u32;
        let per_flow_rate = 1_400_000u64;
        let rate_only = EfProfile::new(per_flow_rate * n as u64, DEPTH_3MTU);
        let starved = run_aggregate(&AggregateConfig::new(
            ClipId2::Lost,
            1_000_000,
            n,
            rate_only,
        ));
        assert!(
            starved.worst_quality() > 0.5,
            "fixed depth should still starve some flow: {}",
            starved.worst_quality()
        );

        let scaled = EfProfile::new(per_flow_rate * n as u64, DEPTH_3MTU * n);
        let out = run_aggregate(&AggregateConfig::new(ClipId2::Lost, 1_000_000, n, scaled));
        assert_eq!(out.per_flow.len(), n as usize);
        assert!(
            out.worst_quality() < 0.15,
            "worst flow {}",
            out.worst_quality()
        );
    }

    #[test]
    fn rotated_declarations_permute_per_flow_outcomes_exactly() {
        // The pairs are identical and in phase, so declaration order is
        // the only asymmetry: the engine breaks same-instant ties by
        // node id, which is declaration position. A rotated declaration
        // must therefore reproduce the unrotated run *per position* —
        // i.e. per flow label the outcomes permute exactly. This is the
        // invariance the cluster layer's transplant relies on.
        let n = 4u32;
        let cfg = AggregateConfig::new(
            ClipId2::Lost,
            1_000_000,
            n,
            EfProfile::new(1_400_000 * n as u64, DEPTH_3MTU),
        );
        let r0 = run_aggregate(&cfg);
        let r1 = run_aggregate(&cfg.clone().with_rotation(1));
        let json = |o: &crate::experiment::RunOutcome| serde_json::to_string(o).unwrap();
        for l in 0..n as usize {
            // Label `l` sits at position `(l - rot) mod n`; rotation 0
            // has the position-`p` outcome at index `p`.
            let pos = (l + n as usize - 1) % n as usize;
            assert_eq!(
                json(&r1.per_flow[l]),
                json(&r0.per_flow[pos]),
                "flow {l} must reproduce position {pos}"
            );
        }
        // Non-vacuity: at this starved point the positions genuinely
        // differ (earlier declarations win policer ties), so the
        // permutation above is not an identity map.
        assert_ne!(json(&r0.per_flow[0]), json(&r0.per_flow[n as usize - 1]));
        // And the spec-level symmetry the runner keys on holds too.
        let a = dsv_scenario::canonicalize(&aggregate_spec(&cfg));
        let b = dsv_scenario::canonicalize(&aggregate_spec(&cfg.clone().with_rotation(1)));
        assert_eq!(a.json(), b.json());
        assert_ne!(
            aggregate_spec(&cfg).canonical_json(),
            aggregate_spec(&cfg.clone().with_rotation(1)).canonical_json(),
            "the raw specs differ; only the canonical forms coincide"
        );
    }

    #[test]
    fn canonical_ranks_bridge_rotations() {
        let n = 4u32;
        let cfg = AggregateConfig::new(
            ClipId2::Lost,
            1_000_000,
            n,
            EfProfile::new(5_600_000, DEPTH_3MTU),
        );
        let rot = cfg.clone().with_rotation(3);
        let rank0 = media_flow_ranks(&dsv_scenario::canonicalize(&aggregate_spec(&cfg)), n);
        let rank3 = media_flow_ranks(&dsv_scenario::canonicalize(&aggregate_spec(&rot)), n);
        // Rotation 0 declares labels in order: ranks are the identity.
        assert_eq!(rank0, vec![0, 1, 2, 3]);
        // Rotation 3 declares label 3 first: its media flow ranks first.
        assert_eq!(rank3[3], 0);
        // Round trip: to canonical order and back is the identity.
        let out = AggregateOutcome {
            per_flow: (0..n)
                .map(|i| crate::experiment::RunOutcome {
                    rx_packets: i as u64,
                    ..Default::default()
                })
                .collect(),
        };
        let back = out.to_canonical(&rank3).to_label_order(&rank3).unwrap();
        assert_eq!(
            serde_json::to_string(&back).unwrap(),
            serde_json::to_string(&out).unwrap()
        );
    }

    #[test]
    fn aggregate_runs_are_deterministic() {
        let cfg = AggregateConfig::new(
            ClipId2::Lost,
            1_000_000,
            2,
            EfProfile::new(2_300_000, DEPTH_2MTU),
        );
        let a = run_aggregate(&cfg);
        let b = run_aggregate(&cfg);
        assert_eq!(
            serde_json::to_string(&a).unwrap(),
            serde_json::to_string(&b).unwrap()
        );
    }
}
