//! Per-router policy tables — the glue that turns the conditioning blocks
//! into a [`Conditioner`] the network invokes at router ingress.
//!
//! "A policy specifies a 'profile' that identifies the packet to which the
//! policy applies, and an action that determines the treatment that these
//! packets are to receive" (paper §3.2.1.2). A [`PolicyTable`] is an
//! ordered list of `(profile, action)` pairs; the first matching rule wins
//! and unmatched packets pass untouched.
//!
//! A table decides a (source, destination) pair alone, so that the
//! network's hop chains cross it for that pair, when every rule that can
//! match the pair passes it untouched or polices it, dropping and never
//! re-marking, with a bucket whose profile names exactly that source and
//! destination ([`PolicyTable::decides_alone`]).

use dsv_net::conditioner::{ConditionOutcome, Conditioner, QuickVerdict, Released};
use dsv_net::packet::{DropReason, Dscp, NodeId, Packet};
use dsv_sim::SimTime;

use crate::classifier::MatchRule;
use crate::meter::{Color, SrTcm, TrTcm};
use crate::policer::{ExceedAction, Policer, PolicerVerdict};
use crate::shaper::{Shaper, ShaperResult};

/// The treatment applied to packets matching a profile.
pub enum PolicyAction<P> {
    /// Meter against a token bucket; conformant packets are forwarded
    /// (optionally re-marked), non-conformant handled per the policer.
    Police(Policer),
    /// Delay non-conformant packets until conformant.
    Shape(Shaper<P>),
    /// Unconditionally set the DSCP.
    Mark(Dscp),
    /// AF-style conditioning: meter with an srTCM and mark the packet with
    /// the class's green/yellow/red drop precedence (RFC 2597). Never
    /// drops — shedding happens in the core's WRED queues.
    MeterAf {
        /// The single-rate three-color meter.
        meter: SrTcm,
        /// AF class 1..=4.
        class: u8,
    },
    /// AF conditioning with a two-rate meter (RFC 2698): green below the
    /// committed rate, yellow between committed and peak, red above peak.
    /// Like [`PolicyAction::MeterAf`] it only marks; WRED sheds.
    MeterTrtcm {
        /// The two-rate three-color meter.
        meter: TrTcm,
        /// AF class 1..=4.
        class: u8,
    },
    /// Explicitly pass untouched (useful to exempt a sub-profile ahead of a
    /// broader rule).
    Pass,
}

struct PolicyRule<P> {
    profile: MatchRule,
    action: PolicyAction<P>,
}

/// An ordered, first-match policy table implementing
/// [`dsv_net::conditioner::Conditioner`].
pub struct PolicyTable<P> {
    rules: Vec<PolicyRule<P>>,
}

impl<P> PolicyTable<P> {
    /// Empty table (passes everything).
    pub fn new() -> Self {
        PolicyTable { rules: Vec::new() }
    }

    /// Append a rule; earlier rules take precedence.
    pub fn push(&mut self, profile: MatchRule, action: PolicyAction<P>) -> &mut Self {
        self.rules.push(PolicyRule { profile, action });
        self
    }

    /// Builder-style rule addition.
    pub fn with(mut self, profile: MatchRule, action: PolicyAction<P>) -> Self {
        self.push(profile, action);
        self
    }

    /// Total conformant/non-conformant counts across all policers
    /// (diagnostics for experiment reports).
    pub fn policer_counts(&self) -> (u64, u64) {
        let mut ok = 0;
        let mut bad = 0;
        for r in &self.rules {
            if let PolicyAction::Police(p) = &r.action {
                ok += p.conformant;
                bad += p.non_conformant;
            }
        }
        (ok, bad)
    }
}

impl<P> Default for PolicyTable<P> {
    fn default() -> Self {
        Self::new()
    }
}

impl<P> Conditioner<P> for PolicyTable<P> {
    fn submit(&mut self, now: SimTime, pkt: Packet<P>) -> ConditionOutcome<P> {
        for rule in &mut self.rules {
            if !rule.profile.matches(&pkt) {
                continue;
            }
            return match &mut rule.action {
                PolicyAction::Pass => ConditionOutcome::Pass(pkt),
                PolicyAction::Mark(d) => {
                    let mut pkt = pkt;
                    pkt.dscp = *d;
                    ConditionOutcome::Pass(pkt)
                }
                PolicyAction::MeterAf { meter, class } => {
                    let mut pkt = pkt;
                    let precedence = match meter.meter(now, pkt.size) {
                        Color::Green => 1,
                        Color::Yellow => 2,
                        Color::Red => 3,
                    };
                    pkt.dscp = Dscp::af(*class, precedence);
                    ConditionOutcome::Pass(pkt)
                }
                PolicyAction::MeterTrtcm { meter, class } => {
                    let mut pkt = pkt;
                    let precedence = match meter.meter(now, pkt.size) {
                        Color::Green => 1,
                        Color::Yellow => 2,
                        Color::Red => 3,
                    };
                    pkt.dscp = Dscp::af(*class, precedence);
                    ConditionOutcome::Pass(pkt)
                }
                PolicyAction::Police(p) => match p.police(now, pkt) {
                    PolicerVerdict::Pass(pkt) => ConditionOutcome::Pass(pkt),
                    PolicerVerdict::Drop(pkt) => {
                        ConditionOutcome::Drop(pkt, DropReason::PolicerNonConformant)
                    }
                },
                PolicyAction::Shape(s) => match s.offer(now, pkt) {
                    ShaperResult::PassNow(pkt) => ConditionOutcome::Pass(pkt),
                    ShaperResult::Queued { next_release } => ConditionOutcome::Absorbed {
                        poll_at: next_release,
                    },
                    ShaperResult::Overflow(pkt) => {
                        ConditionOutcome::Drop(pkt, DropReason::ShaperOverflow)
                    }
                },
            };
        }
        ConditionOutcome::Pass(pkt)
    }

    /// In-place mirror of [`PolicyTable::submit`]: everything except
    /// shaping (which absorbs the packet) is decided against a borrow, so
    /// the network's pass-through fast path applies to policed, marked and
    /// metered traffic alike.
    fn quick(&mut self, now: SimTime, pkt: &mut Packet<P>) -> QuickVerdict {
        for rule in &mut self.rules {
            if !rule.profile.matches(pkt) {
                continue;
            }
            return match &mut rule.action {
                PolicyAction::Pass => QuickVerdict::Pass,
                PolicyAction::Mark(d) => {
                    pkt.dscp = *d;
                    QuickVerdict::Pass
                }
                PolicyAction::MeterAf { meter, class } => {
                    let precedence = match meter.meter(now, pkt.size) {
                        Color::Green => 1,
                        Color::Yellow => 2,
                        Color::Red => 3,
                    };
                    pkt.dscp = Dscp::af(*class, precedence);
                    QuickVerdict::Pass
                }
                PolicyAction::MeterTrtcm { meter, class } => {
                    let precedence = match meter.meter(now, pkt.size) {
                        Color::Green => 1,
                        Color::Yellow => 2,
                        Color::Red => 3,
                    };
                    pkt.dscp = Dscp::af(*class, precedence);
                    QuickVerdict::Pass
                }
                PolicyAction::Police(p) => {
                    if p.police_in_place(now, pkt) {
                        QuickVerdict::Pass
                    } else {
                        QuickVerdict::Drop(DropReason::PolicerNonConformant)
                    }
                }
                PolicyAction::Shape(_) => QuickVerdict::NeedsSubmit,
            };
        }
        QuickVerdict::Pass
    }

    /// A rule whose source or destination excludes the pair cannot match
    /// it. Every other rule must pass the pair's packets untouched or be a
    /// dropping policer without a conformance mark whose profile names
    /// exactly `src` and `dst`, so that its bucket meters this pair and no
    /// other. A policer matched by DSCP, flow or protocol alone can meter
    /// several pairs; meters re-mark and shapers absorb.
    fn decides_alone(&self, src: NodeId, dst: NodeId) -> bool {
        self.rules.iter().all(|rule| {
            let p = &rule.profile;
            let can_match = p.src.is_none_or(|s| s == src) && p.dst.is_none_or(|d| d == dst);
            !can_match
                || match &rule.action {
                    PolicyAction::Pass => true,
                    PolicyAction::Police(policer) => {
                        p.src == Some(src)
                            && p.dst == Some(dst)
                            && policer.conform_mark.is_none()
                            && policer.exceed == ExceedAction::Drop
                    }
                    _ => false,
                }
        })
    }

    fn release(&mut self, now: SimTime) -> Released<P> {
        let mut packets = Vec::new();
        let mut next_poll: Option<SimTime> = None;
        for rule in &mut self.rules {
            if let PolicyAction::Shape(s) = &mut rule.action {
                let (ready, next) = s.pop_ready(now);
                packets.extend(ready);
                next_poll = match (next_poll, next) {
                    (Some(a), Some(b)) => Some(a.min(b)),
                    (a, b) => a.or(b),
                };
            }
        }
        Released { packets, next_poll }
    }

    fn held(&self) -> usize {
        self.rules
            .iter()
            .map(|rule| match &rule.action {
                PolicyAction::Shape(s) => s.queue_len(),
                _ => 0,
            })
            .sum()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use dsv_net::packet::{FlowId, NodeId, PacketId, Proto};

    fn pkt(id: u64, src: u32, size: u32) -> Packet<()> {
        Packet {
            id: PacketId(id),
            flow: FlowId(1),
            src: NodeId(src),
            dst: NodeId(9),
            size,
            dscp: Dscp::BEST_EFFORT,
            proto: Proto::Udp,
            fragment: None,
            sent_at: SimTime::ZERO,
            payload: (),
        }
    }

    #[test]
    fn unmatched_packets_pass() {
        let mut t: PolicyTable<()> = PolicyTable::new().with(
            MatchRule {
                src: Some(NodeId(1)),
                ..MatchRule::ANY
            },
            PolicyAction::Police(Policer::ef_drop(1_000_000, 1500)),
        );
        // src 2 doesn't match: passes even though the policer would drop it.
        match t.submit(SimTime::ZERO, pkt(1, 2, 99_999)) {
            ConditionOutcome::Pass(p) => assert_eq!(p.dscp, Dscp::BEST_EFFORT),
            other => panic!("{other:?}"),
        }
    }

    #[test]
    fn first_match_wins() {
        let mut t: PolicyTable<()> = PolicyTable::new()
            .with(
                MatchRule {
                    src: Some(NodeId(1)),
                    ..MatchRule::ANY
                },
                PolicyAction::Mark(Dscp::EF),
            )
            .with(MatchRule::ANY, PolicyAction::Mark(Dscp::cs(1)));
        match t.submit(SimTime::ZERO, pkt(1, 1, 100)) {
            ConditionOutcome::Pass(p) => assert_eq!(p.dscp, Dscp::EF),
            other => panic!("{other:?}"),
        }
        match t.submit(SimTime::ZERO, pkt(2, 5, 100)) {
            ConditionOutcome::Pass(p) => assert_eq!(p.dscp, Dscp::cs(1)),
            other => panic!("{other:?}"),
        }
    }

    #[test]
    fn police_action_drops_and_counts() {
        let mut t: PolicyTable<()> = PolicyTable::new().with(
            MatchRule::ANY,
            PolicyAction::Police(Policer::ef_drop(1_000_000, 3000)),
        );
        assert!(matches!(
            t.submit(SimTime::ZERO, pkt(1, 1, 1500)),
            ConditionOutcome::Pass(_)
        ));
        assert!(matches!(
            t.submit(SimTime::ZERO, pkt(2, 1, 1500)),
            ConditionOutcome::Pass(_)
        ));
        match t.submit(SimTime::ZERO, pkt(3, 1, 1500)) {
            ConditionOutcome::Drop(_, DropReason::PolicerNonConformant) => {}
            other => panic!("{other:?}"),
        }
        assert_eq!(t.policer_counts(), (2, 1));
    }

    #[test]
    fn shape_action_absorbs_and_releases() {
        let mut t: PolicyTable<()> = PolicyTable::new().with(
            MatchRule::ANY,
            PolicyAction::Shape(Shaper::new(8_000_000, 1500, 100_000)),
        );
        assert!(matches!(
            t.submit(SimTime::ZERO, pkt(1, 1, 1500)),
            ConditionOutcome::Pass(_)
        ));
        let poll_at = match t.submit(SimTime::ZERO, pkt(2, 1, 1500)) {
            ConditionOutcome::Absorbed { poll_at } => poll_at,
            other => panic!("{other:?}"),
        };
        assert_eq!(poll_at, SimTime::from_micros(1500));
        let rel = t.release(poll_at);
        assert_eq!(rel.packets.len(), 1);
        assert_eq!(rel.packets[0].id, PacketId(2));
        assert!(rel.next_poll.is_none());
    }

    #[test]
    fn meter_af_colors_by_conformance() {
        use crate::meter::SrTcm;
        let mut t: PolicyTable<()> = PolicyTable::new().with(
            MatchRule::ANY,
            PolicyAction::MeterAf {
                meter: SrTcm::new(1_000_000, 1500, 1500),
                class: 2,
            },
        );
        let color_of =
            |t: &mut PolicyTable<()>, id: u64| match t.submit(SimTime::ZERO, pkt(id, 1, 1500)) {
                ConditionOutcome::Pass(p) => p.dscp,
                other => panic!("{other:?}"),
            };
        assert_eq!(color_of(&mut t, 1), Dscp::af(2, 1)); // green
        assert_eq!(color_of(&mut t, 2), Dscp::af(2, 2)); // yellow
        assert_eq!(color_of(&mut t, 3), Dscp::af(2, 3)); // red: never drop
    }

    #[test]
    fn meter_trtcm_colors_by_two_rates() {
        use crate::meter::TrTcm;
        // Peak bucket holds 2 packets, committed bucket 1: the first packet
        // is green, the second only passes the peak test (yellow), and the
        // third exceeds both rates (red).
        let mut t: PolicyTable<()> = PolicyTable::new().with(
            MatchRule::ANY,
            PolicyAction::MeterTrtcm {
                meter: TrTcm::new(2_000_000, 3000, 1_000_000, 1500),
                class: 3,
            },
        );
        let color_of =
            |t: &mut PolicyTable<()>, id: u64| match t.submit(SimTime::ZERO, pkt(id, 1, 1500)) {
                ConditionOutcome::Pass(p) => p.dscp,
                other => panic!("{other:?}"),
            };
        assert_eq!(color_of(&mut t, 1), Dscp::af(3, 1)); // green
        assert_eq!(color_of(&mut t, 2), Dscp::af(3, 2)); // yellow
        assert_eq!(color_of(&mut t, 3), Dscp::af(3, 3)); // red: never drop
    }

    #[test]
    fn pairs_decided_alone() {
        let (server, client, other) = (NodeId(1), NodeId(2), NodeId(3));
        // QBone's CAR policer: the server-to-client pair and the pairs no
        // rule can match (the client's control packets, another source).
        let car: PolicyTable<()> = PolicyTable::new().with(
            MatchRule::src_dst(server, client),
            PolicyAction::Police(Policer::car_drop(1_000_000, 3000)),
        );
        assert!(car.decides_alone(server, client));
        assert!(car.decides_alone(client, server));
        assert!(car.decides_alone(other, client));
        assert!(PolicyTable::<()>::new().decides_alone(server, client));
        let pass: PolicyTable<()> = PolicyTable::new().with(MatchRule::ANY, PolicyAction::Pass);
        assert!(pass.decides_alone(server, client));

        // Re-marking, a shared bucket, metering and shaping are not.
        let remark: PolicyTable<()> = PolicyTable::new().with(
            MatchRule::src_dst(server, client),
            PolicyAction::Police(Policer::ef_drop(1_000_000, 3000)),
        );
        assert!(!remark.decides_alone(server, client));
        assert!(remark.decides_alone(client, server));
        let color_down: PolicyTable<()> = PolicyTable::new().with(
            MatchRule::src_dst(server, client),
            PolicyAction::Police(Policer::new(
                crate::token_bucket::TokenBucket::new(1_000_000, 3000),
                None,
                ExceedAction::Remark(Dscp::BEST_EFFORT),
            )),
        );
        assert!(!color_down.decides_alone(server, client));
        let by_dscp: PolicyTable<()> = PolicyTable::new().with(
            MatchRule::ef_marked(),
            PolicyAction::Police(Policer::car_drop(1_000_000, 3000)),
        );
        assert!(!by_dscp.decides_alone(server, client));
        assert!(!by_dscp.decides_alone(client, server));
        let by_source: PolicyTable<()> = PolicyTable::new().with(
            MatchRule {
                src: Some(server),
                ..MatchRule::ANY
            },
            PolicyAction::Police(Policer::car_drop(1_000_000, 3000)),
        );
        assert!(!by_source.decides_alone(server, client));
        assert!(by_source.decides_alone(client, server));
        let meter: PolicyTable<()> = PolicyTable::new().with(
            MatchRule::src_dst(server, client),
            PolicyAction::MeterAf {
                meter: crate::meter::SrTcm::new(1_000_000, 1500, 1500),
                class: 1,
            },
        );
        assert!(!meter.decides_alone(server, client));
        let shaper: PolicyTable<()> = PolicyTable::new().with(
            MatchRule::src_dst(server, client),
            PolicyAction::Shape(Shaper::new(1_000_000, 3000, 60_000)),
        );
        assert!(!shaper.decides_alone(server, client));
        let mark: PolicyTable<()> =
            PolicyTable::new().with(MatchRule::ANY, PolicyAction::Mark(Dscp::EF));
        assert!(!mark.decides_alone(client, server));
    }

    #[test]
    fn empty_table_passes() {
        let mut t: PolicyTable<()> = PolicyTable::new();
        assert!(matches!(
            t.submit(SimTime::ZERO, pkt(1, 1, 100)),
            ConditionOutcome::Pass(_)
        ));
        assert!(t.release(SimTime::ZERO).packets.is_empty());
    }
}
