//! Symmetry-normal form of a [`ScenarioSpec`].
//!
//! Grid sweeps produce many specs that describe *the same simulation*
//! under different presentation: node names differ, flow labels differ,
//! order-insensitive declarations (audit bounds, conditioners on distinct
//! routers) are listed in a different order, or whole client/server pairs
//! are the same declarations rotated through different labels. The
//! canonicalizer rewrites a spec into a normal form that erases exactly
//! those degrees of freedom — and nothing else — so two specs have equal
//! canonical JSON **iff** the rewrites below prove their simulations
//! byte-identical per declaration position.
//!
//! What the canonical form erases (presentation-only):
//!
//! * the scenario `name` and conditioner fault-`tap` labels;
//! * node **names** — the compiler resolves names to positional
//!   `NodeId`s, so node `i` is renamed `"n{i}"` and every reference
//!   (app targets, link endpoints, conditioner and bound nodes) follows;
//! * flow **labels** — the engine routes by destination node and matches
//!   flows only through rules the canonicalizer rewrites consistently,
//!   so flow ids are relabelled densely in first-appearance order;
//! * the order of audit `bounds` (pure observers) and of conditioners
//!   (each installs on a distinct router; installation order across
//!   routers does not affect packet processing).
//!
//! What it deliberately **keeps** (semantic):
//!
//! * node declaration order — it fixes `NodeId`s, and ids break event
//!   ties (hosts start in node-id order, so same-instant events of
//!   different nodes keep declaration order), so reordering non-identical
//!   declarations changes drop attribution;
//! * link declaration order — port order and route tie-breaking follow
//!   it;
//! * rule order within one conditioner — first match wins;
//! * `seed` and every `rng_fork` label — the scenario RNG is stateful:
//!   `SimRng::fork` consumes parent state at each stochastic app in node
//!   order (the PR-5 determinism contract), so fork *labels* and fork
//!   *order* are both part of the simulation's identity and must survive
//!   canonicalization verbatim.
//!
//! Because identical declarations relabel to identical bytes, a
//! permutation of symmetric client/server pairs (the N-flow aggregate's
//! in-phase flows) canonicalizes to the same spec; the retained
//! [`Canonical::flow_canon`] map then lets a caller transplant per-flow
//! outcomes between two specs that share a canonical form — see
//! `dsv-core`'s cluster layer.

use std::collections::HashMap;

use crate::spec::{AppSpec, BoundSpec, ConditionerSpec, LinkSpec, NodeSpec, ScenarioSpec};

/// A spec in symmetry-normal form, plus the maps back to the original
/// labels.
#[derive(Debug, Clone)]
pub struct Canonical {
    /// The normalized spec; its [`ScenarioSpec::canonical_json`] is the
    /// clustering / cache identity.
    pub spec: ScenarioSpec,
    /// Original node names in declaration (= id) order; entry `i` is the
    /// name `"n{i}"` replaced.
    pub node_names: Vec<String>,
    /// Original flow id → canonical flow id, in first-appearance order
    /// (canonical ids are dense from 0).
    pub flow_canon: Vec<(u32, u32)>,
}

impl Canonical {
    /// The canonical flow id of an original flow id, if the flow appears
    /// anywhere in the spec.
    pub fn canon_flow(&self, orig: u32) -> Option<u32> {
        self.flow_canon
            .iter()
            .find(|(o, _)| *o == orig)
            .map(|(_, c)| *c)
    }

    /// The original flow id carrying canonical id `canon`.
    pub fn orig_flow(&self, canon: u32) -> Option<u32> {
        self.flow_canon
            .iter()
            .find(|(_, c)| *c == canon)
            .map(|(o, _)| *o)
    }

    /// Canonical JSON of the normalized spec.
    pub fn json(&self) -> String {
        self.spec.canonical_json()
    }
}

/// Relabelling state: node renames and the dense flow map.
struct Relabel {
    nodes: HashMap<String, String>,
    flows: HashMap<u32, u32>,
    flow_order: Vec<(u32, u32)>,
}

impl Relabel {
    fn node(&self, name: &str) -> String {
        // An unresolved name is a spec error the compiler reports; the
        // canonical form keeps it verbatim so the error stays visible.
        self.nodes
            .get(name)
            .cloned()
            .unwrap_or_else(|| name.to_string())
    }

    fn flow(&mut self, orig: u32) -> u32 {
        if let Some(&c) = self.flows.get(&orig) {
            return c;
        }
        let c = self.flows.len() as u32;
        self.flows.insert(orig, c);
        self.flow_order.push((orig, c));
        c
    }
}

fn canon_app(app: &AppSpec, r: &mut Relabel) -> AppSpec {
    let mut app = app.clone();
    match &mut app {
        AppSpec::PacedServer { client, flow, .. }
        | AppSpec::BurstyServer { client, flow, .. }
        | AppSpec::MultiRatePacedServer { client, flow, .. }
        | AppSpec::AdaptiveServer { client, flow, .. }
        | AppSpec::TcpServer { client, flow, .. }
        | AppSpec::AbrServer { client, flow, .. }
        | AppSpec::BulkTcpSender { client, flow, .. } => {
            *client = r.node(client);
            *flow = r.flow(*flow);
        }
        AppSpec::StreamClient {
            server, up_flow, ..
        }
        | AppSpec::AbrClient {
            server, up_flow, ..
        }
        | AppSpec::BulkTcpSink {
            server, up_flow, ..
        } => {
            *server = r.node(server);
            *up_flow = r.flow(*up_flow);
        }
        AppSpec::OnOffSource { dst, flow, .. } | AppSpec::Pump { dst, flow, .. } => {
            *dst = r.node(dst);
            *flow = r.flow(*flow);
        }
        AppSpec::CountingSink | AppSpec::IdSink => {}
    }
    app
}

/// Canonicalize `spec`. See the module docs for exactly which rewrites
/// this applies and why each is simulation-preserving.
pub fn canonicalize(spec: &ScenarioSpec) -> Canonical {
    let mut r = Relabel {
        nodes: spec
            .nodes
            .iter()
            .enumerate()
            .map(|(i, n)| (n.name.clone(), format!("n{i}")))
            .collect(),
        flows: HashMap::new(),
        flow_order: Vec::new(),
    };

    // Nodes first (declaration order is id order and RNG-fork order, so
    // it is preserved — and it fixes the flow relabelling).
    let nodes: Vec<NodeSpec> = spec
        .nodes
        .iter()
        .enumerate()
        .map(|(i, n)| NodeSpec {
            name: format!("n{i}"),
            app: n.app.as_ref().map(|a| canon_app(a, &mut r)),
        })
        .collect();

    let links: Vec<LinkSpec> = spec
        .links
        .iter()
        .map(|l| LinkSpec {
            a: r.node(&l.a),
            b: r.node(&l.b),
            ..l.clone()
        })
        .collect();

    let mut conditioners: Vec<ConditionerSpec> = spec
        .conditioners
        .iter()
        .map(|c| ConditionerSpec {
            node: r.node(&c.node),
            tap: None,
            rules: c
                .rules
                .iter()
                .map(|rule| {
                    let mut rule = rule.clone();
                    if let Some(src) = &rule.matches.src {
                        rule.matches.src = Some(r.node(src));
                    }
                    if let Some(dst) = &rule.matches.dst {
                        rule.matches.dst = Some(r.node(dst));
                    }
                    if let Some(flow) = rule.matches.flow {
                        rule.matches.flow = Some(r.flow(flow));
                    }
                    rule
                })
                .collect(),
        })
        .collect();
    // Conditioners install on distinct routers; cross-router order is
    // presentation. Sort by the canonical spec bytes so ties (several
    // conditioners on one node — rule-order within each is untouched)
    // still order deterministically. The key is computed once per
    // conditioner; the sort is stable, as `sort_by` was.
    conditioners.sort_by_cached_key(|c| {
        (
            node_index(&c.node),
            serde_json::to_string(c).unwrap_or_default(),
        )
    });

    let mut bounds: Vec<BoundSpec> = spec
        .bounds
        .iter()
        .map(|bnd| BoundSpec {
            node: r.node(&bnd.node),
            flow: r.flow(bnd.flow),
            ..*bnd
        })
        .collect();
    bounds.sort_by_key(|b| (node_index(&b.node), b.flow, b.rate_bps, b.depth_bytes));

    Canonical {
        spec: ScenarioSpec {
            name: String::new(),
            seed: spec.seed,
            nodes,
            links,
            conditioners,
            bounds,
            horizon_ns: spec.horizon_ns,
        },
        node_names: spec.nodes.iter().map(|n| n.name.clone()).collect(),
        flow_canon: r.flow_order,
    }
}

/// Positional index behind a canonical node name (`"n{i}"` → `i`); names
/// the relabeller left verbatim sort after all canonical ones.
fn node_index(canon_name: &str) -> u64 {
    canon_name
        .strip_prefix('n')
        .and_then(|s| s.parse().ok())
        .unwrap_or(u64::MAX)
}

/// For every flow of `member`, the flow of `rep` occupying the same
/// canonical position. Only meaningful when both canonicalize to the same
/// spec (`member.json() == rep.json()`); returns `None` otherwise or when
/// the flow sets do not line up.
pub fn flow_counterparts(member: &Canonical, rep: &Canonical) -> Option<Vec<(u32, u32)>> {
    if member.flow_canon.len() != rep.flow_canon.len() {
        return None;
    }
    member
        .flow_canon
        .iter()
        .map(|&(orig, canon)| rep.orig_flow(canon).map(|r| (orig, r)))
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::spec::{
        ActionSpec, AppSpec, ClipId2, CodecSpec, DscpSpec, LinkParams, MatchSpec, MediaRef,
        RuleSpec, TransportSpec,
    };

    fn media() -> MediaRef {
        MediaRef {
            clip: ClipId2::Lost,
            codec: CodecSpec::Mpeg1,
            rate_bps: 1_000_000,
        }
    }

    /// A two-pair aggregate-shaped scenario with the pair carrying label
    /// `l(p)` declared at position `p`.
    fn pairs_spec(labels: [u32; 2], name: &str) -> ScenarioSpec {
        let mut s = ScenarioSpec::new(name, 7);
        for &l in &labels {
            s.nodes.push(NodeSpec::host(
                &format!("client-{l}"),
                AppSpec::StreamClient {
                    server: format!("server-{l}"),
                    up_flow: 1000 + l,
                    media: media(),
                    transport: TransportSpec::Udp,
                    feedback_us: None,
                },
            ));
        }
        s.nodes.push(NodeSpec::router("edge"));
        for &l in &labels {
            s.nodes.push(NodeSpec::host(
                &format!("server-{l}"),
                AppSpec::PacedServer {
                    client: format!("client-{l}"),
                    flow: 1 + l,
                    dscp: DscpSpec::EfQbone,
                    media: media(),
                },
            ));
        }
        for &l in &labels {
            s.links.push(LinkSpec::simple(
                &format!("client-{l}"),
                "edge",
                LinkParams::ethernet_10mbps(),
            ));
        }
        for &l in &labels {
            s.links.push(LinkSpec::simple(
                &format!("server-{l}"),
                "edge",
                LinkParams::fast_ethernet(),
            ));
        }
        s.conditioners.push(ConditionerSpec {
            node: "edge".to_string(),
            tap: Some("ingress".to_string()),
            rules: vec![RuleSpec {
                matches: MatchSpec::dscp(DscpSpec::EfQbone),
                action: ActionSpec::Police {
                    rate_bps: 2_000_000,
                    depth_bytes: 3000,
                    conform_mark: None,
                },
            }],
        });
        for &l in &[labels[0].min(labels[1]), labels[0].max(labels[1])] {
            s.bounds.push(crate::spec::BoundSpec {
                node: "edge".to_string(),
                flow: 1 + l,
                rate_bps: 2_000_000,
                depth_bytes: 3000,
            });
        }
        s
    }

    #[test]
    fn canonical_form_is_a_fixpoint() {
        let c = canonicalize(&pairs_spec([0, 1], "a"));
        let c2 = canonicalize(&c.spec);
        assert_eq!(c.json(), c2.json());
    }

    #[test]
    fn names_and_taps_are_presentation_only() {
        let a = pairs_spec([0, 1], "a");
        let mut b = pairs_spec([0, 1], "renamed");
        for n in &mut b.nodes {
            n.name = n.name.replace("client", "cl").replace("server", "sv");
        }
        for l in &mut b.links {
            l.a = l.a.replace("client", "cl").replace("server", "sv");
        }
        for app in b.nodes.iter_mut().filter_map(|n| n.app.as_mut()) {
            match app {
                AppSpec::StreamClient { server, .. } => *server = server.replace("server", "sv"),
                AppSpec::PacedServer { client, .. } => *client = client.replace("client", "cl"),
                _ => {}
            }
        }
        b.conditioners[0].tap = None;
        assert_ne!(a.canonical_json(), b.canonical_json());
        assert_eq!(canonicalize(&a).json(), canonicalize(&b).json());
    }

    #[test]
    fn rotated_pair_labels_share_a_canonical_form() {
        // The same two identical client/server pairs declared with the
        // labels swapped: a pure relabelling, so the canonical forms
        // coincide and the flow maps cross.
        let a = canonicalize(&pairs_spec([0, 1], "a"));
        let b = canonicalize(&pairs_spec([1, 0], "a"));
        assert_eq!(a.json(), b.json());
        let map = flow_counterparts(&b, &a).expect("flows line up");
        // b's media flow 2 (label 1, declared first) sits where a's
        // media flow 1 (label 0, declared first) sits.
        assert!(map.contains(&(2, 1)));
        assert!(map.contains(&(1, 2)));
        assert!(map.contains(&(1001, 1000)));
        assert!(map.contains(&(1000, 1001)));
    }

    #[test]
    fn bounds_order_is_presentation_only() {
        let a = pairs_spec([0, 1], "a");
        let mut b = pairs_spec([0, 1], "a");
        b.bounds.reverse();
        assert_eq!(canonicalize(&a).json(), canonicalize(&b).json());
    }

    #[test]
    fn perturbed_conditioner_row_breaks_the_symmetry() {
        let a = pairs_spec([0, 1], "a");
        let mut b = pairs_spec([1, 0], "a");
        if let ActionSpec::Police { depth_bytes, .. } = &mut b.conditioners[0].rules[0].action {
            *depth_bytes += 1;
        }
        assert_ne!(canonicalize(&a).json(), canonicalize(&b).json());
    }

    #[test]
    fn node_declaration_order_is_semantic() {
        // Swapping two *different* declarations changes ids (event
        // tie-breaking, RNG fork order) — the canonical forms must
        // differ even though the name-resolved topology is the same.
        let a = pairs_spec([0, 1], "a");
        let mut b = pairs_spec([0, 1], "a");
        b.nodes.swap(0, 2); // client-0 ↔ the router
        assert_ne!(canonicalize(&a).json(), canonicalize(&b).json());
    }

    #[test]
    fn rng_fork_labels_are_semantic() {
        let mk = |fork: u64| {
            let mut s = ScenarioSpec::new("ct", 7);
            s.nodes.push(NodeSpec::host("sink", AppSpec::CountingSink));
            s.nodes.push(NodeSpec::host(
                "src",
                AppSpec::OnOffSource {
                    dst: "sink".to_string(),
                    flow: 100,
                    packet_size: 1000,
                    peak_rate_bps: 30_000_000,
                    mean_on_us: 200_000,
                    mean_off_us: 200_000,
                    dscp: DscpSpec::BestEffort,
                    stop_at_us: 200_000_000,
                    rng_fork: fork,
                },
            ));
            s.links
                .push(LinkSpec::simple("src", "sink", LinkParams::fast_ethernet()));
            s
        };
        assert_ne!(canonicalize(&mk(1)).json(), canonicalize(&mk(2)).json());
    }

    #[test]
    fn flow_labels_are_presentation_only_when_rules_follow() {
        // Relabelling a flow everywhere it appears — app, matching rule,
        // bound — canonicalizes identically; relabelling it only in the
        // app does not.
        let mk = |flow: u32, rule_flow: u32| {
            let mut s = ScenarioSpec::new("f", 7);
            s.nodes.push(NodeSpec::host("rx", AppSpec::IdSink));
            s.nodes.push(NodeSpec::router("mid"));
            s.nodes.push(NodeSpec::host(
                "tx",
                AppSpec::Pump {
                    dst: "rx".to_string(),
                    flow,
                    count: 10,
                    size: 1500,
                    gap_ns: 1_000_000,
                },
            ));
            s.links
                .push(LinkSpec::simple("tx", "mid", LinkParams::fast_ethernet()));
            s.links
                .push(LinkSpec::simple("mid", "rx", LinkParams::fast_ethernet()));
            s.conditioners.push(ConditionerSpec {
                node: "mid".to_string(),
                tap: None,
                rules: vec![RuleSpec {
                    matches: MatchSpec::flow(rule_flow),
                    action: ActionSpec::Pass,
                }],
            });
            s
        };
        assert_eq!(
            canonicalize(&mk(1, 1)).json(),
            canonicalize(&mk(9, 9)).json()
        );
        assert_ne!(
            canonicalize(&mk(1, 1)).json(),
            canonicalize(&mk(9, 1)).json()
        );
    }
}
