//! Shard planning at the scenario level.
//!
//! `dsv_net::shard` partitions a *compiled* network by cutting its
//! widest-propagation links. This module answers the same question one
//! level up, on the declarative [`ScenarioSpec`]: which named nodes land
//! in which domain, and how wide the lookahead window across the cut is —
//! **without compiling anything** (no media loading, no app
//! construction).
//!
//! The guarantee is exactness, not similarity: [`shard_plan`] rebuilds
//! the identical edge list the compiled network reports from
//! `Network::link_edges` — same endpoint normalization, same weights,
//! same order (order matters: the partitioner breaks weight ties by edge
//! index) — so the plan's domain assignment is the one
//! `dsv_net::shard::partition_nodes` computes on the compiled network.

use std::collections::HashMap;

use dsv_net::shard::{partition_nodes, Partition};
use dsv_sim::SimDuration;

use crate::spec::ScenarioSpec;

/// A planned sharding of a scenario: the node-index [`Partition`] plus
/// the node names grouped per domain (the spec speaks names, not ids).
#[derive(Debug, Clone)]
pub struct ShardPlan {
    /// The underlying partition; `partition.domain_of[i]` is the domain
    /// of spec node `i` (spec order is id order).
    pub partition: Partition,
    /// Node names per domain, in node-id order within each domain.
    pub members: Vec<Vec<String>>,
}

/// Plan a `k`-way sharding of `spec` without compiling it.
///
/// Returns `None` for the same degenerate inputs the network-level
/// partitioner declines — `k < 2`, fewer nodes than domains, a graph that
/// does not split into exactly `k` connected domains, or a cut containing
/// a zero-propagation link — and additionally for a spec whose links name
/// unknown nodes (such a spec cannot compile either).
pub fn shard_plan(spec: &ScenarioSpec, k: usize) -> Option<ShardPlan> {
    let edges = spec_edges(spec)?;
    let partition = partition_nodes(spec.nodes.len(), &edges, k)?;
    let mut members = vec![Vec::new(); partition.domains];
    for (i, &d) in partition.domain_of.iter().enumerate() {
        members[d as usize].push(spec.nodes[i].name.clone());
    }
    Some(ShardPlan { partition, members })
}

/// The compiled network's `link_edges` list, reconstructed from the
/// spec.
///
/// `Network::link_edges` walks nodes in id order and each node's ports
/// in creation order. The compiler processes links in spec order, and
/// every link pushes one port on `a` (the `ab` direction) and one on `b`
/// (the `ba` direction) — so node `i`'s ports are precisely the spec
/// links that touch it, in spec order, with the direction leaving `i`.
/// `None` if a link names a node the spec does not declare.
fn spec_edges(spec: &ScenarioSpec) -> Option<Vec<(u32, u32, SimDuration)>> {
    let index: HashMap<&str, u32> = spec
        .nodes
        .iter()
        .enumerate()
        .map(|(i, n)| (n.name.as_str(), i as u32))
        .collect();
    let mut edges = Vec::with_capacity(spec.links.len() * 2);
    for (i, node) in spec.nodes.iter().enumerate() {
        let a = i as u32;
        for l in &spec.links {
            let la = *index.get(l.a.as_str())?;
            let lb = *index.get(l.b.as_str())?;
            if l.a == node.name {
                edges.push((
                    a.min(lb),
                    a.max(lb),
                    SimDuration::from_nanos(l.ab.propagation_ns),
                ));
            }
            if l.b == node.name {
                edges.push((
                    a.min(la),
                    a.max(la),
                    SimDuration::from_nanos(l.ba.propagation_ns),
                ));
            }
        }
    }
    Some(edges)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::spec::{LinkParams, LinkSpec, NodeSpec};

    fn params(prop_us: u64) -> LinkParams {
        LinkParams {
            rate_bps: 10_000_000,
            propagation_ns: prop_us * 1_000,
        }
    }

    fn chain_spec() -> ScenarioSpec {
        let mut spec = ScenarioSpec::new("chain", 1);
        for name in ["a", "b", "c", "d"] {
            spec.nodes.push(NodeSpec::router(name));
        }
        spec.links.push(LinkSpec::simple("a", "b", params(5)));
        spec.links.push(LinkSpec::simple("b", "c", params(5_000)));
        spec.links.push(LinkSpec::simple("c", "d", params(5)));
        spec
    }

    #[test]
    fn plan_cuts_the_widest_link_and_names_members() {
        let plan = shard_plan(&chain_spec(), 2).expect("chain splits");
        assert_eq!(plan.partition.domains, 2);
        assert_eq!(plan.members[0], vec!["a", "b"]);
        assert_eq!(plan.members[1], vec!["c", "d"]);
        assert_eq!(plan.partition.window, SimDuration::from_millis(5));
    }

    #[test]
    fn unknown_link_endpoint_declines() {
        let mut spec = chain_spec();
        spec.links.push(LinkSpec::simple("c", "ghost", params(5)));
        assert!(shard_plan(&spec, 2).is_none());
    }

    #[test]
    fn degenerate_requests_decline() {
        let spec = chain_spec();
        assert!(shard_plan(&spec, 1).is_none(), "k < 2");
        assert!(shard_plan(&spec, 9).is_none(), "more domains than nodes");
        let mut zero = chain_spec();
        for l in &mut zero.links {
            l.ab.propagation_ns = 0;
            l.ba.propagation_ns = 0;
        }
        assert!(shard_plan(&zero, 2).is_none(), "zero-propagation cut");
    }

    #[test]
    fn spec_edges_match_the_compiled_network() {
        // The exactness guarantee: the reconstructed edge list is
        // byte-identical (order included) to what the compiled network
        // reports, so the plan equals the compiled network's partition.
        let spec = chain_spec();
        let compiled = crate::compile(
            &spec,
            crate::CompileOptions {
                store: None,
                wrap: None,
            },
        )
        .expect("chain compiles");
        let from_net = compiled.net.link_edges();
        let from_spec = spec_edges(&spec).expect("all endpoints known");
        assert_eq!(from_spec, from_net);
        let plan = shard_plan(&spec, 2).unwrap();
        let runtime = partition_nodes(compiled.net.node_count(), &from_net, 2).unwrap();
        assert_eq!(plan.partition.domain_of, runtime.domain_of);
        assert_eq!(plan.partition.window, runtime.window);
    }
}
