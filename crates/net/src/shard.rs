//! Shard planning: where a topology splits into link-separated domains,
//! and how much lookahead the cut leaves.
//!
//! The only way one node influences another is a packet crossing a link,
//! and a link imposes a propagation delay. Cut the topology into domains
//! and let `W` be the minimum propagation delay over all *cut* links: an
//! event at time `t` in one domain cannot cause an event before `t + W`
//! in any other. `W` is the window in which conservative parallel
//! execution could advance the domains without talking to each other.
//!
//! [`partition_nodes`] finds a `k`-way cut whose window is as wide as a
//! greedy merge can make it. It is analysis only: the simulator runs
//! every network on one serial engine, because on the committed
//! topologies a lockstep window holds only a handful of events.
//! `dsv_scenario::shard_plan` answers the same question on a scenario
//! spec, without compiling it.

use dsv_sim::SimDuration;

/// A computed domain decomposition of a topology.
#[derive(Debug, Clone)]
pub struct Partition {
    /// Domain id of each node, dense in `0..domains`, numbered by first
    /// appearance in node-id order (so the numbering itself is a pure
    /// function of the topology, not of merge order).
    pub domain_of: Vec<u32>,
    /// Number of domains.
    pub domains: usize,
    /// The lookahead window: the minimum propagation delay across all
    /// cut links. Always positive.
    pub window: SimDuration,
    /// Number of directed cut edges (diagnostics).
    pub cut_links: usize,
}

fn find(parent: &mut [u32], mut x: u32) -> u32 {
    while parent[x as usize] != x {
        // Path halving: point at the grandparent while walking up.
        let g = parent[parent[x as usize] as usize];
        parent[x as usize] = g;
        x = g;
    }
    x
}

/// Partition `n` nodes into `k` domains so that the minimum propagation
/// delay across cut links — the lookahead window — is as large as the
/// greedy merge can make it: edges are merged in ascending weight order
/// (Kruskal-style) until exactly `k` components remain, which keeps the
/// *small*-delay links internal and leaves the large-delay links as cuts.
///
/// `edges` lists `(min(a, b), max(a, b), propagation delay)` per directed
/// link, as [`crate::network::Network::link_edges`] reports them.
///
/// Returns `None` when no usable partition exists: `k < 2`, fewer nodes
/// than domains, a disconnected residue, or a cut whose window is zero
/// (a zero-propagation cut link leaves no lookahead).
pub fn partition_nodes(n: usize, edges: &[(u32, u32, SimDuration)], k: usize) -> Option<Partition> {
    if k < 2 || n < k {
        return None;
    }
    let mut parent: Vec<u32> = (0..n as u32).collect();
    let mut order: Vec<usize> = (0..edges.len()).collect();
    order.sort_by_key(|&i| (edges[i].2, i));
    let mut components = n;
    for &i in &order {
        if components == k {
            break;
        }
        let (a, b, _) = edges[i];
        let (ra, rb) = (find(&mut parent, a), find(&mut parent, b));
        if ra != rb {
            parent[ra as usize] = rb;
            components -= 1;
        }
    }
    if components != k {
        // Not enough edges to merge down to k components: the graph has
        // more than k connected pieces.
        return None;
    }
    let mut window: Option<SimDuration> = None;
    let mut cut_links = 0usize;
    for &(a, b, w) in edges {
        if find(&mut parent, a) != find(&mut parent, b) {
            cut_links += 1;
            window = Some(window.map_or(w, |cur| cur.min(w)));
        }
    }
    let window = window?;
    if window.is_zero() {
        return None;
    }
    let mut domain_of = vec![0u32; n];
    let mut root_dom: Vec<Option<u32>> = vec![None; n];
    let mut next = 0u32;
    for (i, slot) in domain_of.iter_mut().enumerate() {
        let r = find(&mut parent, i as u32) as usize;
        *slot = *root_dom[r].get_or_insert_with(|| {
            let d = next;
            next += 1;
            d
        });
    }
    debug_assert_eq!(next as usize, k);
    Some(Partition {
        domain_of,
        domains: k,
        window,
        cut_links,
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    fn us(n: u64) -> SimDuration {
        SimDuration::from_micros(n)
    }

    #[test]
    fn chain_splits_at_largest_delay_link() {
        // 0 —1µs— 1 —10µs— 2 —1µs— 3: the 10 µs link is the natural cut.
        let edges = vec![
            (0, 1, us(1)),
            (0, 1, us(1)),
            (1, 2, us(10)),
            (1, 2, us(10)),
            (2, 3, us(1)),
            (2, 3, us(1)),
        ];
        let p = partition_nodes(4, &edges, 2).unwrap();
        assert_eq!(p.domain_of, vec![0, 0, 1, 1]);
        assert_eq!(p.window, us(10));
        assert_eq!(p.domains, 2);
        assert_eq!(p.cut_links, 2);
    }

    #[test]
    fn domain_ids_are_dense_in_node_order() {
        // Merge order leaves node 0 alone: its domain must still be 0.
        let edges = vec![(1, 2, us(1)), (0, 1, us(50)), (0, 2, us(50))];
        let p = partition_nodes(3, &edges, 2).unwrap();
        assert_eq!(p.domain_of, vec![0, 1, 1]);
        assert_eq!(p.window, us(50));
    }

    #[test]
    fn asymmetric_cut_takes_the_minimum_direction() {
        let edges = vec![(0, 1, us(2)), (0, 1, us(7))];
        let p = partition_nodes(2, &edges, 2).unwrap();
        assert_eq!(p.window, us(2));
    }

    #[test]
    fn degenerate_requests_fall_back() {
        let edges = vec![(0, 1, us(1)), (1, 2, us(1))];
        assert!(partition_nodes(3, &edges, 1).is_none(), "k < 2");
        assert!(partition_nodes(2, &edges[..1], 3).is_none(), "k > n");
        // A zero-propagation cut admits no window.
        let zero = vec![(0, 1, SimDuration::ZERO)];
        assert!(partition_nodes(2, &zero, 2).is_none());
        // Disconnected residue: 4 nodes, one edge, want 2 domains — the
        // merge can reach 3 components but never 2.
        let sparse = vec![(0, 1, us(1))];
        assert!(partition_nodes(4, &sparse, 2).is_none());
    }
}
