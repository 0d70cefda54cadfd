//! Interconnect topologies and hop-count computation.

use crate::config::Topology;

/// Number of network hops between processors `a` and `b` under `topology`
/// with `nprocs` total processors.
///
/// The hop count feeds the per-hop term of the cost model; it never affects
/// which data is delivered.
pub fn hops(topology: Topology, nprocs: usize, a: usize, b: usize) -> usize {
    debug_assert!(a < nprocs && b < nprocs, "processor id out of range");
    if a == b {
        return 0;
    }
    match topology {
        Topology::FullyConnected => 1,
        Topology::Hypercube => (a ^ b).count_ones() as usize,
    }
}

/// The processors a tree-structured collective visits, as (parent, child)
/// edges of a binomial tree rooted at `root`, walked in place: the vote of
/// [`crate::collectives`] charges one message per edge and keeps no list.
///
/// Top-down recursive doubling: at each round the set of reached nodes
/// doubles, so parents always come before their children.
pub fn binomial_tree_edges(nprocs: usize, root: usize) -> impl Iterator<Item = (usize, usize)> {
    // Work in a rotated space where the root is 0, then rotate back.
    let rotate = move |v: usize| (v + root) % nprocs;
    let top = nprocs.next_power_of_two() / 2;
    let strides = std::iter::successors(Some(top), |s| Some(s / 2)).take_while(|&s| s >= 1);
    strides.flat_map(move |stride| {
        let parents = (0..nprocs).step_by(stride * 2);
        let reached = parents.filter(move |p| p + stride < nprocs);
        reached.map(move |p| (rotate(p), rotate(p + stride)))
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn hypercube_hops_are_hamming_distance() {
        assert_eq!(hops(Topology::Hypercube, 8, 0b000, 0b111), 3);
        assert_eq!(hops(Topology::Hypercube, 8, 0b101, 0b100), 1);
        assert_eq!(hops(Topology::Hypercube, 8, 3, 3), 0);
    }

    #[test]
    fn fully_connected_is_single_hop() {
        assert_eq!(hops(Topology::FullyConnected, 64, 3, 60), 1);
        assert_eq!(hops(Topology::FullyConnected, 64, 3, 3), 0);
    }

    #[test]
    fn diameters() {
        // The diameter: the maximum hop count over all processor pairs.
        let diameter = |topology, n| {
            let pairs = (0..n).flat_map(|a| (0..n).map(move |b| (a, b)));
            pairs.map(|(a, b)| hops(topology, n, a, b)).max().unwrap()
        };
        assert_eq!(diameter(Topology::Hypercube, 16), 4);
        assert_eq!(diameter(Topology::Hypercube, 1), 0);
        assert_eq!(diameter(Topology::FullyConnected, 16), 1);
    }

    #[test]
    fn binomial_tree_spans_all_processors() {
        for &p in &[1usize, 2, 3, 4, 7, 8, 16, 33] {
            for root in [0, p - 1] {
                let edges: Vec<_> = binomial_tree_edges(p, root).collect();
                assert_eq!(edges.len(), p - 1, "p={p} root={root}");
                let mut reached = vec![false; p];
                reached[root] = true;
                for &(parent, child) in &edges {
                    assert!(reached[parent], "parent {parent} visited before child");
                    assert!(!reached[child], "child {child} reached twice");
                    reached[child] = true;
                }
                assert!(reached.iter().all(|&r| r));
            }
        }
    }
}
