//! Regular partitioners used as baselines: BLOCK and CYCLIC.
//!
//! `BLOCK` is the naive HPF distribution the paper compares against in
//! Table 4 ("we assigned each processor contiguous blocks of array
//! elements"). `CYCLIC` is the other standard HPF regular distribution.

use crate::geocol::GeoCoL;
use crate::partition::{Partitioner, Partitioning, RankScans};

/// Contiguous block partitioning: vertex `i` goes to part
/// `i / ceil(n / nparts)` (HPF `BLOCK`).
#[derive(Debug, Clone, Copy, Default)]
pub struct BlockPartitioner;

/// Assign contiguous blocks of `n` elements to `nparts` parts, with the
/// block size of the runtime's `Distribution::block_size`.
fn block_owner(n: usize, nparts: usize, index: usize) -> usize {
    debug_assert!(index < n);
    let block = n.div_ceil(nparts).max(1);
    (index / block).min(nparts - 1)
}

impl Partitioner for BlockPartitioner {
    fn name(&self) -> &'static str {
        "BLOCK"
    }

    fn partition_with_scans(
        &self,
        geocol: &GeoCoL,
        nparts: usize,
        _scans: &mut dyn RankScans,
    ) -> Partitioning {
        let n = geocol.nvertices();
        let owners = (0..n).map(|i| block_owner(n, nparts, i) as u32).collect();
        Partitioning::new(owners, nparts)
    }

    fn cost_estimate(&self, geocol: &GeoCoL, _nparts: usize) -> f64 {
        geocol.nvertices() as f64
    }
}

/// Round-robin partitioning: vertex `i` goes to part `i % nparts`
/// (HPF `CYCLIC`).
#[derive(Debug, Clone, Copy, Default)]
pub struct CyclicPartitioner;

impl Partitioner for CyclicPartitioner {
    fn name(&self) -> &'static str {
        "CYCLIC"
    }

    fn partition_with_scans(
        &self,
        geocol: &GeoCoL,
        nparts: usize,
        _scans: &mut dyn RankScans,
    ) -> Partitioning {
        let owners = (0..geocol.nvertices())
            .map(|i| (i % nparts) as u32)
            .collect();
        Partitioning::new(owners, nparts)
    }

    fn cost_estimate(&self, geocol: &GeoCoL, _nparts: usize) -> f64 {
        geocol.nvertices() as f64
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::geocol::GeoColBuilder;
    use crate::metrics::PartitionQuality;

    fn line(n: usize) -> GeoCoL {
        let e1: Vec<u32> = (0..n as u32 - 1).collect();
        let e2: Vec<u32> = (1..n as u32).collect();
        GeoColBuilder::new(n).link(e1, e2).build().unwrap()
    }

    #[test]
    fn block_is_contiguous_and_balanced() {
        let g = line(100);
        let p = BlockPartitioner.partition(&g, 4);
        assert_eq!(p.part_sizes(), vec![25, 25, 25, 25]);
        // Contiguity: owners are non-decreasing.
        assert!(p.owners().windows(2).all(|w| w[0] <= w[1]));
        // A 1-D line split into 4 contiguous blocks cuts exactly 3 edges.
        assert_eq!(PartitionQuality::evaluate(&g, &p).edge_cut, 3);
    }

    #[test]
    fn block_handles_non_divisible_sizes() {
        let g = line(10);
        let p = BlockPartitioner.partition(&g, 4);
        let sizes = p.part_sizes();
        assert_eq!(sizes.iter().sum::<usize>(), 10);
        assert!(sizes.iter().all(|&s| s <= 3));
        // Every part index must be valid even when n < nparts.
        let tiny = line(2);
        let p = BlockPartitioner.partition(&tiny, 8);
        assert_eq!(p.part_sizes().iter().sum::<usize>(), 2);
    }

    #[test]
    fn block_owner_covers_all_parts_when_divisible() {
        let owners: Vec<usize> = (0..16).map(|i| block_owner(16, 4, i)).collect();
        assert_eq!(owners[0], 0);
        assert_eq!(owners[15], 3);
        for p in 0..4 {
            assert_eq!(owners.iter().filter(|&&o| o == p).count(), 4);
        }
    }

    #[test]
    fn cyclic_round_robins() {
        let g = line(9);
        let p = CyclicPartitioner.partition(&g, 3);
        assert_eq!(p.owners(), &[0, 1, 2, 0, 1, 2, 0, 1, 2]);
        // Cyclic on a line cuts every edge — the classic pathology.
        assert_eq!(PartitionQuality::evaluate(&g, &p).edge_cut, 8);
    }

    #[test]
    fn names_are_stable() {
        assert_eq!(BlockPartitioner.name(), "BLOCK");
        assert_eq!(CyclicPartitioner.name(), "CYCLIC");
    }
}
