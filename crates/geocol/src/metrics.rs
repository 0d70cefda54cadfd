//! Partition quality metrics: edge cut and load imbalance.
//!
//! These are the quantities that explain the executor-time differences in
//! Tables 2 and 4 of the paper: a partitioning with a smaller edge cut needs
//! fewer off-processor data copies per executor iteration.

use crate::geocol::GeoCoL;
use crate::partition::Partitioning;

/// Quality summary for a partitioning of a GeoCoL graph.
#[derive(Debug, Clone, PartialEq)]
pub struct PartitionQuality {
    /// Number of graph edges whose endpoints live on different parts.
    pub edge_cut: usize,
    /// Total number of graph edges.
    pub total_edges: usize,
    /// Maximum part load divided by average part load (1.0 = perfect).
    pub load_imbalance: f64,
    /// Per-part vertex counts.
    pub part_sizes: Vec<usize>,
}

impl PartitionQuality {
    /// Fraction of edges cut (0.0 when the graph has no edges).
    pub fn cut_fraction(&self) -> f64 {
        if self.total_edges == 0 {
            0.0
        } else {
            self.edge_cut as f64 / self.total_edges as f64
        }
    }

    /// Evaluate a partitioning against its GeoCoL graph.
    ///
    /// # Panics
    /// Panics if the partitioning has a different number of vertices than the
    /// graph.
    pub fn evaluate(geocol: &GeoCoL, partitioning: &Partitioning) -> Self {
        assert_eq!(
            geocol.nvertices(),
            partitioning.len(),
            "partitioning and GeoCoL vertex counts differ"
        );
        let nparts = partitioning.nparts();

        let mut edge_cut = 0usize;
        for &(a, b) in geocol.edges() {
            if partitioning.owner(a as usize) != partitioning.owner(b as usize) {
                edge_cut += 1;
            }
        }

        let loads = partitioning.part_loads(geocol);
        let total: f64 = loads.iter().sum();
        let mean = if nparts > 0 {
            total / nparts as f64
        } else {
            0.0
        };
        let max = loads.iter().copied().fold(0.0, f64::max);
        let load_imbalance = if mean > 0.0 { max / mean } else { 1.0 };

        PartitionQuality {
            edge_cut,
            total_edges: geocol.nedges(),
            load_imbalance,
            part_sizes: partitioning.part_sizes(),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::geocol::GeoColBuilder;

    /// A 2x4 grid graph:
    /// 0-1-2-3
    /// | | | |
    /// 4-5-6-7
    fn grid() -> GeoCoL {
        GeoColBuilder::new(8)
            .link(
                vec![0, 1, 2, 4, 5, 6, 0, 1, 2, 3],
                vec![1, 2, 3, 5, 6, 7, 4, 5, 6, 7],
            )
            .build()
            .unwrap()
    }

    #[test]
    fn perfect_split_of_grid() {
        let g = grid();
        // Left half {0,1,4,5} vs right half {2,3,6,7}: cuts edges 1-2 and 5-6.
        let p = Partitioning::new(vec![0, 0, 1, 1, 0, 0, 1, 1], 2);
        let q = PartitionQuality::evaluate(&g, &p);
        assert_eq!(q.edge_cut, 2);
        assert_eq!(q.total_edges, 10);
        assert_eq!(q.load_imbalance, 1.0);
        assert!((q.cut_fraction() - 0.2).abs() < 1e-12);
        assert_eq!(q.part_sizes, vec![4, 4]);
    }

    #[test]
    fn stripe_split_is_worse() {
        let g = grid();
        // Alternate columns: every horizontal edge is cut.
        let p = Partitioning::new(vec![0, 1, 0, 1, 0, 1, 0, 1], 2);
        let q = PartitionQuality::evaluate(&g, &p);
        assert_eq!(q.edge_cut, 6);
    }

    #[test]
    fn imbalance_detected() {
        let g = grid();
        let p = Partitioning::new(vec![0, 0, 0, 0, 0, 0, 0, 1], 2);
        let q = PartitionQuality::evaluate(&g, &p);
        assert!((q.load_imbalance - 7.0 / 4.0).abs() < 1e-12);
    }

    #[test]
    fn single_part_has_no_cut() {
        let g = grid();
        let p = Partitioning::new(vec![0; 8], 1);
        let q = PartitionQuality::evaluate(&g, &p);
        assert_eq!(q.edge_cut, 0);
        assert_eq!(q.load_imbalance, 1.0);
    }

    #[test]
    fn edgeless_graph_cut_fraction_zero() {
        let g = GeoColBuilder::new(4).load(vec![1.0; 4]).build().unwrap();
        let p = Partitioning::new(vec![0, 1, 0, 1], 2);
        let q = PartitionQuality::evaluate(&g, &p);
        assert_eq!(q.cut_fraction(), 0.0);
    }
}
