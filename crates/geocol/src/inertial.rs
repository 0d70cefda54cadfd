//! Recursive inertial bisection (Nour-Omid et al.), one of the geometric
//! partitioners the paper cites as options a user can couple through the
//! GeoCoL interface — one split rule over the crate's recursive bisection.
//!
//! # Split rule
//!
//! Order the active set by its projection onto the principal axis of the
//! load-weighted point cloud and cut at the weighted median. The two
//! O(n·dim) accumulation passes behind the principal axis — total load +
//! load-weighted coordinate sums, then the covariance moments (the
//! partitioner's "moment scans") — run through the [`RankScans`] executor
//! as [`block_scan`] fixed-size-block partial sums, folded driver-side in
//! ascending block order; the tiny `dim × dim` power iteration, the
//! projection sort and the total load of the sorted set stay driver-side.
//! Because the block boundaries are independent of the rank count, the
//! partitioning from the pure [`Partitioner::partition`] entry point is
//! bit-identical to every backend-driven
//! [`Partitioner::partition_with_scans`] run, on every engine.

use crate::geocol::GeoCoL;
use crate::partition::{
    block_scan, left_target, load_prefix, recursive_bisection, sort_by_key, Partitioner,
    Partitioning, RankScans,
};

/// Recursive inertial bisection partitioner.
#[derive(Debug, Clone, Copy, Default)]
pub struct InertialPartitioner;

/// Power-iteration steps on the `dim × dim` covariance that find the
/// principal axis.
const POWER_ITERATIONS: usize = 32;

impl Partitioner for InertialPartitioner {
    fn name(&self) -> &'static str {
        "INERTIAL"
    }

    /// The rank-parallel entry point: the mean and covariance accumulations
    /// behind every principal-axis computation (the partitioner's "moment
    /// scans") run as fixed-size-block partial sums through `scans` — the
    /// blocks chunked over the ranks, combined in ascending block order —
    /// so the runtime can execute them through `Backend::run_compute` while
    /// the partitioning stays bit-identical to [`Partitioner::partition`]
    /// for every rank count and engine.
    fn partition_with_scans(
        &self,
        geocol: &GeoCoL,
        nparts: usize,
        scans: &mut dyn RankScans,
    ) -> Partitioning {
        assert!(
            geocol.has_geometry(),
            "inertial bisection requires a GEOMETRY section in the GeoCoL structure"
        );
        recursive_bisection(
            geocol,
            nparts,
            scans,
            |vertices, left_parts, nparts, scans| {
                let axis = principal_axis(geocol, vertices, scans);
                let keys: Vec<f64> = vertices
                    .iter()
                    .map(|&v| project(geocol, v as usize, &axis))
                    .collect();
                sort_by_key(vertices, &keys);
                let total_load: f64 = vertices
                    .iter()
                    .map(|&v| geocol.vertex_load(v as usize))
                    .sum();
                let target_left = left_target(total_load, left_parts, nparts);
                load_prefix(geocol, vertices, 0.0, target_left).clamp(1, vertices.len() - 1)
            },
        )
    }

    fn cost_estimate(&self, geocol: &GeoCoL, nparts: usize) -> f64 {
        let n = geocol.nvertices().max(2) as f64;
        let levels = (nparts.max(2) as f64).log2().ceil();
        // Covariance accumulation + power iteration + sort per level.
        (n * (POWER_ITERATIONS as f64 + geocol.geometry_dim() as f64) + n * n.log2()) * levels
    }
}

/// Projection of a vertex's (load-weighted, mean-centred in the caller's
/// covariance) coordinates onto a direction vector.
fn project(geocol: &GeoCoL, vertex: usize, direction: &[f64]) -> f64 {
    direction
        .iter()
        .enumerate()
        .map(|(axis, &d)| geocol.coord(axis, vertex) * d)
        .sum()
}

/// Dominant eigenvector of the (load-weighted) coordinate covariance matrix,
/// found by power iteration. Falls back to the first coordinate axis for
/// degenerate point clouds.
///
/// The two O(n·dim) accumulation passes — total load + load-weighted
/// coordinate sums, then the covariance moments — run as fixed-size-block
/// partial sums through `scans` ([`block_scan`]); the partials are combined
/// in ascending block order (making the result independent of the rank
/// count, not just the engine) and the tiny `dim × dim` power iteration
/// stays driver-side.
fn principal_axis(geocol: &GeoCoL, vertices: &[u32], scans: &mut dyn RankScans) -> Vec<f64> {
    let dim = geocol.geometry_dim();

    // Moment scan 1: [total load, load-weighted coordinate sums].
    let width = 1 + dim;
    let blocks = block_scan(
        scans,
        vertices.len(),
        width,
        (1 + dim) as f64,
        &|items, acc: &mut [f64]| {
            for &v in &vertices[items] {
                let w = geocol.vertex_load(v as usize);
                acc[0] += w;
                for axis in 0..dim {
                    acc[1 + axis] += w * geocol.coord(axis, v as usize);
                }
            }
        },
    );
    let mut total_load = 0.0;
    let mut mean = vec![0.0; dim];
    for acc in blocks.chunks_exact(width) {
        total_load += acc[0];
        for (axis, m) in mean.iter_mut().enumerate() {
            *m += acc[1 + axis];
        }
    }
    if total_load > 0.0 {
        for m in &mut mean {
            *m /= total_load;
        }
    }

    // Moment scan 2: the covariance matrix (dim x dim, dim is 1..3 in
    // practice), mean-centred using the first scan's result.
    let cov_width = dim * dim;
    let mean_ref = &mean;
    let cov_blocks = block_scan(
        scans,
        vertices.len(),
        cov_width,
        (dim * dim) as f64,
        &|items, acc: &mut [f64]| {
            for &v in &vertices[items] {
                let w = geocol.vertex_load(v as usize);
                for i in 0..dim {
                    let di = geocol.coord(i, v as usize) - mean_ref[i];
                    for j in 0..dim {
                        let dj = geocol.coord(j, v as usize) - mean_ref[j];
                        acc[i * dim + j] += w * di * dj;
                    }
                }
            }
        },
    );
    let mut cov = vec![vec![0.0; dim]; dim];
    for acc in cov_blocks.chunks_exact(cov_width) {
        for i in 0..dim {
            for j in 0..dim {
                cov[i][j] += acc[i * dim + j];
            }
        }
    }

    let mut vec_ = vec![0.0; dim];
    // Deterministic, slightly asymmetric starting vector.
    for (i, x) in vec_.iter_mut().enumerate() {
        *x = 1.0 + 0.1 * i as f64;
    }
    for _ in 0..POWER_ITERATIONS {
        let mut next = vec![0.0; dim];
        for i in 0..dim {
            for j in 0..dim {
                next[i] += cov[i][j] * vec_[j];
            }
        }
        let norm: f64 = next.iter().map(|x| x * x).sum::<f64>().sqrt();
        if norm < 1e-30 {
            // Degenerate cloud: all points coincide. Use the x axis.
            let mut fallback = vec![0.0; dim];
            fallback[0] = 1.0;
            return fallback;
        }
        for x in &mut next {
            *x /= norm;
        }
        vec_ = next;
    }
    vec_
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::geocol::GeoColBuilder;
    use crate::metrics::PartitionQuality;
    use crate::partition::SerialScans;

    /// A long thin diagonal strip of points: the principal axis is the
    /// diagonal, so inertial bisection should split it crosswise while plain
    /// coordinate bisection along x or y would produce the same cut only by
    /// luck.
    fn diagonal_strip(n: usize) -> GeoCoL {
        let mut xs = Vec::with_capacity(2 * n);
        let mut ys = Vec::with_capacity(2 * n);
        let mut e1 = Vec::new();
        let mut e2 = Vec::new();
        for i in 0..n {
            // Two rows of points along the diagonal y = x.
            xs.push(i as f64);
            ys.push(i as f64);
            xs.push(i as f64 + 0.3);
            ys.push(i as f64 - 0.3);
            let a = (2 * i) as u32;
            let b = (2 * i + 1) as u32;
            e1.push(a);
            e2.push(b);
            if i + 1 < n {
                e1.push(a);
                e2.push(a + 2);
                e1.push(b);
                e2.push(b + 2);
            }
        }
        GeoColBuilder::new(2 * n)
            .geometry(vec![xs, ys])
            .link(e1, e2)
            .build()
            .unwrap()
    }

    #[test]
    fn inertial_splits_along_the_diagonal() {
        let g = diagonal_strip(64);
        let p = InertialPartitioner.partition(&g, 2);
        let q = PartitionQuality::evaluate(&g, &p);
        assert!(q.load_imbalance <= 1.05);
        // Cutting across the strip severs at most a handful of edges (the
        // strip is 2 vertices wide), far fewer than cutting along it.
        assert!(q.edge_cut <= 4, "edge cut {}", q.edge_cut);
    }

    #[test]
    fn inertial_balances_multiway() {
        let g = diagonal_strip(64);
        for nparts in [4, 8, 5] {
            let p = InertialPartitioner.partition(&g, nparts);
            let q = PartitionQuality::evaluate(&g, &p);
            assert!(
                q.load_imbalance <= 1.25,
                "nparts={nparts}: {}",
                q.load_imbalance
            );
            assert_eq!(p.part_sizes().iter().sum::<usize>(), g.nvertices());
        }
    }

    #[test]
    fn degenerate_cloud_does_not_panic() {
        // All points coincide; any balanced split is fine.
        let g = GeoColBuilder::new(8)
            .geometry(vec![vec![1.0; 8], vec![2.0; 8]])
            .build()
            .unwrap();
        let p = InertialPartitioner.partition(&g, 2);
        assert_eq!(p.part_sizes().iter().sum::<usize>(), 8);
    }

    #[test]
    fn deterministic() {
        let g = diagonal_strip(32);
        let a = InertialPartitioner.partition(&g, 4);
        let b = InertialPartitioner.partition(&g, 4);
        assert_eq!(a, b);
    }

    #[test]
    fn moment_scans_are_rank_count_independent() {
        let g = diagonal_strip(48);
        for nparts in [2, 4, 5] {
            let serial = InertialPartitioner.partition(&g, nparts);
            for nranks in [2, 3, 9, 50] {
                let chunked = InertialPartitioner.partition_with_scans(
                    &g,
                    nparts,
                    &mut SerialScans { nranks },
                );
                assert_eq!(serial, chunked, "nparts={nparts} nranks={nranks}");
            }
        }
    }

    #[test]
    #[should_panic(expected = "GEOMETRY")]
    fn requires_geometry() {
        let g = GeoColBuilder::new(4)
            .link(vec![0], vec![1])
            .build()
            .unwrap();
        let _ = InertialPartitioner.partition(&g, 2);
    }
}
