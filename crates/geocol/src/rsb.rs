//! Recursive spectral bisection (Simon) — the connectivity-based partitioner
//! used in the paper's Table 2 ("a parallelized version of Simon's
//! eigenvalue partitioner") — one split rule over the crate's recursive
//! bisection.
//!
//! # Split rule
//!
//! Order the active set by its components of the subgraph's **Fiedler
//! vector** (the eigenvector of the graph Laplacian belonging to the
//! second-smallest eigenvalue) and cut at the weighted median. The Fiedler
//! vector is obtained with power iteration on the spectrally shifted matrix
//! `B = cI − L` (`c` = a bound on the largest Laplacian eigenvalue), with
//! the constant vector deflated away, which avoids any external
//! linear-algebra dependency while keeping the characteristic behaviour
//! the paper reports: much higher partitioning cost than coordinate
//! bisection, in exchange for the lowest edge cut / fastest executor.
//!
//! The power iteration dominates the whole preprocessing pipeline, so its
//! inner loops run **rank-parallel** through the [`RankScans`] executor
//! (the PARTI/CHAOS partitioners themselves ran data-parallel on the nodes
//! — this is the reproduction's version of that):
//!
//! * the **sparse matvec** `y = Bx` over the induced-subgraph CSR adjacency
//!   is a [`map_scan`] — each rank computes its `ceil(m/nranks)` chunk of
//!   `y`, charging `~(3 + 2·avg_degree)` modeled ops per vertex;
//! * the `deflate_constant` / `normalize` / `dot` **reductions** are one
//!   [`block_scan`] per iteration computing `[Σy, Σy², Σy·x, Σx]` as
//!   fixed-size-block partial sums, folded driver-side in ascending block
//!   order;
//! * the deflate + renormalize **update** `x ← (y − mean)/‖y − mean‖` is a
//!   second [`map_scan`];
//! * the sorted set's **total load** is one more [`block_scan`].
//!
//! Only O(1) scalar work, the induced-CSR setup and the sort stay on the
//! driver between scans. Because maps write disjoint items and reductions
//! fold fixed blocks, the Fiedler vector — and therefore the partitioning —
//! is bit-identical for every rank count and engine. The cost estimate
//! (`iterations · (n + 2e) · log₂ nparts`) keeps RSB one to two orders of
//! magnitude above RCB, matching Table 2.

use crate::geocol::GeoCoL;
use crate::partition::{
    block_scan, left_target, load_prefix, map_scan, recursive_bisection, sort_by_key, Partitioner,
    Partitioning, RankScans,
};

/// Recursive spectral bisection partitioner.
#[derive(Debug, Clone, Copy)]
pub struct RsbPartitioner {
    /// Power-iteration steps per bisection level.
    pub power_iterations: usize,
    /// Convergence tolerance on the change of the Rayleigh quotient.
    pub tolerance: f64,
}

impl Default for RsbPartitioner {
    fn default() -> Self {
        RsbPartitioner {
            power_iterations: 200,
            tolerance: 1e-7,
        }
    }
}

impl Partitioner for RsbPartitioner {
    fn name(&self) -> &'static str {
        "RSB"
    }

    /// The rank-parallel entry point: the power iteration behind every
    /// Fiedler vector — sparse matvec, moment reductions and the
    /// deflate/normalize update — runs through `scans`, one chunk per rank,
    /// so the runtime can execute it through `Backend::run_compute` while
    /// the partitioning stays bit-identical to [`Partitioner::partition`].
    fn partition_with_scans(
        &self,
        geocol: &GeoCoL,
        nparts: usize,
        scans: &mut dyn RankScans,
    ) -> Partitioning {
        assert!(
            geocol.has_connectivity(),
            "RSB requires a LINK (connectivity) section in the GeoCoL structure"
        );
        // Global → local index scratch, reset after every Fiedler vector.
        let mut local = vec![u32::MAX; geocol.nvertices()];
        recursive_bisection(
            geocol,
            nparts,
            scans,
            |vertices, left_parts, nparts, scans| {
                let fiedler = self.fiedler_vector(geocol, vertices, &mut local, scans);
                sort_by_key(vertices, &fiedler);
                let vs: &[u32] = vertices;
                let total_load = block_scan(scans, vs.len(), 1, 1.0, &|items, acc| {
                    for i in items {
                        acc[0] += geocol.vertex_load(vs[i] as usize);
                    }
                })
                .iter()
                .sum::<f64>();
                let target_left = left_target(total_load, left_parts, nparts);
                load_prefix(geocol, vertices, 0.0, target_left).clamp(1, vertices.len() - 1)
            },
        )
    }

    fn cost_estimate(&self, geocol: &GeoCoL, nparts: usize) -> f64 {
        // Each power-iteration step touches every edge of the subgraph; the
        // subgraphs at one recursion level cover the whole graph, so a level
        // costs ~ iterations * (n + 2e). This is what makes RSB one to two
        // orders of magnitude more expensive than RCB, matching the paper's
        // Table 2 (258 s vs 1.6 s on the 53K mesh).
        let levels = (nparts.max(2) as f64).log2().ceil();
        self.power_iterations as f64
            * (geocol.nvertices() as f64 + 2.0 * geocol.nedges() as f64)
            * levels
    }
}

impl RsbPartitioner {
    /// Approximate Fiedler vector of the subgraph induced by `vertices`,
    /// indexed by position within `vertices`. The power iteration's matvec,
    /// moment reductions and deflate/normalize update run through `scans`
    /// (see the module docs); `local` is reusable global→local scratch.
    fn fiedler_vector(
        &self,
        geocol: &GeoCoL,
        vertices: &[u32],
        local: &mut [u32],
        scans: &mut dyn RankScans,
    ) -> Vec<f64> {
        let m = vertices.len();
        // Local index lookup + induced CSR adjacency (local indices),
        // driver-side setup: two counting passes, no per-vertex Vecs.
        for (i, &v) in vertices.iter().enumerate() {
            local[v as usize] = i as u32;
        }
        let mut offsets = vec![0usize; m + 1];
        for (i, &v) in vertices.iter().enumerate() {
            let mut deg = 0usize;
            for &nb in geocol.neighbors(v as usize) {
                if local[nb as usize] != u32::MAX {
                    deg += 1;
                }
            }
            offsets[i + 1] = offsets[i] + deg;
        }
        let mut targets = vec![0u32; offsets[m]];
        let mut cursor = 0usize;
        for &v in vertices {
            for &nb in geocol.neighbors(v as usize) {
                let l = local[nb as usize];
                if l != u32::MAX {
                    targets[cursor] = l;
                    cursor += 1;
                }
            }
        }
        let max_degree = (0..m)
            .map(|i| offsets[i + 1] - offsets[i])
            .max()
            .unwrap_or(0) as f64;
        // Shift so that B = cI - L is positive semi-definite with the Fiedler
        // direction as its second-largest eigenvector; c = 2*max_degree + 1
        // comfortably bounds the Laplacian spectrum.
        let c = 2.0 * max_degree + 1.0;
        // Modeled per-vertex cost of one matvec row: the diagonal term plus
        // a multiply-add per incident edge.
        let matvec_ops = 3.0 + 2.0 * offsets[m] as f64 / m as f64;

        // Deterministic pseudo-random start vector, orthogonal to 1
        // (driver-side: O(m) once per level, no scan state involved).
        let mut x: Vec<f64> = (0..m)
            .map(|i| {
                let v = vertices[i] as u64;
                let h = v.wrapping_mul(0x9E3779B97F4A7C15).rotate_left(31);
                (h % 10_000) as f64 / 10_000.0 - 0.5
            })
            .collect();
        deflate_constant(&mut x);
        normalize(&mut x);

        let mut prev_rayleigh = f64::INFINITY;
        for _ in 0..self.power_iterations {
            // Rank-parallel matvec: y = B x = c*x - L x, one chunk per rank.
            let (offs, tgts, xr) = (&offsets, &targets, &x);
            let y = map_scan(scans, m, matvec_ops, &|range, out| {
                for (k, i) in range.enumerate() {
                    let row = offs[i]..offs[i + 1];
                    let mut s = (c - row.len() as f64) * xr[i];
                    for &nb in &tgts[row] {
                        s += xr[nb as usize];
                    }
                    out[k] = s;
                }
            });

            // Rank-parallel moments: [Σy, Σy², Σy·x, Σx] as fixed-block
            // partial sums, folded in ascending block order.
            let yr = &y;
            let blocks = block_scan(scans, m, 4, 4.0, &|items, acc| {
                for i in items {
                    acc[0] += yr[i];
                    acc[1] += yr[i] * yr[i];
                    acc[2] += yr[i] * xr[i];
                    acc[3] += xr[i];
                }
            });
            let (mut sy, mut sy2, mut syx, mut sx) = (0.0, 0.0, 0.0, 0.0);
            for b in blocks.chunks_exact(4) {
                sy += b[0];
                sy2 += b[1];
                syx += b[2];
                sx += b[3];
            }
            let mean = sy / m as f64;
            // ‖y − mean‖² = Σy² − mean·Σy; with x deflated, mean stays tiny
            // relative to the spread, so the identity is numerically safe.
            let norm = (sy2 - mean * sy).max(0.0).sqrt();
            if norm < 1e-30 {
                // Graph is (near-)complete or degenerate; keep current x.
                break;
            }
            // Rayleigh quotient of L: lambda = c - (y - mean)·x.
            let rayleigh = c - (syx - mean * sx);

            // Rank-parallel deflate + renormalize: x ← (y − mean)/norm.
            x = map_scan(scans, m, 2.0, &|range, out| {
                for (k, i) in range.enumerate() {
                    out[k] = (yr[i] - mean) / norm;
                }
            });
            if (rayleigh - prev_rayleigh).abs() < self.tolerance {
                break;
            }
            prev_rayleigh = rayleigh;
        }
        // Reset the scratch for the sibling/parent calls.
        for &v in vertices {
            local[v as usize] = u32::MAX;
        }
        x
    }
}

/// Remove the component along the constant vector (the trivial Laplacian
/// eigenvector). Driver-side helper for the start vector.
fn deflate_constant(x: &mut [f64]) {
    if x.is_empty() {
        return;
    }
    let mean = x.iter().sum::<f64>() / x.len() as f64;
    for v in x.iter_mut() {
        *v -= mean;
    }
}

/// Normalize to unit length, returning the pre-normalization norm.
/// Driver-side helper for the start vector.
fn normalize(x: &mut [f64]) -> f64 {
    let norm = x.iter().map(|v| v * v).sum::<f64>().sqrt();
    if norm > 1e-30 {
        for v in x.iter_mut() {
            *v /= norm;
        }
    }
    norm
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::block::BlockPartitioner;
    use crate::geocol::GeoColBuilder;
    use crate::metrics::PartitionQuality;
    use crate::partition::SerialScans;

    /// Two dense clusters joined by a single bridge edge. The spectral split
    /// must find the bridge.
    fn dumbbell(cluster: usize) -> GeoCoL {
        let n = 2 * cluster;
        let mut e1 = Vec::new();
        let mut e2 = Vec::new();
        for c in 0..2 {
            let base = (c * cluster) as u32;
            for i in 0..cluster as u32 {
                for j in (i + 1)..cluster as u32 {
                    e1.push(base + i);
                    e2.push(base + j);
                }
            }
        }
        // The bridge.
        e1.push(0);
        e2.push(cluster as u32);
        GeoColBuilder::new(n).link(e1, e2).build().unwrap()
    }

    #[test]
    fn rsb_finds_the_bridge_in_a_dumbbell() {
        let g = dumbbell(12);
        let p = RsbPartitioner::default().partition(&g, 2);
        let q = PartitionQuality::evaluate(&g, &p);
        assert_eq!(
            q.edge_cut, 1,
            "spectral bisection should cut only the bridge"
        );
        assert_eq!(q.load_imbalance, 1.0);
    }

    /// 2-D grid with vertices renumbered so that BLOCK performs poorly.
    fn shuffled_grid(side: usize) -> GeoCoL {
        let n = side * side;
        let mut perm: Vec<usize> = (0..n).collect();
        let mut state = 99u64;
        for i in (1..n).rev() {
            state = state.wrapping_mul(6364136223846793005).wrapping_add(1);
            let j = (state >> 33) as usize % (i + 1);
            perm.swap(i, j);
        }
        let mut e1 = Vec::new();
        let mut e2 = Vec::new();
        for r in 0..side {
            for c in 0..side {
                let v = r * side + c;
                if c + 1 < side {
                    e1.push(perm[v] as u32);
                    e2.push(perm[v + 1] as u32);
                }
                if r + 1 < side {
                    e1.push(perm[v] as u32);
                    e2.push(perm[v + side] as u32);
                }
            }
        }
        GeoColBuilder::new(n).link(e1, e2).build().unwrap()
    }

    #[test]
    fn rsb_beats_block_on_shuffled_grid() {
        let g = shuffled_grid(12);
        let rsb = PartitionQuality::evaluate(&g, &RsbPartitioner::default().partition(&g, 4));
        let block = PartitionQuality::evaluate(&g, &BlockPartitioner.partition(&g, 4));
        assert!(
            (rsb.edge_cut as f64) < 0.6 * block.edge_cut as f64,
            "RSB cut {} vs BLOCK cut {}",
            rsb.edge_cut,
            block.edge_cut
        );
        assert!(rsb.load_imbalance <= 1.1);
    }

    #[test]
    fn rsb_multiway_is_balanced() {
        let g = shuffled_grid(10);
        for nparts in [4, 8, 6] {
            let p = RsbPartitioner::default().partition(&g, nparts);
            let q = PartitionQuality::evaluate(&g, &p);
            assert!(
                q.load_imbalance <= 1.3,
                "nparts={nparts} imbalance {}",
                q.load_imbalance
            );
            assert_eq!(p.part_sizes().iter().sum::<usize>(), 100);
        }
    }

    #[test]
    fn rsb_cost_estimate_dwarfs_rcb() {
        let g = shuffled_grid(10);
        let rsb_cost = RsbPartitioner::default().cost_estimate(&g, 8);
        let rcb_cost = crate::rcb::RcbPartitioner.cost_estimate(&g, 8);
        assert!(
            rsb_cost > 10.0 * rcb_cost,
            "RSB {rsb_cost} should be much more expensive than RCB {rcb_cost}"
        );
    }

    #[test]
    fn rsb_handles_disconnected_graphs() {
        // Two components with no bridge at all.
        let mut e1 = Vec::new();
        let mut e2 = Vec::new();
        for i in 0..10u32 {
            for j in (i + 1)..10u32 {
                e1.push(i);
                e2.push(j);
                e1.push(10 + i);
                e2.push(10 + j);
            }
        }
        let g = GeoColBuilder::new(20).link(e1, e2).build().unwrap();
        let p = RsbPartitioner::default().partition(&g, 2);
        let q = PartitionQuality::evaluate(&g, &p);
        assert_eq!(q.edge_cut, 0);
    }

    #[test]
    fn rsb_is_deterministic() {
        let g = shuffled_grid(8);
        let a = RsbPartitioner::default().partition(&g, 4);
        let b = RsbPartitioner::default().partition(&g, 4);
        assert_eq!(a, b);
    }

    #[test]
    fn rsb_scans_are_rank_count_independent() {
        // The whole point of the map/block scan structure: chunking the
        // scans over any number of ranks must not change a single bit of
        // the partitioning, so the pure partition() is an exact oracle for
        // every backend. Swept over multiway counts and a disconnected
        // graph.
        let g = shuffled_grid(14);
        for nparts in [2, 4, 7] {
            let serial = RsbPartitioner::default().partition(&g, nparts);
            for nranks in [2, 3, 5, 16, 64] {
                let chunked = RsbPartitioner::default().partition_with_scans(
                    &g,
                    nparts,
                    &mut SerialScans { nranks },
                );
                assert_eq!(serial, chunked, "nparts={nparts} nranks={nranks}");
            }
        }
        let disconnected = {
            let mut e1 = Vec::new();
            let mut e2 = Vec::new();
            for i in 0..30u32 {
                if i % 15 != 14 {
                    e1.push(i);
                    e2.push(i + 1);
                }
            }
            GeoColBuilder::new(30).link(e1, e2).build().unwrap()
        };
        let serial = RsbPartitioner::default().partition(&disconnected, 4);
        for nranks in [3, 8] {
            let chunked = RsbPartitioner::default().partition_with_scans(
                &disconnected,
                4,
                &mut SerialScans { nranks },
            );
            assert_eq!(serial, chunked);
        }
    }

    #[test]
    #[should_panic(expected = "LINK")]
    fn rsb_requires_connectivity() {
        let g = GeoColBuilder::new(4)
            .geometry(vec![vec![0.0; 4]])
            .build()
            .unwrap();
        let _ = RsbPartitioner::default().partition(&g, 2);
    }
}
