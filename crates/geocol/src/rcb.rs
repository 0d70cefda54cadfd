//! Recursive (binary) coordinate bisection — the geometry-based partitioner
//! of Berger & Bokhari used throughout the paper's Tables 2 and 3
//! ("recursive binary dissection" / "coordinate bisection"), one split rule
//! over the crate's recursive bisection.
//!
//! # Split rule
//!
//! Order the active set along the coordinate axis of largest extent and cut
//! at the weighted median. Its passes over the set run through the
//! [`RankScans`] executor:
//!
//! * **extents + load** — one [`block_scan`] computes per-axis min/max and
//!   the total load as fixed-size-block partials, folded driver-side in
//!   ascending block order (min/max are exact under any grouping; the load
//!   sum is exact because the blocks are fixed);
//! * **median selection** — above [`SORT_CUTOFF`], a second [`block_scan`]
//!   builds a per-block **histogram** (count + load per coordinate bucket)
//!   over the chosen axis; the driver then *selects* the bucket holding the
//!   weighted median, sorts only that bucket's members and walks their
//!   prefix loads — a rank-parallel `O(m)` scan instead of the full
//!   `O(m log m)` sort. Smaller sets (and degenerate clouds with zero
//!   extent) sort the whole set driver-side.
//!
//! Both paths depend only on the input — never on the rank count or engine.

use crate::geocol::{GeoCoL, Section};
use crate::partition::{
    block_scan, left_target, load_prefix, recursive_bisection, sort_by_key, Partitioner,
    Partitioning, RankScans,
};

/// Active-set size at or below which the weighted median is found by the
/// classic driver-side sort instead of the rank-parallel histogram select.
pub const SORT_CUTOFF: usize = 2048;

/// Number of coordinate buckets in the histogram-select pass.
const NBINS: usize = 128;

/// Recursive coordinate bisection partitioner.
#[derive(Debug, Clone, Copy, Default)]
pub struct RcbPartitioner;

impl Partitioner for RcbPartitioner {
    fn name(&self) -> &'static str {
        "RCB"
    }

    fn required_section(&self) -> Option<Section> {
        Some(Section::Geometry)
    }

    /// The rank-parallel entry point: the extent/load scans and the
    /// histogram median selection behind every split run through `scans`,
    /// one chunk per rank, so the runtime can execute them through
    /// `Backend::run_compute` while the partitioning stays bit-identical to
    /// [`Partitioner::partition`].
    fn partition_with_scans(
        &self,
        geocol: &GeoCoL,
        nparts: usize,
        scans: &mut dyn RankScans,
    ) -> Partitioning {
        recursive_bisection(
            self,
            geocol,
            nparts,
            scans,
            |vertices, left_parts, nparts, scans| {
                split(geocol, vertices, left_parts, nparts, scans)
            },
        )
    }

    fn cost_estimate(&self, geocol: &GeoCoL, nparts: usize) -> f64 {
        // Each level scans the active set along one axis (sort below the
        // cutoff, histogram select above): O(n log n) per level keeps the
        // classic bound, log2(nparts) levels.
        let n = geocol.nvertices().max(2) as f64;
        let levels = (nparts.max(2) as f64).log2().ceil();
        n * n.log2() * levels
    }
}

/// RCB's split rule: order `vertices` along the axis of largest extent and
/// cut at the weighted median of the `left_parts / nparts` load share.
fn split(
    geocol: &GeoCoL,
    vertices: &mut [u32],
    left_parts: usize,
    nparts: usize,
    scans: &mut dyn RankScans,
) -> usize {
    let dim = geocol.geometry_dim();
    let m = vertices.len();
    let vs: &[u32] = vertices;

    // Rank-parallel extents + load: per block, [lo, hi] per axis then the
    // block's load sum. min/max fold exactly under any grouping; the load
    // sum folds fixed blocks in ascending order.
    let width = 2 * dim + 1;
    let blocks = block_scan(
        scans,
        m,
        width,
        (2 * dim + 1) as f64,
        &|items, acc: &mut [f64]| {
            for a in 0..dim {
                acc[2 * a] = f64::INFINITY;
                acc[2 * a + 1] = f64::NEG_INFINITY;
            }
            for i in items {
                let v = vs[i] as usize;
                for a in 0..dim {
                    let c = geocol.coord(a, v);
                    acc[2 * a] = acc[2 * a].min(c);
                    acc[2 * a + 1] = acc[2 * a + 1].max(c);
                }
                acc[2 * dim] += geocol.vertex_load(v);
            }
        },
    );
    let mut lo = vec![f64::INFINITY; dim];
    let mut hi = vec![f64::NEG_INFINITY; dim];
    let mut total_load = 0.0;
    for b in blocks.chunks_exact(width) {
        for a in 0..dim {
            lo[a] = lo[a].min(b[2 * a]);
            hi[a] = hi[a].max(b[2 * a + 1]);
        }
        total_load += b[2 * dim];
    }
    let mut axis = 0;
    let mut best_extent = f64::NEG_INFINITY;
    for a in 0..dim {
        let extent = hi[a] - lo[a];
        if extent > best_extent {
            best_extent = extent;
            axis = a;
        }
    }

    let target_left = left_target(total_load, left_parts, nparts);
    let histogram_usable = m > SORT_CUTOFF && best_extent.is_finite() && best_extent > 0.0;
    if histogram_usable {
        histogram_select(
            geocol,
            vertices,
            axis,
            lo[axis],
            hi[axis],
            target_left,
            scans,
        )
    } else {
        sort_select(geocol, vertices, axis, target_left)
    }
}

/// `vertices`' coordinates along `axis`, one per vertex.
fn coords(geocol: &GeoCoL, vertices: &[u32], axis: usize) -> Vec<f64> {
    vertices
        .iter()
        .map(|&v| geocol.coord(axis, v as usize))
        .collect()
}

/// Classic weighted-median selection: sort the active set along `axis`
/// and walk prefix loads until `target_left` is reached. Returns the split,
/// clamped so neither side is empty.
fn sort_select(geocol: &GeoCoL, vertices: &mut [u32], axis: usize, target_left: f64) -> usize {
    let keys = coords(geocol, vertices, axis);
    sort_by_key(vertices, &keys);
    load_prefix(geocol, vertices, 0.0, target_left).clamp(1, vertices.len() - 1)
}
/// Rank-parallel weighted-median selection: a per-block histogram scan over
/// `NBINS` coordinate buckets feeds a driver-side select — pick the bucket
/// where the cumulative load first reaches `target_left`, sort only that
/// bucket's members and walk their prefix loads. Reorders `vertices`
/// (stably, preserving the incoming relative order within each side) so the
/// left group is `..split`; returns `split` with neither side empty.
///
/// Every step is a pure function of the input set — bucket boundaries come
/// from the exact `lo`/`hi` extents, partial sums fold fixed blocks — so
/// the result is bit-identical for every rank count and engine, and
/// identical to what a full sort-select over the same bucket walk yields.
fn histogram_select(
    geocol: &GeoCoL,
    vertices: &mut [u32],
    axis: usize,
    lo: f64,
    hi: f64,
    target_left: f64,
    scans: &mut dyn RankScans,
) -> usize {
    let m = vertices.len();
    let inv = NBINS as f64 / (hi - lo);
    let bin_of = |v: u32| -> usize {
        (((geocol.coord(axis, v as usize) - lo) * inv) as usize).min(NBINS - 1)
    };

    // Rank-parallel histogram: per block, [count, load] per bucket.
    let vs: &[u32] = vertices;
    let blocks = block_scan(scans, m, 2 * NBINS, 4.0, &|items, acc: &mut [f64]| {
        for i in items {
            let b = bin_of(vs[i]);
            acc[2 * b] += 1.0;
            acc[2 * b + 1] += geocol.vertex_load(vs[i] as usize);
        }
    });
    let mut counts = [0usize; NBINS];
    let mut loads = [0.0f64; NBINS];
    for block in blocks.chunks_exact(2 * NBINS) {
        for b in 0..NBINS {
            counts[b] += block[2 * b] as usize;
            loads[b] += block[2 * b + 1];
        }
    }

    // Driver-side select: the bucket where the cumulative load first
    // reaches the target (or the last populated bucket if rounding never
    // lets it).
    let mut cum = 0.0;
    let mut boundary = None;
    for (b, &load) in loads.iter().enumerate() {
        cum += load;
        if cum >= target_left {
            boundary = Some(b);
            break;
        }
    }
    let boundary =
        boundary.unwrap_or_else(|| (0..NBINS).rev().find(|&b| counts[b] > 0).unwrap_or(0));
    if counts[boundary] == 0 {
        // Degenerate (e.g. all-zero loads landing in an empty bucket): the
        // histogram cannot refine the split — fall back to the exact sort.
        return sort_select(geocol, vertices, axis, target_left);
    }
    let below_count: usize = counts[..boundary].iter().sum();
    let below_load: f64 = loads[..boundary].iter().sum();

    // Sort only the boundary bucket's members and walk their prefix loads.
    let mut candidates: Vec<u32> = vertices
        .iter()
        .copied()
        .filter(|&v| bin_of(v) == boundary)
        .collect();
    let keys = coords(geocol, &candidates, axis);
    sort_by_key(&mut candidates, &keys);
    let taken = load_prefix(geocol, &candidates, below_load, target_left);
    let split = (below_count + taken).clamp(1, m - 1);
    if split < below_count {
        // The clamp cannot reach back below the boundary bucket (the
        // buckets before it hold at most m-1 vertices), but keep the exact
        // fallback as a safety net.
        return sort_select(geocol, vertices, axis, target_left);
    }
    let taken = split - below_count;

    // Stable two-sided partition: left = buckets below the boundary plus
    // the first `taken` sorted members of the boundary bucket.
    let threshold = if taken == 0 {
        None
    } else {
        let t = candidates[taken - 1];
        Some((geocol.coord(axis, t as usize), t))
    };
    let mut left = Vec::with_capacity(split);
    let mut right = Vec::with_capacity(m - split);
    for &v in vertices.iter() {
        let b = bin_of(v);
        let is_left = match b.cmp(&boundary) {
            std::cmp::Ordering::Less => true,
            std::cmp::Ordering::Greater => false,
            std::cmp::Ordering::Equal => match threshold {
                None => false,
                Some((tc, tv)) => {
                    let c = geocol.coord(axis, v as usize);
                    (c, v) <= (tc, tv)
                }
            },
        };
        if is_left {
            left.push(v);
        } else {
            right.push(v);
        }
    }
    debug_assert_eq!(left.len(), split);
    vertices[..split].copy_from_slice(&left);
    vertices[split..].copy_from_slice(&right);
    split
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::geocol::GeoColBuilder;
    use crate::metrics::PartitionQuality;
    use crate::partition::SerialScans;

    /// A uniform 2-D grid of `side x side` points with 4-neighbour edges.
    fn grid_geocol(side: usize) -> GeoCoL {
        let n = side * side;
        let mut xs = Vec::with_capacity(n);
        let mut ys = Vec::with_capacity(n);
        let mut e1 = Vec::new();
        let mut e2 = Vec::new();
        for r in 0..side {
            for c in 0..side {
                xs.push(c as f64);
                ys.push(r as f64);
                let v = (r * side + c) as u32;
                if c + 1 < side {
                    e1.push(v);
                    e2.push(v + 1);
                }
                if r + 1 < side {
                    e1.push(v);
                    e2.push(v + side as u32);
                }
            }
        }
        GeoColBuilder::new(n)
            .geometry(vec![xs, ys])
            .link(e1, e2)
            .build()
            .unwrap()
    }

    #[test]
    fn rcb_balances_a_grid() {
        let g = grid_geocol(16);
        for nparts in [2, 4, 8, 16] {
            let p = RcbPartitioner.partition(&g, nparts);
            let q = PartitionQuality::evaluate(&g, &p);
            assert!(
                q.load_imbalance <= 1.05,
                "nparts={nparts} imbalance={}",
                q.load_imbalance
            );
            // Geometric partitioning of a grid should cut far fewer edges
            // than a random assignment would (expected ~ (1-1/p) of edges).
            assert!(
                q.cut_fraction() < 0.3,
                "nparts={nparts} cut fraction {}",
                q.cut_fraction()
            );
        }
    }

    #[test]
    fn rcb_beats_block_on_a_shuffled_grid() {
        // Renumber the grid vertices pseudo-randomly: BLOCK now cuts a lot,
        // RCB (which looks at coordinates, not numbering) is unaffected.
        let side = 12;
        let g = grid_geocol(side);
        let n = g.nvertices();
        // Build a permuted copy.
        let perm: Vec<usize> = {
            let mut p: Vec<usize> = (0..n).collect();
            // Deterministic LCG shuffle.
            let mut state = 12345u64;
            for i in (1..n).rev() {
                state = state.wrapping_mul(6364136223846793005).wrapping_add(1);
                let j = (state >> 33) as usize % (i + 1);
                p.swap(i, j);
            }
            p
        };
        let mut xs = vec![0.0; n];
        let mut ys = vec![0.0; n];
        for v in 0..n {
            xs[perm[v]] = g.coord(0, v);
            ys[perm[v]] = g.coord(1, v);
        }
        let edges: Vec<(u32, u32)> = g
            .edges()
            .iter()
            .map(|&(a, b)| (perm[a as usize] as u32, perm[b as usize] as u32))
            .collect();
        let shuffled = GeoColBuilder::new(n)
            .geometry(vec![xs, ys])
            .link_edges(&edges)
            .build()
            .unwrap();

        let rcb = PartitionQuality::evaluate(&shuffled, &RcbPartitioner.partition(&shuffled, 8));
        let block = PartitionQuality::evaluate(
            &shuffled,
            &crate::block::BlockPartitioner.partition(&shuffled, 8),
        );
        assert!(
            rcb.edge_cut * 2 < block.edge_cut,
            "RCB cut {} should be well below BLOCK cut {}",
            rcb.edge_cut,
            block.edge_cut
        );
    }

    #[test]
    fn rcb_handles_non_power_of_two_parts() {
        let g = grid_geocol(10);
        for nparts in [3, 5, 6, 7] {
            let p = RcbPartitioner.partition(&g, nparts);
            let q = PartitionQuality::evaluate(&g, &p);
            assert_eq!(p.nparts(), nparts);
            assert!(
                q.load_imbalance < 1.25,
                "nparts={nparts}: {}",
                q.load_imbalance
            );
            let sizes = p.part_sizes();
            assert_eq!(sizes.iter().sum::<usize>(), 100);
            assert!(
                sizes.iter().all(|&s| s > 0),
                "empty part for nparts={nparts}"
            );
        }
    }

    #[test]
    fn rcb_respects_vertex_loads() {
        // Two clusters on a line; the right cluster is 3x heavier per vertex.
        let n = 40;
        let xs: Vec<f64> = (0..n).map(|i| i as f64).collect();
        let loads: Vec<f64> = (0..n).map(|i| if i < 20 { 1.0 } else { 3.0 }).collect();
        let g = GeoColBuilder::new(n)
            .geometry(vec![xs])
            .load(loads)
            .build()
            .unwrap();
        let p = RcbPartitioner.partition(&g, 2);
        let loads = p.part_loads(&g);
        let imbalance = loads.iter().cloned().fold(0.0, f64::max) / (g.total_load() / 2.0);
        assert!(imbalance < 1.1, "load-weighted split imbalance {imbalance}");
        // The heavy side should hold fewer vertices.
        let sizes = p.part_sizes();
        assert_ne!(sizes[0], sizes[1]);
    }

    #[test]
    fn rcb_single_part_and_tiny_inputs() {
        let g = grid_geocol(3);
        let p = RcbPartitioner.partition(&g, 1);
        assert!(p.owners().iter().all(|&o| o == 0));
        // More parts than vertices must not panic.
        let tiny = GeoColBuilder::new(2)
            .geometry(vec![vec![0.0, 1.0]])
            .link(vec![0], vec![1])
            .build()
            .unwrap();
        let p = RcbPartitioner.partition(&tiny, 8);
        assert_eq!(p.len(), 2);
    }

    #[test]
    #[should_panic(expected = "GEOMETRY")]
    fn rcb_requires_geometry() {
        let g = GeoColBuilder::new(4)
            .link(vec![0, 1], vec![1, 2])
            .build()
            .unwrap();
        let _ = RcbPartitioner.partition(&g, 2);
    }

    #[test]
    fn rcb_is_deterministic() {
        let g = grid_geocol(9);
        let a = RcbPartitioner.partition(&g, 4);
        let b = RcbPartitioner.partition(&g, 4);
        assert_eq!(a, b);
    }

    /// A large pseudo-random point cloud with per-vertex loads — big enough
    /// that the top bisection levels take the histogram-select path.
    fn random_cloud(n: usize) -> GeoCoL {
        let mut xs = Vec::with_capacity(n);
        let mut ys = Vec::with_capacity(n);
        let mut ws = Vec::with_capacity(n);
        let mut state = 7u64;
        let mut next = || {
            state = state
                .wrapping_mul(6364136223846793005)
                .wrapping_add(1442695040888963407);
            (state >> 11) as f64 / (1u64 << 53) as f64
        };
        for _ in 0..n {
            xs.push(next() * 100.0);
            ys.push(next() * 40.0);
            ws.push(0.5 + next());
        }
        GeoColBuilder::new(n)
            .geometry(vec![xs, ys])
            .load(ws)
            .build()
            .unwrap()
    }

    #[test]
    fn rcb_histogram_select_is_rank_count_independent() {
        // Above SORT_CUTOFF the split runs through the rank-parallel
        // histogram; the partitioning must not depend on the rank count in
        // any bit, so the pure partition() is an exact oracle for every
        // backend.
        let g = random_cloud(3 * SORT_CUTOFF);
        for nparts in [2, 4, 6] {
            let serial = RcbPartitioner.partition(&g, nparts);
            let q = PartitionQuality::evaluate(&g, &serial);
            assert!(
                q.load_imbalance <= 1.05,
                "nparts={nparts} imbalance {}",
                q.load_imbalance
            );
            for nranks in [2, 5, 16, 200] {
                let chunked =
                    RcbPartitioner.partition_with_scans(&g, nparts, &mut SerialScans { nranks });
                assert_eq!(serial, chunked, "nparts={nparts} nranks={nranks}");
            }
        }
    }

    #[test]
    fn rcb_histogram_select_matches_full_sort_balance() {
        // The histogram path replaces the full sort; both must land the
        // split at the same weighted-median balance (the sets can differ
        // only among equal-coordinate ties, which a uniform cloud has none
        // of at the top level).
        let g = random_cloud(3 * SORT_CUTOFF);
        let p = RcbPartitioner.partition(&g, 2);
        let loads = p.part_loads(&g);
        let imb = loads.iter().cloned().fold(0.0, f64::max) / (g.total_load() / 2.0);
        assert!(imb < 1.01, "histogram select imbalance {imb}");
    }

    #[test]
    fn rcb_degenerate_coordinates_fall_back_to_sort() {
        // All points coincide: zero extent on every axis must take the
        // sort path regardless of size and still split evenly.
        let n = 3 * SORT_CUTOFF;
        let g = GeoColBuilder::new(n)
            .geometry(vec![vec![1.5; n], vec![-2.0; n]])
            .build()
            .unwrap();
        let p = RcbPartitioner.partition(&g, 2);
        let sizes = p.part_sizes();
        assert_eq!(sizes.iter().sum::<usize>(), n);
        assert!(sizes.iter().all(|&s| s == n / 2), "sizes {sizes:?}");
    }
}
