//! Kernighan–Lin / Fiduccia–Mattheyses-style refinement of an existing
//! partitioning.
//!
//! The paper's partitioner bibliography includes Kernighan & Lin's heuristic
//! (reference \[15\]); production mesh partitioners of the period (and METIS
//! later) run a KL/FM refinement pass after every bisection. This module
//! provides that pass as a standalone operation ([`refine`]) and as a
//! wrapper partitioner ([`KlRefinedPartitioner`]) so any base partitioner
//! from the library can be combined with boundary refinement — an ablation
//! the `partitioners` bench exercises.
//!
//! The implementation is the multi-way FM variant: repeatedly move the
//! boundary vertex with the highest cut-reduction *gain* to its best
//! neighbouring part, subject to a load-balance tolerance, locking each
//! vertex after it moves; keep the best configuration seen during the pass;
//! stop after a bounded number of passes or when a pass yields no
//! improvement.

use crate::geocol::GeoCoL;
use crate::partition::{Partitioner, Partitioning};

/// Options controlling the refinement pass.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct KlOptions {
    /// Maximum number of full passes over the boundary.
    pub max_passes: usize,
    /// Maximum allowed load imbalance (max part load / average part load)
    /// after any accepted move.
    pub balance_tolerance: f64,
    /// Upper bound on moves per pass, as a fraction of the vertex count
    /// (1.0 = every vertex may move once per pass).
    pub move_fraction: f64,
}

impl Default for KlOptions {
    fn default() -> Self {
        KlOptions {
            max_passes: 4,
            balance_tolerance: 1.05,
            move_fraction: 0.25,
        }
    }
}

/// Refine `partitioning` in place-style (a new partitioning is returned) by
/// gain-based boundary moves. The result never has a worse edge cut than the
/// input and respects the balance tolerance relative to the *input*'s
/// average load.
pub fn refine(geocol: &GeoCoL, partitioning: &Partitioning, options: KlOptions) -> Partitioning {
    let n = geocol.nvertices();
    let nparts = partitioning.nparts();
    if n == 0 || nparts < 2 || !geocol.has_connectivity() {
        return partitioning.clone();
    }

    let mut owners: Vec<u32> = partitioning.owners().to_vec();
    let mut part_loads = partitioning.part_loads(geocol);
    let total_load: f64 = part_loads.iter().sum();
    let mean_load = total_load / nparts as f64;
    let max_load = mean_load * options.balance_tolerance;

    let mut best_owners = owners.clone();
    let mut best_cut = edge_cut(geocol, &owners);
    let max_moves_per_pass = ((n as f64 * options.move_fraction) as usize).max(1);

    for _pass in 0..options.max_passes {
        let mut locked = vec![false; n];
        let mut improved_this_pass = false;
        let mut current_cut = edge_cut(geocol, &owners);

        for _move in 0..max_moves_per_pass {
            // Find the unlocked boundary vertex with the best admissible gain.
            let mut best: Option<(usize, usize, i64)> = None; // (vertex, dest, gain)
            for v in 0..n {
                if locked[v] {
                    continue;
                }
                let home = owners[v] as usize;
                // Count neighbour parts.
                let mut counts = vec![0i64; nparts];
                let mut is_boundary = false;
                for &u in geocol.neighbors(v) {
                    let pu = owners[u as usize] as usize;
                    counts[pu] += 1;
                    if pu != home {
                        is_boundary = true;
                    }
                }
                if !is_boundary {
                    continue;
                }
                let load_v = geocol.vertex_load(v);
                for (dest, &cnt) in counts.iter().enumerate() {
                    if dest == home {
                        continue;
                    }
                    if part_loads[dest] + load_v > max_load {
                        continue;
                    }
                    // Moving v from home to dest changes the cut by
                    // (edges to home) - (edges to dest).
                    let gain = cnt - counts[home];
                    match best {
                        Some((_, _, g)) if g >= gain => {}
                        _ => best = Some((v, dest, gain)),
                    }
                }
            }
            let Some((v, dest, gain)) = best else { break };
            if gain < 0 {
                // Classic KL allows temporarily negative moves; a single
                // negative step rarely pays off for the mesh-like graphs here
                // and keeping the invariant "never worse than input" simple
                // is more valuable, so stop the pass instead.
                break;
            }
            let home = owners[v] as usize;
            let load_v = geocol.vertex_load(v);
            owners[v] = dest as u32;
            part_loads[home] -= load_v;
            part_loads[dest] += load_v;
            locked[v] = true;
            current_cut = (current_cut as i64 - gain) as usize;
            if current_cut < best_cut {
                best_cut = current_cut;
                best_owners.copy_from_slice(&owners);
                improved_this_pass = true;
            }
        }

        // Restart the next pass from the best configuration found so far.
        owners.copy_from_slice(&best_owners);
        part_loads = Partitioning::new(owners.clone(), nparts).part_loads(geocol);
        if !improved_this_pass {
            break;
        }
    }

    Partitioning::new(best_owners, nparts)
}

fn edge_cut(geocol: &GeoCoL, owners: &[u32]) -> usize {
    geocol
        .edges()
        .iter()
        .filter(|&&(a, b)| owners[a as usize] != owners[b as usize])
        .count()
}

/// A partitioner that runs a base partitioner and then a KL/FM refinement
/// pass over its output.
#[derive(Debug, Clone)]
pub struct KlRefinedPartitioner<P> {
    /// The partitioner producing the initial assignment.
    pub base: P,
    /// Refinement options.
    pub options: KlOptions,
}

impl<P: Partitioner> KlRefinedPartitioner<P> {
    /// Wrap `base` with default refinement options.
    pub fn new(base: P) -> Self {
        KlRefinedPartitioner {
            base,
            options: KlOptions::default(),
        }
    }
}

impl<P: Partitioner> Partitioner for KlRefinedPartitioner<P> {
    fn name(&self) -> &'static str {
        // A static name is required by the trait; the wrapper reports the
        // refinement, the base's identity is visible through its cost and
        // behaviour (and through the registry aliases such as "RSB-KL").
        "KL-REFINED"
    }

    /// Forward the scans to the base partitioner — `RSB-KL`/`RCB-KL` run
    /// the base's rank-parallel passes like the unwrapped partitioner
    /// would; only the refinement pass itself stays driver-side (its cost
    /// is the `refine_cost` share of [`Partitioner::cost_estimate`]).
    fn partition_with_scans(
        &self,
        geocol: &GeoCoL,
        nparts: usize,
        scans: &mut dyn crate::partition::RankScans,
    ) -> Partitioning {
        let initial = self.base.partition_with_scans(geocol, nparts, scans);
        refine(geocol, &initial, self.options)
    }

    fn cost_estimate(&self, geocol: &GeoCoL, nparts: usize) -> f64 {
        // Refinement: each pass scans boundary vertices and their edges.
        let refine_cost = self.options.max_passes as f64
            * (geocol.nvertices() as f64 + 2.0 * geocol.nedges() as f64);
        self.base.cost_estimate(geocol, nparts) + refine_cost
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::block::BlockPartitioner;
    use crate::geocol::GeoColBuilder;
    use crate::metrics::PartitionQuality;
    use crate::rcb::RcbPartitioner;

    /// The quality of `partitioning` before and after refinement.
    fn refinement_effect(
        geocol: &GeoCoL,
        partitioning: &Partitioning,
        options: KlOptions,
    ) -> (PartitionQuality, PartitionQuality) {
        let before = PartitionQuality::evaluate(geocol, partitioning);
        let after = PartitionQuality::evaluate(geocol, &refine(geocol, partitioning, options));
        (before, after)
    }

    /// 2-D grid with vertices shuffled so BLOCK produces a terrible cut.
    fn shuffled_grid(side: usize) -> GeoCoL {
        let n = side * side;
        let mut perm: Vec<usize> = (0..n).collect();
        let mut state = 41u64;
        for i in (1..n).rev() {
            state = state.wrapping_mul(6364136223846793005).wrapping_add(1);
            let j = (state >> 33) as usize % (i + 1);
            perm.swap(i, j);
        }
        let mut xs = vec![0.0; n];
        let mut ys = vec![0.0; n];
        let mut e1 = Vec::new();
        let mut e2 = Vec::new();
        for r in 0..side {
            for c in 0..side {
                let v = r * side + c;
                xs[perm[v]] = c as f64;
                ys[perm[v]] = r as f64;
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
        GeoColBuilder::new(n)
            .geometry(vec![xs, ys])
            .link(e1, e2)
            .build()
            .unwrap()
    }

    #[test]
    fn refinement_never_worsens_the_cut() {
        let g = shuffled_grid(12);
        for nparts in [2, 4, 7] {
            let initial = BlockPartitioner.partition(&g, nparts);
            let (before, after) = refinement_effect(&g, &initial, KlOptions::default());
            assert!(
                after.edge_cut <= before.edge_cut,
                "nparts={nparts}: cut went from {} to {}",
                before.edge_cut,
                after.edge_cut
            );
            assert!(after.load_imbalance <= KlOptions::default().balance_tolerance + 1e-9);
        }
    }

    #[test]
    fn refinement_substantially_improves_a_bad_partitioning() {
        let g = shuffled_grid(14);
        let initial = BlockPartitioner.partition(&g, 4);
        let before = PartitionQuality::evaluate(&g, &initial).edge_cut;
        let refined = refine(
            &g,
            &initial,
            KlOptions {
                max_passes: 8,
                move_fraction: 1.0,
                ..Default::default()
            },
        );
        let after = PartitionQuality::evaluate(&g, &refined).edge_cut;
        assert!(
            (after as f64) < 0.8 * before as f64,
            "expected a >20% cut reduction, got {before} -> {after}"
        );
    }

    #[test]
    fn refinement_preserves_vertex_coverage() {
        let g = shuffled_grid(10);
        let refined = KlRefinedPartitioner::new(BlockPartitioner).partition(&g, 4);
        assert_eq!(refined.len(), g.nvertices());
        assert_eq!(refined.part_sizes().iter().sum::<usize>(), g.nvertices());
    }

    #[test]
    fn refining_a_good_partitioning_is_a_cheap_no_op_or_better() {
        let g = shuffled_grid(12);
        let initial = RcbPartitioner.partition(&g, 4);
        let (before, after) = refinement_effect(&g, &initial, KlOptions::default());
        assert!(after.edge_cut <= before.edge_cut);
    }

    #[test]
    fn wrapper_cost_includes_base_and_refinement() {
        let g = shuffled_grid(8);
        let wrapped = KlRefinedPartitioner::new(RcbPartitioner);
        assert!(wrapped.cost_estimate(&g, 4) > RcbPartitioner.cost_estimate(&g, 4));
        assert_eq!(wrapped.name(), "KL-REFINED");
    }

    #[test]
    fn wrapper_forwards_scans_to_the_base_partitioner() {
        // RSB-KL must run the base's rank-parallel scans: chunking them
        // over any rank count cannot change a bit of the result (the
        // refinement pass is driver-side and deterministic either way).
        use crate::partition::SerialScans;
        use crate::rsb::RsbPartitioner;
        let g = shuffled_grid(10);
        let wrapped = KlRefinedPartitioner::new(RsbPartitioner {
            max_steps: 30,
            ..Default::default()
        });
        let serial = wrapped.partition(&g, 4);
        for nranks in [3, 8] {
            let chunked = wrapped.partition_with_scans(&g, 4, &mut SerialScans { nranks });
            assert_eq!(serial, chunked, "nranks={nranks}");
        }
    }

    #[test]
    fn degenerate_inputs_are_returned_unchanged() {
        let g = GeoColBuilder::new(4).load(vec![1.0; 4]).build().unwrap(); // no edges
        let p = Partitioning::new(vec![0, 1, 0, 1], 2);
        assert_eq!(refine(&g, &p, KlOptions::default()), p);
        let single = Partitioning::new(vec![0; 4], 1);
        assert_eq!(refine(&g, &single, KlOptions::default()), single);
    }
}
