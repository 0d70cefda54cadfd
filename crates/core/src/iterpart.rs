//! Loop-iteration partitioning.
//!
//! After the *data* has been partitioned (Figure 2, phase A) the loop
//! iterations must be assigned to processors (phase B). Section 4.3 of the
//! paper discusses two conventions:
//!
//! * **owner-computes** — execute a statement on the owner of its left-hand
//!   side reference. Simple, but in sparse codes it forces communication
//!   even for loop-independent dependences.
//! * **almost-owner-computes** (the paper's default) — assign the *whole
//!   iteration* to "the processor that is the home of the largest number of
//!   the iteration's distributed array references".
//!
//! The runtime implements the second, plus a block-of-iterations baseline
//! the `iter_partition` ablation bench compares it against.
//!
//! [`partition_iterations`] is the one entry point. It reads a loop's
//! references one iteration at a time as a `&[u32]` **row** and does not
//! care how the rows are stored: the lang inspector hands it strided chunks
//! of its flat reference table, the pair-loop workloads hand it
//! `Vec<[u32; 2]>`, a nested `Vec<Vec<u32>>` works too. No form needs one
//! heap allocation per iteration, so none should be built that way.

use crate::dist::Distribution;
use chaos_dmsim::Machine;

/// The iteration-assignment convention.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum IterPartitionPolicy {
    /// Assign each iteration to the processor owning the largest number of
    /// its references (ties go to the lowest processor id). The paper's
    /// default.
    AlmostOwnerComputes,
    /// Assign iteration `i` to the processor that would own index `i` under
    /// a BLOCK distribution of the iteration space — the naive baseline used
    /// before any remapping has happened.
    BlockOfIterations,
}

/// The result: which iterations each processor executes.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct IterationPartition {
    iters: Vec<Vec<u32>>,
    niters: usize,
}

impl IterationPartition {
    /// Build from per-processor iteration lists.
    pub fn new(iters: Vec<Vec<u32>>) -> Self {
        let niters = iters.iter().map(Vec::len).sum();
        IterationPartition { iters, niters }
    }

    /// Iterations executed by `proc`, in ascending order.
    pub fn iters(&self, proc: usize) -> &[u32] {
        &self.iters[proc]
    }

    /// Per-processor iteration lists.
    pub fn all(&self) -> &[Vec<u32>] {
        &self.iters
    }

    /// Total number of iterations.
    pub fn total(&self) -> usize {
        self.niters
    }

    /// Number of processors.
    pub fn nprocs(&self) -> usize {
        self.iters.len()
    }

    /// Load imbalance: max iterations per processor / mean.
    pub fn imbalance(&self) -> f64 {
        if self.niters == 0 || self.iters.is_empty() {
            return 1.0;
        }
        let max = self.iters.iter().map(Vec::len).max().unwrap_or(0) as f64;
        let mean = self.niters as f64 / self.iters.len() as f64;
        if mean > 0.0 {
            max / mean
        } else {
            1.0
        }
    }
}

/// Partition the iterations of a loop.
///
/// `iteration_refs` yields one **row** per iteration, in iteration order:
/// the global indices (into arrays aligned with `data_dist`) that iteration
/// references, as anything that reads as a `&[u32]`. The rows need not be
/// stored as rows — strided chunks of one flat table, `[u32; 2]` pairs and
/// nested `Vec`s are all the same input — they may be empty, and they may
/// differ in length. Every entry must be below `data_dist.len()`. The
/// source must know its length up front (`BlockOfIterations` sizes its
/// blocks by it) and is walked exactly once.
///
/// Placing an iteration costs its references, not `nprocs`: the vote
/// counts only the owners its row names and resets only those.
///
/// The cost of scanning the references is charged to the simulated machine:
/// in the real system this scan is distributed (each processor examines the
/// iterations whose indirection-array entries it owns), so the charge is
/// divided across processors.
pub fn partition_iterations<R>(
    machine: &mut Machine,
    data_dist: &Distribution,
    iteration_refs: R,
    policy: IterPartitionPolicy,
) -> IterationPartition
where
    R: IntoIterator,
    R::IntoIter: ExactSizeIterator,
    R::Item: AsRef<[u32]>,
{
    let nprocs = machine.nprocs();
    let rows = iteration_refs.into_iter();
    let block = rows.len().div_ceil(nprocs).max(1);
    // Each iteration's processor first, the per-processor lists second, so
    // every list is allocated once at its final size.
    let mut home: Vec<u32> = Vec::with_capacity(rows.len());
    let mut load = vec![0usize; nprocs];
    // The vote: `counts` is all zeros between rows, and `touched` lists the
    // owners the current row has named, so a row costs its references, not
    // `nprocs`.
    let mut counts = vec![0u32; nprocs];
    let mut touched: Vec<usize> = Vec::new();
    let mut total_refs = 0usize;

    for (i, row) in rows.enumerate() {
        let refs = row.as_ref();
        total_refs += refs.len();
        let target = match policy {
            IterPartitionPolicy::BlockOfIterations => (i / block).min(nprocs - 1),
            IterPartitionPolicy::AlmostOwnerComputes if refs.is_empty() => i % nprocs,
            IterPartitionPolicy::AlmostOwnerComputes => {
                for &r in refs {
                    let owner = data_dist.owner(r as usize);
                    if counts[owner] == 0 {
                        touched.push(owner);
                    }
                    counts[owner] += 1;
                }
                // The highest count wins, ties to the lowest rank.
                let mut best = touched[0];
                for &p in &touched[1..] {
                    if (counts[p], best) > (counts[best], p) {
                        best = p;
                    }
                }
                for p in touched.drain(..) {
                    counts[p] = 0;
                }
                best
            }
        };
        home.push(target as u32);
        load[target] += 1;
    }
    let mut iters: Vec<Vec<u32>> = load.iter().map(|&n| Vec::with_capacity(n)).collect();
    for (i, &p) in home.iter().enumerate() {
        iters[p as usize].push(i as u32);
    }

    // Cost: every reference of every iteration is inspected once; the scan is
    // parallel over processors.
    let per_proc = total_refs as f64 / nprocs as f64;
    for p in 0..nprocs {
        machine.charge_compute(p, per_proc);
    }

    IterationPartition::new(iters)
}

#[cfg(test)]
mod tests {
    use super::*;
    use chaos_dmsim::MachineConfig;

    /// 4 iterations referencing a block(8,2) array:
    ///   it0 -> [0,1]   both on proc 0
    ///   it1 -> [4,5]   both on proc 1
    ///   it2 -> [0,5,6] majority proc 1
    ///   it3 -> [3,4]   tie -> proc 0 (lowest id)
    fn refs() -> Vec<Vec<u32>> {
        vec![vec![0, 1], vec![4, 5], vec![0, 5, 6], vec![3, 4]]
    }

    #[test]
    fn almost_owner_computes_majority_and_ties() {
        let mut m = Machine::new(MachineConfig::unit(2));
        let d = Distribution::block(8, 2);
        let p = partition_iterations(&mut m, &d, refs(), IterPartitionPolicy::AlmostOwnerComputes);
        assert_eq!(p.iters(0), &[0, 3]);
        assert_eq!(p.iters(1), &[1, 2]);
        assert_eq!(p.total(), 4);
        assert_eq!(p.imbalance(), 1.0);
    }

    #[test]
    fn block_of_iterations_ignores_data() {
        let mut m = Machine::new(MachineConfig::unit(2));
        let d = Distribution::block(8, 2);
        let p = partition_iterations(&mut m, &d, refs(), IterPartitionPolicy::BlockOfIterations);
        assert_eq!(p.iters(0), &[0, 1]);
        assert_eq!(p.iters(1), &[2, 3]);
    }

    #[test]
    fn follows_irregular_distribution() {
        let mut m = Machine::new(MachineConfig::unit(2));
        // All referenced elements owned by proc 1.
        let map = vec![1u32; 8];
        let d = Distribution::irregular_from_map(&map, 2);
        let p = partition_iterations(&mut m, &d, refs(), IterPartitionPolicy::AlmostOwnerComputes);
        assert!(p.iters(0).is_empty());
        assert_eq!(p.iters(1).len(), 4);
        assert_eq!(p.imbalance(), 2.0);
    }

    #[test]
    fn empty_iterations_round_robin() {
        let mut m = Machine::new(MachineConfig::unit(2));
        let d = Distribution::block(8, 2);
        let p = partition_iterations(
            &mut m,
            &d,
            [[0u32; 0]; 3],
            IterPartitionPolicy::AlmostOwnerComputes,
        );
        assert_eq!(p.total(), 3);
    }

    #[test]
    fn every_row_form_gives_the_same_partition_and_charge() {
        // The same references as nested rows, as `[u32; 2]` rows and as
        // strided chunks of one flat table (width 0 included: a loop whose
        // rows are empty still has iterations to place).
        let d = Distribution::block(8, 2);
        for width in [2usize, 0] {
            let pairs: Vec<[u32; 2]> = vec![[0, 1], [4, 5], [6, 0], [3, 4], [7, 7]];
            let nested: Vec<Vec<u32>> = pairs.iter().map(|r| r[..width].to_vec()).collect();
            let flat: Vec<u32> = nested.concat();
            let strided = || (0..pairs.len()).map(|i| &flat[i * width..(i + 1) * width]);
            for policy in [
                IterPartitionPolicy::AlmostOwnerComputes,
                IterPartitionPolicy::BlockOfIterations,
            ] {
                let run = |m: &mut Machine, form: usize| match form {
                    0 => partition_iterations(m, &d, &nested, policy),
                    1 => partition_iterations(m, &d, strided(), policy),
                    _ => partition_iterations(m, &d, &pairs, policy),
                };
                // `[u32; 2]` rows can only spell the width-2 case.
                let forms = if width == 2 { 3 } else { 2 };
                let mut reference = Machine::new(MachineConfig::unit(2));
                let expected = run(&mut reference, 0);
                assert_eq!(expected.total(), pairs.len());
                for form in 1..forms {
                    let mut m = Machine::new(MachineConfig::unit(2));
                    assert_eq!(run(&mut m, form), expected, "{policy:?} form {form}");
                    for p in 0..2 {
                        assert_eq!(
                            m.elapsed().per_proc[p].to_bits(),
                            reference.elapsed().per_proc[p].to_bits(),
                            "{policy:?} form {form}: charge on rank {p}"
                        );
                    }
                }
            }
        }
    }

    /// The vote as first written, kept as the oracle of the one above:
    /// zero an `nprocs`-wide count per row and take `max_by_key` over all
    /// of it, then charge the scan the same way.
    fn nprocs_wide_vote(
        m: &mut Machine,
        d: &Distribution,
        rows: &[Vec<u32>],
    ) -> IterationPartition {
        let nprocs = m.nprocs();
        let mut iters = vec![Vec::new(); nprocs];
        let mut counts = vec![0usize; nprocs];
        for (i, refs) in rows.iter().enumerate() {
            let target = if refs.is_empty() {
                i % nprocs
            } else {
                counts.iter_mut().for_each(|c| *c = 0);
                for &r in refs {
                    counts[d.owner(r as usize)] += 1;
                }
                let best = counts
                    .iter()
                    .enumerate()
                    .max_by_key(|&(p, &c)| (c, std::cmp::Reverse(p)));
                best.map(|(p, _)| p).unwrap_or(0)
            };
            iters[target].push(i as u32);
        }
        let total_refs: usize = rows.iter().map(Vec::len).sum();
        for p in 0..nprocs {
            m.charge_compute(p, total_refs as f64 / nprocs as f64);
        }
        IterationPartition::new(iters)
    }

    #[test]
    fn placement_matches_the_nprocs_wide_vote() {
        // Seeded rows of width 0..=9 (duplicates and rows wider than
        // `nprocs` included), every third row a forced tie among up to four
        // owners, over BLOCK, CYCLIC and irregular data on 1..=64 ranks.
        let mut state = 0x9E37_79B9_7F4A_7C15u64;
        let mut next = |m: usize| -> usize {
            state ^= state << 13;
            state ^= state >> 7;
            state ^= state << 17;
            (state % m as u64) as usize
        };
        let n = 50;
        for nprocs in 1..=64 {
            let map: Vec<u32> = (0..n).map(|_| next(nprocs) as u32).collect();
            for d in [
                Distribution::block(n, nprocs),
                Distribution::cyclic(n, nprocs),
                Distribution::irregular_from_map(&map, nprocs),
            ] {
                let owned: Vec<Vec<usize>> = (0..nprocs).map(|p| d.owned_globals(p)).collect();
                let rows: Vec<Vec<u32>> = (0..120)
                    .map(|i| {
                        if i % 3 != 0 {
                            let width = next(10);
                            return (0..width).map(|_| next(n) as u32).collect();
                        }
                        let copies = 1 + next(2);
                        let mut row = Vec::new();
                        for _ in 0..2 + next(3) {
                            let mine = &owned[next(nprocs)];
                            if !mine.is_empty() && !row.contains(&(mine[0] as u32)) {
                                row.extend(std::iter::repeat_n(mine[0] as u32, copies));
                            }
                        }
                        row
                    })
                    .collect();
                let mut oracle = Machine::new(MachineConfig::unit(nprocs));
                let expected = nprocs_wide_vote(&mut oracle, &d, &rows);
                let mut m = Machine::new(MachineConfig::unit(nprocs));
                let policy = IterPartitionPolicy::AlmostOwnerComputes;
                let got = partition_iterations(&mut m, &d, &rows, policy);
                let what = format!("{} on {nprocs} ranks", d.kind_name());
                assert_eq!(got, expected, "{what}");
                for p in 0..nprocs {
                    let (a, b) = (m.elapsed().per_proc[p], oracle.elapsed().per_proc[p]);
                    assert_eq!(a.to_bits(), b.to_bits(), "{what}: charge on rank {p}");
                }
            }
        }
    }

    #[test]
    fn charges_scan_cost() {
        let mut m = Machine::new(MachineConfig::unit(2));
        let d = Distribution::block(8, 2);
        let _ = partition_iterations(&mut m, &d, refs(), IterPartitionPolicy::AlmostOwnerComputes);
        assert!(m.elapsed().max_compute_seconds() > 0.0);
    }

    #[test]
    fn imbalance_of_empty_partition_is_one() {
        let p = IterationPartition::new(vec![Vec::new(), Vec::new()]);
        assert_eq!(p.imbalance(), 1.0);
        assert_eq!(p.nprocs(), 2);
    }
}
