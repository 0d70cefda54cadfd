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
//! [`partition_iterations`] reads a loop's references one iteration at a
//! time as a `&[u32]` **row** and does not care how the rows are stored: the
//! lang inspector hands it strided chunks of its flat reference table, the
//! pair-loop workloads hand it `Vec<[u32; 2]>`, a nested `Vec<Vec<u32>>`
//! works too. No form needs one heap allocation per iteration, so none
//! should be built that way.
//!
//! [`partition_iterations_weighted`] is the same vote over rows whose entry
//! `j` stands for `weights[j]` references: a table that stores one column
//! per distinct index expression (`x(e1(i))` and `y(e1(i))` read one value)
//! votes exactly as the rows with each column repeated once per reference
//! would. [`partition_iterations`] is its unit-weight case; both run one
//! implementation.
//!
//! The vote resolves the distribution's variant once per call, not once
//! per reference, and a weighted row of one to four entries votes through
//! a kernel of that width fixed at compile time (every paper loop's
//! distinct-expression row is one or two entries wide): its owners and
//! weights sit in registers and the winner is found by comparing them
//! pairwise. A wider row, and every unit-weight row, counts into an
//! `nprocs`-wide array that is all zeros between rows and zeroes only the
//! owners it named, so either way a row costs its references, not
//! `nprocs`.

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
/// Placing an iteration costs its references, not `nprocs` (see the
/// [module docs](self)). It is [`partition_iterations_weighted`] with every
/// entry weighing one reference.
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
    place(machine, data_dist, iteration_refs, Weights::Unit, policy)
}

/// [`partition_iterations`] over rows whose entry `j` stands for
/// `weights[j]` references: every row has `weights.len()` entries, and the
/// vote, the tie rule and the charge are those of the rows with entry `j`
/// repeated `weights[j]` times. So a reference table that keeps one column
/// per distinct index expression places iterations exactly as one that
/// keeps a column per reference, for the cost of its distinct ones.
///
/// # Panics
///
/// If a weight is 0 or a row's length is not `weights.len()`.
pub fn partition_iterations_weighted<R>(
    machine: &mut Machine,
    data_dist: &Distribution,
    iteration_refs: R,
    weights: &[u32],
    policy: IterPartitionPolicy,
) -> IterationPartition
where
    R: IntoIterator,
    R::IntoIter: ExactSizeIterator,
    R::Item: AsRef<[u32]>,
{
    assert!(
        weights.iter().all(|&w| w > 0),
        "every column weighs at least one reference"
    );
    place(
        machine,
        data_dist,
        iteration_refs,
        Weights::Columns(weights),
        policy,
    )
}

/// How many references each entry of a row stands for.
#[derive(Clone, Copy)]
enum Weights<'a> {
    /// One each: rows of any length.
    Unit,
    /// `weights[j]` for entry `j`: every row is `weights.len()` wide.
    Columns(&'a [u32]),
}

/// The one implementation behind both entry points: the owner lookup is
/// resolved to one closure per distribution variant here, so the row loop
/// is compiled once per variant and never matches on it.
fn place<R>(
    machine: &mut Machine,
    data_dist: &Distribution,
    iteration_refs: R,
    weights: Weights<'_>,
    policy: IterPartitionPolicy,
) -> IterationPartition
where
    R: IntoIterator,
    R::IntoIter: ExactSizeIterator,
    R::Item: AsRef<[u32]>,
{
    let nprocs = machine.nprocs();
    let rows = iteration_refs.into_iter();
    let (home, load, total_refs) = match (policy, data_dist) {
        (IterPartitionPolicy::BlockOfIterations, _) => {
            let block = rows.len().div_ceil(nprocs).max(1);
            let width = |i: usize, refs: &[u32]| match weights {
                Weights::Unit => refs.len(),
                Weights::Columns(w) => {
                    assert_eq!(refs.len(), w.len(), "row {i} is not one entry per weight");
                    w.iter().map(|&w| w as usize).sum()
                }
            };
            homes(nprocs, rows, |i, refs| {
                ((i / block).min(nprocs - 1), width(i, refs))
            })
        }
        // The per-variant lookups keep `Distribution::owner`'s range check
        // (debug builds only, as there).
        (IterPartitionPolicy::AlmostOwnerComputes, Distribution::Block { n, p }) => {
            let (b, last) = (Distribution::block_size(*n, *p), p - 1);
            vote_rows(nprocs, rows, weights, |g| {
                debug_assert!((g as usize) < *n, "global index {g} out of range");
                (g as usize / b).min(last)
            })
        }
        (IterPartitionPolicy::AlmostOwnerComputes, Distribution::Cyclic { n, p }) => {
            vote_rows(nprocs, rows, weights, |g| {
                debug_assert!((g as usize) < *n, "global index {g} out of range");
                g as usize % p
            })
        }
        (IterPartitionPolicy::AlmostOwnerComputes, Distribution::Irregular { table }) => {
            vote_rows(nprocs, rows, weights, |g| table.owner(g as usize))
        }
    };
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

/// Each iteration's processor first, the per-processor lists second, so
/// every list is allocated once at its final size: `target(i, row)` gives
/// iteration `i`'s processor and the references its row stands for. Returns
/// the homes, the per-processor loads and the total references.
#[inline(always)]
fn homes<R>(
    nprocs: usize,
    rows: R,
    mut target: impl FnMut(usize, &[u32]) -> (usize, usize),
) -> (Vec<u32>, Vec<usize>, usize)
where
    R: ExactSizeIterator,
    R::Item: AsRef<[u32]>,
{
    let mut home: Vec<u32> = Vec::with_capacity(rows.len());
    let mut load = vec![0usize; nprocs];
    let mut total_refs = 0usize;
    for (i, row) in rows.enumerate() {
        let (p, refs) = target(i, row.as_ref());
        home.push(p as u32);
        load[p] += 1;
        total_refs += refs;
    }
    (home, load, total_refs)
}

/// The almost-owner-computes vote over every row, with `owner` the
/// distribution's lookup. Weighted rows of one to four entries vote
/// through a kernel of that width, fixed at compile time and dispatched
/// once per call; wider weighted rows and unit-weight rows, which may
/// differ in length, go to [`Tally::vote`]. An empty row goes round-robin.
#[inline(always)]
fn vote_rows<R>(
    nprocs: usize,
    rows: R,
    weights: Weights<'_>,
    owner: impl Fn(u32) -> usize,
) -> (Vec<u32>, Vec<usize>, usize)
where
    R: ExactSizeIterator,
    R::Item: AsRef<[u32]>,
{
    let o = &owner;
    match weights {
        Weights::Columns(&[a]) => fixed_rows(nprocs, rows, [a], o),
        Weights::Columns(&[a, b]) => fixed_rows(nprocs, rows, [a, b], o),
        Weights::Columns(&[a, b, c]) => fixed_rows(nprocs, rows, [a, b, c], o),
        Weights::Columns(&[a, b, c, d]) => fixed_rows(nprocs, rows, [a, b, c, d], o),
        Weights::Columns(w) => {
            let mut tally = Tally::new(nprocs);
            homes(nprocs, rows, |i, refs| {
                assert_eq!(refs.len(), w.len(), "row {i} is not one entry per weight");
                match refs {
                    [] => (i % nprocs, 0),
                    _ => tally.vote(refs, o, Some(w)),
                }
            })
        }
        Weights::Unit => {
            let mut tally = Tally::new(nprocs);
            homes(nprocs, rows, |i, refs| match refs {
                [] => (i % nprocs, 0),
                _ => tally.vote(refs, o, None),
            })
        }
    }
}

/// The vote over rows of exactly `N` entries, entry `j` weighing
/// `weights[j]`.
#[inline(always)]
fn fixed_rows<const N: usize, R>(
    nprocs: usize,
    rows: R,
    weights: [u32; N],
    owner: impl Fn(u32) -> usize,
) -> (Vec<u32>, Vec<usize>, usize)
where
    R: ExactSizeIterator,
    R::Item: AsRef<[u32]>,
{
    let refs_per_row = weights.iter().map(|&w| w as usize).sum();
    homes(nprocs, rows, |i, refs| {
        let Ok(refs) = <&[u32; N]>::try_from(refs) else {
            panic!("row {i} is not one entry per weight");
        };
        (fixed_vote(refs.map(&owner), weights), refs_per_row)
    })
}

/// The vote of a row of `N` entries owned by `owners`, entry `j` weighing
/// `weights[j]`: the owner whose entries weigh the most, ties to the lowest
/// rank. Each owner's weight is summed over the entries that share it, so
/// a repeated owner is counted once per entry, as the wide tally counts
/// it.
#[inline(always)]
fn fixed_vote<const N: usize>(owners: [usize; N], weights: [u32; N]) -> usize {
    let (mut best, mut best_weight) = (owners[0], 0u32);
    for j in 0..N {
        let mut weight = 0;
        for k in 0..N {
            weight += weights[k] * u32::from(owners[k] == owners[j]);
        }
        if weight > best_weight || (weight == best_weight && owners[j] < best) {
            (best, best_weight) = (owners[j], weight);
        }
    }
    best
}

/// The vote of a unit-weight row, or of a weighted one wider than the
/// fixed kernels: `counts` is all zeros between rows, and `touched` lists
/// the owners the current row has named, so a row costs its references,
/// not `nprocs`.
struct Tally {
    counts: Vec<u32>,
    touched: Vec<usize>,
}

impl Tally {
    fn new(nprocs: usize) -> Self {
        Tally {
            counts: vec![0; nprocs],
            touched: Vec::new(),
        }
    }

    /// The winner of `refs` (ties to the lowest rank) and the references
    /// the row stands for: entry `j` weighs `weights[j]`, or 1 without
    /// weights.
    fn vote(
        &mut self,
        refs: &[u32],
        owner: impl Fn(u32) -> usize,
        weights: Option<&[u32]>,
    ) -> (usize, usize) {
        let mut total = 0usize;
        for (j, &r) in refs.iter().enumerate() {
            let (p, w) = (owner(r), weights.map_or(1, |w| w[j]));
            if self.counts[p] == 0 {
                self.touched.push(p);
            }
            self.counts[p] += w;
            total += w as usize;
        }
        // The highest count wins, ties to the lowest rank.
        let mut best = self.touched[0];
        for &p in &self.touched[1..] {
            if (self.counts[p], best) > (self.counts[best], p) {
                best = p;
            }
        }
        for p in self.touched.drain(..) {
            self.counts[p] = 0;
        }
        (best, total)
    }
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
                let owned: Vec<Vec<usize>> = (0..nprocs)
                    .map(|p| (0..n).filter(|&g| d.owner(g) == p).collect())
                    .collect();
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
    fn the_weighted_vote_is_the_vote_of_the_repeated_columns() {
        // Rows of width 0..=6 (so every fixed-width kernel and the wide
        // tally), weights 1..=3, over BLOCK, CYCLIC and irregular data on
        // 1..=12 ranks: the weighted call must give the partition and the
        // clocks of the unit-weight call on rows with column `j` repeated
        // `w[j]` times.
        let mut state = 0x2545_F491_4F6C_DD1Du64;
        let mut next = |m: usize| -> usize {
            state ^= state << 13;
            state ^= state >> 7;
            state ^= state << 17;
            (state % m as u64) as usize
        };
        let n = 40;
        for nprocs in 1..=12 {
            let map: Vec<u32> = (0..n).map(|_| next(nprocs) as u32).collect();
            for d in [
                Distribution::block(n, nprocs),
                Distribution::cyclic(n, nprocs),
                Distribution::irregular_from_map(&map, nprocs),
            ] {
                for width in 0..=6 {
                    let weights: Vec<u32> = (0..width).map(|_| 1 + next(3) as u32).collect();
                    let rows: Vec<Vec<u32>> = (0..60)
                        .map(|_| (0..width).map(|_| next(n) as u32).collect())
                        .collect();
                    let repeated: Vec<Vec<u32>> = rows
                        .iter()
                        .map(|row| {
                            let copies = row.iter().zip(&weights);
                            copies
                                .flat_map(|(&g, &w)| std::iter::repeat_n(g, w as usize))
                                .collect()
                        })
                        .collect();
                    for policy in [
                        IterPartitionPolicy::AlmostOwnerComputes,
                        IterPartitionPolicy::BlockOfIterations,
                    ] {
                        let mut unit = Machine::new(MachineConfig::unit(nprocs));
                        let expected = partition_iterations(&mut unit, &d, &repeated, policy);
                        let mut m = Machine::new(MachineConfig::unit(nprocs));
                        let got =
                            partition_iterations_weighted(&mut m, &d, &rows, &weights, policy);
                        let what = format!(
                            "{} on {nprocs} ranks, weights {weights:?}, {policy:?}",
                            d.kind_name()
                        );
                        assert_eq!(got, expected, "{what}");
                        for p in 0..nprocs {
                            let (a, b) = (m.elapsed().per_proc[p], unit.elapsed().per_proc[p]);
                            assert_eq!(a.to_bits(), b.to_bits(), "{what}: charge on rank {p}");
                        }
                    }
                }
            }
        }
    }

    #[test]
    fn a_weighted_tie_goes_to_the_lowest_rank() {
        // block(8, 4): globals 6 and 7 on rank 3, 2 and 3 on rank 1, 0 on
        // rank 0. Each row is placed alone; its home is the rank that got
        // iteration 0.
        let d = Distribution::block(8, 4);
        let home = |row: &[u32], weights: &[u32]| {
            let mut m = Machine::new(MachineConfig::unit(4));
            let policy = IterPartitionPolicy::AlmostOwnerComputes;
            let part = partition_iterations_weighted(&mut m, &d, [row], weights, policy);
            (0..4).find(|&p| part.iters(p) == [0])
        };
        // Width 3: rank 3 and rank 1 weigh two references each, whichever
        // the row names first, and the tie goes to rank 1; a heavier
        // column breaks it.
        assert_eq!(home(&[6, 2, 3], &[2, 1, 1]), Some(1));
        assert_eq!(home(&[2, 6, 7], &[2, 1, 1]), Some(1));
        assert_eq!(home(&[7, 6, 2], &[2, 1, 1]), Some(3));
        // Width 4 and the wide tally break their ties the same way.
        assert_eq!(home(&[6, 7, 2, 3], &[1; 4]), Some(1));
        assert_eq!(home(&[6, 7, 0, 2, 3], &[1; 5]), Some(1));
        assert_eq!(home(&[6, 7, 0, 2, 3], &[3, 1, 1, 1, 1]), Some(3));
        // A three-way tie goes to the lowest of the three.
        assert_eq!(home(&[6, 7, 0, 2, 3], &[1, 1, 2, 1, 1]), Some(0));
    }

    #[test]
    #[should_panic(expected = "row 1 is not one entry per weight")]
    fn a_block_of_iterations_checks_the_row_width_too() {
        let mut m = Machine::new(MachineConfig::unit(2));
        let d = Distribution::block(8, 2);
        let rows = [vec![0u32, 1], vec![2]];
        let policy = IterPartitionPolicy::BlockOfIterations;
        partition_iterations_weighted(&mut m, &d, &rows, &[1, 1], policy);
    }

    #[test]
    #[cfg(debug_assertions)]
    #[should_panic(expected = "global index 8 out of range")]
    fn a_block_vote_range_checks_its_references_in_debug_builds() {
        let mut m = Machine::new(MachineConfig::unit(2));
        let d = Distribution::block(8, 2);
        let policy = IterPartitionPolicy::AlmostOwnerComputes;
        partition_iterations_weighted(&mut m, &d, [[8u32, 1]], &[1, 1], policy);
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
