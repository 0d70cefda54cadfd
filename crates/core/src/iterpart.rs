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
//! pair-loop workloads hand it `Vec<[u32; 2]>`, a nested `Vec<Vec<u32>>`
//! works too. No form needs one heap allocation per iteration, so none
//! should be built that way. Each row counts into an `nprocs`-wide array
//! that is all zeros between rows and zeroes only the owners it named, so
//! a row costs its references, not `nprocs`.
//!
//! [`place_and_locate`] is the inspector's own entry point: one walk over
//! a loop's columns (the indirection arrays, made 0-based, and the loop
//! variable), each standing for `weights[j]` references, looks each
//! reference up once as a packed `owner << 32 | offset` key, votes the
//! owners — through a kernel of the row's width fixed at compile time for
//! one to four columns, its winner found by comparing them pairwise — and
//! localizes them in the home rank's row as it goes: an owned reference is
//! written as its offset, an off-processor one as a placeholder beside a
//! pending `(key, position)` entry and a count against its owner, so the
//! dedup reads only those. A BLOCK owner and a translation-table page are
//! found by one multiply by a precomputed reciprocal of the block size,
//! not by a division per reference.

use crate::dist::{block_key, cyclic_key, Distribution};
use crate::inspector::{LocalizeScratch, Located};
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
/// stored as rows — `[u32; 2]` pairs and nested `Vec`s are the same input —
/// they may be empty, and they may differ in length. Every entry must be
/// below `data_dist.len()`. The source must know its length up front
/// (`BlockOfIterations` sizes its blocks by it) and is walked exactly once.
///
/// Placing an iteration costs its references, not `nprocs` (see the
/// [module docs](self)).
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
    // The owner lookup is resolved to one closure per distribution variant
    // here, so the row loop is compiled once per variant and never matches
    // on it. The per-variant lookups keep `Distribution::owner`'s range
    // check (debug builds only, as there).
    let (home, load, total_refs) = match (policy, data_dist) {
        (IterPartitionPolicy::BlockOfIterations, _) => {
            let block = rows.len().div_ceil(nprocs).max(1);
            homes(nprocs, rows, |i, refs| {
                ((i / block).min(nprocs - 1), refs.len())
            })
        }
        (IterPartitionPolicy::AlmostOwnerComputes, Distribution::Block { n, p }) => {
            let (b, last) = (Distribution::block_size(*n, *p), p - 1);
            vote_rows(nprocs, rows, |g| {
                debug_assert!((g as usize) < *n, "global index {g} out of range");
                (g as usize / b).min(last)
            })
        }
        (IterPartitionPolicy::AlmostOwnerComputes, Distribution::Cyclic { n, p }) => {
            vote_rows(nprocs, rows, |g| {
                debug_assert!((g as usize) < *n, "global index {g} out of range");
                g as usize % p
            })
        }
        (IterPartitionPolicy::AlmostOwnerComputes, Distribution::Irregular { table }) => {
            vote_rows(nprocs, rows, |g| table.owner(g as usize))
        }
    };
    let mut iters: Vec<Vec<u32>> = load.iter().map(|&n| Vec::with_capacity(n)).collect();
    for (i, &p) in home.iter().enumerate() {
        iters[p as usize].push(i as u32);
    }
    charge_scan(machine, total_refs);
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

/// The almost-owner-computes vote over every row through [`Tally::vote`],
/// with `owner` the distribution's lookup. An empty row goes round-robin.
#[inline(always)]
fn vote_rows<R>(
    nprocs: usize,
    rows: R,
    owner: impl Fn(u32) -> usize,
) -> (Vec<u32>, Vec<usize>, usize)
where
    R: ExactSizeIterator,
    R::Item: AsRef<[u32]>,
{
    let mut tally = Tally::new(nprocs);
    homes(nprocs, rows, |i, refs| match refs {
        [] => (i % nprocs, 0),
        _ => tally.vote(refs, &owner, None),
    })
}

/// The placement scan's charge: every reference of every iteration is
/// inspected once, and the scan is parallel over processors.
fn charge_scan(machine: &mut Machine, total_refs: usize) {
    let nprocs = machine.nprocs();
    let per_proc = total_refs as f64 / nprocs as f64;
    for p in 0..nprocs {
        machine.charge_compute(p, per_proc);
    }
}

/// One column of a loop's references over its iterations, as
/// [`place_and_locate`] reads it: iteration `it0` (0-based) references
/// global `at(it0)`.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum RefColumn<'a> {
    /// One 0-based global per iteration: an indirection array's entries
    /// over the loop range, made 0-based.
    Globals(&'a [u32]),
    /// The loop variable: iteration `it0` references `first + it0`.
    LoopVar {
        /// The global of iteration 0.
        first: u32,
    },
}

impl RefColumn<'_> {
    #[inline(always)]
    fn at(self, it0: usize) -> u32 {
        match self {
            RefColumn::Globals(globals) => globals[it0],
            RefColumn::LoopVar { first } => first + it0 as u32,
        }
    }
}

/// Place a loop's iterations almost-owner-computes over `dist` and
/// localize the placing group's references in the same walk (see the
/// [module docs](self)). `columns` are that group's columns over `niters`
/// iterations, in its localized row's order; column `j` stands for
/// `weights[j]` references in the vote (0 for the loop variable beside
/// indirect columns). Every global must be below `dist.len()`.
///
/// Placement and the scan's charge are those of [`partition_iterations`]
/// over the rows with column `j` repeated `weights[j]` times. The
/// translation's charge travels with the [`Located`] rows (whose pending
/// lists are `scratch`'s) to
/// [`Inspector::localize_located`](crate::inspector::Inspector::localize_located),
/// run when the group's turn to localize comes; its result is that of
/// `Inspector::localize` over the pattern cut from those rows.
///
/// # Panics
///
/// If `weights` is not one per column or all 0, a column of globals is
/// shorter than the loop, or `dist` is not over the machine's processors.
pub fn place_and_locate(
    machine: &mut Machine,
    dist: &Distribution,
    niters: usize,
    columns: &[RefColumn<'_>],
    weights: &[u32],
    scratch: &mut LocalizeScratch,
) -> (IterationPartition, Located) {
    let nprocs = machine.nprocs();
    assert_eq!(columns.len(), weights.len(), "one weight per column");
    assert!(weights.iter().any(|&w| w > 0), "a column votes");
    assert_eq!(dist.nprocs(), nprocs, "distribution over another machine");
    for column in columns {
        if let RefColumn::Globals(globals) = column {
            assert!(globals.len() >= niters, "a column is shorter than the loop");
        }
    }
    // Each rank's lists reserve its load at the last placement, and at
    // least an even share of the loop.
    let share = niters.div_ceil(nprocs);
    let loads: Vec<usize> = (0..nprocs)
        .map(|p| scratch.loads.get(p).map_or(share, |&load| load.max(share)))
        .collect();
    let width = columns.len();
    let located = Located::lend(scratch, nprocs, |p| loads[p] * width);
    let lists = Lists::new(niters, share, &loads, located);
    // The lookups are resolved to one closure per distribution variant
    // here, so the row loops are compiled once per variant and never match
    // on it. The BLOCK and CYCLIC lookups keep `Distribution::owner`'s
    // range check (debug builds only, as there).
    let ((iters, mut located), pages) = match dist {
        Distribution::Block { n, p } => {
            let key = block_key(*n, *p);
            (place(lists, columns, weights, key, |_, _| {}), None)
        }
        Distribution::Cyclic { n, p } => {
            let key = cyclic_key(*n, *p);
            (place(lists, columns, weights, key, |_, _| {}), None)
        }
        Distribution::Irregular { table } => {
            let (page_of, keys) = (table.page_of(), &table.packed);
            let mut pages = vec![0u32; nprocs * nprocs];
            let count = |p: usize, g: u32| pages[p * nprocs + page_of(g)] += 1;
            let iters = place(lists, columns, weights, |g| keys[g as usize], count);
            (iters, Some(pages))
        }
    };
    located.pages = pages;
    scratch.loads.clear();
    scratch.loads.extend(iters.iter().map(Vec::len));
    let refs_per_row: usize = weights.iter().map(|&w| w as usize).sum();
    charge_scan(machine, niters * refs_per_row);
    (IterationPartition::new(iters), located)
}

/// Each rank's iterations and [`Located`] rows, as one walk fills them. A
/// rank's lists start at the load they were reserved for, and a list that
/// outgrows it grows by an eighth of a share at a time.
struct Lists {
    iters: Vec<Vec<u32>>,
    located: Located,
    /// The loop's iterations.
    niters: usize,
    /// Iterations per growth step.
    step: usize,
}

impl Lists {
    fn new(niters: usize, share: usize, loads: &[usize], located: Located) -> Self {
        Lists {
            iters: loads.iter().map(|&load| Vec::with_capacity(load)).collect(),
            located,
            niters,
            step: share.div_ceil(8).max(1),
        }
    }

    /// Iteration `it0` joins rank `p`, and its keys `p`'s localized row.
    #[inline(always)]
    fn push(&mut self, p: usize, it0: usize, keys: &[u64]) {
        let (iters, rank) = (&mut self.iters[p], &mut self.located.ranks[p]);
        if iters.len() == iters.capacity() {
            iters.reserve_exact(self.step);
            rank.row.reserve_exact(self.step * keys.len());
        }
        iters.push(it0 as u32);
        rank.push(p, keys);
    }
}

/// The one walk: each iteration's references are translated through `key`
/// (`count(home, global)` sees each one), its home is the vote of their
/// owners, ties to the lowest rank, and it joins its home's lists. Rows of
/// one to four columns vote through a kernel of that width fixed at
/// compile time, dispatched once per call; a wider row through
/// [`Tally::vote`]. Returns the iteration lists.
#[inline(always)]
fn place(
    lists: Lists,
    columns: &[RefColumn<'_>],
    weights: &[u32],
    key: impl Fn(u32) -> u64,
    count: impl FnMut(usize, u32),
) -> (Vec<Vec<u32>>, Located) {
    let (k, c) = (&key, count);
    match (columns, weights) {
        (&[a], &[wa]) => place_fixed(lists, [a], [wa], k, c),
        (&[a, b], &[wa, wb]) => place_fixed(lists, [a, b], [wa, wb], k, c),
        (&[a, b, cc], &[wa, wb, wc]) => place_fixed(lists, [a, b, cc], [wa, wb, wc], k, c),
        (&[a, b, cc, d], &[wa, wb, wc, wd]) => {
            place_fixed(lists, [a, b, cc, d], [wa, wb, wc, wd], k, c)
        }
        _ => {
            let mut tally = Tally::new(lists.iters.len());
            let mut owners = vec![0u32; columns.len()];
            place_rows(lists, columns, k, c, |keys| {
                for (o, &key) in owners.iter_mut().zip(keys) {
                    *o = (key >> 32) as u32;
                }
                tally.vote(&owners, |o| o as usize, Some(weights)).0
            })
        }
    }
}

/// [`place`] over rows of exactly `N` columns, their keys and owners in
/// registers.
#[inline(always)]
fn place_fixed<const N: usize>(
    mut lists: Lists,
    columns: [RefColumn<'_>; N],
    weights: [u32; N],
    key: impl Fn(u32) -> u64,
    mut count: impl FnMut(usize, u32),
) -> (Vec<Vec<u32>>, Located) {
    for it0 in 0..lists.niters {
        let globals = columns.map(|c| c.at(it0));
        let keys = globals.map(&key);
        let p = fixed_vote(keys.map(|k| (k >> 32) as usize), weights);
        for g in globals {
            count(p, g);
        }
        lists.push(p, it0, &keys);
    }
    (lists.iters, lists.located)
}

/// [`place`] over rows of any width, `home(keys)` voting each.
#[inline(always)]
fn place_rows(
    mut lists: Lists,
    columns: &[RefColumn<'_>],
    key: impl Fn(u32) -> u64,
    mut count: impl FnMut(usize, u32),
    mut home: impl FnMut(&[u64]) -> usize,
) -> (Vec<Vec<u32>>, Located) {
    let (mut globals, mut keys) = (vec![0u32; columns.len()], vec![0u64; columns.len()]);
    for it0 in 0..lists.niters {
        for ((g, k), c) in globals.iter_mut().zip(keys.iter_mut()).zip(columns) {
            (*g, *k) = (c.at(it0), key(c.at(it0)));
        }
        let p = home(&keys);
        for &g in &globals {
            count(p, g);
        }
        lists.push(p, it0, &keys);
    }
    (lists.iters, lists.located)
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
    use crate::inspector::{AccessPattern, Inspector, InspectorResult};
    use crate::schedule::{charge_request_exchange, CommSchedule};
    use chaos_dmsim::{Backend, CommStats, CostModel, MachineConfig, PooledBackend};

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

    /// What one run of the placing group's inspection leaves: the
    /// partition, the localized result, and the machine's clock bits and
    /// traffic.
    type Inspection = (
        IterationPartition,
        Vec<Vec<u32>>,
        CommSchedule,
        Vec<usize>,
        Vec<usize>,
        Vec<u64>,
        CommStats,
    );

    fn observe<B: Backend>(b: &B, part: IterationPartition, r: InspectorResult) -> Inspection {
        let e = b.machine().elapsed();
        let clocks = [&e.compute, &e.comm, &e.idle].into_iter().flatten();
        (
            part,
            r.localized,
            r.schedule,
            r.owned_counts,
            r.ghost_counts,
            clocks.map(|c| c.to_bits()).collect(),
            b.machine().stats().grand_totals(),
        )
    }

    /// The oracle of [`place_and_locate`]: the unit-weight vote over rows
    /// with column `j` repeated `weights[j]` times, then each rank's access
    /// pattern cut from its iterations' columns, then `Inspector::localize`.
    fn vote_cut_localize<B: Backend>(
        b: &mut B,
        d: &Distribution,
        niters: usize,
        columns: &[RefColumn<'_>],
        weights: &[u32],
    ) -> Inspection {
        let repeated: Vec<Vec<u32>> = (0..niters)
            .map(|it0| {
                let copies = columns.iter().zip(weights);
                copies
                    .flat_map(|(c, &w)| std::iter::repeat_n(c.at(it0), w as usize))
                    .collect()
            })
            .collect();
        let policy = IterPartitionPolicy::AlmostOwnerComputes;
        let part = partition_iterations(b.machine_mut(), d, &repeated, policy);
        let refs = (0..b.nprocs())
            .map(|p| {
                let iters = part.iters(p).iter();
                iters
                    .flat_map(|&it0| columns.iter().map(move |c| c.at(it0 as usize)))
                    .collect()
            })
            .collect();
        let result = Inspector.localize(b, d, &AccessPattern { refs });
        observe(b, part, result)
    }

    fn place_then_localize<B: Backend>(
        b: &mut B,
        d: &Distribution,
        niters: usize,
        columns: &[RefColumn<'_>],
        weights: &[u32],
    ) -> Inspection {
        let mut scratch = LocalizeScratch::default();
        let (part, located) =
            place_and_locate(b.machine_mut(), d, niters, columns, weights, &mut scratch);
        let result = Inspector.localize_located(b, d, located, &mut scratch);
        charge_request_exchange(b.machine_mut(), &[&result.schedule]);
        observe(b, part, result)
    }

    #[test]
    fn placing_and_locating_is_the_repeated_vote_then_the_cut_and_localize() {
        // 1 to 5 indirect columns (every fixed-width kernel and the wide
        // tally), weights 1..=3, sometimes a loop-variable column that does
        // not vote, loops of 0 to 40 iterations, over BLOCK, CYCLIC and
        // irregular data on 1..=12 ranks, on `Machine` and a 2-lane pool:
        // partition, localized rows, schedule, counts, clock bits and
        // traffic must be the oracle's.
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
                for width in 1..=5 {
                    let niters = if width == 3 { 0 } else { 20 + next(n - 19) };
                    let globals: Vec<Vec<u32>> = (0..width)
                        .map(|_| (0..niters).map(|_| next(n) as u32).collect())
                        .collect();
                    let mut columns: Vec<RefColumn<'_>> =
                        globals.iter().map(|g| RefColumn::Globals(g)).collect();
                    let mut weights: Vec<u32> = (0..width).map(|_| 1 + next(3) as u32).collect();
                    if next(2) == 0 {
                        let at = next(width + 1);
                        let first = next(n - niters + 1) as u32;
                        columns.insert(at, RefColumn::LoopVar { first });
                        weights.insert(at, 0);
                    }
                    let what = format!(
                        "{} on {nprocs} ranks, {niters} iterations, weights {weights:?}",
                        d.kind_name()
                    );
                    // iPSC/860 costs, whose sums round, on a topology any rank
                    // count fits.
                    let cfg = MachineConfig {
                        cost: CostModel::ipsc860(),
                        ..MachineConfig::unit(nprocs)
                    };
                    let expected = vote_cut_localize(
                        &mut Machine::new(cfg.clone()),
                        &d,
                        niters,
                        &columns,
                        &weights,
                    );
                    let got = place_then_localize(
                        &mut Machine::new(cfg.clone()),
                        &d,
                        niters,
                        &columns,
                        &weights,
                    );
                    assert!(got == expected, "{what} on Machine");
                    let mut pool = PooledBackend::from_config_with_workers(cfg, 2);
                    let got = place_then_localize(&mut pool, &d, niters, &columns, &weights);
                    assert!(got == expected, "{what} on the pool");
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
            let columns: Vec<RefColumn<'_>> = row
                .iter()
                .map(|g| RefColumn::Globals(std::slice::from_ref(g)))
                .collect();
            let mut scratch = LocalizeScratch::default();
            let (part, _) = place_and_locate(&mut m, &d, 1, &columns, weights, &mut scratch);
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
        // A column that does not vote does not break a tie.
        assert_eq!(home(&[6, 2, 0], &[1, 1, 0]), Some(1));
    }

    #[test]
    #[should_panic(expected = "a column is shorter than the loop")]
    fn a_column_shorter_than_the_loop_is_refused() {
        let mut m = Machine::new(MachineConfig::unit(2));
        let d = Distribution::block(8, 2);
        let columns = [RefColumn::Globals(&[0, 1]), RefColumn::Globals(&[2])];
        place_and_locate(
            &mut m,
            &d,
            2,
            &columns,
            &[1, 1],
            &mut LocalizeScratch::default(),
        );
    }

    #[test]
    #[cfg(debug_assertions)]
    #[should_panic(expected = "global index 8 out of range")]
    fn a_block_vote_range_checks_its_references_in_debug_builds() {
        let mut m = Machine::new(MachineConfig::unit(2));
        let d = Distribution::block(8, 2);
        let columns = [RefColumn::Globals(&[8]), RefColumn::Globals(&[1])];
        place_and_locate(
            &mut m,
            &d,
            1,
            &columns,
            &[1, 1],
            &mut LocalizeScratch::default(),
        );
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
