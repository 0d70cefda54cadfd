//! Distributions: how a global index space is split across processors.
//!
//! Fortran D / HPF give the user `BLOCK` and `CYCLIC` regular distributions;
//! the paper's whole point is supporting *irregular* distributions described
//! by a map array (`DISTRIBUTE irreg(map)`), which in CHAOS are implemented
//! with a translation table. A [`Distribution`] answers two questions for
//! every global index: which processor owns it, and at which local offset it
//! lives there.

use crate::ttable::TranslationTable;
use std::sync::Arc;

/// A distribution of `n` global indices over `p` processors.
#[derive(Debug, Clone)]
pub enum Distribution {
    /// Contiguous blocks of `ceil(n/p)` elements (HPF `BLOCK`).
    Block {
        /// Global array size.
        n: usize,
        /// Processor count.
        p: usize,
    },
    /// Round-robin assignment (HPF `CYCLIC`).
    Cyclic {
        /// Global array size.
        n: usize,
        /// Processor count.
        p: usize,
    },
    /// Arbitrary assignment described by a translation table (the paper's
    /// `DISTRIBUTE irreg(map)`).
    Irregular {
        /// Shared translation table.
        table: Arc<TranslationTable>,
    },
}

impl Distribution {
    /// A block distribution of `n` elements over `p` processors.
    pub fn block(n: usize, p: usize) -> Self {
        assert!(p > 0, "distribution needs at least one processor");
        Distribution::Block { n, p }
    }

    /// A cyclic distribution of `n` elements over `p` processors.
    pub fn cyclic(n: usize, p: usize) -> Self {
        assert!(p > 0, "distribution needs at least one processor");
        Distribution::Cyclic { n, p }
    }

    /// An irregular distribution built directly from a map array
    /// (`map[i]` = owning processor of global element `i`), through a new
    /// paged translation table: lookups on other processors' pages cost a
    /// request/response message pair, the inspector cost the paper's tables
    /// show.
    pub fn irregular_from_map(map: &[u32], p: usize) -> Self {
        Distribution::Irregular {
            table: Arc::new(TranslationTable::from_map(map, p)),
        }
    }

    /// Global array size.
    pub fn len(&self) -> usize {
        match self {
            Distribution::Block { n, .. } | Distribution::Cyclic { n, .. } => *n,
            Distribution::Irregular { table } => table.len(),
        }
    }

    /// True if the global size is zero.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Processor count.
    pub fn nprocs(&self) -> usize {
        match self {
            Distribution::Block { p, .. } | Distribution::Cyclic { p, .. } => *p,
            Distribution::Irregular { table } => table.nprocs(),
        }
    }

    /// Short name of the distribution kind (as printed in tables).
    pub fn kind_name(&self) -> &'static str {
        match self {
            Distribution::Block { .. } => "BLOCK",
            Distribution::Cyclic { .. } => "CYCLIC",
            Distribution::Irregular { .. } => "IRREGULAR",
        }
    }

    /// Block size used by the block distribution for this size/proc count.
    pub fn block_size(n: usize, p: usize) -> usize {
        n.div_ceil(p).max(1)
    }

    /// Owning processor of `global`.
    #[inline]
    pub fn owner(&self, global: usize) -> usize {
        debug_assert!(global < self.len(), "global index {global} out of range");
        match self {
            Distribution::Block { n, p } => (global / Self::block_size(*n, *p)).min(p - 1),
            Distribution::Cyclic { p, .. } => global % p,
            Distribution::Irregular { table } => table.owner(global),
        }
    }

    /// Local offset of `global` on its owning processor.
    #[inline]
    pub fn local_offset(&self, global: usize) -> usize {
        match self {
            Distribution::Block { n, p } => global - self.owner(global) * Self::block_size(*n, *p),
            Distribution::Cyclic { p, .. } => global / p,
            Distribution::Irregular { table } => table.local_offset(global),
        }
    }

    /// `(owner, local_offset)` of `global`. A BLOCK lookup computes its
    /// block size once: two integer divisions, where `owner` and
    /// `local_offset` called in turn would spend five.
    #[inline]
    pub fn locate(&self, global: usize) -> (usize, usize) {
        debug_assert!(global < self.len(), "global index {global} out of range");
        match self {
            Distribution::Block { n, p } => {
                let b = Self::block_size(*n, *p);
                let owner = (global / b).min(p - 1);
                (owner, global - owner * b)
            }
            Distribution::Cyclic { p, .. } => (global % p, global / p),
            Distribution::Irregular { table } => (table.owner(global), table.local_offset(global)),
        }
    }

    /// Number of elements owned by processor `proc`.
    pub fn local_size(&self, proc: usize) -> usize {
        match self {
            Distribution::Block { n, p } => {
                let b = Self::block_size(*n, *p);
                let start = proc * b;
                if start >= *n {
                    0
                } else {
                    (*n - start).min(b)
                }
            }
            Distribution::Cyclic { n, p } => {
                let full = n / p;
                full + usize::from(proc < n % p)
            }
            Distribution::Irregular { table } => table.local_size(proc),
        }
    }
}

/// The BLOCK split of `n` globals over `p` ranks with no division per
/// lookup: `g / block` is the high word of `⌈2⁶⁴ / block⌉ · g`, exact for
/// every `u32` global (Lemire, Kaser & Kurz, "Faster remainder by direct
/// computation", 2019). It places a BLOCK array's elements and a
/// translation table's pages.
#[derive(Debug, Clone, Copy)]
pub(crate) struct BlockSplit {
    block: usize,
    /// `⌈2⁶⁴ / block⌉ − 1`, that is `⌊(2⁶⁴ − 1) / block⌋`: the reciprocal
    /// less one, which fits a `u64` for `block = 1` too.
    reciprocal: u64,
    last: usize,
}

impl BlockSplit {
    /// The split [`Distribution::block`] makes of `n` over `p > 0` ranks.
    pub(crate) fn new(n: usize, p: usize) -> Self {
        let block = Distribution::block_size(n, p);
        BlockSplit {
            block,
            reciprocal: u64::MAX / block as u64,
            last: p - 1,
        }
    }

    /// The rank of `g`: `(g / block).min(p - 1)`.
    #[inline(always)]
    pub(crate) fn owner(self, g: u32) -> usize {
        let g = u128::from(g);
        let quotient = (u128::from(self.reciprocal) * g + g) >> 64;
        (quotient as usize).min(self.last)
    }

    /// `(owner, offset)` of `g`, as [`Distribution::locate`] gives them.
    #[inline(always)]
    pub(crate) fn locate(self, g: u32) -> (usize, usize) {
        let owner = self.owner(g);
        (owner, g as usize - owner * self.block)
    }
}

/// BLOCK's packed `owner << 32 | offset` key of each global, through a
/// [`BlockSplit`]; range-checked in debug builds only, as
/// [`Distribution::owner`] is.
pub(crate) fn block_key(n: usize, p: usize) -> impl Fn(u32) -> u64 + Copy + Sync {
    let split = BlockSplit::new(n, p);
    move |g: u32| {
        debug_assert!((g as usize) < n, "global index {g} out of range");
        let (owner, offset) = split.locate(g);
        ((owner as u64) << 32) | offset as u64
    }
}

/// CYCLIC's packed `owner << 32 | offset` key of each global, range-checked
/// as [`block_key`] is.
pub(crate) fn cyclic_key(n: usize, p: usize) -> impl Fn(u32) -> u64 + Copy + Sync {
    move |g: u32| {
        debug_assert!((g as usize) < n, "global index {g} out of range");
        (((g as usize % p) as u64) << 32) | (g as usize / p) as u64
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::dad::Dad;

    /// The globals `d` places on `proc`, in ascending global order.
    fn owned(d: &Distribution, proc: usize) -> Vec<usize> {
        (0..d.len()).filter(|&g| d.owner(g) == proc).collect()
    }

    #[test]
    fn block_distribution_layout() {
        let d = Distribution::block(10, 4);
        assert_eq!(d.len(), 10);
        assert_eq!(d.nprocs(), 4);
        // block size = ceil(10/4) = 3 -> sizes 3,3,3,1
        assert_eq!(
            (0..4).map(|p| d.local_size(p)).collect::<Vec<_>>(),
            vec![3, 3, 3, 1]
        );
        assert_eq!(d.locate(0), (0, 0));
        assert_eq!(d.locate(2), (0, 2));
        assert_eq!(d.locate(3), (1, 0));
        assert_eq!(d.locate(9), (3, 0));
        assert_eq!(owned(&d, 1), vec![3, 4, 5]);
        assert_eq!(owned(&d, 3), vec![9]);
    }

    #[test]
    fn block_never_exceeds_proc_range_for_tiny_arrays() {
        let d = Distribution::block(2, 8);
        assert!(d.owner(0) < 8 && d.owner(1) < 8);
        let sizes: Vec<usize> = (0..8).map(|p| d.local_size(p)).collect();
        assert_eq!(sizes.iter().sum::<usize>(), 2);
    }

    #[test]
    fn cyclic_distribution_layout() {
        let d = Distribution::cyclic(10, 4);
        assert_eq!(
            (0..4).map(|p| d.local_size(p)).collect::<Vec<_>>(),
            vec![3, 3, 2, 2]
        );
        assert_eq!(d.locate(0), (0, 0));
        assert_eq!(d.locate(4), (0, 1));
        assert_eq!(d.locate(7), (3, 1));
        assert_eq!(owned(&d, 1), vec![1, 5, 9]);
    }

    #[test]
    fn irregular_distribution_from_map() {
        let map = vec![2u32, 0, 0, 1, 2, 1];
        let d = Distribution::irregular_from_map(&map, 3);
        assert_eq!(d.len(), 6);
        assert_eq!(d.owner(0), 2);
        assert_eq!(d.owner(3), 1);
        // local offsets follow ascending global order within each proc
        assert_eq!(d.locate(1), (0, 0));
        assert_eq!(d.locate(2), (0, 1));
        assert_eq!(d.locate(4), (2, 1));
        assert_eq!(d.local_size(0), 2);
        assert_eq!(d.local_size(1), 2);
        assert_eq!(d.local_size(2), 2);
        assert_eq!(owned(&d, 2), vec![0, 4]);
    }

    #[test]
    fn locate_numbers_each_ranks_elements_densely() {
        for d in [
            Distribution::block(23, 4),
            Distribution::cyclic(23, 4),
            Distribution::irregular_from_map(
                &(0..23).map(|i| (i * 7 % 4) as u32).collect::<Vec<_>>(),
                4,
            ),
        ] {
            for p in 0..4 {
                let mine = owned(&d, p);
                assert_eq!(mine.len(), d.local_size(p), "{} rank {p}", d.kind_name());
                for (off, g) in mine.iter().enumerate() {
                    assert_eq!(d.locate(*g), (p, off), "{} idx {g}", d.kind_name());
                }
            }
            let total: usize = (0..4).map(|p| d.local_size(p)).sum();
            assert_eq!(total, 23);
        }
    }

    #[test]
    fn dads_distinguish_kinds_sizes_and_tables() {
        let a = Distribution::block(100, 4);
        let b = Distribution::block(100, 4);
        let c = Distribution::block(101, 4);
        let d = Distribution::cyclic(100, 4);
        let e = Distribution::block(100, 5);
        assert_eq!(Dad::of(&a), Dad::of(&b));
        assert_ne!(Dad::of(&a), Dad::of(&c));
        assert_ne!(Dad::of(&a), Dad::of(&d));
        assert_ne!(Dad::of(&a), Dad::of(&e));
        let m = vec![0u32; 100];
        let i1 = Distribution::irregular_from_map(&m, 4);
        let i2 = Distribution::irregular_from_map(&m, 4);
        // Each irregular build is a *new* mapping event and therefore a new DAD.
        assert_ne!(Dad::of(&i1), Dad::of(&i2));
        assert_eq!(Dad::of(&i1), Dad::of(&i1.clone()));
    }

    /// The globals a split is checked on: all of them below `n` when there
    /// are few, else every block's first and last two and a seeded sample.
    fn probe_globals(n: usize, block: usize, next: &mut impl FnMut(usize) -> usize) -> Vec<u32> {
        if n <= 1 << 16 {
            return (0..n as u32).collect();
        }
        let mut globals: Vec<u32> = (0..10_000).map(|_| next(n) as u32).collect();
        for start in (0..n).step_by(block) {
            for g in [start, start + 1, start + block - 2, start + block - 1] {
                globals.extend(u32::try_from(g).ok().filter(|&g| (g as usize) < n));
            }
        }
        globals.extend([0, (n - 1) as u32]);
        globals
    }

    #[test]
    fn the_reciprocal_split_is_the_division() {
        // Random (n, p), n < p, block = 1, and n near 2³², where the
        // reciprocal's error term is largest: owner and offset must be the
        // divisions' for every global probed (every global below 2¹⁶).
        let mut state = 0x853C_49E6_748F_EA9Bu64;
        let mut next = |m: usize| -> usize {
            state ^= state << 13;
            state ^= state >> 7;
            state ^= state << 17;
            (state % m as u64) as usize
        };
        let mut cases: Vec<(usize, usize)> =
            (0..60).map(|_| (1 + next(70_000), 1 + next(64))).collect();
        cases.extend([(3, 8), (1, 1), (0, 4), (7, 7), (9, 9), (64, 64), (5, 2)]);
        let top = 1usize << 32;
        for p in [1, 2, 3, 7, 32, 1000, 65_535] {
            cases.extend([(top, p), (top - 1, p), (top - 7, p), (top - p, p)]);
        }
        for (n, p) in cases {
            let split = BlockSplit::new(n, p);
            let block = Distribution::block_size(n, p);
            for g in probe_globals(n, block, &mut next) {
                let owner = (g as usize / block).min(p - 1);
                let want = (owner, g as usize - owner * block);
                assert_eq!(split.locate(g), want, "g = {g}, n = {n}, p = {p}");
                assert_eq!(split.owner(g), owner, "g = {g}, n = {n}, p = {p}");
            }
        }
    }

    #[test]
    #[should_panic(expected = "at least one processor")]
    fn zero_procs_rejected() {
        let _ = Distribution::block(10, 0);
    }
}
