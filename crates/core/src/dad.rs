//! Data access descriptors (DADs).
//!
//! Section 3 of the paper: *"A data access descriptor (DAD) for a
//! distributed array contains (among other things) the current distribution
//! type of the array and the size of the array."* The schedule-reuse
//! machinery compares the DAD an inspector saw last time with the array's
//! current DAD; any difference (size change, distribution kind change, or a
//! remap — which always builds a new translation table, hence a new
//! irregular DAD) invalidates the saved inspector results.

use crate::dist::Distribution;

/// A data access descriptor: a value, built and compared with `==` without
/// touching the heap (the reuse guard reads one per array per sweep). Two
/// arrays aligned to one distribution share a DAD; a remapped array never
/// shares one with its old self.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Dad {
    /// `n` elements in blocks over `p` processors (HPF `BLOCK`).
    Block {
        /// Global array size.
        n: usize,
        /// Processor count.
        p: usize,
    },
    /// `n` elements round-robin over `p` processors (HPF `CYCLIC`).
    Cyclic {
        /// Global array size.
        n: usize,
        /// Processor count.
        p: usize,
    },
    /// A map-array distribution, named by its translation table's id (the
    /// table fixes the size and the processor count).
    Irregular {
        /// [`crate::TranslationTable::id`] of the distribution's table.
        table: u64,
    },
}

impl Dad {
    /// The DAD describing `dist`.
    pub fn of(dist: &Distribution) -> Self {
        match dist {
            Distribution::Block { n, p } => Dad::Block { n: *n, p: *p },
            Distribution::Cyclic { n, p } => Dad::Cyclic { n: *n, p: *p },
            Distribution::Irregular { table } => Dad::Irregular { table: table.id() },
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::dist::Distribution;

    #[test]
    fn same_regular_distribution_same_dad() {
        let a = Dad::of(&Distribution::block(100, 4));
        let b = Dad::of(&Distribution::block(100, 4));
        assert_eq!(a, b);
        assert_eq!(a, Dad::Block { n: 100, p: 4 });
    }

    #[test]
    fn different_kind_or_size_different_dad() {
        let a = Dad::of(&Distribution::block(100, 4));
        let b = Dad::of(&Distribution::cyclic(100, 4));
        let c = Dad::of(&Distribution::block(101, 4));
        let d = Dad::of(&Distribution::block(100, 5));
        assert_ne!(a, b);
        assert_ne!(a, c);
        assert_ne!(a, d);
        assert!(matches!(b, Dad::Cyclic { n: 100, p: 4 }));
    }

    #[test]
    fn remap_always_changes_irregular_dad() {
        let map = vec![0u32, 1, 0, 1];
        let a = Dad::of(&Distribution::irregular_from_map(&map, 2));
        let b = Dad::of(&Distribution::irregular_from_map(&map, 2));
        assert_ne!(a, b, "every irregular (re)mapping is a new DAD");
    }

    #[test]
    fn cloned_distribution_keeps_its_dad() {
        let d = Distribution::irregular_from_map(&[0u32, 1], 2);
        assert_eq!(Dad::of(&d), Dad::of(&d.clone()));
    }
}
