//! Data access descriptors (DADs).
//!
//! Section 3 of the paper: *"A data access descriptor (DAD) for a
//! distributed array contains (among other things) the current distribution
//! type of the array and the size of the array."* The schedule-reuse
//! machinery compares the DAD an inspector saw last time with the array's
//! current DAD; any difference (size change, distribution kind change, or a
//! remap — which always produces a fresh irregular-distribution signature)
//! invalidates the saved inspector results.

use crate::dist::Distribution;

/// Compact value identifying a DAD for equality comparison.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct DadSignature(pub u64);

/// A data access descriptor: three words, built and compared without
/// touching the heap (the reuse guard reads one per array per sweep).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Dad {
    /// Global size of the array.
    pub size: usize,
    /// Distribution kind name (`"BLOCK"`, `"CYCLIC"`, `"IRREGULAR"`).
    pub dist_kind: &'static str,
    /// Distribution signature (see [`Distribution::signature`]).
    pub dist_signature: u64,
}

impl Dad {
    /// Build the DAD describing `dist`.
    pub fn of(dist: &Distribution) -> Self {
        Dad {
            size: dist.len(),
            dist_kind: dist.kind_name(),
            dist_signature: dist.signature(),
        }
    }

    /// The comparison signature. Two arrays aligned to the same distribution
    /// share a signature; a remapped array never shares one with its old
    /// self.
    pub fn signature(&self) -> DadSignature {
        // size is implied by the distribution signature for the regular
        // kinds and by the translation-table id for irregular ones, but we
        // fold it in anyway for defence in depth.
        DadSignature(self.dist_signature ^ ((self.size as u64).rotate_left(48)))
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
        assert_eq!(a.signature(), b.signature());
    }

    #[test]
    fn different_kind_or_size_different_dad() {
        let a = Dad::of(&Distribution::block(100, 4));
        let b = Dad::of(&Distribution::cyclic(100, 4));
        let c = Dad::of(&Distribution::block(101, 4));
        assert_ne!(a.signature(), b.signature());
        assert_ne!(a.signature(), c.signature());
        assert_eq!(a.dist_kind, "BLOCK");
        assert_eq!(b.dist_kind, "CYCLIC");
    }

    #[test]
    fn remap_always_changes_irregular_dad() {
        let map = vec![0u32, 1, 0, 1];
        let a = Dad::of(&Distribution::irregular_from_map(&map, 2));
        let b = Dad::of(&Distribution::irregular_from_map(&map, 2));
        assert_ne!(
            a.signature(),
            b.signature(),
            "every irregular (re)mapping is a new DAD"
        );
    }

    #[test]
    fn cloned_distribution_keeps_its_dad() {
        let d = Distribution::irregular_from_map(&[0u32, 1], 2);
        let a = Dad::of(&d);
        let b = Dad::of(&d.clone());
        assert_eq!(a.signature(), b.signature());
    }
}
