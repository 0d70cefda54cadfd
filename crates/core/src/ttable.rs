//! The translation table: the CHAOS/PARTI data structure that records, for
//! every global index of an irregularly distributed array, the owning
//! processor and the local offset there.
//!
//! The table is paged, as in CHAOS: processor `p` holds the entries for the
//! block of global indices `p` would own under a BLOCK distribution (its
//! "page"), and a lookup on another processor's page costs a
//! request/response message pair — the *dereference* step of the
//! inspector. [`Inspector::localize_located`](crate::Inspector::localize_located)
//! and [`Inspector::localize_deferred_exchange`](crate::Inspector::localize_deferred_exchange)
//! read their answers from the table directly, counting each rank's
//! requests per page on the way; `charge_dereference` charges the two
//! rounds from those counts.

use crate::dist::BlockSplit;
use chaos_dmsim::Backend;
use std::sync::atomic::{AtomicU64, Ordering};

static NEXT_TABLE_ID: AtomicU64 = AtomicU64::new(1);

/// Translation table for one irregular distribution.
#[derive(Debug)]
pub struct TranslationTable {
    id: u64,
    nprocs: usize,
    /// `owner << 32 | local_offset` per global index — the single arena
    /// every lookup answers from (one load instead of two parallel-array
    /// loads, and no duplicated state).
    pub(crate) packed: Vec<u64>,
    local_sizes: Vec<usize>,
}

impl TranslationTable {
    /// Build a table from a map array (`map[i]` = owner of global index `i`).
    ///
    /// Local offsets are assigned in ascending global-index order within each
    /// processor, the same convention PARTI uses.
    pub fn from_map(map: &[u32], nprocs: usize) -> Self {
        assert!(nprocs > 0, "translation table needs at least one processor");
        let mut local_sizes = vec![0usize; nprocs];
        let mut packed = vec![0u64; map.len()];
        for (g, &o) in map.iter().enumerate() {
            let o = o as usize;
            assert!(
                o < nprocs,
                "map[{g}] = {o} exceeds processor count {nprocs}"
            );
            packed[g] = ((o as u64) << 32) | local_sizes[o] as u64;
            local_sizes[o] += 1;
        }
        TranslationTable {
            id: NEXT_TABLE_ID.fetch_add(1, Ordering::Relaxed),
            nprocs,
            packed,
            local_sizes,
        }
    }

    /// Unique id of this table (what an irregular [`crate::Dad`] holds).
    pub fn id(&self) -> u64 {
        self.id
    }

    /// Global array size covered by the table.
    pub fn len(&self) -> usize {
        self.packed.len()
    }

    /// True when the table covers no elements.
    pub fn is_empty(&self) -> bool {
        self.packed.is_empty()
    }

    /// Processor count.
    pub fn nprocs(&self) -> usize {
        self.nprocs
    }

    /// Owner of `global`.
    #[inline]
    pub fn owner(&self, global: usize) -> usize {
        (self.packed[global] >> 32) as usize
    }

    /// Local offset of `global` on its owner.
    #[inline]
    pub fn local_offset(&self, global: usize) -> usize {
        self.packed[global] as u32 as usize
    }

    /// Number of elements owned by `proc`.
    pub fn local_size(&self, proc: usize) -> usize {
        self.local_sizes[proc]
    }

    /// The page of `global`: the rank that holds its entry, one block of the
    /// BLOCK split of the index space per rank, found by one multiply
    /// ([`BlockSplit`]).
    #[inline]
    pub(crate) fn page_of(&self) -> impl Fn(u32) -> usize + Copy + Sync {
        let split = BlockSplit::new(self.len(), self.nprocs);
        move |g: u32| split.owner(g)
    }
}

/// The dereference's two charge rounds from `counts[p * nprocs + page]`:
/// each request batch to a remote page owner costs a request/response
/// message pair, the dominant inspector cost the paper measures.
pub(crate) fn charge_dereference<B: Backend>(backend: &mut B, counts: &[u32]) {
    let nprocs = backend.nprocs();
    // Round 1: ship requests to page owners (one word per index).
    backend.run_charge_phase(|ctx| {
        let p = ctx.rank();
        for page in 0..nprocs {
            let cnt = counts[p * nprocs + page] as usize;
            if cnt > 0 {
                ctx.charge_p2p(p, page, cnt);
            }
        }
    });
    // Round 2: page owners probe their pages and answer with
    // (owner, offset) pairs — twice the volume of the request.
    backend.run_charge_phase(|ctx| {
        let p = ctx.rank();
        for page in 0..nprocs {
            let cnt = counts[p * nprocs + page] as usize;
            if cnt > 0 {
                ctx.charge_compute(page, cnt as f64);
                ctx.charge_p2p(page, p, 2 * cnt);
            }
        }
    });
}

#[cfg(test)]
mod tests {
    use super::*;
    use chaos_dmsim::{Machine, MachineConfig};

    fn sample_map() -> Vec<u32> {
        vec![2, 0, 0, 1, 2, 1, 0, 3]
    }

    /// Charge the dereference of `requests` on `m`: count each rank's
    /// requests per page, as the inspector's walk does, then run the rounds.
    fn charge_requests(t: &TranslationTable, m: &mut Machine, requests: &[Vec<u32>]) {
        let (nprocs, page_of) = (t.nprocs(), t.page_of());
        let mut counts = vec![0u32; nprocs * nprocs];
        for (p, reqs) in requests.iter().enumerate() {
            for &g in reqs {
                counts[p * nprocs + page_of(g)] += 1;
            }
        }
        charge_dereference(m, &counts);
    }

    #[test]
    fn offsets_follow_ascending_global_order() {
        let t = TranslationTable::from_map(&sample_map(), 4);
        assert_eq!(t.len(), 8);
        assert_eq!(t.owner(0), 2);
        assert_eq!(t.local_offset(0), 0);
        assert_eq!(t.local_offset(4), 1); // second element owned by proc 2
        assert_eq!(t.local_offset(6), 2); // third element owned by proc 0
        assert_eq!(t.local_size(0), 3);
        assert_eq!(t.local_size(3), 1);
        let owned_by_1: Vec<usize> = (0..8).filter(|&g| t.owner(g) == 1).collect();
        assert_eq!(owned_by_1, vec![3, 5]);
    }

    #[test]
    fn ids_are_unique() {
        let a = TranslationTable::from_map(&sample_map(), 4);
        let b = TranslationTable::from_map(&sample_map(), 4);
        assert_ne!(a.id(), b.id());
    }

    #[test]
    #[should_panic(expected = "exceeds processor count")]
    fn rejects_out_of_range_owner() {
        let _ = TranslationTable::from_map(&[0, 9], 4);
    }

    #[test]
    fn distributed_dereference_charges_messages() {
        let t = TranslationTable::from_map(&sample_map(), 4);
        let mut m = Machine::new(MachineConfig::unit(4));
        // proc 0 asks about global 7 whose page (block size 2) lives on proc 3.
        assert_eq!((t.page_of())(7), 3);
        charge_requests(&t, &mut m, &[vec![7], vec![], vec![], vec![]]);
        assert_eq!((t.owner(7), t.local_offset(7)), (3, 0));
        let totals = m.stats().grand_totals();
        assert_eq!(totals.messages, 2, "one request and one reply");
        assert_eq!(totals.phases, 2, "a request round and a reply round");
    }

    #[test]
    fn a_page_is_the_divisions_block() {
        // Tables shorter than, as long as and longer than the rank count.
        for (n, nprocs) in [(3, 8), (8, 8), (8, 4), (1000, 7), (1, 1)] {
            let t = TranslationTable::from_map(&vec![0; n], nprocs);
            let (block, page_of) = (n.div_ceil(nprocs).max(1), t.page_of());
            for g in 0..n as u32 {
                assert_eq!(
                    page_of(g),
                    (g as usize / block).min(nprocs - 1),
                    "{g} of {n}"
                );
            }
        }
    }

    #[test]
    fn distributed_dereference_local_page_is_message_free() {
        let t = TranslationTable::from_map(&sample_map(), 4);
        let mut m = Machine::new(MachineConfig::unit(4));
        // proc 0 asks about globals 0 and 1: page owner of both is proc 0.
        charge_requests(&t, &mut m, &[vec![0, 1], vec![], vec![], vec![]]);
        let totals = m.stats().grand_totals();
        assert_eq!(totals.messages, 0);
        assert_eq!(totals.phases, 2, "both rounds run, carrying nothing");
    }
}
