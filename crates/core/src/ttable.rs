//! The translation table: the CHAOS/PARTI data structure that records, for
//! every global index of an irregularly distributed array, the owning
//! processor and the local offset there.
//!
//! PARTI supports two physical layouts:
//!
//! * **replicated** — every processor holds the whole table; lookups are
//!   local but the memory cost is `O(n)` per processor, and building it
//!   requires an all-gather of the map array;
//! * **distributed (paged)** — processor `p` holds the table entries for the
//!   block of global indices `p` would own under a BLOCK distribution
//!   ("pages"); lookups for other processors' pages require a
//!   request/response message pair (the *dereference* step of the
//!   inspector).
//!
//! Both layouts answer lookups identically; they differ only in the
//! communication charged by [`TranslationTable::dereference`]. The
//! `translation` ablation bench compares them.

use chaos_dmsim::{Backend, PhaseEnd};
use std::sync::atomic::{AtomicU64, Ordering};

/// Physical layout policy for the translation table.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum TTablePolicy {
    /// Whole table replicated on every processor.
    Replicated,
    /// Table pages distributed block-wise over processors.
    Distributed,
}

static NEXT_TABLE_ID: AtomicU64 = AtomicU64::new(1);

/// Translation table for one irregular distribution.
#[derive(Debug)]
pub struct TranslationTable {
    id: u64,
    nprocs: usize,
    /// `owner << 32 | local_offset` per global index — the single arena
    /// every lookup answers from (one load instead of two parallel-array
    /// loads, and no duplicated state).
    packed: Vec<u64>,
    local_sizes: Vec<usize>,
    policy: TTablePolicy,
}

impl TranslationTable {
    /// Build a table from a map array (`map[i]` = owner of global index `i`)
    /// with the replicated policy.
    ///
    /// Local offsets are assigned in ascending global-index order within each
    /// processor, the same convention PARTI uses.
    pub fn from_map(map: &[u32], nprocs: usize) -> Self {
        Self::from_map_with_policy(map, nprocs, TTablePolicy::Replicated)
    }

    /// Build a table from a map array with an explicit layout policy.
    pub fn from_map_with_policy(map: &[u32], nprocs: usize, policy: TTablePolicy) -> Self {
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
            policy,
        }
    }

    /// Unique id of this table (used in DAD signatures).
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

    /// The layout policy.
    pub fn policy(&self) -> TTablePolicy {
        self.policy
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

    /// Global indices owned by `proc` in ascending local-offset order.
    pub fn owned_globals(&self, proc: usize) -> Vec<usize> {
        let mut out = Vec::with_capacity(self.local_sizes[proc]);
        let me = proc as u64;
        for (g, &k) in self.packed.iter().enumerate() {
            if (k >> 32) == me {
                out.push(g);
            }
        }
        out
    }

    /// Size of one table page (the block of the BLOCK distribution of the
    /// index space used by the distributed layout).
    #[inline]
    fn page_block(&self) -> usize {
        self.len().div_ceil(self.nprocs).max(1)
    }

    /// Charge the machine for dereferencing `requests` (the cost side of
    /// [`TranslationTable::dereference`]; the packed variant shares its
    /// replicated half and counts pages in its own fill).
    ///
    /// With the replicated policy the lookups are free of communication
    /// (only local table-probe compute is charged); with the distributed
    /// policy each request batch to a remote page owner incurs a
    /// request/response message pair, which is the dominant inspector cost
    /// the paper measures. Each requesting rank counts its own requests per
    /// page (a rank-local kernel, so the counting pass parallelizes on the
    /// pooled engine) — no per-index dispatch, no payload materialization
    /// (the simulator answers from the shared table; only the transfer cost
    /// is modeled, identically to shipping the indices).
    fn charge_dereference<B: Backend>(&self, backend: &mut B, label: &str, requests: &[Vec<u32>]) {
        let nprocs = self.nprocs;
        match self.policy {
            TTablePolicy::Replicated => {
                backend.run_charges(|ctx| {
                    // One table probe per request.
                    ctx.charge_compute(ctx.rank(), requests[ctx.rank()].len() as f64);
                });
            }
            TTablePolicy::Distributed => {
                // Counting pass: how many of each rank's requests land on
                // each table page. Rank r fills row r.
                let (mut counts, page_of) = (vec![0u32; nprocs * nprocs], self.page_of());
                backend.run_compute(counts.chunks_mut(nprocs), |ctx, row| {
                    for &g in &requests[ctx.rank()] {
                        row[page_of(g)] += 1;
                    }
                });
                self.charge_page_traffic(backend, label, &counts);
            }
        }
    }

    /// The table page a global index lives on under the distributed
    /// layout, with the page size computed once.
    fn page_of(&self) -> impl Fn(u32) -> usize + Sync {
        let (block, last) = (self.page_block(), self.nprocs - 1);
        move |g| (g as usize / block).min(last)
    }

    /// Charge the distributed layout's two message rounds, given how many
    /// of each rank's requests land on each page (`counts[p * nprocs +
    /// page]`).
    fn charge_page_traffic<B: Backend>(&self, backend: &mut B, label: &str, counts: &[u32]) {
        let nprocs = self.nprocs;
        // Round 1: ship requests to page owners (one word per index).
        backend.run_charge_phase(
            PhaseEnd::Labelled(&format!("{label}:deref-request")),
            |ctx| {
                let p = ctx.rank();
                for page in 0..nprocs {
                    let cnt = counts[p * nprocs + page] as usize;
                    if cnt > 0 {
                        ctx.charge_p2p(p, page, cnt);
                    }
                }
            },
        );
        // Round 2: page owners probe their pages and answer with
        // (owner, offset) pairs — twice the volume of the request.
        backend.run_charge_phase(PhaseEnd::Labelled(&format!("{label}:deref-reply")), |ctx| {
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

    /// Dereference a batch of global indices on behalf of each requesting
    /// processor, charging the machine for any table-page traffic.
    ///
    /// `requests[p]` is the list of global indices processor `p` needs to
    /// translate; the result mirrors that shape with `(owner, local_offset)`
    /// pairs. See [`TranslationTable::dereference_packed`] for the
    /// allocation-friendly variant the inspector uses.
    pub fn dereference<B: Backend>(
        &self,
        backend: &mut B,
        label: &str,
        requests: &[Vec<u32>],
    ) -> Vec<Vec<(u32, u32)>> {
        assert_eq!(requests.len(), self.nprocs);
        self.charge_dereference(backend, label, requests);
        // The actual answers (exact, independent of the cost policy), read
        // from the packed arena in one load per lookup.
        requests
            .iter()
            .map(|reqs| {
                reqs.iter()
                    .map(|&g| {
                        let k = self.packed[g as usize];
                        ((k >> 32) as u32, k as u32)
                    })
                    .collect()
            })
            .collect()
    }

    /// [`TranslationTable::dereference`] writing packed
    /// `owner << 32 | local_offset` keys into caller-owned buffers
    /// (`out[p]` is cleared and refilled, so repeated inspector runs reuse
    /// capacity instead of reallocating). Charges the machine identically to
    /// `dereference`; the per-rank answer fill is a rank-local kernel, so it
    /// parallelizes on the pooled engine. Under the distributed layout the
    /// fill also counts each rank's requests per page, so the requests are
    /// read once.
    pub fn dereference_packed<B: Backend>(
        &self,
        backend: &mut B,
        label: &str,
        requests: &[Vec<u32>],
        out: &mut Vec<Vec<u64>>,
    ) {
        assert_eq!(requests.len(), self.nprocs);
        out.resize_with(self.nprocs, Vec::new);
        let nprocs = self.nprocs;
        match self.policy {
            TTablePolicy::Replicated => {
                self.charge_dereference(backend, label, requests);
                backend.run_compute(out.iter_mut(), |ctx, row: &mut Vec<u64>| {
                    row.clear();
                    let answer = |&g: &u32| self.packed[g as usize];
                    row.extend(requests[ctx.rank()].iter().map(answer));
                });
            }
            TTablePolicy::Distributed => {
                let (mut counts, page_of) = (vec![0u32; nprocs * nprocs], self.page_of());
                let rows = out.iter_mut().zip(counts.chunks_mut(nprocs));
                backend.run_compute(rows, |ctx, (row, pages): (&mut Vec<u64>, &mut [u32])| {
                    row.clear();
                    row.extend(requests[ctx.rank()].iter().map(|&g| {
                        pages[page_of(g)] += 1;
                        self.packed[g as usize]
                    }));
                });
                self.charge_page_traffic(backend, label, &counts);
            }
        }
    }

    /// Words of table state stored on processor `proc`, used to charge the
    /// cost of building / shipping the table.
    pub fn storage_words(&self, proc: usize) -> usize {
        match self.policy {
            TTablePolicy::Replicated => 2 * self.len(),
            TTablePolicy::Distributed => {
                let block = self.page_block();
                let start = (proc * block).min(self.len());
                let end = ((proc + 1) * block).min(self.len());
                2 * (end - start)
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use chaos_dmsim::{Machine, MachineConfig};

    fn sample_map() -> Vec<u32> {
        vec![2, 0, 0, 1, 2, 1, 0, 3]
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
        assert_eq!(t.owned_globals(1), vec![3, 5]);
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
    fn replicated_dereference_is_comm_free() {
        let t = TranslationTable::from_map(&sample_map(), 4);
        let mut m = Machine::new(MachineConfig::unit(4));
        let answers = t.dereference(&mut m, "test", &[vec![0, 3], vec![], vec![7], vec![]]);
        assert_eq!(answers[0], vec![(2, 0), (1, 0)]);
        assert_eq!(answers[2], vec![(3, 0)]);
        assert_eq!(m.stats().grand_totals().messages, 0);
    }

    #[test]
    fn distributed_dereference_charges_messages() {
        let t = TranslationTable::from_map_with_policy(&sample_map(), 4, TTablePolicy::Distributed);
        let mut m = Machine::new(MachineConfig::unit(4));
        // proc 0 asks about global 7 whose page (block size 2) lives on proc 3.
        let answers = t.dereference(&mut m, "test", &[vec![7], vec![], vec![], vec![]]);
        assert_eq!(answers[0], vec![(3, 0)]);
        assert!(
            m.stats().grand_totals().messages >= 2,
            "request + reply expected"
        );
    }

    #[test]
    fn distributed_dereference_local_page_is_message_free() {
        let t = TranslationTable::from_map_with_policy(&sample_map(), 4, TTablePolicy::Distributed);
        let mut m = Machine::new(MachineConfig::unit(4));
        // proc 0 asks about globals 0 and 1: page owner of both is proc 0.
        let answers = t.dereference(&mut m, "test", &[vec![0, 1], vec![], vec![], vec![]]);
        assert_eq!(answers[0], vec![(2, 0), (0, 0)]);
        assert_eq!(m.stats().grand_totals().messages, 0);
    }

    #[test]
    fn storage_words_reflect_policy() {
        let rep = TranslationTable::from_map(&sample_map(), 4);
        let dist =
            TranslationTable::from_map_with_policy(&sample_map(), 4, TTablePolicy::Distributed);
        assert_eq!(rep.storage_words(0), 16);
        assert_eq!(dist.storage_words(0), 4);
        let total: usize = (0..4).map(|p| dist.storage_words(p)).sum();
        assert_eq!(total, 16);
    }

    #[test]
    fn answers_identical_across_policies() {
        let mut m = Machine::new(MachineConfig::unit(4));
        let rep = TranslationTable::from_map(&sample_map(), 4);
        let dist =
            TranslationTable::from_map_with_policy(&sample_map(), 4, TTablePolicy::Distributed);
        let reqs = vec![vec![0, 1, 2], vec![3], vec![4, 5], vec![6, 7]];
        assert_eq!(
            rep.dereference(&mut m, "a", &reqs),
            dist.dereference(&mut m, "b", &reqs)
        );
    }
}
