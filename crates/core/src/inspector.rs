//! The inspector: PARTI's `localize` procedure.
//!
//! Given the global data-array indices a loop will reference on each
//! processor (obtained from the indirection arrays), the inspector
//!
//! 1. translates every global index to `(owner, local offset)` through the
//!    data array's distribution (dereferencing the translation table when
//!    the distribution is irregular — communication is charged),
//! 2. deduplicates off-processor references and assigns each distinct one a
//!    ghost-buffer slot,
//! 3. builds the [`CommSchedule`] that will move those elements, and
//! 4. rewrites the reference list into *local indices* so the executor never
//!    touches a global index again.
//!
//! This is the work whose cost the paper amortizes via schedule reuse.
//!
//! Step 1 has one form and two callers. Each translated reference is
//! *located* where it is found: an owned one goes straight into its rank's
//! `u32` localized row as its offset, an off-processor one leaves a
//! placeholder there, joins the rank's pending list as `(key, position)`
//! and is counted against its owner. No key is kept per reference.
//! [`Inspector::localize`] and its variants locate an [`AccessPattern`],
//! one rank kernel per rank. The lang inspector locates the references of
//! the group that places a loop's iterations in the walk that places them
//! ([`place_and_locate`](crate::iterpart::place_and_locate)) and hands the
//! [`Located`] rows to [`Inspector::localize_located`], which charges the
//! translation. One dedup then runs steps 2 to 4 for both: it reads only
//! the pending lists, buckets them by owner and sorts each bucket.
//!
//! # The local index space
//!
//! As in PARTI, every reference localizes to **one** `u32` in a per-processor
//! index space that puts the ghost buffer *behind* the owned elements: on
//! processor `p`, `idx < owned_counts[p]` is the offset of an owned element
//! and any other `idx` is ghost slot `idx - owned_counts[p]`. A row of
//! [`InspectorResult::localized`] is therefore 4 B per reference and carries
//! no discriminant to match on. The owned
//! count is the length of the processor's shard of any array aligned with
//! the distribution, so a reader that holds the shard needs nothing else:
//! [`resolve_local`] / [`resolve_local_mut`] decode against a `(shard, ghost
//! buffer)` pair and are what the hand-coded executors, the examples and the
//! tests use; the `chaos-lang` kernel VM decodes the same way, once per
//! block of iterations.

use crate::dist::{block_key, cyclic_key, Distribution};
use crate::schedule::{charge_request_exchange, CommSchedule};
use crate::ttable::charge_dereference;
use chaos_dmsim::Backend;

/// Read the element a local index names: `local[idx]` when `idx` is an owned
/// offset (`idx < local.len()`), else ghost slot `idx - local.len()` of
/// `ghosts` (see the [module docs](self) for the index space).
#[inline]
pub fn resolve_local<'a, T>(idx: u32, local: &'a [T], ghosts: &'a [T]) -> &'a T {
    let idx = idx as usize;
    match idx.checked_sub(local.len()) {
        None => &local[idx],
        Some(slot) => &ghosts[slot],
    }
}

/// The write side of [`resolve_local`]: the owned element, or the
/// off-processor contribution slot behind it.
#[inline]
pub fn resolve_local_mut<'a, T>(idx: u32, local: &'a mut [T], ghosts: &'a mut [T]) -> &'a mut T {
    let idx = idx as usize;
    match idx.checked_sub(local.len()) {
        None => &mut local[idx],
        Some(slot) => &mut ghosts[slot],
    }
}

/// The global data-array indices each processor's loop iterations reference,
/// flattened in iteration order. `refs[p]` belongs to processor `p`.
#[derive(Debug, Clone, PartialEq, Eq, Default)]
pub struct AccessPattern {
    /// Per-processor reference lists (global indices).
    pub refs: Vec<Vec<u32>>,
}

impl AccessPattern {
    /// An empty pattern for `nprocs` processors.
    pub fn new(nprocs: usize) -> Self {
        AccessPattern {
            refs: vec![Vec::new(); nprocs],
        }
    }

    /// Total number of references across processors.
    pub fn total_refs(&self) -> usize {
        self.refs.iter().map(Vec::len).sum()
    }
}

/// Result of running the inspector for one loop against one data
/// distribution.
#[derive(Debug, Clone)]
pub struct InspectorResult {
    /// The communication schedule for the loop's off-processor references.
    pub schedule: CommSchedule,
    /// The localized references, same shape as the input pattern, each one
    /// local index (owned offset, or `owned_counts[p]` + ghost slot).
    pub localized: Vec<Vec<u32>>,
    /// Elements of the data distribution each processor owns: where the
    /// ghost slots start in its local index space.
    pub owned_counts: Vec<usize>,
    /// Ghost-buffer size required on each processor.
    pub ghost_counts: Vec<usize>,
}

impl InspectorResult {
    /// Fraction of references that stay on-processor (a locality measure the
    /// benches report alongside the timings).
    pub fn local_fraction(&self) -> f64 {
        let total: usize = self.localized.iter().map(Vec::len).sum();
        if total == 0 {
            return 1.0;
        }
        let owned: usize = self
            .localized
            .iter()
            .zip(&self.owned_counts)
            .map(|(l, &n)| l.iter().filter(|&&idx| (idx as usize) < n).count())
            .sum();
        owned as f64 / total as f64
    }
}

/// Reusable intermediate buffers for [`Inspector::localize_with_scratch`].
///
/// The inspector's working set — the per-processor off-processor
/// references and their per-owner counts, the dedup buckets and distinct
/// keys, and the flat ghost-source arrays handed to the schedule
/// constructor — lives here, so a loop that re-runs its inspector (the
/// schedule-reuse miss path) stops allocating once the buffers have grown
/// to the workload's size. The lang `Executor` keeps one between
/// inspections.
#[derive(Debug, Clone, Default)]
pub struct LocalizeScratch {
    /// Each rank's pending references and owner counts, lent to every
    /// [`Located`] and given back by its dedup (the rows go to the result).
    ranks: Vec<RankLocated>,
    /// Each rank's iterations at the last placement: what the next one's
    /// lists reserve.
    pub(crate) loads: Vec<usize>,
    /// The off-processor references as `offset << 32 | position`, bucketed
    /// by owner in rank order, per proc: each bucket sorted, they give the
    /// ghost slots and where each one is written.
    buckets: Vec<Vec<u64>>,
    /// Sorted, deduplicated off-processor keys, per proc (rank-local so the
    /// dedup kernels can run one per thread).
    offproc: Vec<Vec<u64>>,
    /// Flat CSR ghost-source arrays under construction.
    ghost_off: Vec<u32>,
    ghost_owner: Vec<u32>,
    ghost_src: Vec<u32>,
}

/// What an off-processor reference's place in a localized row holds until
/// the dedup writes its ghost slot there.
const PENDING: u32 = u32::MAX;

/// A group's references located rank by rank, not yet deduplicated or
/// charged: what [`place_and_locate`](crate::iterpart::place_and_locate)
/// leaves for [`Inspector::localize_located`], and what
/// [`Inspector::localize_deferred_exchange`] builds from a pattern.
#[derive(Debug)]
pub struct Located {
    /// Each rank's share, in rank order.
    pub(crate) ranks: Vec<RankLocated>,
    /// Each rank's requests per table page (`pages[p * nprocs + page]`)
    /// when the translation is the dereference; `None` for BLOCK or CYCLIC.
    pub(crate) pages: Option<Vec<u32>>,
}

/// One rank's located references.
#[derive(Debug, Clone, Default)]
pub(crate) struct RankLocated {
    /// The localized row, the rank's references in order: an owned
    /// reference's offset, or a placeholder the dedup overwrites with the
    /// reference's ghost slot.
    pub(crate) row: Vec<u32>,
    /// The off-processor references as `(owner << 32 | offset, position in
    /// the row)`, in row order.
    pending: Vec<(u64, u32)>,
    /// `owners[o]`: how many of the pending references owner `o` holds.
    owners: Vec<u32>,
}

impl RankLocated {
    /// Append rank `me`'s next references, as packed `owner << 32 |
    /// offset` keys: an owned one as its offset, an off-processor one as a
    /// placeholder, with a pending `(key, position)` entry and a count
    /// against its owner.
    #[inline(always)]
    pub(crate) fn push(&mut self, me: usize, keys: &[u64]) {
        let at = self.row.len();
        let local = |key: u64| (key >> 32) as usize == me;
        let offsets = keys
            .iter()
            .map(|&key| if local(key) { key as u32 } else { PENDING });
        self.row.extend(offsets);
        for (j, &key) in keys.iter().enumerate() {
            if !local(key) {
                self.pending.push((key, (at + j) as u32));
                self.owners[(key >> 32) as usize] += 1;
            }
        }
    }
}

impl Located {
    /// Empty rows for `nprocs` ranks, row `p` reserving `capacity(p)`, over
    /// the pending lists and counts `scratch` lends.
    pub(crate) fn lend(
        scratch: &mut LocalizeScratch,
        nprocs: usize,
        capacity: impl Fn(usize) -> usize,
    ) -> Self {
        let mut ranks = std::mem::take(&mut scratch.ranks);
        ranks.resize_with(nprocs, RankLocated::default);
        for (p, rank) in ranks.iter_mut().enumerate() {
            rank.row = Vec::with_capacity(capacity(p));
            rank.pending.clear();
            rank.owners.clear();
            rank.owners.resize(nprocs, 0);
        }
        Located { ranks, pages: None }
    }
}

/// One rank's rows of the dedup / rewrite kernel: its located references,
/// its buckets and its deduplicated keys.
type Rows<'a> = (&'a mut RankLocated, (&'a mut Vec<u64>, &'a mut Vec<u64>));

/// The inspector itself. Stateless; all state lives in the returned
/// [`InspectorResult`] (and optionally a caller-held [`LocalizeScratch`]).
#[derive(Debug, Clone, Copy, Default)]
pub struct Inspector;

impl Inspector {
    /// Run the inspector (PARTI `localize`).
    ///
    /// `data_dist` is the distribution of the data array being indirectly
    /// referenced; `pattern.refs[p]` are the global indices processor `p`'s
    /// iterations will access. Index translation, deduplication and schedule
    /// construction costs are charged to `machine`.
    pub fn localize<B: Backend>(
        &self,
        backend: &mut B,
        data_dist: &Distribution,
        pattern: &AccessPattern,
    ) -> InspectorResult {
        let mut scratch = LocalizeScratch::default();
        self.localize_with_scratch(backend, "", data_dist, pattern, &mut scratch)
    }

    /// [`Inspector::localize`] reusing caller-held scratch buffers, so
    /// repeated inspector runs (schedule-reuse misses) stop allocating
    /// intermediates after the first call.
    ///
    /// It is [`Inspector::localize_deferred_exchange`] followed by the
    /// schedule's request exchange, [`charge_request_exchange`] over the one
    /// schedule. `_label` is ignored: a phase is counted under its
    /// [`PhaseKind`](chaos_dmsim::PhaseKind), not by name.
    pub fn localize_with_scratch<B: Backend>(
        &self,
        backend: &mut B,
        _label: &str,
        data_dist: &Distribution,
        pattern: &AccessPattern,
        scratch: &mut LocalizeScratch,
    ) -> InspectorResult {
        let result = self.localize_deferred_exchange(backend, data_dist, pattern, scratch);
        charge_request_exchange(backend.machine_mut(), &[&result.schedule]);
        result
    }

    /// [`Inspector::localize`] with the schedule's request exchange
    /// **deferred**: translation, dedup and reference rewriting are charged
    /// as usual, but the returned schedule has not paid its build exchange
    /// (building a schedule never charges).
    ///
    /// Each rank's references are translated to packed `owner << 32 |
    /// offset` keys — by dereferencing the translation table for an
    /// irregular distribution, whose page requests are counted on the way,
    /// by rank-local arithmetic for a regular one — and located as
    /// [`place_and_locate`](crate::iterpart::place_and_locate) locates
    /// them; the rows are then deduplicated as
    /// [`Inspector::localize_located`] does. Both are rank-local kernels, so
    /// on the pooled [`Backend`] they run on the worker lanes; only the CSR
    /// assembly stays on the driver.
    ///
    /// Used by callers that bind the schedule into a resident ghost region
    /// ([`ReuseRegistry::region_bind`](crate::reuse::ReuseRegistry::region_bind))
    /// and then pay one [`charge_request_exchange`] for the ghosts still
    /// missing. Callers that do neither must charge the exchange themselves
    /// or the inspector cost is under-counted.
    pub fn localize_deferred_exchange<B: Backend>(
        &self,
        backend: &mut B,
        data_dist: &Distribution,
        pattern: &AccessPattern,
        scratch: &mut LocalizeScratch,
    ) -> InspectorResult {
        let nprocs = backend.nprocs();
        assert_eq!(
            pattern.refs.len(),
            nprocs,
            "access pattern must have one reference list per processor"
        );
        assert_eq!(
            data_dist.nprocs(),
            nprocs,
            "data distribution processor count must match the machine"
        );
        let mut located = Located::lend(scratch, nprocs, |p| pattern.refs[p].len());
        match data_dist {
            Distribution::Irregular { table } => {
                let (page_of, keys) = (table.page_of(), &table.packed);
                // `pages[p * nprocs + page]`: rank p's requests landing on
                // `page`.
                let mut pages = vec![0u32; nprocs * nprocs];
                let ranks = located.ranks.iter_mut().zip(pages.chunks_mut(nprocs));
                backend.run_compute(
                    ranks,
                    |ctx, (rank, pages): (&mut RankLocated, &mut [u32])| {
                        for &g in &pattern.refs[ctx.rank()] {
                            pages[page_of(g)] += 1;
                            rank.push(ctx.rank(), &[keys[g as usize]]);
                        }
                    },
                );
                charge_dereference(backend, &pages);
            }
            Distribution::Block { n, p } => {
                locate(backend, &mut located, pattern, block_key(*n, *p))
            }
            Distribution::Cyclic { n, p } => {
                locate(backend, &mut located, pattern, cyclic_key(*n, *p))
            }
        }
        localize_rows(backend, data_dist, located, scratch)
    }

    /// [`Inspector::localize_deferred_exchange`] over references already
    /// located by [`place_and_locate`](crate::iterpart::place_and_locate):
    /// the translation is charged first (the dereference's two rounds from
    /// the walk's page counts, or the locate charge), then the rows are
    /// deduplicated, with the same charges, results and schedule.
    pub fn localize_located<B: Backend>(
        &self,
        backend: &mut B,
        data_dist: &Distribution,
        located: Located,
        scratch: &mut LocalizeScratch,
    ) -> InspectorResult {
        assert_eq!(
            (located.ranks.len(), data_dist.nprocs()),
            (backend.nprocs(), backend.nprocs()),
            "located rows and distribution must have one entry per processor"
        );
        match &located.pages {
            Some(pages) => charge_dereference(backend, pages),
            None => backend.run_charges(|ctx| {
                ctx.charge_compute(ctx.rank(), located.ranks[ctx.rank()].row.len() as f64);
            }),
        }
        localize_rows(backend, data_dist, located, scratch)
    }
}

/// Locate each rank's pattern references through `key`, a regular
/// distribution's arithmetic, charging one operation per reference.
fn locate<B: Backend>(
    backend: &mut B,
    located: &mut Located,
    pattern: &AccessPattern,
    key: impl Fn(u32) -> u64 + Sync,
) {
    backend.run_compute(&mut located.ranks, |ctx, rank: &mut RankLocated| {
        let refs = &pattern.refs[ctx.rank()];
        ctx.charge_compute(ctx.rank(), refs.len() as f64);
        for &g in refs {
            rank.push(ctx.rank(), &[key(g)]);
        }
    });
}

/// Localize each rank's `located` row (steps 2 to 4 of the module docs).
///
/// Deduplication is hash-free and reads only the off-processor
/// references: the walk that located them left each one's owner count and
/// a pending `(key, position)` entry. The pending entries are set out in
/// one bucket per owner, in rank order, as `offset << 32 | position`;
/// sorting each bucket deduplicates it and assigns the ghost slots by rank
/// in that order, owner-major then offset (the paper's slot numbering), and
/// reaches every position holding each element, which is then rewritten to
/// its slot.
fn localize_rows<B: Backend>(
    backend: &mut B,
    data_dist: &Distribution,
    located: Located,
    scratch: &mut LocalizeScratch,
) -> InspectorResult {
    let nprocs = backend.nprocs();
    let mut ranks = located.ranks;
    let (buckets, offproc) = (&mut scratch.buckets, &mut scratch.offproc);
    buckets.resize_with(nprocs, Vec::new);
    offproc.resize_with(nprocs, Vec::new);
    let owned_counts: Vec<usize> = (0..nprocs).map(|p| data_dist.local_size(p)).collect();
    let state = ranks
        .iter_mut()
        .zip(buckets.iter_mut().zip(offproc.iter_mut()));
    backend.run_compute(state, |ctx, (rank, (bucket, offproc)): Rows<'_>| {
        let me = ctx.rank();
        let (locals, pending, end) = (&mut rank.row, &rank.pending, &mut rank.owners);
        assert!(
            u32::try_from(locals.len()).is_ok(),
            "rank {me} has more than u32::MAX references"
        );
        // `end[o]` counts owner `o`'s references, then becomes where
        // its bucket starts, then (once filled) where it ends.
        let mut start = 0;
        for n in end.iter_mut() {
            (*n, start) = (start, start + *n);
        }
        bucket.clear();
        bucket.resize(pending.len(), 0);
        for &(key, at) in pending {
            let next = &mut end[(key >> 32) as usize];
            bucket[*next as usize] = (key << 32) | u64::from(at);
            *next += 1;
        }
        // Ghost slots sit behind the owned elements in the rank's
        // local index space.
        let n_owned = owned_counts[me];
        offproc.clear();
        offproc.reserve(bucket.len());
        let mut begin = 0;
        for (owner, &end) in end.iter().enumerate() {
            let bucket = &mut bucket[begin..end as usize];
            bucket.sort_unstable();
            for &k in bucket.iter() {
                let key = ((owner as u64) << 32) | (k >> 32);
                if offproc.last() != Some(&key) {
                    offproc.push(key);
                }
                locals[k as u32 as usize] = (n_owned + offproc.len() - 1) as u32;
            }
            begin = end as usize;
        }
        assert!(
            u32::try_from(n_owned + offproc.len()).is_ok(),
            "local index space of rank {me} exceeds u32"
        );
        // Charge dedup / rewrite work: ~2 ops per reference plus 1
        // per distinct off-processor element (same model as the
        // paper's hash-table accounting — the layout changed, not
        // the cost).
        ctx.charge_compute(me, 2.0 * locals.len() as f64 + offproc.len() as f64);
    });
    let localized = ranks
        .iter_mut()
        .map(|rank| std::mem::take(&mut rank.row))
        .collect();
    scratch.ranks = ranks;

    // Serial CSR assembly of the per-rank dedup results (cheap: one
    // append pass over the ghost sets).
    scratch.ghost_off.clear();
    scratch.ghost_owner.clear();
    scratch.ghost_src.clear();
    scratch.ghost_off.push(0);
    let total_ghosts = scratch.offproc.iter().map(Vec::len).sum();
    scratch.ghost_off.reserve(nprocs);
    scratch.ghost_owner.reserve(total_ghosts);
    scratch.ghost_src.reserve(total_ghosts);
    let mut ghost_counts: Vec<usize> = Vec::with_capacity(nprocs);
    for offproc in scratch.offproc.iter() {
        for &k in offproc {
            scratch.ghost_owner.push((k >> 32) as u32);
            scratch.ghost_src.push(k as u32);
        }
        scratch.ghost_off.push(scratch.ghost_owner.len() as u32);
        ghost_counts.push(offproc.len());
    }

    // Step 3: build the communication schedule (its request exchange is
    // the caller's to charge). The schedule owns its arenas, so the
    // scratch arrays are cloned out — their capacity stays with the
    // scratch for the next run.
    let schedule = CommSchedule::from_csr_parts(
        nprocs,
        scratch.ghost_off.clone(),
        scratch.ghost_owner.clone(),
        scratch.ghost_src.clone(),
    );

    InspectorResult {
        schedule,
        localized,
        owned_counts,
        ghost_counts,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use chaos_dmsim::{Machine, MachineConfig};

    /// 8-element block array over 2 procs; proc 0 references globals
    /// [0, 5, 5, 1], proc 1 references [7, 2].
    fn pattern() -> AccessPattern {
        AccessPattern {
            refs: vec![vec![0, 5, 5, 1], vec![7, 2]],
        }
    }

    #[test]
    fn localize_block_distribution() {
        let mut m = Machine::new(MachineConfig::unit(2));
        let dist = Distribution::block(8, 2);
        let r = Inspector.localize(&mut m, &dist, &pattern());

        // Each proc owns 4 elements, so local index 4 is its ghost slot 0.
        assert_eq!(r.owned_counts, vec![4, 4]);
        // Proc 0: 0 and 1 are owned (offsets 0, 1); 5 is ghost (dedup to one slot).
        assert_eq!(r.localized[0], vec![0, 4, 4, 1]);
        // Proc 1: 7 owned at offset 3; 2 is ghost slot 0.
        assert_eq!(r.localized[1], vec![3, 4]);
        assert_eq!(r.ghost_counts, vec![1, 1]);
        assert_eq!(r.schedule.total_ghosts(), 2);
        assert_eq!(r.schedule.message_count(), 2);
        assert!((r.local_fraction() - 3.0 / 6.0).abs() < 1e-12);
    }

    #[test]
    fn localize_irregular_distribution() {
        let mut m = Machine::new(MachineConfig::unit(2));
        // Interleave ownership: evens on 0, odds on 1.
        let map: Vec<u32> = (0..8).map(|i| (i % 2) as u32).collect();
        let dist = Distribution::irregular_from_map(&map, 2);
        let r = Inspector.localize(&mut m, &dist, &pattern());
        // Proc 0 refs [0,5,5,1]: 0 owned (offset 0), 5 ghost, 1 ghost.
        assert_eq!(r.owned_counts, vec![4, 4]);
        assert_eq!(r.localized[0][0], 0);
        assert!(r.localized[0][1] >= 4, "5 is off-processor");
        assert_eq!(r.localized[0][1], r.localized[0][2]);
        assert_eq!(r.ghost_counts[0], 2); // globals 5 and 1
                                          // Proc 1 refs [7,2]: 7 owned (local offset 3), 2 ghost.
        assert_eq!(r.localized[1][0], 3);
        assert_eq!(r.ghost_counts[1], 1);
    }

    #[test]
    fn localize_charges_the_machine() {
        let mut m = Machine::new(MachineConfig::unit(2));
        let dist = Distribution::block(8, 2);
        let _ = Inspector.localize(&mut m, &dist, &pattern());
        assert!(m.elapsed().max_seconds() > 0.0);
        assert!(m.stats().grand_totals().messages > 0);
    }

    #[test]
    fn fully_local_pattern_has_no_ghosts() {
        let mut m = Machine::new(MachineConfig::unit(2));
        let dist = Distribution::block(8, 2);
        let p = AccessPattern {
            refs: vec![vec![0, 1, 2, 3], vec![4, 5, 6, 7]],
        };
        let r = Inspector.localize(&mut m, &dist, &p);
        assert_eq!(r.schedule.total_ghosts(), 0);
        assert_eq!(r.local_fraction(), 1.0);
        assert!(r.localized.iter().flatten().all(|&idx| idx < 4));
    }

    #[test]
    fn empty_pattern_is_fine() {
        let mut m = Machine::new(MachineConfig::unit(2));
        let dist = Distribution::block(8, 2);
        let r = Inspector.localize(&mut m, &dist, &AccessPattern::new(2));
        assert_eq!(r.schedule.total_ghosts(), 0);
        assert_eq!(r.local_fraction(), 1.0);
        assert_eq!(AccessPattern::new(2).total_refs(), 0);
    }

    #[test]
    fn scratch_can_be_reused_across_machine_sizes() {
        // The per-rank scratch rows must follow the machine size in both
        // directions (resize_with truncates as well as grows), so one
        // scratch can serve inspectors on differently-sized machines.
        let mut scratch = LocalizeScratch::default();
        let mut big = Machine::new(MachineConfig::unit(4));
        let dist4 = Distribution::block(8, 4);
        let p4 = AccessPattern {
            refs: vec![vec![0, 7], vec![1], vec![6], vec![2, 3]],
        };
        let r4 = Inspector.localize_with_scratch(&mut big, "L", &dist4, &p4, &mut scratch);
        assert_eq!(r4.localized.len(), 4);

        let mut small = Machine::new(MachineConfig::unit(2));
        let dist2 = Distribution::block(8, 2);
        let r2 = Inspector.localize_with_scratch(&mut small, "L", &dist2, &pattern(), &mut scratch);
        assert_eq!(r2.localized.len(), 2);
        assert_eq!(r2.ghost_counts, vec![1, 1]);
        // Same result as a fresh-scratch run.
        let mut fresh = Machine::new(MachineConfig::unit(2));
        let reference = Inspector.localize(&mut fresh, &dist2, &pattern());
        assert_eq!(r2.localized, reference.localized);
        assert_eq!(r2.schedule, reference.schedule);
    }

    #[test]
    fn resolve_reads_from_the_right_buffer() {
        let local = [10.0, 11.0];
        let ghosts = [99.0];
        assert_eq!(*resolve_local(1, &local, &ghosts), 11.0);
        assert_eq!(*resolve_local(2, &local, &ghosts), 99.0);
        let (mut local, mut ghosts) = (local, ghosts);
        *resolve_local_mut(0, &mut local, &mut ghosts) += 1.0;
        *resolve_local_mut(2, &mut local, &mut ghosts) += 1.0;
        assert_eq!((local, ghosts), ([11.0, 11.0], [100.0]));
    }

    #[test]
    #[should_panic(expected = "one reference list per processor")]
    fn wrong_pattern_shape_panics() {
        let mut m = Machine::new(MachineConfig::unit(4));
        let dist = Distribution::block(8, 4);
        let _ = Inspector.localize(&mut m, &dist, &AccessPattern::new(2));
    }
}
