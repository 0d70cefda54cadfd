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
//! Step 1 has two forms. [`Inspector::localize`] and its variants translate
//! an [`AccessPattern`]. The lang inspector translates the references of
//! the group that places a loop's iterations where it places them
//! ([`place_and_locate`](crate::iterpart::place_and_locate)) and hands the
//! [`Located`] rows to [`Inspector::localize_located`], which charges the
//! translation and runs steps 2 to 4 over them, as the pattern forms do.
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

use crate::dist::Distribution;
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
/// The inspector's working set — packed translated references, the per-
/// processor off-processor references and dedup buffer, and the flat
/// ghost-source arrays handed to the schedule constructor — lives here, so
/// a loop that re-runs its inspector (the schedule-reuse miss path) stops
/// allocating once the buffers have grown to the workload's size. The lang
/// `Executor` keeps one between inspections.
#[derive(Debug, Clone, Default)]
pub struct LocalizeScratch {
    /// Packed `owner << 32 | offset` location of every reference, per proc.
    pub(crate) located: Vec<Vec<u64>>,
    /// Sorted, deduplicated off-processor keys, per proc (rank-local so the
    /// dedup kernels can run one per thread).
    offproc: Vec<Vec<u64>>,
    /// One word of off-processor flags per 64 references, per proc: their
    /// count sizes `pending` exactly.
    flags: Vec<Vec<u64>>,
    /// The off-processor references as `offset << 32 | position`, bucketed
    /// by owner in rank order, per proc: each bucket sorted, they give the
    /// ghost slots and where each one is written.
    pending: Vec<Vec<u64>>,
    /// Flat CSR ghost-source arrays under construction.
    ghost_off: Vec<u32>,
    ghost_owner: Vec<u32>,
    ghost_src: Vec<u32>,
}

/// A group's references translated to packed `owner << 32 | offset` keys
/// by [`place_and_locate`](crate::iterpart::place_and_locate), not yet
/// localized or charged.
#[derive(Debug)]
pub struct Located {
    /// Each rank's keys, its iterations in ascending order, a row each.
    pub(crate) rows: Vec<Vec<u64>>,
    /// Each rank's requests per table page (`pages[p * nprocs + page]`)
    /// when the translation is the dereference; `None` for BLOCK or CYCLIC.
    pub(crate) pages: Option<Vec<u32>>,
}

/// One rank's rows of the dedup / rewrite kernel: its off-processor flags,
/// its bucketed off-processor references, its deduplicated keys and its
/// localized references.
type Rows<'a> = (
    ((&'a mut Vec<u64>, &'a mut Vec<u64>), &'a mut Vec<u64>),
    &'a mut Vec<u32>,
);

/// The positions of the set bits of `flags`, in ascending order.
fn set_bits(flags: &[u64]) -> impl Iterator<Item = usize> + '_ {
    flags.iter().enumerate().flat_map(|(c, &word)| {
        let mut rest = word;
        std::iter::from_fn(move || {
            let bit = (rest != 0).then(|| c * 64 + rest.trailing_zeros() as usize);
            rest &= rest.wrapping_sub(1);
            bit
        })
    })
}

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
    /// Every reference is translated to a packed `owner << 32 | offset` key
    /// — by dereferencing the translation table in one batched pass for an
    /// irregular distribution, by rank-local arithmetic for a regular one —
    /// and the rows are then localized as [`Inspector::localize_located`]
    /// does. Both are rank-local kernels, so on the pooled [`Backend`] they
    /// run on the worker lanes; only the CSR assembly stays on the driver.
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
        let mut rows = std::mem::take(&mut scratch.located);
        match data_dist {
            Distribution::Irregular { table } => {
                table.dereference(backend, &pattern.refs, &mut rows);
            }
            _ => {
                rows.resize_with(nprocs, Vec::new);
                backend.run_compute(rows.iter_mut(), |ctx, row: &mut Vec<u64>| {
                    let refs = &pattern.refs[ctx.rank()];
                    ctx.charge_compute(ctx.rank(), refs.len() as f64);
                    row.clear();
                    row.reserve(refs.len());
                    for &g in refs {
                        let (o, off) = data_dist.locate(g as usize);
                        row.push(((o as u64) << 32) | off as u64);
                    }
                });
            }
        }
        let result = localize_rows(backend, data_dist, &rows, scratch);
        scratch.located = rows;
        result
    }

    /// [`Inspector::localize_deferred_exchange`] over references already
    /// translated by [`place_and_locate`](crate::iterpart::place_and_locate):
    /// the translation is charged first (the dereference's two rounds from
    /// the walk's page counts, or the locate charge), then the rows are
    /// localized, with the same charges, results and schedule.
    pub fn localize_located<B: Backend>(
        &self,
        backend: &mut B,
        data_dist: &Distribution,
        located: Located,
        scratch: &mut LocalizeScratch,
    ) -> InspectorResult {
        let Located { rows, pages } = located;
        assert_eq!(
            (rows.len(), data_dist.nprocs()),
            (backend.nprocs(), backend.nprocs()),
            "located rows and distribution must have one entry per processor"
        );
        match pages {
            Some(pages) => charge_dereference(backend, &pages),
            None => backend.run_charges(|ctx| {
                ctx.charge_compute(ctx.rank(), rows[ctx.rank()].len() as f64);
            }),
        }
        let result = localize_rows(backend, data_dist, &rows, scratch);
        scratch.located = rows;
        result
    }
}

/// Localize each rank's located `rows` (steps 2 to 4 of the module docs).
///
/// Deduplication is hash-free. One pass over a rank's keys rewrites the
/// owned ones to their offsets where they stand and flags the
/// off-processor ones. Those are counted per owner and set out in one
/// bucket per owner, in rank order, as `offset << 32 | position`; sorting
/// each bucket deduplicates it and assigns the ghost slots by rank in that
/// order, owner-major then offset (the paper's slot numbering), and reaches
/// every position holding each element, which is then rewritten to its
/// slot.
fn localize_rows<B: Backend>(
    backend: &mut B,
    data_dist: &Distribution,
    rows: &[Vec<u64>],
    scratch: &mut LocalizeScratch,
) -> InspectorResult {
    let nprocs = backend.nprocs();
    let (flags, pending) = (&mut scratch.flags, &mut scratch.pending);
    let offproc = &mut scratch.offproc;
    flags.resize_with(nprocs, Vec::new);
    pending.resize_with(nprocs, Vec::new);
    offproc.resize_with(nprocs, Vec::new);
    let owned_counts: Vec<usize> = (0..nprocs).map(|p| data_dist.local_size(p)).collect();
    let mut localized: Vec<Vec<u32>> = Vec::new();
    localized.resize_with(nprocs, Vec::new);
    let state = flags
        .iter_mut()
        .zip(pending.iter_mut())
        .zip(offproc.iter_mut())
        .zip(localized.iter_mut());
    backend.run_compute(
        state,
        |ctx, (((flags, pending), offproc), locals): Rows<'_>| {
            let me = ctx.rank();
            let located = &rows[me];
            assert!(
                u32::try_from(located.len()).is_ok(),
                "rank {me} has more than u32::MAX references"
            );
            // The one pass over the references, 64 at a time: their low
            // words (an owned reference's offset) are copied as a block,
            // beside a word of off-processor flags. Only the flagged
            // positions are visited again.
            flags.clear();
            flags.reserve_exact(located.len().div_ceil(64));
            locals.reserve_exact(located.len());
            for chunk in located.chunks(64) {
                locals.extend(chunk.iter().map(|&k| k as u32));
                let flag = |(j, &k): (usize, &u64)| u64::from((k >> 32) != me as u64) << j;
                flags.push(chunk.iter().enumerate().map(flag).fold(0, |a, b| a | b));
            }
            // `end[o]` counts owner `o`'s references, then becomes where
            // its bucket starts, then (once filled) where it ends.
            let mut end = vec![0u32; nprocs];
            for at in set_bits(flags) {
                end[(located[at] >> 32) as usize] += 1;
            }
            let mut start = 0;
            for n in end.iter_mut() {
                (*n, start) = (start, start + *n);
            }
            pending.clear();
            pending.resize(start as usize, 0);
            for at in set_bits(flags) {
                let k = located[at];
                let next = &mut end[(k >> 32) as usize];
                pending[*next as usize] = (k << 32) | at as u64;
                *next += 1;
            }
            // Ghost slots sit behind the owned elements in the rank's
            // local index space.
            let n_owned = owned_counts[me];
            offproc.clear();
            offproc.reserve(pending.len());
            let mut begin = 0;
            for (owner, &end) in end.iter().enumerate() {
                let bucket = &mut pending[begin..end as usize];
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
            ctx.charge_compute(me, 2.0 * located.len() as f64 + offproc.len() as f64);
        },
    );

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
