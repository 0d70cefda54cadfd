//! Conservative inspector / communication-schedule reuse (Section 3 of the
//! paper).
//!
//! The registry maintains the paper's runtime record:
//!
//! * `nmod` — a global counter of how many loops / array intrinsics /
//!   statements have modified *any* distributed array ("a global time
//!   stamp"; note it counts executed writing blocks, not individual element
//!   assignments),
//! * `last_mod(DAD)` — for each data access descriptor, the value of `nmod`
//!   when an array with that DAD was last (possibly) written,
//! * per-loop records of the DADs of the loop's data arrays, the DADs of its
//!   indirection arrays, and the `last_mod` stamps of the indirection arrays
//!   at the time the loop's inspector last ran.
//!
//! Before re-executing a loop the generated code asks [`ReuseRegistry::check`];
//! the saved inspector results (schedules, iteration partitions, ghost-buffer
//! bindings) may be reused only when every data-array DAD and every
//! indirection-array DAD is unchanged **and** no indirection array may have
//! been written since the last inspector. Anything else conservatively
//! triggers a fresh inspector.
//!
//! A fresh inspector's schedule is bound into the shared [`GhostRegion`] of
//! its distribution ([`ReuseRegistry::region_bind`]): only the ghosts no
//! earlier bind requested are fetched again. The region keeps a sorted
//! index of its sources, so a re-inspection whose ghosts are all resident
//! — every sweep of a loop run without reuse — costs one lookup per ghost
//! and leaves the region untouched.

use crate::dad::Dad;
use crate::schedule::CommSchedule;
use chaos_dmsim::{collectives, Machine};
use std::borrow::Borrow;
use std::collections::HashMap;
use std::sync::{Mutex, OnceLock};

/// The process-wide loop-name interner behind [`LoopId`]: name → dense id
/// plus the reverse table for diagnostics.
#[derive(Debug, Default)]
struct LoopInterner {
    ids: HashMap<String, u32>,
    names: Vec<String>,
}

fn interner() -> &'static Mutex<LoopInterner> {
    static INTERNER: OnceLock<Mutex<LoopInterner>> = OnceLock::new();
    INTERNER.get_or_init(|| Mutex::new(LoopInterner::default()))
}

/// Identifier of an irregular loop (one per source-level FORALL).
///
/// A `LoopId` is a dense interned `u32` handle: the loop's source label is
/// hashed exactly once, when the id is created, and every subsequent use —
/// in particular the per-sweep [`ReuseRegistry::check`] — is a plain array
/// index with no `String` hashing or cloning. Two ids are equal iff their
/// labels are equal. The handle is process-local (it indexes this
/// process's interner), so it is deliberately *not* serializable; persist
/// the loop label ([`LoopId::name`]) instead.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct LoopId(u32);

impl LoopId {
    /// Intern `name`, returning its dense id (stable for the lifetime of
    /// the process; creating the same name twice yields the same id).
    pub fn new(name: &str) -> Self {
        let mut interner = interner().lock().expect("loop interner poisoned");
        if let Some(&id) = interner.ids.get(name) {
            return LoopId(id);
        }
        let id = interner.names.len() as u32;
        interner.names.push(name.to_string());
        interner.ids.insert(name.to_string(), id);
        LoopId(id)
    }

    /// The dense index of this id (used by [`ReuseRegistry`] to address its
    /// per-loop records without hashing).
    #[inline]
    pub fn index(&self) -> usize {
        self.0 as usize
    }

    /// The interned loop label.
    pub fn name(&self) -> String {
        interner().lock().expect("loop interner poisoned").names[self.0 as usize].clone()
    }
}

impl std::fmt::Display for LoopId {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "{}", self.name())
    }
}

/// What a loop's inspector recorded the last time it ran: the DADs and the
/// indirection arrays' stamps.
#[derive(Debug, Clone)]
struct LoopRecord {
    /// `L.DAD(x_i)` for each data array.
    data: Vec<Dad>,
    /// `L.DAD(ind_j)` for each indirection array.
    ind: Vec<Dad>,
    /// `L.last_mod(DAD(ind_j))` for each indirection array.
    ind_stamps: Vec<u64>,
}

/// Why an inspector had to be re-run.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum RerunReason {
    /// The loop has never run an inspector.
    FirstExecution,
    /// The number of data or indirection arrays changed (conservative
    /// structural mismatch).
    ShapeChanged,
    /// Data array `index` now has a different DAD (e.g. it was remapped).
    DataDadChanged {
        /// Position of the array in the loop's data-array list.
        index: usize,
    },
    /// Indirection array `index` now has a different DAD.
    IndirectionDadChanged {
        /// Position of the array in the loop's indirection-array list.
        index: usize,
    },
    /// Indirection array `index` may have been written since the last
    /// inspector ran.
    IndirectionModified {
        /// Position of the array in the loop's indirection-array list.
        index: usize,
    },
}

/// The outcome of a reuse check.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum ReuseDecision {
    /// Every condition holds: reuse the saved inspector results.
    Reuse,
    /// At least one condition failed: re-run the inspector. The reasons are
    /// reported for diagnostics and for the benches' bookkeeping.
    Rerun(Vec<RerunReason>),
}

impl ReuseDecision {
    /// True when the saved results may be reused.
    pub fn can_reuse(&self) -> bool {
        matches!(self, ReuseDecision::Reuse)
    }
}

/// The union of ghost elements every loop over one distribution's DAD has
/// bound so far — the shared resident ghost region incremental
/// schedules fetch into.
///
/// The region is **append-only**: a [`ReuseRegistry::region_bind`] that
/// finds sources missing adds them as one *chunk* per processor, and
/// existing slot numbers never move — so the re-binding maps earlier loops
/// received stay valid forever. A bind that finds nothing missing (a loop
/// re-inspected with its references unchanged) adds no chunk, so the region
/// grows with the ghosts requested, not with the inspections run. A loop
/// that re-binds leaves its earlier chunk's slots where they are (offset
/// stability); value freshness is tracked per chunk by the consumer.
///
/// Beside the resident schedule the region keeps, per processor, its
/// sources sorted with their slots. A bind looks each of its sources up
/// there once, which yields the slot map, the dependencies, the difference
/// and the fresh tail in one pass; an append extends the index, and a bind
/// that appends nothing leaves the resident schedule as it is.
#[derive(Debug, Clone)]
pub struct GhostRegion {
    /// Union schedule over all chunks, per-processor in chunk order (NOT
    /// globally canonical — each chunk is internally `(owner, offset)`
    /// sorted).
    resident: CommSchedule,
    /// Per processor, the chunk boundaries: chunk `c`'s slots on processor
    /// `p` are `chunk_off[p][c] .. chunk_off[p][c+1]`. Length `nchunks + 1`.
    chunk_off: Vec<Vec<u32>>,
    /// Per processor, every resident source as `(owner << 32 | offset,
    /// slot)`, sorted: what a bind looks each of its sources up in, once.
    index: Vec<Vec<(u64, u32)>>,
}

/// What a slot map holds for a missing source until its fresh slot is
/// known.
const MISSING: u32 = u32::MAX;

/// The first position at or after `from` in the sorted `index` whose source
/// is not below `key`, every source in `index[..from]` being below it: a
/// gallop from `from`, so a bind whose sources come sorted walks the index
/// once.
fn seek(index: &[(u64, u32)], from: usize, key: u64) -> usize {
    let (mut lo, mut step) = (from, 1);
    while lo + step <= index.len() && index[lo + step - 1].0 < key {
        lo += step;
        step *= 2;
    }
    let hi = (lo + step).min(index.len());
    lo + index[lo..hi].partition_point(|&(k, _)| k < key)
}

impl GhostRegion {
    fn empty(nprocs: usize) -> Self {
        GhostRegion {
            resident: CommSchedule::from_csr_parts(
                nprocs,
                vec![0; nprocs + 1],
                Vec::new(),
                Vec::new(),
            ),
            chunk_off: vec![vec![0]; nprocs],
            index: vec![Vec::new(); nprocs],
        }
    }

    /// Append each rank's fresh tail (sorted, deduplicated, none of it
    /// resident) as one new chunk, and index it; returns the chunk.
    fn append(&mut self, fresh: &[Vec<u64>]) -> u32 {
        let nprocs = self.chunk_off.len();
        let chunk = self.nchunks() as u32;
        let (mut ghost_off, mut ghost_owner, mut ghost_src) = (vec![0u32], Vec::new(), Vec::new());
        for (p, tail) in fresh.iter().enumerate() {
            let base = self.size(p) as u32;
            ghost_owner.extend_from_slice(self.resident.ghost_owners(p));
            ghost_src.extend_from_slice(self.resident.ghost_src_offsets(p));
            ghost_owner.extend(tail.iter().map(|&k| (k >> 32) as u32));
            ghost_src.extend(tail.iter().map(|&k| k as u32));
            ghost_off.push(ghost_owner.len() as u32);
            let index = &mut self.index[p];
            index.extend(tail.iter().copied().zip(base..));
            index.sort_unstable();
            self.chunk_off[p].push(base + tail.len() as u32);
        }
        self.resident = CommSchedule::from_csr_parts(nprocs, ghost_off, ghost_owner, ghost_src);
        chunk
    }

    /// The resident union schedule (all chunks).
    pub fn resident(&self) -> &CommSchedule {
        &self.resident
    }

    /// Number of chunks appended so far.
    pub fn nchunks(&self) -> usize {
        self.chunk_off.first().map_or(0, |off| off.len() - 1)
    }

    /// Region row length (total resident ghost slots) for processor `p`.
    pub fn size(&self, p: usize) -> usize {
        self.resident.ghost_count(p)
    }

    /// Panic, naming the broken invariant, unless the region's chunks and
    /// the binding `bind` just made are consistent: on every rank the same
    /// number of chunks, `chunk_off` monotone from 0 to the row size; each
    /// `slot_map[p]` injective into the row; the appended chunk (if any) the
    /// last one, starting at `base[p]` and `diff.ghost_count(p)` slots long
    /// (with none appended, `base[p]` is the row size and `diff` is empty);
    /// and `deps` sorted, deduplicated and below the appended chunk.
    /// Allocation-free; run after every bind in debug builds.
    fn check_binding(&self, bind: &RegionBinding) {
        let nprocs = self.chunk_off.len();
        let nchunks = self.nchunks();
        assert!(
            bind.slot_map.len() == nprocs && bind.base.len() == nprocs,
            "region invariant: the binding does not have one row per rank"
        );
        assert!(
            bind.chunk.is_none_or(|c| c as usize + 1 == nchunks),
            "region invariant: the appended chunk is not the last"
        );
        // The appended chunk, or the empty one past the last.
        let (start, end) = match bind.chunk {
            Some(c) => (c as usize, c as usize + 1),
            None => (nchunks, nchunks),
        };
        assert!(
            bind.deps.windows(2).all(|w| w[0] < w[1])
                && bind.deps.iter().all(|&c| (c as usize) < start),
            "region invariant: deps are not sorted, deduplicated and below the chunk"
        );
        for p in 0..nprocs {
            let (offs, size) = (&self.chunk_off[p], self.size(p));
            assert!(
                offs.len() == nchunks + 1 && offs[0] == 0 && offs.windows(2).all(|w| w[0] <= w[1]),
                "region invariant: rank {p}'s chunk_off is not monotone over {nchunks} chunks"
            );
            assert_eq!(
                offs[nchunks] as usize, size,
                "region invariant: rank {p}'s chunk_off does not end at the row size"
            );
            let map = &bind.slot_map[p];
            for (i, &slot) in map.iter().enumerate() {
                assert!(
                    (slot as usize) < size && !map[..i].contains(&slot),
                    "region invariant: rank {p}'s slot map is not injective into its row"
                );
            }
            assert!(
                bind.base[p] == offs[start]
                    && bind.base[p] as usize + bind.diff.ghost_count(p) == offs[end] as usize,
                "region invariant: rank {p}'s base and fetch are not the chunk's slots"
            );
        }
    }
}

/// A loop's binding into a [`GhostRegion`]: which chunk it appended, which
/// earlier chunks its re-used slots live in, and how its own schedule's
/// ghost slots map into the region rows.
#[derive(Debug, Clone)]
pub struct RegionBinding {
    /// The DAD of the distribution whose region this binds into.
    pub dad: Dad,
    /// The chunk this bind appended: what a fetch of
    /// [`RegionBinding::diff`] makes value-fresh. `None` when nothing was
    /// missing — `diff` is empty and there is nothing to mark.
    pub chunk: Option<u32>,
    /// Earlier chunks (sorted, deduplicated) holding slots this loop reads —
    /// the chunks that must be value-fresh for the incremental fetch to be
    /// sufficient. Never includes [`RegionBinding::chunk`] itself.
    pub deps: Vec<u32>,
    /// Per processor, the region slot of each of the loop's own ghost slots.
    pub slot_map: Vec<Vec<u32>>,
    /// The sources this loop needed that no earlier chunk held — the
    /// incremental fetch schedule.
    pub diff: CommSchedule,
    /// Per processor, the region offset this bind's chunk starts at (the
    /// base of the fetch's [`crate::executor::Landing::Offset`]).
    pub base: Vec<u32>,
}

/// The global runtime record (`nmod`, `last_mod`, per-loop records).
#[derive(Debug, Clone, Default)]
pub struct ReuseRegistry {
    nmod: u64,
    last_mod: HashMap<Dad, u64>,
    /// Per-loop records, dense-indexed by [`LoopId::index`] — the per-sweep
    /// reuse check is a bounds-checked array load, never a string hash.
    records: Vec<Option<LoopRecord>>,
    /// Shared resident ghost regions, one per distribution DAD.
    regions: HashMap<Dad, GhostRegion>,
}

impl ReuseRegistry {
    /// Fresh registry (program start).
    pub fn new() -> Self {
        Self::default()
    }

    /// Current value of the global modification stamp.
    pub fn nmod(&self) -> u64 {
        self.nmod
    }

    /// `last_mod` for a DAD (0 when never written).
    pub fn last_mod(&self, dad: &Dad) -> u64 {
        self.last_mod.get(dad).copied().unwrap_or(0)
    }

    /// Record that one block of code (a loop, an array intrinsic or a
    /// statement) has possibly written the arrays with the given DADs.
    /// Increments `nmod` once for the block (not at all for an empty one),
    /// then stamps every DAD — this is the "once per loop or array intrinsic
    /// call" bookkeeping the paper argues keeps the overhead low.
    pub fn record_write_block(&mut self, dads: impl IntoIterator<Item: Borrow<Dad>>) {
        let stamp = self.nmod + 1;
        for dad in dads {
            self.nmod = stamp;
            self.last_mod.insert(*dad.borrow(), stamp);
        }
    }

    /// Record a write to a single distributed array.
    pub fn record_write(&mut self, dad: &Dad) {
        self.record_write_block([dad]);
    }

    /// Record that an array was remapped: its DAD changed from `old` to
    /// `new`. The paper: "If the array a is remapped, it means that DAD(a)
    /// changes. In this case, we increment nmod and then set
    /// last_mod(DAD(a)) = nmod."
    pub fn record_remap(&mut self, old: &Dad, new: &Dad) {
        self.record_write_block([old, new]);
    }

    /// Store what loop `id`'s inspector saw (call right after running the
    /// inspector): every DAD and the indirection arrays' current stamps.
    pub fn save_inspector<D, I>(&mut self, id: LoopId, data_dads: D, ind_dads: I)
    where
        D: IntoIterator<Item: Borrow<Dad>>,
        I: IntoIterator<Item: Borrow<Dad>>,
    {
        let ind: Vec<Dad> = ind_dads.into_iter().map(|d| *d.borrow()).collect();
        let record = LoopRecord {
            data: data_dads.into_iter().map(|d| *d.borrow()).collect(),
            ind_stamps: ind.iter().map(|dad| self.last_mod(dad)).collect(),
            ind,
        };
        if self.records.len() <= id.index() {
            self.records.resize_with(id.index() + 1, || None);
        }
        self.records[id.index()] = Some(record);
    }

    /// The saved record for a loop, if any.
    fn record(&self, id: &LoopId) -> Option<&LoopRecord> {
        self.records.get(id.index()).and_then(Option::as_ref)
    }

    /// Perform the reuse check for loop `id` given the arrays' *current*
    /// DADs, in the order they were saved — slices, or DADs read in place
    /// off the arrays: nothing is collected, and a check that reuses
    /// allocates nothing. Does not mutate the registry.
    pub fn check<D, I>(&self, id: &LoopId, data_dads: D, ind_dads: I) -> ReuseDecision
    where
        D: IntoIterator<Item: Borrow<Dad>, IntoIter: ExactSizeIterator>,
        I: IntoIterator<Item: Borrow<Dad>, IntoIter: ExactSizeIterator>,
    {
        let (data, ind) = (data_dads.into_iter(), ind_dads.into_iter());
        let Some(record) = self.record(id) else {
            return ReuseDecision::Rerun(vec![RerunReason::FirstExecution]);
        };
        if record.data.len() != data.len() || record.ind.len() != ind.len() {
            return ReuseDecision::Rerun(vec![RerunReason::ShapeChanged]);
        }
        let mut reasons = Vec::new();
        // Condition 1: DAD(x_i) == L.DAD(x_i)
        for (index, (cur, saved)) in data.zip(&record.data).enumerate() {
            if cur.borrow() != saved {
                reasons.push(RerunReason::DataDadChanged { index });
            }
        }
        // Condition 2: DAD(ind_j) == L.DAD(ind_j), and condition 3:
        // last_mod(DAD(ind_j)) == L.last_mod(DAD(ind_j)), reported after it.
        let mut modified = Vec::new();
        let saved = record.ind.iter().zip(&record.ind_stamps);
        for (index, (cur, (saved, &stamp))) in ind.zip(saved).enumerate() {
            let cur = cur.borrow();
            if cur != saved {
                reasons.push(RerunReason::IndirectionDadChanged { index });
            }
            if self.last_mod(cur) != stamp {
                modified.push(RerunReason::IndirectionModified { index });
            }
        }
        reasons.append(&mut modified);
        if reasons.is_empty() {
            ReuseDecision::Reuse
        } else {
            ReuseDecision::Rerun(reasons)
        }
    }

    /// Perform the reuse check *on the simulated machine*, charging the small
    /// global agreement it costs: every processor evaluates its local view of
    /// the conditions (a handful of comparisons per array) and the results
    /// are combined with a single-word all-reduce — all processors must
    /// agree before anyone may skip its inspector, and on the simulator they
    /// always do. Returns the same decision as [`ReuseRegistry::check`].
    pub fn check_on_machine<D, I>(
        &self,
        machine: &mut Machine,
        id: &LoopId,
        data_dads: D,
        ind_dads: I,
    ) -> ReuseDecision
    where
        D: IntoIterator<Item: Borrow<Dad>, IntoIter: ExactSizeIterator>,
        I: IntoIterator<Item: Borrow<Dad>, IntoIter: ExactSizeIterator>,
    {
        let (data, ind) = (data_dads.into_iter(), ind_dads.into_iter());
        machine.charge_compute_all((data.len() + 2 * ind.len()) as f64);
        collectives::charge_all_reduce_word(machine);
        self.check(id, data, ind)
    }

    /// Bind a loop's schedule into the shared resident ghost region of the
    /// distribution whose DAD is `dad`, creating the region on first use.
    ///
    /// Each of the schedule's sources is looked up once in the region's
    /// index: a held one maps to its resident slot and marks its chunk a
    /// dependency, a missing one joins the difference schedule and the
    /// fresh tail. The fresh tails, sorted by `(owner, offset)`, are
    /// appended as a new chunk; when none is missing — the same loop
    /// re-inspected over unchanged references, the `with_reuse(false)`
    /// steady state — nothing is appended and the resident schedule is
    /// left as it is. The returned binding carries the difference schedule
    /// to fetch, the per-processor chunk bases, the slot map into the
    /// region, and the earlier chunks whose values the loop piggybacks on.
    /// Purely local bookkeeping — no communication is charged here; the
    /// caller owns the (folded) request exchange for `diff`.
    pub fn region_bind(&mut self, dad: Dad, schedule: &CommSchedule) -> RegionBinding {
        let nprocs = schedule.nprocs();
        let region = self
            .regions
            .entry(dad)
            .or_insert_with(|| GhostRegion::empty(nprocs));
        assert_eq!(
            region.resident.nprocs(),
            nprocs,
            "region/schedule machine size mismatch"
        );
        let base: Vec<u32> = (0..nprocs).map(|p| region.size(p) as u32).collect();
        let mut needed = vec![false; region.nchunks()];
        let mut slot_map = Vec::with_capacity(nprocs);
        // The missing sources in the schedule's slot order (the diff's
        // ghost side), and each rank's fresh tail: those sources sorted and
        // deduplicated, the slots the new chunk holds.
        let (mut diff_off, mut diff_owner, mut diff_src) = (vec![0u32], Vec::new(), Vec::new());
        let mut fresh: Vec<Vec<u64>> = vec![Vec::new(); nprocs];
        for (p, tail) in fresh.iter_mut().enumerate() {
            let (index, offs) = (&region.index[p], &region.chunk_off[p]);
            let mut map = Vec::with_capacity(schedule.ghost_count(p));
            let (mut at, mut last) = (0, 0);
            for (o, s) in schedule.ghost_sources(p) {
                let key = ((o as u64) << 32) | s as u64;
                at = seek(index, if key >= last { at } else { 0 }, key);
                last = key;
                match index.get(at) {
                    Some(&(held, slot)) if held == key => {
                        needed[offs.partition_point(|&off| off <= slot) - 1] = true;
                        map.push(slot);
                    }
                    _ => {
                        diff_owner.push(o);
                        diff_src.push(s);
                        tail.push(key);
                        map.push(MISSING);
                    }
                }
            }
            diff_off.push(diff_owner.len() as u32);
            if !tail.is_empty() {
                tail.sort_unstable();
                tail.dedup();
                let sources = schedule.ghost_sources(p);
                for (slot, (o, s)) in map.iter_mut().zip(sources) {
                    if *slot == MISSING {
                        let key = ((o as u64) << 32) | s as u64;
                        *slot = base[p] + tail.partition_point(|&k| k < key) as u32;
                    }
                }
            }
            slot_map.push(map);
        }
        let deps: Vec<u32> = (0..needed.len() as u32)
            .filter(|&c| needed[c as usize])
            .collect();
        let diff = CommSchedule::from_csr_parts(nprocs, diff_off, diff_owner, diff_src);
        let chunk = (diff.total_ghosts() > 0).then(|| region.append(&fresh));
        let bind = RegionBinding {
            dad,
            chunk,
            deps,
            slot_map,
            diff,
            base,
        };
        if cfg!(debug_assertions) {
            region.check_binding(&bind);
        }
        bind
    }

    /// The resident ghost region for a distribution's DAD, if any loop has
    /// bound into it.
    pub fn region(&self, dad: Dad) -> Option<&GhostRegion> {
        self.regions.get(&dad)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::dist::Distribution;
    use chaos_dmsim::MachineConfig;

    fn block_dad(n: usize) -> Dad {
        Dad::of(&Distribution::block(n, 4))
    }

    #[test]
    fn loop_ids_are_interned_dense_handles() {
        let a = LoopId::new("interning-test-L1");
        let b = LoopId::new("interning-test-L1");
        let c = LoopId::new("interning-test-L2");
        assert_eq!(a, b, "same label interns to the same id");
        assert_eq!(a.index(), b.index());
        assert_ne!(a, c);
        assert_eq!(a.name(), "interning-test-L1");
        assert_eq!(format!("{c}"), "interning-test-L2");
    }

    #[test]
    fn first_execution_requires_inspector() {
        let reg = ReuseRegistry::new();
        let d = block_dad(100);
        let decision = reg.check(
            &LoopId::new("L2"),
            std::slice::from_ref(&d),
            std::slice::from_ref(&d),
        );
        assert_eq!(
            decision,
            ReuseDecision::Rerun(vec![RerunReason::FirstExecution])
        );
    }

    #[test]
    fn unchanged_arrays_reuse() {
        let mut reg = ReuseRegistry::new();
        let data = block_dad(100);
        let ind = block_dad(300);
        reg.save_inspector(LoopId::new("L"), [data], [ind]);
        let d = reg.check(&LoopId::new("L"), &[data], &[ind]);
        assert!(d.can_reuse());
    }

    #[test]
    fn writing_an_indirection_array_invalidates() {
        let mut reg = ReuseRegistry::new();
        let data = block_dad(100);
        let ind = block_dad(300);
        reg.save_inspector(LoopId::new("L"), [data], [ind]);
        // Some loop writes an array with the indirection array's DAD.
        reg.record_write(&ind);
        let d = reg.check(&LoopId::new("L"), &[data], &[ind]);
        assert_eq!(
            d,
            ReuseDecision::Rerun(vec![RerunReason::IndirectionModified { index: 0 }])
        );
    }

    #[test]
    fn writing_only_data_arrays_does_not_invalidate() {
        // The executor writes y every iteration; as long as y is not used as
        // an indirection array the schedule stays valid. (Conservatively,
        // arrays sharing y's DAD are also stamped — but the indirection
        // array here has a different DAD.)
        let mut reg = ReuseRegistry::new();
        let data = block_dad(100);
        let ind = block_dad(300);
        reg.save_inspector(LoopId::new("L"), [data], [ind]);
        reg.record_write(&data);
        reg.record_write(&data);
        assert!(reg.check(&LoopId::new("L"), &[data], &[ind]).can_reuse());
    }

    #[test]
    fn conservative_false_sharing_of_dads_invalidates() {
        // Two different arrays with the *same* DAD (same size, same block
        // distribution): writing one conservatively invalidates loops whose
        // indirection array shares that DAD. This is exactly the
        // over-approximation the paper accepts.
        let mut reg = ReuseRegistry::new();
        let ind = block_dad(300);
        let same_dad_other_array = block_dad(300);
        reg.save_inspector(LoopId::new("L"), [block_dad(100)], [ind]);
        reg.record_write(&same_dad_other_array);
        assert!(!reg
            .check(&LoopId::new("L"), &[block_dad(100)], &[ind])
            .can_reuse());
    }

    #[test]
    fn remap_of_data_array_invalidates_via_dad_change() {
        let mut reg = ReuseRegistry::new();
        let data_old = Dad::of(&Distribution::block(100, 4));
        let ind = block_dad(300);
        reg.save_inspector(LoopId::new("L"), [data_old], [ind]);
        // Remap: the data array now has an irregular distribution.
        let map: Vec<u32> = (0..100).map(|i| (i % 4) as u32).collect();
        let data_new = Dad::of(&Distribution::irregular_from_map(&map, 4));
        reg.record_remap(&data_old, &data_new);
        let d = reg.check(&LoopId::new("L"), &[data_new], &[ind]);
        assert_eq!(
            d,
            ReuseDecision::Rerun(vec![RerunReason::DataDadChanged { index: 0 }])
        );
    }

    #[test]
    fn rerunning_inspector_restores_reuse() {
        let mut reg = ReuseRegistry::new();
        let data = block_dad(100);
        let ind = block_dad(300);
        reg.save_inspector(LoopId::new("L"), [data], [ind]);
        reg.record_write(&ind);
        assert!(!reg
            .check(
                &LoopId::new("L"),
                std::slice::from_ref(&data),
                std::slice::from_ref(&ind)
            )
            .can_reuse());
        // Re-run the inspector (records the new stamp).
        reg.save_inspector(LoopId::new("L"), [data], [ind]);
        assert!(reg.check(&LoopId::new("L"), &[data], &[ind]).can_reuse());
    }

    #[test]
    fn shape_change_is_conservative() {
        let mut reg = ReuseRegistry::new();
        let data = block_dad(100);
        let ind = block_dad(300);
        reg.save_inspector(LoopId::new("L"), [data], [ind]);
        let d = reg.check(&LoopId::new("L"), &[data, data], &[ind]);
        assert_eq!(d, ReuseDecision::Rerun(vec![RerunReason::ShapeChanged]));
    }

    #[test]
    fn nmod_counts_blocks_not_elements() {
        let mut reg = ReuseRegistry::new();
        let a = block_dad(10);
        let b = block_dad(20);
        reg.record_write_block([&a, &b]);
        assert_eq!(reg.nmod(), 1);
        assert_eq!(reg.last_mod(&a), 1);
        assert_eq!(reg.last_mod(&b), 1);
        reg.record_write_block([&a; 0]);
        assert_eq!(reg.nmod(), 1, "empty blocks do not advance nmod");
        reg.record_write(&a);
        assert_eq!(reg.nmod(), 2);
        assert_eq!(reg.last_mod(&b), 1);
    }

    /// A 2-proc schedule from proc 0's and proc 1's ghost source lists,
    /// built without charging (region tests care about bookkeeping only).
    fn sched2(p0: Vec<(u32, u32)>, p1: Vec<(u32, u32)>) -> CommSchedule {
        let rows = [p0, p1];
        let mut off = vec![0u32];
        let mut owner = Vec::new();
        let mut src = Vec::new();
        for row in &rows {
            for &(o, s) in row {
                owner.push(o);
                src.push(s);
            }
            off.push(owner.len() as u32);
        }
        CommSchedule::from_csr_parts(2, off, owner, src)
    }

    #[test]
    fn region_bind_appends_chunks_and_diffs_against_residents() {
        let mut reg = ReuseRegistry::new();
        let dad = block_dad(64);
        let a = sched2(vec![(1, 3), (1, 5)], vec![(0, 0)]);
        let b = sched2(vec![(1, 5), (1, 7)], vec![(0, 0), (0, 2)]);
        // First bind: everything is missing; identity binding at base 0.
        let ra = reg.region_bind(dad, &a);
        assert_eq!(ra.chunk, Some(0));
        assert!(ra.deps.is_empty());
        assert_eq!(ra.base, vec![0, 0]);
        assert_eq!(ra.diff, a);
        assert_eq!(ra.slot_map, vec![vec![0, 1], vec![0]]);
        // Second bind: only (1,7) on proc 0 and (0,2) on proc 1 are new;
        // the shared slots come from chunk 0.
        let rb = reg.region_bind(dad, &b);
        assert_eq!(rb.chunk, Some(1));
        assert_eq!(rb.deps, vec![0]);
        assert_eq!(rb.base, vec![2, 1]);
        assert_eq!(rb.diff.total_ghosts(), 2);
        assert_eq!(rb.diff.ghost_sources(0).collect::<Vec<_>>(), vec![(1, 7)]);
        assert_eq!(rb.diff.ghost_sources(1).collect::<Vec<_>>(), vec![(0, 2)]);
        // b's slot (1,5) resolves to chunk 0's slot 1; (1,7) to the appended
        // slot 2.
        assert_eq!(rb.slot_map[0], vec![1, 2]);
        assert_eq!(rb.slot_map[1], vec![0, 1]);
        let region = reg.region(dad).unwrap();
        assert_eq!(region.nchunks(), 2);
        assert_eq!(region.size(0), 3);
        assert_eq!(region.size(1), 2);
        // A fully covered third loop appends no chunk and fetches nothing.
        let rc = reg.region_bind(dad, &sched2(vec![(1, 3)], vec![]));
        assert_eq!(rc.diff.total_ghosts(), 0);
        assert_eq!((rc.chunk, rc.deps), (None, vec![0]));
        let region = reg.region(dad).unwrap();
        assert_eq!(
            (region.nchunks(), region.size(0)),
            (2, 3),
            "nothing appended"
        );
    }

    /// Bind two loops, corrupt the region or the second binding, and
    /// assert that `check_binding` panics naming `invariant`.
    fn assert_breaks(invariant: &str, corrupt: impl FnOnce(&mut GhostRegion, &mut RegionBinding)) {
        let mut reg = ReuseRegistry::new();
        let dad = block_dad(64);
        let _ = reg.region_bind(dad, &sched2(vec![(1, 3), (1, 5)], vec![(0, 0)]));
        let mut bind = reg.region_bind(dad, &sched2(vec![(1, 5), (1, 7)], vec![(0, 2)]));
        let mut region = reg.region(dad).unwrap().clone();
        region.check_binding(&bind);
        corrupt(&mut region, &mut bind);
        let payload =
            std::panic::catch_unwind(|| region.check_binding(&bind)).expect_err(invariant);
        let message = (payload.downcast_ref::<String>().map(String::as_str))
            .or(payload.downcast_ref::<&str>().copied());
        assert!(
            message.is_some_and(|m| m.contains(invariant)),
            "{invariant:?} not in {message:?}"
        );
    }

    #[test]
    fn a_corrupted_binding_fails_the_invariant_it_breaks() {
        assert_breaks("one row per rank", |_, b| b.base.truncate(1));
        assert_breaks("chunk is not the last", |_, b| b.chunk = Some(0));
        assert_breaks("deps are not sorted", |_, b| b.deps = vec![1]);
        assert_breaks("chunk_off is not monotone", |r, _| {
            r.chunk_off[1].swap(1, 2)
        });
        assert_breaks("not injective", |_, b| b.slot_map[0] = vec![1, 1]);
        assert_breaks("not the chunk's slots", |_, b| b.base[0] = 1);
    }

    #[test]
    fn region_rebind_appends_only_what_is_missing() {
        // An inspector re-run (indirection write, REDISTRIBUTE of the
        // pattern, ...) re-binds the loop: the slots of its earlier chunk
        // stay put — earlier offsets into the region remain valid — and
        // only the sources it did not hold before are appended.
        let mut reg = ReuseRegistry::new();
        let dad = block_dad(64);
        let _ = reg.region_bind(dad, &sched2(vec![(1, 3)], vec![]));
        let changed = sched2(vec![(1, 4)], vec![]);
        let r2 = reg.region_bind(dad, &changed);
        assert_eq!(r2.chunk, Some(1));
        assert_eq!(r2.base, vec![1, 0], "the earlier chunk keeps its slots");
        assert_eq!(reg.region(dad).unwrap().size(0), 2);
        // Re-inspecting the unchanged loop — every sweep, with reuse off —
        // grows nothing: no chunk, no slot, the same binding each time.
        for _ in 0..50 {
            let again = reg.region_bind(dad, &changed);
            assert_eq!((again.chunk, &again.deps), (None, &vec![1]));
            assert_eq!(again.slot_map, r2.slot_map);
            assert_eq!(again.diff.total_ghosts(), 0);
        }
        let region = reg.region(dad).unwrap();
        assert_eq!((region.nchunks(), region.size(0)), (2, 2));
        // A different DAD gets an independent region.
        let other = block_dad(128);
        assert!(reg.region(other).is_none());
    }

    /// An irregular distribution of `n` elements, all on rank 0.
    fn irregular(n: usize) -> Distribution {
        Distribution::irregular_from_map(&vec![0; n], 2)
    }

    fn table_id(dist: &Distribution) -> u64 {
        match dist {
            Distribution::Irregular { table } => table.id(),
            _ => unreachable!("an irregular distribution"),
        }
    }

    #[test]
    fn distinct_tables_get_distinct_dads() {
        // Tables of 70 000 and 4 464 elements with ids 2k and 2k + 1 — a
        // pair that size-and-id bit packing folds into one value. Other
        // tests build tables concurrently, so draw until the ids line up.
        let (a, b) = loop {
            let a = irregular(70_000);
            if !table_id(&a).is_multiple_of(2) {
                continue;
            }
            let b = irregular(4_464);
            if table_id(&b) == table_id(&a) + 1 {
                break (Dad::of(&a), Dad::of(&b));
            }
        };
        assert_ne!(a, b);
        let mut reg = ReuseRegistry::new();
        reg.record_write(&a);
        assert_eq!((reg.last_mod(&a), reg.last_mod(&b)), (1, 0));
        let schedule = sched2(vec![(1, 3)], vec![(0, 0)]);
        let (ra, rb) = (reg.region_bind(a, &schedule), reg.region_bind(b, &schedule));
        assert_eq!(
            (ra.chunk, rb.chunk),
            (Some(0), Some(0)),
            "each fetches into its own region"
        );
        assert_eq!(reg.regions.len(), 2);
    }

    #[test]
    fn check_on_machine_charges_an_allreduce() {
        let mut reg = ReuseRegistry::new();
        let data = block_dad(100);
        let ind = block_dad(300);
        reg.save_inspector(LoopId::new("L"), [data], [ind]);
        let mut m = Machine::new(MachineConfig::unit(4));
        let d = reg.check_on_machine(&mut m, &LoopId::new("L"), &[data], &[ind]);
        assert!(d.can_reuse());
        let t = m.stats().grand_totals();
        assert!(t.messages > 0);
        assert_eq!(
            t.phases, 2,
            "the vote is one reduce phase and one broadcast"
        );
        assert!(m.elapsed().max_seconds() > 0.0);
    }
}
