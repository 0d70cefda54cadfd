//! The inspector seam: one FORALL execution as Figure 6 has it — the
//! arrays it references moved onto their decompositions' distributions
//! where a DISTRIBUTE or REDISTRIBUTE changed them, the schedule-reuse
//! guard, then (when it fails) iteration partitioning and the inspector,
//! whose results are saved as the loop's one record, then the sweep over
//! that record and the write stamps.
//!
//! An inspection reads each reference once, straight from the indirection
//! arrays. `references` first refuses a loop whose indirectly referenced
//! arrays a later ALIGN has spread over two decompositions, in the front
//! end's words. It then resolves every name a reference goes through —
//! each slot to its decomposition group, to that decomposition's extent and
//! to the values of its indirection array, each indirection array read
//! once — and checks each slot's source against the loop range. Each
//! snapshot is made 0-based over the loop range in place and compared with
//! the extent of the one decomposition the indirect slots index: a short
//! indirection array, a 0 entry or an entry beyond the extent is a typed
//! [`LangError`] naming the array, the iteration, the value and the extent
//! of the first slot, in the per-slot check order, that the earliest
//! failing iteration's value does not fit — raised here and nowhere later.
//!
//! The group of the first indirect slot places the iterations, and all the
//! indirect slots are in it. Its columns are the **distinct index
//! expressions** among its slots ([`GroupSpec`]): the edge loop's
//! `x(e1(i))`, `x(e2(i))`, `y(e1(i))`, `y(e2(i))` are 2 columns, `e1` and
//! `e2`, each standing for the 2 placing slots that read it, so the vote
//! still counts a reference per slot. `place_and_locate` walks those
//! columns, votes each iteration home and writes its references into the
//! home rank's localized row as it goes, so that group's localized row — the
//! one a sweep reads — holds 2 entries per iteration, not 4; the set of
//! distinct off-processor elements is the same either way, so the schedules
//! do not change. `references` hands `inspect` the snapshot each slot reads,
//! so no name is looked up twice. A group on another decomposition can only
//! index by the loop variable: its pattern is the iteration lists,
//! `lo − 1 + it`. The localize working set (`LocalizeScratch`) and the
//! snapshots are parked on the executor, and a re-inspected loop's old
//! record is retired before the new one is built, so a re-inspection
//! refills memory that has already grown to the loop's size.
//!
//! `inspect` is the only place a loop record is built: every name a sweep
//! would otherwise look up (the arrays it lends, the region rows each ghost
//! buffer reads) is resolved to a position, the body is bound and compiled
//! against the fresh group layout, and the sweep areas are allocated.
//! Storing the result overwrites the previous record, so kernel, buffers
//! and schedules cannot disagree about which inspection they belong to.

use super::state::{ArrayTable, Inspected, InspectedGroup, LoopState, ProgramState, RegionValues};
use super::sweep::{gather_ghosts, run_sweep};
use super::{Executor, SAVED_SCHEDULE_LABEL};
use crate::analyze::mixed_decompositions;
use crate::ast::Index;
use crate::error::LangError;
use crate::kernel::{compile_kernel, ArrLoc, GroupSpec, KernelBindings};
use crate::lower::{LoopPlan, RefSlot};
use chaos_dmsim::{Backend, PhaseKind};
use chaos_runtime::{
    place_and_locate, AccessPattern, Dad, DistArray, Distribution, Inspector, IterPartitionPolicy,
    RefColumn,
};
use std::collections::BTreeMap;

/// The current DADs of the named arrays, read in place off the array table
/// as the iterator is walked (a missing array is the error, raised first).
fn dads<'a, T>(
    table: &'a ArrayTable<T>,
    names: &'a [String],
    ty: &str,
) -> Result<impl ExactSizeIterator<Item = Dad> + 'a, LangError> {
    if let Some(name) = names.iter().find(|name| table.named(name).is_none()) {
        return Err(LangError::runtime(format!(
            "{ty} array '{name}' not materialized"
        )));
    }
    // Every name was found just above, and the table is borrowed for the
    // iterator's life, so no lookup can fail.
    let dad = |name: &String| table.named(name).expect("checked above").dad();
    Ok(names.iter().map(dad))
}

/// One inspection's references, resolved and checked once (see the
/// [module docs](self)).
struct References {
    /// Each of the plan's indirection arrays (in `indirection_arrays`
    /// order), its entries over the loop range made 0-based.
    snapshots: Vec<Vec<u32>>,
    /// Per slot, the position in `snapshots` of the indirection array it
    /// reads; `None` for a slot indexed by the loop variable.
    snapshot_of_slot: Vec<Option<usize>>,
    /// The slots grouped by the decomposition they index (name-sorted),
    /// each group with that decomposition's current distribution.
    groups: Vec<(GroupSpec, Distribution)>,
    /// The group whose distribution places the iterations: that of the
    /// first indirect slot. `None` for a loop with no indirect reference,
    /// whose iterations are placed in blocks.
    placer: Option<usize>,
}

/// The error for iteration `it` (1-based) referencing outside the `extent`
/// elements of `slot`'s array; `value` is the indirection entry it read.
fn bad_reference(slot: &RefSlot, it: usize, value: u32, extent: usize) -> LangError {
    let array = &slot.array;
    LangError::runtime(match &slot.index {
        Index::LoopVar => {
            format!("iteration {it} is beyond the {extent} elements of '{array}'")
        }
        Index::Indirect(ia) if value == 0 => {
            format!("indirection array '{ia}' contains 0 at iteration {it} (values are 1-based)")
        }
        Index::Indirect(ia) => format!(
            "indirection array '{ia}' contains {value} at iteration {it}, \
             beyond the {extent} elements of '{array}'"
        ),
    })
}

impl<B: Backend> Executor<B> {
    pub(super) fn run_forall(&mut self, plan: &LoopPlan) -> Result<(), LangError> {
        let lo = self.eval_size(&plan.lo)?;
        let hi = self.eval_size(&plan.hi)?;
        let niters = hi.saturating_sub(lo).saturating_add(1);
        if hi < lo {
            return Ok(());
        }

        // Arrays a DISTRIBUTE or REDISTRIBUTE left behind move first, so
        // the guard reads the DADs the loop will run on.
        self.place_referenced_arrays(plan);
        let ix = plan.id.index();
        let ProgramState { real, int, run, .. } = &mut self.state;
        let machine = self.backend.machine_mut();
        if run.loops.len() <= ix {
            run.loops.resize_with(ix + 1, || None);
        }
        let prev_kind = machine.set_phase_kind(Some(PhaseKind::Inspector));
        // Reuse check (Section 3): compare the arrays' current DADs and the
        // indirection arrays' modification stamps, read in place, with the
        // DADs and stamps the last inspector recorded.
        let can_reuse = self.reuse_enabled && {
            let data_dads = dads(real, &plan.data_arrays, "REAL")?;
            let ind_dads = dads(int, &plan.indirection_arrays, "INTEGER")?;
            let guard = &mut run.registry;
            let decision = guard.check_on_machine(machine, &plan.id, data_dads, ind_dads);
            decision.can_reuse() && run.loops[ix].is_some()
        };

        if can_reuse {
            run.report.reuse_hits += 1;
            run.report.kernel_reuse_hits += 1;
        } else {
            // The previous inspection's schedules, bindings, bytecode and
            // buffers retire together, before the new record is built, so
            // the new one reuses their memory. A failed inspection leaves
            // no record, and the guard then inspects again.
            run.loops[ix] = None;
            let record = self.inspect(plan, lo, niters)?;
            let ProgramState { real, int, run, .. } = &mut self.state;
            run.loops[ix] = Some(record);
            run.report.inspector_runs += 1;
            run.report.kernels_compiled += 1;
            run.registry.save_inspector(
                plan.id,
                dads(real, &plan.data_arrays, "REAL")?,
                dads(int, &plan.indirection_arrays, "INTEGER")?,
            );
        }
        self.machine_mut().set_phase_kind(prev_kind);

        // Executor sweep, over the record and the arrays borrowed in place.
        let prev_kind = self.machine_mut().set_phase_kind(Some(PhaseKind::Executor));
        let ProgramState { real, run, .. } = &mut self.state;
        let Some(record) = &mut run.loops[ix] else {
            return Err(LangError::runtime(format!(
                "no inspector state saved for '{}'",
                plan.label
            )));
        };
        gather_ghosts(
            &mut self.backend,
            &real.0,
            &mut run.regions,
            &record.inspected,
        );
        run_sweep(
            &mut self.backend,
            &mut real.0,
            &run.regions,
            plan,
            record,
            &mut self.sweep_tables,
            #[cfg(any(test, feature = "oracle"))]
            self.kernel_mode,
        );
        self.machine_mut().set_phase_kind(prev_kind);

        self.stamp_writes(plan);
        self.state.run.report.loop_sweeps += 1;
        Ok(())
    }

    /// The loop (one executed block of code) may have written its LHS
    /// arrays: stamp their DADs and mark their resident ghost values stale.
    pub(super) fn stamp_writes(&mut self, plan: &LoopPlan) {
        let ProgramState { real, run, .. } = &mut self.state;
        let written = plan.written_arrays.iter();
        let dads = written.filter_map(|a| real.named(a).map(DistArray::dad));
        run.registry.record_write_block(dads);
        for a in &plan.written_arrays {
            run.stale_ghosts(a);
        }
    }

    /// Resolve and check the loop's references (see [`References`]):
    /// resolve every name a reference goes through, read every indirection
    /// array once, and make each one 0-based and check it over the loop
    /// range.
    fn references(
        &mut self,
        plan: &LoopPlan,
        lo: usize,
        niters: usize,
    ) -> Result<References, LangError> {
        if lo == 0 {
            return Err(LangError::runtime(format!(
                "FORALL '{}' starts at iteration 0 (iterations are 1-based)",
                plan.label
            )));
        }

        // Group slots by the decomposition of their array (name-sorted: the
        // group order every binding table is indexed by).
        let mut by_decomp: BTreeMap<&String, Vec<usize>> = BTreeMap::new();
        for (sid, slot) in plan.slots.iter().enumerate() {
            let decomp = self.state.array_decomp.get(&slot.array);
            let decomp = decomp
                .ok_or_else(|| LangError::runtime(format!("array '{}' not ALIGNed", slot.array)))?;
            by_decomp.entry(decomp).or_default().push(sid);
        }
        let mut groups = Vec::with_capacity(by_decomp.len());
        let mut group_of_slot = vec![0usize; plan.slots.len()];
        let mut extent_of_slot = vec![0usize; plan.slots.len()];
        for (g, (decomp, slot_ids)) in by_decomp.into_iter().enumerate() {
            let dist = self.state.decomp_dist.get(decomp).cloned().ok_or_else(|| {
                LangError::runtime(format!("decomposition '{decomp}' not distributed"))
            })?;
            for &sid in &slot_ids {
                (group_of_slot[sid], extent_of_slot[sid]) = (g, dist.len());
            }
            groups.push((GroupSpec::new(plan, decomp.clone(), slot_ids), dist));
        }

        // The front end wants the indirectly referenced arrays on one
        // decomposition where the loop stands, but a later ALIGN can move
        // one of them: placement reads every placing column through one
        // distribution, so an entry that fits only another decomposition's
        // extent would index that distribution out of range. Refused before
        // any indirection array is read, every indirect column of an
        // accepted loop is read at one extent.
        let indirect_decomps = plan.slots.iter().zip(&group_of_slot);
        let indirect_decomps = indirect_decomps
            .filter(|(slot, _)| slot.index != Index::LoopVar)
            .map(|(_, &g)| groups[g].0.decomp.as_str());
        if let Some(message) = mixed_decompositions(&plan.label, indirect_decomps) {
            return Err(LangError::runtime(message));
        }

        // Snapshot each indirection array's global values (1-based) once,
        // into the buffers the last inspection parked; reading it costs one
        // pass over it.
        let nprocs = self.backend.nprocs();
        let mut snapshots = std::mem::take(&mut self.snapshots);
        snapshots.resize_with(plan.indirection_arrays.len(), Vec::new);
        for (ia, snapshot) in plan.indirection_arrays.iter().zip(&mut snapshots) {
            let arr = self.state.int.named(ia).ok_or_else(|| {
                LangError::runtime(format!("indirection array '{ia}' not materialized"))
            })?;
            arr.to_global_into(snapshot);
            let words = arr.len() as f64 / nprocs as f64;
            self.backend.machine_mut().charge_compute_all(words);
        }

        // The slots in check order, the indirect ones first: in an
        // irregular loop they alone place an iteration. Each slot's source
        // is checked against the loop range here — a directly indexed array
        // must reach the last iteration, an indirection array must have an
        // entry for every one.
        let indirect = |sid: &usize| plan.slots[*sid].index != Index::LoopVar;
        let (mut slot_order, direct): (Vec<usize>, Vec<usize>) =
            (0..plan.slots.len()).partition(indirect);
        let placer = slot_order.first().map(|&sid| group_of_slot[sid]);
        slot_order.extend(direct);
        let snapshot_of = |ia: &String| plan.indirection_arrays.iter().position(|n| n == ia);
        let mut snapshot_of_slot = vec![None; plan.slots.len()];
        let hi = lo - 1 + niters;
        for &sid in &slot_order {
            let (slot, extent) = (&plan.slots[sid], extent_of_slot[sid]);
            match &slot.index {
                Index::LoopVar if hi > extent => {
                    return Err(bad_reference(slot, lo.max(extent + 1), 0, extent));
                }
                Index::LoopVar => {}
                Index::Indirect(ia) => {
                    let at = snapshot_of(ia).ok_or_else(|| {
                        LangError::runtime(format!("indirection array '{ia}' not read"))
                    })?;
                    snapshot_of_slot[sid] = Some(at);
                    let all = &snapshots[at];
                    if all.len() < hi {
                        return Err(LangError::runtime(format!(
                            "iteration {} out of range for indirection array '{ia}' ({} entries)",
                            lo.max(all.len() + 1),
                            all.len()
                        )));
                    }
                }
            }
        }

        // The one pass over the indirection values, an array at a time:
        // 1-based values become 0-based globals in place, each checked
        // against the indirect slots' extent (a 0 wraps to `u32::MAX` and
        // fails the same compare). This is the only validation they get:
        // the partitioner, the inspector and the kernels trust them. A
        // failed check names the earliest failing iteration and the first
        // slot, in check order, that its value does not fit.
        let ind_extent = placer.map_or(0, |g| groups[g].1.len());
        let mut first_bad = niters;
        for snapshot in &mut snapshots {
            let mut fits = true;
            for value in &mut snapshot[lo - 1..hi] {
                *value = value.wrapping_sub(1);
                fits &= (*value as usize) < ind_extent;
            }
            if !fits {
                let values = &snapshot[lo - 1..hi];
                let bad = values.iter().position(|&g| g as usize >= ind_extent);
                first_bad = first_bad.min(bad.unwrap_or(niters));
            }
        }
        if first_bad < niters {
            let it0 = first_bad;
            let value = |sid: usize| {
                let at = snapshot_of_slot[sid];
                at.map_or(0, |at| snapshots[at][lo - 1 + it0].wrapping_add(1))
            };
            let fits = |&sid: &usize| {
                (value(sid) as usize).wrapping_sub(1) < extent_of_slot[sid]
                    || plan.slots[sid].index == Index::LoopVar
            };
            let sid = slot_order.iter().find(|sid| !fits(sid));
            // A slot reads the failing array, so one fails.
            let sid = *sid.unwrap_or(&slot_order[0]);
            let (slot, extent) = (&plan.slots[sid], extent_of_slot[sid]);
            return Err(bad_reference(slot, lo + it0, value(sid), extent));
        }

        Ok(References {
            snapshots,
            snapshot_of_slot,
            groups,
            placer,
        })
    }

    /// Run iteration partitioning and the inspector(s) for a loop and build
    /// its record from the results.
    fn inspect(
        &mut self,
        plan: &LoopPlan,
        lo: usize,
        niters: usize,
    ) -> Result<LoopState, LangError> {
        let References {
            snapshots,
            snapshot_of_slot,
            groups,
            placer,
        } = self.references(plan, lo, niters)?;
        let nprocs = self.backend.nprocs();
        let prev_kind = self
            .machine_mut()
            .set_phase_kind(Some(PhaseKind::Inspector));

        // Iteration partitioning (phase B). Irregular loops partition
        // almost-owner-computes with respect to the indirectly-referenced
        // data decomposition, and the placing group's references are
        // translated in the same walk; regular loops fall back to a block
        // partition of the iteration space.
        let first = (lo - 1) as u32;
        let mut located = None;
        let iter_part = match placer {
            Some(g) => {
                let (spec, dist) = &groups[g];
                let mut columns = vec![RefColumn::LoopVar { first }; spec.ncols as usize];
                let mut weights = vec![0u32; spec.ncols as usize];
                for (&sid, &col) in spec.slot_ids.iter().zip(&spec.cols) {
                    if let Some(at) = snapshot_of_slot[sid] {
                        columns[col as usize] = RefColumn::Globals(&snapshots[at][lo - 1..]);
                        weights[col as usize] += 1;
                    }
                }
                let (part, rows) = place_and_locate(
                    self.backend.machine_mut(),
                    dist,
                    niters,
                    &columns,
                    &weights,
                    &mut self.localize_scratch,
                );
                located = Some(rows);
                part
            }
            // Every slot indexes by the loop variable: a row stands for
            // them all, and the block split reads only its length.
            None => {
                let row = vec![0u32; plan.slots.len()];
                chaos_runtime::iterpart::partition_iterations(
                    self.backend.machine_mut(),
                    &Distribution::block(niters.max(1), nprocs),
                    (0..niters).map(|_| &row[..]),
                    IterPartitionPolicy::BlockOfIterations,
                )
            }
        };
        self.snapshots = snapshots;
        self.state.run.report.iteration_partitions += 1;

        // Localize every group with its request exchange deferred — the
        // placing group from its located rows, in its turn, and a group on
        // another decomposition from its iteration lists, the loop variable
        // being all it can index by — bind each schedule into its distribution's shared resident ghost
        // region (computing the difference against the union of ghosts
        // already requested by earlier loops), and request only the missing
        // ghosts: one tagged-offset exchange folds every group's difference
        // — including groups over *different* distributions — into a single
        // message per processor pair.
        let mut full_msgs = 0usize;
        let mut full_words = 0usize;
        let mut specs: Vec<GroupSpec> = Vec::with_capacity(groups.len());
        let mut inspected: Vec<InspectedGroup> = Vec::with_capacity(groups.len());
        for (g, (spec, dist)) in groups.into_iter().enumerate() {
            let scratch = &mut self.localize_scratch;
            let result = match located.take_if(|_| placer == Some(g)) {
                Some(rows) => Inspector.localize_located(&mut self.backend, &dist, rows, scratch),
                None => {
                    let iters = (0..nprocs).map(|p| iter_part.iters(p).iter());
                    let refs = iters
                        .map(|its| its.map(|&it| first + it).collect())
                        .collect();
                    let pattern = AccessPattern { refs };
                    Inspector.localize_deferred_exchange(
                        &mut self.backend,
                        &dist,
                        &pattern,
                        scratch,
                    )
                }
            };
            let region = self
                .state
                .run
                .registry
                .region_bind(Dad::of(&dist), &result.schedule);
            if region.diff.total_ghosts() < result.schedule.total_ghosts() {
                self.state.run.report.incremental_bindings += 1;
            }
            full_msgs += result.schedule.message_count();
            full_words += result.schedule.total_ghosts();
            specs.push(spec);
            inspected.push(InspectedGroup { result, region });
        }
        let groups = inspected;
        let parts: Vec<&chaos_runtime::CommSchedule> =
            groups.iter().map(|g| &g.region.diff).collect();
        let (msgs, words) =
            chaos_runtime::charge_request_exchange(self.backend.machine_mut(), &parts);
        if full_msgs > msgs || full_words > words {
            self.backend.machine_mut().note_schedule_savings(
                SAVED_SCHEDULE_LABEL,
                full_msgs.saturating_sub(msgs),
                full_words.saturating_sub(words),
            );
        }
        self.machine_mut().set_phase_kind(prev_kind);

        // Bind (and compile) the body against the fresh layout, and resolve
        // every name a sweep needs to a position, once.
        let bindings = KernelBindings::bind(plan, &specs).map_err(LangError::runtime)?;
        let kernel = compile_kernel(plan, &bindings).map_err(LangError::runtime)?;
        let ProgramState { real, run, .. } = &mut self.state;
        let position = |name: &String| {
            real.position(name)
                .ok_or_else(|| LangError::runtime(format!("array '{name}' not materialized")))
        };
        let mut array_locs = vec![None; real.0.len()];
        for (w, name) in bindings.written.iter().enumerate() {
            array_locs[position(name)?] = Some(ArrLoc::Written(w as u16));
        }
        for (r, name) in bindings.read_only.iter().enumerate() {
            array_locs[position(name)?] = Some(ArrLoc::ReadOnly(r as u16));
        }
        let mut ghost_sources = Vec::with_capacity(bindings.ghosts.len());
        for gb in &bindings.ghosts {
            let dad = groups[gb.group as usize].region.dad;
            let region = run.registry.region(dad).ok_or_else(|| {
                LangError::runtime(format!("no ghost region bound for '{}'", gb.array))
            })?;
            let found = run
                .regions
                .iter()
                .position(|rv| rv.dad == dad && rv.array == gb.array);
            let at = found.unwrap_or_else(|| {
                run.regions.push(RegionValues {
                    dad,
                    array: gb.array.clone(),
                    rows: vec![Vec::new(); nprocs],
                    fresh: Vec::new(),
                });
                run.regions.len() - 1
            });
            // The region only ever grows, and this loop's binding reaches
            // no slot or chunk bound after it: sizing the rows here covers
            // every sweep of this record.
            let rv = &mut run.regions[at];
            for (p, row) in rv.rows.iter_mut().enumerate() {
                row.resize(row.len().max(region.size(p)), 0.0);
            }
            rv.fresh.resize(rv.fresh.len().max(region.nchunks()), false);
            ghost_sources.push((position(&gb.array)?, at));
        }

        Ok(LoopState::new(Inspected {
            iter_part,
            groups,
            bindings,
            kernel,
            ghost_sources,
            array_locs,
        }))
    }
}
