//! The inspector seam: one FORALL execution as Figure 6 has it — the
//! arrays it references moved onto their decompositions' distributions
//! where a DISTRIBUTE or REDISTRIBUTE changed them, the schedule-reuse
//! guard, then (when it fails) iteration partitioning and the inspector,
//! whose results are saved as the loop's one record, then the sweep over
//! that record and the write stamps.
//!
//! An inspection starts from **one reference table** (`RefTable`), built by
//! `reference_table` and by nothing else. Before the loop over iterations it
//! refuses a loop whose indirectly referenced arrays a later ALIGN has
//! spread over two decompositions, in the front end's words. It then
//! resolves every name a reference goes through — each slot to a column, to
//! the extent of the decomposition it indexes and to the values of its
//! indirection array, each indirection array read once — and checks each
//! slot's source against the loop range. The table holds one column per
//! **distinct index expression** of the plan, not per slot: the edge loop's
//! `x(e1(i))`, `x(e2(i))`, `y(e1(i))`, `y(e2(i))` are 2 columns, `e1` and
//! `e2`. A single pass then fills `niters × ncolumns` 0-based globals, a
//! column at a time, and compares every indirection value with the extent
//! of the one decomposition the indirect slots index: a short indirection
//! array, a 0 entry or an entry beyond the extent is a typed [`LangError`]
//! naming the array, the iteration, the value and the extent of the first
//! slot, in the per-slot check order, that the value does not fit — raised
//! here and nowhere later. The table has two readers, which only index it:
//! iteration partitioning takes the leading (placing) columns of each row
//! as that iteration's `&[u32]`, each column weighted by the number of
//! placing slots that read it, so the vote still counts a reference per
//! slot; and every decomposition group's `AccessPattern` copies, from the
//! rows each rank was given, the columns of the distinct index expressions
//! among the group's slots ([`GroupSpec`]). So the edge loop's pattern —
//! and the localized row a sweep reads — holds 2 entries per iteration,
//! not 4. The set of
//! distinct off-processor elements is the same either way, so the
//! schedules do not change. The table is held in one block of rows per rank
//! and dropped as soon as the patterns are cut, before the localize working
//! set is refilled in its place. That working set (`LocalizeScratch`) is
//! parked on the executor, so a re-inspection refills buffers that have
//! already grown to the loop's size.
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
use chaos_runtime::{AccessPattern, Dad, DistArray, Distribution, Inspector, IterPartitionPolicy};
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

/// One inspection's reference table: the 0-based global index of every
/// distinct reference of every iteration, read and validated once, which
/// iteration partitioning and every group's access pattern then only index.
struct RefTable {
    /// `niters` rows of `width` globals, iteration-major, in one block per
    /// rank: the rows of that rank's share of a BLOCK distribution of the
    /// iteration space, `share` rows each (the last may be short). The
    /// table is the one inspector allocation that would otherwise be as
    /// large as the loop in a single piece, and it lives for a fraction of
    /// an inspection. In rank-sized blocks its memory comes from, and goes
    /// back to, the heap the localize working set is allocated from next; a
    /// loop-sized piece is served by a mapping of its own, and releasing
    /// that raises glibc's mmap and trim thresholds to its size for the
    /// rest of the process, after which freed inspector memory stays
    /// resident.
    blocks: Vec<Vec<u32>>,
    /// Rows per block.
    share: usize,
    /// Entries per row: one column per distinct index expression of the
    /// plan, the indirect ones first. `x(e1(i))` and `y(e1(i))` read one
    /// column.
    width: usize,
    /// One weight per leading (placing) column: how many of the slots that
    /// place an iteration read it. Placement votes each column that many
    /// times, so it counts a reference per slot, as the paper's rule does.
    weights: Vec<u32>,
    /// The column holding each slot's references.
    col_of_slot: Vec<usize>,
    /// The slots grouped by the decomposition they index (name-sorted),
    /// each group with that decomposition's current distribution.
    groups: Vec<(GroupSpec, Distribution)>,
    /// The group whose distribution places the iterations: that of the
    /// first indirect slot. `None` for a loop with no indirect reference,
    /// whose iterations are placed in blocks.
    placer: Option<usize>,
}

/// A [`RefTable`] column while the table is built: its index expression
/// and the indirection values it reads over the loop range (`None` for the
/// loop variable).
struct Column<'a> {
    index: &'a Index,
    values: Option<&'a [u32]>,
}

/// A reader of [`RefTable`] rows for ascending iteration numbers (0-based):
/// it steps from block to block as the numbers pass each block's end,
/// rather than dividing every number by `share`. Iteration placement reads
/// every row in order, and each rank's pattern its own iterations, which
/// `IterationPartition` lists in ascending order.
fn row_walker<'a>(
    blocks: &'a [Vec<u32>],
    share: usize,
    width: usize,
) -> impl FnMut(usize) -> &'a [u32] {
    let (mut block, mut start) = (0, 0);
    move |it0| {
        while it0 >= start + share {
            (block, start) = (block + 1, start + share);
        }
        &blocks[block][(it0 - start) * width..][..width]
    }
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
            // Overwriting the record retires the previous inspection's
            // schedules, bindings, bytecode and buffers together.
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

    /// Build the loop's reference table (see [`RefTable`]): resolve every
    /// name a reference goes through, read every indirection array, and fill
    /// and check every distinct reference of every iteration — each exactly
    /// once.
    fn reference_table(
        &mut self,
        plan: &LoopPlan,
        lo: usize,
        niters: usize,
    ) -> Result<RefTable, LangError> {
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

        // Snapshot each indirection array's global values (1-based) once;
        // reading it costs one pass over it.
        let nprocs = self.backend.nprocs();
        let mut ind_values: Vec<Vec<u32>> = Vec::with_capacity(plan.indirection_arrays.len());
        for ia in &plan.indirection_arrays {
            let arr = self.state.int.named(ia).ok_or_else(|| {
                LangError::runtime(format!("indirection array '{ia}' not materialized"))
            })?;
            ind_values.push(arr.to_global());
            let words = arr.len() as f64 / nprocs as f64;
            self.backend.machine_mut().charge_compute_all(words);
        }

        // The slots in check order, the indirect ones first: in an
        // irregular loop they alone place an iteration. Each slot's source
        // is checked against the loop range here — a directly indexed array
        // must reach the last iteration, an indirection array must have an
        // entry for every one — which also bounds the table by the arrays
        // the program already holds. Slots reading one index expression
        // share its column, the indirect expressions first.
        let indirect = |sid: &usize| plan.slots[*sid].index != Index::LoopVar;
        let (mut slot_order, direct): (Vec<usize>, Vec<usize>) =
            (0..plan.slots.len()).partition(indirect);
        let placer = slot_order.first().map(|&sid| group_of_slot[sid]);
        // The extent every indirect column is checked against (unread when
        // the loop has none).
        let ind_extent = placer.map_or(0, |g| groups[g].1.len());
        let nplacing = if placer.is_some() {
            slot_order.len()
        } else {
            direct.len()
        };
        slot_order.extend(direct);
        let hi = lo - 1 + niters;
        let mut col_of_slot = vec![0usize; plan.slots.len()];
        let mut columns: Vec<Column<'_>> = Vec::new();
        let mut weights: Vec<u32> = Vec::new();
        for (k, &sid) in slot_order.iter().enumerate() {
            let (slot, extent) = (&plan.slots[sid], extent_of_slot[sid]);
            let values = match &slot.index {
                Index::LoopVar if hi > extent => {
                    return Err(bad_reference(slot, lo.max(extent + 1), 0, extent));
                }
                Index::LoopVar => None,
                Index::Indirect(ia) => {
                    let at = plan.indirection_arrays.iter().position(|n| n == ia);
                    let all = at.map(|at| &ind_values[at]).ok_or_else(|| {
                        LangError::runtime(format!("indirection array '{ia}' not read"))
                    })?;
                    Some(all.get(lo - 1..hi).ok_or_else(|| {
                        LangError::runtime(format!(
                            "iteration {} out of range for indirection array '{ia}' ({} entries)",
                            lo.max(all.len() + 1),
                            all.len()
                        ))
                    })?)
                }
            };
            let seen = columns.iter().position(|c| c.index == &slot.index);
            let col = seen.unwrap_or_else(|| {
                columns.push(Column {
                    index: &slot.index,
                    values,
                });
                columns.len() - 1
            });
            col_of_slot[sid] = col;
            if k < nplacing {
                weights.resize(weights.len().max(col + 1), 0);
                weights[col] += 1;
            }
        }

        // The one pass over the references, a column at a time. 1-based
        // indirection values become 0-based globals, each checked against
        // the indirect slots' extent (a 0 wraps to `usize::MAX` and fails
        // the same compare). This is the only validation they get: the
        // partitioner, the inspector and the kernels trust the table. A failed check names the first slot, in
        // check order, that the iteration's value does not fit.
        let width = columns.len();
        let share = niters.div_ceil(nprocs).max(1);
        let mut blocks: Vec<Vec<u32>> = Vec::with_capacity(nprocs);
        for start in (0..niters).step_by(share) {
            let rows = share.min(niters - start);
            let mut globals = vec![0u32; rows * width];
            let mut first_bad = rows;
            for (col, column) in columns.iter().enumerate() {
                let cells = globals.chunks_exact_mut(width).map(|row| &mut row[col]);
                let Some(values) = column.values else {
                    for (cell, it0) in cells.zip(start..) {
                        *cell = (lo - 1 + it0) as u32;
                    }
                    continue;
                };
                let values = &values[start..start + rows];
                let mut fits = true;
                for (cell, &value) in cells.zip(values) {
                    let global = (value as usize).wrapping_sub(1);
                    fits &= global < ind_extent;
                    *cell = global as u32;
                }
                if !fits {
                    let bad = values
                        .iter()
                        .position(|&v| (v as usize).wrapping_sub(1) >= ind_extent);
                    first_bad = first_bad.min(bad.unwrap_or(rows));
                }
            }
            if first_bad < rows {
                let it0 = start + first_bad;
                let value = |sid: usize| columns[col_of_slot[sid]].values.map_or(0, |v| v[it0]);
                let fits = |&sid: &usize| {
                    (value(sid) as usize).wrapping_sub(1) < extent_of_slot[sid]
                        || plan.slots[sid].index == Index::LoopVar
                };
                let sid = slot_order.iter().find(|sid| !fits(sid));
                // A slot reads the failing column, so one fails.
                let sid = *sid.unwrap_or(&slot_order[0]);
                let (slot, extent) = (&plan.slots[sid], extent_of_slot[sid]);
                return Err(bad_reference(slot, lo + it0, value(sid), extent));
            }
            blocks.push(globals);
        }

        Ok(RefTable {
            blocks,
            share,
            width,
            weights,
            col_of_slot,
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
        let RefTable {
            blocks,
            share,
            width,
            weights,
            col_of_slot,
            groups,
            placer,
        } = self.reference_table(plan, lo, niters)?;

        // Iteration partitioning (phase B). Irregular loops partition
        // almost-owner-computes with respect to the indirectly-referenced
        // data decomposition; regular loops fall back to a block partition
        // of the iteration space.
        let nprocs = self.backend.nprocs();
        let (policy, part_dist) = match placer {
            Some(g) => (
                IterPartitionPolicy::AlmostOwnerComputes,
                groups[g].1.clone(),
            ),
            None => (
                IterPartitionPolicy::BlockOfIterations,
                Distribution::block(niters.max(1), nprocs),
            ),
        };
        let prev_kind = self
            .machine_mut()
            .set_phase_kind(Some(PhaseKind::Inspector));
        let placing = weights.len();
        let mut row_of = row_walker(&blocks, share, width);
        let iter_part = chaos_runtime::iterpart::partition_iterations_weighted(
            self.backend.machine_mut(),
            &part_dist,
            (0..niters).map(move |it0| &row_of(it0)[..placing]),
            &weights,
            policy,
        );
        self.state.run.report.iteration_partitions += 1;

        // Each group's access pattern: one reference per distinct index
        // expression among its slots — the table column any of them reads —
        // from the rows of the iterations each rank was given.
        let mut specs: Vec<GroupSpec> = Vec::with_capacity(groups.len());
        let mut pending: Vec<(Distribution, AccessPattern)> = Vec::with_capacity(groups.len());
        for (spec, dist) in groups {
            let mut cols = vec![0usize; spec.ncols as usize];
            for (&sid, &col) in spec.slot_ids.iter().zip(&spec.cols) {
                cols[col as usize] = col_of_slot[sid];
            }
            let mut pattern = AccessPattern::new(nprocs);
            for (p, refs) in pattern.refs.iter_mut().enumerate() {
                let iters = iter_part.iters(p);
                refs.reserve(iters.len() * cols.len());
                let mut row_of = row_walker(&blocks, share, width);
                for &it0 in iters {
                    let row = row_of(it0 as usize);
                    refs.extend(cols.iter().map(|&c| row[c]));
                }
            }
            specs.push(spec);
            pending.push((dist, pattern));
        }
        // Both readers are done: the localize working set reuses the memory.
        drop(blocks);

        // Localize every group with its request exchange deferred, bind
        // each schedule into its distribution's shared resident ghost
        // region (computing the difference against the union of ghosts
        // already requested by earlier loops), and request only the missing
        // ghosts: one tagged-offset exchange folds every group's difference
        // — including groups over *different* distributions — into a single
        // message per processor pair.
        let mut full_msgs = 0usize;
        let mut full_words = 0usize;
        let mut groups: Vec<InspectedGroup> = Vec::with_capacity(pending.len());
        for (dist, pattern) in &pending {
            let result = Inspector.localize_deferred_exchange(
                &mut self.backend,
                dist,
                pattern,
                &mut self.localize_scratch,
            );
            let region = self
                .state
                .run
                .registry
                .region_bind(Dad::of(dist), &result.schedule);
            if region.diff.total_ghosts() < result.schedule.total_ghosts() {
                self.state.run.report.incremental_bindings += 1;
            }
            full_msgs += result.schedule.message_count();
            full_words += result.schedule.total_ghosts();
            groups.push(InspectedGroup { result, region });
        }
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
