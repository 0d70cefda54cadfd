//! The inspector seam: one FORALL execution as Figure 6 has it — the
//! schedule-reuse guard, then (when it fails) iteration partitioning and the
//! inspector, whose results are saved as the loop's one record, then the
//! sweep over that record and the write stamps.
//!
//! `inspect` is the only place a loop record is built: every name a sweep
//! would otherwise look up (the arrays it lends, the region rows each ghost
//! buffer reads) is resolved to a position, the body is bound and compiled
//! against the fresh group layout, and the sweep areas are allocated.
//! Storing the result overwrites the previous record, so kernel, buffers
//! and schedules cannot disagree about which inspection they belong to.

use super::state::{ArrayTable, Inspected, InspectedGroup, LoopState, ProgramState, RegionValues};
use super::sweep::run_sweep;
use super::{Executor, KernelMode, SAVED_SCHEDULE_LABEL};
use crate::ast::Index;
use crate::error::LangError;
use crate::kernel::{compile_kernel, ArrLoc, GroupSpec, KernelBindings};
use crate::lower::{LoopPlan, RefSlot};
use chaos_dmsim::{Backend, PhaseKind};
use chaos_runtime::{
    AccessPattern, Dad, DistArray, Distribution, Inspector, IterPartitionPolicy, LocalizeScratch,
};
use std::collections::{BTreeMap, HashMap};

/// The current DADs of the named arrays.
fn dads<T>(table: &ArrayTable<T>, names: &[String], ty: &str) -> Result<Vec<Dad>, LangError> {
    let dad = |name: &String| {
        let arr = table.named(name);
        arr.map(DistArray::dad)
            .ok_or_else(|| LangError::runtime(format!("{ty} array '{name}' not materialized")))
    };
    names.iter().map(dad).collect()
}

impl<B: Backend> Executor<B> {
    pub(super) fn run_forall(&mut self, plan: &LoopPlan) -> Result<(), LangError> {
        let lo = self.eval_size(&plan.lo)?;
        let hi = self.eval_size(&plan.hi)?;
        let niters = hi.saturating_sub(lo).saturating_add(1);
        if hi < lo {
            return Ok(());
        }

        // Reuse check (Section 3): compare the arrays' current DADs and the
        // indirection arrays' modification stamps with what the last
        // inspector recorded.
        let data_dads = dads(&self.state.real, &plan.data_arrays, "REAL")?;
        let ind_dads = dads(&self.state.int, &plan.indirection_arrays, "INTEGER")?;

        let ix = plan.id.index();
        let (machine, run) = (self.backend.machine_mut(), &mut self.state.run);
        if run.loops.len() <= ix {
            run.loops.resize_with(ix + 1, || None);
        }
        let prev_kind = machine.set_phase_kind(Some(PhaseKind::Inspector));
        let can_reuse = self.reuse_enabled
            && run
                .registry
                .check_on_machine(machine, &plan.label, &plan.id, &data_dads, &ind_dads)
                .can_reuse()
            && run.loops[ix].is_some();

        let compiled = usize::from(self.kernel_mode == KernelMode::Compiled);
        if can_reuse {
            run.report.reuse_hits += 1;
            run.report.kernel_reuse_hits += compiled;
        } else {
            // Overwriting the record retires the previous inspection's
            // schedules, bindings, bytecode and buffers together.
            let record = self.inspect(plan, lo, niters)?;
            let run = &mut self.state.run;
            run.loops[ix] = Some(record);
            run.report.inspector_runs += 1;
            run.report.kernels_compiled += compiled;
            run.registry.save_inspector(plan.id, data_dads, ind_dads);
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
        run_sweep(
            &mut self.backend,
            &mut real.0,
            &mut run.regions,
            &run.registry,
            plan,
            &record.inspected,
            &mut record.areas,
        );
        self.machine_mut().set_phase_kind(prev_kind);

        self.stamp_writes(plan);
        self.state.run.report.loop_sweeps += 1;
        Ok(())
    }

    /// The loop (one executed block of code) may have written its LHS
    /// arrays: stamp their DADs and their per-array write stamps.
    pub(super) fn stamp_writes(&mut self, plan: &LoopPlan) {
        let st = &mut self.state;
        let written_dads: Vec<Dad> = plan
            .written_arrays
            .iter()
            .filter_map(|a| st.real.named(a).map(DistArray::dad))
            .collect();
        let refs: Vec<&Dad> = written_dads.iter().collect();
        st.run.registry.record_write_block(&refs);
        for a in &plan.written_arrays {
            st.run.registry.note_array_write(a);
        }
    }

    /// Decomposition name of a slot's array.
    fn slot_decomp(&self, slot: &RefSlot) -> Result<String, LangError> {
        self.state
            .array_decomp
            .get(&slot.array)
            .cloned()
            .ok_or_else(|| LangError::runtime(format!("array '{}' not ALIGNed", slot.array)))
    }

    fn decomp_dist(&self, decomp: &str) -> Result<Distribution, LangError> {
        self.state
            .decomp_dist
            .get(decomp)
            .cloned()
            .ok_or_else(|| LangError::runtime(format!("decomposition '{decomp}' not distributed")))
    }

    /// Run iteration partitioning and the inspector(s) for a loop and build
    /// its record from the results.
    fn inspect(
        &mut self,
        plan: &LoopPlan,
        lo: usize,
        niters: usize,
    ) -> Result<LoopState, LangError> {
        // Snapshot the indirection arrays' global values (1-based) once.
        let mut ind_values: HashMap<String, Vec<u32>> = HashMap::new();
        for ia in &plan.indirection_arrays {
            let arr = self.state.int.named(ia).ok_or_else(|| {
                LangError::runtime(format!("indirection array '{ia}' not materialized"))
            })?;
            ind_values.insert(ia.clone(), arr.to_global());
            // Reading the indirection array costs one pass over it.
            let words = arr.len() as f64 / self.backend.nprocs() as f64;
            self.backend.machine_mut().charge_compute_all(words);
        }

        // Global reference index of a slot at (1-based) iteration `it`.
        let global_of = |slot: &RefSlot, it: usize| -> Result<usize, LangError> {
            match &slot.index {
                Index::LoopVar => Ok(it - 1),
                Index::Indirect(ia) => {
                    let vals = &ind_values[ia];
                    let v = *vals.get(it - 1).ok_or_else(|| {
                        LangError::runtime(format!(
                            "iteration {it} out of range for indirection array '{ia}'"
                        ))
                    })?;
                    if v == 0 {
                        return Err(LangError::runtime(format!(
                            "indirection array '{ia}' contains 0 at iteration {it} (values are 1-based)"
                        )));
                    }
                    Ok(v as usize - 1)
                }
            }
        };

        // Iteration partitioning (phase B). Irregular loops partition
        // almost-owner-computes with respect to the indirectly-referenced
        // data decomposition; regular loops fall back to a block partition
        // of the iteration space.
        let nprocs = self.backend.nprocs();
        let (policy, part_dist) = if plan.irregular {
            let decomp = plan
                .slots
                .iter()
                .find(|s| matches!(s.index, Index::Indirect(_)))
                .map(|s| self.slot_decomp(s))
                .transpose()?
                .expect("irregular loop has an indirect slot");
            (
                IterPartitionPolicy::AlmostOwnerComputes,
                self.decomp_dist(&decomp)?,
            )
        } else {
            (
                IterPartitionPolicy::BlockOfIterations,
                Distribution::block(niters.max(1), nprocs),
            )
        };
        let mut iteration_refs: Vec<Vec<u32>> = Vec::with_capacity(niters);
        for it in lo..lo + niters {
            let mut refs = Vec::with_capacity(plan.slots.len());
            for slot in &plan.slots {
                if plan.irregular && slot.index == Index::LoopVar {
                    continue; // iteration-aligned refs do not drive placement
                }
                refs.push(global_of(slot, it)? as u32);
            }
            iteration_refs.push(refs);
        }
        let prev_kind = self
            .machine_mut()
            .set_phase_kind(Some(PhaseKind::Inspector));
        let iter_part = chaos_runtime::iterpart::partition_iterations(
            self.backend.machine_mut(),
            &part_dist,
            &iteration_refs,
            policy,
        );
        self.state.run.report.iteration_partitions += 1;

        // Group slots by the decomposition of their array (name-sorted: the
        // group order every binding table below is indexed by) and build
        // each group's access pattern.
        let mut by_decomp: BTreeMap<String, Vec<usize>> = BTreeMap::new();
        for (i, slot) in plan.slots.iter().enumerate() {
            by_decomp
                .entry(self.slot_decomp(slot)?)
                .or_default()
                .push(i);
        }
        let specs: Vec<GroupSpec> = by_decomp
            .into_iter()
            .map(|(decomp, slot_ids)| GroupSpec { decomp, slot_ids })
            .collect();
        let mut pending: Vec<(Distribution, AccessPattern)> = Vec::with_capacity(specs.len());
        for spec in &specs {
            let mut pattern = AccessPattern::new(nprocs);
            for p in 0..nprocs {
                let refs = &mut pattern.refs[p];
                refs.reserve(iter_part.iters(p).len() * spec.slot_ids.len());
                for &it0 in iter_part.iters(p) {
                    let it = lo + it0 as usize;
                    for &sid in &spec.slot_ids {
                        refs.push(global_of(&plan.slots[sid], it)? as u32);
                    }
                }
            }
            pending.push((self.decomp_dist(&spec.decomp)?, pattern));
        }

        // Localize every group with its request exchange deferred, bind
        // each schedule into its distribution's shared resident ghost
        // region (computing the difference against the union of ghosts
        // already requested by earlier loops), and request only the missing
        // ghosts: one tagged-offset exchange folds every group's difference
        // — including groups over *different* distributions — into a single
        // message per processor pair.
        let mut scratch = LocalizeScratch::default();
        let mut full_msgs = 0usize;
        let mut full_words = 0usize;
        let mut groups: Vec<InspectedGroup> = Vec::with_capacity(pending.len());
        for (dist, pattern) in &pending {
            let result = Inspector.localize_deferred_exchange(
                &mut self.backend,
                &plan.label,
                dist,
                pattern,
                &mut scratch,
            );
            let sig = Dad::of(dist).signature();
            let region =
                self.state
                    .run
                    .registry
                    .region_bind(sig, plan.id.index() as u32, &result.schedule);
            if region.diff.total_ghosts() < result.schedule.total_ghosts() {
                self.state.run.report.incremental_bindings += 1;
            }
            full_msgs += result.schedule.message_count();
            full_words += result.schedule.total_ghosts();
            groups.push(InspectedGroup { result, region });
        }
        let parts: Vec<&chaos_runtime::CommSchedule> =
            groups.iter().map(|g| &g.region.diff).collect();
        let (msgs, words) = chaos_runtime::charge_merged_request_exchange(
            self.backend.machine_mut(),
            &plan.label,
            &parts,
        );
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
        let compiled = self.kernel_mode == KernelMode::Compiled;
        let kernel = compiled
            .then(|| compile_kernel(plan, &bindings))
            .transpose();
        let kernel = kernel.map_err(LangError::runtime)?;
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
            let sig = groups[gb.group as usize].region.sig;
            let region = run.registry.region(sig).expect("bound just above");
            let found = run
                .regions
                .iter()
                .position(|rv| rv.sig == sig && rv.array == gb.array);
            let at = found.unwrap_or_else(|| {
                run.regions.push(RegionValues {
                    sig,
                    array: gb.array.clone(),
                    rows: vec![Vec::new(); nprocs],
                    era: 0,
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
