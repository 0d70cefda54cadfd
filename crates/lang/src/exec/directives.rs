//! The directive seam: the mapping statements — `DISTRIBUTE`, `ALIGN`,
//! `READ_DATA`, `CONSTRUCT`, `SET ... BY PARTITIONING`, `REDISTRIBUTE` —
//! interpreted as calls into the mapper coupler. They establish (and change)
//! the arrays, distributions and alignments of the program state the loop
//! records are later built against, and stamp what they write so the reuse
//! guard sees it. `DISTRIBUTE` and `REDISTRIBUTE` only set a
//! decomposition's distribution: an array aligned with it moves when a
//! FORALL first references it (`place_referenced_arrays`, which the FORALL
//! runs before its reuse guard), so an array no loop reads never moves.

use super::state::{ProgramState, RunState};
use super::Executor;
use crate::ast::{ConstructSection, ElemType, SizeExpr};
use crate::error::LangError;
use crate::lower::{CompiledProgram, LoopPlan};
use chaos_dmsim::Backend;
use chaos_geocol::{partitioner_by_name, GeoColError};
use chaos_runtime::{Dad, DistArray, Distribution, GeoColSpec, MapperCoupler, RemapPlan};

impl<B: Backend> Executor<B> {
    pub(super) fn eval_size(&self, size: &SizeExpr) -> Result<usize, LangError> {
        match size {
            SizeExpr::Lit(n) => Ok(*n),
            SizeExpr::Name(name) => self
                .inputs
                .scalars
                .get(name)
                .copied()
                .ok_or_else(|| LangError::runtime(format!("scalar '{name}' was not provided"))),
            SizeExpr::NameMinus(name, k) => {
                let base = self.eval_size(&SizeExpr::Name(name.clone()))?;
                Ok(base.saturating_sub(*k))
            }
        }
    }

    pub(super) fn run_distribute(
        &mut self,
        program: &CompiledProgram,
        decomp: &str,
        format: &str,
    ) -> Result<(), LangError> {
        let size_expr = program
            .info
            .decomps
            .get(decomp)
            .ok_or_else(|| LangError::runtime(format!("unknown decomposition '{decomp}'")))?
            .clone();
        let n = self.eval_size(&size_expr)?;
        let p = self.backend.nprocs();
        let dist = match format.to_ascii_uppercase().as_str() {
            "BLOCK" => Distribution::block(n, p),
            "CYCLIC" => Distribution::cyclic(n, p),
            _ => {
                // Map-array distribution: the named INTEGER array holds the
                // owning processor of every element (0-based processor ids).
                let map = self
                    .state
                    .int
                    .named(format)
                    .map(DistArray::to_global)
                    .or_else(|| self.inputs.int_arrays.get(format).cloned())
                    .ok_or_else(|| {
                        LangError::runtime(format!(
                            "DISTRIBUTE format '{format}' is not a known map array"
                        ))
                    })?;
                if map.len() != n {
                    return Err(LangError::runtime(format!(
                        "map array '{format}' has {} entries but decomposition '{decomp}' has {n}",
                        map.len()
                    )));
                }
                if let Some((at, owner)) = map.iter().enumerate().find(|&(_, &o)| o as usize >= p) {
                    return Err(LangError::runtime(format!(
                        "map array '{format}' assigns element {} to processor {owner}, \
                         but the machine has {p} processors",
                        at + 1
                    )));
                }
                Distribution::irregular_from_map(&map, p)
            }
        };
        self.state.decomp_dist.insert(decomp.to_string(), dist);
        Ok(())
    }

    pub(super) fn run_align(
        &mut self,
        program: &CompiledProgram,
        arrays: &[String],
        decomp: &str,
    ) -> Result<(), LangError> {
        let dist = self.state.decomp_dist.get(decomp).cloned().ok_or_else(|| {
            LangError::runtime(format!(
                "ALIGN with '{decomp}' before the decomposition was DISTRIBUTEd"
            ))
        })?;
        for name in arrays {
            let ty = program.info.array(name)?.ty;
            let st = &mut self.state;
            st.array_decomp.insert(name.clone(), decomp.to_string());
            match ty {
                ElemType::Real => st.real.put(DistArray::new(name, dist.clone())),
                ElemType::Integer => st.int.put(DistArray::new(name, dist.clone())),
            }
            st.run.stale_ghosts(name);
        }
        Ok(())
    }

    pub(super) fn run_read_data(&mut self, arrays: &[String]) -> Result<(), LangError> {
        // Check every array against its input before writing any, so a bad
        // input leaves the program's arrays and write stamps as they were.
        let (st, inputs) = (&self.state, &self.inputs);
        for name in arrays {
            let (ty, extent, given) = if let Some(arr) = st.real.named(name) {
                let input = inputs.real_arrays.get(name);
                ("REAL", arr.len(), input.map(Vec::len))
            } else if let Some(arr) = st.int.named(name) {
                let input = inputs.int_arrays.get(name);
                ("INTEGER", arr.len(), input.map(Vec::len))
            } else {
                return Err(LangError::runtime(format!(
                    "READ_DATA of array '{name}' before it was ALIGNed"
                )));
            };
            let given = given.ok_or_else(|| {
                LangError::runtime(format!("no input data for {ty} array '{name}'"))
            })?;
            if given != extent {
                return Err(LangError::runtime(format!(
                    "READ_DATA input for {ty} array '{name}' has {given} values \
                     but the array has {extent} elements"
                )));
            }
        }

        let mut dads = Vec::with_capacity(arrays.len());
        for name in arrays {
            if let Some(arr) = self.state.real.named_mut(name) {
                let values = &self.inputs.real_arrays[name];
                *arr = DistArray::from_global(name, arr.dist().clone(), values);
                dads.push(arr.dad());
            } else if let Some(arr) = self.state.int.named_mut(name) {
                let values = &self.inputs.int_arrays[name];
                *arr = DistArray::from_global(name, arr.dist().clone(), values);
                dads.push(arr.dad());
            }
            self.state.run.stale_ghosts(name);
        }
        // One block of code wrote these arrays (Section 3): an indirection
        // array among them must invalidate the schedules built from it.
        self.state.run.registry.record_write_block(&dads);
        Ok(())
    }

    pub(super) fn run_construct(
        &mut self,
        name: &str,
        nvertices: &SizeExpr,
        sections: &[ConstructSection],
    ) -> Result<(), LangError> {
        let n = self.eval_size(nvertices)?;
        // Zero-based endpoint copies for a LINK section (language values are
        // 1-based), each shard mapped in place. A 0 wraps to `u32::MAX`, so
        // the builder's range check rejects it with the entries beyond `n`.
        let mut link_arrays: Option<[(&String, DistArray<u32>); 2]> = None;
        let mut geometry_names: Vec<String> = Vec::new();
        let mut load_name: Option<String> = None;
        for s in sections {
            match s {
                ConstructSection::Geometry(axes) => geometry_names = axes.clone(),
                ConstructSection::Load(w) => load_name = Some(w.clone()),
                ConstructSection::Link { list1, list2, .. } => {
                    let zero_based = |list: &String| {
                        let mut arr = self.state.int.named(list).cloned().ok_or_else(|| {
                            LangError::runtime(format!("LINK array '{list}' not available"))
                        })?;
                        for shard in arr.par_shards_mut() {
                            shard.iter_mut().for_each(|v| *v = v.wrapping_sub(1));
                        }
                        Ok::<_, LangError>(arr)
                    };
                    link_arrays = Some([(list1, zero_based(list1)?), (list2, zero_based(list2)?)]);
                }
            }
        }

        let geometry_arrays: Vec<&DistArray<f64>> = geometry_names
            .iter()
            .map(|g| {
                self.state.real.named(g).ok_or_else(|| {
                    LangError::runtime(format!("GEOMETRY array '{g}' not available"))
                })
            })
            .collect::<Result<_, _>>()?;
        let load_array =
            match &load_name {
                Some(w) => Some(self.state.real.named(w).ok_or_else(|| {
                    LangError::runtime(format!("LOAD array '{w}' not available"))
                })?),
                None => None,
            };

        let mut spec = GeoColSpec::new(n).with_geometry(geometry_arrays);
        if let Some(l) = load_array {
            spec = spec.with_load(l);
        }
        if let Some([(_, a), (_, b)]) = &link_arrays {
            spec = spec.with_link(a, b);
        }
        let built = MapperCoupler.try_construct_geocol(self.backend.machine_mut(), &spec);
        let geocol = built.map_err(|err| match (err, &link_arrays) {
            (GeoColError::EdgeOutOfRange { edge, vertex, .. }, Some([(list1, a), (list2, _)])) => {
                // The builder checks an edge's first endpoint first.
                let (p, off) = a.dist().locate(edge);
                let list = if a.local(p)[off] as usize == vertex {
                    list1
                } else {
                    list2
                };
                let (value, at) = ((vertex as u32).wrapping_add(1), edge + 1);
                LangError::runtime(if value == 0 {
                    format!("LINK array '{list}' contains 0 at position {at} (values are 1-based)")
                } else {
                    format!(
                        "LINK array '{list}' contains {value} at position {at}, \
                         beyond the {n} vertices of GeoCoL '{name}'"
                    )
                })
            }
            (
                GeoColError::InvalidCoordinate {
                    axis,
                    vertex,
                    value,
                },
                _,
            ) => LangError::runtime(format!(
                "CONSTRUCT {name}: GEOMETRY array '{}' holds {value} at position {}, \
                 not a finite coordinate",
                geometry_names[axis],
                vertex + 1
            )),
            (err, _) => LangError::runtime(format!("CONSTRUCT {name}: {err}")),
        })?;
        self.state.geocols.insert(name.to_string(), geocol);
        Ok(())
    }

    pub(super) fn run_set_partition(
        &mut self,
        distfmt: &str,
        geocol: &str,
        partitioner: &str,
    ) -> Result<(), LangError> {
        let g = self.state.geocols.get(geocol).ok_or_else(|| {
            LangError::runtime(format!("GeoCoL '{geocol}' has not been CONSTRUCTed"))
        })?;
        let p = partitioner_by_name(partitioner).ok_or_else(|| {
            LangError::runtime(format!(
                "unknown partitioner '{partitioner}' (known: {:?})",
                chaos_geocol::registered_partitioner_names()
            ))
        })?;
        if let Some(section) = p.missing_section(g) {
            return Err(LangError::runtime(format!(
                "partitioner {} cannot split GeoCoL '{geocol}': it has no {section} section",
                p.name()
            )));
        }
        let outcome = MapperCoupler.partition(&mut self.backend, p.as_ref(), g);
        self.state
            .distfmts
            .insert(distfmt.to_string(), outcome.distribution);
        Ok(())
    }

    pub(super) fn run_redistribute(
        &mut self,
        decomp: &str,
        distfmt: &str,
    ) -> Result<(), LangError> {
        let new_dist = self.state.distfmts.get(distfmt).cloned().ok_or_else(|| {
            LangError::runtime(format!("unknown distribution format '{distfmt}'"))
        })?;
        if let Some(extent) = self.state.decomp_dist.get(decomp).map(Distribution::len) {
            if extent != new_dist.len() {
                return Err(LangError::runtime(format!(
                    "distribution format '{distfmt}' places {} elements but decomposition \
                     '{decomp}' has {extent}",
                    new_dist.len()
                )));
            }
        }
        // No array moves here: each moves when a FORALL first references it
        // (see `place_referenced_arrays`), so an array no loop reads stays
        // where it is.
        self.state.decomp_dist.insert(decomp.to_string(), new_dist);
        Ok(())
    }

    /// Move every array `plan` references, data or indirection, whose
    /// layout is not its decomposition's current distribution onto that
    /// distribution, under `PhaseKind::Remap` — REAL arrays in ALIGN
    /// order, then INTEGER arrays in ALIGN order (the order the array
    /// tables hold), so the remap records and the epoch each array moves at
    /// are the same on every run. Arrays that leave one DAD for one
    /// distribution move through one [`RemapPlan`]. This is where
    /// `DISTRIBUTE` and `REDISTRIBUTE` take effect on the arrays: nothing
    /// else reads an array through its decomposition's layout.
    pub(super) fn place_referenced_arrays(&mut self, plan: &LoopPlan) {
        let ProgramState {
            real,
            int,
            decomp_dist,
            array_decomp,
            run,
            ..
        } = &mut self.state;
        let target = |name: &str| array_decomp.get(name).and_then(|d| decomp_dist.get(d));
        let named = |names: &[String], name: &str| names.iter().any(|n| n == name);
        let mut plans: Vec<RemapPlan> = Vec::new();
        let backend = &mut self.backend;
        for arr in real
            .0
            .iter_mut()
            .filter(|a| named(&plan.data_arrays, a.name()))
        {
            if let Some(to) = target(arr.name()) {
                place(backend, run, &mut plans, arr, to);
            }
        }
        for arr in int
            .0
            .iter_mut()
            .filter(|a| named(&plan.indirection_arrays, a.name()))
        {
            if let Some(to) = target(arr.name()) {
                place(backend, run, &mut plans, arr, to);
            }
        }
    }
}

/// Move `arr` onto `to` unless it is there already, through the plan in
/// `plans` that makes the same move (built and kept there if none does).
fn place<T: Clone + Default + Send + Sync, B: Backend>(
    backend: &mut B,
    run: &mut RunState,
    plans: &mut Vec<RemapPlan>,
    arr: &mut DistArray<T>,
    to: &Distribution,
) {
    let (from, to_dad) = (arr.dad(), Dad::of(to));
    if from == to_dad {
        return;
    }
    let found = plans
        .iter()
        .position(|p| p.source() == from && Dad::of(p.target()) == to_dad);
    let at = found.unwrap_or_else(|| {
        plans.push(RemapPlan::new(arr.dist(), to));
        plans.len() - 1
    });
    MapperCoupler.redistribute_through(backend, &mut run.registry, &plans[at], arr);
    run.report.arrays_redistributed += 1;
    // The shards moved: any resident ghost-region values for the array are
    // stale regardless of which distribution they were gathered under.
    run.stale_ghosts(arr.name());
}
