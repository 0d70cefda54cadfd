//! The directive seam: the mapping statements — `DISTRIBUTE`, `ALIGN`,
//! `READ_DATA`, `CONSTRUCT`, `SET ... BY PARTITIONING`, `REDISTRIBUTE` —
//! interpreted as calls into the mapper coupler. They establish (and change)
//! the arrays, distributions and alignments of the program state the loop
//! records are later built against, and stamp what they write so the reuse
//! guard sees it.

use super::state::RunState;
use super::Executor;
use crate::ast::{ConstructSection, ElemType, SizeExpr};
use crate::error::LangError;
use crate::lower::CompiledProgram;
use chaos_dmsim::Backend;
use chaos_geocol::{partitioner_by_name, GeoColError};
use chaos_runtime::{DistArray, Distribution, GeoColSpec, MapperCoupler};

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
        // REAL arrays in ALIGN order, then INTEGER arrays in ALIGN order —
        // the order the array tables hold — so the remap records and the
        // epoch each array moves at are the same on every run.
        let st = &mut self.state;
        let on_decomp = |name: &str| st.array_decomp.get(name).is_some_and(|d| d == decomp);
        for arr in st.real.0.iter_mut().filter(|a| on_decomp(a.name())) {
            remap_aligned(&mut self.backend, &mut st.run, arr, &new_dist);
        }
        for arr in st.int.0.iter_mut().filter(|a| on_decomp(a.name())) {
            remap_aligned(&mut self.backend, &mut st.run, arr, &new_dist);
        }
        st.decomp_dist.insert(decomp.to_string(), new_dist);
        Ok(())
    }
}

/// Move one array aligned with a redistributed decomposition onto
/// `new_dist`.
fn remap_aligned<T: Clone + Default + Send + Sync, B: Backend>(
    backend: &mut B,
    run: &mut RunState,
    arr: &mut DistArray<T>,
    new_dist: &Distribution,
) {
    MapperCoupler.redistribute(backend, &mut run.registry, arr, new_dist);
    run.report.arrays_redistributed += 1;
    // The shards moved: any resident ghost-region values for the array are
    // stale regardless of which distribution they were gathered under.
    run.stale_ghosts(arr.name());
}
