//! The generated-code interpreter: executes a lowered program on the CHAOS
//! runtime over a simulated machine.
//!
//! This module plays the role of the code the Fortran 90D compiler *emits*:
//! directives become calls into the mapper coupler, and each `FORALL`
//! becomes the guarded inspector/executor sequence of Figure 6 —
//!
//! ```text
//! if reuse-check(L) fails:
//!     partition iterations of L
//!     run inspector (translate, dedup, build schedules, allocate ghosts)
//!     save inspector results and DAD/last_mod records
//! gather off-processor data            \
//! run the local iterations              |  every executor sweep
//! scatter-add off-processor reductions /
//! record that L wrote its left-hand-side arrays
//! ```
//!
//! Two simplifications relative to a production compiler: indirection-array values are read from the shared address
//! space when building access patterns (their translation/dedup/schedule
//! costs are still charged), and assignments whose left-hand side lands
//! off-processor are resolved with a last-writer-wins scatter.

use crate::ast::*;
use crate::error::LangError;
use crate::kernel::{
    compile_kernel, run_rank, run_rank_interpreted, GroupSpec, KernelBindings, KernelCache,
    KernelEntry, RankState, RankSweepArea, SweepBuffers,
};
use crate::lower::{CompiledProgram, LoopPlan, RefSlot};
use chaos_dmsim::{
    Backend, FaultPlan, Machine, MachineConfig, MetricsRegistry, PhaseError, PhaseKind,
    PooledBackend, RecoveryPolicy, TraceEventKind, TraceSink,
};
use chaos_geocol::partitioner_by_name;
use chaos_runtime::{
    charge_checkpoint, gather_inline, scatter_combine_rows, scatter_pack_kernel, AccessPattern,
    DistArray, Distribution, GeoColSpec, Inspector, InspectorResult, IterPartitionPolicy,
    IterationPartition, Landing, LocalizeScratch, LoopId, MapperCoupler, RegionBinding,
    ReuseRegistry,
};
use std::collections::{BTreeMap, HashMap, HashSet};
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::Arc;

/// Hard cap on total attempts of one FORALL across every recovery policy —
/// a backstop against non-injected (organic) panics that would otherwise
/// retry forever, set far above any plausible `max_attempts`.
const OVERALL_ATTEMPT_CAP: u32 = 32;

/// Checkpoint cadence used when [`RecoveryPolicy::RollbackToCheckpoint`] is
/// selected without an explicit `with_checkpoint_every`.
const DEFAULT_CHECKPOINT_EVERY: u64 = 8;

/// Statistics label under which the inspector books request-exchange
/// traffic *avoided* by incremental schedules (ghosts already requested by
/// earlier loops). Read back through
/// [`chaos_dmsim::StatsRegistry::saved_labelled`]; never part of the real
/// totals.
pub const SAVED_SCHEDULE_LABEL: &str = "incremental:schedule-build";

/// Statistics label under which executor sweeps book gather traffic
/// *avoided* because the resident ghost region already held fresh values
/// fetched by earlier loops.
pub const SAVED_GATHER_LABEL: &str = "incremental:gather";

/// Values bound to the program's symbolic sizes and `READ_DATA` arrays.
#[derive(Debug, Clone, Default)]
pub struct ProgramInputs {
    /// Scalar sizes (`nnode`, `nedge`, ...).
    pub scalars: HashMap<String, usize>,
    /// REAL array initial values, keyed by array name.
    pub real_arrays: HashMap<String, Vec<f64>>,
    /// INTEGER array initial values (1-based element numbers), keyed by name.
    pub int_arrays: HashMap<String, Vec<u32>>,
}

impl ProgramInputs {
    /// Create an empty set of inputs.
    pub fn new() -> Self {
        Self::default()
    }

    /// Bind a scalar size.
    pub fn scalar(mut self, name: &str, value: usize) -> Self {
        self.scalars.insert(name.to_string(), value);
        self
    }

    /// Bind a REAL array.
    pub fn real(mut self, name: &str, values: Vec<f64>) -> Self {
        self.real_arrays.insert(name.to_string(), values);
        self
    }

    /// Bind an INTEGER array (values are 1-based element numbers).
    pub fn int(mut self, name: &str, values: Vec<u32>) -> Self {
        self.int_arrays.insert(name.to_string(), values);
        self
    }
}

/// Counters describing what happened during execution.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct ExecReport {
    /// Number of `FORALL` sweeps executed.
    pub loop_sweeps: usize,
    /// Number of inspector (re-)runs.
    pub inspector_runs: usize,
    /// Number of sweeps that reused saved inspector results.
    pub reuse_hits: usize,
    /// Number of iteration-partitioning passes.
    pub iteration_partitions: usize,
    /// Number of REDISTRIBUTE operations performed (counting each array).
    pub arrays_redistributed: usize,
    /// Number of kernel (re)compilations (compiled mode only; a loop
    /// recompiles exactly when its inspector re-runs).
    pub kernels_compiled: usize,
    /// Number of sweeps that reused a cached compiled kernel.
    pub kernel_reuse_hits: usize,
    /// Number of incremental region bindings whose request exchange was
    /// smaller than the loop's full schedule — i.e. cross-loop bindings
    /// where ghosts already resident from earlier loops were not
    /// re-requested.
    pub incremental_bindings: usize,
}

/// How FORALL bodies execute during the sweep's compute phase.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum KernelMode {
    /// Compile each body to register bytecode (cached per loop alongside
    /// the inspector results) and run it on the [`crate::kernel`] VM — the
    /// default fast path.
    #[default]
    Compiled,
    /// Walk the `CompiledExpr` trees per element — the retained oracle the
    /// compiled path is differentially tested against.
    Interpreted,
}

/// One decomposition group's cached inspector state.
#[derive(Debug, Clone)]
struct CachedGroup {
    /// The loop-plan slot ids belonging to this group.
    slot_ids: Vec<usize>,
    /// The group's inspector result (schedule, localized rows, ghost
    /// counts) — always the loop's *own* full schedule.
    result: InspectorResult,
    /// The group's binding into the shared resident ghost region of its
    /// distribution.
    region: RegionBinding,
}

/// Cached inspector state for one loop.
#[derive(Debug, Clone)]
struct CachedLoop {
    iter_part: IterationPartition,
    /// One cached group per decomposition group, keyed by decomposition
    /// name.
    groups: BTreeMap<String, CachedGroup>,
}

/// A restorable copy of everything a FORALL sweep can touch: the machine
/// (clocks, statistics, epoch), the program's distributed arrays, the reuse
/// registry, the kernel cache (so recompile/reuse counters replay
/// identically) and the executor's own bookkeeping. Restoring a snapshot
/// and re-running the same statements is bit-identical to never having
/// failed, because failed regions never replay their charge ledgers and
/// every consumed fault stays consumed (the machine clone shares the fault
/// plan's flags).
#[derive(Debug, Clone)]
struct ExecSnapshot {
    machine: Machine,
    registry: ReuseRegistry,
    kernels: KernelCache,
    real: HashMap<String, DistArray<f64>>,
    int: HashMap<String, DistArray<u32>>,
    decomp_dist: HashMap<String, Distribution>,
    array_decomp: HashMap<String, String>,
    geocols: HashMap<String, chaos_geocol::GeoCoL>,
    distfmts: HashMap<String, Distribution>,
    cache: HashMap<String, CachedLoop>,
    report: ExecReport,
}

/// The interpreter / generated-code driver.
///
/// Generic over the SPMD execution engine: with the default [`Machine`]
/// backend the runtime phases (index translation, dedup, gather, compute,
/// scatter) run rank-serially on the driver thread; with a
/// [`PooledBackend`] they run rank-parallel on a pool of long-lived workers
/// (no per-phase spawn cost) — with byte-identical results, clocks and
/// statistics. The per-iteration arithmetic is compiled to register
/// bytecode (see [`crate::kernel`]) and executed as the compute stage of
/// `Backend::run_sweep`, so whole programs run rank-parallel end-to-end;
/// [`KernelMode::Interpreted`] retains the tree-walking oracle for
/// differential testing.
#[derive(Debug)]
pub struct Executor<B: Backend = Machine> {
    backend: B,
    registry: ReuseRegistry,
    kernels: KernelCache,
    kernel_mode: KernelMode,
    inputs: ProgramInputs,
    reuse_enabled: bool,
    iter_policy: IterPartitionPolicy,

    real: HashMap<String, DistArray<f64>>,
    int: HashMap<String, DistArray<u32>>,
    decomp_dist: HashMap<String, Distribution>,
    array_decomp: HashMap<String, String>,
    geocols: HashMap<String, chaos_geocol::GeoCoL>,
    distfmts: HashMap<String, Distribution>,
    cache: HashMap<String, CachedLoop>,
    report: ExecReport,

    // --- fault recovery (see ARCHITECTURE.md § "Fault model & recovery") ---
    policy: RecoveryPolicy,
    /// Checkpoint cadence in machine epochs; 0 disables checkpointing.
    checkpoint_every: u64,
    checkpoint: Option<Box<ExecSnapshot>>,
    /// FORALLs executed since the checkpoint, in order — rollback restores
    /// the checkpoint and replays these (deterministically, since consumed
    /// faults never refire) before re-running the failed loop.
    journal: Vec<LoopPlan>,
    /// REAL/INTEGER arrays written since the last checkpoint refresh: only
    /// these are re-copied (values-only, allocation-free in steady state)
    /// and only their words are charged.
    dirty: HashSet<String>,
    /// A directive changed distributions/alignments since the checkpoint:
    /// the next refresh must re-clone everything, not just dirty values.
    structural_change: bool,
}

impl Executor<Machine> {
    /// Create an executor over a fresh machine (sequential engine).
    pub fn new(config: MachineConfig, inputs: ProgramInputs) -> Self {
        Self::with_backend(Machine::new(config), inputs)
    }
}

impl Executor<PooledBackend> {
    /// Create an executor whose runtime phases run rank-parallel on a pool
    /// of long-lived workers (ranks striped over `min(nprocs, cores)`
    /// lanes) — the rank-parallel engine, byte-identical to the sequential
    /// one. Kernel sweeps, gathers, scatters, inspector passes and
    /// REDISTRIBUTE all execute through the pool.
    pub fn new_pooled(config: MachineConfig, inputs: ProgramInputs) -> Self {
        Self::with_backend(PooledBackend::from_config(config), inputs)
    }

    /// [`Executor::new_pooled`] with an explicit worker count (which may
    /// exceed the rank or core count; results never depend on it).
    pub fn new_pooled_with_workers(
        config: MachineConfig,
        workers: usize,
        inputs: ProgramInputs,
    ) -> Self {
        Self::with_backend(
            PooledBackend::from_config_with_workers(config, workers),
            inputs,
        )
    }

    /// Arm the pool's barrier deadline: a worker lane that fails to arrive
    /// within `deadline` (e.g. an injected [`chaos_dmsim::FaultKind::LaneStall`])
    /// surfaces as [`chaos_dmsim::PhaseError::Straggler`] naming the hung
    /// rank, its lane and each lane's progress, instead of blocking silently.
    pub fn with_barrier_deadline(mut self, deadline: std::time::Duration) -> Self {
        self.backend.set_barrier_deadline(deadline);
        self
    }
}

impl<B: Backend> Executor<B> {
    /// Create an executor over an explicit SPMD execution engine.
    pub fn with_backend(backend: B, inputs: ProgramInputs) -> Self {
        Executor {
            backend,
            registry: ReuseRegistry::new(),
            kernels: KernelCache::new(),
            kernel_mode: KernelMode::default(),
            inputs,
            reuse_enabled: true,
            iter_policy: IterPartitionPolicy::AlmostOwnerComputes,
            real: HashMap::new(),
            int: HashMap::new(),
            decomp_dist: HashMap::new(),
            array_decomp: HashMap::new(),
            geocols: HashMap::new(),
            distfmts: HashMap::new(),
            cache: HashMap::new(),
            report: ExecReport::default(),
            policy: RecoveryPolicy::default(),
            checkpoint_every: 0,
            checkpoint: None,
            journal: Vec::new(),
            dirty: HashSet::new(),
            structural_change: false,
        }
    }

    /// Enable or disable the schedule-reuse mechanism (Table 1 compares the
    /// two). Disabling it forces a full inspector before every sweep.
    pub fn with_reuse(mut self, enabled: bool) -> Self {
        self.reuse_enabled = enabled;
        self
    }

    /// Override the iteration-partitioning policy (default:
    /// almost-owner-computes).
    pub fn with_iteration_policy(mut self, policy: IterPartitionPolicy) -> Self {
        self.iter_policy = policy;
        self
    }

    /// Select how loop bodies execute (default: compiled to bytecode). The
    /// interpreted mode is the retained tree-walking oracle; both modes
    /// produce byte-identical values, clocks and statistics.
    pub fn with_kernel_mode(mut self, mode: KernelMode) -> Self {
        self.kernel_mode = mode;
        self
    }

    /// Install a deterministic [`FaultPlan`] on the machine: every engine
    /// consults it at each per-rank kernel entry, and FORALL execution is
    /// guarded so failures surface as [`LangError::Phase`] (or are recovered
    /// per the [`RecoveryPolicy`]).
    pub fn with_fault_plan(mut self, plan: Arc<FaultPlan>) -> Self {
        self.backend.machine_mut().install_fault_plan(Some(plan));
        self
    }

    /// Install a [`TraceSink`] flight recorder on the machine: the machine's
    /// probe records every event kind of [`TraceEventKind`] (the one event
    /// table — ARCHITECTURE.md, "Observability") on it, stamped with both
    /// measured wall time and the modeled clock. Observing never changes
    /// modeled clocks, values or statistics; with nothing installed each
    /// hook is a single branch. Share the `Arc` to read the timeline
    /// afterwards — see [`TraceSink::chrome_trace_json`] and
    /// [`TraceSink::summary`].
    pub fn with_trace(mut self, sink: Arc<TraceSink>) -> Self {
        self.backend.machine_mut().install_trace(Some(sink));
        self
    }

    /// Install a [`MetricsRegistry`] on the machine: the probe feeds it from
    /// the very hooks that feed the flight recorder (each event's counter
    /// and histogram are columns of the same table), and the machine's
    /// phase-kind transitions feed the cost-model auditor (modeled-vs-wall
    /// drift per [`PhaseKind`]). Same contract as [`Executor::with_trace`].
    /// Share the `Arc` and call [`MetricsRegistry::snapshot`] /
    /// [`MetricsRegistry::audit_report`] once the pool is quiescent.
    pub fn with_metrics(mut self, registry: Arc<MetricsRegistry>) -> Self {
        self.backend.machine_mut().install_metrics(Some(registry));
        self
    }

    /// Select what happens when a FORALL phase fails (default:
    /// [`RecoveryPolicy::Abort`]). Selecting
    /// [`RecoveryPolicy::RollbackToCheckpoint`] enables epoch checkpointing
    /// at the default cadence if [`Executor::with_checkpoint_every`] was not
    /// called.
    pub fn with_recovery_policy(mut self, policy: RecoveryPolicy) -> Self {
        self.policy = policy;
        if matches!(policy, RecoveryPolicy::RollbackToCheckpoint) && self.checkpoint_every == 0 {
            self.checkpoint_every = DEFAULT_CHECKPOINT_EVERY;
        }
        self
    }

    /// Checkpoint the execution state every `epochs` machine epochs (0
    /// disables checkpointing). A checkpoint copies the machine's clocks /
    /// statistics and the program's arrays (values-only for arrays dirtied
    /// since the previous checkpoint) and charges the modeled scan cost
    /// through [`chaos_runtime::charge_checkpoint`].
    pub fn with_checkpoint_every(mut self, epochs: u64) -> Self {
        self.checkpoint_every = epochs;
        self
    }

    /// The simulated machine (clocks, statistics).
    pub fn machine(&self) -> &Machine {
        self.backend.machine()
    }

    /// Mutable access to the machine (the bench harness uses this to tag
    /// phase kinds around directive groups).
    pub fn machine_mut(&mut self) -> &mut Machine {
        self.backend.machine_mut()
    }

    /// Execution counters.
    pub fn report(&self) -> &ExecReport {
        &self.report
    }

    /// The reuse registry (for inspecting hit/miss counts).
    pub fn registry(&self) -> &ReuseRegistry {
        &self.registry
    }

    /// Gather a REAL array back to a global vector (verification helper).
    pub fn real_global(&self, name: &str) -> Option<Vec<f64>> {
        self.real.get(name).map(DistArray::to_global)
    }

    /// The current distribution of a decomposition, if distributed.
    pub fn decomposition(&self, name: &str) -> Option<&Distribution> {
        self.decomp_dist.get(name)
    }

    /// Run every statement of the program once, in source order.
    pub fn run(&mut self, program: &CompiledProgram) -> Result<(), LangError> {
        for stmt in program.program.stmts.clone() {
            self.run_stmt(program, &stmt)?;
        }
        Ok(())
    }

    /// Re-execute a single `FORALL` (one executor sweep). Used by the
    /// benchmark harness to run the "100 iterations" of the paper's tables.
    pub fn execute_loop(
        &mut self,
        program: &CompiledProgram,
        label: &str,
    ) -> Result<(), LangError> {
        let plan = program
            .plans
            .get(label)
            .ok_or_else(|| LangError::runtime(format!("no FORALL labelled '{label}'")))?
            .clone();
        self.run_forall_recovered(&plan)
    }

    fn run_stmt(&mut self, program: &CompiledProgram, stmt: &Stmt) -> Result<(), LangError> {
        if let Stmt::Forall { label, .. } = stmt {
            let plan = program.plans[label].clone();
            return self.run_forall_recovered(&plan);
        }
        let result = match stmt {
            Stmt::Declare { .. } | Stmt::Decomposition { .. } => return Ok(()),
            Stmt::Distribute { decomp, format } => self.run_distribute(program, decomp, format),
            Stmt::Align { arrays, decomp } => self.run_align(program, arrays, decomp),
            Stmt::ReadData { arrays } => self.run_read_data(arrays),
            Stmt::Construct {
                name,
                nvertices,
                sections,
            } => self.run_construct(name, nvertices, sections),
            Stmt::SetPartition {
                distfmt,
                geocol,
                partitioner,
            } => self.run_set_partition(distfmt, geocol, partitioner),
            Stmt::Redistribute { decomp, distfmt } => self.run_redistribute(decomp, distfmt),
            Stmt::Forall { .. } => unreachable!("handled above"),
        };
        // Directives change distributions, alignments or array storage, so
        // the journal's only-FORALLs-since-checkpoint invariant would break:
        // force a full checkpoint refresh right after any of them.
        if result.is_ok() && self.checkpoint_every > 0 {
            self.structural_change = true;
            self.refresh_checkpoint();
        }
        result
    }

    fn eval_size(&self, size: &SizeExpr) -> Result<usize, LangError> {
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

    fn run_distribute(
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
                    .int
                    .get(format)
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
                Distribution::irregular_from_map(&map, p)
            }
        };
        self.decomp_dist.insert(decomp.to_string(), dist);
        Ok(())
    }

    fn run_align(
        &mut self,
        program: &CompiledProgram,
        arrays: &[String],
        decomp: &str,
    ) -> Result<(), LangError> {
        let dist = self.decomp_dist.get(decomp).cloned().ok_or_else(|| {
            LangError::runtime(format!(
                "ALIGN with '{decomp}' before the decomposition was DISTRIBUTEd"
            ))
        })?;
        for name in arrays {
            let ty = program.info.array(name)?.ty;
            self.array_decomp.insert(name.clone(), decomp.to_string());
            match ty {
                ElemType::Real => {
                    self.real
                        .insert(name.clone(), DistArray::new(name, dist.clone()));
                }
                ElemType::Integer => {
                    self.int
                        .insert(name.clone(), DistArray::new(name, dist.clone()));
                }
            }
            self.registry.note_array_write(name);
        }
        Ok(())
    }

    fn run_read_data(&mut self, arrays: &[String]) -> Result<(), LangError> {
        let mut dads = Vec::with_capacity(arrays.len());
        for name in arrays {
            if let Some(arr) = self.real.get_mut(name) {
                let values = self.inputs.real_arrays.get(name).ok_or_else(|| {
                    LangError::runtime(format!("no input data for REAL array '{name}'"))
                })?;
                *arr = DistArray::from_global(name, arr.dist().clone(), values);
                dads.push(arr.dad());
            } else if let Some(arr) = self.int.get_mut(name) {
                let values = self.inputs.int_arrays.get(name).ok_or_else(|| {
                    LangError::runtime(format!("no input data for INTEGER array '{name}'"))
                })?;
                *arr = DistArray::from_global(name, arr.dist().clone(), values);
                dads.push(arr.dad());
            } else {
                return Err(LangError::runtime(format!(
                    "READ_DATA of array '{name}' before it was ALIGNed"
                )));
            }
            self.registry.note_array_write(name);
        }
        // One block of code wrote these arrays (Section 3): an indirection
        // array among them must invalidate the schedules built from it.
        self.registry
            .record_write_block(&dads.iter().collect::<Vec<_>>());
        Ok(())
    }

    fn run_construct(
        &mut self,
        name: &str,
        nvertices: &SizeExpr,
        sections: &[ConstructSection],
    ) -> Result<(), LangError> {
        let n = self.eval_size(nvertices)?;
        // Build zero-based endpoint copies for LINK sections (language values
        // are 1-based).
        let mut link_arrays: Option<(DistArray<u32>, DistArray<u32>)> = None;
        let mut geometry_names: Vec<String> = Vec::new();
        let mut load_name: Option<String> = None;
        for s in sections {
            match s {
                ConstructSection::Geometry(axes) => geometry_names = axes.clone(),
                ConstructSection::Load(w) => load_name = Some(w.clone()),
                ConstructSection::Link { list1, list2, .. } => {
                    let to_zero_based =
                        |arr: &DistArray<u32>| -> Result<DistArray<u32>, LangError> {
                            let global: Vec<u32> = arr
                                .to_global()
                                .iter()
                                .map(|&v| v.saturating_sub(1))
                                .collect();
                            Ok(DistArray::from_global(
                                arr.name(),
                                arr.dist().clone(),
                                &global,
                            ))
                        };
                    let a = self.int.get(list1).ok_or_else(|| {
                        LangError::runtime(format!("LINK array '{list1}' not available"))
                    })?;
                    let b = self.int.get(list2).ok_or_else(|| {
                        LangError::runtime(format!("LINK array '{list2}' not available"))
                    })?;
                    link_arrays = Some((to_zero_based(a)?, to_zero_based(b)?));
                }
            }
        }

        let geometry_arrays: Vec<&DistArray<f64>> = geometry_names
            .iter()
            .map(|g| {
                self.real.get(g).ok_or_else(|| {
                    LangError::runtime(format!("GEOMETRY array '{g}' not available"))
                })
            })
            .collect::<Result<_, _>>()?;
        let load_array =
            match &load_name {
                Some(w) => Some(self.real.get(w).ok_or_else(|| {
                    LangError::runtime(format!("LOAD array '{w}' not available"))
                })?),
                None => None,
            };

        let mut spec = GeoColSpec::new(n).with_geometry(geometry_arrays);
        if let Some(l) = load_array {
            spec = spec.with_load(l);
        }
        if let Some((a, b)) = &link_arrays {
            spec = spec.with_link(a, b);
        }
        let geocol = MapperCoupler.construct_geocol(self.backend.machine_mut(), &spec);
        self.geocols.insert(name.to_string(), geocol);
        Ok(())
    }

    fn run_set_partition(
        &mut self,
        distfmt: &str,
        geocol: &str,
        partitioner: &str,
    ) -> Result<(), LangError> {
        let g = self.geocols.get(geocol).ok_or_else(|| {
            LangError::runtime(format!("GeoCoL '{geocol}' has not been CONSTRUCTed"))
        })?;
        let p = partitioner_by_name(partitioner).ok_or_else(|| {
            LangError::runtime(format!(
                "unknown partitioner '{partitioner}' (known: {:?})",
                chaos_geocol::registered_partitioner_names()
            ))
        })?;
        let outcome = MapperCoupler.partition(&mut self.backend, p.as_ref(), g);
        self.distfmts
            .insert(distfmt.to_string(), outcome.distribution);
        Ok(())
    }

    fn run_redistribute(&mut self, decomp: &str, distfmt: &str) -> Result<(), LangError> {
        let new_dist = self.distfmts.get(distfmt).cloned().ok_or_else(|| {
            LangError::runtime(format!("unknown distribution format '{distfmt}'"))
        })?;
        let aligned: Vec<String> = self
            .array_decomp
            .iter()
            .filter(|(_, d)| d.as_str() == decomp)
            .map(|(a, _)| a.clone())
            .collect();
        for name in aligned {
            if let Some(arr) = self.real.get_mut(&name) {
                MapperCoupler.redistribute(&mut self.backend, &mut self.registry, arr, &new_dist);
                self.report.arrays_redistributed += 1;
            } else if let Some(arr) = self.int.get_mut(&name) {
                MapperCoupler.redistribute(&mut self.backend, &mut self.registry, arr, &new_dist);
                self.report.arrays_redistributed += 1;
            }
            // The shards moved: any resident ghost-region values for the
            // array are stale regardless of which distribution they were
            // gathered under.
            self.registry.note_array_write(&name);
        }
        self.decomp_dist.insert(decomp.to_string(), new_dist);
        Ok(())
    }

    // ----- fault recovery ---------------------------------------------------

    /// Clone everything a sweep can touch into a restorable snapshot.
    fn take_snapshot(&self) -> ExecSnapshot {
        ExecSnapshot {
            machine: self.backend.machine().clone(),
            registry: self.registry.clone(),
            kernels: self.kernels.clone(),
            real: self.real.clone(),
            int: self.int.clone(),
            decomp_dist: self.decomp_dist.clone(),
            array_decomp: self.array_decomp.clone(),
            geocols: self.geocols.clone(),
            distfmts: self.distfmts.clone(),
            cache: self.cache.clone(),
            report: self.report.clone(),
        }
    }

    /// Roll the executor (and its machine) back to `snap`. The fault plan's
    /// consumed flags live outside the snapshot (shared `Arc`), so faults
    /// that already fired stay consumed after the restore.
    fn restore_snapshot(&mut self, snap: &ExecSnapshot) {
        *self.backend.machine_mut() = snap.machine.clone();
        self.registry = snap.registry.clone();
        self.kernels = snap.kernels.clone();
        self.real = snap.real.clone();
        self.int = snap.int.clone();
        self.decomp_dist = snap.decomp_dist.clone();
        self.array_decomp = snap.array_decomp.clone();
        self.geocols = snap.geocols.clone();
        self.distfmts = snap.distfmts.clone();
        self.cache = snap.cache.clone();
        self.report = snap.report.clone();
    }

    /// Modeled words each rank scans to copy the dirty (or, on a structural
    /// refresh, all) arrays into the checkpoint.
    fn checkpoint_rank_words(&self, everything: bool) -> Vec<usize> {
        let mut words = vec![0usize; self.backend.nprocs()];
        let include = |name: &str| everything || self.dirty.contains(name);
        for (name, arr) in &self.real {
            if include(name) {
                for (p, w) in words.iter_mut().enumerate() {
                    *w += arr.local(p).len();
                }
            }
        }
        for (name, arr) in &self.int {
            if include(name) {
                for (p, w) in words.iter_mut().enumerate() {
                    *w += arr.local(p).len();
                }
            }
        }
        words
    }

    /// Take (or incrementally refresh) the epoch checkpoint, charging the
    /// modeled scan cost of the words actually copied. Unchanged arrays are
    /// left alone — only dirty shards are re-copied, values-only, reusing
    /// the checkpoint's existing storage.
    fn refresh_checkpoint(&mut self) {
        let full = self.structural_change || self.checkpoint.is_none();
        let rank_words = self.checkpoint_rank_words(full);
        // The refresh is a real SPMD phase: classify it as Checkpoint (not
        // whatever kind the surrounding code had active) so the registry
        // attributes its scan cost to the checkpoint subsystem.
        let prev_kind = self
            .backend
            .machine_mut()
            .set_phase_kind(Some(PhaseKind::Checkpoint));
        charge_checkpoint(&mut self.backend, &rank_words);
        self.backend.machine_mut().set_phase_kind(prev_kind);
        self.backend
            .machine_mut()
            .observe(TraceEventKind::CheckpointRefresh, full as u32);

        match self.checkpoint.as_deref_mut() {
            Some(ckpt) if !full => {
                for name in &self.dirty {
                    if let (Some(dst), Some(src)) = (ckpt.real.get_mut(name), self.real.get(name)) {
                        dst.copy_values_from(src);
                    }
                    if let (Some(dst), Some(src)) = (ckpt.int.get_mut(name), self.int.get(name)) {
                        dst.copy_values_from(src);
                    }
                }
                ckpt.machine = self.backend.machine().clone();
                ckpt.registry = self.registry.clone();
                ckpt.kernels = self.kernels.clone();
                ckpt.cache = self.cache.clone();
                ckpt.report = self.report.clone();
            }
            _ => self.checkpoint = Some(Box::new(self.take_snapshot())),
        }
        self.journal.clear();
        self.dirty.clear();
        self.structural_change = false;
    }

    /// Refresh the checkpoint if the cadence says one is due.
    fn maybe_checkpoint(&mut self) {
        if self.checkpoint_every == 0 {
            return;
        }
        let due = match &self.checkpoint {
            None => true,
            Some(c) => {
                let (cur, ck) = (self.backend.machine().epoch(), c.machine.epoch());
                // `ck > cur`: the checkpoint was refreshed during an attempt
                // that then failed and was rolled back to a pre-refresh
                // snapshot — redo the refresh (and its modeled charges) so
                // the recovered timeline matches the fault-free one.
                ck > cur || cur - ck >= self.checkpoint_every
            }
        };
        if due {
            self.refresh_checkpoint();
        }
    }

    /// Record a successfully executed FORALL for rollback replay.
    fn note_sweep(&mut self, plan: &LoopPlan) {
        if self.checkpoint_every == 0 {
            return;
        }
        self.journal.push(plan.clone());
        for a in &plan.written_arrays {
            self.dirty.insert(a.clone());
        }
    }

    /// Run one FORALL attempt with panic containment: a panic (injected or
    /// organic) or a pending flaw (straggler) becomes a typed, diagnosed
    /// [`PhaseError`]. Mirrors `Backend::try_run_*`, but wraps the whole
    /// gather → compute → scatter sweep — and, with `refresh`, the
    /// epoch-checkpoint refresh before it: the refresh charges modeled scan
    /// cost through the backend (a real SPMD phase), so an injected fault
    /// can fire inside it. A failure there leaves the previous checkpoint
    /// and journal intact — the retry path restores a snapshot and redoes
    /// refresh + sweep.
    fn attempt_forall(
        &mut self,
        plan: &LoopPlan,
        refresh: bool,
    ) -> Result<Result<(), LangError>, PhaseError> {
        let attempt = catch_unwind(AssertUnwindSafe(|| {
            if refresh {
                self.maybe_checkpoint();
            }
            self.run_forall(plan)
        }));
        // A panic supersedes any straggler report from the same region.
        let flaw = self.backend.take_phase_flaw();
        let err = match attempt {
            Ok(inner) => match flaw {
                Some(flaw) => flaw,
                None => return Ok(inner),
            },
            Err(payload) => PhaseError::from_payload(self.backend.machine().epoch(), payload),
        };
        self.backend
            .machine_mut()
            .observe(TraceEventKind::ErrorDiagnosed, err.epoch() as u32);
        Err(err)
    }

    /// Execute a FORALL under the configured recovery policy.
    ///
    /// Recovery is *discard and re-run*: a failed region's recorded charges
    /// were never replayed onto the machine, and restoring a snapshot
    /// rewinds whatever the driver-side phases did commit, so a recovered
    /// run is bit-identical (values, clock bits, statistics) to a fault-free
    /// run — the property `tests/fault_recovery.rs` and the backend
    /// equivalence proptest check on both engines.
    fn run_forall_recovered(&mut self, plan: &LoopPlan) -> Result<(), LangError> {
        // Fast path: nothing to guard against and no recovery requested —
        // run unwrapped, exactly as before this subsystem existed.
        let guarded = self.backend.machine().fault_plan().is_some()
            || !matches!(self.policy, RecoveryPolicy::Abort);
        if !guarded {
            self.maybe_checkpoint();
            let result = self.run_forall(plan);
            if result.is_ok() {
                self.note_sweep(plan);
            }
            return result;
        }

        // The pre-sweep snapshot is taken *before* the checkpoint refresh:
        // the refresh charges modeled scan cost through the backend, so a
        // fault can fire inside it too — the attempt below therefore covers
        // checkpoint + sweep, and a retry redoes both from this snapshot.
        let presweep: Option<Box<ExecSnapshot>> = match self.policy {
            RecoveryPolicy::RetryPhase { .. } | RecoveryPolicy::DegradeToMachine => {
                Some(Box::new(self.take_snapshot()))
            }
            _ => None,
        };
        // The checkpoint bookkeeping lives outside ExecSnapshot (the
        // snapshot must not nest a second full copy of the state), so stash
        // it separately: if the attempt's checkpoint refresh succeeds but
        // the sweep then fails, the retry must redo the refresh with the
        // same dirty set to charge the same modeled scan cost.
        let premarks = presweep.as_ref().map(|_| {
            (
                self.journal.clone(),
                self.dirty.clone(),
                self.structural_change,
            )
        });
        let restore_marks = |slf: &mut Self| {
            if let Some((journal, dirty, structural)) = &premarks {
                slf.journal.clone_from(journal);
                slf.dirty.clone_from(dirty);
                slf.structural_change = *structural;
            }
        };

        let mut attempts: u32 = 0;
        loop {
            match self.attempt_forall(plan, true) {
                Ok(inner) => {
                    if inner.is_ok() {
                        self.note_sweep(plan);
                    }
                    return inner;
                }
                Err(flaw) => {
                    attempts += 1;
                    if attempts >= OVERALL_ATTEMPT_CAP {
                        return Err(LangError::phase(flaw));
                    }
                    match self.policy {
                        RecoveryPolicy::Abort => return Err(LangError::phase(flaw)),
                        RecoveryPolicy::RetryPhase {
                            max_attempts,
                            backoff,
                        } => {
                            if attempts > max_attempts {
                                return Err(LangError::phase(flaw));
                            }
                            if !backoff.is_zero() {
                                std::thread::sleep(backoff);
                            }
                            self.backend
                                .machine_mut()
                                .observe(TraceEventKind::RetryAttempt, attempts);
                            self.restore_snapshot(presweep.as_ref().expect("taken above"));
                            restore_marks(self);
                        }
                        RecoveryPolicy::RollbackToCheckpoint => {
                            let Some(ckpt) = self.checkpoint.take() else {
                                return Err(LangError::phase(flaw));
                            };
                            self.backend
                                .machine_mut()
                                .observe(TraceEventKind::Rollback, attempts);
                            self.restore_snapshot(&ckpt);
                            self.checkpoint = Some(ckpt);
                            // Replay the journal: the loops that ran since
                            // the checkpoint re-execute deterministically
                            // (their faults are consumed). A failure during
                            // replay is not retried further.
                            let journal = std::mem::take(&mut self.journal);
                            let mut replay_err = None;
                            for replayed in &journal {
                                match self.attempt_forall(replayed, false) {
                                    Ok(Ok(())) => {}
                                    Ok(Err(e)) => {
                                        replay_err = Some(e);
                                        break;
                                    }
                                    Err(f) => {
                                        replay_err = Some(LangError::phase(f));
                                        break;
                                    }
                                }
                            }
                            self.journal = journal;
                            if let Some(e) = replay_err {
                                return Err(e);
                            }
                        }
                        RecoveryPolicy::DegradeToMachine => {
                            self.backend
                                .machine_mut()
                                .observe(TraceEventKind::Degrade, attempts);
                            self.backend.degrade();
                            self.restore_snapshot(presweep.as_ref().expect("taken above"));
                            restore_marks(self);
                        }
                    }
                }
            }
        }
    }

    // ----- FORALL execution -------------------------------------------------

    fn run_forall(&mut self, plan: &LoopPlan) -> Result<(), LangError> {
        let lo = self.eval_size(&plan.lo)?;
        let hi = self.eval_size(&plan.hi)?;
        let niters = hi.saturating_sub(lo).saturating_add(1);
        if hi < lo {
            return Ok(());
        }

        // Reuse check (Section 3): compare the arrays' current DADs and the
        // indirection arrays' modification stamps with what the last
        // inspector recorded.
        let loop_id = LoopId::new(&plan.label);
        let data_dads: Vec<_> = plan
            .data_arrays
            .iter()
            .map(|a| self.real_dad(a))
            .collect::<Result<_, _>>()?;
        let ind_dads: Vec<_> = plan
            .indirection_arrays
            .iter()
            .map(|a| self.int_dad(a))
            .collect::<Result<_, _>>()?;

        let prev_kind = self
            .backend
            .machine_mut()
            .set_phase_kind(Some(PhaseKind::Inspector));
        let can_reuse = if self.reuse_enabled {
            self.registry
                .check_on_machine(
                    self.backend.machine_mut(),
                    &plan.label,
                    &loop_id,
                    &data_dads,
                    &ind_dads,
                )
                .can_reuse()
                && self.cache.contains_key(&plan.label)
        } else {
            false
        };

        if can_reuse {
            self.report.reuse_hits += 1;
        } else {
            self.run_inspector(plan, lo, niters)?;
            self.registry
                .save_inspector(loop_id, data_dads.clone(), ind_dads.clone());
            // The kernel's bindings were resolved against the previous
            // inspector state: recompile on the next sweep.
            self.kernels.invalidate(loop_id);
        }
        self.backend.machine_mut().set_phase_kind(prev_kind);

        // Executor sweep.
        let prev_kind = self
            .backend
            .machine_mut()
            .set_phase_kind(Some(PhaseKind::Executor));
        self.run_executor(plan)?;
        self.backend.machine_mut().set_phase_kind(prev_kind);

        // The loop (one executed block of code) may have written its LHS
        // arrays: stamp their DADs.
        let written_dads: Vec<_> = plan
            .written_arrays
            .iter()
            .map(|a| self.real_dad(a))
            .collect::<Result<Vec<_>, _>>()?;
        let refs: Vec<&chaos_runtime::Dad> = written_dads.iter().collect();
        self.registry.record_write_block(&refs);
        for a in &plan.written_arrays {
            self.registry.note_array_write(a);
        }

        self.report.loop_sweeps += 1;
        Ok(())
    }

    fn real_dad(&self, name: &str) -> Result<chaos_runtime::Dad, LangError> {
        self.real
            .get(name)
            .map(DistArray::dad)
            .ok_or_else(|| LangError::runtime(format!("REAL array '{name}' not materialized")))
    }

    fn int_dad(&self, name: &str) -> Result<chaos_runtime::Dad, LangError> {
        self.int
            .get(name)
            .map(DistArray::dad)
            .ok_or_else(|| LangError::runtime(format!("INTEGER array '{name}' not materialized")))
    }

    /// Decomposition name of a slot's array.
    fn slot_decomp(&self, slot: &RefSlot) -> Result<String, LangError> {
        self.array_decomp
            .get(&slot.array)
            .cloned()
            .ok_or_else(|| LangError::runtime(format!("array '{}' not ALIGNed", slot.array)))
    }

    /// Run iteration partitioning and the inspector(s) for a loop, caching
    /// the results.
    fn run_inspector(
        &mut self,
        plan: &LoopPlan,
        lo: usize,
        niters: usize,
    ) -> Result<(), LangError> {
        // Snapshot the indirection arrays' global values (1-based) once.
        let mut ind_values: HashMap<String, Vec<u32>> = HashMap::new();
        for ia in &plan.indirection_arrays {
            let arr = self.int.get(ia).ok_or_else(|| {
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

        // Iteration partitioning (phase B). Partition with respect to the
        // indirectly-referenced data decomposition; regular loops fall back
        // to a block partition of the iteration space.
        let policy = if plan.irregular {
            self.iter_policy
        } else {
            IterPartitionPolicy::BlockOfIterations
        };
        let part_dist = if plan.irregular {
            let decomp = plan
                .slots
                .iter()
                .find(|s| matches!(s.index, Index::Indirect(_)))
                .map(|s| self.slot_decomp(s))
                .transpose()?
                .expect("irregular loop has an indirect slot");
            self.decomp_dist.get(&decomp).cloned().ok_or_else(|| {
                LangError::runtime(format!("decomposition '{decomp}' not distributed"))
            })?
        } else {
            Distribution::block(niters.max(1), self.backend.nprocs())
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
            .backend
            .machine_mut()
            .set_phase_kind(Some(PhaseKind::Inspector));
        let iter_part = chaos_runtime::iterpart::partition_iterations(
            self.backend.machine_mut(),
            &part_dist,
            &iteration_refs,
            policy,
        );
        self.report.iteration_partitions += 1;

        // Group slots by the decomposition of their array and build each
        // group's access pattern.
        let mut groups: BTreeMap<String, Vec<usize>> = BTreeMap::new();
        for (i, slot) in plan.slots.iter().enumerate() {
            groups.entry(self.slot_decomp(slot)?).or_default().push(i);
        }

        let nprocs = self.backend.nprocs();
        struct PendingGroup {
            decomp: String,
            slot_ids: Vec<usize>,
            dist: Distribution,
            pattern: AccessPattern,
        }
        let mut pending: Vec<PendingGroup> = Vec::with_capacity(groups.len());
        for (decomp, slot_ids) in groups {
            let dist = self.decomp_dist.get(&decomp).cloned().ok_or_else(|| {
                LangError::runtime(format!("decomposition '{decomp}' not distributed"))
            })?;
            let mut pattern = AccessPattern::new(nprocs);
            for p in 0..nprocs {
                let refs = &mut pattern.refs[p];
                refs.reserve(iter_part.iters(p).len() * slot_ids.len());
                for &it0 in iter_part.iters(p) {
                    let it = lo + it0 as usize;
                    for &sid in &slot_ids {
                        refs.push(global_of(&plan.slots[sid], it)? as u32);
                    }
                }
            }
            pending.push(PendingGroup {
                decomp,
                slot_ids,
                dist,
                pattern,
            });
        }

        // Localize every group with its request exchange deferred, bind
        // each schedule into its distribution's shared resident ghost
        // region (computing the difference against the union of ghosts
        // already requested by earlier loops), and request only the missing
        // ghosts: one tagged-offset exchange folds every group's difference
        // — including groups over *different* distributions — into a single
        // message per processor pair.
        let loop_key = LoopId::new(&plan.label).index() as u32;
        let mut scratch = LocalizeScratch::default();
        let mut full_msgs = 0usize;
        let mut full_words = 0usize;
        let mut cached_groups: BTreeMap<String, CachedGroup> = BTreeMap::new();
        for g in pending {
            let result = Inspector.localize_deferred_exchange(
                &mut self.backend,
                &plan.label,
                &g.dist,
                &g.pattern,
                &mut scratch,
            );
            let sig = chaos_runtime::Dad::of(&g.dist).signature();
            let region = self.registry.region_bind(sig, loop_key, &result.schedule);
            if region.diff.total_ghosts() < result.schedule.total_ghosts() {
                self.report.incremental_bindings += 1;
            }
            full_msgs += result.schedule.message_count();
            full_words += result.schedule.total_ghosts();
            cached_groups.insert(
                g.decomp,
                CachedGroup {
                    slot_ids: g.slot_ids,
                    result,
                    region,
                },
            );
        }
        let parts: Vec<&chaos_runtime::CommSchedule> =
            cached_groups.values().map(|g| &g.region.diff).collect();
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
        self.backend.machine_mut().set_phase_kind(prev_kind);

        self.cache.insert(
            plan.label.clone(),
            CachedLoop {
                iter_part,
                groups: cached_groups,
            },
        );
        self.report.inspector_runs += 1;
        Ok(())
    }

    /// One executor sweep of a loop using the cached inspector state.
    ///
    /// The cached state is taken out of the map for the duration of the
    /// sweep (no per-sweep clone of the localized references) and restored
    /// afterwards.
    fn run_executor(&mut self, plan: &LoopPlan) -> Result<(), LangError> {
        let Some(cached) = self.cache.remove(&plan.label) else {
            return Err(LangError::runtime(format!(
                "no inspector state cached for '{}'",
                plan.label
            )));
        };
        let result = self.run_executor_cached(plan, &cached);
        self.cache.insert(plan.label.clone(), cached);
        result
    }

    /// Dispatch the sweep to the compiled-kernel or tree-walking body.
    fn run_executor_cached(
        &mut self,
        plan: &LoopPlan,
        cached: &CachedLoop,
    ) -> Result<(), LangError> {
        match self.kernel_mode {
            KernelMode::Compiled => {
                // Kernel reuse mirrors schedule reuse: the entry was
                // invalidated iff the inspector re-ran.
                let loop_id = LoopId::new(&plan.label);
                let mut entry = match self.kernels.take(loop_id) {
                    Some(e) => {
                        self.report.kernel_reuse_hits += 1;
                        e
                    }
                    None => {
                        let groups = Self::group_specs(cached);
                        let kernel =
                            Arc::new(compile_kernel(plan, &groups).map_err(LangError::runtime)?);
                        let ghost_counts: Vec<Vec<usize>> = cached
                            .groups
                            .values()
                            .map(|g| g.result.ghost_counts.clone())
                            .collect();
                        let buffers = SweepBuffers::for_bindings(&kernel.bindings, &ghost_counts);
                        self.report.kernels_compiled += 1;
                        KernelEntry { kernel, buffers }
                    }
                };
                let kernel = Arc::clone(&entry.kernel);
                let res = self.run_sweep(
                    plan,
                    cached,
                    &kernel.bindings,
                    &mut entry.buffers,
                    |st, area| run_rank(&kernel, st, area),
                );
                self.kernels.put(loop_id, entry);
                res
            }
            KernelMode::Interpreted => {
                // The oracle neither compiles nor caches: bindings and
                // buffers are rebuilt every sweep, and the body walks the
                // expression trees per element.
                let groups = Self::group_specs(cached);
                let bindings = KernelBindings::bind(plan, &groups).map_err(LangError::runtime)?;
                let ghost_counts: Vec<Vec<usize>> = cached
                    .groups
                    .values()
                    .map(|g| g.result.ghost_counts.clone())
                    .collect();
                let mut buffers = SweepBuffers::for_bindings(&bindings, &ghost_counts);
                self.run_sweep(plan, cached, &bindings, &mut buffers, |st, area| {
                    run_rank_interpreted(plan, &bindings, st, area)
                })
            }
        }
    }

    /// The cached inspector layout as the kernel compiler's group specs.
    fn group_specs(cached: &CachedLoop) -> Vec<GroupSpec> {
        cached
            .groups
            .iter()
            .map(|(decomp, g)| GroupSpec {
                decomp: decomp.clone(),
                slot_ids: g.slot_ids.clone(),
            })
            .collect()
    }

    /// The executor sweep shared by both kernel modes: gather every bound
    /// ghost buffer, run the body rank-parallel, then scatter the touched
    /// write buffers — all in the bindings' deterministic order, so the two
    /// modes (and both engines) agree byte-for-byte on values, clocks
    /// and statistics.
    ///
    /// The whole sweep is *one* [`Backend::run_sweep`] region: gathers are
    /// folded in driver-side via [`gather_inline`] and the scatters run as
    /// the region's pack/combine stages — one epoch, one engine release.
    fn run_sweep<K>(
        &mut self,
        plan: &LoopPlan,
        cached: &CachedLoop,
        bindings: &KernelBindings,
        bufs: &mut SweepBuffers,
        body: K,
    ) -> Result<(), LangError>
    where
        K: Fn(&mut RankState<'_>, &mut RankSweepArea) + Sync,
    {
        let nprocs = self.backend.nprocs();
        let groups: Vec<&CachedGroup> = cached.groups.values().collect();

        // Every bound array must be materialized before any state is moved.
        for name in bindings.written.iter().chain(&bindings.read_only) {
            if !self.real.contains_key(name) {
                return Err(LangError::runtime(format!(
                    "array '{name}' not materialized"
                )));
            }
        }

        // Gather phase: one gather per bound ghost buffer, driver-side
        // inside the sweep's single epoch.
        //
        // Each buffer first swaps the `(distribution, array)` resident
        // region rows in place of its loop-local rows — they are swapped
        // back at the end of the sweep, so resident values persist across
        // loops and sweeps. If every chunk this binding depends on still
        // holds fresh values for the array, only the binding's own
        // difference is gathered (into its chunk); otherwise the loop's
        // full schedule is gathered through the slot re-binding map,
        // refreshing the binding's chunk.
        for (gid, gb) in bindings.ghosts.iter().enumerate() {
            let group = groups[gb.group as usize];
            let result = &group.result;
            let rb = &group.region;
            let arr = self.real.get(&gb.array).expect("checked above");
            let region = self
                .registry
                .region(rb.sig)
                .expect("region bound by the inspector");
            let stamp = self.registry.array_stamp(&gb.array);
            let rv = self.kernels.region_values_mut(rb.sig, &gb.array);
            if rv.era != stamp {
                // The array was written since the region rows were last
                // gathered: every chunk's values are stale for it.
                rv.era = stamp;
                rv.fresh.iter_mut().for_each(|f| *f = false);
            }
            if rv.fresh.len() < region.nchunks() {
                rv.fresh.resize(region.nchunks(), false);
            }
            if rv.rows.len() < nprocs {
                rv.rows.resize_with(nprocs, Vec::new);
            }
            for (p, row) in rv.rows.iter_mut().enumerate() {
                if row.len() < region.size(p) {
                    row.resize(region.size(p), 0.0);
                }
            }
            for (p, area) in bufs.areas.iter_mut().enumerate() {
                std::mem::swap(&mut area.ghosts[gid], &mut rv.rows[p]);
            }
            let rows = bufs.areas.iter_mut().map(|a| &mut a.ghosts[gid]);
            let machine = self.backend.machine_mut();
            if rb.deps.iter().all(|&c| rv.fresh[c as usize]) {
                // Everything outside this binding's own chunk is resident
                // and fresh: fetch only the ghosts earlier loops didn't.
                gather_inline(machine, &rb.diff, arr, Landing::Offset(&rb.base), rows);
                let msgs = result.schedule.message_count() - rb.diff.message_count();
                let words = result.schedule.total_ghosts() - rb.diff.total_ghosts();
                if msgs > 0 || words > 0 {
                    machine.note_schedule_savings(SAVED_GATHER_LABEL, msgs, words);
                }
            } else {
                // A dependency chunk is stale: gather the loop's own full
                // schedule, scattered through the slot re-binding map.
                let landing = Landing::Mapped(&rb.slot_map);
                gather_inline(machine, &result.schedule, arr, landing, rows);
            }
            rv.fresh[rb.chunk as usize] = true;
        }

        // Move the written arrays out of the environment so their shards
        // can be loaned mutably, one per rank, into the compute kernels.
        let mut written: Vec<DistArray<f64>> = bindings
            .written
            .iter()
            .map(|name| self.real.remove(name).expect("checked above"))
            .collect();
        {
            let real = &self.real;
            let read_arrays: Vec<&DistArray<f64>> = bindings
                .read_only
                .iter()
                .map(|name| real.get(name).expect("checked above"))
                .collect();
            let mut states: Vec<RankState<'_>> = (0..nprocs)
                .map(|p| RankState {
                    rank: p,
                    iters: cached.iter_part.iters(p),
                    shards: Vec::with_capacity(written.len()),
                    read_shards: read_arrays.iter().map(|a| a.local(p)).collect(),
                    localized: groups
                        .iter()
                        .map(|g| g.result.localized[p].as_slice())
                        .collect(),
                    ghost_maps: bindings
                        .ghosts
                        .iter()
                        .map(|gb| groups[gb.group as usize].region.slot_map[p].as_slice())
                        .collect(),
                })
                .collect();
            for arr in written.iter_mut() {
                for (p, shard) in arr.par_shards_mut().enumerate() {
                    states[p].shards.push(shard);
                }
            }

            let ops_per_iteration = plan.ops_per_iteration;
            // One region for the rest of the sweep: compute plus every
            // scatter's pack/combine (touched write buffers only —
            // untouched ones carry nothing but identities), with one epoch
            // and one release.
            self.backend.run_sweep(
                &mut states,
                &mut bufs.areas,
                |ctx, st: &mut RankState<'_>, area: &mut RankSweepArea| {
                    let iters = st.iters.len();
                    body(st, area);
                    ctx.charge_compute(ctx.rank(), iters as f64 * ops_per_iteration);
                },
                bindings.write_bufs.len(),
                |areas: &[RankSweepArea], j| areas.iter().any(|a| a.touched[j]),
                |ctx, j| {
                    let binding = &bindings.write_bufs[j];
                    scatter_pack_kernel(ctx, &groups[binding.group as usize].result.schedule);
                },
                |ctx, j, st: &mut RankState<'_>, areas: &[RankSweepArea]| {
                    let binding = &bindings.write_bufs[j];
                    let kind = binding.kind;
                    scatter_combine_rows(
                        ctx,
                        &groups[binding.group as usize].result.schedule,
                        |p| areas[p].contrib[j].as_slice(),
                        &mut st.shards[binding.written as usize][..],
                        &|a, b| kind.apply(a, b),
                    );
                },
            );
        }

        for (name, arr) in bindings.written.iter().zip(written) {
            self.real.insert(name.clone(), arr);
        }

        // Park the resident region rows back in the kernel cache (the
        // reverse of the gather-phase swap) so their values persist for the
        // next loop over the same distribution.
        for (gid, gb) in bindings.ghosts.iter().enumerate() {
            let sig = groups[gb.group as usize].region.sig;
            let rv = self.kernels.region_values_mut(sig, &gb.array);
            for (p, area) in bufs.areas.iter_mut().enumerate() {
                std::mem::swap(&mut area.ghosts[gid], &mut rv.rows[p]);
            }
        }

        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    /// The edge-flux intrinsic (the arithmetic lives with the kernel VM
    /// now; this alias keeps the sequential references readable).
    use crate::kernel::eflux as chaos_workloads_eflux;
    use crate::lower::lower_program;
    use crate::parser::parse_program;

    const EDGE_PROGRAM: &str = r#"
        REAL*8 x(nnode), y(nnode)
        INTEGER end_pt1(nedge), end_pt2(nedge)
        DYNAMIC, DECOMPOSITION reg(nnode), reg2(nedge)
        DISTRIBUTE reg(BLOCK)
        DISTRIBUTE reg2(BLOCK)
        ALIGN x, y WITH reg
        ALIGN end_pt1, end_pt2 WITH reg2
        CALL READ_DATA(x, y, end_pt1, end_pt2)
        FORALL i = 1, nedge
          REDUCE(ADD, y(end_pt1(i)), EFLUX1(x(end_pt1(i)), x(end_pt2(i))))
          REDUCE(ADD, y(end_pt2(i)), EFLUX2(x(end_pt1(i)), x(end_pt2(i))))
        END FORALL
    "#;

    /// A small chain mesh: node i connects to node i+1 (1-based values).
    /// Note nedge = nnode - 1 so that the node and edge decompositions have
    /// *different* DADs; with equal sizes the conservative DAD-based write
    /// tracking would (correctly, but unhelpfully for this test) invalidate
    /// the schedule every sweep because y shares a DAD with the endpoint
    /// arrays.
    fn ring_inputs(nnode: usize) -> ProgramInputs {
        let nedge = nnode - 1;
        let e1: Vec<u32> = (1..nnode as u32).collect();
        let e2: Vec<u32> = (2..=nnode as u32).collect();
        let x: Vec<f64> = (0..nnode).map(|i| (i as f64 * 0.7).sin() + 2.0).collect();
        ProgramInputs::new()
            .scalar("nnode", nnode)
            .scalar("nedge", nedge)
            .real("x", x)
            .real("y", vec![0.0; nnode])
            .int("end_pt1", e1)
            .int("end_pt2", e2)
    }

    /// Sequential reference for the edge loop.
    fn reference_y(inputs: &ProgramInputs) -> Vec<f64> {
        let x = &inputs.real_arrays["x"];
        let e1 = &inputs.int_arrays["end_pt1"];
        let e2 = &inputs.int_arrays["end_pt2"];
        let mut y = inputs.real_arrays["y"].clone();
        for i in 0..e1.len() {
            let a = e1[i] as usize - 1;
            let b = e2[i] as usize - 1;
            let (f1, f2) = chaos_workloads_eflux(x[a], x[b]);
            y[a] += f1;
            y[b] += f2;
        }
        y
    }

    fn compiled() -> CompiledProgram {
        lower_program(parse_program(EDGE_PROGRAM).unwrap()).unwrap()
    }

    #[test]
    fn edge_loop_matches_sequential_reference() {
        let inputs = ring_inputs(40);
        let expected = reference_y(&inputs);
        let cp = compiled();
        let mut exec = Executor::new(MachineConfig::ipsc860(4), inputs);
        exec.run(&cp).unwrap();
        let y = exec.real_global("y").unwrap();
        for (i, (a, b)) in y.iter().zip(&expected).enumerate() {
            assert!((a - b).abs() < 1e-10, "y[{i}]: {a} vs {b}");
        }
        assert_eq!(exec.report().loop_sweeps, 1);
        assert_eq!(exec.report().inspector_runs, 1);
    }

    /// Values of `y`, the execution report, per-processor clock bits and
    /// communication totals of a pooled run against the sequential oracle.
    fn assert_engines_agree(seq: &Executor<Machine>, pool: &Executor<PooledBackend>) {
        let ys = seq.real_global("y").unwrap();
        let yp = pool.real_global("y").unwrap();
        for (i, (a, b)) in ys.iter().zip(&yp).enumerate() {
            assert_eq!(a.to_bits(), b.to_bits(), "y[{i}] diverged: {a} vs {b}");
        }
        assert_eq!(seq.report(), pool.report());
        let (es, ep) = (seq.machine().elapsed(), pool.machine().elapsed());
        for p in 0..es.per_proc.len() {
            assert_eq!(es.per_proc[p].to_bits(), ep.per_proc[p].to_bits());
        }
        let (ss, sp) = (
            seq.machine().stats().grand_totals(),
            pool.machine().stats().grand_totals(),
        );
        assert_eq!(ss.messages, sp.messages);
        assert_eq!(ss.bytes, sp.bytes);
        assert_eq!(ss.phases, sp.phases);
        assert_eq!(ss.comm_seconds.to_bits(), sp.comm_seconds.to_bits());
    }

    #[test]
    fn pooled_backend_runs_whole_programs_bit_identically() {
        // The same program on the sequential engine and the persistent
        // worker pool — with ranks striped over fewer lanes (3) and with
        // one lane per rank (4): identical values, identical modeled
        // clocks, identical statistics.
        let inputs = random_inputs(300, 1200);
        let cp = compiled();
        let mut seq = Executor::new(MachineConfig::ipsc860(4), inputs.clone());
        seq.run(&cp).unwrap();
        for _ in 0..3 {
            seq.execute_loop(&cp, "L1").unwrap();
        }
        for workers in [3, 4] {
            let mut pool = Executor::new_pooled_with_workers(
                MachineConfig::ipsc860(4),
                workers,
                inputs.clone(),
            );
            pool.run(&cp).unwrap();
            for _ in 0..3 {
                pool.execute_loop(&cp, "L1").unwrap();
            }
            assert_engines_agree(&seq, &pool);
        }
    }

    #[test]
    fn repartition_phases_run_rank_parallel_and_bit_identically() {
        // The MAPPED_PROGRAM's CONSTRUCT → SET ... BY PARTITIONING (RSB) →
        // REDISTRIBUTE preamble routes the partitioner's scans and the
        // remap through the backend: the whole program must agree across
        // Machine and PooledBackend (3 and 4 lanes) — values, modeled
        // clocks and statistics, bit for bit — including the partitioner
        // phase itself.
        let inputs = ring_inputs(64);
        let cp = lower_program(parse_program(MAPPED_PROGRAM).unwrap()).unwrap();
        let mut seq = Executor::new(MachineConfig::ipsc860(4), inputs.clone());
        seq.run(&cp).unwrap();
        for _ in 0..2 {
            seq.execute_loop(&cp, "L1").unwrap();
        }
        // The node decomposition really was repartitioned (irregular now).
        assert_eq!(seq.decomposition("reg").unwrap().kind_name(), "IRREGULAR");
        for workers in [3, 4] {
            let mut pool = Executor::new_pooled_with_workers(
                MachineConfig::ipsc860(4),
                workers,
                inputs.clone(),
            );
            pool.run(&cp).unwrap();
            for _ in 0..2 {
                pool.execute_loop(&cp, "L1").unwrap();
            }
            assert_engines_agree(&seq, &pool);
        }
    }

    #[test]
    fn repeated_sweeps_reuse_the_schedule() {
        let inputs = ring_inputs(32);
        let cp = compiled();
        let mut exec = Executor::new(MachineConfig::ipsc860(4), inputs);
        exec.run(&cp).unwrap();
        for _ in 0..5 {
            exec.execute_loop(&cp, "L1").unwrap();
        }
        assert_eq!(exec.report().loop_sweeps, 6);
        assert_eq!(exec.report().inspector_runs, 1, "inspector runs once");
        assert_eq!(exec.report().reuse_hits, 5);
    }

    #[test]
    fn disabling_reuse_reruns_the_inspector_every_sweep() {
        let inputs = ring_inputs(32);
        let cp = compiled();
        let mut exec = Executor::new(MachineConfig::ipsc860(4), inputs).with_reuse(false);
        exec.run(&cp).unwrap();
        for _ in 0..4 {
            exec.execute_loop(&cp, "L1").unwrap();
        }
        assert_eq!(exec.report().inspector_runs, 5);
        assert_eq!(exec.report().reuse_hits, 0);
    }

    #[test]
    fn rereading_an_indirection_array_reruns_the_inspector() {
        // Section 3: any block that may write an indirection array bumps
        // `nmod`, so the loop's saved schedule is no longer valid. Reading
        // a data array on another decomposition leaves it valid.
        let run = |reread: &str| {
            let src = format!("{EDGE_PROGRAM}\n        CALL READ_DATA({reread})\n");
            let cp = lower_program(parse_program(&src).unwrap()).unwrap();
            let mut exec = Executor::new(MachineConfig::ipsc860(4), ring_inputs(32));
            exec.run(&cp).unwrap();
            exec.execute_loop(&cp, "L1").unwrap();
            exec.execute_loop(&cp, "L1").unwrap();
            (exec.report().inspector_runs, exec.report().reuse_hits)
        };
        assert_eq!(run("end_pt1, end_pt2"), (2, 1));
        assert_eq!(run("x"), (1, 2));
    }

    /// Inputs with randomly connected edges, so the inspector has real work
    /// to do (many off-processor references): this is where schedule reuse
    /// pays off, as in the paper's meshes.
    fn random_inputs(nnode: usize, nedge: usize) -> ProgramInputs {
        let mut state = 0xC4A05u64;
        let mut next = |m: usize| -> u32 {
            state = state
                .wrapping_mul(6364136223846793005)
                .wrapping_add(1442695040888963407);
            ((state >> 33) as usize % m) as u32 + 1
        };
        let mut e1 = Vec::with_capacity(nedge);
        let mut e2 = Vec::with_capacity(nedge);
        for _ in 0..nedge {
            let a = next(nnode);
            let mut b = next(nnode);
            if b == a {
                b = a % nnode as u32 + 1;
            }
            e1.push(a);
            e2.push(b);
        }
        let x: Vec<f64> = (0..nnode).map(|i| (i as f64 * 0.3).cos() + 2.0).collect();
        ProgramInputs::new()
            .scalar("nnode", nnode)
            .scalar("nedge", nedge)
            .real("x", x)
            .real("y", vec![0.0; nnode])
            .int("end_pt1", e1)
            .int("end_pt2", e2)
    }

    #[test]
    fn reuse_saves_the_inspector_phase() {
        // The paper's Table 1 claim: with reuse the inspector runs once,
        // without it before every sweep, and the modeled time of the
        // Inspector phase shows it. (Total time is the wrong yardstick
        // here: a re-bound loop finds all its ghosts resident, so the
        // no-reuse arm's *gathers* fetch nothing and come out cheaper.)
        let inputs = random_inputs(400, 1600);
        let cp = compiled();
        let run = |reuse: bool| {
            let mut exec =
                Executor::new(MachineConfig::ipsc860(4), inputs.clone()).with_reuse(reuse);
            exec.run(&cp).unwrap();
            for _ in 0..10 {
                exec.execute_loop(&cp, "L1").unwrap();
            }
            (
                exec.machine().phase_elapsed(PhaseKind::Inspector),
                exec.report().inspector_runs,
            )
        };
        let (with_time, with_runs) = run(true);
        let (without_time, without_runs) = run(false);
        assert_eq!((with_runs, without_runs), (1, 11));
        // Under a BLOCK distribution the inspector is comparatively cheap
        // (index translation is local arithmetic); the paper-scale factors
        // appear once the data is irregularly distributed (see the Table 1
        // bench and the integration tests).
        assert!(
            without_time > 1.2 * with_time,
            "no-reuse inspector ({without_time}) should be above reuse ({with_time})"
        );
    }

    #[test]
    fn results_identical_with_and_without_reuse() {
        let inputs = ring_inputs(48);
        let cp = compiled();
        let mut a = Executor::new(MachineConfig::ipsc860(4), inputs.clone());
        let mut b = Executor::new(MachineConfig::ipsc860(4), inputs).with_reuse(false);
        a.run(&cp).unwrap();
        b.run(&cp).unwrap();
        for _ in 0..3 {
            a.execute_loop(&cp, "L1").unwrap();
            b.execute_loop(&cp, "L1").unwrap();
        }
        let ya = a.real_global("y").unwrap();
        let yb = b.real_global("y").unwrap();
        for (u, v) in ya.iter().zip(&yb) {
            assert!((u - v).abs() < 1e-12);
        }
    }

    const MAPPED_PROGRAM: &str = r#"
        REAL*8 x(nnode), y(nnode)
        INTEGER end_pt1(nedge), end_pt2(nedge)
        DYNAMIC, DECOMPOSITION reg(nnode), reg2(nedge)
        DISTRIBUTE reg(BLOCK)
        DISTRIBUTE reg2(BLOCK)
        ALIGN x, y WITH reg
        ALIGN end_pt1, end_pt2 WITH reg2
        CALL READ_DATA(x, y, end_pt1, end_pt2)
C$      CONSTRUCT G (nnode, LINK(nedge, end_pt1, end_pt2))
C$      SET distfmt BY PARTITIONING G USING RSB
C$      REDISTRIBUTE reg(distfmt)
        FORALL i = 1, nedge
          REDUCE(ADD, y(end_pt1(i)), EFLUX1(x(end_pt1(i)), x(end_pt2(i))))
          REDUCE(ADD, y(end_pt2(i)), EFLUX2(x(end_pt1(i)), x(end_pt2(i))))
        END FORALL
    "#;

    #[test]
    fn figure4_program_with_implicit_mapping_runs_and_matches_reference() {
        let inputs = ring_inputs(40);
        let expected = reference_y(&inputs);
        let cp = lower_program(parse_program(MAPPED_PROGRAM).unwrap()).unwrap();
        let mut exec = Executor::new(MachineConfig::ipsc860(4), inputs);
        exec.run(&cp).unwrap();
        assert!(exec.report().arrays_redistributed >= 2, "x and y remapped");
        let y = exec.real_global("y").unwrap();
        for (a, b) in y.iter().zip(&expected) {
            assert!((a - b).abs() < 1e-10);
        }
        // After redistribution the node decomposition is irregular.
        assert_eq!(exec.decomposition("reg").unwrap().kind_name(), "IRREGULAR");
    }

    #[test]
    fn redistribute_invalidates_previous_schedules() {
        // Run the loop under BLOCK, then CONSTRUCT/SET/REDISTRIBUTE, then run
        // again: the inspector must re-run because x and y changed DADs.
        let src = r#"
            REAL*8 x(nnode), y(nnode)
            INTEGER end_pt1(nedge), end_pt2(nedge)
            DYNAMIC, DECOMPOSITION reg(nnode), reg2(nedge)
            DISTRIBUTE reg(BLOCK)
            DISTRIBUTE reg2(BLOCK)
            ALIGN x, y WITH reg
            ALIGN end_pt1, end_pt2 WITH reg2
            CALL READ_DATA(x, y, end_pt1, end_pt2)
            FORALL i = 1, nedge
              REDUCE(ADD, y(end_pt1(i)), EFLUX1(x(end_pt1(i)), x(end_pt2(i))))
              REDUCE(ADD, y(end_pt2(i)), EFLUX2(x(end_pt1(i)), x(end_pt2(i))))
            END FORALL
C$          CONSTRUCT G (nnode, LINK(nedge, end_pt1, end_pt2))
C$          SET distfmt BY PARTITIONING G USING RCB2D
C$          REDISTRIBUTE reg(distfmt)
        "#
        .replace("RCB2D", "RSB");
        let cp = lower_program(parse_program(&src).unwrap()).unwrap();
        let mut exec = Executor::new(MachineConfig::ipsc860(4), ring_inputs(32));
        exec.run(&cp).unwrap();
        assert_eq!(exec.report().inspector_runs, 1);
        // Re-run the loop after the remap: must re-inspect, then reuse again.
        exec.execute_loop(&cp, "L1").unwrap();
        assert_eq!(exec.report().inspector_runs, 2);
        exec.execute_loop(&cp, "L1").unwrap();
        assert_eq!(exec.report().inspector_runs, 2);
        assert_eq!(exec.report().reuse_hits, 1);
    }

    #[test]
    fn regular_loop_executes_without_indirection() {
        let src = r#"
            REAL*8 x(n), y(n)
            DECOMPOSITION reg(n)
            DISTRIBUTE reg(BLOCK)
            ALIGN x, y WITH reg
            CALL READ_DATA(x, y)
            FORALL i = 1, n
              y(i) = x(i) * 2.0 + 1.0
            END FORALL
        "#;
        let cp = lower_program(parse_program(src).unwrap()).unwrap();
        let inputs = ProgramInputs::new()
            .scalar("n", 10)
            .real("x", (0..10).map(|i| i as f64).collect())
            .real("y", vec![0.0; 10]);
        let mut exec = Executor::new(MachineConfig::ipsc860(2), inputs);
        exec.run(&cp).unwrap();
        let y = exec.real_global("y").unwrap();
        assert_eq!(y, (0..10).map(|i| i as f64 * 2.0 + 1.0).collect::<Vec<_>>());
    }

    #[test]
    fn missing_scalar_is_a_runtime_error() {
        let cp = compiled();
        let mut exec = Executor::new(MachineConfig::ipsc860(2), ProgramInputs::new());
        let err = exec.run(&cp).unwrap_err();
        assert!(err.to_string().contains("was not provided"));
    }

    #[test]
    fn unknown_partitioner_is_reported() {
        let src = r#"
            REAL*8 x(n)
            INTEGER e1(m), e2(m)
            DECOMPOSITION reg(n), reg2(m)
            DISTRIBUTE reg(BLOCK)
            DISTRIBUTE reg2(BLOCK)
            ALIGN x WITH reg
            ALIGN e1, e2 WITH reg2
            CALL READ_DATA(e1, e2)
C$          CONSTRUCT G (n, LINK(m, e1, e2))
C$          SET fmt BY PARTITIONING G USING METIS
        "#;
        let cp = lower_program(parse_program(src).unwrap()).unwrap();
        let inputs = ProgramInputs::new()
            .scalar("n", 8)
            .scalar("m", 4)
            .int("e1", vec![1, 2, 3, 4])
            .int("e2", vec![5, 6, 7, 8]);
        let mut exec = Executor::new(MachineConfig::ipsc860(2), inputs);
        let err = exec.run(&cp).unwrap_err();
        assert!(err.to_string().contains("unknown partitioner"));
    }
}
