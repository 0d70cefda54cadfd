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
//!
//! This file is the statement seam: the [`Executor`], its builders and
//! accessors, and the walk over a program's statements. The other seams —
//! `state` (what a snapshot holds, with each loop's *one* record),
//! `directives`, `inspect`, `sweep`, `recover` — say what they are at their
//! top.

mod directives;
mod inspect;
mod recover;
pub(crate) mod state;
mod sweep;
#[cfg(test)]
mod tests;

use crate::ast::Stmt;
use crate::error::LangError;
use crate::lower::{CompiledProgram, LoopPlan};
use chaos_dmsim::{
    Backend, FaultPlan, Machine, MachineConfig, MetricsRegistry, PooledBackend, TraceSink,
};
use chaos_runtime::{Dad, DistArray, Distribution, LocalizeScratch};
use recover::ExecSnapshot;
pub use recover::RecoveryPolicy;
use state::ProgramState;
use std::collections::HashMap;
use std::sync::Arc;
use sweep::SweepTables;

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
    /// Number of arrays moved onto their decomposition's distribution after
    /// a DISTRIBUTE or REDISTRIBUTE changed it: an array moves at the first
    /// FORALL that references it, so one no loop reads is never counted.
    pub arrays_redistributed: usize,
    /// Number of kernel (re)compilations: every inspection compiles the
    /// body, so this equals `inspector_runs`.
    pub kernels_compiled: usize,
    /// Number of sweeps that reused a saved compiled kernel; equals
    /// `reuse_hits`.
    pub kernel_reuse_hits: usize,
    /// Number of incremental region bindings whose request exchange was
    /// smaller than the loop's full schedule — i.e. cross-loop bindings
    /// where ghosts already resident from earlier loops were not
    /// re-requested.
    pub incremental_bindings: usize,
}

/// How FORALL bodies execute during the sweep's compute phase — a choice
/// that exists in test builds only (`cfg(test)` or the `oracle` feature),
/// where it selects the differential oracle. Release builds always run the
/// bytecode VM.
#[cfg(any(test, feature = "oracle"))]
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum KernelMode {
    /// Run the loop record's bytecode on the kernel VM, as release builds do.
    #[default]
    Compiled,
    /// Walk the `CompiledExpr` trees per element — the tree-walking oracle
    /// the VM is differentially tested against.
    Interpreted,
}

/// The interpreter / generated-code driver.
///
/// Generic over the SPMD execution engine: with the default [`Machine`]
/// backend the runtime phases (index translation, dedup, gather, compute,
/// scatter) run rank-serially on the driver thread; with a
/// [`PooledBackend`] they run rank-parallel on a pool of long-lived workers
/// (no per-phase spawn cost) — with byte-identical results, clocks and
/// statistics. The per-iteration arithmetic is compiled to register
/// bytecode when the loop is inspected and executed as the compute stage of
/// `Backend::run_sweep`, so whole programs run rank-parallel end-to-end.
#[derive(Debug)]
pub struct Executor<B: Backend = Machine> {
    backend: B,
    /// Test builds only: which executor the sweeps' compute stage runs.
    #[cfg(any(test, feature = "oracle"))]
    kernel_mode: KernelMode,
    inputs: ProgramInputs,
    reuse_enabled: bool,
    /// Everything a snapshot holds (see `state`).
    state: ProgramState,
    /// The sweeps' borrow tables, parked empty between sweeps.
    sweep_tables: SweepTables,
    /// The inspector's working set, kept between inspections so that a
    /// re-inspection refills buffers already grown to the loop's size.
    localize_scratch: LocalizeScratch,
    /// The indirection arrays' snapshots, parked between inspections for
    /// the same reason.
    snapshots: Vec<Vec<u32>>,

    // --- fault recovery (see ARCHITECTURE.md § "Fault model & recovery") ---
    policy: RecoveryPolicy,
    /// The epoch checkpoint, kept under
    /// [`RecoveryPolicy::RollbackToCheckpoint`] only.
    checkpoint: Option<Box<ExecSnapshot>>,
    /// FORALLs executed since the checkpoint, in order — rollback restores
    /// the checkpoint and replays these (deterministically, since consumed
    /// faults never refire) before re-running the failed loop. The arrays
    /// they wrote are the dirty ones: an incremental refresh re-copies only
    /// those (values-only, into the checkpoint's own storage) and charges
    /// only their words.
    journal: Vec<LoopPlan>,
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
    /// one. Kernel sweeps, gathers, scatters, inspector passes and array
    /// remaps all execute through the pool.
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

    /// Arm the pool's barrier deadline: a worker lane that keeps the driver
    /// lane waiting longer than `deadline` at any crossing — a sweep's stage
    /// barrier or a region's completion (e.g. an injected
    /// [`chaos_dmsim::FaultKind::LaneStall`]) — surfaces as
    /// [`chaos_dmsim::PhaseError::Straggler`] naming the hung rank, its lane
    /// and each lane's progress, instead of blocking silently.
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
            #[cfg(any(test, feature = "oracle"))]
            kernel_mode: KernelMode::default(),
            inputs,
            reuse_enabled: true,
            state: ProgramState::default(),
            sweep_tables: SweepTables::default(),
            localize_scratch: LocalizeScratch::default(),
            snapshots: Vec::new(),
            policy: RecoveryPolicy::default(),
            checkpoint: None,
            journal: Vec::new(),
        }
    }

    /// Enable or disable the schedule-reuse mechanism (Table 1 compares the
    /// two). Disabling it forces a full inspector before every sweep.
    pub fn with_reuse(mut self, enabled: bool) -> Self {
        self.reuse_enabled = enabled;
        self
    }

    /// Select how loop bodies execute (test builds only; default: the
    /// bytecode VM). The interpreted mode is the tree-walking oracle; both
    /// modes produce byte-identical values, clocks and statistics.
    #[cfg(any(test, feature = "oracle"))]
    pub fn with_kernel_mode(mut self, mode: KernelMode) -> Self {
        self.kernel_mode = mode;
        self
    }

    /// Install a deterministic [`FaultPlan`] on the machine: every engine
    /// consults it at each per-rank kernel entry. A fault inside a FORALL
    /// surfaces as [`LangError::Phase`] or is recovered per the
    /// [`RecoveryPolicy`], as any other failed attempt is.
    pub fn with_fault_plan(mut self, plan: Arc<FaultPlan>) -> Self {
        self.backend.machine_mut().install_fault_plan(Some(plan));
        self
    }

    /// Install a [`TraceSink`] flight recorder on the machine: the machine's
    /// probe records every event kind of
    /// [`TraceEventKind`](chaos_dmsim::TraceEventKind) (the one event
    /// table — ARCHITECTURE.md, "Observability") on it, stamped with both
    /// measured wall time and the modeled clock. Observing never changes
    /// modeled clocks, values or statistics; with nothing installed each
    /// hook is a single branch. Share the `Arc` to read the timeline
    /// afterwards — see [`TraceSink::chrome_trace`] and
    /// [`TraceSink::summary`].
    pub fn with_trace(mut self, sink: Arc<TraceSink>) -> Self {
        self.backend.machine_mut().install_trace(Some(sink));
        self
    }

    /// Install a [`MetricsRegistry`] on the machine: the probe feeds it from
    /// the very hooks that feed the flight recorder (each event's counter
    /// and histogram are columns of the same table), and the machine's
    /// phase-kind transitions feed the cost-model auditor (modeled-vs-wall
    /// drift per [`PhaseKind`](chaos_dmsim::PhaseKind)). Same contract as
    /// [`Executor::with_trace`]. Share the `Arc` and call
    /// [`MetricsRegistry::snapshot`] (counters, span histograms and the
    /// audit rows) once the pool is quiescent.
    pub fn with_metrics(mut self, registry: Arc<MetricsRegistry>) -> Self {
        self.backend.machine_mut().install_metrics(Some(registry));
        self
    }

    /// Select what happens when a FORALL fails (default:
    /// [`RecoveryPolicy::Abort`]). Only
    /// [`RecoveryPolicy::RollbackToCheckpoint`] checkpoints, at the cadence
    /// it carries.
    ///
    /// # Panics
    /// Panics if a checkpoint cadence is zero.
    pub fn with_recovery_policy(mut self, policy: RecoveryPolicy) -> Self {
        if let RecoveryPolicy::RollbackToCheckpoint { every } = policy {
            assert!(every >= 1, "a checkpoint cadence is at least one epoch");
        }
        self.policy = policy;
        self
    }

    /// The simulated machine (clocks, statistics).
    pub fn machine(&self) -> &Machine {
        self.backend.machine()
    }

    /// Mutable access to the machine.
    pub(crate) fn machine_mut(&mut self) -> &mut Machine {
        self.backend.machine_mut()
    }

    /// Execution counters.
    pub fn report(&self) -> &ExecReport {
        &self.state.run.report
    }

    /// Gather a REAL array back to a global vector (verification helper).
    pub fn real_global(&self, name: &str) -> Option<Vec<f64>> {
        self.state.real.named(name).map(DistArray::to_global)
    }

    /// The current DAD of an array of either type (verification helper):
    /// the layout it holds now, which is its decomposition's distribution
    /// once a FORALL has referenced it.
    pub fn array_dad(&self, name: &str) -> Option<Dad> {
        self.state.dad_of(name)
    }

    /// The current distribution of a decomposition, if distributed.
    pub fn decomposition(&self, name: &str) -> Option<&Distribution> {
        self.state.decomp_dist.get(name)
    }

    /// Run every statement of the program once, in source order.
    pub fn run(&mut self, program: &CompiledProgram) -> Result<(), LangError> {
        let mut stmts = program.program.stmts.iter();
        stmts.try_for_each(|stmt| self.run_stmt(program, stmt))
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
            .ok_or_else(|| LangError::runtime(format!("no FORALL labelled '{label}'")))?;
        self.run_forall_recovered(plan)
    }

    fn run_stmt(&mut self, program: &CompiledProgram, stmt: &Stmt) -> Result<(), LangError> {
        let result = match stmt {
            Stmt::Declare { .. } | Stmt::Decomposition { .. } => return Ok(()),
            Stmt::Forall { label, .. } => return self.execute_loop(program, label),
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
        };
        // Directives change distributions, alignments or array storage, so
        // the journal's only-FORALLs-since-checkpoint invariant would break:
        // force a full checkpoint refresh right after any of them.
        if result.is_ok() && matches!(self.policy, RecoveryPolicy::RollbackToCheckpoint { .. }) {
            self.refresh_checkpoint(true);
        }
        result
    }
}
