//! Runtime kernel compilation: FORALL bodies as register bytecode executed
//! rank-parallel.
//!
//! This module is the "compiled local kernel" half of the paper's runtime
//! compilation story. The inspector/executor machinery (PRs 1–2) made the
//! *communication* of an irregular loop fast and reusable; what remained
//! interpreted was the loop body itself — a per-element walk of
//! [`CompiledExpr`](crate::lower::CompiledExpr) trees on the driver thread.
//! This subsystem removes that overhead in three pieces:
//!
//! * [`compile`] — lowers a [`LoopPlan`](crate::lower::LoopPlan) into a
//!   [`CompiledKernel`]: a flat struct-of-arrays instruction arena over a
//!   small register file, with every array slot, ghost buffer and
//!   off-processor write buffer resolved against the cached CSR schedules
//!   at compile time;
//! * [`vm`] — the [`RankState`] rank-local borrows plus the
//!   [`RankSweepArea`] owned per-rank sweep storage, and the two executors
//!   over them: [`run_rank`] (the bytecode VM, with slot CSE: a
//!   per-iteration preamble pins each distinct read-only slot into a
//!   dedicated register once) and [`run_rank_interpreted`] (the retained
//!   tree-walking oracle). Both run as the compute stage of
//!   `Backend::run_sweep`, so programs execute rank-parallel end-to-end on
//!   every engine;
//! * [`cache`] — the [`KernelCache`], keyed by dense
//!   [`LoopId`](chaos_runtime::LoopId) handles alongside the schedule-reuse
//!   registry: a loop recompiles exactly when it re-inspects, and reused
//!   sweeps skip compilation *and* buffer allocation.
//!
//! The VM's floating-point operation sequence is identical to the
//! tree-walker's by construction (post-order emission), so the two paths
//! produce byte-identical array values, modeled clocks and communication
//! statistics — property-tested in `tests/kernel_equivalence.rs`.

pub mod cache;
pub mod compile;
pub mod vm;

pub use cache::{KernelCache, KernelEntry, RegionValues, SweepBuffers};
pub use compile::{
    compile_kernel, ArrLoc, CompiledKernel, GhostBinding, GroupSpec, KernelBindings, Op,
    SlotBinding, WriteBinding, NO_GHOST,
};
pub use vm::{eflux, run_rank, run_rank_interpreted, RankState, RankSweepArea};
