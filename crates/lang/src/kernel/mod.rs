//! Runtime kernel compilation: FORALL bodies as register bytecode executed
//! rank-parallel.
//!
//! This module is the "compiled local kernel" half of the paper's runtime
//! compilation story. The inspector/executor machinery (PRs 1–2) made the
//! *communication* of an irregular loop fast and reusable; what remained
//! interpreted was the loop body itself — a per-element walk of
//! [`CompiledExpr`](crate::lower::CompiledExpr) trees on the driver thread.
//! This subsystem removes that overhead in two pieces:
//!
//! * [`compile`] — binds a [`LoopPlan`](crate::lower::LoopPlan) against one
//!   inspector run's group layout ([`KernelBindings`]: every array slot,
//!   ghost buffer and off-processor write buffer resolved once) and lowers
//!   its body into a [`CompiledKernel`]: a flat struct-of-arrays instruction
//!   arena over a small register file;
//! * [`vm`] — the [`RankState`] rank-local borrows plus the
//!   [`RankSweepArea`] owned per-rank sweep storage, and the two executors
//!   over them: [`run_rank`] (the bytecode VM, with slot CSE: a
//!   per-iteration preamble pins each distinct read-only slot into a
//!   dedicated register once) and [`run_rank_interpreted`] (the retained
//!   tree-walking oracle). Both run as the compute stage of
//!   `Backend::run_sweep`, so programs execute rank-parallel end-to-end on
//!   every engine.
//!
//! Nothing here is cached: bindings, bytecode and the per-rank sweep areas
//! are fields of the loop's one record in the executor's table (see
//! [`crate::exec`]), built by the inspector driver and overwritten when it
//! re-runs — so a loop recompiles exactly when it re-inspects, and reused
//! sweeps skip compilation *and* buffer allocation.
//!
//! The VM's floating-point operation sequence is identical to the
//! tree-walker's by construction (post-order emission), so the two paths
//! produce byte-identical array values, modeled clocks and communication
//! statistics — property-tested in `tests/kernel_equivalence.rs`.

pub mod compile;
pub mod vm;

pub use compile::{
    compile_kernel, ArrLoc, CompiledKernel, GhostBinding, GroupSpec, KernelBindings, Op,
    SlotBinding, WriteBinding, NO_GHOST,
};
pub use vm::{eflux, run_rank, run_rank_interpreted, RankState, RankSweepArea};
