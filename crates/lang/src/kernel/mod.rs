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
//!   inspector run's group layout ([`KernelBindings`]: every array slot —
//!   its column of the group's localized row, one column per distinct index
//!   expression — every ghost buffer and off-processor write buffer
//!   resolved once) and lowers its body into a [`CompiledKernel`]: a flat
//!   struct-of-arrays instruction arena over a small file of *column*
//!   registers, the stores gathered into [`StoreRun`](compile::StoreRun)s, and the block
//!   `width` the body can run at — [`BLOCK`] (64) with the stores in a tail,
//!   or 1 with the stores in stream when the body reads what it writes or
//!   writes one array with two combine kinds;
//! * [`vm`] — the one `SweepView` every rank of a sweep reads through (the
//!   loop's record, the resident region values and the read-only arrays,
//!   borrowed in place and indexed by rank — nothing is built per rank),
//!   the [`RankSweepArea`] owned per-rank sweep storage, and `run_rank`,
//!   the bytecode VM over them and the rank's row of written shards: each
//!   op over a block of `width` iterations, operands resolved once per
//!   block, with slot CSE — a preamble pins each distinct read-only slot
//!   into a dedicated register once per block. It runs as the compute stage
//!   of `Backend::run_sweep`, so programs execute rank-parallel end-to-end
//!   on every engine;
//! * `oracle` (test builds only: `cfg(test)` or the `oracle` feature) — the
//!   tree-walking interpreter the VM is differentially checked against.
//!
//! The VM reads the inspector's rows as they are: one `u32` per reference
//! in the rank's local index space, an owned offset below the shard's
//! length and a ghost slot behind it ([`chaos_runtime::inspector`]).
//!
//! Nothing here is cached: bindings, bytecode and the per-rank sweep areas
//! — the register file among them, `nregs × 512` B per rank whatever the
//! loop length — are fields of the loop's one record in the executor's
//! table (see [`crate::exec`]), built by the inspector driver and
//! overwritten when it re-runs — so a loop recompiles exactly when it
//! re-inspects, and reused sweeps skip compilation *and* buffer allocation.
//!
//! The VM's floating-point operation sequence on every value, and the order
//! in which every cell receives its contributions, are identical to the
//! tree-walker's by construction (post-order emission, independent lanes,
//! iteration-major stores), so the two produce byte-identical array values,
//! modeled clocks and communication statistics — property-tested in
//! `tests/kernel_equivalence.rs`.

pub mod compile;
#[cfg(any(test, feature = "oracle"))]
pub(crate) mod oracle;
pub mod vm;

pub use compile::{compile_kernel, ArrLoc, CompiledKernel, GroupSpec, KernelBindings, BLOCK};
pub use vm::RankSweepArea;
pub(crate) use vm::{run_rank, SweepView};
