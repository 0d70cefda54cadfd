//! # chaos-runtime — a CHAOS/PARTI-style runtime library
//!
//! This crate is the reproduction of the paper's primary contribution: the
//! CHAOS runtime support (a superset of PARTI) plus the two new mechanisms
//! the SC'93 paper adds on top of it:
//!
//! 1. **the mapper coupler** — runtime procedures that build a GeoCoL
//!    structure from program arrays, invoke a user-chosen partitioner,
//!    produce an irregular distribution and remap distributed arrays and
//!    loop iterations accordingly (Section 4 / Figure 2 phases A–C), and
//! 2. **conservative inspector/schedule reuse** — data access descriptors
//!    (DADs), the global modification stamp `nmod`, `last_mod` tracking and
//!    the per-loop validity check (Section 3).
//!
//! Around those sit the classical PARTI pieces the paper builds on
//! (Figure 2 phases D–E): distributed arrays with block / cyclic / irregular
//! distributions, a translation table for irregular distributions, the
//! inspector (`localize`) that deduplicates off-processor references, builds
//! communication schedules, allocates ghost buffers and translates global
//! indices to local ones, and the executor primitives (`gather`,
//! `scatter_add`) that carry the actual communication of each iteration.
//!
//! Everything runs on the simulated distributed-memory machine from
//! [`chaos_dmsim`]: data movement is exact, costs are charged to per-processor
//! virtual clocks, and the benchmark harness reads those clocks to regenerate
//! the paper's tables.
//!
//! The primitives execute behind [`chaos_dmsim::Backend`]: each is a driver
//! handing rank-local kernels to an SPMD engine, so any call site can pass
//! either `&mut Machine` (sequential, the deterministic oracle) or a
//! `&mut PooledBackend` (ranks striped over long-lived worker threads) and
//! get byte-identical values, ghost buffers, clocks and statistics.
//!
//! ## Module map
//!
//! | module | paper concept |
//! |--------|---------------|
//! | [`dist`] | BLOCK / CYCLIC / irregular distributions, `DISTRIBUTE` |
//! | [`ttable`] | translation table for irregularly distributed arrays; batched (per-page) dereference |
//! | [`dad`] | data access descriptors |
//! | [`darray`] | distributed arrays (`ALIGN`ed to a distribution) |
//! | [`schedule`] | communication schedules as flat CSR arenas (gather / scatter) |
//! | [`inspector`] | inspector: localize with hash-free sort+dedup over packed keys |
//! | [`iterpart`] | loop-iteration partitioning (almost-owner-computes) |
//! | [`executor`] | executor: gather → compute → scatter-add reduction, allocation-free in steady state |
//! | [`mod@remap`] | array remapping between distributions |
//! | [`reuse`] | `nmod`, `last_mod`, per-loop inspector-reuse records |
//! | [`coupler`] | CONSTRUCT / SET ... BY PARTITIONING / REDISTRIBUTE |
//! | [`ckpt`] | modeled cost of epoch checkpoint/rollback (per-rank shard scans plus fixed bookkeeping) |
//!
//! ## Hot-path layout
//!
//! Schedule *use* is the cost every executor iteration pays, so
//! [`schedule::CommSchedule`] stores its ghost sources and send lists as
//! flat CSR offset arrays (struct-of-arrays payloads) exactly like the
//! original PARTI/CHAOS C runtime; [`executor::gather_into`] /
//! [`executor::scatter_op`] iterate contiguous slices, charge transfers
//! through [`chaos_dmsim::Machine::charge_p2p`] and perform **no heap
//! allocation** with reused buffers. The original nested-`Vec` formulation
//! survives as test support (`tests/naive`), the oracle
//! `tests/proptest_invariants.rs` compares against.
//! `ARCHITECTURE.md` § "The inspector → executor CSR data flow" draws the
//! whole pipeline.

#![warn(missing_docs)]

pub mod ckpt;
pub mod coupler;
pub mod dad;
pub mod darray;
pub mod dist;
pub mod executor;
pub mod inspector;
pub mod iterpart;
pub mod remap;
pub mod reuse;
pub mod schedule;
pub mod ttable;

pub use ckpt::charge_checkpoint;
pub use coupler::{GeoColSpec, MapperCoupler, PartitionOutcome};
pub use dad::Dad;
pub use darray::DistArray;
pub use dist::Distribution;
pub use executor::{
    gather, gather_inline, gather_into, scatter_add, scatter_combine_rows, scatter_op,
    scatter_pack_kernel, Landing, ScatterKind,
};
pub use inspector::{
    resolve_local, resolve_local_mut, AccessPattern, Inspector, InspectorResult, LocalizeScratch,
};
pub use iterpart::{IterPartitionPolicy, IterationPartition};
pub use remap::{remap, RemapPlan};
pub use reuse::{GhostRegion, LoopId, RegionBinding, ReuseDecision, ReuseRegistry};
pub use schedule::{charge_request_exchange, CommSchedule, SendRef};
pub use ttable::TranslationTable;

/// Convenient prelude for downstream crates and examples.
pub mod prelude {
    pub use crate::coupler::{GeoColSpec, MapperCoupler};
    pub use crate::darray::DistArray;
    pub use crate::dist::Distribution;
    pub use crate::executor::{gather, scatter_add};
    pub use crate::inspector::{AccessPattern, Inspector};
    pub use crate::iterpart::{IterPartitionPolicy, IterationPartition};
    pub use crate::remap::remap;
    pub use crate::reuse::{LoopId, ReuseRegistry};
    pub use chaos_dmsim::{Backend, Machine, MachineConfig, PooledBackend};
    pub use chaos_geocol::{GeoColBuilder, Partitioner};
}
