//! # chaos-dmsim — a deterministic distributed-memory machine simulator
//!
//! The SC'93 CHAOS/PARTI experiments ran on an Intel iPSC/860 hypercube.
//! This crate provides the substitute substrate used by the reproduction: a
//! *virtual* distributed-memory machine with
//!
//! * `P` virtual processors, each with its own virtual clock,
//! * an explicit α–β (latency / bandwidth) communication cost model with an
//!   optional per-hop term for the hypercube topology,
//! * one way to charge a message — [`Machine::charge_p2p`] into a
//!   [`PhaseCharge`], closed by [`Machine::end_phase`] — which every gather,
//!   scatter, request exchange and the reuse vote's single-word all-reduce
//!   ([`collectives`], a binomial tree at `log P` depth) go through, and
//! * per-phase-kind statistics (message counts, volumes, modeled times) that
//!   the benchmark harness turns into the rows of the paper's tables.
//!
//! The simulator separates **what data moves** (done with ordinary `Vec`s in
//! one address space, so results are exact and deterministic) from **what it
//! costs** (charged to per-processor [`time::ProcClock`]s according to
//! [`MachineConfig`]). SPMD regions execute behind the [`Backend`]
//! abstraction: the [`Machine`] itself runs rank kernels sequentially in
//! rank order (the deterministic oracle), and [`PooledBackend`] drives a
//! pool of long-lived workers through broadcast phase descriptors and an
//! epoch barrier (the rank-parallel engine). An engine implements one stage
//! of rank kernels ([`Backend::fan_out`]) and the fused sweep; every other
//! region is a provided method of the trait. The pool records each rank's
//! charges and replays them in rank order — so the *modeled* time never
//! depends on real execution order and every experiment is reproducible
//! bit-for-bit on either engine (see [`backend`]
//! and [`pool`] for the contract, and `ARCHITECTURE.md` § "The Backend /
//! pool / charge-replay determinism contract" for the system-level
//! picture).
//!
//! ## Quick example
//!
//! The data itself moves through the caller's own buffers; the machine is
//! told only what each message would cost.
//!
//! ```
//! use chaos_dmsim::{Machine, MachineConfig, PhaseCharge};
//!
//! let mut machine = Machine::new(MachineConfig::ipsc860(4));
//! // every processor sends one word (its rank) to processor 0
//! let mut phase = PhaseCharge::new();
//! for p in 1..4 {
//!     machine.charge_p2p(&mut phase, p, 0, 1);
//! }
//! machine.end_phase(phase);
//! assert_eq!(machine.stats().grand_totals().messages, 3);
//! assert!(machine.elapsed().max_seconds() > 0.0);
//! ```

#![warn(missing_docs)]

pub mod backend;
mod cells;
pub mod collectives;
pub mod config;
pub mod fault;
pub mod machine;
pub mod metrics;
pub mod pool;
mod probe;
pub mod stats;
pub mod time;
pub mod topology;
pub mod trace;

// The trace exports speak `serde_json::Value` (the vendored shim);
// re-export the crate so downstream users can consume them without adding
// their own dependency on it.
pub use serde_json;

pub use backend::{diagnose_attempt, run_phase_inline, Backend, Inbox, Outbox, RankCtx};
pub use config::{CostModel, MachineConfig, Topology};
pub use fault::{Fault, FaultKind, FaultPlan, InjectedFault, PhaseCause, PhaseError, RankFailure};
pub use machine::{Machine, MachineSnapshot, PhaseCharge, ProcId};
pub use metrics::{
    AuditReport, AuditRow, Counter, EngineKind, Histogram, MetricsRegistry, MetricsSnapshot,
    SpanCell, SpanKind,
};
pub use pool::PooledBackend;
pub use stats::{CommStats, PhaseKind, StatsRegistry};
pub use time::ElapsedReport;
pub use trace::{LaneSummary, TraceEvent, TraceEventKind, TraceSink, TraceSummary};
