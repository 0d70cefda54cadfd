//! # chaos-lang — a Fortran-D-like data-parallel mini-language with runtime
//! compilation onto the CHAOS runtime
//!
//! The paper's prototype is a Fortran 90D compiler extended with
//!
//! * the Fortran D decomposition directives (`DECOMPOSITION`, `DISTRIBUTE`,
//!   `ALIGN`, `DYNAMIC`),
//! * the new mapper-coupler directives (`CONSTRUCT`, `SET ... BY
//!   PARTITIONING ... USING ...`, `REDISTRIBUTE`), and
//! * irregular `FORALL` loops with single-level indirection and left-hand
//!   side reductions,
//!
//! which it transforms into inspector/executor code that calls the CHAOS
//! runtime, inserting the conservative schedule-reuse guards of Section 3.
//!
//! Re-hosting a Fortran compiler is out of scope, so this crate implements a
//! small language with the same surface constructs (Figures 3–5 of the paper
//! parse almost verbatim) and the same lowering:
//!
//! * [`parser`] — lexer + recursive-descent parser producing the [`ast`],
//! * [`analyze`] — the one walk over the statements: the directive checks,
//!   and the reference checks (the paper's restrictions: single level of
//!   indirection, indirection arrays indexed by the loop variable, only
//!   reduction-style loop-carried dependences) that lowering calls on each
//!   loop's references,
//! * [`lower`] — the "runtime compilation" step: each `FORALL` becomes a
//!   [`lower::LoopPlan`] describing the inspector it needs and the executor
//!   statements to run, lowered where it stands in that walk,
//! * `kernel` (crate-private) — the runtime kernel compiler: FORALL bodies
//!   lowered to a flat register bytecode executed rank-parallel by a small
//!   VM,
//! * [`exec`] — the generated-code driver: walks the lowered program on a
//!   simulated machine, calling the CHAOS mapper coupler for directives and
//!   the inspector/executor (guarded by the [`chaos_runtime::ReuseRegistry`])
//!   for loops. Each loop's saved state — schedules, bindings, bytecode,
//!   sweep buffers — is one record in one table, built when the inspector
//!   runs and borrowed in place by every sweep, whose compute stage runs
//!   the loop's bytecode on the VM.
//!
//! The benchmark harness runs the same templates twice — once through this
//! crate ("compiler-generated") and once hand-coded directly against
//! `chaos-runtime` — to reproduce the paper's "within 10 % of hand-coded"
//! claim (Table 2). `ARCHITECTURE.md` § "The kernel-compiler pipeline"
//! documents the bytecode path end-to-end.

#![warn(missing_docs)]

pub mod analyze;
pub mod ast;
pub mod error;
pub mod exec;
mod kernel;
pub mod lower;
pub mod parser;

pub use ast::{Program, Stmt};
pub use chaos_dmsim::{
    AuditReport, Counter, Fault, FaultKind, FaultPlan, MetricsRegistry, MetricsSnapshot,
    PhaseError, SpanKind, TraceEvent, TraceEventKind, TraceSink, TraceSummary,
};
pub use error::LangError;
pub use exec::{
    ExecReport, Executor, ProgramInputs, RecoveryPolicy, SAVED_GATHER_LABEL, SAVED_SCHEDULE_LABEL,
};
pub use lower::{lower_program, CompiledProgram, LoopPlan};
pub use parser::parse_program;
