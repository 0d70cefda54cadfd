//! # chaos-bench — the experiment harness behind the paper's tables
//!
//! This crate contains everything needed to regenerate the evaluation
//! section of the SC'93 paper on the simulated machine:
//!
//! * [`workload`] — adapters turning the synthetic mesh / molecular-dynamics
//!   generators into the "pair loop" form every experiment uses,
//! * [`experiment`] — experiment configuration and the phase-by-phase
//!   timing record the tables report (graph generation, partitioner,
//!   inspector, remap, executor, total), read off the machine's phase
//!   clocks the same way for both drivers,
//! * [`handcoded`] — the hand-embedded runtime version of the edge / force
//!   loop (calls `chaos-runtime` directly, as the paper's authors did when
//!   they "embedded our runtime support by hand"); it prints Table 2's three
//!   "Hand Coded" columns and nothing else,
//! * [`compilergen`] — the compiler-generated version (the same template
//!   expressed in the Fortran-D-like mini-language and executed through
//!   `chaos-lang`); it prints Tables 1, 3 and 4 and Table 2's compiler
//!   columns,
//! * [`tables`] — the one table runner (workloads, drivers, progress lines,
//!   `--json` records) and the row table and text formatting shared by the
//!   `table1` .. `table4` binaries,
//! * [`kernel_bench`] — the edge-loop program fixture `perf_check` and the
//!   end-to-end benchmark (`benchmark/`) run.
//!
//! Each `tableN` binary prints one of the paper's tables and, with
//! `--json <path>`, also writes a JSON record so the reported numbers are
//! reproducible; `all_tables` runs all four and takes no `--json`. The
//! `perf_check` binary runs the four hardware-independent performance gates
//! (it takes no arguments and writes no file) — `ARCHITECTURE.md` §
//! "Performance gates" tabulates them. Whether a change made a program
//! faster is answered by `benchmark/`, not here.

pub mod cli;
pub mod compilergen;
pub mod experiment;
pub mod handcoded;
pub mod kernel_bench;
pub mod tables;
pub mod workload;

pub use experiment::{ExperimentConfig, Method, PhaseTimes};
pub use workload::{md_workload, mesh_workload, PairLoopWorkload, WorkloadKind};
