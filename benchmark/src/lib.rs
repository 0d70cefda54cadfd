//! The end-to-end benchmark of the CHAOS reproduction: whole-program wall
//! time on five paper workloads, with a per-layer breakdown that sums back
//! to it. See `README.md` for the metric definitions and `../BENCHMARK.json`
//! for the contract.

#![warn(missing_docs)]

pub mod bench;
pub mod compare;
pub mod json;
pub mod probes;
pub mod program;
pub mod spans;
pub mod stats;
pub mod workloads;
