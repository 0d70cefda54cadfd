//! # chaos-repro — reproduction of "Runtime Compilation Techniques for Data
//! Partitioning and Communication Schedule Reuse" (Ponnusamy, Saltz,
//! Choudhary — Supercomputing '93)
//!
//! This umbrella crate re-exports the workspace's public API so examples and
//! downstream users can depend on a single crate:
//!
//! * [`dmsim`] — the simulated distributed-memory machine (iPSC/860-like
//!   α–β cost model, deterministic charge-only message accounting),
//! * [`geocol`] — the GeoCoL interface data structure and the partitioner
//!   library (BLOCK, CYCLIC, RCB, RSB),
//! * [`runtime`] — the CHAOS/PARTI-style runtime: distributed arrays,
//!   translation tables, inspectors/executors, communication schedules,
//!   array remapping, the mapper coupler and the schedule-reuse registry,
//! * [`lang`] — the Fortran-D-like mini-language and its
//!   runtime-compilation lowering onto the runtime,
//! * [`workloads`] — synthetic unstructured-mesh and molecular-dynamics
//!   workload generators.
//!
//! See `examples/quickstart.rs` for a five-minute tour, `ARCHITECTURE.md`
//! for the documented system spine (crate map, CSR data flow, Backend
//! determinism contract, kernel compiler, rank-parallel partitioners),
//! `ROADMAP.md` for the open items and `CHANGES.md` for the PR-by-PR
//! history.

pub use chaos_dmsim as dmsim;
pub use chaos_geocol as geocol;
pub use chaos_lang as lang;
pub use chaos_runtime as runtime;
pub use chaos_workloads as workloads;

/// A prelude pulling in the types most programs need.
pub mod prelude {
    pub use chaos_dmsim::{Machine, MachineConfig, MetricsRegistry, PhaseKind};
    pub use chaos_geocol::{
        GeoColBuilder, PartitionQuality, Partitioner, RcbPartitioner, RsbPartitioner,
    };
    pub use chaos_lang::{lower_program, parse_program, Executor, ProgramInputs};
    pub use chaos_runtime::prelude::*;
    pub use chaos_workloads::{MdConfig, MeshConfig, UnstructuredMesh, WaterBox};
}

#[cfg(test)]
mod tests {
    #[test]
    fn reexports_are_wired() {
        let m = crate::dmsim::Machine::new(crate::dmsim::MachineConfig::unit(2));
        assert_eq!(m.nprocs(), 2);
        assert!(crate::geocol::registered_partitioner_names().contains(&"RSB"));
    }
}
