//! # chaos-geocol — the GeoCoL data structure and data partitioners
//!
//! The paper's first contribution is a mechanism that lets a compiler couple
//! *data partitioners* to irregular applications through a standardized
//! interface data structure called **GeoCoL** (GEOmetry, COnnectivity,
//! Load). A `CONSTRUCT` directive names the program arrays holding spatial
//! coordinates (`GEOMETRY`), graph edges (`LINK`) and per-vertex work
//! estimates (`LOAD`); the runtime assembles a GeoCoL graph from them and
//! hands it to a user-selected partitioner.
//!
//! This crate provides:
//!
//! * [`GeoCoL`] and [`GeoColBuilder`] — the interface data structure,
//! * [`Partitioning`] — the result (an owner per vertex) plus quality
//!   metrics (edge cut, load imbalance),
//! * the partitioner library the paper's users choose from:
//!   * [`BlockPartitioner`] / [`CyclicPartitioner`] — the regular HPF
//!     distributions used as baselines (Table 4),
//!   * [`RcbPartitioner`] — recursive (binary) coordinate bisection
//!     (Berger & Bokhari), the geometry-based partitioner of Tables 2–3,
//!   * [`RsbPartitioner`] — recursive spectral bisection (Simon), the
//!     connectivity-based partitioner of Table 2,
//! * a string-keyed [`registry`] so the `SET distfmt BY PARTITIONING G
//!   USING RSB` directive can look partitioners up by name.
//!
//! # Recursive bisection
//!
//! RCB and RSB are one recursion with two split rules. The recursion (in
//! [`partition`]) splits the active vertex set in two — `nparts / 2` parts
//! to the left, the rest to the right — until each set is bound for one
//! part; a part count that is not a power of two splits its part range
//! unevenly. Each split rule only *orders* the set: RCB along the
//! coordinate axis of largest extent, RSB by the subgraph's Fiedler vector.
//! Both then cut at the same load-weighted median — the shortest prefix
//! whose load reaches the left parts' share of the set's total — so neither
//! side is empty. Keys are computed once per vertex and ties break by
//! vertex id, so every ordering, and therefore every partitioning, is
//! unique.
//!
//! # Rank-parallel partitioner passes
//!
//! The real PARTI/CHAOS partitioners ran data-parallel on the nodes, and so
//! do the expensive ones here: partitioners that implement
//! [`Partitioner::partition_with_scans`] express their per-vertex passes
//! against the object-safe [`RankScans`] executor, which the runtime's
//! mapper coupler backs with the SPMD `Backend` — one chunk per virtual
//! processor, compute charged to that rank's clock and deducted from
//! [`Partitioner::cost_estimate`]'s lump sum. Two conventions ([`map_scan`]
//! for elementwise passes, [`block_scan`] for fixed-size-block reductions)
//! make every scan independent of the rank count, so the pure
//! [`Partitioner::partition`] entry point is a bit-exact oracle for any
//! backend-driven run. Current status:
//!
//! | partitioner | rank-parallel passes | driver-side remainder |
//! |---|---|---|
//! | [`RsbPartitioner`] | the active set's Lanczos matvec, moment reductions and update, Ritz-vector accumulation, total load | sliced-ELLPACK Laplacian setup, coarsening and the coarse levels' Lanczos runs, tridiagonal Ritz pair, Fiedler sort, median walk |
//! | [`RcbPartitioner`] | extents + load scan, histogram median scan | boundary-bucket select, below-cutoff sorts, median walk |
//! | [`BlockPartitioner`] / [`CyclicPartitioner`] | — (O(n) arithmetic, charged as lump sum) | everything |
//!
//! The remaining driver-side cost of each partitioner is still charged to
//! the simulated machine through the cost estimate, preserving the paper's
//! Table 2 ordering (RSB orders of magnitude above RCB). See
//! `ARCHITECTURE.md` § "Rank-parallel partitioners" for the system-level
//! picture.

#![warn(missing_docs)]

pub mod block;
pub mod geocol;
pub mod metrics;
pub mod partition;
pub mod rcb;
pub mod registry;
pub mod rsb;

pub use block::{BlockPartitioner, CyclicPartitioner};
pub use geocol::{GeoCoL, GeoColBuilder, GeoColError, Section};
pub use metrics::PartitionQuality;
pub use partition::{
    block_scan, map_scan, scan_chunk, Partitioner, Partitioning, RangeKernel, RankScans,
    ScanKernel, SerialScans, SCAN_BLOCK,
};
pub use rcb::{RcbPartitioner, SORT_CUTOFF};
pub use registry::{partitioner_by_name, registered_partitioner_names};
pub use rsb::RsbPartitioner;
