//! Quickstart: the five-phase CHAOS pipeline (Figure 2 of the paper) on a
//! small unstructured mesh.
//!
//! ```text
//! Phase A  build the GeoCoL graph, partition it           (CONSTRUCT / SET)
//! Phase B  partition loop iterations
//! Phase C  remap the data arrays                          (REDISTRIBUTE)
//! Phase D  inspector: schedules, ghost buffers, indices
//! Phase E  executor: one sweep per step (gather -> compute -> scatter-add)
//! ```
//!
//! Run with `cargo run --example quickstart --release`.

use chaos_repro::prelude::*;
use chaos_runtime::iterpart::partition_iterations;
use chaos_runtime::{
    resolve_local, resolve_local_mut, GeoColSpec, Inspector, MapperCoupler, SweepArea,
};
use chaos_workloads::edge_flux_kernel;

fn main() {
    // A simulated 8-processor iPSC/860-like machine.
    let nprocs = 8;
    let mut machine = Machine::new(MachineConfig::ipsc860(nprocs));
    let mut registry = ReuseRegistry::new();

    // A small 3-D unstructured mesh whose node numbering is uncorrelated
    // with its connectivity (the situation the paper targets).
    let mesh = UnstructuredMesh::generate(MeshConfig::tiny(2_000));
    println!(
        "mesh: {} nodes, {} edges, average degree {:.2}",
        mesh.nnodes(),
        mesh.nedges(),
        mesh.average_degree()
    );

    // Distributed arrays, initially BLOCK-distributed.
    let node_dist = Distribution::block(mesh.nnodes(), nprocs);
    let edge_dist = Distribution::block(mesh.nedges(), nprocs);
    let state: Vec<f64> = (0..mesh.nnodes())
        .map(|i| 1.0 + (i as f64 * 0.37).sin())
        .collect();
    let mut x = DistArray::from_global("x", node_dist.clone(), &state);
    let mut y = DistArray::from_global("y", node_dist.clone(), &vec![0.0; mesh.nnodes()]);
    let e1 = DistArray::from_global("end_pt1", edge_dist.clone(), &mesh.end_pt1);
    let e2 = DistArray::from_global("end_pt2", edge_dist.clone(), &mesh.end_pt2);

    // Phase A: build the GeoCoL structure from the edge list and hand it to
    // recursive spectral bisection.
    let spec = GeoColSpec::new(mesh.nnodes()).with_link(&e1, &e2);
    let geocol = MapperCoupler.construct_geocol(&mut machine, &spec);
    let outcome = MapperCoupler.partition(&mut machine, &RsbPartitioner::default(), &geocol);
    let quality = PartitionQuality::evaluate(&geocol, &outcome.partitioning);
    println!(
        "RSB partitioning: edge cut {} of {} ({:.1}%), load imbalance {:.3}",
        quality.edge_cut,
        quality.total_edges,
        100.0 * quality.cut_fraction(),
        quality.load_imbalance
    );

    // Phase C: remap x and y to the new irregular distribution.
    MapperCoupler.redistribute(&mut machine, &mut registry, &mut x, &outcome.distribution);
    MapperCoupler.redistribute(&mut machine, &mut registry, &mut y, &outcome.distribution);

    // Phase B: place each edge iteration on the processor owning most of its
    // references (almost-owner-computes).
    let iter_part = partition_iterations(
        &mut machine,
        &outcome.distribution,
        mesh.edge_iteration_refs(),
        IterPartitionPolicy::AlmostOwnerComputes,
    );

    // Phase D: the inspector — translate indices, deduplicate off-processor
    // references, build the communication schedule.
    let mut pattern = AccessPattern::new(nprocs);
    for p in 0..nprocs {
        for &it in iter_part.iters(p) {
            pattern.refs[p].push(mesh.end_pt1[it as usize]);
            pattern.refs[p].push(mesh.end_pt2[it as usize]);
        }
    }
    let inspect = Inspector.localize(&mut machine, &outcome.distribution, &pattern);
    println!(
        "inspector: {:.1}% of references stay on-processor, {} ghost elements, {} messages per sweep",
        100.0 * inspect.local_fraction(),
        inspect.schedule.total_ghosts(),
        inspect.schedule.message_count(),
    );

    // Phase E: ten executor sweeps of the paper's loop L2, reusing the
    // schedule every time; each is one gather -> flux -> scatter-add region.
    let mut areas = SweepAreas::default();
    for _ in 0..10 {
        sweep(
            &mut machine,
            &inspect.schedule,
            &x,
            &mut y,
            &mut areas,
            &[ScatterKind::Add],
            |ctx, y_local, area| {
                let p = ctx.rank();
                let x_local = x.local(p);
                let SweepArea { ghosts, contrib } = area;
                // One local index per reference: an owned offset, or —
                // behind the owned elements — a ghost slot.
                for refs in inspect.localized[p].chunks_exact(2) {
                    let (r1, r2) = (refs[0], refs[1]);
                    let (f1, f2) = edge_flux_kernel(
                        *resolve_local(r1, x_local, ghosts),
                        *resolve_local(r2, x_local, ghosts),
                    );
                    *resolve_local_mut(r1, y_local, &mut contrib[0]) += f1;
                    *resolve_local_mut(r2, y_local, &mut contrib[0]) += f2;
                }
            },
        );
    }

    let elapsed = machine.elapsed();
    println!(
        "modeled time: {:.3} s total ({:.3} s compute, {:.3} s communication) over {} messages",
        elapsed.max_seconds(),
        elapsed.max_compute_seconds(),
        elapsed.max_comm_seconds(),
        machine.stats().grand_totals().messages
    );

    // Sanity check: the flux kernel is conservative, so the accumulated sums
    // cancel out.
    let total: f64 = y.to_global().iter().sum();
    println!("global conservation check: sum(y) = {total:.3e} (should be ~0)");
}
