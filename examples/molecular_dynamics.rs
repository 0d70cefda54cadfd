//! The molecular-dynamics template: the non-bonded electrostatic force loop
//! of a 648-atom water box (216 TIP3P-like molecules), run through the CHAOS
//! runtime with a geometry-based (coordinate bisection) partitioner and
//! schedule reuse across timesteps.
//!
//! The pair list is rebuilt every `REBUILD_EVERY` timesteps — when that
//! happens, the indirection arrays change, the runtime's conservative
//! modification tracking invalidates the saved schedules, and the inspector
//! re-runs automatically. This is exactly the adaptive-problem pattern the
//! paper's Section 3 mechanism is designed for.
//!
//! Run with `cargo run --example molecular_dynamics --release`.

use chaos_repro::prelude::*;
use chaos_runtime::iterpart::partition_iterations;
use chaos_runtime::{
    gather, resolve_local, resolve_local_mut, scatter_add, Dad, GeoColSpec, Inspector,
    InspectorResult, IterationPartition, LoopId, MapperCoupler,
};
use chaos_workloads::pair_force_kernel;

const TIMESTEPS: usize = 40;
const REBUILD_EVERY: usize = 10;

fn main() {
    let nprocs = 8;
    let mut machine = Machine::new(MachineConfig::ipsc860(nprocs));
    let mut registry = ReuseRegistry::new();

    let mut water = WaterBox::generate(MdConfig::water_648());
    println!(
        "water box: {} atoms, {} non-bonded pairs within cutoff {}",
        water.natoms(),
        water.npairs(),
        water.config.cutoff
    );

    // Distributed arrays: positions, charges and force accumulators.
    let natoms = water.natoms();
    let dist0 = Distribution::block(natoms, nprocs);
    let xc = DistArray::from_global("xc", dist0.clone(), &water.xc);
    let yc = DistArray::from_global("yc", dist0.clone(), &water.yc);
    let zc = DistArray::from_global("zc", dist0.clone(), &water.zc);
    let mut charge = DistArray::from_global("q", dist0.clone(), &water.charge);
    let mut fx = DistArray::from_global("fx", dist0.clone(), &vec![0.0; natoms]);

    // Partition atoms by spatial position (coordinate bisection on the
    // GEOMETRY section), as an MD code would.
    let spec = GeoColSpec::new(natoms).with_geometry(vec![&xc, &yc, &zc]);
    let geocol = MapperCoupler.construct_geocol(&mut machine, &spec);
    let outcome = MapperCoupler.partition(&mut machine, &RcbPartitioner, &geocol);
    MapperCoupler.redistribute(
        &mut machine,
        &mut registry,
        &mut charge,
        &outcome.distribution,
    );
    MapperCoupler.redistribute(&mut machine, &mut registry, &mut fx, &outcome.distribution);
    let dist = outcome.distribution;

    let loop_id = LoopId::new("force-loop");
    // The pair list is itself a distributed (indirection) array; its DAD is
    // what the schedule-reuse machinery watches.
    let mut pair_dist = Distribution::block(water.npairs(), nprocs);
    let mut pair1 = DistArray::from_global("pair1", pair_dist.clone(), &water.pair1);

    let mut cached: Option<(IterationPartition, InspectorResult)> = None;
    let mut inspector_runs = 0usize;
    let mut reuse_hits = 0usize;

    for step in 0..TIMESTEPS {
        // Every REBUILD_EVERY steps the neighbour list is rebuilt: the
        // indirection arrays are rewritten, which bumps their DAD's
        // modification stamp and invalidates the saved inspector results.
        if step > 0 && step % REBUILD_EVERY == 0 {
            water = WaterBox::generate(MdConfig {
                seed: water.config.seed + step as u64,
                ..water.config
            });
            pair_dist = Distribution::block(water.npairs(), nprocs);
            pair1 = DistArray::from_global("pair1", pair_dist.clone(), &water.pair1);
            registry.record_write(&pair1.dad());
            println!(
                "  step {step}: pair list rebuilt ({} pairs)",
                water.npairs()
            );
        }

        let data_dads: Vec<Dad> = vec![charge.dad(), fx.dad()];
        let ind_dads: Vec<Dad> = vec![pair1.dad()];
        let valid = cached.is_some()
            && registry
                .check_on_machine(&mut machine, &loop_id, &data_dads, &ind_dads)
                .can_reuse();
        if valid {
            reuse_hits += 1;
        } else {
            let iter_part = partition_iterations(
                &mut machine,
                &dist,
                water.pair_iteration_refs(),
                IterPartitionPolicy::AlmostOwnerComputes,
            );
            let mut pattern = AccessPattern::new(nprocs);
            for p in 0..nprocs {
                for &it in iter_part.iters(p) {
                    pattern.refs[p].push(water.pair1[it as usize]);
                    pattern.refs[p].push(water.pair2[it as usize]);
                }
            }
            let result = Inspector.localize(&mut machine, &dist, &pattern);
            registry.save_inspector(loop_id, data_dads, ind_dads);
            cached = Some((iter_part, result));
            inspector_runs += 1;
        }
        let (iter_part, inspect) = cached.as_ref().unwrap();

        // Executor: gather charges, accumulate pairwise force x-components.
        let ghosts = gather(&mut machine, &inspect.schedule, &charge);
        let mut contributions: Vec<Vec<f64>> = (0..nprocs)
            .map(|p| vec![0.0; inspect.ghost_counts[p]])
            .collect();
        for p in 0..nprocs {
            let localized = &inspect.localized[p];
            let q_local = charge.local(p);
            let q_ghost = &ghosts[p];
            let f_local = fx.local_mut(p);
            for (pos, &it) in iter_part.iters(p).iter().enumerate() {
                let (r1, r2) = (localized[2 * pos], localized[2 * pos + 1]);
                let (a, b) = (
                    water.pair1[it as usize] as usize,
                    water.pair2[it as usize] as usize,
                );
                let f = pair_force_kernel(
                    (water.xc[a], water.yc[a], water.zc[a]),
                    (water.xc[b], water.yc[b], water.zc[b]),
                    *resolve_local(r1, q_local, q_ghost),
                    *resolve_local(r2, q_local, q_ghost),
                );
                *resolve_local_mut(r1, f_local, &mut contributions[p]) += f.0;
                *resolve_local_mut(r2, f_local, &mut contributions[p]) -= f.0;
            }
        }
        scatter_add(
            &mut machine,
            "force-loop",
            &inspect.schedule,
            &mut fx,
            &contributions,
        );
        registry.record_write(&fx.dad());
    }

    let elapsed = machine.elapsed();
    println!(
        "\n{TIMESTEPS} timesteps: inspector ran {inspector_runs} times, schedules reused {reuse_hits} times"
    );
    println!(
        "modeled time {:.3} s (compute {:.3} s, communication {:.3} s), {} messages",
        elapsed.max_seconds(),
        elapsed.max_compute_seconds(),
        elapsed.max_comm_seconds(),
        machine.stats().grand_totals().messages
    );
    let momentum: f64 = fx.to_global().iter().sum();
    println!("total accumulated force component: {momentum:.3e} (Newton's third law => ~0)");
}
