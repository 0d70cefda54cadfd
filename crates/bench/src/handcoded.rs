//! The hand-embedded runtime version of the pair-reduction experiment.
//!
//! This is the baseline the paper's authors compare their compiler against:
//! the same template written directly against the CHAOS runtime calls, with
//! no language front end in the way. The benchmark binaries run both this
//! and the compiler-generated path (`crate::compilergen`) and report both,
//! reproducing Table 2's "Hand Coded" vs "Compiler Generated" columns.

use crate::experiment::{ExperimentConfig, Method, PhaseTimes};
use crate::workload::PairLoopWorkload;
use chaos_dmsim::{Backend, ElapsedReport, Machine, MachineConfig, PhaseKind, PooledBackend};
use chaos_geocol::partitioner_by_name;
use chaos_runtime::iterpart::partition_iterations;
use chaos_runtime::{
    gather_into, resolve_local, resolve_local_mut, scatter_add, AccessPattern, Dad, DistArray,
    Distribution, GeoColSpec, Inspector, InspectorResult, IterPartitionPolicy, IterationPartition,
    LocalizeScratch, LoopId, MapperCoupler, ReuseRegistry,
};
use std::time::Instant;

/// Tracks phase boundaries by sampling the machine clocks.
struct PhaseSampler {
    last: ElapsedReport,
}

impl PhaseSampler {
    fn new(machine: &Machine) -> Self {
        PhaseSampler {
            last: machine.elapsed(),
        }
    }

    /// Modeled seconds elapsed (critical path) since the previous sample.
    fn lap(&mut self, machine: &Machine) -> f64 {
        let now = machine.elapsed();
        let dt = now.since(&self.last).max_seconds();
        self.last = now;
        dt
    }
}

/// Run the hand-coded experiment on the sequential engine and return its
/// phase breakdown.
pub fn run_handcoded(workload: &PairLoopWorkload, cfg: &ExperimentConfig) -> PhaseTimes {
    let mut machine = Machine::new(MachineConfig::ipsc860(cfg.nprocs));
    run_handcoded_on(&mut machine, workload, cfg)
}

/// Run the hand-coded experiment on the persistent worker-pool engine.
/// Modeled times, statistics and results are byte-identical to
/// [`run_handcoded`]; only the wall clock changes.
pub fn run_handcoded_pooled(workload: &PairLoopWorkload, cfg: &ExperimentConfig) -> PhaseTimes {
    let mut backend = PooledBackend::from_config(MachineConfig::ipsc860(cfg.nprocs));
    run_handcoded_on(&mut backend, workload, cfg)
}

/// Run the hand-coded experiment on an explicit SPMD engine.
pub fn run_handcoded_on<B: Backend>(
    backend: &mut B,
    workload: &PairLoopWorkload,
    cfg: &ExperimentConfig,
) -> PhaseTimes {
    drive(backend, workload, cfg).0
}

/// The experiment itself — arrays, CONSTRUCT / SET / REDISTRIBUTE, the
/// inspector and the guarded sweeps: its phase breakdown and the `y` it
/// computed, gathered back to global order.
fn drive<B: Backend>(
    backend: &mut B,
    workload: &PairLoopWorkload,
    cfg: &ExperimentConfig,
) -> (PhaseTimes, Vec<f64>) {
    let wall_start = Instant::now();
    let p = cfg.nprocs;
    assert_eq!(
        backend.nprocs(),
        p,
        "backend size must match the experiment"
    );
    let mut registry = ReuseRegistry::new();
    let mut times = PhaseTimes::default();

    let n = workload.nnodes;
    let ne = workload.npairs();

    // Default BLOCK distributions (statements S1–S4 of Figure 4).
    let node_dist = Distribution::block(n, p);
    let edge_dist = Distribution::block(ne, p);
    let mut x = DistArray::from_global("x", node_dist.clone(), &workload.input);
    let mut y = DistArray::from_global("y", node_dist.clone(), &vec![0.0; n]);
    let e1 = DistArray::from_global("end_pt1", edge_dist.clone(), &workload.e1);
    let e2 = DistArray::from_global("end_pt2", edge_dist.clone(), &workload.e2);
    let xc = DistArray::from_global("xc", node_dist.clone(), &workload.coords[0]);
    let yc = DistArray::from_global("yc", node_dist.clone(), &workload.coords[1]);
    let zc = DistArray::from_global("zc", node_dist.clone(), &workload.coords[2]);
    let load = DistArray::from_global("load", node_dist.clone(), &workload.loads);

    let mut sampler = PhaseSampler::new(backend.machine());

    // Phase A (CONSTRUCT + SET) and phase C (REDISTRIBUTE) for the
    // partitioned methods; BLOCK keeps the default distribution.
    let mut data_dist = node_dist.clone();
    if let Some(pname) = cfg.method.partitioner_name() {
        let spec = match cfg.method {
            Method::Rcb | Method::Inertial => GeoColSpec::new(n)
                .with_geometry(vec![&xc, &yc, &zc])
                .with_load(&load),
            Method::Rsb => GeoColSpec::new(n).with_link(&e1, &e2),
            Method::Block => unreachable!("BLOCK has no partitioner"),
        };
        let geocol = MapperCoupler.construct_geocol(backend.machine_mut(), &spec);
        times.graph_generation = sampler.lap(backend.machine());

        let partitioner = partitioner_by_name(pname).expect("registered partitioner");
        let outcome = MapperCoupler.partition(backend, partitioner.as_ref(), &geocol);
        times.partitioner = sampler.lap(backend.machine());

        MapperCoupler.redistribute(backend, &mut registry, &mut x, &outcome.distribution);
        MapperCoupler.redistribute(backend, &mut registry, &mut y, &outcome.distribution);
        times.remap = sampler.lap(backend.machine());
        data_dist = outcome.distribution;
    }

    // The loop's DADs, for the schedule-reuse record.
    let loop_id = LoopId::new("edge-loop");
    let data_dads: Vec<Dad> = vec![x.dad(), y.dad()];
    let ind_dads: Vec<Dad> = vec![e1.dad(), e2.dad()];

    // Inspector: iteration partitioning + localize. The access pattern and
    // the localize intermediates are reused across re-runs (the no-reuse
    // rows re-run the inspector every sweep), so repeated inspector calls
    // stop allocating once the buffers have grown to the workload size.
    let iteration_refs = workload.iteration_refs();
    let mut pattern = AccessPattern::new(p);
    let mut scratch = LocalizeScratch::default();
    let run_inspector = |backend: &mut B,
                         pattern: &mut AccessPattern,
                         scratch: &mut LocalizeScratch|
     -> (IterationPartition, InspectorResult) {
        let prev = backend
            .machine_mut()
            .set_phase_kind(Some(PhaseKind::Inspector));
        let iter_part = partition_iterations(
            backend.machine_mut(),
            &data_dist,
            &iteration_refs,
            IterPartitionPolicy::AlmostOwnerComputes,
        );
        for proc in 0..p {
            let refs = &mut pattern.refs[proc];
            refs.clear();
            refs.reserve(2 * iter_part.iters(proc).len());
            for &it in iter_part.iters(proc) {
                refs.push(workload.e1[it as usize]);
                refs.push(workload.e2[it as usize]);
            }
        }
        let result =
            Inspector.localize_with_scratch(backend, "edge-loop", &data_dist, pattern, scratch);
        backend.machine_mut().set_phase_kind(prev);
        (iter_part, result)
    };

    let (mut iter_part, mut inspect) = run_inspector(backend, &mut pattern, &mut scratch);
    let mut buffers = SweepBuffers::new(p);
    registry.save_inspector(loop_id, &data_dads, &ind_dads);
    times.inspector += sampler.lap(backend.machine());
    times.inspector_runs += 1;
    times.local_fraction = inspect.local_fraction();

    // Executor sweeps (phase E), optionally re-running the inspector first
    // (the "no schedule reuse" rows of Table 1).
    for sweep in 0..cfg.executor_iterations {
        if cfg.reuse {
            // The generated code's guard: a cheap check that the saved
            // schedules are still valid.
            let machine = backend.machine_mut();
            let decision = registry.check_on_machine(machine, &loop_id, &data_dads, &ind_dads);
            debug_assert!(decision.can_reuse());
            times.inspector += sampler.lap(backend.machine());
        } else if sweep > 0 {
            let (ip, ir) = run_inspector(backend, &mut pattern, &mut scratch);
            iter_part = ip;
            inspect = ir;
            times.inspector += sampler.lap(backend.machine());
            times.inspector_runs += 1;
        }

        execute_sweep(
            backend,
            workload,
            &iter_part,
            &inspect,
            &x,
            &mut y,
            &mut buffers,
        );
        times.executor += sampler.lap(backend.machine());
        times.executor_sweeps += 1;

        // The loop wrote y: record it, exactly as the generated code would.
        registry.record_write(&y.dad());
    }

    let totals = backend.machine().stats().grand_totals();
    times.messages = totals.messages;
    times.bytes = totals.bytes;
    times.total = backend.machine().elapsed().max_seconds();
    times.wall_seconds = wall_start.elapsed().as_secs_f64();
    (times, y.to_global())
}

/// Buffers reused by every executor sweep, so the steady-state loop
/// (gather → kernel → scatter-add with a reused schedule) performs no heap
/// allocation after the first sweep on the sequential engine. Both buffer
/// sets are per-rank, so the sweep's compute kernel can run rank-parallel.
struct SweepBuffers {
    ghosts: Vec<Vec<f64>>,
    contributions: Vec<Vec<f64>>,
}

impl SweepBuffers {
    fn new(nprocs: usize) -> Self {
        SweepBuffers {
            ghosts: vec![Vec::new(); nprocs],
            contributions: vec![Vec::new(); nprocs],
        }
    }

    /// Size the ghost and contribution buffers for an inspector result
    /// (no-op when the sizes are unchanged); contributions are zeroed.
    fn fit(&mut self, ghost_counts: &[usize]) {
        for (q, &count) in ghost_counts.iter().enumerate() {
            self.ghosts[q].resize(count, 0.0);
            self.contributions[q].resize(count, 0.0);
            self.contributions[q].fill(0.0);
        }
    }
}

/// One executor sweep: gather → local pair kernel → scatter-add.
///
/// The pair kernel between the two communication phases is a rank-local
/// compute kernel: rank `q` reads its own iterations, its own `x` shard and
/// its own ghost buffer, and writes its own `y` shard / contribution
/// buffer — so on the pooled backend the whole sweep (communication *and*
/// computation) runs rank-parallel.
fn execute_sweep<B: Backend>(
    backend: &mut B,
    workload: &PairLoopWorkload,
    iter_part: &IterationPartition,
    inspect: &InspectorResult,
    x: &DistArray<f64>,
    y: &mut DistArray<f64>,
    buffers: &mut SweepBuffers,
) {
    let prev = backend
        .machine_mut()
        .set_phase_kind(Some(PhaseKind::Executor));
    buffers.fit(&inspect.ghost_counts);
    let SweepBuffers {
        ghosts,
        contributions,
    } = buffers;
    gather_into(backend, "edge-loop", &inspect.schedule, x, ghosts);

    let ghosts = &*ghosts;
    backend.run_compute(
        y.par_shards_mut().zip(contributions.iter_mut()),
        |ctx, (y_local, contrib): (&mut [f64], &mut Vec<f64>)| {
            let proc = ctx.rank();
            let niters = iter_part.iters(proc).len();
            let x_local = x.local(proc);
            let x_ghost = &ghosts[proc];
            // `x` is only read and `y` only written, so each iteration's
            // two updates are applied where they are computed: owned
            // elements in place, off-processor ones into the contributions.
            for refs in inspect.localized[proc].chunks_exact(2) {
                let (r1, r2) = (refs[0], refs[1]);
                let v1 = *resolve_local(r1, x_local, x_ghost);
                let v2 = *resolve_local(r2, x_local, x_ghost);
                let (f1, f2) = (workload.kernel)(v1, v2);
                *resolve_local_mut(r1, y_local, contrib) += f1;
                *resolve_local_mut(r2, y_local, contrib) += f2;
            }
            ctx.charge_compute(proc, niters as f64 * workload.ops_per_iteration);
        },
    );
    scatter_add(backend, "edge-loop", &inspect.schedule, y, contributions);
    backend.machine_mut().set_phase_kind(prev);
}

/// Run one sweep sequentially and through the hand-coded path, returning the
/// maximum absolute difference (used by tests and the `all_tables`
/// self-check).
pub fn verify_against_sequential(
    workload: &PairLoopWorkload,
    nprocs: usize,
    method: Method,
) -> f64 {
    let cfg = ExperimentConfig {
        nprocs,
        method,
        reuse: true,
        executor_iterations: 1,
        scale: 1,
    };
    let expected = workload.sequential_sweep();
    let mut machine = Machine::new(MachineConfig::ipsc860(nprocs));
    let (_, got) = drive(&mut machine, workload, &cfg);
    expected
        .iter()
        .zip(&got)
        .map(|(a, b)| (a - b).abs())
        .fold(0.0, f64::max)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::workload::{md_workload, mesh_workload};
    use chaos_workloads::{MdConfig, MeshConfig};

    fn small_mesh() -> PairLoopWorkload {
        mesh_workload(MeshConfig::tiny(600))
    }

    #[test]
    fn handcoded_matches_sequential_for_all_methods() {
        let w = small_mesh();
        for method in [Method::Block, Method::Rcb, Method::Rsb, Method::Inertial] {
            let err = verify_against_sequential(&w, 4, method);
            assert!(err < 1e-9, "{method:?}: max error {err}");
        }
        let md = md_workload(MdConfig::tiny(27));
        let err = verify_against_sequential(&md, 4, Method::Rcb);
        assert!(err < 1e-9, "md: max error {err}");
    }

    #[test]
    fn threaded_experiment_is_bit_identical_to_sequential() {
        // The full experiment (partition → remap → inspector → 5 sweeps) on
        // both engines (the pool at its default lane count): every modeled
        // quantity must agree exactly, for both paper workloads.
        for w in [
            mesh_workload(MeshConfig::tiny(800)),
            md_workload(MdConfig::tiny(27)),
        ] {
            let cfg = ExperimentConfig::paper(8, Method::Rcb).with_iterations(5);
            let seq = run_handcoded(&w, &cfg);
            let pool = run_handcoded_pooled(&w, &cfg);
            assert_eq!(seq.total.to_bits(), pool.total.to_bits(), "{}", w.name);
            assert_eq!(seq.executor.to_bits(), pool.executor.to_bits());
            assert_eq!(seq.inspector.to_bits(), pool.inspector.to_bits());
            assert_eq!(seq.partitioner.to_bits(), pool.partitioner.to_bits());
            assert_eq!(seq.remap.to_bits(), pool.remap.to_bits());
            assert_eq!(seq.messages, pool.messages);
            assert_eq!(seq.bytes, pool.bytes);
            assert_eq!(seq.local_fraction.to_bits(), pool.local_fraction.to_bits());
        }
    }

    #[test]
    fn pooled_experiment_is_bit_identical_to_sequential() {
        // The full experiment (partition → remap → inspector → sweeps) on
        // the persistent worker pool, including with more ranks (8) than the
        // pool has lanes: every modeled quantity must agree exactly.
        let w = mesh_workload(MeshConfig::tiny(800));
        let cfg = ExperimentConfig::paper(8, Method::Inertial).with_iterations(4);
        let seq = run_handcoded(&w, &cfg);
        let mut backend = PooledBackend::from_config_with_workers(MachineConfig::ipsc860(8), 3);
        let pooled = run_handcoded_on(&mut backend, &w, &cfg);
        assert_eq!(seq.total.to_bits(), pooled.total.to_bits());
        assert_eq!(seq.executor.to_bits(), pooled.executor.to_bits());
        assert_eq!(seq.inspector.to_bits(), pooled.inspector.to_bits());
        assert_eq!(seq.partitioner.to_bits(), pooled.partitioner.to_bits());
        assert_eq!(seq.remap.to_bits(), pooled.remap.to_bits());
        assert_eq!(seq.messages, pooled.messages);
        assert_eq!(seq.bytes, pooled.bytes);
        assert_eq!(
            seq.local_fraction.to_bits(),
            pooled.local_fraction.to_bits()
        );
    }

    #[test]
    fn schedule_reuse_reduces_inspector_cost() {
        let w = small_mesh();
        let base = ExperimentConfig::paper(4, Method::Rcb).with_iterations(10);
        let with = run_handcoded(&w, &base);
        let without = run_handcoded(&w, &base.with_reuse(false));
        assert_eq!(with.inspector_runs, 1);
        assert_eq!(without.inspector_runs, 10);
        assert!(
            without.inspector > 3.0 * with.inspector,
            "inspector: {} vs {}",
            without.inspector,
            with.inspector
        );
        assert!(without.total > with.total);
        // Executor time per sweep is unaffected by reuse.
        let a = with.executor_per_iteration();
        let b = without.executor_per_iteration();
        assert!(
            (a - b).abs() < 0.25 * a.max(b),
            "executor per iter {a} vs {b}"
        );
    }

    #[test]
    fn irregular_partitioning_beats_block_in_the_executor() {
        let w = small_mesh();
        let block = run_handcoded(
            &w,
            &ExperimentConfig::paper(8, Method::Block).with_iterations(5),
        );
        let rcb = run_handcoded(
            &w,
            &ExperimentConfig::paper(8, Method::Rcb).with_iterations(5),
        );
        assert!(
            block.executor > 1.3 * rcb.executor,
            "BLOCK executor {} should exceed RCB executor {}",
            block.executor,
            rcb.executor
        );
        assert!(rcb.local_fraction > block.local_fraction);
        // BLOCK pays no partitioning / graph generation cost.
        assert_eq!(block.partitioner, 0.0);
        assert_eq!(block.graph_generation, 0.0);
        assert!(rcb.partitioner > 0.0);
    }

    #[test]
    fn rsb_costs_more_to_partition_but_executes_no_worse() {
        let w = small_mesh();
        let rcb = run_handcoded(
            &w,
            &ExperimentConfig::paper(4, Method::Rcb).with_iterations(5),
        );
        let rsb = run_handcoded(
            &w,
            &ExperimentConfig::paper(4, Method::Rsb).with_iterations(5),
        );
        assert!(
            rsb.partitioner > 3.0 * rcb.partitioner,
            "RSB partitioner {} should dwarf RCB {}",
            rsb.partitioner,
            rcb.partitioner
        );
        assert!(rsb.executor < 1.3 * rcb.executor);
    }

    #[test]
    fn more_processors_reduce_executor_time() {
        // Needs a mesh large enough that per-processor compute dominates the
        // per-message latency; tiny meshes are (realistically) latency-bound
        // and do not scale.
        let w = mesh_workload(MeshConfig::tiny(4000));
        let p4 = run_handcoded(
            &w,
            &ExperimentConfig::paper(4, Method::Rcb).with_iterations(5),
        );
        let p16 = run_handcoded(
            &w,
            &ExperimentConfig::paper(16, Method::Rcb).with_iterations(5),
        );
        assert!(
            p16.executor < p4.executor,
            "executor should scale: 4p={} 16p={}",
            p4.executor,
            p16.executor
        );
    }

    #[test]
    fn phase_times_account_for_most_of_the_total() {
        let w = small_mesh();
        let t = run_handcoded(
            &w,
            &ExperimentConfig::paper(4, Method::Rcb).with_iterations(3),
        );
        assert!(t.phase_sum() <= t.total * 1.001);
        assert!(
            t.phase_sum() > 0.5 * t.total,
            "phases {} vs total {}",
            t.phase_sum(),
            t.total
        );
        assert!(t.messages > 0);
        assert!(t.bytes > 0);
        assert!(t.wall_seconds > 0.0);
    }
}
