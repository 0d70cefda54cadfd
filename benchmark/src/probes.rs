//! Direct probes of single layers, and the reference rows the compiled
//! sweep sits beside.
//!
//! The whole-program spans cannot see below the `chaos-lang` executor, so
//! the traced run also calls each lower layer's public functions itself, on
//! a `Machine` with the workload's inputs and rank count, and takes the wall
//! time around each call: the mapper coupler, the iteration partitioner,
//! the inspector, gather / scatter, the pure partitioner, and an empty
//! compute phase on both engines.

use crate::stats::fastest;
use crate::workloads::{Generated, Prepared, Shape, Spec};
use chaos_bench::handcoded::run_handcoded;
use chaos_bench::{ExperimentConfig, Method};
use chaos_dmsim::{Backend, Machine, MachineConfig, PooledBackend};
use chaos_geocol::{partitioner_by_name, BlockPartitioner, GeoColBuilder, Partitioner};
use chaos_geocol::{PartitionQuality, Partitioning};
use chaos_runtime::iterpart::partition_iterations;
use chaos_runtime::{
    gather_into, scatter_add, AccessPattern, DistArray, Distribution, GeoColSpec, Inspector,
    IterPartitionPolicy, LocalizeScratch, MapperCoupler, ReuseRegistry,
};
use std::hint::black_box;
use std::time::{Duration, Instant};

/// Steady gather / scatter calls timed per loop (fastest reported).
const EXCHANGE_SAMPLES: usize = 21;
/// Empty compute phases per engine: 100 batches of 100, fastest batch mean.
const OVERHEAD_BATCHES: usize = 100;
const OVERHEAD_BATCH: usize = 100;
/// Sweeps of the hand-coded reference: wall at `3N` minus wall at `N`, each
/// the fastest of as many runs as fit the budget (at least one).
const REFERENCE_SWEEPS: usize = 100;
const REFERENCE_BUDGET: Duration = Duration::from_secs(2);
/// Serial reference sweeps timed (fastest reported).
const SERIAL_SAMPLES: usize = 11;

/// Wall times and exact counts of the single-layer probes.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct LayerProbes {
    /// `MapperCoupler::construct_geocol`, seconds (0 without a partitioner).
    pub construct_geocol_s: f64,
    /// `MapperCoupler::partition`, seconds.
    pub coupler_partition_s: f64,
    /// `MapperCoupler::redistribute` of the five node arrays, seconds.
    pub redistribute_s: f64,
    /// `partition_iterations`, summed over the program's loops, seconds.
    pub partition_iterations_s: f64,
    /// `Inspector::localize_with_scratch`, summed over loops, seconds.
    pub localize_s: f64,
    /// Fastest steady `gather_into`, summed over loops, seconds.
    pub gather_s: f64,
    /// Fastest steady `scatter_add`, summed over loops, seconds.
    pub scatter_s: f64,
    /// Ghost elements of the loops' schedules.
    pub total_ghosts: usize,
    /// Messages of one gather over the loops' schedules.
    pub message_count: usize,
    /// Share of loop references that stay on-processor.
    pub local_fraction: f64,
    /// Largest iteration-partition imbalance (max / mean) over the loops.
    pub imbalance: f64,
    /// Pure serial `Partitioner::partition`, seconds.
    pub geocol_partition_s: f64,
    /// Share of the first loop's edges the data partition cuts.
    pub cut_fraction: f64,
    /// Largest part over mean part, in vertices.
    pub load_imbalance: f64,
    /// Empty `run_compute` on a 2-worker pool, nanoseconds.
    pub pool_phase_overhead_ns: f64,
    /// Empty `run_compute` on `Machine`, nanoseconds.
    pub machine_phase_overhead_ns: f64,
}

fn timed<T>(f: impl FnOnce() -> T) -> (T, f64) {
    let start = Instant::now();
    let value = f();
    (value, start.elapsed().as_secs_f64())
}

/// The partitioned data-mapping method the workload's program asks for
/// (`None` when it keeps the BLOCK distribution).
fn method_of(spec: &Spec) -> Option<Method> {
    match spec.shape {
        Shape::Mesh { method, .. } => Some(method),
        Shape::Md { .. } => Some(Method::Rcb),
        Shape::TwoLoop { .. } => None,
    }
    .filter(|m| m.partitioner_name().is_some())
}

/// Probe the layers under the executor with `prepared`'s inputs.
pub fn probe_layers(spec: &Spec, prepared: &Prepared) -> LayerProbes {
    let generated = &prepared.generated;
    let p = spec.nprocs;
    let n = generated.nnodes();
    let loops = generated.loops();
    let mut machine = Machine::new(MachineConfig::ipsc860(p));
    let mut out = LayerProbes::default();

    let block = Distribution::block(n, p);
    let x_global = generated.x();
    let mut x = DistArray::from_global("x", block.clone(), x_global);
    let mut y = DistArray::from_global("y", block.clone(), &vec![0.0; n]);

    // The graph partition quality is judged on: the first loop's edges.
    let mesh_graph = GeoColBuilder::new(n)
        .link(loops[0].0.to_vec(), loops[0].1.to_vec())
        .build()
        .expect("generated endpoints form a valid GeoCoL");

    // CONSTRUCT / SET / REDISTRIBUTE, with the sections the program names.
    let (data_dist, partitioning): (Distribution, Partitioning) = match (method_of(spec), generated)
    {
        (Some(method), Generated::Pair(w)) => {
            let mut coords: Vec<DistArray<f64>> = ["xc", "yc", "zc"]
                .iter()
                .zip(&w.coords)
                .map(|(name, c)| DistArray::from_global(name, block.clone(), c))
                .collect();
            let edge_dist = Distribution::block(w.npairs(), p);
            let e1 = DistArray::from_global("end_pt1", edge_dist.clone(), &w.e1);
            let e2 = DistArray::from_global("end_pt2", edge_dist, &w.e2);
            let geocol_spec = if method == Method::Rsb {
                GeoColSpec::new(n).with_link(&e1, &e2)
            } else {
                GeoColSpec::new(n).with_geometry(coords.iter().collect())
            };
            let (geocol, t) = timed(|| MapperCoupler.construct_geocol(&mut machine, &geocol_spec));
            out.construct_geocol_s = t;

            let name = method.partitioner_name().expect("not BLOCK");
            let partitioner = partitioner_by_name(name).expect("registered partitioner");
            let (outcome, t) =
                timed(|| MapperCoupler.partition(&mut machine, partitioner.as_ref(), &geocol));
            out.coupler_partition_s = t;
            out.geocol_partition_s = timed(|| black_box(partitioner.partition(&geocol, p))).1;

            let mut registry = ReuseRegistry::new();
            let dist = &outcome.distribution;
            let ((), t) = timed(|| {
                for a in [&mut x, &mut y].into_iter().chain(coords.iter_mut()) {
                    MapperCoupler.redistribute(&mut machine, &mut registry, a, dist);
                }
            });
            out.redistribute_s = t;
            (outcome.distribution, outcome.partitioning)
        }
        _ => (block, BlockPartitioner.partition(&mesh_graph, p)),
    };
    let quality = PartitionQuality::evaluate(&mesh_graph, &partitioning);
    out.cut_fraction = quality.cut_fraction();
    out.load_imbalance = quality.load_imbalance;

    // Inspector and executor primitives, loop by loop.
    let mut scratch = LocalizeScratch::default();
    let (mut owned_refs, mut total_refs) = (0.0, 0.0);
    for (a, b) in &loops {
        let iteration_refs: Vec<Vec<u32>> = a.iter().zip(*b).map(|(&a, &b)| vec![a, b]).collect();
        let (iter_part, t) = timed(|| {
            partition_iterations(
                &mut machine,
                &data_dist,
                &iteration_refs,
                IterPartitionPolicy::AlmostOwnerComputes,
            )
        });
        out.partition_iterations_s += t;
        out.imbalance = out.imbalance.max(iter_part.imbalance());

        let mut pattern = AccessPattern::new(p);
        for (proc, refs) in pattern.refs.iter_mut().enumerate() {
            for &it in iter_part.iters(proc) {
                refs.extend([a[it as usize], b[it as usize]]);
            }
        }
        let (inspect, t) = timed(|| {
            Inspector.localize_with_scratch(
                &mut machine,
                "probe",
                &data_dist,
                &pattern,
                &mut scratch,
            )
        });
        out.localize_s += t;
        out.total_ghosts += inspect.schedule.total_ghosts();
        out.message_count += inspect.schedule.message_count();
        let refs = pattern.total_refs() as f64;
        owned_refs += inspect.local_fraction() * refs;
        total_refs += refs;

        let mut ghosts: Vec<Vec<f64>> =
            inspect.ghost_counts.iter().map(|&c| vec![0.0; c]).collect();
        let contributions = ghosts.clone();
        let (mut gathers, mut scatters) = (Vec::new(), Vec::new());
        for _ in 0..EXCHANGE_SAMPLES {
            gathers.push(
                timed(|| gather_into(&mut machine, "probe", &inspect.schedule, &x, &mut ghosts)).1,
            );
            scatters.push(
                timed(|| {
                    scatter_add(
                        &mut machine,
                        "probe",
                        &inspect.schedule,
                        &mut y,
                        &contributions,
                    )
                })
                .1,
            );
        }
        black_box((&ghosts, &y));
        out.gather_s += fastest(&gathers);
        out.scatter_s += fastest(&scatters);
    }
    out.local_fraction = owned_refs / total_refs;

    out.machine_phase_overhead_ns = phase_overhead_ns(&mut machine);
    let mut pool = PooledBackend::from_config_with_workers(MachineConfig::ipsc860(p), 2);
    out.pool_phase_overhead_ns = phase_overhead_ns(&mut pool);
    out
}

/// Wall nanoseconds of one empty `run_compute` (fastest batch mean).
fn phase_overhead_ns<B: Backend>(backend: &mut B) -> f64 {
    let mut state = vec![(); backend.nprocs()];
    let batches: Vec<f64> = (0..OVERHEAD_BATCHES)
        .map(|_| {
            let start = Instant::now();
            for _ in 0..OVERHEAD_BATCH {
                backend.run_compute(state.iter_mut(), |_ctx, _rank_state: &mut ()| {});
            }
            start.elapsed().as_nanos() as f64 / OVERHEAD_BATCH as f64
        })
        .collect();
    fastest(&batches)
}

/// Wall nanoseconds per loop iteration of the two plain references.
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct ReferenceRows {
    /// The hand-coded closure sweep (`run_handcoded`), 0 where the workload
    /// is not a single pair loop.
    pub handcoded_ns_per_iter: f64,
    /// The plain serial loop.
    pub serial_ns_per_iter: f64,
}

/// Time the hand-coded and serial references of one time step.
pub fn reference_rows(spec: &Spec, prepared: &Prepared) -> ReferenceRows {
    let iters = prepared.generated.iters_per_step() as f64;
    let serial: Vec<f64> = (0..SERIAL_SAMPLES)
        .map(|_| timed(|| black_box(prepared.generated.serial_step())).1)
        .collect();
    let handcoded_ns_per_iter = match (&prepared.generated, method_of(spec)) {
        (Generated::Pair(w), Some(method)) => {
            // Everything but the sweeps cancels in the difference.
            let wall = |sweeps: usize| {
                let cfg = ExperimentConfig::paper(spec.nprocs, method).with_iterations(sweeps);
                black_box(run_handcoded(w, &cfg)).wall_seconds
            };
            let (mut short, mut long) = (Vec::new(), Vec::new());
            let budget = Instant::now();
            while short.is_empty() || budget.elapsed() < REFERENCE_BUDGET {
                short.push(wall(REFERENCE_SWEEPS));
                long.push(wall(3 * REFERENCE_SWEEPS));
            }
            (fastest(&long) - fastest(&short)) * 1e9 / (2 * REFERENCE_SWEEPS) as f64 / iters
        }
        _ => 0.0,
    };
    ReferenceRows {
        handcoded_ns_per_iter,
        serial_ns_per_iter: fastest(&serial) * 1e9 / iters,
    }
}
