//! Ablation bench: iteration-partitioning policy (the paper's
//! almost-owner-computes vs a naive block of iterations), measuring
//! both the partitioning pass itself and the off-processor reference count
//! it leaves for the executor.

use chaos_bench::workload::mesh_workload;
use chaos_dmsim::{Machine, MachineConfig};
use chaos_geocol::{Partitioner, RcbPartitioner};
use chaos_runtime::iterpart::partition_iterations;
use chaos_runtime::{AccessPattern, Distribution, Inspector, IterPartitionPolicy};
use chaos_workloads::MeshConfig;
use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};

fn bench_iter_partition(c: &mut Criterion) {
    let w = mesh_workload(MeshConfig::tiny(3000));
    let nprocs = 16;
    let geocol = chaos_geocol::GeoColBuilder::new(w.nnodes)
        .geometry(vec![
            w.coords[0].clone(),
            w.coords[1].clone(),
            w.coords[2].clone(),
        ])
        .build()
        .unwrap();
    let partitioning = RcbPartitioner.partition(&geocol, nprocs);
    let dist = Distribution::irregular_from_map(partitioning.owners(), nprocs);
    let refs = w.iteration_refs();

    let mut group = c.benchmark_group("iter_partition");
    group.sample_size(20);
    for (name, policy) in [
        (
            "almost_owner_computes",
            IterPartitionPolicy::AlmostOwnerComputes,
        ),
        (
            "block_of_iterations",
            IterPartitionPolicy::BlockOfIterations,
        ),
    ] {
        // Report the locality each policy achieves.
        let mut machine = Machine::new(MachineConfig::ipsc860(nprocs));
        let part = partition_iterations(&mut machine, &dist, &refs, policy);
        let mut pattern = AccessPattern::new(nprocs);
        for p in 0..nprocs {
            for &it in part.iters(p) {
                pattern.refs[p].push(w.e1[it as usize]);
                pattern.refs[p].push(w.e2[it as usize]);
            }
        }
        let result = Inspector.localize(&mut machine, "bench", &dist, &pattern);
        eprintln!(
            "{name}: local fraction {:.3}, ghosts {}, imbalance {:.3}",
            result.local_fraction(),
            result.schedule.total_ghosts(),
            part.imbalance()
        );

        group.bench_with_input(
            BenchmarkId::new("partition", name),
            &policy,
            |b, &policy| {
                b.iter(|| {
                    let mut machine = Machine::new(MachineConfig::ipsc860(nprocs));
                    partition_iterations(&mut machine, &dist, &refs, policy)
                })
            },
        );
    }
    group.finish();
}

criterion_group!(benches, bench_iter_partition);
criterion_main!(benches);
