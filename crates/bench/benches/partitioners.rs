//! Micro-benchmark of the partitioner library (Table 2's partitioner row):
//! BLOCK vs RCB vs RSB on the same mesh, measuring both runtime
//! and (via the printed quality) edge cut.

use chaos_bench::workload::mesh_workload;
use chaos_geocol::{
    BlockPartitioner, GeoColBuilder, PartitionQuality, Partitioner, RcbPartitioner, RsbPartitioner,
};
use chaos_workloads::MeshConfig;
use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};

fn bench_partitioners(c: &mut Criterion) {
    let w = mesh_workload(MeshConfig::tiny(3000));
    let geocol = GeoColBuilder::new(w.nnodes)
        .geometry(vec![
            w.coords[0].clone(),
            w.coords[1].clone(),
            w.coords[2].clone(),
        ])
        .load(w.loads.clone())
        .link(w.e1.clone(), w.e2.clone())
        .build()
        .unwrap();

    let partitioners: Vec<(&str, Box<dyn Partitioner>)> = vec![
        ("block", Box::new(BlockPartitioner)),
        ("rcb", Box::new(RcbPartitioner)),
        (
            "rsb",
            Box::new(RsbPartitioner {
                max_steps: 60,
                ..Default::default()
            }),
        ),
    ];

    let mut group = c.benchmark_group("partitioners");
    group.sample_size(10);
    for (name, p) in &partitioners {
        let q = PartitionQuality::evaluate(&geocol, &p.partition(&geocol, 16));
        eprintln!(
            "{name}: edge cut {} / {} ({:.1}%), imbalance {:.3}",
            q.edge_cut,
            q.total_edges,
            100.0 * q.cut_fraction(),
            q.load_imbalance
        );
        group.bench_with_input(BenchmarkId::new("partition_16", *name), name, |b, _| {
            b.iter(|| p.partition(&geocol, 16))
        });
    }
    group.finish();
}

criterion_group!(benches, bench_partitioners);
criterion_main!(benches);
