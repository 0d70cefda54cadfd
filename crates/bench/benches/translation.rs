//! Ablation bench: replicated vs distributed (paged) translation table.
//! The replicated table answers dereference requests locally but costs
//! O(n) memory per processor; the distributed table pays a request/response
//! message pair per off-page lookup — the trade-off PARTI/CHAOS makes and
//! the reason inspector costs dominate when schedules are not reused.

use chaos_dmsim::{Machine, MachineConfig};
use chaos_runtime::{TTablePolicy, TranslationTable};
use chaos_workloads::{MeshConfig, UnstructuredMesh};
use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};

fn bench_translation(c: &mut Criterion) {
    let mesh = UnstructuredMesh::generate(MeshConfig::tiny(4000));
    let nprocs = 16;
    // An irregular map: shuffle ownership by hashing the node id.
    let map: Vec<u32> = (0..mesh.nnodes())
        .map(|i| ((i * 2654435761) % nprocs) as u32)
        .collect();
    // Requests: each processor asks about the endpoints of a slice of edges.
    let mut requests: Vec<Vec<u32>> = vec![Vec::new(); nprocs];
    let per = mesh.nedges().div_ceil(nprocs);
    for (i, (&a, &b)) in mesh.end_pt1.iter().zip(&mesh.end_pt2).enumerate() {
        let p = (i / per).min(nprocs - 1);
        requests[p].push(a);
        requests[p].push(b);
    }

    let mut group = c.benchmark_group("translation_table");
    group.sample_size(20);
    for (name, policy) in [
        ("replicated", TTablePolicy::Replicated),
        ("distributed", TTablePolicy::Distributed),
    ] {
        let table = TranslationTable::from_map_with_policy(&map, nprocs, policy);
        // Report the modeled cost difference once.
        let mut machine = Machine::new(MachineConfig::ipsc860(nprocs));
        table.dereference(&mut machine, &requests);
        eprintln!(
            "{name}: modeled dereference {:.4}s, messages {}, storage/proc {} words",
            machine.elapsed().max_seconds(),
            machine.stats().grand_totals().messages,
            table.storage_words(0)
        );
        group.bench_with_input(BenchmarkId::new("dereference", name), &table, |b, table| {
            b.iter(|| {
                let mut machine = Machine::new(MachineConfig::ipsc860(nprocs));
                table.dereference(&mut machine, &requests)
            })
        });
        // The inspector's hot path: packed answers into reused buffers.
        group.bench_with_input(
            BenchmarkId::new("dereference_packed", name),
            &table,
            |b, table| {
                let mut out: Vec<Vec<u64>> = Vec::new();
                b.iter(|| {
                    let mut machine = Machine::new(MachineConfig::ipsc860(nprocs));
                    table.dereference_packed(&mut machine, &requests, &mut out);
                })
            },
        );
    }
    group.finish();
}

criterion_group!(benches, bench_translation);
criterion_main!(benches);
