//! Cross-crate integration tests: the full pipeline from workload generation
//! through partitioning, remapping, inspection and execution, exercised both
//! through the hand-coded runtime API and through the mini-language
//! ("compiler-generated") path.

use chaos_repro::prelude::*;
use chaos_repro::runtime::iterpart::partition_iterations;
use chaos_repro::runtime::{
    gather, resolve_local, resolve_local_mut, scatter_add, GeoColSpec, Inspector,
    IterPartitionPolicy, MapperCoupler,
};
use chaos_repro::workloads::edge_flux_kernel;

/// Sequential reference for one edge sweep.
fn sequential_sweep(mesh: &UnstructuredMesh, x: &[f64]) -> Vec<f64> {
    let mut y = vec![0.0; mesh.nnodes()];
    for (&a, &b) in mesh.end_pt1.iter().zip(&mesh.end_pt2) {
        let (f1, f2) = edge_flux_kernel(x[a as usize], x[b as usize]);
        y[a as usize] += f1;
        y[b as usize] += f2;
    }
    y
}

/// Run the full hand-coded pipeline for a given partitioner name; return the
/// global result and the executor's modeled time.
fn run_pipeline(
    mesh: &UnstructuredMesh,
    state: &[f64],
    nprocs: usize,
    partitioner: Option<&str>,
) -> (Vec<f64>, f64) {
    let mut machine = Machine::new(MachineConfig::ipsc860(nprocs));
    let mut registry = ReuseRegistry::new();
    let node_dist = Distribution::block(mesh.nnodes(), nprocs);
    let edge_dist = Distribution::block(mesh.nedges(), nprocs);
    let mut x = DistArray::from_global("x", node_dist.clone(), state);
    let mut y = DistArray::from_global("y", node_dist.clone(), &vec![0.0; mesh.nnodes()]);
    let e1 = DistArray::from_global("e1", edge_dist.clone(), &mesh.end_pt1);
    let e2 = DistArray::from_global("e2", edge_dist.clone(), &mesh.end_pt2);

    let mut dist = node_dist;
    if let Some(name) = partitioner {
        let spec = if name == "RSB" {
            GeoColSpec::new(mesh.nnodes()).with_link(&e1, &e2)
        } else {
            let xc = DistArray::from_global("xc", dist.clone(), &mesh.xc);
            let geocol = MapperCoupler.construct_geocol(
                &mut machine,
                &GeoColSpec::new(mesh.nnodes())
                    .with_geometry(vec![&xc])
                    .with_link(&e1, &e2),
            );
            let p = chaos_repro::geocol::partitioner_by_name(name).unwrap();
            let outcome = MapperCoupler.partition(&mut machine, p.as_ref(), &geocol);
            MapperCoupler.redistribute(&mut machine, &mut registry, &mut x, &outcome.distribution);
            MapperCoupler.redistribute(&mut machine, &mut registry, &mut y, &outcome.distribution);
            let before = machine.phase_elapsed(PhaseKind::Executor);
            let (yg, texec) = execute(&mut machine, mesh, &outcome.distribution, &x, &mut y, 5);
            return (yg, texec - before);
        };
        let geocol = MapperCoupler.construct_geocol(&mut machine, &spec);
        let p = chaos_repro::geocol::partitioner_by_name(name).unwrap();
        let outcome = MapperCoupler.partition(&mut machine, p.as_ref(), &geocol);
        MapperCoupler.redistribute(&mut machine, &mut registry, &mut x, &outcome.distribution);
        MapperCoupler.redistribute(&mut machine, &mut registry, &mut y, &outcome.distribution);
        dist = outcome.distribution;
    }
    let (yg, texec) = execute(&mut machine, mesh, &dist, &x, &mut y, 5);
    (yg, texec)
}

/// Inspector + `sweeps` executor sweeps; returns the final global y and the
/// executor phase time.
fn execute(
    machine: &mut Machine,
    mesh: &UnstructuredMesh,
    dist: &Distribution,
    x: &DistArray<f64>,
    y: &mut DistArray<f64>,
    sweeps: usize,
) -> (Vec<f64>, f64) {
    let nprocs = machine.nprocs();
    let iter_part = partition_iterations(
        machine,
        dist,
        mesh.edge_iteration_refs(),
        IterPartitionPolicy::AlmostOwnerComputes,
    );
    let mut pattern = AccessPattern::new(nprocs);
    for p in 0..nprocs {
        for &it in iter_part.iters(p) {
            pattern.refs[p].push(mesh.end_pt1[it as usize]);
            pattern.refs[p].push(mesh.end_pt2[it as usize]);
        }
    }
    let inspect = Inspector.localize(machine, dist, &pattern);
    machine.set_phase_kind(Some(PhaseKind::Executor));
    for _ in 0..sweeps {
        let ghosts = gather(machine, &inspect.schedule, x);
        let mut contributions: Vec<Vec<f64>> = (0..nprocs)
            .map(|p| vec![0.0; inspect.ghost_counts[p]])
            .collect();
        for p in 0..nprocs {
            let localized = &inspect.localized[p];
            let mut updates = Vec::with_capacity(localized.len());
            for it in 0..iter_part.iters(p).len() {
                let (r1, r2) = (localized[2 * it], localized[2 * it + 1]);
                let v1 = *resolve_local(r1, x.local(p), &ghosts[p]);
                let v2 = *resolve_local(r2, x.local(p), &ghosts[p]);
                let (f1, f2) = edge_flux_kernel(v1, v2);
                updates.push((r1, f1));
                updates.push((r2, f2));
            }
            let y_local = y.local_mut(p);
            for (r, f) in updates {
                *resolve_local_mut(r, y_local, &mut contributions[p]) += f;
            }
        }
        scatter_add(machine, "L2", &inspect.schedule, y, &contributions);
    }
    let t = machine.phase_elapsed(PhaseKind::Executor);
    machine.set_phase_kind(None);
    (y.to_global(), t)
}

#[test]
fn parallel_pipeline_matches_sequential_reference_for_every_partitioner() {
    let mesh = UnstructuredMesh::generate(MeshConfig::tiny(800));
    let state: Vec<f64> = (0..mesh.nnodes())
        .map(|i| 1.0 + (i as f64 * 0.21).sin())
        .collect();
    let mut expected = vec![0.0; mesh.nnodes()];
    for _ in 0..5 {
        let once = sequential_sweep(&mesh, &state);
        for (e, o) in expected.iter_mut().zip(&once) {
            *e += o;
        }
    }
    for partitioner in [
        None,
        Some("RCB"),
        Some("RSB"),
        Some("INERTIAL"),
        Some("CYCLIC"),
    ] {
        let (got, _) = run_pipeline(&mesh, &state, 8, partitioner);
        for (i, (a, b)) in got.iter().zip(&expected).enumerate() {
            assert!(
                (a - b).abs() < 1e-9,
                "partitioner {partitioner:?}, node {i}: {a} vs {b}"
            );
        }
    }
}

#[test]
fn irregular_partitioning_beats_block_executor_time() {
    let mesh = UnstructuredMesh::generate(MeshConfig::tiny(2000));
    let state: Vec<f64> = (0..mesh.nnodes()).map(|i| (i as f64).cos()).collect();
    let (_, block_time) = run_pipeline(&mesh, &state, 8, None);
    let (_, rsb_time) = run_pipeline(&mesh, &state, 8, Some("RSB"));
    assert!(
        block_time > 1.3 * rsb_time,
        "BLOCK executor {block_time} should exceed RSB executor {rsb_time}"
    );
}

#[test]
fn compiler_path_agrees_with_handcoded_path() {
    use chaos_repro::lang::{lower_program, parse_program, Executor, ProgramInputs};
    let mesh = UnstructuredMesh::generate(MeshConfig::tiny(500));
    let state: Vec<f64> = (0..mesh.nnodes())
        .map(|i| 1.0 + (i as f64 * 0.4).cos())
        .collect();

    let src = r#"
        REAL*8 x(nnode), y(nnode)
        INTEGER end_pt1(nedge), end_pt2(nedge)
        DYNAMIC, DECOMPOSITION reg(nnode), reg2(nedge)
        DISTRIBUTE reg(BLOCK)
        DISTRIBUTE reg2(BLOCK)
        ALIGN x, y WITH reg
        ALIGN end_pt1, end_pt2 WITH reg2
        CALL READ_DATA(x, y, end_pt1, end_pt2)
C$      CONSTRUCT G (nnode, LINK(nedge, end_pt1, end_pt2))
C$      SET distfmt BY PARTITIONING G USING RCB
C$      REDISTRIBUTE reg(distfmt)
        FORALL i = 1, nedge
          REDUCE(ADD, y(end_pt1(i)), EFLUX1(x(end_pt1(i)), x(end_pt2(i))))
          REDUCE(ADD, y(end_pt2(i)), EFLUX2(x(end_pt1(i)), x(end_pt2(i))))
        END FORALL
    "#
    .replace("USING RCB", "USING RSB");
    let program = lower_program(parse_program(&src).unwrap()).unwrap();
    let inputs = ProgramInputs::new()
        .scalar("nnode", mesh.nnodes())
        .scalar("nedge", mesh.nedges())
        .real("x", state.clone())
        .real("y", vec![0.0; mesh.nnodes()])
        .int("end_pt1", mesh.end_pt1.iter().map(|&v| v + 1).collect())
        .int("end_pt2", mesh.end_pt2.iter().map(|&v| v + 1).collect());
    let mut exec = Executor::new(MachineConfig::ipsc860(4), inputs);
    exec.run(&program).unwrap();
    for _ in 1..5 {
        exec.execute_loop(&program, "L1").unwrap();
    }
    let compiler_y = exec.real_global("y").unwrap();

    let (hand_y, _) = run_pipeline(&mesh, &state, 4, Some("RSB"));
    for (i, (a, b)) in compiler_y.iter().zip(&hand_y).enumerate() {
        assert!((a - b).abs() < 1e-9, "node {i}: compiler {a} vs hand {b}");
    }
    // Schedule reuse kicked in for the repeated sweeps.
    assert_eq!(exec.report().inspector_runs, 1);
    assert_eq!(exec.report().reuse_hits, 4);
}

#[test]
fn partition_quality_ordering_on_shuffled_mesh() {
    use chaos_repro::geocol::{
        BlockPartitioner, GeoColBuilder, PartitionQuality, Partitioner, RcbPartitioner,
        RsbPartitioner,
    };
    let mesh = UnstructuredMesh::generate(MeshConfig::tiny(1500));
    let geocol = GeoColBuilder::new(mesh.nnodes())
        .geometry(vec![mesh.xc.clone(), mesh.yc.clone(), mesh.zc.clone()])
        .link(mesh.end_pt1.clone(), mesh.end_pt2.clone())
        .build()
        .unwrap();
    let cut = |p: &dyn Partitioner| {
        PartitionQuality::evaluate(&geocol, &p.partition(&geocol, 16)).edge_cut
    };
    let block = cut(&BlockPartitioner);
    let rcb = cut(&RcbPartitioner);
    let rsb = cut(&RsbPartitioner::default());
    assert!(
        rcb * 2 < block,
        "RCB cut {rcb} should be well below BLOCK cut {block}"
    );
    assert!(
        rsb * 2 < block,
        "RSB cut {rsb} should be well below BLOCK cut {block}"
    );
}

#[test]
fn md_pipeline_runs_end_to_end() {
    // The MD workload exercised through the same runtime path.
    let water = WaterBox::generate(MdConfig::tiny(64));
    let nprocs = 8;
    let mut machine = Machine::new(MachineConfig::ipsc860(nprocs));
    let dist = Distribution::block(water.natoms(), nprocs);
    let q = DistArray::from_global("q", dist.clone(), &water.charge);
    let mut f = DistArray::from_global("f", dist.clone(), &vec![0.0; water.natoms()]);

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
    let inspect = Inspector.localize(&mut machine, &dist, &pattern);
    let ghosts = gather(&mut machine, &inspect.schedule, &q);
    let mut contributions: Vec<Vec<f64>> = (0..nprocs)
        .map(|p| vec![0.0; inspect.ghost_counts[p]])
        .collect();
    for p in 0..nprocs {
        let mut updates = Vec::new();
        for it in 0..iter_part.iters(p).len() {
            let (r1, r2) = (
                inspect.localized[p][2 * it],
                inspect.localized[p][2 * it + 1],
            );
            let qa = *resolve_local(r1, q.local(p), &ghosts[p]);
            let qb = *resolve_local(r2, q.local(p), &ghosts[p]);
            updates.push((r1, qa * qb));
            updates.push((r2, -(qa * qb)));
        }
        let f_local = f.local_mut(p);
        for (r, v) in updates {
            *resolve_local_mut(r, f_local, &mut contributions[p]) += v;
        }
    }
    scatter_add(
        &mut machine,
        "md",
        &inspect.schedule,
        &mut f,
        &contributions,
    );

    // Reference.
    let mut expected = vec![0.0; water.natoms()];
    for (&a, &b) in water.pair1.iter().zip(&water.pair2) {
        let v = water.charge[a as usize] * water.charge[b as usize];
        expected[a as usize] += v;
        expected[b as usize] -= v;
    }
    let got = f.to_global();
    for (i, (a, b)) in got.iter().zip(&expected).enumerate() {
        assert!((a - b).abs() < 1e-9, "atom {i}: {a} vs {b}");
    }
}
