//! The compiled-kernel VM must be **byte-identical** to the tree-walking
//! interpreter — array values, modeled clocks (down to the f64 bit
//! patterns), communication statistics and execution counters — on the
//! sequential and the rank-parallel engines. These tests drive randomized
//! FORALL programs and the mesh / MD experiment templates through all
//! (kernel mode × backend) combinations and compare every observable.

use chaos_bench::compilergen::{program_inputs, program_text};
use chaos_bench::experiment::Method;
use chaos_bench::workload::{md_workload, mesh_workload, PairLoopWorkload};
use chaos_repro::dmsim::{Backend, MachineConfig};
use chaos_repro::lang::exec::KernelMode;
use chaos_repro::lang::{lower_program, parse_program, CompiledProgram, Executor, ProgramInputs};
use chaos_repro::workloads::{edge_flux_kernel, MdConfig, MeshConfig};
use proptest::prelude::*;

/// Everything one program run observes that must match across kernel modes
/// and backends.
#[derive(Debug, PartialEq)]
struct Observation {
    real_bits: Vec<(String, Vec<u64>)>,
    clock_bits: Vec<(u64, u64, u64)>,
    messages: usize,
    bytes: usize,
    phases: usize,
    comm_seconds_bits: u64,
    loop_sweeps: usize,
    inspector_runs: usize,
    reuse_hits: usize,
    iteration_partitions: usize,
}

fn observe<B: Backend>(exec: &Executor<B>, arrays: &[&str]) -> Observation {
    let machine = exec.machine();
    let elapsed = machine.elapsed();
    let totals = machine.stats().grand_totals();
    let report = exec.report();
    Observation {
        real_bits: arrays
            .iter()
            .filter_map(|a| {
                exec.real_global(a)
                    .map(|v| (a.to_string(), v.iter().map(|x| x.to_bits()).collect()))
            })
            .collect(),
        clock_bits: (0..machine.nprocs())
            .map(|p| {
                (
                    elapsed.compute[p].to_bits(),
                    elapsed.comm[p].to_bits(),
                    elapsed.idle[p].to_bits(),
                )
            })
            .collect(),
        messages: totals.messages,
        bytes: totals.bytes,
        phases: totals.phases,
        comm_seconds_bits: totals.comm_seconds.to_bits(),
        loop_sweeps: report.loop_sweeps,
        inspector_runs: report.inspector_runs,
        reuse_hits: report.reuse_hits,
        iteration_partitions: report.iteration_partitions,
    }
}

/// Run a program plus `extra_sweeps` steady-state re-executions of its last
/// loop on the given executor.
fn drive<B: Backend>(
    exec: &mut Executor<B>,
    cp: &CompiledProgram,
    label: &str,
    extra_sweeps: usize,
) {
    exec.run(cp).expect("program runs");
    for _ in 0..extra_sweeps {
        exec.execute_loop(cp, label).expect("sweep runs");
    }
}

/// Assert that compiled and interpreted modes agree on the sequential
/// engine, the VM on a pool with one lane per rank (every rank on its own
/// OS thread) and the tree-walker on the default-sized pool, and return the
/// compiled-mode observation.
fn assert_all_equivalent(
    src: &str,
    inputs: &ProgramInputs,
    nprocs: usize,
    arrays: &[&str],
    extra_sweeps: usize,
) -> Observation {
    let cp = lower_program(parse_program(src).expect("parse")).expect("lower");
    let label = cp
        .program
        .loop_labels()
        .last()
        .expect("program has a loop")
        .to_string();

    let mut vm_seq = Executor::new(MachineConfig::ipsc860(nprocs), inputs.clone());
    drive(&mut vm_seq, &cp, &label, extra_sweeps);
    let obs_vm = observe(&vm_seq, arrays);

    let mut tree_seq = Executor::new(MachineConfig::ipsc860(nprocs), inputs.clone())
        .with_kernel_mode(KernelMode::Interpreted);
    drive(&mut tree_seq, &cp, &label, extra_sweeps);
    assert_eq!(
        obs_vm,
        observe(&tree_seq, arrays),
        "VM vs tree-walker diverged (sequential engine)"
    );

    let mut vm_pool =
        Executor::new_pooled_with_workers(MachineConfig::ipsc860(nprocs), nprocs, inputs.clone());
    drive(&mut vm_pool, &cp, &label, extra_sweeps);
    assert_eq!(
        obs_vm,
        observe(&vm_pool, arrays),
        "VM diverged across engines"
    );

    let mut tree_pool = Executor::new_pooled(MachineConfig::ipsc860(nprocs), inputs.clone())
        .with_kernel_mode(KernelMode::Interpreted);
    drive(&mut tree_pool, &cp, &label, extra_sweeps);
    assert_eq!(
        obs_vm,
        observe(&tree_pool, arrays),
        "tree-walker diverged across engines"
    );

    // Kernel caching mirrors schedule reuse: one compile per inspector run,
    // a cache hit for every other sweep.
    let report = vm_seq.report();
    assert_eq!(report.kernels_compiled, report.inspector_runs);
    assert_eq!(
        report.kernel_reuse_hits,
        report.loop_sweeps - report.kernels_compiled
    );
    obs_vm
}

// ---------- randomized programs ----------

/// Deterministic LCG over the case seed.
struct Rng(u64);
impl Rng {
    fn next(&mut self) -> u64 {
        self.0 = self
            .0
            .wrapping_mul(6364136223846793005)
            .wrapping_add(1442695040888963407);
        self.0 >> 33
    }
    fn below(&mut self, n: usize) -> usize {
        (self.next() % n as u64) as usize
    }
    fn pick<'a>(&mut self, options: &[&'a str]) -> &'a str {
        options[self.below(options.len())]
    }
}

/// Generate a random (program text, body uses indirection) pair. Arrays
/// x, y live on `rega`, z on `regb` (same size, same BLOCK distribution —
/// so multi-group loops exercise schedule merging too); ia, ib are the
/// indirection arrays. The analyzer's restrictions are respected by
/// construction: only rega arrays are referenced through indirection.
fn gen_body(rng: &mut Rng) -> String {
    let nstmts = 1 + rng.below(3);
    let mut body = String::new();
    for _ in 0..nstmts {
        let target = rng.pick(&["y(ia(i))", "y(ib(i))", "y(i)", "z(i)"]);
        let expr = gen_expr(rng, 2);
        match rng.below(4) {
            0 => body.push_str(&format!("          {target} = {expr}\n")),
            1 => body.push_str(&format!("          REDUCE(MAX, {target}, {expr})\n")),
            2 => body.push_str(&format!("          REDUCE(MIN, {target}, {expr})\n")),
            _ => body.push_str(&format!("          REDUCE(ADD, {target}, {expr})\n")),
        }
    }
    body
}

fn gen_expr(rng: &mut Rng, depth: usize) -> String {
    let term = |rng: &mut Rng| {
        rng.pick(&[
            "x(ia(i))", "x(ib(i))", "y(ia(i))", "x(i)", "z(i)", "0.5", "1.25", "3.0",
        ])
        .to_string()
    };
    if depth == 0 {
        return term(rng);
    }
    match rng.below(6) {
        0 | 1 => term(rng),
        2 => {
            let op = rng.pick(&["+", "-", "*", "/"]);
            format!(
                "({} {op} {})",
                gen_expr(rng, depth - 1),
                gen_expr(rng, depth - 1)
            )
        }
        3 => format!("ABS({})", gen_expr(rng, depth - 1)),
        4 => format!("SQRT(ABS({}))", gen_expr(rng, depth - 1)),
        _ => format!(
            "EFLUX1({}, {})",
            gen_expr(rng, depth - 1),
            gen_expr(rng, depth - 1)
        ),
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// Randomized loop bodies: VM == tree-walker on both engines, down to
    /// clock bits and CommStats, through initial run + reused sweeps.
    #[test]
    fn randomized_programs_agree_across_modes_and_engines(seed in 0u64..1_000_000) {
        let mut rng = Rng(seed.wrapping_mul(2654435761).wrapping_add(99991));
        let nnode = 16 + rng.below(24);
        let nedge = 8 + rng.below(nnode - 8); // nedge <= nnode so z(i)/x(i) stay in range
        // ipsc860 is a hypercube: power-of-two processor counts only.
        let nprocs = 1 << (1 + rng.below(2));
        let body = gen_body(&mut rng);
        let src = format!(
            r#"
        REAL*8 x(nnode), y(nnode), z(nnode)
        INTEGER ia(nedge), ib(nedge)
        DECOMPOSITION rega(nnode), regb(nnode), regc(nedge)
        DISTRIBUTE rega(BLOCK)
        DISTRIBUTE regb(BLOCK)
        DISTRIBUTE regc(BLOCK)
        ALIGN x, y WITH rega
        ALIGN z WITH regb
        ALIGN ia, ib WITH regc
        CALL READ_DATA(x, y, z, ia, ib)
        FORALL i = 1, nedge
{body}        END FORALL
    "#
        );
        let ia: Vec<u32> = (0..nedge).map(|_| rng.below(nnode) as u32 + 1).collect();
        let ib: Vec<u32> = (0..nedge).map(|_| rng.below(nnode) as u32 + 1).collect();
        let inputs = ProgramInputs::new()
            .scalar("nnode", nnode)
            .scalar("nedge", nedge)
            .real("x", (0..nnode).map(|i| (i as f64 * 0.61).sin() + 1.5).collect())
            .real("y", (0..nnode).map(|i| (i as f64 * 0.23).cos()).collect())
            .real("z", (0..nnode).map(|i| i as f64 * 0.05 - 0.4).collect())
            .int("ia", ia)
            .int("ib", ib);
        assert_all_equivalent(&src, &inputs, nprocs, &["x", "y", "z"], 2);
    }
}

// ---------- block boundaries and store ordering ----------

/// `body` as the one FORALL over `ia` / `ib` of a program whose x and y
/// live on one BLOCK decomposition of `nnode` elements.
fn pair_program(body: &str) -> String {
    format!(
        r#"
        REAL*8 x(nnode), y(nnode)
        INTEGER ia(nedge), ib(nedge)
        DECOMPOSITION rega(nnode), regc(nedge)
        DISTRIBUTE rega(BLOCK)
        DISTRIBUTE regc(BLOCK)
        ALIGN x, y WITH rega
        ALIGN ia, ib WITH regc
        CALL READ_DATA(x, y, ia, ib)
        FORALL i = 1, nedge
{body}
        END FORALL
    "#
    )
}

fn pair_inputs(nnode: usize, ia: Vec<u32>, ib: Vec<u32>) -> ProgramInputs {
    ProgramInputs::new()
        .scalar("nnode", nnode)
        .scalar("nedge", ia.len())
        .real(
            "x",
            (0..nnode).map(|i| (i as f64 * 0.61).sin() + 1.5).collect(),
        )
        .real("y", (0..nnode).map(|i| (i as f64 * 0.23).cos()).collect())
        .int("ia", ia)
        .int("ib", ib)
}

const EDGE_BODY: &str = "
          REDUCE(ADD, y(ia(i)), EFLUX1(x(ia(i)), x(ib(i))))
          REDUCE(ADD, y(ib(i)), EFLUX2(x(ia(i)), x(ib(i))))";

/// The VM cuts each rank's iterations into blocks of 64: ranks with 0, 1,
/// 63, 64, 65 and 2·64+3 iterations (no block, one lane, one short of a
/// block, exactly one, one over, two and a tail) must agree with the
/// tree-walker, which knows no blocks, on values, clocks and statistics.
/// Every rank owns 16 nodes, so the cells of one block collide throughout.
#[test]
fn block_boundaries_agree_across_modes_and_engines() {
    use chaos_repro::runtime::iterpart::partition_iterations;
    use chaos_repro::runtime::{Distribution, IterPartitionPolicy};

    const COUNTS: [usize; 8] = [0, 1, 63, 64, 65, 2 * 64 + 3, 2, 64];
    let (nprocs, per_rank) = (COUNTS.len(), 16);
    let nnode = nprocs * per_rank;
    let mut rng = Rng(20_221);
    let (mut ia, mut ib) = (Vec::new(), Vec::new());
    for (p, &count) in COUNTS.iter().enumerate() {
        for k in 0..count {
            // ia on rank p, ib on p or a higher rank: the home of the
            // iteration (most references, ties to the lowest rank) is p.
            let other = p + rng.below(nprocs - p);
            ia.push((p * per_rank + k % per_rank) as u32 + 1);
            ib.push((other * per_rank + rng.below(per_rank)) as u32 + 1);
        }
    }
    // The counts are what the iteration partitioner makes of these inputs.
    let mut scratch = chaos_repro::dmsim::Machine::new(MachineConfig::ipsc860(nprocs));
    let rows: Vec<[u32; 4]> = ia
        .iter()
        .zip(&ib)
        .map(|(&a, &b)| [a - 1, b - 1, a - 1, b - 1])
        .collect();
    let part = partition_iterations(
        &mut scratch,
        &Distribution::block(nnode, nprocs),
        &rows,
        IterPartitionPolicy::AlmostOwnerComputes,
    );
    let counts: Vec<usize> = (0..nprocs).map(|p| part.iters(p).len()).collect();
    assert_eq!(counts, COUNTS);

    let inputs = pair_inputs(nnode, ia, ib);
    let obs = assert_all_equivalent(&pair_program(EDGE_BODY), &inputs, nprocs, &["x", "y"], 2);
    assert!(obs.messages > 0, "edges cross ranks");
}

/// The edge loop on a hub mesh: every edge touches node 1, so within one
/// block of 64 iterations the same cell is accumulated into 64 times —
/// owned on rank 0, through the write buffer on rank 1 — and any order but
/// the loop's own rounds differently.
#[test]
fn colliding_cells_within_a_block_accumulate_in_loop_order() {
    let (nnode, nedge) = (24, 300);
    let ia: Vec<u32> = (0..nedge).map(|k| if k % 5 == 4 { 2 } else { 1 }).collect();
    let ib: Vec<u32> = (0..nedge)
        .map(|k| (3 + (k * 7) % (nnode - 2)) as u32)
        .collect();
    assert_all_equivalent(
        &pair_program(EDGE_BODY),
        &pair_inputs(nnode, ia, ib),
        2,
        &["y"],
        2,
    );
}

/// Bodies whose stores cannot wait for the end of a block: one array
/// written with two kinds (the assignment and the MAX meet on the owned
/// cell, and travel in two write buffers), and a body that reads what it
/// writes, within an iteration and from one iteration to the next.
#[test]
fn ordered_stores_agree_across_modes_and_engines() {
    let two_kinds = "
          y(ia(i)) = x(ib(i)) - 0.25
          REDUCE(MAX, y(ia(i)), x(ib(i)) * x(ia(i)) - 1.0)";
    let reads_its_writes = "
          REDUCE(ADD, y(ia(i)), x(ib(i)))
          y(ib(i)) = y(ia(i)) * 0.5 + y(ib(i))";
    let mut rng = Rng(77_003);
    let (nnode, nedge) = (40, 333);
    let ia: Vec<u32> = (0..nedge).map(|_| rng.below(nnode) as u32 + 1).collect();
    let ib: Vec<u32> = (0..nedge).map(|_| rng.below(nnode) as u32 + 1).collect();
    let inputs = pair_inputs(nnode, ia, ib);
    for body in [two_kinds, reads_its_writes] {
        let obs = assert_all_equivalent(&pair_program(body), &inputs, 4, &["x", "y"], 2);
        assert!(obs.messages > 0, "random references cross ranks");
    }
}

// ---------- the paper's experiment templates ----------

/// The mesh experiment program (Figure 4/5 template with RSB implicit
/// mapping): redistribution forces an inspector + kernel recompile, and the
/// irregular distribution gives the schedules real off-processor traffic.
#[test]
fn mesh_example_program_agrees_across_modes_and_engines() {
    let w = mesh_workload(MeshConfig::tiny(400));
    let src = program_text(Method::Rsb);
    let inputs = program_inputs(&w);
    let obs = assert_all_equivalent(&src, &inputs, 8, &["x", "y"], 3);
    assert!(obs.messages > 0, "irregular mesh loop communicates");
    assert_eq!(obs.loop_sweeps, 4);
    assert_eq!(obs.reuse_hits, 3, "steady-state sweeps reuse the schedule");
}

/// The MD experiment program (same pair-reduction template, BLOCK mapping).
#[test]
fn md_example_program_agrees_across_modes_and_engines() {
    let w = md_workload(MdConfig::tiny(64));
    let src = program_text(Method::Block);
    let inputs = program_inputs(&w);
    let obs = assert_all_equivalent(&src, &inputs, 4, &["x", "y"], 3);
    assert!(obs.messages > 0, "pair loop communicates");
    assert_eq!(obs.loop_sweeps, 4);
}

// ---------- data edge cases ----------

/// A pair workload over `nnodes` points with the given 0-based pairs, run
/// with the template's edge-flux kernel.
fn edge_case(nnodes: usize, pairs: &[(u32, u32)]) -> PairLoopWorkload {
    let line: Vec<f64> = (0..nnodes).map(|i| i as f64).collect();
    PairLoopWorkload {
        name: format!("{nnodes} nodes, {} pairs", pairs.len()),
        nnodes,
        coords: [
            line.clone(),
            line.iter().map(|v| (v * 0.37).sin()).collect(),
            vec![0.0; nnodes],
        ],
        loads: vec![1.0; nnodes],
        e1: pairs.iter().map(|p| p.0).collect(),
        e2: pairs.iter().map(|p| p.1).collect(),
        input: line.iter().map(|v| 1.5 + (v * 0.61).sin()).collect(),
        kernel: edge_flux_kernel,
        ops_per_iteration: 0.0,
    }
}

/// `y` after the program and one reused sweep of its loop.
fn two_sweeps<B: Backend>(mut exec: Executor<B>, cp: &CompiledProgram) -> Vec<f64> {
    exec.run(cp).expect("program runs");
    exec.execute_loop(cp, "L1").expect("sweep runs");
    exec.real_global("y").expect("y materialized")
}

/// Empty arrays, an empty loop, more ranks than elements, duplicate
/// references within one iteration and a lone self-edge, through the
/// `Executor` on `Machine` and on a 2-lane pool, in both kernel modes, under
/// the BLOCK program and with the RCB preamble: every run gives the serial
/// reference.
#[test]
fn data_edge_cases_match_the_serial_reference_on_every_engine_and_mode() {
    let cases = [
        (8, edge_case(0, &[])),
        (4, edge_case(5, &[])),
        (8, edge_case(3, &[(0, 1), (1, 2), (2, 0)])),
        (
            4,
            edge_case(12, &[(3, 3), (4, 7), (4, 7), (7, 4), (0, 11), (11, 11)]),
        ),
        (2, edge_case(1, &[(0, 0)])),
    ];
    for (nprocs, w) in &cases {
        let expected: Vec<f64> = w.sequential_sweep().iter().map(|v| 2.0 * v).collect();
        for method in [Method::Block, Method::Rcb] {
            let cp = lower_program(parse_program(&program_text(method)).unwrap()).unwrap();
            for mode in [KernelMode::Compiled, KernelMode::Interpreted] {
                let cfg = MachineConfig::ipsc860(*nprocs);
                let on_machine =
                    Executor::new(cfg.clone(), program_inputs(w)).with_kernel_mode(mode);
                let on_pool = Executor::new_pooled_with_workers(cfg, 2, program_inputs(w))
                    .with_kernel_mode(mode);
                let (ym, yp) = (two_sweeps(on_machine, &cp), two_sweeps(on_pool, &cp));
                let case = format!("{}, {method:?}, {mode:?}", w.name);
                assert_eq!(ym.len(), expected.len(), "{case}");
                for ((m, p), e) in ym.iter().zip(&yp).zip(&expected) {
                    assert_eq!(m.to_bits(), p.to_bits(), "{case}: engines disagree");
                    assert!(
                        (m - e).abs() <= 1e-12 * (1.0 + e.abs()),
                        "{case}: {m} vs {e}"
                    );
                }
            }
        }
    }
}
