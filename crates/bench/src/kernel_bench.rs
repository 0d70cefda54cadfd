//! Shared program fixtures: one deterministic irregular edge-loop program
//! executed through `chaos-lang`, swept by `perf_check`'s three gates, plus
//! the two-FORALL program of the end-to-end benchmark's (`benchmark/`)
//! `mesh40k_2loop` workload.

use chaos_dmsim::MachineConfig;
use chaos_lang::{lower_program, parse_program, CompiledProgram, Executor, ProgramInputs};

/// The paper's edge loop (loop L2): two reductions through two indirection
/// arrays with the edge-flux intrinsic — the body `perf_check` sweeps.
pub const EDGE_PROGRAM: &str = r#"
    REAL*8 x(nnode), y(nnode)
    INTEGER end_pt1(nedge), end_pt2(nedge)
    DYNAMIC, DECOMPOSITION reg(nnode), reg2(nedge)
    DISTRIBUTE reg(BLOCK)
    DISTRIBUTE reg2(BLOCK)
    ALIGN x, y WITH reg
    ALIGN end_pt1, end_pt2 WITH reg2
    CALL READ_DATA(x, y, end_pt1, end_pt2)
    FORALL i = 1, nedge
      REDUCE(ADD, y(end_pt1(i)), EFLUX1(x(end_pt1(i)), x(end_pt2(i))))
      REDUCE(ADD, y(end_pt2(i)), EFLUX2(x(end_pt1(i)), x(end_pt2(i))))
    END FORALL
"#;

/// Deterministic mesh-like inputs for [`EDGE_PROGRAM`]: random endpoints
/// within a bounded neighborhood, as in an unstructured mesh — edges near a
/// BLOCK boundary still cross processors (the sweep exercises ghost reads
/// and off-processor reductions), while the bulk of the work is the local
/// per-element kernel the compiler targets.
pub fn edge_program_inputs(nnode: usize, nedge: usize) -> ProgramInputs {
    let mut state = 0xBE17C0DEu64;
    let mut next = |m: usize| -> usize {
        state = state
            .wrapping_mul(6364136223846793005)
            .wrapping_add(1442695040888963407);
        (state >> 33) as usize % m
    };
    let span = 256usize;
    let mut e1 = Vec::with_capacity(nedge);
    let mut e2 = Vec::with_capacity(nedge);
    for _ in 0..nedge {
        let a = next(nnode);
        let mut b = (a + 1 + next(span)).min(nnode - 1);
        if b == a {
            b = (a + 1) % nnode;
        }
        e1.push(a as u32 + 1);
        e2.push(b as u32 + 1);
    }
    ProgramInputs::new()
        .scalar("nnode", nnode)
        .scalar("nedge", nedge)
        .real(
            "x",
            (0..nnode).map(|i| (i as f64 * 0.7).sin() + 2.0).collect(),
        )
        .real("y", vec![0.0; nnode])
        .int("end_pt1", e1)
        .int("end_pt2", e2)
}

/// Lower [`EDGE_PROGRAM`] and run it once (inspector + first sweep) on a
/// fresh executor, returning the executor, the compiled program and the
/// loop label for steady-state re-sweeps.
pub fn edge_executor(nprocs: usize, inputs: &ProgramInputs) -> (Executor, CompiledProgram, String) {
    let cp = lower_program(parse_program(EDGE_PROGRAM).expect("parse")).expect("lower");
    let label = cp
        .program
        .loop_labels()
        .last()
        .expect("template has a FORALL")
        .to_string();
    let mut exec = Executor::new(MachineConfig::ipsc860(nprocs), inputs.clone());
    exec.run(&cp).expect("program runs");
    (exec, cp, label)
}

/// Two FORALLs over the same node distribution — the paper's mesh shape
/// where a later loop's ghost set overlaps an earlier one's: the face
/// loop's inspector requests (and its steady-state gathers) fetch only the
/// ghosts the edge loop didn't already make resident. The program of the
/// end-to-end benchmark's `mesh40k_2loop` workload.
pub const MULTI_LOOP_PROGRAM: &str = r#"
    REAL*8 x(nnode), y(nnode), z(nnode)
    INTEGER e1(nedge), e2(nedge), f1(nface), f2(nface)
    DECOMPOSITION regn(nnode), rege(nedge), regf(nface)
    DISTRIBUTE regn(BLOCK)
    DISTRIBUTE rege(BLOCK)
    DISTRIBUTE regf(BLOCK)
    ALIGN x, y, z WITH regn
    ALIGN e1, e2 WITH rege
    ALIGN f1, f2 WITH regf
    CALL READ_DATA(x, y, z, e1, e2, f1, f2)
    FORALL i = 1, nedge
      REDUCE(ADD, y(e1(i)), EFLUX1(x(e1(i)), x(e2(i))))
      REDUCE(ADD, y(e2(i)), EFLUX2(x(e1(i)), x(e2(i))))
    END FORALL
    FORALL j = 1, nface
      REDUCE(ADD, z(f1(j)), x(f1(j)) * x(f2(j)))
    END FORALL
"#;
