//! Cross-loop incremental schedules must be invisible in every computed
//! bit: on randomized multi-loop programs each loop's result must equal,
//! byte-for-byte, that of a program containing only that loop, and what the
//! run sent plus what it booked as saved must be what the loops cost on
//! their own — while both SPMD engines (`Machine`, `PooledBackend`) must
//! agree on *everything*: values, per-processor clock
//! f64 bit patterns, communication statistics and the executor's report
//! counters. A fault-injected run must recover bit-identically to a
//! fault-free one.

use chaos_repro::dmsim::{Backend, FaultKind, FaultPlan, MachineConfig};
use chaos_repro::lang::{
    lower_program, parse_program, CompiledProgram, Executor, ProgramInputs, RecoveryPolicy,
};
use proptest::prelude::*;
use std::sync::Arc;

const PREAMBLE: &str = r#"
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
"#;
const EDGE_LOOP: &str = r#"
    FORALL i = 1, nedge
      REDUCE(ADD, y(e1(i)), EFLUX1(x(e1(i)), x(e2(i))))
      REDUCE(ADD, y(e2(i)), EFLUX2(x(e1(i)), x(e2(i))))
    END FORALL
"#;
const FACE_LOOP: &str = r#"
    FORALL j = 1, nface
      REDUCE(ADD, z(f1(j)), x(f1(j)) * x(f2(j)))
    END FORALL
"#;

/// The preamble followed by `loops` (labelled `L1`, `L2`, … in order).
fn program_of(loops: &[&str]) -> CompiledProgram {
    let src = format!("{PREAMBLE}{}", loops.concat());
    lower_program(parse_program(&src).unwrap()).unwrap()
}

/// Two FORALLs reading `x` over the same node distribution: the classic
/// mesh shape where the second loop's ghost set overlaps the first's and
/// the incremental inspector fetches only the difference.
fn program() -> CompiledProgram {
    program_of(&[EDGE_LOOP, FACE_LOOP])
}

fn inputs_from(
    nnode: usize,
    edges: &[(u32, u32)],
    faces: &[(u32, u32)],
    xseed: u64,
) -> ProgramInputs {
    let x: Vec<f64> = (0..nnode)
        .map(|i| ((i as u64).wrapping_mul(xseed) % 977) as f64 * 0.013 + 1.0)
        .collect();
    ProgramInputs::new()
        .scalar("nnode", nnode)
        .scalar("nedge", edges.len())
        .scalar("nface", faces.len())
        .real("x", x)
        .real("y", vec![0.0; nnode])
        .real("z", vec![0.0; nnode])
        .int("e1", edges.iter().map(|e| e.0).collect())
        .int("e2", edges.iter().map(|e| e.1).collect())
        .int("f1", faces.iter().map(|f| f.0).collect())
        .int("f2", faces.iter().map(|f| f.1).collect())
}

/// Everything one run observes; it must match across both engines
/// bit-for-bit.
#[derive(Debug, PartialEq)]
struct Observation {
    real_bits: Vec<Vec<u64>>,
    clock_bits: Vec<(u64, u64, u64)>,
    messages: usize,
    bytes: usize,
    /// Messages and bytes the `incremental:*` ledgers booked as avoided.
    saved: (usize, usize),
    phases: usize,
    comm_seconds_bits: u64,
    report: chaos_repro::lang::ExecReport,
}

fn observe<B: Backend>(exec: &Executor<B>) -> Observation {
    let elapsed = exec.machine().elapsed();
    let saved = exec
        .machine()
        .stats()
        .saved_totals()
        .filter(|(label, _)| label.starts_with("incremental:"))
        .fold((0, 0), |(m, b), (_, s)| (m + s.messages, b + s.bytes));
    let stats = exec.machine().stats().grand_totals();
    Observation {
        real_bits: ["x", "y", "z"]
            .iter()
            .map(|a| {
                exec.real_global(a)
                    .unwrap()
                    .iter()
                    .map(|v| v.to_bits())
                    .collect()
            })
            .collect(),
        clock_bits: (0..exec.machine().nprocs())
            .map(|p| {
                (
                    elapsed.per_proc[p].to_bits(),
                    elapsed.comm[p].to_bits(),
                    elapsed.idle[p].to_bits(),
                )
            })
            .collect(),
        messages: stats.messages,
        bytes: stats.bytes,
        saved,
        phases: stats.phases,
        comm_seconds_bits: stats.comm_seconds.to_bits(),
        report: exec.report().clone(),
    }
}

const SWEEPS: usize = 3;

/// Run the program, then `SWEEPS` more rounds of its loops.
fn drive<B: Backend>(exec: &mut Executor<B>, cp: &CompiledProgram) -> Observation {
    exec.run(cp).expect("program runs");
    for _ in 0..SWEEPS {
        for l in 1..=cp.plans.len() {
            exec.execute_loop(cp, &format!("L{l}")).expect("sweep");
        }
    }
    observe(exec)
}

/// Strategy: a node count, a processor count, and random edge/face pair
/// lists (1-based; self-loops and colliding sizes are repaired in the test
/// body, keeping the strategy itself simple).
#[allow(clippy::type_complexity)]
fn mesh_strategy() -> impl Strategy<Value = (usize, usize, Vec<(u32, u32)>, Vec<(u32, u32)>, u64)> {
    (12usize..40, 1u32..=2).prop_flat_map(|(nnode, shift)| {
        // Hypercube topology: the processor count must be a power of two.
        let nprocs = 1usize << shift;
        let n = nnode as u32;
        (
            Just(nnode),
            Just(nprocs),
            proptest::collection::vec((1u32..=n, 1u32..=n), 4usize..24),
            proptest::collection::vec((1u32..=n, 1u32..=n), 3usize..20),
            1u64..u64::MAX,
        )
    })
}

/// Drop self-loops (a distinct endpoint keeps every iteration reading two
/// rows) and keep the three index spaces' sizes pairwise distinct so their
/// decompositions get distinct DADs.
#[allow(clippy::type_complexity)]
fn repair(
    nnode: usize,
    edges: Vec<(u32, u32)>,
    faces: Vec<(u32, u32)>,
) -> (Vec<(u32, u32)>, Vec<(u32, u32)>) {
    let n = nnode as u32;
    let fix = |pairs: Vec<(u32, u32)>| -> Vec<(u32, u32)> {
        pairs
            .into_iter()
            .map(|(a, b)| if a == b { (a, a % n + 1) } else { (a, b) })
            .collect()
    };
    let mut edges = fix(edges);
    let mut faces = fix(faces);
    while faces.len() == nnode {
        faces.push((1, 2));
    }
    while edges.len() == nnode || edges.len() == faces.len() {
        edges.push((2, 3));
    }
    (edges, faces)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(12))]

    /// Both engines agree on everything (the pool at its default lane
    /// count and with one lane per rank); each loop computes what it
    /// computes alone; traffic + saved is additive over loops.
    #[test]
    fn engines_agree_and_loops_are_independent_on_random_multi_loop_programs(
        (nnode, nprocs, edges, faces, xseed) in mesh_strategy()
    ) {
        let (edges, faces) = repair(nnode, edges, faces);
        let cp = program();
        let ins = inputs_from(nnode, &edges, &faces, xseed);
        let cfg = || MachineConfig::ipsc860(nprocs);

        let both = drive(&mut Executor::new(cfg(), ins.clone()), &cp);
        let mut pool = Executor::new_pooled(cfg(), ins.clone());
        prop_assert_eq!(&drive(&mut pool, &cp), &both, "pooled engine diverged");
        let mut full = Executor::new_pooled_with_workers(cfg(), nprocs, ins.clone());
        prop_assert_eq!(&drive(&mut full, &cp), &both, "lane-per-rank pool diverged");

        let alone = |loops: &[&str]| {
            drive(&mut Executor::new(cfg(), ins.clone()), &program_of(loops))
        };
        let (only_edges, only_faces, no_loops) =
            (alone(&[EDGE_LOOP]), alone(&[FACE_LOOP]), alone(&[]));
        // real_bits is [x, y, z]: a loop's result does not depend on which
        // loops ran before it.
        prop_assert_eq!(&both.real_bits[1], &only_edges.real_bits[1], "y diverged");
        prop_assert_eq!(&both.real_bits[2], &only_faces.real_bits[2], "z diverged");
        prop_assert_eq!(&both.real_bits[0], &no_loops.real_bits[0], "x diverged");
        // Sent + saved is what the loops cost on their own (one group per
        // loop, so no tag words enter the folded request exchange).
        let cost = |o: &Observation| (o.messages + o.saved.0, o.bytes + o.saved.1);
        let (two, a, b, p) =
            (cost(&both), cost(&only_edges), cost(&only_faces), cost(&no_loops));
        prop_assert_eq!(two.0 + p.0, a.0 + b.0, "message ledger not additive");
        prop_assert_eq!(two.1 + p.1, a.1 + b.1, "byte ledger not additive");
        prop_assert_eq!(only_edges.saved, (0, 0));
        prop_assert_eq!(only_faces.saved, (0, 0));
    }
}

/// A kernel panic injected mid-sweep into an incremental run must recover
/// bit-identically — values, clocks, statistics, counters — to a fault-free
/// incremental run on both engines (consumed faults never refire, failed
/// regions never replay their charges).
#[test]
fn faulted_incremental_run_recovers_bit_identically() {
    let cp = program();
    let edges: Vec<(u32, u32)> = (1..24u32).map(|i| (i, i + 1)).collect();
    let faces: Vec<(u32, u32)> = (1..23u32).map(|i| (i, i + 2)).collect();
    let ins = || inputs_from(24, &edges, &faces, 0x9E37);
    let nprocs = 4;
    let cfg = || MachineConfig::ipsc860(nprocs);
    let retry = || RecoveryPolicy::RetryPhase { max_attempts: 3 };

    // Find an epoch inside the steady-state sweeps to fault.
    let mut probe = Executor::new(cfg(), ins()).with_recovery_policy(retry());
    probe.run(&cp).unwrap();
    let start = probe.machine().epoch();
    let want = {
        for _ in 0..SWEEPS {
            probe.execute_loop(&cp, "L1").unwrap();
            probe.execute_loop(&cp, "L2").unwrap();
        }
        observe(&probe)
    };
    let end = probe.machine().epoch();
    assert!(end > start + 1, "sweeps must span several epochs");
    let mid = start + (end - start) / 2;
    let plan = || Arc::new(FaultPlan::new().with_fault(mid, 1, FaultKind::KernelPanic));

    let mut seq = Executor::new(cfg(), ins())
        .with_fault_plan(plan())
        .with_recovery_policy(retry());
    assert_eq!(drive(&mut seq, &cp), want, "sequential engine");

    let mut pool = Executor::new_pooled(cfg(), ins())
        .with_fault_plan(plan())
        .with_recovery_policy(retry());
    assert_eq!(drive(&mut pool, &cp), want, "pooled engine");

    let mut full = Executor::new_pooled_with_workers(cfg(), nprocs, ins())
        .with_fault_plan(plan())
        .with_recovery_policy(retry());
    assert_eq!(drive(&mut full, &cp), want, "lane-per-rank pool");
}

/// REDISTRIBUTE gives every aligned array a fresh irregular-distribution
/// DAD: the old resident ghost region must never serve the re-inspected
/// loop. The regression this guards: serving stale region rows (or stale
/// slot maps) after a remap would silently read pre-remap values.
#[test]
fn redistribute_invalidates_incremental_bindings() {
    let src = r#"
        REAL*8 x(nnode), y(nnode)
        INTEGER e1(nedge), e2(nedge)
        DYNAMIC, DECOMPOSITION regn(nnode), rege(nedge)
        DISTRIBUTE regn(BLOCK)
        DISTRIBUTE rege(BLOCK)
        ALIGN x, y WITH regn
        ALIGN e1, e2 WITH rege
        CALL READ_DATA(x, y, e1, e2)
        FORALL i = 1, nedge
          REDUCE(ADD, y(e1(i)), EFLUX1(x(e1(i)), x(e2(i))))
          REDUCE(ADD, y(e2(i)), EFLUX2(x(e1(i)), x(e2(i))))
        END FORALL
C$      CONSTRUCT g (nnode, LINK(nedge, e1, e2))
C$      SET dfmt BY PARTITIONING g USING RSB
C$      REDISTRIBUTE regn(dfmt)
        FORALL i = 1, nedge
          REDUCE(ADD, y(e1(i)), EFLUX1(x(e1(i)), x(e2(i))))
          REDUCE(ADD, y(e2(i)), EFLUX2(x(e1(i)), x(e2(i))))
        END FORALL
    "#;
    let cp = lower_program(parse_program(src).unwrap()).unwrap();
    let edges: Vec<(u32, u32)> = (1..32u32).map(|i| (i, i + 1)).collect();
    let nnode = 32usize;
    let x: Vec<f64> = (0..nnode).map(|i| (i as f64 * 0.29).cos() + 2.0).collect();
    let ins = ProgramInputs::new()
        .scalar("nnode", nnode)
        .scalar("nedge", edges.len())
        .real("x", x.clone())
        .real("y", vec![0.0; nnode])
        .int("e1", edges.iter().map(|e| e.0).collect())
        .int("e2", edges.iter().map(|e| e.1).collect());

    let mut exec = Executor::new(MachineConfig::ipsc860(4), ins);
    exec.run(&cp).unwrap();
    // Steady-state sweeps after the remap still reuse (fresh bindings, not
    // the pre-remap region).
    for _ in 0..2 {
        exec.execute_loop(&cp, "L2").unwrap();
    }
    assert_eq!(exec.report().inspector_runs, 2, "one inspector per loop");
    assert_eq!(exec.report().reuse_hits, 2, "post-remap sweeps reuse");

    // Serial evaluation of the four sweeps (one before the remap, three
    // after), sharing no code with the runtime: the post-remap loop read
    // post-remap values, not stale residents.
    let mut want = vec![0.0f64; nnode];
    for _ in 0..4 {
        for &(a, b) in &edges {
            let (xa, xb) = (x[a as usize - 1], x[b as usize - 1]);
            let diff = xb - xa;
            let flux = 0.5 * (xa + xb) * diff + 0.25 * diff.abs() * xa;
            want[a as usize - 1] += flux;
            want[b as usize - 1] -= flux;
        }
    }
    let got = exec.real_global("y").unwrap();
    for (i, (u, v)) in got.iter().zip(&want).enumerate() {
        assert!(
            (u - v).abs() <= 1e-12 * v.abs().max(1.0),
            "y[{i}] diverged after remap: {u} vs {v}"
        );
    }
    assert!(
        want.iter().any(|v| *v != 0.0),
        "the reference is not trivial"
    );
}
