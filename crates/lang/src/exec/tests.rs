use super::*;
/// The edge-flux intrinsic (the arithmetic lives with the kernel VM
/// now; this alias keeps the sequential references readable).
use crate::kernel::vm::eflux as chaos_workloads_eflux;
use crate::lower::lower_program;
use crate::parser::parse_program;
use chaos_dmsim::{FaultKind, PhaseKind};
use chaos_runtime::IterPartitionPolicy;

const EDGE_PROGRAM: &str = r#"
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

/// A small chain mesh: node i connects to node i+1 (1-based values).
/// Note nedge = nnode - 1 so that the node and edge decompositions have
/// *different* DADs; with equal sizes the conservative DAD-based write
/// tracking would (correctly, but unhelpfully for this test) invalidate
/// the schedule every sweep because y shares a DAD with the endpoint
/// arrays.
fn ring_inputs(nnode: usize) -> ProgramInputs {
    let nedge = nnode - 1;
    let e1: Vec<u32> = (1..nnode as u32).collect();
    let e2: Vec<u32> = (2..=nnode as u32).collect();
    let x: Vec<f64> = (0..nnode).map(|i| (i as f64 * 0.7).sin() + 2.0).collect();
    ProgramInputs::new()
        .scalar("nnode", nnode)
        .scalar("nedge", nedge)
        .real("x", x)
        .real("y", vec![0.0; nnode])
        .int("end_pt1", e1)
        .int("end_pt2", e2)
}

/// Sequential reference for the edge loop.
fn reference_y(inputs: &ProgramInputs) -> Vec<f64> {
    let x = &inputs.real_arrays["x"];
    let e1 = &inputs.int_arrays["end_pt1"];
    let e2 = &inputs.int_arrays["end_pt2"];
    let mut y = inputs.real_arrays["y"].clone();
    for i in 0..e1.len() {
        let a = e1[i] as usize - 1;
        let b = e2[i] as usize - 1;
        let (f1, f2) = chaos_workloads_eflux(x[a], x[b]);
        y[a] += f1;
        y[b] += f2;
    }
    y
}

fn compiled() -> CompiledProgram {
    lower_program(parse_program(EDGE_PROGRAM).unwrap()).unwrap()
}

#[test]
fn edge_loop_matches_sequential_reference() {
    let inputs = ring_inputs(40);
    let expected = reference_y(&inputs);
    let cp = compiled();
    let mut exec = Executor::new(MachineConfig::ipsc860(4), inputs);
    exec.run(&cp).unwrap();
    let y = exec.real_global("y").unwrap();
    for (i, (a, b)) in y.iter().zip(&expected).enumerate() {
        assert!((a - b).abs() < 1e-10, "y[{i}]: {a} vs {b}");
    }
    assert_eq!(exec.report().loop_sweeps, 1);
    assert_eq!(exec.report().inspector_runs, 1);
}

/// Values of `y`, the execution report, per-processor clock bits and
/// communication totals of two runs — on two engines, or in two kernel
/// modes — of one program.
fn assert_runs_agree<A: Backend, B: Backend>(seq: &Executor<A>, pool: &Executor<B>) {
    assert_eq!(seq.report(), pool.report());
    let ys = seq.real_global("y").unwrap();
    let yp = pool.real_global("y").unwrap();
    for (i, (a, b)) in ys.iter().zip(&yp).enumerate() {
        assert_eq!(a.to_bits(), b.to_bits(), "y[{i}] diverged: {a} vs {b}");
    }
    let (es, ep) = (seq.machine().elapsed(), pool.machine().elapsed());
    for p in 0..es.per_proc.len() {
        assert_eq!(es.per_proc[p].to_bits(), ep.per_proc[p].to_bits());
    }
    let (ss, sp) = (
        seq.machine().stats().grand_totals(),
        pool.machine().stats().grand_totals(),
    );
    assert_eq!(ss.messages, sp.messages);
    assert_eq!(ss.bytes, sp.bytes);
    assert_eq!(ss.phases, sp.phases);
    assert_eq!(ss.comm_seconds.to_bits(), sp.comm_seconds.to_bits());
}

#[test]
fn pooled_backend_runs_whole_programs_bit_identically() {
    // The same program on the sequential engine and the persistent
    // worker pool — with ranks striped over fewer lanes (3) and with
    // one lane per rank (4): identical values, identical modeled
    // clocks, identical statistics.
    let inputs = random_inputs(300, 1200);
    let cp = compiled();
    let mut seq = Executor::new(MachineConfig::ipsc860(4), inputs.clone());
    seq.run(&cp).unwrap();
    for _ in 0..3 {
        seq.execute_loop(&cp, "L1").unwrap();
    }
    for workers in [3, 4] {
        let mut pool =
            Executor::new_pooled_with_workers(MachineConfig::ipsc860(4), workers, inputs.clone());
        pool.run(&cp).unwrap();
        for _ in 0..3 {
            pool.execute_loop(&cp, "L1").unwrap();
        }
        assert_runs_agree(&seq, &pool);
    }
}

#[test]
fn repartition_phases_run_rank_parallel_and_bit_identically() {
    // The MAPPED_PROGRAM's CONSTRUCT → SET ... BY PARTITIONING (RSB) →
    // REDISTRIBUTE preamble routes the partitioner's scans and the
    // remap through the backend: the whole program must agree across
    // Machine and PooledBackend (3 and 4 lanes) — values, modeled
    // clocks and statistics, bit for bit — including the partitioner
    // phase itself.
    let inputs = ring_inputs(64);
    let cp = lower_program(parse_program(MAPPED_PROGRAM).unwrap()).unwrap();
    let mut seq = Executor::new(MachineConfig::ipsc860(4), inputs.clone());
    seq.run(&cp).unwrap();
    for _ in 0..2 {
        seq.execute_loop(&cp, "L1").unwrap();
    }
    // The node decomposition really was repartitioned (irregular now).
    assert_eq!(seq.decomposition("reg").unwrap().kind_name(), "IRREGULAR");
    for workers in [3, 4] {
        let mut pool =
            Executor::new_pooled_with_workers(MachineConfig::ipsc860(4), workers, inputs.clone());
        pool.run(&cp).unwrap();
        for _ in 0..2 {
            pool.execute_loop(&cp, "L1").unwrap();
        }
        assert_runs_agree(&seq, &pool);
    }
}

#[test]
fn repeated_sweeps_reuse_the_schedule() {
    let inputs = ring_inputs(32);
    let cp = compiled();
    let mut exec = Executor::new(MachineConfig::ipsc860(4), inputs);
    exec.run(&cp).unwrap();
    for _ in 0..5 {
        exec.execute_loop(&cp, "L1").unwrap();
    }
    assert_eq!(exec.report().loop_sweeps, 6);
    assert_eq!(exec.report().inspector_runs, 1, "inspector runs once");
    assert_eq!(exec.report().reuse_hits, 5);
}

#[test]
fn disabling_reuse_reruns_the_inspector_every_sweep() {
    let inputs = ring_inputs(32);
    let cp = compiled();
    let mut exec = Executor::new(MachineConfig::ipsc860(4), inputs).with_reuse(false);
    exec.run(&cp).unwrap();
    for _ in 0..4 {
        exec.execute_loop(&cp, "L1").unwrap();
    }
    assert_eq!(exec.report().inspector_runs, 5);
    assert_eq!(exec.report().reuse_hits, 0);
}

#[test]
fn rereading_an_indirection_array_reruns_the_inspector() {
    // Section 3: any block that may write an indirection array bumps
    // `nmod`, so the loop's saved schedule is no longer valid. Reading
    // a data array on another decomposition leaves it valid.
    let run = |reread: &str| {
        let src = format!("{EDGE_PROGRAM}\n        CALL READ_DATA({reread})\n");
        let cp = lower_program(parse_program(&src).unwrap()).unwrap();
        let mut exec = Executor::new(MachineConfig::ipsc860(4), ring_inputs(32));
        exec.run(&cp).unwrap();
        exec.execute_loop(&cp, "L1").unwrap();
        exec.execute_loop(&cp, "L1").unwrap();
        (exec.report().inspector_runs, exec.report().reuse_hits)
    };
    assert_eq!(run("end_pt1, end_pt2"), (2, 1));
    assert_eq!(run("x"), (1, 2));
}

/// Inputs with randomly connected edges, so the inspector has real work
/// to do (many off-processor references): this is where schedule reuse
/// pays off, as in the paper's meshes.
fn random_inputs(nnode: usize, nedge: usize) -> ProgramInputs {
    let mut state = 0xC4A05u64;
    let mut next = |m: usize| -> u32 {
        state = state
            .wrapping_mul(6364136223846793005)
            .wrapping_add(1442695040888963407);
        ((state >> 33) as usize % m) as u32 + 1
    };
    let mut e1 = Vec::with_capacity(nedge);
    let mut e2 = Vec::with_capacity(nedge);
    for _ in 0..nedge {
        let a = next(nnode);
        let mut b = next(nnode);
        if b == a {
            b = a % nnode as u32 + 1;
        }
        e1.push(a);
        e2.push(b);
    }
    let x: Vec<f64> = (0..nnode).map(|i| (i as f64 * 0.3).cos() + 2.0).collect();
    ProgramInputs::new()
        .scalar("nnode", nnode)
        .scalar("nedge", nedge)
        .real("x", x)
        .real("y", vec![0.0; nnode])
        .int("end_pt1", e1)
        .int("end_pt2", e2)
}

#[test]
fn reuse_saves_the_inspector_phase() {
    // The paper's Table 1 claim: with reuse the inspector runs once,
    // without it before every sweep, and the modeled time of the
    // Inspector phase shows it. (Total time is the wrong yardstick
    // here: a re-bound loop finds all its ghosts resident, so the
    // no-reuse arm's *gathers* fetch nothing and come out cheaper.)
    let inputs = random_inputs(400, 1600);
    let cp = compiled();
    let run = |reuse: bool| {
        let mut exec = Executor::new(MachineConfig::ipsc860(4), inputs.clone()).with_reuse(reuse);
        exec.run(&cp).unwrap();
        for _ in 0..10 {
            exec.execute_loop(&cp, "L1").unwrap();
        }
        let stats = exec.machine().stats();
        (
            exec.machine().phase_elapsed(PhaseKind::Inspector),
            exec.report().inspector_runs,
            stats.totals_for(PhaseKind::Executor),
            stats.saved_labelled(SAVED_GATHER_LABEL),
        )
    };
    let (with_time, with_runs, with_sent, _) = run(true);
    let (without_time, without_runs, without_sent, without_saved) = run(false);
    assert_eq!((with_runs, without_runs), (1, 11));
    // What the re-bound loop's gathers skip is exactly the traffic the
    // reuse arm sends: its executor carries the no-reuse executor's
    // messages and bytes plus the saved gathers.
    assert_eq!(
        (with_sent.messages, with_sent.bytes),
        (
            without_sent.messages + without_saved.messages,
            without_sent.bytes + without_saved.bytes
        )
    );
    // Under a BLOCK distribution the inspector is comparatively cheap
    // (index translation is local arithmetic); the paper-scale factors
    // appear once the data is irregularly distributed (see the Table 1
    // bench and the integration tests).
    assert!(
        without_time > 1.2 * with_time,
        "no-reuse inspector ({without_time}) should be above reuse ({with_time})"
    );
}

#[test]
fn results_identical_with_and_without_reuse() {
    let inputs = ring_inputs(48);
    let cp = compiled();
    let mut a = Executor::new(MachineConfig::ipsc860(4), inputs.clone());
    let mut b = Executor::new(MachineConfig::ipsc860(4), inputs).with_reuse(false);
    a.run(&cp).unwrap();
    b.run(&cp).unwrap();
    for _ in 0..3 {
        a.execute_loop(&cp, "L1").unwrap();
        b.execute_loop(&cp, "L1").unwrap();
    }
    let ya = a.real_global("y").unwrap();
    let yb = b.real_global("y").unwrap();
    for (u, v) in ya.iter().zip(&yb) {
        assert!((u - v).abs() < 1e-12);
    }
}

const MAPPED_PROGRAM: &str = r#"
        REAL*8 x(nnode), y(nnode)
        INTEGER end_pt1(nedge), end_pt2(nedge)
        DYNAMIC, DECOMPOSITION reg(nnode), reg2(nedge)
        DISTRIBUTE reg(BLOCK)
        DISTRIBUTE reg2(BLOCK)
        ALIGN x, y WITH reg
        ALIGN end_pt1, end_pt2 WITH reg2
        CALL READ_DATA(x, y, end_pt1, end_pt2)
C$      CONSTRUCT G (nnode, LINK(nedge, end_pt1, end_pt2))
C$      SET distfmt BY PARTITIONING G USING RSB
C$      REDISTRIBUTE reg(distfmt)
        FORALL i = 1, nedge
          REDUCE(ADD, y(end_pt1(i)), EFLUX1(x(end_pt1(i)), x(end_pt2(i))))
          REDUCE(ADD, y(end_pt2(i)), EFLUX2(x(end_pt1(i)), x(end_pt2(i))))
        END FORALL
"#;

#[test]
fn figure4_program_with_implicit_mapping_runs_and_matches_reference() {
    let inputs = ring_inputs(40);
    let expected = reference_y(&inputs);
    let cp = lower_program(parse_program(MAPPED_PROGRAM).unwrap()).unwrap();
    let mut exec = Executor::new(MachineConfig::ipsc860(4), inputs);
    exec.run(&cp).unwrap();
    assert!(exec.report().arrays_redistributed >= 2, "x and y remapped");
    let y = exec.real_global("y").unwrap();
    for (a, b) in y.iter().zip(&expected) {
        assert!((a - b).abs() < 1e-10);
    }
    // After redistribution the node decomposition is irregular.
    assert_eq!(exec.decomposition("reg").unwrap().kind_name(), "IRREGULAR");
}

#[test]
fn redistribute_invalidates_previous_schedules() {
    // Run the loop under BLOCK, then CONSTRUCT/SET/REDISTRIBUTE, then run
    // again: the inspector must re-run because x and y changed DADs.
    let src = r#"
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
C$          CONSTRUCT G (nnode, LINK(nedge, end_pt1, end_pt2))
C$          SET distfmt BY PARTITIONING G USING RCB2D
C$          REDISTRIBUTE reg(distfmt)
    "#
    .replace("RCB2D", "RSB");
    let cp = lower_program(parse_program(&src).unwrap()).unwrap();
    let mut exec = Executor::new(MachineConfig::ipsc860(4), ring_inputs(32));
    exec.run(&cp).unwrap();
    assert_eq!(exec.report().inspector_runs, 1);
    // Re-run the loop after the remap: must re-inspect, then reuse again.
    exec.execute_loop(&cp, "L1").unwrap();
    assert_eq!(exec.report().inspector_runs, 2);
    exec.execute_loop(&cp, "L1").unwrap();
    assert_eq!(exec.report().inspector_runs, 2);
    assert_eq!(exec.report().reuse_hits, 1);
}

#[test]
fn redistribute_remaps_real_then_integer_arrays_in_align_order() {
    // Six arrays on the redistributed decomposition, ALIGNed out of name
    // order and interleaving the two types, all referenced by the FORALL
    // after the REDISTRIBUTE (`tag` and `mark` as indirection): every fresh
    // executor remaps the REAL ones in ALIGN order, then the INTEGER ones,
    // so the clocks, which each remap's charges advance in turn, and the
    // per-kind totals never vary run to run.
    let src = r#"
            REAL*8 zc(nnode), x(nnode), yc(nnode), y(nnode)
            INTEGER tag(nnode), mark(nnode), end_pt1(nedge), end_pt2(nedge)
            DYNAMIC, DECOMPOSITION reg(nnode), reg2(nedge)
            DISTRIBUTE reg(BLOCK)
            DISTRIBUTE reg2(BLOCK)
            ALIGN zc, tag, x WITH reg
            ALIGN end_pt1, end_pt2 WITH reg2
            ALIGN mark, yc, y WITH reg
            CALL READ_DATA(end_pt1, end_pt2, tag, mark)
C$          CONSTRUCT G (nnode, LINK(nedge, end_pt1, end_pt2))
C$          SET distfmt BY PARTITIONING G USING RSB
C$          REDISTRIBUTE reg(distfmt)
            FORALL i = 1, nnode
              REDUCE(ADD, y(tag(i)), x(mark(i)) + zc(i) * yc(i))
            END FORALL
    "#;
    let inputs = |nnode: usize| {
        let tag = (0..nnode).map(|i| ((i * 5 + 3) % nnode) as u32 + 1);
        let mark = (0..nnode).map(|i| ((i * 7 + 1) % nnode) as u32 + 1);
        ring_inputs(nnode)
            .int("tag", tag.collect())
            .int("mark", mark.collect())
    };
    let cp = lower_program(parse_program(src).unwrap()).unwrap();
    let fingerprint = |exec: &Executor| {
        let machine = exec.machine();
        let clocks: Vec<u64> = machine
            .elapsed()
            .per_proc
            .iter()
            .map(|t| t.to_bits())
            .collect();
        let totals: Vec<_> = PhaseKind::ALL
            .iter()
            .map(|&kind| {
                let t = machine.stats().totals_for(kind);
                (t.messages, t.bytes, t.phases, t.comm_seconds.to_bits())
            })
            .collect();
        (clocks, totals, exec.report().arrays_redistributed)
    };
    let mut first = None;
    for run in 0..8 {
        let mut exec = Executor::new(MachineConfig::ipsc860(4), inputs(32));
        exec.run(&cp).unwrap();
        let got = fingerprint(&exec);
        assert_eq!(got.2, 6, "every array on reg remapped");
        assert_eq!(&got, first.get_or_insert_with(|| got.clone()), "run {run}");
    }
}

#[test]
fn a_distribute_after_read_data_moves_the_arrays_at_the_first_forall() {
    // DISTRIBUTE sets the decomposition's distribution and moves nothing:
    // the FORALL moves x and y onto CYCLIC before its guard reads a DAD, so
    // the loop runs on the layout its schedules are built for.
    let src = EDGE_PROGRAM.replace(
        "CALL READ_DATA(x, y, end_pt1, end_pt2)\n",
        "CALL READ_DATA(x, y, end_pt1, end_pt2)\n        DISTRIBUTE reg(CYCLIC)\n",
    );
    assert_ne!(src, EDGE_PROGRAM);
    let cp = lower_program(parse_program(&src).unwrap()).unwrap();
    let inputs = ring_inputs(37);
    let expected = reference_y(&inputs);
    fn check<B: Backend>(mut exec: Executor<B>, cp: &CompiledProgram, expected: &[f64]) {
        exec.run(cp).expect("the loop runs on the CYCLIC layout");
        let y = exec.real_global("y").unwrap();
        for (i, (a, b)) in y.iter().zip(expected).enumerate() {
            assert!((a - b).abs() < 1e-10, "y[{i}]: {a} vs {b}");
        }
        assert_eq!(exec.array_dad("x"), Some(Dad::Cyclic { n: 37, p: 4 }));
        assert_eq!(exec.report().arrays_redistributed, 2, "x and y moved");
    }
    let cfg = MachineConfig::ipsc860(4);
    check(Executor::new(cfg.clone(), inputs.clone()), &cp, &expected);
    check(
        Executor::new_pooled_with_workers(cfg, 2, inputs),
        &cp,
        &expected,
    );
}

#[test]
fn a_panic_in_a_forall_s_array_move_recovers_bit_identically() {
    // The FORALL after REDISTRIBUTE moves x, then y, as its first two
    // epochs, inside its guarded attempt: a kernel panic at y's move is
    // retried from the pre-sweep snapshot and the run ends bit-identical
    // to the fault-free run under the same policy.
    let at = MAPPED_PROGRAM.find("C$      REDISTRIBUTE").unwrap();
    let prefix = lower_program(parse_program(&MAPPED_PROGRAM[..at]).unwrap()).unwrap();
    let cp = lower_program(parse_program(MAPPED_PROGRAM).unwrap()).unwrap();
    let inputs = ring_inputs(48);
    let cfg = MachineConfig::ipsc860(4);
    let policy = RecoveryPolicy::RetryPhase { max_attempts: 1 };
    let mut before = Executor::new(cfg.clone(), inputs.clone());
    before.run(&prefix).unwrap();
    let y_move = before.machine().epoch() + 2;
    fn check<B: Backend>(
        mut clean: Executor<B>,
        faulted: Executor<B>,
        cp: &CompiledProgram,
        y_move: u64,
    ) {
        let plan = Arc::new(FaultPlan::new().with_fault(y_move, 1, FaultKind::KernelPanic));
        let mut faulted = faulted.with_fault_plan(Arc::clone(&plan));
        clean.run(cp).unwrap();
        faulted.run(cp).expect("the retry recovers the move");
        assert!(plan.exhausted(), "the fault fired");
        assert_eq!(clean.report().arrays_redistributed, 2);
        assert_runs_agree(&clean, &faulted);
        let (a, b) = (clean.machine().stats(), faulted.machine().stats());
        for kind in PhaseKind::ALL {
            assert_eq!(a.totals_for(kind), b.totals_for(kind), "{kind:?}");
        }
        assert_eq!(
            a.totals_for(PhaseKind::Remap).phases,
            2,
            "one phase per move"
        );
        assert_eq!(clean.machine().epoch(), faulted.machine().epoch());
    }
    let seq = || Executor::new(cfg.clone(), inputs.clone()).with_recovery_policy(policy);
    check(seq(), seq(), &cp, y_move);
    let pool = || {
        Executor::new_pooled_with_workers(cfg.clone(), 2, inputs.clone())
            .with_recovery_policy(policy)
    };
    check(pool(), pool(), &cp, y_move);
}

#[test]
fn rollback_recovers_every_epoch_of_a_forall_that_moves_its_arrays() {
    // L2 moves x and y onto the RSB distribution the REDISTRIBUTE set, so
    // the checkpoint refreshed after its first sweep sees two arrays with a
    // new layout, one of them also written: both are re-copied whole. A
    // kernel panic at any epoch from L2's first attempt on recovers
    // bit-identically to the fault-free run under the same policy.
    const SRC: &str = r#"
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
        END FORALL
C$      CONSTRUCT G (nnode, LINK(nedge, end_pt1, end_pt2))
C$      SET distfmt BY PARTITIONING G USING RSB
C$      REDISTRIBUTE reg(distfmt)
        FORALL i = 1, nedge
          REDUCE(ADD, y(end_pt1(i)), EFLUX1(x(end_pt1(i)), x(end_pt2(i))))
          REDUCE(ADD, y(end_pt2(i)), EFLUX2(x(end_pt1(i)), x(end_pt2(i))))
        END FORALL
    "#;
    let at = SRC.rfind("        FORALL").unwrap();
    let prefix = lower_program(parse_program(&SRC[..at]).unwrap()).unwrap();
    let cp = lower_program(parse_program(SRC).unwrap()).unwrap();
    let inputs = random_inputs(48, 160);
    let cfg = MachineConfig::ipsc860(4);
    let policy = RecoveryPolicy::RollbackToCheckpoint { every: 2 };
    fn drive<B: Backend>(mut exec: Executor<B>, cp: &CompiledProgram) -> Executor<B> {
        exec.run(cp).expect("the program runs");
        for _ in 0..3 {
            exec.execute_loop(cp, "L2").expect("the loop sweeps");
        }
        exec
    }
    fn check<B: Backend>(
        engine: impl Fn() -> Executor<B>,
        prefix: &CompiledProgram,
        cp: &CompiledProgram,
    ) {
        let mut start = engine();
        start.run(prefix).unwrap();
        let clean = drive(engine(), cp);
        assert_eq!(clean.report().arrays_redistributed, 2);
        for epoch in start.machine().epoch() + 1..=clean.machine().epoch() {
            let plan = Arc::new(FaultPlan::new().with_fault(epoch, 1, FaultKind::KernelPanic));
            let faulted = drive(engine().with_fault_plan(Arc::clone(&plan)), cp);
            assert!(plan.exhausted(), "epoch {epoch}: the fault fired");
            assert_runs_agree(&clean, &faulted);
        }
    }
    let seq = || Executor::new(cfg.clone(), inputs.clone()).with_recovery_policy(policy);
    check(seq, &prefix, &cp);
    let pool = || {
        Executor::new_pooled_with_workers(cfg.clone(), 2, inputs.clone())
            .with_recovery_policy(policy)
    };
    check(pool, &prefix, &cp);
}

#[test]
fn regular_loop_executes_without_indirection() {
    let src = r#"
            REAL*8 x(n), y(n)
            DECOMPOSITION reg(n)
            DISTRIBUTE reg(BLOCK)
            ALIGN x, y WITH reg
            CALL READ_DATA(x, y)
            FORALL i = 1, n
              y(i) = x(i) * 2.0 + 1.0
            END FORALL
    "#;
    let cp = lower_program(parse_program(src).unwrap()).unwrap();
    let inputs = ProgramInputs::new()
        .scalar("n", 10)
        .real("x", (0..10).map(|i| i as f64).collect())
        .real("y", vec![0.0; 10]);
    let mut exec = Executor::new(MachineConfig::ipsc860(2), inputs);
    exec.run(&cp).unwrap();
    let y = exec.real_global("y").unwrap();
    assert_eq!(y, (0..10).map(|i| i as f64 * 2.0 + 1.0).collect::<Vec<_>>());
}

#[test]
fn missing_scalar_is_a_runtime_error() {
    let cp = compiled();
    let mut exec = Executor::new(MachineConfig::ipsc860(2), ProgramInputs::new());
    let err = exec.run(&cp).unwrap_err();
    assert!(err.to_string().contains("was not provided"));
}

#[test]
fn unknown_partitioner_is_reported() {
    let src = r#"
            REAL*8 x(n)
            INTEGER e1(m), e2(m)
            DECOMPOSITION reg(n), reg2(m)
            DISTRIBUTE reg(BLOCK)
            DISTRIBUTE reg2(BLOCK)
            ALIGN x WITH reg
            ALIGN e1, e2 WITH reg2
            CALL READ_DATA(e1, e2)
C$          CONSTRUCT G (n, LINK(m, e1, e2))
C$          SET fmt BY PARTITIONING G USING METIS
    "#;
    let inputs = ProgramInputs::new()
        .scalar("n", 8)
        .scalar("m", 4)
        .int("e1", vec![1, 2, 3, 4])
        .int("e2", vec![5, 6, 7, 8]);
    // Names are read case-insensitively, and reported lower-cased.
    for name in ["metis", "inertial", "random"] {
        let src = src.replace("USING METIS", &format!("USING {}", name.to_uppercase()));
        let cp = lower_program(parse_program(&src).unwrap()).unwrap();
        let mut exec = Executor::new(MachineConfig::ipsc860(2), inputs.clone());
        let err = exec.run(&cp).unwrap_err().to_string();
        assert!(
            err.contains(&format!(
                "unknown partitioner '{name}' (known: [\"BLOCK\", \"CYCLIC\", \"RCB\", \"RSB\"])"
            )),
            "{err}"
        );
    }
}

/// Running `cp` fails with an error holding every part of `expected`, saves
/// no inspection and leaves the 40-node REAL arrays materialized.
fn check<B: Backend>(
    mut exec: Executor<B>,
    cp: &CompiledProgram,
    what: &str,
    expected: &[&str],
) -> Executor<B> {
    let err = exec.run(cp).expect_err(what).to_string();
    for part in expected {
        assert!(err.contains(part), "{what}: '{err}' lacks '{part}'");
    }
    assert_eq!(exec.report().inspector_runs, 0, "{what}: nothing saved");
    for name in ["x", "y"] {
        let len = exec.real_global(name).map(|v| v.len());
        assert_eq!(len, Some(40), "{what}: {name} was lost");
    }
    exec
}

#[test]
fn bad_indirection_input_is_a_typed_error_on_every_engine_and_mode() {
    // The inspector's input errors — a short indirection array, a 0 entry, an
    // entry beyond the extent, and their directly indexed kin — each caught
    // while the references are checked, before the partitioner or a kernel
    // can index with the value, and each leaving the program's arrays where
    // they were.
    let corrupt = |at: usize, value: u32| {
        let mut inputs = ring_inputs(40);
        inputs.int_arrays.get_mut("end_pt2").unwrap()[at] = value;
        inputs
    };
    let edited = |from: &str, to: &str| {
        assert!(EDGE_PROGRAM.contains(from));
        lower_program(parse_program(&EDGE_PROGRAM.replace(from, to)).unwrap()).unwrap()
    };
    let cases: [(&str, CompiledProgram, ProgramInputs, &[&str]); 6] = [
        (
            "an entry one beyond the extent",
            compiled(),
            corrupt(5, 41),
            &["'end_pt2' contains 41 at iteration 6", "40 elements of '"],
        ),
        (
            "an entry far beyond the extent",
            compiled(),
            corrupt(5, 4000),
            &["'end_pt2' contains 4000 at iteration 6", "40 elements of '"],
        ),
        (
            "a 0 entry",
            compiled(),
            corrupt(7, 0),
            &["'end_pt2' contains 0 at iteration 8"],
        ),
        (
            // The loop bound is a scalar of its own, so it can outrun them.
            "an indirection array shorter than the loop range",
            edited("FORALL i = 1, nedge", "FORALL i = 1, nloop"),
            ring_inputs(40).scalar("nloop", 45),
            &[
                "iteration 40 out of range for indirection array",
                "39 entries",
            ],
        ),
        (
            // 60 edges over 40 nodes: `x(i)` runs out at iteration 41.
            "a directly indexed array shorter than the loop range",
            edited("EFLUX1(x(end_pt1(i)),", "EFLUX1(x(i),"),
            random_inputs(40, 60),
            &["iteration 41 is beyond the 40 elements of 'x'"],
        ),
        (
            "a loop starting at iteration 0",
            edited("FORALL i = 1, nedge", "FORALL i = 0, nedge"),
            ring_inputs(40),
            &["starts at iteration 0"],
        ),
    ];
    for (what, cp, inputs, expected) in cases {
        for mode in [KernelMode::Compiled, KernelMode::Interpreted] {
            let cfg = MachineConfig::ipsc860(4);
            let machine = Executor::new(cfg.clone(), inputs.clone()).with_kernel_mode(mode);
            check(machine, &cp, what, expected);
            let pool = Executor::new_pooled_with_workers(cfg, 3, inputs.clone());
            check(pool.with_kernel_mode(mode), &cp, what, expected);
        }
    }
}

/// [`EDGE_PROGRAM`] with `mapping` (CONSTRUCT, SET and REDISTRIBUTE lines)
/// between its `READ_DATA` and its loop.
fn edge_program_mapped(mapping: &str) -> CompiledProgram {
    let read = "CALL READ_DATA(x, y, end_pt1, end_pt2)\n";
    assert!(EDGE_PROGRAM.contains(read));
    let src = EDGE_PROGRAM.replace(read, &format!("{read}{mapping}"));
    lower_program(parse_program(&src).unwrap()).unwrap()
}

/// `cp` fails with an error holding every part of `expected` on `Machine`
/// and on a 2-lane pool, each leaving the REAL arrays materialized.
fn check_on_both_engines(cp: &CompiledProgram, inputs: &ProgramInputs, expected: &[&str]) {
    let cfg = MachineConfig::ipsc860(4);
    check(
        Executor::new(cfg.clone(), inputs.clone()),
        cp,
        "Machine",
        expected,
    );
    let pool = Executor::new_pooled_with_workers(cfg, 2, inputs.clone());
    check(pool, cp, "a 2-lane pool", expected);
}

#[test]
fn a_non_finite_geometry_coordinate_is_a_construct_error_on_both_engines() {
    let cp = edge_program_mapped(
        "C$      CONSTRUCT G (nnode, GEOMETRY(1, x))
C$      SET fmt BY PARTITIONING G USING RCB
C$      REDISTRIBUTE reg(fmt)\n",
    );
    for (bad, shown) in [(f64::NAN, "NaN"), (f64::INFINITY, "inf")] {
        let mut inputs = ring_inputs(40);
        inputs.real_arrays.get_mut("x").unwrap()[6] = bad;
        let expected =
            format!("CONSTRUCT g: GEOMETRY array 'x' holds {shown} at position 7, not a finite");
        check_on_both_engines(&cp, &inputs, &[&expected]);
    }
}

#[test]
fn a_partitioner_missing_its_section_is_a_set_error_on_both_engines() {
    let cases = [
        (
            "C$      CONSTRUCT G (nnode, LINK(nedge, end_pt1, end_pt2))
C$      SET fmt BY PARTITIONING G USING RCB\n",
            "partitioner RCB cannot split GeoCoL 'g': it has no GEOMETRY section",
        ),
        (
            "C$      CONSTRUCT G (nnode, GEOMETRY(1, x))
C$      SET fmt BY PARTITIONING G USING RSB\n",
            "partitioner RSB cannot split GeoCoL 'g': it has no LINK section",
        ),
    ];
    for (mapping, expected) in cases {
        check_on_both_engines(&edge_program_mapped(mapping), &ring_inputs(40), &[expected]);
    }
}

#[test]
fn the_earliest_bad_iteration_is_reported_whichever_array_holds_it() {
    // `end_pt1` goes bad at iteration 21 and `end_pt2` at iteration 10: the
    // error names iteration 10, and the first slot in check order that
    // reads `end_pt2` — `x(end_pt2(i))`, the value of the first statement.
    let mut inputs = ring_inputs(40);
    inputs.int_arrays.get_mut("end_pt1").unwrap()[20] = 0;
    inputs.int_arrays.get_mut("end_pt2").unwrap()[9] = 41;
    let expected = "indirection array 'end_pt2' contains 41 at iteration 10, \
                    beyond the 40 elements of 'x'";
    let cp = compiled();
    for mode in [KernelMode::Compiled, KernelMode::Interpreted] {
        let cfg = MachineConfig::ipsc860(4);
        let machine = Executor::new(cfg.clone(), inputs.clone()).with_kernel_mode(mode);
        let what = "two bad arrays on Machine";
        let err = check(machine, &cp, what, &[expected]).run(&cp).unwrap_err();
        assert_eq!(
            err.to_string(),
            format!("runtime error: {expected}"),
            "{what}"
        );
        let pool = Executor::new_pooled_with_workers(cfg, 3, inputs.clone());
        let what = "two bad arrays on the pool";
        let err = check(pool.with_kernel_mode(mode), &cp, what, &[expected])
            .run(&cp)
            .unwrap_err();
        assert_eq!(
            err.to_string(),
            format!("runtime error: {expected}"),
            "{what}"
        );
    }
}

#[test]
fn a_loop_realigned_onto_two_decompositions_is_a_typed_error_on_both_engines() {
    // x sits on reg(40) and w, re-ALIGNed after the loop was checked, on a
    // BLOCK wide(60). The executor refuses the loop as the front end does,
    // before an indirection array is read, so whatever the entries hold the
    // error is the decomposition one. On an irregular reg, end_pt2 is read
    // by w alone, so its entry 55 fits its own extent; placement, which
    // reads every placing column through the first indirect slot's
    // distribution (x's), would look it up in reg's 40-entry translation
    // table. On a BLOCK reg, end_pt1 is read by both w and x: an entry only
    // wide holds (43), one neither holds (0) and one both hold (40).
    let decls = r#"
        REAL*8 x(nnode), y(nnode), w(nedge)
        INTEGER end_pt1(nedge), end_pt2(nedge), pmap(nnode)
        DECOMPOSITION reg(nnode), regmap(nnode), reg2(nedge), wide(nedge)
        DISTRIBUTE regmap(BLOCK)
        DISTRIBUTE reg2(BLOCK)
        DISTRIBUTE wide(BLOCK)
        ALIGN pmap WITH regmap
        ALIGN end_pt1, end_pt2 WITH reg2
    "#;
    let lower = |src: &str| lower_program(parse_program(src).unwrap()).unwrap();
    let setup = |reg: &str| {
        lower(&format!(
            "{decls}
            CALL READ_DATA(pmap)
            DISTRIBUTE reg({reg})
            ALIGN x, y WITH reg
            ALIGN w WITH wide
            CALL READ_DATA(x, y, w, end_pt1, end_pt2)"
        ))
    };
    let forall = |reduce: &str| {
        lower(&format!(
            "{decls}
            ALIGN x, y, w WITH reg
            FORALL i = 1, nedge
              {reduce}
            END FORALL"
        ))
    };
    let (nnode, nedge) = (40, 60);
    let irregular = (setup("pmap"), "IRREGULAR");
    let block = (setup("BLOCK"), "BLOCK");
    let w_alone = forall("REDUCE(ADD, y(end_pt1(i)), x(end_pt1(i)) + w(end_pt2(i)))");
    let w_and_x = forall("REDUCE(ADD, y(end_pt2(i)), w(end_pt1(i)) + x(end_pt1(i)))");
    let cases = [
        (&irregular, &w_alone, "end_pt2", 9, 55),
        (&block, &w_and_x, "end_pt1", 5, 43),
        (&block, &w_and_x, "end_pt1", 7, 0),
        (&block, &w_and_x, "end_pt1", 5, 40),
    ];
    let expected = LangError::runtime(
        "loop L1 indirectly references arrays on different decompositions \
         ({\"reg\", \"wide\"}); this reproduction requires them to share one",
    );
    fn check<B: Backend>(
        mut exec: Executor<B>,
        ((setup, kind), forall): (&(CompiledProgram, &str), &CompiledProgram),
        expected: &LangError,
    ) {
        exec.run(setup).unwrap();
        assert_eq!(exec.decomposition("reg").unwrap().kind_name(), *kind);
        assert_eq!(exec.execute_loop(forall, "L1").as_ref(), Err(expected));
        assert_eq!(exec.report().inspector_runs, 0, "nothing saved");
        assert_eq!(exec.machine().stats().current_kind(), None);
    }
    for (setup, forall, array, at, value) in cases {
        let mut inputs = random_inputs(nnode, nedge)
            .real("w", vec![1.0; nedge])
            .int("pmap", (0..nnode as u32).map(|i| (i * 7) % 4).collect());
        inputs.int_arrays.get_mut(array).unwrap()[at] = value;
        let cfg = MachineConfig::ipsc860(4);
        let machine = Executor::new(cfg.clone(), inputs.clone());
        check(machine, (setup, forall), &expected);
        let pool = Executor::new_pooled_with_workers(cfg, 3, inputs);
        check(pool, (setup, forall), &expected);
    }
}

#[test]
fn map_entry_beyond_the_processor_count_is_a_typed_error_on_both_engines() {
    // A `DISTRIBUTE reg(pmap)` whose map names processor 7 of 4: an error
    // naming the array, the element, the value and the processor count —
    // not the translation table's assert — and no distribution built.
    let src = r#"
        REAL*8 x(n)
        INTEGER pmap(n)
        DECOMPOSITION reg(n), regmap(n)
        DISTRIBUTE regmap(BLOCK)
        ALIGN pmap WITH regmap
        CALL READ_DATA(pmap)
        DISTRIBUTE reg(pmap)
        ALIGN x WITH reg
    "#;
    let cp = lower_program(parse_program(src).unwrap()).unwrap();
    let mut map: Vec<u32> = (0..8).map(|i| i % 4).collect();
    map[5] = 7;
    let inputs = ProgramInputs::new().scalar("n", 8).int("pmap", map);
    fn check<B: Backend>(mut exec: Executor<B>, cp: &CompiledProgram) {
        let err = exec.run(cp).expect_err("bad map entry").to_string();
        for part in ["'pmap'", "element 6", "processor 7", "4 processors"] {
            assert!(err.contains(part), "'{err}' lacks '{part}'");
        }
        assert!(exec.decomposition("reg").is_none(), "no distribution built");
    }
    let cfg = MachineConfig::ipsc860(4);
    check(Executor::new(cfg.clone(), inputs.clone()), &cp);
    check(Executor::new_pooled_with_workers(cfg, 3, inputs), &cp);
}

#[test]
fn read_data_of_the_wrong_length_is_a_typed_error_on_both_engines() {
    // An input shorter or longer than the array's extent, REAL or INTEGER:
    // an error naming the array, the length given and the extent — not the
    // length assert inside `DistArray::from_global` — and every array still
    // materialized, at its extent.
    fn check_all<B: Backend>(exec: Executor<B>, what: &str, expected: &[&str]) {
        let exec = check(exec, &compiled(), what, expected);
        for name in ["end_pt1", "end_pt2"] {
            let len = exec.state.int.named(name).map(|a| a.len());
            assert_eq!(len, Some(39), "{what}: {name} was lost");
        }
    }
    let resized = |real: bool, name: &str, len: usize| {
        let mut inputs = ring_inputs(40);
        if real {
            inputs.real_arrays.get_mut(name).unwrap().resize(len, 0.0);
        } else {
            inputs.int_arrays.get_mut(name).unwrap().resize(len, 1);
        }
        inputs
    };
    let cases: [(&str, ProgramInputs, &[&str]); 3] = [
        (
            "a short REAL input",
            resized(true, "y", 12),
            &["REAL array 'y'", "12 values", "40 elements"],
        ),
        (
            "a long REAL input",
            resized(true, "x", 41),
            &["REAL array 'x'", "41 values", "40 elements"],
        ),
        (
            "a short INTEGER input",
            resized(false, "end_pt2", 38),
            &["INTEGER array 'end_pt2'", "38 values", "39 elements"],
        ),
    ];
    for (what, inputs, expected) in cases {
        let cfg = MachineConfig::ipsc860(4);
        check_all(Executor::new(cfg.clone(), inputs.clone()), what, expected);
        check_all(
            Executor::new_pooled_with_workers(cfg, 3, inputs),
            what,
            expected,
        );
    }
}

#[test]
fn a_link_endpoint_outside_the_vertices_is_a_typed_error_on_both_engines() {
    // CONSTRUCT over 8 nodes with a LINK entry of 0 or of 9: an error naming
    // the array, the position and the value — not the GeoCoL builder's
    // panic, and not a 0 clamped to node 1 — and no GeoCoL built.
    let cp = lower_program(parse_program(MAPPED_PROGRAM).unwrap()).unwrap();
    let corrupt = |list: &str, at: usize, value: u32| {
        let mut inputs = ring_inputs(8);
        inputs.int_arrays.get_mut(list).unwrap()[at] = value;
        inputs
    };
    fn check<B: Backend>(mut exec: Executor<B>, cp: &CompiledProgram, expected: &[&str]) {
        let err = exec.run(cp).expect_err("a bad LINK entry").to_string();
        for part in expected {
            assert!(err.contains(part), "'{err}' lacks '{part}'");
        }
        assert!(exec.state.geocols.is_empty(), "no GeoCoL built");
    }
    let cases: [(ProgramInputs, &[&str]); 3] = [
        (
            corrupt("end_pt1", 3, 9),
            &[
                "LINK array 'end_pt1' contains 9 at position 4",
                "8 vertices",
            ],
        ),
        (
            corrupt("end_pt2", 5, 9),
            &[
                "LINK array 'end_pt2' contains 9 at position 6",
                "8 vertices",
            ],
        ),
        (
            corrupt("end_pt2", 2, 0),
            &["LINK array 'end_pt2' contains 0 at position 3 (values are 1-based)"],
        ),
    ];
    for (inputs, expected) in cases {
        let cfg = MachineConfig::ipsc860(4);
        check(Executor::new(cfg.clone(), inputs.clone()), &cp, expected);
        check(
            Executor::new_pooled_with_workers(cfg, 3, inputs),
            &cp,
            expected,
        );
    }
}

#[test]
fn a_redistribution_of_another_extent_is_a_typed_error_on_both_engines() {
    // A GeoCoL over 45 vertices partitioned into a format for the 40-node
    // decomposition: an error naming the format, both extents and the
    // decomposition — not the remap's length assert — and no array moved.
    let src = MAPPED_PROGRAM.replace("CONSTRUCT G (nnode,", "CONSTRUCT G (ngraph,");
    let cp = lower_program(parse_program(&src).unwrap()).unwrap();
    let inputs = ring_inputs(40).scalar("ngraph", 45);
    fn check<B: Backend>(mut exec: Executor<B>, cp: &CompiledProgram) {
        let err = exec.run(cp).expect_err("a format of another extent");
        let err = err.to_string();
        for part in ["'distfmt' places 45 elements", "'reg' has 40"] {
            assert!(err.contains(part), "'{err}' lacks '{part}'");
        }
        assert_eq!(exec.report().arrays_redistributed, 0, "no array moved");
        assert_eq!(exec.real_global("x").map(|x| x.len()), Some(40));
    }
    let cfg = MachineConfig::ipsc860(4);
    check(Executor::new(cfg.clone(), inputs.clone()), &cp);
    check(Executor::new_pooled_with_workers(cfg, 3, inputs), &cp);
}

#[test]
fn a_forall_that_fails_restores_the_phase_kind_it_was_entered_under() {
    // The inspector's typed error returns from inside the FORALL after it
    // switched the machine to `Inspector`; the time after it must not be
    // booked there.
    fn check<B: Backend>(mut exec: Executor<B>, cp: &CompiledProgram) {
        let err = exec.run(cp).expect_err("a 0 entry").to_string();
        assert!(err.contains("'end_pt1' contains 0 at iteration 2"), "{err}");
        assert_eq!(exec.machine().stats().current_kind(), None);
    }
    let mut inputs = ring_inputs(40);
    inputs.int_arrays.get_mut("end_pt1").unwrap()[1] = 0;
    let cfg = MachineConfig::ipsc860(4);
    check(Executor::new(cfg.clone(), inputs.clone()), &compiled());
    check(
        Executor::new_pooled_with_workers(cfg, 3, inputs),
        &compiled(),
    );
}

/// L1's record, as the executor's table holds it.
fn record<'a>(exec: &'a Executor, cp: &CompiledProgram) -> &'a state::LoopState {
    exec.state.run.loops[cp.plans["L1"].id.index()]
        .as_ref()
        .expect("loop was inspected")
}

#[test]
fn buffers_are_shaped_by_ghost_counts() {
    let cp = compiled();
    let mut exec = Executor::new(MachineConfig::ipsc860(4), random_inputs(60, 240));
    exec.run(&cp).unwrap();
    let rec = record(&exec, &cp);
    let write_bufs = &rec.inspected.bindings.write_bufs;
    assert_eq!(write_bufs.len(), 1, "both REDUCEs share one buffer");
    // One area per rank: a contribution row and a touched flag per write
    // buffer, the row sized by the rank's ghost count in the buffer's group.
    assert_eq!(rec.areas.len(), 4);
    let mut total = 0;
    for (p, area) in rec.areas.iter().enumerate() {
        assert_eq!(area.contrib.len(), write_bufs.len());
        assert_eq!(area.touched.len(), write_bufs.len());
        for (w, row) in write_bufs.iter().zip(&area.contrib) {
            let counts = &rec.inspected.groups[w.group as usize].result.ghost_counts;
            assert_eq!(row.len(), counts[p]);
            total += row.len();
        }
    }
    assert!(total > 0, "random edges reference off-processor nodes");
}

#[test]
fn a_loop_record_holds_one_index_per_distinct_reference_and_a_fixed_register_file() {
    use crate::kernel::BLOCK;
    // The edge loop has four slots and two distinct references: a rank's
    // localized row is exactly 2 · iters(p) `u32`s. The register file is
    // nregs columns of BLOCK lanes per rank, the same on a loop four times
    // as long.
    let cp = compiled();
    let record_of = |nedge: usize| {
        let mut exec = Executor::new(MachineConfig::ipsc860(4), random_inputs(60, nedge));
        exec.run(&cp).unwrap();
        record(&exec, &cp).clone()
    };
    let (small, large) = (record_of(240), record_of(960));
    for rec in [&small, &large] {
        let ins = &rec.inspected;
        assert_eq!(ins.groups.len(), 1, "x and y share a decomposition");
        assert_eq!(ins.bindings.groups[0].ncols, 2);
        let row: &Vec<u32> = &ins.groups[0].result.localized[0];
        assert_eq!(std::mem::size_of_val(&row[0]), 4);
        for p in 0..4 {
            let iters = ins.iter_part.iters(p).len();
            assert_eq!(ins.groups[0].result.localized[p].len(), 2 * iters);
        }
        let nregs = ins.kernel.nregs as usize;
        assert_eq!(nregs, 4);
        for area in &rec.areas {
            assert_eq!(std::mem::size_of_val(&area.regs[..]), nregs * BLOCK * 8);
        }
    }
    let iters = |rec: &state::LoopState| -> usize {
        (0..4).map(|p| rec.inspected.iter_part.iters(p).len()).sum()
    };
    assert_eq!((iters(&small), iters(&large)), (240, 960));
}

#[test]
fn iterations_are_placed_by_every_slot_though_localized_by_distinct_column() {
    // x(e1), y(e2), z(e1): three slots, two distinct index expressions of
    // unequal multiplicity. Placement counts a reference per *slot* — an
    // iteration whose e1 and e2 live on different ranks goes to e1's owner,
    // two votes to one — while the localized row holds a column per
    // distinct expression. Voting by column would tie and send it to the
    // lower rank instead.
    let src = r#"
        REAL*8 x(nnode), y(nnode), z(nnode)
        INTEGER end_pt1(nedge), end_pt2(nedge)
        DECOMPOSITION reg(nnode), reg2(nedge)
        DISTRIBUTE reg(BLOCK)
        DISTRIBUTE reg2(BLOCK)
        ALIGN x, y, z WITH reg
        ALIGN end_pt1, end_pt2 WITH reg2
        CALL READ_DATA(x, y, z, end_pt1, end_pt2)
        FORALL i = 1, nedge
          REDUCE(ADD, y(end_pt2(i)), x(end_pt1(i)) * 0.5)
          REDUCE(ADD, z(end_pt1(i)), x(end_pt1(i)))
        END FORALL
    "#;
    let cp = lower_program(parse_program(src).unwrap()).unwrap();
    let (nnode, nedge) = (64, 400);
    let inputs = random_inputs(nnode, nedge).real("z", vec![0.0; nnode]);
    let run = |mode: KernelMode| {
        let mut exec =
            Executor::new(MachineConfig::ipsc860(4), inputs.clone()).with_kernel_mode(mode);
        exec.run(&cp).unwrap();
        exec.execute_loop(&cp, "L1").unwrap();
        exec
    };
    let vm = run(KernelMode::Compiled);

    // The partition is the one a reference per slot gives.
    let (e1, e2) = (&inputs.int_arrays["end_pt1"], &inputs.int_arrays["end_pt2"]);
    let per_slot: Vec<[u32; 3]> = e1
        .iter()
        .zip(e2)
        .map(|(&a, &b)| [a - 1, b - 1, a - 1])
        .collect();
    let per_column: Vec<[u32; 2]> = per_slot.iter().map(|r| [r[0], r[1]]).collect();
    let dist = Distribution::block(nnode, 4);
    let policy = IterPartitionPolicy::AlmostOwnerComputes;
    let mut scratch = Machine::new(MachineConfig::ipsc860(4));
    let expected =
        chaos_runtime::iterpart::partition_iterations(&mut scratch, &dist, &per_slot, policy);
    let by_column =
        chaos_runtime::iterpart::partition_iterations(&mut scratch, &dist, &per_column, policy);
    assert_ne!(expected, by_column, "the inputs tell the two votes apart");
    let rec = &record(&vm, &cp).inspected;
    assert_eq!(rec.iter_part, expected);

    // Three slots in two columns, each rank's row two entries an iteration.
    let group = &rec.bindings.groups[0];
    assert_eq!((group.slot_ids.len(), group.ncols), (3, 2));
    for p in 0..4 {
        let row = &rec.groups[0].result.localized[p];
        assert_eq!(row.len(), 2 * expected.iters(p).len());
    }

    // And the kernels agree on it: compiled and interpreted, both engines.
    let tree = run(KernelMode::Interpreted);
    assert_runs_agree(&vm, &tree);
    let mut pool = Executor::new_pooled_with_workers(MachineConfig::ipsc860(4), 3, inputs.clone());
    pool.run(&cp).unwrap();
    pool.execute_loop(&cp, "L1").unwrap();
    assert_runs_agree(&vm, &pool);
    let z = |exec: &Executor| -> Vec<u64> {
        let z = exec.real_global("z").unwrap();
        z.iter().map(|v| v.to_bits()).collect()
    };
    assert_eq!(z(&vm), z(&tree));
    assert!(
        z(&vm).iter().any(|&bits| bits != 0),
        "z was accumulated into"
    );
}

#[test]
fn expressions_at_the_depth_limit_run_on_both_engines_and_modes() {
    // Two shapes 256 levels deep: a left-deep chain of 255 additions, and
    // a right-deep product whose parenthesised groups each count a level
    // too (the compiler stacks a scratch register per operator). One level
    // more is a parse error.
    let chain = |depth: usize| vec!["x(end_pt1(i))"; depth].join(" + ");
    let right_deep = |depth: usize| {
        let reps = (depth - 1) / 2;
        let inner = ["x(end_pt2(i))", "(x(end_pt2(i)))"][depth % 2];
        format!(
            "{}{inner}{}",
            "x(end_pt1(i)) * (".repeat(reps),
            ")".repeat(reps)
        )
    };
    let program = |value: &str| {
        format!(
            "{}\n        FORALL i = 1, nedge\n          REDUCE(ADD, y(end_pt1(i)), {value})\n        END FORALL\n",
            EDGE_PROGRAM.split("        FORALL").next().unwrap()
        )
    };
    let inputs = ring_inputs(40);
    let (x, e1, e2) = (
        &inputs.real_arrays["x"],
        &inputs.int_arrays["end_pt1"],
        &inputs.int_arrays["end_pt2"],
    );
    let chain_value = |a: f64, _: f64| (1..256).fold(a, |v, _| v + a);
    let right_deep_value = |a: f64, b: f64| (0..127).fold(b, |v, _| a * v);
    type Value = fn(f64, f64) -> f64;
    let shapes: [(&dyn Fn(usize) -> String, Value); 2] =
        [(&chain, chain_value), (&right_deep, right_deep_value)];
    for (shape, value) in shapes {
        let past = parse_program(&program(&shape(257)));
        assert!(matches!(past, Err(LangError::Parse { .. })), "{past:?}");

        let cp = lower_program(parse_program(&program(&shape(256))).unwrap()).unwrap();
        let mut expected = vec![0.0; 40];
        for (&a, &b) in e1.iter().zip(e2) {
            expected[a as usize - 1] += value(x[a as usize - 1], x[b as usize - 1]);
        }
        let cfg = MachineConfig::ipsc860(4);
        let mut vm = Executor::new(cfg.clone(), inputs.clone());
        vm.run(&cp).unwrap();
        let y = vm.real_global("y").unwrap();
        for (i, (a, b)) in y.iter().zip(&expected).enumerate() {
            assert!((a - b).abs() <= 1e-12 * b.abs(), "y[{i}]: {a} vs {b}");
        }
        for mode in [KernelMode::Compiled, KernelMode::Interpreted] {
            let mut machine = Executor::new(cfg.clone(), inputs.clone()).with_kernel_mode(mode);
            machine.run(&cp).unwrap();
            assert_runs_agree(&vm, &machine);
            let mut pool = Executor::new_pooled_with_workers(cfg.clone(), 3, inputs.clone())
                .with_kernel_mode(mode);
            pool.run(&cp).unwrap();
            assert_runs_agree(&vm, &pool);
        }
    }
}

#[test]
fn reinspection_overwrites_the_loops_one_record() {
    let src = format!("{EDGE_PROGRAM}\n        CALL READ_DATA(end_pt1, end_pt2)\n");
    let cp = lower_program(parse_program(&src).unwrap()).unwrap();
    let mut exec = Executor::new(MachineConfig::ipsc860(4), ring_inputs(32));
    exec.run(&cp).unwrap();
    let first = std::sync::Arc::downgrade(&record(&exec, &cp).inspected);
    assert_eq!(first.strong_count(), 1, "the table is its only owner");

    // The re-read indirection arrays invalidate the schedule: the next sweep
    // re-inspects, and with it rebinds and recompiles.
    exec.execute_loop(&cp, "L1").unwrap();
    assert_eq!(exec.report().inspector_runs, 2);
    assert_eq!(exec.report().kernels_compiled, 2);
    assert_eq!(exec.state.run.loops.iter().flatten().count(), 1);
    assert!(first.upgrade().is_none(), "the first record was dropped");
}

#[test]
fn reinspecting_an_unchanged_loop_grows_no_region_state() {
    // With reuse off every sweep re-inspects and re-binds the same
    // references: the difference against the resident region is empty, so
    // no chunk is appended — the region and the freshness flags scanned
    // every sweep stay as the first inspection left them.
    let cp = compiled();
    let inputs = random_inputs(60, 240);
    let mut exec = Executor::new(MachineConfig::ipsc860(4), inputs).with_reuse(false);
    exec.run(&cp).unwrap();
    let shape = |exec: &Executor| {
        let binding = &record(exec, &cp).inspected.groups[0].region;
        let region = exec.state.run.registry.region(binding.dad).unwrap();
        let fresh: Vec<usize> = exec
            .state
            .run
            .regions
            .iter()
            .map(|r| r.fresh.len())
            .collect();
        let sizes: Vec<usize> = (0..4).map(|p| region.size(p)).collect();
        (region.nchunks(), sizes, fresh, binding.deps.clone())
    };
    let first = shape(&exec);
    assert_eq!((first.0, &first.2), (1, &vec![1]), "one chunk, one flag");
    for _ in 0..50 {
        exec.execute_loop(&cp, "L1").unwrap();
    }
    assert_eq!(exec.report().inspector_runs, 51);
    // What a re-inspection reads is the chunk the first one appended.
    assert_eq!(shape(&exec), (first.0, first.1, first.2, vec![0]));
}
