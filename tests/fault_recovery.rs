//! Fault injection, detection and recovery, end-to-end through the
//! language executor on both engines (the pool with ranks striped over 3
//! lanes and with one lane per rank).
//!
//! The recovery contract is *discard and re-run*: a failed phase never
//! replayed its recorded charges onto the machine, and the executor restores
//! a pre-sweep (or checkpoint) snapshot before re-running, so a recovered
//! run must be **bit-identical** — array values, per-processor clock f64
//! bits, communication statistics, execution report — to a fault-free run
//! of the same program under the same recovery policy.

use chaos_repro::dmsim::{
    Backend, Counter, FaultKind, FaultPlan, MetricsRegistry, PhaseCause, PhaseError, PooledBackend,
    RankCtx,
};
use chaos_repro::lang::{CompiledProgram, LangError, RecoveryPolicy};
use chaos_repro::prelude::*;
use std::sync::{Arc, Mutex};
use std::time::Duration;

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

const NPROCS: usize = 4;
const SWEEPS: usize = 4;

fn program() -> CompiledProgram {
    lower_program(parse_program(EDGE_PROGRAM).unwrap()).unwrap()
}

/// Randomly connected edges so the inspector and executor move real
/// off-processor data.
fn inputs(nnode: usize, nedge: usize) -> ProgramInputs {
    let mut state = 0xFA_17u64;
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
    let x: Vec<f64> = (0..nnode).map(|i| (i as f64 * 0.41).sin() + 2.0).collect();
    ProgramInputs::new()
        .scalar("nnode", nnode)
        .scalar("nedge", nedge)
        .real("x", x)
        .real("y", vec![0.0; nnode])
        .int("end_pt1", e1)
        .int("end_pt2", e2)
}

/// Everything that must match between a recovered run and a fault-free one.
#[derive(Debug, PartialEq)]
struct Observation {
    y_bits: Vec<u64>,
    clock_bits: Vec<(u64, u64, u64)>,
    messages: usize,
    bytes: usize,
    phases: usize,
    comm_seconds_bits: u64,
    report: chaos_repro::lang::ExecReport,
    epoch: u64,
}

fn observe<B: Backend>(exec: &Executor<B>) -> Observation {
    let elapsed = exec.machine().elapsed();
    let stats = exec.machine().stats().grand_totals();
    Observation {
        y_bits: exec
            .real_global("y")
            .unwrap()
            .iter()
            .map(|v| v.to_bits())
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
        phases: stats.phases,
        comm_seconds_bits: stats.comm_seconds.to_bits(),
        report: exec.report().clone(),
        epoch: exec.machine().epoch(),
    }
}

/// Drive a full run plus `SWEEPS` extra executor sweeps and snapshot it.
fn drive<B: Backend>(
    exec: &mut Executor<B>,
    cp: &CompiledProgram,
) -> Result<Observation, LangError> {
    exec.run(cp)?;
    for _ in 0..SWEEPS {
        exec.execute_loop(cp, "L1")?;
    }
    Ok(observe(exec))
}

/// Epoch range spanned by the post-preamble sweeps under a given recovery
/// policy (faults scheduled inside this range hit the executor sweeps, not
/// the directive preamble; only a rollback policy's checkpoints move it).
fn sweep_epochs(cp: &CompiledProgram, policy: RecoveryPolicy) -> (u64, u64) {
    let mut probe = Executor::new(MachineConfig::ipsc860(NPROCS), inputs(120, 480))
        .with_recovery_policy(policy);
    probe.run(cp).unwrap();
    let start = probe.machine().epoch();
    for _ in 0..SWEEPS {
        probe.execute_loop(cp, "L1").unwrap();
    }
    (start, probe.machine().epoch())
}

/// The pool configurations every two-engine test runs: ranks striped over
/// fewer lanes, and one lane per rank (all ranks concurrently live).
const POOL_WORKERS: [usize; 2] = [3, NPROCS];

fn retry() -> RecoveryPolicy {
    RecoveryPolicy::RetryPhase { max_attempts: 3 }
}

#[test]
fn injected_panic_recovers_bit_identically_on_both_engines() {
    let cp = program();
    let (e0, e1) = sweep_epochs(&cp, retry());
    assert!(e1 > e0 + 2, "sweeps must span several epochs");
    let mid = e0 + (e1 - e0) / 2;
    let plan = || {
        Arc::new(
            FaultPlan::new()
                .with_fault(e0 + 1, 1, FaultKind::KernelPanic)
                .with_fault(mid, NPROCS - 1, FaultKind::KernelPanic),
        )
    };
    let cfg = || MachineConfig::ipsc860(NPROCS);
    let ins = || inputs(120, 480);

    let mut clean = Executor::new(cfg(), ins()).with_recovery_policy(retry());
    let want = drive(&mut clean, &cp).unwrap();

    let mut seq = Executor::new(cfg(), ins())
        .with_fault_plan(plan())
        .with_recovery_policy(retry());
    assert_eq!(drive(&mut seq, &cp).unwrap(), want, "sequential engine");

    for workers in POOL_WORKERS {
        let mut pool = Executor::new_pooled_with_workers(cfg(), workers, ins())
            .with_fault_plan(plan())
            .with_recovery_policy(retry());
        assert_eq!(drive(&mut pool, &cp).unwrap(), want, "pool/{workers}");
    }
}

#[test]
fn a_panic_in_an_inspections_dedup_recovers_bit_identically_on_both_engines() {
    // With reuse off every sweep re-inspects. This loop's placing group is
    // BLOCK, so an inspection opens two regions before its sweep: the
    // locate charge, then the dedup. The fault is planted on the dedup of
    // the first sweep after the preamble.
    let cp = program();
    let cfg = || MachineConfig::ipsc860(NPROCS);
    let ins = || inputs(120, 480);
    let mut probe = Executor::new(cfg(), ins()).with_reuse(false);
    probe.run(&cp).unwrap();
    let dedup = probe.machine().epoch() + 2;
    let plan = || Arc::new(FaultPlan::new().with_fault(dedup, 1, FaultKind::KernelPanic));

    // Unrecovered, the panic stops the inspection itself: nothing new is
    // saved, and the error names the dedup's epoch.
    let mut abort = Executor::new(cfg(), ins())
        .with_reuse(false)
        .with_fault_plan(plan());
    abort.run(&cp).unwrap();
    let err = abort.execute_loop(&cp, "L1").unwrap_err();
    assert!(
        matches!(err, LangError::Phase(PhaseError::RankPanic { epoch, .. }) if epoch == dedup),
        "{err:?}"
    );
    assert_eq!(
        abort.report().inspector_runs,
        1,
        "the failed inspection saved nothing"
    );

    let mut clean = Executor::new(cfg(), ins())
        .with_reuse(false)
        .with_recovery_policy(retry());
    let want = drive(&mut clean, &cp).unwrap();
    let plan_seq = plan();
    let mut seq = Executor::new(cfg(), ins())
        .with_reuse(false)
        .with_fault_plan(Arc::clone(&plan_seq))
        .with_recovery_policy(retry());
    assert_eq!(drive(&mut seq, &cp).unwrap(), want, "sequential engine");
    assert!(plan_seq.exhausted(), "the fault fired on Machine");
    for workers in POOL_WORKERS {
        let plan_pool = plan();
        let mut pool = Executor::new_pooled_with_workers(cfg(), workers, ins())
            .with_reuse(false)
            .with_fault_plan(Arc::clone(&plan_pool))
            .with_recovery_policy(retry());
        assert_eq!(drive(&mut pool, &cp).unwrap(), want, "pool/{workers}");
        assert!(plan_pool.exhausted(), "the fault fired on pool/{workers}");
    }
}

/// The barrier deadline of the tests that count diagnoses: long enough that
/// a lane delayed by other tests' threads on a 2-core host does not miss
/// it, so the only straggler is the injected one.
const DEADLINE: Duration = Duration::from_millis(50);

/// A stall of rank 0, well past [`DEADLINE`], in the fused sweep at the
/// middle sweep epoch. Rank 0 runs on a spawned worker lane (the driver
/// takes the last lane), so the stall leaves the driver lane waiting at the
/// sweep's stage crossing.
fn mid_sweep_stall(cp: &CompiledProgram, policy: RecoveryPolicy) -> (u64, Arc<FaultPlan>) {
    let (e0, e1) = sweep_epochs(cp, policy);
    let mid = e0 + (e1 - e0) / 2;
    let plan = FaultPlan::new()
        .with_stall(6 * DEADLINE)
        .with_fault(mid, 0, FaultKind::LaneStall);
    (mid, Arc::new(plan))
}

#[test]
fn stall_is_detected_by_the_pool_deadline_and_recovered_bit_identically() {
    let cp = program();
    let (_, plan) = mid_sweep_stall(&cp, retry());
    let cfg = || MachineConfig::ipsc860(NPROCS);
    let ins = || inputs(100, 400);

    let mut clean =
        Executor::new_pooled_with_workers(cfg(), 2, ins()).with_recovery_policy(retry());
    let want = drive(&mut clean, &cp).unwrap();

    let registry = Arc::new(MetricsRegistry::new(2));
    let mut pool = Executor::new_pooled_with_workers(cfg(), 2, ins())
        .with_barrier_deadline(DEADLINE)
        .with_fault_plan(plan)
        .with_metrics(Arc::clone(&registry))
        .with_recovery_policy(retry());
    assert_eq!(drive(&mut pool, &cp).unwrap(), want, "straggler recovery");
    // The stall was caught by the deadline, not merely waited out.
    let snap = registry.snapshot();
    assert_eq!(snap.counter(Counter::ErrorsDiagnosed), 1, "diagnoses");
    assert_eq!(snap.counter(Counter::RetryAttempts), 1, "retries");
}

#[test]
fn stall_in_a_fused_sweep_under_abort_is_a_straggler_error() {
    let cp = program();
    let (mid, plan) = mid_sweep_stall(&cp, RecoveryPolicy::Abort);
    let mut pool =
        Executor::new_pooled_with_workers(MachineConfig::ipsc860(NPROCS), 2, inputs(100, 400))
            .with_barrier_deadline(DEADLINE)
            .with_fault_plan(plan);
    pool.run(&cp).unwrap();
    // Every sweep advances one epoch: the sweeps before the stall's run
    // clean, and the one whose epoch it names fails.
    while pool.machine().epoch() + 1 < mid {
        pool.execute_loop(&cp, "L1").unwrap();
    }
    match pool.execute_loop(&cp, "L1").unwrap_err() {
        LangError::Phase(PhaseError::Straggler {
            epoch,
            rank: 0,
            lane: 0,
            ..
        }) => assert_eq!(epoch, mid),
        other => panic!("expected a straggler at rank 0, lane 0, got {other:?}"),
    }
}

#[test]
fn stall_without_a_deadline_is_harmless_wall_clock_delay() {
    // No barrier deadline armed: the stall slows the real run but charges
    // nothing to the modeled clocks, so the run completes identically with
    // no error.
    let cp = program();
    let (e0, e1) = sweep_epochs(&cp, RecoveryPolicy::Abort);
    let mid = e0 + (e1 - e0) / 2;
    let plan = Arc::new(
        FaultPlan::new()
            .with_stall(Duration::from_millis(30))
            .with_fault(mid, 1, FaultKind::LaneStall),
    );
    let cfg = || MachineConfig::ipsc860(NPROCS);
    let ins = || inputs(100, 400);

    let mut clean = Executor::new(cfg(), ins());
    let want = drive(&mut clean, &cp).unwrap();

    let mut seq = Executor::new(cfg(), ins()).with_fault_plan(plan);
    assert_eq!(drive(&mut seq, &cp).unwrap(), want);
}

#[test]
fn abort_policy_surfaces_a_typed_phase_error() {
    let cp = program();
    let (e0, _) = sweep_epochs(&cp, RecoveryPolicy::Abort);
    let plan = Arc::new(FaultPlan::new().with_fault(e0 + 1, 2, FaultKind::KernelPanic));
    let mut exec = Executor::new(MachineConfig::ipsc860(NPROCS), inputs(120, 480))
        .with_fault_plan(Arc::clone(&plan));
    exec.run(&cp).unwrap();
    let err = exec.execute_loop(&cp, "L1").unwrap_err();
    match err {
        LangError::Phase(PhaseError::RankPanic { epoch, failures }) => {
            assert_eq!(epoch, e0 + 1);
            assert_eq!(failures.len(), 1);
            assert_eq!(failures[0].rank, Some(2));
        }
        other => panic!("expected a typed RankPanic, got {other:?}"),
    }
    assert!(plan.exhausted(), "the fault was consumed");
}

#[test]
fn abort_leaves_every_array_in_place_and_the_loop_runnable() {
    // The sweep borrows arrays, the loop's record and the region rows in
    // place, so the unwind of an aborted FORALL cannot take any of them
    // with it: arrays the loop does not write are untouched, the written
    // one is still there (holding some part of the interrupted sweep), and
    // the loop runs again — the fault is consumed.
    fn check<B: Backend>(mut exec: Executor<B>, cp: &CompiledProgram, engine: &str) {
        exec.run(cp).unwrap();
        let x_before = exec.real_global("x").unwrap();
        let sweeps = exec.report().loop_sweeps;
        let err = exec.execute_loop(cp, "L1").unwrap_err();
        assert!(
            matches!(err, LangError::Phase(PhaseError::RankPanic { .. })),
            "{engine}: {err:?}"
        );
        let x_after = exec.real_global("x").expect("x is still materialized");
        assert!(
            x_before
                .iter()
                .zip(&x_after)
                .all(|(a, b)| a.to_bits() == b.to_bits()),
            "{engine}: an array the loop only reads changed"
        );
        assert!(exec.real_global("y").is_some(), "{engine}: y was lost");
        assert_eq!(exec.report().loop_sweeps, sweeps, "{engine}");
        exec.execute_loop(cp, "L1")
            .unwrap_or_else(|e| panic!("{engine}: the loop must run again, got {e:?}"));
        assert_eq!(exec.report().loop_sweeps, sweeps + 1, "{engine}");
        assert_eq!(
            exec.report().inspector_runs,
            1,
            "{engine}: the record survived"
        );
    }
    let cp = program();
    let (e0, _) = sweep_epochs(&cp, RecoveryPolicy::Abort);
    let plan = || Arc::new(FaultPlan::new().with_fault(e0 + 1, 2, FaultKind::KernelPanic));
    let cfg = || MachineConfig::ipsc860(NPROCS);
    let ins = || inputs(120, 480);
    check(
        Executor::new(cfg(), ins()).with_fault_plan(plan()),
        &cp,
        "machine",
    );
    for workers in POOL_WORKERS {
        let pool = Executor::new_pooled_with_workers(cfg(), workers, ins());
        check(
            pool.with_fault_plan(plan()),
            &cp,
            &format!("pool/{workers}"),
        );
    }
}

/// The sequential engine, except that its fused sweep number `panic_at`
/// (counting from 0) panics at entry: an organic failure, not an injected
/// fault.
struct FlakySweep {
    machine: Machine,
    sweeps: usize,
    panic_at: usize,
}

impl Backend for FlakySweep {
    fn machine(&self) -> &Machine {
        &self.machine
    }

    fn machine_mut(&mut self) -> &mut Machine {
        &mut self.machine
    }

    fn fan_out<St, I, F>(&mut self, state: I, kernel: F)
    where
        St: Send,
        I: IntoIterator<Item = St>,
        F: Fn(&mut RankCtx<'_>, St) + Sync,
    {
        self.machine.fan_out(state, kernel);
    }

    fn run_sweep<Sc, Px, C, A, P, S>(
        &mut self,
        scratch: &mut [Sc],
        posted: &mut [Px],
        compute: C,
        nscatter: usize,
        scatter_active: A,
        scatter_pack: P,
        combine: S,
    ) where
        Sc: Send,
        Px: Send + Sync,
        C: Fn(&mut RankCtx<'_>, &mut Sc, &mut Px) + Sync,
        A: Fn(&[Px], usize) -> bool + Sync,
        P: Fn(&mut RankCtx<'_>, usize),
        S: Fn(&mut RankCtx<'_>, usize, &mut Sc, &[Px]) + Sync,
    {
        let sweep = self.sweeps;
        self.sweeps += 1;
        if sweep == self.panic_at {
            panic!("organic sweep failure");
        }
        self.machine.run_sweep(
            scratch,
            posted,
            compute,
            nscatter,
            scatter_active,
            scatter_pack,
            combine,
        );
    }
}

#[test]
fn organic_panic_under_the_default_policy_is_a_typed_error() {
    // No fault plan and the default `Abort`: a panic inside the FORALL is
    // still caught and diagnosed, not unwound through `Executor::run`. With
    // as many edges as nodes, `y` and the indirection arrays share one DAD,
    // so every stamp of `y` invalidates the loop's saved inspection: the
    // sweep after the failure re-inspects only if the failed one stamped
    // its writes.
    let cp = program();
    let cfg = || MachineConfig::ipsc860(NPROCS);
    let ins = || inputs(120, 120);
    let mut clean = Executor::new(cfg(), ins());
    clean.run(&cp).unwrap();
    clean.execute_loop(&cp, "L1").unwrap();
    assert_eq!(clean.report().inspector_runs, 2, "every sweep re-inspects");

    let flaky = FlakySweep {
        machine: Machine::new(cfg()),
        sweeps: 0,
        panic_at: 1,
    };
    let mut exec = Executor::with_backend(flaky, ins());
    exec.run(&cp).unwrap();
    let entry_kind = exec.machine().stats().current_kind();
    let err = exec.execute_loop(&cp, "L1").unwrap_err();
    match &err {
        LangError::Phase(PhaseError::RankPanic { failures, .. }) => {
            assert_eq!(failures.len(), 1, "{err}");
            assert!(
                matches!(&failures[0].cause, PhaseCause::Panic(m) if m.contains("organic")),
                "{err}"
            );
        }
        other => panic!("expected a typed RankPanic, got {other:?}"),
    }
    assert_eq!(
        exec.machine().stats().current_kind(),
        entry_kind,
        "the entry phase kind is back"
    );

    let inspections = exec.report().inspector_runs;
    exec.execute_loop(&cp, "L1").unwrap();
    assert_eq!(
        exec.report().inspector_runs,
        inspections + 1,
        "the failed sweep stamped y"
    );
    assert_eq!(exec.report().loop_sweeps, clean.report().loop_sweeps);
    assert_eq!(
        exec.real_global("y"),
        clean.real_global("y"),
        "the sweep after the failure matches the fault-free run"
    );
}

#[test]
fn exhausted_retry_restores_the_pre_sweep_state() {
    // RetryPhase holds a pre-sweep snapshot; when it runs out of attempts
    // the snapshot is restored *before* the error is returned, so the
    // caller sees exactly the state the failed sweep started from and the
    // next sweep lands on the fault-free run's bits.
    fn check<B: Backend>(
        exec: Executor<B>,
        cp: &CompiledProgram,
        want: &Observation,
        engine: &str,
    ) {
        let mut exec = exec.with_recovery_policy(RecoveryPolicy::RetryPhase { max_attempts: 0 });
        exec.run(cp).unwrap();
        let before = observe(&exec);
        let err = exec.execute_loop(cp, "L1").unwrap_err();
        assert!(
            matches!(err, LangError::Phase(PhaseError::RankPanic { .. })),
            "{engine}: {err:?}"
        );
        assert_eq!(observe(&exec), before, "{engine}: pre-sweep state");
        exec.execute_loop(cp, "L1").unwrap();
        assert_eq!(&observe(&exec), want, "{engine}: the sweep after giving up");
    }
    let cp = program();
    let (e0, _) = sweep_epochs(&cp, RecoveryPolicy::Abort);
    let plan = || Arc::new(FaultPlan::new().with_fault(e0 + 1, 0, FaultKind::KernelPanic));
    let cfg = || MachineConfig::ipsc860(NPROCS);
    let ins = || inputs(120, 480);

    let mut clean = Executor::new(cfg(), ins())
        .with_recovery_policy(RecoveryPolicy::RetryPhase { max_attempts: 0 });
    clean.run(&cp).unwrap();
    clean.execute_loop(&cp, "L1").unwrap();
    let want = observe(&clean);

    check(
        Executor::new(cfg(), ins()).with_fault_plan(plan()),
        &cp,
        &want,
        "machine",
    );
    for workers in POOL_WORKERS {
        let pool = Executor::new_pooled_with_workers(cfg(), workers, ins());
        check(
            pool.with_fault_plan(plan()),
            &cp,
            &want,
            &format!("pool/{workers}"),
        );
    }
}

#[test]
fn rollback_restores_the_resident_ghost_values_with_the_arrays() {
    // Region values are snapshot state. L2 reads x through ghosts L1 already
    // fetched, so whether its gather is incremental depends on the resident
    // rows' freshness: after L3 rewrites x the first L2 refetches in full,
    // and once L1 has gathered again the next L2 fetches nothing. A fault in
    // that last L2 rolls back to a checkpoint taken just after L3 — where
    // the rows were stale — and replays L2, L1: had the rollback kept the
    // *later* rows, the replayed L2 would skip its refetch and the recovered
    // run's traffic would not be the fault-free run's.
    const THREE_LOOPS: &str = r#"
        REAL*8 x(nnode), y(nnode), z(nnode)
        INTEGER end_pt1(nedge), end_pt2(nedge)
        DYNAMIC, DECOMPOSITION reg(nnode), reg2(nedge)
        DISTRIBUTE reg(BLOCK)
        DISTRIBUTE reg2(BLOCK)
        ALIGN x, y, z WITH reg
        ALIGN end_pt1, end_pt2 WITH reg2
        CALL READ_DATA(x, y, z, end_pt1, end_pt2)
        FORALL i = 1, nedge
          REDUCE(ADD, y(end_pt1(i)), x(end_pt2(i)))
        END FORALL
        FORALL i = 1, nedge
          REDUCE(ADD, z(end_pt2(i)), x(end_pt1(i)))
        END FORALL
        FORALL i = 1, nnode
          x(i) = x(i) * 0.5 + 1.0
        END FORALL
    "#;
    const EVERY: u64 = 3;
    const TAIL: [&str; 3] = ["L2", "L1", "L2"];
    /// Values of y and z, clocks, traffic, report and epoch after the tail.
    fn finish<B: Backend>(mut exec: Executor<B>, cp: &CompiledProgram) -> (Observation, Vec<u64>) {
        exec.run(cp).unwrap();
        for label in TAIL {
            exec.execute_loop(cp, label).unwrap();
        }
        let z = exec.real_global("z").unwrap();
        (observe(&exec), z.iter().map(|v| v.to_bits()).collect())
    }
    let cp = lower_program(parse_program(THREE_LOOPS).unwrap()).unwrap();
    let cfg = || MachineConfig::ipsc860(NPROCS);
    let ins = || inputs(120, 480).real("z", vec![0.0; 120]);

    // The fault-free run, which also locates the last loop's sweep epoch
    // and checks the scenario is the one described.
    let rollback = || RecoveryPolicy::RollbackToCheckpoint { every: EVERY };
    let mut clean = Executor::new(cfg(), ins()).with_recovery_policy(rollback());
    clean.run(&cp).unwrap();
    let tail_start = clean.machine().epoch();
    let mut messages = Vec::new();
    let mut last_sweep = 0;
    for label in TAIL {
        let sent = clean.machine().stats().grand_totals().messages;
        clean.execute_loop(&cp, label).unwrap();
        messages.push(clean.machine().stats().grand_totals().messages - sent);
        last_sweep = clean.machine().epoch();
    }
    assert!(
        messages[0] > messages[2],
        "the first L2 refetches x, the last finds it resident: {messages:?}"
    );
    assert_eq!(
        last_sweep,
        tail_start + 4,
        "three sweeps and one checkpoint refresh, due before the first"
    );
    let want = finish(
        Executor::new(cfg(), ins()).with_recovery_policy(rollback()),
        &cp,
    );
    assert_eq!(want.0.epoch, last_sweep);

    let plan = || Arc::new(FaultPlan::new().with_fault(last_sweep, 1, FaultKind::KernelPanic));
    let seq = Executor::new(cfg(), ins())
        .with_fault_plan(plan())
        .with_recovery_policy(rollback());
    assert_eq!(finish(seq, &cp), want, "sequential engine");
    let pool = Executor::new_pooled_with_workers(cfg(), 3, ins())
        .with_fault_plan(plan())
        .with_recovery_policy(rollback());
    assert_eq!(finish(pool, &cp), want, "pool/3");
}

#[test]
fn rollback_to_checkpoint_recovers_bit_identically() {
    const EVERY: u64 = 6;
    let rollback = || RecoveryPolicy::RollbackToCheckpoint { every: EVERY };
    let cp = program();
    let (e0, e1) = sweep_epochs(&cp, rollback());
    let late = e0 + 3 * (e1 - e0) / 4;
    let plan = || Arc::new(FaultPlan::new().with_fault(late, 2, FaultKind::KernelPanic));
    let cfg = || MachineConfig::ipsc860(NPROCS);
    let ins = || inputs(120, 480);

    let mut clean = Executor::new(cfg(), ins()).with_recovery_policy(rollback());
    let want = drive(&mut clean, &cp).unwrap();

    let mut seq = Executor::new(cfg(), ins())
        .with_fault_plan(plan())
        .with_recovery_policy(rollback());
    assert_eq!(drive(&mut seq, &cp).unwrap(), want, "sequential engine");

    for workers in POOL_WORKERS {
        let mut pool = Executor::new_pooled_with_workers(cfg(), workers, ins())
            .with_fault_plan(plan())
            .with_recovery_policy(rollback());
        assert_eq!(drive(&mut pool, &cp).unwrap(), want, "pool/{workers}");
    }
}

#[test]
fn rollback_recovers_a_fault_inside_a_checkpoint_refresh() {
    // A refresh is a charged SPMD phase, so a fault can fire inside it. The
    // rollback then restores the previous checkpoint, replays the sweeps
    // journalled since it and reruns the failed FORALL, whose refresh must
    // re-copy and charge exactly the arrays the fault-free refresh did.
    const EVERY: u64 = 2;
    let rollback = || RecoveryPolicy::RollbackToCheckpoint { every: EVERY };
    let cp = program();
    let cfg = || MachineConfig::ipsc860(NPROCS);
    let ins = || inputs(120, 480);

    // A sweep that spans two epochs ran a refresh in the first of them.
    let mut clean = Executor::new(cfg(), ins()).with_recovery_policy(rollback());
    clean.run(&cp).unwrap();
    let mut refresh = None;
    for _ in 0..SWEEPS {
        let before = clean.machine().epoch();
        clean.execute_loop(&cp, "L1").unwrap();
        if clean.machine().epoch() == before + 2 {
            refresh.get_or_insert(before + 1);
        }
    }
    let refresh = refresh.expect("a refresh falls due among the sweeps");
    let want = observe(&clean);

    let plan = || Arc::new(FaultPlan::new().with_fault(refresh, 1, FaultKind::KernelPanic));
    let mut seq = Executor::new(cfg(), ins())
        .with_fault_plan(plan())
        .with_recovery_policy(rollback());
    assert_eq!(drive(&mut seq, &cp).unwrap(), want, "sequential engine");
    for workers in POOL_WORKERS {
        let plan = plan();
        let mut pool = Executor::new_pooled_with_workers(cfg(), workers, ins())
            .with_fault_plan(Arc::clone(&plan))
            .with_recovery_policy(rollback());
        assert_eq!(drive(&mut pool, &cp).unwrap(), want, "pool/{workers}");
        assert!(plan.exhausted(), "the fault fired inside the refresh");
    }
}

#[test]
fn checkpoint_cadence_leaves_values_untouched() {
    // Checkpointing only copies state and charges the modeled scan cost:
    // against the same program under `Abort`, which keeps no checkpoint, the
    // result array and the execution report are identical, no message is
    // added, and every processor's modeled clock is at least what it was —
    // the scan charge is the only permitted difference.
    const EVERY: u64 = 6;
    fn check<B: Backend>(make: impl Fn() -> Executor<B>, cp: &CompiledProgram) -> Observation {
        let off = drive(&mut make(), cp).unwrap();
        let rollback = RecoveryPolicy::RollbackToCheckpoint { every: EVERY };
        let on = drive(&mut make().with_recovery_policy(rollback), cp).unwrap();
        assert_eq!(off.y_bits, on.y_bits, "values perturbed by checkpointing");
        assert_eq!(off.report, on.report);
        assert_eq!((off.messages, off.bytes), (on.messages, on.bytes));
        assert!(on.epoch > off.epoch, "at least one refresh epoch ran");
        for (p, (a, b)) in off.clock_bits.iter().zip(&on.clock_bits).enumerate() {
            assert!(
                f64::from_bits(b.0) >= f64::from_bits(a.0),
                "proc {p}: checkpointing made the modeled clock go backwards"
            );
        }
        on
    }
    let cp = program();
    let cfg = || MachineConfig::ipsc860(NPROCS);
    let ins = || inputs(120, 480);
    let seq = check(|| Executor::new(cfg(), ins()), &cp);
    for workers in POOL_WORKERS {
        let pool = || Executor::new_pooled_with_workers(cfg(), workers, ins());
        let pooled = check(pool, &cp);
        assert_eq!(pooled, seq, "checkpointed run diverged on pool/{workers}");
    }
}

#[test]
fn degrade_to_machine_recovers_bit_identically() {
    let cp = program();
    let (e0, e1) = sweep_epochs(&cp, RecoveryPolicy::DegradeToMachine);
    let mid = e0 + (e1 - e0) / 2;
    let plan = || Arc::new(FaultPlan::new().with_fault(mid, 1, FaultKind::KernelPanic));
    let cfg = || MachineConfig::ipsc860(NPROCS);
    let ins = || inputs(100, 400);

    let mut clean =
        Executor::new(cfg(), ins()).with_recovery_policy(RecoveryPolicy::DegradeToMachine);
    let want = drive(&mut clean, &cp).unwrap();

    // After the failure the pooled engine falls back to inline sequential
    // execution — still bit-identical by the engine-equivalence contract.
    for workers in POOL_WORKERS {
        let mut pool = Executor::new_pooled_with_workers(cfg(), workers, ins())
            .with_fault_plan(plan())
            .with_recovery_policy(RecoveryPolicy::DegradeToMachine);
        assert_eq!(drive(&mut pool, &cp).unwrap(), want, "pool/{workers}");
    }
}

#[test]
fn retry_attempts_are_bounded() {
    // max_attempts = 0 means the first failure is final even under
    // RetryPhase.
    let cp = program();
    let (e0, _) = sweep_epochs(&cp, retry());
    let plan = Arc::new(FaultPlan::new().with_fault(e0 + 1, 0, FaultKind::KernelPanic));
    let mut exec = Executor::new(MachineConfig::ipsc860(NPROCS), inputs(120, 480))
        .with_fault_plan(plan)
        .with_recovery_policy(RecoveryPolicy::RetryPhase { max_attempts: 0 });
    exec.run(&cp).unwrap();
    let err = exec.execute_loop(&cp, "L1").unwrap_err();
    assert!(matches!(
        err,
        LangError::Phase(PhaseError::RankPanic { .. })
    ));
}

#[test]
fn panics_and_a_stall_in_one_pooled_run_recover_bit_identically() {
    // The acceptance scenario: one pooled run with two injected panics and a
    // stall (caught by the barrier deadline), all recovered, final state
    // bit-identical to fault-free.
    let cp = program();
    let (e0, e1) = sweep_epochs(&cp, retry());
    assert!(e1 - e0 >= 4, "need at least four sweep epochs");
    let span = e1 - e0;
    let plan = Arc::new(
        FaultPlan::new()
            .with_stall(6 * DEADLINE)
            .with_fault(e0 + 1, 1, FaultKind::KernelPanic)
            .with_fault(e0 + span / 2, 0, FaultKind::LaneStall)
            .with_fault(e0 + 3 * span / 4, 2, FaultKind::KernelPanic),
    );
    let cfg = || MachineConfig::ipsc860(NPROCS);
    let ins = || inputs(140, 560);

    let mut clean =
        Executor::new_pooled_with_workers(cfg(), 2, ins()).with_recovery_policy(retry());
    let want = drive(&mut clean, &cp).unwrap();

    let registry = Arc::new(MetricsRegistry::new(2));
    let mut pool = Executor::new_pooled_with_workers(cfg(), 2, ins())
        .with_barrier_deadline(DEADLINE)
        .with_fault_plan(Arc::clone(&plan))
        .with_metrics(Arc::clone(&registry))
        .with_recovery_policy(retry());
    assert_eq!(drive(&mut pool, &cp).unwrap(), want);
    assert!(plan.exhausted(), "every scheduled fault fired");
    // Two panics and the straggler, each recovered by one retry.
    assert_eq!(registry.snapshot().counter(Counter::RetryAttempts), 3);
}

#[test]
fn panic_inside_a_fused_sweep_recovers_bit_identically() {
    let cp = program();
    let (e0, e1) = sweep_epochs(&cp, retry());
    assert_eq!(
        e1 - e0,
        SWEEPS as u64,
        "the fused sweep advances exactly one epoch per sweep"
    );

    // A fault inside a fused sweep fires at the compute entry of the single
    // gather→compute→scatter epoch; nothing replays onto the machine and
    // RetryPhase re-runs the whole sweep from the pre-sweep snapshot.
    let target = e0 + 2;
    let plan = || Arc::new(FaultPlan::new().with_fault(target, 2, FaultKind::KernelPanic));
    let cfg = || MachineConfig::ipsc860(NPROCS);
    let ins = || inputs(120, 480);

    let mut clean = Executor::new(cfg(), ins()).with_recovery_policy(retry());
    let want = drive(&mut clean, &cp).unwrap();

    let mut seq = Executor::new(cfg(), ins())
        .with_fault_plan(plan())
        .with_recovery_policy(retry());
    assert_eq!(drive(&mut seq, &cp).unwrap(), want, "sequential engine");

    for workers in POOL_WORKERS {
        let mut pool = Executor::new_pooled_with_workers(cfg(), workers, ins())
            .with_fault_plan(plan())
            .with_recovery_policy(retry());
        assert_eq!(drive(&mut pool, &cp).unwrap(), want, "pool/{workers}");
    }
}

#[test]
fn machine_backend_is_the_degraded_target_already() {
    // DegradeToMachine on the sequential engine: degrade() is a no-op that
    // reports success, and the retry still recovers.
    let cp = program();
    let (e0, _) = sweep_epochs(&cp, RecoveryPolicy::DegradeToMachine);
    let plan = Arc::new(FaultPlan::new().with_fault(e0 + 1, 0, FaultKind::KernelPanic));
    let cfg = || MachineConfig::ipsc860(NPROCS);

    let mut clean = Executor::new(cfg(), inputs(80, 320))
        .with_recovery_policy(RecoveryPolicy::DegradeToMachine);
    let want = drive(&mut clean, &cp).unwrap();

    let mut seq = Executor::new(cfg(), inputs(80, 320))
        .with_fault_plan(plan)
        .with_recovery_policy(RecoveryPolicy::DegradeToMachine);
    assert_eq!(drive(&mut seq, &cp).unwrap(), want);
}

/// The pool, logging the `(rank, lane)` of every straggler report it hands
/// to the executor's recovery.
struct LoggedPool {
    pool: PooledBackend,
    stragglers: Arc<Mutex<Vec<(usize, usize)>>>,
}

impl Backend for LoggedPool {
    fn machine(&self) -> &Machine {
        self.pool.machine()
    }

    fn machine_mut(&mut self) -> &mut Machine {
        self.pool.machine_mut()
    }

    fn fan_out<St, I, F>(&mut self, state: I, kernel: F)
    where
        St: Send,
        I: IntoIterator<Item = St>,
        F: Fn(&mut RankCtx<'_>, St) + Sync,
    {
        self.pool.fan_out(state, kernel);
    }

    fn run_sweep<Sc, Px, C, A, P, S>(
        &mut self,
        scratch: &mut [Sc],
        posted: &mut [Px],
        compute: C,
        nscatter: usize,
        scatter_active: A,
        scatter_pack: P,
        combine: S,
    ) where
        Sc: Send,
        Px: Send + Sync,
        C: Fn(&mut RankCtx<'_>, &mut Sc, &mut Px) + Sync,
        A: Fn(&[Px], usize) -> bool + Sync,
        P: Fn(&mut RankCtx<'_>, usize),
        S: Fn(&mut RankCtx<'_>, usize, &mut Sc, &[Px]) + Sync,
    {
        self.pool.run_sweep(
            scratch,
            posted,
            compute,
            nscatter,
            scatter_active,
            scatter_pack,
            combine,
        );
    }

    fn take_phase_flaw(&mut self) -> Option<PhaseError> {
        let flaw = self.pool.take_phase_flaw();
        if let Some(PhaseError::Straggler { rank, lane, .. }) = &flaw {
            self.stragglers.lock().unwrap().push((*rank, *lane));
        }
        flaw
    }

    fn degrade(&mut self) -> bool {
        self.pool.degrade()
    }
}

#[test]
fn seeded_panics_and_stalls_on_1_to_16_lanes_recover_bit_identically() {
    // One case per lane count 1..=16, each over 2..=16 ranks (so lanes
    // outnumber both the ranks and the cores in many cases) and a seeded
    // schedule of kernel panics and 2-20 ms lane stalls under a 10 ms barrier
    // deadline (the shorter stalls are delays only). Even cases reuse the inspection, so every fault lands in a
    // fused sweep; odd cases re-inspect before each sweep, so faults land in
    // the inspector's plain fan-outs too. Every recovered run must equal the
    // fault-free sequential run: values, clock bits and statistics.
    let cp = program();
    // A loaded host can make a lane miss the deadline without a stall;
    // that is one more recovered straggler, so allow every retry the
    // executor's overall cap of 32 attempts leaves.
    let policy = RecoveryPolicy::RetryPhase { max_attempts: 31 };
    let mut state = 0x5EED_u64;
    let mut next = |m: u64| -> u64 {
        state = state
            .wrapping_mul(6364136223846793005)
            .wrapping_add(1442695040888963407);
        (state >> 33) % m
    };
    let stragglers = Arc::new(Mutex::new(Vec::new()));
    let mut diagnosed = 0;
    for workers in 1..=16usize {
        let nprocs = 2 + next(15) as usize;
        let reuse = workers % 2 == 0;
        let cfg = || MachineConfig::unit(nprocs);
        let ins = || inputs(60, 240);
        let at = format!("{nprocs} ranks on {workers} lanes, reuse {reuse}");

        let mut clean = Executor::new(cfg(), ins())
            .with_reuse(reuse)
            .with_recovery_policy(policy);
        clean.run(&cp).unwrap();
        let e0 = clean.machine().epoch();
        for _ in 0..SWEEPS {
            clean.execute_loop(&cp, "L1").unwrap();
        }
        let want = observe(&clean);
        let span = clean.machine().epoch() - e0;

        let mut plan = FaultPlan::new().with_stall(Duration::from_millis(2 + next(19)));
        for _ in 0..1 + next(3) {
            let kind = match next(2) {
                0 => FaultKind::KernelPanic,
                _ => FaultKind::LaneStall,
            };
            plan = plan.with_fault(e0 + 1 + next(span), next(nprocs as u64) as usize, kind);
        }
        let mut pool = PooledBackend::from_config_with_workers(cfg(), workers);
        pool.set_barrier_deadline(Duration::from_millis(10));
        let logged = LoggedPool {
            pool,
            stragglers: Arc::clone(&stragglers),
        };
        let plan = Arc::new(plan);
        let mut exec = Executor::with_backend(logged, ins())
            .with_reuse(reuse)
            .with_fault_plan(Arc::clone(&plan))
            .with_recovery_policy(policy);
        assert_eq!(drive(&mut exec, &cp).unwrap(), want, "{at}");
        assert!(plan.exhausted(), "{at}: every scheduled fault fired");
        let mut log = stragglers.lock().unwrap();
        for &(rank, lane) in log.iter() {
            assert!(rank < nprocs, "{at}: straggler rank {rank}");
            // A lane past the last rank has an empty stripe; the last rank
            // stands in for it.
            if lane < nprocs {
                assert_eq!(
                    rank % workers,
                    lane,
                    "{at}: rank {rank} is not lane {lane}'s"
                );
            }
        }
        diagnosed += log.len();
        log.clear();
    }
    assert!(diagnosed > 0, "no stall outlasted the deadline");
}
