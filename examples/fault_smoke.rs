//! Fault-injection smoke test: the mesh and MD sweeps survive a seeded
//! schedule of two kernel panics and a lane stall, and the recovered runs
//! are **bit-identical** to fault-free runs under the same recovery policy.
//!
//! Both cases run the Fortran-D-like template through the worker-pool
//! engine. The mesh case recovers via `RetryPhase` (discard the failed
//! phase's ledgers, restore the pre-sweep snapshot, re-run); the MD pair
//! sweep recovers via `RollbackToCheckpoint { every: 8 }` (checkpoint every
//! 8 epochs; restore the last checkpoint, replay the journaled sweeps). The
//! pool's barrier deadline is armed, and the stall lands in a fused sweep's
//! compute stage, where the driver lane waits at the stage crossing under
//! that deadline: the run reports three diagnosed errors (two panics and a
//! straggler), each recovered by one retry.
//!
//! Run with `cargo run --example fault_smoke --release`.

use chaos_lang::{
    lower_program, parse_program, Counter, Executor, FaultKind, FaultPlan, MetricsRegistry,
    ProgramInputs, RecoveryPolicy,
};
use chaos_repro::dmsim::serde_json::{self, Value};
use chaos_repro::dmsim::TraceSink;
use chaos_repro::prelude::*;
use std::sync::Arc;
use std::time::Duration;

const EDGE_TEMPLATE: &str = r#"
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

const NPROCS: usize = 8;
const WORKERS: usize = 4;
const SWEEPS: usize = 10;
const CHECKPOINT_EVERY: u64 = 8;

struct CaseResult {
    y: Vec<f64>,
    clocks: Vec<f64>,
    messages: usize,
    bytes: usize,
    epoch: u64,
}

/// Run preamble + sweeps on a fresh pooled executor under `policy`;
/// optionally inject the fault schedule and/or install a trace sink
/// (tracing must never change the result — the traced case below is
/// asserted bit-identical to the untraced one).
fn run_case(
    inputs: &ProgramInputs,
    policy: RecoveryPolicy,
    faults: Option<Arc<FaultPlan>>,
    trace: Option<Arc<TraceSink>>,
    metrics: Option<Arc<MetricsRegistry>>,
) -> CaseResult {
    let cp = lower_program(parse_program(EDGE_TEMPLATE).expect("parse")).expect("lower");
    let mut exec =
        Executor::new_pooled_with_workers(MachineConfig::ipsc860(NPROCS), WORKERS, inputs.clone())
            .with_barrier_deadline(Duration::from_millis(10))
            .with_recovery_policy(policy);
    if let Some(plan) = faults {
        exec = exec.with_fault_plan(plan);
    }
    if let Some(sink) = trace {
        exec = exec.with_trace(sink);
    }
    if let Some(registry) = metrics {
        exec = exec.with_metrics(registry);
    }
    exec.run(&cp).expect("program runs");
    for _ in 0..SWEEPS {
        exec.execute_loop(&cp, "L1").expect("sweep");
    }
    let elapsed = exec.machine().elapsed();
    let stats = exec.machine().stats().grand_totals();
    CaseResult {
        y: exec.real_global("y").expect("y"),
        clocks: elapsed.per_proc.clone(),
        messages: stats.messages,
        bytes: stats.bytes,
        epoch: exec.machine().epoch(),
    }
}

/// Epochs spanned by the sweeps (past the directive preamble), probed on a
/// fault-free executor under the same recovery policy.
fn sweep_epochs(inputs: &ProgramInputs, policy: RecoveryPolicy) -> (u64, u64) {
    let cp = lower_program(parse_program(EDGE_TEMPLATE).expect("parse")).expect("lower");
    let mut probe =
        Executor::new(MachineConfig::ipsc860(NPROCS), inputs.clone()).with_recovery_policy(policy);
    probe.run(&cp).expect("program runs");
    let start = probe.machine().epoch();
    for _ in 0..SWEEPS {
        probe.execute_loop(&cp, "L1").expect("sweep");
    }
    (start, probe.machine().epoch())
}

/// A panic, a stall and a second panic, spread across the sweep epochs.
fn smoke_plan(e0: u64, e1: u64) -> Arc<FaultPlan> {
    let span = e1 - e0;
    Arc::new(
        FaultPlan::new()
            .with_stall(Duration::from_millis(60))
            .with_fault(e0 + 1, 1, FaultKind::KernelPanic)
            .with_fault(e0 + span / 2, 0, FaultKind::LaneStall)
            .with_fault(e0 + 3 * span / 4, NPROCS - 1, FaultKind::KernelPanic),
    )
}

fn assert_bit_identical(name: &str, clean: &CaseResult, recovered: &CaseResult) {
    assert_eq!(clean.epoch, recovered.epoch, "{name}: epoch diverged");
    for (i, (a, b)) in clean.y.iter().zip(&recovered.y).enumerate() {
        assert_eq!(a.to_bits(), b.to_bits(), "{name}: y[{i}] diverged");
    }
    for (p, (a, b)) in clean.clocks.iter().zip(&recovered.clocks).enumerate() {
        assert_eq!(a.to_bits(), b.to_bits(), "{name}: clock[{p}] diverged");
    }
    assert_eq!(clean.messages, recovered.messages, "{name}: messages");
    assert_eq!(clean.bytes, recovered.bytes, "{name}: bytes");
    println!(
        "{name}: recovered run bit-identical to fault-free run \
         ({} values, {} ranks, {} messages, epoch {})",
        clean.y.len(),
        clean.clocks.len(),
        clean.messages,
        clean.epoch
    );
}

/// Validate the exported Chrome trace: the JSON value tree has the trace
/// event array with one object per retained event, every event carries the
/// keys `chrome://tracing` requires (`name`, `ph`, `pid`, `tid`, `ts`), and
/// the serialized string is non-trivial. Prints the per-lane summary table.
fn validate_chrome_trace(sink: &TraceSink) {
    let doc = sink.chrome_trace();
    let Value::Object(fields) = &doc else {
        panic!("chrome trace must serialize as a JSON object");
    };
    let events = fields
        .iter()
        .find(|(k, _)| k == "traceEvents")
        .map(|(_, v)| v)
        .expect("chrome trace must carry a traceEvents key");
    let Value::Array(items) = events else {
        panic!("traceEvents must be an array");
    };
    assert!(!items.is_empty(), "traced run exported no events");
    let mut spans = 0usize;
    for item in items {
        let Value::Object(event) = item else {
            panic!("every trace event must be an object");
        };
        for key in ["name", "ph", "pid", "tid", "ts"] {
            assert!(
                event.iter().any(|(k, _)| k == key),
                "trace event is missing the required key {key:?}"
            );
        }
        if event
            .iter()
            .any(|(k, v)| k == "ph" && matches!(v, Value::Str(s) if s == "B"))
        {
            spans += 1;
        }
    }
    assert!(spans > 0, "the exported trace contains no duration spans");
    let serialized = serde_json::to_string(&doc).expect("chrome trace serializes");
    assert!(
        serialized.starts_with('{') && serialized.ends_with('}'),
        "chrome trace JSON must be one object"
    );
    println!(
        "trace: {} events ({} span begins), {} bytes of Chrome-trace JSON",
        items.len(),
        spans,
        serialized.len()
    );
    print!("{}", sink.summary());
}

fn mesh_inputs() -> ProgramInputs {
    let mesh = UnstructuredMesh::generate(MeshConfig::tiny(4_000));
    ProgramInputs::new()
        .scalar("nnode", mesh.nnodes())
        .scalar("nedge", mesh.nedges())
        .real(
            "x",
            (0..mesh.nnodes())
                .map(|i| 1.0 + (i as f64 * 0.11).cos())
                .collect(),
        )
        .real("y", vec![0.0; mesh.nnodes()])
        .int("end_pt1", mesh.end_pt1.iter().map(|&v| v + 1).collect())
        .int("end_pt2", mesh.end_pt2.iter().map(|&v| v + 1).collect())
}

fn md_inputs() -> ProgramInputs {
    // The MD non-bonded sweep has the same irregular shape as the edge
    // loop: a pair list indirecting into per-atom arrays, reductions into
    // both endpoints.
    let water = WaterBox::generate(MdConfig::water_648());
    ProgramInputs::new()
        .scalar("nnode", water.natoms())
        .scalar("nedge", water.npairs())
        .real("x", water.xc.clone())
        .real("y", vec![0.0; water.natoms()])
        .int("end_pt1", water.pair1.iter().map(|&v| v + 1).collect())
        .int("end_pt2", water.pair2.iter().map(|&v| v + 1).collect())
}

fn main() {
    // The injected panics are caught and recovered by the executor; keep
    // the expected payloads out of the output.
    std::panic::set_hook(Box::new(|info| {
        if info
            .payload()
            .downcast_ref::<chaos_repro::dmsim::InjectedFault>()
            .is_none()
        {
            eprintln!("{info}");
        }
    }));

    println!(
        "fault smoke: {NPROCS} ranks on {WORKERS} pool workers, {SWEEPS} sweeps per case, \
         rollback checkpoints every {CHECKPOINT_EVERY} epochs"
    );

    // Case 1: unstructured-mesh edge sweep, RetryPhase recovery.
    let retry = RecoveryPolicy::RetryPhase { max_attempts: 3 };
    let mesh = mesh_inputs();
    let (e0, e1) = sweep_epochs(&mesh, retry);
    let clean = run_case(&mesh, retry, None, None, None);
    let plan = smoke_plan(e0, e1);
    let recovered = run_case(&mesh, retry, Some(Arc::clone(&plan)), None, None);
    assert!(plan.exhausted(), "mesh: every scheduled fault fired");
    assert_bit_identical("mesh/retry-phase", &clean, &recovered);

    // Case 1b: the same recovered run with the flight recorder and metrics
    // registry enabled. Both are observers — the instrumented run must be
    // bit-identical to the bare one — and the recorded timeline must export
    // as well-formed Chrome-trace JSON with monotone span nesting on every
    // lane. The metrics snapshot shows what recovery actually cost.
    let sink = Arc::new(TraceSink::new(WORKERS));
    let registry = Arc::new(MetricsRegistry::new(WORKERS));
    let plan = smoke_plan(e0, e1);
    let traced = run_case(
        &mesh,
        retry,
        Some(Arc::clone(&plan)),
        Some(Arc::clone(&sink)),
        Some(Arc::clone(&registry)),
    );
    assert!(plan.exhausted(), "mesh/traced: every scheduled fault fired");
    assert_bit_identical("mesh/traced-vs-untraced", &recovered, &traced);
    sink.finish();
    sink.check_span_nesting().expect("span nesting");
    validate_chrome_trace(&sink);

    // The recovery story in counters: every injected fault was seen, every
    // retry was tallied, and the auditor has at least one phase kind worth
    // of modeled-vs-wall samples.
    let snap = registry.snapshot();
    assert!(snap.counter(Counter::FaultsFired) >= 3, "faults metered");
    assert!(snap.counter(Counter::RetryAttempts) >= 1, "retries metered");
    println!("\nmetrics after recovery:\n{snap}");

    // Case 2: MD non-bonded pair sweep, RollbackToCheckpoint recovery. The
    // fault-free run checkpoints at the same cadence.
    let rollback = RecoveryPolicy::RollbackToCheckpoint {
        every: CHECKPOINT_EVERY,
    };
    let md = md_inputs();
    let (e0, e1) = sweep_epochs(&md, rollback);
    let clean = run_case(&md, rollback, None, None, None);
    let plan = smoke_plan(e0, e1);
    let registry = Arc::new(MetricsRegistry::new(WORKERS));
    let recovered = run_case(
        &md,
        rollback,
        Some(Arc::clone(&plan)),
        None,
        Some(Arc::clone(&registry)),
    );
    assert!(plan.exhausted(), "md: every scheduled fault fired");
    assert_bit_identical("md/rollback-to-checkpoint", &clean, &recovered);
    let snap = registry.snapshot();
    assert!(
        snap.counter(Counter::CheckpointRefreshes) >= 1,
        "checkpoint refreshes metered"
    );
    assert!(snap.counter(Counter::Rollbacks) >= 1, "rollbacks metered");

    println!("fault smoke passed: two panics and a stall recovered on the pool");
}
