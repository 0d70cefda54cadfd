//! One whole-program repetition — the benchmark's unit of work — with and
//! without tracing.
//!
//! A repetition is what a user of the system runs: `parse_program` →
//! `lower_program` → `Executor::new*` → `run` → (steps − 1) rounds of
//! `execute_loop` over every FORALL → `real_global` read-back. Untraced, only
//! the wall-clock totals and one `Instant` pair per steady step are taken.
//! Traced, the same sequence runs statement by statement under the
//! benchmark's [`Recorder`], with the repo's own observers
//! (`with_metrics`, and `with_trace` on the pool engine) installed.

use crate::spans::Recorder;
use crate::workloads::{Engine, Prepared, Spec};
use chaos_dmsim::{Backend, MachineConfig, MetricsSnapshot, PhaseKind, SpanKind, TraceSummary};
use chaos_lang::{
    lower_program, parse_program, CompiledProgram, ExecReport, Executor, LangError,
    MetricsRegistry, Program, ProgramInputs, Stmt, TraceSink,
};
use std::sync::Arc;
use std::time::Instant;

/// Events each trace ring keeps: enough for a whole `md648_pool` program
/// (about 35 events per lane per sweep), so `dmsim.trace.dropped` stays 0.
const TRACE_RING_CAPACITY: usize = 1 << 17;

/// The values a repetition must reproduce exactly, whatever the engine.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Exact {
    /// Bit pattern of `machine().elapsed().max_seconds()`.
    pub modeled_total_bits: u64,
    /// `stats().grand_totals().messages`.
    pub messages: usize,
    /// `stats().grand_totals().bytes`.
    pub bytes: usize,
    /// FNV-1a over the bit patterns of every result array.
    pub checksum: u64,
}

/// What the repo's observers saw during one traced repetition.
#[derive(Debug, Clone)]
pub struct Observed {
    /// Index of the repetition's `program` span in the recorder.
    pub root: usize,
    /// `Kernel × Executor` span time over the steady steps, summed over
    /// lanes (seconds).
    pub vm_s: f64,
    /// `Combine × Executor` span time over the steady steps.
    pub combine_s: f64,
    /// `Replay × Executor` span time over the steady steps.
    pub replay_s: f64,
    /// `BarrierWait` span time over the steady steps, summed over lanes.
    pub barrier_wait_s: f64,
    /// Driver wall time the cost-model auditor booked to
    /// `PhaseKind::Inspector` during the steady steps.
    pub inspect_s: f64,
    /// Registry totals at the end of the program.
    pub snapshot: MetricsSnapshot,
    /// Flight-recorder summary (pool engine only).
    pub trace: Option<TraceSummary>,
}

/// The outcome of one repetition.
#[derive(Debug, Clone)]
pub struct Rep {
    /// Parse start to read-back end, seconds.
    pub program_wall_s: f64,
    /// Parse start to `Executor::run` returning, seconds.
    pub first_sweep_s: f64,
    /// Wall seconds of each steady time step.
    pub step_s: Vec<f64>,
    /// Values that must repeat exactly.
    pub exact: Exact,
    /// Largest deviation of a result element from `steps ×` the serial
    /// reference, relative to the reference's largest magnitude.
    pub max_rel_err: f64,
    /// The executor's own counters.
    pub report: ExecReport,
    /// Modeled seconds per phase kind, in `MODELED_KINDS` order.
    pub modeled_phase_s: [f64; 5],
    /// Messages and bytes the incremental schedules avoided.
    pub saved: (usize, usize),
    /// Observer read-out (traced repetitions only).
    pub observed: Option<Observed>,
}

/// The phase kinds the paper's tables print, in [`Rep::modeled_phase_s`]
/// order, with the metric each is reported as.
pub const MODELED_KINDS: [(PhaseKind, &str); 5] = [
    (
        PhaseKind::GraphGeneration,
        "dmsim.modeled.graph_generation_s",
    ),
    (PhaseKind::Partitioner, "dmsim.modeled.partitioner_s"),
    (PhaseKind::Inspector, "dmsim.modeled.inspector_s"),
    (PhaseKind::Remap, "dmsim.modeled.remap_s"),
    (PhaseKind::Executor, "dmsim.modeled.executor_s"),
];

/// Serial reference of one time step: result arrays by name.
pub type Reference = [(&'static str, Vec<f64>)];

/// Run one repetition of `spec`'s program on `engine`: `spec.engine`, or
/// `Machine` for the pool workload's sequential twin.
pub fn repetition(
    engine: Engine,
    spec: &Spec,
    prepared: &Prepared,
    reference: &Reference,
    recorder: Option<&mut Recorder>,
) -> Result<Rep, LangError> {
    let config = MachineConfig::ipsc860(spec.nprocs);
    match engine {
        Engine::Machine => run(spec, prepared, reference, recorder, 1, |inputs| {
            Executor::new(config, inputs)
        }),
        Engine::Pool { workers } => run(spec, prepared, reference, recorder, workers, |inputs| {
            Executor::new_pooled_with_workers(config, workers, inputs)
        }),
    }
}

/// The recorder when tracing, nothing when not: the untraced path pays one
/// branch per span site.
struct Probe<'a>(Option<&'a mut Recorder>);

impl Probe<'_> {
    fn enter(&mut self, name: &'static str) -> Option<usize> {
        self.0.as_deref_mut().map(|r| r.enter(name))
    }

    fn exit(&mut self) {
        if let Some(r) = self.0.as_deref_mut() {
            r.exit();
        }
    }

    fn span<T>(&mut self, name: &'static str, body: impl FnOnce() -> T) -> T {
        self.enter(name);
        let value = body();
        self.exit();
        value
    }
}

/// The span a top-level statement's execution is booked to.
fn statement_span(stmt: &Stmt) -> &'static str {
    match stmt {
        Stmt::Declare { .. }
        | Stmt::Decomposition { .. }
        | Stmt::Distribute { .. }
        | Stmt::Align { .. } => "lang.exec.align",
        Stmt::ReadData { .. } => "lang.exec.read_data",
        Stmt::Construct { .. } => "lang.exec.construct",
        Stmt::SetPartition { .. } => "lang.exec.set_partition",
        Stmt::Redistribute { .. } => "lang.exec.redistribute",
        Stmt::Forall { .. } => "lang.exec.forall_first",
    }
}

/// Span time of `span` during `PhaseKind::Executor`, summed over engines and
/// lanes, in seconds.
fn executor_span_s(snapshot: &MetricsSnapshot, span: SpanKind) -> f64 {
    snapshot
        .spans
        .iter()
        .filter(|c| c.span == span && c.phase == PhaseKind::Executor)
        .map(|c| c.hist.sum_ns as f64 / 1e9)
        .sum()
}

/// Driver wall seconds the cost-model auditor booked to the inspector.
fn inspector_wall_s(snapshot: &MetricsSnapshot) -> f64 {
    snapshot
        .audit
        .rows
        .iter()
        .find(|r| r.kind == PhaseKind::Inspector)
        .map_or(0.0, |r| r.wall_s)
}

fn run<B: Backend>(
    spec: &Spec,
    prepared: &Prepared,
    reference: &Reference,
    recorder: Option<&mut Recorder>,
    lanes: usize,
    make: impl FnOnce(ProgramInputs) -> Executor<B>,
) -> Result<Rep, LangError> {
    // Outside the timed program: the executor consumes its inputs, and the
    // observers are the harness's.
    let inputs = prepared.inputs.clone();
    let observers = recorder.is_some().then(|| {
        (
            Arc::new(MetricsRegistry::new(lanes)),
            (lanes > 1).then(|| Arc::new(TraceSink::with_capacity(lanes, TRACE_RING_CAPACITY))),
        )
    });
    let mut step_s = Vec::with_capacity(spec.steps);
    let mut probe = Probe(recorder);

    let start = Instant::now();
    let root = probe.enter("program");
    let ast = probe.span("lang.parser.parse", || parse_program(&prepared.text))?;
    let compiled = probe.span("lang.lower.lower", || lower_program(ast))?;
    let labels: Vec<String> = compiled
        .program
        .loop_labels()
        .iter()
        .map(|l| l.to_string())
        .collect();
    let mut exec = probe.span("lang.exec.new", || {
        let mut exec = make(inputs).with_reuse(spec.reuse);
        if let Some((metrics, trace)) = &observers {
            exec = exec.with_metrics(Arc::clone(metrics));
            if let Some(sink) = trace {
                exec = exec.with_trace(Arc::clone(sink));
            }
        }
        exec
    });
    if observers.is_some() {
        // Step the program one statement at a time: `Executor::run` on a
        // program holding that single statement.
        for stmt in &compiled.program.stmts {
            let single = CompiledProgram {
                program: Program {
                    stmts: vec![stmt.clone()],
                },
                info: compiled.info.clone(),
                plans: compiled.plans.clone(),
            };
            probe.span(statement_span(stmt), || exec.run(&single))?;
        }
    } else {
        exec.run(&compiled)?;
    }
    let first_sweep_s = start.elapsed().as_secs_f64();

    let before = observers.as_ref().map(|(m, _)| m.snapshot());
    for _ in 1..spec.steps {
        let step = Instant::now();
        probe.enter("lang.exec.step");
        for label in &labels {
            exec.execute_loop(&compiled, label)?;
        }
        probe.exit();
        step_s.push(step.elapsed().as_secs_f64());
    }
    let after = observers.as_ref().map(|(m, _)| m.snapshot());

    let results: Vec<Vec<f64>> = probe.span("lang.exec.readback", || {
        reference
            .iter()
            .map(|(name, _)| exec.real_global(name))
            .collect::<Option<_>>()
            .ok_or_else(|| LangError::runtime("a result array is missing after execution"))
    })?;
    probe.exit();
    let program_wall_s = start.elapsed().as_secs_f64();

    let mut checksum = 0xcbf2_9ce4_8422_2325_u64;
    let mut max_rel_err = 0.0f64;
    for (got, (_, want)) in results.iter().zip(reference) {
        let scale = want
            .iter()
            .fold(f64::MIN_POSITIVE, |m, v| m.max(v.abs() * spec.steps as f64));
        if got.len() != want.len() {
            max_rel_err = f64::INFINITY;
        }
        for (g, w) in got.iter().zip(want) {
            checksum = (checksum ^ g.to_bits()).wrapping_mul(0x0000_0100_0000_01b3);
            let err = (g - w * spec.steps as f64).abs() / scale;
            // `max` would drop a NaN; a NaN result must fail.
            if err > max_rel_err || err.is_nan() {
                max_rel_err = err;
            }
        }
    }

    let machine = exec.machine();
    let totals = machine.stats().grand_totals();
    let saved = machine
        .stats()
        .saved_totals()
        .filter(|(label, _)| label.starts_with("incremental:"))
        .fold((0, 0), |acc, (_, s)| (acc.0 + s.messages, acc.1 + s.bytes));
    let observed = match (observers, before, after, root) {
        (Some((metrics, trace)), Some(before), Some(after), Some(root)) => {
            let delta = |f: &dyn Fn(&MetricsSnapshot) -> f64| f(&after) - f(&before);
            Some(Observed {
                root,
                vm_s: delta(&|s| executor_span_s(s, SpanKind::Kernel)),
                combine_s: delta(&|s| executor_span_s(s, SpanKind::Combine)),
                replay_s: delta(&|s| executor_span_s(s, SpanKind::Replay)),
                barrier_wait_s: delta(&|s| executor_span_s(s, SpanKind::BarrierWait)),
                inspect_s: delta(&inspector_wall_s),
                snapshot: metrics.snapshot(),
                trace: trace.map(|sink| sink.summary()),
            })
        }
        _ => None,
    };
    Ok(Rep {
        program_wall_s,
        first_sweep_s,
        step_s,
        exact: Exact {
            modeled_total_bits: machine.elapsed().max_seconds().to_bits(),
            messages: totals.messages,
            bytes: totals.bytes,
            checksum,
        },
        max_rel_err,
        report: exec.report().clone(),
        modeled_phase_s: MODELED_KINDS.map(|(kind, _)| machine.phase_elapsed(kind)),
        saved,
        observed,
    })
}
