//! The flight recorder and the metrics registry are **observers**:
//! installing either, or both, must never change what an engine computes.
//! These tests drive randomized pipelines through both engines — `Machine`
//! (sequential oracle) and `PooledBackend` — bare and with each observer
//! set installed, and assert the runs are bit-identical in every observable
//! (array values, ghost buffers, the f64 bit patterns of the modeled clocks,
//! and the communication statistics). The observed runs must additionally
//! have really observed — a well-nested timeline, counters and span
//! histograms — and, with both installed, the two read-outs must agree:
//! every counter the event table pairs with an event kind equals the
//! number of such events in the rings. A diagnosed
//! `Straggler` must arrive with the hung lane's flight-recorder tail.

use chaos_repro::dmsim::{
    Backend, Counter, FaultKind, FaultPlan, MetricsRegistry, PhaseError, PooledBackend, TraceEvent,
    TraceEventKind, TraceSink,
};
use chaos_repro::lang::{CompiledProgram, RecoveryPolicy};
use chaos_repro::prelude::*;
use chaos_repro::runtime::{gather, resolve_local, resolve_local_mut, scatter_add, Inspector};
use proptest::prelude::*;
use std::collections::BTreeSet;
use std::sync::Arc;
use std::time::Duration;

/// Everything one pipeline run observes: all of it must be unchanged by
/// installing observers.
#[derive(Debug, PartialEq)]
struct Obs {
    ghost_bits: Vec<Vec<u64>>,
    y_bits: Vec<u64>,
    clock_bits: Vec<(u64, u64, u64)>,
    messages: usize,
    bytes: usize,
    phases: usize,
    comm_seconds_bits: u64,
    /// Per [`PhaseKind`]: messages, bytes, phases and `comm_seconds` bits.
    kind_totals: Vec<(usize, usize, usize, u64)>,
    epoch: u64,
}

/// Localize → gather → rank-parallel compute → scatter-add on any engine.
fn run_pipeline<B: Backend>(
    backend: &mut B,
    dist: &Distribution,
    data: &[f64],
    pattern: &AccessPattern,
) -> Obs {
    let n = data.len();
    let x = DistArray::from_global("x", dist.clone(), data);
    let result = Inspector.localize(backend, dist, pattern);
    let ghosts = gather(backend, &result.schedule, &x);

    let mut y = DistArray::from_global("y", dist.clone(), &vec![1.0; n]);
    let mut contributions: Vec<Vec<f64>> = ghosts.clone();
    backend.run_compute(
        y.par_shards_mut().zip(contributions.iter_mut()),
        |ctx, (y_local, contrib): (&mut [f64], &mut Vec<f64>)| {
            let q = ctx.rank();
            contrib.fill(0.0);
            for &r in &result.localized[q] {
                let v = 2.0 * *resolve_local(r, x.local(q), &ghosts[q]);
                *resolve_local_mut(r, y_local, contrib) += v;
            }
            ctx.charge_compute(q, result.localized[q].len() as f64);
        },
    );
    scatter_add(backend, "L", &result.schedule, &mut y, &contributions);

    let machine = backend.machine();
    let elapsed = machine.elapsed();
    let totals = machine.stats().grand_totals();
    Obs {
        ghost_bits: ghosts
            .iter()
            .map(|g| g.iter().map(|v| v.to_bits()).collect())
            .collect(),
        y_bits: y.to_global().iter().map(|v| v.to_bits()).collect(),
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
        kind_totals: PhaseKind::ALL
            .iter()
            .map(|&kind| {
                let t = machine.stats().totals_for(kind);
                (t.messages, t.bytes, t.phases, t.comm_seconds.to_bits())
            })
            .collect(),
        epoch: machine.epoch(),
    }
}

fn build_pattern(p: usize, n: usize, seed: u64, refs_per_proc: usize) -> AccessPattern {
    let mut state = seed.wrapping_mul(0x9E3779B97F4A7C15).wrapping_add(29);
    let mut pattern = AccessPattern::new(p);
    for q in 0..p {
        for _ in 0..refs_per_proc {
            state = state.wrapping_mul(6364136223846793005).wrapping_add(1);
            pattern.refs[q].push(((state >> 33) as usize % n) as u32);
        }
    }
    pattern
}

/// The traced run must have actually traced: events were retained and every
/// lane's span events nest monotonically.
fn assert_traced(sink: &TraceSink, engine: &str) {
    sink.finish();
    let total: usize = (0..sink.lanes()).map(|l| sink.events(l).len()).sum();
    assert!(total > 0, "{engine}: traced run recorded no events");
    sink.check_span_nesting()
        .unwrap_or_else(|e| panic!("{engine}: {e}"));
}

/// The metered run must have actually metered: epochs and kernel runs were
/// counted, pack volume was observed, and the span histograms carry samples.
fn assert_metered(registry: &MetricsRegistry, name: &str) {
    let snap = registry.snapshot();
    assert!(snap.counter(Counter::Epochs) > 0, "{name}: no epochs");
    assert!(
        snap.counter(Counter::KernelRuns) > 0,
        "{name}: no kernel runs"
    );
    assert!(
        snap.counter(Counter::PackMessages) > 0,
        "{name}: no pack volume"
    );
    assert!(
        snap.spans.iter().any(|cell| cell.hist.count > 0),
        "{name}: no span samples"
    );
    assert_eq!(snap.lane_events_lost, 0, "{name}: lane events lost");
}

/// The event table as this file states it, independently of the one the
/// probe applies: each counter equals the number of these events recorded.
/// (`WorkerParks`, `BarrierWaits` and `CombineRuns` have their own rules in
/// [`assert_read_outs_agree`].)
const COUNTED: [(Counter, TraceEventKind); 10] = [
    (Counter::Epochs, TraceEventKind::EpochBegin),
    (Counter::KernelRuns, TraceEventKind::KernelEnter),
    (Counter::ReplayRuns, TraceEventKind::ReplayBegin),
    (Counter::WorkerReleases, TraceEventKind::WorkerRelease),
    (
        Counter::CheckpointRefreshes,
        TraceEventKind::CheckpointRefresh,
    ),
    (Counter::FaultsFired, TraceEventKind::FaultFired),
    (Counter::ErrorsDiagnosed, TraceEventKind::ErrorDiagnosed),
    (Counter::RetryAttempts, TraceEventKind::RetryAttempt),
    (Counter::Rollbacks, TraceEventKind::Rollback),
    (Counter::Degrades, TraceEventKind::Degrade),
];

/// With both observers on one run (and rings that did not wrap), the trace
/// and the metrics scrape state the same facts.
fn assert_read_outs_agree(sink: &TraceSink, registry: &MetricsRegistry, nprocs: usize, name: &str) {
    assert_eq!(sink.dropped(), 0, "{name}: counts need unwrapped rings");
    let events = sink.all_events();
    let count = |pred: &dyn Fn(&TraceEvent) -> bool| events.iter().filter(|e| pred(e)).count();
    let of = |kind| count(&|e| e.kind == kind);
    let snap = registry.snapshot();
    let counter = |c| snap.counter(c) as usize;
    for (c, kind) in COUNTED {
        assert_eq!(counter(c), of(kind), "{name}: {} vs {kind:?}", c.name());
    }
    assert_eq!(
        counter(Counter::WorkerParks),
        count(&|e| e.kind == TraceEventKind::WorkerRelease && e.arg == 1),
        "{name}: parked releases"
    );
    // Both barriers a pool lane takes part in: completion and stage.
    assert_eq!(
        counter(Counter::BarrierWaits),
        of(TraceEventKind::BarrierArrive) + of(TraceEventKind::StageWaitBegin),
        "{name}: barrier waits"
    );
    // `CombineRuns` counts ranks; one `CombineEnter` covers its lane's whole
    // stripe — every rank on the sequential engine's driver lane. (The
    // driver's ring index is the worker-lane count.)
    let workers = sink.driver_lane();
    let stripe = |lane: usize| match lane {
        l if l == workers => nprocs,
        l => (l..nprocs).step_by(workers).count(),
    };
    let combined: usize = events
        .iter()
        .filter(|e| e.kind == TraceEventKind::CombineEnter)
        .map(|e| stripe(e.lane))
        .sum();
    assert_eq!(
        counter(Counter::CombineRuns),
        combined,
        "{name}: combine runs"
    );
    sink.check_span_nesting()
        .unwrap_or_else(|e| panic!("{name}: {e}"));
}

/// One arm's observers, installed on a machine and kept for the read-out.
struct Observers {
    sink: Option<Arc<TraceSink>>,
    registry: Option<Arc<MetricsRegistry>>,
}

/// The observer sets every engine configuration runs besides the bare one.
const ARMS: [(bool, bool); 3] = [(true, false), (false, true), (true, true)];

impl Observers {
    /// Observers sized for `lanes` worker lanes (0 on the sequential
    /// engine), at the default ring capacity — far more than any run here
    /// records, so nothing wraps.
    fn install(machine: &mut Machine, (trace, metrics): (bool, bool), lanes: usize) -> Self {
        let sink = trace.then(|| Arc::new(TraceSink::new(lanes)));
        let registry = metrics.then(|| Arc::new(MetricsRegistry::new(lanes)));
        machine.install_trace(sink.clone());
        machine.install_metrics(registry.clone());
        Observers { sink, registry }
    }

    /// Both observers, of an arm that installed both.
    fn both(self) -> (Arc<TraceSink>, Arc<MetricsRegistry>) {
        (self.sink.unwrap(), self.registry.unwrap())
    }

    /// Whatever was installed really recorded, and what both recorded agrees.
    fn check(&self, nprocs: usize, name: &str) {
        if let Some(sink) = &self.sink {
            assert_traced(sink, name);
        }
        if let Some(registry) = &self.registry {
            assert_metered(registry, name);
        }
        if let (Some(sink), Some(registry)) = (&self.sink, &self.registry) {
            assert_read_outs_agree(sink, registry, nprocs, name);
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(16))]

    /// Property: on every engine, a run with a `TraceSink`, a
    /// `MetricsRegistry` or both installed is bit-identical to the same run
    /// with neither — values, ghost buffers, modeled clock bits, `CommStats`
    /// and the per-phase record stream.
    #[test]
    fn observed_runs_are_bit_identical_to_bare_on_all_engines(
        p in 2usize..=6,
        n in 16usize..200,
        seed in 0u64..1000,
        refs_per_proc in 1usize..32,
    ) {
        let map: Vec<u32> = (0..n).map(|i| ((i as u64 * 31 + seed) % p as u64) as u32).collect();
        let dist = Distribution::irregular_from_map(&map, p);
        let data: Vec<f64> = (0..n).map(|i| (i as f64) * 0.41 - 3.0).collect();
        let pattern = build_pattern(p, n, seed, refs_per_proc);
        let cfg = || MachineConfig::unit(p);
        // Sequential oracle.
        let mut bare = Machine::new(cfg());
        let want = run_pipeline(&mut bare, &dist, &data, &pattern);
        for arm in ARMS {
            let mut machine = Machine::new(cfg());
            let observers = Observers::install(&mut machine, arm, 0);
            prop_assert_eq!(&run_pipeline(&mut machine, &dist, &data, &pattern), &want);
            observers.check(p, "sequential");
        }

        // Worker pool: one lane per rank, then ranks striped over (or
        // outnumbered by) 1..=5 lanes.
        for workers in [p, 1 + (seed as usize % 5)] {
            let mut pool = PooledBackend::from_config_with_workers(cfg(), workers);
            prop_assert_eq!(&run_pipeline(&mut pool, &dist, &data, &pattern), &want);
            for arm in ARMS {
                let mut pool = PooledBackend::from_config_with_workers(cfg(), workers);
                let observers = Observers::install(pool.machine_mut(), arm, workers);
                prop_assert_eq!(&run_pipeline(&mut pool, &dist, &data, &pattern), &want);
                observers.check(p, "pooled");
            }
        }
    }
}

/// A `Straggler` diagnosis must arrive with the flight-recorder tail
/// attached: the hung lane's kernel entry, the injected fault that stalled
/// it, and the diagnosis instant itself are all in the captured tail.
#[test]
fn straggler_error_carries_the_hung_lanes_flight_recorder_tail() {
    // Two lanes: the driver takes the last lane, so rank 0 runs on the
    // spawned worker (lane 0). Stall it well past the barrier deadline.
    let mut pool = PooledBackend::from_config_with_workers(MachineConfig::unit(2), 2);
    pool.set_barrier_deadline(Duration::from_millis(5));
    let (sink, registry) = Observers::install(pool.machine_mut(), (true, true), 2).both();
    let plan = FaultPlan::new()
        .with_stall(Duration::from_millis(120))
        .with_fault(1, 0, FaultKind::LaneStall);
    pool.machine_mut().install_fault_plan(Some(Arc::new(plan)));

    let mut out = [0u64; 2];
    let err = pool
        .try_run_compute(out.iter_mut(), |ctx, slot| *slot = ctx.rank() as u64 + 1)
        .unwrap_err();
    let (rank, lane) = match &err {
        PhaseError::Straggler { rank, lane, .. } => (*rank, *lane),
        other => panic!("expected Straggler, got {other:?}"),
    };
    assert_eq!((rank, lane), (0, 0));

    let tail = sink.error_tail();
    assert!(
        !tail.is_empty(),
        "diagnosis captured no flight-recorder tail"
    );
    assert!(
        tail.iter().any(|e| e.lane == lane
            && e.kind == TraceEventKind::KernelEnter
            && e.arg == rank as u32),
        "tail is missing the hung lane's kernel entry"
    );
    assert!(
        tail.iter().any(|e| e.lane == lane
            && e.kind == TraceEventKind::FaultFired
            && e.arg == rank as u32),
        "tail is missing the injected fault on the hung lane"
    );
    assert!(
        tail.iter()
            .any(|e| e.kind == TraceEventKind::ErrorDiagnosed),
        "tail is missing the diagnosis instant"
    );
    // `try_run_*` stamps the diagnosis with the failing epoch.
    let diagnosed = tail
        .iter()
        .find(|e| e.kind == TraceEventKind::ErrorDiagnosed);
    assert_eq!(diagnosed.map(|e| u64::from(e.arg)), Some(err.epoch()));
    // The registry counted the same fault and the same diagnosis
    // (`FaultsFired` = #`FaultFired`, `ErrorsDiagnosed` = #`ErrorDiagnosed`).
    let snap = registry.snapshot();
    assert_eq!(snap.counter(Counter::FaultsFired), 1);
    assert_eq!(snap.counter(Counter::ErrorsDiagnosed), 1);
    assert_read_outs_agree(&sink, &registry, 2, "straggler");
}

const LANG_SRC: &str = r#"
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
const LANG_NPROCS: usize = 4;
const LANG_WORKERS: usize = 3;

fn lang_program() -> (CompiledProgram, ProgramInputs) {
    let (nnode, nedge) = (96usize, 384usize);
    let inputs = ProgramInputs::new()
        .scalar("nnode", nnode)
        .scalar("nedge", nedge)
        .real(
            "x",
            (0..nnode).map(|i| (i as f64 * 0.7).cos() + 2.0).collect(),
        )
        .real("y", vec![0.0; nnode])
        .int(
            "end_pt1",
            (0..nedge).map(|i| (i % nnode) as u32 + 1).collect(),
        )
        .int(
            "end_pt2",
            (0..nedge)
                .map(|i| ((i * 7 + 3) % nnode) as u32 + 1)
                .collect(),
        );
    let cp = lower_program(parse_program(LANG_SRC).expect("parse")).expect("lower");
    (cp, inputs)
}

/// What a lang executor run observes: result bits, clock bits, traffic and
/// the epoch count.
type LangObs = (Vec<u64>, Vec<u64>, (usize, usize, usize, u64), u64);

/// The program plus six more sweeps of its loop under the rollback policy,
/// checkpointing every four epochs, on `exec` — bare, or with both
/// observers sized for `lanes`.
fn drive_lang<B: Backend>(
    exec: Executor<B>,
    cp: &CompiledProgram,
    lanes: Option<usize>,
) -> (LangObs, Observers) {
    let mut exec = exec.with_recovery_policy(RecoveryPolicy::RollbackToCheckpoint { every: 4 });
    let sink = lanes.map(|l| Arc::new(TraceSink::new(l)));
    let registry = lanes.map(|l| Arc::new(MetricsRegistry::new(l)));
    if let (Some(sink), Some(registry)) = (&sink, &registry) {
        exec = exec
            .with_trace(Arc::clone(sink))
            .with_metrics(Arc::clone(registry));
    }
    exec.run(cp).expect("program runs");
    for _ in 0..6 {
        exec.execute_loop(cp, "L1").expect("sweep");
    }
    let e = exec.machine().elapsed();
    let s = exec.machine().stats().grand_totals();
    let obs = (
        exec.real_global("y")
            .expect("y")
            .iter()
            .map(|v| v.to_bits())
            .collect(),
        e.per_proc.iter().map(|v| v.to_bits()).collect(),
        (s.messages, s.bytes, s.phases, s.comm_seconds.to_bits()),
        exec.machine().epoch(),
    );
    (obs, Observers { sink, registry })
}

fn pooled_lang(inputs: &ProgramInputs) -> Executor<PooledBackend> {
    Executor::new_pooled_with_workers(
        MachineConfig::ipsc860(LANG_NPROCS),
        LANG_WORKERS,
        inputs.clone(),
    )
}

/// The lang executor's `with_trace` builder: a traced pooled executor run —
/// fused sweeps, checkpoint refreshes and all — is bit-identical to the
/// untraced one, and its timeline summarizes into epochs and lane activity.
#[test]
fn traced_lang_executor_matches_untraced_and_summarizes() {
    let (cp, inputs) = lang_program();
    let (want, _) = drive_lang(pooled_lang(&inputs), &cp, None);
    let (got, observers) = drive_lang(pooled_lang(&inputs), &cp, Some(LANG_WORKERS));
    assert_eq!(got, want, "tracing perturbed the executor run");
    let (sink, registry) = observers.both();

    sink.finish();
    sink.check_span_nesting().expect("span nesting");
    let summary = sink.summary();
    assert!(summary.epochs > 0, "no epochs observed");
    assert!(
        summary.lanes.iter().any(|l| l.busy_ns > 0),
        "no lane recorded kernel work"
    );
    // The checkpoint cadence left its refresh instants on the driver ring.
    assert!(
        sink.events(sink.driver_lane())
            .iter()
            .any(|e| e.kind == TraceEventKind::CheckpointRefresh),
        "no checkpoint-refresh events on the driver ring"
    );
    // The modeled clock published at the end matches the machine's.
    assert!(summary.modeled_s > 0.0);
    assert_read_outs_agree(&sink, &registry, LANG_NPROCS, "pooled executor");
}

/// The lang executor's `with_metrics` builder: a metered pooled executor
/// run — fused sweeps, checkpoint refreshes and all — is bit-identical to
/// the bare one, and the snapshot carries the executor's whole story:
/// epochs, kernel and combine runs, checkpoint refreshes, pack volume and
/// an audit row per sampled phase kind.
#[test]
fn metered_lang_executor_matches_bare_and_snapshots() {
    let (cp, inputs) = lang_program();
    let (want, _) = drive_lang(pooled_lang(&inputs), &cp, None);
    let (got, observers) = drive_lang(pooled_lang(&inputs), &cp, Some(LANG_WORKERS));
    assert_eq!(got, want, "metering perturbed the executor run");
    let (_sink, registry) = observers.both();

    let snap = registry.snapshot();
    assert!(snap.counter(Counter::Epochs) > 0, "no epochs");
    assert!(snap.counter(Counter::KernelRuns) > 0, "no kernel runs");
    assert!(snap.counter(Counter::CombineRuns) > 0, "no combine runs");
    assert!(
        snap.counter(Counter::CheckpointRefreshes) > 0,
        "checkpoint cadence left no refreshes"
    );
    assert!(snap.counter(Counter::PackMessages) > 0, "no pack volume");
    assert!(snap.counter(Counter::PackBytes) > 0, "no pack bytes");
    assert!(
        snap.spans.iter().any(|c| c.hist.count > 0),
        "no span samples"
    );
    // The auditor paired modeled and wall deltas at phase-kind boundaries.
    let audit = &snap.audit;
    assert!(!audit.rows.is_empty(), "auditor sampled no phase kinds");
    assert!(
        audit.rows.iter().all(|r| r.samples > 0),
        "audit rows must carry samples"
    );
    // The Prometheus scrape carries every counter at its snapshot value.
    let prom = snap.prometheus_text();
    for c in Counter::ALL {
        let line = format!("chaos_{}_total {}", c.name(), snap.counter(c));
        assert!(
            prom.lines().any(|l| l == line),
            "no line {line:?} in the scrape:\n{prom}"
        );
    }
}

/// Each event kind means one thing wherever it is recorded: the same `arg`
/// and the same counter on both engines, and from both diagnosis sites.
#[test]
fn each_event_has_one_definition_on_both_engines() {
    use TraceEventKind as K;
    let (cp, inputs) = lang_program();
    let sequential = Executor::new(MachineConfig::ipsc860(LANG_NPROCS), inputs.clone());
    let (seq_obs, seq) = drive_lang(sequential, &cp, Some(0));
    let (pool_obs, pool) = drive_lang(pooled_lang(&inputs), &cp, Some(LANG_WORKERS));
    assert_eq!(seq_obs, pool_obs, "the engines disagree");
    let ((seq_sink, seq_reg), (pool_sink, pool_reg)) = (seq.both(), pool.both());
    assert_read_outs_agree(&seq_sink, &seq_reg, LANG_NPROCS, "sequential executor");
    let args = |sink: &TraceSink, kinds: [K; 2]| -> BTreeSet<u32> {
        let of_kinds = sink
            .all_events()
            .into_iter()
            .filter(|e| kinds.contains(&e.kind));
        of_kinds.map(|e| e.arg).collect()
    };

    // `CombineEnter` / `CombineExit`: `arg` is the scatter-buffer index on
    // both engines (the program writes one array: buffer 0 only), and
    // `CombineRuns` counts the same ranks either way, once per sweep.
    for sink in [&seq_sink, &pool_sink] {
        let combines = args(sink, [K::CombineEnter, K::CombineExit]);
        assert_eq!(combines, BTreeSet::from([0]));
    }
    let runs = |reg: &MetricsRegistry| reg.snapshot().counter(Counter::CombineRuns);
    assert_eq!(
        [runs(&seq_reg), runs(&pool_reg)],
        [7 * LANG_NPROCS as u64; 2]
    );

    // `StageWaitBegin` / `StageWaitEnd`: `arg` is the stage just finished —
    // the sweep's one barrier follows compute, stage 0.
    let waits = args(&pool_sink, [K::StageWaitBegin, K::StageWaitEnd]);
    assert_eq!(waits, BTreeSet::from([0]));

    // `BarrierWaits` says what it counts (the count itself is pinned in
    // `assert_read_outs_agree`).
    let help = Counter::BarrierWaits.help();
    assert!(help.contains("completion-barrier") && help.contains("stage-barrier"));

    // `ErrorDiagnosed`: `arg` is the failing epoch from the lang recovery
    // driver, exactly as from `try_run_*` (the straggler test above).
    let mut clean = pooled_lang(&inputs);
    clean.run(&cp).expect("program runs");
    let failing = clean.machine().epoch() + 1;
    let sink = Arc::new(TraceSink::new(LANG_WORKERS));
    let plan = FaultPlan::new().with_fault(failing, 1, FaultKind::KernelPanic);
    let mut exec = pooled_lang(&inputs)
        .with_trace(Arc::clone(&sink))
        .with_fault_plan(Arc::new(plan))
        .with_recovery_policy(RecoveryPolicy::RetryPhase { max_attempts: 1 });
    exec.run(&cp).expect("program runs");
    exec.execute_loop(&cp, "L1").expect("the retry recovers");
    let diagnosed = args(&sink, [K::ErrorDiagnosed; 2]);
    assert_eq!(diagnosed, BTreeSet::from([failing as u32]));
}

/// The engines tell one story to the metrics registry: for a program that
/// remaps (the FORALL after `REDISTRIBUTE` moves each array it reads, one
/// communication phase per array), runs two FORALLs and scatters, the
/// counters that describe *what ran* — regions, rank kernels, combine
/// ranks, fired faults, pack volume — are equal on the sequential engine
/// and on the pool at 1, 2 and `nprocs` workers. Every region is built
/// from the same stages on both: a remap's unpack is a rank-kernel stage
/// everywhere, not only on the pool.
#[test]
fn what_ran_counters_agree_across_engines() {
    const SRC: &str = r#"
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
        END FORALL
C$      CONSTRUCT g (nnode, LINK(nedge, e1, e2))
C$      SET dfmt BY PARTITIONING g USING RSB
C$      REDISTRIBUTE regn(dfmt)
        FORALL i = 1, nedge
          REDUCE(ADD, y(e1(i)), EFLUX1(x(e1(i)), x(e2(i))))
          REDUCE(ADD, y(e2(i)), EFLUX2(x(e1(i)), x(e2(i))))
        END FORALL
    "#;
    const WHAT_RAN: [Counter; 6] = [
        Counter::Epochs,
        Counter::KernelRuns,
        Counter::CombineRuns,
        Counter::FaultsFired,
        Counter::PackMessages,
        Counter::PackBytes,
    ];
    let cp = lower_program(parse_program(SRC).expect("parse")).expect("lower");
    let (nnode, nedge) = (64usize, 192usize);
    let inputs = ProgramInputs::new()
        .scalar("nnode", nnode)
        .scalar("nedge", nedge)
        .real("x", (0..nnode).map(|i| (i as f64 * 0.3).sin()).collect())
        .real("y", vec![0.0; nnode])
        .int("e1", (0..nedge).map(|i| (i % nnode) as u32 + 1).collect())
        .int(
            "e2",
            (0..nedge)
                .map(|i| ((i * 5 + 2) % nnode) as u32 + 1)
                .collect(),
        );
    // A stall is a fault that fires without failing anything: epoch 1 is a
    // region of every engine's run, so `FaultsFired` compares 1 with 1.
    let plan = || {
        let stall = FaultPlan::new().with_stall(Duration::from_millis(1));
        Arc::new(stall.with_fault(1, 0, FaultKind::LaneStall))
    };
    fn counted<B: Backend>(
        exec: Executor<B>,
        cp: &CompiledProgram,
        plan: Arc<FaultPlan>,
        lanes: usize,
    ) -> [u64; 6] {
        let registry = Arc::new(MetricsRegistry::new(lanes));
        let mut exec = exec
            .with_metrics(Arc::clone(&registry))
            .with_fault_plan(plan);
        exec.run(cp).expect("program runs");
        exec.execute_loop(cp, "L2").expect("sweep");
        let snap = registry.snapshot();
        assert_eq!(snap.lane_events_lost, 0);
        WHAT_RAN.map(|c| snap.counter(c))
    }

    let cfg = || MachineConfig::ipsc860(LANG_NPROCS);
    let want = counted(Executor::new(cfg(), inputs.clone()), &cp, plan(), 0);
    assert!(
        want.iter().all(|&c| c > 0),
        "a counter saw nothing: {want:?}"
    );
    for workers in [1, 2, LANG_NPROCS] {
        let pool = Executor::new_pooled_with_workers(cfg(), workers, inputs.clone());
        let got = counted(pool, &cp, plan(), workers);
        let names = WHAT_RAN.map(|c| c.name());
        assert_eq!(got, want, "workers={workers}: {names:?}");
    }
}
