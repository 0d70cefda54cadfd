//! The flight recorder is an **observer**: enabling tracing must never
//! change what an engine computes. These tests drive randomized pipelines
//! through both engines — `Machine` (sequential oracle) and `PooledBackend`
//! — twice each, once with a `TraceSink` installed and once without, and
//! assert the runs are bit-identical in every observable (array values,
//! ghost buffers, the f64 bit patterns of the modeled clocks, and the
//! communication statistics). The traced runs must additionally have
//! recorded a well-nested timeline, and a diagnosed `Straggler` must arrive
//! with the hung lane's flight-recorder tail.

use chaos_repro::dmsim::{
    Backend, FaultKind, FaultPlan, PhaseError, PooledBackend, Topology, TraceEventKind, TraceSink,
};
use chaos_repro::prelude::*;
use chaos_repro::runtime::{gather, scatter_add, Inspector, LocalRef};
use proptest::prelude::*;
use std::sync::Arc;
use std::time::Duration;

/// Everything one pipeline run observes: all of it must be unchanged by
/// installing a trace sink.
#[derive(Debug, PartialEq)]
struct Obs {
    ghost_bits: Vec<Vec<u64>>,
    y_bits: Vec<u64>,
    clock_bits: Vec<(u64, u64, u64)>,
    messages: usize,
    bytes: usize,
    phases: usize,
    comm_seconds_bits: u64,
    record_labels: Vec<String>,
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
    let result = Inspector.localize(backend, "L", dist, pattern);
    let ghosts = gather(backend, "L", &result.schedule, &x);

    let mut y = DistArray::from_global("y", dist.clone(), &vec![1.0; n]);
    let mut contributions: Vec<Vec<f64>> = ghosts.clone();
    backend.run_compute(
        y.par_shards_mut().zip(contributions.iter_mut()),
        |ctx, (y_local, contrib): (&mut [f64], &mut Vec<f64>)| {
            let q = ctx.rank();
            contrib.fill(0.0);
            for r in &result.localized[q] {
                match *r {
                    LocalRef::Owned(off) => y_local[off as usize] += 2.0 * x.local(q)[off as usize],
                    LocalRef::Ghost(slot) => {
                        contrib[slot as usize] += 2.0 * ghosts[q][slot as usize]
                    }
                }
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
        record_labels: machine
            .stats()
            .records()
            .iter()
            .map(|r| format!("{}:{:?}:{}b", r.label, r.kind, r.stats.bytes))
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

proptest! {
    #![proptest_config(ProptestConfig::with_cases(16))]

    /// Property: on every engine, a run with a `TraceSink` installed is
    /// bit-identical to the same run without one — values, ghost buffers,
    /// modeled clock bits, `CommStats` and the per-phase record stream.
    #[test]
    fn traced_runs_are_bit_identical_to_untraced_on_all_engines(
        p in 2usize..=6,
        n in 16usize..200,
        seed in 0u64..1000,
        refs_per_proc in 1usize..32,
    ) {
        let map: Vec<u32> = (0..n).map(|i| ((i as u64 * 31 + seed) % p as u64) as u32).collect();
        let dist = Distribution::irregular_from_map(&map, p);
        let data: Vec<f64> = (0..n).map(|i| (i as f64) * 0.41 - 3.0).collect();
        let pattern = build_pattern(p, n, seed, refs_per_proc);
        let cfg = || MachineConfig::unit(p).with_topology(Topology::FullyConnected);
        // Sequential oracle.
        let mut plain = Machine::new(cfg());
        let want = run_pipeline(&mut plain, &dist, &data, &pattern);
        let mut traced = Machine::new(cfg());
        let sink = Arc::new(TraceSink::new(0));
        traced.install_trace(Some(Arc::clone(&sink)));
        prop_assert_eq!(&run_pipeline(&mut traced, &dist, &data, &pattern), &want);
        assert_traced(&sink, "sequential");

        // Worker pool: one lane per rank, then ranks striped over (or
        // outnumbered by) 1..=5 lanes.
        for workers in [p, 1 + (seed as usize % 5)] {
            let mut pool = PooledBackend::from_config_with_workers(cfg(), workers);
            prop_assert_eq!(&run_pipeline(&mut pool, &dist, &data, &pattern), &want);
            let mut pool_traced = PooledBackend::from_config_with_workers(cfg(), workers);
            let sink = Arc::new(TraceSink::new(workers));
            pool_traced.machine_mut().install_trace(Some(Arc::clone(&sink)));
            prop_assert_eq!(&run_pipeline(&mut pool_traced, &dist, &data, &pattern), &want);
            assert_traced(&sink, "pooled");
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
    let mut pool = PooledBackend::from_config_with_workers(MachineConfig::unit(2), 2)
        .with_barrier_deadline(Duration::from_millis(5));
    let sink = Arc::new(TraceSink::new(2));
    pool.machine_mut().install_trace(Some(Arc::clone(&sink)));
    let plan = FaultPlan::new()
        .with_stall(Duration::from_millis(120))
        .with_fault(1, 0, FaultKind::LaneStall);
    pool.machine_mut().install_fault_plan(Some(Arc::new(plan)));

    let mut out = [0u64; 2];
    let err = pool
        .try_run_compute(out.iter_mut(), |ctx, slot| *slot = ctx.rank() as u64 + 1)
        .unwrap_err();
    let (rank, lane) = match err {
        PhaseError::Straggler { rank, lane, .. } => (rank, lane),
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
}

/// The lang executor's `with_trace` builder: a traced pooled executor run —
/// fused sweeps, checkpoint refreshes and all — is bit-identical to the
/// untraced one, and its timeline summarizes into epochs and lane activity.
#[test]
fn traced_lang_executor_matches_untraced_and_summarizes() {
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
          REDUCE(ADD, y(end_pt2(i)), EFLUX2(x(end_pt1(i)), x(end_pt2(i))))
        END FORALL
    "#;
    let (nnode, nedge, nprocs, workers) = (96usize, 384usize, 4usize, 3usize);
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
    let cp = lower_program(parse_program(SRC).expect("parse")).expect("lower");

    let drive = |sink: Option<Arc<TraceSink>>| {
        let mut exec = Executor::new_pooled_with_workers(
            MachineConfig::ipsc860(nprocs),
            workers,
            inputs.clone(),
        )
        .with_checkpoint_every(4);
        if let Some(s) = sink {
            exec = exec.with_trace(s);
        }
        exec.run(&cp).expect("program runs");
        for _ in 0..6 {
            exec.execute_loop(&cp, "L1").expect("sweep");
        }
        let e = exec.machine().elapsed();
        let s = exec.machine().stats().grand_totals();
        (
            exec.real_global("y")
                .expect("y")
                .iter()
                .map(|v| v.to_bits())
                .collect::<Vec<u64>>(),
            e.per_proc.iter().map(|v| v.to_bits()).collect::<Vec<u64>>(),
            (s.messages, s.bytes, s.phases, s.comm_seconds.to_bits()),
            exec.machine().epoch(),
        )
    };

    let want = drive(None);
    let sink = Arc::new(TraceSink::new(workers));
    let got = drive(Some(Arc::clone(&sink)));
    assert_eq!(got, want, "tracing perturbed the executor run");

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
}
