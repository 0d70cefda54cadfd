//! The metrics registry is an **observer**: enabling metering must never
//! change what an engine computes. These tests drive randomized pipelines
//! through both engines — `Machine` (sequential oracle) and `PooledBackend`
//! — twice each, once with a `MetricsRegistry` installed and once without,
//! and assert the runs are bit-identical in every observable (array values,
//! ghost buffers, the f64 bit patterns of the modeled clocks, and the
//! communication statistics).
//! The metered runs must additionally have actually metered: epochs and
//! kernel runs counted, span histograms populated on the right engine.

use chaos_repro::dmsim::{Backend, Counter, EngineKind, MetricsRegistry, PooledBackend, Topology};
use chaos_repro::prelude::*;
use chaos_repro::runtime::{gather, scatter_add, Inspector, LocalRef};
use proptest::prelude::*;
use std::sync::Arc;

/// Everything one pipeline run observes: all of it must be unchanged by
/// installing a metrics registry.
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

/// The metered run must have actually metered: epochs and kernel runs were
/// counted, pack volume was observed, and the span histograms carry samples
/// attributed to the expected engine.
fn assert_metered(registry: &MetricsRegistry, engine: EngineKind, name: &str) {
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
        snap.spans
            .iter()
            .any(|cell| cell.engine == engine && cell.hist.count > 0),
        "{name}: no spans on engine {engine:?}"
    );
    assert_eq!(snap.lane_events_lost, 0, "{name}: lane events lost");
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(16))]

    /// Property: on every engine, a run with a `MetricsRegistry` installed
    /// is bit-identical to the same run without one — values, ghost
    /// buffers, modeled clock bits, `CommStats` and the per-phase record
    /// stream.
    #[test]
    fn metered_runs_are_bit_identical_to_bare_on_all_engines(
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
        let mut metered = Machine::new(cfg());
        let registry = Arc::new(MetricsRegistry::new(0));
        metered.install_metrics(Some(Arc::clone(&registry)));
        prop_assert_eq!(&run_pipeline(&mut metered, &dist, &data, &pattern), &want);
        assert_metered(&registry, EngineKind::Machine, "sequential");

        // Worker pool: one lane per rank, then ranks striped over (or
        // outnumbered by) 1..=5 lanes.
        for workers in [p, 1 + (seed as usize % 5)] {
            let mut pool = PooledBackend::from_config_with_workers(cfg(), workers);
            prop_assert_eq!(&run_pipeline(&mut pool, &dist, &data, &pattern), &want);
            let mut pool_metered = PooledBackend::from_config_with_workers(cfg(), workers);
            let registry = Arc::new(MetricsRegistry::new(workers));
            pool_metered.machine_mut().install_metrics(Some(Arc::clone(&registry)));
            prop_assert_eq!(&run_pipeline(&mut pool_metered, &dist, &data, &pattern), &want);
            assert_metered(&registry, EngineKind::Pooled, "pooled");
        }
    }
}

/// The lang executor's `with_metrics` builder: a metered pooled executor
/// run — fused sweeps, checkpoint refreshes and all — is bit-identical to
/// the bare one, and the snapshot carries the executor's whole story:
/// epochs, kernel and combine runs, checkpoint refreshes, pack volume and
/// an audit row per sampled phase kind.
#[test]
fn metered_lang_executor_matches_bare_and_snapshots() {
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

    let drive = |registry: Option<Arc<MetricsRegistry>>| {
        let mut exec = Executor::new_pooled_with_workers(
            MachineConfig::ipsc860(nprocs),
            workers,
            inputs.clone(),
        )
        .with_checkpoint_every(4);
        if let Some(r) = registry {
            exec = exec.with_metrics(r);
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
    let registry = Arc::new(MetricsRegistry::new(workers));
    let got = drive(Some(Arc::clone(&registry)));
    assert_eq!(got, want, "metering perturbed the executor run");

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
        snap.spans
            .iter()
            .any(|c| c.engine == EngineKind::Pooled && c.hist.count > 0),
        "no pooled spans"
    );
    // The auditor paired modeled and wall deltas at phase-kind boundaries.
    let audit = registry.audit_report();
    assert!(!audit.rows.is_empty(), "auditor sampled no phase kinds");
    assert!(
        audit.rows.iter().all(|r| r.samples > 0),
        "audit rows must carry samples"
    );
    // The three exposition surfaces agree on the counter totals.
    let prom = snap.prometheus_text();
    assert!(prom.contains(&format!(
        "chaos_epochs_total {}",
        snap.counter(Counter::Epochs)
    )));
    let json = snap.to_json();
    assert!(json.contains(&format!("\"epochs\":{}", snap.counter(Counter::Epochs))));
}
