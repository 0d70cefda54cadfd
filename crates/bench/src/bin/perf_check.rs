//! Perf smoke: measure the flat-CSR hot path against the retained naive
//! reference implementation on a fixed workload and record the repo's
//! performance trajectory in `BENCH_1.json`.
//!
//! Both sides are measured **live in the same process on the same machine**,
//! so the gate is hardware-independent: `before` runs the seed's
//! formulation (nested-`Vec` schedules + `HashMap` dedup via
//! `chaos_runtime::naive`, and the seed's per-index `ExchangePlan`-based
//! table dereference reproduced below), `after` runs the CSR
//! implementation. The gate fails (exit 1) if either the executor or the
//! translation group improves less than 25% — the acceptance bar of the CSR
//! refactor — so a regression that erodes the win is caught by CI.
//!
//! The `recorded_baseline_ns` fields additionally preserve the medians
//! measured on the original development machine right after PR 1 first made
//! the seed build, as a historical anchor for the perf trajectory; they are
//! informational and not part of the gate.
//!
//! A second artifact, `BENCH_2.json`, records the **thread-scaling** of the
//! rank-parallel SPMD engines: wall-clock of one steady-state executor
//! iteration (gather + scatter-add) on the sequential vs the threaded vs
//! the pooled backend at 8 ranks (plus smaller rank counts for the scaling
//! curve), after asserting that the engines produce byte-identical ghost
//! buffers, array values and modeled clocks. The ≥ 1.5× speedup gate is
//! enforced only when the host has ≥ 8 cores (one per rank, 2×+ headroom
//! over the bar) — with fewer cores the ranks timeshare and the margin
//! disappears (on 1 core no wall-clock speedup is physically possible), so
//! the row is then recorded as informational (`gated: false`). Every row of
//! every artifact carries the detected `available_cores`; every row that
//! can gate additionally carries the core count its gate arms at
//! (`gate_arms_at_cores`, 1 for hardware-independent gates, null on rows
//! whose gate never arms), so whether a committed artifact's multi-core
//! rows are authoritative or informational is machine-readable.
//!
//! A third artifact, `BENCH_3.json`, records the **kernel compilation**
//! win: wall-clock of one steady-state lang executor sweep (gather +
//! rank-parallel compute + scatter over a reused schedule and a reused
//! compiled kernel) with the FORALL body compiled to register bytecode vs
//! interpreted by the retained tree-walker, measured live in the same
//! process after asserting the two modes produce byte-identical array
//! values, modeled clocks and statistics. The compiled row is gated at
//! ≥ 2×: both modes run the same gathers/scatters on the same hardware, so
//! the ratio isolates the interpretation overhead the compiler removes and
//! is hardware-independent.
//!
//! A fourth artifact, `BENCH_4.json`, records the **per-phase overhead**
//! win of the persistent worker pool: the same executor iteration on a
//! deliberately *small* workload, where the per-phase engine overhead —
//! scoped thread spawn for `ThreadedBackend`, the epoch-barrier hand-off
//! for `PooledBackend` — dominates the data movement. The pooled engine is
//! gated at ≥ 2× lower per-iteration cost than the scoped-spawn engine when
//! the host has ≥ 4 cores (below that the spawn path degenerates too, so
//! the ratio is noise and the row is informational).
//!
//! A fifth artifact, `BENCH_5.json`, records the **rank-parallel
//! partitioner scans** win: wall-clock of one coupler-driven `SET ... BY
//! PARTITIONING` run (RSB's power-iteration matvecs + reductions; RCB's
//! extent/histogram median scans) executed through the `PooledBackend`'s
//! `RankScans` adapter vs the pure driver-side `partition()`, after
//! asserting the partitionings are byte-identical (the fixed-block scan
//! structure guarantees it for any rank count). The RSB row — the
//! matvec-dominated partitioner the scans were built for — is gated at
//! ≥ 2× when the host has ≥ 4 cores (below that the rank chunks timeshare
//! one core and only the phase overhead remains); the RCB row is
//! informational context.
//!
//! A sixth artifact, `BENCH_6.json`, records the **epoch-checkpoint
//! overhead** of the fault-recovery subsystem: wall-clock of a batch of
//! steady-state lang executor sweeps on a 40k-node edge workload with the
//! executor checkpointing every 8 epochs vs checkpointing disabled, after
//! asserting the checkpoint cadence leaves the array values untouched. The
//! checkpoint row is gated at ≤ 10% overhead (both sides run in the same
//! process on the same data, so the ratio is hardware-independent). A
//! second, informational row times an actual rollback recovery — one
//! injected kernel panic late in the sweeps, recovered via
//! `RecoveryPolicy::RollbackToCheckpoint` — and asserts the recovered run
//! is bit-identical (values, modeled clocks, statistics) to the fault-free
//! run.
//!
//! A further artifact, `BENCH_8.json`, records the **flight-recorder
//! overhead**: wall-clock of a batch of steady-state lang executor sweeps
//! on the 40k-node / 120k-edge mesh workload at 8 ranks with a `TraceSink`
//! installed vs tracing disabled, after asserting the traced run is
//! bit-identical (values, modeled clocks, statistics) to the untraced one —
//! the sink only observes. The traced row is gated at ≤ 10% overhead (both
//! sides run in the same process on the same data, so the ratio is
//! hardware-independent); the rings wrap in flight-recorder mode, so the
//! batch also demonstrates the bounded-memory contract.
//!
//! The last artifact, `BENCH_9.json`, records the **metrics-registry
//! overhead**: wall-clock of a batch of steady-state lang executor sweeps
//! on the same 40k-node / 120k-edge mesh workload at 8 ranks with a
//! `MetricsRegistry` installed vs metering disabled, after asserting the
//! metered run is bit-identical (values, modeled clocks, statistics) to
//! the bare one — the registry only observes. The metered row is gated at
//! ≤ 5% overhead (sharded per-lane counters and fixed-bucket histograms
//! are cheaper than the flight recorder's ring writes, so the gate is
//! tighter than BENCH_8's). The artifact also records the cost-model
//! auditor's verdict: one modeled-vs-wall drift row per sampled phase
//! kind (drift ratio, through-origin slope, residual RMS).
//!
//! Usage: `cargo run --release -p chaos-bench --bin perf_check [out.json] [out2.json] [out3.json] [out4.json] [out5.json] [out6.json] [out8.json] [out9.json]`

use chaos_bench::kernel_bench::{edge_executor, edge_program_inputs};
use chaos_bench::spmd_bench::{executor_iteration, executor_workload, phase_overhead_workload};
use chaos_bench::workload::{mesh_workload, partitioner_scan_geocol, partitioner_scan_rsb};
use chaos_dmsim::{
    Backend, ExchangePlan, Machine, MachineConfig, MetricsRegistry, PooledBackend, ThreadedBackend,
    TraceSink,
};
use chaos_geocol::{Partitioner, RcbPartitioner};
use chaos_lang::{Executor, FaultKind, FaultPlan, KernelMode, RecoveryPolicy};
use chaos_runtime::iterpart::partition_iterations;
use chaos_runtime::{
    gather, naive, scatter_add, AccessPattern, DistArray, Distribution, Inspector,
    IterPartitionPolicy, MapperCoupler, TTablePolicy, TranslationTable,
};
use chaos_workloads::{MeshConfig, UnstructuredMesh};
use std::sync::Arc;
use std::time::Instant;

/// Median wall-clock nanoseconds of `samples` runs of `f` (after warm-up).
fn median_ns<F: FnMut()>(samples: usize, mut f: F) -> u128 {
    for _ in 0..samples.div_ceil(5).clamp(1, 5) {
        f();
    }
    let mut times: Vec<u128> = (0..samples)
        .map(|_| {
            let t = Instant::now();
            f();
            t.elapsed().as_nanos()
        })
        .collect();
    times.sort_unstable();
    times[times.len() / 2]
}

/// The seed's `TranslationTable::dereference`: per-index page dispatch into
/// per-destination payload vectors shipped through real `ExchangePlan`s.
/// Reproduced here as the measurement baseline (the runtime's batched
/// implementation replaced it).
fn seed_dereference(
    table: &TranslationTable,
    machine: &mut Machine,
    label: &str,
    requests: &[Vec<u32>],
) -> Vec<Vec<(u32, u32)>> {
    let nprocs = table.nprocs();
    match table.policy() {
        TTablePolicy::Replicated => {
            for (p, reqs) in requests.iter().enumerate() {
                machine.charge_compute(p, reqs.len() as f64);
            }
        }
        TTablePolicy::Distributed => {
            let mut plan: ExchangePlan<u32> = ExchangePlan::new(nprocs);
            let mut counts = vec![vec![0usize; nprocs]; nprocs];
            for (p, reqs) in requests.iter().enumerate() {
                let mut per_dest: Vec<Vec<u32>> = vec![Vec::new(); nprocs];
                for &g in reqs {
                    let page = table.page_owner(g as usize);
                    per_dest[page].push(g);
                    counts[p][page] += 1;
                }
                for (dest, payload) in per_dest.into_iter().enumerate() {
                    plan.push(p, dest, payload);
                }
            }
            machine.exchange(&format!("{label}:deref-request"), plan);
            let mut reply: ExchangePlan<u32> = ExchangePlan::new(nprocs);
            for (p, row) in counts.iter().enumerate() {
                for (page, &cnt) in row.iter().enumerate() {
                    if cnt > 0 {
                        machine.charge_compute(page, cnt as f64);
                        reply.push(page, p, vec![0u32; 2 * cnt]);
                    }
                }
            }
            machine.exchange(&format!("{label}:deref-reply"), reply);
        }
    }
    requests
        .iter()
        .map(|reqs| {
            reqs.iter()
                .map(|&g| {
                    (
                        table.owner(g as usize) as u32,
                        table.local_offset(g as usize) as u32,
                    )
                })
                .collect()
        })
        .collect()
}

struct Row {
    name: &'static str,
    group: &'static str,
    /// Frozen median from the original dev machine (informational).
    recorded_baseline_ns: u128,
    /// Naive reference measured live (the gate's `before`).
    before_ns: u128,
    /// CSR implementation measured live.
    after_ns: u128,
}

/// Measure the executor group on the sequential, scoped-thread and
/// worker-pool engines at `nprocs` ranks: returns `(seq_ns, thr_ns,
/// pool_ns)` medians, after asserting all three engines agree byte-for-byte
/// on values and modeled clocks.
fn engine_comparison_row(
    nprocs: usize,
    workload: (Distribution, Vec<f64>, AccessPattern),
    samples: usize,
) -> (u128, u128, u128) {
    let (dist, data, pattern) = workload;
    let n = data.len();
    let x = DistArray::from_global("x", dist.clone(), &data);
    let mut setup = Machine::new(MachineConfig::ipsc860(nprocs));
    let inspect = Inspector.localize(&mut setup, "bench", &dist, &pattern);
    let mut ghosts: Vec<Vec<f64>> = (0..nprocs)
        .map(|p| vec![0.0; inspect.ghost_counts[p]])
        .collect();

    // Determinism spot-check before timing: one iteration on each engine
    // from identical state must agree bit-for-bit.
    {
        let mut seq = Machine::new(MachineConfig::ipsc860(nprocs));
        let mut thr = ThreadedBackend::from_config(MachineConfig::ipsc860(nprocs));
        let mut pool = PooledBackend::from_config(MachineConfig::ipsc860(nprocs));
        let mut y_seq = DistArray::from_global("y", dist.clone(), &vec![0.0; n]);
        let mut y_thr = y_seq.clone();
        let mut y_pool = y_seq.clone();
        let mut ghosts_thr = ghosts.clone();
        let mut ghosts_pool = ghosts.clone();
        executor_iteration(&mut seq, &inspect.schedule, &x, &mut y_seq, &mut ghosts);
        executor_iteration(&mut thr, &inspect.schedule, &x, &mut y_thr, &mut ghosts_thr);
        executor_iteration(
            &mut pool,
            &inspect.schedule,
            &x,
            &mut y_pool,
            &mut ghosts_pool,
        );
        assert_eq!(ghosts, ghosts_thr, "ghost buffers diverged across engines");
        assert_eq!(ghosts, ghosts_pool, "ghost buffers diverged across engines");
        assert_eq!(
            y_seq.to_global(),
            y_thr.to_global(),
            "scatter results diverged across engines"
        );
        assert_eq!(
            y_seq.to_global(),
            y_pool.to_global(),
            "scatter results diverged across engines"
        );
        assert_eq!(
            seq.elapsed(),
            thr.machine().elapsed(),
            "modeled clocks diverged across engines"
        );
        assert_eq!(
            seq.elapsed(),
            pool.machine().elapsed(),
            "modeled clocks diverged across engines"
        );
    }

    let mut y = DistArray::from_global("y", dist.clone(), &vec![0.0; n]);
    let mut seq = Machine::new(MachineConfig::ipsc860(nprocs));
    let seq_ns = median_ns(samples, || {
        executor_iteration(&mut seq, &inspect.schedule, &x, &mut y, &mut ghosts);
    });
    let mut thr = ThreadedBackend::from_config(MachineConfig::ipsc860(nprocs));
    let thr_ns = median_ns(samples, || {
        executor_iteration(&mut thr, &inspect.schedule, &x, &mut y, &mut ghosts);
    });
    let mut pool = PooledBackend::from_config(MachineConfig::ipsc860(nprocs));
    let pool_ns = median_ns(samples, || {
        executor_iteration(&mut pool, &inspect.schedule, &x, &mut y, &mut ghosts);
    });
    (seq_ns, thr_ns, pool_ns)
}

/// Measure one steady-state `execute_loop` sweep of the shared edge-loop
/// program in both kernel modes: returns `(interpreted_ns, compiled_ns)`
/// medians, after asserting byte-identity of values, clocks and statistics
/// across the two modes.
fn kernel_mode_row(nprocs: usize, nnode: usize, nedge: usize) -> (u128, u128) {
    let inputs = edge_program_inputs(nnode, nedge);
    let (mut interp, cp, label) = edge_executor(KernelMode::Interpreted, nprocs, &inputs);
    let (mut compiled, _, _) = edge_executor(KernelMode::Compiled, nprocs, &inputs);

    // Byte-identity before timing: a few steady-state sweeps in each mode
    // must agree on values, modeled clocks and statistics bit-for-bit.
    for _ in 0..3 {
        interp.execute_loop(&cp, &label).expect("interpreted sweep");
        compiled.execute_loop(&cp, &label).expect("compiled sweep");
    }
    let yi = interp.real_global("y").expect("y");
    let yc = compiled.real_global("y").expect("y");
    for (i, (a, b)) in yi.iter().zip(&yc).enumerate() {
        assert_eq!(a.to_bits(), b.to_bits(), "y[{i}] diverged across modes");
    }
    let (ei, ec) = (interp.machine().elapsed(), compiled.machine().elapsed());
    for p in 0..nprocs {
        assert_eq!(
            ei.per_proc[p].to_bits(),
            ec.per_proc[p].to_bits(),
            "modeled clocks diverged across kernel modes"
        );
    }
    let (si, sc) = (
        interp.machine().stats().grand_totals(),
        compiled.machine().stats().grand_totals(),
    );
    assert_eq!(si, sc, "statistics diverged across kernel modes");

    let interp_ns = median_ns(15, || {
        interp.execute_loop(&cp, &label).expect("interpreted sweep");
    });
    let compiled_ns = median_ns(15, || {
        compiled.execute_loop(&cp, &label).expect("compiled sweep");
    });
    (interp_ns, compiled_ns)
}

fn main() {
    let out_path = std::env::args()
        .nth(1)
        .unwrap_or_else(|| "BENCH_1.json".to_string());
    let out2_path = std::env::args()
        .nth(2)
        .unwrap_or_else(|| "BENCH_2.json".to_string());
    let out3_path = std::env::args()
        .nth(3)
        .unwrap_or_else(|| "BENCH_3.json".to_string());
    let out4_path = std::env::args()
        .nth(4)
        .unwrap_or_else(|| "BENCH_4.json".to_string());
    let out5_path = std::env::args()
        .nth(5)
        .unwrap_or_else(|| "BENCH_5.json".to_string());
    let out6_path = std::env::args()
        .nth(6)
        .unwrap_or_else(|| "BENCH_6.json".to_string());
    let out8_path = std::env::args()
        .nth(7)
        .unwrap_or_else(|| "BENCH_8.json".to_string());
    let out9_path = std::env::args()
        .nth(8)
        .unwrap_or_else(|| "BENCH_9.json".to_string());
    let cores = std::thread::available_parallelism().map_or(1, |c| c.get());
    let mut rows: Vec<Row> = Vec::new();

    // --- executor group: same workload as benches/executor.rs ---
    {
        let w = mesh_workload(MeshConfig::tiny(3000));
        let nprocs = 16;
        let geocol = chaos_geocol::GeoColBuilder::new(w.nnodes)
            .geometry(vec![
                w.coords[0].clone(),
                w.coords[1].clone(),
                w.coords[2].clone(),
            ])
            .build()
            .unwrap();
        let dist = Distribution::irregular_from_map(
            RcbPartitioner.partition(&geocol, nprocs).owners(),
            nprocs,
        );
        let x = DistArray::from_global("x", dist.clone(), &w.input);
        let mut y = DistArray::from_global("y", dist.clone(), &vec![0.0; w.nnodes]);
        let mut machine = Machine::new(MachineConfig::ipsc860(nprocs));
        let iter_part = partition_iterations(
            &mut machine,
            &dist,
            &w.iteration_refs(),
            IterPartitionPolicy::AlmostOwnerComputes,
        );
        let mut pattern = AccessPattern::new(nprocs);
        for p in 0..nprocs {
            for &it in iter_part.iters(p) {
                pattern.refs[p].push(w.e1[it as usize]);
                pattern.refs[p].push(w.e2[it as usize]);
            }
        }
        let inspect = Inspector.localize(&mut machine, "bench", &dist, &pattern);
        let reference = naive::localize(&mut machine, "bench", &dist, &pattern);
        let contributions: Vec<Vec<f64>> = (0..nprocs)
            .map(|p| vec![1.0; inspect.ghost_counts[p]])
            .collect();

        rows.push(Row {
            name: "executor/gather",
            group: "executor",
            recorded_baseline_ns: 8118,
            before_ns: median_ns(30, || {
                let mut machine = Machine::new(MachineConfig::ipsc860(nprocs));
                std::hint::black_box(naive::gather(
                    &mut machine,
                    "bench",
                    &reference.schedule,
                    &x,
                ));
            }),
            after_ns: median_ns(30, || {
                let mut machine = Machine::new(MachineConfig::ipsc860(nprocs));
                std::hint::black_box(gather(&mut machine, "bench", &inspect.schedule, &x));
            }),
        });
        rows.push(Row {
            name: "executor/scatter_add",
            group: "executor",
            recorded_baseline_ns: 12651,
            before_ns: median_ns(30, || {
                let mut machine = Machine::new(MachineConfig::ipsc860(nprocs));
                naive::scatter_add(
                    &mut machine,
                    "bench",
                    &reference.schedule,
                    &mut y,
                    &contributions,
                );
            }),
            after_ns: median_ns(30, || {
                let mut machine = Machine::new(MachineConfig::ipsc860(nprocs));
                scatter_add(
                    &mut machine,
                    "bench",
                    &inspect.schedule,
                    &mut y,
                    &contributions,
                );
            }),
        });
    }

    // --- translation group: same workload as benches/translation.rs ---
    {
        let mesh = UnstructuredMesh::generate(MeshConfig::tiny(4000));
        let nprocs = 16;
        let map: Vec<u32> = (0..mesh.nnodes())
            .map(|i| ((i * 2654435761) % nprocs) as u32)
            .collect();
        let mut requests: Vec<Vec<u32>> = vec![Vec::new(); nprocs];
        let per = mesh.nedges().div_ceil(nprocs);
        for (i, (&a, &b)) in mesh.end_pt1.iter().zip(&mesh.end_pt2).enumerate() {
            let p = (i / per).min(nprocs - 1);
            requests[p].push(a);
            requests[p].push(b);
        }
        for (name, policy, recorded_baseline_ns) in [
            (
                "translation/dereference/replicated",
                TTablePolicy::Replicated,
                65528u128,
            ),
            (
                "translation/dereference/distributed",
                TTablePolicy::Distributed,
                278448,
            ),
        ] {
            let table = TranslationTable::from_map_with_policy(&map, nprocs, policy);
            rows.push(Row {
                name,
                group: "translation",
                recorded_baseline_ns,
                before_ns: median_ns(20, || {
                    let mut machine = Machine::new(MachineConfig::ipsc860(nprocs));
                    std::hint::black_box(seed_dereference(
                        &table,
                        &mut machine,
                        "bench",
                        &requests,
                    ));
                }),
                after_ns: median_ns(20, || {
                    let mut machine = Machine::new(MachineConfig::ipsc860(nprocs));
                    std::hint::black_box(table.dereference(&mut machine, "bench", &requests));
                }),
            });
        }
    }

    // --- report + gate ---
    let mut records: Vec<serde_json::Value> = Vec::new();
    let mut failed = false;
    for group in ["executor", "translation"] {
        let (mut before, mut after) = (0u128, 0u128);
        for r in rows.iter().filter(|r| r.group == group) {
            before += r.before_ns;
            after += r.after_ns;
            let improvement = 1.0 - r.after_ns as f64 / r.before_ns as f64;
            println!(
                "{:<42} naive {:>9} ns  csr {:>9} ns  improvement {:>5.1}%",
                r.name,
                r.before_ns,
                r.after_ns,
                100.0 * improvement
            );
            records.push(serde_json::json!({
                "bench": r.name,
                "group": r.group,
                "before_median_ns": r.before_ns as u64,
                "after_median_ns": r.after_ns as u64,
                "recorded_baseline_ns": r.recorded_baseline_ns as u64,
                "improvement": improvement,
                "available_cores": cores,
            }));
        }
        let improvement = 1.0 - after as f64 / before as f64;
        println!(
            "{:<42} naive {:>9} ns  csr {:>9} ns  improvement {:>5.1}%  (gate: >= 25%)",
            format!("GROUP {group}"),
            before,
            after,
            100.0 * improvement
        );
        records.push(serde_json::json!({
            "group_total": group,
            "before_median_ns": before as u64,
            "after_median_ns": after as u64,
            "improvement": improvement,
            "gate": 0.25,
            "gated": true,
            "gate_arms_at_cores": 1,
            "available_cores": cores,
            "pass": improvement >= 0.25,
        }));
        if improvement < 0.25 {
            failed = true;
        }
    }

    let doc = serde_json::json!({
        "baseline": "naive reference implementation (seed formulation: nested-Vec schedules, HashMap dedup, per-index ExchangePlan dereference), measured live in the same process; recorded_baseline_ns = frozen post-manifest medians from the original dev machine",
        "records": records,
    });
    std::fs::write(&out_path, serde_json::to_string_pretty(&doc).unwrap())
        .unwrap_or_else(|e| panic!("failed to write {out_path}: {e}"));
    println!("wrote {out_path}");

    // --- BENCH_2: thread-scaling of the rank-parallel SPMD engines ---
    let mut records2: Vec<serde_json::Value> = Vec::new();
    for nprocs in [2usize, 4, 8] {
        // Sized so one iteration's data movement (~ms) dominates the
        // per-phase thread-spawn overhead (~tens of µs per rank).
        let (seq_ns, thr_ns, pool_ns) = engine_comparison_row(
            nprocs,
            executor_workload(300_000, nprocs, 600_000 / nprocs),
            9,
        );
        let speedup = seq_ns as f64 / thr_ns as f64;
        let pooled_speedup = seq_ns as f64 / pool_ns as f64;
        // The acceptance gate applies to the 8-rank row, and only on hosts
        // with >= 8 cores, where one thread per rank actually gets a core
        // and the 1.5x bar has 2x+ headroom. With fewer cores the ranks
        // timeshare (no wall-clock speedup is physically possible on 1
        // core; 4-core machines measure ~1.9x but with little margin for a
        // noisy shared runner), so the row is recorded as informational —
        // the engines are byte-identical regardless, which *is* asserted
        // above on every host.
        let gated = nprocs == 8 && cores >= 8;
        let pass = !gated || speedup >= 1.5;
        println!(
            "executor/threads/{nprocs:<2} sequential {seq_ns:>10} ns  threaded {thr_ns:>10} ns  \
             pooled {pool_ns:>10} ns  speedup {speedup:>5.2}x / {pooled_speedup:>5.2}x  \
             ({} cores{})",
            cores,
            if gated {
                ", gate >= 1.5x"
            } else {
                ", informational"
            }
        );
        records2.push(serde_json::json!({
            "bench": format!("executor/threads/{nprocs}"),
            "group": "executor-threads",
            "ranks": nprocs,
            "sequential_median_ns": seq_ns as u64,
            "threaded_median_ns": thr_ns as u64,
            "pooled_median_ns": pool_ns as u64,
            "speedup": speedup,
            "pooled_speedup": pooled_speedup,
            "available_cores": cores,
            "gate": 1.5,
            "gated": gated,
            // Only the 8-rank row's gate ever arms; the smaller rows are
            // scaling-curve context and never gate, encoded as null.
            "gate_arms_at_cores": if nprocs == 8 {
                serde_json::json!(8)
            } else {
                serde_json::Value::Null
            },
            "pass": pass,
        }));
        if !pass {
            failed = true;
        }
    }
    let doc2 = serde_json::json!({
        "baseline": "sequential Backend (Machine) vs ThreadedBackend vs PooledBackend, same executor iteration (gather + scatter-add over a reused schedule), same process; results verified byte-identical before timing. The >=1.5x gate on the 8-rank threaded row arms itself from the recorded available_cores (>= gate_arms_at_cores).",
        "records": records2,
    });
    std::fs::write(&out2_path, serde_json::to_string_pretty(&doc2).unwrap())
        .unwrap_or_else(|e| panic!("failed to write {out2_path}: {e}"));
    println!("wrote {out2_path}");

    // --- BENCH_3: interpreted vs compiled executor sweeps (lang kernels) ---
    let mut records3: Vec<serde_json::Value> = Vec::new();
    {
        let (nprocs, nnode, nedge) = (8usize, 60_000usize, 180_000usize);
        let (interp_ns, compiled_ns) = kernel_mode_row(nprocs, nnode, nedge);
        let speedup = interp_ns as f64 / compiled_ns as f64;
        let pass = speedup >= 2.0;
        println!(
            "lang/sweep/interpreted                     tree {interp_ns:>10} ns  vm {compiled_ns:>10} ns  \
             speedup {speedup:>5.2}x  (gate >= 2x)"
        );
        records3.push(serde_json::json!({
            "bench": "lang/executor-sweep",
            "group": "kernel-compile",
            "ranks": nprocs,
            "nnode": nnode,
            "nedge": nedge,
            "interpreted_median_ns": interp_ns as u64,
            "compiled_median_ns": compiled_ns as u64,
            "speedup": speedup,
            "gate": 2.0,
            "gated": true,
            "gate_arms_at_cores": 1,
            "available_cores": cores,
            "pass": pass,
        }));
        if !pass {
            failed = true;
        }
    }
    let doc3 = serde_json::json!({
        "baseline": "chaos-lang executor sweep (gather + rank-parallel compute + scatter over a reused schedule) with the FORALL body interpreted by the retained tree-walker vs compiled to register bytecode (KernelVm), same process, same machine; array values, modeled clocks and CommStats asserted byte-identical across modes before timing. Gate: compiled must be >= 2x faster.",
        "records": records3,
    });
    std::fs::write(&out3_path, serde_json::to_string_pretty(&doc3).unwrap())
        .unwrap_or_else(|e| panic!("failed to write {out3_path}: {e}"));
    println!("wrote {out3_path}");

    // --- BENCH_4: per-phase overhead, pooled vs scoped-spawn at small N ---
    let mut records4: Vec<serde_json::Value> = Vec::new();
    {
        // Small enough that per-phase engine overhead dominates the data
        // movement: the iteration's two exchange phases move ~KBs, while
        // spawning 4 scoped threads per phase costs tens of µs. The shared
        // fixture (see spmd_bench) is also what the phase_overhead
        // criterion bench drives.
        let nprocs = 4usize;
        let workload = phase_overhead_workload(nprocs);
        let n = workload.1.len();
        let (seq_ns, thr_ns, pool_ns) = engine_comparison_row(nprocs, workload, 25);
        let overhead_ratio = thr_ns as f64 / pool_ns as f64;
        // The >=2x bar asks the pool to beat per-phase thread spawn by a
        // wide margin. On hosts with < 4 cores the spawned threads
        // timeshare and the comparison measures the scheduler, not the
        // engines, so the row auto-arms only at >= 4 cores.
        let gated = cores >= 4;
        let pass = !gated || overhead_ratio >= 2.0;
        println!(
            "executor/phase-overhead/{nprocs} sequential {seq_ns:>9} ns  spawn {thr_ns:>9} ns  \
             pooled {pool_ns:>9} ns  overhead ratio {overhead_ratio:>5.2}x  ({} cores{})",
            cores,
            if gated {
                ", gate >= 2x"
            } else {
                ", informational"
            }
        );
        records4.push(serde_json::json!({
            "bench": format!("executor/phase-overhead/{nprocs}"),
            "group": "phase-overhead",
            "ranks": nprocs,
            "n": n,
            "sequential_median_ns": seq_ns as u64,
            "threaded_spawn_median_ns": thr_ns as u64,
            "pooled_median_ns": pool_ns as u64,
            "overhead_ratio": overhead_ratio,
            "available_cores": cores,
            "gate": 2.0,
            "gated": gated,
            "gate_arms_at_cores": 4,
            "pass": pass,
        }));
        if !pass {
            failed = true;
        }
    }
    let doc4 = serde_json::json!({
        "baseline": "ThreadedBackend (one scoped OS thread per rank per phase) vs PooledBackend (persistent workers, epoch barrier), one steady-state executor iteration over a small-N workload where per-phase engine overhead dominates; results verified byte-identical before timing. The >=2x lower-overhead gate arms itself from the recorded available_cores (>= gate_arms_at_cores).",
        "records": records4,
    });
    std::fs::write(&out4_path, serde_json::to_string_pretty(&doc4).unwrap())
        .unwrap_or_else(|e| panic!("failed to write {out4_path}: {e}"));
    println!("wrote {out4_path}");

    // --- BENCH_5: rank-parallel partitioner scans, serial vs pooled ---
    let mut records5: Vec<serde_json::Value> = Vec::new();
    {
        // The shared fixture (also driven by the partitioners criterion
        // bench's partitioner_scans group): big enough that RSB's matvec
        // work dominates the per-scan pool hand-off (~µs) and RCB's top
        // levels take the histogram path. 4 ranks so that at the gate's
        // arming threshold (4 cores) every rank owns a core — the same
        // one-core-per-rank rule BENCH_2 applies — leaving the 2x bar
        // real headroom instead of measuring timesharing.
        let geocol = partitioner_scan_geocol(40_000);
        let nprocs = 4usize;
        let rsb = partitioner_scan_rsb();
        let cases: [(&str, &dyn Partitioner, bool); 2] =
            [("rsb", &rsb, true), ("rcb", &RcbPartitioner, false)];
        for (name, partitioner, rsb_gate) in cases {
            // Byte-identity before timing: the coupler-driven pooled run
            // must reproduce the pure serial partitioning exactly (the
            // fixed-block scan structure guarantees it for any rank count).
            let oracle = partitioner.partition(&geocol, nprocs);
            {
                let mut pool = PooledBackend::from_config(MachineConfig::ipsc860(nprocs));
                let outcome = MapperCoupler.partition(&mut pool, partitioner, &geocol);
                assert_eq!(
                    outcome.partitioning.owners(),
                    oracle.owners(),
                    "{name}: pooled scans diverged from the serial partition() oracle"
                );
            }
            let samples = 7;
            let serial_ns = median_ns(samples, || {
                std::hint::black_box(partitioner.partition(&geocol, nprocs));
            });
            let mut pool = PooledBackend::from_config(MachineConfig::ipsc860(nprocs));
            let pooled_ns = median_ns(samples, || {
                std::hint::black_box(MapperCoupler.partition(&mut pool, partitioner, &geocol));
            });
            let speedup = serial_ns as f64 / pooled_ns as f64;
            // The gate asks the pooled scans to beat the driver-side loop
            // by 2x; it arms on >= 4 cores (one per rank, 2x headroom over
            // the bar — below that the rank chunks timeshare and the ratio
            // measures scheduler noise), and only for RSB — the
            // matvec-dominated partitioner the scans were built for; RCB's
            // histogram levels are context.
            let gated = rsb_gate && cores >= 4;
            let pass = !gated || speedup >= 2.0;
            println!(
                "partitioner/scans/{name:<4} serial {serial_ns:>11} ns  pooled {pooled_ns:>11} ns  \
                 speedup {speedup:>5.2}x  ({} cores{})",
                cores,
                if gated { ", gate >= 2x" } else { ", informational" }
            );
            records5.push(serde_json::json!({
                "bench": format!("partitioner/scans/{name}"),
                "group": "partitioner-scans",
                "ranks": nprocs,
                "nnodes": geocol.nvertices(),
                "nedges": geocol.nedges(),
                "serial_median_ns": serial_ns as u64,
                "pooled_median_ns": pooled_ns as u64,
                "speedup": speedup,
                "available_cores": cores,
                "gate": 2.0,
                "gated": gated,
                "gate_arms_at_cores": if rsb_gate {
                    serde_json::json!(4)
                } else {
                    serde_json::Value::Null
                },
                "pass": pass,
            }));
            if !pass {
                failed = true;
            }
        }
    }
    let doc5 = serde_json::json!({
        "baseline": "pure driver-side Partitioner::partition() vs the same partitioner driven through MapperCoupler::partition over PooledBackend (RankScans scans rank-parallel on the worker pool), same GeoCoL, same process; partitionings asserted byte-identical before timing (fixed-block scans make the result independent of rank count and engine). The >=2x gate on the RSB row arms itself from the recorded available_cores (>= gate_arms_at_cores).",
        "records": records5,
    });
    std::fs::write(&out5_path, serde_json::to_string_pretty(&doc5).unwrap())
        .unwrap_or_else(|e| panic!("failed to write {out5_path}: {e}"));
    println!("wrote {out5_path}");

    // --- BENCH_6: epoch-checkpoint overhead + rollback recovery ---
    let mut records6: Vec<serde_json::Value> = Vec::new();
    {
        let (nprocs, nnode, nedge) = (8usize, 40_000usize, 120_000usize);
        let inputs = edge_program_inputs(nnode, nedge);
        let (base, cp, label) = edge_executor(KernelMode::Compiled, nprocs, &inputs);
        let (ckpt, _, _) = edge_executor(KernelMode::Compiled, nprocs, &inputs);
        let mut base = base;
        let mut ckpt = ckpt.with_checkpoint_every(8);

        // Checkpointing only copies state and charges modeled scan cost:
        // the array values must be untouched by the cadence.
        for _ in 0..8 {
            base.execute_loop(&cp, &label).expect("sweep");
            ckpt.execute_loop(&cp, &label).expect("sweep");
        }
        let yb = base.real_global("y").expect("y");
        let yc = ckpt.real_global("y").expect("y");
        for (i, (a, b)) in yb.iter().zip(&yc).enumerate() {
            assert_eq!(
                a.to_bits(),
                b.to_bits(),
                "y[{i}] perturbed by checkpointing"
            );
        }

        // Interleave the paired batches so container noise / frequency
        // drift lands on both sides of the gated ratio, not just one.
        let samples = 15;
        let mut base_times: Vec<u128> = Vec::with_capacity(samples);
        let mut ckpt_times: Vec<u128> = Vec::with_capacity(samples);
        for _ in 0..3 {
            for _ in 0..8 {
                base.execute_loop(&cp, &label).expect("sweep");
                ckpt.execute_loop(&cp, &label).expect("sweep");
            }
        }
        for _ in 0..samples {
            let t = Instant::now();
            for _ in 0..8 {
                base.execute_loop(&cp, &label).expect("sweep");
            }
            base_times.push(t.elapsed().as_nanos());
            let t = Instant::now();
            for _ in 0..8 {
                ckpt.execute_loop(&cp, &label).expect("sweep");
            }
            ckpt_times.push(t.elapsed().as_nanos());
        }
        base_times.sort_unstable();
        ckpt_times.sort_unstable();
        let base_ns = base_times[samples / 2];
        let ckpt_ns = ckpt_times[samples / 2];
        let overhead = ckpt_ns as f64 / base_ns as f64 - 1.0;
        let pass = overhead <= 0.10;
        println!(
            "lang/checkpoint-overhead/8-epochs    plain {base_ns:>11} ns  checkpointed {ckpt_ns:>11} ns  \
             overhead {:>5.1}%  (gate <= 10%)",
            100.0 * overhead
        );
        records6.push(serde_json::json!({
            "bench": "lang/checkpoint-overhead",
            "group": "fault-recovery",
            "ranks": nprocs,
            "nnode": nnode,
            "nedge": nedge,
            "checkpoint_every_epochs": 8,
            "sweeps_per_sample": 8,
            "base_median_ns": base_ns as u64,
            "checkpoint_median_ns": ckpt_ns as u64,
            "overhead": overhead,
            "available_cores": cores,
            "gate": 0.10,
            "gated": true,
            "gate_arms_at_cores": 1,
            "pass": pass,
        }));
        if !pass {
            failed = true;
        }

        // Rollback recovery, informational: one injected kernel panic late
        // in the sweeps, recovered via RollbackToCheckpoint (restore the
        // last epoch checkpoint, replay the journaled sweeps), asserted
        // bit-identical to the fault-free run before reporting the cost.
        let sweeps = 12usize;
        let preamble_epoch = {
            let (probe, _, _) = edge_executor(KernelMode::Compiled, nprocs, &inputs);
            probe.machine().epoch()
        };
        let run_case = |plan: Option<Arc<FaultPlan>>| -> (Executor, u128) {
            let (exec, cp2, label2) = edge_executor(KernelMode::Compiled, nprocs, &inputs);
            let mut exec = exec.with_checkpoint_every(8);
            if let Some(p) = plan {
                exec = exec
                    .with_fault_plan(p)
                    .with_recovery_policy(RecoveryPolicy::RollbackToCheckpoint);
            }
            let t = Instant::now();
            for _ in 0..sweeps {
                exec.execute_loop(&cp2, &label2).expect("sweep");
            }
            (exec, t.elapsed().as_nanos())
        };
        let (clean, clean_ns) = run_case(None);
        let end_epoch = clean.machine().epoch();
        let fault_epoch = preamble_epoch + 3 * (end_epoch - preamble_epoch) / 4;
        let plan =
            Arc::new(FaultPlan::new().with_fault(fault_epoch, nprocs - 1, FaultKind::KernelPanic));
        // The injected panic is caught and recovered by the executor;
        // silence the default hook so the expected payload does not spray a
        // backtrace into the CI log.
        let prev_hook = std::panic::take_hook();
        std::panic::set_hook(Box::new(|_| {}));
        let (recovered, recovered_ns) = run_case(Some(plan));
        std::panic::set_hook(prev_hook);

        let ya = clean.real_global("y").expect("y");
        let yr = recovered.real_global("y").expect("y");
        for (i, (a, b)) in ya.iter().zip(&yr).enumerate() {
            assert_eq!(a.to_bits(), b.to_bits(), "y[{i}] diverged after recovery");
        }
        let (ea, er) = (clean.machine().elapsed(), recovered.machine().elapsed());
        for p in 0..nprocs {
            assert_eq!(
                ea.per_proc[p].to_bits(),
                er.per_proc[p].to_bits(),
                "modeled clocks diverged after recovery"
            );
        }
        assert_eq!(
            clean.machine().stats().grand_totals(),
            recovered.machine().stats().grand_totals(),
            "statistics diverged after recovery"
        );
        let recovery_overhead = recovered_ns as f64 / clean_ns as f64 - 1.0;
        println!(
            "lang/rollback-recovery               clean {clean_ns:>11} ns  recovered   {recovered_ns:>11} ns  \
             overhead {:>5.1}%  (informational, bit-identical)",
            100.0 * recovery_overhead
        );
        records6.push(serde_json::json!({
            "bench": "lang/rollback-recovery",
            "group": "fault-recovery",
            "ranks": nprocs,
            "nnode": nnode,
            "nedge": nedge,
            "sweeps": sweeps,
            "fault_epoch": fault_epoch,
            "clean_ns": clean_ns as u64,
            "recovered_ns": recovered_ns as u64,
            "recovery_overhead": recovery_overhead,
            "bit_identical": true,
            "available_cores": cores,
            "gate": serde_json::Value::Null,
            "gated": false,
            "gate_arms_at_cores": serde_json::Value::Null,
            "pass": true,
        }));
    }
    let doc6 = serde_json::json!({
        "baseline": "chaos-lang executor sweeps with epoch checkpointing disabled vs checkpointing every 8 epochs (dirty-array value copies + machine snapshot + modeled scan charges), same process, same data; values asserted byte-identical across cadences before timing. Gate: <= 10% wall-clock overhead. The rollback-recovery row injects one kernel panic, recovers via RollbackToCheckpoint and asserts bit-identity of values, clocks and statistics; its cost is informational.",
        "records": records6,
    });
    std::fs::write(&out6_path, serde_json::to_string_pretty(&doc6).unwrap())
        .unwrap_or_else(|e| panic!("failed to write {out6_path}: {e}"));
    println!("wrote {out6_path}");

    // --- BENCH_8: flight-recorder overhead, traced vs untraced sweeps ---
    let mut records8: Vec<serde_json::Value> = Vec::new();
    {
        let (nprocs, nnode, nedge) = (8usize, 40_000usize, 120_000usize);
        let inputs = edge_program_inputs(nnode, nedge);
        let (base, cp, label) = edge_executor(KernelMode::Compiled, nprocs, &inputs);
        let (traced, _, _) = edge_executor(KernelMode::Compiled, nprocs, &inputs);
        let mut base = base;
        let sink = Arc::new(TraceSink::new(0));
        let mut traced = traced.with_trace(Arc::clone(&sink));

        // The sink only observes: the traced run's values, modeled clocks
        // and statistics must be bit-identical to the untraced one.
        for _ in 0..8 {
            base.execute_loop(&cp, &label).expect("sweep");
            traced.execute_loop(&cp, &label).expect("sweep");
        }
        let yb = base.real_global("y").expect("y");
        let yt = traced.real_global("y").expect("y");
        for (i, (a, b)) in yb.iter().zip(&yt).enumerate() {
            assert_eq!(a.to_bits(), b.to_bits(), "y[{i}] perturbed by tracing");
        }
        let (eb, et) = (base.machine().elapsed(), traced.machine().elapsed());
        for p in 0..nprocs {
            assert_eq!(
                eb.per_proc[p].to_bits(),
                et.per_proc[p].to_bits(),
                "modeled clocks perturbed by tracing"
            );
        }
        assert_eq!(
            base.machine().stats().grand_totals(),
            traced.machine().stats().grand_totals(),
            "statistics perturbed by tracing"
        );

        // Interleave the paired batches so container noise / frequency
        // drift lands on both sides of the gated ratio, not just one.
        let samples = 15;
        let mut base_times: Vec<u128> = Vec::with_capacity(samples);
        let mut traced_times: Vec<u128> = Vec::with_capacity(samples);
        for _ in 0..3 {
            for _ in 0..8 {
                base.execute_loop(&cp, &label).expect("sweep");
                traced.execute_loop(&cp, &label).expect("sweep");
            }
        }
        for _ in 0..samples {
            let t = Instant::now();
            for _ in 0..8 {
                base.execute_loop(&cp, &label).expect("sweep");
            }
            base_times.push(t.elapsed().as_nanos());
            let t = Instant::now();
            for _ in 0..8 {
                traced.execute_loop(&cp, &label).expect("sweep");
            }
            traced_times.push(t.elapsed().as_nanos());
        }
        base_times.sort_unstable();
        traced_times.sort_unstable();
        let base_ns = base_times[samples / 2];
        let traced_ns = traced_times[samples / 2];
        let overhead = traced_ns as f64 / base_ns as f64 - 1.0;
        let pass = overhead <= 0.10;
        println!(
            "lang/trace-overhead/8-sweeps         plain {base_ns:>11} ns  traced       {traced_ns:>11} ns  \
             overhead {:>5.1}%  (gate <= 10%)",
            100.0 * overhead
        );
        records8.push(serde_json::json!({
            "bench": "lang/trace-overhead",
            "group": "observability",
            "ranks": nprocs,
            "nnode": nnode,
            "nedge": nedge,
            "sweeps_per_sample": 8,
            "base_median_ns": base_ns as u64,
            "traced_median_ns": traced_ns as u64,
            "overhead": overhead,
            "ring_events_dropped": sink.dropped(),
            "available_cores": cores,
            "gate": 0.10,
            "gated": true,
            "gate_arms_at_cores": 1,
            "pass": pass,
        }));
        if !pass {
            failed = true;
        }
    }
    let doc8 = serde_json::json!({
        "baseline": "chaos-lang executor sweeps with no TraceSink installed vs the same sweeps with the flight recorder enabled (bounded per-lane rings, wall + modeled stamps on every event), same process, same data; values, modeled clocks and statistics asserted bit-identical across the two runs before timing. Gate: <= 10% wall-clock overhead.",
        "records": records8,
    });
    std::fs::write(&out8_path, serde_json::to_string_pretty(&doc8).unwrap())
        .unwrap_or_else(|e| panic!("failed to write {out8_path}: {e}"));
    println!("wrote {out8_path}");

    // --- BENCH_9: metrics-registry overhead, metered vs bare sweeps ---
    let mut records9: Vec<serde_json::Value> = Vec::new();
    {
        let (nprocs, nnode, nedge) = (8usize, 40_000usize, 120_000usize);
        let inputs = edge_program_inputs(nnode, nedge);
        let (base, cp, label) = edge_executor(KernelMode::Compiled, nprocs, &inputs);
        let (metered, _, _) = edge_executor(KernelMode::Compiled, nprocs, &inputs);
        let mut base = base;
        let registry = Arc::new(MetricsRegistry::new(0));
        let mut metered = metered.with_metrics(Arc::clone(&registry));

        // The registry only observes: the metered run's values, modeled
        // clocks and statistics must be bit-identical to the bare one.
        for _ in 0..8 {
            base.execute_loop(&cp, &label).expect("sweep");
            metered.execute_loop(&cp, &label).expect("sweep");
        }
        let yb = base.real_global("y").expect("y");
        let ym = metered.real_global("y").expect("y");
        for (i, (a, b)) in yb.iter().zip(&ym).enumerate() {
            assert_eq!(a.to_bits(), b.to_bits(), "y[{i}] perturbed by metering");
        }
        let (eb, em) = (base.machine().elapsed(), metered.machine().elapsed());
        for p in 0..nprocs {
            assert_eq!(
                eb.per_proc[p].to_bits(),
                em.per_proc[p].to_bits(),
                "modeled clocks perturbed by metering"
            );
        }
        assert_eq!(
            base.machine().stats().grand_totals(),
            metered.machine().stats().grand_totals(),
            "statistics perturbed by metering"
        );

        // The 5% gate is tighter than the container's slow load drift, so
        // gate the *median of per-pair ratios* (each pair is adjacent in
        // time, cancelling drift) with the pair order alternating so a
        // mid-pair load spike lands on both sides across the sample set.
        let samples = 25;
        let mut base_times: Vec<u128> = Vec::with_capacity(samples);
        let mut metered_times: Vec<u128> = Vec::with_capacity(samples);
        let mut ratios: Vec<f64> = Vec::with_capacity(samples);
        for _ in 0..3 {
            for _ in 0..8 {
                base.execute_loop(&cp, &label).expect("sweep");
                metered.execute_loop(&cp, &label).expect("sweep");
            }
        }
        let batch = |exec: &mut Executor| {
            let t = Instant::now();
            for _ in 0..8 {
                exec.execute_loop(&cp, &label).expect("sweep");
            }
            t.elapsed().as_nanos()
        };
        for i in 0..samples {
            let (b, m) = if i % 2 == 0 {
                let b = batch(&mut base);
                let m = batch(&mut metered);
                (b, m)
            } else {
                let m = batch(&mut metered);
                let b = batch(&mut base);
                (b, m)
            };
            base_times.push(b);
            metered_times.push(m);
            ratios.push(m as f64 / b as f64);
        }
        base_times.sort_unstable();
        metered_times.sort_unstable();
        ratios.sort_by(|a, b| a.partial_cmp(b).unwrap());
        let base_ns = base_times[samples / 2];
        let metered_ns = metered_times[samples / 2];
        let overhead = ratios[samples / 2] - 1.0;
        let pass = overhead <= 0.05;
        println!(
            "lang/metrics-overhead/8-sweeps       plain {base_ns:>11} ns  metered      {metered_ns:>11} ns  \
             overhead {:>5.1}%  (gate <= 5%)",
            100.0 * overhead
        );
        let snap = registry.snapshot();
        let drift_rows: Vec<serde_json::Value> = registry
            .audit_report()
            .rows
            .iter()
            .map(|r| {
                serde_json::json!({
                    "kind": format!("{:?}", r.kind),
                    "samples": r.samples,
                    "modeled_s": r.modeled_s,
                    "wall_s": r.wall_s,
                    "drift": r.drift,
                    "slope": r.slope,
                    "residual_rms": r.residual_rms,
                })
            })
            .collect();
        records9.push(serde_json::json!({
            "bench": "lang/metrics-overhead",
            "group": "observability",
            "ranks": nprocs,
            "nnode": nnode,
            "nedge": nedge,
            "sweeps_per_sample": 8,
            "base_median_ns": base_ns as u64,
            "metered_median_ns": metered_ns as u64,
            "overhead": overhead,
            "lane_events_lost": snap.lane_events_lost,
            "available_cores": cores,
            "gate": 0.05,
            "gated": true,
            "gate_arms_at_cores": 1,
            "pass": pass,
            "model_drift": drift_rows,
        }));
        if !pass {
            failed = true;
        }
    }
    let doc9 = serde_json::json!({
        "baseline": "chaos-lang executor sweeps with no MetricsRegistry installed vs the same sweeps with the metrics registry enabled (sharded per-lane counters, fixed-bucket log2 latency histograms, cost-model audit sampling at phase-kind boundaries), same process, same data; values, modeled clocks and statistics asserted bit-identical across the two runs before timing. The gated overhead is the median of per-pair metered/base wall ratios over alternating-order adjacent pairs, which cancels slow container load drift the 5% gate would otherwise alias. Gate: <= 5% wall-clock overhead. model_drift records the cost-model auditor's modeled-vs-wall verdict per phase kind: drift ratio (wall/modeled), through-origin regression slope, residual RMS.",
        "records": records9,
    });
    std::fs::write(&out9_path, serde_json::to_string_pretty(&doc9).unwrap())
        .unwrap_or_else(|e| panic!("failed to write {out9_path}: {e}"));
    println!("wrote {out9_path}");

    if failed {
        eprintln!("perf gate FAILED: a benchmark group missed its gate (see rows above)");
        std::process::exit(1);
    }
}
