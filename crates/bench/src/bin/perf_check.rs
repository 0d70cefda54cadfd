//! Performance gates: three hardware-independent wall-clock overheads.
//!
//! Each gate runs two `chaos-lang` executors over the same steady-state
//! sweeps of the shared edge-loop program (`kernel_bench`, 40k nodes / 120k
//! edges on 8 ranks of the sequential engine) in the same process, so the
//! ratio does not depend on the host or its core count:
//!
//! | gate | variant vs base | bound |
//! |------|-----------------|-------|
//! | checkpointing | `RollbackToCheckpoint { every: 8 }` vs `Abort` | ≤ 10 % slower |
//! | flight recorder | `with_trace` vs none | ≤ 10 % slower |
//! | metrics registry | `with_metrics` vs none | ≤ 5 % slower |
//!
//! That each variant computes bit-identical values, clocks and statistics to
//! its base is a tier-1 test
//! (`fault_recovery::checkpoint_cadence_leaves_values_untouched`,
//! `observer_identity` for both observers), not repeated here. Whether a change
//! made whole programs faster is `benchmark/`'s question, not this binary's.
//!
//! Usage: `cargo run --release -p chaos-bench --bin perf_check` — no
//! arguments, no files written; prints one row per gate and exits 1 if any
//! bound is missed.

use chaos_bench::cli::{exit_on_stop, no_arguments};
use chaos_bench::kernel_bench::{edge_executor, edge_program_inputs};
use chaos_dmsim::{MetricsRegistry, TraceSink};
use chaos_lang::{CompiledProgram, Executor, RecoveryPolicy};
use std::sync::Arc;
use std::time::Instant;

const NPROCS: usize = 8;
const NNODE: usize = 40_000;
const NEDGE: usize = 120_000;
/// Timed pairs per gate, and sweeps per timed batch.
const PAIRS: usize = 25;
const SWEEPS: usize = 8;

/// Median over [`PAIRS`] pairs of `wall(variant batch) / wall(base batch)`.
///
/// The two batches of a pair are adjacent in time, so slow load drift on a
/// shared host cancels inside each ratio instead of aliasing into a 5 %
/// bound, and the order within a pair alternates so a mid-pair spike lands
/// on both sides across the sample set.
fn paired_ratio(
    base: &mut Executor,
    variant: &mut Executor,
    cp: &CompiledProgram,
    label: &str,
) -> f64 {
    let batch = |exec: &mut Executor| {
        let t = Instant::now();
        for _ in 0..SWEEPS {
            exec.execute_loop(cp, label).expect("sweep");
        }
        t.elapsed().as_nanos() as f64
    };
    for _ in 0..3 {
        batch(base);
        batch(variant);
    }
    let mut ratios: Vec<f64> = (0..PAIRS)
        .map(|i| {
            if i % 2 == 0 {
                let b = batch(base);
                batch(variant) / b
            } else {
                let v = batch(variant);
                v / batch(base)
            }
        })
        .collect();
    ratios.sort_by(f64::total_cmp);
    ratios[PAIRS / 2]
}

/// One gate: the variant's configuration (the base is always the plain
/// executor) and the fraction by which the variant may at most be slower.
struct Gate {
    name: &'static str,
    configure: fn(Executor) -> Executor,
    max_overhead: f64,
}

const GATES: [Gate; 3] = [
    Gate {
        name: "checkpoint every 8 epochs",
        configure: |e| e.with_recovery_policy(RecoveryPolicy::RollbackToCheckpoint { every: 8 }),
        max_overhead: 0.10,
    },
    Gate {
        name: "flight recorder installed",
        configure: |e| e.with_trace(Arc::new(TraceSink::new(0))),
        max_overhead: 0.10,
    },
    Gate {
        name: "metrics registry installed",
        configure: |e| e.with_metrics(Arc::new(MetricsRegistry::new(0))),
        max_overhead: 0.05,
    },
];

fn main() {
    exit_on_stop(no_arguments(
        std::env::args().skip(1),
        "usage: perf_check  (no arguments; prints three gate rows, exits 1 on a miss)",
    ));
    let inputs = edge_program_inputs(NNODE, NEDGE);
    let mut failed = false;
    for gate in &GATES {
        let (mut base, cp, label) = edge_executor(NPROCS, &inputs);
        let (variant, _, _) = edge_executor(NPROCS, &inputs);
        let mut variant = (gate.configure)(variant);
        let overhead = paired_ratio(&mut base, &mut variant, &cp, &label) - 1.0;
        let pass = overhead <= gate.max_overhead;
        let verdict = if pass { "ok" } else { "MISSED" };
        println!(
            "{:<32} overhead {:>+5.1}%  (gate <= {:.0}%)  {verdict}",
            gate.name,
            100.0 * overhead,
            100.0 * gate.max_overhead
        );
        failed |= !pass;
    }
    if failed {
        eprintln!("perf gate FAILED: a row above missed its bound");
        std::process::exit(1);
    }
}
