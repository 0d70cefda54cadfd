//! Performance gates: four hardware-independent wall-clock ratios.
//!
//! Each gate runs two `chaos-lang` executors over the same steady-state
//! sweeps of the shared edge-loop program (`kernel_bench`, 40k nodes / 120k
//! edges on 8 ranks of the sequential engine) in the same process, so the
//! ratio does not depend on the host or its core count:
//!
//! | gate | variant vs base | bound |
//! |------|-----------------|-------|
//! | kernel compiler | tree-walking interpreter vs block-at-a-time bytecode | compiled ≥ 4× faster |
//! | checkpointing | `RollbackToCheckpoint { every: 8 }` vs `Abort` | ≤ 10 % slower |
//! | flight recorder | `with_trace` vs none | ≤ 10 % slower |
//! | metrics registry | `with_metrics` vs none | ≤ 5 % slower |
//!
//! That each variant computes bit-identical values, clocks and statistics to
//! its base is a tier-1 test (`kernel_equivalence`,
//! `fault_recovery::checkpoint_cadence_leaves_values_untouched`,
//! `observer_identity` for both observers), not repeated here. Whether a change
//! made whole programs faster is `benchmark/`'s question, not this binary's.
//!
//! Usage: `cargo run --release -p chaos-bench --bin perf_check` — no
//! arguments, no files written; prints one row per gate and exits 1 if any
//! bound is missed.

use chaos_bench::cli::{exit_on_stop, no_arguments};
use chaos_bench::kernel_bench::{edge_executor, edge_program_inputs};
use chaos_dmsim::{MetricsRegistry, TraceSink};
use chaos_lang::{CompiledProgram, Executor, KernelMode, RecoveryPolicy};
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

/// What a gate requires of its variant/base ratio.
enum Bound {
    /// The base must be at least this many times faster than the variant.
    SpeedupAtLeast(f64),
    /// The variant may be at most this fraction slower than the base.
    OverheadAtMost(f64),
}

/// One gate: the variant's kernel mode and configuration (the base is always
/// the plain compiled executor) and the bound on their ratio.
struct Gate {
    name: &'static str,
    mode: KernelMode,
    configure: fn(Executor) -> Executor,
    bound: Bound,
}

const GATES: [Gate; 4] = [
    Gate {
        name: "compiled vs interpreted kernel",
        mode: KernelMode::Interpreted,
        configure: |e| e,
        bound: Bound::SpeedupAtLeast(4.0),
    },
    Gate {
        name: "checkpoint every 8 epochs",
        mode: KernelMode::Compiled,
        configure: |e| e.with_recovery_policy(RecoveryPolicy::RollbackToCheckpoint { every: 8 }),
        bound: Bound::OverheadAtMost(0.10),
    },
    Gate {
        name: "flight recorder installed",
        mode: KernelMode::Compiled,
        configure: |e| e.with_trace(Arc::new(TraceSink::new(0))),
        bound: Bound::OverheadAtMost(0.10),
    },
    Gate {
        name: "metrics registry installed",
        mode: KernelMode::Compiled,
        configure: |e| e.with_metrics(Arc::new(MetricsRegistry::new(0))),
        bound: Bound::OverheadAtMost(0.05),
    },
];

fn main() {
    exit_on_stop(no_arguments(
        std::env::args().skip(1),
        "usage: perf_check  (no arguments; prints four gate rows, exits 1 on a miss)",
    ));
    let inputs = edge_program_inputs(NNODE, NEDGE);
    let mut failed = false;
    for gate in &GATES {
        let (mut base, cp, label) = edge_executor(KernelMode::Compiled, NPROCS, &inputs);
        let (variant, _, _) = edge_executor(gate.mode, NPROCS, &inputs);
        let mut variant = (gate.configure)(variant);
        let ratio = paired_ratio(&mut base, &mut variant, &cp, &label);
        let (measured, required, pass) = match gate.bound {
            Bound::SpeedupAtLeast(min) => (
                format!("speedup {ratio:>6.2}x"),
                format!(">= {min}x"),
                ratio >= min,
            ),
            Bound::OverheadAtMost(max) => (
                format!("overhead {:>+5.1}%", 100.0 * (ratio - 1.0)),
                format!("<= {:.0}%", 100.0 * max),
                ratio - 1.0 <= max,
            ),
        };
        let verdict = if pass { "ok" } else { "MISSED" };
        println!("{:<32} {measured}  (gate {required})  {verdict}", gate.name);
        failed |= !pass;
    }
    if failed {
        eprintln!("perf gate FAILED: a row above missed its bound");
        std::process::exit(1);
    }
}
