//! Table 1 — execution time of the irregular loop for 100 iterations with
//! and without communication-schedule reuse.
//!
//! Paper setting: loop over edges of the 10K / 53K unstructured Euler meshes
//! and the 648-atom MD electrostatic loop, arrays decomposed irregularly
//! with recursive binary (coordinate) dissection, Intel iPSC/860. Printed
//! from the compiler-generated program.
//!
//! Run `cargo run -p chaos-bench --bin table1 --release` for the full-size
//! experiment or add `--quick` for a scaled-down smoke run.

use chaos_bench::cli::Options;
use chaos_bench::experiment::PhaseTimes;
use chaos_bench::tables::{run_table, table_runs};
use chaos_lang::LangError;

fn main() -> Result<(), LangError> {
    let opts = Options::from_env();
    let runs = table_runs(1, &opts);
    let title = format!(
        "Table 1: Performance with and without schedule reuse ({} executor iterations, RCB-partitioned, modeled seconds)",
        opts.iterations
    );
    let (mut table, times) = run_table(1, &title, &opts, &runs)?;
    let (no_reuse, reuse) = times.split_at(times.len() / 2);

    // Table 1 reports the time of the 100-iteration loop itself: inspector
    // (repeated when reuse is off) + executor.
    let loop_time = |t: &PhaseTimes| t.inspector + t.executor;
    table.phase_rows(&[("No Schedule Reuse", loop_time)], no_reuse);
    table.phase_rows(&[("Schedule Reuse", loop_time)], reuse);
    println!("{}", table.render());
    Ok(())
}
