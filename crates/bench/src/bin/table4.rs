//! Table 4 — performance of naive BLOCK partitioning with schedule reuse:
//! inspector / remap / executor / total across the workload × processor
//! grid, for comparison against the irregular distributions of Table 3.
//! Printed from the compiler-generated program.
//!
//! Run `cargo run -p chaos-bench --bin table4 --release` (add `--quick` for
//! a scaled-down smoke run).

use chaos_bench::cli::Options;
use chaos_bench::tables::{run_table, table_runs, EXECUTOR, INSPECTOR, REMAP, TOTAL};
use chaos_lang::LangError;

fn main() -> Result<(), LangError> {
    let opts = Options::from_env();
    let runs = table_runs(4, &opts);
    let title = format!(
        "Table 4: BLOCK partitioning with schedule reuse ({} executor iterations, modeled seconds)",
        opts.iterations
    );
    let (mut table, times) = run_table(4, &title, &opts, &runs)?;
    let (block, rcb) = times.split_at(times.len() / 2);

    table.phase_rows(&[INSPECTOR, REMAP, EXECUTOR, TOTAL], block);
    // Extra row not in the paper's table but implied by its Section 6.2
    // discussion: how much worse BLOCK's executor is than RCB's.
    let mut ratio_row = vec!["Executor vs RCB".to_string()];
    ratio_row.extend(
        block
            .iter()
            .zip(rcb)
            .map(|(b, r)| format!("{:.2}x", b.executor / r.executor.max(1e-12))),
    );
    table.row(ratio_row);
    println!("{}", table.render());
    Ok(())
}
