//! Table 3 — detailed performance of the compiler-linked coordinate
//! bisection partitioner with schedule reuse: partitioner / inspector /
//! remap / executor / total, across the workload × processor grid. Printed
//! from the compiler-generated program.
//!
//! Run `cargo run -p chaos-bench --bin table3 --release` (add `--quick` for
//! a scaled-down smoke run).

use chaos_bench::cli::Options;
use chaos_bench::tables::{
    run_table, table_runs, EXECUTOR, INSPECTOR, PARTITIONER_AND_GRAPH, REMAP, TOTAL,
};
use chaos_lang::LangError;

fn main() -> Result<(), LangError> {
    let opts = Options::from_env();
    let runs = table_runs(3, &opts);
    let title = format!(
        "Table 3: Compiler-linked coordinate bisection with schedule reuse ({} executor iterations, modeled seconds)",
        opts.iterations
    );
    let (mut table, times) = run_table(3, &title, &opts, &runs)?;
    table.phase_rows(
        &[PARTITIONER_AND_GRAPH, INSPECTOR, REMAP, EXECUTOR, TOTAL],
        &times,
    );
    println!("{}", table.render());
    Ok(())
}
