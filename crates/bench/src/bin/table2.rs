//! Table 2 — unstructured mesh template, 53K mesh, 32 processors:
//! compiler-generated vs hand-coded mapper coupler, across data-mapping
//! methods (binary coordinate bisection, BLOCK, spectral bisection), with
//! per-phase breakdown (graph generation, partitioner, inspector, remap,
//! executor, total). The only table with hand-coded columns.
//!
//! Run `cargo run -p chaos-bench --bin table2 --release` (add `--quick` for
//! a scaled-down smoke run).

use chaos_bench::cli::Options;
use chaos_bench::tables::{
    run_table, table_runs, EXECUTOR, GRAPH_GENERATION, INSPECTOR, PARTITIONER, REMAP,
    TABLE2_NPROCS, TOTAL,
};
use chaos_lang::LangError;

fn main() -> Result<(), LangError> {
    let opts = Options::from_env();
    let runs = table_runs(2, &opts);
    let title = format!(
        "Table 2: Unstructured mesh template - 53K mesh - {TABLE2_NPROCS} processors ({} executor iterations, modeled seconds)",
        opts.iterations
    );
    let (mut table, times) = run_table(2, &title, &opts, &runs)?;
    table.phase_rows(
        &[
            GRAPH_GENERATION,
            PARTITIONER,
            INSPECTOR,
            REMAP,
            EXECUTOR,
            TOTAL,
        ],
        &times,
    );
    println!("{}", table.render());

    // The paper's headline claim: compiler-generated within ~10 % of
    // hand-coded (compare the reuse columns for each partitioner).
    println!(
        "RCB  compiler/hand total ratio: {:.3}",
        times[0].total / times[2].total
    );
    println!(
        "RSB  compiler/hand total ratio: {:.3}",
        times[5].total / times[4].total
    );
    Ok(())
}
