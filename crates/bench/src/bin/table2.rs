//! Table 2 — unstructured mesh template, 53K mesh, 32 processors:
//! compiler-generated vs hand-coded mapper coupler, across data-mapping
//! methods (binary coordinate bisection, BLOCK, spectral bisection), with
//! per-phase breakdown (graph generation, partitioner, inspector, remap,
//! executor, total). The only table with hand-coded columns.
//!
//! Run `cargo run -p chaos-bench --bin table2 --release` (add `--quick` for
//! a scaled-down smoke run).

use chaos_bench::cli::Options;
use chaos_bench::experiment::{ExperimentConfig, Method};
use chaos_bench::tables::{
    run_table, Run, COMPILER, EXECUTOR, GRAPH_GENERATION, HAND_CODED, INSPECTOR, PARTITIONER,
    REMAP, TOTAL,
};
use chaos_bench::workload::WorkloadKind;
use chaos_lang::LangError;

const NPROCS: usize = 32;

fn main() -> Result<(), LangError> {
    let opts = Options::from_env();
    let run = |column: &str, method, driver, reuse| Run {
        column: column.to_string(),
        kind: WorkloadKind::Mesh53k,
        cfg: ExperimentConfig::paper(NPROCS, method)
            .with_reuse(reuse)
            .with_iterations(opts.iterations),
        driver,
    };
    // The paper's columns: coordinate bisection (compiler with schedule
    // reuse, compiler without schedule reuse, hand coded), BLOCK (hand
    // coded), spectral bisection (hand coded, compiler with reuse).
    let runs = [
        run("RCB Compiler (reuse)", Method::Rcb, COMPILER, true),
        run("RCB Compiler (no reuse)", Method::Rcb, COMPILER, false),
        run("RCB Hand Coded", Method::Rcb, HAND_CODED, true),
        run("Block Hand Coded", Method::Block, HAND_CODED, true),
        run("RSB Hand Coded", Method::Rsb, HAND_CODED, true),
        run("RSB Compiler (reuse)", Method::Rsb, COMPILER, true),
    ];
    let title = format!(
        "Table 2: Unstructured mesh template - 53K mesh - {NPROCS} processors ({} executor iterations, modeled seconds)",
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
