//! Run every table experiment in sequence (Tables 1–4) and perform the
//! cross-check the paper's authors describe in Section 6: the parallel
//! (simulated) executor must produce exactly the same results as a
//! sequential sweep. The check runs the compiler-generated program, the
//! path the tables print.
//!
//! `cargo run -p chaos-bench --bin all_tables --release -- --quick` gives a
//! scaled-down run in a couple of seconds; omit `--quick` for paper-size
//! workloads. The tables print in this process, through the same printers
//! as the `table1` .. `table4` binaries (`tables::table1` ..). `--json` is
//! rejected here — run the individual table binaries with `--json` for
//! machine-readable output.

use chaos_bench::cli::{exit_on_stop, Options};
use chaos_bench::compilergen::run_compiler_generated;
use chaos_bench::experiment::{ExperimentConfig, Method};
use chaos_bench::tables::{table1, table2, table3, table4};
use chaos_bench::workload::WorkloadKind;
use chaos_lang::LangError;
use chaos_workloads::edge_flux_kernel;

fn main() -> Result<(), LangError> {
    let opts =
        exit_on_stop(Options::parse(std::env::args().skip(1)).and_then(Options::without_json));

    // Correctness cross-check first (cheap, scaled-down workloads).
    println!("== Correctness cross-check (parallel executor vs sequential sweep) ==");
    for kind in [WorkloadKind::Mesh10k, WorkloadKind::Md648] {
        let mut w = kind.build(16.max(opts.scale));
        // The template runs EFLUX on both workloads, so the reference must
        // too (MD's own pair kernel is the hand-coded driver's).
        w.kernel = edge_flux_kernel;
        let expected = w.sequential_sweep();
        for method in [Method::Block, Method::Rcb, Method::Rsb] {
            let cfg = ExperimentConfig::paper(8, method).with_iterations(1);
            let (_, y) = run_compiler_generated(&w, &cfg)?;
            let err = expected
                .iter()
                .zip(&y)
                .map(|(a, b)| (a - b).abs())
                .fold(0.0, f64::max);
            println!(
                "  {:<10} {:<28} max |error| = {err:.3e}",
                kind.label(),
                method.label()
            );
            assert!(
                err < 1e-9,
                "parallel execution diverged from the sequential reference"
            );
        }
    }
    println!();

    for (n, print) in (1..).zip([table1, table2, table3, table4]) {
        println!("== Running table{n} ==");
        print(&opts)?;
    }
    Ok(())
}
