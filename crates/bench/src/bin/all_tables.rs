//! Run every table experiment in sequence (Tables 1–4) and perform the
//! cross-check the paper's authors describe in Section 6: the parallel
//! (simulated) executor must produce exactly the same results as a
//! sequential sweep.
//!
//! `cargo run -p chaos-bench --bin all_tables --release -- --quick` gives a
//! scaled-down run in a couple of minutes; omit `--quick` for paper-size
//! workloads. `--json` is rejected here — run the individual table binaries
//! with `--json` for machine-readable output.

use chaos_bench::cli::{exit_on_stop, Options};
use chaos_bench::experiment::Method;
use chaos_bench::handcoded::verify_against_sequential;
use chaos_bench::workload::WorkloadKind;
use std::process::Command;

fn main() {
    let opts =
        exit_on_stop(Options::parse(std::env::args().skip(1)).and_then(Options::without_json));

    // Correctness cross-check first (cheap, scaled-down workloads).
    println!("== Correctness cross-check (parallel executor vs sequential sweep) ==");
    for kind in [WorkloadKind::Mesh10k, WorkloadKind::Md648] {
        let w = kind.build(16.max(opts.scale));
        for method in [Method::Block, Method::Rcb, Method::Rsb] {
            let err = verify_against_sequential(&w, 8, method);
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

    // Delegate to the individual table binaries so their output formats stay
    // the single source of truth.
    let args: Vec<String> = {
        let mut a = Vec::new();
        if opts.scale != 1 {
            a.push("--scale".to_string());
            a.push(opts.scale.to_string());
        }
        if opts.iterations != 100 {
            a.push("--iters".to_string());
            a.push(opts.iterations.to_string());
        }
        a
    };
    for table in ["table1", "table2", "table3", "table4"] {
        println!("== Running {table} ==");
        let exe = std::env::current_exe().expect("current exe path");
        let sibling = exe.with_file_name(table);
        let status = Command::new(&sibling)
            .args(&args)
            .status()
            .unwrap_or_else(|e| panic!("failed to launch {}: {e}", sibling.display()));
        assert!(status.success(), "{table} exited with {status}");
    }
}
