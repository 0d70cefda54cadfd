//! The paper's four tables at `--quick`, pinned: every record both drivers
//! produce — `{table, column, nprocs, method, reuse, phases}`, everything but
//! wall time — against `golden/tables_quick.json`. Floats are stored in
//! round-trip form, so a charge constant that moves by one bit fails here
//! with the cells it moved. A change that moves modeled numbers commits the
//! file's diff and derives it.
//!
//! ```sh
//! GOLDEN_UPDATE=1 cargo test -p chaos-bench --test golden_tables   # re-record
//! ```

use chaos_bench::cli::Options;
use chaos_bench::tables::{run_table, table_runs, Run};
use chaos_bench::PhaseTimes;
use serde_json::{json, Value};
use std::path::Path;

/// A float in round-trip form.
fn exact(v: f64) -> String {
    format!("{v:?}")
}

/// One run's phases, wall time left out.
fn phases(t: &PhaseTimes) -> Value {
    json!({
        "graph_generation": exact(t.graph_generation),
        "partitioner": exact(t.partitioner),
        "inspector": exact(t.inspector),
        "remap": exact(t.remap),
        "executor": exact(t.executor),
        "total": exact(t.total),
        "inspector_runs": t.inspector_runs,
        "executor_sweeps": t.executor_sweeps,
        "messages": t.messages,
        "bytes": t.bytes,
        "local_fraction": exact(t.local_fraction),
    })
}

/// What makes two runs of different tables the same experiment.
fn identity(run: &Run) -> (&str, &str, bool) {
    (&run.column, run.cfg.method.label(), run.cfg.reuse)
}

/// Every record of Tables 1–4 at `--quick`, as the golden file's text.
fn render() -> String {
    let opts = Options::parse(["--quick".to_string()]).expect("--quick parses");
    let tables: Vec<(u8, Vec<Run>)> = (1..=4).map(|t| (t, table_runs(t, &opts))).collect();
    // Tables 3 and 4 repeat runs of Table 1: each distinct one runs once.
    let mut distinct: Vec<Run> = Vec::new();
    for run in tables.iter().flat_map(|(_, runs)| runs) {
        if !distinct.iter().any(|d| identity(d) == identity(run)) {
            distinct.push(run.clone());
        }
    }
    let (_, times) = run_table(0, "", &opts, &distinct).expect("the tables run");
    let mut records = Vec::new();
    for (table, runs) in &tables {
        for run in runs {
            let at = distinct.iter().position(|d| identity(d) == identity(run));
            let t = &times[at.expect("every run is among the distinct ones")];
            records.push(json!({
                "table": table,
                "column": run.column,
                "nprocs": run.cfg.nprocs,
                "method": run.cfg.method.label(),
                "reuse": run.cfg.reuse,
                "phases": phases(t),
            }));
        }
    }
    serde_json::to_string_pretty(&records).expect("the shim never fails") + "\n"
}

/// One entry per moved cell. Both texts have one layout (a record's keys,
/// then its phases, one per line), so a line-by-line walk that remembers
/// the record's identifying lines names every cell that differs.
fn cell_diff(got: &str, want: &str) -> Vec<String> {
    const KEYS: [&str; 4] = ["\"table\"", "\"column\"", "\"method\"", "\"reuse\""];
    let mut record = [""; 4];
    let mut moved = Vec::new();
    for (g, w) in got.lines().zip(want.lines()) {
        let (g, w) = (
            g.trim().trim_end_matches(','),
            w.trim().trim_end_matches(','),
        );
        if let Some(k) = KEYS.iter().position(|key| g.starts_with(key)) {
            record[k] = g;
        }
        if g != w {
            moved.push(format!(
                "{}\n    got      {g}\n    recorded {w}",
                record.join(" ")
            ));
        }
    }
    let (ng, nw) = (got.lines().count(), want.lines().count());
    if ng != nw {
        moved.push(format!(
            "got {ng} lines, recorded {nw}: the run list changed"
        ));
    }
    moved
}

#[test]
fn quick_tables_match_the_golden_file() {
    let path = Path::new(env!("CARGO_MANIFEST_DIR")).join("tests/golden/tables_quick.json");
    let got = render();
    if std::env::var_os("GOLDEN_UPDATE").is_some() {
        std::fs::write(&path, &got).expect("the golden file is writable");
        return;
    }
    let want = std::fs::read_to_string(&path)
        .unwrap_or_else(|e| panic!("{}: {e} (GOLDEN_UPDATE=1 writes it)", path.display()));
    let moved = cell_diff(&got, &want);
    assert!(
        got == want,
        "{} cells moved against {} (GOLDEN_UPDATE=1 re-records):\n{}",
        moved.len(),
        path.display(),
        moved.join("\n")
    );
}
