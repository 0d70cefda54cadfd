//! The paper's Tables 1–4: one printer per table ([`table1`] .. [`table4`]),
//! the runner they share and the plain-text formatting. The `table1` ..
//! `table4` binaries each call one printer; `all_tables` calls all four in
//! the same process.
//!
//! A table declares its experiments as [`Run`]s and its rows as [`Row`]s;
//! [`run_table`] builds each workload once, runs every experiment through
//! its driver, prints a progress line per run, writes the `--json` records
//! and heads the table with the runs' columns. The tables mirror the layout
//! of the paper's Tables 1–4: a header row of workload / processor-count
//! columns and one row per phase (or per reuse setting), values in modeled
//! seconds.

use crate::cli::{standard_grid, Options};
use crate::compilergen::run_compiler_generated;
use crate::experiment::{ExperimentConfig, Method, PhaseTimes};
use crate::handcoded::run_handcoded;
use crate::workload::{PairLoopWorkload, WorkloadKind};
use chaos_lang::LangError;
use std::collections::HashMap;

/// How one experiment is run.
pub type Driver = fn(&PairLoopWorkload, &ExperimentConfig) -> Result<PhaseTimes, LangError>;

/// The compiler-generated program through the language executor: Tables 1,
/// 3 and 4, and Table 2's compiler columns.
pub const COMPILER: Driver = |w, cfg| Ok(run_compiler_generated(w, cfg)?.0);

/// The hand-embedded runtime calls: Table 2's "Hand Coded" columns only.
pub const HAND_CODED: Driver = |w, cfg| Ok(run_handcoded(w, cfg));

/// One experiment of a table: the column it is printed under, its workload,
/// its configuration and the driver that runs it.
#[derive(Clone)]
pub struct Run {
    /// Header of the column the run's values land in.
    pub column: String,
    /// The workload, built at the table's `--scale`.
    pub kind: WorkloadKind,
    /// Processors, method, reuse and sweeps.
    pub cfg: ExperimentConfig,
    /// Which path runs it.
    pub driver: Driver,
}

/// The runs of Tables 1, 3 and 4: every column of the paper's workload ×
/// processor grid once per `(method, reuse)` variant, variant by variant,
/// on the compiler-generated path. The results of variant `k` are the `k`-th
/// of the equal chunks [`run_table`] returns.
pub fn grid_runs(opts: &Options, variants: &[(Method, bool)]) -> Vec<Run> {
    let mut runs = Vec::new();
    for &(method, reuse) in variants {
        for (kind, procs) in standard_grid() {
            for p in procs {
                runs.push(Run {
                    column: format!("{} P={p}", kind.label()),
                    kind,
                    cfg: ExperimentConfig::paper(p, method)
                        .with_reuse(reuse)
                        .with_iterations(opts.iterations),
                    driver: COMPILER,
                });
            }
        }
    }
    runs
}

/// Table 2's processor count: the paper's 53K mesh on 32 processors.
pub const TABLE2_NPROCS: usize = 32;

/// The runs of the paper's Table `table` (1–4), in column order.
///
/// # Panics
/// Panics on any other table number.
pub fn table_runs(table: u8, opts: &Options) -> Vec<Run> {
    match table {
        1 => grid_runs(opts, &[(Method::Rcb, false), (Method::Rcb, true)]),
        2 => {
            let run = |column: &str, method, driver, reuse| Run {
                column: column.to_string(),
                kind: WorkloadKind::Mesh53k,
                cfg: ExperimentConfig::paper(TABLE2_NPROCS, method)
                    .with_reuse(reuse)
                    .with_iterations(opts.iterations),
                driver,
            };
            // The paper's columns: coordinate bisection (compiler with
            // schedule reuse, compiler without schedule reuse, hand coded),
            // BLOCK (hand coded), spectral bisection (hand coded, compiler
            // with reuse).
            vec![
                run("RCB Compiler (reuse)", Method::Rcb, COMPILER, true),
                run("RCB Compiler (no reuse)", Method::Rcb, COMPILER, false),
                run("RCB Hand Coded", Method::Rcb, HAND_CODED, true),
                run("Block Hand Coded", Method::Block, HAND_CODED, true),
                run("RSB Hand Coded", Method::Rsb, HAND_CODED, true),
                run("RSB Compiler (reuse)", Method::Rsb, COMPILER, true),
            ]
        }
        3 => grid_runs(opts, &[(Method::Rcb, true)]),
        // RCB runs too, so the executor ratio (the point of the comparison,
        // Section 6.2) can be printed alongside.
        4 => grid_runs(opts, &[(Method::Block, true), (Method::Rcb, true)]),
        _ => panic!("the paper has Tables 1-4, not Table {table}"),
    }
}

/// Run every experiment in order, building each workload once, with one
/// progress line per run on stderr; write `{table, column, nprocs, method,
/// reuse, phases}` records to `--json` when asked. Returns the table, titled
/// and headed by the runs' distinct columns, and the phase times in run
/// order.
pub fn run_table(
    table: u8,
    title: &str,
    opts: &Options,
    runs: &[Run],
) -> Result<(TextTable, Vec<PhaseTimes>), LangError> {
    let mut workloads = HashMap::new();
    let mut header = vec!["(Time in secs)".to_string()];
    let mut times = Vec::with_capacity(runs.len());
    for run in runs {
        if !header.contains(&run.column) {
            header.push(run.column.clone());
        }
        let workload = workloads
            .entry(run.kind)
            .or_insert_with(|| run.kind.build(opts.scale));
        let t = (run.driver)(workload, &run.cfg)?;
        eprintln!(
            "  [{}: {}, reuse={}] total={:.3}s inspector={:.3}s executor={:.3}s wall={:.2}s",
            run.column,
            run.cfg.method.label(),
            run.cfg.reuse,
            t.total,
            t.inspector,
            t.executor,
            t.wall_seconds
        );
        times.push(t);
    }
    if let Some(path) = &opts.json {
        let records: Vec<_> = runs
            .iter()
            .zip(&times)
            .map(|(run, t)| {
                serde_json::json!({
                    "table": table,
                    "column": run.column.clone(),
                    "nprocs": run.cfg.nprocs,
                    "method": run.cfg.method.label(),
                    "reuse": run.cfg.reuse,
                    "phases": t,
                })
            })
            .collect();
        std::fs::write(path, serde_json::to_string_pretty(&records).unwrap())
            .unwrap_or_else(|e| eprintln!("failed to write {path}: {e}"));
    }
    Ok((TextTable::new(title, header), times))
}

/// Table 1 — the irregular loop's time for the executor iterations with
/// and without communication-schedule reuse: the 10K / 53K Euler meshes and
/// the 648-atom MD loop, RCB-distributed, from the compiler-generated
/// program.
pub fn table1(opts: &Options) -> Result<(), LangError> {
    let title = format!(
        "Table 1: Performance with and without schedule reuse ({} executor iterations, RCB-partitioned, modeled seconds)",
        opts.iterations
    );
    print_table(1, &title, opts, |table, times| {
        let (no_reuse, reuse) = times.split_at(times.len() / 2);
        // Table 1 reports the time of the 100-iteration loop itself:
        // inspector (repeated when reuse is off) + executor.
        let loop_time = |t: &PhaseTimes| t.inspector + t.executor;
        table.phase_rows(&[("No Schedule Reuse", loop_time)], no_reuse);
        table.phase_rows(&[("Schedule Reuse", loop_time)], reuse);
    })?;
    Ok(())
}

/// Table 2 — the unstructured mesh template on the 53K mesh at 32
/// processors: compiler-generated against hand-coded mapper coupler across
/// the data-mapping methods, phase by phase, then the compiler/hand total
/// ratios. The only table with hand-coded columns.
pub fn table2(opts: &Options) -> Result<(), LangError> {
    let title = format!(
        "Table 2: Unstructured mesh template - 53K mesh - {TABLE2_NPROCS} processors ({} executor iterations, modeled seconds)",
        opts.iterations
    );
    let rows = [
        GRAPH_GENERATION,
        PARTITIONER,
        INSPECTOR,
        REMAP,
        EXECUTOR,
        TOTAL,
    ];
    let times = print_table(2, &title, opts, |table, times| {
        table.phase_rows(&rows, times)
    })?;
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

/// Table 3 — the compiler-linked coordinate bisection partitioner with
/// schedule reuse, phase by phase across the workload × processor grid.
pub fn table3(opts: &Options) -> Result<(), LangError> {
    let title = format!(
        "Table 3: Compiler-linked coordinate bisection with schedule reuse ({} executor iterations, modeled seconds)",
        opts.iterations
    );
    let rows = [PARTITIONER_AND_GRAPH, INSPECTOR, REMAP, EXECUTOR, TOTAL];
    print_table(3, &title, opts, |table, times| {
        table.phase_rows(&rows, times)
    })?;
    Ok(())
}

/// Table 4 — naive BLOCK partitioning with schedule reuse, phase by phase
/// across the grid, plus its executor's ratio to RCB's (Table 3's
/// irregular distribution).
pub fn table4(opts: &Options) -> Result<(), LangError> {
    let title = format!(
        "Table 4: BLOCK partitioning with schedule reuse ({} executor iterations, modeled seconds)",
        opts.iterations
    );
    print_table(4, &title, opts, |table, times| {
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
    })?;
    Ok(())
}

/// Run Table `table`'s experiments, let `rows` fill the table from their
/// phase times, and print it; the phase times are returned.
fn print_table(
    table: u8,
    title: &str,
    opts: &Options,
    rows: impl FnOnce(&mut TextTable, &[PhaseTimes]),
) -> Result<Vec<PhaseTimes>, LangError> {
    let (mut text, times) = run_table(table, title, opts, &table_runs(table, opts))?;
    rows(&mut text, &times);
    println!("{}", text.render());
    Ok(times)
}

/// A table row: its label and the modeled seconds it reads off one run.
pub type Row = (&'static str, fn(&PhaseTimes) -> f64);

/// GeoCoL graph generation (Table 2).
pub const GRAPH_GENERATION: Row = ("Graph Generation", |t| t.graph_generation);
/// The partitioner alone (Table 2).
pub const PARTITIONER: Row = ("Partitioner", |t| t.partitioner);
/// The partitioner with its graph generation (Table 3).
pub const PARTITIONER_AND_GRAPH: Row = ("Partitioner", |t| t.partitioner + t.graph_generation);
/// The inspector, over all its runs.
pub const INSPECTOR: Row = ("Inspector", |t| t.inspector);
/// Array remapping.
pub const REMAP: Row = ("Remap", |t| t.remap);
/// The executor, over all sweeps.
pub const EXECUTOR: Row = ("Executor", |t| t.executor);
/// End-to-end modeled time.
pub const TOTAL: Row = ("Total", |t| t.total);

/// A simple column-aligned text table.
#[derive(Debug, Clone, Default)]
pub struct TextTable {
    title: String,
    header: Vec<String>,
    rows: Vec<Vec<String>>,
}

impl TextTable {
    /// Start a table with a title and column headers.
    pub fn new(title: &str, header: Vec<String>) -> Self {
        TextTable {
            title: title.to_string(),
            header,
            rows: Vec::new(),
        }
    }

    /// Append a row (first cell is the row label).
    pub fn row(&mut self, cells: Vec<String>) {
        self.rows.push(cells);
    }

    /// Append one row of modeled seconds per `row`, each read off every
    /// column's run.
    pub fn phase_rows(&mut self, rows: &[Row], columns: &[PhaseTimes]) {
        for (label, value) in rows {
            let mut cells = vec![label.to_string()];
            cells.extend(columns.iter().map(|t| format_seconds(value(t))));
            self.rows.push(cells);
        }
    }

    /// Render to a string.
    pub fn render(&self) -> String {
        let ncols = self
            .rows
            .iter()
            .map(Vec::len)
            .chain(std::iter::once(self.header.len()))
            .max()
            .unwrap_or(0);
        let mut widths = vec![0usize; ncols];
        for row in std::iter::once(&self.header).chain(self.rows.iter()) {
            for (i, cell) in row.iter().enumerate() {
                widths[i] = widths[i].max(cell.len());
            }
        }
        let mut out = String::new();
        out.push_str(&format!("{}\n", self.title));
        let render_row = |row: &[String], widths: &[usize]| -> String {
            let mut line = String::new();
            for (i, w) in widths.iter().enumerate() {
                let cell = row.get(i).map(String::as_str).unwrap_or("");
                if i == 0 {
                    line.push_str(&format!("{cell:<w$}  "));
                } else {
                    line.push_str(&format!("{cell:>w$}  "));
                }
            }
            line.trim_end().to_string()
        };
        let header_line = render_row(&self.header, &widths);
        let sep = "-".repeat(header_line.len());
        out.push_str(&sep);
        out.push('\n');
        out.push_str(&header_line);
        out.push('\n');
        out.push_str(&sep);
        out.push('\n');
        for row in &self.rows {
            out.push_str(&render_row(row, &widths));
            out.push('\n');
        }
        out.push_str(&sep);
        out.push('\n');
        out
    }
}

/// Format a modeled-seconds value the way the paper's tables do: one decimal
/// place above 10 s, two below, three below 0.1 s.
pub fn format_seconds(v: f64) -> String {
    if !v.is_finite() {
        "-".to_string()
    } else if v >= 100.0 {
        format!("{v:.0}")
    } else if v >= 10.0 {
        format!("{v:.1}")
    } else if v >= 0.1 {
        format!("{v:.2}")
    } else {
        format!("{v:.3}")
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn seconds_formatting_matches_paper_style() {
        assert_eq!(format_seconds(400.4), "400");
        assert_eq!(format_seconds(17.64), "17.6");
        assert_eq!(format_seconds(7.712), "7.71");
        assert_eq!(format_seconds(0.0123), "0.012");
        assert_eq!(format_seconds(f64::NAN), "-");
    }

    #[test]
    fn table_renders_aligned_columns() {
        let mut t = TextTable::new("Table X", vec!["".into(), "4".into(), "8".into()]);
        let run = |executor, total| PhaseTimes {
            executor,
            total,
            ..Default::default()
        };
        t.phase_rows(&[EXECUTOR, TOTAL], &[run(12.7, 17.6), run(7.0, 10.8)]);
        let s = t.render();
        assert!(s.contains("Table X"));
        assert!(s.contains("Executor"));
        assert!(s.contains("12.7"));
        let exec_line = s.lines().find(|l| l.contains("Executor")).unwrap();
        let total_line = s.lines().find(|l| l.contains("Total")).unwrap();
        assert_eq!(exec_line.find("12.7"), total_line.find("17.6"));
    }

    #[test]
    fn phase_rows_follow_paper_order() {
        let t = PhaseTimes {
            graph_generation: 2.2,
            partitioner: 1.6,
            inspector: 4.3,
            remap: 1.5,
            executor: 13.0,
            total: 22.4,
            ..Default::default()
        };
        let mut table = TextTable::new("Table X", vec!["".into(), "A".into(), "B".into()]);
        table.phase_rows(
            &[PARTITIONER_AND_GRAPH, INSPECTOR, REMAP, EXECUTOR, TOTAL],
            &[t.clone(), PhaseTimes::default()],
        );
        let labels: Vec<&str> = table.rows.iter().map(|r| r[0].as_str()).collect();
        assert_eq!(
            labels,
            ["Partitioner", "Inspector", "Remap", "Executor", "Total"]
        );
        // Table 3's partitioner row folds graph generation in.
        assert_eq!(table.rows[0][1..], ["3.80", "0.000"]);
        assert_eq!(GRAPH_GENERATION.1(&t), 2.2);
        assert_eq!(PARTITIONER.1(&t), 1.6);
    }
}
