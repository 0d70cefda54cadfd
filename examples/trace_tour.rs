//! Trace tour: the flight recorder watching a pooled executor sweep.
//!
//! Runs the Fortran-D-like edge-flux template on the worker-pool engine
//! with a [`TraceSink`] installed, then shows the three observability
//! surfaces the recorder exposes:
//!
//! 1. the **per-lane utilization summary table** — busy vs barrier-wait
//!    time per pool lane, release/park counts, epochs per second and the
//!    per-epoch straggler skew,
//! 2. the **Chrome-trace export** — pass an output path as the first
//!    argument to write a `.json` file you can open in `chrome://tracing`
//!    or Perfetto (each pool lane is one timeline row; every span carries
//!    the machine epoch and the modeled clock as args),
//! 3. the **wall-vs-modeled correlation** — the modeled clock advances
//!    only at driver-side replay points, and the tour prints both clocks
//!    side by side.
//!
//! Tracing is an observer: the traced run is bit-identical to an untraced
//! one (asserted here too, on the modeled clock).
//!
//! Run with `cargo run --example trace_tour --release [-- trace.json]`.

use chaos_lang::{lower_program, parse_program, Executor, ProgramInputs, TraceSink};
use chaos_repro::dmsim::serde_json;
use chaos_repro::prelude::*;
use chaos_workloads::{MeshConfig, UnstructuredMesh};
use std::sync::Arc;

const EDGE_TEMPLATE: &str = r#"
    REAL*8 x(nnode), y(nnode)
    INTEGER end_pt1(nedge), end_pt2(nedge)
    DYNAMIC, DECOMPOSITION reg(nnode), reg2(nedge)
    DISTRIBUTE reg(BLOCK)
    DISTRIBUTE reg2(BLOCK)
    ALIGN x, y WITH reg
    ALIGN end_pt1, end_pt2 WITH reg2
    CALL READ_DATA(x, y, end_pt1, end_pt2)
    FORALL i = 1, nedge
      REDUCE(ADD, y(end_pt1(i)), EFLUX1(x(end_pt1(i)), x(end_pt2(i))))
      REDUCE(ADD, y(end_pt2(i)), EFLUX2(x(end_pt1(i)), x(end_pt2(i))))
    END FORALL
"#;

const NPROCS: usize = 8;
const WORKERS: usize = 4;
const SWEEPS: usize = 12;

fn inputs() -> ProgramInputs {
    let mesh = UnstructuredMesh::generate(MeshConfig::tiny(6_000));
    ProgramInputs::new()
        .scalar("nnode", mesh.nnodes())
        .scalar("nedge", mesh.nedges())
        .real(
            "x",
            (0..mesh.nnodes())
                .map(|i| 1.0 + (i as f64 * 0.17).sin())
                .collect(),
        )
        .real("y", vec![0.0; mesh.nnodes()])
        .int("end_pt1", mesh.end_pt1.iter().map(|&v| v + 1).collect())
        .int("end_pt2", mesh.end_pt2.iter().map(|&v| v + 1).collect())
}

fn run(trace: Option<Arc<TraceSink>>) -> f64 {
    let cp = lower_program(parse_program(EDGE_TEMPLATE).expect("parse")).expect("lower");
    let mut exec =
        Executor::new_pooled_with_workers(MachineConfig::ipsc860(NPROCS), WORKERS, inputs());
    if let Some(sink) = trace {
        exec = exec.with_trace(sink);
    }
    exec.run(&cp).expect("program runs");
    for _ in 0..SWEEPS {
        exec.execute_loop(&cp, "L1").expect("sweep");
    }
    exec.machine().elapsed().max_seconds()
}

fn main() {
    let out_path = std::env::args().nth(1);
    println!("trace tour: {NPROCS} ranks on {WORKERS} pool workers, {SWEEPS} executor sweeps\n");

    // The untraced run first: tracing must not move the modeled clock.
    let untraced_modeled = run(None);

    // The traced run: one ring per pool lane plus the driver's.
    let sink = Arc::new(TraceSink::new(WORKERS));
    let traced_modeled = run(Some(Arc::clone(&sink)));
    assert_eq!(
        untraced_modeled.to_bits(),
        traced_modeled.to_bits(),
        "tracing perturbed the modeled clock"
    );
    sink.finish();
    sink.check_span_nesting().expect("span nesting");

    // Surface 1: the per-lane utilization summary table.
    let summary = sink.summary();
    print!("{summary}");

    // Surface 3: wall vs modeled. The modeled clock is what the paper's
    // tables report; the wall clock is what this container actually spent.
    println!(
        "\nwall {:.3} ms vs modeled {:.3} ms ({} iPSC/860-modeled ranks on {} real lanes)",
        summary.span_ns as f64 / 1e6,
        traced_modeled * 1e3,
        NPROCS,
        WORKERS,
    );

    // Surface 2: the Chrome-trace export.
    let chrome = serde_json::to_string(&sink.chrome_trace()).expect("chrome trace serializes");
    match out_path {
        Some(path) => {
            std::fs::write(&path, &chrome)
                .unwrap_or_else(|e| panic!("failed to write {path}: {e}"));
            println!("wrote Chrome trace to {path} — open it in chrome://tracing or Perfetto");
        }
        None => println!(
            "pass an output path to write the {}-byte Chrome trace \
             (cargo run --example trace_tour --release -- trace.json)",
            chrome.len()
        ),
    }
}
