//! Metrics tour: the metrics registry and cost-model auditor watching a
//! pooled executor sweep.
//!
//! Runs the Fortran-D-like edge-flux template on the worker-pool engine
//! with a [`MetricsRegistry`] installed, then shows the two exposition
//! surfaces the registry offers:
//!
//! 1. the **human-readable snapshot** — counters (epochs, kernel/combine
//!    runs, barrier waits, pack volume, worker releases) plus the
//!    cost-model audit table ranking phase kinds by modeled-vs-wall drift,
//! 2. the **Prometheus text exposition** — `chaos_*_total` counters,
//!    per-span/phase latency histograms and `chaos_model_*` gauges, the
//!    machine-readable scrape (pass an output path as the first argument
//!    to write it to a file).
//!
//! Metering is an observer: the metered run is bit-identical to a bare
//! one (asserted here on the modeled clock).
//!
//! Run with `cargo run --example metrics_tour --release [-- metrics.prom]`.

use chaos_lang::{lower_program, parse_program, Counter, Executor, MetricsRegistry, ProgramInputs};
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

fn run(metrics: Option<Arc<MetricsRegistry>>) -> f64 {
    let cp = lower_program(parse_program(EDGE_TEMPLATE).expect("parse")).expect("lower");
    let mut exec =
        Executor::new_pooled_with_workers(MachineConfig::ipsc860(NPROCS), WORKERS, inputs());
    if let Some(registry) = metrics {
        exec = exec.with_metrics(registry);
    }
    exec.run(&cp).expect("program runs");
    for _ in 0..SWEEPS {
        exec.execute_loop(&cp, "L1").expect("sweep");
    }
    exec.machine().elapsed().max_seconds()
}

fn main() {
    let out_path = std::env::args().nth(1);
    println!("metrics tour: {NPROCS} ranks on {WORKERS} pool workers, {SWEEPS} executor sweeps\n");

    // The bare run first: metering must not move the modeled clock.
    let bare_modeled = run(None);

    // The metered run: one shard per pool lane plus the driver's.
    let registry = Arc::new(MetricsRegistry::new(WORKERS));
    let metered_modeled = run(Some(Arc::clone(&registry)));
    assert_eq!(
        bare_modeled.to_bits(),
        metered_modeled.to_bits(),
        "metering perturbed the modeled clock"
    );

    // Surface 1: the human-readable snapshot with the audit table.
    let snap = registry.snapshot();
    assert!(snap.counter(Counter::Epochs) > 0, "epochs metered");
    assert!(snap.counter(Counter::KernelRuns) > 0, "kernels metered");
    assert!(!snap.spans.is_empty(), "span histograms recorded");
    println!("{snap}");

    // The audit rows are sorted worst offender first.
    if let Some(worst) = snap.audit.rows.first() {
        println!(
            "worst cost-model offender: {:?} (drift {:.3}, {} samples)",
            worst.kind, worst.drift, worst.samples
        );
    }

    // The wall clocks this host spent vs the modeled iPSC/860 clocks the
    // paper's tables report.
    println!(
        "\nmodeled {:.3} ms across {} epochs ({} ranks on {} pool lanes)",
        metered_modeled * 1e3,
        snap.counter(Counter::Epochs),
        NPROCS,
        WORKERS,
    );

    // Surface 2: the Prometheus text exposition.
    let prom = snap.prometheus_text();
    assert!(prom.contains("chaos_epochs_total"), "counter exposition");
    assert!(
        prom.contains("chaos_span_duration_seconds_bucket"),
        "histogram exposition"
    );
    assert!(prom.contains("chaos_model_drift_ratio"), "audit exposition");
    match out_path {
        Some(path) => {
            std::fs::write(&path, &prom).unwrap_or_else(|e| panic!("failed to write {path}: {e}"));
            println!("wrote Prometheus exposition to {path}");
        }
        None => println!(
            "pass an output path to write the {}-byte Prometheus exposition",
            prom.len()
        ),
    }
}
