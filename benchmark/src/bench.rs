//! The closed measurement loop: set-up, warm-up, repetitions until the time
//! box expires, verification of every repetition, and the metrics of one
//! run.
//!
//! One process runs one workload as a closed loop with a single client: the
//! next whole-program repetition starts when the previous one has been
//! verified. End-to-end metrics come from an untraced run; a separate traced
//! run gives the per-layer metrics.
//!
//! Every repetition is preceded by its own timed set-up (the inputs are
//! generated afresh from the seed), so set-up is sampled across the whole
//! time box like everything else. A timing metric's value is its **fastest**
//! sample; the median and quartiles are reported beside it. On the shared
//! hosts this runs on, interference comes in episodes of seconds that slow
//! everything by up to 1.5× — it moves a run's median by tens of percent but
//! only ever adds time, so the fastest sample is the one statistic that
//! repeats (see the README's "Steadiness").

use crate::probes::{probe_layers, reference_rows};
use crate::program::{repetition, Exact, Rep, MODELED_KINDS};
use crate::spans::Recorder;
use crate::stats::{fastest, median, percentile, quartiles};
use crate::workloads::{setup, Engine, Prepared, Spec};
use chaos_dmsim::Counter;
use chaos_lang::LangError;
use serde_json::{json, Value};
use std::time::Instant;

/// Largest accepted deviation of a result from the serial reference,
/// relative to the reference's largest magnitude.
const RESULT_TOLERANCE: f64 = 1e-9;
/// A run stops early after this many failed repetitions.
const MAX_FAILURES: usize = 3;
/// How one run is configured.
#[derive(Debug, Clone, PartialEq)]
pub struct Options {
    /// Seed of every input generator.
    pub seed: u64,
    /// Time box of the measured repetitions.
    pub seconds: f64,
    /// Traced run (per-layer metrics) instead of the end-to-end one.
    pub trace: bool,
    /// Inputs ÷ 50: smoke runs only, not comparable with full-size results.
    pub quick: bool,
}

/// One reported metric.
#[derive(Debug, Clone, PartialEq)]
pub struct Metric {
    /// Name, as in `BENCHMARK.json`.
    pub name: &'static str,
    /// The value as measured.
    pub value: f64,
    /// Unit, as in `BENCHMARK.json`.
    pub unit: &'static str,
    /// For a timing taken from samples: how many, and their median and
    /// quartiles.
    pub samples: Option<Samples>,
}

/// The distribution a sampled metric's value was taken from.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Samples {
    /// Sample count.
    pub count: usize,
    /// Median.
    pub median: f64,
    /// First quartile.
    pub q1: f64,
    /// Third quartile.
    pub q3: f64,
}

impl Metric {
    fn exact(name: &'static str, value: f64, unit: &'static str) -> Self {
        Metric {
            name,
            value,
            unit,
            samples: None,
        }
    }

    /// The fastest of `samples` (see the module docs for why not the
    /// median), with the distribution kept beside it.
    fn fastest_of(name: &'static str, samples: &[f64], unit: &'static str) -> Self {
        let fastest = fastest(samples);
        let (q1, q3) = quartiles(samples).unwrap_or((fastest, fastest));
        Metric {
            name,
            value: fastest,
            unit,
            samples: Some(Samples {
                count: samples.len(),
                median: median(samples),
                q1,
                q3,
            }),
        }
    }
}

/// The result of one run of one workload.
#[derive(Debug, Clone, PartialEq)]
pub struct Outcome {
    /// Whole-program repetitions run and verified (warm-up included).
    pub attempted: usize,
    /// Why each failed repetition failed: a `LangError`, a result off the
    /// serial reference, or a checksum / exact metric differing from the
    /// first repetition's.
    pub failures: Vec<String>,
    /// Input sizes, for the report header.
    pub sizes: String,
    /// The metrics: every end-to-end one untraced, every per-layer one traced.
    pub metrics: Vec<Metric>,
    /// The traced run's span tree as a Chrome trace.
    pub chrome_trace: Option<Value>,
}

/// Counts repetitions and checks each against the serial reference and
/// against the run's first repetition.
#[derive(Debug, Default)]
struct Verifier {
    baseline: Option<Exact>,
    attempted: usize,
    failures: Vec<String>,
}

impl Verifier {
    /// Account for one repetition; `Some` when it verified.
    fn check(&mut self, what: &str, result: Result<Rep, LangError>) -> Option<Rep> {
        self.attempted += 1;
        let failure = match &result {
            Err(e) => Some(format!("{e}")),
            // A NaN result compares false with everything: name it.
            Ok(rep) if rep.max_rel_err > RESULT_TOLERANCE || rep.max_rel_err.is_nan() => {
                Some(format!(
                    "result off the serial reference by {:e} (relative)",
                    rep.max_rel_err
                ))
            }
            Ok(rep) => match self.baseline.get_or_insert(rep.exact) {
                first if *first != rep.exact => Some(format!(
                    "differs from the first repetition: {:?} vs {first:?}",
                    rep.exact
                )),
                _ => None,
            },
        };
        match failure {
            Some(why) => {
                self.failures
                    .push(format!("repetition {} ({what}): {why}", self.attempted));
                None
            }
            None => result.ok(),
        }
    }
}

/// Runs set-ups and keeps their wall seconds.
struct Setups<'a> {
    spec: &'a Spec,
    opts: &'a Options,
    /// Whole set-up, per call.
    whole_s: Vec<f64>,
    /// The generator alone, per call.
    generate_s: Vec<f64>,
}

impl<'a> Setups<'a> {
    fn new(spec: &'a Spec, opts: &'a Options) -> Self {
        Setups {
            spec,
            opts,
            whole_s: Vec::new(),
            generate_s: Vec::new(),
        }
    }

    /// One timed set-up: the same seed, so the same inputs, every time.
    fn fresh(&mut self) -> Prepared {
        let start = Instant::now();
        let prepared = setup(self.spec, self.opts.seed, self.opts.quick);
        self.whole_s.push(start.elapsed().as_secs_f64());
        self.generate_s.push(prepared.generate_s);
        prepared
    }
}

fn sizes(spec: &Spec, prepared: &Prepared) -> String {
    let mib = |bytes: usize| bytes as f64 / (1 << 20) as f64;
    let g = &prepared.generated;
    format!(
        "{} nodes ({:.2} MiB per REAL*8 node array), {} loop iterations per step \
         ({:.2} MiB of endpoints), {} ranks on {:?}, {} steps per program",
        g.nnodes(),
        mib(8 * g.nnodes()),
        g.iters_per_step(),
        mib(8 * g.iters_per_step()),
        spec.nprocs,
        spec.engine,
        spec.steps,
    )
}

/// `VmHWM` of this process in MiB (0 where `/proc` does not provide it).
fn peak_rss_mib() -> f64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|status| {
            let line = status.lines().find(|l| l.starts_with("VmHWM:"))?;
            line.split_whitespace().nth(1)?.parse::<f64>().ok()
        })
        .map_or(0.0, |kib| kib / 1024.0)
}

/// Run one workload once, traced or not.
pub fn run_workload(spec: &Spec, opts: &Options) -> Outcome {
    if opts.trace {
        run_traced(spec, opts)
    } else {
        run_end_to_end(spec, opts)
    }
}

fn run_end_to_end(spec: &Spec, opts: &Options) -> Outcome {
    let mut setups = Setups::new(spec, opts);
    let prepared = setups.fresh();
    let sizes = sizes(spec, &prepared);
    let reference = prepared.generated.serial_step();
    let iters = prepared.generated.iters_per_step() as f64;
    let mut verifier = Verifier::default();

    // Warm-up: fills caches and the allocator's free lists, and fixes the
    // values every later repetition must reproduce.
    let warmup = verifier.check(
        "warm-up",
        repetition(spec.engine, spec, &prepared, &reference, None),
    );
    drop(prepared);

    let (mut walls, mut firsts, mut steps) = (Vec::new(), Vec::new(), Vec::new());
    let clock = Instant::now();
    while walls.is_empty() || clock.elapsed().as_secs_f64() < opts.seconds {
        let prepared = setups.fresh();
        let result = repetition(spec.engine, spec, &prepared, &reference, None);
        let Some(rep) = verifier.check("measured", result) else {
            if verifier.failures.len() >= MAX_FAILURES {
                break;
            }
            continue;
        };
        walls.push(rep.program_wall_s);
        firsts.push(rep.first_sweep_s);
        steps.extend(rep.step_s.iter().map(|s| s * 1e9 / iters));
    }

    let mut metrics = vec![Metric::fastest_of("setup_s", &setups.whole_s, "s")];
    if let (Some(warmup), false) = (&warmup, walls.is_empty()) {
        metrics.extend([
            Metric::fastest_of("program_wall_s", &walls, "s"),
            Metric::fastest_of("first_sweep_s", &firsts, "s"),
            Metric::fastest_of("sweep_ns_per_iter", &steps, "ns"),
            Metric::exact(
                "modeled_total_s",
                f64::from_bits(warmup.exact.modeled_total_bits),
                "s",
            ),
            Metric::exact("comm_messages", warmup.exact.messages as f64, "count"),
            Metric::exact("comm_bytes", warmup.exact.bytes as f64, "bytes"),
            Metric::exact("peak_rss_mib", peak_rss_mib(), "MiB"),
        ]);
    }
    Outcome {
        attempted: verifier.attempted,
        failures: verifier.failures,
        sizes,
        metrics,
        chrome_trace: None,
    }
}

fn run_traced(spec: &Spec, opts: &Options) -> Outcome {
    let mut setups = Setups::new(spec, opts);
    let prepared = setups.fresh();
    let sizes = sizes(spec, &prepared);
    let reference = prepared.generated.serial_step();
    let iters = prepared.generated.iters_per_step() as f64;
    let probes = probe_layers(spec, &prepared);
    let rows = reference_rows(spec, &prepared);
    let mut verifier = Verifier::default();
    let mut recorder = Recorder::new();

    let warmup = verifier.check(
        "warm-up",
        repetition(spec.engine, spec, &prepared, &reference, None),
    );
    drop(prepared);

    // Untraced and traced repetitions alternate, so the tracing overhead is
    // taken between neighbours in time. The pool workload's program also
    // runs on the sequential engine each round: the same values, clocks and
    // statistics are required of it, and the wall ratio is the pool's
    // speed-up.
    let pooled = matches!(spec.engine, Engine::Pool { .. });
    let (mut untraced, mut twins, mut step_samples) = (Vec::new(), Vec::new(), Vec::new());
    let mut rounds = 0u32;
    // The fastest traced repetition: the least disturbed one, and the one
    // whose breakdown is reported.
    let mut best: Option<Rep> = None;
    let clock = Instant::now();
    while best.is_none() || clock.elapsed().as_secs_f64() < opts.seconds {
        let prepared = setups.fresh();
        let plain = verifier.check(
            "untraced",
            repetition(spec.engine, spec, &prepared, &reference, None),
        );
        recorder.set_rep(rounds);
        let traced = verifier.check(
            "traced",
            repetition(
                spec.engine,
                spec,
                &prepared,
                &reference,
                Some(&mut recorder),
            ),
        );
        let twin = pooled.then(|| {
            let twin = repetition(Engine::Machine, spec, &prepared, &reference, None);
            verifier.check("Machine twin", twin)
        });
        let twin_verified = twin.as_ref().is_none_or(Option::is_some);
        if let (Some(plain), Some(traced), true) = (plain, traced, twin_verified) {
            rounds += 1;
            untraced.push(plain.program_wall_s);
            twins.extend(twin.flatten().map(|t| t.program_wall_s));
            step_samples.extend(traced.step_s.iter().map(|s| s * 1e9 / iters));
            if best
                .as_ref()
                .is_none_or(|b| traced.program_wall_s < b.program_wall_s)
            {
                best = Some(traced);
            }
        } else if verifier.failures.len() >= MAX_FAILURES {
            break;
        }
    }

    let mut metrics = Vec::new();
    if let (Some(warmup), Some(best)) = (&warmup, &best) {
        let observed = best.observed.as_ref().expect("a traced repetition");
        let by_name = recorder.children_by_name(observed.root);
        let spans = |name: &str| by_name.get(name).copied().unwrap_or(0) as f64 / 1e9;
        let program_span_s = best.program_wall_s;
        let residual_s = recorder.self_time_ns(observed.root) as f64 / 1e9;
        // Loop iterations of one repetition's steady steps.
        let steady_iters = (spec.steps - 1).max(1) as f64 * iters;
        let inspect_s = observed.inspect_s;
        let sweep_s = spans("lang.exec.step") - inspect_s;
        let (vm_s, combine_s, replay_s) = (observed.vm_s, observed.combine_s, observed.replay_s);
        // Lane sums are CPU time on the pool, so the difference from the
        // driver's wall is only meaningful on the sequential engine.
        let glue_s = if pooled {
            0.0
        } else {
            sweep_s - vm_s - combine_s - replay_s
        };
        let report = &best.report;
        let counter = |c: Counter| observed.snapshot.counter(c) as f64;
        let lanes = observed.trace.as_ref().map_or(&[][..], |t| &t.lanes[..]);
        let lane_sum =
            |f: &dyn Fn(&chaos_dmsim::LaneSummary) -> u64| lanes.iter().map(f).sum::<u64>() as f64;
        let releases = counter(Counter::WorkerReleases);
        let pure_sweep_ns = sweep_s * 1e9 / steady_iters;
        let ratio = |base: f64| {
            if base > 0.0 {
                pure_sweep_ns / base
            } else {
                0.0
            }
        };
        let m = Metric::exact;

        metrics.extend([
            m("lang.parser.parse_s", spans("lang.parser.parse"), "s"),
            m("lang.lower.lower_s", spans("lang.lower.lower"), "s"),
            m("lang.exec.new_s", spans("lang.exec.new"), "s"),
            m("lang.exec.align_s", spans("lang.exec.align"), "s"),
            m("lang.exec.read_data_s", spans("lang.exec.read_data"), "s"),
            m("lang.exec.construct_s", spans("lang.exec.construct"), "s"),
            m(
                "lang.exec.set_partition_s",
                spans("lang.exec.set_partition"),
                "s",
            ),
            m(
                "lang.exec.redistribute_s",
                spans("lang.exec.redistribute"),
                "s",
            ),
            m(
                "lang.exec.forall_first_s",
                spans("lang.exec.forall_first"),
                "s",
            ),
            m("lang.exec.inspect_s", inspect_s, "s"),
            m("lang.exec.sweep_s", sweep_s, "s"),
            m("lang.exec.sweep_glue_s", glue_s, "s"),
            m("lang.exec.readback_s", spans("lang.exec.readback"), "s"),
            m(
                "lang.exec.sweep_p50_ns_per_iter",
                median(&step_samples),
                "ns",
            ),
            m(
                "lang.exec.sweep_p99_ns_per_iter",
                percentile(&step_samples, 99.0),
                "ns",
            ),
            m(
                "lang.exec.sweep_samples",
                step_samples.len() as f64,
                "count",
            ),
            m("lang.kernel.vm_s", vm_s, "s"),
            m(
                "lang.kernel.vm_ns_per_iter",
                vm_s * 1e9 / steady_iters,
                "ns",
            ),
            m("core.executor.combine_s", combine_s, "s"),
            m("dmsim.replay_s", replay_s, "s"),
            m("lang.exec.loop_sweeps", report.loop_sweeps as f64, "count"),
            m(
                "lang.exec.inspector_runs",
                report.inspector_runs as f64,
                "count",
            ),
            m("lang.exec.reuse_hits", report.reuse_hits as f64, "count"),
            m(
                "lang.exec.reuse_hit_ratio",
                report.reuse_hits as f64 / report.loop_sweeps.max(1) as f64,
                "ratio",
            ),
            m(
                "lang.exec.iteration_partitions",
                report.iteration_partitions as f64,
                "count",
            ),
            m(
                "lang.exec.arrays_redistributed",
                report.arrays_redistributed as f64,
                "count",
            ),
            m(
                "lang.exec.kernels_compiled",
                report.kernels_compiled as f64,
                "count",
            ),
            m(
                "lang.exec.kernel_reuse_hits",
                report.kernel_reuse_hits as f64,
                "count",
            ),
            m(
                "lang.exec.incremental_bindings",
                report.incremental_bindings as f64,
                "count",
            ),
            m(
                "core.coupler.construct_geocol_s",
                probes.construct_geocol_s,
                "s",
            ),
            m("core.coupler.partition_s", probes.coupler_partition_s, "s"),
            m("core.remap.redistribute_s", probes.redistribute_s, "s"),
            m(
                "core.iterpart.partition_iterations_s",
                probes.partition_iterations_s,
                "s",
            ),
            m("core.inspector.localize_s", probes.localize_s, "s"),
            m("core.executor.gather_s", probes.gather_s, "s"),
            m("core.executor.scatter_s", probes.scatter_s, "s"),
            m(
                "core.executor.gather_ns_per_ghost",
                probes.gather_s * 1e9 / (probes.total_ghosts.max(1)) as f64,
                "ns",
            ),
            m(
                "core.schedule.total_ghosts",
                probes.total_ghosts as f64,
                "count",
            ),
            m(
                "core.schedule.message_count",
                probes.message_count as f64,
                "count",
            ),
            m(
                "core.inspector.local_fraction",
                probes.local_fraction,
                "ratio",
            ),
            m("core.iterpart.imbalance", probes.imbalance, "ratio"),
            m("core.reuse.saved_messages", best.saved.0 as f64, "count"),
            m("core.reuse.saved_bytes", best.saved.1 as f64, "bytes"),
            m("geocol.partition_s", probes.geocol_partition_s, "s"),
            m("geocol.cut_fraction", probes.cut_fraction, "ratio"),
            m("geocol.load_imbalance", probes.load_imbalance, "ratio"),
        ]);
        for ((_, name), value) in MODELED_KINDS.iter().zip(best.modeled_phase_s) {
            metrics.push(m(name, value, "s"));
        }
        metrics.extend([
            m("dmsim.epochs", counter(Counter::Epochs), "count"),
            m("dmsim.kernel_runs", counter(Counter::KernelRuns), "count"),
            m(
                "dmsim.pack_messages",
                counter(Counter::PackMessages),
                "count",
            ),
            m("dmsim.pack_bytes", counter(Counter::PackBytes), "bytes"),
            m(
                "dmsim.pool.phase_overhead_ns",
                probes.pool_phase_overhead_ns,
                "ns",
            ),
            m(
                "dmsim.machine.phase_overhead_ns",
                probes.machine_phase_overhead_ns,
                "ns",
            ),
            m("dmsim.pool.barrier_wait_s", observed.barrier_wait_s, "s"),
            m(
                "dmsim.pool.lane_busy_s",
                lane_sum(&|l| l.busy_ns) / 1e9,
                "s",
            ),
            m(
                "dmsim.pool.stage_wait_s",
                lane_sum(&|l| l.stage_wait_ns) / 1e9,
                "s",
            ),
            m("dmsim.pool.releases", releases, "count"),
            m(
                "dmsim.pool.parked_releases",
                counter(Counter::WorkerParks),
                "count",
            ),
            m(
                "dmsim.pool.park_ratio",
                counter(Counter::WorkerParks) / releases.max(1.0),
                "ratio",
            ),
            m(
                "dmsim.pool.skew_mean_ns",
                observed.trace.as_ref().map_or(0.0, |t| t.mean_skew_ns()),
                "ns",
            ),
            m(
                "dmsim.pool.speedup_vs_machine",
                if pooled {
                    fastest(&twins) / fastest(&untraced)
                } else {
                    0.0
                },
                "ratio",
            ),
            m(
                "dmsim.trace.dropped",
                observed.trace.as_ref().map_or(0.0, |t| t.dropped as f64),
                "count",
            ),
            m("workloads.generate_s", fastest(&setups.generate_s), "s"),
            m(
                "bench.handcoded.sweep_ns_per_iter",
                rows.handcoded_ns_per_iter,
                "ns",
            ),
            m(
                "bench.serial.sweep_ns_per_iter",
                rows.serial_ns_per_iter,
                "ns",
            ),
            m(
                "bench.compiled_over_handcoded",
                ratio(rows.handcoded_ns_per_iter),
                "ratio",
            ),
            m(
                "bench.compiled_over_serial",
                ratio(rows.serial_ns_per_iter),
                "ratio",
            ),
            m("bench.program_span_s", program_span_s, "s"),
            m("bench.residual_s", residual_s, "s"),
            m("bench.residual_frac", residual_s / program_span_s, "ratio"),
            m(
                "bench.trace_overhead_frac",
                program_span_s / fastest(&untraced) - 1.0,
                "ratio",
            ),
            m("bench.traced_repetitions", rounds as f64, "count"),
            m("bench.warmup_program_wall_s", warmup.program_wall_s, "s"),
        ]);
    }
    Outcome {
        attempted: verifier.attempted,
        failures: verifier.failures,
        sizes,
        metrics,
        chrome_trace: Some(recorder.chrome_trace()),
    }
}

impl Outcome {
    /// Repetitions that failed.
    pub fn failed(&self) -> usize {
        self.failures.len()
    }

    /// No repetition failed and the run got far enough to report metrics.
    pub fn correct(&self) -> bool {
        self.failures.is_empty() && !self.metrics.is_empty()
    }

    /// The contract's result object: `correct`, `attempted`, `failed` and
    /// the metrics by name.
    pub fn result_line(&self) -> Value {
        let metrics: Vec<(String, Value)> = self
            .metrics
            .iter()
            .map(|m| {
                (
                    m.name.to_string(),
                    json!({"value": m.value, "unit": m.unit}),
                )
            })
            .collect();
        json!({
            "correct": self.correct(),
            "attempted": self.attempted,
            "failed": self.failed(),
            "metrics": Value::Object(metrics),
        })
    }

    /// The result file: the run's identity, the result object's fields, and
    /// for each sampled metric its sample count and quartiles.
    pub fn to_json(&self, spec: &Spec, opts: &Options) -> Value {
        let metrics: Vec<(String, Value)> = self
            .metrics
            .iter()
            .map(|m| {
                let value = match m.samples {
                    Some(d) => json!({
                        "value": m.value, "unit": m.unit, "samples": d.count,
                        "median": d.median, "q1": d.q1, "q3": d.q3,
                    }),
                    None => json!({"value": m.value, "unit": m.unit}),
                };
                (m.name.to_string(), value)
            })
            .collect();
        json!({
            "workload": spec.name,
            "seed": opts.seed,
            "trace": opts.trace as u8,
            "seconds": opts.seconds,
            "quick": opts.quick,
            "comparable": !opts.quick,
            "inputs": self.sizes,
            "nproc": std::thread::available_parallelism().map_or(0, |n| n.get()),
            "correct": self.correct(),
            "attempted": self.attempted,
            "failed": self.failed(),
            "failures": self.failures,
            "metrics": Value::Object(metrics),
        })
    }
}
