//! Command line of the end-to-end benchmark.
//!
//! ```text
//! chaos-e2e [--workload NAME] [--seed N] [--seconds S] [--trace 0|1]
//!           [--quick] [--out DIR]
//! chaos-e2e compare A B [--spec BENCHMARK.json]
//! ```
//!
//! A run prints every metric by name with its unit, writes its result file
//! (and, traced, the span tree as a Chrome trace) under `--out`, and ends
//! with the result object as the last line of standard output. Without
//! `--workload` all five workloads run in turn. Exit code 1 means a
//! repetition failed verification (or `compare` found a `worse` row), 2 a
//! usage or I/O error.

use chaos_e2e::bench::{run_workload, Options, Outcome};
use chaos_e2e::compare::{compare, Contract, ResultSet};
use chaos_e2e::workloads::{spec_by_name, Spec, SPECS};
use std::path::{Path, PathBuf};
use std::process::ExitCode;

/// `run_seconds` of `BENCHMARK.json`: the default time box.
const DEFAULT_SECONDS: f64 = 20.0;
/// Time box of a `--quick` run unless `--seconds` says otherwise.
const QUICK_SECONDS: f64 = 1.0;

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let result = match args.first().map(String::as_str) {
        Some("compare") => run_compare(&args[1..]),
        _ => run(&args),
    };
    match result {
        Ok(true) => ExitCode::SUCCESS,
        Ok(false) => ExitCode::from(1),
        Err(message) => {
            eprintln!("chaos-e2e: {message}");
            ExitCode::from(2)
        }
    }
}

/// The value following flag `args[*i]`.
fn value<'a>(args: &'a [String], i: &mut usize) -> Result<&'a str, String> {
    *i += 1;
    args.get(*i)
        .map(String::as_str)
        .ok_or_else(|| format!("option '{}' needs a value", args[*i - 1]))
}

fn number<T: std::str::FromStr>(flag: &str, text: &str) -> Result<T, String> {
    text.parse()
        .map_err(|_| format!("option '{flag}' cannot take '{text}'"))
}

fn run(args: &[String]) -> Result<bool, String> {
    let mut specs: Vec<&Spec> = SPECS.iter().collect();
    let mut opts = Options {
        seed: 1,
        seconds: DEFAULT_SECONDS,
        trace: false,
        quick: false,
    };
    let mut seconds = None;
    let mut out = PathBuf::from("benchmark/out");
    let mut i = 0;
    while i < args.len() {
        let flag = args[i].as_str();
        match flag {
            "--workload" => {
                let name = value(args, &mut i)?;
                let known = || SPECS.map(|s| s.name).join(", ");
                let spec = spec_by_name(name)
                    .ok_or_else(|| format!("unknown workload '{name}' (known: {})", known()))?;
                specs = vec![spec];
            }
            "--seed" => opts.seed = number(flag, value(args, &mut i)?)?,
            "--seconds" => {
                let s: f64 = number(flag, value(args, &mut i)?)?;
                if !(0.0..=3600.0).contains(&s) {
                    return Err(format!("--seconds {s} is outside 0..=3600"));
                }
                seconds = Some(s);
            }
            "--trace" => {
                opts.trace = match value(args, &mut i)? {
                    "0" => false,
                    "1" => true,
                    other => return Err(format!("--trace takes 0 or 1, not '{other}'")),
                }
            }
            "--quick" => opts.quick = true,
            "--out" => out = PathBuf::from(value(args, &mut i)?),
            other => return Err(format!("unknown option '{other}'")),
        }
        i += 1;
    }
    opts.seconds = seconds.unwrap_or(if opts.quick {
        QUICK_SECONDS
    } else {
        DEFAULT_SECONDS
    });

    let mut all_correct = true;
    for spec in specs {
        let outcome = run_workload(spec, &opts);
        report(spec, &opts, &outcome, &out)?;
        all_correct &= outcome.correct();
    }
    Ok(all_correct)
}

/// Print the run's metrics, write its files, and end with the result line.
fn report(spec: &Spec, opts: &Options, outcome: &Outcome, out: &Path) -> Result<(), String> {
    let nproc = std::thread::available_parallelism().map_or(0, |n| n.get());
    println!(
        "# chaos-e2e workload={} seed={} trace={} seconds={} quick={} nproc={nproc}",
        spec.name, opts.seed, opts.trace as u8, opts.seconds, opts.quick
    );
    if opts.quick {
        println!("# --quick: inputs divided by 50; NOT comparable with full-size results");
    }
    println!("# why: {}", spec.why);
    println!("# inputs: {}", outcome.sizes);
    for m in &outcome.metrics {
        match m.samples {
            Some(d) => println!(
                "{} = {} {} (fastest of {} samples; median {}, quartiles {} .. {})",
                m.name, m.value, m.unit, d.count, d.median, d.q1, d.q3
            ),
            None => println!("{} = {} {}", m.name, m.value, m.unit),
        }
    }
    println!("ops_attempted = {} count", outcome.attempted);
    println!("ops_failed = {} count", outcome.failed());
    for failure in &outcome.failures {
        println!("# FAILED {failure}");
    }

    let write = |file: String, text: String| -> Result<(), String> {
        let path = out.join(file);
        std::fs::write(&path, text + "\n")
            .map_err(|e| format!("cannot write {}: {e}", path.display()))
    };
    let render = |text: Result<String, serde_json::Error>| text.map_err(|e| e.to_string());
    std::fs::create_dir_all(out).map_err(|e| format!("cannot create {}: {e}", out.display()))?;
    let stem = format!("{}.seed{}", spec.name, opts.seed);
    write(
        format!("{stem}.trace{}.json", opts.trace as u8),
        render(serde_json::to_string_pretty(&outcome.to_json(spec, opts)))?,
    )?;
    if let Some(trace) = &outcome.chrome_trace {
        // Thousands of events: one line, not one field per line.
        write(
            format!("{stem}.spans.json"),
            render(serde_json::to_string(trace))?,
        )?;
    }

    println!("{}", render(serde_json::to_string(&outcome.result_line()))?);
    Ok(())
}

fn run_compare(args: &[String]) -> Result<bool, String> {
    let mut dirs = Vec::new();
    let mut spec = PathBuf::from("BENCHMARK.json");
    let mut i = 0;
    while i < args.len() {
        match args[i].as_str() {
            "--spec" => spec = PathBuf::from(value(args, &mut i)?),
            flag if flag.starts_with("--") => return Err(format!("unknown option '{flag}'")),
            dir => dirs.push(PathBuf::from(dir)),
        }
        i += 1;
    }
    let [base, new] = dirs.as_slice() else {
        return Err("usage: compare A B [--spec BENCHMARK.json]".to_string());
    };
    let text = std::fs::read_to_string(&spec)
        .map_err(|e| format!("cannot read {}: {e}", spec.display()))?;
    let contract = Contract::parse(&text)?;
    let result = compare(&contract, &ResultSet::load(base)?, &ResultSet::load(new)?);
    print!("{}", result.table);
    println!(
        "{} worse, {} unresolved (base {}, new {})",
        result.worse,
        result.unresolved,
        base.display(),
        new.display()
    );
    Ok(result.worse == 0)
}
