//! Tiny command-line option handling shared by the bench binaries.
//!
//! Every table binary accepts:
//!
//! * `--quick`          — scale the workloads down 8× and run 20 executor
//!   iterations instead of 100 (useful for smoke tests; the table *shapes*
//!   are preserved),
//! * `--scale <N>`      — explicit workload scale divisor,
//! * `--iters <N>`      — explicit executor iteration count,
//! * `--json <path>`    — also write the results as JSON (`table1` ..
//!   `table4` only; `all_tables` rejects it),
//! * `--help`           — print the usage line and exit 0.
//!
//! Anything else is rejected with a message on stderr and exit code 2;
//! `perf_check` takes no arguments at all ([`no_arguments`]).

use crate::workload::WorkloadKind;

/// The usage line of the table binaries.
pub const TABLE_USAGE: &str =
    "usage: [--quick] [--scale N] [--iters N] [--json PATH]  (--json: table1..table4 only)";

/// Why argument parsing produced no options.
#[derive(Debug, Clone, PartialEq)]
pub enum Stop {
    /// `--help` / `-h`: print this usage line to stdout, exit 0.
    Help(&'static str),
    /// A bad argument: print this message to stderr, exit 2.
    Bad(String),
}

impl From<String> for Stop {
    fn from(msg: String) -> Self {
        Stop::Bad(msg)
    }
}

impl From<&str> for Stop {
    fn from(msg: &str) -> Self {
        Stop::Bad(msg.to_string())
    }
}

/// Unwrap a parse result, or print the [`Stop`] and exit the process.
pub fn exit_on_stop<T>(parsed: Result<T, Stop>) -> T {
    match parsed {
        Ok(value) => value,
        Err(Stop::Help(usage)) => {
            println!("{usage}");
            std::process::exit(0);
        }
        Err(Stop::Bad(msg)) => {
            eprintln!("{msg}");
            std::process::exit(2);
        }
    }
}

/// The argument check of a binary that takes none (`perf_check`): `--help`
/// prints `usage`, anything else is an unknown option.
pub fn no_arguments<I: IntoIterator<Item = String>>(
    args: I,
    usage: &'static str,
) -> Result<(), Stop> {
    match args.into_iter().next().as_deref() {
        None => Ok(()),
        Some("--help" | "-h") => Err(Stop::Help(usage)),
        Some(other) => Err(format!("unknown option '{other}'").into()),
    }
}

/// Parsed command-line options.
#[derive(Debug, Clone, PartialEq)]
pub struct Options {
    /// Workload scale divisor (1 = paper size).
    pub scale: usize,
    /// Executor iterations per experiment (paper: 100).
    pub iterations: usize,
    /// Optional JSON output path.
    pub json: Option<String>,
}

impl Default for Options {
    fn default() -> Self {
        Options {
            scale: 1,
            iterations: 100,
            json: None,
        }
    }
}

impl Options {
    /// Parse options from an argument iterator (excluding the program name).
    pub fn parse<I: IntoIterator<Item = String>>(args: I) -> Result<Options, Stop> {
        let mut opts = Options::default();
        let mut it = args.into_iter();
        while let Some(arg) = it.next() {
            match arg.as_str() {
                "--quick" => {
                    opts.scale = 8;
                    opts.iterations = 20;
                }
                "--scale" => {
                    let v = it.next().ok_or("--scale requires a value")?;
                    opts.scale = v.parse().map_err(|_| format!("bad --scale value '{v}'"))?;
                }
                "--iters" => {
                    let v = it.next().ok_or("--iters requires a value")?;
                    opts.iterations = v.parse().map_err(|_| format!("bad --iters value '{v}'"))?;
                }
                "--json" => {
                    opts.json = Some(it.next().ok_or("--json requires a path")?);
                }
                "--help" | "-h" => return Err(Stop::Help(TABLE_USAGE)),
                other => return Err(format!("unknown option '{other}'").into()),
            }
        }
        if opts.scale == 0 || opts.iterations == 0 {
            return Err("--scale and --iters must be positive".into());
        }
        Ok(opts)
    }

    /// Reject `--json` like any unknown option — for `all_tables`, which
    /// prints all four tables and writes no record of its own.
    pub fn without_json(self) -> Result<Options, Stop> {
        match self.json {
            Some(_) => Err("unknown option '--json'".into()),
            None => Ok(self),
        }
    }

    /// Parse from the process arguments, exiting per [`exit_on_stop`].
    pub fn from_env() -> Options {
        exit_on_stop(Options::parse(std::env::args().skip(1)))
    }
}

/// The paper's experiment grid: each workload with the processor counts its
/// tables use (Tables 1, 3 and 4 all share this grid).
pub fn standard_grid() -> Vec<(WorkloadKind, Vec<usize>)> {
    vec![
        (WorkloadKind::Mesh10k, vec![4, 8, 16]),
        (WorkloadKind::Mesh53k, vec![16, 32, 64]),
        (WorkloadKind::Md648, vec![4, 8, 16]),
    ]
}

#[cfg(test)]
mod tests {
    use super::*;

    fn parse(args: &[&str]) -> Result<Options, Stop> {
        Options::parse(args.iter().map(|s| s.to_string()))
    }

    #[test]
    fn default_is_paper_size() {
        let o = parse(&[]).unwrap();
        assert_eq!(o.scale, 1);
        assert_eq!(o.iterations, 100);
        assert_eq!(o.json, None);
    }

    #[test]
    fn quick_scales_down() {
        let o = parse(&["--quick"]).unwrap();
        assert_eq!(o.scale, 8);
        assert_eq!(o.iterations, 20);
    }

    #[test]
    fn explicit_values_and_json() {
        let o = parse(&["--scale", "4", "--iters", "10", "--json", "out.json"]).unwrap();
        assert_eq!(o.scale, 4);
        assert_eq!(o.iterations, 10);
        assert_eq!(o.json.as_deref(), Some("out.json"));
    }

    #[test]
    fn bad_options_are_rejected() {
        assert!(parse(&["--scale"]).is_err());
        assert!(parse(&["--scale", "x"]).is_err());
        assert!(parse(&["--frobnicate"]).is_err());
        assert!(parse(&["--scale", "0"]).is_err());
    }

    #[test]
    fn help_is_not_an_error() {
        assert_eq!(parse(&["--help"]), Err(Stop::Help(TABLE_USAGE)));
        assert_eq!(parse(&["--quick", "-h"]), Err(Stop::Help(TABLE_USAGE)));
    }

    #[test]
    fn all_tables_rejects_json() {
        let parsed = parse(&["--quick", "--json", "out.json"]).and_then(Options::without_json);
        assert_eq!(
            parsed,
            Err(Stop::Bad("unknown option '--json'".to_string()))
        );
        assert!(parse(&["--quick"]).and_then(Options::without_json).is_ok());
    }

    #[test]
    fn a_binary_without_arguments_rejects_any() {
        let check = |args: &[&str]| no_arguments(args.iter().map(|s| s.to_string()), "usage: x");
        assert_eq!(check(&[]), Ok(()));
        assert_eq!(check(&["--help"]), Err(Stop::Help("usage: x")));
        assert_eq!(
            check(&["BENCH_1.json"]),
            Err(Stop::Bad("unknown option 'BENCH_1.json'".to_string()))
        );
    }

    #[test]
    fn grid_matches_paper() {
        let g = standard_grid();
        assert_eq!(g.len(), 3);
        assert_eq!(g[1].1, vec![16, 32, 64]);
    }
}
