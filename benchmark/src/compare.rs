//! `compare A B`: judge result set `B` against result set `A` by the bounds
//! `BENCHMARK.json` fixes.
//!
//! A result set is a directory of the result files end-to-end runs write
//! (`<workload>.seed<n>.trace0.json`); several runs of one workload in a set
//! are reduced to their median. One row is printed per (metric, workload):
//! base, new, ratio, and a verdict —
//!
//! * `worse`: the new median is worse than the base by more than the
//!   metric's bound (and by more than the run-to-run spread),
//! * `unresolved`: the spread is wider than the bound, so "no change" cannot
//!   be told from a regression,
//! * `ok` otherwise.
//!
//! The spread of a (metric, workload) is the interquartile distance of its
//! runs as a share of their median, the larger of the two sets'. It takes at
//! least two runs per workload in a set; with one, the spread is unknown
//! (printed as 0) and only `ok` / `worse` can come out.

use crate::json::{as_f64, as_str, get, items, parse};
use crate::stats::{median, spread};
use serde_json::Value;
use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::path::Path;

/// One end-to-end metric of `BENCHMARK.json`.
#[derive(Debug, Clone, PartialEq)]
pub struct Bounded {
    /// Metric name.
    pub name: String,
    /// `true` when lower values are better.
    pub lower_is_better: bool,
    /// Share of the base median by which the metric may get worse.
    pub bound: f64,
}

/// The parts of `BENCHMARK.json` the comparison needs.
#[derive(Debug, Clone, PartialEq)]
pub struct Contract {
    /// Workload names, in file order.
    pub workloads: Vec<String>,
    /// End-to-end metrics with their bounds.
    pub end_to_end: Vec<Bounded>,
}

impl Contract {
    /// Read the contract out of `BENCHMARK.json`'s text.
    pub fn parse(text: &str) -> Result<Self, String> {
        let doc = parse(text)?;
        let names = |key: &str| -> Result<Vec<&Value>, String> {
            let list = get(&doc, key).ok_or_else(|| format!("BENCHMARK.json has no '{key}'"))?;
            Ok(items(list).iter().collect())
        };
        let name_of = |v: &Value| -> Result<String, String> {
            get(v, "name")
                .and_then(as_str)
                .map(str::to_string)
                .ok_or_else(|| "an entry has no 'name'".to_string())
        };
        let workloads = names("workloads")?
            .into_iter()
            .map(name_of)
            .collect::<Result<_, _>>()?;
        let end_to_end = names("end_to_end")?
            .into_iter()
            .map(|v| {
                let name = name_of(v)?;
                let bound = get(v, "bound")
                    .and_then(as_f64)
                    .ok_or_else(|| format!("metric '{name}' has no 'bound'"))?;
                let lower_is_better = match get(v, "better").and_then(as_str) {
                    Some("lower") => true,
                    Some("higher") => false,
                    _ => return Err(format!("metric '{name}' has no valid 'better'")),
                };
                Ok(Bounded {
                    name,
                    lower_is_better,
                    bound,
                })
            })
            .collect::<Result<_, String>>()?;
        Ok(Contract {
            workloads,
            end_to_end,
        })
    }
}

/// The runs of a result set, by (workload, metric).
#[derive(Debug, Default)]
pub struct ResultSet(BTreeMap<(String, String), Vec<f64>>);

impl ResultSet {
    /// Load every end-to-end result file (`*.json` with `"trace": 0`) in
    /// `dir`.
    pub fn load(dir: &Path) -> Result<Self, String> {
        let mut set = ResultSet::default();
        let entries =
            std::fs::read_dir(dir).map_err(|e| format!("cannot read {}: {e}", dir.display()))?;
        let mut paths: Vec<_> = entries
            .filter_map(|e| e.ok().map(|e| e.path()))
            .filter(|p| p.extension().is_some_and(|x| x == "json"))
            .collect();
        paths.sort();
        for path in paths {
            let text = std::fs::read_to_string(&path)
                .map_err(|e| format!("cannot read {}: {e}", path.display()))?;
            let doc = parse(&text).map_err(|e| format!("{}: {e}", path.display()))?;
            set.add(&doc);
        }
        if set.0.is_empty() {
            return Err(format!("no end-to-end result files in {}", dir.display()));
        }
        Ok(set)
    }

    /// Add one result document (ignored unless it is an end-to-end result).
    pub fn add(&mut self, doc: &Value) {
        let (Some(workload), Some(0.0), Some(Value::Object(metrics))) = (
            get(doc, "workload").and_then(as_str),
            get(doc, "trace").and_then(as_f64),
            get(doc, "metrics"),
        ) else {
            return;
        };
        for (name, m) in metrics {
            if let Some(value) = get(m, "value").and_then(as_f64) {
                self.0
                    .entry((workload.to_string(), name.clone()))
                    .or_default()
                    .push(value);
            }
        }
    }

    /// Median over the set's runs and their spread, if the set has the pair.
    fn summary(&self, workload: &str, metric: &str) -> Option<(f64, f64)> {
        let runs = self.0.get(&(workload.to_string(), metric.to_string()))?;
        Some((median(runs), spread(runs).unwrap_or(0.0)))
    }
}

/// The comparison's printed table and whether any row is `worse`.
#[derive(Debug, Clone, PartialEq)]
pub struct Comparison {
    /// One line per (metric, workload), with a header.
    pub table: String,
    /// Rows judged `worse`.
    pub worse: usize,
    /// Rows judged `unresolved` (or missing from a set).
    pub unresolved: usize,
}

/// Judge `new` against `base`.
pub fn compare(contract: &Contract, base: &ResultSet, new: &ResultSet) -> Comparison {
    let mut table = format!(
        "{:<22} {:<20} {:>14} {:>14} {:>8} {:>8} {:>7}  verdict\n",
        "workload", "metric", "base", "new", "new/base", "spread", "bound"
    );
    let (mut worse, mut unresolved) = (0, 0);
    for workload in &contract.workloads {
        for metric in &contract.end_to_end {
            let (Some((b, b_spread)), Some((n, n_spread))) = (
                base.summary(workload, &metric.name),
                new.summary(workload, &metric.name),
            ) else {
                unresolved += 1;
                let _ = writeln!(
                    table,
                    "{workload:<22} {:<20} missing from a result set  unresolved",
                    metric.name
                );
                continue;
            };
            let run_spread = b_spread.max(n_spread);
            let worse_by = if metric.lower_is_better {
                (n - b) / b.abs()
            } else {
                (b - n) / b.abs()
            };
            let verdict = if worse_by > metric.bound.max(run_spread) {
                worse += 1;
                "worse"
            } else if run_spread > metric.bound {
                unresolved += 1;
                "unresolved"
            } else {
                "ok"
            };
            let _ = writeln!(
                table,
                "{workload:<22} {:<20} {b:>14.6e} {n:>14.6e} {:>8.4} {run_spread:>8.4} {:>7.3}  {verdict}",
                metric.name,
                n / b,
                metric.bound,
            );
        }
    }
    Comparison {
        table,
        worse,
        unresolved,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use serde_json::json;

    const CONTRACT: &str = r#"{
        "workloads": [{"name": "w", "why": "x"}],
        "end_to_end": [
            {"name": "wall_s", "unit": "s", "better": "lower", "bound": 0.1},
            {"name": "rate", "unit": "1/s", "better": "higher", "bound": 0.1}
        ]
    }"#;

    fn set(walls: &[f64], rate: f64) -> ResultSet {
        let mut set = ResultSet::default();
        for &wall in walls {
            set.add(&json!({
                "workload": "w",
                "trace": 0,
                "metrics": json!({
                    "wall_s": json!({"value": wall, "unit": "s"}),
                    "rate": json!({"value": rate, "unit": "1/s"}),
                }),
            }));
        }
        set
    }

    #[test]
    fn verdicts_follow_the_bounds_and_the_spread() {
        let contract = Contract::parse(CONTRACT).unwrap();
        let base = set(&[1.0, 1.01, 0.99, 1.0], 100.0);

        let same = compare(&contract, &base, &base);
        assert_eq!((same.worse, same.unresolved), (0, 0), "{}", same.table);

        let slower = compare(&contract, &base, &set(&[1.2, 1.21, 1.19, 1.2], 100.0));
        assert_eq!(
            (slower.worse, slower.unresolved),
            (1, 0),
            "{}",
            slower.table
        );

        // A higher-is-better metric regresses downwards.
        let lower_rate = compare(&contract, &base, &set(&[1.0, 1.01, 0.99, 1.0], 80.0));
        assert_eq!(lower_rate.worse, 1, "{}", lower_rate.table);

        // Faster is never worse.
        let faster = compare(&contract, &base, &set(&[0.5, 0.5, 0.5, 0.5], 200.0));
        assert_eq!((faster.worse, faster.unresolved), (0, 0));

        // Runs that scatter by more than the bound cannot resolve it.
        let noisy = compare(&contract, &base, &set(&[0.8, 1.0, 1.2, 1.05], 100.0));
        assert_eq!((noisy.worse, noisy.unresolved), (0, 1), "{}", noisy.table);

        // A workload missing from one set is reported, not skipped.
        let empty = ResultSet::default();
        assert_eq!(compare(&contract, &base, &empty).unresolved, 2);
    }

    #[test]
    fn traced_results_and_malformed_contracts_are_rejected() {
        let mut set = ResultSet::default();
        set.add(&json!({"workload": "w", "trace": 1, "metrics": json!({})}));
        assert!(set.0.is_empty());
        assert!(Contract::parse("{}").is_err());
        assert!(Contract::parse(r#"{"workloads": [], "end_to_end": [{"name": "a"}]}"#).is_err());
    }
}
