//! The benchmark against its own contract: `BENCHMARK.json` names exactly
//! what the runs emit, and a result set compared with itself is all `ok`.

use chaos_e2e::bench::{run_workload, Options};
use chaos_e2e::compare::{compare, Contract, ResultSet};
use chaos_e2e::json::{as_str, get, items, parse};
use chaos_e2e::workloads::SPECS;
use serde_json::Value;
use std::collections::BTreeSet;

fn contract_text() -> String {
    let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
    std::fs::read_to_string(path).expect("BENCHMARK.json sits at the repo root")
}

/// `(name, <second>)` of every entry of one list of the contract.
fn listed(doc: &Value, key: &str, second: &str) -> Vec<(String, String)> {
    items(get(doc, key).unwrap())
        .iter()
        .map(|m| {
            let field = |k| get(m, k).and_then(as_str).unwrap().to_string();
            (field("name"), field(second))
        })
        .collect()
}

#[test]
fn every_contract_name_is_well_formed_and_used_once() {
    let doc = parse(&contract_text()).unwrap();
    let mut seen = BTreeSet::new();
    for key in ["workloads", "end_to_end", "per_layer"] {
        for entry in items(get(&doc, key).unwrap()) {
            let name = get(entry, "name").and_then(as_str).unwrap();
            let mut chars = name.chars();
            assert!(
                chars.next().is_some_and(|c| c.is_ascii_alphanumeric())
                    && chars.all(|c| c.is_ascii_alphanumeric() || "_.-".contains(c))
                    && name.len() <= 64,
                "'{name}' is not a valid name"
            );
            assert!(seen.insert(name.to_string()), "'{name}' is used twice");
        }
    }
    let specs: Vec<(String, String)> = SPECS
        .iter()
        .map(|s| (s.name.to_string(), s.why.to_string()))
        .collect();
    assert_eq!(listed(&doc, "workloads", "why"), specs);
    assert!(specs
        .iter()
        .all(|(_, why)| why.len() <= 200 && !why.contains('\n')));
}

#[test]
fn quick_runs_emit_exactly_the_contract_and_compare_ok_with_themselves() {
    let text = contract_text();
    let doc = parse(&text).unwrap();
    let mut results = ResultSet::default();
    for spec in &SPECS {
        for (trace, key) in [(false, "end_to_end"), (true, "per_layer")] {
            // A zero time box still measures one repetition.
            let opts = Options {
                seed: 11,
                seconds: 0.0,
                trace,
                quick: true,
            };
            let outcome = run_workload(spec, &opts);
            assert_eq!(outcome.failed(), 0, "{}: {:?}", spec.name, outcome.failures);
            assert!(outcome.attempted >= 2, "{}", spec.name);
            let emitted: Vec<(String, String)> = outcome
                .metrics
                .iter()
                .map(|m| (m.name.to_string(), m.unit.to_string()))
                .collect();
            assert_eq!(
                emitted,
                listed(&doc, key, "unit"),
                "{} --trace {trace}",
                spec.name
            );
            assert!(
                outcome.metrics.iter().all(|m| m.value.is_finite()),
                "{}: {:?}",
                spec.name,
                outcome.metrics
            );

            let Value::Object(line) = outcome.result_line() else {
                panic!("the result line is an object");
            };
            let keys: Vec<&str> = line.iter().map(|(k, _)| k.as_str()).collect();
            assert_eq!(keys, ["correct", "attempted", "failed", "metrics"]);
            assert_eq!(line[0].1, Value::Bool(true));

            assert_eq!(outcome.chrome_trace.is_some(), trace);
            results.add(&outcome.to_json(spec, &opts));
        }
    }

    let contract = Contract::parse(&text).unwrap();
    let verdict = compare(&contract, &results, &results);
    assert_eq!(
        (verdict.worse, verdict.unresolved),
        (0, 0),
        "{}",
        verdict.table
    );
    let rows = contract.workloads.len() * contract.end_to_end.len();
    assert_eq!(verdict.table.matches("  ok\n").count(), rows);
}
