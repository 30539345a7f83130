//! `BENCHMARK.json` at the repository root describes exactly the
//! metrics and workloads this benchmark prints.

use serde_json::Value;

use pipeline_bench::catalog::{END_TO_END, PER_LAYER, WORKLOADS};
use pipeline_bench::run::Options;
use pipeline_bench::run_workload;

/// The name grammar `BENCHMARK.json` requires: starts with a letter or
/// digit, at most 64 of `[A-Za-z0-9_.-]`.
fn valid_name(name: &str) -> bool {
    let ok_char = |c: char| c.is_ascii_alphanumeric() || matches!(c, '_' | '.' | '-');
    name.len() <= 64
        && name
            .chars()
            .next()
            .is_some_and(|c| c.is_ascii_alphanumeric())
        && name.chars().all(ok_char)
}

/// The unit grammar: at most 16 of `[A-Za-z0-9_/%.-]`.
fn valid_unit(unit: &str) -> bool {
    !unit.is_empty()
        && unit.len() <= 16
        && unit
            .chars()
            .all(|c| c.is_ascii_alphanumeric() || matches!(c, '_' | '/' | '%' | '.' | '-'))
}

fn benchmark_json() -> Value {
    let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
    let text = std::fs::read_to_string(path).expect("BENCHMARK.json at the repository root");
    serde_json::from_str_value(&text).expect("BENCHMARK.json parses")
}

fn field<'a>(v: &'a Value, key: &str) -> &'a Value {
    serde::json::obj_get(v.as_obj().expect("an object"), key)
}

fn text(v: &Value, key: &str) -> String {
    match field(v, key) {
        Value::Str(s) => s.clone(),
        other => panic!("{key} is {other:?}, not a string"),
    }
}

fn list<'a>(v: &'a Value, key: &str) -> &'a [Value] {
    field(v, key).as_arr().expect("a list")
}

#[test]
fn benchmark_json_matches_the_catalog() {
    let doc = benchmark_json();
    let keys: Vec<&str> = doc
        .as_obj()
        .unwrap()
        .iter()
        .map(|(k, _)| k.as_str())
        .collect();
    assert_eq!(
        keys,
        [
            "command",
            "paths",
            "run_seconds",
            "workloads",
            "end_to_end",
            "per_layer"
        ]
    );

    let workloads = list(&doc, "workloads");
    assert_eq!(workloads.len(), WORKLOADS.len());
    for (w, (name, why)) in workloads.iter().zip(WORKLOADS) {
        assert_eq!(
            (text(w, "name"), text(w, "why")),
            (name.to_string(), why.to_string())
        );
        assert!(valid_name(name) && why.len() <= 200 && !why.contains('\n'));
    }

    let e2e = list(&doc, "end_to_end");
    assert!(e2e.len() <= 16);
    assert_eq!(e2e.len(), END_TO_END.len());
    for (m, c) in e2e.iter().zip(END_TO_END.iter()) {
        assert_eq!(text(m, "name"), c.name);
        assert_eq!(text(m, "unit"), c.unit);
        assert_eq!(text(m, "better"), c.better.label());
        assert_eq!(field(m, "bound").as_f64(), Some(c.bound));
        assert!(c.bound > 0.0 && c.bound <= 0.25, "{}", c.name);
    }
    assert!(END_TO_END
        .iter()
        .any(|m| m.name == "setup_s" && m.unit == "s"));
    let setup_bound = END_TO_END
        .iter()
        .find(|m| m.name == "setup_s")
        .unwrap()
        .bound;
    assert!(END_TO_END.iter().all(|m| m.bound <= setup_bound));

    let layers = list(&doc, "per_layer");
    assert!(layers.len() <= 128);
    assert_eq!(layers.len(), PER_LAYER.len());
    for (m, c) in layers.iter().zip(PER_LAYER.iter()) {
        assert_eq!(text(m, "name"), c.name);
        assert_eq!(text(m, "unit"), c.unit);
        assert_eq!(text(m, "better"), c.better.label());
    }
}

#[test]
fn names_and_units_fit_the_grammar_and_are_unique() {
    let mut names: Vec<&str> = END_TO_END.iter().map(|m| m.name).collect();
    names.extend(PER_LAYER.iter().map(|m| m.name));
    names.extend(WORKLOADS.iter().map(|(n, _)| *n));
    for name in &names {
        assert!(valid_name(name), "{name}");
    }
    let mut unique = names.clone();
    unique.sort_unstable();
    unique.dedup();
    assert_eq!(unique.len(), names.len(), "names are used once");
    for unit in END_TO_END
        .iter()
        .map(|m| m.unit)
        .chain(PER_LAYER.iter().map(|m| m.unit))
    {
        assert!(valid_unit(unit), "{unit}");
    }
    let layers = [
        "bench",
        "workloads",
        "runtime",
        "core",
        "device",
        "selection",
        "simpoint",
        "par",
        "serve",
        "durable",
    ];
    for m in PER_LAYER.iter() {
        assert!(
            layers.contains(&m.layer()),
            "{} names a known layer",
            m.name
        );
    }
}

#[test]
fn a_run_prints_exactly_the_catalog() {
    let opts = Options {
        seed: 1,
        seconds: 0,
        trace: false,
    };
    let outcome = run_workload("detailed-sim", &opts).expect("runs");
    assert!(outcome.correct, "{:?}", outcome.problems);
    let printed: Vec<&str> = outcome.metrics.iter().map(|(n, _, _)| *n).collect();
    let expected: Vec<&str> = END_TO_END.iter().map(|m| m.name).collect();
    assert_eq!(printed, expected);
    assert!(outcome
        .metrics
        .iter()
        .all(|(_, v, _)| v.is_finite() && *v > 0.0));
}
