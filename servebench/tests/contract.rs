//! `../BENCHMARK.json` is what the driver reads; `spec.rs` is what the program prints by.
//! This pins the two against each other and against the limits of the contract.

use serde::Value;
use usp_bench::spec::{END_TO_END, PER_LAYER, WORKLOADS};

fn benchmark_json() -> Value {
    let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
    let text = std::fs::read_to_string(path).expect("BENCHMARK.json at the repository root");
    serde_json::from_str(&text).expect("BENCHMARK.json is JSON")
}

fn list<'a>(spec: &'a Value, key: &str) -> &'a [Value] {
    match spec.get(key) {
        Some(Value::Array(items)) => items,
        other => panic!("`{key}` is not a list: {other:?}"),
    }
}

fn text<'a>(item: &'a Value, key: &str) -> &'a str {
    match item.get(key) {
        Some(Value::Str(s)) => s,
        other => panic!("`{key}` of {item:?} is not a string: {other:?}"),
    }
}

fn keys(item: &Value) -> Vec<&str> {
    match item {
        Value::Object(fields) => fields.iter().map(|(k, _)| k.as_str()).collect(),
        other => panic!("not an object: {other:?}"),
    }
}

#[test]
fn benchmark_json_names_exactly_what_the_program_prints() {
    let spec = benchmark_json();
    assert_eq!(
        keys(&spec),
        [
            "command",
            "paths",
            "run_seconds",
            "workloads",
            "end_to_end",
            "per_layer"
        ]
    );

    let workloads = list(&spec, "workloads");
    let names: Vec<&str> = workloads.iter().map(|w| text(w, "name")).collect();
    assert_eq!(names, WORKLOADS.map(|w| w.name));
    for w in workloads {
        assert_eq!(keys(w), ["name", "why"]);
        let why = text(w, "why");
        assert!(
            !why.is_empty() && why.len() <= 200 && !why.contains('\n'),
            "{why}"
        );
    }

    let end_to_end = list(&spec, "end_to_end");
    let printed: Vec<(&str, &str)> = end_to_end
        .iter()
        .map(|m| (text(m, "name"), text(m, "unit")))
        .collect();
    assert_eq!(printed, END_TO_END);
    for m in end_to_end {
        assert_eq!(keys(m), ["name", "unit", "better", "bound"]);
        assert!(matches!(text(m, "better"), "higher" | "lower"));
        let Some(Value::Float(bound)) = m.get("bound") else {
            panic!("bound of {m:?}")
        };
        assert!(*bound > 0.0 && *bound <= 0.25, "bound of {m:?}");
    }
    let setup = end_to_end
        .iter()
        .find(|m| text(m, "name") == "setup_s")
        .expect("setup_s");
    assert_eq!((text(setup, "unit"), text(setup, "better")), ("s", "lower"));

    let per_layer = list(&spec, "per_layer");
    let printed: Vec<(&str, &str)> = per_layer
        .iter()
        .map(|m| (text(m, "name"), text(m, "unit")))
        .collect();
    assert_eq!(printed, PER_LAYER);
    for m in per_layer {
        assert_eq!(keys(m), ["name", "unit", "better"]);
        assert!(matches!(text(m, "better"), "higher" | "lower"));
    }
}

#[test]
fn command_and_paths_stay_inside_the_benchmarks_own_directory() {
    let spec = benchmark_json();
    let paths: Vec<&str> = list(&spec, "paths")
        .iter()
        .map(|p| match p {
            Value::Str(s) => s.as_str(),
            other => panic!("path {other:?}"),
        })
        .collect();
    assert_eq!(paths, ["servebench"]);
    let command = list(&spec, "command");
    assert!(command.len() <= 32);
    for arg in command {
        let Value::Str(arg) = arg else {
            panic!("command argument {arg:?}")
        };
        assert!(
            arg.len() <= 200 && !arg.starts_with('/') && !arg.contains(".."),
            "{arg}"
        );
        if arg.contains('/') {
            assert!(
                arg.starts_with("servebench/"),
                "{arg} is outside the benchmark's directory"
            );
        }
    }
    match spec.get("run_seconds") {
        Some(Value::Int(s)) => assert!((1..=60).contains(s), "run_seconds {s}"),
        other => panic!("run_seconds {other:?}"),
    }
}
