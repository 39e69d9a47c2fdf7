//! Quick-mode self-test: every workload at a tiny size on a fixed seed,
//! untraced and traced. Each run must print exactly the metrics
//! `BENCHMARK.json` names, with their units, report no failed operation,
//! and produce the same output digest traced as untraced.

use std::path::Path;
use std::process::Command;

use dagmap_obs::json::{parse, Value};

fn benchmark_spec() -> Value {
    let path = Path::new(env!("CARGO_MANIFEST_DIR")).join("../BENCHMARK.json");
    let text = std::fs::read_to_string(&path).expect("BENCHMARK.json sits beside perfbench/");
    parse(&text).expect("BENCHMARK.json is JSON")
}

fn list<'a>(spec: &'a Value, key: &str) -> &'a [Value] {
    spec.get(key).and_then(Value::as_arr).expect("a list")
}

fn text<'a>(v: &'a Value, key: &str) -> &'a str {
    v.get(key).and_then(Value::as_str).expect("a string field")
}

/// Runs one workload; returns its host line and its result line.
fn run(workload: &str, trace: &str) -> (Value, Value) {
    let out = Command::new(env!("CARGO_BIN_EXE_dagmap-perfbench"))
        .args(["--workload", workload, "--seed", "7", "--seconds", "0"])
        .args([
            "--trace",
            trace,
            "--quick",
            "--out",
            env!("CARGO_TARGET_TMPDIR"),
        ])
        .output()
        .expect("the benchmark binary runs");
    let stdout = String::from_utf8_lossy(&out.stdout);
    assert!(
        out.status.success(),
        "{workload} --trace {trace} failed:\n{stdout}\n{}",
        String::from_utf8_lossy(&out.stderr)
    );
    let lines: Vec<&str> = stdout.lines().collect();
    let [.., host, result] = lines[..] else {
        panic!("{workload}: expected a host line and a result line, got:\n{stdout}");
    };
    (
        parse(host).expect("host line"),
        parse(result).expect("result line"),
    )
}

fn assert_metrics(result: &Value, expected: &[Value], what: &str) {
    let metrics = result
        .get("metrics")
        .and_then(Value::as_obj)
        .expect("metrics");
    assert_eq!(metrics.len(), expected.len(), "{what}: metric count");
    for m in expected {
        let name = text(m, "name");
        let got = metrics
            .get(name)
            .unwrap_or_else(|| panic!("{what}: metric {name} missing"));
        assert_eq!(
            got.get("unit").and_then(Value::as_str),
            Some(text(m, "unit")),
            "{what}: {name}"
        );
        let value = got.get("value").and_then(Value::as_num);
        assert!(
            value.is_some_and(f64::is_finite),
            "{what}: {name} is not a number"
        );
    }
}

#[test]
fn every_workload_prints_its_metrics_without_errors_and_traces_the_same_bytes() {
    let spec = benchmark_spec();
    for w in list(&spec, "workloads") {
        let workload = text(w, "name");
        let (host, plain) = run(workload, "0");
        let (traced_host, traced) = run(workload, "1");
        for (result, kind) in [(&plain, "end_to_end"), (&traced, "per_layer")] {
            let what = format!("{workload} {kind}");
            assert_metrics(result, list(&spec, kind), &what);
            assert_eq!(result.get("correct"), Some(&Value::Bool(true)), "{what}");
            assert_eq!(
                result.get("failed").and_then(Value::as_num),
                Some(0.0),
                "{what}"
            );
            assert!(
                result
                    .get("attempted")
                    .and_then(Value::as_num)
                    .unwrap_or(0.0)
                    >= 1.0
            );
        }
        let digest = text(&host, "digest");
        assert!(!digest.is_empty(), "{workload}: no output digest");
        assert_eq!(text(&traced_host, "digest"), digest, "{workload}");
        assert_eq!(text(&traced_host, "traced_digest"), digest, "{workload}");
    }
}

#[test]
fn unknown_workloads_are_refused_without_a_result() {
    let out = Command::new(env!("CARGO_BIN_EXE_dagmap-perfbench"))
        .args([
            "--workload",
            "nope",
            "--seed",
            "1",
            "--seconds",
            "1",
            "--trace",
            "0",
        ])
        .output()
        .expect("the benchmark binary runs");
    assert!(!out.status.success());
    assert!(out.stdout.is_empty());
}
