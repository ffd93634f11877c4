//! Runs every workload briefly at a tiny scale, untraced and traced, and
//! checks that the result line names exactly the metrics and units
//! `BENCHMARK.json` declares and that every answer was correct.

use std::path::PathBuf;
use std::process::Command;

use stir_benchmark::json::{self, Value};

fn spec() -> Value {
    let path = PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("../BENCHMARK.json");
    json::parse(&std::fs::read_to_string(&path).expect("read BENCHMARK.json"))
        .expect("parse BENCHMARK.json")
}

fn names(spec: &Value, key: &str) -> Vec<(String, String)> {
    spec.get(key)
        .and_then(Value::as_array)
        .expect("metric list")
        .iter()
        .map(|m| {
            (
                m.get("name").and_then(Value::as_str).unwrap().to_string(),
                m.get("unit")
                    .and_then(Value::as_str)
                    .unwrap_or("")
                    .to_string(),
            )
        })
        .collect()
}

fn benchmark(args: &[&str]) -> std::process::Output {
    let scratch = PathBuf::from(env!("CARGO_TARGET_TMPDIR")).join("smoke");
    Command::new(env!("CARGO_BIN_EXE_benchmark"))
        .args(args)
        .arg("--dir")
        .arg(&scratch)
        .arg("--spans")
        .arg(scratch.join("spans.jsonl"))
        .output()
        .expect("run the benchmark")
}

#[test]
fn every_workload_prints_the_declared_metrics_without_failures() {
    let spec = spec();
    let workloads: Vec<String> = spec
        .get("workloads")
        .and_then(Value::as_array)
        .expect("workload list")
        .iter()
        .map(|w| w.get("name").and_then(Value::as_str).unwrap().to_string())
        .collect();
    for (trace, key) in [("0", "end_to_end"), ("1", "per_layer")] {
        let want = names(&spec, key);
        for w in &workloads {
            let out = benchmark(&[
                "--workload",
                w,
                "--seed",
                "7",
                "--seconds",
                "0.5",
                "--scale",
                "0.002",
                "--trace",
                trace,
            ]);
            assert!(
                out.status.success(),
                "{w} trace {trace}: {}",
                String::from_utf8_lossy(&out.stderr)
            );
            let stdout = String::from_utf8(out.stdout).unwrap();
            let line =
                json::parse(stdout.lines().last().expect("a result line")).expect("result is JSON");
            let keys: Vec<&str> = line
                .as_object()
                .unwrap()
                .iter()
                .map(|(k, _)| k.as_str())
                .collect();
            assert_eq!(keys, ["correct", "attempted", "failed", "metrics"]);
            assert_eq!(
                line.get("correct"),
                Some(&Value::Bool(true)),
                "{w}: {stdout}"
            );
            assert_eq!(line.get("failed").and_then(Value::as_f64), Some(0.0), "{w}");
            assert!(line.get("attempted").and_then(Value::as_f64).unwrap() >= 1.0);
            let got: Vec<(String, String)> = line
                .get("metrics")
                .and_then(Value::as_object)
                .unwrap()
                .iter()
                .map(|(k, v)| {
                    (
                        k.clone(),
                        v.get("unit").and_then(Value::as_str).unwrap().to_string(),
                    )
                })
                .collect();
            assert_eq!(got, want, "{w} trace {trace}");
            if trace == "0" {
                for (name, m) in line.get("metrics").and_then(Value::as_object).unwrap() {
                    let v = m.get("value").and_then(Value::as_f64).unwrap();
                    assert!(v > 0.0 && v.is_finite(), "{w}: {name} = {v}");
                }
            }
        }
    }
}

#[test]
fn bad_arguments_exit_2() {
    for args in [&["--bogus"][..], &["--workload", "nope"], &["--trace", "2"]] {
        let out = benchmark(args);
        assert_eq!(out.status.code(), Some(2), "{args:?}");
        assert!(out.stdout.is_empty());
    }
}
