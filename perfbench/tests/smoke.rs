//! Smoke test: every workload at a tiny size, untraced and traced. Each run
//! must emit every metric `BENCHMARK.json` names, with its unit, and fail
//! nothing.

use serde::Value;
use std::process::Command;

fn field<'a>(v: &'a Value, key: &str) -> &'a Value {
    match v {
        Value::Object(kv) => {
            &kv.iter()
                .find(|(k, _)| k == key)
                .unwrap_or_else(|| panic!("no key {key}"))
                .1
        }
        _ => panic!("not an object where {key} was expected"),
    }
}

fn str_of(v: &Value) -> &str {
    match v {
        Value::Str(s) => s,
        _ => panic!("not a string: {v:?}"),
    }
}

fn items(v: &Value) -> &[Value] {
    match v {
        Value::Array(a) => a,
        _ => panic!("not an array: {v:?}"),
    }
}

fn num(v: &Value) -> f64 {
    match v {
        Value::Int(i) => *i as f64,
        Value::Float(f) => *f,
        _ => panic!("not a number: {v:?}"),
    }
}

/// `(name, unit)` of every metric in one section of `BENCHMARK.json`.
fn declared(spec: &Value, section: &str) -> Vec<(String, String)> {
    items(field(spec, section))
        .iter()
        .map(|m| {
            (
                str_of(field(m, "name")).to_string(),
                str_of(field(m, "unit")).to_string(),
            )
        })
        .collect()
}

#[test]
fn every_workload_emits_every_metric_and_fails_nothing() {
    let spec_path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
    let spec: Value =
        serde_json::from_str(&std::fs::read_to_string(spec_path).expect("read BENCHMARK.json"))
            .expect("parse BENCHMARK.json");
    for w in items(field(&spec, "workloads")) {
        let name = str_of(field(w, "name"));
        for (trace, section) in [("0", "end_to_end"), ("1", "per_layer")] {
            let out = Command::new(env!("CARGO_BIN_EXE_perfbench"))
                .args([
                    "--workload",
                    name,
                    "--seed",
                    "3",
                    "--seconds",
                    "0.2",
                    "--trace",
                    trace,
                ])
                .arg("--smoke")
                .current_dir(env!("CARGO_TARGET_TMPDIR"))
                .output()
                .expect("run perfbench");
            assert!(
                out.status.success(),
                "{name} --trace {trace} exited with {}",
                out.status
            );
            let stdout = String::from_utf8(out.stdout).expect("utf-8 output");
            let last = stdout.lines().last().expect("a result line");
            let result: Value = serde_json::from_str(last).expect("result line is JSON");
            let stderr = String::from_utf8_lossy(&out.stderr);
            assert_eq!(
                field(&result, "correct"),
                &Value::Bool(true),
                "{name}: {stderr}"
            );
            assert_eq!(num(field(&result, "failed")), 0.0, "{name}: {stderr}");
            assert!(num(field(&result, "attempted")) >= 1.0);
            let metrics = field(&result, "metrics");
            let Value::Object(emitted) = metrics else {
                panic!("metrics is not an object")
            };
            let declared = declared(&spec, section);
            assert_eq!(
                emitted.len(),
                declared.len(),
                "{name} --trace {trace}: metric count"
            );
            for (metric, unit) in &declared {
                let m = field(metrics, metric);
                assert_eq!(str_of(field(m, "unit")), unit, "{name}: unit of {metric}");
                assert!(
                    num(field(m, "value")).is_finite(),
                    "{name}: {metric} is not finite"
                );
            }
            if trace == "1" {
                assert_eq!(num(field(field(metrics, "run.failed_frac"), "value")), 0.0);
            }
        }
    }
}
