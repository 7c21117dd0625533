//! A tiny-scale run of every workload emits exactly the metrics that
//! `BENCHMARK.json` names, with their units, and passes its own checks.

use std::process::Command;
use sthsl_obs::{parse_json, Json};

fn benchmark_json() -> Json {
    let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
    let text = std::fs::read_to_string(path).expect("read BENCHMARK.json");
    parse_json(&text).expect("BENCHMARK.json is JSON")
}

fn names_and_units(doc: &Json, key: &str) -> Vec<(String, String)> {
    let list = doc.get(key).and_then(Json::as_arr).expect(key);
    list.iter()
        .map(|m| {
            let field = |k: &str| m.get(k).and_then(Json::as_str).expect(k).to_string();
            (field("name"), field("unit"))
        })
        .collect()
}

/// Run one tiny workload and return its last stdout line, parsed.
fn run(workload: &str, trace: u8) -> Json {
    let out = Command::new(env!("CARGO_BIN_EXE_perfbench"))
        .args(["--workload", workload, "--seed", "5", "--seconds", "1", "--size", "tiny"])
        .args(["--trace", &trace.to_string()])
        .current_dir(env!("CARGO_TARGET_TMPDIR"))
        .output()
        .expect("spawn perfbench");
    let stdout = String::from_utf8_lossy(&out.stdout);
    assert!(out.status.success(), "{workload} trace={trace} failed:\n{stdout}");
    let last = stdout.lines().last().expect("no output");
    parse_json(last).unwrap_or_else(|e| panic!("last line is not JSON ({e}): {last}"))
}

#[test]
fn tiny_runs_emit_every_metric_named_in_benchmark_json() {
    let doc = benchmark_json();
    let workloads: Vec<String> = doc
        .get("workloads")
        .and_then(Json::as_arr)
        .expect("workloads")
        .iter()
        .map(|w| w.get("name").and_then(Json::as_str).expect("name").to_string())
        .collect();
    assert_eq!(workloads, ["train", "serve-miss", "serve-hit"]);
    for (trace, key) in [(0u8, "end_to_end"), (1, "per_layer")] {
        let mut want = names_and_units(&doc, key);
        want.sort();
        for workload in &workloads {
            let result = run(workload, trace);
            let Json::Obj(fields) = &result else { panic!("result is not an object") };
            let keys: Vec<&str> = fields.iter().map(|(k, _)| k.as_str()).collect();
            assert_eq!(keys, ["correct", "attempted", "failed", "metrics"]);
            assert_eq!(result.get("correct"), Some(&Json::Bool(true)), "{workload} {trace}");
            assert_eq!(result.get("failed").and_then(Json::as_u64), Some(0));
            assert!(result.get("attempted").and_then(Json::as_u64).is_some_and(|a| a >= 1));
            let metrics = result.get("metrics").and_then(Json::as_obj).expect("metrics");
            let mut got: Vec<(String, String)> = metrics
                .iter()
                .map(|(name, m)| {
                    let value = m.get("value").and_then(Json::as_f64);
                    assert!(value.is_some_and(f64::is_finite), "{workload}: {name} = {value:?}");
                    let unit = m.get("unit").and_then(Json::as_str).expect("unit");
                    (name.clone(), unit.to_string())
                })
                .collect();
            got.sort();
            assert_eq!(got, want, "{workload} trace={trace}: metrics differ from {key}");
        }
    }
}

#[test]
fn bad_arguments_exit_nonzero_without_a_result() {
    for args in [&["--workload", "nope"][..], &["--workload", "train", "--trace", "2"]] {
        let out = Command::new(env!("CARGO_BIN_EXE_perfbench"))
            .args(args)
            .current_dir(env!("CARGO_TARGET_TMPDIR"))
            .output()
            .expect("spawn perfbench");
        assert!(!out.status.success());
        assert!(out.stdout.is_empty());
    }
}
