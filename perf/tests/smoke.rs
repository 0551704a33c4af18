//! Drives the built binary the way the benchmark driver and a developer
//! do, and holds its output to `BENCHMARK.json`.

use std::collections::BTreeMap;
use std::path::Path;
use std::process::Command;

use armci_perf::json::Json;

fn benchmark_json() -> Json {
    let path = Path::new(env!("CARGO_MANIFEST_DIR")).join("../BENCHMARK.json");
    Json::parse(&std::fs::read_to_string(&path).expect("read BENCHMARK.json")).expect("parse BENCHMARK.json")
}

fn names(list: &Json) -> Vec<String> {
    list.as_arr()
        .expect("list")
        .iter()
        .map(|m| m.get("name").and_then(Json::as_str).expect("name").to_string())
        .collect()
}

fn run(args: &[&str]) -> String {
    let out = Command::new(env!("CARGO_BIN_EXE_armci-perf")).args(args).output().expect("run armci-perf");
    assert!(out.status.success(), "armci-perf {args:?} failed:\n{}", String::from_utf8_lossy(&out.stderr));
    String::from_utf8(out.stdout).expect("UTF-8 output")
}

fn valid_name(s: &str) -> bool {
    !s.is_empty() && s.len() <= 64 && s.chars().all(|c| c.is_ascii_alphanumeric() || "_.-".contains(c))
}

#[test]
fn smoke_run_prints_every_end_to_end_metric_once_per_workload() {
    let bench = benchmark_json();
    let workloads = names(bench.get("workloads").expect("workloads"));
    let metrics = names(bench.get("end_to_end").expect("end_to_end"));
    let stdout = run(&["run", "--smoke", "--seed", "11"]);
    // Rows are `workload name value unit [# note]`.
    let mut seen: BTreeMap<(String, String), usize> = BTreeMap::new();
    for line in stdout.lines().filter(|l| !l.starts_with("wrote ")) {
        let f: Vec<&str> = line.split_whitespace().collect();
        assert!(f.len() >= 4, "malformed row {line:?}");
        assert!(valid_name(f[1]), "bad metric name in {line:?}");
        f[2].parse::<f64>().unwrap_or_else(|_| panic!("bad value in {line:?}"));
        *seen.entry((f[0].to_string(), f[1].to_string())).or_default() += 1;
        if f[1] == "failed" {
            assert_eq!(f[2], "0", "{line}");
        }
    }
    for w in &workloads {
        for m in metrics.iter().map(String::as_str).chain(["attempted", "failed"]) {
            assert_eq!(seen.get(&(w.clone(), m.to_string())), Some(&1), "{w}/{m} must be printed exactly once");
        }
    }
    assert_eq!(seen.len(), workloads.len() * (metrics.len() + 2), "no rows beyond the declared metrics");
}

#[test]
fn driver_contract_untraced_and_traced() {
    let bench = benchmark_json();
    for (trace, key) in [("0", "end_to_end"), ("1", "per_layer")] {
        let declared = names(bench.get(key).expect(key));
        let stdout = run(&["--workload", "shm_mix", "--seed", "5", "--seconds", "2", "--trace", trace]);
        let last = Json::parse(stdout.lines().last().expect("output")).expect("last line is JSON");
        let keys: Vec<&str> = last.as_obj().expect("object").iter().map(|(k, _)| k.as_str()).collect();
        assert_eq!(keys, ["correct", "attempted", "failed", "metrics"]);
        assert_eq!(last.get("correct"), Some(&Json::Bool(true)));
        assert_eq!(last.get("failed").and_then(Json::as_f64), Some(0.0));
        assert!(last.get("attempted").and_then(Json::as_f64).expect("attempted") >= 1.0);
        let got: Vec<String> =
            last.get("metrics").and_then(Json::as_obj).expect("metrics").iter().map(|(k, _)| k.clone()).collect();
        assert_eq!(got, declared, "--trace {trace} must report exactly the {key} metrics, in order");
        for (name, m) in last.get("metrics").and_then(Json::as_obj).expect("metrics") {
            assert!(valid_name(name));
            assert!(m.get("value").and_then(Json::as_f64).is_some_and(f64::is_finite), "{name} has no finite value");
            let unit = bench
                .get(key)
                .and_then(Json::as_arr)
                .and_then(|l| l.iter().find(|d| d.get("name").and_then(Json::as_str) == Some(name)))
                .and_then(|d| d.get("unit"))
                .and_then(Json::as_str);
            assert_eq!(m.get("unit").and_then(Json::as_str), unit, "{name}: unit differs from BENCHMARK.json");
        }
    }
    // The plane engaged, the plan beat the pull, the trace was written.
    let trace = Path::new(env!("CARGO_MANIFEST_DIR")).join("out/trace_shm_mix.json");
    let doc = Json::parse(&std::fs::read_to_string(&trace).expect("trace file")).expect("trace JSON");
    assert!(doc.get("spans").and_then(Json::as_arr).is_some_and(|s| !s.is_empty()));
}

#[test]
fn usage_errors_exit_nonzero_without_a_result() {
    for args in [
        &["--workload", "nope", "--seed", "1", "--seconds", "1", "--trace", "0"][..],
        &["--workload", "shm_mix"][..],
        &["compare", "only-one.json"][..],
    ] {
        let out = Command::new(env!("CARGO_BIN_EXE_armci-perf")).args(args).output().expect("run armci-perf");
        assert!(!out.status.success(), "{args:?} should fail");
        assert!(out.stdout.is_empty(), "{args:?} printed a result");
    }
}
