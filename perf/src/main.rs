//! `armci-perf` — see `README.md` beside this crate.
//!
//! ```text
//! armci-perf --workload <name> --seed <n> --seconds <s> --trace <0|1>   one run, JSON on the last line
//! armci-perf run   [--seed n] [--seconds s] [--repeat k] [--smoke]      every workload, untraced
//! armci-perf trace [--seed n] [--seconds s]                             every workload, traced
//! armci-perf compare <a.json> <b.json>                                  apply the bounds in BENCHMARK.json
//! ```

use std::path::PathBuf;
use std::process::ExitCode;

use armci_perf::bench::{run_traced, run_untraced, RunResult};
use armci_perf::cluster::{out_dir, run_round};
use armci_perf::json::Json;
use armci_perf::report;
use armci_perf::spec::{Shape, Spec};

#[global_allocator]
static ALLOC: armci_perf::alloc::Counting = armci_perf::alloc::Counting;

const USAGE: &str = "usage: armci-perf --workload <name> --seed <n> --seconds <s> --trace <0|1>
       armci-perf run [--seed n] [--seconds s] [--repeat k] [--smoke]
       armci-perf trace [--seed n] [--seconds s]
       armci-perf compare <a.json> <b.json>";

/// Value of `--flag` in `args`, parsed.
fn flag<T: std::str::FromStr>(args: &[String], name: &str) -> Result<Option<T>, String> {
    match args.iter().position(|a| a == name) {
        None => Ok(None),
        Some(i) => {
            let raw = args.get(i + 1).ok_or_else(|| format!("{name} needs a value"))?;
            raw.parse().map(Some).map_err(|_| format!("bad value for {name}: {raw:?}"))
        }
    }
}

fn read_json(path: &str) -> Result<Json, String> {
    let text = std::fs::read_to_string(path).map_err(|e| format!("{path}: {e}"))?;
    Json::parse(&text).map_err(|e| format!("{path}: {e}"))
}

struct Harness {
    pinned: Option<usize>,
    spare: Option<usize>,
}

impl Harness {
    fn one(&self, shape: Shape, seed: u64, seconds: f64, trace: bool) -> RunResult {
        if !trace {
            return run_untraced(shape, seed, seconds);
        }
        let (result, dump) = run_traced(shape, seed, seconds, self.spare);
        report::write_json(
            &out_dir().join(format!("trace_{}.json", shape.name())),
            &report::trace_json(shape.name(), &dump),
        );
        result
    }

    /// `run` / `trace`: every workload, `repeat` seeds each.
    fn all(&self, seed: u64, seconds: f64, repeat: u64, trace: bool) -> bool {
        let seeds: Vec<u64> = (0..repeat).map(|k| seed.wrapping_add(k)).collect();
        let mut runs = Vec::new();
        for shape in Shape::WORKLOADS {
            let reps: Vec<RunResult> = seeds.iter().map(|&s| self.one(shape, s, seconds, trace)).collect();
            for r in &reps {
                report::print_rows(shape.name(), r);
            }
            runs.push((shape.name().to_string(), reps));
        }
        let file = if trace { "trace_result.json" } else { "result.json" };
        report::write_json(&out_dir().join(file), &report::result_json(report::env_json(self.pinned), &seeds, &runs));
        println!("wrote {}", out_dir().join(file).display());
        runs.iter().flat_map(|(_, reps)| reps).all(|r| r.failed == 0)
    }
}

fn real_main(args: &[String]) -> Result<bool, String> {
    // One CPU, before any thread exists; children inherit the mask.
    let (pinned, spare) = armci_perf::pin::pin_process();
    if args.first().map(String::as_str) == Some("--child") {
        // A spawned node process: back to the one call site, with the
        // launch environment the parent set left intact.
        let spec = Spec::from_child_args(&args[1..]).ok_or("malformed --child arguments")?;
        run_round(spec);
        unreachable!("a spawned node process exits inside run_cluster_spawned");
    }
    // Knobs and launch-env leftovers must not leak into the clusters.
    for var in
        ["ARMCI_NETFAB_IO", "ARMCI_SHM_PLANE", "ARMCI_NETFAB_NODE", "ARMCI_NETFAB_RENDEZVOUS", "ARMCI_NETFAB_PAYLOAD"]
    {
        std::env::remove_var(var);
    }
    let h = Harness { pinned, spare };
    let seed = flag::<u64>(args, "--seed")?;
    let seconds = flag::<f64>(args, "--seconds")?;
    if seconds.is_some_and(|s| !(s > 0.0 && s <= 600.0)) {
        return Err("--seconds must be in (0, 600]".into());
    }
    match args.first().map(String::as_str) {
        Some("run") => {
            let smoke = args.iter().any(|a| a == "--smoke");
            let seconds = seconds.unwrap_or(if smoke { 3.0 } else { 20.0 });
            Ok(h.all(seed.unwrap_or(1), seconds, flag(args, "--repeat")?.unwrap_or(1), false))
        }
        Some("trace") => Ok(h.all(seed.unwrap_or(1), seconds.unwrap_or(20.0), 1, true)),
        Some("compare") => {
            let [_, a, b] = args else { return Err(USAGE.into()) };
            let bench = PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("../BENCHMARK.json");
            let bench = read_json(bench.to_str().ok_or("non-UTF-8 path")?)?;
            Ok(!report::compare(&bench, &read_json(a)?, &read_json(b)?)?)
        }
        _ => {
            let name: String = flag(args, "--workload")?.ok_or(USAGE)?;
            let shape =
                Shape::WORKLOADS.into_iter().find(|s| s.name() == name).ok_or(format!("unknown workload {name:?}"))?;
            let trace = match flag::<u8>(args, "--trace")?.ok_or(USAGE)? {
                0 => false,
                1 => true,
                other => return Err(format!("--trace must be 0 or 1, not {other}")),
            };
            let r = h.one(shape, seed.ok_or(USAGE)?, seconds.ok_or(USAGE)?, trace);
            report::print_rows(shape.name(), &r);
            println!("{}", report::result_line(&r));
            Ok(true)
        }
    }
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    match real_main(&args) {
        Ok(true) => ExitCode::SUCCESS,
        Ok(false) => ExitCode::FAILURE,
        Err(e) => {
            eprintln!("armci-perf: {e}");
            ExitCode::from(2)
        }
    }
}
