//! Output: the human-readable rows, the one-line result the driver
//! reads, `out/result.json`, `out/trace_<workload>.json`, and `compare`.

use std::path::Path;

use crate::bench::{Better, RunResult, TraceDump, E2E};
use crate::json::Json;
use crate::span::NO_PARENT;
use crate::stats::{median_of, quartile_spread};

/// Print one `name value unit` row per metric (context after a `#`).
pub fn print_rows(workload: &str, r: &RunResult) {
    for v in &r.metrics {
        let note = if v.note.is_empty() { String::new() } else { format!("  # {}", v.note) };
        println!("{workload} {} {} {}{note}", v.name, v.value, v.unit);
    }
    println!("{workload} attempted {} count", r.attempted);
    println!("{workload} failed {} count", r.failed);
}

/// The object the driver reads from the last line of stdout.
pub fn result_line(r: &RunResult) -> String {
    let metrics = r
        .metrics
        .iter()
        .map(|v| (v.name.clone(), Json::obj([("value", Json::Num(v.value)), ("unit", Json::str(v.unit))])));
    Json::obj([
        ("correct", Json::Bool(r.failed == 0)),
        ("attempted", Json::Num(r.attempted.max(1) as f64)),
        ("failed", Json::Num(r.failed as f64)),
        ("metrics", Json::obj(metrics)),
    ])
    .render()
}

/// Where and on what the numbers were taken, for `result.json`.
pub fn env_json(pinned: Option<usize>) -> Json {
    let read = |p: &str| std::fs::read_to_string(p).map(|s| s.trim().to_string()).unwrap_or_default();
    let cmd = |prog: &str, args: &[&str]| {
        std::process::Command::new(prog)
            .args(args)
            .output()
            .ok()
            .filter(|o| o.status.success())
            .map(|o| String::from_utf8_lossy(&o.stdout).trim().to_string())
            .unwrap_or_default()
    };
    Json::obj([
        // Read from sysfs: after pinning, `available_parallelism` says 1.
        ("cpus_online", Json::str(read("/sys/devices/system/cpu/online"))),
        ("pinned_cpu", pinned.map_or(Json::Null, |c| Json::Num(c as f64))),
        ("kernel", Json::str(read("/proc/sys/kernel/osrelease"))),
        ("rustc", Json::str(cmd("rustc", &["--version"]))),
        // Empty when the checkout is not a git repository (the driver's).
        ("git_commit", Json::str(cmd("git", &["-C", env!("CARGO_MANIFEST_DIR"), "rev-parse", "HEAD"]))),
    ])
}

/// `result.json`: per workload, per metric, the values of every repeat.
pub fn result_json(env: Json, seeds: &[u64], runs: &[(String, Vec<RunResult>)]) -> Json {
    let workloads = runs.iter().map(|(name, reps)| {
        let first = &reps[0];
        let metrics = first.metrics.iter().enumerate().map(|(i, v)| {
            let values = reps.iter().map(|r| Json::Num(r.metrics[i].value)).collect();
            (v.name.clone(), Json::obj([("unit", Json::str(v.unit)), ("values", Json::Arr(values))]))
        });
        let total = |f: fn(&RunResult) -> u64| Json::Num(reps.iter().map(f).sum::<u64>() as f64);
        (
            name.clone(),
            Json::obj([
                ("attempted", total(|r| r.attempted)),
                ("failed", total(|r| r.failed)),
                ("metrics", Json::obj(metrics)),
            ]),
        )
    });
    Json::obj([
        ("env", env),
        ("seeds", Json::Arr(seeds.iter().map(|s| Json::str(s.to_string())).collect())),
        ("workloads", Json::obj(workloads)),
    ])
}

/// Ops kept per phase in the trace file (all spans feed the metrics; the
/// file is a readable sample, not a 50 MB dump).
const TRACE_OPS_PER_PHASE: usize = 300;

/// `trace_<workload>.json`: the first ops of each phase, each with its
/// child spans, as `[name, start_ns, end_ns, parent_index, op_id]` rows.
pub fn trace_json(workload: &str, dump: &TraceDump) -> Json {
    let mut kept_of: Vec<(&str, usize)> = Vec::new();
    let mut new_index = vec![NO_PARENT; dump.spans.len()];
    let mut rows = Vec::new();
    for (i, s) in dump.spans.iter().enumerate() {
        let keep = if s.parent == NO_PARENT {
            let slot = match kept_of.iter_mut().find(|(n, _)| *n == s.name) {
                Some(slot) => slot,
                None => {
                    kept_of.push((s.name, 0));
                    kept_of.last_mut().expect("just pushed")
                }
            };
            slot.1 += 1;
            slot.1 <= TRACE_OPS_PER_PHASE
        } else {
            new_index[s.parent as usize] != NO_PARENT
        };
        if keep {
            new_index[i] = rows.len() as u32;
            let parent =
                if s.parent == NO_PARENT { Json::Null } else { Json::Num(f64::from(new_index[s.parent as usize])) };
            rows.push(Json::Arr(vec![
                Json::str(s.name),
                Json::Num(s.start as f64),
                Json::Num(s.end as f64),
                parent,
                Json::Num(s.op as f64),
            ]));
        }
    }
    Json::obj([
        ("workload", Json::str(workload)),
        ("columns", Json::Arr(["name", "start_ns", "end_ns", "parent", "op"].into_iter().map(Json::str).collect())),
        ("spans_recorded", Json::Num(dump.spans.len() as f64)),
        ("spans_dropped", Json::Num(dump.dropped as f64)),
        ("spans", Json::Arr(rows)),
    ])
}

/// Write `json` to `path` (creating the directory).
pub fn write_json(path: &Path, json: &Json) {
    if let Some(dir) = path.parent() {
        std::fs::create_dir_all(dir).expect("create out dir");
    }
    std::fs::write(path, json.render() + "\n").unwrap_or_else(|e| panic!("write {}: {e}", path.display()));
}

/// Verdict of one `(metric, workload)` comparison.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum Verdict {
    /// Within the bound.
    Ok,
    /// Worse than the bound allows.
    Worse,
    /// Run-to-run spread wider than the bound: cannot tell.
    Unresolved,
}

/// Judge median `b` against median `a`: worse by more than `bound` (as a
/// share of `a`) is a regression; a spread wider than the bound on
/// either side makes the pair unresolved rather than unchanged.
pub fn judge(a: &[f64], b: &[f64], better: Better, bound: f64) -> (f64, f64, Verdict) {
    let (ma, mb) = (median_of(a), median_of(b));
    let worse_by = match better {
        Better::Lower => (mb - ma) / ma,
        Better::Higher => (ma - mb) / ma,
    };
    let spread = quartile_spread(a).into_iter().chain(quartile_spread(b)).fold(0.0, f64::max);
    let verdict = if worse_by > bound {
        Verdict::Worse
    } else if spread > bound {
        Verdict::Unresolved
    } else {
        Verdict::Ok
    };
    (ma, mb, verdict)
}

/// `compare a.json b.json`: one row per (metric, workload) with both
/// medians, the ratio with its base, and the verdict under the bounds in
/// `benchmark` (the parsed `BENCHMARK.json`). Returns whether any pair
/// is worse.
pub fn compare(benchmark: &Json, a: &Json, b: &Json) -> Result<bool, String> {
    let bounds = benchmark.get("end_to_end").and_then(Json::as_arr).ok_or("BENCHMARK.json: no end_to_end list")?;
    let workloads = a.get("workloads").and_then(Json::as_obj).ok_or("first file: no workloads")?;
    let values = |doc: &Json, w: &str, m: &str| -> Option<Vec<f64>> {
        let arr = doc.get("workloads")?.get(w)?.get("metrics")?.get(m)?.get("values")?.as_arr()?;
        arr.iter().map(Json::as_f64).collect()
    };
    let mut any_worse = false;
    println!("{:<10} {:<26} {:>14} {:>14} {:>8}  verdict", "workload", "metric", "median a", "median b", "b/a");
    for (w, _) in workloads {
        for e in &E2E {
            let bound = bounds
                .iter()
                .find(|m| m.get("name").and_then(Json::as_str) == Some(e.name))
                .and_then(|m| m.get("bound"))
                .and_then(Json::as_f64)
                .ok_or_else(|| format!("BENCHMARK.json: no bound for {}", e.name))?;
            let (Some(va), Some(vb)) = (values(a, w, e.name), values(b, w, e.name)) else {
                return Err(format!("{w}/{}: missing from one of the files", e.name));
            };
            let (ma, mb, verdict) = judge(&va, &vb, e.better, bound);
            any_worse |= verdict == Verdict::Worse;
            let word = match verdict {
                Verdict::Ok => "ok",
                Verdict::Worse => "worse",
                Verdict::Unresolved => "unresolved",
            };
            println!(
                "{w:<10} {:<26} {ma:>14.4} {mb:>14.4} {:>8.3}  {word} (bound {bound}, base {ma:.4} {})",
                e.name,
                mb / ma,
                e.unit
            );
        }
        let failed = |doc: &Json| {
            doc.get("workloads").and_then(|d| d.get(w)).and_then(|d| d.get("failed")).and_then(Json::as_f64)
        };
        if let (Some(fa), Some(fb)) = (failed(a), failed(b)) {
            // Failures may not rise at all.
            let worse = fb > fa;
            any_worse |= worse;
            println!("{w:<10} {:<26} {fa:>14} {fb:>14} {:>8}  {}", "failed", "-", if worse { "worse" } else { "ok" });
        }
    }
    Ok(any_worse)
}
