//! Each figure's timed loop is written once: outside the `scenario`
//! module, no non-test code in `armci-bench` launches a cluster or
//! averages over ranks — it calls `scenario::run`. The one exception is
//! `reproduce`'s `net_selftest`, which `armci-launch` drives through its
//! own argv.

use std::path::Path;

/// Every `*.rs` file under `dir`, recursively, as `(path, text)`.
fn rs_files(dir: &Path, out: &mut Vec<(String, String)>) {
    for entry in std::fs::read_dir(dir).expect("read source dir") {
        let path = entry.expect("dir entry").path();
        if path.is_dir() {
            rs_files(&path, out);
        } else if path.extension().is_some_and(|e| e == "rs") {
            out.push((path.display().to_string(), std::fs::read_to_string(&path).expect("read source")));
        }
    }
}

#[test]
fn timed_loops_live_in_the_scenario_table() {
    let mut files = Vec::new();
    rs_files(&Path::new(env!("CARGO_MANIFEST_DIR")).join("src"), &mut files);
    assert!(files.len() >= 8, "expected armci-bench's sources, found {}", files.len());
    for (path, text) in files.iter().filter(|(p, _)| !p.ends_with("scenario.rs")) {
        // Test modules close their files; `net_selftest` is exempt.
        let mut code = text.split("#[cfg(test)]").next().unwrap_or_default().to_string();
        if let Some(start) = code.find("fn net_selftest(") {
            let end = start + code[start..].find("\n}\n").expect("end of net_selftest");
            code.replace_range(start..end, "");
        }
        for needle in ["run_cluster(", "run_cluster_spawned(", "allreduce_sum_f64("] {
            let hits: Vec<&str> =
                code.lines().filter(|l| !l.trim_start().starts_with("//") && l.contains(needle)).collect();
            assert!(hits.is_empty(), "{path} calls {needle} outside the scenario module: {hits:#?}");
        }
    }
}
