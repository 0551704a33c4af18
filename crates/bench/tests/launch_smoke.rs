//! End-to-end launcher smoke test: `armci-launch` spawns the `reproduce`
//! binary's `net-selftest` across two real OS processes, which form a TCP
//! mesh, exchange data, and report.

use std::process::Command;

#[test]
fn armci_launch_runs_net_selftest_across_processes() {
    let out = Command::new(env!("CARGO_BIN_EXE_armci-launch"))
        .args(["--nodes", "2", "--ppn", "2", "--"])
        .arg(env!("CARGO_BIN_EXE_reproduce"))
        .arg("net-selftest")
        .output()
        .expect("run armci-launch");
    let stdout = String::from_utf8_lossy(&out.stdout);
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert!(out.status.success(), "launch failed: {out:?}\nstdout: {stdout}\nstderr: {stderr}");
    assert!(stdout.contains("net-selftest ok"), "missing selftest marker\nstdout: {stdout}\nstderr: {stderr}");
}

#[test]
fn armci_launch_rejects_bad_usage() {
    let out = Command::new(env!("CARGO_BIN_EXE_armci-launch"))
        .args(["--nodes", "2"]) // no `-- program`
        .output()
        .expect("run armci-launch");
    assert_eq!(out.status.code(), Some(2));
}

/// Run `reproduce` with `args`, returning its exit code, stdout and stderr.
fn reproduce(args: &[&str]) -> (Option<i32>, String, String) {
    let out = Command::new(env!("CARGO_BIN_EXE_reproduce")).args(args).output().expect("run reproduce");
    (out.status.code(), String::from_utf8_lossy(&out.stdout).into(), String::from_utf8_lossy(&out.stderr).into())
}

#[test]
fn reproduce_rejects_flags_an_experiment_cannot_honour() {
    // Only experiments with a spawned-process run take `--net`/`--nodes`;
    // everywhere else they would be silently ignored.
    for args in [&["fig8", "--net", "--nodes", "3"][..], &["all", "--net"], &["fig7", "--nodes", "3"]] {
        let (code, stdout, stderr) = reproduce(args);
        assert_eq!(code, Some(2), "{args:?}\nstdout: {stdout}\nstderr: {stderr}");
        assert!(stdout.is_empty(), "{args:?} printed tables: {stdout}");
        assert!(stderr.contains("usage: reproduce"), "{args:?} printed no usage line: {stderr}");
    }
}

#[test]
fn malformed_node_routes_exit_2_without_a_panic() {
    let cases: [(&[&str], &str); 5] = [
        (&["__node", "nosuch", "5", "0", "false"], "unknown scenario"),
        (&["__node", "ga_sync", "x", "0", "false"], "malformed scenario parameters"),
        (&["__node", "ga_sync", "5", "0", "false", "extra"], "malformed scenario parameters"),
        (&["__node", "ga_sync", "5", "0", "false"], "route of a spawned node process"),
        (&["__node"], "takes <scenario>"),
    ];
    for (args, why) in cases {
        let (code, _, stderr) = reproduce(args);
        assert_eq!(code, Some(2), "{args:?}\nstderr: {stderr}");
        assert!(stderr.contains(why) && !stderr.contains("panicked"), "{args:?}\nstderr: {stderr}");
    }
}

#[test]
fn fig7_net_children_take_the_node_route() {
    // Every child must reach the scenario's call site and print nothing:
    // a child routed to anything that prints would repeat these lines.
    let (code, stdout, stderr) = reproduce(&["fig7", "--net", "--quick", "--nodes", "2"]);
    assert_eq!(code, Some(0), "stdout: {stdout}\nstderr: {stderr}");
    assert_eq!(stdout.matches("Figure 7 over netfab").count(), 1, "{stdout}");
    assert_eq!(stdout.matches("Fig 7 — netfab plane").count(), 1, "{stdout}");
    assert_eq!(stdout.matches("winner over TCP:").count(), 1, "{stdout}");
}

/// The numeric cells of the table titled `title` in `stdout`, by row.
fn table(stdout: &str, title: &str) -> Vec<Vec<f64>> {
    let start = stdout.find(&format!("== {title} ==")).unwrap_or_else(|| panic!("no table {title:?} in {stdout}"));
    stdout[start..]
        .lines()
        .skip(3) // title, header, rule
        .take_while(|l| !l.trim().is_empty())
        .map(|l| l.split_whitespace().filter_map(|c| c.trim_end_matches('x').parse().ok()).collect())
        .collect()
}

#[test]
fn figures_8_to_10_are_views_of_one_lock_sweep() {
    let (code, stdout, stderr) = reproduce(&["all", "--quick"]);
    assert_eq!(code, Some(0), "stderr: {stderr}");
    let cycle = table(&stdout, "Fig 8 — wall-clock plane (us)");
    let acquire = table(&stdout, "Fig 9 — wall-clock plane (us)");
    let release = table(&stdout, "Fig 10 — wall-clock plane (us)");
    assert_eq!(cycle.len(), 5, "{stdout}");
    for ((c, a), r) in cycle.iter().zip(&acquire).zip(&release) {
        assert_eq!((c[0], a[0]), (r[0], r[0]), "rows out of step");
        for algo in 1..=2 {
            // Each cell is rounded to 0.1 us on its own.
            let sum = a[algo] + r[algo];
            assert!((c[algo] - sum).abs() <= 0.1 + 1e-9, "n={}: Fig 8 {} vs Fig 9 + Fig 10 {sum}", c[0], c[algo]);
        }
    }
}
