//! This process's live threads by name, for the checks that a run leaves
//! no thread behind (read from `/proc/self/task`; on other platforms
//! nothing is listed).
//!
//! A joined thread can still be listed for a moment: `JoinHandle::join`
//! returns once the kernel clears the child's tid, before the task leaves
//! `/proc/self/task`. So a check counts until a deadline, not once; a
//! thread that is never joined is still listed at the deadline, and
//! [`await_threads_gone`] reports it by name.

use std::time::{Duration, Instant};

/// How often [`await_threads_gone`] counts again.
const POLL: Duration = Duration::from_millis(10);

/// Names of this process's live threads that start with one of
/// `prefixes`. (`/proc` truncates names to 15 bytes.)
pub fn live_threads(prefixes: &[&str]) -> Vec<String> {
    let Ok(tasks) = std::fs::read_dir("/proc/self/task") else { return Vec::new() };
    tasks
        // A thread may exit between readdir and this read; skip the hole.
        .filter_map(|t| std::fs::read_to_string(t.ok()?.path().join("comm")).ok())
        .map(|name| name.trim_end().to_string())
        .filter(|name| prefixes.iter().any(|p| name.starts_with(p)))
        .collect()
}

/// Count [`live_threads`] every 10 ms until none is left, or return the
/// ones still listed once `within` has passed.
pub fn await_threads_gone(prefixes: &[&str], within: Duration) -> Result<(), Vec<String>> {
    let deadline = Instant::now() + within;
    loop {
        let left = live_threads(prefixes);
        if left.is_empty() {
            return Ok(());
        }
        if Instant::now() >= deadline {
            return Err(left);
        }
        std::thread::sleep(POLL);
    }
}
