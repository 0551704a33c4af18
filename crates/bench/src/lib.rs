#![warn(missing_docs)]
//! # armci-bench — the reproduction harness
//!
//! One module per experiment in the paper's evaluation (§4), each able to
//! run on two measurement planes:
//!
//! * **wall-clock** — the real library on the threaded cluster emulation
//!   with injected network latency (noisy on small hosts, but it is the
//!   actual code paths end to end);
//! * **model** — the deterministic discrete-event simulator
//!   (`armci-simnet`), which reproduces the paper's latency analysis
//!   exactly and extends the sweeps beyond the host's core count.
//!
//! The `reproduce` binary prints every figure of the paper as a table,
//! paper-shape expectations alongside. Per-operation latencies are
//! measured by `perf/` (the benchmark `BENCHMARK.json` declares), not here.

pub mod fig7;
pub mod fig8_10;
pub mod model_runs;
pub mod profile;
pub mod table;
pub mod workloads;

/// Default emulated one-way network latency for wall-clock runs (ns).
/// Chosen well above OS timer granularity so sleep-based delivery stamps
/// dominate scheduler noise; only ratios between algorithms matter.
pub const WALLCLOCK_LATENCY_NS: u64 = 200_000;

/// Process counts used for the paper-range sweeps (the paper's cluster
/// had 16 nodes).
pub const PAPER_PROCS: [usize; 4] = [2, 4, 8, 16];
