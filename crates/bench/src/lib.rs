#![warn(missing_docs)]
//! # armci-bench — the reproduction harness
//!
//! The paper's evaluation (§4) on three measurement planes:
//!
//! * **model** — the deterministic discrete-event simulator
//!   (`armci-simnet`, [`model_runs`]), which reproduces the paper's
//!   latency analysis exactly and extends the sweeps beyond the host's
//!   core count;
//! * **wall-clock** — the real library on the threaded cluster emulation
//!   with injected network latency ([`scenario::Plane::Emu`]; noisy on
//!   small hosts, but it is the actual code paths end to end);
//! * **spawned** — the real library over real sockets, one OS process
//!   per node ([`scenario::Plane::Net`]); absolute times are the host's.
//!
//! The wall-clock and spawned planes run the same timed loops: the
//! [`scenario`] table holds each figure's loop once, and
//! [`scenario::run`] runs it on either plane.
//!
//! The `reproduce` binary prints every figure of the paper as a table,
//! paper-shape expectations alongside. Per-operation latencies are
//! measured by `perf/` (the benchmark `BENCHMARK.json` declares), not here.

pub mod model_runs;
pub mod profile;
pub mod scenario;
pub mod table;

/// Default emulated one-way network latency for wall-clock runs (ns).
/// Chosen well above OS timer granularity so sleep-based delivery stamps
/// dominate scheduler noise; only ratios between algorithms matter.
pub const WALLCLOCK_LATENCY_NS: u64 = 200_000;

/// Process counts used for the paper-range sweeps (the paper's cluster
/// had 16 nodes).
pub const PAPER_PROCS: [usize; 4] = [2, 4, 8, 16];
