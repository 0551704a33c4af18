//! # armci-perf — the latency ledger
//!
//! One benchmark for the whole stack: pinned workloads, end-to-end
//! operation latencies measured with tracing off, and a separate traced
//! run that walks the same operations down a ladder of layers (engine,
//! codec, emulator hop, netfab loopback, spawned wire, shm plane, GA).
//! `BENCHMARK.json` at the repository root names the command, workloads,
//! metrics and bounds; `README.md` beside this crate says why.

pub mod alloc;
pub mod bench;
pub mod cluster;
pub mod cpu;
pub mod inputs;
pub mod json;
pub mod ladder;
pub mod phases;
pub mod pin;
pub mod report;
pub mod rng;
pub mod span;
pub mod spec;
pub mod stats;
