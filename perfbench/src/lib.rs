//! # perfbench — the repository benchmark
//!
//! Four workloads (`fits`, `overflow`, `serve`, `overload`), each measured
//! by a virtual leg (exact simulated-time metrics on two simulated cores), a
//! host leg (wall-clock throughput on one worker thread) and a traced run
//! (per-layer metrics from outside-in spans). `run.py` builds this crate,
//! runs the legs as separate time-limited processes and prints the result;
//! see `README.md` beside it.

#![deny(missing_docs)]

pub mod report;
pub mod trace;
pub mod workload;
