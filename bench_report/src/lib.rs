//! # bench-report — the repo's benchmark
//!
//! Seven named workloads over the safe-locking runtime and verifier, three
//! end-to-end metrics a user of the system sees, and per-layer metrics
//! attributed from outside (counters the reports carry, spans around the
//! public calls). `BENCHMARK.json` at the repo root names the command;
//! `README.md` in this package is the metric dictionary.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod harness;
