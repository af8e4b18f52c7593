//! # slp-sim — concurrency-control simulator for locking-policy evaluation
//!
//! The paper's companion performance study \[CHMS94\] evaluated the DDAG
//! policy on a knowledge-base management system testbed. This crate is the
//! substitution (DESIGN.md §5): a deterministic discrete-event simulator
//! that runs synthetic workloads against the *actual policy engines* of
//! `slp-policies`, with lock waiting, deadlock detection, abort/restart,
//! and full trace capture for post-hoc verification (legality, properness,
//! serializability).
//!
//! * [`adapters`] — [`EngineAdapter`]: one [`slp_policies::PolicyEngine`]
//!   with the policy's planner, and [`build_adapter`] for registry-driven
//!   construction by [`slp_policies::PolicyKind`];
//! * [`engine`] — the simulation loop and [`SimReport`] metrics;
//! * [`workload`] — seeded generators (layered DAGs, uniform/long-short
//!   jobs, traversal/insert mixes, hot-set contention).
//!
//! Jobs and the planners that turn them into lock plans live with the
//! engines, in [`slp_policies::plan`]; [`Job`] and [`InsertUnder`] are
//! re-exported here because the generators return them. No source file of
//! the threaded runtime (`slp-runtime`) uses this crate; its tests use the
//! generators. The simulator's own users are E7 and E9 of the paper
//! experiments, four examples
//! (`dynamic_forest`, `knowledge_base_traversal`, `long_lived_transactions`,
//! `policy_catalog`) and `bench-report`'s `policies.sim_jobs_per_s` and
//! `sim.steps_per_job` rows.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod adapters;
pub mod engine;
pub mod workload;

pub use adapters::{build_adapter, EngineAdapter};
pub use engine::{run_sim, LatencyModel, SimConfig, SimReport};
pub use slp_policies::{InsertUnder, Job};
pub use workload::{
    dag_access_jobs, dag_mixed_jobs, deep_dag_jobs, hot_cold_jobs, layered_dag, long_short_jobs,
    read_heavy_jobs, uniform_jobs, LayeredDag,
};
