//! Policy safety on the simulator: the shared sweep's cells
//! (`common/mod.rs`) for the safe kinds — across seeds, workloads and
//! multiprogramming levels, with waits, deadlock aborts and policy
//! aborts — each trace legal, proper and serializable, one slice per
//! test. Every policy is selected by `PolicyKind` and built through the
//! `PolicyRegistry`.

mod common;

use common::{sweep, Slice};

#[test]
fn two_phase_traces_serializable_across_seeds_and_mpls() {
    sweep(Slice::TwoPhase);
}

#[test]
fn altruistic_traces_serializable_with_wake_churn() {
    sweep(Slice::Altruistic);
}

/// The graph must stay a rooted DAG after all the churn: `run_row`
/// checks it after every DDAG run.
#[test]
fn ddag_traces_serializable_under_structural_churn() {
    sweep(Slice::DdagChurn);
}

/// Without structural changes plans are never invalidated, and the
/// topological lock order cannot deadlock.
#[test]
fn ddag_pure_traversals_have_no_policy_aborts() {
    sweep(Slice::DdagTraversals);
}

/// Tree locking is deadlock-free: lock orders follow tree paths.
#[test]
fn dtr_traces_serializable_and_deadlock_free() {
    sweep(Slice::Dtr);
}

#[test]
fn single_worker_runs_are_serial_and_waitless() {
    sweep(Slice::SingleWorker);
}

/// Opposite-order jobs at high contention: under 2PL deadlocks must
/// occur and be resolved, every job still commits, and the trace stays
/// serializable.
#[test]
fn deadlocks_are_detected_and_resolved_under_2pl() {
    sweep(Slice::Deadlocks);
}
