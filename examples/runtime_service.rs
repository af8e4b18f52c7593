//! The concurrent transaction runtime: worker threads, one shared policy
//! engine, and a trace you can re-verify against the formal model.
//!
//! Runs the same hot-contention workload through 2PL and through the DDAG
//! policy (deep dominator traversals for the latter), prints the runtime
//! report — throughput, latency percentiles, abort accounting — and then
//! does what the paper says you may do with any execution of a safe
//! policy: replay the captured schedule and check it is legal, proper,
//! and serializable.
//!
//! Run with: `cargo run --example runtime_service`

use safe_locking::core::{is_serializable, EntityId};
use safe_locking::policies::{PolicyConfig, PolicyKind};
use safe_locking::runtime::{Runtime, RuntimeConfig, RuntimeReport};
use safe_locking::sim::{deep_dag_jobs, hot_cold_jobs, layered_dag};

fn describe(report: &RuntimeReport) -> bool {
    println!(
        "  {:<12} {} workers: {} committed, {} policy aborts, {} deadlock aborts, \
         {} lock waits",
        report.policy,
        report.workers,
        report.committed,
        report.policy_aborts,
        report.deadlock_aborts,
        report.lock_waits
    );
    println!(
        "  {:<12} throughput {:.0} jobs/s; latency p50 {} µs, p95 {} µs, p99 {} µs",
        "", // align under the policy name
        report.throughput(),
        report.latency.p50_us,
        report.latency.p95_us,
        report.latency.p99_us
    );
    let ok = report.schedule.is_legal()
        && report.schedule.is_proper(&report.initial)
        && is_serializable(&report.schedule);
    println!(
        "  {:<12} trace: {} steps, replay verdict: {}",
        "",
        report.schedule.len(),
        if ok {
            "legal + proper + SERIALIZABLE"
        } else {
            "VIOLATION (file a bug!)"
        }
    );
    ok
}

// Exits nonzero when any trace fails certification, so the example
// doubles as a smoke check in CI.
fn main() {
    let mut all_certified = true;
    println!("== slp-runtime: concurrent transactions over the policy API ==\n");

    // 2PL over a hot/cold contention mix: 120 jobs, 3 targets each, 80%
    // of draws landing on a 4-entity hot set.
    let pool: Vec<EntityId> = (0..32).map(EntityId).collect();
    let jobs = hot_cold_jobs(&pool, 120, 3, 4, 0.8, 42);
    println!("hot/cold contention, {} jobs:", jobs.len());
    for workers in [1usize, 4] {
        let mut rt = Runtime::new(PolicyKind::TwoPhase, &PolicyConfig::flat(pool.clone()))
            .expect("2PL builds");
        let report = rt.run(&jobs, &RuntimeConfig::with_workers(workers));
        all_certified &= describe(&report);
    }

    // The DDAG policy over deep dominator traversals: every job targets
    // the deepest layer, so planned regions overlap heavily and workers
    // park/wake on the shared upper chains.
    let dag = layered_dag(5, 4, 2, 42);
    let dag_jobs = deep_dag_jobs(&dag, 40, 2, 42);
    println!("\ndeep dominator traversals, {} jobs:", dag_jobs.len());
    let config = PolicyConfig::dag(dag.universe.clone(), dag.graph.clone());
    let mut rt = Runtime::new(PolicyKind::Ddag, &config).expect("DDAG builds");
    let report = rt.run(&dag_jobs, &RuntimeConfig::with_workers(4));
    all_certified &= describe(&report);

    if !all_certified {
        eprintln!("\nFAILED: a safe policy emitted a trace that did not certify.");
        std::process::exit(1);
    }
    println!("\nEvery trace above was re-verified offline — the runtime is the");
    println!("paper's theorems exercised under real threads.");
}
