//! The policy catalog: every registered locking policy on one workload.
//!
//! One loop, zero hand-wiring: each [`PolicyKind`] the registry exposes —
//! the four safe policies of the paper *and* the mutant negative controls
//! — is built through the [`PolicyRegistry`], run on a shared hot-set
//! contention workload, and its trace verified post-hoc. Safe policies
//! must produce serializable traces (Theorems 2–4); the mutants
//! demonstrate why the registry tracks safety per kind.
//!
//! Also shows registry extensibility: a custom policy registered by name
//! drops into the same harness.
//!
//! Run with: `cargo run --example policy_catalog`

use safe_locking::core::{is_serializable, EntityId};
use safe_locking::policies::{
    planner_for, PolicyConfig, PolicyKind, PolicyRegistry, TwoPhaseEngine,
};
use safe_locking::sim::{
    build_adapter, hot_cold_jobs, layered_dag, run_sim, EngineAdapter, SimConfig,
};

fn main() {
    let registry = PolicyRegistry::new();
    println!("registered policies: {}\n", registry.names().join(", "));

    let pool: Vec<EntityId> = (0..32).map(EntityId).collect();
    let jobs = hot_cold_jobs(&pool, 60, 3, 4, 0.75, 13);
    let config = SimConfig {
        workers: 6,
        ..Default::default()
    };

    println!(
        "{:<20} {:>5} {:>9} {:>7} {:>8} {:>10} {:>13}",
        "policy", "safe", "committed", "waits", "aborts", "makespan", "serializable"
    );
    for &kind in registry.kinds() {
        // DAG policies get a graph config and traversal jobs over its
        // nodes instead of the flat pool (the pool ids are not graph
        // nodes) — one DAG build feeds both, so they cannot drift.
        let (policy_config, kind_jobs) = if kind.needs_graph() {
            let dag = layered_dag(4, 5, 2, 13);
            let jobs = safe_locking::sim::dag_access_jobs(&dag, 60, 2, 13);
            (PolicyConfig::dag(dag.universe, dag.graph), jobs)
        } else {
            (PolicyConfig::flat(pool.clone()), jobs.clone())
        };
        let mut adapter = build_adapter(&registry, kind, &policy_config).expect("buildable kind");
        let initial = adapter.initial_state();
        let report = run_sim(&mut adapter, &kind_jobs, &config);
        let serializable = is_serializable(&report.schedule);
        println!(
            "{:<20} {:>5} {:>9} {:>7} {:>8} {:>10} {:>13}",
            report.policy,
            kind.is_safe(),
            report.committed,
            report.lock_waits,
            report.policy_aborts + report.deadlock_aborts,
            report.makespan,
            serializable,
        );
        assert!(report.schedule.is_legal());
        assert!(report.schedule.is_proper(&initial));
        if kind.is_safe() {
            assert!(
                serializable,
                "{}: safe policies must emit serializable traces",
                kind.name()
            );
        }
        // Under the standard planners the mutants behave like their base
        // policy (the plans never exploit the ablated rule); E7 and the
        // conformance suite script the interleavings that do.
    }

    // ------------------------------------------------------------------
    // Registry extensibility: a custom policy by name.
    // ------------------------------------------------------------------
    println!("\n== custom policy via PolicyRegistry::register ==\n");
    let mut registry = PolicyRegistry::new();
    registry.register("my-lock-manager", |config| {
        Ok(Box::new(TwoPhaseEngine::new(config.pool.iter().copied())))
    });
    let engine = registry
        .build_named("my-lock-manager", &PolicyConfig::flat(pool.clone()))
        .expect("just registered");
    // Any engine drops into the generic adapter with a planner of choice.
    let mut adapter = EngineAdapter::new(engine, planner_for(PolicyKind::TwoPhase));
    let report = run_sim(&mut adapter, &jobs, &config);
    println!(
        "custom '{}' committed {} jobs, trace serializable: {}",
        report.policy,
        report.committed,
        is_serializable(&report.schedule)
    );
    assert!(is_serializable(&report.schedule));
}
