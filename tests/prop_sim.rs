//! Property-based end-to-end simulation tests: for arbitrary seeded
//! workloads, MPLs, and latency models, every sound policy's trace is
//! legal, proper, and serializable, and the engine's accounting is
//! consistent. Every adapter is constructed through the policy registry.

use proptest::prelude::*;
use safe_locking::core::{is_serializable, EntityId};
use safe_locking::policies::{PolicyConfig, PolicyKind, PolicyRegistry};
use safe_locking::sim::{
    build_adapter, dag_access_jobs, layered_dag, run_sim, uniform_jobs, EngineAdapter,
    LatencyModel, SimConfig,
};

fn arb_config() -> impl Strategy<Value = SimConfig> {
    (1usize..6, 1u64..4, 1u64..8).prop_map(|(workers, lock, data)| SimConfig {
        workers,
        latency: LatencyModel {
            lock,
            unlock: lock,
            data,
            restart_backoff: 10,
        },
        max_ticks: 1_000_000,
    })
}

fn flat(kind: PolicyKind, pool: &[EntityId]) -> EngineAdapter {
    build_adapter(
        &PolicyRegistry::new(),
        kind,
        &PolicyConfig::flat(pool.to_vec()),
    )
    .expect("flat kind")
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    #[test]
    fn two_phase_and_altruistic_always_serializable(
        seed in 0u64..10_000,
        config in arb_config(),
        pool_size in 4u32..12,
        per_job in 1usize..4,
    ) {
        let pool: Vec<EntityId> = (0..pool_size).map(EntityId).collect();
        let jobs = uniform_jobs(&pool, 12, per_job, seed);

        let mut a = flat(PolicyKind::TwoPhase, &pool);
        let initial = a.initial_state();
        let report = run_sim(&mut a, &jobs, &config);
        prop_assert!(!report.timed_out);
        prop_assert_eq!(report.committed, 12);
        prop_assert!(report.schedule.is_legal());
        prop_assert!(report.schedule.is_proper(&initial));
        prop_assert!(is_serializable(&report.schedule));
        prop_assert_eq!(
            report.attempts,
            report.committed + report.policy_aborts + report.deadlock_aborts + report.rejected
        );
        prop_assert_eq!(report.rejected, 0, "well-formed jobs are never rejected");

        let mut a = flat(PolicyKind::Altruistic, &pool);
        let initial = a.initial_state();
        let report = run_sim(&mut a, &jobs, &config);
        prop_assert!(!report.timed_out);
        prop_assert_eq!(report.committed, 12);
        prop_assert!(report.schedule.is_legal());
        prop_assert!(report.schedule.is_proper(&initial));
        prop_assert!(is_serializable(&report.schedule));
    }

    #[test]
    fn dtr_always_serializable_and_deadlock_free(
        seed in 0u64..10_000,
        config in arb_config(),
        pool_size in 4u32..12,
    ) {
        let pool: Vec<EntityId> = (0..pool_size).map(EntityId).collect();
        let jobs = uniform_jobs(&pool, 12, 3, seed);
        let mut a = flat(PolicyKind::Dtr, &pool);
        let initial = a.initial_state();
        let report = run_sim(&mut a, &jobs, &config);
        prop_assert!(!report.timed_out);
        prop_assert_eq!(report.committed, 12);
        prop_assert_eq!(report.deadlock_aborts, 0, "tree locking is deadlock-free");
        prop_assert!(report.schedule.is_legal());
        prop_assert!(report.schedule.is_proper(&initial));
        prop_assert!(is_serializable(&report.schedule));
    }

    #[test]
    fn ddag_always_serializable(
        seed in 0u64..10_000,
        config in arb_config(),
        layers in 2usize..5,
        width in 2usize..4,
    ) {
        let dag = layered_dag(layers, width, 2, seed);
        let jobs = dag_access_jobs(&dag, 12, 2, seed);
        let mut a = build_adapter(
            &PolicyRegistry::new(),
            PolicyKind::Ddag,
            &PolicyConfig::dag(dag.universe.clone(), dag.graph.clone()),
        )
        .expect("DAG provided");
        let initial = a.initial_state();
        let report = run_sim(&mut a, &jobs, &config);
        prop_assert!(!report.timed_out);
        prop_assert_eq!(report.committed, 12);
        prop_assert!(report.schedule.is_legal());
        prop_assert!(report.schedule.is_proper(&initial));
        prop_assert!(is_serializable(&report.schedule));
    }

    #[test]
    fn simulation_is_deterministic(
        seed in 0u64..10_000,
        workers in 1usize..5,
    ) {
        let pool: Vec<EntityId> = (0..8).map(EntityId).collect();
        let jobs = uniform_jobs(&pool, 10, 3, seed);
        let config = SimConfig { workers, ..Default::default() };
        let run = |jobs: &[safe_locking::policies::Job]| {
            let mut a = flat(PolicyKind::TwoPhase, &pool);
            run_sim(&mut a, jobs, &config)
        };
        let r1 = run(&jobs);
        let r2 = run(&jobs);
        prop_assert_eq!(r1.schedule, r2.schedule);
        prop_assert_eq!(r1.makespan, r2.makespan);
        prop_assert_eq!(r1.committed, r2.committed);
        prop_assert_eq!(r1.lock_waits, r2.lock_waits);
    }
}
