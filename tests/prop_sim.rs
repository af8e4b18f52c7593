//! Property-based end-to-end simulation tests: for arbitrary seeded
//! workloads, MPLs and latency models, every safe policy's trace passes
//! the shared sim check (`common::run_row`): legal, proper,
//! serializable, and the engine's accounting consistent. The simulator
//! is also deterministic. Every adapter is built through the policy
//! registry.

mod common;

use common::{dag_config, run_row, Row};
use proptest::prelude::*;
use safe_locking::core::EntityId;
use safe_locking::policies::{PolicyConfig, PolicyKind, PolicyRegistry};
use safe_locking::sim::{
    build_adapter, dag_access_jobs, layered_dag, run_sim, uniform_jobs, LatencyModel, SimConfig,
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

/// Twelve uniform jobs of `per_job` targets over entities `0..pool_size`.
fn uniform_row(pool_size: u32, per_job: usize, seed: u64) -> Row {
    let pool: Vec<EntityId> = (0..pool_size).map(EntityId).collect();
    let jobs = uniform_jobs(&pool, 12, per_job, seed);
    Row::new("uniform", PolicyConfig::flat(pool), jobs)
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
        let row = uniform_row(pool_size, per_job, seed);
        for kind in [PolicyKind::TwoPhase, PolicyKind::Altruistic] {
            run_row(kind, &row, &config, &format!("seed {seed}"));
        }
    }

    /// `run_row` also holds every DTR run to zero deadlocks.
    #[test]
    fn dtr_always_serializable_and_deadlock_free(
        seed in 0u64..10_000,
        config in arb_config(),
        pool_size in 4u32..12,
    ) {
        let row = uniform_row(pool_size, 3, seed);
        run_row(PolicyKind::Dtr, &row, &config, &format!("seed {seed}"));
    }

    #[test]
    fn ddag_always_serializable(
        seed in 0u64..10_000,
        config in arb_config(),
        layers in 2usize..5,
        width in 2usize..4,
    ) {
        let dag = layered_dag(layers, width, 2, seed);
        let row = Row::new("traversals", dag_config(&dag), dag_access_jobs(&dag, 12, 2, seed));
        run_row(PolicyKind::Ddag, &row, &config, &format!("seed {seed}"));
    }

    #[test]
    fn simulation_is_deterministic(
        seed in 0u64..10_000,
        workers in 1usize..5,
    ) {
        let pool: Vec<EntityId> = (0..8).map(EntityId).collect();
        let jobs = uniform_jobs(&pool, 10, 3, seed);
        let config = SimConfig { workers, ..Default::default() };
        let run = || {
            let mut a = build_adapter(
                &PolicyRegistry::new(),
                PolicyKind::TwoPhase,
                &PolicyConfig::flat(pool.clone()),
            )
            .expect("flat kind");
            run_sim(&mut a, &jobs, &config)
        };
        let (r1, r2) = (run(), run());
        prop_assert_eq!(r1.schedule, r2.schedule);
        prop_assert_eq!(r1.makespan, r2.makespan);
        prop_assert_eq!(r1.committed, r2.committed);
        prop_assert_eq!(r1.lock_waits, r2.lock_waits);
    }
}
