//! Cross-crate policy-safety integration: every trace the simulator
//! produces under a sound policy — across seeds, workloads,
//! multiprogramming levels, with waits, deadlock aborts, and policy
//! aborts — must be legal, proper, and serializable. All policies are
//! selected by [`PolicyKind`] and built through the [`PolicyRegistry`].

use safe_locking::core::{is_serializable, EntityId};
use safe_locking::policies::{PolicyConfig, PolicyKind, PolicyRegistry};
use safe_locking::sim::{
    build_adapter, dag_access_jobs, dag_mixed_jobs, layered_dag, long_short_jobs, run_sim,
    uniform_jobs, EngineAdapter, SimConfig,
};

fn flat(kind: PolicyKind, pool: &[EntityId]) -> EngineAdapter {
    build_adapter(
        &PolicyRegistry::new(),
        kind,
        &PolicyConfig::flat(pool.to_vec()),
    )
    .expect("flat kind")
}

fn assert_trace_ok(
    report: &safe_locking::sim::SimReport,
    initial: &safe_locking::core::StructuralState,
) {
    assert!(!report.timed_out, "{} timed out", report.policy);
    assert!(
        report.schedule.is_legal(),
        "{}: illegal trace",
        report.policy
    );
    assert!(
        report.schedule.is_proper(initial),
        "{}: improper trace",
        report.policy
    );
    assert!(
        is_serializable(&report.schedule),
        "{}: NONSERIALIZABLE trace — safety theorem violated!",
        report.policy
    );
}

#[test]
fn two_phase_traces_serializable_across_seeds_and_mpls() {
    for seed in 0..6 {
        for workers in [1, 3, 8] {
            let pool: Vec<EntityId> = (0..10).map(EntityId).collect();
            let jobs = uniform_jobs(&pool, 25, 4, seed);
            let mut a = flat(PolicyKind::TwoPhase, &pool);
            let initial = a.initial_state();
            let report = run_sim(
                &mut a,
                &jobs,
                &SimConfig {
                    workers,
                    ..Default::default()
                },
            );
            assert_eq!(report.committed, 25);
            assert_trace_ok(&report, &initial);
        }
    }
}

#[test]
fn altruistic_traces_serializable_with_wake_churn() {
    for seed in 0..6 {
        let pool: Vec<EntityId> = (0..20).map(EntityId).collect();
        // A long scan plus short transactions guarantees wake activity and
        // AL2 aborts (restarts are part of the trace).
        let jobs = long_short_jobs(&pool, 14, 20, 2, seed);
        let mut a = flat(PolicyKind::Altruistic, &pool);
        let initial = a.initial_state();
        let report = run_sim(
            &mut a,
            &jobs,
            &SimConfig {
                workers: 6,
                ..Default::default()
            },
        );
        assert_eq!(report.committed, 21);
        assert_trace_ok(&report, &initial);
    }
}

#[test]
fn ddag_traces_serializable_under_structural_churn() {
    for seed in 0..6 {
        let dag = layered_dag(4, 4, 2, seed);
        let mut a = build_adapter(
            &PolicyRegistry::new(),
            PolicyKind::Ddag,
            &PolicyConfig::dag(dag.universe.clone(), dag.graph.clone()),
        )
        .expect("DAG provided");
        let jobs = {
            let mut intern = |name: &str| a.intern(name).expect("DDAG interns");
            dag_mixed_jobs(&dag, 25, 2, 0.3, &mut intern, seed + 100)
        };
        let initial = a.initial_state();
        let report = run_sim(
            &mut a,
            &jobs,
            &SimConfig {
                workers: 5,
                ..Default::default()
            },
        );
        assert_eq!(report.committed, 25);
        assert_trace_ok(&report, &initial);
        // The graph must remain a rooted DAG after all the churn.
        assert!(safe_locking::graph::dag::is_acyclic(
            a.engine().graph().expect("DDAG has a graph")
        ));
    }
}

#[test]
fn ddag_pure_traversals_have_no_policy_aborts() {
    // Without structural changes, plans never get invalidated.
    for seed in 0..4 {
        let dag = layered_dag(4, 4, 2, seed);
        let jobs = dag_access_jobs(&dag, 25, 2, seed);
        let mut a = build_adapter(
            &PolicyRegistry::new(),
            PolicyKind::Ddag,
            &PolicyConfig::dag(dag.universe.clone(), dag.graph.clone()),
        )
        .expect("DAG provided");
        let initial = a.initial_state();
        let report = run_sim(
            &mut a,
            &jobs,
            &SimConfig {
                workers: 5,
                ..Default::default()
            },
        );
        assert_eq!(report.policy_aborts, 0, "static graph -> stable plans");
        assert_eq!(
            report.deadlock_aborts, 0,
            "topological lock order -> no deadlock"
        );
        assert_trace_ok(&report, &initial);
    }
}

#[test]
fn dtr_traces_serializable_and_deadlock_free() {
    for seed in 0..6 {
        let pool: Vec<EntityId> = (0..14).map(EntityId).collect();
        let jobs = uniform_jobs(&pool, 25, 3, seed);
        let mut a = flat(PolicyKind::Dtr, &pool);
        let initial = a.initial_state();
        let report = run_sim(
            &mut a,
            &jobs,
            &SimConfig {
                workers: 5,
                ..Default::default()
            },
        );
        assert_eq!(report.committed, 25);
        // Tree locking is deadlock-free: lock orders follow tree paths.
        assert_eq!(report.deadlock_aborts, 0, "tree locking cannot deadlock");
        assert_trace_ok(&report, &initial);
    }
}

#[test]
fn single_worker_runs_are_serial_and_waitless() {
    for seed in 0..3 {
        let pool: Vec<EntityId> = (0..8).map(EntityId).collect();
        let jobs = uniform_jobs(&pool, 10, 3, seed);
        for kind in [
            PolicyKind::TwoPhase,
            PolicyKind::Altruistic,
            PolicyKind::Dtr,
        ] {
            let config = SimConfig {
                workers: 1,
                ..Default::default()
            };
            let mut a = flat(kind, &pool);
            let initial = a.initial_state();
            let report = run_sim(&mut a, &jobs, &config);
            assert_eq!(report.lock_waits, 0, "MPL 1 never waits");
            assert_eq!(report.deadlock_aborts, 0);
            assert_trace_ok(&report, &initial);
        }
    }
}

#[test]
fn deadlocks_are_detected_and_resolved_under_2pl() {
    // Opposite-order jobs at high contention: deadlocks must occur AND be
    // resolved; every job still commits; the trace stays serializable.
    let pool: Vec<EntityId> = (0..4).map(EntityId).collect();
    let mut jobs = Vec::new();
    for i in 0..10 {
        if i % 2 == 0 {
            jobs.push(safe_locking::policies::Job::access(vec![
                pool[0], pool[1], pool[2],
            ]));
        } else {
            jobs.push(safe_locking::policies::Job::access(vec![
                pool[2], pool[1], pool[0],
            ]));
        }
    }
    let mut a = flat(PolicyKind::TwoPhase, &pool);
    let initial = a.initial_state();
    let report = run_sim(
        &mut a,
        &jobs,
        &SimConfig {
            workers: 4,
            ..Default::default()
        },
    );
    assert_eq!(report.committed, 10);
    assert!(
        report.deadlock_aborts > 0,
        "opposite lock orders must deadlock"
    );
    assert_trace_ok(&report, &initial);
}

#[test]
fn policy_generators_from_policies_crate_are_safe_under_verifier() {
    // Lock random transactions with the 2PL generators and verify the
    // systems with the exhaustive verifier: always safe.
    use safe_locking::core::Step;
    use safe_locking::core::{SystemBuilder, Transaction, TxId};
    use safe_locking::policies::two_phase;
    use safe_locking::verifier::{verify_safety, SearchBudget};

    for seed in 0..5u32 {
        let mut b = SystemBuilder::new();
        for i in 0..4 {
            b.exists(&format!("x{i}"));
        }
        let mk = |id: u32, order: &[u32]| {
            Transaction::new(
                TxId(id),
                order
                    .iter()
                    .flat_map(|&i| [Step::read(EntityId(i)), Step::write(EntityId(i))])
                    .collect(),
            )
        };
        let t1 = mk(1, &[seed % 4, (seed + 1) % 4]);
        let t2 = mk(2, &[(seed + 2) % 4, (seed + 3) % 4]);
        b.add_transaction(two_phase::lock_strict(&t1));
        b.add_transaction(two_phase::lock_conservative(&t2));
        let system = b.build();
        let verdict = verify_safety(&system, SearchBudget::default());
        assert!(
            verdict.is_safe(),
            "2PL-locked system must verify safe (seed {seed})"
        );
    }
}
