//! Trait-conformance suite for the unified policy API: every
//! [`PolicyKind`] the registry exposes runs through shared seeded
//! workloads — including the large-contention regime — and every emitted
//! trace must be legal and proper; the safe policies' traces must also be
//! serializable (Theorems 2–4). The mutant kinds serve as negative
//! controls: scripted interleavings show each one admits a legal, proper,
//! **non**serializable execution that its safe base policy refuses at a
//! typed violation.

use safe_locking::core::{
    is_serializable, EntityId, Schedule, ScheduledStep, StructuralState, TxId, Universe,
};
use safe_locking::graph::DiGraph;
use safe_locking::policies::altruistic::AltruisticViolation;
use safe_locking::policies::ddag::DdagViolation;
use safe_locking::policies::{
    AccessIntent, Job, PolicyAction, PolicyConfig, PolicyEngine, PolicyKind, PolicyRegistry,
    PolicyResponse, PolicyViolation,
};
use safe_locking::runtime::{Runtime, RuntimeConfig};
use safe_locking::sim::{
    build_adapter, dag_access_jobs, dag_mixed_jobs, deep_dag_jobs, hot_cold_jobs, layered_dag,
    long_short_jobs, run_sim, uniform_jobs, SimConfig,
};

/// One shared workload: jobs plus the config to run them under.
struct Workload {
    name: &'static str,
    jobs: Vec<Job>,
    workers: usize,
}

/// The shared flat-pool workloads (seeded, deterministic): a uniform mix,
/// the long-scan regime, and the large-contention hot set.
fn flat_workloads(pool: &[EntityId], seed: u64) -> Vec<Workload> {
    vec![
        Workload {
            name: "uniform",
            jobs: uniform_jobs(pool, 30, 3, seed),
            workers: 4,
        },
        Workload {
            name: "long-short",
            jobs: long_short_jobs(pool, 12, 20, 2, seed),
            workers: 6,
        },
        Workload {
            name: "large-contention",
            jobs: hot_cold_jobs(pool, 80, 3, 4, 0.8, seed),
            workers: 8,
        },
    ]
}

#[test]
fn every_registered_policy_emits_legal_proper_traces() {
    let registry = PolicyRegistry::new();
    for &kind in registry.kinds() {
        for seed in [3u64, 17] {
            let (config, workloads) = if kind.needs_graph() {
                let dag = layered_dag(5, 4, 2, seed);
                let workloads = vec![
                    Workload {
                        name: "traversals",
                        jobs: dag_access_jobs(&dag, 30, 2, seed),
                        workers: 4,
                    },
                    Workload {
                        name: "large-contention",
                        jobs: deep_dag_jobs(&dag, 50, 2, seed + 1),
                        workers: 8,
                    },
                ];
                (
                    PolicyConfig::dag(dag.universe.clone(), dag.graph.clone()),
                    workloads,
                )
            } else {
                let pool: Vec<EntityId> = (0..24).map(EntityId).collect();
                (
                    PolicyConfig::flat(pool.clone()),
                    flat_workloads(&pool, seed),
                )
            };
            for w in workloads {
                let mut adapter = build_adapter(&registry, kind, &config).expect("buildable kind");
                let initial = adapter.initial_state();
                let report = run_sim(
                    &mut adapter,
                    &w.jobs,
                    &SimConfig {
                        workers: w.workers,
                        ..Default::default()
                    },
                );
                let ctx = format!("{} / {} / seed {}", kind.name(), w.name, seed);
                assert!(!report.timed_out, "{ctx}: timed out");
                assert_eq!(report.rejected, 0, "{ctx}: well-formed jobs rejected");
                assert_eq!(report.committed, w.jobs.len(), "{ctx}: lost jobs");
                assert!(report.schedule.is_legal(), "{ctx}: illegal trace");
                assert!(report.schedule.is_proper(&initial), "{ctx}: improper trace");
                if kind.is_safe() {
                    assert!(
                        is_serializable(&report.schedule),
                        "{ctx}: NONSERIALIZABLE trace from a safe policy"
                    );
                }
            }
        }
    }
}

/// Runs `jobs` through the simulator at one worker and through the
/// runtime at width one, with the word path on and off, and requires one
/// trace. `fresh` names are interned into each engine first, in order.
fn assert_width_one_traces_agree(
    kind: PolicyKind,
    config: &PolicyConfig,
    fresh: &[String],
    jobs: &[Job],
    ctx: &str,
) {
    let mut adapter = build_adapter(&PolicyRegistry::new(), kind, config).expect("buildable kind");
    for name in fresh {
        adapter.intern(name).expect("policy interns fresh names");
    }
    let sim = run_sim(
        &mut adapter,
        jobs,
        &SimConfig {
            workers: 1,
            ..Default::default()
        },
    );
    assert!(!sim.timed_out, "{ctx}: simulator timed out");
    assert_eq!(sim.committed, jobs.len(), "{ctx}: lost jobs");
    for grant_fast_path in [true, false] {
        let mut rt = Runtime::new(kind, config).expect("buildable kind");
        for name in fresh {
            rt.intern(name).expect("policy interns fresh names");
        }
        let report = rt.run(
            jobs,
            &RuntimeConfig {
                workers: 1,
                grant_fast_path,
                ..Default::default()
            },
        );
        let ctx = format!("{ctx} / grant_fast_path {grant_fast_path}");
        assert_eq!(report.committed, sim.committed, "{ctx}: committed");
        assert_eq!(report.schedule, sim.schedule, "{ctx}: traces differ");
    }
}

/// One plan, two executors, one trace: with a single worker neither the
/// simulator nor the runtime interleaves anything, so both must emit
/// exactly the steps the planner and engine produce, job by job.
#[test]
fn width_one_simulator_and_runtime_emit_the_same_trace() {
    for seed in 0..5u64 {
        let pool: Vec<EntityId> = (0..24).map(EntityId).collect();
        let flat = PolicyConfig::flat(pool.clone());
        for kind in [
            PolicyKind::TwoPhase,
            PolicyKind::Altruistic,
            PolicyKind::Dtr,
        ] {
            for w in flat_workloads(&pool, seed) {
                let ctx = format!("{} / {} / seed {seed}", kind.name(), w.name);
                assert_width_one_traces_agree(kind, &flat, &[], &w.jobs, &ctx);
            }
        }

        let dag = layered_dag(5, 4, 2, seed);
        let config = PolicyConfig::dag(dag.universe.clone(), dag.graph.clone());
        let traversals = dag_access_jobs(&dag, 30, 2, seed);
        let ctx = format!("DDAG / traversals / seed {seed}");
        assert_width_one_traces_agree(PolicyKind::Ddag, &config, &[], &traversals, &ctx);
        let mut universe = dag.universe.clone();
        let mut fresh = Vec::new();
        let mixed = dag_mixed_jobs(
            &dag,
            30,
            2,
            0.3,
            &mut |name| {
                fresh.push(name.to_owned());
                universe.entity(name)
            },
            seed,
        );
        let ctx = format!("DDAG / insert-mix / seed {seed}");
        assert_width_one_traces_agree(PolicyKind::Ddag, &config, &fresh, &mixed, &ctx);
    }
}

/// A job a flat-pool planner cannot carry out — nothing to access, or a
/// structural insert — is a fatal plan error, so both executors reject
/// it and emit nothing for it, instead of committing a zero-step success.
#[test]
fn both_executors_reject_jobs_a_flat_pool_planner_cannot_carry_out() {
    let pool: Vec<EntityId> = (0..4).map(EntityId).collect();
    let config = PolicyConfig::flat(pool.clone());
    let jobs = vec![
        Job::access(vec![]),
        Job::insert(pool[0], EntityId(9)),
        Job::access(vec![pool[1]]),
    ];
    for kind in [
        PolicyKind::TwoPhase,
        PolicyKind::Altruistic,
        PolicyKind::Dtr,
    ] {
        let mut adapter = build_adapter(&PolicyRegistry::new(), kind, &config).expect("flat kind");
        let sim = run_sim(&mut adapter, &jobs, &SimConfig::default());
        assert_eq!(
            (sim.committed, sim.rejected, sim.policy_aborts),
            (1, 2, 0),
            "{}: simulator",
            kind.name()
        );
        let mut rt = Runtime::new(kind, &config).expect("flat kind");
        let report = rt.run(&jobs, &RuntimeConfig::with_workers(1));
        assert_eq!(
            (report.committed, report.rejected, report.policy_aborts),
            (1, 2, 0),
            "{}: runtime",
            kind.name()
        );
        assert!(report.accounting_balances());
        assert_eq!(report.schedule, sim.schedule, "{}", kind.name());
        assert!(sim
            .schedule
            .steps()
            .iter()
            .all(|s| s.step.entity == pool[1]));
    }
}

#[test]
fn large_contention_workloads_actually_contend() {
    // The point of the E9d-style workload: heavy lock traffic. Guard the
    // generator against accidentally becoming conflict-free.
    let registry = PolicyRegistry::new();
    let pool: Vec<EntityId> = (0..24).map(EntityId).collect();
    let jobs = hot_cold_jobs(&pool, 80, 3, 4, 0.8, 5);
    for kind in [
        PolicyKind::TwoPhase,
        PolicyKind::Altruistic,
        PolicyKind::Dtr,
    ] {
        let mut adapter =
            build_adapter(&registry, kind, &PolicyConfig::flat(pool.clone())).expect("flat kind");
        let report = run_sim(
            &mut adapter,
            &jobs,
            &SimConfig {
                workers: 8,
                ..Default::default()
            },
        );
        assert!(
            report.lock_waits > 50,
            "{}: expected heavy contention, saw {} waits",
            kind.name(),
            report.lock_waits
        );
    }
}

// ---------------------------------------------------------------------
// Negative controls: each mutant admits a nonserializable execution its
// safe base refuses.
// ---------------------------------------------------------------------

/// Scripts one action: grants it and records the steps into `trace`.
fn granted(eng: &mut Box<dyn PolicyEngine>, tx: TxId, action: PolicyAction, trace: &mut Schedule) {
    for s in eng.request(tx, action).expect_granted() {
        trace.push(ScheduledStep::new(tx, s));
    }
}

fn finished(eng: &mut Box<dyn PolicyEngine>, tx: TxId, trace: &mut Schedule) {
    for s in eng.finish(tx).expect("active transaction") {
        trace.push(ScheduledStep::new(tx, s));
    }
}

/// The chain `r -> a -> b` as a DDAG config.
fn chain_config() -> (PolicyConfig, EntityId, EntityId) {
    let mut u = Universe::new();
    let ids = u.entities(["r", "a", "b"]);
    let mut g = DiGraph::new();
    for &n in &ids {
        g.add_node(n).unwrap();
    }
    g.add_edge(ids[0], ids[1]).unwrap();
    g.add_edge(ids[1], ids[2]).unwrap();
    (PolicyConfig::dag(u, g), ids[1], ids[2])
}

/// The diamond `r -> {a, b} -> j` as a DDAG config.
fn diamond_config() -> (PolicyConfig, [EntityId; 4]) {
    let mut u = Universe::new();
    let ids = u.entities(["r", "a", "b", "j"]);
    let mut g = DiGraph::new();
    for &n in &ids {
        g.add_node(n).unwrap();
    }
    g.add_edge(ids[0], ids[1]).unwrap();
    g.add_edge(ids[0], ids[2]).unwrap();
    g.add_edge(ids[1], ids[3]).unwrap();
    g.add_edge(ids[2], ids[3]).unwrap();
    (PolicyConfig::dag(u, g), [ids[0], ids[1], ids[2], ids[3]])
}

#[test]
fn mutant_no_held_predecessor_admits_what_safe_ddag_refuses() {
    let registry = PolicyRegistry::new();
    let (t1, t2) = (TxId(1), TxId(2));

    // Mutant: two lock-use-release crawls overtake each other.
    let (config, a, b) = chain_config();
    let mut eng = registry
        .build(PolicyKind::DdagNoHeldPredecessor, &config)
        .unwrap();
    let mut trace = Schedule::empty();
    eng.begin(t1, &AccessIntent::empty()).unwrap();
    eng.begin(t2, &AccessIntent::empty()).unwrap();
    for (tx, n) in [(t1, a), (t2, a), (t2, b), (t1, b)] {
        granted(&mut eng, tx, PolicyAction::Lock(n), &mut trace);
        granted(&mut eng, tx, PolicyAction::Access(n), &mut trace);
        granted(&mut eng, tx, PolicyAction::Unlock(n), &mut trace);
    }
    finished(&mut eng, t1, &mut trace);
    finished(&mut eng, t2, &mut trace);
    let initial: StructuralState = eng.structural_entities().unwrap().into_iter().collect();
    assert!(trace.is_legal());
    assert!(trace.is_proper(&initial));
    assert!(
        !is_serializable(&trace),
        "the L5b mutant must admit a nonserializable execution"
    );

    // Safe DDAG: the pivotal lock is a typed L5 violation.
    let (config, a, b) = chain_config();
    let mut eng = registry.build(PolicyKind::Ddag, &config).unwrap();
    let mut trace = Schedule::empty();
    eng.begin(t1, &AccessIntent::empty()).unwrap();
    eng.begin(t2, &AccessIntent::empty()).unwrap();
    for (tx, n) in [(t1, a), (t2, a)] {
        granted(&mut eng, tx, PolicyAction::Lock(n), &mut trace);
        granted(&mut eng, tx, PolicyAction::Access(n), &mut trace);
        granted(&mut eng, tx, PolicyAction::Unlock(n), &mut trace);
    }
    match eng.request(t2, PolicyAction::Lock(b)) {
        PolicyResponse::Violation(PolicyViolation::Ddag(DdagViolation::NoHeldPredecessor(
            tx,
            n,
        ))) => {
            assert_eq!((tx, n), (t2, b));
        }
        other => panic!("safe DDAG must refuse on L5b, got {other:?}"),
    }
}

#[test]
fn mutant_no_all_predecessors_admits_what_safe_ddag_refuses() {
    let registry = PolicyRegistry::new();
    let (t1, t2) = (TxId(1), TxId(2));

    // Mutant: two opposite shoulder-crawls through the diamond serialize
    // r as T1 -> T2 but j as T2 -> T1.
    let (config, [r, a, b, j]) = diamond_config();
    let mut eng = registry
        .build(PolicyKind::DdagNoAllPredecessors, &config)
        .unwrap();
    let mut trace = Schedule::empty();
    eng.begin(t1, &AccessIntent::empty()).unwrap();
    eng.begin(t2, &AccessIntent::empty()).unwrap();
    // T1: r -> a, releasing r early.
    granted(&mut eng, t1, PolicyAction::Lock(r), &mut trace);
    granted(&mut eng, t1, PolicyAction::Access(r), &mut trace);
    granted(&mut eng, t1, PolicyAction::Lock(a), &mut trace);
    granted(&mut eng, t1, PolicyAction::Unlock(r), &mut trace);
    // T2: r -> b -> j (j locked while holding only predecessor b).
    granted(&mut eng, t2, PolicyAction::Lock(r), &mut trace);
    granted(&mut eng, t2, PolicyAction::Access(r), &mut trace);
    granted(&mut eng, t2, PolicyAction::Lock(b), &mut trace);
    granted(&mut eng, t2, PolicyAction::Unlock(r), &mut trace);
    granted(&mut eng, t2, PolicyAction::Lock(j), &mut trace);
    granted(&mut eng, t2, PolicyAction::Access(j), &mut trace);
    granted(&mut eng, t2, PolicyAction::Unlock(j), &mut trace);
    // T1 follows into j while holding only predecessor a.
    granted(&mut eng, t1, PolicyAction::Lock(j), &mut trace);
    granted(&mut eng, t1, PolicyAction::Access(j), &mut trace);
    finished(&mut eng, t1, &mut trace);
    finished(&mut eng, t2, &mut trace);
    let initial: StructuralState = eng.structural_entities().unwrap().into_iter().collect();
    assert!(trace.is_legal());
    assert!(trace.is_proper(&initial));
    assert!(
        !is_serializable(&trace),
        "the L5a mutant must admit a nonserializable execution"
    );

    // Safe DDAG: locking j while b was never locked is a typed violation.
    let (config, [r, a, _b, j]) = diamond_config();
    let mut eng = registry.build(PolicyKind::Ddag, &config).unwrap();
    let mut trace = Schedule::empty();
    eng.begin(t1, &AccessIntent::empty()).unwrap();
    granted(&mut eng, t1, PolicyAction::Lock(r), &mut trace);
    granted(&mut eng, t1, PolicyAction::Lock(a), &mut trace);
    match eng.request(t1, PolicyAction::Lock(j)) {
        PolicyResponse::Violation(PolicyViolation::Ddag(DdagViolation::PredecessorsNotLocked(
            tx,
            n,
        ))) => {
            assert_eq!((tx, n), (t1, j));
        }
        other => panic!("safe DDAG must refuse on L5a, got {other:?}"),
    }
}

#[test]
fn mutant_no_wake_rule_admits_what_safe_altruistic_refuses() {
    let registry = PolicyRegistry::new();
    let (t1, t2) = (TxId(1), TxId(2));
    let (x, y) = (EntityId(0), EntityId(1));
    let config = PolicyConfig::flat(vec![x, y]);

    let script = |eng: &mut Box<dyn PolicyEngine>| -> (Schedule, PolicyResponse) {
        let mut trace = Schedule::empty();
        eng.begin(t1, &AccessIntent::empty()).unwrap();
        eng.begin(t2, &AccessIntent::empty()).unwrap();
        // T1 donates x before its locked point; T2 takes it (enters the
        // wake), then tries the non-donated y.
        granted(eng, t1, PolicyAction::Lock(x), &mut trace);
        granted(eng, t1, PolicyAction::Access(x), &mut trace);
        granted(eng, t1, PolicyAction::Unlock(x), &mut trace);
        granted(eng, t2, PolicyAction::Lock(x), &mut trace);
        granted(eng, t2, PolicyAction::Access(x), &mut trace);
        let pivotal = eng.request(t2, PolicyAction::Lock(y));
        (trace, pivotal)
    };

    // Mutant: the wake escape is granted and completes nonserializably.
    let mut eng = registry
        .build(PolicyKind::AltruisticNoWake, &config)
        .unwrap();
    let (mut trace, pivotal) = script(&mut eng);
    for s in pivotal.expect_granted() {
        trace.push(ScheduledStep::new(t2, s));
    }
    granted(&mut eng, t2, PolicyAction::Access(y), &mut trace);
    finished(&mut eng, t2, &mut trace);
    granted(&mut eng, t1, PolicyAction::Lock(y), &mut trace);
    granted(&mut eng, t1, PolicyAction::Access(y), &mut trace);
    finished(&mut eng, t1, &mut trace);
    let initial = StructuralState::from_entities([x, y]);
    assert!(trace.is_legal());
    assert!(trace.is_proper(&initial));
    assert!(
        !is_serializable(&trace),
        "the AL2 mutant must admit a nonserializable execution"
    );

    // Safe altruistic: the same request is a typed AL2 violation.
    let mut eng = registry.build(PolicyKind::Altruistic, &config).unwrap();
    let (_, pivotal) = script(&mut eng);
    match pivotal {
        PolicyResponse::Violation(PolicyViolation::Altruistic(
            AltruisticViolation::OutsideWake { tx, wake_of, item },
        )) => {
            assert_eq!((tx, wake_of, item), (t2, t1, y));
        }
        other => panic!("safe altruistic must refuse on AL2, got {other:?}"),
    }
}
