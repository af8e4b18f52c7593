//! Conformance suite for the unified policy API on the simulator: every
//! [`PolicyKind`] the registry exposes runs the shared table-driven sweep
//! (`common/mod.rs`), whose cells are split between this file's tests
//! and `policy_safety.rs`'s, and every emitted trace must pass one sim
//! check. At one worker the simulator and the runtime must emit the
//! same trace. The mutant kinds also serve as negative controls:
//! scripted interleavings show each one admits a legal, proper,
//! **non**serializable execution that its safe base policy refuses at a
//! typed violation.

mod common;

use common::{rows, run_row, sweep, Row, Slice};
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
use safe_locking::sim::{build_adapter, run_sim, SimConfig};

/// Every registered policy's traces pass the sim check. The sweep's
/// cells are split between named tests (`common::Slice`): the per-kind
/// and per-column slices run in `policy_safety.rs` and below; this test
/// runs the rest, the mutants' cells.
#[test]
fn every_registered_policy_emits_legal_proper_traces() {
    sweep(Slice::Rest);
}

/// The large-contention rows of every kind; on the flat pool the
/// generator must keep real contention (more than 50 lock waits at MPL
/// 8), a guard against its turning conflict-free.
#[test]
fn large_contention_workloads_actually_contend() {
    sweep(Slice::Contention);
}

/// Runs `row`'s jobs through the simulator at one worker and through the
/// runtime at width one, with the word path on and off, and requires one
/// trace.
fn assert_width_one_traces_agree(kind: PolicyKind, row: &Row, ctx: &str) {
    let config = SimConfig {
        workers: 1,
        ..Default::default()
    };
    let sim = run_row(kind, row, &config, ctx);
    for grant_fast_path in [true, false] {
        let mut rt = Runtime::new(kind, &row.config).expect("buildable kind");
        for name in &row.fresh {
            rt.intern(name).expect("policy interns fresh names");
        }
        let report = rt.run(
            &row.jobs,
            &RuntimeConfig {
                workers: 1,
                grant_fast_path,
                ..Default::default()
            },
        );
        let ctx = format!(
            "{} / {} / {ctx} / grant_fast_path {grant_fast_path}",
            kind.name(),
            row.name
        );
        assert_eq!(report.committed, sim.committed, "{ctx}: committed");
        assert_eq!(report.schedule, sim.schedule, "{ctx}: traces differ");
    }
}

/// One plan, two executors, one trace: with a single worker neither the
/// simulator nor the runtime interleaves anything, so both must emit
/// exactly the steps the planner and engine produce, job by job, on
/// every row of the sweep's tables.
#[test]
fn width_one_simulator_and_runtime_emit_the_same_trace() {
    for seed in 0..5u64 {
        for kind in PolicyKind::SAFE {
            for row in rows(kind, seed) {
                assert_width_one_traces_agree(kind, &row, &format!("seed {seed}"));
            }
        }
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
