//! Negative-path and lifecycle edge cases across the policy engines —
//! the error surfaces a caller integrating these engines must handle.

use safe_locking::core::{DataOp, EntityId, TxId, MAX_ENTITIES};
use safe_locking::graph::DiGraph;
use safe_locking::policies::altruistic::{AltruisticEngine, AltruisticViolation};
use safe_locking::policies::ddag::{DdagEngine, DdagViolation};
use safe_locking::policies::dtr::{DtrEngine, DtrViolation};
use safe_locking::policies::{Job, PolicyConfig, PolicyKind, PolicyRegistry};
use safe_locking::runtime::{Runtime, RuntimeConfig};
use safe_locking::sim::{build_adapter, run_sim, SimConfig};
use std::collections::BTreeMap;
use std::time::Duration;

fn access() -> Vec<DataOp> {
    vec![DataOp::Read, DataOp::Write]
}

#[test]
fn ddag_operations_on_unknown_transactions_fail() {
    let mut u = safe_locking::core::Universe::new();
    let n = u.entity("n");
    let mut g = DiGraph::new();
    g.add_node(n).unwrap();
    let mut eng = DdagEngine::new(u, g);
    assert_eq!(
        eng.check_lock(TxId(9), n),
        Err(DdagViolation::UnknownTransaction(TxId(9)))
    );
    assert_eq!(
        eng.access(TxId(9), n),
        Err(DdagViolation::UnknownTransaction(TxId(9)))
    );
    assert!(eng.finish(TxId(9)).is_err());
    // Abort of an unknown transaction is a no-op, not a panic.
    assert!(eng.abort(TxId(9)).is_empty());
}

#[test]
fn ddag_finish_releases_everything_and_retires() {
    let mut u = safe_locking::core::Universe::new();
    let ids = u.entities(["a", "b"]);
    let mut g = DiGraph::new();
    for &n in &ids {
        g.add_node(n).unwrap();
    }
    g.add_edge(ids[0], ids[1]).unwrap();
    let mut eng = DdagEngine::new(u, g);
    eng.begin(TxId(1)).unwrap();
    eng.lock(TxId(1), ids[0]).unwrap();
    eng.lock(TxId(1), ids[1]).unwrap();
    let unlocks = eng.finish(TxId(1)).unwrap();
    assert_eq!(unlocks.len(), 2);
    // Finished transactions are gone.
    assert!(eng.finish(TxId(1)).is_err());
    assert_eq!(eng.lock_holder(ids[0]), None);
    // Another transaction can begin under the same id (restart pattern).
    assert!(eng.begin(TxId(1)).is_ok());
}

#[test]
fn ddag_insert_requires_lock_first() {
    let mut u = safe_locking::core::Universe::new();
    let ids = u.entities(["a"]);
    let mut g = DiGraph::new();
    g.add_node(ids[0]).unwrap();
    let mut eng = DdagEngine::new(u, g);
    let fresh = eng.intern("fresh");
    eng.begin(TxId(1)).unwrap();
    assert_eq!(
        eng.insert_node(TxId(1), fresh),
        Err(DdagViolation::NotHolding(TxId(1), fresh))
    );
    eng.lock(TxId(1), fresh).unwrap(); // L2: lockable pre-insert
    assert!(eng.insert_node(TxId(1), fresh).is_ok());
    // Double insert fails.
    assert_eq!(
        eng.insert_node(TxId(1), fresh),
        Err(DdagViolation::NodeExists(fresh))
    );
}

#[test]
fn ddag_edge_errors() {
    let mut u = safe_locking::core::Universe::new();
    let ids = u.entities(["a", "b", "c"]);
    let mut g = DiGraph::new();
    for &n in &ids {
        g.add_node(n).unwrap();
    }
    g.add_edge(ids[0], ids[1]).unwrap();
    let mut eng = DdagEngine::new(u, g);
    eng.begin(TxId(1)).unwrap();
    eng.lock(TxId(1), ids[0]).unwrap();
    // Endpoint not held.
    assert_eq!(
        eng.insert_edge(TxId(1), ids[0], ids[1]),
        Err(DdagViolation::NotHolding(TxId(1), ids[1]))
    );
    eng.lock(TxId(1), ids[1]).unwrap();
    // Edge already exists.
    assert_eq!(
        eng.insert_edge(TxId(1), ids[0], ids[1]),
        Err(DdagViolation::EdgeExists(ids[0], ids[1]))
    );
    // Deleting a non-existent edge.
    assert_eq!(
        eng.delete_edge(TxId(1), ids[1], ids[0]),
        Err(DdagViolation::NoSuchEdge(ids[1], ids[0]))
    );
    // Edge entity lookups.
    assert!(eng.edge_entity(ids[0], ids[1]).is_some());
    assert!(eng.edge_entity(ids[1], ids[0]).is_none());
}

fn pool(n: u32) -> Vec<EntityId> {
    (0..n).map(EntityId).collect()
}

#[test]
fn altruistic_unknown_transaction_and_double_begin() {
    let mut eng = AltruisticEngine::new(pool(1));
    assert_eq!(
        eng.check_lock(TxId(1), EntityId(0)),
        Err(AltruisticViolation::UnknownTransaction(TxId(1)))
    );
    eng.begin(TxId(1)).unwrap();
    assert_eq!(
        eng.begin(TxId(1)),
        Err(AltruisticViolation::AlreadyBegun(TxId(1)))
    );
    // Unlock of an item never locked.
    assert_eq!(
        eng.unlock(TxId(1), EntityId(0)),
        Err(AltruisticViolation::NotHolding(TxId(1), EntityId(0)))
    );
}

#[test]
fn altruistic_wake_is_per_pair() {
    // T3 in T1's wake is unaffected by unrelated T2's donations.
    let mut eng = AltruisticEngine::new(pool(6));
    for t in 1..=3 {
        eng.begin(TxId(t)).unwrap();
    }
    eng.lock(TxId(1), EntityId(0)).unwrap();
    eng.unlock(TxId(1), EntityId(0)).unwrap();
    eng.lock(TxId(2), EntityId(5)).unwrap();
    eng.unlock(TxId(2), EntityId(5)).unwrap();
    eng.lock(TxId(3), EntityId(0)).unwrap(); // wake of T1 only
    assert!(eng.in_wake_of(TxId(3), TxId(1)));
    assert!(!eng.in_wake_of(TxId(3), TxId(2)));
    // Locking T2's donated item while already in T1's wake fails on AL2
    // for T1 (item 5 not donated by T1).
    assert!(matches!(
        eng.check_lock(TxId(3), EntityId(5)),
        Err(AltruisticViolation::OutsideWake { .. })
    ));
}

#[test]
fn dtr_lifecycle_errors() {
    let mut eng = DtrEngine::new(pool(1));
    assert_eq!(
        eng.check_step(TxId(1)),
        Err(DtrViolation::UnknownTransaction(TxId(1)))
    );
    assert!(eng.finish(TxId(1)).is_err());
    let ops = BTreeMap::from([(EntityId(0), access())]);
    eng.begin(TxId(1), &ops).unwrap();
    assert!(!eng.is_done(TxId(1)));
    assert!(eng.peek(TxId(1)).is_some());
    eng.run_to_end(TxId(1)).unwrap();
    assert!(eng.peek(TxId(1)).is_none());
    let residual = eng.finish(TxId(1)).unwrap();
    assert!(residual.is_empty(), "plan unlocks everything by itself");
}

#[test]
fn dtr_empty_access_set_is_rejected() {
    let mut eng = DtrEngine::new(pool(1));
    let err = eng.begin(TxId(1), &BTreeMap::new()).unwrap_err();
    assert!(matches!(err, DtrViolation::Plan(_)));
}

#[test]
fn dtr_abort_midway_releases_locks() {
    let mut eng = DtrEngine::new(pool(2));
    let ops = BTreeMap::from([(EntityId(0), access()), (EntityId(1), access())]);
    eng.begin(TxId(1), &ops).unwrap();
    eng.step(TxId(1)).unwrap(); // first lock
    let released = eng.finish(TxId(1)).unwrap();
    assert_eq!(released.len(), 1, "held lock released on abort/finish");
    // A successor transaction can now take the same entities.
    eng.begin(TxId(2), &ops).unwrap();
    assert!(eng.run_to_end(TxId(2)).is_ok());
}

/// A job that names a target twice plans a relock, and every retry
/// replans it the same way. 2PL and altruistic reject it once instead of
/// retrying it until a guard fires: in the simulator, and in the runtime
/// with the fast path on and off alike.
#[test]
fn a_job_naming_a_target_twice_is_rejected_not_retried() {
    let (a, b) = (EntityId(0), EntityId(1));
    let jobs = vec![Job::access(vec![a, b, a])];
    let policy = PolicyConfig::flat(vec![a, b]);
    for kind in [PolicyKind::TwoPhase, PolicyKind::Altruistic] {
        let mut adapter = build_adapter(&PolicyRegistry::new(), kind, &policy).unwrap();
        let sim = run_sim(
            &mut adapter,
            &jobs,
            &SimConfig {
                workers: 1,
                ..Default::default()
            },
        );
        let ctx = format!("{} / sim", kind.name());
        assert!(!sim.timed_out, "{ctx}: retried until max_ticks");
        assert_eq!(
            (sim.rejected, sim.committed, sim.policy_aborts),
            (1, 0, 0),
            "{ctx}"
        );
        for grant_fast_path in [true, false] {
            let config = RuntimeConfig {
                grant_fast_path,
                max_wall: Duration::from_millis(300),
                ..RuntimeConfig::with_workers(1)
            };
            let report = Runtime::new(kind, &policy).unwrap().run(&jobs, &config);
            let ctx = format!("{} / fast path {grant_fast_path}", kind.name());
            assert!(!report.timed_out, "{ctx}: retried until the deadline");
            assert_eq!(
                (report.rejected, report.committed, report.policy_aborts),
                (1, 0, 0),
                "{ctx}"
            );
            assert!(report.accounting_balances(), "{ctx}");
            assert!(report.lock_table_quiescent(), "{ctx}");
        }
    }
}

/// A DDAG job inserting a node at `MAX_ENTITIES`, or at an id the
/// universe never interned, is refused, fatally, at its first lock on
/// that id: rejected once, never committed, in the simulator and in the
/// runtime — no lock table is grown to that id, and no edge entity is
/// named after it.
#[test]
fn a_ddag_insert_past_max_entities_is_rejected_not_committed() {
    for past in [EntityId(MAX_ENTITIES), EntityId(1000)] {
        let mut u = safe_locking::core::Universe::new();
        let ids = u.entities(["a", "b"]);
        let g = DiGraph::from_parts(ids.clone(), [(ids[0], ids[1])]);
        let policy = PolicyConfig::dag(u, g);
        let jobs = vec![Job::insert(ids[0], past)];
        let kind = PolicyKind::Ddag;
        let mut adapter = build_adapter(&PolicyRegistry::new(), kind, &policy).unwrap();
        let sim = run_sim(
            &mut adapter,
            &jobs,
            &SimConfig {
                workers: 1,
                ..Default::default()
            },
        );
        assert_eq!(
            (sim.rejected, sim.committed, sim.policy_aborts),
            (1, 0, 0),
            "sim, {past}"
        );
        let config = RuntimeConfig {
            max_wall: Duration::from_millis(300),
            ..RuntimeConfig::with_workers(1)
        };
        let report = Runtime::new(kind, &policy).unwrap().run(&jobs, &config);
        assert!(!report.timed_out, "retried until the deadline, {past}");
        assert_eq!(
            (report.rejected, report.committed, report.policy_aborts),
            (1, 0, 0),
            "runtime, {past}"
        );
        assert!(report.accounting_balances(), "{past}");
        assert!(report.lock_table_quiescent(), "{past}");
    }
}

/// A flat job naming an entity that does not exist is refused, fatally,
/// by the engine that owns the pool: 2PL and altruistic at that entity's
/// lock, DTR at `begin`, before DT1 adds it to the forest. The absent id
/// is at `MAX_ENTITIES`, beyond the pool, in a gap of it, or any id of an
/// empty pool; the job is an access, or a read with snapshot reads on.
/// Every executor rejects it once and commits nothing: the simulator, and
/// the runtime with the fast path on and off. No schedule names it, so
/// each is proper against the run's initial state.
#[test]
fn a_flat_job_past_max_entities_is_rejected_not_committed() {
    let (e0, e1, e2) = (EntityId(0), EntityId(1), EntityId(2));
    let rows = [
        ("past MAX_ENTITIES", vec![e0, e1], EntityId(MAX_ENTITIES)),
        ("beyond the pool", vec![e0, e2], EntityId(1000)),
        ("in a gap of the pool", vec![e0, e2], e1),
        ("in an empty pool", vec![], e1),
    ];
    for (row, pool, absent) in rows {
        let policy = PolicyConfig::flat(pool);
        for read in [false, true] {
            let job = if read { Job::read } else { Job::access };
            let jobs = vec![job(vec![e0, absent])];
            for kind in [
                PolicyKind::TwoPhase,
                PolicyKind::Altruistic,
                PolicyKind::Dtr,
            ] {
                let ctx = format!("{} / {row} / read {read}", kind.name());
                let mut adapter = build_adapter(&PolicyRegistry::new(), kind, &policy).unwrap();
                let initial = adapter.initial_state();
                let sim = run_sim(
                    &mut adapter,
                    &jobs,
                    &SimConfig {
                        workers: 1,
                        ..Default::default()
                    },
                );
                assert_eq!(
                    (sim.rejected, sim.committed, sim.policy_aborts),
                    (1, 0, 0),
                    "{ctx} / sim"
                );
                assert!(sim.schedule.is_proper(&initial), "{ctx} / sim");
                for grant_fast_path in [true, false] {
                    let config = RuntimeConfig {
                        grant_fast_path,
                        snapshot_reads: read,
                        max_wall: Duration::from_millis(300),
                        ..RuntimeConfig::with_workers(1)
                    };
                    let report = Runtime::new(kind, &policy).unwrap().run(&jobs, &config);
                    let ctx = format!("{ctx} / fast path {grant_fast_path}");
                    assert!(!report.timed_out, "{ctx}: retried until the deadline");
                    assert_eq!(
                        (report.rejected, report.committed, report.policy_aborts),
                        (1, 0, 0),
                        "{ctx}"
                    );
                    assert!(report.accounting_balances(), "{ctx}");
                    assert!(report.lock_table_quiescent(), "{ctx}");
                    assert!(report.schedule.is_proper(&report.initial), "{ctx}");
                }
            }
        }
    }
}
