//! Property-based tests for the policy engines and generators.

use proptest::prelude::*;
use safe_locking::core::{
    is_serializable, DataOp, EntityId, LockedTransaction, Schedule, ScheduledStep, Step,
    Transaction, TxId,
};
use safe_locking::graph::Forest;
use safe_locking::policies::ddag::DdagEngine;
use safe_locking::policies::{is_tree_locked, mutants, tree_lock_plan, two_phase};
use std::collections::BTreeMap;

// ---------------------------------------------------------------------
// Generators
// ---------------------------------------------------------------------

fn arb_transaction(entities: u32, len: usize) -> impl Strategy<Value = Transaction> {
    prop::collection::vec(
        (
            prop_oneof![
                Just(DataOp::Read),
                Just(DataOp::Write),
                Just(DataOp::Insert),
                Just(DataOp::Delete),
            ],
            0..entities,
        ),
        1..len,
    )
    .prop_map(|ops| {
        Transaction::new(
            TxId(1),
            ops.into_iter()
                .map(|(op, e)| Step::new(op, EntityId(e)))
                .collect(),
        )
    })
}

/// A random forest built by attaching each node under a random earlier
/// node (or as a root).
fn arb_forest(n: u32) -> impl Strategy<Value = Forest> {
    prop::collection::vec(0u32..=u32::MAX, n as usize).prop_map(move |choices| {
        let mut f = Forest::new();
        for (i, &c) in choices.iter().enumerate() {
            let node = EntityId(i as u32);
            if i == 0 || c % (i as u32 + 1) == 0 {
                f.add_root(node).unwrap();
            } else {
                let parent = EntityId(c % i as u32);
                f.add_child(parent, node).unwrap();
            }
        }
        f
    })
}

// ---------------------------------------------------------------------
// 2PL and short-lock generators
// ---------------------------------------------------------------------

proptest! {
    #[test]
    fn strict_2pl_output_is_always_compliant(t in arb_transaction(6, 12)) {
        let locked = two_phase::lock_strict(&t);
        prop_assert!(two_phase::complies(&locked));
        prop_assert_eq!(locked.unlocked().steps, t.steps);
    }

    #[test]
    fn conservative_2pl_output_is_always_compliant(t in arb_transaction(6, 12)) {
        let locked = two_phase::lock_conservative(&t);
        prop_assert!(two_phase::complies(&locked));
        prop_assert_eq!(locked.unlocked().steps, t.steps);
        // All locks precede all data steps.
        let first_data = locked.steps.iter().position(Step::is_data);
        let last_lock = locked.steps.iter().rposition(Step::is_lock);
        if let (Some(d), Some(l)) = (first_data, last_lock) {
            prop_assert!(l < d);
        }
    }

    #[test]
    fn short_locks_are_well_formed_and_lock_once(t in arb_transaction(6, 12)) {
        let locked = mutants::lock_short(&t);
        prop_assert!(locked.validate().is_ok());
        prop_assert_eq!(locked.unlocked().steps, t.steps);
    }

    #[test]
    fn two_2pl_transactions_always_form_a_safe_system(
        ta in arb_transaction(4, 8),
        tb in arb_transaction(4, 8),
    ) {
        // Regardless of access patterns, 2PL-locked pairs are safe
        // (Theorem 1, condition 1). Verified exhaustively.
        use safe_locking::core::{StructuralState, TransactionSystem, Universe};
        use safe_locking::verifier::{verify_safety, SearchBudget};
        let mut universe = Universe::new();
        for i in 0..4 {
            universe.entity(&format!("e{i}"));
        }
        let a = two_phase::lock_strict(&ta);
        let mut b_steps = tb.steps.clone();
        b_steps.truncate(8);
        let b = two_phase::lock_conservative(&Transaction::new(TxId(2), b_steps));
        let system = TransactionSystem::new(
            universe,
            StructuralState::from_entities((0..4).map(EntityId)),
            vec![LockedTransaction::new(TxId(1), a.steps), b],
        );
        let verdict = verify_safety(&system, SearchBudget { max_states: 300_000 });
        // Either proven safe or the budget ran out — never unsafe.
        prop_assert!(!verdict.is_unsafe(), "2PL pair found unsafe!");
    }
}

// ---------------------------------------------------------------------
// Tree-lock planner
// ---------------------------------------------------------------------

proptest! {
    #[test]
    fn tree_plans_are_tree_locked_and_well_formed(
        f in arb_forest(12),
        raw_targets in prop::collection::btree_set(0u32..12, 1..5),
    ) {
        // Restrict targets to one tree (the planner requires it).
        let targets: Vec<EntityId> = {
            let first_root = f.root_of(EntityId(*raw_targets.iter().next().unwrap()));
            raw_targets
                .iter()
                .map(|&i| EntityId(i))
                .filter(|&e| f.root_of(e) == first_root)
                .collect()
        };
        let ops: BTreeMap<EntityId, Vec<DataOp>> =
            targets.iter().map(|&e| (e, vec![DataOp::Read, DataOp::Write])).collect();
        let plan = tree_lock_plan(&f, &ops).expect("single-tree targets plan");
        prop_assert!(is_tree_locked(&plan, &f).is_ok());
        let lt = LockedTransaction::new(TxId(1), plan.clone());
        prop_assert!(lt.validate().is_ok());
        // Every target's ops appear exactly once.
        for &t in &targets {
            prop_assert_eq!(plan.iter().filter(|s| **s == Step::read(t)).count(), 1);
            prop_assert_eq!(plan.iter().filter(|s| **s == Step::write(t)).count(), 1);
        }
        // Locks are balanced: every lock has a matching unlock.
        let locks = plan.iter().filter(|s| s.is_lock()).count();
        let unlocks = plan.iter().filter(|s| s.is_unlock()).count();
        prop_assert_eq!(locks, unlocks);
    }
}

// ---------------------------------------------------------------------
// DDAG engine: serial crawls on random layered DAGs
// ---------------------------------------------------------------------

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    #[test]
    fn serial_ddag_crawls_satisfy_lemma3(
        (layers, width, seed) in (2usize..4, 1usize..4, 0u64..500),
    ) {
        use safe_locking::sim::layered_dag;
        use safe_locking::graph::dominators;
        let d = layered_dag(layers, width, 2, seed);
        let mut eng = DdagEngine::new(d.universe.clone(), d.graph.clone());
        let tx = TxId(1);
        eng.begin(tx).unwrap();
        // Crawl from the root in topological order (a maximal traversal).
        let topo = safe_locking::graph::dag::topological_sort(&d.graph).unwrap();
        let mut locked = Vec::new();
        let mut steps: Vec<Step> = Vec::new();
        for &n in &topo {
            steps.push(eng.lock(tx, n).expect("topological crawl is always allowed"));
            locked.push(n);
            // Lemma 3(a): everything locked so far is dominated by the
            // first lock (the root here).
            prop_assert!(dominators::dominates_all(&d.graph, d.root, locked[0], locked.iter()));
        }
        steps.extend(eng.finish(tx).unwrap());
        let lt = LockedTransaction::new(tx, steps);
        prop_assert!(lt.validate().is_ok());
    }

    #[test]
    fn serial_policy_execution_traces_are_serializable(
        (layers, width, seed) in (2usize..4, 2usize..4, 0u64..200),
    ) {
        // Two DDAG transactions run serially: trace must be serializable
        // and the serialization order must match execution order.
        use safe_locking::sim::layered_dag;
        let d = layered_dag(layers, width, 2, seed);
        let mut eng = DdagEngine::new(d.universe.clone(), d.graph.clone());
        let mut trace = Schedule::empty();
        for t in 1..=2u32 {
            let tx = TxId(t);
            eng.begin(tx).unwrap();
            let topo = safe_locking::graph::dag::topological_sort(eng.graph()).unwrap();
            for n in topo {
                trace.push(ScheduledStep::new(tx, eng.lock(tx, n).unwrap()));
                for s in eng.access(tx, n).unwrap() {
                    trace.push(ScheduledStep::new(tx, s));
                }
            }
            for s in eng.finish(tx).unwrap() {
                trace.push(ScheduledStep::new(tx, s));
            }
        }
        prop_assert!(trace.is_legal());
        prop_assert!(is_serializable(&trace));
    }
}
