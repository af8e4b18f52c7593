//! Property-based tests for the policy engines and generators.

use proptest::prelude::*;
use safe_locking::core::{
    is_serializable, DataOp, EntityId, LockedTransaction, Operation, Schedule, ScheduledStep, Step,
    StructuralState, Transaction, TxId,
};
use safe_locking::graph::Forest;
use safe_locking::policies::altruistic::{AltruisticConfig, AltruisticEngine, AltruisticViolation};
use safe_locking::policies::ddag::DdagEngine;
use safe_locking::policies::dtr::{DtrEngine, DtrViolation};
use safe_locking::policies::{
    is_tree_locked, mutants, tree_lock_plan, two_phase, AccessIntent, PolicyAction, PolicyEngine,
    PolicyResponse, PolicyViolation,
};
use std::collections::{BTreeMap, BTreeSet};

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

// ---------------------------------------------------------------------
// Flat rule state against the BTree model
// ---------------------------------------------------------------------

/// The pool the flat engines and their models are built over: the ids
/// 0–5 the generated operations name, but for `ABSENT`, which does not
/// exist.
const ABSENT: EntityId = EntityId(3);

fn model_pool() -> BTreeSet<EntityId> {
    (0..6).map(EntityId).filter(|&e| e != ABSENT).collect()
}

/// The altruistic engine's rule state as sorted sets in a map by id: the
/// model the flat engine must answer exactly like.
#[derive(Default)]
struct AltModel {
    pool: BTreeSet<EntityId>,
    wake_rule: bool,
    txs: BTreeMap<TxId, AltModelTx>,
    holder: BTreeMap<EntityId, TxId>,
}

#[derive(Default)]
struct AltModelTx {
    locked_past: BTreeSet<EntityId>,
    holding: BTreeSet<EntityId>,
    donated: BTreeSet<EntityId>,
    at_locked_point: bool,
}

impl AltModel {
    fn check_lock(&self, tx: TxId, item: EntityId) -> Result<(), AltruisticViolation> {
        let st = self
            .txs
            .get(&tx)
            .ok_or(AltruisticViolation::UnknownTransaction(tx))?;
        if !self.pool.contains(&item) {
            return Err(AltruisticViolation::EntityOutOfRange(item));
        }
        if st.at_locked_point {
            return Err(AltruisticViolation::PastLockedPoint(tx));
        }
        if st.locked_past.contains(&item) {
            return Err(AltruisticViolation::Relock(tx, item));
        }
        if self.wake_rule {
            for (&other, tj) in &self.txs {
                if other == tx || tj.at_locked_point {
                    continue;
                }
                if !tj.donated.contains(&item) && st.locked_past.is_disjoint(&tj.donated) {
                    continue;
                }
                if let Some(&outside) = st
                    .locked_past
                    .iter()
                    .chain([&item])
                    .find(|i| !tj.donated.contains(i))
                {
                    return Err(AltruisticViolation::OutsideWake {
                        tx,
                        wake_of: other,
                        item: outside,
                    });
                }
            }
        }
        match self.holder.get(&item) {
            Some(&h) if h != tx => Err(AltruisticViolation::LockConflict(item, h)),
            _ => Ok(()),
        }
    }

    fn apply(&mut self, tx: TxId, action: PolicyAction) -> Result<Vec<Step>, AltruisticViolation> {
        use AltruisticViolation::{NotHolding, UnknownTransaction};
        if let PolicyAction::Lock(e) = action {
            self.check_lock(tx, e)?;
        }
        let st = self.txs.get_mut(&tx).ok_or(UnknownTransaction(tx))?;
        match action {
            PolicyAction::Lock(e) => {
                st.locked_past.insert(e);
                st.holding.insert(e);
                self.holder.insert(e, tx);
                Ok(vec![Step::lock_exclusive(e)])
            }
            PolicyAction::Unlock(e) => {
                if !st.holding.remove(&e) {
                    return Err(NotHolding(tx, e));
                }
                st.donated.insert(e);
                self.holder.remove(&e);
                Ok(vec![Step::unlock_exclusive(e)])
            }
            PolicyAction::Access(e) if st.holding.contains(&e) => {
                Ok(vec![Step::read(e), Step::write(e)])
            }
            PolicyAction::Read(e) if st.holding.contains(&e) => Ok(vec![Step::read(e)]),
            PolicyAction::Access(e) | PolicyAction::Read(e) => Err(NotHolding(tx, e)),
            PolicyAction::LockedPoint => {
                st.at_locked_point = true;
                Ok(Vec::new())
            }
            other => unreachable!("not generated: {other}"),
        }
    }

    fn begin(&mut self, tx: TxId) -> Result<Option<Vec<PolicyAction>>, PolicyViolation> {
        if self.txs.contains_key(&tx) {
            let v = AltruisticViolation::AlreadyBegun(tx);
            return Err(PolicyViolation::Altruistic(v));
        }
        self.txs.insert(tx, AltModelTx::default());
        Ok(None)
    }

    fn finish(&mut self, tx: TxId) -> Result<Vec<Step>, AltruisticViolation> {
        let st = self
            .txs
            .remove(&tx)
            .ok_or(AltruisticViolation::UnknownTransaction(tx))?;
        for e in &st.holding {
            self.holder.remove(e);
        }
        Ok(st.holding.into_iter().map(Step::unlock_exclusive).collect())
    }

    fn in_wake_of(&self, tx: TxId, other: TxId) -> bool {
        let (Some(ti), Some(tj)) = (self.txs.get(&tx), self.txs.get(&other)) else {
            return false;
        };
        !tj.at_locked_point && !ti.locked_past.is_disjoint(&tj.donated)
    }
}

/// The DTR engine's rule state as sorted sets in a map by id, with the
/// forest logic unchanged: the model the flat engine must answer exactly
/// like.
#[derive(Default)]
struct DtrModel {
    pool: BTreeSet<EntityId>,
    forest: Forest,
    txs: BTreeMap<TxId, DtrModelTx>,
    holder: BTreeMap<EntityId, TxId>,
}

struct DtrModelTx {
    plan: Vec<Step>,
    cursor: usize,
    holding: BTreeSet<EntityId>,
    locked_any: bool,
}

impl DtrModel {
    fn begin(
        &mut self,
        tx: TxId,
        ops: &BTreeMap<EntityId, Vec<DataOp>>,
    ) -> Result<Vec<Step>, DtrViolation> {
        if self.txs.contains_key(&tx) {
            return Err(DtrViolation::AlreadyBegun(tx));
        }
        if let Some(&e) = ops.keys().find(|e| !self.pool.contains(e)) {
            return Err(DtrViolation::EntityOutOfRange(e));
        }
        let mut roots: Vec<EntityId> = Vec::new();
        let mut fresh: Vec<EntityId> = Vec::new();
        for &e in ops.keys() {
            match self.forest.root_of(e) {
                Some(r) if !roots.contains(&r) => roots.push(r),
                Some(_) => {}
                None => fresh.push(e),
            }
        }
        if let Some((&star_root, rest)) = fresh.split_first() {
            self.forest.add_root(star_root).unwrap();
            for &e in rest {
                self.forest.add_child(star_root, e).unwrap();
            }
            roots.push(star_root);
        }
        if let Some((&primary, others)) = roots.split_first() {
            for &r in others {
                self.forest.join(primary, r).unwrap();
            }
        }
        let plan = tree_lock_plan(&self.forest, ops).map_err(DtrViolation::Plan)?;
        let st = DtrModelTx {
            plan: plan.clone(),
            cursor: 0,
            holding: BTreeSet::new(),
            locked_any: false,
        };
        self.txs.insert(tx, st);
        Ok(plan)
    }

    fn peek(&self, tx: TxId) -> Option<Step> {
        self.txs
            .get(&tx)
            .and_then(|st| st.plan.get(st.cursor).copied())
    }

    fn check_step(&self, tx: TxId) -> Result<(), DtrViolation> {
        let st = self
            .txs
            .get(&tx)
            .ok_or(DtrViolation::UnknownTransaction(tx))?;
        let Some(step) = st.plan.get(st.cursor) else {
            return Err(DtrViolation::PlanExhausted(tx));
        };
        if step.is_lock() {
            let parent_held = self
                .forest
                .parent(step.entity)
                .is_some_and(|p| st.holding.contains(&p));
            if st.locked_any && !parent_held {
                return Err(DtrViolation::ParentNotHeld(tx, step.entity));
            }
            if let Some(&h) = self.holder.get(&step.entity).filter(|&&h| h != tx) {
                return Err(DtrViolation::LockConflict(step.entity, h));
            }
        }
        Ok(())
    }

    fn request(&mut self, tx: TxId, action: PolicyAction) -> PolicyResponse {
        match self.peek(tx) {
            Some(step) if action_of(&step) == action => {}
            Some(_) => return PolicyResponse::Violation(PolicyViolation::OffPlan(tx, action)),
            None => {
                let v = if self.txs.contains_key(&tx) {
                    DtrViolation::PlanExhausted(tx)
                } else {
                    DtrViolation::UnknownTransaction(tx)
                };
                return PolicyResponse::Violation(PolicyViolation::Dtr(v));
            }
        }
        match self.check_step(tx) {
            Err(DtrViolation::LockConflict(entity, holder)) => {
                return PolicyResponse::Conflict { entity, holder }
            }
            Err(v) => return PolicyResponse::Violation(PolicyViolation::Dtr(v)),
            Ok(()) => {}
        }
        let st = self.txs.get_mut(&tx).unwrap();
        let step = st.plan[st.cursor];
        st.cursor += 1;
        if step.is_lock() {
            st.locked_any = true;
            st.holding.insert(step.entity);
            self.holder.insert(step.entity, tx);
        } else if step.is_unlock() {
            st.holding.remove(&step.entity);
            self.holder.remove(&step.entity);
        }
        PolicyResponse::Granted(vec![step])
    }

    fn finish(&mut self, tx: TxId) -> Result<Vec<Step>, DtrViolation> {
        let st = self
            .txs
            .remove(&tx)
            .ok_or(DtrViolation::UnknownTransaction(tx))?;
        for e in &st.holding {
            self.holder.remove(e);
        }
        Ok(st.holding.into_iter().map(Step::unlock_exclusive).collect())
    }

    fn delete(&mut self, n: EntityId) -> Result<(), DtrViolation> {
        if !self.forest.contains(n) {
            return Err(DtrViolation::NotInForest(n));
        }
        if self.holder.contains_key(&n) {
            return Err(DtrViolation::NodeLocked(n));
        }
        let mut reduced = self.forest.clone();
        reduced.remove(n).unwrap();
        for (&tx, st) in &self.txs {
            if is_tree_locked(&st.plan, &reduced).is_err() {
                return Err(DtrViolation::WouldBreakTreeLocking(tx));
            }
        }
        self.forest = reduced;
        Ok(())
    }
}

fn action_of(step: &Step) -> PolicyAction {
    match step.op {
        Operation::Lock(_) => PolicyAction::Lock(step.entity),
        Operation::Unlock(_) => PolicyAction::Unlock(step.entity),
        Operation::Data(DataOp::Read) => PolicyAction::Read(step.entity),
        Operation::Data(DataOp::Write) => PolicyAction::Write(step.entity),
        Operation::Data(DataOp::Insert) => PolicyAction::InsertNode(step.entity),
        Operation::Data(DataOp::Delete) => PolicyAction::DeleteNode(step.entity),
    }
}

/// One random operation: a kind, a transaction (ids 1–4, begun in any
/// order), an entity (0–5, `ABSENT` among them) and an access-set mask
/// for a DTR begin.
type RawOp = (u32, u32, u32, u32);

fn arb_ops() -> impl Strategy<Value = Vec<RawOp>> {
    prop::collection::vec((0u32..16, 1u32..5, 0u32..6, 1u32..64), 1..160)
}

/// Drives the altruistic engine (AL2 on or off) and its model through
/// `ops`; every answer, the held sets and the wake relation must agree.
fn check_altruistic(config: AltruisticConfig, ops: &[RawOp]) {
    let mut eng = AltruisticEngine::with_config(model_pool(), config);
    let mut model = AltModel {
        pool: model_pool(),
        wake_rule: config.enforce_wake_rule,
        ..AltModel::default()
    };
    let pool = StructuralState::from_entities(model_pool());
    assert_eq!(PolicyEngine::structural_state(&eng), pool);
    for (i, &(kind, t, e, _)) in ops.iter().enumerate() {
        let (tx, e) = (TxId(t), EntityId(e));
        // A request for a transaction that is not active mostly begins it.
        let idle = !model.txs.contains_key(&tx) && (4..=10).contains(&kind);
        match if idle { 0 } else { kind } {
            0..=3 => assert_eq!(
                PolicyEngine::begin(&mut eng, tx, &AccessIntent::empty()),
                model.begin(tx),
                "op {i} of {ops:?}"
            ),
            14 => assert_eq!(
                PolicyEngine::finish(&mut eng, tx),
                model.finish(tx).map_err(PolicyViolation::Altruistic),
                "op {i} of {ops:?}"
            ),
            15 => assert_eq!(
                PolicyEngine::abort(&mut eng, tx),
                model.finish(tx).unwrap_or_default(),
                "op {i} of {ops:?}"
            ),
            _ => {
                // Unlocks mostly donate an item the transaction holds, and
                // some locks take an item another transaction donated, so
                // wakes (and a transaction in two of them) are common.
                let pick =
                    |items: Vec<EntityId>| items.get(e.index() % items.len().max(1)).copied();
                let own = model
                    .txs
                    .get(&tx)
                    .map(|st| st.holding.iter().copied().collect());
                let others = model.txs.iter().filter(|(&o, _)| o != tx);
                let donated = others
                    .flat_map(|(_, st)| st.donated.iter().copied())
                    .collect();
                let action = match kind {
                    4 | 5 => PolicyAction::Lock(e),
                    6 | 7 => PolicyAction::Lock(pick(donated).unwrap_or(e)),
                    8..=10 => PolicyAction::Unlock(own.and_then(pick).unwrap_or(e)),
                    11 => PolicyAction::Unlock(e),
                    12 if e.0 % 2 == 0 => PolicyAction::Access(e),
                    12 => PolicyAction::Read(e),
                    _ => PolicyAction::LockedPoint,
                };
                let expected = match model.apply(tx, action) {
                    Ok(steps) => PolicyResponse::Granted(steps),
                    Err(AltruisticViolation::LockConflict(entity, holder)) => {
                        PolicyResponse::Conflict { entity, holder }
                    }
                    Err(v) => PolicyResponse::Violation(PolicyViolation::Altruistic(v)),
                };
                assert_eq!(eng.request(tx, action), expected, "op {i} of {ops:?}");
            }
        }
        for a in (1..5).map(TxId) {
            let held: Vec<EntityId> = model
                .txs
                .get(&a)
                .map_or_else(Vec::new, |st| st.holding.iter().copied().collect());
            assert_eq!(eng.holding(a), held, "op {i} of {ops:?}: holding({a})");
            for b in (1..5).map(TxId) {
                assert_eq!(
                    eng.in_wake_of(a, b),
                    model.in_wake_of(a, b),
                    "op {i} of {ops:?}: {a} in the wake of {b}"
                );
            }
        }
    }
}

/// Drives the DTR engine and its model through `ops`; every plan, answer,
/// deletion verdict and the forest must agree.
fn check_dtr(ops: &[RawOp]) {
    let mut eng = DtrEngine::new(model_pool());
    let mut model = DtrModel {
        pool: model_pool(),
        ..DtrModel::default()
    };
    assert_eq!(
        eng.structural_state(),
        StructuralState::from_entities(model_pool())
    );
    for (i, &(kind, t, e, mask)) in ops.iter().enumerate() {
        let (tx, e) = (TxId(t), EntityId(e));
        match kind {
            0..=3 => {
                let access: BTreeMap<EntityId, Vec<DataOp>> = (0..6)
                    .filter(|b| mask & (1 << b) != 0)
                    .map(|b| (EntityId(b), vec![DataOp::Read, DataOp::Write]))
                    .collect();
                assert_eq!(
                    eng.begin(tx, &access),
                    model.begin(tx, &access),
                    "op {i} of {ops:?}"
                );
            }
            4..=11 => {
                // Mostly the plan's next action; kind 11 a lock off the plan.
                let action = match model.peek(tx) {
                    Some(step) if kind != 11 => action_of(&step),
                    _ => PolicyAction::Lock(e),
                };
                assert_eq!(
                    eng.request(tx, action),
                    model.request(tx, action),
                    "op {i} of {ops:?}"
                );
            }
            12 | 13 => assert_eq!(eng.delete(e), model.delete(e), "op {i} of {ops:?}"),
            14 => assert_eq!(
                PolicyEngine::finish(&mut eng, tx),
                model.finish(tx).map_err(PolicyViolation::Dtr),
                "op {i} of {ops:?}"
            ),
            _ => assert_eq!(
                PolicyEngine::abort(&mut eng, tx),
                model.finish(tx).unwrap_or_default(),
                "op {i} of {ops:?}"
            ),
        }
        assert_eq!(eng.forest(), &model.forest, "op {i} of {ops:?}");
        for a in (1..5).map(TxId) {
            assert_eq!(
                eng.peek(a).copied(),
                model.peek(a),
                "op {i} of {ops:?}: peek({a})"
            );
            assert_eq!(
                eng.check_step(a),
                model.check_step(a),
                "op {i} of {ops:?}: {a}"
            );
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    /// The altruistic engine (and its AL2 mutant) and the DTR engine keep
    /// their rule state in flat `Vec`s; a `BTreeMap` / `BTreeSet` model
    /// of the same rules must answer every request alike — the reported
    /// `wake_of` and `WouldBreakTreeLocking` transaction, the held sets,
    /// the unlocks `finish` / `abort` emit and the refusal of the id the
    /// pool leaves out included.
    #[test]
    fn flat_altruistic_and_dtr_match_the_btree_model(ops in arb_ops()) {
        check_altruistic(AltruisticConfig::strict(), &ops);
        check_altruistic(AltruisticConfig::without_wake_rule(), &ops);
        check_dtr(&ops);
    }
}
