//! The dynamic tree (DTR) policy — Section 6 \[CM86\].
//!
//! Unlike the DDAG policy, the *database forest* here is created and
//! maintained by the concurrency-control algorithm itself, not by the
//! transactions. Rules (exclusive locks only):
//!
//! * **DT0** — initially the database forest `G` is empty;
//! * **DT1** — two trees are joined by drawing an edge from the root of
//!   `g1` to the root of `g2`; a set of new entities is first connected
//!   into a tree, then joined;
//! * **DT2** — when a transaction `T` starts, join all trees containing
//!   some entity of `A(T)` into a single tree `g`, add the missing
//!   entities of `A(T)`, and **tree-lock** `T` with respect to `g` (the
//!   locked transaction is *precomputed* at start — the paper notes this
//!   is required);
//! * **DT3** — a node `A` may be deleted from the forest if it is not
//!   currently locked and every active transaction remains tree-locked
//!   with respect to some tree of `G(A)` (the forest with `A` removed).
//!
//! [`DtrEngine`] holds the forest, precomputes plans via
//! [`crate::tree::tree_lock_plan`], executes them stepwise (so a scheduler
//! can interleave transactions and wait on lock conflicts), and implements
//! the DT3 garbage-collection check with the
//! [`crate::tree::is_tree_locked`] validator.
//!
//! Each transaction's plan, cursor and held set live in the crate's
//! per-transaction table, which DT3 walks in id order, so the transaction
//! a refused deletion names is the smallest one it would break. The
//! entities that exist are the pool the engine is built over; an access
//! set naming any other id is refused at `begin`, before DT1 touches the
//! forest.

use crate::tree::{is_tree_locked, tree_lock_plan, PlanError};
use crate::txtable::{violation_from_tx_error, TxTable};
use slp_core::{DataOp, EntityId, Operation, Step, StructuralState, TxId};
use slp_graph::Forest;
use std::collections::BTreeMap;
use std::fmt;

/// A violation of the DTR rules (or execution-order errors).
#[derive(Clone, PartialEq, Eq, Debug)]
pub enum DtrViolation {
    /// The transaction was never begun (or already finished).
    UnknownTransaction(TxId),
    /// `begin` called twice.
    AlreadyBegun(TxId),
    /// Plan construction failed.
    Plan(PlanError),
    /// The transaction's plan is already exhausted.
    PlanExhausted(TxId),
    /// Another transaction holds the lock (wait, don't abort).
    LockConflict(EntityId, TxId),
    /// The next plan step would violate tree-locking in the *current*
    /// forest (can only happen if the forest changed illegally).
    ParentNotHeld(TxId, EntityId),
    /// DT3: the node is currently locked.
    NodeLocked(EntityId),
    /// DT3: the node is not in the forest.
    NotInForest(EntityId),
    /// DT3: deleting the node would leave `tx` not tree-locked.
    WouldBreakTreeLocking(TxId),
    /// The access set names an entity outside the engine's pool: it does
    /// not exist (an id at or above [`slp_core::MAX_ENTITIES`] never does).
    EntityOutOfRange(EntityId),
}

impl fmt::Display for DtrViolation {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        use DtrViolation::*;
        match self {
            UnknownTransaction(t) => write!(f, "{t} is not an active transaction"),
            AlreadyBegun(t) => write!(f, "{t} already began"),
            Plan(e) => write!(f, "plan error: {e}"),
            PlanExhausted(t) => write!(f, "{t} has no steps left"),
            LockConflict(e, holder) => write!(f, "{e} is locked by {holder}"),
            ParentNotHeld(t, e) => write!(f, "{t} would lock {e} without holding its parent"),
            NodeLocked(e) => write!(f, "DT3: {e} is currently locked"),
            NotInForest(e) => write!(f, "DT3: {e} is not in the forest"),
            WouldBreakTreeLocking(t) => {
                write!(f, "DT3: deletion would leave {t} not tree-locked")
            }
            EntityOutOfRange(e) => write!(f, "{e} is not in the pool"),
        }
    }
}

impl std::error::Error for DtrViolation {}

violation_from_tx_error!(DtrViolation);

/// The DTR part of a transaction's rule state: its precomputed plan and
/// how far it has run.
#[derive(Clone, Debug, Default)]
struct DtrTx {
    plan: Vec<Step>,
    cursor: usize,
}

/// The dynamic tree policy engine over a fixed pool of existing entities.
#[derive(Clone, Debug)]
pub struct DtrEngine {
    forest: Forest,
    txs: TxTable<DtrTx>,
    pool: StructuralState,
}

impl DtrEngine {
    /// An engine over `pool` with an empty database forest (DT0).
    pub fn new(pool: impl IntoIterator<Item = EntityId>) -> Self {
        DtrEngine {
            forest: Forest::default(),
            txs: TxTable::default(),
            pool: StructuralState::from_entities(pool),
        }
    }

    /// The current database forest.
    pub fn forest(&self) -> &Forest {
        &self.forest
    }

    /// DT2: starts transaction `tx` with access set `ops` (entity →
    /// data operations to perform there). Joins/extends the forest as
    /// needed, precomputes the tree-locked plan, and returns a copy of it.
    /// An entity outside the pool is refused before the forest changes.
    pub fn begin(
        &mut self,
        tx: TxId,
        ops: &BTreeMap<EntityId, Vec<DataOp>>,
    ) -> Result<Vec<Step>, DtrViolation> {
        let (forest, pool) = (&mut self.forest, &self.pool);
        let st = self.txs.begin(tx, || -> Result<DtrTx, DtrViolation> {
            // Split the access set into entities already in the forest and
            // new ones; collect the distinct roots of the existing ones.
            let mut roots: Vec<EntityId> = Vec::new();
            let mut fresh: Vec<EntityId> = Vec::new();
            for &e in ops.keys() {
                match forest.root_of(e) {
                    _ if !pool.contains(e) => return Err(DtrViolation::EntityOutOfRange(e)),
                    Some(r) => {
                        if !roots.contains(&r) {
                            roots.push(r);
                        }
                    }
                    None => fresh.push(e),
                }
            }
            // DT1: connect the fresh entities into a tree (a star rooted at
            // the first), then join everything under one root.
            let mut all_roots = roots;
            if let Some((&star_root, rest)) = fresh.split_first() {
                forest.add_root(star_root).expect("fresh");
                for &e in rest {
                    forest.add_child(star_root, e).expect("fresh");
                }
                all_roots.push(star_root);
            }
            if let Some((&primary, others)) = all_roots.split_first() {
                for &r in others {
                    forest.join(primary, r).expect("roots are distinct");
                }
            }
            let plan = tree_lock_plan(forest, ops).map_err(DtrViolation::Plan)?;
            Ok(DtrTx { plan, cursor: 0 })
        })?;
        Ok(st.rule.plan.clone())
    }

    /// The next step `tx` will execute, if any.
    pub fn peek(&self, tx: TxId) -> Option<&Step> {
        let st = self.txs.get(tx).ok()?;
        st.rule.plan.get(st.rule.cursor)
    }

    /// Whether `tx`'s next step can run right now. Distinguishes lock
    /// conflicts (wait) from rule violations.
    pub fn check_step(&self, tx: TxId) -> Result<(), DtrViolation> {
        let st = self.txs.get(tx)?;
        let Some(step) = st.rule.plan.get(st.rule.cursor) else {
            return Err(DtrViolation::PlanExhausted(tx));
        };
        if step.is_lock() {
            // Tree-locking: non-first locks need the parent held.
            if !st.locked_past.is_empty() {
                let parent_held = self
                    .forest
                    .parent(step.entity)
                    .is_some_and(|p| st.holding.contains(&p));
                if !parent_held {
                    return Err(DtrViolation::ParentNotHeld(tx, step.entity));
                }
            }
            self.txs.free(tx, step.entity, DtrViolation::LockConflict)?;
        }
        Ok(())
    }

    /// Executes `tx`'s next plan step and returns it. Plans lock
    /// exclusively ([`tree_lock_plan`]).
    pub fn step(&mut self, tx: TxId) -> Result<Step, DtrViolation> {
        self.check_step(tx)?;
        let st = &mut self.txs.get_mut(tx)?.rule;
        let step = st.plan[st.cursor];
        st.cursor += 1;
        if step.is_lock() {
            self.txs.lock(tx, step.entity);
        } else if step.is_unlock() {
            self.txs.unlock(tx, step.entity)?;
        }
        Ok(step)
    }

    /// Runs `tx` to completion (only sensible when no other transaction
    /// holds conflicting locks); returns the executed steps.
    pub fn run_to_end(&mut self, tx: TxId) -> Result<Vec<Step>, DtrViolation> {
        let mut steps = Vec::new();
        while self
            .txs
            .get(tx)
            .is_ok_and(|st| st.rule.cursor < st.rule.plan.len())
        {
            steps.push(self.step(tx)?);
        }
        Ok(steps)
    }

    /// Whether `tx` has executed its whole plan.
    pub fn is_done(&self, tx: TxId) -> bool {
        self.txs
            .get(tx)
            .is_ok_and(|st| st.rule.cursor == st.rule.plan.len())
    }

    /// Finishes `tx`: releases any locks still held (normally none — the
    /// plan unlocks everything) in id order and retires it.
    pub fn finish(&mut self, tx: TxId) -> Result<Vec<Step>, DtrViolation> {
        Ok(self.txs.retire(tx)?.1)
    }

    /// DT3: whether node `n` may be deleted from the database forest right
    /// now — not locked, and every active transaction's locked transaction
    /// remains tree-locked with respect to the reduced forest `G(n)`.
    pub fn check_delete(&self, n: EntityId) -> Result<(), DtrViolation> {
        if !self.forest.contains(n) {
            return Err(DtrViolation::NotInForest(n));
        }
        if self.txs.locks.is_locked(n) {
            return Err(DtrViolation::NodeLocked(n));
        }
        let mut reduced = self.forest.clone();
        reduced.remove(n).expect("checked present");
        for st in self.txs.iter() {
            if is_tree_locked(&st.rule.plan, &reduced).is_err() {
                return Err(DtrViolation::WouldBreakTreeLocking(st.tx));
            }
        }
        Ok(())
    }

    /// DT3: deletes node `n` from the database forest.
    pub fn delete(&mut self, n: EntityId) -> Result<(), DtrViolation> {
        self.check_delete(n)?;
        self.forest.remove(n).expect("checked");
        Ok(())
    }
}

// ---------------------------------------------------------------------
// The unified policy API
// ---------------------------------------------------------------------

use crate::api::{
    respond, AccessIntent, PolicyAction, PolicyEngine, PolicyResponse, PolicyViolation,
};

/// The [`PolicyAction`] realizing one plan [`Step`] (plans contain no
/// structural steps; data steps map to their read/write/insert/delete
/// actions).
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

impl PolicyEngine for DtrEngine {
    fn name(&self) -> &'static str {
        "DTR"
    }

    /// DT2: joins/extends the forest for the declared access set and
    /// returns the precomputed tree-locked plan as actions — the caller
    /// drives [`PolicyEngine::request`] with exactly these, in order.
    fn begin(
        &mut self,
        tx: TxId,
        intent: &AccessIntent,
    ) -> Result<Option<Vec<PolicyAction>>, PolicyViolation> {
        let plan = DtrEngine::begin(self, tx, &intent.ops).map_err(PolicyViolation::Dtr)?;
        Ok(Some(plan.iter().map(action_of).collect()))
    }

    fn request(&mut self, tx: TxId, action: PolicyAction) -> PolicyResponse {
        // Without a next step, `step` names the cause: an unknown
        // transaction or an exhausted plan.
        if self.peek(tx).is_some_and(|step| action_of(step) != action) {
            return PolicyResponse::Violation(PolicyViolation::OffPlan(tx, action));
        }
        respond(self.step(tx).map(|s| vec![s]).map_err(PolicyViolation::Dtr))
    }

    fn finish(&mut self, tx: TxId) -> Result<Vec<Step>, PolicyViolation> {
        DtrEngine::finish(self, tx).map_err(PolicyViolation::Dtr)
    }

    fn abort(&mut self, tx: TxId) -> Vec<Step> {
        DtrEngine::finish(self, tx).unwrap_or_default()
    }

    fn forest(&self) -> Option<&Forest> {
        Some(&self.forest)
    }

    fn structural_state(&self) -> StructuralState {
        self.pool.clone()
    }

    fn as_any(&self) -> &dyn std::any::Any {
        self
    }

    fn as_any_mut(&mut self) -> &mut dyn std::any::Any {
        self
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn t(i: u32) -> TxId {
        TxId(i)
    }

    fn e(i: u32) -> EntityId {
        EntityId(i)
    }

    fn access() -> Vec<DataOp> {
        vec![DataOp::Read, DataOp::Write]
    }

    /// Fig. 5 walkthrough: T1 starts on a fresh forest with A(T1) =
    /// {1, 2, 3} (DT0, DT2 — forest 5a); T2 arrives accessing {3, 4}: node
    /// 4 is added and joined (DT1, DT2 — forest 5b); once T2 finishes,
    /// node 4 can be deleted because T1 stays tree-locked w.r.t. G(4).
    #[test]
    fn fig5_walkthrough() {
        let mut eng = DtrEngine::new((0..10).map(EntityId));
        assert!(eng.forest().is_empty()); // DT0
        let ops1 = BTreeMap::from([(e(1), access()), (e(2), access()), (e(3), access())]);
        let plan1 = eng.begin(t(1), &ops1).unwrap();
        assert!(!plan1.is_empty());
        assert_eq!(eng.forest().len(), 3);
        assert_eq!(eng.forest().roots().len(), 1);

        // T1 executes a little (locks its start node).
        eng.step(t(1)).unwrap();

        // T2 accesses {3, 4}: 4 is new -> added and joined under the root.
        let ops2 = BTreeMap::from([(e(3), access()), (e(4), access())]);
        let _plan2 = eng.begin(t(2), &ops2).unwrap();
        assert!(eng.forest().contains(e(4)));
        assert_eq!(eng.forest().roots().len(), 1, "one tree after joining");

        // While T2 exists, deleting 4 would break T2's tree-lockedness.
        assert!(matches!(
            eng.check_delete(e(4)),
            Err(DtrViolation::WouldBreakTreeLocking(_)) | Err(DtrViolation::NodeLocked(_))
        ));

        // Run T1 then T2 to completion (T1 first so locks don't collide).
        eng.run_to_end(t(1)).unwrap();
        eng.finish(t(1)).unwrap();
        eng.run_to_end(t(2)).unwrap();
        eng.finish(t(2)).unwrap();

        // Now node 4 can be deleted: no active transactions at all.
        assert!(eng.check_delete(e(4)).is_ok());
        eng.delete(e(4)).unwrap();
        assert!(!eng.forest().contains(e(4)));
    }

    #[test]
    fn plans_are_valid_locked_transactions() {
        let mut eng = DtrEngine::new((0..10).map(EntityId));
        let ops = BTreeMap::from([(e(1), access()), (e(2), access())]);
        let plan = eng.begin(t(1), &ops).unwrap();
        let lt = slp_core::LockedTransaction::new(t(1), plan);
        assert!(lt.validate().is_ok());
        assert!(is_tree_locked(&lt.steps, eng.forest()).is_ok());
    }

    #[test]
    fn lock_conflicts_surface_for_waiting() {
        let mut eng = DtrEngine::new((0..10).map(EntityId));
        let ops = BTreeMap::from([(e(1), access())]);
        eng.begin(t(1), &ops).unwrap();
        eng.step(t(1)).unwrap(); // T1 locks 1
        let ops2 = BTreeMap::from([(e(1), access())]);
        eng.begin(t(2), &ops2).unwrap();
        assert_eq!(
            eng.check_step(t(2)),
            Err(DtrViolation::LockConflict(e(1), t(1)))
        );
        // After T1 releases, T2 proceeds.
        eng.run_to_end(t(1)).unwrap();
        eng.finish(t(1)).unwrap();
        assert!(eng.run_to_end(t(2)).is_ok());
    }

    #[test]
    fn dt3_rejects_locked_nodes() {
        let mut eng = DtrEngine::new((0..10).map(EntityId));
        let ops = BTreeMap::from([(e(1), access())]);
        eng.begin(t(1), &ops).unwrap();
        eng.step(t(1)).unwrap(); // lock 1
        assert_eq!(eng.check_delete(e(1)), Err(DtrViolation::NodeLocked(e(1))));
    }

    #[test]
    fn dt3_rejects_absent_nodes() {
        let eng = DtrEngine::new((0..10).map(EntityId));
        assert_eq!(eng.check_delete(e(9)), Err(DtrViolation::NotInForest(e(9))));
    }

    #[test]
    fn joining_preserves_active_plans() {
        // T1 plans over tree {1, 2}; T2 arrives with {1, 9}: 9 is joined
        // under the existing root. T1's plan must still execute fine.
        let mut eng = DtrEngine::new((0..10).map(EntityId));
        let ops1 = BTreeMap::from([(e(1), access()), (e(2), access())]);
        eng.begin(t(1), &ops1).unwrap();
        let ops2 = BTreeMap::from([(e(9), access())]);
        eng.begin(t(2), &ops2).unwrap();
        assert!(eng.run_to_end(t(1)).is_ok());
        eng.finish(t(1)).unwrap();
        assert!(eng.run_to_end(t(2)).is_ok());
        eng.finish(t(2)).unwrap();
    }

    #[test]
    fn two_separate_trees_joined_on_demand() {
        let mut eng = DtrEngine::new((0..10).map(EntityId));
        // T1 creates tree {1}; T2 creates tree {2}; T3 spans both.
        eng.begin(t(1), &BTreeMap::from([(e(1), access())]))
            .unwrap();
        eng.run_to_end(t(1)).unwrap();
        eng.finish(t(1)).unwrap();
        eng.begin(t(2), &BTreeMap::from([(e(2), access())]))
            .unwrap();
        eng.run_to_end(t(2)).unwrap();
        eng.finish(t(2)).unwrap();
        assert_eq!(eng.forest().roots().len(), 2);
        eng.begin(t(3), &BTreeMap::from([(e(1), access()), (e(2), access())]))
            .unwrap();
        assert_eq!(eng.forest().roots().len(), 1, "DT1 joined the trees");
        assert!(eng.run_to_end(t(3)).is_ok());
        eng.finish(t(3)).unwrap();
    }

    #[test]
    fn begin_twice_fails() {
        let mut eng = DtrEngine::new((0..10).map(EntityId));
        eng.begin(t(1), &BTreeMap::from([(e(1), access())]))
            .unwrap();
        assert_eq!(
            eng.begin(t(1), &BTreeMap::from([(e(2), access())])),
            Err(DtrViolation::AlreadyBegun(t(1)))
        );
    }

    #[test]
    fn plan_exhaustion_reported() {
        let mut eng = DtrEngine::new((0..10).map(EntityId));
        eng.begin(t(1), &BTreeMap::from([(e(1), access())]))
            .unwrap();
        eng.run_to_end(t(1)).unwrap();
        assert!(eng.is_done(t(1)));
        assert_eq!(eng.check_step(t(1)), Err(DtrViolation::PlanExhausted(t(1))));
        assert_eq!(
            eng.step(t(1)).unwrap_err(),
            DtrViolation::PlanExhausted(t(1))
        );
    }
}
