//! Two-phase locking (2PL) — the baseline safe policy.
//!
//! Theorem 1's condition 1 requires the culprit transaction to lock an
//! entity *after* unlocking another; if every transaction is two-phase, no
//! canonical nonserializable schedule exists and the system is safe. This
//! module provides generators that lock an arbitrary (unlocked) transaction
//! two-phase, plus the validator.

use slp_core::{DataOp, LockMode, LockedTransaction, Operation, Step, Transaction};
use std::collections::BTreeMap;

/// The lock mode a transaction needs on an entity given all its operations
/// on that entity: shared iff it only ever reads it.
fn needed_mode(t: &Transaction, entity: slp_core::EntityId) -> LockMode {
    let only_reads = t
        .steps
        .iter()
        .filter(|s| s.entity == entity)
        .all(|s| s.op == Operation::Data(DataOp::Read));
    if only_reads {
        LockMode::Shared
    } else {
        LockMode::Exclusive
    }
}

/// Locks `t` with **strict 2PL**: each entity is locked (in the weakest
/// sufficient mode) immediately before the transaction's first operation on
/// it, and every lock is released after the last data step.
pub fn lock_strict(t: &Transaction) -> LockedTransaction {
    let mut steps = Vec::with_capacity(t.steps.len() * 2);
    let mut locked: BTreeMap<slp_core::EntityId, LockMode> = BTreeMap::new();
    for s in &t.steps {
        locked.entry(s.entity).or_insert_with(|| {
            let mode = needed_mode(t, s.entity);
            steps.push(Step::lock(mode, s.entity));
            mode
        });
        steps.push(*s);
    }
    for (&e, &mode) in &locked {
        steps.push(Step::unlock(mode, e));
    }
    LockedTransaction::new(t.id, steps)
}

/// Locks `t` with **conservative 2PL**: all locks are acquired up front (in
/// entity-id order, which also makes the policy deadlock-free), all
/// released at the end.
pub fn lock_conservative(t: &Transaction) -> LockedTransaction {
    let mut modes: BTreeMap<slp_core::EntityId, LockMode> = BTreeMap::new();
    for s in &t.steps {
        modes
            .entry(s.entity)
            .or_insert_with(|| needed_mode(t, s.entity));
    }
    let mut steps = Vec::with_capacity(t.steps.len() + 2 * modes.len());
    for (&e, &mode) in &modes {
        steps.push(Step::lock(mode, e));
    }
    steps.extend(t.steps.iter().copied());
    for (&e, &mode) in &modes {
        steps.push(Step::unlock(mode, e));
    }
    LockedTransaction::new(t.id, steps)
}

/// Whether a locked transaction complies with 2PL: well formed, locks each
/// entity at most once, and acquires no lock after its first unlock.
pub fn complies(t: &LockedTransaction) -> bool {
    t.validate().is_ok() && t.is_two_phase()
}

// ---------------------------------------------------------------------
// The unified policy API
// ---------------------------------------------------------------------

use crate::altruistic::AltruisticEngine;
use crate::api::{
    AccessIntent, GrantScope, PolicyAction, PolicyEngine, PolicyResponse, PolicyViolation,
};
use slp_core::TxId;

/// Strict 2PL as an online [`PolicyEngine`].
///
/// Internally this is an [`AltruisticEngine`]: strict 2PL is altruistic
/// locking whose plans never donate, so AL2 never fires and the engine
/// serves as a plain exclusive lock manager with at-most-once
/// bookkeeping. The newtype exists so the registry and reports can tell
/// the two policies apart — the *planner* is what makes 2PL two-phase.
/// Like it, the engine exists over a fixed pool and refuses a lock on
/// any other entity.
#[derive(Clone, Debug)]
pub struct TwoPhaseEngine {
    inner: AltruisticEngine,
}

impl TwoPhaseEngine {
    /// A fresh lock manager over `pool`.
    pub fn new(pool: impl IntoIterator<Item = slp_core::EntityId>) -> Self {
        TwoPhaseEngine {
            inner: AltruisticEngine::new(pool),
        }
    }
}

impl PolicyEngine for TwoPhaseEngine {
    fn name(&self) -> &'static str {
        "2PL"
    }

    fn begin(
        &mut self,
        tx: TxId,
        intent: &AccessIntent,
    ) -> Result<Option<Vec<PolicyAction>>, PolicyViolation> {
        PolicyEngine::begin(&mut self.inner, tx, intent)
    }

    fn request(&mut self, tx: TxId, action: PolicyAction) -> PolicyResponse {
        match self.inner.request(tx, action) {
            PolicyResponse::Violation(PolicyViolation::Unsupported { action, .. }) => {
                PolicyResponse::Violation(PolicyViolation::Unsupported {
                    policy: "2PL",
                    action,
                })
            }
            response => response,
        }
    }

    fn finish(&mut self, tx: TxId) -> Result<Vec<slp_core::Step>, PolicyViolation> {
        PolicyEngine::finish(&mut self.inner, tx)
    }

    fn abort(&mut self, tx: TxId) -> Vec<slp_core::Step> {
        PolicyEngine::abort(&mut self.inner, tx)
    }

    fn structural_state(&self) -> slp_core::StructuralState {
        self.inner.structural_state()
    }

    /// 2PL grants from nothing but the entity's holder set: the inner
    /// engine is a plain lock manager, the two-phase planner never
    /// donates, so AL2 wake checks are vacuous and a per-entity lock word
    /// can take the decision. Plans outside the plain lock/access shape
    /// (donations, locked points, structural ops) are refused in a word
    /// run and need the fast path off — see [`GrantScope`].
    fn grant_scope(&self) -> GrantScope {
        GrantScope::PerEntity
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
    use slp_core::{EntityId, TxId};

    fn e(i: u32) -> EntityId {
        EntityId(i)
    }

    fn sample() -> Transaction {
        Transaction::new(
            TxId(1),
            vec![
                Step::read(e(0)),
                Step::write(e(1)),
                Step::read(e(0)),
                Step::read(e(2)),
            ],
        )
    }

    #[test]
    fn strict_locks_are_two_phase_and_well_formed() {
        let locked = lock_strict(&sample());
        assert!(complies(&locked));
    }

    #[test]
    fn conservative_locks_are_two_phase_and_well_formed() {
        let locked = lock_conservative(&sample());
        assert!(complies(&locked));
        // All three locks come first.
        assert!(locked.steps[..3].iter().all(Step::is_lock));
    }

    #[test]
    fn read_only_entities_get_shared_locks() {
        let locked = lock_strict(&sample());
        assert_eq!(
            locked.steps[0],
            Step::lock_shared(e(0)),
            "entity 0 is only read"
        );
        // Entity 1 is written: exclusive.
        assert!(locked.steps.contains(&Step::lock_exclusive(e(1))));
        assert!(!locked.steps.contains(&Step::lock_shared(e(1))));
    }

    #[test]
    fn projection_recovers_the_original_transaction() {
        let t = sample();
        for locked in [lock_strict(&t), lock_conservative(&t)] {
            assert_eq!(locked.unlocked().steps, t.steps);
        }
    }

    #[test]
    fn inserts_and_deletes_get_exclusive_locks() {
        let t = Transaction::new(TxId(2), vec![Step::insert(e(5)), Step::delete(e(6))]);
        let locked = lock_strict(&t);
        assert!(complies(&locked));
        assert!(locked.steps.contains(&Step::lock_exclusive(e(5))));
        assert!(locked.steps.contains(&Step::lock_exclusive(e(6))));
    }

    #[test]
    fn non_two_phase_fails_compliance() {
        let t = LockedTransaction::new(
            TxId(1),
            vec![
                Step::lock_exclusive(e(0)),
                Step::write(e(0)),
                Step::unlock_exclusive(e(0)),
                Step::lock_exclusive(e(1)),
                Step::write(e(1)),
                Step::unlock_exclusive(e(1)),
            ],
        );
        assert!(!complies(&t));
    }

    #[test]
    fn empty_transaction_locks_to_empty() {
        let t = Transaction::new(TxId(3), vec![]);
        assert!(lock_strict(&t).is_empty());
        assert!(lock_conservative(&t).is_empty());
    }
}
