//! Transactions and locked transactions (Section 2).
//!
//! A *transaction* is a finite sequence of data steps over `O × U`. A
//! *locked transaction* additionally contains lock/unlock steps and must be
//! *well formed*: every `INSERT`/`DELETE`/`WRITE` on an entity happens while
//! the transaction holds an exclusive lock on it, and every `READ` while it
//! holds a shared or exclusive lock. The paper further assumes a transaction
//! locks each entity **at most once** (a policy permitting relocking is
//! trivially unsafe).

use crate::entity::EntityId;
use crate::ops::{LockMode, Operation};
use crate::step::Step;
use std::collections::HashMap;
use std::fmt;

/// A compact transaction identifier.
#[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct TxId(pub u32);

impl TxId {
    /// The id as a usable index.
    #[inline]
    pub fn index(self) -> usize {
        self.0 as usize
    }
}

impl fmt::Debug for TxId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "T{}", self.0)
    }
}

impl fmt::Display for TxId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "T{}", self.0)
    }
}

/// A violation of locked-transaction discipline, found by
/// [`LockedTransaction::validate`].
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum TxnViolation {
    /// A data step executed without the required lock being held.
    NotWellFormed {
        /// Index of the offending step within the transaction.
        pos: usize,
        /// The lock mode the step requires.
        required: LockMode,
    },
    /// The transaction locked an entity it was already holding a lock on,
    /// or locked an entity for the second time (the paper's at-most-once
    /// assumption).
    RelockedEntity {
        /// Index of the second lock step.
        pos: usize,
    },
    /// An unlock step for an entity/mode the transaction does not hold.
    UnlockNotHeld {
        /// Index of the offending unlock step.
        pos: usize,
    },
}

impl fmt::Display for TxnViolation {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            TxnViolation::NotWellFormed { pos, required } => write!(
                f,
                "step {pos} performs a data operation without holding the required {required} lock"
            ),
            TxnViolation::RelockedEntity { pos } => {
                write!(
                    f,
                    "step {pos} locks an entity the transaction already locked"
                )
            }
            TxnViolation::UnlockNotHeld { pos } => {
                write!(
                    f,
                    "step {pos} unlocks an entity/mode the transaction does not hold"
                )
            }
        }
    }
}

impl std::error::Error for TxnViolation {}

/// An (unlocked) transaction: a finite sequence of data steps.
#[derive(Clone, PartialEq, Eq, Hash, Debug)]
pub struct Transaction {
    /// The transaction's identifier.
    pub id: TxId,
    /// The data steps, in program order.
    pub steps: Vec<Step>,
}

impl Transaction {
    /// Creates a transaction. All steps must be data steps.
    ///
    /// # Panics
    ///
    /// Panics if any step is a lock or unlock step.
    pub fn new(id: TxId, steps: Vec<Step>) -> Self {
        assert!(
            steps.iter().all(Step::is_data),
            "unlocked transactions contain only data steps"
        );
        Transaction { id, steps }
    }

    /// The set of entities this transaction operates on, in first-use order.
    pub fn entities(&self) -> Vec<EntityId> {
        let mut seen = Vec::new();
        for s in &self.steps {
            if !seen.contains(&s.entity) {
                seen.push(s.entity);
            }
        }
        seen
    }
}

/// A locked transaction: a finite sequence over `O_L × U`.
#[derive(Clone, PartialEq, Eq, Hash, Debug)]
pub struct LockedTransaction {
    /// The transaction's identifier.
    pub id: TxId,
    /// The steps, in program order.
    pub steps: Vec<Step>,
}

impl LockedTransaction {
    /// Creates a locked transaction without validating it; call
    /// [`validate`](Self::validate) to check well-formedness.
    pub fn new(id: TxId, steps: Vec<Step>) -> Self {
        LockedTransaction { id, steps }
    }

    /// Number of steps.
    pub fn len(&self) -> usize {
        self.steps.len()
    }

    /// Whether the transaction has no steps.
    pub fn is_empty(&self) -> bool {
        self.steps.is_empty()
    }

    /// The mode in which the transaction holds a lock on `entity` after
    /// executing its first `prefix_len` steps, if any.
    ///
    /// Per the paper: `T` holds an exclusive (shared) lock on `A` in prefix
    /// `T'` if there is an `(LX A)` (`(LS A)`) step in `T'` not followed in
    /// `T'` by a matching unlock.
    pub fn holds_lock_at(&self, prefix_len: usize, entity: EntityId) -> Option<LockMode> {
        let mut held = None;
        for step in &self.steps[..prefix_len.min(self.steps.len())] {
            if step.entity != entity {
                continue;
            }
            match step.op {
                Operation::Lock(m) => held = Some(m),
                Operation::Unlock(m) if held == Some(m) => held = None,
                _ => {}
            }
        }
        held
    }

    /// All locks held after the first `prefix_len` steps.
    pub fn held_locks_at(&self, prefix_len: usize) -> HashMap<EntityId, LockMode> {
        let mut held = HashMap::new();
        for step in &self.steps[..prefix_len.min(self.steps.len())] {
            match step.op {
                Operation::Lock(m) => {
                    held.insert(step.entity, m);
                }
                Operation::Unlock(m) if held.get(&step.entity) == Some(&m) => {
                    held.remove(&step.entity);
                }
                Operation::Unlock(_) => {}
                _ => {}
            }
        }
        held
    }

    /// Validates lock discipline: well-formedness, at-most-once locking,
    /// and unlock-only-what-you-hold. Returns the first violation.
    pub fn validate(&self) -> Result<(), TxnViolation> {
        let mut held: HashMap<EntityId, LockMode> = HashMap::new();
        let mut ever_locked: Vec<EntityId> = Vec::new();
        for (pos, step) in self.steps.iter().enumerate() {
            match step.op {
                Operation::Lock(mode) => {
                    if held.contains_key(&step.entity) || ever_locked.contains(&step.entity) {
                        return Err(TxnViolation::RelockedEntity { pos });
                    }
                    held.insert(step.entity, mode);
                    ever_locked.push(step.entity);
                }
                Operation::Unlock(mode) => {
                    if held.get(&step.entity) != Some(&mode) {
                        return Err(TxnViolation::UnlockNotHeld { pos });
                    }
                    held.remove(&step.entity);
                }
                Operation::Data(d) => {
                    let required = d.required_mode();
                    let ok = held
                        .get(&step.entity)
                        .is_some_and(|have| have.covers(required));
                    if !ok {
                        return Err(TxnViolation::NotWellFormed { pos, required });
                    }
                }
            }
        }
        Ok(())
    }

    /// Whether the transaction obeys the two-phase rule: no lock step after
    /// any unlock step.
    pub fn is_two_phase(&self) -> bool {
        let first_unlock = self.steps.iter().position(Step::is_unlock);
        match first_unlock {
            None => true,
            Some(u) => self.steps[u..].iter().all(|s| !s.is_lock()),
        }
    }

    /// The index of the *locked point*: the step at which the transaction
    /// acquires its last lock (`None` if it never locks). Used by the
    /// altruistic locking policy (Section 5).
    pub fn locked_point(&self) -> Option<usize> {
        self.steps.iter().rposition(Step::is_lock)
    }

    /// The data-step projection: the unlocked transaction `T` such that this
    /// locked transaction is one of the ways of locking `T` (`P(T, T̄)`).
    pub fn unlocked(&self) -> Transaction {
        Transaction::new(
            self.id,
            self.steps.iter().copied().filter(Step::is_data).collect(),
        )
    }

    /// Positions of all lock steps, in order.
    pub fn lock_positions(&self) -> Vec<usize> {
        (0..self.steps.len())
            .filter(|&i| self.steps[i].is_lock())
            .collect()
    }

    /// The entities the transaction ever locks, in lock order.
    pub fn locked_entities(&self) -> Vec<EntityId> {
        self.steps
            .iter()
            .filter(|s| s.is_lock())
            .map(|s| s.entity)
            .collect()
    }

    /// Condition (2a)'s rule for a sink of `D(S')`: within its first
    /// `prefix_len` steps the transaction locked `entity` in a mode that
    /// conflicts with `mode`, unlocked it, and no longer holds it.
    pub fn released_conflicting_lock_by(
        &self,
        prefix_len: usize,
        entity: EntityId,
        mode: LockMode,
    ) -> bool {
        let prefix = &self.steps[..prefix_len.min(self.steps.len())];
        let locked_conflicting = prefix.iter().any(|s| {
            matches!(s.op, Operation::Lock(m) if s.entity == entity && !m.compatible_with(mode))
        });
        let unlocked = prefix.iter().any(|s| s.is_unlock() && s.entity == entity);
        locked_conflicting && unlocked && self.holds_lock_at(prefix_len, entity).is_none()
    }

    /// Whether the prefix of length `prefix_len` contains an unlock step.
    pub fn unlocked_anything_by(&self, prefix_len: usize) -> bool {
        self.steps[..prefix_len.min(self.steps.len())]
            .iter()
            .any(Step::is_unlock)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn e(i: u32) -> EntityId {
        EntityId(i)
    }

    fn tx(steps: Vec<Step>) -> LockedTransaction {
        LockedTransaction::new(TxId(0), steps)
    }

    #[test]
    fn well_formed_read_under_shared_lock() {
        let t = tx(vec![
            Step::lock_shared(e(0)),
            Step::read(e(0)),
            Step::unlock_shared(e(0)),
        ]);
        assert_eq!(t.validate(), Ok(()));
    }

    #[test]
    fn write_requires_exclusive_lock() {
        let t = tx(vec![
            Step::lock_shared(e(0)),
            Step::write(e(0)),
            Step::unlock_shared(e(0)),
        ]);
        assert_eq!(
            t.validate(),
            Err(TxnViolation::NotWellFormed {
                pos: 1,
                required: LockMode::Exclusive
            })
        );
    }

    #[test]
    fn insert_requires_lock_before_entity_exists() {
        // A transaction must lock an entity before inserting it even though
        // the entity does not yet exist in the database.
        let ok = tx(vec![
            Step::lock_exclusive(e(0)),
            Step::insert(e(0)),
            Step::unlock_exclusive(e(0)),
        ]);
        assert_eq!(ok.validate(), Ok(()));
        let bad = tx(vec![Step::insert(e(0))]);
        assert!(matches!(
            bad.validate(),
            Err(TxnViolation::NotWellFormed { pos: 0, .. })
        ));
    }

    #[test]
    fn exclusive_lock_covers_reads() {
        let t = tx(vec![
            Step::lock_exclusive(e(0)),
            Step::read(e(0)),
            Step::write(e(0)),
            Step::unlock_exclusive(e(0)),
        ]);
        assert_eq!(t.validate(), Ok(()));
    }

    #[test]
    fn relocking_is_rejected_even_after_unlock() {
        let t = tx(vec![
            Step::lock_exclusive(e(0)),
            Step::unlock_exclusive(e(0)),
            Step::lock_exclusive(e(0)),
        ]);
        assert_eq!(t.validate(), Err(TxnViolation::RelockedEntity { pos: 2 }));
    }

    #[test]
    fn unlock_mode_must_match() {
        let t = tx(vec![Step::lock_shared(e(0)), Step::unlock_exclusive(e(0))]);
        assert_eq!(t.validate(), Err(TxnViolation::UnlockNotHeld { pos: 1 }));
    }

    #[test]
    fn unlock_without_lock_is_rejected() {
        let t = tx(vec![Step::unlock_shared(e(0))]);
        assert_eq!(t.validate(), Err(TxnViolation::UnlockNotHeld { pos: 0 }));
    }

    #[test]
    fn two_phase_detection() {
        let two_phase = tx(vec![
            Step::lock_exclusive(e(0)),
            Step::lock_exclusive(e(1)),
            Step::write(e(0)),
            Step::unlock_exclusive(e(0)),
            Step::unlock_exclusive(e(1)),
        ]);
        assert!(two_phase.is_two_phase());
        let not_two_phase = tx(vec![
            Step::lock_exclusive(e(0)),
            Step::unlock_exclusive(e(0)),
            Step::lock_exclusive(e(1)),
            Step::unlock_exclusive(e(1)),
        ]);
        assert!(!not_two_phase.is_two_phase());
    }

    #[test]
    fn locked_point_is_last_lock() {
        let t = tx(vec![
            Step::lock_exclusive(e(0)),
            Step::write(e(0)),
            Step::unlock_exclusive(e(0)),
            Step::lock_exclusive(e(1)),
            Step::unlock_exclusive(e(1)),
        ]);
        assert_eq!(t.locked_point(), Some(3));
        assert_eq!(tx(vec![]).locked_point(), None);
    }

    #[test]
    fn holds_lock_respects_prefix() {
        let t = tx(vec![
            Step::lock_exclusive(e(0)),
            Step::write(e(0)),
            Step::unlock_exclusive(e(0)),
        ]);
        assert_eq!(t.holds_lock_at(0, e(0)), None);
        assert_eq!(t.holds_lock_at(1, e(0)), Some(LockMode::Exclusive));
        assert_eq!(t.holds_lock_at(2, e(0)), Some(LockMode::Exclusive));
        assert_eq!(t.holds_lock_at(3, e(0)), None);
        // Prefix lengths beyond the transaction are clamped.
        assert_eq!(t.holds_lock_at(99, e(0)), None);
    }

    #[test]
    fn unlocked_projection_drops_lock_steps() {
        let t = tx(vec![
            Step::lock_exclusive(e(0)),
            Step::insert(e(0)),
            Step::unlock_exclusive(e(0)),
        ]);
        assert_eq!(t.unlocked().steps, vec![Step::insert(e(0))]);
    }

    #[test]
    fn unlocked_anything_by_prefix() {
        let t = tx(vec![
            Step::lock_exclusive(e(0)),
            Step::unlock_exclusive(e(0)),
            Step::lock_exclusive(e(1)),
        ]);
        assert!(!t.unlocked_anything_by(1));
        assert!(t.unlocked_anything_by(2));
    }

    #[test]
    #[should_panic(expected = "only data steps")]
    fn unlocked_transactions_reject_lock_steps() {
        let _ = Transaction::new(TxId(0), vec![Step::lock_shared(e(0))]);
    }

    #[test]
    fn entities_in_first_use_order() {
        let t = Transaction::new(
            TxId(1),
            vec![Step::read(e(2)), Step::write(e(0)), Step::read(e(2))],
        );
        assert_eq!(t.entities(), vec![e(2), e(0)]);
    }
}
