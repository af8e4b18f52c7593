//! The per-transaction rule state every global-scope engine keeps.
//!
//! The DDAG, altruistic and DTR engines all decide a grant from what an
//! active transaction locked in the past and what it holds now.
//! [`TxTable`] keeps that state once for the three of them: one slot per
//! active transaction in a `Vec` ordered by [`TxId`] and found by binary
//! search, each slot holding short unsorted `Vec`s (a transaction locks a
//! region, not the database) and one engine-specific part. The table also
//! owns the engine's [`LockTable`], so the lock path — the entity-range
//! check, the grant, the release and the release of everything at retire
//! — is written once and keeps both views of a lock in step.
//!
//! Whatever leaves the table leaves in a fixed order: [`TxTable::iter`]
//! walks slots by `TxId`, and [`TxTable::holding`] / [`TxTable::retire`]
//! hand held entities out ascending. Each engine maps a [`TxError`] onto
//! its own violation enum.

use slp_core::{EntityId, LockMode, LockTable, Step, TxId, MAX_ENTITIES};

/// What the table refuses; each engine has a violation for every case.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub(crate) enum TxError {
    /// `begin` for a transaction that is already active.
    AlreadyBegun(TxId),
    /// The transaction was never begun (or already retired).
    Unknown(TxId),
    /// The entity id is at or above [`MAX_ENTITIES`]: no lock table is
    /// sized by it.
    OutOfRange(EntityId),
}

/// `From<TxError>` for an engine's violation enum, whose variants for the
/// three cases are `AlreadyBegun`, `UnknownTransaction` and
/// `EntityOutOfRange`.
macro_rules! violation_from_tx_error {
    ($v:ident) => {
        impl From<$crate::txtable::TxError> for $v {
            fn from(e: $crate::txtable::TxError) -> Self {
                use $crate::txtable::TxError;
                match e {
                    TxError::AlreadyBegun(t) => $v::AlreadyBegun(t),
                    TxError::Unknown(t) => $v::UnknownTransaction(t),
                    TxError::OutOfRange(e) => $v::EntityOutOfRange(e),
                }
            }
        }
    };
}
pub(crate) use violation_from_tx_error;

/// One active transaction's rule state.
#[derive(Clone, Debug)]
pub(crate) struct TxSlot<R> {
    pub(crate) tx: TxId,
    /// Every entity locked so far, in lock order.
    pub(crate) locked_past: Vec<EntityId>,
    /// The entities held now, unsorted.
    pub(crate) holding: Vec<EntityId>,
    /// The engine's own part.
    pub(crate) rule: R,
}

impl<R> TxSlot<R> {
    /// `Ok` if the transaction holds `e`, else the engine's `not_held`.
    pub(crate) fn holds<E>(&self, e: EntityId, not_held: fn(TxId, EntityId) -> E) -> Result<(), E> {
        if self.holding.contains(&e) {
            Ok(())
        } else {
            Err(not_held(self.tx, e))
        }
    }
}

/// The active transactions' rule state and the locks they hold.
#[derive(Clone, Debug, Default)]
pub(crate) struct TxTable<R> {
    /// Sorted by `tx`.
    slots: Vec<TxSlot<R>>,
    pub(crate) locks: LockTable,
}

/// The lock path's range check: an id at or above [`MAX_ENTITIES`] names
/// no entity any per-entity table holds.
pub(crate) fn in_range(e: EntityId) -> Result<(), TxError> {
    if e.0 >= MAX_ENTITIES {
        return Err(TxError::OutOfRange(e));
    }
    Ok(())
}

impl<R> TxTable<R> {
    fn index(&self, tx: TxId) -> Result<usize, TxError> {
        self.slots
            .binary_search_by_key(&tx, |s| s.tx)
            .map_err(|_| TxError::Unknown(tx))
    }

    /// Opens a slot for `tx` whose rule part `make` builds; `make` runs
    /// only once `tx` is known to be new.
    pub(crate) fn begin<E: From<TxError>>(
        &mut self,
        tx: TxId,
        make: impl FnOnce() -> Result<R, E>,
    ) -> Result<&mut TxSlot<R>, E> {
        let Err(i) = self.slots.binary_search_by_key(&tx, |s| s.tx) else {
            return Err(TxError::AlreadyBegun(tx).into());
        };
        let slot = TxSlot {
            tx,
            locked_past: Vec::new(),
            holding: Vec::new(),
            rule: make()?,
        };
        self.slots.insert(i, slot);
        Ok(&mut self.slots[i])
    }

    pub(crate) fn get(&self, tx: TxId) -> Result<&TxSlot<R>, TxError> {
        Ok(&self.slots[self.index(tx)?])
    }

    pub(crate) fn get_mut(&mut self, tx: TxId) -> Result<&mut TxSlot<R>, TxError> {
        let i = self.index(tx)?;
        Ok(&mut self.slots[i])
    }

    /// The active transactions, by `TxId`.
    pub(crate) fn iter(&self) -> impl Iterator<Item = &TxSlot<R>> {
        self.slots.iter()
    }

    /// The entities `tx` holds, ascending (none if it is not active).
    pub(crate) fn holding(&self, tx: TxId) -> Vec<EntityId> {
        let mut held = self.get(tx).map(|s| s.holding.clone()).unwrap_or_default();
        held.sort_unstable();
        held
    }

    /// The first check of every lock: `tx`'s slot, and `e` in range.
    pub(crate) fn lockable(&self, tx: TxId, e: EntityId) -> Result<&TxSlot<R>, TxError> {
        let slot = self.get(tx)?;
        in_range(e)?;
        Ok(slot)
    }

    /// `Ok` if no transaction but `tx` holds `e`, else the engine's
    /// `conflict(e, holder)`.
    pub(crate) fn free<E>(
        &self,
        tx: TxId,
        e: EntityId,
        conflict: fn(EntityId, TxId) -> E,
    ) -> Result<(), E> {
        match self.locks.conflicting_holder(tx, e, LockMode::Exclusive) {
            Some(holder) => Err(conflict(e, holder)),
            None => Ok(()),
        }
    }

    /// Grants `e` to `tx` exclusively, which the engine has checked.
    /// Emits `(LX e)`.
    pub(crate) fn lock(&mut self, tx: TxId, e: EntityId) -> Step {
        let slot = self.get_mut(tx).expect("the engine checked the lock");
        slot.locked_past.push(e);
        slot.holding.push(e);
        self.locks.grant(tx, e, LockMode::Exclusive);
        Step::lock_exclusive(e)
    }

    /// Releases `e` if `tx` holds it; `false` if it does not.
    pub(crate) fn unlock(&mut self, tx: TxId, e: EntityId) -> Result<bool, TxError> {
        let slot = self.get_mut(tx)?;
        let Some(i) = slot.holding.iter().position(|&h| h == e) else {
            return Ok(false);
        };
        slot.holding.swap_remove(i);
        self.locks.release(tx, e, LockMode::Exclusive);
        Ok(true)
    }

    /// Retires `tx`: releases what it holds, ascending, and returns its
    /// rule part with the unlock steps.
    pub(crate) fn retire(&mut self, tx: TxId) -> Result<(R, Vec<Step>), TxError> {
        let mut slot = self.slots.remove(self.index(tx)?);
        slot.holding.sort_unstable();
        let mut steps = Vec::with_capacity(slot.holding.len());
        for &e in &slot.holding {
            self.locks.release(tx, e, LockMode::Exclusive);
            steps.push(Step::unlock_exclusive(e));
        }
        Ok((slot.rule, steps))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Slots iterate by id whatever the begin order; held entities leave
    /// ascending whatever the lock order.
    #[test]
    fn slots_iterate_by_id_and_held_entities_leave_ascending() {
        let mut table = TxTable::<()>::default();
        for tx in [3, 1, 2].map(TxId) {
            table.begin(tx, || Ok::<_, TxError>(())).unwrap();
        }
        assert!(table.iter().map(|s| s.tx).eq([1, 2, 3].map(TxId)));
        for e in [5, 0, 3].map(EntityId) {
            table.lock(TxId(2), e);
        }
        assert_eq!(table.unlock(TxId(2), EntityId(0)), Ok(true));
        assert_eq!(table.holding(TxId(2)), [3, 5].map(EntityId));
        let ((), steps) = table.retire(TxId(2)).unwrap();
        assert_eq!(steps, [3, 5].map(|e| Step::unlock_exclusive(EntityId(e))));
        assert!(!table.locks.is_locked(EntityId(5)));
    }
}
