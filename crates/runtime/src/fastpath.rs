//! Per-entity atomic lock words.
//!
//! The engine `RwLock` in `service.rs` is the runtime's serialization
//! wall — in an engine run every grant, finish, or abort takes it
//! exclusively.
//! For policies whose grant decision is purely per-entity
//! ([`slp_policies::GrantScope::PerEntity`], i.e. a plain exclusive lock
//! manager), the decision can instead be one CAS on the entity's own
//! lock word, so uncontended transactions never serialize on anything
//! wider than the entities they touch.
//!
//! "Fast path" names a *kind of run*, not a second API: this module holds
//! only the data structures. A run with a word table is a word run: the
//! service's one grant path (`LockService::poll`, through its private
//! `advance`) takes the entity's word for every `Lock` through one
//! acquire routine, the word is the whole decision, and the engine is
//! never asked for a lock. A run without one is an engine run and never
//! touches a word.
//!
//! # The lock word
//!
//! Each entity owns one `AtomicU32` holding its holder's `TxId`, or 0
//! when free. Every lock the runtime grants is exclusive, so the holder
//! is the whole state. `TxId(0)` is never issued (worker transaction ids
//! start at 1), so 0 unambiguously means *free*. The protocol has three
//! operations, all `SeqCst`: an acquire is the CAS `0 → tx`, tried only
//! when a load saw 0 (so a waiter polling a held word writes nothing); a
//! release is the CAS `tx → 0`, which fails — and changes nothing — on a
//! word `tx` does not hold; and the conflict recheck of the parking
//! protocol is a plain load. ABA is harmless: an
//! acquire whose word went free → held → free between its load and its
//! CAS still takes a free word, and only the holder moves a held word, so
//! a release's expectation `tx` is met exactly while `tx` holds it.

use slp_core::{EntityId, StructuralState, TxId};
use std::sync::atomic::{AtomicU32, Ordering};

/// The per-entity atomic lock-word table. Entity ids index the table
/// directly, up to the largest entity that exists; only an entity that
/// exists is covered, so an absent id — in a gap or past the largest —
/// is not (a word run refuses a plan that names one).
pub(crate) struct LockWords {
    words: Vec<AtomicU32>,
    /// What exists, as the engine said when the run began.
    present: StructuralState,
}

impl LockWords {
    /// A table covering exactly the entities of `present`.
    pub fn new(present: StructuralState) -> Self {
        let capacity = present.iter().last().map_or(0, |e| e.index() + 1);
        LockWords {
            words: (0..capacity).map(|_| AtomicU32::new(0)).collect(),
            present,
        }
    }

    /// Whether `e` has a lock word: whether it exists.
    pub fn covers(&self, e: EntityId) -> bool {
        self.present.contains(e)
    }

    fn word(&self, e: EntityId) -> &AtomicU32 {
        &self.words[e.0 as usize]
    }

    /// One attempt at acquiring `e` for `tx`: the CAS `0 → tx`, tried
    /// only when a load saw the word free. Returns the holder on
    /// conflict — which is `tx` itself if `tx` already holds the word (a
    /// relock, which a word run refuses before it starts). A failed CAS
    /// saw another holder, so it is a conflict too, never a retry.
    pub fn try_acquire(&self, e: EntityId, tx: TxId) -> Result<(), TxId> {
        let word = self.word(e);
        match word.load(Ordering::SeqCst) {
            0 => word
                .compare_exchange(0, tx.0, Ordering::SeqCst, Ordering::SeqCst)
                .map(|_| ())
                .map_err(TxId),
            holder => Err(TxId(holder)),
        }
    }

    /// Releases `tx`'s hold on `e`: the CAS `tx → 0`. Returns `true` iff
    /// `tx` held the word (the caller wakes that entity's stripe). A word
    /// `tx` does not hold is left untouched (the service releases by
    /// scanning recorded unlock steps, which may name entities the table
    /// does not cover).
    pub fn release(&self, e: EntityId, tx: TxId) -> bool {
        self.covers(e)
            && self
                .word(e)
                .compare_exchange(tx.0, 0, Ordering::SeqCst, Ordering::SeqCst)
                .is_ok()
    }

    /// The holder a requester conflicts with right now, if any (the
    /// post-generation-read recheck of the parking protocol).
    pub fn conflicting_holder(&self, e: EntityId) -> Option<TxId> {
        match self.word(e).load(Ordering::SeqCst) {
            0 => None,
            holder => Some(TxId(holder)),
        }
    }

    /// Whether every word is free (end-of-run quiescence assertion).
    pub fn quiescent(&self) -> bool {
        self.words.iter().all(|w| w.load(Ordering::SeqCst) == 0)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn e(i: u32) -> EntityId {
        EntityId(i)
    }

    fn t(i: u32) -> TxId {
        TxId(i)
    }

    #[test]
    fn exclusive_acquire_conflicts_and_releases() {
        let words = LockWords::new(StructuralState::from_entities((0..4).map(EntityId)));
        assert_eq!(words.try_acquire(e(1), t(1)), Ok(()));
        assert_eq!(words.conflicting_holder(e(1)), Some(t(1)));
        // Conflicts name the holder; a self-relock names the requester.
        assert_eq!(words.try_acquire(e(1), t(2)), Err(t(1)));
        assert_eq!(words.try_acquire(e(1), t(1)), Err(t(1)));
        assert_eq!(words.conflicting_holder(e(1)), Some(t(1)));
        assert!(words.release(e(1), t(1)), "release frees the word");
        assert_eq!(words.conflicting_holder(e(1)), None);
        assert!(words.quiescent());
        // The freed word is reacquirable.
        assert_eq!(words.try_acquire(e(1), t(2)), Ok(()));
        assert!(words.release(e(1), t(2)));
    }

    #[test]
    fn release_of_unheld_words_is_a_tolerated_noop() {
        let words = LockWords::new(StructuralState::from_entities([e(0), e(2)]));
        assert!(!words.release(e(0), t(1)), "free word");
        assert!(!words.release(e(9), t(1)), "past capacity");
        assert!(!words.covers(e(1)) && !words.release(e(1), t(1)), "a gap");
        assert_eq!(words.try_acquire(e(0), t(1)), Ok(()));
        assert!(!words.release(e(0), t(2)), "wrong holder");
        assert_eq!(words.conflicting_holder(e(0)), Some(t(1)));
    }
}
