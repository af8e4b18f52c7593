//! Per-entity atomic lock words and the waiter-sharded waits-for graph.
//!
//! The engine `RwLock` in `service.rs` is the runtime's serialization
//! wall — an engine-mode grant, finish, or abort takes it exclusively.
//! For policies whose grant decision is purely per-entity
//! ([`slp_policies::GrantScope::PerEntity`], i.e. a plain exclusive lock
//! manager), the decision can instead be one CAS on the entity's own
//! lock word, so uncontended transactions never serialize on anything
//! wider than the entities they touch.
//!
//! "Fast path" names a *mode of an attempt*, not a second API: this
//! module holds only the data structures. The service has one request
//! primitive (`LockService::request`), which takes a covered entity's
//! word for every `Lock` — words mode and engine mode alike — through
//! one acquire routine; in words mode the word is the whole decision,
//! in engine mode it comes before the engine's own ruling.
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
//!
//! # Waiter-sharded waits-for graph
//!
//! The PR-5 waits-for map was one global mutex — for words-mode
//! attempts it would become the new wall. [`WaitGraph`] shards the edge map by the
//! *waiter* (the potential deadlock victim): publishing or retracting an
//! edge touches only the waiter's own shard, and the cycle walk crosses
//! shards one short lock at a time. The walk is therefore not atomic
//! with the publish; detection stays complete because every waiter
//! re-publishes its edge (fresh holder) and re-walks before every park —
//! in a real deadlock all members stay parked with their edges
//! published, so whichever member published last walks over the complete
//! cycle and aborts (the publish-then-scan argument). A non-atomic walk
//! can transiently observe edges from different instants; a cycle is
//! therefore confirmed by a second walk before it is reported, so a
//! mid-walk retraction cannot manufacture a victim out of an
//! already-resolved conflict.

use rustc_hash::FxHashMap;
use slp_core::{EntityId, TxId};
use std::sync::atomic::{AtomicU32, Ordering};
use std::sync::Mutex;

/// The per-entity atomic lock-word table. Entity ids index the table
/// directly; ids at or past the capacity are simply not covered (their
/// requests must take the engine path).
pub(crate) struct LockWords {
    words: Vec<AtomicU32>,
}

impl LockWords {
    /// A table covering entity ids `0..capacity`.
    pub fn new(capacity: usize) -> Self {
        LockWords {
            words: (0..capacity).map(|_| AtomicU32::new(0)).collect(),
        }
    }

    /// The covered id range's end.
    pub fn capacity(&self) -> usize {
        self.words.len()
    }

    /// Whether `e` has a lock word.
    pub fn covers(&self, e: EntityId) -> bool {
        (e.0 as usize) < self.words.len()
    }

    fn word(&self, e: EntityId) -> &AtomicU32 {
        &self.words[e.0 as usize]
    }

    /// One attempt at acquiring `e` for `tx`: the CAS `0 → tx`, tried
    /// only when a load saw the word free. Returns the holder on
    /// conflict — which is `tx` itself if `tx` already holds the word (a
    /// relock the caller must route to the engine for the policy's own
    /// verdict). A failed CAS saw another holder, so it is a conflict
    /// too, never a retry.
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
    /// scanning recorded unlock steps, which may cover entities past the
    /// table's capacity).
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

/// The waits-for graph, sharded by waiter (= potential victim). See the
/// module docs for the completeness and confirmation arguments.
pub(crate) struct WaitGraph {
    shards: Vec<Mutex<FxHashMap<TxId, TxId>>>,
}

impl WaitGraph {
    /// A graph over `shards` (at least one) waiter shards.
    pub fn new(shards: usize) -> Self {
        WaitGraph {
            shards: (0..shards.max(1))
                .map(|_| Mutex::new(FxHashMap::default()))
                .collect(),
        }
    }

    fn shard(&self, tx: TxId) -> &Mutex<FxHashMap<TxId, TxId>> {
        &self.shards[tx.0 as usize % self.shards.len()]
    }

    fn next(&self, tx: TxId) -> Option<TxId> {
        self.shard(tx)
            .lock()
            .expect("waits-for shard poisoned")
            .get(&tx)
            .copied()
    }

    /// Publishes the edge `tx → holder` and walks the chain for a cycle
    /// back to `tx`: `true` iff this edge closed a (doubly confirmed)
    /// deadlock — the requester aborts, as in the simulator. The walk
    /// crosses shards one lock at a time; a cycle found once is walked
    /// again before being reported, so edges observed at different
    /// instants cannot fabricate a victim.
    pub fn note(&self, tx: TxId, holder: TxId) -> bool {
        self.shard(tx)
            .lock()
            .expect("waits-for shard poisoned")
            .insert(tx, holder);
        self.cycle_through(tx) && self.cycle_through(tx)
    }

    /// Retracts `tx`'s edge (its blocked request was granted, or it
    /// aborts).
    pub fn clear(&self, tx: TxId) {
        self.shard(tx)
            .lock()
            .expect("waits-for shard poisoned")
            .remove(&tx);
    }

    /// One walk from `tx` along current edges: `true` iff it returns to
    /// `tx`. A repeated intermediate node is a cycle among *other*
    /// transactions — they resolve it, we don't.
    fn cycle_through(&self, tx: TxId) -> bool {
        let Some(mut cur) = self.next(tx) else {
            return false;
        };
        let mut visited: Vec<TxId> = Vec::new();
        loop {
            if cur == tx {
                return true;
            }
            if visited.contains(&cur) {
                return false;
            }
            visited.push(cur);
            match self.next(cur) {
                Some(n) => cur = n,
                None => return false,
            }
        }
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
        let words = LockWords::new(4);
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
        let words = LockWords::new(2);
        assert!(!words.release(e(0), t(1)), "free word");
        assert!(!words.release(e(9), t(1)), "past capacity");
        assert_eq!(words.try_acquire(e(0), t(1)), Ok(()));
        assert!(!words.release(e(0), t(2)), "wrong holder");
        assert_eq!(words.conflicting_holder(e(0)), Some(t(1)));
    }

    #[test]
    fn wait_graph_detects_cycles_across_shards() {
        let g = WaitGraph::new(4);
        // t1 → t2 → t3, no cycle yet (ids land in distinct shards).
        assert!(!g.note(t(1), t(2)));
        assert!(!g.note(t(2), t(3)));
        // t3 → t1 closes the cycle; t3 is the victim.
        assert!(g.note(t(3), t(1)));
        g.clear(t(3));
        // With t3's edge retracted the cycle is open again.
        assert!(!g.note(t(1), t(2)));
        // A foreign cycle (not through the walker) is not ours to break.
        assert!(g.note(t(2), t(1)), "two-cycle through the inserter");
        g.clear(t(2));
        assert!(!g.note(t(4), t(1)), "chain dead-ends outside the cycle");
    }

    #[test]
    fn wait_graph_single_shard_still_terminates() {
        let g = WaitGraph::new(1);
        assert!(!g.note(t(2), t(4)));
        assert!(g.note(t(4), t(2)), "closing a 2-cycle names the closer");
        // A walker outside that cycle terminates on the visited check
        // and is not chosen as a victim for someone else's deadlock.
        assert!(!g.note(t(1), t(2)), "foreign cycle: not ours to break");
    }

    #[test]
    fn wait_graph_refresh_overwrites_the_edge() {
        let g = WaitGraph::new(8);
        assert!(!g.note(t(1), t(2)));
        // The holder moved on; refreshing points the edge at the fresh
        // holder (PR-6 discipline), and the old edge is gone.
        assert!(!g.note(t(1), t(3)));
        assert!(!g.note(t(2), t(1)), "t1 no longer waits on t2's chain");
        assert!(g.note(t(3), t(1)), "the fresh edge closes this cycle");
    }
}
