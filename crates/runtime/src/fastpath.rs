//! Per-entity atomic lock words and the waiter-sharded waits-for graph.
//!
//! The engine `RwLock` in `service.rs` is the runtime's serialization
//! wall — an engine-mode grant, finish, or abort takes it exclusively.
//! For policies whose grant decision is purely per-entity
//! ([`slp_policies::GrantScope::PerEntity`], i.e. a plain exclusive/
//! shared lock manager), the decision can instead be one CAS on the
//! entity's own lock word, so uncontended transactions never serialize
//! on anything wider than the entities they touch.
//!
//! "Fast path" names a *mode of an attempt*, not a second API: this
//! module holds only the data structures. The service has one request
//! primitive (`LockService::request`), which takes a covered entity's
//! word for every `Lock` — words mode and engine mode alike — through
//! one acquire routine; in words mode the word is the whole decision,
//! in engine mode it comes before the engine's own ruling.
//!
//! # Lock-word layout
//!
//! Each entity owns one `AtomicU64`:
//!
//! ```text
//!  63            48 47 46            32 31                           0
//! ┌────────────────┬──┬────────────────┬──────────────────────────────┐
//! │ version (16)   │X │ readers (15)   │ holder / representative (32) │
//! └────────────────┴──┴────────────────┴──────────────────────────────┘
//! ```
//!
//! * **holder** — the exclusive holder's `TxId`, or (shared mode) the
//!   *representative* reader: the first reader of the current shared
//!   episode. The representative is a waits-for hint, not ground truth —
//!   it may have already released (see below).
//! * **readers** — the shared-holder count; zero in exclusive mode.
//! * **X** — set while exclusively held.
//! * **version** — bumped (wrapping) on every transition. The word
//!   protocol is correct without it — a free word is a free word, and
//!   only the holder mutates a held word — but the version makes every
//!   transition CAS-visible, so an ABA sequence (free → held → free
//!   between a reader's load and its CAS) can never silently satisfy a
//!   stale expectation, and a release CAS that fails is a logic bug
//!   caught by the retry loop rather than silent corruption.
//!
//! Transactions `TxId(0)` is never issued by the runtime (worker
//! transaction ids start at 1), so a zero holder field with no mode bits
//! unambiguously encodes *free*.
//!
//! # The stale-representative gap, and why it is sound
//!
//! When several readers share a word, an exclusive requester's waits-for
//! edge points at the representative only. If the representative already
//! released (its decrement leaves the field untouched), the edge
//! dead-ends at a retired transaction — walkers stop at a missing edge,
//! so no *phantom* cycle can form. A *missed* real cycle would need a
//! blocked transaction hidden behind the representative; the runtime
//! grants shared words only to single-lock read-only plans, which never
//! wait while holding, so no cycle can run through a reader at all.
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
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Mutex;

const HOLDER_MASK: u64 = 0xFFFF_FFFF;
const COUNT_SHIFT: u32 = 32;
const COUNT_MASK: u64 = 0x7FFF;
const X_BIT: u64 = 1 << 47;
const VERSION_SHIFT: u32 = 48;

#[inline]
fn pack(holder: u32, readers: u64, exclusive: bool, version: u64) -> u64 {
    // A release-mode check, not a debug_assert: a count past the field
    // width would be masked back toward zero and silently *free* a word
    // that live readers still hold — a writer's CAS could then grant
    // exclusive over them. `try_acquire` saturates before ever calling
    // pack with an overflowing count, so this is unreachable; if it
    // ever fires, corrupting the shared word table is the one thing we
    // must not do.
    assert!(
        readers <= COUNT_MASK,
        "reader count {readers} overflows the 15-bit lock-word field"
    );
    (version & 0xFFFF) << VERSION_SHIFT
        | if exclusive { X_BIT } else { 0 }
        | (readers & COUNT_MASK) << COUNT_SHIFT
        | holder as u64
}

#[inline]
fn holder_of(word: u64) -> u32 {
    (word & HOLDER_MASK) as u32
}

#[inline]
fn readers_of(word: u64) -> u64 {
    (word >> COUNT_SHIFT) & COUNT_MASK
}

#[inline]
fn is_exclusive(word: u64) -> bool {
    word & X_BIT != 0
}

#[inline]
fn version_of(word: u64) -> u64 {
    word >> VERSION_SHIFT
}

/// What a lock word currently encodes.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub(crate) enum WordState {
    /// Nobody holds the entity.
    Free,
    /// Exclusively held.
    Exclusive(TxId),
    /// Shared by `readers` transactions; `rep` is the representative
    /// (first reader of the episode — possibly already released).
    Shared {
        /// Live shared-holder count.
        readers: u64,
        /// The waits-for hint an exclusive requester should block on.
        rep: TxId,
    },
}

fn decode(word: u64) -> WordState {
    if is_exclusive(word) {
        WordState::Exclusive(TxId(holder_of(word)))
    } else if readers_of(word) > 0 {
        WordState::Shared {
            readers: readers_of(word),
            rep: TxId(holder_of(word)),
        }
    } else {
        // Every writer canonicalizes a freed word to all-zero fields
        // (the last shared release clears the representative too), so a
        // holder with no readers and no X bit is not a state this
        // protocol produces. Reading it as Free would hand the entity to
        // the next CAS over whoever the stale holder field names —
        // reject it instead of guessing.
        assert!(
            holder_of(word) == 0,
            "corrupt lock word: holder {} with no readers and no exclusive bit",
            holder_of(word)
        );
        WordState::Free
    }
}

/// The per-entity atomic lock-word table. Entity ids index the table
/// directly; ids at or past the capacity are simply not covered (their
/// requests must take the engine path).
pub(crate) struct LockWords {
    words: Vec<AtomicU64>,
}

impl LockWords {
    /// A table covering entity ids `0..capacity`.
    pub fn new(capacity: usize) -> Self {
        LockWords {
            words: (0..capacity).map(|_| AtomicU64::new(0)).collect(),
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

    fn word(&self, e: EntityId) -> &AtomicU64 {
        &self.words[e.0 as usize]
    }

    /// One CAS attempt cycle at acquiring `e` for `tx` (`shared` selects
    /// the mode). Returns the conflicting holder (or shared-episode
    /// representative) on conflict — which is `tx` itself if `tx`
    /// already holds the word exclusively (a relock the caller must
    /// route to the engine for the policy's own verdict). Internal CAS
    /// races retry; only a genuine held-by-another observation returns.
    pub fn try_acquire(&self, e: EntityId, tx: TxId, shared: bool) -> Result<(), TxId> {
        let word = self.word(e);
        let mut cur = word.load(Ordering::SeqCst);
        loop {
            let next = match decode(cur) {
                WordState::Free => pack(tx.0, u64::from(shared), !shared, version_of(cur) + 1),
                // Saturate at the 15-bit field cap: the 32768th shared
                // acquire must *conflict* (and take the park/engine
                // path), because `readers + 1` would wrap the count to
                // zero under the mask and silently free a word 32767
                // live readers still hold — the next writer's CAS would
                // then grant exclusive over all of them.
                WordState::Shared { readers, rep } if shared && readers < COUNT_MASK => {
                    pack(rep.0, readers + 1, false, version_of(cur) + 1)
                }
                WordState::Shared { rep, .. } => return Err(rep),
                WordState::Exclusive(holder) => return Err(holder),
            };
            match word.compare_exchange(cur, next, Ordering::SeqCst, Ordering::SeqCst) {
                Ok(_) => return Ok(()),
                Err(seen) => cur = seen,
            }
        }
    }

    /// Releases `tx`'s hold on `e` in the given mode. Exclusive release
    /// frees the word; shared release decrements the reader count (the
    /// representative field is left as-is — see the module docs) and
    /// frees the word when the last reader leaves. Returns `true` iff
    /// the word became free (the caller wakes that entity's stripe).
    /// A word `tx` does not hold in that mode is left untouched (the
    /// service releases by scanning recorded unlock steps, which may
    /// cover entities past the table's capacity).
    pub fn release(&self, e: EntityId, tx: TxId, shared: bool) -> bool {
        if !self.covers(e) {
            return false;
        }
        let word = self.word(e);
        let mut cur = word.load(Ordering::SeqCst);
        loop {
            let (next, freed) = match decode(cur) {
                WordState::Exclusive(holder) if !shared && holder == tx => {
                    (pack(0, 0, false, version_of(cur) + 1), true)
                }
                WordState::Shared { readers, rep } if shared => {
                    if readers == 1 {
                        (pack(0, 0, false, version_of(cur) + 1), true)
                    } else {
                        (pack(rep.0, readers - 1, false, version_of(cur) + 1), false)
                    }
                }
                _ => return false,
            };
            match word.compare_exchange(cur, next, Ordering::SeqCst, Ordering::SeqCst) {
                Ok(_) => return freed,
                Err(seen) => cur = seen,
            }
        }
    }

    /// The holder a requester in the given mode conflicts with right
    /// now, if any (the post-generation-read recheck of the parking
    /// protocol).
    pub fn conflicting_holder(&self, e: EntityId, shared: bool) -> Option<TxId> {
        match decode(self.word(e).load(Ordering::SeqCst)) {
            WordState::Free => None,
            WordState::Exclusive(holder) => Some(holder),
            WordState::Shared { .. } if shared => None,
            WordState::Shared { rep, .. } => Some(rep),
        }
    }

    /// The decoded state of `e`'s word (tests and assertions).
    #[cfg(test)]
    pub fn state(&self, e: EntityId) -> WordState {
        decode(self.word(e).load(Ordering::SeqCst))
    }

    /// Whether every word is free (end-of-run quiescence assertion).
    pub fn quiescent(&self) -> bool {
        self.words
            .iter()
            .map(|w| decode(w.load(Ordering::SeqCst)))
            .all(|s| s == WordState::Free)
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
    fn word_pack_roundtrip_and_version() {
        let w = pack(7, 0, true, 3);
        assert_eq!(holder_of(w), 7);
        assert!(is_exclusive(w));
        assert_eq!(readers_of(w), 0);
        assert_eq!(version_of(w), 3);
        let s = pack(9, 5, false, 0xFFFF);
        assert_eq!(
            decode(s),
            WordState::Shared {
                readers: 5,
                rep: t(9)
            }
        );
        // Version wraps inside its 16 bits without touching other fields.
        let wrapped = pack(9, 5, false, 0x1_0000);
        assert_eq!(version_of(wrapped), 0);
        assert_eq!(decode(wrapped), decode(s));
    }

    #[test]
    fn exclusive_acquire_conflicts_and_releases() {
        let words = LockWords::new(4);
        assert_eq!(words.try_acquire(e(1), t(1), false), Ok(()));
        assert_eq!(words.state(e(1)), WordState::Exclusive(t(1)));
        // Conflicts name the holder; a self-relock names the requester.
        assert_eq!(words.try_acquire(e(1), t(2), false), Err(t(1)));
        assert_eq!(words.try_acquire(e(1), t(2), true), Err(t(1)));
        assert_eq!(words.try_acquire(e(1), t(1), false), Err(t(1)));
        assert_eq!(words.conflicting_holder(e(1), false), Some(t(1)));
        assert!(words.release(e(1), t(1), false), "release frees the word");
        assert_eq!(words.state(e(1)), WordState::Free);
        assert!(words.quiescent());
        // The freed word is reacquirable, version moved on.
        assert_eq!(words.try_acquire(e(1), t(2), false), Ok(()));
        assert!(words.release(e(1), t(2), false));
    }

    #[test]
    fn shared_acquires_count_and_block_writers() {
        let words = LockWords::new(2);
        assert_eq!(words.try_acquire(e(0), t(1), true), Ok(()));
        assert_eq!(words.try_acquire(e(0), t(2), true), Ok(()));
        assert_eq!(
            words.state(e(0)),
            WordState::Shared {
                readers: 2,
                rep: t(1)
            }
        );
        // Readers don't conflict with readers; writers block on the rep.
        assert_eq!(words.conflicting_holder(e(0), true), None);
        assert_eq!(words.try_acquire(e(0), t(3), false), Err(t(1)));
        // The representative leaving keeps the count right (stale rep is
        // documented as a hint, not truth).
        assert!(!words.release(e(0), t(1), true), "a reader remains");
        assert_eq!(
            words.state(e(0)),
            WordState::Shared {
                readers: 1,
                rep: t(1)
            }
        );
        assert!(words.release(e(0), t(2), true), "last reader frees");
        assert!(words.quiescent());
    }

    #[test]
    fn shared_reader_count_saturates_at_the_field_cap() {
        // Regression for the release-mode overflow: at readers ==
        // COUNT_MASK (32767) the pre-fix `readers + 1` wrapped the
        // packed count to zero, so the 32768th shared acquire silently
        // *freed* the word while every reader still held it. Seed the
        // word at the cap directly (32767 CAS acquires would dominate
        // the suite) and demand a conflict.
        let words = LockWords::new(1);
        words.words[0].store(pack(1, COUNT_MASK, false, 0), Ordering::SeqCst);
        assert_eq!(
            words.try_acquire(e(0), t(9), true),
            Err(t(1)),
            "the acquire past the cap must conflict, not free the word"
        );
        assert_eq!(
            words.state(e(0)),
            WordState::Shared {
                readers: COUNT_MASK,
                rep: t(1)
            },
            "a saturating conflict must leave the word untouched"
        );
        // The saturated word still drains normally.
        assert!(!words.release(e(0), t(2), true), "readers remain");
        assert_eq!(
            words.state(e(0)),
            WordState::Shared {
                readers: COUNT_MASK - 1,
                rep: t(1)
            }
        );
        // And a writer still sees the representative as the holder.
        assert_eq!(words.try_acquire(e(0), t(9), false), Err(t(1)));
    }

    #[test]
    #[should_panic(expected = "overflows the 15-bit lock-word field")]
    fn pack_rejects_reader_overflow_in_release_builds_too() {
        // The guard is a release-mode assert now: masking the count
        // would corrupt the shared word table, so pack must refuse.
        let _ = pack(1, COUNT_MASK + 1, false, 0);
    }

    #[test]
    #[should_panic(expected = "corrupt lock word")]
    fn decode_rejects_a_holder_with_no_mode_bits() {
        // "Holder set, readers 0, not exclusive" is non-canonical: no
        // writer produces it (a freed word zeroes every field). Reading
        // it as Free would grant over whoever the stale field names.
        let _ = decode(pack(5, 0, false, 1));
    }

    #[test]
    fn release_of_unheld_words_is_a_tolerated_noop() {
        let words = LockWords::new(2);
        assert!(!words.release(e(0), t(1), false), "free word");
        assert!(!words.release(e(9), t(1), false), "past capacity");
        assert_eq!(words.try_acquire(e(0), t(1), false), Ok(()));
        assert!(!words.release(e(0), t(2), false), "wrong holder");
        assert!(!words.release(e(0), t(1), true), "wrong mode");
        assert_eq!(words.state(e(0)), WordState::Exclusive(t(1)));
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
