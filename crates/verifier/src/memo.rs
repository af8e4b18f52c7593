//! Memo-key codec and memo tables shared by the sequential and parallel
//! explorers.
//!
//! Both explorers memoize search states keyed on (positions, `D(S)`
//! edges). Positions may or may not bit-pack into a `u128` and edge sets
//! may be `u128` masks or `[u64]` words, which used to mean *four* memo
//! key shapes spread over two near-duplicate interner types (the
//! sequential `Interner` and the parallel `ShardedInterner`), with wide
//! (`k > 11`) keys paying one synchronized structure per key *half*. This
//! module keeps one implementation of each concern:
//!
//! * The **parallel shared memo** encodes every key through [`KeyShape`]
//!   into a **fixed-width `[u64]` word string** (the width is a function
//!   of the system alone), probed and interned in one
//!   [`AtomicWordTable`] — a **lock-free** open-addressing table of
//!   `AtomicU64` slots. Probes are one atomic load per non-colliding
//!   slot; inserts are a CAS; there are no mutexes anywhere, and a wide
//!   key touches exactly one synchronized structure (the old sharded
//!   design took two shard locks per wide probe).
//! * The **sequential explorer** (and the parallel workers' private L1,
//!   which reuses its `Memo` type) keeps interned *sub*-keys through the
//!   single crate-private `Interner` below: hit-heavy memo traffic wants small
//!   `(u128, u32)` set keys, not 100+-byte word-string compares — an
//!   all-flat-words sequential memo was tried and measured ~25% slower
//!   on the wide k = 13 bench. No synchronization, one interner type,
//!   same probe-or-intern contract as the table.
//!
//! # `AtomicWordTable` layout
//!
//! Three pieces, all append-only (memo entries are never deleted — the
//! property every correctness argument below leans on):
//!
//! * **Slot segments** — a chain of `AtomicU64` arrays of 4×-growing
//!   capacity: segment 0 eagerly allocated (kept `OnceLock`-free on the
//!   hot path), spill segments created on demand through `OnceLock`
//!   (amortized growth; no stop-the-world rehash, no relocation of
//!   published slots — probes of old entries never observe movement). A
//!   slot is `0` when empty, else packs a 16-bit **hash fingerprint**
//!   with the 48-bit entry reference (+1, so occupied slots are nonzero).
//! * **Entry segments** — the full key words, in chained fixed-capacity
//!   `AtomicU64` arrays of doubling entry counts. An inserter claims an
//!   entry index with one `fetch_add`, writes the words (plain atomic
//!   stores — the entry is private until published), then publishes it by
//!   CAS-ing the slot with `Release`; readers load the slot with `Acquire`
//!   before touching entry words, so the words are always visible.
//! * **Probe walk** — linear probing, at most [`PROBE_LIMIT`] slots per
//!   segment, segments visited strictly in creation order. Slots fill
//!   monotonically (no deletions), so the walk is deterministic enough to
//!   make interned ids stable:
//!
//! ## Id stability (same value → same id, across threads)
//!
//! Two racing `probe_or_intern` calls for the same key walk the same slot
//! sequence. Both stop at the first empty slot (every earlier slot was
//! compared and rejected); one CAS wins, the loser re-reads the slot,
//! finds the winner's entry, compares equal, and returns the winner's id.
//! A key spills to segment `s + 1` only when its whole probe window in
//! segment `s` is occupied by other keys — and since slots never empty,
//! that is permanent: no later insert of the key can land in segment `s`,
//! so the "first matching entry in walk order" is unique and immutable.
//! The loser's already-claimed entry is abandoned (a few words of storage;
//! bounded by actual CAS races, not by table size).
//!
//! A read-only [`AtomicWordTable::probe`] that observes an empty slot may
//! miss a *concurrent* insert — for the memo that only turns a hit into a
//! miss (duplicated search work, never unsound pruning); callers that need
//! the id use `probe_or_intern`, which retries through the CAS path.
//!
//! This module is `pub` so the memo-storm stress test can drive the
//! table directly; it is not a stable API surface.

use rustc_hash::FxHasher;
use slp_core::EdgeSet;
use std::hash::Hasher;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::OnceLock;

/// Maximum slots examined per segment before a key spills to the next
/// segment. This is also what bounds the *steady-state* cost of probing
/// a saturated segment: segments fill until windows exhaust (there is no
/// other gate — that keeps insert placement deterministic, see the id
/// stability argument), so keys resident in later segments pay up to
/// this many loads per earlier segment on every probe. Keep it small.
pub const PROBE_LIMIT: usize = 12;

/// Slot count of the first table segment (`2^13` — covers searches up to
/// a few thousand memoized states without ever chaining).
const FIRST_SLOT_BITS: u32 = 13;

/// Slot segments grow 4× per link (not 2×): saturated segments cost
/// every later-resident key a probe window on every probe, so the chain
/// must stay short even for budget-sized searches.
const SLOT_GROWTH_BITS: u32 = 2;

/// Entry count of the first entry segment (doubles per segment; entries
/// are reached by direct indexing, so entry-chain length is irrelevant
/// to probe cost).
const FIRST_ENTRY_CAP: u64 = 1 << 10;

/// Segment-chain length. The capacity schedules address ~10^10+ entries
/// — far beyond any search budget; hitting the end is a bug.
const SEGMENTS: usize = 24;

/// Low 48 bits of a slot: the entry reference (+1).
const REF_MASK: u64 = (1 << 48) - 1;

/// Interns values behind dense `u32` ids so compound memo keys stay
/// fixed-size and — the part that matters on hit-heavy memo traffic —
/// *small*: the sequential explorer's wide-key memo set compares 24-byte
/// `(u128, u32)` keys instead of 100+-byte encoded word strings. Probes
/// borrow the value (`FxHashMap::get` with a borrowed key), so looking up
/// an already-seen `EdgeSet` or position vector allocates nothing; a
/// value is cloned exactly once, on first interning.
///
/// This is the **sequential twin** of
/// [`AtomicWordTable::probe_or_intern`] — one key-interning API for both
/// explorers (the old `ShardedInterner`, the parallel near-duplicate of
/// this type, is gone: the parallel memo interns whole keys in the
/// lock-free table, one synchronized op per key).
pub(crate) struct Interner<K> {
    ids: rustc_hash::FxHashMap<K, u32>,
}

impl<K: std::hash::Hash + Eq> Interner<K> {
    pub(crate) fn new() -> Self {
        Interner {
            ids: rustc_hash::FxHashMap::default(),
        }
    }

    /// The id of `value` if it was ever interned. Allocation-free.
    pub(crate) fn get<Q>(&self, value: &Q) -> Option<u32>
    where
        K: std::borrow::Borrow<Q>,
        Q: std::hash::Hash + Eq + ?Sized,
    {
        self.ids.get(value).copied()
    }

    /// Finds `value`'s id, interning it (one clone) on first sight — the
    /// combined probe-or-intern entry point, matching the concurrent
    /// table's contract: same value → same id, ids dense from 0.
    pub(crate) fn probe_or_intern<Q>(&mut self, value: &Q) -> u32
    where
        K: std::borrow::Borrow<Q>,
        Q: std::hash::Hash + Eq + ToOwned<Owned = K> + ?Sized,
    {
        if let Some(&id) = self.ids.get(value) {
            return id;
        }
        let id = u32::try_from(self.ids.len()).expect("fewer than 2^32 interned values");
        self.ids.insert(value.to_owned(), id);
        id
    }
}

/// The fixed word-encoding of one search's memo keys: `positions` then
/// `D(S)` edges, both as `u64` words. The widths are functions of the
/// system alone (`k`, packability, edge representation), so every key of
/// one search is the same length and the encoding is injective — which is
/// what lets a flat word table back the parallel verifier's shared memo
/// for every key shape.
#[derive(Clone, Copy, Debug)]
pub struct KeyShape {
    packable: bool,
    pos_words: usize,
    edge_words: usize,
}

impl KeyShape {
    /// The shape for a system of `k` transactions: `packable` as decided
    /// by `PositionBook` (k ≤ 16, all |T| ≤ 255), `small_edges` as decided
    /// by the explorer (`u128` edge masks vs `[u64]` words).
    pub fn new(packable: bool, k: usize, small_edges: bool) -> Self {
        KeyShape {
            packable,
            pos_words: if packable { 2 } else { k.div_ceil(4) },
            edge_words: if small_edges {
                2
            } else {
                EdgeSet::encoded_len(k)
            },
        }
    }

    /// Total words per encoded key.
    pub fn width(&self) -> usize {
        self.pos_words + self.edge_words
    }

    /// Encodes one key into `out`, whose length must equal
    /// [`width`](KeyShape::width) — callers keep one preallocated scratch
    /// slice, so per-probe encoding is plain stores with no length
    /// bookkeeping or capacity checks. `packed` is the incrementally
    /// maintained `pack_positions` word and is used iff the shape is
    /// packable; otherwise `positions` is packed four `u16`s per word.
    #[inline]
    pub fn encode(&self, out: &mut [u64], packed: u128, positions: &[u16], edges: &EdgeSet) {
        debug_assert_eq!(out.len(), self.width(), "scratch width drifted");
        if self.packable {
            out[0] = packed as u64;
            out[1] = (packed >> 64) as u64;
        } else {
            for (w, chunk) in out[..self.pos_words].iter_mut().zip(positions.chunks(4)) {
                let mut v = 0u64;
                for (j, &p) in chunk.iter().enumerate() {
                    v |= (p as u64) << (16 * j);
                }
                *w = v;
            }
        }
        edges.store_words(&mut out[self.pos_words..]);
    }

    /// A zeroed scratch buffer of the right width for
    /// [`encode`](KeyShape::encode).
    pub fn scratch(&self) -> Box<[u64]> {
        vec![0u64; self.width()].into_boxed_slice()
    }
}

/// Fx-folds the key words. The fingerprint takes the top 16 bits and the
/// slot index starts at bit 16, skipping Fx's weakly mixed low bits and
/// keeping the two decorrelated.
#[inline]
fn hash_words(key: &[u64]) -> u64 {
    let mut h = FxHasher::default();
    for &w in key {
        h.write_u64(w);
    }
    h.finish()
}

/// A lock-free concurrent set-and-interner of fixed-width `u64` word
/// strings: the parallel verifier's shared memo core. See the module docs
/// for the layout and the id-stability argument.
pub struct AtomicWordTable {
    width: usize,
    /// Spill slot segments (4×-growing capacity, see [`tail_slot_cap`]).
    /// Segment 0, allocated eagerly: the hot path reaches slots and
    /// entries through plain field loads, no `OnceLock` check.
    slots0: Box<[AtomicU64]>,
    entries0: Box<[AtomicU64]>,
    /// Spill segments `1..`, created on demand; slot segments grow 4×
    /// per link ([`tail_slot_cap`]), entry segments 2× ([`entry_loc`]).
    slots_tail: [OnceLock<Box<[AtomicU64]>>; SEGMENTS - 1],
    entries_tail: [OnceLock<Box<[AtomicU64]>>; SEGMENTS - 1],
    /// Next unclaimed entry index (claims may outnumber published entries
    /// by the number of lost same-key CAS races).
    next_entry: AtomicU64,
}

/// Outcome of walking one slot segment's probe window.
enum Walk {
    /// Entry found: the key is published under this id.
    Found(u64),
    /// An empty slot terminated the walk: the key is in no segment
    /// (inserts fill the first empty slot of the ordered walk).
    Empty,
    /// The whole window is occupied by other keys: continue in the next
    /// segment.
    Exhausted,
}

impl AtomicWordTable {
    /// An empty table over `width`-word keys. The first slot/entry
    /// segments are allocated eagerly (a few tens of KB); spill segments
    /// materialize on demand.
    pub fn new(width: usize) -> Self {
        assert!(width >= 1, "keys must be at least one word");
        AtomicWordTable {
            width,
            slots0: zeroed(1 << FIRST_SLOT_BITS),
            entries0: zeroed(FIRST_ENTRY_CAP as usize * width),
            slots_tail: std::array::from_fn(|_| OnceLock::new()),
            entries_tail: std::array::from_fn(|_| OnceLock::new()),
            next_entry: AtomicU64::new(0),
        }
    }

    /// The key width this table was built for.
    pub fn width(&self) -> usize {
        self.width
    }

    /// Upper bound on interned entries: claims, including the few
    /// abandoned by lost same-key races. (Exposed for tests; the
    /// verifier tracks its statistics separately.)
    pub fn claimed_entries(&self) -> u64 {
        self.next_entry.load(Ordering::Relaxed)
    }

    /// Walks `seg`'s probe window for `key`, read-only.
    #[inline]
    fn walk(&self, seg: &[AtomicU64], h: u64, fp: u64, key: &[u64]) -> Walk {
        let mask = seg.len() - 1;
        let mut idx = ((h >> 16) as usize) & mask;
        for _ in 0..PROBE_LIMIT.min(seg.len()) {
            let s = seg[idx].load(Ordering::Acquire);
            if s == 0 {
                return Walk::Empty;
            }
            if s >> 48 == fp {
                let id = (s & REF_MASK) - 1;
                if self.entry_eq(id, key) {
                    return Walk::Found(id);
                }
            }
            idx = (idx + 1) & mask;
        }
        Walk::Exhausted
    }

    /// Read-only membership probe: the id of `key` if it is published.
    /// One atomic load per examined slot, no allocation, no writes. May
    /// miss a concurrent in-flight insert (see module docs).
    #[inline]
    pub fn probe(&self, key: &[u64]) -> Option<u64> {
        debug_assert_eq!(key.len(), self.width);
        let h = hash_words(key);
        let fp = h >> 48;
        match self.walk(&self.slots0, h, fp, key) {
            Walk::Found(id) => Some(id),
            Walk::Empty => None,
            Walk::Exhausted => self.probe_tail(h, fp, key),
        }
    }

    /// Continues a read-only probe through the spill segments.
    #[cold]
    fn probe_tail(&self, h: u64, fp: u64, key: &[u64]) -> Option<u64> {
        for slot_seg in &self.slots_tail {
            let seg = slot_seg.get()?;
            match self.walk(seg, h, fp, key) {
                Walk::Found(id) => return Some(id),
                Walk::Empty => return None,
                Walk::Exhausted => {}
            }
        }
        None
    }

    /// Whether `key` is published. See [`AtomicWordTable::probe`].
    #[inline]
    pub fn contains(&self, key: &[u64]) -> bool {
        self.probe(key).is_some()
    }

    /// Walks `seg`'s probe window trying to find-or-insert `key`,
    /// CAS-claiming the first empty slot. `claimed` carries the entry
    /// reference across CAS retries (and segments) so a race never claims
    /// twice. `None` means the window is exhausted: continue next segment.
    #[inline]
    fn intern_walk(
        &self,
        seg: &[AtomicU64],
        h: u64,
        fp: u64,
        key: &[u64],
        claimed: &mut Option<u64>,
    ) -> Option<(u64, bool)> {
        let mask = seg.len() - 1;
        let mut idx = ((h >> 16) as usize) & mask;
        let mut examined = 0;
        let limit = PROBE_LIMIT.min(seg.len());
        while examined < limit {
            let s = seg[idx].load(Ordering::Acquire);
            if s == 0 {
                let id = match *claimed {
                    Some(id) => id,
                    None => {
                        let id = self.claim_entry(key);
                        *claimed = Some(id);
                        id
                    }
                };
                match seg[idx].compare_exchange(
                    0,
                    (fp << 48) | (id + 1),
                    Ordering::Release,
                    Ordering::Acquire,
                ) {
                    Ok(_) => return Some((id, true)),
                    // Lost the slot: re-read it without advancing — the
                    // winner may have published this very key.
                    Err(_) => continue,
                }
            }
            if s >> 48 == fp {
                let id = (s & REF_MASK) - 1;
                if self.entry_eq(id, key) {
                    return Some((id, false));
                }
            }
            idx = (idx + 1) & mask;
            examined += 1;
        }
        None
    }

    /// Finds `key`'s entry, inserting it if absent: returns the stable id
    /// and whether this call published it. Lock-free — the only blocking
    /// is `OnceLock` initialization when a new spill segment must be
    /// allocated (amortized: segment capacities double).
    #[inline]
    pub fn probe_or_intern(&self, key: &[u64]) -> (u64, bool) {
        debug_assert_eq!(key.len(), self.width);
        let h = hash_words(key);
        let fp = h >> 48;
        let mut claimed = None;
        if let Some(r) = self.intern_walk(&self.slots0, h, fp, key, &mut claimed) {
            return r;
        }
        self.intern_tail(h, fp, key, claimed)
    }

    /// Continues an insert through the spill segments, creating them as
    /// the walk needs them.
    #[cold]
    fn intern_tail(&self, h: u64, fp: u64, key: &[u64], mut claimed: Option<u64>) -> (u64, bool) {
        for (ti, slot_seg) in self.slots_tail.iter().enumerate() {
            let seg = slot_seg.get_or_init(|| zeroed(tail_slot_cap(ti)));
            if let Some(r) = self.intern_walk(seg, h, fp, key, &mut claimed) {
                return r;
            }
        }
        unreachable!("AtomicWordTable: {SEGMENTS} growing segments saturated")
    }

    /// Convenience: insert ignoring the id.
    pub fn insert(&self, key: &[u64]) {
        self.probe_or_intern(key);
    }

    /// Claims the next entry index and writes `key`'s words into it. The
    /// entry is private (invisible to probes) until a slot CAS publishes
    /// its reference with `Release`.
    fn claim_entry(&self, key: &[u64]) -> u64 {
        let id = self.next_entry.fetch_add(1, Ordering::Relaxed);
        let words = if id < FIRST_ENTRY_CAP {
            &self.entries0[id as usize * self.width..]
        } else {
            let (si, off) = entry_loc(id);
            assert!(si < SEGMENTS, "AtomicWordTable: entry segments saturated");
            let seg = self.entries_tail[si - 1].get_or_init(|| {
                let cap = (FIRST_ENTRY_CAP as usize) << si;
                zeroed(cap * self.width)
            });
            &seg[off * self.width..]
        };
        for (slot, &w) in words.iter().zip(key) {
            slot.store(w, Ordering::Relaxed);
        }
        id
    }

    /// Whether published entry `id` holds exactly `key`. Plain atomic
    /// loads: visibility is guaranteed by the `Acquire` slot load that
    /// produced `id` pairing with the publisher's `Release` CAS.
    #[inline]
    fn entry_eq(&self, id: u64, key: &[u64]) -> bool {
        let words = if id < FIRST_ENTRY_CAP {
            &self.entries0[id as usize * self.width..]
        } else {
            let (si, off) = entry_loc(id);
            let seg = self.entries_tail[si - 1]
                .get()
                .expect("published entry's segment exists");
            &seg[off * self.width..]
        };
        key.iter()
            .zip(words)
            .all(|(&w, slot)| slot.load(Ordering::Relaxed) == w)
    }
}

/// A zero-initialized boxed `AtomicU64` array.
fn zeroed(n: usize) -> Box<[AtomicU64]> {
    (0..n).map(|_| AtomicU64::new(0)).collect()
}

/// Slot capacity of tail segment `ti` (segment `ti + 1` overall) under
/// the 4×-growth schedule.
fn tail_slot_cap(ti: usize) -> usize {
    1usize << (FIRST_SLOT_BITS + SLOT_GROWTH_BITS * (ti as u32 + 1))
}

/// Maps an entry index to (segment, offset-within-segment) under the
/// doubling schedule: segment `i` holds `FIRST_ENTRY_CAP << i` entries
/// starting at `FIRST_ENTRY_CAP * (2^i - 1)`.
#[inline]
fn entry_loc(id: u64) -> (usize, usize) {
    let q = id / FIRST_ENTRY_CAP;
    let si = (q + 1).ilog2() as usize;
    let base = FIRST_ENTRY_CAP * ((1u64 << si) - 1);
    (si, (id - base) as usize)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn entry_loc_tracks_doubling_segments() {
        assert_eq!(entry_loc(0), (0, 0));
        assert_eq!(
            entry_loc(FIRST_ENTRY_CAP - 1),
            (0, FIRST_ENTRY_CAP as usize - 1)
        );
        assert_eq!(entry_loc(FIRST_ENTRY_CAP), (1, 0));
        assert_eq!(
            entry_loc(3 * FIRST_ENTRY_CAP - 1),
            (1, 2 * FIRST_ENTRY_CAP as usize - 1)
        );
        assert_eq!(entry_loc(3 * FIRST_ENTRY_CAP), (2, 0));
    }

    #[test]
    fn probe_or_intern_round_trips() {
        let t = AtomicWordTable::new(3);
        assert_eq!(t.probe(&[1, 2, 3]), None);
        let (a, fresh) = t.probe_or_intern(&[1, 2, 3]);
        assert!(fresh);
        let (b, fresh) = t.probe_or_intern(&[1, 2, 3]);
        assert!(!fresh);
        assert_eq!(a, b);
        assert_eq!(t.probe(&[1, 2, 3]), Some(a));
        assert_eq!(t.probe(&[1, 2, 4]), None);
        let (c, _) = t.probe_or_intern(&[1, 2, 4]);
        assert_ne!(a, c);
    }

    #[test]
    fn grows_past_the_first_segments() {
        // Enough keys to overflow the first slot and entry segments.
        let t = AtomicWordTable::new(1);
        let n = 10_000u64;
        let ids: Vec<u64> = (0..n).map(|i| t.probe_or_intern(&[i]).0).collect();
        for (i, &id) in ids.iter().enumerate() {
            assert_eq!(t.probe(&[i as u64]), Some(id), "key {i} lost");
            assert_eq!(
                t.probe_or_intern(&[i as u64]),
                (id, false),
                "key {i} re-interned"
            );
        }
        let mut sorted = ids.clone();
        sorted.sort_unstable();
        sorted.dedup();
        assert_eq!(sorted.len(), n as usize, "ids must be distinct");
    }

    #[test]
    fn key_shape_widths() {
        // Packed positions + small edges: 2 + 2.
        assert_eq!(KeyShape::new(true, 4, true).width(), 4);
        // Packed positions + wide edges (k = 13): 2 + 13.
        assert_eq!(KeyShape::new(true, 13, false).width(), 15);
        // Wide positions (k = 17): ceil(17/4) + 17.
        assert_eq!(KeyShape::new(false, 17, false).width(), 5 + 17);
    }

    #[test]
    fn key_shape_encoding_is_injective_on_samples() {
        use slp_core::EdgeSet;
        let shape = KeyShape::new(false, 17, false);
        let mut seen = std::collections::HashSet::new();
        let mut buf = shape.scratch();
        for a in 0..4u16 {
            for b in 0..4u16 {
                let mut positions = vec![0u16; 17];
                positions[0] = a;
                positions[16] = b;
                for edge in 0..2 {
                    let mut edges = EdgeSet::empty(17);
                    if edge == 1 {
                        edges.insert(0, 16);
                    }
                    shape.encode(&mut buf, 0, &positions, &edges);
                    assert!(seen.insert(buf.clone()), "collision at {a},{b},{edge}");
                }
            }
        }
    }
}
