//! The exhaustive verifier's `D(S)` edge sets: the search state the DFS
//! mutates in place, and the packed memo-key helper.
//!
//! * [`EdgeSet`] — dense-index edge *sets* with a `u128` fast path
//!   (k ≤ [`EdgeSet::MAX_SMALL_TXS`]) and a fixed-stride `[u64]`-words
//!   fallback for arbitrary k, maintained through an apply/undo trail and
//!   used (by value) as the explorer's memo keys. Before the words fallback,
//!   exhaustive safety search was hard-capped at 11 transactions.
//! * [`ConflictIndex`] — per-entity accessor lists over a growing and
//!   shrinking schedule, yielding each candidate step's edge delta.
//! * [`mask_has_cycle`] — the `u128` cycle test, also used by the retained
//!   reference explorer.
//! * [`pack_positions`] — the from-scratch definition of the position half
//!   of the memo key.
//!
//! The trusted model they are tested against is
//! [`slp_core::SerializationGraph`].

use slp_core::{EntityId, Step};

/// Whether the `u128` edge bitmask over `k` nodes (bit `i * k + j` encodes
/// edge `i -> j`) contains a cycle, by Floyd–Warshall transitive closure on
/// bits. This is the [`EdgeSet`] fast path, exposed directly for callers
/// that keep raw masks (the verifier's retained reference explorer).
///
/// # Panics
///
/// If `k >` [`EdgeSet::MAX_SMALL_TXS`]: bit `k * k - 1` must exist, and a
/// silently wrapped shift would alias rows and corrupt the verdict. Wider
/// graphs belong in an [`EdgeSet`].
pub fn mask_has_cycle(mask: u128, k: usize) -> bool {
    assert!(
        k <= EdgeSet::MAX_SMALL_TXS,
        "mask_has_cycle addresses at most {} nodes, got {k}",
        EdgeSet::MAX_SMALL_TXS
    );
    let mut reach = mask;
    for via in 0..k {
        for i in 0..k {
            if reach & (1u128 << (i * k + via)) != 0 {
                for j in 0..k {
                    if reach & (1u128 << (via * k + j)) != 0 {
                        reach |= 1u128 << (i * k + j);
                    }
                }
            }
        }
    }
    (0..k).any(|i| reach & (1u128 << (i * k + i)) != 0)
}

/// A growable set of `D(S)` edges over `k` dense transaction indices.
///
/// Two representations behind one interface:
///
/// * **small** — a single `u128` with bit `from * k + to`, for
///   `k <=` [`EdgeSet::MAX_SMALL_TXS`] (11, since `k * k <= 128`). All
///   operations are branch-light word arithmetic and nothing allocates;
///   this is the representation on the exhaustive verifier's hot path.
/// * **wide** — a boxed `[u64]` with a fixed per-row stride of
///   `ceil(k / 64)` words, row `from` at words
///   `from * stride .. (from + 1) * stride`, bit `to` within the row. This
///   lifts the old hard `k <= 11` cap on exhaustive safety search: any `k`
///   works, at the cost of allocating edge sets.
///
/// The representation is chosen by [`EdgeSet::empty`] from `k` alone, so
/// all edge sets of one search agree and the mixed-representation
/// operations below can simply panic (that would be a construction bug,
/// not a data-dependent condition).
///
/// # Apply/undo
///
/// The verifier's DFS keeps **one** edge set and mutates it in place,
/// mirroring its simulator discipline: [`EdgeSet::apply`] ORs a delta in
/// and returns the bits that were actually new, and [`EdgeSet::undo`]
/// clears exactly those, restoring the set bit-for-bit (LIFO order).
#[derive(Clone, PartialEq, Eq, Hash, Debug)]
pub struct EdgeSet {
    repr: Repr,
}

#[derive(Clone, PartialEq, Eq, Hash, Debug)]
enum Repr {
    Small {
        k: u8,
        mask: u128,
    },
    Wide {
        k: u16,
        stride: u16,
        words: Box<[u64]>,
    },
}

impl EdgeSet {
    /// Maximum `k` the `u128` fast path can address (`k * k <= 128`).
    pub const MAX_SMALL_TXS: usize = 11;

    /// The empty edge set over `k` nodes, in the representation `k` calls
    /// for (`u128` up to [`EdgeSet::MAX_SMALL_TXS`], words above).
    pub fn empty(k: usize) -> Self {
        if k <= Self::MAX_SMALL_TXS {
            EdgeSet {
                repr: Repr::Small {
                    k: k as u8,
                    mask: 0,
                },
            }
        } else {
            Self::empty_wide(k)
        }
    }

    /// The empty edge set over `k` nodes in the **words** representation
    /// regardless of `k` — the differential arm of the property tests,
    /// which cross-check the two representations on small `k`.
    pub fn empty_wide(k: usize) -> Self {
        assert!(
            k <= u16::MAX as usize,
            "EdgeSet supports at most {} nodes",
            u16::MAX
        );
        let stride = k.div_ceil(64);
        EdgeSet {
            repr: Repr::Wide {
                k: k as u16,
                stride: stride as u16,
                words: vec![0u64; k * stride].into_boxed_slice(),
            },
        }
    }

    /// The node-index capacity `k` this set was built for.
    pub fn width(&self) -> usize {
        match &self.repr {
            Repr::Small { k, .. } => *k as usize,
            Repr::Wide { k, .. } => *k as usize,
        }
    }

    /// Inserts the edge `from -> to`.
    #[inline]
    pub fn insert(&mut self, from: usize, to: usize) {
        debug_assert!(from < self.width() && to < self.width());
        match &mut self.repr {
            Repr::Small { k, mask } => *mask |= 1u128 << (from * *k as usize + to),
            Repr::Wide { stride, words, .. } => {
                words[from * *stride as usize + to / 64] |= 1u64 << (to % 64);
            }
        }
    }

    /// Whether the edge `from -> to` is present.
    #[inline]
    pub fn contains(&self, from: usize, to: usize) -> bool {
        debug_assert!(from < self.width() && to < self.width());
        match &self.repr {
            Repr::Small { k, mask } => mask & (1u128 << (from * *k as usize + to)) != 0,
            Repr::Wide { stride, words, .. } => {
                words[from * *stride as usize + to / 64] & (1u64 << (to % 64)) != 0
            }
        }
    }

    /// Whether the set has no edges.
    pub fn is_empty(&self) -> bool {
        match &self.repr {
            Repr::Small { mask, .. } => *mask == 0,
            Repr::Wide { words, .. } => words.iter().all(|&w| w == 0),
        }
    }

    /// Number of edges.
    pub fn len(&self) -> usize {
        match &self.repr {
            Repr::Small { mask, .. } => mask.count_ones() as usize,
            Repr::Wide { words, .. } => words.iter().map(|w| w.count_ones() as usize).sum(),
        }
    }

    /// ORs `other` into `self`. Panics on mismatched width or
    /// representation (a construction bug — see the type docs).
    pub fn union_with(&mut self, other: &EdgeSet) {
        match (&mut self.repr, &other.repr) {
            (Repr::Small { k, mask }, Repr::Small { k: ok, mask: om }) if k == ok => *mask |= om,
            (
                Repr::Wide { k, words, .. },
                Repr::Wide {
                    k: ok, words: ow, ..
                },
            ) if k == ok => {
                for (w, o) in words.iter_mut().zip(ow.iter()) {
                    *w |= o;
                }
            }
            _ => panic!("EdgeSet::union_with on mismatched representations"),
        }
    }

    /// ORs `delta` in and returns the edges that were **actually added**
    /// (`delta & !self`) — the undo record for [`EdgeSet::undo`].
    #[inline]
    pub fn apply(&mut self, delta: &EdgeSet) -> EdgeSet {
        match (&mut self.repr, &delta.repr) {
            (Repr::Small { k, mask }, Repr::Small { k: dk, mask: dm }) if k == dk => {
                let added = dm & !*mask;
                *mask |= dm;
                EdgeSet {
                    repr: Repr::Small { k: *k, mask: added },
                }
            }
            (
                Repr::Wide { k, stride, words },
                Repr::Wide {
                    k: dk, words: dw, ..
                },
            ) if k == dk => {
                let mut added = vec![0u64; words.len()].into_boxed_slice();
                for i in 0..words.len() {
                    added[i] = dw[i] & !words[i];
                    words[i] |= dw[i];
                }
                EdgeSet {
                    repr: Repr::Wide {
                        k: *k,
                        stride: *stride,
                        words: added,
                    },
                }
            }
            _ => panic!("EdgeSet::apply on mismatched representations"),
        }
    }

    /// Clears the edges in `added`, reversing the [`EdgeSet::apply`] that
    /// returned it. Undo records must be replayed in reverse apply order
    /// (LIFO), exactly like the simulator's `UndoToken`s.
    #[inline]
    pub fn undo(&mut self, added: &EdgeSet) {
        match (&mut self.repr, &added.repr) {
            (Repr::Small { k, mask }, Repr::Small { k: ak, mask: am }) if k == ak => {
                debug_assert_eq!(*mask & am, *am, "EdgeSet::undo of edges not present");
                *mask &= !am;
            }
            (
                Repr::Wide { k, words, .. },
                Repr::Wide {
                    k: ak, words: aw, ..
                },
            ) if k == ak => {
                for (w, a) in words.iter_mut().zip(aw.iter()) {
                    debug_assert_eq!(*w & a, *a, "EdgeSet::undo of edges not present");
                    *w &= !a;
                }
            }
            _ => panic!("EdgeSet::undo on mismatched representations"),
        }
    }

    /// Whether node `from` has any outgoing edge.
    pub fn has_out_edges(&self, from: usize) -> bool {
        debug_assert!(from < self.width());
        match &self.repr {
            Repr::Small { k, mask } => {
                let row = (mask >> (from * *k as usize)) & ((1u128 << *k) - 1);
                row != 0
            }
            Repr::Wide { stride, words, .. } => {
                let s = *stride as usize;
                words[from * s..(from + 1) * s].iter().any(|&w| w != 0)
            }
        }
    }

    /// Whether the edge set contains a cycle — the serializability test of
    /// the accumulated `D(S)`, by Floyd–Warshall transitive closure (on the
    /// `u128` directly for the small representation, row-word OR for the
    /// wide one).
    pub fn has_cycle(&self) -> bool {
        match &self.repr {
            Repr::Small { k, mask } => mask_has_cycle(*mask, *k as usize),
            Repr::Wide { k, stride, words } => {
                let (k, stride) = (*k as usize, *stride as usize);
                let mut reach = words.to_vec();
                for via in 0..k {
                    for i in 0..k {
                        if i != via && reach[i * stride + via / 64] & (1u64 << (via % 64)) != 0 {
                            for w in 0..stride {
                                let v = reach[via * stride + w];
                                reach[i * stride + w] |= v;
                            }
                        }
                    }
                }
                (0..k).any(|i| reach[i * stride + i / 64] & (1u64 << (i % 64)) != 0)
            }
        }
    }

    /// The raw `u128` mask, if this is the small representation — the
    /// verifier packs it into its fast-path memo keys.
    pub fn as_small_mask(&self) -> Option<u128> {
        match &self.repr {
            Repr::Small { mask, .. } => Some(*mask),
            Repr::Wide { .. } => None,
        }
    }

    /// All edges `(from, to)`, in row-major order (tests and diagnostics;
    /// not a hot path).
    pub fn edges(&self) -> Vec<(usize, usize)> {
        let k = self.width();
        let mut out = Vec::new();
        for from in 0..k {
            for to in 0..k {
                if self.contains(from, to) {
                    out.push((from, to));
                }
            }
        }
        out
    }
}

/// An incremental conflict index over a *growing-and-shrinking* schedule:
/// the engine of the verifier's apply/undo DFS.
///
/// Transactions are addressed by **dense indices** `0..k` (the caller fixes
/// the numbering, typically first-appearance order of the system's ids).
/// The index maintains, per entity, the list of steps pushed so far that
/// touched it — so the `D(S)`-edge delta of a candidate step is computed by
/// scanning only that entity's accessors, `O(accessors)`, instead of
/// rescanning the whole schedule, `O(|S|)`. Pushes and pops are `O(1)`.
///
/// Edge deltas are returned as [`EdgeSet`]s, whose representation is chosen
/// from `k`: `u128` bitmask up to [`EdgeSet::MAX_SMALL_TXS`] transactions
/// (allocation-free), fixed-stride `u64` words above — so any `k`
/// constructs and indexes; only the state space bounds the search.
#[derive(Clone, Debug, Default)]
pub struct ConflictIndex {
    k: usize,
    /// Accessor lists indexed by dense entity id (entity ids come from the
    /// `Universe` interner, so the table stays small); grown on demand.
    by_entity: Vec<Vec<(u32, Step)>>,
    /// Entities of pushed steps, in push order, so `pop` knows which
    /// per-entity list to shrink.
    trail: Vec<EntityId>,
}

impl ConflictIndex {
    /// An empty index over `k` dense transaction indices — any `k`.
    pub fn new(k: usize) -> Self {
        ConflictIndex {
            k,
            by_entity: Vec::new(),
            trail: Vec::new(),
        }
    }

    /// The `D(S)`-edge delta of appending `step` for dense transaction
    /// `to`: the edge `from -> to` for every pushed step of a different
    /// transaction `from` that conflicts with `step`. Only the accessors of
    /// `step.entity` are scanned.
    ///
    /// `None` means the delta is empty — the common case, which this way
    /// stays allocation-free even in the words representation (the set is
    /// built lazily on the first conflicting accessor).
    #[inline]
    pub fn edge_delta(&self, to: usize, step: &Step) -> Option<EdgeSet> {
        debug_assert!(to < self.k);
        let mut out: Option<EdgeSet> = None;
        if let Some(accessors) = self.by_entity.get(step.entity.index()) {
            for &(from, ref prior) in accessors {
                if from as usize != to && prior.conflicts_with(step) {
                    out.get_or_insert_with(|| EdgeSet::empty(self.k))
                        .insert(from as usize, to);
                }
            }
        }
        out
    }

    /// Records that dense transaction `tx` appended `step`.
    #[inline]
    pub fn push(&mut self, tx: usize, step: Step) {
        debug_assert!(tx < self.k);
        let slot = step.entity.index();
        if slot >= self.by_entity.len() {
            self.by_entity.resize_with(slot + 1, Vec::new);
        }
        self.by_entity[slot].push((tx as u32, step));
        self.trail.push(step.entity);
    }

    /// Unrecords the most recently pushed step (LIFO).
    #[inline]
    pub fn pop(&mut self) {
        let entity = self.trail.pop().expect("ConflictIndex::pop on empty index");
        let accessors = &mut self.by_entity[entity.index()];
        accessors.pop().expect("accessor list nonempty");
    }
}

/// Packs per-transaction step counts into a `u128` memo key, 8 bits per
/// transaction — the position half of the explorer's fast-path memo keys
/// (the edge half is an [`EdgeSet`] mask). `None` when the positions do
/// not fit: more than 16 transactions or a count above 255; callers fall
/// back to `Vec<u16>` keys.
///
/// The explorer's DFS maintains this key incrementally; this helper is the
/// from-scratch definition it cross-checks against.
pub fn pack_positions(positions: &[u16]) -> Option<u128> {
    if positions.len() > 16 {
        return None;
    }
    let mut packed = 0u128;
    for (i, &p) in positions.iter().enumerate() {
        if p > u8::MAX as u16 {
            return None;
        }
        packed |= (p as u128) << (8 * i);
    }
    Some(packed)
}

#[cfg(test)]
mod tests {
    use super::*;
    use slp_core::{Schedule, ScheduledStep, SerializationGraph, TxId};

    fn e(i: u32) -> EntityId {
        EntityId(i)
    }

    fn t(i: u32) -> TxId {
        TxId(i)
    }

    /// The incremental index must agree with `SerializationGraph::of` on
    /// the edge set of every prefix of a schedule, through pushes and pops.
    #[test]
    fn conflict_index_matches_batch_graph() {
        let ids = [t(1), t(2), t(3)];
        let steps = vec![
            (1, Step::write(e(0))),
            (2, Step::read(e(0))),
            (3, Step::lock_exclusive(e(1))),
            (3, Step::write(e(1))),
            (3, Step::unlock_exclusive(e(1))),
            (1, Step::lock_exclusive(e(1))),
            (2, Step::write(e(0))),
            (1, Step::write(e(1))),
        ];
        let k = ids.len();
        let dense = |tx: TxId| ids.iter().position(|&x| x == tx).unwrap();
        let set_of = |s: &Schedule| {
            let g = SerializationGraph::of(s);
            let mut set = EdgeSet::empty(k);
            for edge in g.edges() {
                set.insert(dense(edge.from), dense(edge.to));
            }
            set
        };
        let mut index = ConflictIndex::new(k);
        let mut schedule = Schedule::empty();
        let mut set = EdgeSet::empty(k);
        let mut set_trail = vec![set.clone()];
        for &(tx, step) in &steps {
            let to = dense(t(tx));
            if let Some(d) = index.edge_delta(to, &step) {
                set.union_with(&d);
            }
            index.push(to, step);
            schedule.push(ScheduledStep::new(t(tx), step));
            assert_eq!(set, set_of(&schedule), "prefix {}", schedule.len());
            set_trail.push(set.clone());
        }
        // Pop everything back; edge_delta must keep agreeing with the
        // batch graph of the shrunk schedule.
        while schedule.pop().is_some() {
            index.pop();
            set_trail.pop();
            let expect = set_trail.last().unwrap();
            assert_eq!(
                expect,
                &set_of(&schedule),
                "after pop to {}",
                schedule.len()
            );
            assert_eq!(index.trail.len(), schedule.len());
        }
        assert!(index.trail.is_empty());
    }

    #[test]
    fn conflict_index_delta_ignores_same_transaction_and_other_entities() {
        let mut index = ConflictIndex::new(2);
        index.push(0, Step::write(e(0)));
        // Same transaction: no edge (and no allocation — None).
        assert!(index.edge_delta(0, &Step::write(e(0))).is_none());
        // Different entity: no edge.
        assert!(index.edge_delta(1, &Step::write(e(1))).is_none());
        // Conflicting access by the other transaction: edge 0 -> 1.
        let delta = index.edge_delta(1, &Step::read(e(0))).expect("conflict");
        assert_eq!(delta.edges(), vec![(0, 1)]);
    }

    /// Wide-`k` construction is a first-class path: indices above the
    /// `u128` bound build, produce words-backed deltas, and agree with the
    /// batch graph (regression: `ConflictIndex::new` used to panic here).
    #[test]
    fn conflict_index_supports_wide_k() {
        let k = EdgeSet::MAX_SMALL_TXS + 5; // 16
        let mut index = ConflictIndex::new(k);
        assert_eq!(index.k, k);
        for i in 0..k {
            index.push(i, Step::write(e(0)));
        }
        // A write by a fresh view of transaction 0: conflicts with every
        // *other* transaction's write.
        let delta = index.edge_delta(0, &Step::write(e(0))).expect("conflicts");
        assert!(delta.as_small_mask().is_none(), "k > 11 must use words");
        assert_eq!(delta.len(), k - 1);
        for from in 1..k {
            assert!(delta.contains(from, 0));
        }
    }

    #[test]
    fn edgeset_apply_undo_round_trip_both_reprs() {
        for k in [3usize, 13] {
            let mut set = if k <= EdgeSet::MAX_SMALL_TXS {
                EdgeSet::empty(k)
            } else {
                EdgeSet::empty_wide(k)
            };
            let mut d1 = EdgeSet::empty(k);
            d1.insert(0, 1);
            d1.insert(1, 2);
            let mut d2 = EdgeSet::empty(k);
            d2.insert(1, 2); // overlaps d1: must not be double-counted
            d2.insert(2, 0);
            let empty = set.clone();
            let a1 = set.apply(&d1);
            let after_d1 = set.clone();
            assert_eq!(a1.len(), 2);
            let a2 = set.apply(&d2);
            assert_eq!(a2.len(), 1, "overlap with d1 must not re-add (1,2)");
            assert!(set.has_cycle(), "0->1->2->0 closes a cycle (k = {k})");
            set.undo(&a2);
            assert_eq!(set, after_d1);
            assert!(!set.has_cycle());
            set.undo(&a1);
            assert_eq!(set, empty);
            assert!(set.is_empty());
        }
    }

    #[test]
    fn edgeset_wide_cycle_detection_spans_word_boundaries() {
        // k = 70 forces a 2-word stride; route a cycle through node 69 so
        // both words of a row carry bits.
        let k = 70;
        let mut set = EdgeSet::empty(k);
        assert!(set.as_small_mask().is_none());
        set.insert(0, 69);
        set.insert(69, 5);
        assert!(!set.has_cycle());
        assert!(set.has_out_edges(69));
        assert!(!set.has_out_edges(5));
        set.insert(5, 0);
        assert!(set.has_cycle());
        assert_eq!(set.edges(), vec![(0, 69), (5, 0), (69, 5)]);
    }
}
