//! The exhaustive search's visited-state set.
//!
//! The search memoizes states keyed on (positions, `D(S)` edges).
//! Positions may or may not bit-pack into a `u128` and edge sets may be
//! `u128` masks or `[u64]` words, so [`Memo`] has three key shapes; the
//! two wide ones intern their key halves through one [`Interner`], so
//! hit-heavy memo traffic compares small `(u128, u32)` set keys, not
//! 100+-byte word strings — an all-flat-words memo was tried and measured
//! ~25% slower on the wide k = 13 bench. Each parallel pool worker keeps
//! its own `Memo`, so there is no synchronization here.

use crate::edges::EdgeSet;
use rustc_hash::{FxHashMap, FxHashSet};

/// Interns values behind dense `u32` ids so compound memo keys stay
/// fixed-size and *small*. Probes borrow the value (`FxHashMap::get` with
/// a borrowed key), so looking up an already-seen `EdgeSet` or position
/// vector allocates nothing; a value is cloned exactly once, on first
/// interning.
pub(crate) struct Interner<K> {
    ids: FxHashMap<K, u32>,
}

impl<K: std::hash::Hash + Eq> Interner<K> {
    pub(crate) fn new() -> Self {
        Interner {
            ids: FxHashMap::default(),
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

    /// Finds `value`'s id, interning it (one clone) on first sight: same
    /// value → same id, ids dense from 0.
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

/// The visited-state set, keyed on (positions, `D(S)` edges). Three key
/// shapes:
///
/// * `Packed` — positions bit-packed into a `u128` **and** edges in
///   [`EdgeSet`]'s `u128` representation: one `(u128, u128)` probe, no
///   allocation. This is every system exhaustive search can realistically
///   cover.
/// * `PackedEdges` — positions still pack (k ≤ 16, steps ≤ 255) but edges
///   are words (k > 11): edge sets are interned, so keys are small
///   `(u128, u32)` pairs, probes are allocation-free, and the hit-heavy
///   memo set never compares 100+-byte word strings.
/// * `Wide` — positions exceed the pack bound too: both halves interned,
///   `(u32, u32)` keys, allocation-free probes.
pub(crate) enum Memo {
    Packed(FxHashSet<(u128, u128)>),
    PackedEdges {
        set: FxHashSet<(u128, u32)>,
        edges: Interner<EdgeSet>,
    },
    Wide {
        set: FxHashSet<(u32, u32)>,
        positions: Interner<Vec<u16>>,
        edges: Interner<EdgeSet>,
    },
}

impl Memo {
    /// Picks the key shape for a system whose positions do (not) pack,
    /// with `small_edges` saying whether edge sets use the `u128`
    /// representation.
    pub(crate) fn for_system(packable: bool, small_edges: bool) -> Memo {
        match (packable, small_edges) {
            (true, true) => Memo::Packed(FxHashSet::default()),
            (true, false) => Memo::PackedEdges {
                set: FxHashSet::default(),
                edges: Interner::new(),
            },
            (false, _) => Memo::Wide {
                set: FxHashSet::default(),
                positions: Interner::new(),
                edges: Interner::new(),
            },
        }
    }

    pub(crate) fn contains(&self, packed: u128, positions: &[u16], edges: &EdgeSet) -> bool {
        match self {
            Memo::Packed(set) => {
                set.contains(&(packed, edges.as_small_mask().expect("small edges")))
            }
            // An un-interned value was never part of an inserted key, so
            // the memo cannot contain the state: answer without cloning.
            Memo::PackedEdges { set, edges: ids } => {
                ids.get(edges).is_some_and(|e| set.contains(&(packed, e)))
            }
            Memo::Wide {
                set,
                positions: pos_ids,
                edges: edge_ids,
            } => match (pos_ids.get(positions), edge_ids.get(edges)) {
                (Some(p), Some(e)) => set.contains(&(p, e)),
                _ => false,
            },
        }
    }

    pub(crate) fn insert(&mut self, packed: u128, positions: &[u16], edges: &EdgeSet) {
        match self {
            Memo::Packed(set) => {
                set.insert((packed, edges.as_small_mask().expect("small edges")));
            }
            Memo::PackedEdges { set, edges: ids } => {
                let e = ids.probe_or_intern(edges);
                set.insert((packed, e));
            }
            Memo::Wide {
                set,
                positions: pos_ids,
                edges: edge_ids,
            } => {
                let p = pos_ids.probe_or_intern(positions);
                let e = edge_ids.probe_or_intern(edges);
                set.insert((p, e));
            }
        }
    }
}
