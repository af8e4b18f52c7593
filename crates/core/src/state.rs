//! Database states.
//!
//! The paper distinguishes the *structural state* (which entities from the
//! universe currently exist — changed by `INSERT`/`DELETE`) from the *value
//! state* (the values assigned to existing entities — changed by `WRITE`).
//! Serializability arguments only depend on the structural state, so
//! [`StructuralState`] is the workhorse type; [`ValueState`] is provided for
//! completeness and for the examples.

use crate::entity::EntityId;
use crate::ops::DataOp;
use crate::step::Step;
use std::collections::HashMap;
use std::fmt;

/// Why a step was undefined in the structural state it executed in.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum UndefinedStep {
    /// `R`/`W`/`D` applied to an entity absent from the state.
    EntityAbsent(EntityId),
    /// `I` applied to an entity already present in the state.
    EntityPresent(EntityId),
}

impl fmt::Display for UndefinedStep {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            UndefinedStep::EntityAbsent(e) => {
                write!(
                    f,
                    "entity {e} does not exist in the current structural state"
                )
            }
            UndefinedStep::EntityPresent(e) => {
                write!(
                    f,
                    "entity {e} already exists in the current structural state"
                )
            }
        }
    }
}

impl std::error::Error for UndefinedStep {}

/// A structural database state: the set of entities that currently exist.
///
/// Backed by a growable bitset indexed by [`EntityId`], so membership tests
/// and snapshots (clones) are cheap — the safety verifier clones states at
/// every branch of its search.
///
/// # Examples
///
/// ```
/// use slp_core::{StructuralState, Universe, Step};
///
/// let mut u = Universe::new();
/// let a = u.entity("a");
/// let mut g = StructuralState::empty();
/// assert!(g.apply_step(&Step::insert(a)).is_ok());
/// assert!(g.contains(a));
/// assert!(g.apply_step(&Step::insert(a)).is_err()); // already present
/// ```
#[derive(Clone, PartialEq, Eq, Hash, Default)]
pub struct StructuralState {
    words: Vec<u64>,
    len: usize,
}

impl StructuralState {
    /// The empty structural state (no entities exist).
    pub fn empty() -> Self {
        Self::default()
    }

    /// A state containing exactly the given entities.
    pub fn from_entities(entities: impl IntoIterator<Item = EntityId>) -> Self {
        let mut s = Self::empty();
        for e in entities {
            s.insert(e);
        }
        s
    }

    /// Whether `e` exists in this state.
    #[inline]
    pub fn contains(&self, e: EntityId) -> bool {
        let (w, b) = (e.index() / 64, e.index() % 64);
        self.words.get(w).is_some_and(|word| word & (1 << b) != 0)
    }

    /// Adds `e`; returns `true` if it was absent.
    #[inline]
    pub fn insert(&mut self, e: EntityId) -> bool {
        let (w, b) = (e.index() / 64, e.index() % 64);
        if w >= self.words.len() {
            self.words.resize(w + 1, 0);
        }
        let fresh = self.words[w] & (1 << b) == 0;
        self.words[w] |= 1 << b;
        self.len += usize::from(fresh);
        fresh
    }

    /// Removes `e`; returns `true` if it was present.
    #[inline]
    pub fn remove(&mut self, e: EntityId) -> bool {
        let (w, b) = (e.index() / 64, e.index() % 64);
        if w >= self.words.len() {
            return false;
        }
        let present = self.words[w] & (1 << b) != 0;
        self.words[w] &= !(1 << b);
        self.len -= usize::from(present);
        if present && self.words.last() == Some(&0) {
            // Keep the representation canonical so Eq/Hash treat states with
            // trailing zero words as equal.
            while self.words.last() == Some(&0) {
                self.words.pop();
            }
        }
        present
    }

    /// Number of existing entities.
    pub fn len(&self) -> usize {
        self.len
    }

    /// Whether no entity exists.
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// The bitset: bit `i % 64` of word `i / 64` is set iff entity `i`
    /// exists. Canonical — the last word, if any, is nonzero — so equal
    /// states have equal words.
    pub fn words(&self) -> &[u64] {
        &self.words
    }

    /// The state whose bitset is `words` (see [`words`](Self::words));
    /// `None` if the last word is zero, which no state has.
    pub fn from_words(words: Vec<u64>) -> Option<Self> {
        if words.last() == Some(&0) {
            return None;
        }
        let len = words.iter().map(|w| w.count_ones() as usize).sum();
        Some(StructuralState { words, len })
    }

    /// Iterates over existing entities in id order.
    pub fn iter(&self) -> impl Iterator<Item = EntityId> + '_ {
        self.words.iter().enumerate().flat_map(|(w, &word)| {
            (0..64)
                .filter(move |b| word & (1u64 << b) != 0)
                .map(move |b| EntityId((w * 64 + b) as u32))
        })
    }

    /// Whether a *data* step is defined in this state (Section 2):
    /// `R`/`W`/`D` need the entity present, `I` needs it absent. Lock and
    /// unlock steps are always defined (a transaction locks an entity it is
    /// about to insert *before* the entity exists).
    #[inline]
    pub fn step_defined(&self, step: &Step) -> Result<(), UndefinedStep> {
        let Some(data) = step.op.data() else {
            return Ok(());
        };
        match (data.requires_present(), self.contains(step.entity)) {
            (true, false) => Err(UndefinedStep::EntityAbsent(step.entity)),
            (false, true) => Err(UndefinedStep::EntityPresent(step.entity)),
            _ => Ok(()),
        }
    }

    /// Applies a step, mutating the state if it is an `INSERT` or `DELETE`.
    /// Fails (leaving the state unchanged) if the step is undefined.
    #[inline]
    pub fn apply_step(&mut self, step: &Step) -> Result<(), UndefinedStep> {
        self.step_defined(step)?;
        match step.op.data() {
            Some(DataOp::Insert) => {
                self.insert(step.entity);
            }
            Some(DataOp::Delete) => {
                self.remove(step.entity);
            }
            _ => {}
        }
        Ok(())
    }

    /// Reverses a previously applied step: an `INSERT` is undone by
    /// removal, a `DELETE` by re-insertion; all other steps left the state
    /// unchanged. Only meaningful for a step that actually applied last
    /// (LIFO discipline) — the verifier's apply/undo DFS guarantees this.
    #[inline]
    pub fn unapply_step(&mut self, step: &Step) {
        match step.op.data() {
            Some(DataOp::Insert) => {
                let was_present = self.remove(step.entity);
                debug_assert!(was_present, "unapply of INSERT found entity absent");
            }
            Some(DataOp::Delete) => {
                let was_absent = self.insert(step.entity);
                debug_assert!(was_absent, "unapply of DELETE found entity present");
            }
            _ => {}
        }
    }

    /// Applies a sequence of steps; on failure reports the failing index.
    /// This computes `S(G)` from the paper: the state resulting from
    /// applying sequence `S` to state `G`, undefined if any step is
    /// undefined in the state it executes in.
    pub fn apply_all<'a>(
        &mut self,
        steps: impl IntoIterator<Item = &'a Step>,
    ) -> Result<(), (usize, UndefinedStep)> {
        for (i, step) in steps.into_iter().enumerate() {
            self.apply_step(step).map_err(|e| (i, e))?;
        }
        Ok(())
    }
}

impl fmt::Debug for StructuralState {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_set().entries(self.iter()).finish()
    }
}

impl FromIterator<EntityId> for StructuralState {
    fn from_iter<I: IntoIterator<Item = EntityId>>(iter: I) -> Self {
        Self::from_entities(iter)
    }
}

/// A value state: an assignment of values to (existing) entities.
///
/// The paper's results are independent of values; this type exists so that
/// examples can show *observable* effects of nonserializable executions.
/// Values are plain `i64`s; a fresh entity starts at `0`.
#[derive(Clone, PartialEq, Eq, Debug, Default)]
pub struct ValueState {
    values: HashMap<EntityId, i64>,
}

impl ValueState {
    /// The empty value state.
    pub fn new() -> Self {
        Self::default()
    }

    /// Reads the value of `e` (0 if never written).
    pub fn read(&self, e: EntityId) -> i64 {
        self.values.get(&e).copied().unwrap_or(0)
    }

    /// Writes `v` to `e`.
    pub fn write(&mut self, e: EntityId, v: i64) {
        self.values.insert(e, v);
    }

    /// Removes `e`'s value (on delete).
    pub fn clear(&mut self, e: EntityId) {
        self.values.remove(&e);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn e(i: u32) -> EntityId {
        EntityId(i)
    }

    #[test]
    fn empty_state_contains_nothing() {
        let g = StructuralState::empty();
        assert!(!g.contains(e(0)));
        assert!(!g.contains(e(1000)));
        assert_eq!(g.len(), 0);
        assert!(g.is_empty());
    }

    #[test]
    fn insert_remove_round_trip() {
        let mut g = StructuralState::empty();
        assert!(g.insert(e(5)));
        assert!(!g.insert(e(5)));
        assert!(g.contains(e(5)));
        assert_eq!(g.len(), 1);
        assert!(g.remove(e(5)));
        assert!(!g.remove(e(5)));
        assert!(g.is_empty());
    }

    #[test]
    fn states_with_same_entities_are_equal_regardless_of_history() {
        let mut a = StructuralState::empty();
        a.insert(e(70)); // forces a second word
        a.insert(e(1));
        a.remove(e(70)); // trailing word becomes zero and must be trimmed
        let b = StructuralState::from_entities([e(1)]);
        assert_eq!(a, b);
        use std::collections::hash_map::DefaultHasher;
        use std::hash::{Hash, Hasher};
        let hash = |s: &StructuralState| {
            let mut h = DefaultHasher::new();
            s.hash(&mut h);
            h.finish()
        };
        assert_eq!(hash(&a), hash(&b));
    }

    #[test]
    fn words_round_trip_and_only_canonical_bitsets_are_states() {
        let g = StructuralState::from_entities([e(64), e(3), e(0), e(127)]);
        assert_eq!(g.words(), [0b1001, 1 | 1 << 63]);
        assert_eq!(StructuralState::from_words(g.words().to_vec()), Some(g));
        assert_eq!(
            StructuralState::from_words(Vec::new()),
            Some(StructuralState::empty())
        );
        assert_eq!(StructuralState::from_words(vec![u64::MAX, 0]), None);
        let dense = StructuralState::from_words(vec![u64::MAX; 3]).unwrap();
        assert_eq!(dense.len(), 192);
    }

    #[test]
    fn iter_yields_sorted_ids() {
        let g = StructuralState::from_entities([e(64), e(3), e(0), e(127)]);
        let ids: Vec<u32> = g.iter().map(|x| x.0).collect();
        assert_eq!(ids, vec![0, 3, 64, 127]);
        assert_eq!(g.len(), 4);
    }

    #[test]
    fn read_write_delete_need_presence_insert_needs_absence() {
        let mut g = StructuralState::empty();
        assert_eq!(
            g.step_defined(&Step::read(e(0))),
            Err(UndefinedStep::EntityAbsent(e(0)))
        );
        assert_eq!(
            g.step_defined(&Step::delete(e(0))),
            Err(UndefinedStep::EntityAbsent(e(0)))
        );
        assert!(g.step_defined(&Step::insert(e(0))).is_ok());
        g.insert(e(0));
        assert!(g.step_defined(&Step::read(e(0))).is_ok());
        assert!(g.step_defined(&Step::write(e(0))).is_ok());
        assert_eq!(
            g.step_defined(&Step::insert(e(0))),
            Err(UndefinedStep::EntityPresent(e(0)))
        );
    }

    #[test]
    fn lock_steps_are_always_defined() {
        let g = StructuralState::empty();
        assert!(g.step_defined(&Step::lock_exclusive(e(9))).is_ok());
        assert!(g.step_defined(&Step::unlock_shared(e(9))).is_ok());
    }

    #[test]
    fn apply_all_reports_failing_index() {
        let mut g = StructuralState::empty();
        let steps = [Step::insert(e(0)), Step::read(e(0)), Step::write(e(1))];
        let err = g.apply_all(&steps).unwrap_err();
        assert_eq!(err.0, 2);
        assert_eq!(err.1, UndefinedStep::EntityAbsent(e(1)));
    }

    #[test]
    fn apply_failure_leaves_state_unchanged() {
        let mut g = StructuralState::from_entities([e(0)]);
        let before = g.clone();
        assert!(g.apply_step(&Step::insert(e(0))).is_err());
        assert_eq!(g, before);
    }

    #[test]
    fn section2_example_sequence_is_defined_from_empty() {
        // T1 = (I a)(I b)(W c)(I d), T2 = (R a)(D b)(I c), interleaved as the
        // paper's *proper* schedule: Ia Ib Ra Db Ic Wc Id.
        let (a, b, c, d) = (e(0), e(1), e(2), e(3));
        let steps = [
            Step::insert(a),
            Step::insert(b),
            Step::read(a),
            Step::delete(b),
            Step::insert(c),
            Step::write(c),
            Step::insert(d),
        ];
        let mut g = StructuralState::empty();
        assert!(g.apply_all(&steps).is_ok());
        assert_eq!(g, StructuralState::from_entities([a, c, d]));
    }

    #[test]
    fn value_state_reads_zero_until_written() {
        let mut v = ValueState::new();
        assert_eq!(v.read(e(0)), 0);
        v.write(e(0), 42);
        assert_eq!(v.read(e(0)), 42);
        v.clear(e(0));
        assert_eq!(v.read(e(0)), 0);
    }
}
