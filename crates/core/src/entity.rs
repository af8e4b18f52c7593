//! Entities and the universe of entities.
//!
//! The paper's model (Section 2) posits a universe `U` of all entities that
//! may exist in the database over its lifetime. A *structural state* is a
//! selection of entities from `U`. Entities are interned: the library works
//! with compact [`EntityId`]s, and a [`Universe`] maps ids to human-readable
//! names for display and for building systems from textual descriptions.

use std::collections::HashMap;
use std::fmt;

/// A compact identifier for an entity in the universe `U`.
///
/// Ids are dense (`0..universe.len()`), which lets structural states be
/// represented as bitsets and lets per-entity tables be plain vectors.
#[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct EntityId(pub u32);

/// The bound on entity ids: every id a run may name is below it. It is
/// the capacity of the MVCC store's per-entity tables, and the log's
/// decoder refuses an id at or above it as a corrupt payload (so a flipped
/// bit cannot make recovery size a state by a huge id).
pub const MAX_ENTITIES: u32 = 1 << 22;

impl EntityId {
    /// The id as a usable index.
    #[inline]
    pub fn index(self) -> usize {
        self.0 as usize
    }
}

impl fmt::Debug for EntityId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "e{}", self.0)
    }
}

impl fmt::Display for EntityId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "e{}", self.0)
    }
}

/// The universe of entities: an interner from names to [`EntityId`]s.
///
/// Every entity that a transaction may ever read, write, insert, or delete
/// must be registered here first. Registration is idempotent: interning the
/// same name twice yields the same id.
///
/// # Examples
///
/// ```
/// use slp_core::Universe;
///
/// let mut u = Universe::new();
/// let a = u.entity("a");
/// let b = u.entity("b");
/// assert_ne!(a, b);
/// assert_eq!(u.entity("a"), a);
/// assert_eq!(u.name(a), "a");
/// assert_eq!(u.len(), 2);
/// ```
#[derive(Clone, Debug, Default)]
pub struct Universe {
    names: Vec<String>,
    index: HashMap<String, EntityId>,
}

impl Universe {
    /// Creates an empty universe.
    pub fn new() -> Self {
        Self::default()
    }

    /// Interns `name`, returning its id. Idempotent.
    pub fn entity(&mut self, name: &str) -> EntityId {
        if let Some(&id) = self.index.get(name) {
            return id;
        }
        let id = EntityId(u32::try_from(self.names.len()).expect("universe overflow"));
        self.names.push(name.to_owned());
        self.index.insert(name.to_owned(), id);
        id
    }

    /// Interns a batch of names, returning their ids in order.
    pub fn entities<'a>(&mut self, names: impl IntoIterator<Item = &'a str>) -> Vec<EntityId> {
        names.into_iter().map(|n| self.entity(n)).collect()
    }

    /// Looks up an already-interned name.
    pub fn lookup(&self, name: &str) -> Option<EntityId> {
        self.index.get(name).copied()
    }

    /// The name of `id`.
    ///
    /// # Panics
    ///
    /// Panics if `id` was not produced by this universe.
    pub fn name(&self, id: EntityId) -> &str {
        &self.names[id.index()]
    }

    /// Number of entities interned so far.
    pub fn len(&self) -> usize {
        self.names.len()
    }

    /// Whether the universe is empty.
    pub fn is_empty(&self) -> bool {
        self.names.is_empty()
    }

    /// Iterates over all entity ids in the universe.
    pub fn iter(&self) -> impl Iterator<Item = EntityId> + '_ {
        (0..self.names.len() as u32).map(EntityId)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn intern_is_idempotent() {
        let mut u = Universe::new();
        let a1 = u.entity("a");
        let a2 = u.entity("a");
        assert_eq!(a1, a2);
        assert_eq!(u.len(), 1);
    }

    #[test]
    fn ids_are_dense_and_ordered() {
        let mut u = Universe::new();
        let ids = u.entities(["x", "y", "z"]);
        assert_eq!(ids, vec![EntityId(0), EntityId(1), EntityId(2)]);
        assert_eq!(u.iter().collect::<Vec<_>>(), ids);
    }

    #[test]
    fn lookup_and_name_round_trip() {
        let mut u = Universe::new();
        let a = u.entity("node-7");
        assert_eq!(u.lookup("node-7"), Some(a));
        assert_eq!(u.lookup("absent"), None);
        assert_eq!(u.name(a), "node-7");
    }

    #[test]
    fn display_is_compact() {
        assert_eq!(EntityId(3).to_string(), "e3");
        assert_eq!(format!("{:?}", EntityId(3)), "e3");
    }
}
