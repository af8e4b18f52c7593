//! A fixed array of lazily allocated chunks: the storage behind the status
//! table, the version chains and the locker lists.

use std::sync::OnceLock;

/// Slots per lazily-allocated chunk.
pub(crate) const CHUNK: usize = 1 << 12;

/// `SLOTS` default-initialized slots in a fixed spine of [`OnceLock`]
/// chunks, each allocated on first touch, so the array grows lock-free
/// without moving an existing slot (no `unsafe`, no RCU). A lookup is one
/// load of the chunk pointer and writes nothing shared.
pub(crate) struct Spine<T, const SLOTS: usize> {
    chunks: Box<[OnceLock<Box<[T]>>]>,
}

impl<T: Default, const SLOTS: usize> Default for Spine<T, SLOTS> {
    fn default() -> Self {
        Spine {
            chunks: (0..SLOTS.div_ceil(CHUNK))
                .map(|_| OnceLock::new())
                .collect(),
        }
    }
}

impl<T: Default, const SLOTS: usize> Spine<T, SLOTS> {
    /// Slot `idx`, allocating its chunk on first touch.
    pub fn slot(&self, idx: usize) -> &T {
        assert!(idx < SLOTS, "index {idx} beyond a spine of {SLOTS} slots");
        &self.chunks[idx / CHUNK].get_or_init(|| (0..CHUNK).map(|_| T::default()).collect())
            [idx % CHUNK]
    }

    /// Slot `idx` if its chunk was ever touched: a lookup that allocates
    /// nothing (an untouched slot still holds its default).
    pub fn peek(&self, idx: usize) -> Option<&T> {
        self.chunks.get(idx / CHUNK)?.get().map(|c| &c[idx % CHUNK])
    }
}
