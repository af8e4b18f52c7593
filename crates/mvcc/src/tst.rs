//! The transaction status table: one atomic word per transaction id.

use crate::spine::Spine;
use slp_core::TxId;
use std::sync::atomic::{AtomicU64, Ordering};

/// A transaction's lifecycle state as recorded in the status table.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum TxStatus {
    /// Begun (or never seen) and not yet resolved. Its versions are
    /// invisible to every snapshot.
    InProgress,
    /// Committed at the carried commit stamp: visible to snapshots whose
    /// `read_stamp` is at or above it.
    Committed(u64),
    /// Aborted: its versions are invisible forever — no rollback needed.
    Aborted,
}

/// Word encoding: two tag bits, stamp in the upper 62.
const TAG_MASK: u64 = 0b11;
const TAG_IN_PROGRESS: u64 = 0b00; // the default (zeroed) state
const TAG_COMMITTED: u64 = 0b01;
const TAG_ABORTED: u64 = 0b10;

/// The table's capacity: ids `0..TX_SLOTS` (~16.8M) have a slot, and
/// flipping an id at or above it panics. A runtime with snapshot reads
/// mints no such id.
pub const TX_SLOTS: usize = 1 << 24;

/// The **sole commit authority** for snapshot visibility: a lock-free
/// table with one atomic `u64` per transaction id, `InProgress` (the
/// zeroed default) until a single compare-and-swap flips it to
/// `Committed(stamp)` or `Aborted`. Readers never lock; writers never
/// revisit their versions at commit — the flip makes every version the
/// writer installed visible (or permanently invisible) atomically.
///
/// Storage is a chunked spine whose chunks are allocated on first touch,
/// so the table grows lock-free without moving existing slots.
#[derive(Default)]
pub struct TxStatusTable {
    slots: Spine<AtomicU64, TX_SLOTS>,
}

impl TxStatusTable {
    /// An empty table: every id reads `InProgress`.
    pub fn new() -> Self {
        Self::default()
    }

    fn slot(&self, tx: TxId) -> &AtomicU64 {
        self.slots.slot(tx.index())
    }

    /// The transaction's current status.
    pub fn status(&self, tx: TxId) -> TxStatus {
        let w = self
            .slots
            .peek(tx.index())
            .map_or(TAG_IN_PROGRESS, |slot| slot.load(Ordering::Acquire));
        match w & TAG_MASK {
            TAG_COMMITTED => TxStatus::Committed(w >> 2),
            TAG_ABORTED => TxStatus::Aborted,
            _ => TxStatus::InProgress,
        }
    }

    /// Flips `tx` to `Committed(stamp)`. Returns `false` when the slot
    /// was already resolved (the flip did not happen).
    pub fn commit(&self, tx: TxId, stamp: u64) -> bool {
        // Release-mode check: a stamp at 2^62 would shift into the tag
        // bits and could masquerade as a different status, silently
        // corrupting visibility for every reader of this slot.
        assert!(stamp < 1 << 62, "commit stamp overflows the tag encoding");
        self.slot(tx)
            .compare_exchange(
                TAG_IN_PROGRESS,
                (stamp << 2) | TAG_COMMITTED,
                Ordering::AcqRel,
                Ordering::Acquire,
            )
            .is_ok()
    }

    /// Flips `tx` to `Aborted`. Returns `false` when already resolved.
    pub fn abort(&self, tx: TxId) -> bool {
        self.slot(tx)
            .compare_exchange(
                TAG_IN_PROGRESS,
                TAG_ABORTED,
                Ordering::AcqRel,
                Ordering::Acquire,
            )
            .is_ok()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::spine::CHUNK;

    #[test]
    fn default_is_in_progress_and_flips_are_final() {
        let tst = TxStatusTable::new();
        let t = TxId(7);
        assert_eq!(tst.status(t), TxStatus::InProgress);
        assert!(tst.commit(t, 42));
        assert_eq!(tst.status(t), TxStatus::Committed(42));
        assert!(!tst.abort(t), "resolved slots never flip again");
        assert!(!tst.commit(t, 43));
        assert_eq!(tst.status(t), TxStatus::Committed(42));

        let a = TxId(8);
        assert!(tst.abort(a));
        assert_eq!(tst.status(a), TxStatus::Aborted);
        assert!(!tst.commit(a, 1));
    }

    #[test]
    fn ids_across_chunk_boundaries_are_independent() {
        let tst = TxStatusTable::new();
        let lo = TxId(3);
        let hi = TxId((CHUNK as u32) * 3 + 5);
        assert!(tst.commit(hi, 9));
        assert_eq!(tst.status(lo), TxStatus::InProgress);
        assert_eq!(tst.status(hi), TxStatus::Committed(9));
    }
}
