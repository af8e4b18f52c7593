//! Per-entity version chains and the snapshot visibility rule.

use crate::pipeline::Snapshot;
use crate::spine::Spine;
use crate::tst::{TxStatus, TxStatusTable};
use slp_core::{EntityId, TxId, MAX_ENTITIES};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::RwLock;

/// One installed version of an entity.
///
/// `xmin` wrote it; `xmax` (if set) deleted it. Neither resolves
/// visibility by itself — that is always a [`TxStatusTable`] lookup at
/// read time, which is what makes commit a single atomic flip and abort a
/// no-op (no rollback: an aborted `xmin`'s version is permanently
/// invisible).
#[derive(Debug)]
pub struct Version {
    /// The writer that installed this version.
    pub xmin: TxId,
    /// Trace stamp of the installing write — the *pivot* a snapshot read
    /// reports to the certifier: writers with strong stamps above it
    /// wrote versions the snapshot missed.
    pub stamp: u64,
    /// Deleter id + 1; 0 when never deleted. Paired with `xmax_stamp`,
    /// stamp written first (release on the id makes the pair coherent
    /// for lock-free readers).
    xmax_xid: AtomicU64,
    xmax_stamp: AtomicU64,
}

impl Version {
    fn new(xmin: TxId, stamp: u64) -> Self {
        Version {
            xmin,
            stamp,
            xmax_xid: AtomicU64::new(0),
            xmax_stamp: AtomicU64::new(0),
        }
    }

    /// The deleter and the delete step's stamp, if this version has been
    /// delete-marked.
    pub fn xmax(&self) -> Option<(TxId, u64)> {
        let w = self.xmax_xid.load(Ordering::Acquire);
        if w == 0 {
            None
        } else {
            Some((
                TxId((w - 1) as u32),
                self.xmax_stamp.load(Ordering::Relaxed),
            ))
        }
    }

    fn set_xmax(&self, tx: TxId, stamp: u64) {
        self.xmax_stamp.store(stamp, Ordering::Relaxed);
        self.xmax_xid.store(u64::from(tx.0) + 1, Ordering::Release);
    }
}

/// Which visibility rule [`MvccStore::read`] applies.
#[derive(Clone, Copy, PartialEq, Eq, Debug, Default)]
pub enum VisibilityRule {
    /// The real rule: a version is visible to snapshot `S` iff its
    /// `xmin` committed at or below `S.read_stamp` and its `xmax`, if
    /// any, did not.
    #[default]
    Correct,
    /// The scripted negative control: **in-progress** writers count as
    /// visible, so snapshots dirty-read uncommitted versions. The online
    /// certifier must catch the resulting cycles.
    Broken,
}

/// What a snapshot read observed — exactly what the certifier needs to
/// order the read against the entity's writers.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub struct ObservedRead {
    /// The writer of the observed version (the deleter, when the entity
    /// was visibly deleted); `None` when the snapshot saw the initial
    /// (pre-run) state of the entity.
    pub observed: Option<TxId>,
    /// The observed version's install stamp (the delete stamp for a
    /// visibly-deleted entity); `None` for the initial state.
    pub pivot: Option<u64>,
}

impl ObservedRead {
    /// The initial (pre-run) state: no writer observed.
    pub const INITIAL: ObservedRead = ObservedRead {
        observed: None,
        pivot: None,
    };
}

/// The versioned entity store. Writers install versions at lock-grant
/// time (serialized by the entity lock they already hold). Each entity's
/// chain sits behind its own `RwLock` in a fixed spine of lazily
/// allocated chunks ([`MAX_ENTITIES`] slots), so finding a chain takes no
/// run-wide lock and writes nothing shared: readers share the chain's
/// lock, and writers take it only for the push itself.
#[derive(Default)]
pub struct MvccStore {
    chains: Spine<RwLock<Vec<Version>>, { MAX_ENTITIES as usize }>,
}

impl MvccStore {
    /// An empty store: every entity reads as its initial state.
    pub fn new() -> Self {
        Self::default()
    }

    fn chain(&self, entity: EntityId) -> &RwLock<Vec<Version>> {
        self.chains.slot(entity.index())
    }

    /// Installs a new version of `entity` written by `tx` at trace stamp
    /// `stamp` (insert and write are both installs — the first install of
    /// an entity is its insert).
    pub fn install(&self, entity: EntityId, tx: TxId, stamp: u64) {
        self.chain(entity)
            .write()
            .expect("version chain poisoned")
            .push(Version::new(tx, stamp));
    }

    /// Delete-marks the newest version of `entity`. Deleting an entity
    /// that only exists pre-run installs a synthetic version carrying the
    /// tombstone, so snapshots that see the deleter committed see the
    /// entity gone while older snapshots still see the initial state.
    pub fn delete(&self, entity: EntityId, tx: TxId, stamp: u64) {
        let mut chain = self.chain(entity).write().expect("version chain poisoned");
        if chain.is_empty() {
            chain.push(Version::new(tx, stamp));
        }
        chain.last().expect("nonempty").set_xmax(tx, stamp);
    }

    /// Reads `entity` under `snap`: scans the chain newest-first for the
    /// first visible version and reports what was observed. Touches no
    /// lock table and no engine lock — this is the entire read path of a
    /// read-only job.
    pub fn read(
        &self,
        entity: EntityId,
        snap: &Snapshot,
        tst: &TxStatusTable,
        rule: VisibilityRule,
    ) -> ObservedRead {
        let Some(chain) = self.chains.peek(entity.index()) else {
            return ObservedRead::INITIAL;
        };
        let chain = chain.read().expect("version chain poisoned");
        for v in chain.iter().rev() {
            if !writer_visible(v.xmin, snap, tst, rule) {
                continue;
            }
            // Newest visible version; a visible tombstone means the
            // snapshot sees the entity deleted — observing the deleter.
            if let Some((d, dstamp)) = v.xmax() {
                if writer_visible(d, snap, tst, rule) {
                    return ObservedRead {
                        observed: Some(d),
                        pivot: Some(dstamp),
                    };
                }
            }
            return ObservedRead {
                observed: Some(v.xmin),
                pivot: Some(v.stamp),
            };
        }
        ObservedRead::INITIAL
    }
}

/// Whether `tx`'s effects are visible to `snap` under `rule`.
fn writer_visible(tx: TxId, snap: &Snapshot, tst: &TxStatusTable, rule: VisibilityRule) -> bool {
    match tst.status(tx) {
        TxStatus::Committed(c) => c <= snap.read_stamp,
        TxStatus::InProgress => rule == VisibilityRule::Broken,
        TxStatus::Aborted => false,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn snap(read_stamp: u64) -> Snapshot {
        Snapshot {
            read_stamp,
            base_stamp: 0,
        }
    }

    #[test]
    fn visibility_follows_the_status_flip() {
        let store = MvccStore::new();
        let tst = TxStatusTable::new();
        let (e, w) = (EntityId(0), TxId(1));
        store.install(e, w, 10);
        let s = snap(5);
        assert_eq!(
            store.read(e, &s, &tst, VisibilityRule::Correct),
            ObservedRead::INITIAL,
            "in-progress writers are invisible"
        );
        tst.commit(w, 3);
        assert_eq!(
            store.read(e, &s, &tst, VisibilityRule::Correct),
            ObservedRead {
                observed: Some(w),
                pivot: Some(10)
            },
            "the flip alone made the version visible"
        );
        assert_eq!(
            store.read(e, &snap(2), &tst, VisibilityRule::Correct),
            ObservedRead::INITIAL,
            "older snapshots still see the initial state"
        );
    }

    #[test]
    fn aborted_writers_never_surface_and_need_no_rollback() {
        let store = MvccStore::new();
        let tst = TxStatusTable::new();
        let (e, w1, w2) = (EntityId(0), TxId(1), TxId(2));
        store.install(e, w1, 1);
        tst.commit(w1, 1);
        store.install(e, w2, 2);
        tst.abort(w2);
        let got = store.read(e, &snap(9), &tst, VisibilityRule::Correct);
        assert_eq!(got.observed, Some(w1), "aborted newest version is skipped");
    }

    #[test]
    fn visible_tombstone_reports_the_deleter() {
        let store = MvccStore::new();
        let tst = TxStatusTable::new();
        let (e, w, d) = (EntityId(0), TxId(1), TxId(2));
        store.install(e, w, 1);
        tst.commit(w, 1);
        store.delete(e, d, 5);
        assert_eq!(
            store
                .read(e, &snap(9), &tst, VisibilityRule::Correct)
                .observed,
            Some(w),
            "unresolved deleter leaves the version visible"
        );
        tst.commit(d, 2);
        assert_eq!(
            store.read(e, &snap(9), &tst, VisibilityRule::Correct),
            ObservedRead {
                observed: Some(d),
                pivot: Some(5)
            }
        );
        assert_eq!(
            store
                .read(e, &snap(1), &tst, VisibilityRule::Correct)
                .observed,
            Some(w),
            "snapshots below the deleter's stamp still see the version"
        );
    }

    #[test]
    fn broken_rule_dirty_reads_in_progress_writers() {
        let store = MvccStore::new();
        let tst = TxStatusTable::new();
        let (e, w) = (EntityId(3), TxId(4));
        store.install(e, w, 7);
        let s = snap(0);
        assert_eq!(
            store.read(e, &s, &tst, VisibilityRule::Correct),
            ObservedRead::INITIAL
        );
        assert_eq!(
            store.read(e, &s, &tst, VisibilityRule::Broken),
            ObservedRead {
                observed: Some(w),
                pivot: Some(7)
            },
            "the mutant sees uncommitted versions"
        );
    }
}
