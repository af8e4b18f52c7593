//! Commit stamping, snapshot capture, and flip ordering.

use crate::spine::Spine;
use crate::tst::{TxStatus, TxStatusTable};
use rustc_hash::FxHashMap;
use slp_core::{EntityId, TxId, MAX_ENTITIES};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Mutex, MutexGuard};

/// A consistent read view captured by a read-only job: every writer whose
/// commit stamp is at or below `read_stamp` is visible, everything else is
/// not. Nothing else is needed, because the clock a capture reads is
/// published only at the end of a resolve cascade, after every flip it
/// covers.
#[derive(Clone, Debug)]
pub struct Snapshot {
    /// The published commit clock at capture.
    pub read_stamp: u64,
    /// First trace stamp claimed for this snapshot's read steps (the
    /// steps occupy a dense block starting here, keeping the recorded
    /// trace gap-free).
    pub base_stamp: u64,
}

/// What [`CommitPipeline::commit`] did.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum CommitOutcome {
    /// The status flip happened now (and may have cascaded deferred
    /// predecessors' dependents).
    Flipped,
    /// The commit is recorded, but the flip waits on unresolved
    /// lock-order predecessors; it executes automatically when the last
    /// of them resolves. The transaction is durably committed either
    /// way — only snapshot visibility lags.
    Deferred,
}

/// A writer with a registered dependency, on either side of it.
#[derive(Default)]
struct Pending {
    /// Unresolved lock-order predecessors this writer's flip waits on.
    waiting_on: Vec<TxId>,
    /// Writers whose flips wait on this one.
    dependents: Vec<TxId>,
    /// Committed, its flip deferred. (An abort never waits.)
    committed: bool,
}

#[derive(Default)]
struct Gate {
    /// Last issued commit stamp.
    commit_clock: u64,
    pending: FxHashMap<TxId, Pending>,
}

/// Orders status-table flips so that **the flipped set at any snapshot
/// capture is a downward-closed prefix of the serialization order**.
///
/// With early lock release (altruistic donation, DDAG region crawling), a
/// writer can commit before a predecessor it conflicts with: if both
/// flipped in raw commit order, a snapshot could see the successor's
/// version but not the predecessor's — an inconsistent cut. The pipeline
/// records, at each lock grant, a dependency on every unresolved prior
/// locker of the entity (every lock is exclusive, so every one of them
/// conflicts); a writer's flip is deferred until those predecessors
/// resolve, cascading when they do. Dependencies point along the conflict
/// order, which safe policies keep acyclic — so under a safe policy every
/// deferred flip eventually executes. (An unsafe mutant can strand flips
/// in a dependency cycle; that is deliberate and non-blocking — the
/// writers stay durably committed, invisible to snapshots, and the run
/// completes.)
///
/// Each entity keeps its own list of lockers. A locker is unresolved iff
/// its status-table slot still reads `InProgress`, so a list is purged
/// lazily, at the next lock of its entity, and nothing is purged at
/// resolution. Flips happen only under one gate mutex, taken by commit,
/// by abort and by a lock that found an unresolved predecessor (which is
/// checked again there, since it may have resolved meanwhile); a writer
/// that never meets one appears in the gate only to flip. A capture takes
/// no lock: it reads the *published* commit clock, which every cascade
/// stores after its last flip, so it never sees a half-applied cascade.
/// The commit clock is distinct from the trace sequence counter: trace
/// stamps must stay dense for the recorded schedule, while commit stamps
/// only order flips.
#[derive(Default)]
pub struct CommitPipeline {
    tst: TxStatusTable,
    gate: Mutex<Gate>,
    /// The commit clock as of the last finished cascade: stored with
    /// `Release` under the gate after the cascade's flips, loaded with
    /// `Acquire` by `capture`, so every flip at or below it is visible to
    /// the capturer.
    published: AtomicU64,
    /// Each entity's lockers in grant order, resolved ones not yet purged.
    lockers: Spine<Mutex<Vec<TxId>>, { MAX_ENTITIES as usize }>,
}

impl CommitPipeline {
    /// An empty pipeline with a fresh status table.
    pub fn new() -> Self {
        Self::default()
    }

    /// The status table this pipeline flips — the sole visibility
    /// authority for reads against the store.
    pub fn status_table(&self) -> &TxStatusTable {
        &self.tst
    }

    /// Records that `tx` was granted a lock on `entity`. The flip of `tx`
    /// will wait on every unresolved prior locker of `entity`.
    pub fn note_lock(&self, tx: TxId, entity: EntityId) {
        let deps: Vec<TxId> = {
            let mut list = self
                .lockers
                .slot(entity.index())
                .lock()
                .expect("lockers poisoned");
            list.retain(|&t| self.unresolved(t));
            let deps = list.iter().copied().filter(|&prior| prior != tx).collect();
            if !list.contains(&tx) {
                list.push(tx);
            }
            deps
        };
        if deps.is_empty() {
            return;
        }
        let mut gate = self.gate();
        for d in deps {
            // A predecessor that resolved since the list was read needs
            // no dependency — its flip already happened. Under the gate
            // the answer is final: every flip happens there.
            if !self.unresolved(d) {
                continue;
            }
            let waiting = &mut gate.pending.entry(tx).or_default().waiting_on;
            if !waiting.contains(&d) {
                waiting.push(d);
                gate.pending.entry(d).or_default().dependents.push(tx);
            }
        }
    }

    /// Commits `tx`: flips its status now if every lock-order predecessor
    /// has resolved, otherwise defers the flip to the cascade.
    pub fn commit(&self, tx: TxId) -> CommitOutcome {
        let mut gate = self.gate();
        if let Some(p) = gate.pending.get_mut(&tx) {
            if !p.waiting_on.is_empty() {
                p.committed = true;
                return CommitOutcome::Deferred;
            }
        }
        self.resolve(&mut gate, tx, true);
        CommitOutcome::Flipped
    }

    /// Aborts `tx`. Aborts never wait: flipping to `Aborted` makes
    /// nothing visible, so it is always safe immediately — and it
    /// releases any dependents waiting on `tx`.
    pub fn abort(&self, tx: TxId) {
        self.resolve(&mut self.gate(), tx, false);
    }

    /// Captures a snapshot without taking a lock: the published commit
    /// clock, then a dense block of trace stamps for the snapshot's read
    /// steps claimed via `claim`. Every writer visible at that clock drew
    /// its stamps before it flipped, so before the block.
    pub fn capture(&self, reads: usize, claim: impl FnOnce(usize) -> u64) -> Snapshot {
        Snapshot {
            read_stamp: self.published.load(Ordering::Acquire),
            base_stamp: claim(reads),
        }
    }

    /// Writers committed but still unflipped (waiting on unresolved
    /// predecessors). Nonzero at quiescence only under unsafe mutants.
    pub fn stranded(&self) -> usize {
        self.gate().pending.values().filter(|p| p.committed).count()
    }

    fn gate(&self) -> MutexGuard<'_, Gate> {
        self.gate.lock().expect("gate poisoned")
    }

    fn unresolved(&self, tx: TxId) -> bool {
        self.tst.status(tx) == TxStatus::InProgress
    }

    /// Flips `tx` (and every deferred dependent the flip unblocks) inside
    /// the gate, then publishes the commit clock.
    fn resolve(&self, gate: &mut Gate, tx: TxId, commit: bool) {
        let mut work = vec![(tx, commit)];
        while let Some((t, commit)) = work.pop() {
            if commit {
                gate.commit_clock += 1;
                self.tst.commit(t, gate.commit_clock);
            } else {
                self.tst.abort(t);
            }
            let Some(p) = gate.pending.remove(&t) else {
                continue;
            };
            for dep in p.dependents {
                if let Some(q) = gate.pending.get_mut(&dep) {
                    q.waiting_on.retain(|&w| w != t);
                    if q.waiting_on.is_empty() && q.committed {
                        work.push((dep, true));
                    }
                }
            }
        }
        self.published.store(gate.commit_clock, Ordering::Release);
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
    fn flip_defers_until_lock_order_predecessor_resolves() {
        let p = CommitPipeline::new();
        p.note_lock(t(1), e(0));
        // t2 locked e0 after t1 (early release let it in) — its flip
        // must wait for t1 even though it commits first.
        p.note_lock(t(2), e(0));
        assert_eq!(p.commit(t(2)), CommitOutcome::Deferred);
        assert_eq!(p.status_table().status(t(2)), TxStatus::InProgress);
        assert_eq!(p.capture(0, |_| 0).read_stamp, 0);
        // t1's commit flips both, in serialization order.
        assert_eq!(p.commit(t(1)), CommitOutcome::Flipped);
        assert_eq!(p.status_table().status(t(1)), TxStatus::Committed(1));
        assert_eq!(p.status_table().status(t(2)), TxStatus::Committed(2));
        assert_eq!(p.stranded(), 0);
        assert_eq!(p.capture(0, |_| 0).read_stamp, 2);
    }

    #[test]
    fn abort_resolves_immediately_and_releases_dependents() {
        let p = CommitPipeline::new();
        p.note_lock(t(1), e(0));
        p.note_lock(t(2), e(0));
        assert_eq!(p.commit(t(2)), CommitOutcome::Deferred);
        p.abort(t(1));
        assert_eq!(p.status_table().status(t(1)), TxStatus::Aborted);
        assert_eq!(
            p.status_table().status(t(2)),
            TxStatus::Committed(1),
            "the abort unblocked the deferred flip"
        );
    }

    /// One "last locker" word per entity would hold only t2 once t1 and
    /// t2 had locked `e`, and t2's abort would leave t3 no predecessor:
    /// t3 would flip before t1.
    #[test]
    fn an_aborted_locker_does_not_hide_an_earlier_unresolved_one() {
        let p = CommitPipeline::new();
        p.note_lock(t(1), e(0));
        p.note_lock(t(2), e(0));
        p.abort(t(2));
        p.note_lock(t(3), e(0));
        assert_eq!(p.commit(t(3)), CommitOutcome::Deferred);
        assert_eq!(p.status_table().status(t(3)), TxStatus::InProgress);
        assert_eq!(p.capture(0, |_| 0).read_stamp, 0);
        assert_eq!(p.commit(t(1)), CommitOutcome::Flipped);
        assert_eq!(p.status_table().status(t(1)), TxStatus::Committed(1));
        assert_eq!(p.status_table().status(t(3)), TxStatus::Committed(2));
        assert_eq!(p.stranded(), 0);
    }

    /// The list of `e1` is purged at t3's lock: t0 flipped and goes, but
    /// t2 committed with its flip deferred behind t1, so its slot still
    /// reads `InProgress` and t3 must wait on it.
    #[test]
    fn a_purged_list_keeps_a_committed_but_deferred_locker() {
        let p = CommitPipeline::new();
        p.note_lock(t(10), e(1));
        assert_eq!(p.commit(t(10)), CommitOutcome::Flipped);
        p.note_lock(t(1), e(0));
        p.note_lock(t(2), e(0));
        p.note_lock(t(2), e(1));
        assert_eq!(p.commit(t(2)), CommitOutcome::Deferred);
        p.note_lock(t(3), e(1));
        assert_eq!(p.commit(t(3)), CommitOutcome::Deferred);
        assert_eq!(p.stranded(), 2);
        assert_eq!(p.capture(0, |_| 0).read_stamp, 1);
        assert_eq!(p.commit(t(1)), CommitOutcome::Flipped);
        let tst = p.status_table();
        assert_eq!(
            [t(1), t(2), t(3)].map(|x| tst.status(x)),
            [2, 3, 4].map(TxStatus::Committed),
            "the cascade flips in lock order"
        );
        assert_eq!(p.stranded(), 0);
        assert_eq!(p.capture(0, |_| 0).read_stamp, 4);
    }

    #[test]
    fn capture_claims_a_dense_stamp_block() {
        let p = CommitPipeline::new();
        let s = p.capture(3, |n| {
            assert_eq!(n, 3);
            17
        });
        assert_eq!(s.base_stamp, 17);
    }
}
