//! Commit stamping, snapshot capture, and flip ordering.

use crate::tst::TxStatusTable;
use rustc_hash::FxHashMap;
use slp_core::{EntityId, TxId};
use std::sync::Mutex;

/// A consistent read view captured by a read-only job: every writer whose
/// commit stamp is at or below `read_stamp` is visible, everything else —
/// including the writers listed `in_progress` at capture — is not.
#[derive(Clone, Debug)]
pub struct Snapshot {
    /// The commit clock at capture.
    pub read_stamp: u64,
    /// Writers begun but not yet flipped at capture (diagnostic — the
    /// visibility rule needs only `read_stamp`, because commit stamps are
    /// issued monotonically under the same gate captures run under).
    pub in_progress: Vec<TxId>,
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

#[derive(Default)]
struct Pending {
    /// Unresolved lock-order predecessors this writer's flip waits on.
    waiting_on: Vec<TxId>,
    /// Writers whose flips wait on this one.
    dependents: Vec<TxId>,
    /// `Some(true)` committed, `Some(false)` aborted, `None` still
    /// running.
    decided: Option<bool>,
}

#[derive(Default)]
struct Gate {
    /// Last issued commit stamp; snapshots capture it as `read_stamp`.
    commit_clock: u64,
    /// Writers begun and not yet flipped.
    live: Vec<TxId>,
    pending: FxHashMap<TxId, Pending>,
}

#[derive(Default)]
struct Lockers {
    /// Unresolved writers that locked each entity, in grant order.
    by_entity: FxHashMap<u32, Vec<TxId>>,
    /// Reverse index for purging on resolution.
    footprint: FxHashMap<TxId, Vec<u32>>,
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
/// Flips and captures share one gate mutex, so a capture never observes a
/// half-applied cascade. The gate's `commit_clock` is distinct from the
/// trace sequence counter: trace stamps must stay dense for the recorded
/// schedule, while commit stamps only order flips.
#[derive(Default)]
pub struct CommitPipeline {
    tst: TxStatusTable,
    gate: Mutex<Gate>,
    lockers: Mutex<Lockers>,
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

    /// Registers a writer. Must precede its `note_lock` calls.
    pub fn begin_writer(&self, tx: TxId) {
        let mut gate = self.gate.lock().expect("gate poisoned");
        gate.live.push(tx);
        gate.pending.insert(tx, Pending::default());
    }

    /// Records that `tx` was granted a lock on `entity`. The flip of `tx`
    /// will wait on every unresolved prior locker of `entity`.
    pub fn note_lock(&self, tx: TxId, entity: EntityId) {
        let deps: Vec<TxId> = {
            let mut lockers = self.lockers.lock().expect("lockers poisoned");
            let list = lockers.by_entity.entry(entity.0).or_default();
            let deps = list.iter().copied().filter(|&prior| prior != tx).collect();
            if !list.contains(&tx) {
                list.push(tx);
                lockers.footprint.entry(tx).or_default().push(entity.0);
            }
            deps
        };
        if deps.is_empty() {
            return;
        }
        let mut gate = self.gate.lock().expect("gate poisoned");
        for d in deps {
            // A predecessor that resolved between the two locks needs no
            // dependency — its flip already happened.
            if !gate.pending.contains_key(&d) {
                continue;
            }
            let waiting = &mut gate
                .pending
                .get_mut(&tx)
                .expect("begin_writer precedes note_lock")
                .waiting_on;
            if !waiting.contains(&d) {
                waiting.push(d);
                gate.pending
                    .get_mut(&d)
                    .expect("checked present")
                    .dependents
                    .push(tx);
            }
        }
    }

    /// Commits `tx`: flips its status now if every lock-order predecessor
    /// has resolved, otherwise defers the flip to the cascade.
    pub fn commit(&self, tx: TxId) -> CommitOutcome {
        let mut resolved = Vec::new();
        let outcome = {
            let mut gate = self.gate.lock().expect("gate poisoned");
            let p = gate
                .pending
                .get_mut(&tx)
                .expect("commit of an unregistered writer");
            p.decided = Some(true);
            if p.waiting_on.is_empty() {
                Self::resolve(&mut gate, &self.tst, tx, &mut resolved);
                CommitOutcome::Flipped
            } else {
                CommitOutcome::Deferred
            }
        };
        self.purge_lockers(&resolved);
        outcome
    }

    /// Aborts `tx`. Aborts never wait: flipping to `Aborted` makes
    /// nothing visible, so it is always safe immediately — and it
    /// releases any dependents waiting on `tx`.
    pub fn abort(&self, tx: TxId) {
        let mut resolved = Vec::new();
        {
            let mut gate = self.gate.lock().expect("gate poisoned");
            if let Some(p) = gate.pending.get_mut(&tx) {
                p.decided = Some(false);
                Self::resolve(&mut gate, &self.tst, tx, &mut resolved);
            }
        }
        self.purge_lockers(&resolved);
    }

    /// Captures a snapshot: the commit clock and live-writer set, frozen
    /// under the gate, plus a dense block of trace stamps for the
    /// snapshot's read steps claimed via `claim` (called with the gate
    /// held, so the capture point is well-defined against every flip).
    pub fn capture(&self, reads: usize, claim: impl FnOnce(usize) -> u64) -> Snapshot {
        let gate = self.gate.lock().expect("gate poisoned");
        Snapshot {
            read_stamp: gate.commit_clock,
            in_progress: gate.live.clone(),
            base_stamp: claim(reads),
        }
    }

    /// Writers decided but still unflipped (waiting on unresolved
    /// predecessors). Nonzero at quiescence only under unsafe mutants.
    pub fn stranded(&self) -> usize {
        let gate = self.gate.lock().expect("gate poisoned");
        gate.pending
            .values()
            .filter(|p| p.decided.is_some())
            .count()
    }

    /// Resolves `tx` (and every dependent the resolution unblocks) inside
    /// the gate. `resolved` collects them for locker purging outside.
    fn resolve(gate: &mut Gate, tst: &TxStatusTable, tx: TxId, resolved: &mut Vec<TxId>) {
        let mut work = vec![tx];
        while let Some(t) = work.pop() {
            let Some(p) = gate.pending.remove(&t) else {
                continue;
            };
            let commit = p.decided.expect("resolve only runs on decided writers");
            if commit {
                gate.commit_clock += 1;
                tst.commit(t, gate.commit_clock);
            } else {
                tst.abort(t);
            }
            if let Some(i) = gate.live.iter().position(|&l| l == t) {
                gate.live.swap_remove(i);
            }
            resolved.push(t);
            for dep in p.dependents {
                if let Some(q) = gate.pending.get_mut(&dep) {
                    q.waiting_on.retain(|&w| w != t);
                    if q.waiting_on.is_empty() && q.decided.is_some() {
                        work.push(dep);
                    }
                }
            }
        }
    }

    fn purge_lockers(&self, resolved: &[TxId]) {
        if resolved.is_empty() {
            return;
        }
        let mut lockers = self.lockers.lock().expect("lockers poisoned");
        for tx in resolved {
            let Some(fp) = lockers.footprint.remove(tx) else {
                continue;
            };
            for e in fp {
                if let Some(list) = lockers.by_entity.get_mut(&e) {
                    list.retain(|t| t != tx);
                }
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::tst::TxStatus;

    fn e(i: u32) -> EntityId {
        EntityId(i)
    }

    fn t(i: u32) -> TxId {
        TxId(i)
    }

    #[test]
    fn flip_defers_until_lock_order_predecessor_resolves() {
        let p = CommitPipeline::new();
        p.begin_writer(t(1));
        p.begin_writer(t(2));
        p.note_lock(t(1), e(0));
        // t2 locked e0 after t1 (early release let it in) — its flip
        // must wait for t1 even though it commits first.
        p.note_lock(t(2), e(0));
        assert_eq!(p.commit(t(2)), CommitOutcome::Deferred);
        assert_eq!(p.status_table().status(t(2)), TxStatus::InProgress);
        let s = p.capture(0, |_| 0);
        assert_eq!(s.read_stamp, 0);
        assert_eq!(s.in_progress.len(), 2);
        // t1's commit flips both, in serialization order.
        assert_eq!(p.commit(t(1)), CommitOutcome::Flipped);
        assert_eq!(p.status_table().status(t(1)), TxStatus::Committed(1));
        assert_eq!(p.status_table().status(t(2)), TxStatus::Committed(2));
        assert_eq!(p.stranded(), 0);
        assert!(p.capture(0, |_| 0).in_progress.is_empty());
    }

    #[test]
    fn abort_resolves_immediately_and_releases_dependents() {
        let p = CommitPipeline::new();
        p.begin_writer(t(1));
        p.begin_writer(t(2));
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
