//! Crash recovery: rebuild a prefix-consistent execution from whatever
//! bytes a crash left behind.
//!
//! Recovery is replay. [`recover`] walks the surviving segments in order,
//! decoding frames until the first torn or corrupt one and **truncating
//! there** — everything after an anomaly is untrusted, and no input makes
//! recovery panic. From the surviving records it seeds state from a
//! checkpoint and replays the contiguous stamped tail past it:
//!
//! 1. stamps are dense by construction, so the recovered steps are sorted
//!    by stamp and cut at the first gap (a gap means a later group-commit
//!    batch survived while an earlier one was lost — the steps past the
//!    gap are not a prefix of the original run and are discarded);
//! 2. a transaction counts as committed only if its commit record
//!    survived *and* the recovered watermark covers its last step;
//! 3. conflict-serializability is prefix-closed — the serialization graph
//!    of a prefix is a subgraph of the full (acyclic) graph — so the
//!    replayed prefix is itself a legal, proper, serializable execution.
//!    [`Recovered::certify`] re-checks exactly that from first principles.

use crate::frame::{decode_frame, Checkpoint, FrameOutcome, Record, TornReason};
use crate::store::Store;
use crate::{WalError, SEGMENT_MAGIC};
use slp_core::{
    is_serializable, DataOp, EntityId, LegalViolation, LockMode, Operation, ProperViolation,
    Schedule, ScheduledStep, StructuralState, TxId,
};
use std::fmt;

/// Applies one granted step to a recovered run replica: `INSERT`/`DELETE`
/// mutate the structural state, `LOCK`/`UNLOCK` maintain the held-locks
/// list (in acquisition order), `READ`/`WRITE` change neither.
///
/// This is deliberately *not* a validity checker — the steps come from a
/// run the engine already validated (and [`Recovered::certify`] re-checks
/// full replays independently); replay just folds them in.
pub fn replay_step(
    state: &mut StructuralState,
    locks: &mut Vec<(EntityId, TxId, LockMode)>,
    s: &ScheduledStep,
) {
    match s.step.op {
        Operation::Data(DataOp::Insert) => {
            state.insert(s.step.entity);
        }
        Operation::Data(DataOp::Delete) => {
            state.remove(s.step.entity);
        }
        Operation::Data(_) => {}
        Operation::Lock(mode) => locks.push((s.step.entity, s.tx, mode)),
        Operation::Unlock(mode) => {
            if let Some(i) = locks
                .iter()
                .position(|&(e, t, m)| e == s.step.entity && t == s.tx && m == mode)
            {
                locks.remove(i);
            }
        }
    }
}

/// Which surviving checkpoint to seed recovery from.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum RecoveryMode {
    /// The newest checkpoint — the production choice: shortest replay.
    Newest,
    /// The oldest checkpoint — replays the longest surviving tail; with
    /// an unpruned log this is the creation-time base checkpoint, which
    /// makes the whole run re-certifiable ([`Recovered::certify`]).
    Oldest,
}

/// Where and why the log was cut during recovery.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub struct Truncation {
    /// Segment in which the anomaly was found.
    pub segment: u64,
    /// Byte offset of the anomaly within that segment.
    pub offset: usize,
    /// What was wrong there.
    pub reason: TornReason,
}

/// Why recovery could not produce a state at all (torn tails and corrupt
/// suffixes do *not* land here — they truncate and recovery proceeds).
#[derive(Clone, PartialEq, Eq, Debug)]
pub enum RecoverError {
    /// The store holds no segments: the log never became durable.
    EmptyStore,
    /// No checkpoint survived, so there is no state to seed from. With
    /// the creation-time base checkpoint synced before any steps, this
    /// means the crash beat the very first fsync — the run never durably
    /// started.
    NoCheckpoint,
    /// The store itself failed while being read.
    Store(WalError),
}

impl fmt::Display for RecoverError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            RecoverError::EmptyStore => f.write_str("no segments: log never became durable"),
            RecoverError::NoCheckpoint => f.write_str("no surviving checkpoint to seed from"),
            RecoverError::Store(e) => write!(f, "store failed during recovery: {e}"),
        }
    }
}

impl std::error::Error for RecoverError {}

impl From<WalError> for RecoverError {
    fn from(e: WalError) -> Self {
        RecoverError::Store(e)
    }
}

/// The result of replaying a crashed log.
#[derive(Clone, PartialEq, Eq, Debug)]
pub struct Recovered {
    /// Watermark of the checkpoint recovery seeded from (0 = full replay).
    pub base_stamp: u64,
    /// Structural state at `base_stamp`.
    pub base_state: StructuralState,
    /// Locks held at `base_stamp`.
    pub base_locks: Vec<(EntityId, TxId, LockMode)>,
    /// The contiguous stamped tail replayed on top of the base, stamps
    /// `base_stamp..base_stamp + tail.len()`.
    pub tail: Vec<(u64, ScheduledStep)>,
    /// Structural state after replaying the tail — the recovered state.
    pub state: StructuralState,
    /// Locks held after replaying the tail (in-flight transactions).
    pub locks: Vec<(EntityId, TxId, LockMode)>,
    /// One past the last recovered stamp: `base_stamp + tail.len()`.
    pub watermark: u64,
    /// Transactions whose commit record survived *and* whose steps are
    /// all within the watermark — the durably committed set.
    pub committed: Vec<TxId>,
    /// Lower bound on total durable commits: surviving commit records may
    /// undercount when pruning dropped old segments, so this folds in the
    /// seed checkpoint's commit counter. Exact when nothing was pruned.
    pub committed_floor: u64,
    /// Where the log was cut, if an anomaly was found (`None` = the log
    /// ended cleanly on a frame boundary).
    pub truncation: Option<Truncation>,
    /// Steps discarded because they lay past a stamp gap (an earlier
    /// unsynced batch was lost while a later one survived).
    pub dropped_after_gap: usize,
}

/// Why a recovered prefix failed re-certification. Any of these indicates
/// a bug (in the engine, the log, or recovery) — a surviving prefix of a
/// safe run always certifies.
#[derive(Clone, PartialEq, Eq, Debug)]
pub enum CertifyError {
    /// Certification needs a full replay (`base_stamp == 0`); recovery
    /// seeded from a mid-run checkpoint instead (use
    /// [`RecoveryMode::Oldest`] on an unpruned log).
    PartialBase,
    /// The tail's stamps did not form a contiguous sequence (recovery
    /// should have made this impossible).
    BadSequence,
    /// The recovered schedule acquires conflicting locks.
    Illegal(LegalViolation),
    /// The recovered schedule takes a step undefined in its state.
    Improper(ProperViolation),
    /// The recovered schedule is not conflict-serializable.
    NotSerializable,
    /// Independent replay of the schedule disagrees with the recovered
    /// state or lock set.
    StateMismatch,
}

impl fmt::Display for CertifyError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            CertifyError::PartialBase => {
                f.write_str("certification requires a full replay from stamp 0")
            }
            CertifyError::BadSequence => f.write_str("recovered tail stamps not contiguous"),
            CertifyError::Illegal(v) => write!(f, "recovered schedule illegal: {v}"),
            CertifyError::Improper(v) => write!(f, "recovered schedule improper: {v}"),
            CertifyError::NotSerializable => {
                f.write_str("recovered schedule not conflict-serializable")
            }
            CertifyError::StateMismatch => {
                f.write_str("replay of recovered schedule disagrees with recovered state")
            }
        }
    }
}

impl std::error::Error for CertifyError {}

impl Recovered {
    /// The recovered tail as a [`Schedule`] (empty if no steps survived).
    pub fn schedule(&self) -> Result<Schedule, CertifyError> {
        if self.tail.is_empty() {
            return Ok(Schedule::empty());
        }
        Schedule::from_sequenced(self.tail.clone()).map_err(|_| CertifyError::BadSequence)
    }

    /// Re-certifies a full replay from first principles: the recovered
    /// schedule must be legal, proper from the base state, and
    /// conflict-serializable, and independently replaying it must land on
    /// exactly the recovered state and lock set.
    ///
    /// Only full replays can be certified — a mid-run checkpoint base
    /// would require trusting the checkpoint, which is what is being
    /// checked. (Checkpoint fidelity is instead pinned by comparing
    /// [`RecoveryMode::Newest`] against [`RecoveryMode::Oldest`]: both
    /// must land on the same state.)
    pub fn certify(&self) -> Result<(), CertifyError> {
        if self.base_stamp != 0 || !self.base_locks.is_empty() {
            return Err(CertifyError::PartialBase);
        }
        let schedule = self.schedule()?;
        schedule.check_legal().map_err(CertifyError::Illegal)?;
        let final_state = schedule
            .check_proper(&self.base_state)
            .map_err(CertifyError::Improper)?;
        if !is_serializable(&schedule) {
            return Err(CertifyError::NotSerializable);
        }
        if final_state != self.state || schedule.locks_held_at_end() != self.locks {
            return Err(CertifyError::StateMismatch);
        }
        Ok(())
    }
}

/// Replays the log in `store` into a recovered execution. See the module
/// docs for the algorithm; the short form: parse until the first anomaly,
/// truncate, seed from a checkpoint, replay the contiguous stamped tail.
pub fn recover(store: &dyn Store, mode: RecoveryMode) -> Result<Recovered, RecoverError> {
    let segments = store.list()?;
    if segments.is_empty() {
        return Err(RecoverError::EmptyStore);
    }

    // Phase 1: decode records until the first anomaly.
    let mut records = Vec::new();
    let mut truncation = None;
    'segments: for (expected, &index) in (segments[0]..).zip(segments.iter()) {
        if index != expected {
            // A hole in the sequence: segments past it postdate bytes we
            // do not have, so nothing after the hole can be trusted.
            truncation = Some(Truncation {
                segment: expected,
                offset: 0,
                reason: TornReason::MissingSegment,
            });
            break;
        }
        let data = store.read(index)?;
        if data.len() < SEGMENT_MAGIC.len() || &data[..SEGMENT_MAGIC.len()] != SEGMENT_MAGIC {
            truncation = Some(Truncation {
                segment: index,
                offset: 0,
                reason: TornReason::BadMagic,
            });
            break;
        }
        let mut offset = SEGMENT_MAGIC.len();
        loop {
            match decode_frame(&data[offset..]) {
                FrameOutcome::Record(record, rest) => {
                    offset = data.len() - rest.len();
                    records.push(record);
                }
                FrameOutcome::End => break,
                FrameOutcome::Torn(reason) => {
                    // First bad frame: cut here. Even if later segments
                    // would parse, they postdate the damage.
                    truncation = Some(Truncation {
                        segment: index,
                        offset,
                        reason,
                    });
                    break 'segments;
                }
            }
        }
    }

    // Phase 2: seed from a surviving checkpoint.
    let base: &Checkpoint = {
        let mut found = None;
        for r in &records {
            if let Record::Checkpoint(c) = r {
                found = Some(c);
                if mode == RecoveryMode::Oldest {
                    break;
                }
            }
        }
        found.ok_or(RecoverError::NoCheckpoint)?
    };

    // Phase 3: the contiguous stamped tail past the base watermark.
    // Stamps order the steps; byte order across workers is arbitrary.
    let mut steps: Vec<(u64, ScheduledStep)> = records
        .iter()
        .filter_map(|r| match r {
            Record::Steps(entries) => Some(entries.iter().copied()),
            _ => None,
        })
        .flatten()
        .filter(|&(stamp, _)| stamp >= base.watermark)
        .collect();
    steps.sort_unstable_by_key(|&(stamp, _)| stamp);
    let contiguous = steps
        .iter()
        .enumerate()
        .take_while(|&(i, &(stamp, _))| stamp == base.watermark + i as u64)
        .count();
    let dropped_after_gap = steps.len() - contiguous;
    steps.truncate(contiguous);
    let watermark = base.watermark + steps.len() as u64;

    // Phase 4: replay the tail onto the base.
    let mut state = base.state.clone();
    let mut locks = base.locks.clone();
    for (_, step) in &steps {
        replay_step(&mut state, &mut locks, step);
    }

    // Phase 5: the durably committed set.
    let committed: Vec<TxId> = records
        .iter()
        .filter_map(|r| match *r {
            Record::Commit {
                tx,
                required_watermark,
            } if required_watermark <= watermark => Some(tx),
            _ => None,
        })
        .collect();
    let committed_floor = base.committed.max(committed.len() as u64);

    Ok(Recovered {
        base_stamp: base.watermark,
        base_state: base.state.clone(),
        base_locks: base.locks.clone(),
        tail: steps,
        state,
        locks,
        watermark,
        committed,
        committed_floor,
        truncation,
        dropped_after_gap,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::store::{MemStore, SharedMemStore};
    use crate::wal::{Wal, WalConfig};
    use slp_core::Step;

    fn e(i: u32) -> EntityId {
        EntityId(i)
    }

    fn t(i: u32) -> TxId {
        TxId(i)
    }

    fn step(tx: u32, s: Step) -> ScheduledStep {
        ScheduledStep::new(TxId(tx), s)
    }

    /// A small fully-synced run: T1 inserts e0 and commits, T2 locks e1
    /// and is still in flight at the end.
    fn logged_run(config: WalConfig) -> SharedMemStore {
        let handle = SharedMemStore::new();
        let wal = Wal::create(Box::new(handle.clone()), config, &StructuralState::empty()).unwrap();
        wal.append_steps(&[
            (0, step(1, Step::lock_exclusive(e(0)))),
            (1, step(1, Step::insert(e(0)))),
        ])
        .unwrap();
        wal.append_steps(&[(2, step(2, Step::lock_shared(e(1))))])
            .unwrap();
        wal.append_steps(&[(3, step(1, Step::unlock_exclusive(e(0))))])
            .unwrap();
        wal.append_commit(t(1), 4).unwrap();
        wal.flush().unwrap();
        handle
    }

    fn tight() -> WalConfig {
        WalConfig {
            group_commit: 1,
            checkpoint_every: 0,
            ..WalConfig::default()
        }
    }

    #[test]
    fn clean_log_recovers_and_certifies() {
        let store = logged_run(tight()).snapshot();
        let r = recover(&store, RecoveryMode::Oldest).unwrap();
        assert_eq!(r.base_stamp, 0);
        assert_eq!(r.watermark, 4);
        assert_eq!(r.truncation, None);
        assert_eq!(r.dropped_after_gap, 0);
        assert_eq!(r.state, StructuralState::from_entities([e(0)]));
        assert_eq!(r.locks, vec![(e(1), t(2), LockMode::Shared)]);
        assert_eq!(r.committed, vec![t(1)]);
        assert_eq!(r.committed_floor, 1);
        r.certify().unwrap();
    }

    #[test]
    fn every_byte_prefix_recovers_without_panic_and_certifies() {
        let full = logged_run(tight()).snapshot();
        let total = full.total_bytes();
        let complete = recover(&full, RecoveryMode::Oldest).unwrap();
        let mut watermarks = Vec::new();
        for cut in 0..=total {
            let store = full.prefix(cut);
            match recover(&store, RecoveryMode::Oldest) {
                Ok(r) => {
                    // The recovered tail is a stamp-prefix of the full run...
                    assert!(r.watermark <= complete.watermark);
                    assert_eq!(r.tail[..], complete.tail[..r.watermark as usize]);
                    // ...and certifies as a safe execution on its own.
                    r.certify().unwrap();
                    // Commit durability never outruns the watermark.
                    assert!(r.committed.len() <= complete.committed.len());
                    watermarks.push(r.watermark);
                }
                Err(RecoverError::EmptyStore) | Err(RecoverError::NoCheckpoint) => {
                    // Legitimate only before the base checkpoint's bytes
                    // are complete.
                    assert!(
                        cut < 100,
                        "late cut at {cut}/{total} lost the base checkpoint"
                    );
                }
                Err(e) => panic!("cut at {cut}: {e}"),
            }
        }
        // Watermarks grow monotonically with the surviving prefix and
        // reach the full run.
        assert!(watermarks.windows(2).all(|w| w[0] <= w[1]));
        assert_eq!(watermarks.last(), Some(&4));
    }

    #[test]
    fn unsynced_tail_is_lost_but_the_synced_prefix_survives() {
        let handle = SharedMemStore::new();
        let wal = Wal::create(
            Box::new(handle.clone()),
            WalConfig {
                group_commit: 100, // nothing syncs until flush
                checkpoint_every: 0,
                ..WalConfig::default()
            },
            &StructuralState::empty(),
        )
        .unwrap();
        wal.append_steps(&[(0, step(1, Step::insert(e(0))))])
            .unwrap();
        // Crash before any sync: only the (synced) base checkpoint survives.
        let crashed = handle.snapshot().crashed(false);
        let r = recover(&crashed, RecoveryMode::Oldest).unwrap();
        assert_eq!(r.watermark, 0);
        assert_eq!(r.state, StructuralState::empty());
        r.certify().unwrap();
        // The lucky crash (OS flushed anyway) keeps the step.
        let lucky = handle.snapshot().crashed(true);
        let r = recover(&lucky, RecoveryMode::Oldest).unwrap();
        assert_eq!(r.watermark, 1);
        assert_eq!(r.state, StructuralState::from_entities([e(0)]));
    }

    #[test]
    fn corruption_truncates_at_the_damaged_frame() {
        let full = logged_run(tight()).snapshot();
        // Corrupt a byte somewhere after the base checkpoint.
        let mut store = full.clone();
        store.corrupt(full.total_bytes() - 10, 0x01);
        let r = recover(&store, RecoveryMode::Oldest).unwrap();
        let truncation = r.truncation.expect("corruption must be detected");
        assert!(matches!(
            truncation.reason,
            TornReason::BadChecksum | TornReason::TruncatedPayload | TornReason::OversizeLength
        ));
        assert!(r.watermark <= 4);
        r.certify().unwrap();
    }

    #[test]
    fn every_single_byte_corruption_recovers_a_certified_prefix() {
        let full = logged_run(tight()).snapshot();
        let complete = recover(&full, RecoveryMode::Oldest).unwrap();
        for offset in 0..full.total_bytes() {
            let mut store = full.clone();
            store.corrupt(offset, 0x80);
            match recover(&store, RecoveryMode::Oldest) {
                Ok(r) => {
                    assert!(r.truncation.is_some(), "flip at {offset} undetected");
                    assert_eq!(r.tail[..], complete.tail[..r.tail.len()]);
                    r.certify().unwrap();
                }
                Err(RecoverError::EmptyStore) | Err(RecoverError::NoCheckpoint) => {
                    // The flip hit the base checkpoint's frame or magic.
                }
                Err(e) => panic!("flip at {offset}: {e}"),
            }
        }
    }

    #[test]
    fn stamp_gap_drops_the_unanchored_suffix() {
        // Build a log where a middle batch is missing: worker A's batch
        // (stamp 1) was never synced but worker B's later batch (stamp 2)
        // was — simulated by writing the frames directly.
        let mut store = MemStore::new();
        store.open_segment(0).unwrap();
        store.append(SEGMENT_MAGIC).unwrap();
        let mut buf = Vec::new();
        crate::frame::encode_frame(
            &mut buf,
            &Record::Checkpoint(Checkpoint {
                watermark: 0,
                committed: 0,
                state: StructuralState::empty(),
                locks: Vec::new(),
            }),
        );
        crate::frame::encode_frame(
            &mut buf,
            &Record::Steps(vec![(0, step(1, Step::insert(e(0))))]),
        );
        // stamp 1 missing
        crate::frame::encode_frame(
            &mut buf,
            &Record::Steps(vec![(2, step(2, Step::insert(e(2))))]),
        );
        crate::frame::encode_frame(
            &mut buf,
            &Record::Commit {
                tx: t(2),
                required_watermark: 3,
            },
        );
        store.append(&buf).unwrap();
        store.sync().unwrap();
        let r = recover(&store, RecoveryMode::Oldest).unwrap();
        assert_eq!(r.watermark, 1, "stops at the gap");
        assert_eq!(r.dropped_after_gap, 1);
        assert_eq!(r.state, StructuralState::from_entities([e(0)]));
        // T2's commit required watermark 3; only 1 was recovered.
        assert!(r.committed.is_empty());
        r.certify().unwrap();
    }

    #[test]
    fn newest_checkpoint_recovery_matches_full_replay() {
        let handle = SharedMemStore::new();
        let wal = Wal::create(
            Box::new(handle.clone()),
            WalConfig {
                group_commit: 1,
                checkpoint_every: 2,
                ..WalConfig::default()
            },
            &StructuralState::empty(),
        )
        .unwrap();
        let mut stamp = 0;
        for i in 0..6u32 {
            wal.append_steps(&[
                (stamp, step(i, Step::lock_exclusive(e(i)))),
                (stamp + 1, step(i, Step::insert(e(i)))),
                (stamp + 2, step(i, Step::unlock_exclusive(e(i)))),
            ])
            .unwrap();
            stamp += 3;
            wal.append_commit(t(i), stamp).unwrap();
        }
        wal.flush().unwrap();
        let store = handle.snapshot();
        let fast = recover(&store, RecoveryMode::Newest).unwrap();
        let full = recover(&store, RecoveryMode::Oldest).unwrap();
        assert!(fast.base_stamp > 0, "an automatic checkpoint must exist");
        assert_eq!(fast.watermark, full.watermark);
        assert_eq!(fast.state, full.state);
        assert_eq!(fast.locks, full.locks);
        assert_eq!(fast.committed_floor, full.committed_floor);
        full.certify().unwrap();
        // The fast path replays strictly fewer steps.
        assert!(fast.tail.len() < full.tail.len());
    }

    #[test]
    fn pruned_log_still_recovers_from_the_newest_checkpoint() {
        // Two logs from identical appends; only one keeps just the newest
        // checkpoint, dropping the segments before it.
        let log = |keep| {
            let handle = SharedMemStore::new();
            let config = WalConfig {
                segment_bytes: 128,
                group_commit: 1,
                checkpoint_every: 4,
                ..WalConfig::default()
            };
            let wal = Wal::create(
                Box::new(handle.clone()),
                config.retain_checkpoints(keep),
                &StructuralState::empty(),
            )
            .unwrap();
            for i in 0..20u64 {
                wal.append_steps(&[(i, step(1, Step::insert(e(i as u32))))])
                    .unwrap();
            }
            wal.flush().unwrap();
            handle.snapshot()
        };
        let (full_log, pruned_log) = (log(0), log(1));
        assert!(
            pruned_log.list().unwrap().len() < full_log.list().unwrap().len(),
            "log must actually shrink"
        );
        let unpruned = recover(&full_log, RecoveryMode::Oldest).unwrap();
        let pruned = recover(&pruned_log, RecoveryMode::Newest).unwrap();
        assert_eq!(pruned.watermark, unpruned.watermark);
        assert_eq!(pruned.state, unpruned.state);
        assert!(pruned.committed_floor >= unpruned.committed_floor);
        // Full certification is no longer possible (base is mid-run)...
        assert_eq!(pruned.certify(), Err(CertifyError::PartialBase));
        // ...and recovery from the pruned log seeded past stamp 0.
        assert!(pruned.base_stamp > 0);
    }

    #[test]
    fn missing_segment_truncates_at_the_hole() {
        let handle = SharedMemStore::new();
        let wal = Wal::create(
            Box::new(handle.clone()),
            WalConfig {
                segment_bytes: 96,
                group_commit: 1,
                checkpoint_every: 0,
                ..WalConfig::default()
            },
            &StructuralState::empty(),
        )
        .unwrap();
        for i in 0..30u64 {
            wal.append_steps(&[(i, step(1, Step::insert(e(i as u32))))])
                .unwrap();
        }
        wal.flush().unwrap();
        let mut store = handle.snapshot();
        let segments = store.list().unwrap();
        assert!(segments.len() >= 3, "need a middle segment to delete");
        let hole = segments[1];
        store.remove(hole).unwrap();
        let r = recover(&store, RecoveryMode::Oldest).unwrap();
        assert_eq!(
            r.truncation,
            Some(Truncation {
                segment: hole,
                offset: 0,
                reason: TornReason::MissingSegment
            })
        );
        r.certify().unwrap();
        let full = recover(&handle.snapshot(), RecoveryMode::Oldest).unwrap();
        assert!(r.watermark < full.watermark);
    }

    #[test]
    fn garbage_and_empty_stores_fail_gracefully() {
        assert_eq!(
            recover(&MemStore::new(), RecoveryMode::Oldest),
            Err(RecoverError::EmptyStore)
        );
        // A segment of pure garbage: bad magic, no checkpoint, no panic.
        let mut store = MemStore::new();
        store.open_segment(0).unwrap();
        store.append(&[0xAB; 256]).unwrap();
        let err = recover(&store, RecoveryMode::Oldest).unwrap_err();
        assert_eq!(err, RecoverError::NoCheckpoint);
        // Valid magic followed by garbage: still no checkpoint.
        let mut store = MemStore::new();
        store.open_segment(0).unwrap();
        store.append(SEGMENT_MAGIC).unwrap();
        store.append(&[0xAB; 256]).unwrap();
        assert_eq!(
            recover(&store, RecoveryMode::Oldest),
            Err(RecoverError::NoCheckpoint)
        );
    }
}
