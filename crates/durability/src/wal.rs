//! The write-ahead log: group-committed appends, segment rotation, and
//! automatic fuzzy checkpoints.
//!
//! One [`Wal`] records one runtime run, and it is fed **once per
//! attempt**: a worker hands over the stamped steps its attempt took and
//! — if the attempt committed — the commit record, in one
//! [`Wal::append_attempt`] call, after the attempt's locks are free (and
//! the not-yet-logged part of an attempt just before its worker parks, so
//! a sleeping waiter never holds the watermark back). The frames and
//! their checksums are encoded into a buffer the caller owns and reuses,
//! *before* the log's core is taken — through a [`Handover`], the one
//! poll / queue / make-way lock the run's serial tail shares with the
//! online certifier; under it the log only appends those bytes to the
//! current segment, updates its replica, and applies the sync / rotate /
//! checkpoint policy. [`Store::sync`] is called every
//! [`WalConfig::group_commit`] frames (and on [`Wal::flush`]), so the
//! fsync cost is amortised across a group. Before rotating to a new
//! segment the old one is synced — the *sync-before-rotate* invariant —
//! so only the newest segment can lose a suffix in a crash.
//!
//! The log maintains its own replica of the replayed state. Stamps are
//! dense and unique, but workers append out of stamp order, so steps at
//! or above the contiguous watermark wait in a ring indexed by
//! `stamp & (len − 1)`; once the watermark advances past them they are
//! folded into an in-log [`StructuralState`] + held-locks replica. When
//! [`WalConfig::checkpoint_every`] steps have been folded since the last
//! checkpoint, the log emits a [`Checkpoint`](crate::Checkpoint) record
//! by itself — callers never compute checkpoint state. The checkpoint
//! carries the state as its bitset, so the work under the lock is the
//! attempt's bytes, its slot stores and the fold of what became
//! contiguous, plus now and then a frame of a few hundred bytes.
//!
//! Any error marks the log failed: every later call returns
//! [`WalError::Crashed`] without touching the store, and the runtime
//! finishes the run in memory, reporting the failure in its summary.

use crate::frame::{encode_checkpoint, encode_commit, encode_steps};
use crate::handover::Handover;
use crate::recover::replay_step;
use crate::store::Store;
use crate::{WalError, SEGMENT_MAGIC};
use slp_core::{EntityId, LockMode, ScheduledStep, StructuralState, TxId, MAX_ENTITIES};
use std::cmp::Reverse;
use std::collections::{BinaryHeap, VecDeque};
use std::sync::atomic::{AtomicBool, Ordering};

/// The widest out-of-order overhang the window accepts
/// ([`WalError::StampGap`] past it): a bound on memory against a stamp
/// that is not part of a dense sequence at all.
const MAX_WINDOW: u64 = 1 << 22;

/// Tuning knobs for the log.
#[derive(Clone, Copy, Debug)]
pub struct WalConfig {
    /// Rotate to a fresh segment once the current one reaches this many
    /// bytes (the final append may overshoot; rotation happens after it).
    pub segment_bytes: usize,
    /// Sync after this many appended frames — the group-commit boundary.
    /// `1` syncs every append; larger groups amortise the fsync. A
    /// committed attempt is two frames (its steps, its commit record), so
    /// the default of `2` syncs at least once per committed transaction.
    pub group_commit: usize,
    /// Emit a checkpoint after this many steps have been folded into the
    /// watermark since the previous checkpoint. `0` disables automatic
    /// checkpoints (the creation-time base checkpoint is still written).
    pub checkpoint_every: u64,
    /// Automatic retention: every time a checkpoint is written, keep only
    /// the segments anchored by the newest `n` checkpoints and remove
    /// everything older (the log-size bound for long runs). `0` — the
    /// default — never removes anything. With `n ≥ 1` recovery from
    /// any retained checkpoint still works: only a prefix of segments
    /// goes, none at or after the oldest retained checkpoint's segment
    /// and none holding a step at or above its watermark.
    pub keep_checkpoints: usize,
}

impl Default for WalConfig {
    fn default() -> Self {
        WalConfig {
            segment_bytes: 64 * 1024,
            group_commit: 2,
            checkpoint_every: 256,
            keep_checkpoints: 0,
        }
    }
}

impl WalConfig {
    /// This config with automatic retention of the newest `n` checkpoints
    /// (see [`keep_checkpoints`](WalConfig::keep_checkpoints)).
    pub fn retain_checkpoints(mut self, n: usize) -> Self {
        self.keep_checkpoints = n;
        self
    }
}

/// Counters describing what a [`Wal`] has written, for run reports.
#[derive(Clone, Copy, PartialEq, Eq, Debug, Default)]
pub struct WalSummary {
    /// Frames appended (step batches + commits + checkpoints).
    pub records: u64,
    /// Frame bytes appended (excludes segment magic).
    pub bytes: u64,
    /// Store syncs issued.
    pub syncs: u64,
    /// Segments opened.
    pub segments: u64,
    /// Checkpoint records written (including the creation-time base).
    pub checkpoints: u64,
    /// Contiguous-stamp watermark reached.
    pub watermark: u64,
    /// The largest out-of-order overhang the run saw: the most steps
    /// held above the watermark after an append was folded — appended,
    /// but behind a stamp some worker had drawn and not handed over yet.
    /// How far durability lagged the run.
    pub peak_window: u64,
    /// Whether a store error stopped logging before the run ended.
    pub failed: bool,
}

/// The out-of-order overhang: appended steps at or above the contiguous
/// watermark, in a ring whose slot `stamp & (len − 1)` holds `stamp`.
///
/// Workers hand their attempts over after dropping their locks, so the
/// byte order of batches across workers is arbitrary even though stamps
/// are dense and unique. The watermark (`base`) is the first stamp not
/// yet seen: everything below it is in the log with no gaps, and has been
/// folded, in stamp order, by [`admit`](Window::admit). Every held stamp
/// lies in `base..base + len`, so no two share a slot; `len` is zero or a
/// power of two, and grows to the next power of two past an overhang
/// that reaches it, re-placing what is held. Admitting a step is one
/// slot store, and folding walks the slots from `base` while they are
/// occupied: outside a growth, an append costs its own steps and the
/// ones it makes contiguous, never the width of the ring.
#[derive(Default)]
struct Window {
    base: u64,
    slots: Vec<Option<ScheduledStep>>,
    /// Occupied slots.
    held: usize,
}

impl Window {
    /// Takes a batch in, then advances the watermark over every step
    /// that became contiguous, passing each to `fold` in stamp order;
    /// returns how many were folded. A stamp below the watermark was
    /// folded already and is skipped.
    fn admit(
        &mut self,
        entries: &[(u64, ScheduledStep)],
        mut fold: impl FnMut(&ScheduledStep),
    ) -> Result<u64, WalError> {
        for &(stamp, step) in entries {
            let Some(ahead) = stamp.checked_sub(self.base) else {
                continue;
            };
            if ahead >= MAX_WINDOW {
                return Err(WalError::StampGap(ahead));
            }
            if ahead >= self.slots.len() as u64 {
                self.grow(ahead as usize + 1);
            }
            let slot = self.slot(stamp);
            if self.slots[slot].replace(step).is_none() {
                self.held += 1;
            }
        }
        let before = self.base;
        while self.held > 0 {
            let slot = self.slot(self.base);
            let Some(step) = self.slots[slot].take() else {
                break;
            };
            fold(&step);
            self.base += 1;
            self.held -= 1;
        }
        Ok(self.base - before)
    }

    /// The ring slot of `stamp`; the ring is not empty.
    fn slot(&self, stamp: u64) -> usize {
        (stamp & (self.slots.len() as u64 - 1)) as usize
    }

    /// Widens the ring to hold `base..base + need`, moving each held step
    /// to its slot in the wider ring.
    fn grow(&mut self, need: usize) {
        let old = std::mem::replace(&mut self.slots, vec![None; need.next_power_of_two()]);
        let old_len = old.len() as u64;
        for stamp in self.base..self.base + old_len {
            if let Some(step) = old[(stamp & (old_len - 1)) as usize] {
                let slot = self.slot(stamp);
                self.slots[slot] = Some(step);
            }
        }
    }
}

struct WalCore {
    store: Box<dyn Store>,
    config: WalConfig,
    current_segment: u64,
    current_len: usize,
    /// Frames appended since the last sync (group-commit counter).
    unsynced: usize,
    window: Window,
    /// Replica of the replayed run at the watermark.
    state: StructuralState,
    locks: Vec<(EntityId, TxId, LockMode)>,
    /// Commit records whose `required_watermark` is still ahead.
    pending_commits: BinaryHeap<Reverse<(u64, TxId)>>,
    /// Commit records durable at the current watermark.
    durable_commits: u64,
    steps_since_checkpoint: u64,
    /// The newest checkpoints as (segment holding it, its watermark),
    /// oldest first (bounded to [`WalConfig::keep_checkpoints`] when
    /// retention is on; the retention anchor is the front).
    checkpoint_segments: VecDeque<(u64, u64)>,
    /// The segments in the store, oldest first, each with one past the
    /// largest stamp its frames name (a step's stamp, a commit's last
    /// step): recovery from a checkpoint at watermark `w` needs every
    /// segment whose reach is above `w`.
    live_segments: VecDeque<(u64, u64)>,
    /// The checkpoint frame's encode buffer, reused.
    scratch: Vec<u8>,
    stats: WalSummary,
}

/// A live write-ahead log. Shared across worker threads by reference;
/// all appends serialise on its core, which a worker takes once per
/// attempt through a [`Handover`], with its frames already encoded and
/// its locks already free.
pub struct Wal {
    core: Handover<WalCore>,
    failed: AtomicBool,
}

impl Wal {
    /// Creates a log in an empty `store`, writing and syncing the segment
    /// magic and a base checkpoint of the initial state `g0` — recovery
    /// needs at least that much to exist. Fails with
    /// [`WalError::LogNotEmpty`] if the store already holds segments.
    pub fn create(
        store: Box<dyn Store>,
        config: WalConfig,
        g0: &StructuralState,
    ) -> Result<Wal, WalError> {
        let mut core = WalCore {
            store,
            config,
            current_segment: 0,
            current_len: 0,
            unsynced: 0,
            window: Window::default(),
            state: g0.clone(),
            locks: Vec::new(),
            pending_commits: BinaryHeap::new(),
            durable_commits: 0,
            steps_since_checkpoint: 0,
            checkpoint_segments: VecDeque::new(),
            live_segments: VecDeque::from([(0, 0)]),
            scratch: Vec::new(),
            stats: WalSummary::default(),
        };
        if !core.store.list()?.is_empty() {
            return Err(WalError::LogNotEmpty);
        }
        core.store.open_segment(0)?;
        core.stats.segments = 1;
        core.store.append(SEGMENT_MAGIC)?;
        core.current_len = SEGMENT_MAGIC.len();
        core.write_checkpoint()?;
        Ok(Wal {
            core: Handover::new(core),
            failed: AtomicBool::new(false),
        })
    }

    /// Whether an error has permanently stopped this log.
    pub fn is_failed(&self) -> bool {
        self.failed.load(Ordering::Relaxed)
    }

    /// The contiguous-stamp watermark: every step below it is appended.
    pub fn watermark(&self) -> u64 {
        self.core.lock().window.base
    }

    /// Counters for the run report (watermark and failure flag included).
    pub fn summary(&self) -> WalSummary {
        let core = self.core.lock();
        let mut s = core.stats;
        s.watermark = core.window.base;
        s.failed = self.is_failed();
        s
    }

    /// Appends what one attempt hands over — its stamped `steps` (all of
    /// them, or the part not handed over at an earlier park) and, for an
    /// attempt that committed, `commit`: the transaction and the
    /// watermark at which it is durable — as `Steps` frames followed by
    /// the `Commit` frame, in one critical section. `buf` is the
    /// caller's reusable encode buffer (overwritten): framing and
    /// checksums are done into it before the log's core is taken.
    /// Newly contiguous steps are folded into the checkpoint replica and
    /// an automatic checkpoint is written when one is due. Nothing to
    /// hand over is not a call on the log at all; a step naming an entity
    /// the decoder refuses fails the log before anything is written
    /// ([`WalError::EntityOutOfRange`]).
    pub fn append_attempt(
        &self,
        buf: &mut Vec<u8>,
        steps: &[(u64, ScheduledStep)],
        commit: Option<(TxId, u64)>,
    ) -> Result<(), WalError> {
        if steps.is_empty() && commit.is_none() {
            return Ok(());
        }
        if self.is_failed() {
            return Err(WalError::Crashed);
        }
        if let Some((_, s)) = steps.iter().find(|(_, s)| s.step.entity.0 >= MAX_ENTITIES) {
            self.failed.store(true, Ordering::Relaxed);
            return Err(WalError::EntityOutOfRange(s.step.entity));
        }
        buf.clear();
        let mut frames = encode_steps(buf, steps);
        if let Some((tx, required_watermark)) = commit {
            encode_commit(buf, tx, required_watermark);
            frames += 1;
        }
        self.with_core(|core| core.append_encoded(buf, frames, steps, commit))
    }

    /// Appends a batch of stamped steps: [`append_attempt`] without a
    /// commit, for callers with no buffer to reuse.
    ///
    /// [`append_attempt`]: Wal::append_attempt
    pub fn append_steps(&self, entries: &[(u64, ScheduledStep)]) -> Result<(), WalError> {
        self.append_attempt(&mut Vec::new(), entries, None)
    }

    /// Appends a commit record for `tx`, durable once the watermark
    /// reaches `required_watermark`: [`append_attempt`] without steps.
    ///
    /// [`append_attempt`]: Wal::append_attempt
    pub fn append_commit(&self, tx: TxId, required_watermark: u64) -> Result<(), WalError> {
        self.append_attempt(&mut Vec::new(), &[], Some((tx, required_watermark)))
    }

    /// Syncs any unsynced frames — the end-of-run barrier that makes the
    /// final group durable.
    pub fn flush(&self) -> Result<(), WalError> {
        self.with_core(|core| {
            if core.unsynced > 0 {
                core.sync()?;
            }
            Ok(())
        })
    }

    /// Forces a checkpoint now (regardless of `checkpoint_every`).
    pub fn checkpoint(&self) -> Result<(), WalError> {
        self.with_core(|core| core.write_checkpoint())
    }

    fn with_core<R>(
        &self,
        f: impl FnOnce(&mut WalCore) -> Result<R, WalError>,
    ) -> Result<R, WalError> {
        if self.is_failed() {
            return Err(WalError::Crashed);
        }
        let mut core = self.core.lock();
        let result = f(&mut core);
        if result.is_err() {
            self.failed.store(true, Ordering::Relaxed);
        }
        result
    }
}

impl WalCore {
    /// The one critical section of an append: `bytes` — `frames` encoded
    /// frames carrying `steps` and `commit` — go to the store as they
    /// are, the replica takes the steps in, and the policy runs.
    fn append_encoded(
        &mut self,
        bytes: &[u8],
        frames: usize,
        steps: &[(u64, ScheduledStep)],
        commit: Option<(TxId, u64)>,
    ) -> Result<(), WalError> {
        let reach = steps
            .iter()
            .map(|&(stamp, _)| stamp.saturating_add(1))
            .chain(commit.map(|(_, required)| required))
            .max()
            .unwrap_or(0);
        let current = self.live_segments.back_mut().expect("a segment is open");
        current.1 = current.1.max(reach);
        self.append_bytes(bytes, frames)?;
        let (state, locks) = (&mut self.state, &mut self.locks);
        self.steps_since_checkpoint += self
            .window
            .admit(steps, |step| replay_step(state, locks, step))?;
        self.stats.peak_window = self.stats.peak_window.max(self.window.held as u64);
        if let Some((tx, required_watermark)) = commit {
            self.pending_commits.push(Reverse((required_watermark, tx)));
        }
        self.drain_durable_commits();
        self.maybe_sync()?;
        self.maybe_checkpoint()
    }

    fn append_bytes(&mut self, bytes: &[u8], frames: usize) -> Result<(), WalError> {
        self.store.append(bytes)?;
        self.current_len += bytes.len();
        self.unsynced += frames;
        self.stats.records += frames as u64;
        self.stats.bytes += bytes.len() as u64;
        if self.current_len >= self.config.segment_bytes {
            self.rotate()?;
        }
        Ok(())
    }

    /// Sync-before-rotate: the outgoing segment is made fully durable
    /// before the next one exists, so non-current segments never tear.
    fn rotate(&mut self) -> Result<(), WalError> {
        self.sync()?;
        self.current_segment += 1;
        self.store.open_segment(self.current_segment)?;
        self.live_segments.push_back((self.current_segment, 0));
        self.stats.segments += 1;
        self.store.append(SEGMENT_MAGIC)?;
        self.current_len = SEGMENT_MAGIC.len();
        Ok(())
    }

    fn sync(&mut self) -> Result<(), WalError> {
        self.store.sync()?;
        self.unsynced = 0;
        self.stats.syncs += 1;
        Ok(())
    }

    fn maybe_sync(&mut self) -> Result<(), WalError> {
        if self.unsynced >= self.config.group_commit.max(1) {
            self.sync()?;
        }
        Ok(())
    }

    fn drain_durable_commits(&mut self) {
        let watermark = self.window.base;
        while let Some(&Reverse((required, _))) = self.pending_commits.peek() {
            if required > watermark {
                break;
            }
            self.pending_commits.pop();
            self.durable_commits += 1;
        }
    }

    fn maybe_checkpoint(&mut self) -> Result<(), WalError> {
        if self.config.checkpoint_every > 0
            && self.steps_since_checkpoint >= self.config.checkpoint_every
        {
            self.write_checkpoint()?;
        }
        Ok(())
    }

    /// Writes and syncs a checkpoint of the replica at the watermark.
    fn write_checkpoint(&mut self) -> Result<(), WalError> {
        let mut frame = std::mem::take(&mut self.scratch);
        frame.clear();
        encode_checkpoint(
            &mut frame,
            self.window.base,
            self.durable_commits,
            &self.state,
            &self.locks,
        )?;
        // The record lands in the segment current *now*; appending it may
        // rotate afterwards, and retention must keep the segment that holds
        // the checkpoint, not the fresh one.
        let segment_holding_checkpoint = self.current_segment;
        let appended = self.append_bytes(&frame, 1);
        self.scratch = frame;
        appended?;
        self.sync()?;
        self.stats.checkpoints += 1;
        self.steps_since_checkpoint = 0;
        self.checkpoint_segments
            .push_back((segment_holding_checkpoint, self.window.base));
        self.retain()
    }

    /// Automatic retention ([`WalConfig::keep_checkpoints`]): forget
    /// checkpoint anchors beyond the newest `n`, then remove the oldest
    /// segments while each lies before the oldest retained anchor's
    /// segment and names no stamp at or above its watermark — a step that
    /// arrived out of order, ahead of that checkpoint, is still needed to
    /// replay past it. Only a prefix goes: recovery reads the segments as
    /// one sequence, and a hole ends it.
    fn retain(&mut self) -> Result<(), WalError> {
        let keep = self.config.keep_checkpoints;
        if keep == 0 {
            return Ok(());
        }
        while self.checkpoint_segments.len() > keep {
            self.checkpoint_segments.pop_front();
        }
        let &(anchor, watermark) = self
            .checkpoint_segments
            .front()
            .expect("a checkpoint was just pushed");
        while let Some(&(index, reach)) = self.live_segments.front() {
            if index >= anchor || reach > watermark {
                break;
            }
            self.store.remove(index)?;
            self.live_segments.pop_front();
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::frame::{decode_frame, encode_frame, Checkpoint, FrameOutcome, Record};
    use crate::store::{FaultyStore, MemStore, SharedMemStore};
    use crate::{recover, RecoveryMode};
    use proptest::test_runner::TestRng;
    use slp_core::{Step, MAX_ENTITIES};
    use std::collections::BTreeMap;

    /// The log's first watermark tracker — a min-heap of the stamps seen
    /// at or above the watermark — kept as the oracle the ring
    /// [`Window`] is checked against. One repair: it used to pop only a
    /// top *equal* to the watermark, so a stamp recorded twice sat on top
    /// of the heap for good and the watermark never moved again.
    struct WatermarkTracker {
        next: u64,
        parked: BinaryHeap<Reverse<u64>>,
    }

    impl WatermarkTracker {
        fn new(base: u64) -> Self {
            WatermarkTracker {
                next: base,
                parked: BinaryHeap::new(),
            }
        }

        /// Records `stamp` as seen; stamps below the watermark are ignored.
        fn record(&mut self, stamp: u64) {
            if stamp < self.next {
                return;
            }
            self.parked.push(Reverse(stamp));
            while let Some(&Reverse(top)) = self.parked.peek() {
                if top > self.next {
                    break;
                }
                self.parked.pop();
                if top == self.next {
                    self.next += 1;
                }
            }
        }

        fn watermark(&self) -> u64 {
            self.next
        }
    }

    /// The first writer's replica, whole: the tracker, a `BTreeMap` of
    /// the steps retained above the watermark, the folded state, and the
    /// commit bookkeeping.
    struct OracleReplica {
        tracker: WatermarkTracker,
        retained: BTreeMap<u64, ScheduledStep>,
        folded: Vec<ScheduledStep>,
        state: StructuralState,
        locks: Vec<(EntityId, TxId, LockMode)>,
        pending_commits: Vec<u64>,
        durable_commits: u64,
    }

    impl OracleReplica {
        fn new(base: u64, state: StructuralState) -> Self {
            OracleReplica {
                tracker: WatermarkTracker::new(base),
                retained: BTreeMap::new(),
                folded: Vec::new(),
                state,
                locks: Vec::new(),
                pending_commits: Vec::new(),
                durable_commits: 0,
            }
        }

        fn append(&mut self, entries: &[(u64, ScheduledStep)], commit: Option<u64>) {
            for &(stamp, step) in entries {
                if stamp >= self.tracker.watermark() {
                    self.retained.insert(stamp, step);
                    self.tracker.record(stamp);
                }
            }
            let watermark = self.tracker.watermark();
            while let Some(entry) = self.retained.first_entry() {
                if *entry.key() >= watermark {
                    break;
                }
                let step = entry.remove();
                replay_step(&mut self.state, &mut self.locks, &step);
                self.folded.push(step);
            }
            self.pending_commits.extend(commit);
            let pending = self.pending_commits.len();
            self.pending_commits
                .retain(|&required| required > watermark);
            self.durable_commits += (pending - self.pending_commits.len()) as u64;
        }

        fn checkpoint_frame(&self) -> Vec<u8> {
            let mut frame = Vec::new();
            encode_frame(
                &mut frame,
                &Record::Checkpoint(Checkpoint {
                    watermark: self.tracker.watermark(),
                    committed: self.durable_commits,
                    state: self.state.clone(),
                    locks: self.locks.clone(),
                }),
            );
            frame
        }
    }

    fn e(i: u32) -> EntityId {
        EntityId(i)
    }

    fn t(i: u32) -> TxId {
        TxId(i)
    }

    fn step(tx: u32, s: Step) -> ScheduledStep {
        ScheduledStep::new(TxId(tx), s)
    }

    /// Decodes all records in a store's concatenated segments.
    fn records_in(store: &MemStore) -> Vec<Record> {
        let mut out = Vec::new();
        for index in store.list().unwrap() {
            let data = store.read(index).unwrap();
            assert_eq!(&data[..8], SEGMENT_MAGIC, "segment {index} magic");
            let mut rest = &data[8..];
            loop {
                match decode_frame(rest) {
                    FrameOutcome::Record(r, tail) => {
                        out.push(r);
                        rest = tail;
                    }
                    FrameOutcome::End => break,
                    FrameOutcome::Torn(reason) => panic!("torn log: {reason}"),
                }
            }
        }
        out
    }

    #[test]
    fn create_writes_a_synced_base_checkpoint() {
        let handle = SharedMemStore::new();
        let g0 = StructuralState::from_entities([e(1), e(2)]);
        let wal = Wal::create(Box::new(handle.clone()), WalConfig::default(), &g0).unwrap();
        // Even an immediate crash (nothing volatile survives) leaves a
        // well-formed log holding the base checkpoint.
        let crashed = handle.snapshot().crashed(false);
        let records = records_in(&crashed);
        assert_eq!(records.len(), 1);
        let Record::Checkpoint(cp) = &records[0] else {
            panic!("expected checkpoint, got {:?}", records[0]);
        };
        assert_eq!(cp.watermark, 0);
        assert_eq!(cp.committed, 0);
        assert_eq!(cp.state, g0);
        assert!(cp.locks.is_empty());
        let summary = wal.summary();
        assert_eq!(summary.checkpoints, 1);
        assert_eq!(summary.segments, 1);
        assert!(!summary.failed);
    }

    #[test]
    fn create_refuses_a_nonempty_store() {
        let mut store = MemStore::new();
        store.open_segment(0).unwrap();
        assert_eq!(
            Wal::create(
                Box::new(store),
                WalConfig::default(),
                &StructuralState::empty()
            )
            .err(),
            Some(WalError::LogNotEmpty)
        );
    }

    #[test]
    fn group_commit_syncs_every_n_records() {
        let handle = SharedMemStore::new();
        let config = WalConfig {
            group_commit: 2,
            checkpoint_every: 0,
            ..WalConfig::default()
        };
        let wal = Wal::create(Box::new(handle.clone()), config, &StructuralState::empty()).unwrap();
        let synced_at_create = wal.summary().syncs;
        wal.append_steps(&[(0, step(1, Step::lock_exclusive(e(0))))])
            .unwrap();
        assert_eq!(
            wal.summary().syncs,
            synced_at_create,
            "first record unsynced"
        );
        // The unsynced record is volatile until the group boundary.
        assert_eq!(records_in(&handle.snapshot().crashed(false)).len(), 1);
        wal.append_steps(&[(1, step(1, Step::insert(e(0))))])
            .unwrap();
        assert_eq!(
            wal.summary().syncs,
            synced_at_create + 1,
            "group of 2 syncs"
        );
        assert_eq!(records_in(&handle.snapshot().crashed(false)).len(), 3);
        // flush() syncs a partial group.
        wal.append_steps(&[(2, step(1, Step::unlock_exclusive(e(0))))])
            .unwrap();
        wal.flush().unwrap();
        assert_eq!(records_in(&handle.snapshot().crashed(false)).len(), 4);
    }

    #[test]
    fn rotation_syncs_the_outgoing_segment() {
        let handle = SharedMemStore::new();
        let config = WalConfig {
            segment_bytes: 64,
            group_commit: 1000, // group commit never triggers a sync here
            checkpoint_every: 0,
            ..WalConfig::default()
        };
        let wal = Wal::create(Box::new(handle.clone()), config, &StructuralState::empty()).unwrap();
        for i in 0..40u64 {
            wal.append_steps(&[(i, step(1, Step::lock_shared(e(i as u32))))])
                .unwrap();
        }
        let summary = wal.summary();
        assert!(summary.segments >= 2, "expected rotation, got {summary:?}");
        // Every non-current segment survives a crash in full.
        let snapshot = handle.snapshot();
        let crashed = snapshot.crashed(false);
        let segments = snapshot.list().unwrap();
        for &index in &segments[..segments.len() - 1] {
            assert_eq!(
                crashed.read(index).unwrap(),
                snapshot.read(index).unwrap(),
                "segment {index} must be fully durable before rotation"
            );
        }
    }

    #[test]
    fn watermark_tracks_contiguity_across_out_of_order_batches() {
        let tracker = {
            let mut t = WatermarkTracker::new(0);
            t.record(0);
            t.record(2);
            t.record(3);
            assert_eq!(t.watermark(), 1, "gap at 1 holds the watermark");
            t.record(1);
            t
        };
        assert_eq!(tracker.watermark(), 4);

        let wal = Wal::create(
            Box::new(MemStore::new()),
            WalConfig {
                checkpoint_every: 0,
                ..WalConfig::default()
            },
            &StructuralState::empty(),
        )
        .unwrap();
        // Worker B's batch (stamps 2,3) lands before worker A's (0,1).
        wal.append_steps(&[
            (2, step(2, Step::insert(e(2)))),
            (3, step(2, Step::read(e(2)))),
        ])
        .unwrap();
        assert_eq!(wal.watermark(), 0);
        wal.append_steps(&[
            (0, step(1, Step::insert(e(1)))),
            (1, step(1, Step::read(e(1)))),
        ])
        .unwrap();
        assert_eq!(wal.watermark(), 4);
    }

    #[test]
    fn automatic_checkpoint_captures_replayed_state_and_locks() {
        let handle = SharedMemStore::new();
        let config = WalConfig {
            group_commit: 1,
            checkpoint_every: 3,
            ..WalConfig::default()
        };
        let wal = Wal::create(Box::new(handle.clone()), config, &StructuralState::empty()).unwrap();
        wal.append_steps(&[
            (0, step(1, Step::lock_exclusive(e(7)))),
            (1, step(1, Step::insert(e(7)))),
            (2, step(1, Step::lock_shared(e(9)))),
        ])
        .unwrap();
        wal.append_commit(t(1), 3).unwrap();
        let records = records_in(&handle.snapshot());
        let checkpoints: Vec<&Checkpoint> = records
            .iter()
            .filter_map(|r| match r {
                Record::Checkpoint(c) => Some(c),
                _ => None,
            })
            .collect();
        assert_eq!(checkpoints.len(), 2, "base + one automatic");
        let cp = checkpoints[1];
        assert_eq!(cp.watermark, 3);
        assert_eq!(cp.state, StructuralState::from_entities([e(7)]));
        assert_eq!(
            cp.locks,
            vec![
                (e(7), t(1), LockMode::Exclusive),
                (e(9), t(1), LockMode::Shared)
            ]
        );
        // The commit landed after the checkpoint; its durability is
        // tracked for the *next* checkpoint.
        assert_eq!(cp.committed, 0);
        wal.append_steps(&[
            (3, step(1, Step::unlock_exclusive(e(7)))),
            (4, step(1, Step::unlock_shared(e(9)))),
            (5, step(2, Step::read(e(7)))),
        ])
        .unwrap();
        let records = records_in(&handle.snapshot());
        let last = records
            .iter()
            .rev()
            .find_map(|r| match r {
                Record::Checkpoint(c) => Some(c),
                _ => None,
            })
            .unwrap();
        assert_eq!(last.watermark, 6);
        assert_eq!(last.committed, 1);
        assert!(last.locks.is_empty());
    }

    #[test]
    fn retention_keeps_newest_checkpoints_and_recovery_still_works() {
        let handle = SharedMemStore::new();
        let config = WalConfig {
            segment_bytes: 96,
            group_commit: 1,
            checkpoint_every: 4,
            ..WalConfig::default()
        }
        .retain_checkpoints(2);
        let wal = Wal::create(Box::new(handle.clone()), config, &StructuralState::empty()).unwrap();
        for i in 0..60u64 {
            wal.append_steps(&[(i, step(1, Step::insert(e(i as u32))))])
                .unwrap();
        }
        wal.flush().unwrap();
        let store = handle.snapshot();
        let segments = store.list().unwrap();
        // Checkpoint-time retention removed the oldest segments by
        // itself...
        assert!(segments[0] > 0, "retention must drop the oldest segments");
        // ...and the surviving tail recovers from the newest retained
        // checkpoint all the way to the full watermark.
        let newest = crate::recover(&store, crate::RecoveryMode::Newest).unwrap();
        assert_eq!(newest.watermark, 60);
        assert!(newest.base_stamp > 0, "seeded from a mid-run checkpoint");
        // Both retained checkpoints are usable: oldest-mode recovery
        // seeds earlier and replays a longer tail to the same state.
        let oldest = crate::recover(&store, crate::RecoveryMode::Oldest).unwrap();
        assert_eq!(oldest.watermark, 60);
        assert!(oldest.base_stamp < newest.base_stamp);
        assert_eq!(oldest.state, newest.state);
    }

    #[test]
    fn prune_drops_segments_before_the_newest_checkpoint() {
        // Keeping only the newest checkpoint: a forced checkpoint drops
        // every segment before the one holding it, and that segment
        // survives.
        let handle = SharedMemStore::new();
        let config = WalConfig {
            segment_bytes: 96,
            group_commit: 1,
            checkpoint_every: 0,
            ..WalConfig::default()
        }
        .retain_checkpoints(1);
        let wal = Wal::create(Box::new(handle.clone()), config, &StructuralState::empty()).unwrap();
        for i in 0..40u64 {
            wal.append_steps(&[(i, step(1, Step::lock_shared(e(i as u32))))])
                .unwrap();
        }
        assert!(handle.snapshot().list().unwrap().len() > 2);
        wal.checkpoint().unwrap();
        let store = handle.snapshot();
        let remaining = store.list().unwrap();
        assert!(remaining[0] > 0, "retention must drop the oldest segments");
        assert!(segment_has_checkpoint(&store, remaining[0]));
    }

    /// Retention must not remove a segment holding steps that arrived
    /// ahead of the anchor checkpoint's watermark: stamps 10–13 land in
    /// a segment older than the checkpoint at watermark 8, and recovering
    /// from that checkpoint needs them to reach T2's commit.
    #[test]
    fn retention_keeps_steps_held_above_the_anchor_watermark() {
        let handle = SharedMemStore::new();
        let config = WalConfig {
            segment_bytes: 96,
            group_commit: 1,
            checkpoint_every: 8,
            ..WalConfig::default()
        }
        .retain_checkpoints(1);
        let wal = Wal::create(Box::new(handle.clone()), config, &StructuralState::empty()).unwrap();
        let insert = |stamp: u64| (stamp, step(1, Step::insert(e(stamp as u32))));
        for stamp in 0..4 {
            wal.append_steps(&[insert(stamp)]).unwrap();
        }
        let ahead: Vec<_> = (10..14).map(insert).collect();
        wal.append_steps(&ahead).unwrap();
        for stamp in 4..10 {
            wal.append_steps(&[insert(stamp)]).unwrap();
        }
        wal.append_commit(t(2), 14).unwrap();
        wal.flush().unwrap();
        assert_eq!(wal.watermark(), 14);

        let store = handle.snapshot();
        let r = recover(&store, RecoveryMode::Newest).unwrap();
        assert_eq!((r.base_stamp, r.watermark), (8, 14));
        assert_eq!(r.committed, vec![t(2)]);
        let segments = store.list().unwrap();
        assert!(segments[0] > 0, "retention removed a segment");
        let holding = |wanted: &dyn Fn(&Record) -> bool| {
            segments
                .iter()
                .copied()
                .find(|&index| {
                    let data = store.read(index).unwrap();
                    let mut rest = &data[8..];
                    while let FrameOutcome::Record(r, tail) = decode_frame(rest) {
                        if wanted(&r) {
                            return true;
                        }
                        rest = tail;
                    }
                    false
                })
                .expect("a segment holds it")
        };
        let ahead_segment = holding(&|r| matches!(r, Record::Steps(s) if s[0].0 == 10));
        let anchor = holding(&|r| matches!(r, Record::Checkpoint(c) if c.watermark == 8));
        assert!(ahead_segment < anchor, "the case is not vacuous");
    }

    fn segment_has_checkpoint(store: &MemStore, index: u64) -> bool {
        let data = store.read(index).unwrap();
        let mut rest = &data[8..];
        loop {
            match decode_frame(rest) {
                FrameOutcome::Record(Record::Checkpoint(_), _) => return true,
                FrameOutcome::Record(_, tail) => rest = tail,
                _ => return false,
            }
        }
    }

    #[test]
    fn store_failure_latches_and_later_calls_are_rejected_cheaply() {
        let handle = SharedMemStore::new();
        let faulty = FaultyStore::new(handle.clone()).fail_on_sync(1);
        let config = WalConfig {
            group_commit: 1,
            checkpoint_every: 0,
            ..WalConfig::default()
        };
        let wal = Wal::create(Box::new(faulty), config, &StructuralState::empty()).unwrap();
        assert_eq!(
            wal.append_steps(&[(0, step(1, Step::read(e(0))))]),
            Err(WalError::Crashed)
        );
        assert!(wal.is_failed());
        assert!(wal.summary().failed);
        assert_eq!(
            wal.append_commit(t(1), 0),
            Err(WalError::Crashed),
            "failed log rejects everything"
        );
        assert_eq!(wal.flush(), Err(WalError::Crashed));
    }

    #[test]
    fn empty_step_batches_are_not_framed() {
        let handle = SharedMemStore::new();
        let wal = Wal::create(
            Box::new(handle.clone()),
            WalConfig::default(),
            &StructuralState::empty(),
        )
        .unwrap();
        let before = wal.summary().records;
        wal.append_steps(&[]).unwrap();
        assert_eq!(wal.summary().records, before);
    }

    /// A dense run of `n` stamps from `base`, dealt to 1–5 workers and cut
    /// into batches, in the order the log will see them: shuffled, with
    /// here and there a copy of an entry an earlier batch carried (same
    /// stamp, same step — above the watermark or below it by then) and a
    /// stale stamp below `base` carrying a step of its own, which must
    /// be ignored.
    fn dealt_batches(rng: &mut TestRng, base: u64, n: u64) -> Vec<Vec<(u64, ScheduledStep)>> {
        let workers = 1 + rng.below(5);
        let mut hands: Vec<Vec<(u64, ScheduledStep)>> = vec![Vec::new(); workers as usize];
        for stamp in base..base + n {
            let w = rng.below(workers);
            let entity = e(rng.below(6) as u32);
            let s = match rng.below(5) {
                0 => Step::lock_shared(entity),
                1 => Step::unlock_shared(entity),
                2 => Step::insert(entity),
                3 => Step::delete(entity),
                _ => Step::read(entity),
            };
            hands[w as usize].push((stamp, step(w as u32 + 1, s)));
        }
        let mut batches: Vec<Vec<(u64, ScheduledStep)>> = Vec::new();
        for hand in hands {
            let mut rest = hand.as_slice();
            while !rest.is_empty() {
                let (batch, more) = rest.split_at(1 + rng.below(rest.len().min(9) as u64) as usize);
                batches.push(batch.to_vec());
                rest = more;
            }
        }
        for i in (1..batches.len()).rev() {
            batches.swap(i, rng.below(i as u64 + 1) as usize);
        }
        for i in 1..batches.len() {
            if rng.below(3) == 0 {
                let earlier = &batches[rng.below(i as u64) as usize];
                let copy = earlier[rng.below(earlier.len() as u64) as usize];
                batches[i].push(copy);
            }
            if base > 0 && rng.below(4) == 0 {
                let stale = (rng.below(base), step(9, Step::insert(e(7))));
                batches[i].insert(0, stale);
            }
        }
        batches
    }

    /// The ring window against the heap-and-`BTreeMap` tracker it
    /// replaced, from a zero and a checkpoint-like non-zero base: after
    /// every batch the same watermark, the same steps folded in the same
    /// order, the same number still held.
    #[test]
    fn window_matches_the_tracker_oracle_on_out_of_order_batches() {
        let mut rng = TestRng::deterministic("wal/window-vs-tracker");
        for case in 0..200u64 {
            let base = if case % 2 == 0 {
                0
            } else {
                1 + rng.below(5000)
            };
            let n = 1 + rng.below(160);
            let mut window = Window {
                base,
                ..Window::default()
            };
            let mut folded = Vec::new();
            let mut oracle = OracleReplica::new(base, StructuralState::empty());
            for batch in dealt_batches(&mut rng, base, n) {
                let advanced = window.admit(&batch, |s| folded.push(*s)).unwrap();
                let before = oracle.folded.len();
                oracle.append(&batch, None);
                let ctx = format!("case {case}, base {base}, batch {batch:?}");
                assert_eq!(window.base, oracle.tracker.watermark(), "{ctx}");
                assert_eq!(advanced as usize, oracle.folded.len() - before, "{ctx}");
                assert_eq!(folded, oracle.folded, "{ctx}");
                assert_eq!(window.held, oracle.retained.len(), "{ctx}");
            }
            assert_eq!(window.base, base + n, "case {case}: every stamp arrived");
            assert_eq!(window.held, 0);
            assert!(window.slots.iter().all(Option::is_none));
        }
    }

    /// The same feed through the log's one append call, commits riding
    /// along: after every batch the watermark and a forced checkpoint's
    /// bytes — watermark, durable-commit count, state, locks in
    /// acquisition order — are the oracle replica's.
    #[test]
    fn the_log_replica_matches_the_oracle_after_every_batch() {
        let mut rng = TestRng::deterministic("wal/replica-vs-oracle");
        for case in 0..60u64 {
            let g0 = StructuralState::from_entities([e(1), e(4)]);
            let n = 1 + rng.below(120);
            let handle = SharedMemStore::new();
            let config = WalConfig {
                checkpoint_every: 0,
                group_commit: 1 + rng.below(4) as usize,
                ..WalConfig::default()
            };
            let wal = Wal::create(Box::new(handle.clone()), config, &g0).unwrap();
            let mut oracle = OracleReplica::new(0, g0);
            let mut buf = Vec::new();
            for (i, batch) in dealt_batches(&mut rng, 0, n).into_iter().enumerate() {
                let commit = (rng.below(2) == 0).then(|| (t(i as u32), rng.below(n + 2)));
                wal.append_attempt(&mut buf, &batch, commit).unwrap();
                oracle.append(&batch, commit.map(|(_, required)| required));
                assert_eq!(wal.watermark(), oracle.tracker.watermark(), "case {case}");
                wal.checkpoint().unwrap();
                let expected = oracle.checkpoint_frame();
                let segments = handle.snapshot();
                let newest = *segments.list().unwrap().last().unwrap();
                let log = segments.read(newest).unwrap();
                // A checkpoint that filled its segment rotated: then the
                // newest segment is bare and the frame ends the one before.
                let log = if log.len() == SEGMENT_MAGIC.len() {
                    segments.read(newest - 1).unwrap()
                } else {
                    log
                };
                assert!(log.ends_with(&expected), "case {case}, batch {i}");
            }
            assert_eq!(wal.watermark(), n);
            assert!(wal.summary().peak_window <= n);
        }
    }

    /// The bug this guards: one batch is a whole attempt now, and a
    /// 100 000-step attempt in one frame is 1.7 MB — a frame the first
    /// writer would have written in a release build and recovery refuses
    /// as `OversizeLength`, silently ending the log there.
    #[test]
    fn a_hundred_thousand_step_attempt_round_trips_recovery() {
        let handle = SharedMemStore::new();
        let wal = Wal::create(
            Box::new(handle.clone()),
            WalConfig::default(),
            &StructuralState::empty(),
        )
        .unwrap();
        let attempt: Vec<(u64, ScheduledStep)> = (0..100_000u64)
            .map(|i| (i, step(1, Step::read(e((i % 50) as u32)))))
            .collect();
        wal.append_attempt(&mut Vec::new(), &attempt, Some((t(1), 100_000)))
            .unwrap();
        wal.flush().unwrap();
        let summary = wal.summary();
        assert_eq!(summary.watermark, 100_000);
        assert!(summary.records > 100_000 / crate::frame::MAX_FRAME_STEPS as u64);
        let r = recover(&handle.snapshot(), RecoveryMode::Oldest).unwrap();
        assert_eq!(r.truncation, None);
        assert_eq!(r.watermark, 100_000);
        assert_eq!(r.tail, attempt);
        assert_eq!(r.committed, vec![t(1)]);
    }

    #[test]
    fn an_oversize_checkpoint_is_a_typed_latched_error_and_the_log_still_recovers() {
        // 116 000 lock entries fit one checkpoint frame; 117 000 do not
        // (see `frame::encode_checkpoint`).
        let handle = SharedMemStore::new();
        let config = WalConfig {
            checkpoint_every: 64,
            ..WalConfig::default()
        };
        let wal = Wal::create(Box::new(handle.clone()), config, &StructuralState::empty()).unwrap();
        let locks: Vec<(u64, ScheduledStep)> = (0..117_000u64)
            .map(|i| (i, step(1, Step::lock_exclusive(e(i as u32)))))
            .collect();
        assert!(matches!(
            wal.append_steps(&locks),
            Err(WalError::OversizeCheckpoint(_))
        ));
        assert!(wal.is_failed() && wal.summary().failed);
        assert_eq!(wal.append_steps(&[]), Ok(()), "nothing to log is no call");
        assert_eq!(wal.append_commit(t(1), 400), Err(WalError::Crashed));
        // The steps went in before the checkpoint was refused, and no
        // unreadable frame followed them.
        let r = recover(&handle.snapshot(), RecoveryMode::Oldest).unwrap();
        assert_eq!((r.truncation, r.watermark), (None, 117_000));
        assert_eq!(r.locks.len(), 117_000);

        let past = StructuralState::from_entities([EntityId(MAX_ENTITIES)]);
        assert!(matches!(
            Wal::create(Box::new(MemStore::new()), WalConfig::default(), &past),
            Err(WalError::OversizeCheckpoint(_))
        ));
    }

    /// The log never writes a checkpoint its decoder refuses: a state
    /// naming an id at or above `MAX_ENTITIES` is a typed error, at
    /// creation and when an automatic checkpoint would name it — not a
    /// log that recovers to `NoCheckpoint`.
    #[test]
    fn a_state_naming_an_id_past_max_entities_is_never_checkpointed() {
        let handle = SharedMemStore::new();
        let g0 = StructuralState::from_entities([e(1), e(MAX_ENTITIES)]);
        assert!(matches!(
            Wal::create(Box::new(handle.clone()), WalConfig::default(), &g0),
            Err(WalError::OversizeCheckpoint(_))
        ));
        assert_eq!(
            recover(&handle.snapshot(), RecoveryMode::Newest).err(),
            Some(crate::RecoverError::NoCheckpoint),
            "a refused base checkpoint leaves no log to recover"
        );

        let config = WalConfig {
            checkpoint_every: 1,
            ..WalConfig::default()
        };
        let wal =
            Wal::create(Box::new(MemStore::new()), config, &StructuralState::empty()).unwrap();
        let last = MAX_ENTITIES - 1;
        wal.append_steps(&[(0, step(1, Step::insert(e(last))))])
            .unwrap();
        assert!(matches!(
            wal.append_steps(&[(1, step(1, Step::insert(e(last + 1))))]),
            Err(WalError::EntityOutOfRange(_))
        ));
        assert!(wal.is_failed());
    }

    /// The log never writes a step frame its decoder refuses: a batch
    /// naming an entity id at or above `MAX_ENTITIES` is a typed, latched
    /// error and writes nothing, so what recovers is exactly what the
    /// log's watermark says it holds.
    #[test]
    fn a_step_naming_an_id_past_max_entities_is_refused_whole() {
        let handle = SharedMemStore::new();
        let wal = Wal::create(
            Box::new(handle.clone()),
            WalConfig::default(),
            &StructuralState::empty(),
        )
        .unwrap();
        let batch = [
            (0, step(1, Step::read(e(0)))),
            (1, step(1, Step::lock_exclusive(e(MAX_ENTITIES)))),
            (2, step(1, Step::read(e(0)))),
        ];
        assert_eq!(
            wal.append_steps(&batch),
            Err(WalError::EntityOutOfRange(e(MAX_ENTITIES)))
        );
        assert_eq!(wal.flush(), Err(WalError::Crashed));
        assert!(wal.summary().failed);
        let r = recover(&handle.snapshot(), RecoveryMode::Oldest).unwrap();
        assert_eq!((r.truncation, r.watermark), (None, wal.watermark()));
    }

    /// A ring that grows while its held steps straddle the wrap point:
    /// from base 6 in a ring of 4, stamps 7 and 9 sit in slots 3 and 1;
    /// stamp 20 needs a ring of 16, and the held steps move to slots 7
    /// and 9 before the gap closes and everything folds in stamp order.
    #[test]
    fn the_ring_grows_with_held_steps_straddling_its_wrap_point() {
        let read = |stamp: u64| (stamp, step(stamp as u32, Step::read(e(0))));
        let mut window = Window {
            base: 6,
            ..Window::default()
        };
        let mut folded = Vec::new();
        assert_eq!(
            window.admit(&[read(7), read(9)], |s| folded.push(*s)),
            Ok(0)
        );
        assert_eq!((window.slots.len(), window.held), (4, 2));
        assert_eq!(window.slots[3], Some(read(7).1));
        assert_eq!(window.slots[1], Some(read(9).1));
        assert_eq!(window.admit(&[read(20)], |s| folded.push(*s)), Ok(0));
        assert_eq!((window.slots.len(), window.held), (16, 3));
        assert_eq!(window.slots[7], Some(read(7).1));
        assert_eq!(window.slots[9], Some(read(9).1));
        assert_eq!(window.slots[4], Some(read(20).1));
        let rest: Vec<_> = [6, 8, 10, 11, 12, 13, 14, 15, 16, 17, 18, 19]
            .into_iter()
            .map(read)
            .collect();
        assert_eq!(window.admit(&rest, |s| folded.push(*s)), Ok(15));
        let expected: Vec<_> = (6..21).map(|stamp| read(stamp).1).collect();
        assert_eq!(folded, expected);
        assert_eq!((window.base, window.held), (21, 0));
        assert!(window.slots.iter().all(Option::is_none));
    }

    #[test]
    fn peak_window_is_the_most_steps_held_above_the_watermark() {
        let wal = Wal::create(
            Box::new(MemStore::new()),
            WalConfig::default(),
            &StructuralState::empty(),
        )
        .unwrap();
        let read = |stamp: u64| (stamp, step(1, Step::read(e(0))));
        wal.append_steps(&[read(0), read(1)]).unwrap();
        assert_eq!(wal.summary().peak_window, 0, "in order: nothing is held");
        wal.append_steps(&[read(3), read(4), read(5)]).unwrap();
        wal.append_steps(&[read(7)]).unwrap();
        assert_eq!((wal.watermark(), wal.summary().peak_window), (2, 4));
        wal.append_steps(&[read(2), read(6)]).unwrap();
        assert_eq!((wal.watermark(), wal.summary().peak_window), (8, 4));
        // Not a dense sequence at all: refused before it sizes the window.
        assert_eq!(
            wal.append_steps(&[read(8 + MAX_WINDOW)]),
            Err(WalError::StampGap(MAX_WINDOW))
        );
    }
}
