//! Schedules: interleavings of the steps of a transaction system that
//! preserve each transaction's program order (Section 2), together with the
//! two key predicates on them — **properness** (every step is defined in
//! the structural state it executes in) and **legality** (no two distinct
//! transactions simultaneously hold conflicting locks).

use crate::entity::EntityId;
use crate::ops::{LockMode, Operation};
use crate::state::{StructuralState, UndefinedStep};
use crate::step::Step;
use crate::txn::{LockedTransaction, TxId};
use std::collections::HashMap;
use std::fmt;

/// How a scheduled step reached the database: through the lock service
/// (the paper's model — every access covered by a lock), or as an MVCC
/// snapshot read that bypassed locking entirely and observed a specific
/// committed version.
#[derive(Clone, Copy, PartialEq, Eq, Hash, Debug, Default)]
pub enum Access {
    /// The step executed under the policy engine's locks (the default; the
    /// legality predicate governs it).
    #[default]
    Locked,
    /// The step is a read against a versioned store: it took no lock and
    /// observed the version installed by `observed` — `None` when it
    /// observed the initial, never-written value. Serializability for
    /// these steps is judged *against the version they observed*, not
    /// against lock coverage (see `slp_core::sgraph`).
    Snapshot {
        /// The writer whose version the read observed (`None` = initial).
        observed: Option<TxId>,
    },
}

/// A step attributed to the transaction that issued it.
#[derive(Clone, Copy, PartialEq, Eq, Hash, Debug)]
pub struct ScheduledStep {
    /// The issuing transaction.
    pub tx: TxId,
    /// The step itself.
    pub step: Step,
    /// How the step reached the database ([`Access::Locked`] unless the
    /// step came through an MVCC snapshot).
    pub via: Access,
}

impl ScheduledStep {
    /// Creates a scheduled step (locked access, the paper's model).
    pub fn new(tx: TxId, step: Step) -> Self {
        ScheduledStep {
            tx,
            step,
            via: Access::Locked,
        }
    }

    /// Creates a lock-free snapshot read of `entity` by `tx` that observed
    /// the version installed by `observed` (`None` = the initial value).
    pub fn snapshot_read(tx: TxId, entity: EntityId, observed: Option<TxId>) -> Self {
        ScheduledStep {
            tx,
            step: Step::read(entity),
            via: Access::Snapshot { observed },
        }
    }

    /// Whether this step is a lock-free snapshot read.
    pub fn is_snapshot(&self) -> bool {
        matches!(self.via, Access::Snapshot { .. })
    }
}

impl fmt::Display for ScheduledStep {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self.via {
            Access::Locked => write!(f, "{}:{}", self.tx, self.step),
            Access::Snapshot { observed: Some(w) } => {
                write!(f, "{}:{}@snap[{}]", self.tx, self.step, w)
            }
            Access::Snapshot { observed: None } => {
                write!(f, "{}:{}@snap[init]", self.tx, self.step)
            }
        }
    }
}

/// Why a schedule failed the properness check.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub struct ProperViolation {
    /// Position of the undefined step in the schedule.
    pub pos: usize,
    /// The undefined step.
    pub step: ScheduledStep,
    /// The reason it was undefined.
    pub cause: UndefinedStep,
}

impl fmt::Display for ProperViolation {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "step {} at position {}: {}",
            self.step, self.pos, self.cause
        )
    }
}

impl std::error::Error for ProperViolation {}

/// Why a schedule failed the legality check: at `pos`, `requester` acquired
/// a lock on `entity` conflicting with a lock held by `holder`.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub struct LegalViolation {
    /// Position of the offending lock step.
    pub pos: usize,
    /// The entity under contention.
    pub entity: EntityId,
    /// The transaction acquiring the conflicting lock.
    pub requester: TxId,
    /// A transaction already holding an incompatible lock.
    pub holder: TxId,
}

impl fmt::Display for LegalViolation {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "at position {}, {} locks {} while {} holds a conflicting lock",
            self.pos, self.requester, self.entity, self.holder
        )
    }
}

impl std::error::Error for LegalViolation {}

/// Why [`Schedule::from_sequenced`] (or
/// [`Schedule::from_sequenced_runs`]) rejected its input.
///
/// A sequence-stamped trace is only an unambiguous total order when the
/// stamps are **distinct** and **contiguous**: the runtime stamps every
/// granted step from one atomic counter, so a duplicate means the recorder
/// double-stamped and a gap means recorded steps were lost (e.g. a torn
/// write-ahead-log tail) — either way the reconstruction would silently
/// misorder or skip execution history, so both are rejected loudly.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum SequenceError {
    /// The input was empty. An empty trace is not an ordering problem, but
    /// accepting it here would let callers conflate "nothing recorded"
    /// with "nothing happened"; callers that know the trace is legitimately
    /// empty use [`Schedule::empty`] directly.
    Empty,
    /// Two entries carried the same stamp.
    Duplicate(u64),
    /// Stamps are not contiguous: after `after`, the next stamp present
    /// was `found` (> `after + 1`).
    Gap {
        /// The last stamp before the hole.
        after: u64,
        /// The next stamp actually present.
        found: u64,
    },
}

impl fmt::Display for SequenceError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            SequenceError::Empty => write!(f, "no sequence-stamped entries"),
            SequenceError::Duplicate(s) => write!(f, "duplicate sequence stamp {s}"),
            SequenceError::Gap { after, found } => {
                write!(f, "sequence gap: stamp {after} is followed by {found}")
            }
        }
    }
}

impl std::error::Error for SequenceError {}

/// A schedule: an ordering of steps of some transactions that preserves each
/// transaction's program order.
///
/// The type itself does not enforce properness or legality — those are
/// *predicates* checked by [`check_proper`](Schedule::check_proper) and
/// [`check_legal`](Schedule::check_legal), mirroring the paper where
/// schedules exist independently of being proper/legal.
#[derive(Clone, PartialEq, Eq, Hash, Debug, Default)]
pub struct Schedule {
    steps: Vec<ScheduledStep>,
}

impl Schedule {
    /// The empty schedule.
    pub fn empty() -> Self {
        Self::default()
    }

    /// A schedule from raw scheduled steps.
    pub fn from_steps(steps: Vec<ScheduledStep>) -> Self {
        Schedule { steps }
    }

    /// The serial schedule executing the given transactions (possibly
    /// truncated prefixes of them) back-to-back in the given order.
    pub fn serial<'a>(txs: impl IntoIterator<Item = &'a LockedTransaction>) -> Self {
        let mut steps = Vec::new();
        for t in txs {
            steps.extend(t.steps.iter().map(|&s| ScheduledStep::new(t.id, s)));
        }
        Schedule { steps }
    }

    /// Builds a schedule by interleaving `txs` according to `order`: each
    /// entry of `order` names the transaction whose next unconsumed step is
    /// appended. Fails if a named transaction has no steps left or is
    /// unknown, or if `order` does not consume exactly all steps of every
    /// transaction it mentions at least once — callers wanting partial
    /// schedules simply list fewer entries.
    pub fn interleave(txs: &[LockedTransaction], order: &[TxId]) -> Result<Self, String> {
        let mut cursors: HashMap<TxId, usize> = HashMap::new();
        let by_id: HashMap<TxId, &LockedTransaction> = txs.iter().map(|t| (t.id, t)).collect();
        let mut steps = Vec::with_capacity(order.len());
        for &tx in order {
            let t = by_id
                .get(&tx)
                .ok_or_else(|| format!("unknown transaction {tx}"))?;
            let cursor = cursors.entry(tx).or_insert(0);
            let step = t
                .steps
                .get(*cursor)
                .ok_or_else(|| format!("{tx} has no step left at position {cursor}"))?;
            steps.push(ScheduledStep::new(tx, *step));
            *cursor += 1;
        }
        Ok(Schedule { steps })
    }

    /// Reconstructs a schedule from sequence-stamped steps, e.g. the
    /// per-worker trace buffers of a concurrent runtime: each granted step
    /// carries the globally unique sequence number it was stamped with at
    /// grant time, and sorting by that stamp recovers the one total order
    /// the lock service actually executed.
    ///
    /// The stamps must be **distinct** and **contiguous** (the base is
    /// arbitrary — a recovered write-ahead-log tail starts at its
    /// checkpoint watermark, not at zero). Duplicates, gaps, and empty
    /// input each return the matching [`SequenceError`]; none of them
    /// panic. A duplicate means the recorder double-stamped; a gap means
    /// recorded history was lost in between; both would make the
    /// reconstruction a lie, so they are rejected rather than papered
    /// over.
    pub fn from_sequenced(
        mut entries: Vec<(u64, ScheduledStep)>,
    ) -> Result<Schedule, SequenceError> {
        if entries.is_empty() {
            return Err(SequenceError::Empty);
        }
        entries.sort_unstable_by_key(|&(seq, _)| seq);
        if let Some(w) = entries.windows(2).find(|w| w[0].0 >= w[1].0) {
            // sort_unstable guarantees w[0].0 <= w[1].0, so >= means ==.
            return Err(SequenceError::Duplicate(w[0].0));
        }
        if let Some(w) = entries.windows(2).find(|w| w[0].0 + 1 != w[1].0) {
            return Err(SequenceError::Gap {
                after: w[0].0,
                found: w[1].0,
            });
        }
        Ok(Schedule {
            steps: entries.into_iter().map(|(_, s)| s).collect(),
        })
    }

    /// [`from_sequenced`](Schedule::from_sequenced) for input that is
    /// already split into **ascending runs** — the per-worker trace
    /// segments of a concurrent runtime, where each worker draws its
    /// stamps from the one counter in program order — in time linear in
    /// the steps, without sorting and without first concatenating the
    /// runs. A run is a sequence of chunks (its entries are the chunks'
    /// entries back to back; chunks may be empty, and so may runs). Step
    /// `next` is copied from whichever run's head carries it, together
    /// with however many consecutive stamps follow it in the same chunk,
    /// and a chunk is freed as soon as the merge has passed over it. An
    /// entry is copied only when it carries exactly the next stamp, so a
    /// successful merge *is* the proof that the stamps were distinct and
    /// contiguous.
    ///
    /// The result is `from_sequenced`'s on the same entries, always: when
    /// no head carries the next stamp while entries remain (a duplicate,
    /// a gap, a run that is not ascending) the merge hands what it has
    /// copied plus everything left to `from_sequenced` for the verdict,
    /// so the same [`SequenceError`] comes back — and a dense sequence
    /// whose runs were merely out of order is still reconstructed. No
    /// run at all, or only empty ones, is [`SequenceError::Empty`].
    /// Finding the next head scans the runs, so this suits a handful of
    /// long runs (one per worker), not thousands of short ones.
    pub fn from_sequenced_runs(
        runs: Vec<Vec<Vec<(u64, ScheduledStep)>>>,
    ) -> Result<Schedule, SequenceError> {
        /// One run's unread entries: `chunk[at..]`, then `rest`.
        struct Cursor {
            chunk: Vec<(u64, ScheduledStep)>,
            at: usize,
            rest: std::vec::IntoIter<Vec<(u64, ScheduledStep)>>,
        }
        impl Cursor {
            /// The first unread stamp; steps over (and frees) exhausted
            /// chunks to find it.
            fn head(&mut self) -> Option<u64> {
                while self.at == self.chunk.len() {
                    self.chunk = self.rest.next()?;
                    self.at = 0;
                }
                Some(self.chunk[self.at].0)
            }
        }

        let total = runs.iter().flatten().map(Vec::len).sum();
        let mut cursors: Vec<Cursor> = runs
            .into_iter()
            .map(|run| Cursor {
                chunk: Vec::new(),
                at: 0,
                rest: run.into_iter(),
            })
            .collect();
        let Some(base) = cursors.iter_mut().filter_map(Cursor::head).min() else {
            return Err(SequenceError::Empty);
        };
        let mut steps = Vec::with_capacity(total);
        // `None` once stamp `u64::MAX` is out: nothing can follow it.
        let mut next = Some(base);
        while let Some(want) = next {
            let Some(carrier) = cursors.iter_mut().position(|c| c.head() == Some(want)) else {
                break;
            };
            let cursor = &mut cursors[carrier];
            let unread = &cursor.chunk[cursor.at..];
            let consecutive = unread
                .iter()
                .enumerate()
                .take_while(|&(i, entry)| want.checked_add(i as u64) == Some(entry.0))
                .count();
            steps.extend(unread[..consecutive].iter().map(|entry| entry.1));
            next = unread[consecutive - 1].0.checked_add(1);
            cursor.at += consecutive;
        }
        if cursors.iter_mut().all(|c| c.head().is_none()) {
            return Ok(Schedule { steps });
        }
        let mut entries: Vec<(u64, ScheduledStep)> = steps
            .into_iter()
            .enumerate()
            .map(|(i, step)| (base + i as u64, step))
            .collect();
        for cursor in cursors {
            entries.extend_from_slice(&cursor.chunk[cursor.at..]);
            entries.extend(cursor.rest.flatten());
        }
        Self::from_sequenced(entries)
    }

    /// The locks still held after the last step: `(entity, holder, mode)`
    /// per outstanding grant, in acquisition order. Empty iff every lock
    /// acquired in the schedule was released — the trace-level statement
    /// that a runtime's lock table reached quiescence. Assumes the
    /// schedule is legal (release steps are matched textually against
    /// grants, the way [`check_legal`](Schedule::check_legal)'s table
    /// does).
    pub fn locks_held_at_end(&self) -> Vec<(EntityId, TxId, LockMode)> {
        let mut held: Vec<(EntityId, TxId, LockMode)> = Vec::new();
        for s in &self.steps {
            match s.step.op {
                Operation::Lock(mode) => held.push((s.step.entity, s.tx, mode)),
                Operation::Unlock(mode) => {
                    if let Some(i) = held
                        .iter()
                        .position(|&(e, t, m)| e == s.step.entity && t == s.tx && m == mode)
                    {
                        held.remove(i);
                    }
                }
                Operation::Data(_) => {}
            }
        }
        held
    }

    /// The steps, in schedule order.
    pub fn steps(&self) -> &[ScheduledStep] {
        &self.steps
    }

    /// Number of steps.
    pub fn len(&self) -> usize {
        self.steps.len()
    }

    /// Whether the schedule has no steps.
    pub fn is_empty(&self) -> bool {
        self.steps.is_empty()
    }

    /// Appends a step.
    #[inline]
    pub fn push(&mut self, s: ScheduledStep) {
        self.steps.push(s);
    }

    /// Removes and returns the last step in O(1). The safety verifier's
    /// apply/undo DFS backtracks through this on every node.
    #[inline]
    pub fn pop(&mut self) -> Option<ScheduledStep> {
        self.steps.pop()
    }

    /// The prefix consisting of the first `n` steps.
    pub fn prefix(&self, n: usize) -> Schedule {
        Schedule {
            steps: self.steps[..n.min(self.steps.len())].to_vec(),
        }
    }

    /// Whether `prefix` is a prefix of this schedule.
    pub fn has_prefix(&self, prefix: &Schedule) -> bool {
        self.steps.len() >= prefix.steps.len()
            && self.steps[..prefix.steps.len()] == prefix.steps[..]
    }

    /// The projection of the schedule onto one transaction's steps.
    pub fn projection(&self, tx: TxId) -> Vec<Step> {
        self.steps
            .iter()
            .filter(|s| s.tx == tx)
            .map(|s| s.step)
            .collect()
    }

    /// Positions (schedule indices) of one transaction's steps.
    pub fn positions_of(&self, tx: TxId) -> Vec<usize> {
        (0..self.steps.len())
            .filter(|&i| self.steps[i].tx == tx)
            .collect()
    }

    /// The transactions appearing in the schedule, in first-step order.
    pub fn participants(&self) -> Vec<TxId> {
        let mut seen = Vec::new();
        for s in &self.steps {
            if !seen.contains(&s.tx) {
                seen.push(s.tx);
            }
        }
        seen
    }

    /// Whether this is a *complete* schedule of `txs`: the projection onto
    /// every transaction equals that transaction's full step sequence, and
    /// no other transaction appears.
    pub fn is_complete_schedule_of(&self, txs: &[LockedTransaction]) -> bool {
        let ids: Vec<TxId> = txs.iter().map(|t| t.id).collect();
        if self.steps.iter().any(|s| !ids.contains(&s.tx)) {
            return false;
        }
        txs.iter().all(|t| self.projection(t.id) == t.steps)
    }

    /// Whether this is a *partial* schedule of `txs` (a prefix of some
    /// schedule of them): every projection is a prefix of the corresponding
    /// transaction, and no other transaction appears.
    pub fn is_partial_schedule_of(&self, txs: &[LockedTransaction]) -> bool {
        let by_id: HashMap<TxId, &LockedTransaction> = txs.iter().map(|t| (t.id, t)).collect();
        let mut cursors: HashMap<TxId, usize> = HashMap::new();
        for s in &self.steps {
            let Some(t) = by_id.get(&s.tx) else {
                return false;
            };
            let cursor = cursors.entry(s.tx).or_insert(0);
            if t.steps.get(*cursor) != Some(&s.step) {
                return false;
            }
            *cursor += 1;
        }
        true
    }

    /// Checks properness for initial structural state `g0`; on success
    /// returns the resulting structural state `S(G)`.
    pub fn check_proper(&self, g0: &StructuralState) -> Result<StructuralState, ProperViolation> {
        let mut g = g0.clone();
        for (pos, s) in self.steps.iter().enumerate() {
            g.apply_step(&s.step).map_err(|cause| ProperViolation {
                pos,
                step: *s,
                cause,
            })?;
        }
        Ok(g)
    }

    /// Whether the schedule is proper for `g0`.
    pub fn is_proper(&self, g0: &StructuralState) -> bool {
        self.check_proper(g0).is_ok()
    }

    /// Checks legality: no prefix in which two distinct transactions hold
    /// conflicting locks on the same entity.
    pub fn check_legal(&self) -> Result<(), LegalViolation> {
        let mut table = LockTable::new();
        for (pos, s) in self.steps.iter().enumerate() {
            match s.step.op {
                Operation::Lock(mode) => {
                    if let Some(holder) = table.conflicting_holder(s.tx, s.step.entity, mode) {
                        return Err(LegalViolation {
                            pos,
                            entity: s.step.entity,
                            requester: s.tx,
                            holder,
                        });
                    }
                    table.grant(s.tx, s.step.entity, mode);
                }
                Operation::Unlock(mode) => {
                    table.release(s.tx, s.step.entity, mode);
                }
                Operation::Data(_) => {}
            }
        }
        Ok(())
    }

    /// Whether the schedule is legal.
    pub fn is_legal(&self) -> bool {
        self.check_legal().is_ok()
    }

    /// Concatenates two schedules.
    pub fn concat(&self, suffix: &Schedule) -> Schedule {
        let mut steps = self.steps.clone();
        steps.extend_from_slice(&suffix.steps);
        Schedule { steps }
    }
}

impl fmt::Display for Schedule {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let mut first = true;
        for s in &self.steps {
            if !first {
                f.write_str(" ")?;
            }
            write!(f, "{s}")?;
            first = false;
        }
        Ok(())
    }
}

impl FromIterator<ScheduledStep> for Schedule {
    fn from_iter<I: IntoIterator<Item = ScheduledStep>>(iter: I) -> Self {
        Schedule {
            steps: iter.into_iter().collect(),
        }
    }
}

/// A lock table tracking, per entity, the current holders and mode.
///
/// Invariant (when driven only through legal grants): an entity is held
/// either by any number of transactions in shared mode or by exactly one in
/// exclusive mode.
///
/// Storage is a dense vector indexed by entity id (entity ids come from
/// the `Universe` interner, so the table stays small): the verifier's DFS
/// probes the table on every candidate step, and a direct index beats a
/// hash lookup there. Equality ignores empty holder slots, so tables that
/// held locks on different entities at some point still compare equal once
/// those locks are gone; holder *order* within an entity is significant,
/// which is what lets [`undo_release`](LockTable::undo_release) restore a
/// table to exact equality.
#[derive(Clone, Eq, Debug, Default)]
pub struct LockTable {
    held: Vec<Vec<(TxId, LockMode)>>,
}

impl PartialEq for LockTable {
    fn eq(&self, other: &Self) -> bool {
        let (short, long) = if self.held.len() <= other.held.len() {
            (&self.held, &other.held)
        } else {
            (&other.held, &self.held)
        };
        short == &long[..short.len()] && long[short.len()..].iter().all(Vec::is_empty)
    }
}

impl LockTable {
    /// An empty lock table.
    pub fn new() -> Self {
        Self::default()
    }

    #[inline]
    fn slot(&self, entity: EntityId) -> &[(TxId, LockMode)] {
        self.held.get(entity.index()).map_or(&[], Vec::as_slice)
    }

    /// A transaction (≠ `tx`) holding a lock on `entity` incompatible with
    /// `mode`, if any. Granting while such a holder exists makes the
    /// schedule illegal.
    #[inline]
    pub fn conflicting_holder(&self, tx: TxId, entity: EntityId, mode: LockMode) -> Option<TxId> {
        self.slot(entity)
            .iter()
            .find(|(h, m)| *h != tx && !m.compatible_with(mode))
            .map(|(h, _)| *h)
    }

    /// Records a grant (does not re-check compatibility).
    #[inline]
    pub fn grant(&mut self, tx: TxId, entity: EntityId, mode: LockMode) {
        let i = entity.index();
        if i >= self.held.len() {
            self.held.resize_with(i + 1, Vec::new);
        }
        self.held[i].push((tx, mode));
    }

    /// Records a release of one `(tx, mode)` lock on `entity`.
    pub fn release(&mut self, tx: TxId, entity: EntityId, mode: LockMode) -> bool {
        self.release_tracked(tx, entity, mode).is_some()
    }

    /// Like [`release`](LockTable::release), but returns the holder-vector
    /// slot the lock was removed from (`swap_remove` semantics), which
    /// [`undo_release`](LockTable::undo_release) needs to restore the table
    /// bit-for-bit. `None` if `(tx, mode)` held no lock on `entity`.
    #[inline]
    pub fn release_tracked(&mut self, tx: TxId, entity: EntityId, mode: LockMode) -> Option<u32> {
        let holders = self.held.get_mut(entity.index())?;
        let i = holders.iter().position(|&(h, m)| h == tx && m == mode)?;
        holders.swap_remove(i);
        Some(i as u32)
    }

    /// Reverses the most recent [`grant`](LockTable::grant) of `(tx, mode)`
    /// on `entity`. Part of the verifier's apply/undo machinery; only valid
    /// under LIFO discipline (no intervening un-undone operation on
    /// `entity`), where the grant is necessarily the last holder.
    #[inline]
    pub fn undo_grant(&mut self, tx: TxId, entity: EntityId, mode: LockMode) {
        let holders = self
            .held
            .get_mut(entity.index())
            .expect("undo_grant: entity has holders");
        let last = holders.pop().expect("undo_grant: holder vector nonempty");
        debug_assert_eq!(last, (tx, mode), "undo_grant out of LIFO order");
    }

    /// Reverses a [`release_tracked`](LockTable::release_tracked) of
    /// `(tx, mode)` on `entity` that removed the holder from `slot`,
    /// restoring the exact holder-vector layout (so `LockTable` equality
    /// holds after undo). Only valid under LIFO discipline.
    #[inline]
    pub fn undo_release(&mut self, tx: TxId, entity: EntityId, mode: LockMode, slot: u32) {
        let i = entity.index();
        if i >= self.held.len() {
            self.held.resize_with(i + 1, Vec::new);
        }
        let holders = &mut self.held[i];
        let slot = slot as usize;
        debug_assert!(slot <= holders.len(), "undo_release: slot out of range");
        if slot == holders.len() {
            // The released holder was the last element: swap_remove popped.
            holders.push((tx, mode));
        } else {
            // swap_remove moved the then-last holder into `slot`; put it
            // back at the end and reinstate the released holder.
            let moved = holders[slot];
            holders.push(moved);
            holders[slot] = (tx, mode);
        }
    }

    /// The mode in which `tx` holds `entity`, if any.
    pub fn mode_of(&self, tx: TxId, entity: EntityId) -> Option<LockMode> {
        self.slot(entity)
            .iter()
            .find(|&&(h, _)| h == tx)
            .map(|&(_, m)| m)
    }

    /// All holders of `entity`.
    pub fn holders(&self, entity: EntityId) -> &[(TxId, LockMode)] {
        self.slot(entity)
    }

    /// Whether any lock is held on `entity`.
    pub fn is_locked(&self, entity: EntityId) -> bool {
        !self.slot(entity).is_empty()
    }

    /// All entities locked by `tx`.
    pub fn entities_held_by(&self, tx: TxId) -> Vec<EntityId> {
        // Slots are id-ordered, so the output is sorted by construction.
        self.held
            .iter()
            .enumerate()
            .filter(|(_, holders)| holders.iter().any(|&(h, _)| h == tx))
            .map(|(i, _)| EntityId(i as u32))
            .collect()
    }
}

/// Why a step could not be applied by the [`ScheduleSimulator`].
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum StepError {
    /// The step is undefined in the current structural state (would make
    /// the schedule improper).
    Undefined(UndefinedStep),
    /// The step acquires a lock conflicting with one held by `holder`
    /// (would make the schedule illegal).
    LockConflict {
        /// The transaction already holding an incompatible lock.
        holder: TxId,
    },
}

impl fmt::Display for StepError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            StepError::Undefined(u) => write!(f, "improper: {u}"),
            StepError::LockConflict { holder } => {
                write!(f, "illegal: conflicting lock held by {holder}")
            }
        }
    }
}

impl std::error::Error for StepError {}

/// A compact record of one applied step, sufficient to reverse it exactly.
///
/// Returned by [`ScheduleSimulator::apply_undoable`] and consumed by
/// [`ScheduleSimulator::undo`]. Tokens must be undone in **reverse apply
/// order** (LIFO): the verifier's DFS applies a step on the way down and
/// undoes it on the way back up, so at undo time the simulator is in
/// exactly the state the apply left it in.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub struct UndoToken {
    tx: TxId,
    step: Step,
    /// For unlock steps: the holder-vector slot the released lock was
    /// `swap_remove`d from, or [`UndoToken::NO_SLOT`] if the unlock matched
    /// no held lock (and therefore changed nothing).
    slot: u32,
}

impl UndoToken {
    const NO_SLOT: u32 = u32::MAX;

    /// The transaction whose step this token reverses.
    pub fn tx(&self) -> TxId {
        self.tx
    }

    /// The step this token reverses.
    pub fn step(&self) -> Step {
        self.step
    }
}

/// An incremental cursor over schedule execution: maintains the structural
/// state and lock table, and accepts one step at a time, rejecting steps
/// that would make the schedule so far improper or illegal.
///
/// This is the machinery the safety verifier drives: instead of re-checking
/// a whole candidate schedule after each extension (O(n) per step), the
/// simulator validates each extension in O(1)–O(holders). Steps applied
/// through [`apply_undoable`](ScheduleSimulator::apply_undoable) can be
/// reversed exactly with [`undo`](ScheduleSimulator::undo), so a
/// backtracking search mutates **one** simulator in place instead of
/// cloning it at every branch.
#[derive(Clone, PartialEq, Eq, Debug)]
pub struct ScheduleSimulator {
    state: StructuralState,
    table: LockTable,
    applied: usize,
}

impl ScheduleSimulator {
    /// A simulator starting from structural state `g0`.
    pub fn new(g0: StructuralState) -> Self {
        ScheduleSimulator {
            state: g0,
            table: LockTable::new(),
            applied: 0,
        }
    }

    /// Whether `tx` could take `step` next without violating properness or
    /// legality.
    #[inline]
    pub fn check(&self, tx: TxId, step: &Step) -> Result<(), StepError> {
        self.state
            .step_defined(step)
            .map_err(StepError::Undefined)?;
        if let Operation::Lock(mode) = step.op {
            if let Some(holder) = self.table.conflicting_holder(tx, step.entity, mode) {
                return Err(StepError::LockConflict { holder });
            }
        }
        Ok(())
    }

    /// Applies `step` for `tx`, or reports why it cannot be applied.
    pub fn apply(&mut self, tx: TxId, step: &Step) -> Result<(), StepError> {
        self.apply_undoable(tx, step).map(|_| ())
    }

    /// Applies `step` for `tx` and returns a token that
    /// [`undo`](ScheduleSimulator::undo) can use to reverse it exactly.
    #[inline]
    pub fn apply_undoable(&mut self, tx: TxId, step: &Step) -> Result<UndoToken, StepError> {
        self.check(tx, step)?;
        let mut slot = UndoToken::NO_SLOT;
        match step.op {
            Operation::Lock(mode) => self.table.grant(tx, step.entity, mode),
            Operation::Unlock(mode) => {
                if let Some(s) = self.table.release_tracked(tx, step.entity, mode) {
                    slot = s;
                }
            }
            Operation::Data(_) => {
                self.state
                    .apply_step(step)
                    .expect("checked by step_defined above");
            }
        }
        self.applied += 1;
        Ok(UndoToken {
            tx,
            step: *step,
            slot,
        })
    }

    /// Reverses the step recorded by `token`, restoring the simulator to
    /// exactly the state before the corresponding
    /// [`apply_undoable`](ScheduleSimulator::apply_undoable) — including
    /// `Eq`-visible representation details of the lock table.
    ///
    /// Tokens must be undone in reverse apply order (LIFO). Undoing in any
    /// other order is a logic error; debug builds assert on the patterns it
    /// would produce.
    #[inline]
    pub fn undo(&mut self, token: UndoToken) {
        match token.step.op {
            Operation::Lock(mode) => {
                self.table.undo_grant(token.tx, token.step.entity, mode);
            }
            Operation::Unlock(mode) => {
                if token.slot != UndoToken::NO_SLOT {
                    self.table
                        .undo_release(token.tx, token.step.entity, mode, token.slot);
                }
            }
            Operation::Data(_) => {
                self.state.unapply_step(&token.step);
            }
        }
        self.applied -= 1;
    }

    /// Applies every step of `schedule`, reporting the first failure.
    pub fn apply_schedule(&mut self, schedule: &Schedule) -> Result<(), (usize, StepError)> {
        for (i, s) in schedule.steps().iter().enumerate() {
            self.apply(s.tx, &s.step).map_err(|e| (i, e))?;
        }
        Ok(())
    }

    /// The current structural state.
    pub fn structural_state(&self) -> &StructuralState {
        &self.state
    }

    /// The current lock table.
    pub fn lock_table(&self) -> &LockTable {
        &self.table
    }

    /// Number of steps applied so far.
    pub fn applied(&self) -> usize {
        self.applied
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

    /// The paper's Section 2 transactions:
    /// `T1 = (I a)(I b)(W c)(I d)`, `T2 = (R a)(D b)(I c)` — *without* lock
    /// steps, since properness is independent of locks.
    fn section2_txs() -> Vec<LockedTransaction> {
        let (a, b, c, d) = (e(0), e(1), e(2), e(3));
        vec![
            LockedTransaction::new(
                t(1),
                vec![
                    Step::insert(a),
                    Step::insert(b),
                    Step::write(c),
                    Step::insert(d),
                ],
            ),
            LockedTransaction::new(t(2), vec![Step::read(a), Step::delete(b), Step::insert(c)]),
        ]
    }

    #[test]
    fn from_sequenced_recovers_grant_order() {
        // Buffers arrive per-worker (out of global order); the stamps
        // recover the interleaving.
        let entries = vec![
            (2, ScheduledStep::new(t(1), Step::write(e(0)))),
            (0, ScheduledStep::new(t(1), Step::lock_exclusive(e(0)))),
            (3, ScheduledStep::new(t(2), Step::lock_exclusive(e(1)))),
            (1, ScheduledStep::new(t(1), Step::read(e(0)))),
        ];
        let s = Schedule::from_sequenced(entries).unwrap();
        assert_eq!(s.len(), 4);
        assert_eq!(s.steps()[0].step, Step::lock_exclusive(e(0)));
        assert_eq!(s.steps()[3].tx, t(2));
    }

    #[test]
    fn from_sequenced_rejects_duplicate_stamps() {
        // Duplicate stamps are a recorder bug, rejected loudly.
        let dup = vec![
            (7, ScheduledStep::new(t(1), Step::read(e(0)))),
            (7, ScheduledStep::new(t(2), Step::read(e(0)))),
        ];
        assert_eq!(
            Schedule::from_sequenced(dup),
            Err(SequenceError::Duplicate(7))
        );
    }

    #[test]
    fn from_sequenced_rejects_gapped_stamps() {
        // A hole in the stamp sequence means recorded history was lost
        // (e.g. a torn log tail) — the reconstruction must refuse, not
        // silently splice the two sides together.
        let gapped = vec![
            (3, ScheduledStep::new(t(1), Step::read(e(0)))),
            (4, ScheduledStep::new(t(1), Step::write(e(0)))),
            (6, ScheduledStep::new(t(2), Step::read(e(0)))),
        ];
        assert_eq!(
            Schedule::from_sequenced(gapped),
            Err(SequenceError::Gap { after: 4, found: 6 })
        );
        // The base is arbitrary: a contiguous run starting past zero (a
        // recovered log tail) is fine.
        let tail = vec![
            (41, ScheduledStep::new(t(1), Step::read(e(0)))),
            (40, ScheduledStep::new(t(1), Step::lock_shared(e(0)))),
            (42, ScheduledStep::new(t(1), Step::unlock_shared(e(0)))),
        ];
        assert_eq!(Schedule::from_sequenced(tail).unwrap().len(), 3);
    }

    #[test]
    fn from_sequenced_rejects_empty_input() {
        assert_eq!(
            Schedule::from_sequenced(Vec::new()),
            Err(SequenceError::Empty)
        );
    }

    #[test]
    fn locks_held_at_end_tracks_outstanding_grants() {
        let mut s = Schedule::empty();
        s.push(ScheduledStep::new(t(1), Step::lock_exclusive(e(0))));
        s.push(ScheduledStep::new(t(2), Step::lock_shared(e(1))));
        s.push(ScheduledStep::new(t(1), Step::lock_shared(e(1))));
        assert_eq!(s.locks_held_at_end().len(), 3);
        s.push(ScheduledStep::new(t(1), Step::unlock_exclusive(e(0))));
        s.push(ScheduledStep::new(t(1), Step::unlock_shared(e(1))));
        assert_eq!(
            s.locks_held_at_end(),
            vec![(e(1), t(2), LockMode::Shared)],
            "only T2's shared lock remains"
        );
        s.push(ScheduledStep::new(t(2), Step::unlock_shared(e(1))));
        assert!(s.locks_held_at_end().is_empty(), "quiescent");
    }

    #[test]
    fn paper_proper_interleaving_is_proper() {
        // T1: (I a) (I b)             (W c) (I d)
        // T2:             (R a) (D b)       (I c)   — wait, the paper's
        // proper interleaving runs (I c) *before* (W c):
        // (I a)(I b)(R a)(D b)(I c)(W c)(I d).
        let txs = section2_txs();
        let s = Schedule::interleave(&txs, &[t(1), t(1), t(2), t(2), t(2), t(1), t(1)]).unwrap();
        assert!(s.is_proper(&StructuralState::empty()));
        assert!(s.is_complete_schedule_of(&txs));
    }

    #[test]
    fn paper_improper_interleaving_is_improper() {
        // (I a)(R a)(D b)... — (D b) before (I b)? No: the paper's improper
        // interleaving is (I a)(I b)(W c)... with (W c) before (I c).
        let txs = section2_txs();
        let s = Schedule::interleave(&txs, &[t(1), t(1), t(1), t(2), t(2), t(2), t(1)]).unwrap();
        let err = s.check_proper(&StructuralState::empty()).unwrap_err();
        assert_eq!(err.pos, 2); // (W c) with c absent
        assert_eq!(err.cause, UndefinedStep::EntityAbsent(e(2)));
    }

    #[test]
    fn neither_section2_transaction_is_proper_alone() {
        let txs = section2_txs();
        let t1_alone = Schedule::serial([&txs[0]]);
        let t2_alone = Schedule::serial([&txs[1]]);
        assert!(!t1_alone.is_proper(&StructuralState::empty()));
        assert!(!t2_alone.is_proper(&StructuralState::empty()));
    }

    #[test]
    fn interleave_rejects_unknown_and_exhausted_transactions() {
        let txs = section2_txs();
        assert!(Schedule::interleave(&txs, &[t(9)]).is_err());
        assert!(Schedule::interleave(&txs, &[t(2), t(2), t(2), t(2)]).is_err());
    }

    #[test]
    fn legality_rejects_conflicting_concurrent_locks() {
        let s = Schedule::from_steps(vec![
            ScheduledStep::new(t(1), Step::lock_exclusive(e(0))),
            ScheduledStep::new(t(2), Step::lock_shared(e(0))),
        ]);
        let err = s.check_legal().unwrap_err();
        assert_eq!(err.pos, 1);
        assert_eq!(err.requester, t(2));
        assert_eq!(err.holder, t(1));
    }

    #[test]
    fn legality_allows_shared_coexistence_and_handover() {
        let s = Schedule::from_steps(vec![
            ScheduledStep::new(t(1), Step::lock_shared(e(0))),
            ScheduledStep::new(t(2), Step::lock_shared(e(0))),
            ScheduledStep::new(t(1), Step::unlock_shared(e(0))),
            ScheduledStep::new(t(2), Step::unlock_shared(e(0))),
            ScheduledStep::new(t(3), Step::lock_exclusive(e(0))),
            ScheduledStep::new(t(3), Step::unlock_exclusive(e(0))),
        ]);
        assert!(s.is_legal());
    }

    #[test]
    fn projection_and_partial_schedule_checks() {
        let txs = section2_txs();
        let s = Schedule::interleave(&txs, &[t(1), t(1), t(2)]).unwrap();
        assert_eq!(
            s.projection(t(1)),
            vec![Step::insert(e(0)), Step::insert(e(1))]
        );
        assert!(s.is_partial_schedule_of(&txs));
        assert!(!s.is_complete_schedule_of(&txs));
        // Reordering T2's steps is not a partial schedule.
        let bad = Schedule::from_steps(vec![ScheduledStep::new(
            t(2),
            Step::delete(e(1)), // T2's first step is (R a), not (D b)
        )]);
        assert!(!bad.is_partial_schedule_of(&txs));
    }

    #[test]
    fn participants_in_first_step_order() {
        let txs = section2_txs();
        let s = Schedule::interleave(&txs, &[t(2), t(1), t(2)]).unwrap();
        assert_eq!(s.participants(), vec![t(2), t(1)]);
    }

    #[test]
    fn simulator_agrees_with_one_shot_checks() {
        let txs = section2_txs();
        let proper =
            Schedule::interleave(&txs, &[t(1), t(1), t(2), t(2), t(2), t(1), t(1)]).unwrap();
        let mut sim = ScheduleSimulator::new(StructuralState::empty());
        assert!(sim.apply_schedule(&proper).is_ok());
        assert_eq!(sim.applied(), 7);

        let improper = Schedule::interleave(&txs, &[t(1), t(1), t(1)]).unwrap();
        let mut sim = ScheduleSimulator::new(StructuralState::empty());
        let (pos, err) = sim.apply_schedule(&improper).unwrap_err();
        assert_eq!(pos, 2);
        assert!(matches!(err, StepError::Undefined(_)));
    }

    #[test]
    fn simulator_rejects_illegal_lock() {
        let mut sim = ScheduleSimulator::new(StructuralState::empty());
        sim.apply(t(1), &Step::lock_exclusive(e(0))).unwrap();
        let err = sim.apply(t(2), &Step::lock_exclusive(e(0))).unwrap_err();
        assert_eq!(err, StepError::LockConflict { holder: t(1) });
        // Relock by the same transaction is not a *legality* issue (it is a
        // transaction-discipline issue caught by LockedTransaction::validate).
        assert!(sim.check(t(1), &Step::lock_exclusive(e(0))).is_ok());
    }

    #[test]
    fn lock_table_bookkeeping() {
        let mut table = LockTable::new();
        table.grant(t(1), e(0), LockMode::Shared);
        table.grant(t(2), e(0), LockMode::Shared);
        assert_eq!(table.mode_of(t(1), e(0)), Some(LockMode::Shared));
        assert_eq!(
            table.conflicting_holder(t(3), e(0), LockMode::Exclusive),
            Some(t(1))
        );
        assert_eq!(table.conflicting_holder(t(3), e(0), LockMode::Shared), None);
        assert!(table.release(t(1), e(0), LockMode::Shared));
        assert!(!table.release(t(1), e(0), LockMode::Shared));
        assert_eq!(table.entities_held_by(t(2)), vec![e(0)]);
        assert!(table.is_locked(e(0)));
        assert!(table.release(t(2), e(0), LockMode::Shared));
        assert!(!table.is_locked(e(0)));
    }

    #[test]
    fn push_pop_round_trip() {
        let mut s = Schedule::empty();
        assert_eq!(s.pop(), None);
        let a = ScheduledStep::new(t(1), Step::insert(e(0)));
        let b = ScheduledStep::new(t(2), Step::read(e(0)));
        s.push(a);
        s.push(b);
        assert_eq!(s.pop(), Some(b));
        assert_eq!(s.len(), 1);
        assert_eq!(s.pop(), Some(a));
        assert!(s.is_empty());
    }

    #[test]
    fn apply_undo_restores_simulator_exactly() {
        // Mixed locks, shared coexistence, structural ops — applied then
        // undone in reverse; the simulator must compare equal at every
        // unwind depth, not just at the end.
        let steps = [
            (t(1), Step::lock_exclusive(e(0))),
            (t(1), Step::insert(e(0))),
            (t(1), Step::unlock_exclusive(e(0))),
            (t(2), Step::lock_shared(e(0))),
            (t(3), Step::lock_shared(e(0))),
            (t(2), Step::read(e(0))),
            (t(2), Step::unlock_shared(e(0))),
            (t(3), Step::unlock_shared(e(0))),
            (t(3), Step::lock_exclusive(e(0))),
            (t(3), Step::delete(e(0))),
            (t(3), Step::unlock_exclusive(e(0))),
        ];
        let mut sim = ScheduleSimulator::new(StructuralState::empty());
        let mut snapshots = vec![sim.clone()];
        let mut tokens = Vec::new();
        for (tx, step) in steps {
            tokens.push(sim.apply_undoable(tx, &step).unwrap());
            snapshots.push(sim.clone());
        }
        while let Some(token) = tokens.pop() {
            snapshots.pop();
            sim.undo(token);
            assert_eq!(
                &sim,
                snapshots.last().unwrap(),
                "undo of {token:?} diverged"
            );
        }
        assert_eq!(sim.applied(), 0);
    }

    #[test]
    fn undo_release_restores_holder_order_after_swap_remove() {
        // Three shared holders; releasing the *first* swap_removes, moving
        // the last holder into slot 0. Undo must restore the original
        // layout so LockTable equality (order-sensitive Vec) holds.
        let mut sim = ScheduleSimulator::new(StructuralState::empty());
        for i in 1..=3 {
            sim.apply(t(i), &Step::lock_shared(e(0))).unwrap();
        }
        let before = sim.clone();
        let token = sim
            .apply_undoable(t(1), &Step::unlock_shared(e(0)))
            .unwrap();
        assert_ne!(sim, before);
        sim.undo(token);
        assert_eq!(sim, before);
        assert_eq!(
            sim.lock_table().holders(e(0)),
            &[
                (t(1), LockMode::Shared),
                (t(2), LockMode::Shared),
                (t(3), LockMode::Shared)
            ]
        );
    }

    #[test]
    fn undo_of_unmatched_unlock_is_a_no_op() {
        // Unlocking a never-held lock applies as a no-op (legality treats
        // it as vacuous); its undo must also be a no-op.
        let mut sim = ScheduleSimulator::new(StructuralState::empty());
        let before = sim.clone();
        let token = sim
            .apply_undoable(t(1), &Step::unlock_exclusive(e(0)))
            .unwrap();
        assert_eq!(sim.applied(), 1);
        sim.undo(token);
        assert_eq!(sim, before);
    }

    #[test]
    fn prefix_and_concat_round_trip() {
        let txs = section2_txs();
        let s = Schedule::interleave(&txs, &[t(1), t(1), t(2), t(2), t(2), t(1), t(1)]).unwrap();
        let p = s.prefix(3);
        assert_eq!(p.len(), 3);
        assert!(s.has_prefix(&p));
        let suffix = Schedule::from_steps(s.steps()[3..].to_vec());
        assert_eq!(p.concat(&suffix), s);
    }
}
