//! The sharded lock service: one [`PolicyEngine`] serving many worker
//! threads.
//!
//! The engine is the serialization point for policies whose grants read
//! global state — every grant/refuse decision mutates shared policy
//! state (lock table, wakes, graph), so those decisions run under one
//! write lock. For per-entity policies
//! ([`slp_policies::GrantScope::PerEntity`]) the common case bypasses
//! even that: eligible requests are decided by a CAS on the entity's own
//! atomic lock word ([`crate::fastpath`]), and the words — not the
//! engine table — are then the grant authority (engine-path requests in
//! such a run acquire the word *first*). Everything *around* those
//! points is sharded or lock-free:
//!
//! * **planning** takes the engine's read lock (planners only read, so
//!   they run concurrently with each other). The window is short: the
//!   DDAG planner lays a region out from the engine's
//!   [`slp_graph::DomIndex`] in time proportional to the region — about
//!   a microsecond, a fraction of the grants that follow — because the
//!   whole-graph work (dominator tree, topological ranks, root) is done
//!   once per structural mutation, under the write lock that mutation
//!   already holds;
//! * **parking** is entity-striped: a conflicting transaction parks on the
//!   stripe of the contended entity and only unlocks of entities hashing
//!   to that stripe wake it — uncontended stripes never touch a parked
//!   worker's condvar;
//! * **trace recording** is per-worker: granted steps are stamped from one
//!   global atomic sequence counter *while the granting context is held*
//!   — the engine lock, or (fast path) the touched entities' lock words.
//!   The stamp-ordering contract: an acquire's stamp is fetched after the
//!   acquire, a release's before the release, data stamps in between —
//!   so for every entity the counter's monotonicity orders conflicting
//!   steps exactly as the grants serialized, whichever path granted
//!   them, and the buffers merged by
//!   [`slp_core::Schedule::from_sequenced`] are a faithful schedule
//!   without any runtime coordination;
//! * **accounting** is plain atomics.
//!
//! Lost wakeups are impossible by construction: the stripe generation a
//! worker will park on is read *inside* the engine section that observed
//! its conflict ([`BatchOutcome::Conflict`]), and the worker parks only
//! if that generation is still unchanged under the stripe lock — any
//! release that could invalidate the conflict is recorded after that
//! engine section and bumps the generation first (releases bump under
//! the stripe lock, before `notify_all`). Deadlock detection is complete because a
//! waiter refreshes its waits-for edge to the current holder before every
//! park (see [`LockService::note_wait`]), so with a generous timeout the
//! park-timeout backstop never fires on a healthy run — firings are
//! counted ([`Counters::park_timeouts`]) and surfaced in the report as
//! lost-wakeup evidence.

use crate::fastpath::{LockWords, WaitGraph};
use crate::runner::CertifyMode;
use slp_core::{
    CertViolation, DataOp, EntityId, IncrementalCertifier, LockMode, Operation, ScheduledStep,
    Step, TxId, VersionedRead,
};
use slp_durability::Wal;
use slp_mvcc::{CommitPipeline, MvccStore, VisibilityRule};
use slp_policies::{AccessIntent, PolicyAction, PolicyEngine, PolicyResponse, PolicyViolation};
use std::sync::atomic::{AtomicBool, AtomicU64, AtomicUsize, Ordering};
use std::sync::{Arc, Condvar, Mutex, RwLock};
use std::time::Duration;

/// One parking stripe: a generation counter advanced on every unlock of an
/// entity hashing here, plus the condvar parked workers wait on.
struct Stripe {
    gen: Mutex<u64>,
    cv: Condvar,
}

/// The outcome of [`LockService::request_batch`].
pub(crate) enum BatchOutcome {
    /// All attempted actions were granted.
    Granted { granted: usize },
    /// `granted` actions ran, then the next conflicted.
    Conflict {
        granted: usize,
        entity: EntityId,
        holder: TxId,
        /// The conflicting entity's stripe generation, read *inside* the
        /// engine section that observed the conflict. Any release that
        /// could invalidate the conflict is recorded after that section,
        /// so its generation bump strictly follows this read — parking on
        /// `gen` can never miss it.
        gen: u64,
    },
    /// Some actions may have run, then the policy refused the next
    /// outright (the requester aborts, so the count doesn't matter).
    Violation { violation: PolicyViolation },
}

/// The outcome of one [`LockService::fast_lock`] attempt.
pub(crate) enum FastLockOutcome {
    /// The word CAS won: the lock is held and its step recorded.
    Granted,
    /// The word is held against us; park on `gen` (read with the same
    /// discipline as [`BatchOutcome::Conflict`]) and retry.
    Conflict {
        /// The holder (or shared-episode representative) to publish a
        /// waits-for edge against.
        holder: TxId,
        /// The entity's stripe generation, read after the conflict was
        /// observed and rechecked — see [`LockService::fast_lock`].
        gen: u64,
    },
}

/// Shared accounting, all atomics (no lock on the hot path).
#[derive(Default)]
pub(crate) struct Counters {
    pub attempts: AtomicUsize,
    pub committed: AtomicUsize,
    pub policy_aborts: AtomicUsize,
    pub deadlock_aborts: AtomicUsize,
    pub rejected: AtomicUsize,
    pub abandoned: AtomicUsize,
    /// Transactions aborted by strict-mode certification recovery (the
    /// cycle victim was retracted and its job retried).
    pub certification_aborts: AtomicUsize,
    pub lock_waits: AtomicU64,
    pub park_timeouts: AtomicU64,
    pub grants: AtomicU64,
    /// Grants decided by a per-entity lock-word CAS, bypassing the engine
    /// lock entirely (subset of `grants`).
    pub fast_path_grants: AtomicU64,
    /// Grants decided under the engine write lock (subset of `grants`;
    /// with the fast path off this equals `grants`).
    pub slow_path_grants: AtomicU64,
    /// Attempts routed to the engine in a fast-capable run because their
    /// plan fell outside the fast path's plain lock/access shape.
    pub fast_path_fallbacks: AtomicU64,
    pub parks: AtomicU64,
    /// MVCC snapshot read steps served without touching the lock service.
    pub snapshot_reads: AtomicU64,
    pub timed_out: AtomicBool,
    /// Backstop only: set when strict certification latches a cycle it
    /// cannot recover from by retracting the feeding transaction (which
    /// should be impossible — every edge a feed adds touches the feeder).
    /// Workers treat it like an expired deadline and drain.
    pub halted: AtomicBool,
}

/// The MVCC side of a run with snapshot reads enabled: the versioned
/// store writers install into at grant time, the commit pipeline that
/// orders status-table flips into serialization order, and the
/// visibility rule snapshot reads apply ([`VisibilityRule::Broken`] only
/// in the scripted negative control).
pub(crate) struct MvccState {
    pub store: MvccStore,
    pub pipeline: CommitPipeline,
    pub rule: VisibilityRule,
}

impl MvccState {
    /// A fresh store + pipeline applying `rule`.
    pub fn new(rule: VisibilityRule) -> Self {
        MvccState {
            store: MvccStore::new(),
            pipeline: CommitPipeline::new(),
            rule,
        }
    }
}

/// The shared front-end the worker threads drive.
pub(crate) struct LockService {
    engine: RwLock<Box<dyn PolicyEngine>>,
    stripes: Vec<Stripe>,
    waits_for: WaitGraph,
    /// The per-entity atomic lock-word table, when the run's policy
    /// qualifies for the sharded grant fast path
    /// ([`slp_policies::GrantScope::PerEntity`] and the knob is on). When
    /// present, the words — not the engine's lock table — are the grant
    /// authority for covered entities: engine-path transactions acquire
    /// the word *before* asking the engine, so a fast-path CAS and a
    /// slow-path engine grant can never both win the same entity.
    fast: Option<LockWords>,
    seq: AtomicU64,
    /// Write-ahead log, when the run is durable. Appends happen *after*
    /// the engine lock is dropped (same position as the wake pass) so the
    /// fsync cost never sits on the serialization point; stamps — taken
    /// inside the lock — arbitrate the cross-worker byte order on replay.
    wal: Option<Arc<Wal>>,
    /// Online serialization-graph certifier, when the run certifies.
    /// Fed *after* the engine lock is dropped (same position as the wake
    /// pass): the stamps taken inside the lock already fix the edge
    /// directions, so the certifier tolerates out-of-order arrival and
    /// its mutex never sits on the serialization point.
    certifier: Option<CertChannel>,
    strict_certify: bool,
    /// Versioned store + commit pipeline when the run serves snapshot
    /// reads ([`crate::RuntimeConfig::snapshot_reads`]), else `None` and
    /// the MVCC paths cost nothing.
    mvcc: Option<MvccState>,
    /// The first cycle strict-mode certification caught and recovered
    /// from by retraction — kept for the report (the certifier's own
    /// latch is cleared by the recovery).
    first_violation: Mutex<Option<CertViolation>>,
    pub counters: Counters,
}

/// A batch parked in the spill lane, with the transaction to seal after
/// feeding it (and whether it aborted) when the attempt ended.
enum SpilledBatch {
    /// A stamped step batch (locked accesses).
    Steps(Vec<(u64, ScheduledStep)>, Option<(TxId, bool)>),
    /// A snapshot-read batch with explicit pivots; the reader seals
    /// (committed) after feeding.
    Reads(Vec<VersionedRead>, TxId),
}

/// Feeds one batch — spilled or fresh — to the certifier.
fn feed(cert: &mut IncrementalCertifier, batch: SpilledBatch) {
    match batch {
        SpilledBatch::Steps(steps, seal) => {
            cert.observe_trace(&steps);
            if let Some((tx, aborted)) = seal {
                cert.seal_with(tx, aborted);
            }
        }
        SpilledBatch::Reads(reads, tx) => {
            cert.observe_snapshot_reads(&reads);
            cert.seal_with(tx, false);
        }
    }
}

/// The certifier and its overflow lane. Feeding never blocks on the
/// graph: a worker that loses the `try_lock` race copies its batch into
/// `spill` (a push under a lock held for nanoseconds) and moves on; the
/// graph holder drains the spill before releasing, and
/// [`LockService::into_parts`] drains whatever the last holder missed.
/// Edges are ordered by stamps, not arrival, so the deferred feed never
/// changes the verdict.
struct CertChannel {
    graph: Mutex<IncrementalCertifier>,
    spill: Mutex<Vec<SpilledBatch>>,
    /// Number of batches sitting in `spill`; lets the drain loop skip the
    /// spill mutex entirely on the (overwhelmingly common) empty case.
    spilled: AtomicUsize,
}

impl LockService {
    /// `stripes` is clamped to 1..=64 (the wake path dedupes released
    /// stripes in a fixed bitmap). `wal`, when present, receives every
    /// recorded step batch and commit. `certify` builds the online
    /// certifier ([`CertifyMode::Off`] costs nothing on the hot path).
    /// `fast`, when present, activates the sharded grant fast path (the
    /// runner builds the word table only for
    /// [`slp_policies::GrantScope::PerEntity`] engines).
    pub fn new(
        engine: Box<dyn PolicyEngine>,
        stripes: usize,
        wal: Option<Arc<Wal>>,
        certify: CertifyMode,
        mvcc: Option<MvccState>,
        fast: Option<LockWords>,
    ) -> Self {
        let stripes = stripes.clamp(1, 64);
        LockService {
            engine: RwLock::new(engine),
            stripes: (0..stripes)
                .map(|_| Stripe {
                    gen: Mutex::new(0),
                    cv: Condvar::new(),
                })
                .collect(),
            waits_for: WaitGraph::new(stripes),
            fast,
            seq: AtomicU64::new(0),
            wal,
            certifier: (certify != CertifyMode::Off).then(|| CertChannel {
                graph: Mutex::new(IncrementalCertifier::new()),
                spill: Mutex::new(Vec::new()),
                spilled: AtomicUsize::new(0),
            }),
            strict_certify: certify == CertifyMode::Strict,
            mvcc,
            first_violation: Mutex::new(None),
            counters: Counters::default(),
        }
    }

    /// Whether this run serves read-only jobs from MVCC snapshots.
    pub fn snapshot_reads_enabled(&self) -> bool {
        self.mvcc.is_some()
    }

    /// The first cycle strict-mode certification caught (and recovered
    /// from by retracting the victim) — the certifier's own latch is
    /// cleared by the recovery, so the report reads it from here.
    pub fn recovered_violation(&self) -> Option<CertViolation> {
        self.first_violation
            .lock()
            .expect("violation latch poisoned")
            .clone()
    }

    /// Recovers the engine and the certifier after the run (all workers
    /// joined).
    pub fn into_parts(self) -> (Box<dyn PolicyEngine>, Option<IncrementalCertifier>) {
        (
            self.engine.into_inner().expect("engine lock poisoned"),
            self.certifier.map(|ch| {
                let mut cert = ch.graph.into_inner().expect("certifier lock poisoned");
                // Batches spilled after the last holder's drain pass.
                for batch in ch.spill.into_inner().expect("spill lock poisoned") {
                    feed(&mut cert, batch);
                }
                cert
            }),
        )
    }

    fn stripe(&self, e: EntityId) -> &Stripe {
        &self.stripes[e.0 as usize % self.stripes.len()]
    }

    /// Parks until the entity's stripe generation moves past `seen` or the
    /// timeout elapses (spurious wakeups and timeouts are safe — callers
    /// re-request in a loop).
    pub fn park(&self, e: EntityId, seen: u64, timeout: Duration) {
        let stripe = self.stripe(e);
        let mut gen = stripe.gen.lock().expect("stripe lock");
        if *gen != seen {
            // A release already moved the generation: fall through
            // without blocking (not a park, not a timeout).
            return;
        }
        self.counters.parks.fetch_add(1, Ordering::Relaxed);
        while *gen == seen {
            let (g, res) = stripe
                .cv
                .wait_timeout(gen, timeout)
                .expect("stripe lock poisoned");
            gen = g;
            if res.timed_out() {
                // The backstop fired instead of a wakeup — but only a
                // timeout with the generation still unmoved is evidence
                // of a lost wakeup. `wait_timeout` reports timed-out
                // whenever the deadline passed, even if a release bumped
                // the generation while we waited to reacquire the stripe
                // lock; counting that race would flake the stress
                // matrix's zero-timeouts assertion.
                if *gen == seen {
                    self.counters.park_timeouts.fetch_add(1, Ordering::Relaxed);
                }
                break;
            }
        }
    }

    /// Bumps the stripe generation of every entity released in
    /// `trace[from..]` — the steps the current call recorded — and wakes
    /// their parked workers. The one wake rule, shared by the grant,
    /// finish, and abort paths: callers snapshot `trace.len()` before
    /// taking the engine lock and call this after dropping it, so woken
    /// workers contend on the engine, not on us.
    fn wake_recorded(&self, trace: &[(u64, ScheduledStep)], from: usize) {
        // Dedupe stripes per batch: one bump + notify per stripe. The
        // bound is load-bearing in release builds — indexing `bumped`
        // past it would skip wakes (a lost-wakeup bug), not just panic.
        let mut bumped = [false; 64];
        assert!(self.stripes.len() <= 64, "stripe count exceeds wake bitmap");
        for (_, s) in &trace[from..] {
            if !s.step.is_unlock() {
                continue;
            }
            let idx = s.step.entity.0 as usize % self.stripes.len();
            if bumped[idx] {
                continue;
            }
            bumped[idx] = true;
            let stripe = &self.stripes[idx];
            *stripe.gen.lock().expect("stripe lock") += 1;
            stripe.cv.notify_all();
        }
    }

    /// Appends the steps this call recorded (`trace[from..]`) to the
    /// write-ahead log, if the run is durable. Called after the engine
    /// lock is dropped. A failed log is skipped silently here — the run
    /// completes in memory and the failure surfaces in the report's
    /// [`slp_durability::WalSummary`].
    fn log_recorded(&self, trace: &[(u64, ScheduledStep)], from: usize) {
        if let Some(wal) = &self.wal {
            if !wal.is_failed() {
                let _ = wal.append_steps(&trace[from..]);
            }
        }
    }

    /// Appends `tx`'s commit record: it is durably committed once the
    /// contiguous-stamp watermark covers its last step. The worker's own
    /// trace holds every step of its transaction, so the requirement is
    /// one past the newest stamp attributed to `tx` (0 if it never took a
    /// step — such a commit is durable from the start).
    fn log_commit(&self, tx: TxId, trace: &[(u64, ScheduledStep)]) {
        if let Some(wal) = &self.wal {
            if !wal.is_failed() {
                let required = trace
                    .iter()
                    .rev()
                    .find(|(_, s)| s.tx == tx)
                    .map_or(0, |&(stamp, _)| stamp + 1);
                let _ = wal.append_commit(tx, required);
            }
        }
    }

    /// Feeds an attempt's recorded steps (`trace[from..]`) to the online
    /// certifier, sealing `seal` afterwards when the attempt retired its
    /// transaction (commit or abort — either way it takes no further
    /// steps, which is what makes it truncatable). Called from
    /// [`finish`](LockService::finish) / [`abort`](LockService::abort)
    /// after the engine lock is dropped, once per attempt rather than per
    /// engine section — the certifier orders edges by stamp, so feeding
    /// late (and in arbitrary order across workers) never changes the
    /// verdict, and one graph acquisition per attempt keeps the certifier
    /// off the grant path. The acquisition is a `try_lock`: a worker that
    /// loses the race spills a copy of its batch instead of blocking (see
    /// [`CertChannel`]), so certification never convoys the workers.
    /// Monitor mode only — strict mode certifies through
    /// [`certify_strict`](LockService::certify_strict).
    fn certify_recorded(
        &self,
        trace: &[(u64, ScheduledStep)],
        from: usize,
        seal: Option<(TxId, bool)>,
    ) {
        let Some(ch) = &self.certifier else {
            return;
        };
        if trace.len() == from && seal.is_none() {
            return;
        }
        let mut cert = match ch.graph.try_lock() {
            Ok(cert) => cert,
            Err(std::sync::TryLockError::WouldBlock) => {
                self.spill(ch, SpilledBatch::Steps(trace[from..].to_vec(), seal));
                return;
            }
            Err(std::sync::TryLockError::Poisoned(_)) => panic!("certifier lock poisoned"),
        };
        feed(&mut cert, SpilledBatch::Steps(trace[from..].to_vec(), seal));
        self.drain_spill(ch, &mut cert);
    }

    /// Feeds a read-only job's snapshot reads (monitor mode): same
    /// try-lock-or-spill discipline as [`certify_recorded`], with the
    /// explicit-pivot feed path — workers publish out of order, so the
    /// certifier cannot reconstruct observed versions from arrival state.
    fn certify_reads(&self, reads: Vec<VersionedRead>, tx: TxId) {
        let Some(ch) = &self.certifier else {
            return;
        };
        if reads.is_empty() {
            return;
        }
        let mut cert = match ch.graph.try_lock() {
            Ok(cert) => cert,
            Err(std::sync::TryLockError::WouldBlock) => {
                self.spill(ch, SpilledBatch::Reads(reads, tx));
                return;
            }
            Err(std::sync::TryLockError::Poisoned(_)) => panic!("certifier lock poisoned"),
        };
        feed(&mut cert, SpilledBatch::Reads(reads, tx));
        self.drain_spill(ch, &mut cert);
    }

    fn spill(&self, ch: &CertChannel, batch: SpilledBatch) {
        let mut spill = ch.spill.lock().expect("spill lock poisoned");
        spill.push(batch);
        // Updated under the spill lock, so the counter always agrees
        // with the contents.
        ch.spilled.store(spill.len(), Ordering::Release);
    }

    /// Drains batches spilled while the caller held (or raced for) the
    /// graph. Looping until the spill is observed empty shrinks the
    /// window a concurrent spill can land in; anything that still slips
    /// through is drained by the next holder or by `into_parts`.
    fn drain_spill(&self, ch: &CertChannel, cert: &mut IncrementalCertifier) {
        while ch.spilled.load(Ordering::Acquire) != 0 {
            let drained = {
                let mut spill = ch.spill.lock().expect("spill lock poisoned");
                ch.spilled.store(0, Ordering::Release);
                std::mem::take(&mut *spill)
            };
            for batch in drained {
                feed(cert, batch);
            }
        }
    }

    /// Strict-mode certification of one finished attempt: feed + seal
    /// under a **blocking** graph acquisition (strict mode never spills —
    /// the latch-and-recover step must be atomic with the feed), and
    /// *recover* from a latched violation instead of halting. Every edge
    /// a feed inserts touches the feeding transaction (its own steps, or
    /// parked edges flushed at its seal), so a cycle latched here always
    /// runs through `tx`: retracting `tx` from the graph breaks the
    /// cycle, clears the latch, and the run continues — the committed
    /// remainder stays certified-acyclic. Returns `true` when a
    /// *committing* `tx` was certification-aborted (the caller must not
    /// make it durable or visible); for an already-aborting `tx` the
    /// retraction is just cleanup and the return is `false`.
    fn certify_strict(
        &self,
        tx: TxId,
        trace: &[(u64, ScheduledStep)],
        from: usize,
        reads: Option<&[VersionedRead]>,
        aborted: bool,
    ) -> bool {
        let Some(ch) = &self.certifier else {
            return false;
        };
        let mut cert = ch.graph.lock().expect("certifier lock poisoned");
        match reads {
            Some(r) => cert.observe_snapshot_reads(r),
            None => cert.observe_trace(&trace[from..]),
        }
        if cert.violation().is_none() {
            cert.seal_with(tx, aborted);
        }
        let Some(v) = cert.violation().cloned() else {
            return false;
        };
        if v.cycle.contains(&tx) {
            // Latch the autopsy before recovering: the report must still
            // show what was caught even though the run continues.
            let mut first = self
                .first_violation
                .lock()
                .expect("violation latch poisoned");
            if first.is_none() {
                *first = Some(v);
            }
            drop(first);
            cert.retract(tx);
            !aborted
        } else {
            // A cycle not through the feeder cannot be recovered here; it
            // should be impossible (see above). Halt rather than
            // mis-certify.
            self.counters.halted.store(true, Ordering::Relaxed);
            false
        }
    }

    /// Stamps `steps` for `tx` into `trace` with consecutive global
    /// sequence numbers. Must be called while holding the serialization
    /// context that granted the steps — the engine write lock, or (fast
    /// path) the touched entities' lock words. Either way the stamps for
    /// one entity are fetched strictly between that entity's acquire and
    /// release, so the merged trace orders conflicting steps exactly as
    /// the grants serialized them (the stamp-ordering contract; see the
    /// module docs). With MVCC enabled, the same held section also
    /// installs versions (writes/inserts/deletes) into the store and
    /// registers lock grants with the commit pipeline — so version
    /// install order matches the serialization order the stamps record.
    fn record(&self, tx: TxId, steps: Vec<Step>, trace: &mut Vec<(u64, ScheduledStep)>) {
        let base = self.seq.fetch_add(steps.len() as u64, Ordering::Relaxed);
        for (i, s) in steps.into_iter().enumerate() {
            let stamp = base + i as u64;
            if let Some(m) = &self.mvcc {
                match s.op {
                    Operation::Lock(mode) => {
                        m.pipeline
                            .note_lock(tx, s.entity, mode == LockMode::Exclusive)
                    }
                    Operation::Data(DataOp::Write) | Operation::Data(DataOp::Insert) => {
                        m.store.install(s.entity, tx, stamp)
                    }
                    Operation::Data(DataOp::Delete) => m.store.delete(s.entity, tx, stamp),
                    _ => {}
                }
            }
            trace.push((stamp, ScheduledStep::new(tx, s)));
        }
    }

    /// Frees every lock word whose release `trace[from..]` just recorded
    /// (no-op when the fast path is inactive). Must run *before*
    /// [`wake_recorded`](LockService::wake_recorded) for the same range:
    /// a woken waiter re-reads the word, so the word must be free by the
    /// time the generation bumps.
    fn release_recorded_words(&self, tx: TxId, trace: &[(u64, ScheduledStep)], from: usize) {
        let Some(words) = &self.fast else {
            return;
        };
        for (_, s) in &trace[from..] {
            if let Operation::Unlock(mode) = s.step.op {
                words.release(s.step.entity, tx, mode == LockMode::Shared);
            }
        }
    }

    /// Releases a lock word acquired by [`sync_word_acquire`] whose
    /// engine request was then refused — no unlock step will ever be
    /// recorded for it, so the word (and any waiter parked on it) must be
    /// handled here. Safe under the engine write lock (stripe-lock
    /// holders never take the engine lock).
    fn drop_sync_word(&self, e: EntityId, tx: TxId) {
        if let Some(words) = &self.fast {
            if words.release(e, tx, false) {
                let stripe = self.stripe(e);
                *stripe.gen.lock().expect("stripe lock") += 1;
                stripe.cv.notify_all();
            }
        }
    }

    /// Acquires `e`'s lock word for engine-path transaction `tx` (always
    /// exclusive — the engine's lock manager grants exclusively). In a
    /// fast-active run the words are the grant authority, so the word
    /// comes *before* the engine's own table: `Ok(true)` means freshly
    /// acquired, `Ok(false)` means `tx` already held it (a relock — the
    /// engine rules on it, and the word must NOT be released on that
    /// verdict), `Err` carries the conflicting holder and the stripe
    /// generation to park on, read with the same recheck discipline as
    /// the fast path ([`fast_lock`](LockService::fast_lock)).
    fn sync_word_acquire(&self, e: EntityId, tx: TxId) -> Result<bool, (TxId, u64)> {
        let words = self.fast.as_ref().expect("fast path inactive");
        loop {
            match words.try_acquire(e, tx, false) {
                Ok(()) => return Ok(true),
                Err(h) if h == tx => return Ok(false),
                Err(_) => {
                    let gen = *self.stripe(e).gen.lock().expect("stripe lock");
                    // Recheck after the generation read: a release that
                    // freed the word before the read would otherwise be
                    // parked past (its bump precedes the read).
                    match words.conflicting_holder(e, false) {
                        None => continue,
                        Some(h) if h == tx => return Ok(false),
                        Some(h) => return Err((h, gen)),
                    }
                }
            }
        }
    }

    /// Plans `job` under the engine's *read* lock (planners only read).
    pub fn plan(
        &self,
        planner: &mut dyn slp_sim::ActionPlanner,
        job: &slp_sim::Job,
    ) -> Result<Option<Vec<PolicyAction>>, PolicyViolation> {
        let engine = self.engine.read().expect("engine lock poisoned");
        planner.plan(&**engine, job)
    }

    /// Begins `tx`; returns the engine's precomputed plan if any. With
    /// MVCC enabled the transaction also registers as a writer with the
    /// commit pipeline (its status-table flip orders behind lock-order
    /// predecessors).
    pub fn begin(
        &self,
        tx: TxId,
        intent: &AccessIntent,
    ) -> Result<Option<Vec<PolicyAction>>, PolicyViolation> {
        let mut engine = self.engine.write().expect("engine lock poisoned");
        let plan = engine.begin(tx, intent)?;
        if let Some(m) = &self.mvcc {
            m.pipeline.begin_writer(tx);
        }
        Ok(plan)
    }

    /// Requests up to `max` consecutive actions of `plan` for `tx` under
    /// ONE engine-lock acquisition, recording granted steps into `trace`.
    /// Stops early at the first conflict or violation. Batching amortizes
    /// the serialization point; `max == 1` maximizes interleaving (the
    /// conformance suites run there).
    pub fn request_batch(
        &self,
        tx: TxId,
        plan: &[PolicyAction],
        max: usize,
        trace: &mut Vec<(u64, ScheduledStep)>,
    ) -> BatchOutcome {
        let mut granted = 0usize;
        let from = trace.len();
        let outcome = {
            let mut engine = self.engine.write().expect("engine lock poisoned");
            loop {
                if granted >= max.max(1) || granted >= plan.len() {
                    break BatchOutcome::Granted { granted };
                }
                let action = plan[granted];
                // In a fast-active run the lock words are the grant
                // authority even here: acquire the word before asking the
                // engine, so an engine grant can never race a fast-path
                // CAS on the same entity.
                let mut fresh_word = None;
                if let PolicyAction::Lock(e) = action {
                    if self.fast.as_ref().is_some_and(|w| w.covers(e)) {
                        match self.sync_word_acquire(e, tx) {
                            Ok(fresh) => fresh_word = fresh.then_some(e),
                            Err((holder, gen)) => {
                                break BatchOutcome::Conflict {
                                    granted,
                                    entity: e,
                                    holder,
                                    gen,
                                };
                            }
                        }
                    }
                }
                match engine.request(tx, action) {
                    PolicyResponse::Granted(steps) => {
                        self.record(tx, steps, trace);
                        granted += 1;
                    }
                    PolicyResponse::Conflict { entity, holder } => {
                        // Unreachable for a word-covered entity (holding
                        // the word means no engine-path transaction holds
                        // the engine entry) — but if the engine disagrees,
                        // its verdict stands and the word goes back.
                        if let Some(e) = fresh_word {
                            self.drop_sync_word(e, tx);
                        }
                        // Nested stripe-lock acquisition under the engine
                        // write lock is deadlock-free: stripe-lock holders
                        // never take the engine lock.
                        let gen = *self.stripe(entity).gen.lock().expect("stripe lock");
                        break BatchOutcome::Conflict {
                            granted,
                            entity,
                            holder,
                            gen,
                        };
                    }
                    PolicyResponse::Violation(violation) => {
                        // A freshly taken word whose engine request was
                        // refused will never see an unlock step: release
                        // it here. (A relock kept `fresh_word` empty — the
                        // original grant's word stays held to the end.)
                        if let Some(e) = fresh_word {
                            self.drop_sync_word(e, tx);
                        }
                        break BatchOutcome::Violation { violation };
                    }
                }
            }
        };
        if granted > 0 {
            self.counters
                .grants
                .fetch_add(granted as u64, Ordering::Relaxed);
            self.counters
                .slow_path_grants
                .fetch_add(granted as u64, Ordering::Relaxed);
        }
        self.release_recorded_words(tx, trace, from);
        self.wake_recorded(trace, from);
        self.log_recorded(trace, from);
        outcome
    }

    /// Finishes `tx`, recording its final unlocks. `cert_from` is the
    /// trace index where the attempt began: everything the attempt
    /// recorded (`trace[cert_from..]`) is fed to the online certifier in
    /// one batch. Returns `Ok(true)` on commit; `Ok(false)` when strict
    /// certification recovered by aborting `tx` instead (no commit
    /// record, no visibility flip — the caller retries the job as a
    /// fresh transaction).
    pub fn finish(
        &self,
        tx: TxId,
        trace: &mut Vec<(u64, ScheduledStep)>,
        cert_from: usize,
    ) -> Result<bool, PolicyViolation> {
        let from = trace.len();
        {
            let mut engine = self.engine.write().expect("engine lock poisoned");
            let steps = engine.finish(tx)?;
            self.record(tx, steps, trace);
        }
        self.release_recorded_words(tx, trace, from);
        self.wake_recorded(trace, from);
        self.log_recorded(trace, from);
        if self.strict_certify && self.certify_strict(tx, trace, cert_from, None, false) {
            // Certification abort: the transaction's recorded steps stay
            // in the trace and the log (like any aborted transaction's),
            // but it gets no commit record and its versions never become
            // visible.
            if let Some(m) = &self.mvcc {
                m.pipeline.abort(tx);
            }
            return Ok(false);
        }
        self.log_commit(tx, trace);
        if let Some(m) = &self.mvcc {
            // Visibility flip strictly after the commit record: a
            // snapshot never observes a writer the log could lose.
            m.pipeline.commit(tx);
        }
        if !self.strict_certify {
            self.certify_recorded(trace, cert_from, Some((tx, false)));
        }
        Ok(true)
    }

    /// Aborts `tx`, recording the unlocks it still held. `cert_from` as
    /// in [`finish`](LockService::finish).
    pub fn abort(&self, tx: TxId, trace: &mut Vec<(u64, ScheduledStep)>, cert_from: usize) {
        let from = trace.len();
        {
            let mut engine = self.engine.write().expect("engine lock poisoned");
            let steps = engine.abort(tx);
            self.record(tx, steps, trace);
        }
        self.release_recorded_words(tx, trace, from);
        self.wake_recorded(trace, from);
        if let Some(m) = &self.mvcc {
            // Aborts resolve immediately (nothing becomes visible) and
            // release any commit-pipeline dependents waiting on `tx`.
            m.pipeline.abort(tx);
        }
        // Aborted transactions log their unlock steps (the trace replica
        // must stay lossless) but never a commit record. The certifier
        // seals them as *aborted*: they take no further steps (all
        // truncation needs) and parked snapshot-read edges against their
        // versions dissolve instead of materializing.
        self.log_recorded(trace, from);
        if self.strict_certify {
            let _ = self.certify_strict(tx, trace, cert_from, None, true);
        } else {
            self.certify_recorded(trace, cert_from, Some((tx, true)));
        }
    }

    /// Serves a read-only job from an MVCC snapshot: captures a read
    /// view under the commit-pipeline gate (claiming a dense block of
    /// trace stamps for the reads), scans version chains for the visible
    /// version of each target, and records the observations as stamped
    /// snapshot-read steps — **without ever touching the policy engine,
    /// the lock table, or a parking stripe**. Returns `false` when strict
    /// certification recovered by retracting the reader (the caller
    /// retries with a fresh snapshot).
    pub fn snapshot_read(
        &self,
        tx: TxId,
        targets: &[EntityId],
        trace: &mut Vec<(u64, ScheduledStep)>,
    ) -> bool {
        let m = self
            .mvcc
            .as_ref()
            .expect("snapshot read without an MVCC store");
        let from = trace.len();
        let snap = m.pipeline.capture(targets.len(), |n| {
            self.seq.fetch_add(n as u64, Ordering::Relaxed)
        });
        let tst = m.pipeline.status_table();
        let mut reads = Vec::with_capacity(targets.len());
        for (i, &entity) in targets.iter().enumerate() {
            let obs = m.store.read(entity, &snap, tst, m.rule);
            let stamp = snap.base_stamp + i as u64;
            trace.push((
                stamp,
                ScheduledStep::snapshot_read(tx, entity, obs.observed),
            ));
            reads.push(VersionedRead {
                stamp,
                tx,
                entity,
                observed: obs.observed,
                pivot: obs.pivot,
            });
        }
        self.counters
            .snapshot_reads
            .fetch_add(targets.len() as u64, Ordering::Relaxed);
        // Reader steps are logged (the recovered trace must stay dense)
        // but a read-only transaction needs no commit record.
        self.log_recorded(trace, from);
        if self.strict_certify {
            !self.certify_strict(tx, trace, from, Some(&reads), false)
        } else {
            self.certify_reads(reads, tx);
            true
        }
    }

    /// Whether this run has the sharded grant fast path active.
    pub fn fast_active(&self) -> bool {
        self.fast.is_some()
    }

    /// Whether `e` has a lock word (fast-path plan eligibility).
    pub fn fast_covers(&self, e: EntityId) -> bool {
        self.fast.as_ref().is_some_and(|w| w.covers(e))
    }

    /// Whether every lock word is free (end-of-run quiescence — vacuously
    /// true with the fast path off).
    pub fn fast_quiescent(&self) -> bool {
        self.fast.as_ref().is_none_or(LockWords::quiescent)
    }

    /// Begins a fast-path transaction: no engine interaction at all (the
    /// engine never learns fast-path transactions exist — the lock words
    /// are the authority for everything they touch), but MVCC writers
    /// still register with the commit pipeline before their first
    /// `note_lock`.
    pub fn fast_begin(&self, tx: TxId) {
        if let Some(m) = &self.mvcc {
            m.pipeline.begin_writer(tx);
        }
    }

    /// One fast-path lock attempt on `e` for `tx`: optimistic CAS on the
    /// entity's word; on success the lock step is stamped *while the word
    /// is held* (the stamp-ordering contract — see the module docs) and
    /// logged. On conflict the stripe generation is read under the stripe
    /// lock and the word *rechecked*: a releaser frees the word before
    /// bumping the generation, so a conflict re-observed after the
    /// generation read cannot have its wakeup already behind us — parking
    /// on `gen` is safe exactly as on the engine path.
    pub fn fast_lock(
        &self,
        tx: TxId,
        e: EntityId,
        shared: bool,
        trace: &mut Vec<(u64, ScheduledStep)>,
    ) -> FastLockOutcome {
        let words = self.fast.as_ref().expect("fast path inactive");
        loop {
            match words.try_acquire(e, tx, shared) {
                Ok(()) => {
                    let from = trace.len();
                    let mode = if shared {
                        LockMode::Shared
                    } else {
                        LockMode::Exclusive
                    };
                    self.record(tx, vec![Step::lock(mode, e)], trace);
                    self.counters.grants.fetch_add(1, Ordering::Relaxed);
                    self.counters
                        .fast_path_grants
                        .fetch_add(1, Ordering::Relaxed);
                    self.log_recorded(trace, from);
                    return FastLockOutcome::Granted;
                }
                Err(_) => {
                    let gen = *self.stripe(e).gen.lock().expect("stripe lock");
                    match words.conflicting_holder(e, shared) {
                        // Freed between the CAS and the recheck: take
                        // another optimistic swing instead of parking.
                        None => continue,
                        Some(holder) => return FastLockOutcome::Conflict { holder, gen },
                    }
                }
            }
        }
    }

    /// Records a fast-path data access on an entity whose word `tx`
    /// holds: the engine would emit `[read, write]` under an exclusive
    /// lock and `[read]` under a shared one, and the fast path emits the
    /// identical steps so fast-on and fast-off traces stay step-for-step
    /// comparable.
    pub fn fast_data(
        &self,
        tx: TxId,
        e: EntityId,
        shared: bool,
        trace: &mut Vec<(u64, ScheduledStep)>,
    ) {
        let from = trace.len();
        let steps = if shared {
            vec![Step::read(e)]
        } else {
            vec![Step::read(e), Step::write(e)]
        };
        self.record(tx, steps, trace);
        self.counters.grants.fetch_add(1, Ordering::Relaxed);
        self.counters
            .fast_path_grants
            .fetch_add(1, Ordering::Relaxed);
        self.log_recorded(trace, from);
    }

    /// Commits a fast-path transaction: records its unlocks in ascending
    /// entity order (matching the engine's finish emission), frees the
    /// words *after* stamping (release stamps precede the release CAS, so
    /// the next holder's acquire stamp lands strictly later), wakes and
    /// logs, then runs the same certification/durability/visibility tail
    /// as [`finish`](LockService::finish). `held` maps each held entity
    /// to whether the hold is shared. Returns `false` when strict
    /// certification recovered by aborting `tx`.
    pub fn fast_finish(
        &self,
        tx: TxId,
        held: &std::collections::BTreeMap<EntityId, bool>,
        trace: &mut Vec<(u64, ScheduledStep)>,
        cert_from: usize,
    ) -> bool {
        let from = trace.len();
        let steps = held
            .iter()
            .map(|(&e, &shared)| {
                let mode = if shared {
                    LockMode::Shared
                } else {
                    LockMode::Exclusive
                };
                Step::unlock(mode, e)
            })
            .collect();
        self.record(tx, steps, trace);
        self.release_recorded_words(tx, trace, from);
        self.wake_recorded(trace, from);
        self.log_recorded(trace, from);
        if self.strict_certify && self.certify_strict(tx, trace, cert_from, None, false) {
            if let Some(m) = &self.mvcc {
                m.pipeline.abort(tx);
            }
            return false;
        }
        self.log_commit(tx, trace);
        if let Some(m) = &self.mvcc {
            m.pipeline.commit(tx);
        }
        if !self.strict_certify {
            self.certify_recorded(trace, cert_from, Some((tx, false)));
        }
        true
    }

    /// Aborts a fast-path transaction: records the unlocks it still
    /// held, frees the words, wakes, and runs the same pipeline/log/
    /// certifier tail as [`abort`](LockService::abort).
    pub fn fast_abort(
        &self,
        tx: TxId,
        held: &std::collections::BTreeMap<EntityId, bool>,
        trace: &mut Vec<(u64, ScheduledStep)>,
        cert_from: usize,
    ) {
        let from = trace.len();
        let steps = held
            .iter()
            .map(|(&e, &shared)| {
                let mode = if shared {
                    LockMode::Shared
                } else {
                    LockMode::Exclusive
                };
                Step::unlock(mode, e)
            })
            .collect();
        self.record(tx, steps, trace);
        self.release_recorded_words(tx, trace, from);
        self.wake_recorded(trace, from);
        if let Some(m) = &self.mvcc {
            m.pipeline.abort(tx);
        }
        self.log_recorded(trace, from);
        if self.strict_certify {
            let _ = self.certify_strict(tx, trace, cert_from, None, true);
        } else {
            self.certify_recorded(trace, cert_from, Some((tx, true)));
        }
    }

    /// Records that `tx` waits for `holder` and walks the waits-for chain:
    /// `true` iff the chain leads back to `tx` (a deadlock this request
    /// closed — the requester aborts, as in the simulator).
    ///
    /// Detection is complete as long as every *parked* waiter's edge
    /// points at the entity's current holder: insert + walk are atomic
    /// under the map's mutex, so whichever transaction inserts the edge
    /// that closes a cycle sees the whole cycle and aborts. The runtime
    /// upholds that invariant by re-running `note_wait` with the fresh
    /// holder at every conflict observation, before any park (the holder
    /// can change across a re-request). The converse discipline matters
    /// just as much: a worker retracts its edge
    /// ([`clear_wait`](LockService::clear_wait)) before re-requesting and
    /// before aborting, so walkers never chase a transaction that is no
    /// longer blocked — a stale edge through an awake transaction
    /// manufactures phantom cycles, and under contention the needless
    /// victims feed an abort storm.
    ///
    /// The graph is sharded by waiter ([`WaitGraph`]): the publish is
    /// atomic per shard and the walk crosses shards lock by lock, so the
    /// edge that closes a persistent cycle is still seen by whichever
    /// member publishes last (every member re-publishes and re-walks at
    /// each park timeout), and a detected cycle is confirmed by a second
    /// walk before a victim is chosen.
    pub fn note_wait(&self, tx: TxId, holder: TxId) -> bool {
        self.waits_for.note(tx, holder)
    }

    /// Clears `tx`'s waits-for edge (its blocked request was granted, or
    /// it aborted).
    pub fn clear_wait(&self, tx: TxId) {
        self.waits_for.clear(tx);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use slp_policies::{PolicyConfig, PolicyKind, PolicyRegistry};

    fn one_stripe_service() -> LockService {
        let engine = PolicyRegistry::new()
            .build(PolicyKind::TwoPhase, &PolicyConfig::flat(vec![EntityId(0)]))
            .expect("2PL builds");
        LockService::new(engine, 1, None, CertifyMode::Off, None, None)
    }

    /// Forces one instance of the race the fix targets: a parker whose
    /// timeout elapses while a generation bump waits on the stripe lock.
    /// The parks counter is bumped under the stripe lock just before the
    /// parker enters its wait, so spinning on it hands this thread the
    /// very next lock acquisition — strictly after the wait began. We
    /// then hold the lock past the parker's deadline and bump the
    /// generation before releasing: `wait_timeout` must reacquire the
    /// mutex before returning, so the parker observes `timed_out()` with
    /// the generation already moved — exactly a wakeup racing the
    /// timeout. (An implementation that reports the late notify as a
    /// wakeup instead re-checks the generation and exits without
    /// counting, so the zero assertion is safe either way.)
    fn race_timeout_against_wakeup(service: &LockService, timeout: Duration) {
        let seen = *service.stripes[0].gen.lock().expect("stripe lock");
        let parks_before = service.counters.parks.load(Ordering::Relaxed);
        std::thread::scope(|s| {
            let parker = s.spawn(|| service.park(EntityId(0), seen, timeout));
            while service.counters.parks.load(Ordering::Relaxed) == parks_before {
                std::thread::yield_now();
            }
            {
                let mut gen = service.stripes[0].gen.lock().expect("stripe lock");
                std::thread::sleep(timeout * 2); // outlive the parker's timeout
                *gen += 1;
            }
            service.stripes[0].cv.notify_all();
            parker.join().expect("parker panicked");
        });
    }

    /// Regression: a park timeout that races a wakeup must not be counted
    /// as lost-wakeup evidence (the counter used to bump on every
    /// timed-out `wait_timeout`, even with the generation already moved).
    #[test]
    fn park_timeout_racing_a_wakeup_is_not_counted() {
        let service = one_stripe_service();
        race_timeout_against_wakeup(&service, Duration::from_millis(40));
        assert_eq!(
            service.counters.park_timeouts.load(Ordering::Relaxed),
            0,
            "a timeout whose generation already advanced is a wakeup, not a lost one"
        );
    }

    /// The same race hammered on the 1-stripe service, park timeout
    /// shorter than the hold time on every iteration: the counter must
    /// stay exactly zero across all of them.
    #[test]
    fn park_timeout_hammer_stays_clean() {
        let service = one_stripe_service();
        for _ in 0..25 {
            race_timeout_against_wakeup(&service, Duration::from_millis(4));
        }
        assert_eq!(service.counters.park_timeouts.load(Ordering::Relaxed), 0);
        assert_eq!(service.counters.parks.load(Ordering::Relaxed), 25);
    }

    /// The genuine case still counts: a timeout with the generation
    /// unmoved is real lost-wakeup evidence and must not be suppressed.
    #[test]
    fn park_timeout_with_generation_unmoved_still_counts() {
        let service = one_stripe_service();
        let seen = *service.stripes[0].gen.lock().expect("stripe lock");
        service.park(EntityId(0), seen, Duration::from_millis(5));
        assert_eq!(service.counters.park_timeouts.load(Ordering::Relaxed), 1);
        assert_eq!(service.counters.parks.load(Ordering::Relaxed), 1);
    }
}
