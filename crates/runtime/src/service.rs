//! The lock service: one [`PolicyEngine`] serving many worker threads
//! through **one request primitive**.
//!
//! An attempt is opened after planning ([`LockService::attempt`]), every
//! action goes through [`LockService::request`], and the attempt ends in
//! [`LockService::finish`] or [`LockService::abort`]. Where the granted
//! *steps* come from is a property of the run, not of the attempt:
//!
//! * **an engine run** — a [`slp_policies::GrantScope::Global`] engine,
//!   or any run with [`crate::RuntimeConfig::grant_fast_path`] off: the
//!   engine rules on every action under its write lock and returns the
//!   steps. Every grant/refuse decision of a policy that reads global
//!   state (wakes, donations, the DDAG) mutates shared policy state, so
//!   those decisions serialize there;
//! * **a word run** — a [`slp_policies::GrantScope::PerEntity`] engine
//!   with the fast path on (see [`crate::fastpath`]): a plain lock/access
//!   plan is decided by the entities' own atomic words alone, and the
//!   service synthesizes the steps the engine would have emitted. Every
//!   word is taken exclusively, as every engine lock is, so a job locks
//!   the same way in both kinds of run, read-only or not. A plan outside
//!   that shape is refused before anything is taken.
//!
//! A word run never takes the engine's write lock: its words are the only
//! lock table it has. An engine run never touches a word: the engine's
//! lock table is the only one it has. Everything around the decision is
//! shared by the two kinds of run, and sharded or lock-free:
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
//!   worker's condvar. A held lock *word* is first watched for about one
//!   holding time ([`WORD_POLLS`] loads), so on free cores a word
//!   conflict rarely reaches the futex at all;
//! * **trace recording** is per-worker: granted steps are stamped from one
//!   global atomic sequence counter *while the granting context is held*
//!   — the engine lock, or the touched entities' lock words — into the
//!   worker's own [`Recorder`], which holds exactly the running attempt's
//!   steps (the slice the wake pass, the log and the certifier each
//!   need) and is sealed into the worker's chunked run when the attempt
//!   ends. The stamp-ordering contract: an acquire's stamp is fetched
//!   after the acquire, a release's before the release, data stamps in
//!   between — so for every entity the counter's monotonicity orders
//!   conflicting steps exactly as the grants serialized, whichever
//!   authority granted them. One thread draws a worker's stamps, so its
//!   run is strictly ascending, and the runs merged by
//!   [`slp_core::Schedule::from_sequenced_runs`] — linear, no sort, and
//!   its own proof that no stamp is missing or doubled — are a faithful
//!   schedule without any runtime coordination;
//! * **the tail** after every recorded batch is one routine
//!   ([`LockService::publish`]): free the words whose release was just
//!   recorded, then bump their stripes, waking their sleepers. It never
//!   touches the log. When the attempt retires ([`LockService::retire`])
//!   the tail goes on: certify, hand the attempt to the log, resolve the
//!   commit pipeline;
//! * **the log** is fed once per attempt, after the words are free
//!   ([`LockService::log`]): the attempt's steps and — only if it
//!   committed — its commit record go to the write-ahead log in one
//!   append, framed and checksummed into the worker's own buffer before
//!   the log's mutex is taken. The one other hand-over is just before a
//!   worker parks: the steps it has taken so far, so that a sleeping
//!   waiter never pins the log's watermark. A worker never waits for the
//!   log while another transaction waits for a word it holds, except in
//!   that pre-park call — and there every waiter on its words would sleep
//!   at least as long anyway;
//! * **accounting** is per-worker: every per-grant and per-attempt count
//!   is a plain integer in the worker's [`Tally`], summed after the join;
//!   the shared [`Counters`] hold only what another thread must read
//!   mid-run (the halt and timeout flags) and the park counts, which sit
//!   behind a futex wait anyway.
//!
//! Lost wakeups are impossible by construction: the stripe generation a
//! worker will park on is read *after* the conflict was observed and
//! before it is confirmed ([`Outcome::Conflict`]) — inside the engine
//! section for an engine conflict, between the failed CAS and the word
//! recheck for a word conflict — and the worker parks only if that
//! generation is still unchanged under the stripe lock. Any release that
//! could invalidate the conflict frees its word first and bumps the
//! generation second, under the stripe lock, so its bump strictly
//! follows the read. A release wakes only sleepers: a parker signs up in
//! the stripe's sleeper count under that same lock, after its generation
//! check and before its first wait, and a bump calls `notify_all` only
//! when the count is nonzero. A bump that saw no sleeper therefore came
//! before any later sign-up, and that parker's check sees the moved
//! generation and falls through — so the common release, with nobody
//! asleep, pays one mutex section and no futex wake. Deadlock detection
//! is complete because a waiter refreshes its waits-for edge to the
//! current holder before every park (see [`LockService::note_wait`]), so
//! with a generous timeout the park-timeout backstop never fires on a
//! healthy run — firings are counted ([`Counters::park_timeouts`]) and
//! surfaced in the report as lost-wakeup evidence.

use crate::certifier::{IncrementalCertifier, VersionedRead};
use crate::fastpath::LockWords;
use crate::runner::CertifyMode;
use crate::trace::{Stamped, TraceRun};
use slp_core::{DataOp, EntityId, LockMode, Operation, ScheduledStep, Step, TxId};
use slp_durability::Wal;
use slp_mvcc::{CommitPipeline, MvccStore, VisibilityRule};
use slp_policies::{
    AccessIntent, ActionPlanner, Job, PolicyAction, PolicyEngine, PolicyResponse, PolicyViolation,
    WaitsFor,
};
use std::sync::atomic::{AtomicBool, AtomicU64, AtomicUsize, Ordering};
use std::sync::{Arc, Condvar, Mutex, MutexGuard, RwLock, TryLockError};
use std::time::Duration;

/// Parking stripes. A constant rather than a knob — no caller ever set
/// it — and bounded by the width of the bitmap the wake path dedupes
/// released stripes in.
const STRIPES: usize = 16;
const _: () = assert!(STRIPES <= u64::BITS as usize);

/// Loads a requester spends watching a held lock word before it reads the
/// stripe generation and takes the park path
/// ([`LockService::acquire_word`]): a few microseconds, about what a
/// word run's transaction holds a word for.
const WORD_POLLS: u32 = 256;

/// How a strict feeder waits for the certifier graph
/// ([`CertChannel::wait_for_graph`]): this many `try_lock` polls — far
/// longer than a feed holds the graph while its window is healthy —
/// before it queues.
const CERT_POLL_BURST: u32 = 4096;
/// The certifier window (resident nodes) at every multiple of which a
/// strict feeder stands aside for the workers behind it
/// ([`LockService::certify_strict`]): several times the tens a healthy
/// run keeps resident, far below the thousands one descheduled worker
/// used to leave.
const CERT_WINDOW: usize = 128;
/// How long a strict feeder stands aside — for a queued feeder, or for
/// the window: long enough for the scheduler to run someone else, short
/// against anything a caller can see.
const CERT_NAP: Duration = Duration::from_micros(50);

/// One parking stripe: its state behind one mutex, plus the condvar
/// parked workers wait on.
#[derive(Default)]
struct Stripe {
    state: Mutex<StripeState>,
    cv: Condvar,
}

/// What a stripe's mutex guards.
#[derive(Default)]
struct StripeState {
    /// Advanced on every unlock of an entity hashing here.
    gen: u64,
    /// Workers inside [`LockService::park`]'s wait loop: signed up after
    /// the fall-through check, signed off on a wakeup or a timeout. A
    /// bump wakes the condvar only while this is nonzero.
    sleepers: u32,
}

impl Stripe {
    fn lock(&self) -> MutexGuard<'_, StripeState> {
        self.state.lock().expect("stripe lock poisoned")
    }
}

fn stripe_index(e: EntityId) -> usize {
    e.0 as usize % STRIPES
}

/// The per-attempt state [`LockService::request`] / [`finish`] / [`abort`]
/// work on, opened by [`LockService::attempt`].
///
/// [`finish`]: LockService::finish
/// [`abort`]: LockService::abort
pub(crate) struct Attempt {
    tx: TxId,
    /// In a word run: the entities whose words `tx` holds, i.e. the
    /// unlock steps still owed (the engine tracks an engine run's).
    held: Vec<EntityId>,
}

/// The outcome of [`LockService::request`].
pub(crate) enum Outcome {
    /// The action was granted and its steps recorded.
    Granted,
    /// `entity` is held against the requester by `holder`.
    Conflict {
        entity: EntityId,
        holder: TxId,
        /// The entity's stripe generation, read after the conflict was
        /// observed and before it was confirmed. Any release that could
        /// invalidate the conflict bumps the generation strictly after
        /// this read, so parking on `gen` can never miss it.
        gen: u64,
    },
    /// The policy refused the action outright; the requester aborts.
    Violation(PolicyViolation),
}

/// The first action of `plan` a word run cannot grant, if any. A word
/// run grants only plain [`PolicyAction::Lock`] / [`PolicyAction::Access`]
/// over word-covered entities, each entity locked at most once and every
/// access after its lock — the shape
/// [`slp_policies::GrantScope::PerEntity`] promises the engine decides
/// from per-entity state alone. Anything else (a relock, an uncovered
/// entity, an unlock, a locked point, a donation, a structural op) is the
/// answer.
fn fast_plan_mode(words: &LockWords, plan: &[PolicyAction]) -> Option<PolicyAction> {
    let mut locked: Vec<EntityId> = Vec::with_capacity(plan.len() / 2 + 1);
    plan.iter().copied().find(|&action| match action {
        PolicyAction::Lock(e) if words.covers(e) && !locked.contains(&e) => {
            locked.push(e);
            false
        }
        PolicyAction::Access(e) => !locked.contains(&e),
        _ => true,
    })
}

/// One worker's accounting: plain integers only it touches, summed
/// across workers after the join ([`Tally::add`]). A shared atomic here
/// would be a cache line bouncing between cores on every grant.
#[derive(Clone, Copy, Default)]
pub(crate) struct Tally {
    pub attempts: usize,
    pub committed: usize,
    pub policy_aborts: usize,
    pub deadlock_aborts: usize,
    pub rejected: usize,
    pub abandoned: usize,
    /// Transactions aborted by strict-mode certification recovery (the
    /// cycle victim was retracted and its job retried).
    pub certification_aborts: usize,
    pub lock_waits: u64,
    pub grants: u64,
    /// Grants decided by a per-entity lock-word CAS, bypassing the engine
    /// lock entirely (subset of `grants`).
    pub fast_path_grants: u64,
    /// Grants decided under the engine write lock (subset of `grants`;
    /// with the fast path off this equals `grants`).
    pub slow_path_grants: u64,
    /// Attempts a word run refused because their plan fell outside the
    /// plain lock/access shape (each also counted in `rejected`).
    pub fast_path_fallbacks: u64,
    /// MVCC snapshot read steps served without touching the lock service.
    pub snapshot_reads: u64,
}

impl Tally {
    /// Folds another worker's counts into this one.
    pub fn add(&mut self, other: &Tally) {
        self.attempts += other.attempts;
        self.committed += other.committed;
        self.policy_aborts += other.policy_aborts;
        self.deadlock_aborts += other.deadlock_aborts;
        self.rejected += other.rejected;
        self.abandoned += other.abandoned;
        self.certification_aborts += other.certification_aborts;
        self.lock_waits += other.lock_waits;
        self.grants += other.grants;
        self.fast_path_grants += other.fast_path_grants;
        self.slow_path_grants += other.slow_path_grants;
        self.fast_path_fallbacks += other.fast_path_fallbacks;
        self.snapshot_reads += other.snapshot_reads;
    }
}

/// What a worker hands the service with every call: the stamped steps of
/// the attempt it is running, and its tallies. `steps` holds one attempt
/// at a time — the worker seals it into its trace run
/// ([`crate::trace::TraceRun::seal`]) whichever way the attempt ends —
/// so the whole buffer is the attempt's certifier batch and its last
/// entry the attempt's newest stamp.
#[derive(Default)]
pub(crate) struct Recorder {
    pub steps: Vec<Stamped>,
    /// How many of `steps` the log already has — a prefix, handed over
    /// before a park ([`LockService::log`]).
    logged: usize,
    /// The log frames of the hand-over in progress, encoded here before
    /// the log's mutex is taken; reused.
    frames: Vec<u8>,
    pub tally: Tally,
}

impl Recorder {
    /// Seals the finished attempt's steps into the worker's `run`,
    /// leaving the recorder empty for the next attempt.
    pub fn seal(&mut self, run: &mut TraceRun) {
        run.seal(&mut self.steps);
        self.logged = 0;
    }
}

/// The accounting other threads read while the run is in flight.
#[derive(Default)]
pub(crate) struct Counters {
    pub parks: AtomicU64,
    pub park_timeouts: AtomicU64,
    pub timed_out: AtomicBool,
    /// Backstop only: set when strict certification latches a cycle it
    /// cannot recover from by retracting the feeding transaction (which
    /// should be impossible — every edge a feed adds touches the feeder).
    /// Workers treat it like an expired deadline and drain.
    pub halted: AtomicBool,
}

/// The MVCC side of a run with snapshot reads enabled: the versioned
/// store writers install into at grant time, and the commit pipeline that
/// orders status-table flips into serialization order. Snapshot reads
/// always apply [`VisibilityRule::Correct`].
#[derive(Default)]
pub(crate) struct MvccState {
    pub store: MvccStore,
    pub pipeline: CommitPipeline,
}

/// The shared front-end the worker threads drive.
pub(crate) struct LockService {
    engine: RwLock<Box<dyn PolicyEngine>>,
    stripes: [Stripe; STRIPES],
    /// The run's waits-for table, behind one mutex so that a publish and
    /// its walk are one critical section. Only a conflict touches it.
    waits_for: Mutex<WaitsFor>,
    /// The per-entity atomic lock-word table of a word run
    /// ([`slp_policies::GrantScope::PerEntity`] engine and
    /// [`crate::RuntimeConfig::grant_fast_path`] on); `None` in an engine
    /// run. It selects the grant authority for the whole run.
    words: Option<LockWords>,
    seq: AtomicU64,
    /// Write-ahead log, when the run is durable. An attempt is handed
    /// over when it retires, its words already free
    /// ([`log`](LockService::log)), so neither the log's mutex nor an
    /// fsync ever sits on a serialization point; stamps — taken while the
    /// words were held — arbitrate the cross-worker byte order on replay.
    wal: Option<Arc<Wal>>,
    /// Online serialization-graph certifier, when the run certifies
    /// ([`CertifyMode::Strict`]). Fed once per retiring attempt, after
    /// its words are free and the engine lock is dropped: the stamps
    /// taken at grant time already fix the edge directions, so the
    /// certifier tolerates out-of-order arrival and its mutex never sits
    /// on a serialization point. Each feed is certified before the
    /// attempt takes effect ([`certify_strict`](LockService::certify_strict)).
    certifier: Option<CertChannel>,
    /// Versioned store + commit pipeline when the run serves snapshot
    /// reads ([`crate::RuntimeConfig::snapshot_reads`]), else `None` and
    /// the MVCC paths cost nothing.
    mvcc: Option<MvccState>,
    pub counters: Counters,
}

/// The certifier graph and the feeders queued on it. Every feed waits
/// for the graph ([`CertChannel::wait_for_graph`]): the latch-and-recover
/// step of [`LockService::certify_strict`] must be atomic with the feed.
/// Edges are ordered by stamps, not arrival, so the order in which
/// workers get the graph never changes the verdict.
struct CertChannel {
    graph: Mutex<IncrementalCertifier>,
    /// Strict feeders asleep on `graph` ([`CertChannel::wait_for_graph`]).
    queued: AtomicUsize,
}

impl CertChannel {
    fn new() -> Self {
        CertChannel {
            graph: Mutex::new(IncrementalCertifier::new()),
            queued: AtomicUsize::new(0),
        }
    }

    /// A strict feeder's acquisition of the graph: poll, then queue, and
    /// never overtake a queued feeder.
    ///
    /// A feeder that waits has stamped steps the certifier has not seen,
    /// and those pin the truncation watermark: while it waits the graph
    /// grows by a node per rival commit and every feed holds the graph
    /// longer. So the wait must be short on every machine, and three
    /// rules make it so. *Poll first*: a feed holds the graph for about a
    /// microsecond, and a poller is awake when it lets go — whereas a
    /// feeder asleep on the unfair `Mutex` has lost it again by the time
    /// it wakes, to a rival that re-takes it at once. *Queue when the
    /// burst is spent*: by then the holder is off-CPU (fewer free cores
    /// than workers), and polling on — even with a yield, which need not
    /// switch — burns the very time slice the holder needs; asleep on
    /// the mutex, the feeder is woken by the release itself. *Make way
    /// for the queue*: a feeder that finds one queued naps instead of
    /// taking the graph, so the woken sleeper finds it free.
    ///
    /// Measured on 10 k-job strict runs, 2 workers: a plain `lock()` has
    /// taken 48 s for one run (a sleeper losing every race); an endless
    /// `try_lock` + `yield_now` poll takes 3–17 s for *every* run once a
    /// third busy thread shares the two cores, against 15 ms alone;
    /// polling and queueing without making way still leaves a run in a
    /// thousand over 0.3 s. With all three the run takes 15–18 ms on two
    /// free cores and 23 ms on one or beside a busy neighbour, none of
    /// 3 000 over 0.1 s.
    fn wait_for_graph(&self) -> MutexGuard<'_, IncrementalCertifier> {
        let mut polls = 0;
        while polls < CERT_POLL_BURST {
            if self.queued.load(Ordering::Relaxed) > 0 {
                std::thread::sleep(CERT_NAP);
                continue;
            }
            match self.graph.try_lock() {
                Ok(cert) => return cert,
                Err(TryLockError::WouldBlock) => std::hint::spin_loop(),
                Err(TryLockError::Poisoned(_)) => panic!("certifier lock poisoned"),
            }
            polls += 1;
        }
        self.queued.fetch_add(1, Ordering::Relaxed);
        let cert = self.graph.lock().expect("certifier lock poisoned");
        self.queued.fetch_sub(1, Ordering::Relaxed);
        cert
    }
}

impl LockService {
    /// `wal`, when present, receives every attempt's steps and every
    /// commit. `certify` builds the online certifier
    /// ([`CertifyMode::Off`] costs nothing on the hot path). `words`,
    /// when present, makes this a word run (the runner builds the table
    /// only for [`slp_policies::GrantScope::PerEntity`] engines).
    pub fn new(
        engine: Box<dyn PolicyEngine>,
        wal: Option<Arc<Wal>>,
        certify: CertifyMode,
        mvcc: Option<MvccState>,
        words: Option<LockWords>,
    ) -> Self {
        LockService {
            engine: RwLock::new(engine),
            stripes: Default::default(),
            waits_for: Mutex::default(),
            words,
            seq: AtomicU64::new(0),
            wal,
            certifier: (certify == CertifyMode::Strict).then(CertChannel::new),
            mvcc,
            counters: Counters::default(),
        }
    }

    /// Whether this run serves read-only jobs from MVCC snapshots.
    pub fn snapshot_reads_enabled(&self) -> bool {
        self.mvcc.is_some()
    }

    /// Recovers the engine and the certifier after the run (all workers
    /// joined).
    pub fn into_parts(self) -> (Box<dyn PolicyEngine>, Option<IncrementalCertifier>) {
        (
            self.engine.into_inner().expect("engine lock poisoned"),
            self.certifier
                .map(|ch| ch.graph.into_inner().expect("certifier lock poisoned")),
        )
    }

    fn stripe(&self, e: EntityId) -> &Stripe {
        &self.stripes[stripe_index(e)]
    }

    /// Parks until the entity's stripe generation moves past `seen` or the
    /// timeout elapses (spurious wakeups and timeouts are safe — callers
    /// re-request in a loop). A worker that waits is one of the stripe's
    /// sleepers from before its first wait until it leaves, woken or timed
    /// out; one that finds the generation already moved never signs up.
    pub fn park(&self, e: EntityId, seen: u64, timeout: Duration) {
        let stripe = self.stripe(e);
        let mut state = stripe.lock();
        if state.gen != seen {
            // A release already moved the generation: fall through
            // without blocking (not a park, not a timeout).
            return;
        }
        self.counters.parks.fetch_add(1, Ordering::Relaxed);
        state.sleepers += 1;
        while state.gen == seen {
            let (s, res) = stripe
                .cv
                .wait_timeout(state, timeout)
                .expect("stripe lock poisoned");
            state = s;
            if res.timed_out() {
                // The backstop fired instead of a wakeup — but only a
                // timeout with the generation still unmoved is evidence
                // of a lost wakeup. `wait_timeout` reports timed-out
                // whenever the deadline passed, even if a release bumped
                // the generation while we waited to reacquire the stripe
                // lock; counting that race would flake the stress
                // matrix's zero-timeouts assertion.
                if state.gen == seen {
                    self.counters.park_timeouts.fetch_add(1, Ordering::Relaxed);
                }
                break;
            }
        }
        state.sleepers -= 1;
    }

    /// Advances one stripe's generation and wakes its parked workers, if
    /// it has any: with no sleeper signed up under the stripe lock, a
    /// parker that comes later finds the new generation and falls through,
    /// so the wake would reach nobody.
    fn bump(&self, stripe: usize) {
        let stripe = &self.stripes[stripe];
        let wake = {
            let mut state = stripe.lock();
            state.gen += 1;
            state.sleepers > 0
        };
        if wake {
            stripe.cv.notify_all();
        }
    }

    /// The tail every call that recorded steps runs on them (`recorded`),
    /// after dropping the engine lock (so woken workers contend on the
    /// engine, not on us): free the lock word of every recorded unlock —
    /// explicit, donated, or final — then bump the released entities'
    /// stripes, waking whoever sleeps there. The order is the
    /// no-lost-wakeup protocol's release half: every word is free before
    /// any generation moves, because a woken waiter re-reads the word. An
    /// engine run has no words, only stripes to bump. The log is not fed here: a grant in
    /// the growing phase publishes while the transaction holds its words,
    /// and a wait for the log's mutex there is a wait every transaction
    /// queued on those words inherits.
    fn publish(&self, tx: TxId, recorded: &[Stamped]) {
        // One bump per stripe per batch.
        let mut released = 0u64;
        for (_, s) in recorded {
            if s.step.is_unlock() {
                if let Some(words) = &self.words {
                    words.release(s.step.entity, tx);
                }
                released |= 1 << stripe_index(s.step.entity);
            }
        }
        while released != 0 {
            self.bump(released.trailing_zeros() as usize);
            released &= released - 1;
        }
    }

    /// Hands the running attempt to the write-ahead log, if the run is
    /// durable: the steps in `rec` the log does not have yet and, with
    /// `commit`, the transaction's commit record — one append, one
    /// critical section on the log, the frames encoded into the worker's
    /// own buffer beforehand. A commit is durable once the
    /// contiguous-stamp watermark covers the attempt's newest stamp: `rec`
    /// holds every step of the transaction and nothing else, so that is
    /// one past its last entry (0 if it never took a step — durable from
    /// the start).
    ///
    /// Called where a worker leaves the grant path: by
    /// [`retire`](LockService::retire), the words already free, and by
    /// the attempt loop just before it parks — an attempt asleep on a
    /// stripe with unlogged steps would hold the log's watermark, and with
    /// it every later commit's durability, for as long as it sleeps. A
    /// failed log refuses the call at once and the error is dropped here
    /// — the run completes in memory and the failure surfaces in the
    /// report's [`slp_durability::WalSummary`].
    pub fn log(&self, rec: &mut Recorder, commit: Option<TxId>) {
        let Some(wal) = &self.wal else {
            return;
        };
        let required = rec.steps.last().map_or(0, |&(stamp, _)| stamp + 1);
        let commit = commit.map(|tx| (tx, required));
        let _ = wal.append_attempt(&mut rec.frames, &rec.steps[rec.logged..], commit);
        rec.logged = rec.steps.len();
    }

    /// Certification of one finished attempt, when the run certifies
    /// (`false` at once when it does not). The batch is a retired
    /// attempt's recorded steps, or a read-only job's snapshot reads (the
    /// explicit-pivot feed: workers publish out of order, so the
    /// certifier cannot reconstruct observed versions from arrival
    /// state); either way the transaction is sealed after it — commit or
    /// abort, it takes no further steps, which is what makes it
    /// truncatable. One graph acquisition per attempt keeps the certifier
    /// off the grant path, and the certifier orders edges by stamp, so
    /// feeding late and in any order across workers never changes the
    /// verdict.
    ///
    /// Feed + seal happen under a **waited-for** graph acquisition — the
    /// latch-and-recover step must be atomic with the feed — and a
    /// latched violation is *recovered* from instead of halting. Every edge
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
        attempt: &[Stamped],
        reads: Option<&[VersionedRead]>,
        aborted: bool,
    ) -> bool {
        let Some(ch) = &self.certifier else {
            return false;
        };
        let mut cert = ch.wait_for_graph();
        match reads {
            Some(r) => cert.observe_snapshot_reads(r),
            None => cert.observe_trace(attempt),
        }
        if cert.violation().is_none() {
            cert.seal_with(tx, aborted);
        }
        let certified_out = match cert.violation().map(|v| v.cycle.contains(&tx)) {
            None => false,
            Some(true) => {
                // The certifier keeps the first cycle it clears, so the
                // report still shows what was caught.
                cert.retract(tx);
                !aborted
            }
            Some(false) => {
                // A cycle not through the feeder cannot be recovered here;
                // it should be impossible (see above). Halt rather than
                // mis-certify.
                self.counters.halted.store(true, Ordering::Relaxed);
                false
            }
        };
        // Back-pressure on the certifier's window. Resident nodes are the
        // feeds truncation could not retire, and what holds truncation
        // back is a worker that stamped steps and has not fed them yet —
        // for a moment on a healthy run (a window of tens), for a whole
        // time slice when it is off-CPU, and then every feed scans a
        // window a node longer than the last. The feeder that finds the
        // window at a multiple of `CERT_WINDOW` is the one running ahead:
        // it naps, once per `CERT_WINDOW` nodes of growth, so the laggard
        // gets a core and the window — and with it a feed's cost — stays
        // bounded by scheduling we do, not scheduling that happens to us.
        let live = cert.stats().live_nodes;
        drop(cert);
        if live >= CERT_WINDOW && live % CERT_WINDOW == 0 {
            std::thread::sleep(CERT_NAP);
        }
        certified_out
    }

    /// Stamps `steps` for `tx` into `out` with consecutive global
    /// sequence numbers. Must be called while holding the serialization
    /// context that granted the steps — the engine write lock, or the
    /// touched entities' lock words. Either way the stamps for
    /// one entity are fetched strictly between that entity's acquire and
    /// release, so the merged trace orders conflicting steps exactly as
    /// the grants serialized them (the stamp-ordering contract; see the
    /// module docs). With MVCC enabled, the same held section also
    /// installs versions (writes/inserts/deletes) into the store and
    /// registers lock grants with the commit pipeline — so version
    /// install order matches the serialization order the stamps record.
    ///
    /// **Why the stamps are not drawn in one block per attempt**
    /// (ROADMAP 1(c)'s question). A block reserved when the attempt
    /// starts would hand an acquire a stamp fetched *before* its grant.
    /// Say `t1` holds `e`, and `t2` reserves its block and then waits for
    /// `e`: `t1`'s unlock is stamped after `t2`'s reservation, so in the
    /// merged trace `t2`'s lock of `e` would precede the unlock that made
    /// it possible — an illegal schedule, and serialization-graph edges
    /// pointing the wrong way. The contract needs every stamp fetched
    /// while the step's entity is held, so one fetch can only cover steps
    /// taken inside one uninterrupted holding section — which is what
    /// the single `fetch_add` per call below already does for an engine
    /// section's steps. The coalescing that *is* legal goes one step
    /// further in a word run: consecutive [`PolicyAction::Access`]
    /// grants have no acquire between them, so nothing can park and every
    /// word they touch stays held across the run — they could share one
    /// fetch, and the plan's last such run could share it with the final
    /// unlocks too, which are stamped before any word is freed (for a
    /// lock-everything-then-access plan: one shared RMW for the whole
    /// data phase instead of one per access plus one). Not implemented:
    /// do it only if a traced pass shows `seq` still matters now that the
    /// per-grant tallies are off the shared lines.
    fn record<I>(&self, tx: TxId, steps: I, out: &mut Vec<Stamped>)
    where
        I: IntoIterator<Item = Step>,
        I::IntoIter: ExactSizeIterator,
    {
        let steps = steps.into_iter();
        let base = self.seq.fetch_add(steps.len() as u64, Ordering::Relaxed);
        for (i, s) in steps.enumerate() {
            let stamp = base + i as u64;
            if let Some(m) = &self.mvcc {
                match s.op {
                    Operation::Lock(_) => m.pipeline.note_lock(tx, s.entity),
                    Operation::Data(DataOp::Write) | Operation::Data(DataOp::Insert) => {
                        m.store.install(s.entity, tx, stamp)
                    }
                    Operation::Data(DataOp::Delete) => m.store.delete(s.entity, tx, stamp),
                    _ => {}
                }
            }
            out.push((stamp, ScheduledStep::new(tx, s)));
        }
    }

    /// Takes `e`'s lock word for `tx` — the acquire half of the
    /// no-lost-wakeup protocol, and its only copy. `Err`: the holder and
    /// the stripe generation to park on (never `tx` itself: a word run
    /// refuses a relock before it starts). The generation is read
    /// *between* the failed CAS and a recheck of the word: a releaser
    /// frees the word before bumping the generation, so a conflict
    /// re-observed after the read cannot have its wakeup already behind
    /// us, and a word found free on the recheck is simply tried again.
    /// Before any of that a held word is watched for [`WORD_POLLS`] loads
    /// (`try_acquire` reads before it CASes, so a poll writes nothing): a
    /// word run's holder is gone within microseconds unless it is off-CPU
    /// or the pair is deadlocked, and both of those fall through to the
    /// park path, where the waits-for walk and the futex are.
    fn acquire_word(&self, words: &LockWords, e: EntityId, tx: TxId) -> Result<(), (TxId, u64)> {
        let mut polls = WORD_POLLS;
        loop {
            match words.try_acquire(e, tx) {
                Ok(()) => return Ok(()),
                Err(_) if polls > 0 => {
                    polls -= 1;
                    std::hint::spin_loop();
                    continue;
                }
                Err(_) => {}
            }
            let gen = self.stripe(e).lock().gen;
            if let Some(holder) = words.conflicting_holder(e) {
                return Err((holder, gen));
            }
        }
    }

    /// Plans `job` under the engine's *read* lock (planners only read).
    pub fn plan(
        &self,
        planner: &mut dyn ActionPlanner,
        job: &Job,
    ) -> Result<Option<Vec<PolicyAction>>, PolicyViolation> {
        let engine = self.engine.read().expect("engine lock poisoned");
        planner.plan(&**engine, job)
    }

    /// Opens `tx`'s attempt at `plan`. A word run refuses, before it
    /// takes anything, a plan it cannot grant: `NoPlan` without one,
    /// [`PolicyViolation::Unsupported`] naming the first action outside
    /// the plain lock/access shape otherwise — both fatal, and counted in
    /// [`Tally::fast_path_fallbacks`].
    pub fn attempt(
        &self,
        tx: TxId,
        plan: Option<&[PolicyAction]>,
        tally: &mut Tally,
    ) -> Result<Attempt, PolicyViolation> {
        if let Some(words) = &self.words {
            let refusal = match plan {
                None => Some(PolicyViolation::NoPlan(tx)),
                Some(plan) => fast_plan_mode(words, plan).map(|action| {
                    let engine = self.engine.read().expect("engine lock poisoned");
                    PolicyViolation::Unsupported {
                        policy: engine.name(),
                        action,
                    }
                }),
            };
            if let Some(violation) = refusal {
                tally.fast_path_fallbacks += 1;
                return Err(violation);
            }
        }
        Ok(Attempt {
            tx,
            held: Vec::new(),
        })
    }

    /// Begins the attempt's transaction; returns the engine's precomputed
    /// plan if any. In a word run the engine never learns that the
    /// transaction exists — the words are the authority for everything
    /// it touches. With MVCC enabled the transaction registers as a
    /// writer with the commit pipeline (its status-table flip orders
    /// behind lock-order predecessors).
    pub fn begin(
        &self,
        at: &Attempt,
        intent: &AccessIntent,
    ) -> Result<Option<Vec<PolicyAction>>, PolicyViolation> {
        let plan = match &self.words {
            Some(_) => None,
            None => {
                let mut engine = self.engine.write().expect("engine lock poisoned");
                engine.begin(at.tx, intent)?
            }
        };
        if let Some(m) = &self.mvcc {
            m.pipeline.begin_writer(at.tx);
        }
        Ok(plan)
    }

    /// Decides one `action` of the attempt and records the granted steps
    /// into `rec`. A word run takes the word for a `Lock` and synthesizes
    /// exactly the steps the engine would emit (`lock`, then
    /// `read`+`write` per access, whatever the job declares — so traces
    /// stay step-for-step comparable across runs) without touching the
    /// engine lock; an engine run asks the engine under its write lock,
    /// one action per section.
    pub fn request(&self, at: &mut Attempt, action: PolicyAction, rec: &mut Recorder) -> Outcome {
        let tx = at.tx;
        let Recorder {
            steps: trace,
            tally,
            ..
        } = rec;
        let from = trace.len();
        let outcome = match &self.words {
            Some(words) => match action {
                PolicyAction::Lock(e) => match self.acquire_word(words, e, tx) {
                    Ok(()) => {
                        at.held.push(e);
                        self.record(tx, [Step::lock(LockMode::Exclusive, e)], trace);
                        Outcome::Granted
                    }
                    Err((holder, gen)) => Outcome::Conflict {
                        entity: e,
                        holder,
                        gen,
                    },
                },
                PolicyAction::Access(e) => {
                    self.record(tx, [Step::read(e), Step::write(e)], trace);
                    Outcome::Granted
                }
                _ => unreachable!("a word run admits only Lock/Access plans"),
            },
            None => {
                let mut engine = self.engine.write().expect("engine lock poisoned");
                match engine.request(tx, action) {
                    PolicyResponse::Granted(steps) => {
                        self.record(tx, steps, trace);
                        Outcome::Granted
                    }
                    PolicyResponse::Conflict { entity, holder } => {
                        // Read inside the engine section that observed
                        // the conflict: every engine release is recorded
                        // in a later section and bumps after it. (Nested
                        // stripe-lock acquisition is deadlock-free:
                        // stripe-lock holders never take the engine lock.)
                        let gen = self.stripe(entity).lock().gen;
                        Outcome::Conflict {
                            entity,
                            holder,
                            gen,
                        }
                    }
                    PolicyResponse::Violation(violation) => Outcome::Violation(violation),
                }
            }
        };
        if matches!(outcome, Outcome::Granted) {
            tally.grants += 1;
            match self.words {
                Some(_) => tally.fast_path_grants += 1,
                None => tally.slow_path_grants += 1,
            }
        }
        // An engine grant may have recorded unlocks (explicit releases,
        // altruistic donations); a word grant never does.
        self.publish(tx, &trace[from..]);
        outcome
    }

    /// Finishes the attempt's transaction, recording its final unlocks.
    /// Returns `Ok(true)` on commit; `Ok(false)` when strict
    /// certification recovered by aborting it instead (no commit record,
    /// no visibility flip — the caller retries the job as a fresh
    /// transaction).
    pub fn finish(&self, at: &mut Attempt, rec: &mut Recorder) -> Result<bool, PolicyViolation> {
        self.retire(at, rec, false)
    }

    /// Aborts the attempt's transaction, recording the unlocks it still
    /// held.
    pub fn abort(&self, at: &mut Attempt, rec: &mut Recorder) {
        self.retire(at, rec, true)
            .expect("an abort is never refused");
    }

    /// The one way an attempt ends. The two kinds of run differ only in
    /// where the unlock steps come from: the held set in ascending entity
    /// order (matching the engine's emission) in a word run,
    /// [`PolicyEngine::finish`] / [`PolicyEngine::abort`] under the write
    /// lock in an engine run — stamped, either way, before
    /// [`publish`](LockService::publish) frees the words, so the next
    /// holder's acquire stamp lands strictly later. Then the shared tail:
    /// publish — from here on `tx` holds nothing — certify the whole
    /// attempt (`rec.steps` is exactly its steps), hand it to the log,
    /// make the outcome visible. Returns whether `tx` committed —
    /// `aborting` never does, and neither does a commit that strict
    /// certification turned into an abort. In every case the recorded
    /// steps stay in the trace and go to the log (the replica must stay
    /// lossless); only a commit carries a commit record, in the same
    /// append as its steps and strictly before its visibility flip, so a
    /// snapshot never observes a writer the log could lose. An abort
    /// resolves in the pipeline at once — nothing becomes visible, and
    /// dependents waiting on `tx` are released — and is sealed in the
    /// certifier as *aborted*: it takes no further steps (all truncation
    /// needs) and parked snapshot-read edges against its versions
    /// dissolve instead of materializing.
    fn retire(
        &self,
        at: &mut Attempt,
        rec: &mut Recorder,
        aborting: bool,
    ) -> Result<bool, PolicyViolation> {
        let tx = at.tx;
        let attempt = &mut rec.steps;
        let from = attempt.len();
        match &self.words {
            Some(_) => {
                at.held.sort_unstable();
                let unlocks = at.held.drain(..);
                self.record(
                    tx,
                    unlocks.map(|e| Step::unlock(LockMode::Exclusive, e)),
                    attempt,
                );
            }
            None => {
                let mut engine = self.engine.write().expect("engine lock poisoned");
                let steps = if aborting {
                    engine.abort(tx)
                } else {
                    engine.finish(tx)?
                };
                self.record(tx, steps, attempt);
            }
        }
        self.publish(tx, &attempt[from..]);
        let certified_out = self.certify_strict(tx, attempt, None, aborting);
        let committed = !aborting && !certified_out;
        self.log(rec, committed.then_some(tx));
        if let Some(m) = &self.mvcc {
            if committed {
                m.pipeline.commit(tx);
            } else {
                m.pipeline.abort(tx);
            }
        }
        Ok(committed)
    }

    /// Serves a read-only job from an MVCC snapshot: captures a read
    /// view under the commit-pipeline gate (claiming a dense block of
    /// trace stamps for the reads), scans version chains for the visible
    /// version of each target, and records the observations as stamped
    /// snapshot-read steps — **without ever touching the policy engine,
    /// the lock table, or a parking stripe**. Returns `false` when strict
    /// certification recovered by retracting the reader (the caller
    /// retries with a fresh snapshot).
    pub fn snapshot_read(&self, tx: TxId, targets: &[EntityId], rec: &mut Recorder) -> bool {
        let m = self
            .mvcc
            .as_ref()
            .expect("snapshot read without an MVCC store");
        let trace = &mut rec.steps;
        let snap = m.pipeline.capture(targets.len(), |n| {
            self.seq.fetch_add(n as u64, Ordering::Relaxed)
        });
        let tst = m.pipeline.status_table();
        let mut reads = Vec::with_capacity(targets.len());
        for (i, &entity) in targets.iter().enumerate() {
            let obs = m.store.read(entity, &snap, tst, VisibilityRule::Correct);
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
        rec.tally.snapshot_reads += targets.len() as u64;
        // Reader steps are logged (the recovered trace must stay dense)
        // but a read-only transaction needs no commit record.
        self.log(rec, None);
        !self.certify_strict(tx, &rec.steps, Some(&reads), false)
    }

    /// How many stamps the run has drawn: the number of steps its workers
    /// recorded, and one past the newest stamp.
    pub fn stamps_drawn(&self) -> u64 {
        self.seq.load(Ordering::Relaxed)
    }

    /// Whether every lock word is free (end-of-run quiescence — vacuously
    /// true without a word table).
    pub fn words_quiescent(&self) -> bool {
        self.words.as_ref().is_none_or(LockWords::quiescent)
    }

    /// Records that `tx` waits for `holder` and walks the waits-for chain:
    /// `true` iff the chain leads back to `tx` (a deadlock this request
    /// closed — the requester aborts, as in the simulator).
    ///
    /// Detection is complete as long as every *parked* waiter's edge
    /// points at the entity's current holder: publish and walk are one
    /// critical section under the table's mutex, so whichever transaction
    /// publishes the edge that closes a cycle sees the whole cycle and
    /// aborts. The runtime upholds that invariant by re-running
    /// `note_wait` with the fresh holder at every conflict observation,
    /// before any park (the holder can change across a re-request). The
    /// converse discipline matters just as much: a worker retracts its edge
    /// ([`clear_wait`](LockService::clear_wait)) before re-requesting and
    /// before aborting, so walkers never chase a transaction that is no
    /// longer blocked — a stale edge through an awake transaction
    /// manufactures phantom cycles, and under contention the needless
    /// victims feed an abort storm.
    pub fn note_wait(&self, tx: TxId, holder: TxId) -> bool {
        self.waits_for().note(tx, holder)
    }

    /// Clears `tx`'s waits-for edge (its blocked request was granted, or
    /// it aborted).
    pub fn clear_wait(&self, tx: TxId) {
        self.waits_for().clear(tx);
    }

    fn waits_for(&self) -> MutexGuard<'_, WaitsFor> {
        self.waits_for.lock().expect("waits-for table poisoned")
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use slp_policies::{PolicyConfig, PolicyKind, PolicyRegistry};

    /// A 2PL service over `EntityId(0)` alone — stripe 0 — with or
    /// without a lock-word table.
    fn service_over_e0(words: bool) -> LockService {
        let engine = PolicyRegistry::new()
            .build(PolicyKind::TwoPhase, &PolicyConfig::flat(vec![EntityId(0)]))
            .expect("2PL builds");
        let words = words.then(|| LockWords::new(1));
        LockService::new(engine, None, CertifyMode::Off, None, words)
    }

    /// The make-way rule of [`CertChannel::wait_for_graph`]: once a
    /// feeder has spent its polls and queued on the graph, a later
    /// arrival stands aside until the queued one has been through — it
    /// never takes the graph the sleeper was just woken for.
    #[test]
    fn a_strict_feeder_never_overtakes_a_queued_one() {
        let ch = CertChannel::new();
        let order = Mutex::new(Vec::new());
        let enter = |name: &'static str| {
            let _cert = ch.wait_for_graph();
            order.lock().expect("order").push(name);
        };
        std::thread::scope(|s| {
            let held = ch.graph.lock().expect("graph");
            s.spawn(|| enter("queued"));
            while ch.queued.load(Ordering::Relaxed) == 0 {
                std::thread::yield_now();
            }
            s.spawn(|| enter("late"));
            // Give the late arrival every chance to barge: it is polling
            // (or napping) by now, and the graph is about to come free.
            std::thread::sleep(CERT_NAP * 20);
            drop(held);
        });
        assert_eq!(*order.lock().expect("order"), ["queued", "late"]);
        assert_eq!(ch.queued.load(Ordering::Relaxed), 0);
    }

    /// A store that shows each append to a probe before it forwards it:
    /// what the rest of the service looked like at the moment the log was
    /// written.
    type Probe = Arc<Mutex<Option<Box<dyn FnMut(&[u8]) + Send>>>>;
    struct ProbedStore(slp_durability::MemStore, Probe);

    impl slp_durability::Store for ProbedStore {
        fn open_segment(&mut self, index: u64) -> Result<(), slp_durability::WalError> {
            self.0.open_segment(index)
        }
        fn append(&mut self, bytes: &[u8]) -> Result<(), slp_durability::WalError> {
            if let Some(probe) = self.1.lock().expect("probe").as_mut() {
                probe(bytes);
            }
            self.0.append(bytes)
        }
        fn sync(&mut self) -> Result<(), slp_durability::WalError> {
            self.0.sync()
        }
        fn list(&self) -> Result<Vec<u64>, slp_durability::WalError> {
            self.0.list()
        }
        fn read(&self, index: u64) -> Result<Vec<u8>, slp_durability::WalError> {
            self.0.read(index)
        }
        fn remove(&mut self, index: u64) -> Result<(), slp_durability::WalError> {
            self.0.remove(index)
        }
    }

    /// Where the log is fed, held against the two things it must not
    /// overlap: a grant writes nothing (the words are still held), and
    /// the one append of a commit — steps and commit record together —
    /// happens with every word already free and the writer still
    /// invisible to snapshots.
    #[test]
    fn the_log_is_fed_once_after_the_words_are_free_and_before_the_flip() {
        use slp_durability::frame::{decode_frame, FrameOutcome};
        use slp_durability::{Record, WalConfig};
        use slp_mvcc::TxStatus;

        let (e, tx) = (EntityId(0), TxId(1));
        let probe: Probe = Arc::default();
        let engine = PolicyRegistry::new()
            .build(PolicyKind::TwoPhase, &PolicyConfig::flat(vec![e]))
            .expect("2PL builds");
        let wal = Wal::create(
            Box::new(ProbedStore(Default::default(), Arc::clone(&probe))),
            WalConfig::default(),
            &slp_core::StructuralState::from_entities([e]),
        )
        .expect("fresh store");
        let service = Arc::new(LockService::new(
            engine,
            Some(Arc::new(wal)),
            CertifyMode::Off,
            Some(MvccState::default()),
            Some(LockWords::new(1)),
        ));
        // Per append: the records it carried, whether the words were all
        // free, and the writer's status.
        let seen = Arc::new(Mutex::new(Vec::new()));
        *probe.lock().expect("probe") = Some(Box::new({
            let (service, seen) = (Arc::clone(&service), Arc::clone(&seen));
            move |mut bytes: &[u8]| {
                let mut records = Vec::new();
                while let FrameOutcome::Record(r, rest) = decode_frame(bytes) {
                    records.push(r);
                    bytes = rest;
                }
                let m = service.mvcc.as_ref().expect("mvcc on");
                let status = m.pipeline.status_table().status(tx);
                let quiescent = service.words_quiescent();
                seen.lock()
                    .expect("seen")
                    .push((records, quiescent, status));
            }
        }));

        let plan = [PolicyAction::Lock(e), PolicyAction::Access(e)];
        let mut rec = Recorder::default();
        let mut at = service
            .attempt(tx, Some(&plan), &mut rec.tally)
            .expect("a plain plan");
        service.begin(&at, &AccessIntent::empty()).expect("begin");
        for action in plan {
            assert!(matches!(
                service.request(&mut at, action, &mut rec),
                Outcome::Granted
            ));
        }
        assert!(
            seen.lock().expect("seen").is_empty(),
            "a grant logs nothing"
        );
        assert!(service.finish(&mut at, &mut rec).expect("finish"));

        // Nothing is left to hand over, and handing nothing over is not
        // an append.
        service.log(&mut rec, None);
        let seen = seen.lock().expect("seen");
        let [(records, quiescent, status)] = &seen[..] else {
            panic!("one attempt, {} appends", seen.len());
        };
        assert_eq!(
            records[..],
            [
                Record::Steps(rec.steps.clone()),
                Record::Commit {
                    tx,
                    required_watermark: rec.steps.len() as u64
                }
            ]
        );
        assert!(quiescent, "the append waited for no word");
        assert_eq!(*status, TxStatus::InProgress, "logged before visible");
        let m = service.mvcc.as_ref().expect("mvcc on");
        assert!(matches!(
            m.pipeline.status_table().status(tx),
            TxStatus::Committed(_)
        ));
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
    /// counting, so the zero assertion is safe either way.) The parker is
    /// the stripe's one sleeper while it waits, and none once it is out.
    fn race_timeout_against_wakeup(service: &LockService, timeout: Duration) {
        let stripe = &service.stripes[0];
        let seen = stripe.lock().gen;
        let parks_before = service.counters.parks.load(Ordering::Relaxed);
        std::thread::scope(|s| {
            let parker = s.spawn(|| service.park(EntityId(0), seen, timeout));
            while service.counters.parks.load(Ordering::Relaxed) == parks_before {
                std::thread::yield_now();
            }
            {
                let mut state = stripe.lock();
                assert_eq!(state.sleepers, 1, "signed up before its wait");
                std::thread::sleep(timeout * 2); // outlive the parker's timeout
                state.gen += 1;
            }
            stripe.cv.notify_all();
            parker.join().expect("parker panicked");
        });
        assert_eq!(stripe.lock().sleepers, 0, "signed off on its way out");
    }

    /// Regression: a park timeout that races a wakeup must not be counted
    /// as lost-wakeup evidence (the counter used to bump on every
    /// timed-out `wait_timeout`, even with the generation already moved).
    #[test]
    fn park_timeout_racing_a_wakeup_is_not_counted() {
        let service = service_over_e0(false);
        race_timeout_against_wakeup(&service, Duration::from_millis(40));
        assert_eq!(
            service.counters.park_timeouts.load(Ordering::Relaxed),
            0,
            "a timeout whose generation already advanced is a wakeup, not a lost one"
        );
    }

    /// The same race hammered on one stripe, park timeout
    /// shorter than the hold time on every iteration: the counter must
    /// stay exactly zero across all of them.
    #[test]
    fn park_timeout_hammer_stays_clean() {
        let service = service_over_e0(false);
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
        let service = service_over_e0(false);
        let seen = service.stripes[0].lock().gen;
        service.park(EntityId(0), seen, Duration::from_millis(5));
        assert_eq!(service.counters.park_timeouts.load(Ordering::Relaxed), 1);
        assert_eq!(service.counters.parks.load(Ordering::Relaxed), 1);
        assert_eq!(
            service.stripes[0].lock().sleepers,
            0,
            "timed out, signed off"
        );
    }

    /// The wake half of the sleeper rule, once per kind of run: a worker
    /// parked on a held lock with a generous timeout is woken by the
    /// holder's release on another thread — its bump sees the sleeper and
    /// notifies — long before the timeout. A parker that never signed up,
    /// or a bump that skipped the notify, would sleep the whole 10 s.
    #[test]
    fn a_release_wakes_a_parked_worker_long_before_its_timeout() {
        let e = EntityId(0);
        let plan = [PolicyAction::Lock(e), PolicyAction::Access(e)];
        let timeout = Duration::from_secs(10);
        for words in [true, false] {
            let service = service_over_e0(words);
            let mut rec = Recorder::default();
            let mut holder = service
                .attempt(TxId(1), Some(&plan), &mut rec.tally)
                .expect("a plain plan");
            service
                .begin(&holder, &AccessIntent::empty())
                .expect("begin");
            assert!(matches!(
                service.request(&mut holder, plan[0], &mut rec),
                Outcome::Granted
            ));
            let seen = service.stripes[0].lock().gen;
            let slept = std::thread::scope(|s| {
                let parker = s.spawn(|| {
                    let start = std::time::Instant::now();
                    service.park(e, seen, timeout);
                    start.elapsed()
                });
                while service.counters.parks.load(Ordering::Relaxed) == 0 {
                    std::thread::yield_now();
                }
                // The parker counted its park and signed up in one
                // stripe-lock section; the release's bump takes that lock
                // after it, so it sees the sleeper.
                assert!(service.finish(&mut holder, &mut rec).expect("finish"));
                parker.join().expect("parker panicked")
            });
            assert!(
                slept < timeout / 4,
                "words {words}: woken after {slept:?}, not by the release"
            );
            let c = &service.counters;
            assert_eq!(c.parks.load(Ordering::Relaxed), 1, "words {words}");
            assert_eq!(c.park_timeouts.load(Ordering::Relaxed), 0, "words {words}");
            assert_eq!(service.stripes[0].lock().sleepers, 0, "woken, signed off");
            assert!(service.words_quiescent());
        }
    }

    /// The no-lost-wakeup handshake, once per kind of run: tx1 holds `e`;
    /// tx2's request conflicts and names tx1 and a generation; tx1
    /// finishes (word freed or engine entry dropped, *then* generation
    /// bumped); parking on the stale generation falls through at once;
    /// the re-request is granted with a stamp above tx1's unlock.
    #[test]
    fn a_conflict_generation_never_outlives_the_release() {
        let e = EntityId(0);
        let plan = [PolicyAction::Lock(e), PolicyAction::Access(e)];
        for words in [true, false] {
            let service = service_over_e0(words);
            // One recorder per attempt, as if two workers ran them.
            let (mut rec1, mut rec2) = (Recorder::default(), Recorder::default());
            let open = |tx, rec: &mut Recorder| {
                let at = service
                    .attempt(tx, Some(&plan), &mut rec.tally)
                    .expect("a plain plan");
                service.begin(&at, &AccessIntent::empty()).expect("begin");
                at
            };
            let (mut tx1, mut tx2) = (open(TxId(1), &mut rec1), open(TxId(2), &mut rec2));
            assert!(matches!(
                service.request(&mut tx1, plan[0], &mut rec1),
                Outcome::Granted
            ));
            let Outcome::Conflict {
                entity,
                holder,
                gen,
            } = service.request(&mut tx2, plan[0], &mut rec2)
            else {
                panic!("words {words}: a held lock must conflict");
            };
            assert_eq!((entity, holder), (e, TxId(1)));

            assert!(service.finish(&mut tx1, &mut rec1).expect("finish"));
            let (unlock_stamp, unlock) = *rec1.steps.last().expect("tx1 recorded steps");
            assert!(unlock.step.is_unlock());

            service.park(e, gen, Duration::from_secs(10));
            let c = &service.counters;
            assert_eq!(c.parks.load(Ordering::Relaxed), 0, "fell through");
            assert_eq!(c.park_timeouts.load(Ordering::Relaxed), 0);
            assert_eq!(service.stripes[0].lock().sleepers, 0, "never signed up");

            assert!(matches!(
                service.request(&mut tx2, plan[0], &mut rec2),
                Outcome::Granted
            ));
            let (lock_stamp, lock) = *rec2.steps.last().expect("tx2 recorded its lock");
            assert_eq!(
                (lock.tx, lock.step),
                (TxId(2), Step::lock(LockMode::Exclusive, e))
            );
            assert!(
                lock_stamp > unlock_stamp,
                "acquire stamped after the release"
            );
            assert!(service.finish(&mut tx2, &mut rec2).expect("finish"));
            assert!(service.words_quiescent());
            // Grants are tallied by the worker that was granted them, on
            // the run's one path.
            for tally in [rec1.tally, rec2.tally] {
                let path = if words {
                    (tally.fast_path_grants, tally.slow_path_grants)
                } else {
                    (tally.slow_path_grants, tally.fast_path_grants)
                };
                assert_eq!((tally.grants, path), (1, (1, 0)), "words {words}");
                assert_eq!(tally.fast_path_fallbacks, 0);
            }
        }
    }
}
