//! The lock service: one [`PolicyEngine`] serving many worker threads,
//! and the one owner of every attempt's lifecycle.
//!
//! [`LockService::start`] counts an attempt, applies the deadline/halt
//! rule, serves a read-only job from a snapshot when the run has MVCC,
//! and otherwise plans the job and opens an [`Attempt`] that owns its
//! plan and a cursor into it. [`LockService::poll`] drives the attempt
//! from where it stands — begin, the plan's grants, finish — and tells
//! its driver what to do next: yield ([`Poll::Yield`]), park
//! ([`Poll::Park`]) or stop ([`Poll::Over`]). The waits-for discipline,
//! the victim rule, the deadline rule, the hand-over to the log before a
//! park and every per-attempt tally are the service's, so a driver — a
//! worker thread, or a test on one thread — only yields, parks and
//! seals. Where the granted *steps* come from is a property of the run,
//! not of the attempt:
//!
//! * **an engine run** — a [`slp_policies::GrantScope::Global`] engine,
//!   or any run with [`crate::RuntimeConfig::grant_fast_path`] off: the
//!   engine rules on every action under its write lock and returns the
//!   steps. Every grant/refuse decision of a policy that reads global
//!   state (wakes, donations, the DDAG) mutates shared policy state, so
//!   those decisions serialize there — and they do so once per wake-up
//!   of an attempt, not once per action: one write section runs begin,
//!   the plan from the cursor up to the first conflict, and finish. A
//!   refusal — a violation, a failed finish, no plan after begin — is
//!   aborted by the engine call that met it, in the same section, so no
//!   lock an attempt took survives outside a section unless the attempt
//!   waits. With [`crate::RuntimeConfig::step_yield`] on, a section ends
//!   after every grant instead: begin shares its section with the first
//!   grant, and a refusal shares its section with its abort;
//! * **a word run** — a [`slp_policies::GrantScope::PerEntity`] engine
//!   with the fast path on (see [`crate::fastpath`]): a plain lock/access
//!   plan is decided by the entities' own atomic words alone, and the
//!   service synthesizes the steps the engine would have emitted. Every
//!   word is taken exclusively, as every engine lock is, so a job locks
//!   the same way in both kinds of run, read-only or not. A plan outside
//!   that shape is refused before anything is taken.
//!
//! The kind of run is one value ([`Grant`]). A word run never locks its
//! engine: nothing writes it, so it is held bare, read to plan and to name
//! a refused plan, and its words are the only lock table the run has. An
//! engine run never touches a word: the engine's lock table is the only
//! one it has. Everything around the decision is shared by the two kinds
//! of run, and sharded or lock-free:
//!
//! * **planning** reads the engine — in an engine run under its read lock
//!   (planners only read, so they run concurrently with each other and
//!   only a grant section excludes them). The window is short: the
//!   DDAG planner lays a region out from the engine's
//!   [`slp_graph::DomIndex`] over its flat, id-indexed graph in time
//!   proportional to the region — under a microsecond on `ddag_churn`'s
//!   DAG, a fraction of the grants that follow — because the whole-graph
//!   work (dominator tree, topological ranks, root) is done once per
//!   structural mutation, under the write lock that mutation already
//!   holds;
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
//! * **the tail** after every section that recorded steps is one routine
//!   ([`LockService::publish`]): free the words whose release was just
//!   recorded, then bump their stripes, waking their sleepers. It never
//!   touches the log. When the attempt retires ([`LockService::settle`])
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
//! before it is confirmed ([`Progress::Wait`]) — inside the engine
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
//! current holder before every park (see [`LockService::poll`]), so
//! with a generous timeout the park-timeout backstop never fires on a
//! healthy run — firings are counted ([`Counters::park_timeouts`]) and
//! surfaced in the report as lost-wakeup evidence.

use crate::certifier::IncrementalCertifier;
use crate::fastpath::LockWords;
use crate::runner::CertifyMode;
use crate::trace::{Stamped, TraceRun};
use slp_core::{Access, DataOp, EntityId, LockMode, Operation, ScheduledStep, Step, TxId};
use slp_durability::handover::{self, Handover};
use slp_durability::Wal;
use slp_mvcc::{CommitPipeline, MvccStore, VisibilityRule};
use slp_policies::{
    AccessIntent, ActionPlanner, Job, PolicyAction, PolicyEngine, PolicyResponse, PolicyViolation,
    WaitsFor,
};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Arc, Condvar, Mutex, MutexGuard, RwLock, RwLockWriteGuard};
use std::time::{Duration, Instant};

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

/// The certifier window (resident nodes) at every multiple of which a
/// strict feeder stands aside for the workers behind it, for one
/// [`handover::NAP`] ([`LockService::certify_strict`]): several times the
/// tens a healthy run keeps resident, far below the thousands one
/// descheduled worker used to leave.
const CERT_WINDOW: usize = 128;

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

/// Whether `deadline` has passed; `None` never does.
fn past(deadline: Option<Instant>) -> bool {
    deadline.is_some_and(|d| Instant::now() > d)
}

/// One attempt's state across its sections, opened by
/// [`LockService::start`] and driven by [`LockService::poll`].
pub(crate) struct Attempt {
    tx: TxId,
    /// The actions to grant: the planner's plan, or — adopted at begin —
    /// the engine's. `None` only before begin, in an engine run whose
    /// planner supplied none.
    plan: Option<Vec<PolicyAction>>,
    /// The first action of `plan` not yet granted.
    cursor: usize,
    /// What begin declares to the engine.
    intent: AccessIntent,
    /// Whether the transaction has begun: the engine knows it (in a word
    /// run, `advance` has run), and a refusal must retire it.
    begun: bool,
    /// In a word run: the entities whose words `tx` holds, i.e. the
    /// unlock steps still owed (the engine tracks an engine run's).
    held: Vec<EntityId>,
    /// One-call sections ([`crate::RuntimeConfig::step_yield`]): a
    /// section ends after every grant, and the driver yields.
    one_call: bool,
    /// Past this instant the attempt is abandoned at its next conflict;
    /// `None` is no deadline.
    deadline: Option<Instant>,
    /// Whether `tx`'s waits-for edge is published: by the last
    /// [`Poll::Park`], until the next poll retracts it.
    waiting: bool,
}

/// How an attempt ended, its tally already bumped. The driver decides
/// what happens to the job.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub(crate) enum AttemptEnd {
    /// Committed.
    Committed,
    /// Aborted — a deadlock victim, a transient violation, or a commit
    /// strict certification refused: the job restarts as a fresh
    /// transaction after a backoff.
    Retry,
    /// Refused by a fatal violation: the job is dropped.
    Dropped,
    /// Cut short by the deadline or a halt: the job is dropped.
    Abandoned,
}

/// What a driver does next with an attempt ([`LockService::poll`]).
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub(crate) enum Poll {
    /// One-call sections only: an action was granted. Yield, then poll.
    Yield,
    /// The attempt waits for `entity`, its waits-for edge published and
    /// its steps so far handed to the log: park on `entity`'s stripe at
    /// generation `gen` ([`LockService::park`]), then poll.
    Park { entity: EntityId, gen: u64 },
    /// The attempt is over.
    Over(AttemptEnd),
}

/// Where [`LockService::advance`] left the attempt.
enum Progress {
    /// One-call sections only: an action was granted and its steps
    /// recorded, and the plan goes on.
    Granted,
    /// `entity` is held against the attempt by `holder`. The attempt's
    /// cursor stays on the action, and the next advance re-requests it.
    Wait {
        entity: EntityId,
        holder: TxId,
        /// The entity's stripe generation, read after the conflict was
        /// observed and before it was confirmed. Any release that could
        /// invalidate the conflict bumps the generation strictly after
        /// this read, so parking on `gen` can never miss it.
        gen: u64,
    },
    /// The attempt is over: `true` if it committed, `false` if strict
    /// certification turned its commit into an abort (no commit record,
    /// no visibility flip).
    Done(bool),
    /// The policy refused the attempt. It holds nothing any more: a
    /// begun transaction was aborted by the engine call that met the
    /// refusal, in the same section.
    Refused(PolicyViolation),
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

/// Applies the fatal/transient rule to a refused attempt and bumps the
/// matching tally.
fn classify(tally: &mut Tally, v: &PolicyViolation) -> AttemptEnd {
    if v.is_fatal() {
        tally.rejected += 1;
        AttemptEnd::Dropped
    } else {
        tally.policy_aborts += 1;
        AttemptEnd::Retry
    }
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
    /// Grants, by the run's one authority: lock words in a word run, the
    /// engine in an engine run (the report splits them by the run).
    pub grants: u64,
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
        self.fast_path_fallbacks += other.fast_path_fallbacks;
        self.snapshot_reads += other.snapshot_reads;
    }
}

/// What a worker hands the service with every call: the stamped steps of
/// the attempt it is running, its tallies and the transactions it
/// aborted. `steps` holds one attempt at a time — the worker seals it
/// into its trace run ([`crate::trace::TraceRun::seal`]) whichever way
/// the attempt ends — so the whole buffer is the attempt's certifier batch and its last
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
    /// Every transaction this worker aborted (the report's input to
    /// [`slp_core::is_serializable_with_aborts`]).
    pub aborted: Vec<TxId>,
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
    /// should be impossible — every edge a feed adds touches the feeder),
    /// or when the run has no transaction id left to mint
    /// ([`LockService::out_of_ids`]). Workers treat it like an expired
    /// deadline and drain.
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

/// The run's one grant authority, and the engine beside it. The runner
/// builds a word run only for a [`slp_policies::GrantScope::PerEntity`]
/// engine.
pub(crate) enum Grant {
    /// A word run ([`slp_policies::GrantScope::PerEntity`] engine and
    /// [`crate::RuntimeConfig::grant_fast_path`] on): the per-entity
    /// atomic lock words grant everything, and the engine is only read —
    /// to plan against and to name a refused plan — so it sits in no lock.
    Words {
        engine: Box<dyn PolicyEngine>,
        words: LockWords,
    },
    /// An engine run: the engine grants everything under its write lock;
    /// planners share its read lock.
    Engine(RwLock<Box<dyn PolicyEngine>>),
}

impl Grant {
    /// A word run over a table covering entity ids `0..capacity` if
    /// `word_capacity` is given, else an engine run.
    pub fn new(engine: Box<dyn PolicyEngine>, word_capacity: Option<usize>) -> Self {
        match word_capacity {
            Some(capacity) => Grant::Words {
                engine,
                words: LockWords::new(capacity),
            },
            None => Grant::Engine(RwLock::new(engine)),
        }
    }
}

/// The shared front-end the worker threads drive.
pub(crate) struct LockService {
    grant: Grant,
    stripes: [Stripe; STRIPES],
    /// The run's waits-for table, behind one mutex so that a publish and
    /// its walk are one critical section. Only a conflict touches it.
    waits_for: Mutex<WaitsFor>,
    seq: AtomicU64,
    /// Write-ahead log, when the run is durable. An attempt is handed
    /// over when it retires, its words already free
    /// ([`log`](LockService::log)), so neither the log's mutex nor an
    /// fsync ever sits on a serialization point; stamps — taken while the
    /// words were held — arbitrate the cross-worker byte order on replay.
    wal: Option<Arc<Wal>>,
    /// Online serialization-graph certifier, when the run certifies
    /// ([`CertifyMode::Strict`]). Fed once per retiring attempt — a
    /// read-only job's snapshot reads included, as steps of its trace —
    /// after its words are free and the engine lock is dropped: the stamps
    /// taken at grant time already fix the edge directions, so the
    /// certifier tolerates out-of-order arrival and its lock never sits
    /// on a serialization point. Each feed is certified before the
    /// attempt takes effect ([`certify_strict`](LockService::certify_strict)),
    /// under a [`Handover`] — the latch-and-recover step must be atomic
    /// with the feed — the one lock the run's serial tail shares with the
    /// log's core. Edges are ordered by stamps, not arrival, so the order
    /// in which workers get the graph never changes the verdict.
    certifier: Option<Handover<IncrementalCertifier>>,
    /// Versioned store + commit pipeline when the run serves snapshot
    /// reads ([`crate::RuntimeConfig::snapshot_reads`]), else `None` and
    /// the MVCC paths cost nothing.
    mvcc: Option<MvccState>,
    pub counters: Counters,
    /// Engine sections taken ([`LockService::write_engine`]).
    #[cfg(test)]
    sections: std::sync::atomic::AtomicUsize,
}

impl LockService {
    /// A service granting through `grant`. `wal`, when present, receives
    /// every attempt's steps and every commit. `certify` builds the
    /// online certifier ([`CertifyMode::Off`] costs nothing on the hot
    /// path).
    pub fn new(
        grant: Grant,
        wal: Option<Arc<Wal>>,
        certify: CertifyMode,
        mvcc: Option<MvccState>,
    ) -> Self {
        LockService {
            grant,
            stripes: Default::default(),
            waits_for: Mutex::default(),
            seq: AtomicU64::new(0),
            wal,
            certifier: (certify == CertifyMode::Strict)
                .then(|| Handover::new(IncrementalCertifier::new())),
            mvcc,
            counters: Counters::default(),
            #[cfg(test)]
            sections: std::sync::atomic::AtomicUsize::new(0),
        }
    }

    /// Recovers the engine and the certifier after the run (all workers
    /// joined).
    pub fn into_parts(self) -> (Box<dyn PolicyEngine>, Option<IncrementalCertifier>) {
        let engine = match self.grant {
            Grant::Words { engine, .. } => engine,
            Grant::Engine(engine) => engine.into_inner().expect("engine lock poisoned"),
        };
        (engine, self.certifier.map(Handover::into_inner))
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

    /// The tail every section that recorded steps runs on them
    /// (`recorded`) — once per section, however many calls it made —
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
                if let Grant::Words { words, .. } = &self.grant {
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
    /// [`settle`](LockService::settle), the words already free, and by
    /// [`poll`](LockService::poll) just before its driver parks — an
    /// attempt asleep on a stripe with unlogged steps would hold the log's
    /// watermark, and with it every later commit's durability, for as
    /// long as it sleeps. A
    /// failed log refuses the call at once and the error is dropped here
    /// — the run completes in memory and the failure surfaces in the
    /// report's [`slp_durability::WalSummary`].
    fn log(&self, rec: &mut Recorder, commit: Option<TxId>) {
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
    /// attempt's recorded steps, or a read-only job's snapshot-read
    /// steps, fed the same way; either way the transaction is sealed
    /// after it — commit or abort, it takes no further steps, which is
    /// what makes it truncatable. A snapshot read names the writer it
    /// observed, and that writer was certified here before it became
    /// visible, so the certifier already knows it (checked in debug
    /// builds) and derives the version read from its steps. One graph
    /// acquisition per attempt keeps the certifier off the grant path,
    /// and the certifier orders edges by stamp, so feeding late and in
    /// any order across workers never changes the verdict.
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
    fn certify_strict(&self, tx: TxId, steps: &[Stamped], aborted: bool) -> bool {
        let Some(graph) = &self.certifier else {
            return false;
        };
        let mut cert = graph.lock();
        debug_assert!(
            steps.iter().all(|(_, s)| match s.via {
                Access::Snapshot { observed: Some(x) } => cert.knows(x),
                _ => true,
            }),
            "{tx} read a snapshot of a writer the certifier has not seen"
        );
        cert.observe_trace(steps);
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
            std::thread::sleep(handover::NAP);
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

    /// Starts `tx`'s attempt at `job`: the one way a driver opens one.
    /// The attempt is counted before anything can cut it short, so every
    /// way it ends balances against it; past `deadline`, or with the run
    /// halted, it is abandoned at once. A read-only job in a run with MVCC is served whole from a
    /// snapshot here. Otherwise the job is planned — bare in a word run,
    /// which never writes its engine, and under the engine's *read* lock
    /// in an engine run — and the attempt opened with `one_call`
    /// sections ([`crate::RuntimeConfig::step_yield`]). A word run
    /// refuses, before it takes anything, a plan it cannot grant:
    /// `NoPlan` without one, [`PolicyViolation::Unsupported`] naming the
    /// first action outside the plain lock/access shape otherwise — both
    /// fatal, and counted in [`Tally::fast_path_fallbacks`]. `Err` is the
    /// attempt's end, its tally bumped.
    pub fn start(
        &self,
        planner: &mut dyn ActionPlanner,
        job: &Job,
        tx: TxId,
        one_call: bool,
        deadline: Option<Instant>,
        rec: &mut Recorder,
    ) -> Result<Attempt, AttemptEnd> {
        rec.tally.attempts += 1;
        if self.cut_short(deadline) {
            return Err(self.abandon(deadline, &mut rec.tally));
        }
        if job.read_only && self.mvcc.is_some() {
            // No lock, no engine, no waits-for edge: only a strict
            // certification abort fails a snapshot read.
            return Err(if self.snapshot_read(tx, &job.targets, rec) {
                rec.tally.committed += 1;
                AttemptEnd::Committed
            } else {
                rec.tally.certification_aborts += 1;
                rec.aborted.push(tx);
                AttemptEnd::Retry
            });
        }
        let planned = match &self.grant {
            Grant::Words { engine, .. } => planner.plan(&**engine, job),
            Grant::Engine(engine) => {
                planner.plan(&**engine.read().expect("engine lock poisoned"), job)
            }
        };
        let plan = planned.map_err(|v| classify(&mut rec.tally, &v))?;
        if let Grant::Words { engine, words } = &self.grant {
            let refusal = match &plan {
                None => Some(PolicyViolation::NoPlan(tx)),
                Some(plan) => {
                    fast_plan_mode(words, plan).map(|action| PolicyViolation::Unsupported {
                        policy: engine.name(),
                        action,
                    })
                }
            };
            if let Some(violation) = refusal {
                rec.tally.fast_path_fallbacks += 1;
                return Err(classify(&mut rec.tally, &violation));
            }
        }
        Ok(Attempt {
            tx,
            plan,
            cursor: 0,
            intent: planner.intent(job),
            begun: false,
            held: Vec::new(),
            one_call,
            deadline,
            waiting: false,
        })
    }

    /// Drives the attempt one step of its driver's loop: retracts the
    /// waits-for edge the last [`Poll::Park`] published, advances
    /// ([`advance`](LockService::advance)), and settles what that means.
    /// Every end bumps exactly one tally (the invariant behind
    /// [`crate::RuntimeReport::accounting_balances`]) and puts an aborted
    /// transaction in [`Recorder::aborted`].
    ///
    /// A conflict is the waits-for discipline: count the wait, publish
    /// the edge to the current holder and walk for a cycle — at every
    /// conflict *observation*, retracted before every re-request, so the
    /// edge is live exactly while the driver may be parked. A published
    /// edge through a transaction that is awake (granted, or mid-abort
    /// with its locks released) manufactures phantom cycles for every
    /// other walker, and each needless victim feeds the churn that
    /// creates the next one; publishing before every park with the
    /// current holder keeps detection complete, because whichever
    /// transaction inserts the edge that closes a real cycle sees it.
    /// That requester is the victim (the simulator's rule). Past the
    /// deadline, or with the run halted, the attempt is abandoned — the
    /// clock is read at start and at every conflict, and plans are
    /// finite, so that bounds every wait. Otherwise the steps recorded so
    /// far go to the log — asleep, unlogged stamps would hold the log's
    /// watermark where they are — and the driver parks.
    pub fn poll(&self, at: &mut Attempt, rec: &mut Recorder) -> Poll {
        let tx = at.tx;
        if at.waiting {
            at.waiting = false;
            self.clear_wait(tx);
        }
        let (entity, holder, gen) = match self.advance(at, rec) {
            Progress::Granted => return Poll::Yield,
            Progress::Wait {
                entity,
                holder,
                gen,
            } => (entity, holder, gen),
            Progress::Done(true) => {
                rec.tally.committed += 1;
                return Poll::Over(AttemptEnd::Committed);
            }
            Progress::Done(false) => {
                // Strict certification refused the commit: the locks are
                // free, the commit record stayed out of the log and the
                // status table says aborted.
                rec.tally.certification_aborts += 1;
                rec.aborted.push(tx);
                return Poll::Over(AttemptEnd::Retry);
            }
            Progress::Refused(violation) => {
                if at.begun {
                    rec.aborted.push(tx);
                }
                return Poll::Over(classify(&mut rec.tally, &violation));
            }
        };
        rec.tally.lock_waits += 1;
        let victim = self.note_wait(tx, holder);
        if victim || self.cut_short(at.deadline) {
            self.clear_wait(tx);
            self.abort(at, rec);
            rec.aborted.push(tx);
            return Poll::Over(if victim {
                rec.tally.deadlock_aborts += 1;
                AttemptEnd::Retry
            } else {
                self.abandon(at.deadline, &mut rec.tally)
            });
        }
        self.log(rec, None);
        at.waiting = true;
        Poll::Park { entity, gen }
    }

    /// The attempt the run could mint no id for: counted, and abandoned
    /// with the run halted, as strict certification's backstop halts it —
    /// no later attempt could be numbered either.
    pub fn out_of_ids(&self, rec: &mut Recorder) -> AttemptEnd {
        rec.tally.attempts += 1;
        self.counters.halted.store(true, Ordering::Relaxed);
        self.abandon(None, &mut rec.tally)
    }

    /// Whether an attempt stops here: its deadline has passed, or the run
    /// is halted.
    fn cut_short(&self, deadline: Option<Instant>) -> bool {
        past(deadline) || self.counters.halted.load(Ordering::Relaxed)
    }

    /// The end of an attempt [`cut_short`](LockService::cut_short): only
    /// a passed deadline marks the run timed out, not a halt.
    fn abandon(&self, deadline: Option<Instant>, tally: &mut Tally) -> AttemptEnd {
        if past(deadline) {
            self.counters.timed_out.store(true, Ordering::Relaxed);
        }
        tally.abandoned += 1;
        AttemptEnd::Abandoned
    }

    /// Drives the attempt from where it stands — begin, the plan's
    /// grants from its cursor on, finish — until it is over or must
    /// wait, recording the granted steps into `rec`. The one way a run
    /// reaches its grant authority, and only [`poll`](LockService::poll)
    /// calls it.
    ///
    /// In an engine run all of it is one section under the engine's write
    /// lock: every rule check runs there, and the lock changes hands once
    /// per wake-up of the attempt, not once per action. A refusal aborts
    /// in the engine call that met it, so no lock an attempt took survives
    /// outside a section unless it is waiting. With one-call sections a
    /// section ends after every grant instead, returning
    /// [`Progress::Granted`] so the driver can yield: begin shares its
    /// section with the first grant, and a refusal with its abort.
    ///
    /// A word run walks the same plan over the lock words: a word per
    /// `Lock`, the engine's steps synthesized per `Access` (`read`+`write`,
    /// whatever the job declares, so traces stay step-for-step comparable
    /// across runs), the held words released in ascending order at the end
    /// — the engine is never locked.
    ///
    /// After a section the recorded steps are published once; an attempt
    /// that retired in it runs the retire tail ([`LockService::settle`]).
    fn advance(&self, at: &mut Attempt, rec: &mut Recorder) -> Progress {
        let engine = match &self.grant {
            Grant::Words { words, .. } => return self.advance_words(words, at, rec),
            Grant::Engine(engine) => engine,
        };
        let from = rec.steps.len();
        let progress = self.engine_section(&mut **self.write_engine(engine), at, rec);
        self.publish(at.tx, &rec.steps[from..]);
        match progress {
            Progress::Done(_) => Progress::Done(self.settle(at.tx, rec, false)),
            Progress::Refused(_) if at.begun => {
                self.settle(at.tx, rec, true);
                progress
            }
            progress => progress,
        }
    }

    /// One engine section of the attempt: `begin` if it has not begun,
    /// then the cursor's actions and `finish` — one grant only with
    /// one-call sections. Called under the engine's write lock, which is what
    /// makes stamping the granted steps here legal. A refusal met after
    /// begin is aborted by the same call. `Done` means `finish` retired
    /// the transaction (whether it committed is the retire tail's to
    /// say), and a `Refused` attempt that has begun was aborted here.
    fn engine_section(
        &self,
        engine: &mut dyn PolicyEngine,
        at: &mut Attempt,
        rec: &mut Recorder,
    ) -> Progress {
        let tx = at.tx;
        if !at.begun {
            let engine_plan = match engine.begin(tx, &at.intent) {
                Ok(plan) => plan,
                // The engine never took the transaction on: nothing to retire.
                Err(violation) => return Progress::Refused(violation),
            };
            at.begun = true;
            // The planner's plan wins; a policy that plans at start (rule
            // DT2) supplies one when the planner did not. With neither the
            // pairing is misconfigured, and the just-begun transaction is
            // retired below so the engine holds no planless state.
            at.plan = at.plan.take().or(engine_plan);
        }
        let refusal = loop {
            let Some(plan) = at.plan.as_deref() else {
                break PolicyViolation::NoPlan(tx);
            };
            let Some(&action) = plan.get(at.cursor) else {
                match engine.finish(tx) {
                    Ok(steps) => {
                        self.record(tx, steps, &mut rec.steps);
                        return Progress::Done(true);
                    }
                    Err(violation) => break violation,
                }
            };
            match engine.request(tx, action) {
                PolicyResponse::Granted(steps) => {
                    self.record(tx, steps, &mut rec.steps);
                    rec.tally.grants += 1;
                    at.cursor += 1;
                    if at.one_call {
                        return Progress::Granted;
                    }
                }
                PolicyResponse::Conflict { entity, holder } => {
                    // Read inside the engine section that observed the
                    // conflict: every engine release is recorded in a later
                    // section and bumps after it. (Nested stripe-lock
                    // acquisition is deadlock-free: stripe-lock holders never
                    // take the engine lock.)
                    let gen = self.stripe(entity).lock().gen;
                    return Progress::Wait {
                        entity,
                        holder,
                        gen,
                    };
                }
                PolicyResponse::Violation(violation) => break violation,
            }
        };
        self.record(tx, engine.abort(tx), &mut rec.steps);
        Progress::Refused(refusal)
    }

    /// [`advance`](LockService::advance) in a word run. Nothing is
    /// published until the final unlocks: a word grant never records one.
    fn advance_words(&self, words: &LockWords, at: &mut Attempt, rec: &mut Recorder) -> Progress {
        let tx = at.tx;
        // The engine never learns that the transaction exists — the words
        // are the authority for everything it touches.
        at.begun = true;
        let plan = at
            .plan
            .as_deref()
            .expect("a word run refuses a planless attempt");
        while let Some(&action) = plan.get(at.cursor) {
            match action {
                PolicyAction::Lock(e) => match self.acquire_word(words, e, tx) {
                    Ok(()) => {
                        at.held.push(e);
                        self.record(tx, [Step::lock(LockMode::Exclusive, e)], &mut rec.steps);
                    }
                    Err((holder, gen)) => {
                        return Progress::Wait {
                            entity: e,
                            holder,
                            gen,
                        }
                    }
                },
                PolicyAction::Access(e) => {
                    self.record(tx, [Step::read(e), Step::write(e)], &mut rec.steps);
                }
                _ => unreachable!("a word run admits only Lock/Access plans"),
            }
            rec.tally.grants += 1;
            at.cursor += 1;
            if at.one_call {
                return Progress::Granted;
            }
        }
        let from = rec.steps.len();
        self.record_word_unlocks(at, &mut rec.steps);
        self.publish(tx, &rec.steps[from..]);
        Progress::Done(self.settle(tx, rec, false))
    }

    /// Aborts a waiting attempt (a deadlock victim, or one cut short by
    /// the deadline or a halt), recording the unlocks it still held, in
    /// one section of its own, then runs the retire tail.
    fn abort(&self, at: &mut Attempt, rec: &mut Recorder) {
        let tx = at.tx;
        let from = rec.steps.len();
        match &self.grant {
            Grant::Words { .. } => self.record_word_unlocks(at, &mut rec.steps),
            // The write guard lives until the statement ends: the abort's
            // steps are stamped under it.
            Grant::Engine(engine) => {
                self.record(tx, self.write_engine(engine).abort(tx), &mut rec.steps)
            }
        }
        self.publish(tx, &rec.steps[from..]);
        self.settle(tx, rec, true);
    }

    /// Records a word-run attempt's final unlocks: its held words in
    /// ascending entity order, matching the engine's emission — stamped
    /// before [`publish`](LockService::publish) frees them, so the next
    /// holder's acquire stamp lands strictly later.
    fn record_word_unlocks(&self, at: &mut Attempt, out: &mut Vec<Stamped>) {
        at.held.sort_unstable();
        let unlocks = at.held.drain(..);
        self.record(
            at.tx,
            unlocks.map(|e| Step::unlock(LockMode::Exclusive, e)),
            out,
        );
    }

    /// An engine run's write lock on `engine`: one section. In tests it
    /// also counts the sections taken, which is how the section
    /// boundaries are pinned.
    fn write_engine<'a>(
        &self,
        engine: &'a RwLock<Box<dyn PolicyEngine>>,
    ) -> RwLockWriteGuard<'a, Box<dyn PolicyEngine>> {
        #[cfg(test)]
        self.sections.fetch_add(1, Ordering::Relaxed);
        engine.write().expect("engine lock poisoned")
    }

    /// The retire tail, run once the attempt's last unlocks are recorded
    /// and published — from here on `tx` holds nothing: certify the whole
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
    fn settle(&self, tx: TxId, rec: &mut Recorder, aborting: bool) -> bool {
        let certified_out = self.certify_strict(tx, &rec.steps, aborting);
        let committed = !aborting && !certified_out;
        self.log(rec, committed.then_some(tx));
        if let Some(m) = &self.mvcc {
            if committed {
                m.pipeline.commit(tx);
            } else {
                m.pipeline.abort(tx);
            }
        }
        committed
    }

    /// Serves a read-only job from an MVCC snapshot: captures a read view
    /// from the commit pipeline's published clock without a lock
    /// (claiming a dense block of trace stamps for the reads), scans
    /// version chains for the visible version of each target, and records
    /// the observations as stamped snapshot-read steps — **without ever
    /// touching the policy engine, the lock table, or a parking stripe**.
    /// Those steps are the read's only record: the log and the certifier
    /// both take them. Returns `false` when strict certification
    /// recovered by retracting the reader (the caller retries with a
    /// fresh snapshot).
    fn snapshot_read(&self, tx: TxId, targets: &[EntityId], rec: &mut Recorder) -> bool {
        let m = self
            .mvcc
            .as_ref()
            .expect("snapshot read without an MVCC store");
        let trace = &mut rec.steps;
        let snap = m.pipeline.capture(targets.len(), |n| {
            self.seq.fetch_add(n as u64, Ordering::Relaxed)
        });
        let tst = m.pipeline.status_table();
        for (i, &entity) in targets.iter().enumerate() {
            let obs = m.store.read(entity, &snap, tst, VisibilityRule::Correct);
            trace.push((
                snap.base_stamp + i as u64,
                ScheduledStep::snapshot_read(tx, entity, obs.observed),
            ));
        }
        rec.tally.snapshot_reads += targets.len() as u64;
        // Reader steps are logged (the recovered trace must stay dense)
        // but a read-only transaction needs no commit record.
        self.log(rec, None);
        !self.certify_strict(tx, &rec.steps, false)
    }

    /// How many stamps the run has drawn: the number of steps its workers
    /// recorded, and one past the newest stamp.
    pub fn stamps_drawn(&self) -> u64 {
        self.seq.load(Ordering::Relaxed)
    }

    /// Whether every lock word is free (end-of-run quiescence — vacuously
    /// true without a word table).
    pub fn words_quiescent(&self) -> bool {
        match &self.grant {
            Grant::Words { words, .. } => words.quiescent(),
            Grant::Engine(_) => true,
        }
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
    fn note_wait(&self, tx: TxId, holder: TxId) -> bool {
        self.waits_for().note(tx, holder)
    }

    /// Clears `tx`'s waits-for edge (its blocked request was granted, or
    /// it aborted).
    fn clear_wait(&self, tx: TxId) {
        self.waits_for().clear(tx);
    }

    fn waits_for(&self) -> MutexGuard<'_, WaitsFor> {
        self.waits_for.lock().expect("waits-for table poisoned")
    }
}

#[cfg(test)]
pub(crate) mod tests {
    use super::*;
    use slp_policies::{PolicyConfig, PolicyKind, PolicyRegistry};

    /// A 2PL service over `entities`, driven by hand: a word run iff
    /// `words`.
    pub(crate) fn two_phase(
        entities: &[EntityId],
        words: bool,
        wal: Option<Arc<Wal>>,
    ) -> LockService {
        let engine = PolicyRegistry::new()
            .build(PolicyKind::TwoPhase, &PolicyConfig::flat(entities.to_vec()))
            .expect("2PL builds");
        let grant = Grant::new(engine, words.then_some(entities.len()));
        LockService::new(grant, wal, CertifyMode::Off, None)
    }

    /// A 2PL service over `EntityId(0)` alone — stripe 0.
    fn service_over_e0(words: bool) -> LockService {
        two_phase(&[EntityId(0)], words, None)
    }

    /// A planner that hands out one fixed plan (`None`: no plan).
    pub(crate) struct Scripted(pub Option<Vec<PolicyAction>>);

    impl ActionPlanner for Scripted {
        fn intent(&self, _: &Job) -> AccessIntent {
            AccessIntent::empty()
        }
        fn plan(
            &mut self,
            _: &dyn PolicyEngine,
            _: &Job,
        ) -> Result<Option<Vec<PolicyAction>>, PolicyViolation> {
            Ok(self.0.clone())
        }
    }

    /// `tx`'s attempt at `planner`'s plan, started with a fresh recorder
    /// and a deadline a minute away.
    pub(crate) fn started(
        service: &LockService,
        tx: TxId,
        planner: &mut dyn ActionPlanner,
        one_call: bool,
    ) -> (Attempt, Recorder) {
        let mut rec = Recorder::default();
        let deadline = Some(Instant::now() + Duration::from_secs(60));
        let job = Job::access(Vec::new());
        match service.start(planner, &job, tx, one_call, deadline, &mut rec) {
            Ok(at) => (at, rec),
            Err(end) => panic!("{tx:?} ended at start: {end:?}"),
        }
    }

    /// `tx`'s attempt over `plan`, started with a fresh recorder.
    pub(crate) fn opened(
        service: &LockService,
        tx: TxId,
        plan: &[PolicyAction],
        one_call: bool,
    ) -> (Attempt, Recorder) {
        started(service, tx, &mut Scripted(Some(plan.to_vec())), one_call)
    }

    /// One poll of `at`, which must grant an action.
    pub(crate) fn grant(service: &LockService, at: &mut Attempt, rec: &mut Recorder) {
        assert_eq!(service.poll(at, rec), Poll::Yield);
    }

    /// One poll of `at`, which must commit.
    pub(crate) fn commit(service: &LockService, at: &mut Attempt, rec: &mut Recorder) {
        assert_eq!(service.poll(at, rec), Poll::Over(AttemptEnd::Committed));
    }

    /// The stripe generation `e` parks on.
    pub(crate) fn stripe_gen(service: &LockService, e: EntityId) -> u64 {
        service.stripe(e).lock().gen
    }

    /// How many engine sections `service` has taken so far.
    pub(crate) fn sections(service: &LockService) -> usize {
        service.sections.load(Ordering::Relaxed)
    }

    /// The make-way rule on the certifier graph ([`Handover::lock`]):
    /// once a strict feeder has spent its polls and queued on the graph,
    /// a later arrival stands aside until the queued one has been
    /// through — it never takes the graph the sleeper was just woken for.
    #[test]
    fn a_strict_feeder_never_overtakes_a_queued_one() {
        let graph = Handover::new(IncrementalCertifier::new());
        let order = Mutex::new(Vec::new());
        let enter = |name: &'static str| {
            let _cert = graph.lock();
            order.lock().expect("order").push(name);
        };
        std::thread::scope(|s| {
            let held = graph.lock();
            s.spawn(|| enter("queued"));
            while graph.queued() == 0 {
                std::thread::yield_now();
            }
            s.spawn(|| enter("late"));
            // Give the late arrival every chance to barge: it is polling
            // (or napping) by now, and the graph is about to come free.
            std::thread::sleep(handover::NAP * 20);
            drop(held);
        });
        assert_eq!(*order.lock().expect("order"), ["queued", "late"]);
        assert_eq!(graph.queued(), 0);
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
            Grant::new(engine, Some(1)),
            Some(Arc::new(wal)),
            CertifyMode::Off,
            Some(MvccState::default()),
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
        let (mut at, mut rec) = opened(&service, tx, &plan, true);
        for _ in plan {
            grant(&service, &mut at, &mut rec);
        }
        assert!(
            seen.lock().expect("seen").is_empty(),
            "a grant logs nothing"
        );
        commit(&service, &mut at, &mut rec);

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
    /// next lock acquisition after the wait began. We then hold the lock
    /// past the parker's deadline and bump the generation before
    /// releasing: `wait_timeout` must reacquire the mutex before
    /// returning, so the parker observes `timed_out()` with the
    /// generation already moved — exactly a wakeup racing the timeout,
    /// which must count no timeout. (An implementation that reports the
    /// late notify as a wakeup instead re-checks the generation and exits
    /// without counting, so the zero holds either way.) The parker is the
    /// stripe's one sleeper while it waits, and none once it is out.
    ///
    /// Returns `false`, with nothing raced, when this thread was
    /// descheduled long enough for the timeout to expire before it took
    /// the stripe lock: the parker has then signed off (no sleeper on
    /// entry) with the generation unmoved — a genuine timeout, which must
    /// count exactly one.
    fn race_timeout_against_wakeup(service: &LockService, timeout: Duration) -> bool {
        let stripe = &service.stripes[0];
        let seen = stripe.lock().gen;
        let parks_before = service.counters.parks.load(Ordering::Relaxed);
        let timeouts_before = service.counters.park_timeouts.load(Ordering::Relaxed);
        let raced = std::thread::scope(|s| {
            let parker = s.spawn(|| service.park(EntityId(0), seen, timeout));
            while service.counters.parks.load(Ordering::Relaxed) == parks_before {
                std::thread::yield_now();
            }
            let raced = {
                let mut state = stripe.lock();
                let raced = state.sleepers == 1;
                if raced {
                    std::thread::sleep(timeout * 2); // outlive the parker's timeout
                    state.gen += 1;
                } else {
                    // Not a parker that never signed up: it has come and
                    // gone, its timeout already counted.
                    let counted = service.counters.park_timeouts.load(Ordering::Relaxed);
                    assert_eq!(counted, timeouts_before + 1, "signed up before its wait");
                }
                raced
            };
            stripe.cv.notify_all();
            parker.join().expect("parker panicked");
            raced
        });
        assert_eq!(stripe.lock().sleepers, 0, "signed off on its way out");
        let counted = service.counters.park_timeouts.load(Ordering::Relaxed) - timeouts_before;
        assert_eq!(counted, u64::from(!raced), "raced {raced}");
        raced
    }

    /// Regression: a park timeout that races a wakeup must not be counted
    /// as lost-wakeup evidence (the counter used to bump on every
    /// timed-out `wait_timeout`, even with the generation already moved).
    /// The race itself asserts the count.
    #[test]
    fn park_timeout_racing_a_wakeup_is_not_counted() {
        let service = service_over_e0(false);
        while !race_timeout_against_wakeup(&service, Duration::from_millis(40)) {}
    }

    /// The same race hammered on one stripe, park timeout shorter than
    /// the hold time on every iteration: 25 raced iterations, and not one
    /// of them counts a timeout — only the genuine ones between them do.
    #[test]
    fn park_timeout_hammer_stays_clean() {
        let service = service_over_e0(false);
        let mut genuine = 0;
        for _ in 0..25 {
            while !race_timeout_against_wakeup(&service, Duration::from_millis(4)) {
                genuine += 1;
            }
        }
        let c = &service.counters;
        assert_eq!(c.park_timeouts.load(Ordering::Relaxed), genuine);
        assert_eq!(c.parks.load(Ordering::Relaxed), 25 + genuine);
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
        let timeout = Duration::from_secs(10);
        for words in [true, false] {
            let service = service_over_e0(words);
            let (mut holder, mut rec) = opened(&service, TxId(1), &[PolicyAction::Lock(e)], true);
            grant(&service, &mut holder, &mut rec);
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
                commit(&service, &mut holder, &mut rec);
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

    /// The deadline rule at a conflict, once per kind of run: an attempt
    /// whose deadline has passed runs until it meets a held lock, and is
    /// abandoned there — counted, aborted, the run marked timed out —
    /// holding nothing: the next transaction takes its entity and
    /// commits.
    #[test]
    fn an_attempt_past_its_deadline_is_abandoned_at_its_first_conflict() {
        let (a, b) = (EntityId(0), EntityId(1));
        for words in [true, false] {
            let service = two_phase(&[a, b], words, None);
            let (mut holder, mut holder_rec) =
                opened(&service, TxId(1), &[PolicyAction::Lock(b)], true);
            grant(&service, &mut holder, &mut holder_rec);

            let plan = [PolicyAction::Lock(a), PolicyAction::Lock(b)];
            let (mut late, mut rec) = opened(&service, TxId(2), &plan, true);
            late.deadline = Some(Instant::now() - Duration::from_millis(1));
            grant(&service, &mut late, &mut rec);
            assert_eq!(
                service.poll(&mut late, &mut rec),
                Poll::Over(AttemptEnd::Abandoned),
                "words {words}"
            );
            assert_eq!((rec.tally.abandoned, rec.tally.lock_waits), (1, 1));
            assert_eq!(rec.aborted, [TxId(2)], "words {words}");
            assert!(service.counters.timed_out.load(Ordering::Relaxed));

            let (mut next, mut next_rec) = opened(&service, TxId(3), &plan[..1], true);
            grant(&service, &mut next, &mut next_rec);
            commit(&service, &mut next, &mut next_rec);
            commit(&service, &mut holder, &mut holder_rec);
            assert!(service.words_quiescent(), "words {words}");
        }
    }

    /// The no-lost-wakeup handshake, once per kind of run: tx1 holds `e`;
    /// tx2's advance waits and names tx1 and a generation; tx1 finishes
    /// (word freed or engine entry dropped, *then* generation bumped);
    /// parking on the stale generation falls through at once; the
    /// re-request is granted with a stamp above tx1's unlock.
    #[test]
    fn a_conflict_generation_never_outlives_the_release() {
        let e = EntityId(0);
        let plan = [PolicyAction::Lock(e)];
        for words in [true, false] {
            let service = service_over_e0(words);
            // One recorder per attempt, as if two workers ran them.
            let (mut tx1, mut rec1) = opened(&service, TxId(1), &plan, true);
            let (mut tx2, mut rec2) = opened(&service, TxId(2), &plan, true);
            grant(&service, &mut tx1, &mut rec1);
            let Progress::Wait {
                entity,
                holder,
                gen,
            } = service.advance(&mut tx2, &mut rec2)
            else {
                panic!("words {words}: a held lock must conflict");
            };
            assert_eq!((entity, holder), (e, TxId(1)));

            commit(&service, &mut tx1, &mut rec1);
            let (unlock_stamp, unlock) = *rec1.steps.last().expect("tx1 recorded steps");
            assert!(unlock.step.is_unlock());

            service.park(e, gen, Duration::from_secs(10));
            let c = &service.counters;
            assert_eq!(c.parks.load(Ordering::Relaxed), 0, "fell through");
            assert_eq!(c.park_timeouts.load(Ordering::Relaxed), 0);
            assert_eq!(service.stripes[0].lock().sleepers, 0, "never signed up");

            grant(&service, &mut tx2, &mut rec2);
            let (lock_stamp, lock) = *rec2.steps.last().expect("tx2 recorded its lock");
            assert_eq!(
                (lock.tx, lock.step),
                (TxId(2), Step::lock(LockMode::Exclusive, e))
            );
            assert!(
                lock_stamp > unlock_stamp,
                "acquire stamped after the release"
            );
            commit(&service, &mut tx2, &mut rec2);
            assert!(service.words_quiescent());
            // Grants are tallied by the worker that was granted them.
            for tally in [rec1.tally, rec2.tally] {
                assert_eq!(tally.grants, 1, "words {words}");
                assert_eq!(tally.fast_path_fallbacks, 0);
            }
        }
    }
}
