//! The runtime proper: worker threads draining a job queue through the
//! sharded lock service (`service.rs`).
//!
//! A worker is a thread driver. It claims a job, starts an attempt with
//! its own (thread-local) [`ActionPlanner`], and polls the attempt: it
//! yields when the service says yield, parks on the contended entity's
//! stripe when it says park, and seals the attempt's steps into its trace
//! when it is over. The service decides the rest — the waits-for victim
//! rule (the simulator's), the fatal/transient split of a violation
//! ([`slp_policies::PolicyViolation::is_fatal`]), the wall-clock guard
//! that bounds mutant livelocks, and every tally. An aborted job restarts
//! as a fresh transaction after a growing backoff; a dropped or abandoned
//! one is done.

use crate::report::{Certification, LatencySummary, RuntimeReport};
use crate::scheduler::{SchedMode, WaveDispatch, WavePlan};
use crate::service::{AttemptEnd, Grant, LockService, MvccState, Poll, Recorder, Tally};
use crate::trace::TraceRun;
use slp_core::{Schedule, SequenceError, StructuralState, TxId};
use slp_durability::{Store, Wal, WalConfig, WalError};
use slp_policies::{
    initial_state, planner_for, ActionPlanner, GrantScope, Job, PolicyConfig, PolicyEngine,
    PolicyKind, PolicyRegistry, RegistryError,
};
use std::sync::atomic::{AtomicU64, AtomicUsize, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

/// Builds one worker's planner. Workers construct their planner inside
/// their own thread, so the planner itself need not be `Send`; the factory
/// is shared and must be. The worker index parameter lets probe planners
/// decorrelate their choices across workers (see [`slp_policies::probes`]).
pub type PlannerFactory = Arc<dyn Fn(usize) -> Box<dyn ActionPlanner> + Send + Sync>;

/// Online serializability certification mode
/// ([`RuntimeConfig::certify_online`]).
///
/// The certifier maintains the serialization graph `D(S)` incrementally
/// as grants stream in (edge insert + cycle check, committed-prefix
/// truncation for bounded memory) — the live counterpart of replaying
/// [`RuntimeReport::schedule`] through [`slp_core::is_serializable`]
/// after the run. The verdict lands in [`RuntimeReport::certification`].
#[derive(Clone, Copy, PartialEq, Eq, Debug, Default)]
pub enum CertifyMode {
    /// No certifier: zero overhead (the default).
    #[default]
    Off,
    /// Certify and recover: every commit (and snapshot read) is certified
    /// *before* it takes effect; one that would close a
    /// serialization-graph cycle is aborted instead — its node retracted,
    /// its commit record withheld — and the run continues. Aborts are
    /// counted in [`RuntimeReport::certification_aborts`] and the first
    /// caught cycle is preserved in the report's
    /// [`Certification::violation`].
    Strict,
}

/// Tuning knobs for a run.
#[derive(Clone, Copy, Debug)]
pub struct RuntimeConfig {
    /// Worker threads (≥ 1).
    pub workers: usize,
    /// Park timeout: the backstop against stale waits-for edges — a parked
    /// worker re-requests (and re-runs deadlock detection) at least this
    /// often even if no wakeup arrives. Default **1 ms**. Timeout
    /// firings are counted in [`RuntimeReport::park_timeouts`].
    pub park_timeout: Duration,
    /// Wall-clock guard: past this deadline workers abandon their jobs and
    /// drain (guards against livelock in mutant policies, the threaded
    /// analogue of the simulator's `max_ticks`). A guard no [`Instant`]
    /// can reach, such as [`Duration::MAX`], is no deadline.
    pub max_wall: Duration,
    /// Yield the OS scheduler after each granted action. Costs throughput,
    /// buys interleaving diversity — on by default because the runtime's
    /// first duty here is producing adversarial traces to verify. In an
    /// engine run it also sets the section: with it on, a write section
    /// ends after every grant — begin shares its section with the first
    /// grant, and a refusal with its abort; with it off, an attempt holds
    /// one write section from begin through its grants until it finishes
    /// or must wait — so an attempt that meets no held lock runs whole,
    /// and one whose transactions do no work between actions never waits
    /// at all.
    pub step_yield: bool,
    /// Online serializability certification ([`CertifyMode::Off`] by
    /// default).
    pub certify_online: CertifyMode,
    /// Serve read-only jobs from MVCC snapshots: writers install
    /// versions at grant time and flip visibility at commit, readers
    /// capture a snapshot and never touch the lock service. Off by
    /// default.
    pub snapshot_reads: bool,
    /// Whether the run builds the per-entity lock-word table — that is
    /// all this knob selects. With a table (and only engines whose
    /// grants are purely per-entity get one:
    /// [`slp_policies::GrantScope::PerEntity`], e.g. 2PL) the run is a
    /// *word run*: each grant is a CAS on the entity's own atomic word
    /// and the engine write lock is never taken. A plan outside the plain
    /// lock/access shape (donations, locked points, structural ops,
    /// relocks, uncovered entities) is refused as a fatal violation,
    /// counted in [`RuntimeReport::fast_path_fallbacks`] and in
    /// [`RuntimeReport::rejected`]; run such planners with the knob off.
    /// Without a table the run is an *engine run*: the engine grants
    /// everything and no word exists. Both go through the same attempt
    /// loop and park the same way. On by default — for
    /// [`GrantScope::Global`] engines it changes nothing. Off is the
    /// engine-only reference the word path is measured and checked
    /// against (`runtime.engine_path_jobs_per_s`; width-1 schedules are
    /// byte-identical on and off).
    pub grant_fast_path: bool,
    /// The admission-stage batch scheduler ([`SchedMode::Off`] by
    /// default): [`SchedMode::Waves`] layers the job queue into
    /// conflict-free waves from the declared access intents (structural
    /// jobs fence a wave boundary) and dispatches wave by wave, keeping
    /// parking as the safety net; [`SchedMode::Deterministic`]
    /// additionally pins transaction ids and the merged trace to
    /// admission order so the run is byte-identical across worker
    /// counts (and ignores [`snapshot_reads`](RuntimeConfig::snapshot_reads)
    /// — snapshot contents are timing-dependent by design).
    pub scheduler: SchedMode,
}

impl Default for RuntimeConfig {
    fn default() -> Self {
        RuntimeConfig {
            workers: 4,
            park_timeout: Duration::from_millis(1),
            max_wall: Duration::from_secs(30),
            step_yield: true,
            certify_online: CertifyMode::Off,
            snapshot_reads: false,
            grant_fast_path: true,
            scheduler: SchedMode::Off,
        }
    }
}

impl RuntimeConfig {
    /// A default config with `workers` threads.
    pub fn with_workers(workers: usize) -> Self {
        RuntimeConfig {
            workers,
            ..Default::default()
        }
    }
}

/// A concurrent transaction service over one policy engine.
///
/// ```
/// use slp_core::EntityId;
/// use slp_policies::{Job, PolicyConfig, PolicyKind};
/// use slp_runtime::{Runtime, RuntimeConfig};
///
/// let pool: Vec<EntityId> = (0..8).map(EntityId).collect();
/// let jobs: Vec<Job> = (0..12)
///     .map(|i| Job::access(vec![pool[i % 8], pool[(i + 3) % 8]]))
///     .collect();
/// let mut rt = Runtime::new(PolicyKind::TwoPhase, &PolicyConfig::flat(pool)).unwrap();
/// let report = rt.run(&jobs, &RuntimeConfig::with_workers(2));
/// assert_eq!(report.committed, 12);
/// assert!(report.schedule.is_legal());
/// assert!(slp_core::is_serializable(&report.schedule));
/// ```
pub struct Runtime {
    engine: Option<Box<dyn PolicyEngine>>,
    name: &'static str,
    pool: Vec<slp_core::EntityId>,
    planner_factory: PlannerFactory,
}

impl Runtime {
    /// A runtime for `kind`, with the engine from the default registry and
    /// the policy's standard planner.
    pub fn new(kind: PolicyKind, config: &PolicyConfig) -> Result<Runtime, RegistryError> {
        let engine = PolicyRegistry::new().build(kind, config)?;
        Ok(Runtime {
            name: engine.name(),
            engine: Some(engine),
            pool: config.pool.clone(),
            planner_factory: Arc::new(move |_worker| planner_for(kind)),
        })
    }

    /// Replaces the planner factory (probe planners for the mutant
    /// negative controls).
    pub fn set_planner_factory(&mut self, factory: PlannerFactory) {
        self.planner_factory = factory;
    }

    /// The wrapped engine (between runs).
    pub fn engine(&self) -> &dyn PolicyEngine {
        self.engine.as_deref().expect("engine present between runs")
    }

    /// Interns a fresh entity name through the engine (DDAG insert
    /// workloads); `None` if the policy has no growing universe.
    pub fn intern(&mut self, name: &str) -> Option<slp_core::EntityId> {
        self.engine
            .as_mut()
            .expect("engine present between runs")
            .intern_entity(name)
    }

    /// The initial structural state for properness replay
    /// ([`slp_policies::initial_state`]). Captured automatically at the
    /// start of every [`run`](Runtime::run).
    pub fn initial_state(&self) -> StructuralState {
        initial_state(self.engine(), &self.pool)
    }

    /// Runs `jobs` to completion on `config.workers` threads and returns
    /// the report with the merged, totally ordered trace (the workers'
    /// stamp-ordered runs, merged — not sorted — after the join).
    pub fn run(&mut self, jobs: &[Job], config: &RuntimeConfig) -> RuntimeReport {
        self.run_inner(jobs, config, None, 1)
    }

    /// A write-ahead log over `store` seeded with this runtime's current
    /// initial state: the base checkpoint recovery replays from is exactly
    /// the state [`run_durable`](Runtime::run_durable) will start in. The
    /// store must be empty — one log records one run.
    pub fn create_wal(&self, store: Box<dyn Store>, config: WalConfig) -> Result<Wal, WalError> {
        Wal::create(store, config, &self.initial_state())
    }

    /// [`run`](Runtime::run), with every granted step and commit mirrored
    /// into `wal` (created by [`create_wal`](Runtime::create_wal) on the
    /// same runtime). A worker hands an attempt to the log once, when it
    /// retires and holds no lock any more — its steps and, if it
    /// committed, its commit record in one append, before the commit
    /// becomes visible to snapshots — and hands over what it has so far
    /// before it parks. Appends are group committed, checkpoints are
    /// automatic, and the log is flushed when the workers drain;
    /// [`RuntimeReport::wal`] carries the counters. A crash loses the
    /// unsynced tail and the attempts in flight since their last park.
    /// After a crash, rebuild the durable prefix with
    /// [`fn@slp_durability::recover`] — the crash-recovery suites and
    /// `examples/crash_recovery.rs` walk the full cycle.
    ///
    /// A log failure mid-run does not stop the run: logging is abandoned,
    /// the in-memory result is complete, and the summary reports
    /// [`failed`](slp_durability::WalSummary::failed).
    pub fn run_durable(
        &mut self,
        jobs: &[Job],
        config: &RuntimeConfig,
        wal: Arc<Wal>,
    ) -> RuntimeReport {
        self.run_inner(jobs, config, Some(wal), 1)
    }

    /// The run, its shared transaction counter starting at `first_tx`
    /// (1; the id-bound tests start it next to the bound).
    fn run_inner(
        &mut self,
        jobs: &[Job],
        config: &RuntimeConfig,
        wal: Option<Arc<Wal>>,
        first_tx: u64,
    ) -> RuntimeReport {
        let initial = self.initial_state();
        let engine = self.engine.take().expect("engine present between runs");
        let scope = engine.grant_scope();
        // Deterministic mode pins the trace to admission order; snapshot
        // contents are timing-dependent by design (a reader observes
        // whatever committed first), so the read path stays locked there.
        let snapshot_reads = config.snapshot_reads && config.scheduler != SchedMode::Deterministic;
        let mvcc = snapshot_reads.then(MvccState::default);
        // Every minted id must fit what the run keeps per transaction: a
        // slot of the MVCC status table when the run has one, and
        // otherwise a lock word's `u32`, where 0 means free.
        let tx_bound = if snapshot_reads {
            slp_mvcc::TX_SLOTS as u64
        } else {
            u64::from(u32::MAX)
        };
        // A word run only when the knob is on AND the engine promises
        // per-entity grants; its table directly indexes the flat pool
        // (per-entity engines have a fixed universe).
        let word_capacity = (config.grant_fast_path && scope == GrantScope::PerEntity)
            .then(|| self.pool.iter().map(|e| e.0 as usize + 1).max())
            .flatten();
        let word_run = word_capacity.is_some();
        let grant = Grant::new(engine, word_capacity);
        let service = LockService::new(grant, wal.clone(), config.certify_online, mvcc);
        // The batch scheduler: layer the whole admission batch into
        // conflict-free waves from the intents worker 0's planner
        // declares. In deterministic mode, global-scope engines (whose
        // lock footprint may exceed the declared intent) execute each
        // wave serially in admission order; per-entity engines run waves
        // concurrently — their plain plans cover exactly the declared
        // set, so waves are genuinely conflict-free.
        let wave_plan = (config.scheduler != SchedMode::Off)
            .then(|| WavePlan::build(jobs, (self.planner_factory)(0).as_ref()));
        let waves = wave_plan.as_ref().map(|plan| {
            let serial =
                config.scheduler == SchedMode::Deterministic && scope == GrantScope::Global;
            WaveDispatch::new(plan.waves.clone(), serial)
        });
        let start = Instant::now();
        let workers = config.workers.max(1);
        let run = Run {
            service: &service,
            jobs,
            config,
            // A deadline `Instant` cannot hold is no deadline.
            deadline: start.checked_add(config.max_wall),
            planners: &self.planner_factory,
            cursor: AtomicUsize::new(0),
            waves,
            next_tx: AtomicU64::new(first_tx),
            tx_bound,
            det_jobs: (config.scheduler == SchedMode::Deterministic).then_some(jobs.len() as u32),
        };
        let outputs: Vec<WorkerOutput> = std::thread::scope(|scope| {
            let run = &run;
            let handles: Vec<_> = (0..workers)
                .map(|w| scope.spawn(move || worker_loop(run, w)))
                .collect();
            handles
                .into_iter()
                .map(|h| h.join().expect("worker thread panicked"))
                .collect()
        });
        let elapsed = start.elapsed();
        // Every exit path of an attempt releases the words it held
        // (commit, abort, deadline, certification abort) — a word still
        // held after the workers joined is a leaked lock.
        assert!(
            service.words_quiescent(),
            "lock words must all be free once the workers drain"
        );

        // End-of-run barrier: push the final (partial) group to disk and
        // capture the log's counters. A store that died mid-run reports
        // `failed` here; the in-memory result below is still complete.
        let wal_summary = wal.map(|wal| {
            let _ = wal.flush();
            wal.summary()
        });

        let mut runs = Vec::with_capacity(workers);
        let mut latencies: Vec<u64> = Vec::new();
        let mut aborted: Vec<TxId> = Vec::new();
        let mut tally = Tally::default();
        for out in outputs {
            runs.push(out.trace.into_chunks());
            latencies.extend(out.latencies_us);
            aborted.extend(out.aborted);
            tally.add(&out.tally);
        }
        // The one trace assembly: each worker's run is ascending in the
        // stamps it drew, so the total order is a merge — which consumes
        // (and frees) the runs chunk by chunk and succeeds only if it saw
        // every stamp from 0 exactly once. A gap or a duplicate is a
        // recorder bug; steps lost off the *end* of the trace would leave
        // no gap, so the length is held against the stamp counter too.
        let mut schedule = match Schedule::from_sequenced_runs(runs) {
            Ok(schedule) => schedule,
            // No step was ever granted (e.g. an already-expired deadline).
            Err(SequenceError::Empty) => Schedule::empty(),
            Err(e) => panic!("worker stamps are dense and unique by construction: {e}"),
        };
        assert_eq!(
            schedule.len() as u64,
            service.stamps_drawn(),
            "every step a worker recorded must reach the schedule"
        );
        if let Some(n) = run.det_jobs.filter(|&n| n > 0) {
            // Deterministic renumbering: regroup the trace per job in
            // admission order (the deterministic tx ids encode the job
            // index), each job's steps staying in stamp order — the sort
            // is stable. Conflicting transactions are wave-ordered —
            // waves are completion barriers, so their steps never trade
            // places here; only non-conflicting steps are reordered, and
            // the result is conflict-equivalent to the executed
            // interleaving but byte-identical across worker counts.
            let mut steps = schedule.steps().to_vec();
            steps.sort_by_key(|s| (s.tx.0 - 1) % n);
            schedule = Schedule::from_steps(steps);
        }
        let c = &service.counters;
        let mut report = RuntimeReport {
            policy: self.name,
            workers,
            committed: tally.committed,
            policy_aborts: tally.policy_aborts,
            deadlock_aborts: tally.deadlock_aborts,
            certification_aborts: tally.certification_aborts,
            rejected: tally.rejected,
            abandoned: tally.abandoned,
            attempts: tally.attempts,
            lock_waits: tally.lock_waits,
            grants: tally.grants,
            // A run has one grant authority, so its grants all went one way.
            fast_path_grants: if word_run { tally.grants } else { 0 },
            slow_path_grants: if word_run { 0 } else { tally.grants },
            fast_path_fallbacks: tally.fast_path_fallbacks,
            parks: c.parks.load(Ordering::Relaxed),
            park_timeouts: c.park_timeouts.load(Ordering::Relaxed),
            snapshot_reads: tally.snapshot_reads,
            wave_widths: wave_plan.as_ref().map_or_else(Vec::new, |p| {
                p.waves.iter().map(|w| w.len() as u32).collect()
            }),
            sched_parks_avoided: wave_plan.as_ref().map_or(0, |p| p.conflict_edges),
            elapsed,
            timed_out: c.timed_out.load(Ordering::Relaxed),
            schedule,
            initial,
            aborted,
            latency: LatencySummary::from_micros(latencies),
            wal: wal_summary,
            certification: None,
        };
        let (engine, certifier) = service.into_parts();
        self.engine = Some(engine);
        report.certification = certifier.map(|cert| Certification {
            violation: cert.first_violation().cloned(),
            stats: cert.stats(),
        });
        report
    }
}

/// What one worker brings home: its run of the sequence-stamped trace,
/// the latencies of the jobs it committed, the transactions it aborted
/// (the report's input to [`slp_core::is_serializable_with_aborts`]) and
/// its tallies.
struct WorkerOutput {
    trace: TraceRun,
    latencies_us: Vec<u64>,
    aborted: Vec<TxId>,
    tally: Tally,
}

/// What every worker of one run borrows: the service, the jobs and how
/// they are claimed, how transaction ids are minted, and the run's
/// config, deadline and planners.
struct Run<'a> {
    service: &'a LockService,
    jobs: &'a [Job],
    config: &'a RuntimeConfig,
    /// `None` when `max_wall` reaches past what an [`Instant`] can hold.
    deadline: Option<Instant>,
    planners: &'a PlannerFactory,
    /// The next unclaimed job, when no wave dispatcher hands them out.
    cursor: AtomicUsize,
    /// The wave dispatcher, which blocks claimers at wave fences.
    waves: Option<WaveDispatch>,
    /// The racing shared transaction counter. It is wider than an id, so
    /// it cannot wrap before the bound stops it.
    next_tx: AtomicU64,
    /// Every minted id is below this: the status table's capacity in a
    /// run with MVCC, `u32::MAX` otherwise.
    tx_bound: u64,
    /// `Some(|jobs|)` in deterministic mode, where a transaction id is a
    /// function of the admission index, so ids (and the renumbered
    /// trace) are worker-count-independent.
    det_jobs: Option<u32>,
}

impl Run<'_> {
    /// The index of the next job to run, `None` once all are claimed.
    fn claim(&self) -> Option<usize> {
        match &self.waves {
            Some(dispatch) => dispatch.claim(),
            None => {
                let ji = self.cursor.fetch_add(1, Ordering::Relaxed);
                (ji < self.jobs.len()).then_some(ji)
            }
        }
    }

    /// Counts a claimed job done, whatever its outcome (the wave fence).
    fn complete(&self) {
        if let Some(dispatch) = &self.waves {
            dispatch.complete();
        }
    }

    /// The id for attempt `attempt` (1-based) of job `ji`: in
    /// deterministic mode `1 + ji + (attempt − 1)·|jobs|`, unique across
    /// (job, attempt) pairs and never drawn from the shared counter.
    /// `None` once the id would reach the run's bound.
    fn mint(&self, ji: usize, attempt: u32) -> Option<TxId> {
        let id = match self.det_jobs {
            Some(n) => 1 + ji as u64 + u64::from(attempt - 1) * u64::from(n),
            None => self.next_tx.fetch_add(1, Ordering::Relaxed),
        };
        (id < self.tx_bound).then_some(TxId(id as u32))
    }
}

/// One worker: claim a job, start an attempt, poll it — yielding and
/// parking as the service says — until it is over, seal it, and back off
/// and retry or move on.
fn worker_loop(run: &Run<'_>, worker: usize) -> WorkerOutput {
    let service = run.service;
    let mut planner = (run.planners)(worker);
    let mut rec = Recorder::default();
    let mut trace = TraceRun::default();
    let mut latencies_us = Vec::new();
    while let Some(ji) = run.claim() {
        let job = &run.jobs[ji];
        let dispatched = Instant::now();
        for attempt in 1u32.. {
            let one_call = run.config.step_yield;
            let started = match run.mint(ji, attempt) {
                Some(tx) => {
                    service.start(planner.as_mut(), job, tx, one_call, run.deadline, &mut rec)
                }
                None => Err(service.out_of_ids(&mut rec)),
            };
            let end = match started {
                Err(end) => end,
                Ok(mut at) => loop {
                    match service.poll(&mut at, &mut rec) {
                        Poll::Yield => std::thread::yield_now(),
                        Poll::Park { entity, gen } => {
                            service.park(entity, gen, run.config.park_timeout)
                        }
                        Poll::Over(end) => break end,
                    }
                },
            };
            // The one place an attempt's steps leave the recorder, so no
            // exit path can skip it.
            rec.seal(&mut trace);
            match end {
                AttemptEnd::Committed => {
                    latencies_us.push(dispatched.elapsed().as_micros() as u64);
                    break;
                }
                AttemptEnd::Dropped | AttemptEnd::Abandoned => break,
                AttemptEnd::Retry => backoff(attempt),
            }
        }
        run.complete();
    }
    WorkerOutput {
        trace,
        latencies_us,
        aborted: rec.aborted,
        tally: rec.tally,
    }
}

/// Base backoff after an abort.
const BACKOFF_BASE: Duration = Duration::from_micros(50);
/// Backoff ceiling (caps the exponential growth after deadlock, policy
/// and certification aborts).
const BACKOFF_CAP: Duration = Duration::from_millis(2);

/// Exponential backoff with a ceiling: attempt `n` sleeps
/// `min(BACKOFF_BASE · 2ⁿ⁻¹, BACKOFF_CAP)` (growing backoff breaks
/// symmetric restart livelocks, as in the simulator).
fn backoff(attempt: u32) {
    let exp = attempt.saturating_sub(1).min(16);
    std::thread::sleep(BACKOFF_BASE.saturating_mul(1u32 << exp).min(BACKOFF_CAP));
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::service::tests::{
        commit, grant, opened, sections, started, stripe_gen, two_phase, Scripted,
    };
    use crate::service::Attempt;
    use slp_core::{EntityId, LockMode, Step};
    use slp_durability::{recover, RecoveryMode, SharedMemStore};
    use slp_policies::PolicyAction::{Access, Lock};

    /// Polls `at` past its grants (more than once only with one-call
    /// sections): where it stopped, and how many engine sections the last
    /// poll took.
    fn drive(
        service: &LockService,
        at: &mut Attempt,
        rec: &mut Recorder,
        one_call: bool,
    ) -> (Poll, usize) {
        loop {
            let before = sections(service);
            match service.poll(at, rec) {
                Poll::Yield => assert!(one_call, "a whole section never stops at a grant"),
                poll => return (poll, sections(service) - before),
            }
        }
    }

    /// The pre-park hand-over, read off the log at the moment of the
    /// park, in a word run and in an engine run. A holder sits on the hot
    /// entity with its lock step unlogged; the waiter's attempt over
    /// *cold, hot* takes three steps on cold, then meets the conflict.
    /// When its poll says park, the log already has those three steps —
    /// above the watermark, which the holder's unlogged stamp 0 holds.
    /// Without the hand-over the sleeper's steps would reach the log only
    /// after it woke, and every commit in between would wait on them to
    /// become durable. The holder then commits — its stamps 0 and 4–6
    /// fold the waiter's 1–3 with them — and the waiter's 7–11 fold on
    /// arrival, so the window never holds more than those three.
    #[test]
    fn a_worker_hands_its_steps_to_the_log_before_it_parks() {
        let (hot, cold) = (EntityId(0), EntityId(1));
        for words in [true, false] {
            let store = SharedMemStore::new();
            let wal = Arc::new(
                Wal::create(
                    Box::new(store.clone()),
                    WalConfig::default(),
                    &StructuralState::from_entities([hot, cold]),
                )
                .expect("fresh store"),
            );
            let service = two_phase(&[hot, cold], words, Some(Arc::clone(&wal)));
            let (mut holder, mut holder_rec) =
                opened(&service, TxId(1), &[Lock(hot), Access(hot)], true);
            grant(&service, &mut holder, &mut holder_rec);

            let mut rec = Recorder::default();
            let deadline = Some(Instant::now() + Duration::from_secs(60));
            let job = Job::access(vec![cold, hot]);
            let mut planner = planner_for(PolicyKind::TwoPhase);
            let Ok(mut waiter) =
                service.start(planner.as_mut(), &job, TxId(2), true, deadline, &mut rec)
            else {
                panic!("words {words}: a plain job opens");
            };
            let Poll::Park { entity, gen } = drive(&service, &mut waiter, &mut rec, true).0 else {
                panic!("words {words}: the hot entity is held");
            };
            assert_eq!(entity, hot);
            let parked = wal.summary();
            assert_eq!(
                parked.records, 2,
                "words {words}: base checkpoint + the waiter's steps"
            );
            assert_eq!(
                (parked.watermark, parked.peak_window),
                (0, 3),
                "words {words}"
            );

            grant(&service, &mut holder, &mut holder_rec);
            commit(&service, &mut holder, &mut holder_rec);
            // The release moved the generation, so the park falls through.
            service.park(entity, gen, Duration::from_secs(30));
            let (end, _) = drive(&service, &mut waiter, &mut rec, true);
            assert_eq!(end, Poll::Over(AttemptEnd::Committed), "words {words}");
            assert_eq!(service.counters.parks.load(Ordering::Relaxed), 0);

            let done = wal.summary();
            assert_eq!(done.watermark, service.stamps_drawn(), "words {words}");
            let commits = recover(&store.snapshot(), RecoveryMode::Oldest)
                .expect("a clean log recovers")
                .committed;
            assert_eq!(commits, [TxId(1), TxId(2)], "words {words}");
            assert_eq!(done.peak_window, 3, "words {words}");
            // Two commits of two frames each, and the one pre-park hand-over.
            assert_eq!(done.records, 1 + 2 + 2 + 1, "words {words}");
        }
    }

    /// A deadlock on one thread, in a word run and in an engine run: T1
    /// holds `a` and T2 holds `b`; T1 asks for `b` and is told to park,
    /// T2 asks for `a` and closes the cycle, so T2 — the requester — is
    /// the victim: counted, aborted, its lock released. T1's next poll
    /// retracts its edge, takes `b` and commits.
    #[test]
    fn the_request_that_closes_a_waits_for_cycle_is_the_victim() {
        let (a, b) = (EntityId(0), EntityId(1));
        for words in [true, false] {
            let service = two_phase(&[a, b], words, None);
            let (mut t1, mut r1) = opened(&service, TxId(1), &[Lock(a), Lock(b)], true);
            let (mut t2, mut r2) = opened(&service, TxId(2), &[Lock(b), Lock(a)], true);
            grant(&service, &mut t1, &mut r1);
            grant(&service, &mut t2, &mut r2);

            let parked = service.poll(&mut t1, &mut r1);
            assert!(
                matches!(parked, Poll::Park { entity, .. } if entity == b),
                "words {words}: {parked:?}"
            );
            let victim = service.poll(&mut t2, &mut r2);
            assert_eq!(victim, Poll::Over(AttemptEnd::Retry), "words {words}");
            assert_eq!(r2.tally.deadlock_aborts, 1, "words {words}");
            assert_eq!(r2.aborted, [TxId(2)], "words {words}");

            grant(&service, &mut t1, &mut r1);
            commit(&service, &mut t1, &mut r1);
            assert_eq!((r1.tally.deadlock_aborts, r1.tally.lock_waits), (0, 1));
            assert!(r1.aborted.is_empty(), "words {words}");
            assert!(service.words_quiescent(), "words {words}");
        }
    }

    /// Where an engine run's sections begin and end, pinned with whole
    /// sections (`one_call` off). An attempt whose action *k* meets a
    /// held lock records exactly actions `0..k` in one section and parks,
    /// naming the generation it read there; once the holder finishes, one
    /// more section resumes at *k* and commits.
    #[test]
    fn an_engine_attempt_runs_whole_until_its_first_wait() {
        let [a, b, c] = [EntityId(0), EntityId(1), EntityId(2)];
        let service = two_phase(&[a, b, c], false, None);
        let (mut holder, mut holder_rec) = opened(&service, TxId(1), &[Lock(c)], true);
        grant(&service, &mut holder, &mut holder_rec);

        let plan = [Lock(a), Access(a), Lock(b), Access(b), Lock(c), Access(c)];
        let (mut at, mut rec) = opened(&service, TxId(2), &plan, false);
        let (Poll::Park { entity, gen }, took) = drive(&service, &mut at, &mut rec, false) else {
            panic!("action 4 meets the held lock");
        };
        assert_eq!(took, 1, "begin and four grants");
        assert_eq!(entity, c);
        let steps =
            |rec: &Recorder| -> Vec<Step> { rec.steps.iter().map(|(_, s)| s.step).collect() };
        let x = LockMode::Exclusive;
        assert_eq!(
            steps(&rec),
            [
                Step::lock(x, a),
                Step::read(a),
                Step::write(a),
                Step::lock(x, b),
                Step::read(b),
                Step::write(b),
            ],
            "exactly actions 0..4"
        );
        assert_eq!(
            gen,
            stripe_gen(&service, c),
            "read in the section: no release since"
        );

        commit(&service, &mut holder, &mut holder_rec);
        assert!(
            stripe_gen(&service, c) > gen,
            "the release bumped after the read"
        );
        let from = rec.steps.len();
        let (end, took) = drive(&service, &mut at, &mut rec, false);
        assert_eq!(end, Poll::Over(AttemptEnd::Committed));
        assert_eq!(took, 1, "resumed and finished in one section");
        assert_eq!(
            steps(&rec)[from..],
            [
                Step::lock(x, c),
                Step::read(c),
                Step::write(c),
                Step::unlock(x, a),
                Step::unlock(x, b),
                Step::unlock(x, c),
            ],
            "resumed at action 4"
        );
        let stamps: Vec<u64> = rec.steps[from..].iter().map(|&(stamp, _)| stamp).collect();
        assert!(stamps.windows(2).all(|w| w[1] == w[0] + 1), "{stamps:?}");
    }

    /// An empty plan begins and finishes in one engine section, in both
    /// section modes: with one-call sections, begin shares its section
    /// with the call after it.
    #[test]
    fn an_empty_plan_begins_and_finishes_in_one_section() {
        let service = two_phase(&[EntityId(0)], false, None);
        for (tx, one_call) in [(TxId(1), false), (TxId(2), true)] {
            let (mut at, mut rec) = opened(&service, tx, &[], one_call);
            let (end, took) = drive(&service, &mut at, &mut rec, one_call);
            assert_eq!(
                end,
                Poll::Over(AttemptEnd::Committed),
                "one call {one_call}"
            );
            assert_eq!(took, 1, "one call {one_call}");
            assert!(rec.steps.is_empty());
        }
    }

    /// A refused action aborts in the section that met it, in both
    /// section modes: once the poll returns, the attempt holds nothing
    /// and the entity it locked goes to the next transaction.
    #[test]
    fn a_refused_action_leaves_no_lock_held() {
        let a = EntityId(0);
        for one_call in [false, true] {
            let service = two_phase(&[a], false, None);
            // A relock: 2PL refuses it, fatally.
            let plan = [Lock(a), Access(a), Lock(a)];
            let (mut at, mut rec) = opened(&service, TxId(1), &plan, one_call);
            let (end, took) = drive(&service, &mut at, &mut rec, one_call);
            assert_eq!(end, Poll::Over(AttemptEnd::Dropped), "one call {one_call}");
            assert_eq!((rec.tally.rejected, &rec.aborted[..]), (1, &[TxId(1)][..]));
            assert_eq!(
                took, 1,
                "one call {one_call}: refused and aborted in one section"
            );
            let last = rec.steps.last().expect("steps recorded").1.step;
            assert_eq!(
                last,
                Step::unlock(LockMode::Exclusive, a),
                "one call {one_call}: the abort released it"
            );

            let (mut next, mut next_rec) = opened(&service, TxId(2), &plan[..2], one_call);
            let (end, took) = drive(&service, &mut next, &mut next_rec, one_call);
            assert_eq!(end, Poll::Over(AttemptEnd::Committed));
            assert_eq!(took, 1, "one call {one_call}");
        }
    }

    /// An attempt with no plan, on an engine that plans nothing at begin,
    /// is refused with `NoPlan` — fatal — and retired in the section that
    /// began it, in both section modes: the engine keeps no planless
    /// transaction.
    #[test]
    fn a_planless_attempt_is_retired_in_the_section_that_began_it() {
        let service = two_phase(&[EntityId(0)], false, None);
        for (tx, one_call) in [(TxId(1), false), (TxId(2), true)] {
            let (mut at, mut rec) = started(&service, tx, &mut Scripted(None), one_call);
            let (end, took) = drive(&service, &mut at, &mut rec, one_call);
            assert_eq!(end, Poll::Over(AttemptEnd::Dropped), "one call {one_call}");
            assert_eq!(took, 1, "one call {one_call}");
            assert_eq!(rec.aborted, [tx], "begun, then aborted");
            assert!(rec.steps.is_empty());
        }
    }

    /// Six one-entity 2PL jobs on one worker, the shared counter started
    /// two ids below the run's id bound. The two jobs numbered there
    /// commit; the first attempt left without an id halts the run, and it
    /// and every later one is abandoned — no thread panics, no id is 0 or
    /// repeats, and the attempts balance. (One worker, because with two a
    /// numbered attempt may start after the other worker's halt, and is
    /// abandoned too.)
    fn run_up_to_the_id_bound(snapshot_reads: bool, bound: u64) {
        let pool: Vec<EntityId> = (0..4).map(EntityId).collect();
        let jobs: Vec<Job> = (0..6).map(|i| Job::access(vec![pool[i % 4]])).collect();
        let mut rt =
            Runtime::new(PolicyKind::TwoPhase, &PolicyConfig::flat(pool)).expect("2PL builds");
        let config = RuntimeConfig {
            snapshot_reads,
            ..RuntimeConfig::with_workers(1)
        };
        let report = rt.run_inner(&jobs, &config, None, bound - 2);
        let ctx = format!("snapshot reads {snapshot_reads}");
        assert!(report.accounting_balances(), "{ctx}");
        assert_eq!(
            (report.attempts, report.committed, report.abandoned),
            (6, 2, 4),
            "{ctx}"
        );
        assert!(!report.timed_out, "{ctx}: a halt is not a timeout");
        let txs: std::collections::BTreeSet<TxId> =
            report.schedule.steps().iter().map(|s| s.tx).collect();
        let numbered = [TxId(bound as u32 - 2), TxId(bound as u32 - 1)];
        assert_eq!(txs, numbered.into(), "{ctx}");
    }

    /// With snapshot reads on, every id indexes the MVCC status table, so
    /// the bound is the table's capacity.
    #[test]
    fn a_run_with_mvcc_mints_no_id_past_the_status_table() {
        run_up_to_the_id_bound(true, slp_mvcc::TX_SLOTS as u64);
    }

    /// Without MVCC the bound is `u32::MAX`: the counter never wraps to
    /// id 0, which a lock word reads as free.
    #[test]
    fn a_run_without_mvcc_mints_no_id_that_wraps_to_zero() {
        run_up_to_the_id_bound(false, u64::from(u32::MAX));
    }
}
