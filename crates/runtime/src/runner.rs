//! The runtime proper: worker threads draining a job queue through the
//! sharded lock service (`service.rs`).
//!
//! Each worker claims jobs off one atomic cursor, plans them with its own
//! (thread-local) [`ActionPlanner`], and advances the plan through the
//! service until the attempt is over or must wait. Conflicts park on the contended entity's stripe;
//! waits-for cycles abort the requester that closed the cycle (the
//! simulator's victim rule) and restart the job as a fresh transaction
//! after a growing backoff; policy violations abort and are classified by
//! [`PolicyViolation::is_fatal`], as in the simulator — fatal violations
//! drop the job, transient ones restart it. A wall-clock guard bounds
//! mutant livelocks.

use crate::report::{Certification, LatencySummary, RuntimeReport};
use crate::scheduler::{SchedMode, WaveDispatch, WavePlan};
use crate::service::{Grant, LockService, MvccState, Progress, Recorder, Tally};
use crate::trace::TraceRun;
use slp_core::{Schedule, SequenceError, StructuralState, TxId};
use slp_durability::{Store, Wal, WalConfig, WalError};
use slp_policies::{
    initial_state, planner_for, ActionPlanner, GrantScope, Job, PolicyConfig, PolicyEngine,
    PolicyKind, PolicyRegistry, PolicyViolation, RegistryError,
};
use std::sync::atomic::{AtomicU32, AtomicUsize, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

/// Builds one worker's planner. Workers construct their planner inside
/// their own thread, so the planner itself need not be `Send`; the factory
/// is shared and must be. The worker index parameter lets probe planners
/// decorrelate their choices across workers (see [`crate::probes`]).
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
    /// analogue of the simulator's `max_ticks`).
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

    /// The worker count the environment requests, if any:
    /// `SLP_RUNTIME_THREADS` (the CI matrix convention, mirroring
    /// `SLP_VERIFIER_THREADS`). `None` when unset; panics on a value that
    /// is not a positive integer — a typo'd override must not silently
    /// fall back. This is the single definition of the override's
    /// parse/validate rule (the runtime suites' width ladders key off
    /// set-vs-unset).
    pub fn env_workers() -> Option<usize> {
        std::env::var("SLP_RUNTIME_THREADS").ok().map(|v| {
            v.parse::<usize>()
                .ok()
                .filter(|&n| n >= 1)
                .expect("SLP_RUNTIME_THREADS must be a positive integer")
        })
    }

    /// [`env_workers`](RuntimeConfig::env_workers) with a fallback.
    pub fn workers_from_env(default: usize) -> usize {
        Self::env_workers().unwrap_or(default)
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
        self.run_inner(jobs, config, None)
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
        self.run_inner(jobs, config, Some(wal))
    }

    fn run_inner(
        &mut self,
        jobs: &[Job],
        config: &RuntimeConfig,
        wal: Option<Arc<Wal>>,
    ) -> RuntimeReport {
        let initial = self.initial_state();
        let engine = self.engine.take().expect("engine present between runs");
        let scope = engine.grant_scope();
        // Deterministic mode pins the trace to admission order; snapshot
        // contents are timing-dependent by design (a reader observes
        // whatever committed first), so the read path stays locked there.
        let snapshot_reads = config.snapshot_reads && config.scheduler != SchedMode::Deterministic;
        let mvcc = snapshot_reads.then(MvccState::default);
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
        let dispatch = wave_plan.as_ref().map(|plan| {
            let serial =
                config.scheduler == SchedMode::Deterministic && scope == GrantScope::Global;
            WaveDispatch::new(plan.waves.clone(), serial)
        });
        // Deterministic mode derives transaction ids from the admission
        // index instead of the racing shared counter: attempt `a` of job
        // `i` is `1 + i + a·|jobs|`, unique and worker-count-independent.
        let det_jobs = (config.scheduler == SchedMode::Deterministic).then_some(jobs.len() as u32);
        let next_job = AtomicUsize::new(0);
        let next_tx = AtomicU32::new(1);
        let start = Instant::now();
        let deadline = start + config.max_wall;
        let workers = config.workers.max(1);

        let outputs: Vec<WorkerOutput> = std::thread::scope(|scope| {
            let handles: Vec<_> = (0..workers)
                .map(|w| {
                    let service = &service;
                    let source = JobSource {
                        cursor: &next_job,
                        waves: dispatch.as_ref(),
                        total: jobs.len(),
                    };
                    let txs = TxSource {
                        shared: &next_tx,
                        det_jobs,
                    };
                    let factory = Arc::clone(&self.planner_factory);
                    scope.spawn(move || {
                        worker_loop(w, service, jobs, source, txs, config, deadline, factory)
                    })
                })
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
        if let Some(n) = det_jobs.filter(|&n| n > 0) {
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

/// How one attempt ended (the worker decides what happens to the job).
enum AttemptEnd {
    Committed,
    Retry,
    Dropped,
    Abandoned,
}

/// Where a worker claims its next job: the shared atomic cursor (the
/// unscheduled default) or the wave dispatcher, which blocks claimers at
/// wave fences.
#[derive(Clone, Copy)]
struct JobSource<'a> {
    cursor: &'a AtomicUsize,
    waves: Option<&'a WaveDispatch>,
    total: usize,
}

impl JobSource<'_> {
    fn claim(&self) -> Option<usize> {
        match self.waves {
            Some(dispatch) => dispatch.claim(),
            None => {
                let ji = self.cursor.fetch_add(1, Ordering::Relaxed);
                (ji < self.total).then_some(ji)
            }
        }
    }

    fn complete(&self) {
        if let Some(dispatch) = self.waves {
            dispatch.complete();
        }
    }
}

/// How a worker mints transaction ids: the racing shared counter, or —
/// in deterministic mode — a pure function of the admission index, so
/// ids (and thus the renumbered trace) are worker-count-independent.
#[derive(Clone, Copy)]
struct TxSource<'a> {
    shared: &'a AtomicU32,
    /// `Some(|jobs|)` in deterministic mode.
    det_jobs: Option<u32>,
}

impl TxSource<'_> {
    /// The id for attempt `attempt` (1-based) of job `ji`.
    fn mint(&self, ji: usize, attempt: u32) -> TxId {
        match self.det_jobs {
            // Unique across (job, attempt) pairs; collision with the
            // shared counter is impossible because deterministic runs
            // never touch it.
            Some(n) => TxId(1 + ji as u32 + (attempt - 1).wrapping_mul(n)),
            None => TxId(self.shared.fetch_add(1, Ordering::Relaxed)),
        }
    }
}

#[allow(clippy::too_many_arguments)]
fn worker_loop(
    worker: usize,
    service: &LockService,
    jobs: &[Job],
    source: JobSource<'_>,
    txs: TxSource<'_>,
    config: &RuntimeConfig,
    deadline: Instant,
    factory: PlannerFactory,
) -> WorkerOutput {
    let mut planner = factory(worker);
    let mut rec = Recorder::default();
    let mut trace = TraceRun::default();
    let mut latencies_us = Vec::new();
    let mut aborted = Vec::new();
    while let Some(ji) = source.claim() {
        let job = &jobs[ji];
        let dispatched = Instant::now();
        let mut attempt = 0u32;
        loop {
            attempt += 1;
            let tx = txs.mint(ji, attempt);
            let end = run_attempt(
                service,
                planner.as_mut(),
                job,
                tx,
                config,
                deadline,
                &mut rec,
                &mut aborted,
            );
            // The one place an attempt's steps leave the recorder, so no
            // exit path can skip it.
            rec.seal(&mut trace);
            match end {
                AttemptEnd::Committed => {
                    latencies_us.push(dispatched.elapsed().as_micros() as u64);
                    break;
                }
                AttemptEnd::Dropped => break,
                AttemptEnd::Abandoned => {
                    // An attempt abandons on the wall-clock guard or a
                    // strict-mode certification halt; only the former is
                    // a timeout.
                    if Instant::now() > deadline {
                        service.counters.timed_out.store(true, Ordering::Relaxed);
                    }
                    rec.tally.abandoned += 1;
                    break;
                }
                AttemptEnd::Retry => backoff(attempt),
            }
        }
        // Whatever the outcome, the wave fence counts this job done.
        source.complete();
    }
    WorkerOutput {
        trace,
        latencies_us,
        aborted,
        tally: rec.tally,
    }
}

/// One fresh-transaction attempt at `job`, recorded into `rec` (empty on
/// entry; the caller seals it whichever way the attempt ends). Exactly
/// one accounting tally is bumped per call (the invariant behind
/// [`RuntimeReport::accounting_balances`]); `Abandoned` is the exception —
/// its tally is bumped by the caller, which also flags the timeout.
#[allow(clippy::too_many_arguments)]
fn run_attempt(
    service: &LockService,
    planner: &mut dyn ActionPlanner,
    job: &Job,
    tx: TxId,
    config: &RuntimeConfig,
    deadline: Instant,
    rec: &mut Recorder,
    aborted: &mut Vec<TxId>,
) -> AttemptEnd {
    // Count the attempt before anything can cut it short, so every exit
    // path (commit, abort, reject, abandon) balances against it.
    rec.tally.attempts += 1;
    let halted = || service.counters.halted.load(Ordering::Relaxed);
    if Instant::now() > deadline || halted() {
        return AttemptEnd::Abandoned;
    }
    if job.read_only && service.snapshot_reads_enabled() {
        // The MVCC read path: capture a snapshot and read versions — no
        // lock service, no engine lock, no waits-for edges. The only way
        // this fails is a strict-mode certification abort.
        return if service.snapshot_read(tx, &job.targets, rec) {
            rec.tally.committed += 1;
            AttemptEnd::Committed
        } else {
            rec.tally.certification_aborts += 1;
            aborted.push(tx);
            AttemptEnd::Retry
        };
    }
    // Plan under the read lock; a malformed job must not touch the engine.
    let planned = match service.plan(planner, job) {
        Ok(p) => p,
        Err(v) => return classify(&mut rec.tally, &v),
    };
    let mut at = match service.attempt(tx, planned, planner.intent(job), &mut rec.tally) {
        Ok(at) => at,
        Err(v) => return classify(&mut rec.tally, &v),
    };

    // One loop for both kinds of run: advance until the attempt is over,
    // parking whenever it must wait; the next advance re-requests the
    // action that waited.
    loop {
        match service.advance(&mut at, rec, config.step_yield) {
            Progress::Granted => std::thread::yield_now(),
            Progress::Done(true) => {
                rec.tally.committed += 1;
                return AttemptEnd::Committed;
            }
            Progress::Done(false) => {
                // Strict certification aborted the commit: the locks are
                // released, the service kept the commit record out of the
                // log and marked the transaction aborted in the status
                // table. The job restarts as a fresh transaction.
                rec.tally.certification_aborts += 1;
                aborted.push(tx);
                return AttemptEnd::Retry;
            }
            Progress::Refused(violation) => {
                if at.begun() {
                    aborted.push(tx);
                }
                return classify(&mut rec.tally, &violation);
            }
            Progress::Wait {
                entity,
                holder,
                gen,
            } => {
                // Waits-for edge discipline: publish the edge (and walk
                // for a cycle) at every conflict *observation*, retract
                // it before every re-request. The edge is live exactly
                // while this worker may be parked — a published edge
                // through a transaction that is awake (its request was
                // granted, or it is mid-abort with its locks already
                // released) manufactures phantom cycles for every other
                // walker, and each needless victim feeds the churn that
                // creates the next one. Publishing before every park
                // with the *current* holder keeps detection complete:
                // whichever transaction inserts the edge that closes a
                // real cycle sees it.
                rec.tally.lock_waits += 1;
                if service.note_wait(tx, holder) {
                    // This request closed a waits-for cycle: the
                    // requester is the victim (simulator rule).
                    service.clear_wait(tx);
                    service.abort(&mut at, rec);
                    aborted.push(tx);
                    rec.tally.deadlock_aborts += 1;
                    return AttemptEnd::Retry;
                }
                // The one deadline/halt rule: the clock is read at
                // attempt start and here, at every conflict observation.
                // Plans are finite, so that bounds every unbounded wait.
                if Instant::now() > deadline || halted() {
                    service.clear_wait(tx);
                    service.abort(&mut at, rec);
                    aborted.push(tx);
                    return AttemptEnd::Abandoned;
                }
                // `gen` was read when the conflict was observed, so any
                // release that could have invalidated it bumps the
                // generation after that read and the park falls through
                // — equally when a re-request moves the contention to a
                // *new* entity. Whatever this attempt has recorded goes to
                // the log first: asleep, its unlogged stamps would hold the
                // log's watermark where they are.
                service.log(rec, None);
                service.park(entity, gen, config.park_timeout);
                service.clear_wait(tx);
            }
        }
    }
}

/// Applies the fatal/transient rule and bumps the matching tally.
fn classify(tally: &mut Tally, v: &PolicyViolation) -> AttemptEnd {
    if v.is_fatal() {
        tally.rejected += 1;
        AttemptEnd::Dropped
    } else {
        tally.policy_aborts += 1;
        AttemptEnd::Retry
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
    use crate::service::tests::{commit, grant, opened, sections, stripe_gen, two_phase};
    use crate::service::Attempt;
    use slp_core::{EntityId, LockMode, Step};
    use slp_durability::{recover, RecoveryMode, SharedMemStore};
    use slp_policies::AccessIntent;
    use slp_policies::PolicyAction::{Access, Lock};

    /// The pre-park hand-over, read off the log at the moment of the
    /// park, in a word run and in an engine run. A holder driven by hand
    /// sits on the hot entity with its lock step unlogged; a worker runs
    /// the real attempt loop over *cold, hot*: three steps on cold, then
    /// the conflict. Once it is parked the log already has those three
    /// steps — above the watermark, which the holder's unlogged stamp 0
    /// holds — and when the holder retires everything folds. Without the
    /// hand-over the sleeper's steps would reach the log only after it
    /// woke, and every commit in between would wait on them to become
    /// durable.
    ///
    /// The holder's release wakes the waiter before the holder's own
    /// append, so either commit can reach the log first; the recovered
    /// log says which did, and the peak window is exact for each order.
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
            let config = RuntimeConfig {
                park_timeout: Duration::from_secs(30),
                ..RuntimeConfig::with_workers(1)
            };
            let deadline = Instant::now() + config.max_wall;

            let (mut holder, mut holder_rec) = opened(&service, TxId(1), &[Lock(hot), Access(hot)]);
            grant(&service, &mut holder, &mut holder_rec);

            std::thread::scope(|s| {
                let waiter = s.spawn(|| {
                    let mut rec = Recorder::default();
                    let end = run_attempt(
                        &service,
                        planner_for(PolicyKind::TwoPhase).as_mut(),
                        &Job::access(vec![cold, hot]),
                        TxId(2),
                        &config,
                        deadline,
                        &mut rec,
                        &mut Vec::new(),
                    );
                    assert!(matches!(end, AttemptEnd::Committed), "words {words}");
                });
                while service.counters.parks.load(Ordering::Relaxed) == 0 {
                    std::thread::yield_now();
                }
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
                waiter.join().expect("waiter panicked");
            });
            let done = wal.summary();
            assert_eq!(done.watermark, service.stamps_drawn(), "words {words}");
            // The commit records in append order, as the log holds them.
            let commits = recover(&store.snapshot(), RecoveryMode::Oldest)
                .expect("a clean log recovers")
                .committed;
            // Holder first: its stamps 0 and 4–6 fold the waiter's 1–3
            // with them, and the waiter's 7–11 fold on arrival. Waiter
            // first: its 7–11 join 1–3 above the holder's unlogged 0.
            let peak = match commits[..] {
                [TxId(1), TxId(2)] => 3,
                [TxId(2), TxId(1)] => 3 + 5,
                _ => panic!("words {words}: commits {commits:?}"),
            };
            assert_eq!(
                done.peak_window, peak,
                "words {words}: commit order {commits:?}"
            );
            // Two commits of two frames each, and the one pre-park hand-over.
            assert_eq!(done.records, 1 + 2 + 2 + 1, "words {words}");
        }
    }

    /// A deadlock driven by hand, in a word run and in an engine run: T1
    /// holds `a` and T2 holds `b`, T1 asks for `b` and T2 for `a`. The
    /// second request closes the cycle, so T2 — the requester — is the
    /// victim, and once it has aborted and cleared its edge T1 gets `b`
    /// and commits.
    #[test]
    fn the_request_that_closes_a_waits_for_cycle_is_the_victim() {
        let (a, b) = (EntityId(0), EntityId(1));
        for words in [true, false] {
            let service = two_phase(&[a, b], words, None);
            let (mut t1, mut r1) = opened(&service, TxId(1), &[Lock(a), Lock(b)]);
            let (mut t2, mut r2) = opened(&service, TxId(2), &[Lock(b), Lock(a)]);
            // The holder an advance is blocked by, `None` once granted.
            let blocked_by = |progress| match progress {
                Progress::Granted => None,
                Progress::Wait { holder, .. } => Some(holder),
                Progress::Done(_) => panic!("words {words}: done early"),
                Progress::Refused(v) => panic!("words {words}: {v}"),
            };
            assert_eq!(blocked_by(service.advance(&mut t1, &mut r1, true)), None);
            assert_eq!(blocked_by(service.advance(&mut t2, &mut r2, true)), None);

            let holder = blocked_by(service.advance(&mut t1, &mut r1, true));
            assert_eq!(holder, Some(TxId(2)), "words {words}");
            assert!(!service.note_wait(TxId(1), TxId(2)), "words {words}");
            let holder = blocked_by(service.advance(&mut t2, &mut r2, true));
            assert_eq!(holder, Some(TxId(1)), "words {words}");
            assert!(
                service.note_wait(TxId(2), TxId(1)),
                "words {words}: T2 closes it"
            );

            service.clear_wait(TxId(2));
            service.abort(&mut t2, &mut r2);
            service.clear_wait(TxId(1));
            assert_eq!(blocked_by(service.advance(&mut t1, &mut r1, true)), None);
            commit(&service, &mut t1, &mut r1);
            assert!(service.words_quiescent(), "words {words}");
        }
    }

    /// Where an engine run's sections begin and end, pinned by hand with
    /// whole sections (`one_call` off). An attempt whose action *k* meets
    /// a held lock records exactly actions `0..k` in one section and
    /// waits, naming the generation it read there; once the holder
    /// finishes, one more section resumes at *k* and commits.
    #[test]
    fn an_engine_attempt_runs_whole_until_its_first_wait() {
        let [a, b, c] = [EntityId(0), EntityId(1), EntityId(2)];
        let service = two_phase(&[a, b, c], false, None);
        let (mut holder, mut holder_rec) = opened(&service, TxId(1), &[Lock(c)]);
        grant(&service, &mut holder, &mut holder_rec);

        let plan = [Lock(a), Access(a), Lock(b), Access(b), Lock(c), Access(c)];
        let (mut at, mut rec) = opened(&service, TxId(2), &plan);
        let before = sections(&service);
        let Progress::Wait {
            entity,
            holder: blocker,
            gen,
        } = service.advance(&mut at, &mut rec, false)
        else {
            panic!("action 4 meets the held lock");
        };
        assert_eq!(sections(&service) - before, 1, "begin and four grants");
        assert_eq!((entity, blocker), (c, TxId(1)));
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
        let before = sections(&service);
        let from = rec.steps.len();
        assert!(matches!(
            service.advance(&mut at, &mut rec, false),
            Progress::Done(true)
        ));
        assert_eq!(
            sections(&service) - before,
            1,
            "resumed and finished in one section"
        );
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

    /// Advances `at` until it is no longer merely granted (more than once
    /// only with `one_call`): where it ended, and how many engine
    /// sections the last advance took.
    fn drive(
        service: &LockService,
        at: &mut Attempt,
        rec: &mut Recorder,
        one_call: bool,
    ) -> (Progress, usize) {
        loop {
            let before = sections(service);
            match service.advance(at, rec, one_call) {
                Progress::Granted => assert!(one_call, "a whole section never stops at a grant"),
                progress => return (progress, sections(service) - before),
            }
        }
    }

    /// An empty plan begins and finishes in one engine section, in both
    /// section modes: with one-call sections, begin shares its section
    /// with the call after it.
    #[test]
    fn an_empty_plan_begins_and_finishes_in_one_section() {
        let service = two_phase(&[EntityId(0)], false, None);
        for (tx, one_call) in [(TxId(1), false), (TxId(2), true)] {
            let (mut at, mut rec) = opened(&service, tx, &[]);
            let (progress, took) = drive(&service, &mut at, &mut rec, one_call);
            assert!(
                matches!(progress, Progress::Done(true)),
                "one call {one_call}"
            );
            assert_eq!(took, 1, "one call {one_call}");
            assert!(rec.steps.is_empty());
        }
    }

    /// A refused action aborts in the section that met it, in both
    /// section modes: once `advance` returns, the attempt holds nothing
    /// and the entity it locked goes to the next transaction.
    #[test]
    fn a_refused_action_leaves_no_lock_held() {
        let a = EntityId(0);
        for one_call in [false, true] {
            let service = two_phase(&[a], false, None);
            // A relock: 2PL refuses it, fatally.
            let (mut at, mut rec) = opened(&service, TxId(1), &[Lock(a), Access(a), Lock(a)]);
            let (progress, took) = drive(&service, &mut at, &mut rec, one_call);
            let Progress::Refused(violation) = progress else {
                panic!("one call {one_call}: a relock is refused");
            };
            assert!(violation.is_fatal(), "{violation}");
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

            let (mut next, mut next_rec) = opened(&service, TxId(2), &[Lock(a), Access(a)]);
            let (progress, took) = drive(&service, &mut next, &mut next_rec, one_call);
            assert!(matches!(progress, Progress::Done(true)));
            assert_eq!(took, 1, "one call {one_call}");
        }
    }

    /// An attempt with no plan, on an engine that plans nothing at begin,
    /// is refused with `NoPlan` and retired in the section that began it,
    /// in both section modes: the engine keeps no planless transaction.
    #[test]
    fn a_planless_attempt_is_retired_in_the_section_that_began_it() {
        let service = two_phase(&[EntityId(0)], false, None);
        for (tx, one_call) in [(TxId(1), false), (TxId(2), true)] {
            let mut rec = Recorder::default();
            let mut at = service
                .attempt(tx, None, AccessIntent::empty(), &mut rec.tally)
                .expect("an engine run opens a planless attempt");
            let (progress, took) = drive(&service, &mut at, &mut rec, one_call);
            assert!(
                matches!(progress, Progress::Refused(PolicyViolation::NoPlan(t)) if t == tx),
                "one call {one_call}"
            );
            assert_eq!(took, 1, "one call {one_call}");
            assert!(at.begun(), "begun, then aborted");
            assert!(rec.steps.is_empty());
        }
    }
}
