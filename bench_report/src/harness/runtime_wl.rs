//! The six runtime workloads: a closed loop in which `Runtime::run` /
//! `run_durable` drains a fixed, pre-generated job slice on
//! `min(2, nproc)` worker threads.
//!
//! Every timing is taken **outside** the call, so it includes the trace
//! merge and report assembly a caller waits for (`report.elapsed` stops
//! before them). A workload is one untimed warm-up plus repeats of a
//! medium-sized run on a fresh `Runtime` — not one long run, whose
//! throughput decays as the trace grows — and each metric is the median
//! across repeats.

use super::catalog::{self, Prepared, Scale, Workload};
use super::metrics::{END_TO_END, PER_LAYER};
use super::spans::Tracer;
use super::stats::median;
use super::{peak_rss_mb, reset_peak_rss, target_dir, Options, Samples, Tally, WorkloadResult};
use slp_core::{is_serializable_with_aborts, ScheduledStep, TxId};
use slp_policies::PolicyRegistry;
use slp_runtime::{
    recover, CertifyMode, DirStore, IncrementalCertifier, MemStore, RecoveryMode, RuntimeConfig,
    RuntimeReport, SchedMode, SharedMemStore, Store, Wal, WalConfig,
};
use slp_sim::{build_adapter, run_sim, SimConfig};
use std::collections::{HashMap, HashSet};
use std::path::PathBuf;
use std::sync::atomic::{AtomicU32, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

/// Timed repeats a pass makes at least, however short `--seconds` is.
const MIN_REPEATS: usize = 3;

/// Jobs the single-threaded simulator replays for
/// `policies.sim_jobs_per_s`.
const SIM_SLICE_JOBS: usize = 20_000;

/// Jobs `twopl_durable`'s traced pass puts through a directory store.
const DIRECTORY_SLICE_JOBS: usize = 2_000;

/// A directory under the build's target directory for directory-backed
/// log stores; removed when the pass ends.
struct Scratch {
    dir: PathBuf,
    next: u32,
}

impl Scratch {
    fn new() -> Scratch {
        // One directory per pass, not per process: `cargo test` runs
        // passes on parallel threads of one process.
        static PASSES: AtomicU32 = AtomicU32::new(0);
        let pass = PASSES.fetch_add(1, Ordering::Relaxed);
        Scratch {
            dir: target_dir()
                .join("bench-scratch")
                .join(format!("{}-{pass}", std::process::id())),
            next: 0,
        }
    }

    fn fresh(&mut self) -> PathBuf {
        self.next += 1;
        self.dir.join(format!("wal-{}", self.next))
    }
}

impl Drop for Scratch {
    fn drop(&mut self) {
        let _ = std::fs::remove_dir_all(&self.dir);
    }
}

/// What every run of a pass shares: where directory logs go and where
/// outcomes are counted.
struct Bench {
    scratch: Scratch,
    tally: Tally,
}

impl Bench {
    fn new() -> Bench {
        Bench {
            scratch: Scratch::new(),
            tally: Tally::default(),
        }
    }

    /// [`run_once`] with the outcome counted.
    fn run(&mut self, p: &Prepared, config: &RuntimeConfig, log: LogTo, what: &str) -> Run {
        let (run, misses) = run_once(p, config, log, &mut self.scratch, None);
        self.record(what, p, &run, misses);
        run
    }

    /// Counts `run`: its jobs as attempted, the ones it did not commit —
    /// or all of them, if a check missed — as failed.
    fn record(&mut self, what: &str, p: &Prepared, run: &Run, misses: Vec<String>) {
        let jobs = p.jobs.len();
        let lost = jobs.saturating_sub(run.report.committed);
        self.tally.record(what, jobs, lost, misses);
    }

    /// Two runs of `p` under `config`, as jobs/s. Ablations and slices:
    /// enough for a standing answer, not a claim.
    fn rates(&mut self, p: &Prepared, config: &RuntimeConfig, log: LogTo, what: &str) -> [f64; 2] {
        [(); 2].map(|()| self.run(p, config, log, what).jobs_per_s())
    }
}

/// Where a run's write-ahead log goes.
#[derive(Clone, Copy)]
enum LogTo {
    /// The workload's own choice: a fresh in-memory store if it is
    /// durable (every byte of framing, checksum, group commit, watermark
    /// and checkpoint work, no system call), no log otherwise.
    Default,
    /// No log, whatever the workload says.
    Nowhere,
    /// A fresh directory store under the scratch directory: real files
    /// and `sync_data`, at the sandbox file system's latency.
    Directory,
}

/// One finished run: its report, the outside wall time of the call, and
/// the directory its log went to (removed when the run is dropped).
struct Run {
    report: RuntimeReport,
    wall: Duration,
    log_dir: Option<PathBuf>,
}

impl Run {
    fn jobs_per_s(&self) -> f64 {
        self.report.committed as f64 / self.wall.as_secs_f64()
    }
}

impl Drop for Run {
    fn drop(&mut self) {
        if let Some(dir) = &self.log_dir {
            let _ = std::fs::remove_dir_all(dir);
        }
    }
}

fn span<R>(tracer: &mut Option<&mut Tracer>, name: &'static str, f: impl FnOnce() -> R) -> R {
    match tracer {
        Some(t) => t.span(name, |_| f()),
        None => f(),
    }
}

/// Builds a fresh runtime (and log), runs `p.jobs` under `config`, and
/// returns the run with what its correctness gate missed. With a tracer,
/// each public call is a span and the run call is split into the part
/// the report times itself and the tail after it.
fn run_once(
    p: &Prepared,
    config: &RuntimeConfig,
    log: LogTo,
    scratch: &mut Scratch,
    mut tracer: Option<&mut Tracer>,
) -> (Run, Vec<String>) {
    let mut rt = span(&mut tracer, "policies.build", || p.runtime());
    let (log_dir, store): (Option<PathBuf>, Option<Box<dyn Store>>) = match log {
        LogTo::Directory => {
            let dir = scratch.fresh();
            let store = DirStore::open(&dir).expect("scratch directory opens");
            (Some(dir), Some(Box::new(store)))
        }
        LogTo::Default if p.durable => (None, Some(Box::new(SharedMemStore::new()))),
        LogTo::Default | LogTo::Nowhere => (None, None),
    };
    let wal = store.map(|store| {
        span(&mut tracer, "durability.create", || {
            Arc::new(
                rt.create_wal(store, WalConfig::default())
                    .expect("a fresh store takes a log"),
            )
        })
    });
    let mut call = || match &wal {
        Some(wal) => rt.run_durable(&p.jobs, config, Arc::clone(wal)),
        None => rt.run(&p.jobs, config),
    };
    let start = Instant::now();
    let report = match tracer {
        Some(t) => t.span("runtime.call", |t| {
            let report = call();
            let run_end = t.child_from_start("runtime.run", report.elapsed);
            t.child_until_now("runtime.report_tail", run_end);
            report
        }),
        None => call(),
    };
    let wall = start.elapsed();
    let misses = p.gate(&report, config);
    (
        Run {
            report,
            wall,
            log_dir,
        },
        misses,
    )
}

/// The checks that are linear in trace length, over a whole run.
fn linear_trace_checks(report: &RuntimeReport) -> Vec<String> {
    let mut misses = Vec::new();
    if let Err(v) = report.schedule.check_legal() {
        misses.push(format!("trace is not legal: {v}"));
    }
    if let Err(v) = report.schedule.check_proper(&report.initial) {
        misses.push(format!("trace is not proper: {v}"));
    }
    if !report.lock_table_quiescent() {
        misses.push("locks still held after the workers drained".into());
    }
    if let Some(v) =
        IncrementalCertifier::certify_schedule_with_aborts(&report.schedule, &report.aborted)
    {
        misses.push(format!(
            "incremental certifier found a cycle {:?} at stamp {}",
            v.cycle, v.stamp
        ));
    }
    misses
}

/// The full offline replay — legal, proper, serializable-with-aborts —
/// the checkers the conformance suites use. Cubic; slice-sized runs only.
fn offline_replay(report: &RuntimeReport) -> Vec<String> {
    let mut misses = Vec::new();
    if !report.schedule.is_legal() {
        misses.push("slice trace is not legal".into());
    }
    if !report.schedule.is_proper(&report.initial) {
        misses.push("slice trace is not proper".into());
    }
    if !is_serializable_with_aborts(&report.schedule, &report.aborted) {
        misses.push("slice trace is not serializable".into());
    }
    misses
}

/// Recovers the directory log of a durable run and checks the recovered
/// execution certifies and commits exactly what the run committed.
fn recovery_checks(run: &Run) -> Vec<String> {
    let Some(dir) = &run.log_dir else {
        return Vec::new();
    };
    let store = match DirStore::open(dir) {
        Ok(store) => store,
        Err(e) => return vec![format!("log directory does not reopen: {e}")],
    };
    let recovered = match recover(&store, RecoveryMode::Oldest) {
        Ok(r) => r,
        Err(e) => return vec![format!("clean log does not recover: {e:?}")],
    };
    let mut misses = Vec::new();
    if let Err(e) = recovered.certify() {
        misses.push(format!("recovered execution does not certify: {e}"));
    }
    if recovered.watermark != run.report.schedule.len() as u64 {
        misses.push(format!(
            "recovered {} of {} steps from a flushed log",
            recovered.watermark,
            run.report.schedule.len()
        ));
    }
    let aborted: HashSet<TxId> = run.report.aborted.iter().copied().collect();
    let mut expected: Vec<TxId> = run
        .report
        .schedule
        .participants()
        .into_iter()
        .filter(|tx| !aborted.contains(tx))
        .collect();
    expected.sort_unstable();
    let mut durable = recovered.committed.clone();
    durable.sort_unstable();
    if durable != expected {
        misses.push(format!(
            "durably committed set has {} transactions, the run committed {}",
            durable.len(),
            expected.len()
        ));
    }
    misses
}

/// The first [`Scale::replay_slice_jobs`] jobs of `p` as a workload of
/// its own.
fn replay_slice(p: &Prepared, scale: Scale) -> Prepared {
    p.with_jobs(p.jobs[..p.jobs.len().min(scale.replay_slice_jobs())].to_vec())
}

/// The untimed correctness repeat: a full-size run through the linear
/// checks, and a slice-sized run through the full offline replay (and,
/// when durable, through recovery).
fn correctness_repeat(p: &Prepared, scale: Scale, bench: &mut Bench) {
    let (run, mut misses) = run_once(p, &p.config, LogTo::Default, &mut bench.scratch, None);
    misses.extend(linear_trace_checks(&run.report));
    bench.record("correctness repeat", p, &run, misses);
    drop(run);
    let slice = replay_slice(p, scale);
    let log = if p.durable {
        LogTo::Directory
    } else {
        LogTo::Default
    };
    let (run, mut misses) = run_once(&slice, &slice.config, log, &mut bench.scratch, None);
    misses.extend(offline_replay(&run.report));
    misses.extend(recovery_checks(&run));
    bench.record("offline replay slice", &slice, &run, misses);
}

/// The untraced pass: set-up several times, timed repeats for
/// `opts.seconds`, then the correctness repeat.
pub fn end_to_end(opts: &Options) -> WorkloadResult {
    let workers = catalog::workers();
    let mut bench = Bench::new();
    let mut samples = Samples::new(END_TO_END);

    // Set-up: input generation, runtime build, interning, log creation
    // and the warm-up run — everything before the first timed run.
    let mut prepared = None;
    let setting_up = Instant::now();
    while opts
        .scale
        .set_up_again(samples.get("setup_s").len(), setting_up.elapsed())
    {
        let start = Instant::now();
        let p = Prepared::generate(opts.workload, opts.scale, opts.seed, workers);
        let warm = bench.run(&p, &p.config, LogTo::Default, "warm-up");
        samples.push("setup_s", start.elapsed().as_secs_f64());
        drop(warm);
        prepared = Some(p);
    }
    let p = prepared.expect("at least one set-up");

    let phase = Instant::now();
    while samples.get("ops_per_s").len() < MIN_REPEATS
        || phase.elapsed().as_secs_f64() < opts.seconds
    {
        // The high-water mark is per repeat (the previous run's report is
        // gone by now), so one runaway repeat cannot set the figure.
        reset_peak_rss();
        let run = bench.run(&p, &p.config, LogTo::Default, "timed run");
        samples.push("ops_per_s", run.jobs_per_s());
        samples.push("peak_rss_mb", peak_rss_mb());
    }
    correctness_repeat(&p, opts.scale, &mut bench);

    WorkloadResult {
        workload: opts.workload,
        trace: false,
        tally: bench.tally,
        metrics: samples.summarize(),
        notes: vec![config_note(&p, workers)],
        spans: None,
    }
}

fn config_note(p: &Prepared, workers: usize) -> String {
    let mut note = format!(
        "closed loop, {workers} workers, {} jobs per run, policy {}",
        p.jobs.len(),
        p.kind.name()
    );
    if p.durable {
        note.push_str(&format!(
            ", flush policy {:?} on an in-memory store",
            WalConfig::default()
        ));
    }
    note
}

/// A step with its sequence stamp, as the log and the certifier take it.
type Stamped = (u64, ScheduledStep);

/// The transaction a batch retires, and whether it aborted.
type Seal = Option<(TxId, bool)>;

/// A captured trace as the runtime hands it to the log and the
/// certifier: stamped steps (stamp = position), cut into maximal
/// same-transaction batches, each transaction sealed at its last batch.
struct Batches {
    stamped: Vec<Stamped>,
    /// Per batch: one past its last index into `stamped`, and the
    /// transaction it retires, if any.
    cuts: Vec<(usize, Seal)>,
}

impl Batches {
    fn of(report: &RuntimeReport) -> Batches {
        let steps = report.schedule.steps();
        let aborted: HashSet<TxId> = report.aborted.iter().copied().collect();
        let stamped: Vec<Stamped> = steps
            .iter()
            .enumerate()
            .map(|(i, s)| (i as u64, *s))
            .collect();
        let mut cuts: Vec<(usize, Seal)> = Vec::new();
        let mut last_batch: HashMap<TxId, usize> = HashMap::new();
        for (i, s) in steps.iter().enumerate() {
            match cuts.last_mut() {
                Some(cut) if i > 0 && steps[i - 1].tx == s.tx => cut.0 = i + 1,
                _ => cuts.push((i + 1, None)),
            }
            last_batch.insert(s.tx, cuts.len() - 1);
        }
        for (tx, batch) in last_batch {
            cuts[batch].1 = Some((tx, aborted.contains(&tx)));
        }
        Batches { stamped, cuts }
    }

    fn iter(&self) -> impl Iterator<Item = (&[Stamped], Seal)> {
        let mut from = 0;
        self.cuts.iter().map(move |&(to, seal)| {
            let batch = &self.stamped[from..to];
            from = to;
            (batch, seal)
        })
    }
}

/// Re-appends a captured trace through the log's public calls on an
/// in-memory store: framing, checksums, watermark and checkpoints with
/// no I/O underneath.
fn append_replay(report: &RuntimeReport, batches: &Batches) {
    let wal = Wal::create(
        Box::new(MemStore::new()),
        WalConfig::default(),
        &report.initial,
    )
    .expect("an empty memory store takes a log");
    for (batch, seal) in batches.iter() {
        wal.append_steps(batch).expect("memory store appends");
        if let Some((tx, false)) = seal {
            let last = batch.last().expect("batches are not empty").0;
            wal.append_commit(tx, last + 1)
                .expect("memory store appends");
        }
    }
    wal.flush().expect("memory store syncs");
}

/// Feeds a captured trace to a standalone incremental certifier the way
/// the runtime does: one batch per attempt, sealed with its outcome.
fn certify_feed(batches: &Batches) -> bool {
    let mut cert = IncrementalCertifier::new();
    for (batch, seal) in batches.iter() {
        cert.observe_trace(batch);
        if let Some((tx, aborted)) = seal {
            cert.seal_with(tx, aborted);
        }
    }
    cert.violation().is_none()
}

/// Pushes the counters one report carries, normalized per job.
fn push_counters(layers: &mut Samples, p: &Prepared, run: &Run) {
    let r = &run.report;
    let jobs = p.jobs.len() as f64;
    let kjobs = jobs / 1000.0;
    let elapsed = r.elapsed.as_secs_f64();
    layers.push("runtime.run_s", elapsed);
    layers.push(
        "runtime.report_tail_s",
        (run.wall.as_secs_f64() - elapsed).max(0.0),
    );
    layers.push("runtime.commit_p50_us", r.latency.p50_us as f64);
    layers.push("runtime.commit_p99_us", r.latency.p99_us as f64);
    layers.push("runtime.grants_per_job", r.grants as f64 / jobs);
    layers.push("runtime.fast_path_share", r.fast_path_ratio());
    layers.push("runtime.fast_path_fallbacks", r.fast_path_fallbacks as f64);
    layers.push("runtime.lock_waits_per_kjob", r.lock_waits as f64 / kjobs);
    layers.push("runtime.parks_per_kjob", r.parks as f64 / kjobs);
    layers.push("runtime.park_timeouts", r.park_timeouts as f64);
    layers.push(
        "runtime.deadlock_aborts_per_kjob",
        r.deadlock_aborts as f64 / kjobs,
    );
    layers.push(
        "runtime.policy_aborts_per_kjob",
        r.policy_aborts as f64 / kjobs,
    );
    layers.push(
        "runtime.attempts_per_commit",
        r.attempts as f64 / r.committed.max(1) as f64,
    );
    layers.push("core.certification_aborts", r.certification_aborts as f64);
    layers.push(
        "mvcc.snapshot_reads_per_job",
        r.snapshot_reads as f64 / jobs,
    );
    if p.workload == Workload::ReadMostlySnapshot {
        layers.push("mvcc.lock_grants_per_job", r.grants as f64 / jobs);
    }
    if let Some(wal) = &r.wal {
        layers.push("durability.records_per_job", wal.records as f64 / jobs);
        layers.push("durability.bytes_per_job", wal.bytes as f64 / jobs);
        layers.push("durability.syncs_per_kjob", wal.syncs as f64 / kjobs);
        layers.push("durability.segments", wal.segments as f64);
        layers.push("durability.checkpoints", wal.checkpoints as f64);
    }
    if let Some(cert) = &r.certification {
        let s = &cert.stats;
        layers.push(
            "core.cert_edges_per_step",
            s.edges as f64 / s.steps.max(1) as f64,
        );
        layers.push("core.cert_peak_nodes", s.peak_nodes as f64);
        layers.push("core.cert_truncations", s.truncations as f64);
    }
}

/// Two runs of `p` under `config`, each one's jobs/s pushed as `name`.
fn ablation(
    name: &'static str,
    p: &Prepared,
    config: &RuntimeConfig,
    layers: &mut Samples,
    bench: &mut Bench,
) {
    for rate in bench.rates(p, config, LogTo::Default, name) {
        layers.push(name, rate);
    }
}

/// The same jobs through the single-threaded discrete-event simulator:
/// rule checks and planning with no threads, locks or clocks.
fn simulate(p: &Prepared, layers: &mut Samples, tally: &mut Tally) {
    let jobs = &p.jobs[..p.jobs.len().min(SIM_SLICE_JOBS)];
    let mut adapter = build_adapter(&PolicyRegistry::new(), p.kind, &p.policy)
        .expect("catalog policies build for the simulator");
    for name in &p.fresh_names {
        adapter.intern(name).expect("policy interns fresh names");
    }
    let config = SimConfig {
        workers: p.config.workers,
        max_ticks: u64::MAX,
        ..SimConfig::default()
    };
    let start = Instant::now();
    let report = run_sim(&mut adapter, jobs, &config);
    let wall = start.elapsed().as_secs_f64();
    let mut misses = Vec::new();
    if report.timed_out || report.committed != jobs.len() {
        misses.push(format!(
            "simulator committed {} of {} jobs",
            report.committed,
            jobs.len()
        ));
    }
    tally.record(
        "simulator run",
        jobs.len(),
        jobs.len() - report.committed,
        misses,
    );
    layers.push("policies.sim_jobs_per_s", report.committed as f64 / wall);
    layers.push(
        "sim.steps_per_job",
        report.schedule.len() as f64 / report.committed.max(1) as f64,
    );
}

/// The traced pass: paired untraced / traced runs for `opts.seconds / 2`,
/// the layer replays on each captured trace, then the workload's
/// ablations.
pub fn traced(opts: &Options) -> WorkloadResult {
    let workers = catalog::workers();
    let mut bench = Bench::new();
    let mut layers = Samples::new(PER_LAYER);
    let mut tracer = Tracer::new();
    let mut notes = Vec::new();

    let p = tracer.span("sim.gen", |_| {
        Prepared::generate(opts.workload, opts.scale, opts.seed, workers)
    });
    layers.push("sim.gen_s", p.gen_time.as_secs_f64());
    notes.push(config_note(&p, workers));
    let warm = bench.run(&p, &p.config, LogTo::Default, "warm-up");
    drop(warm);
    // The slice whose trace the offline replay prices in each iteration.
    let slice = replay_slice(&p, opts.scale);
    let slice_run = bench.run(
        &slice,
        &slice.config,
        LogTo::Nowhere,
        "offline replay slice",
    );

    let mut plain = Vec::new();
    let mut with_spans = Vec::new();
    let mut shares: [Vec<f64>; 5] = Default::default();
    let phase = Instant::now();
    while plain.len() < 2 || phase.elapsed().as_secs_f64() < opts.seconds / 2.0 {
        let run = bench.run(&p, &p.config, LogTo::Default, "untraced run");
        plain.push(run.jobs_per_s());
        drop(run);

        let run_id = tracer.next_run();
        let iteration = Instant::now();
        let (run, mut misses) = run_once(
            &p,
            &p.config,
            LogTo::Default,
            &mut bench.scratch,
            Some(&mut tracer),
        );
        let batches = tracer.span("harness.batch", |_| Batches::of(&run.report));
        tracer.span("durability.append_replay", |_| {
            append_replay(&run.report, &batches)
        });
        if !tracer.span("core.certify_feed", |_| certify_feed(&batches)) {
            misses.push("standalone certifier feed found a cycle".into());
        }
        tracer.span("core.offline_replay", |_| {
            misses.extend(offline_replay(&slice_run.report));
        });
        let wall = iteration.elapsed().as_secs_f64();

        bench.record("traced run", &p, &run, misses);
        with_spans.push(run.jobs_per_s());
        push_counters(&mut layers, &p, &run);
        let total = |name: &str| tracer.total(name, run_id).as_secs_f64();
        layers.push("policies.build_s", total("policies.build"));
        layers.push(
            "durability.append_replay_s",
            total("durability.append_replay"),
        );
        layers.push("core.certify_feed_s", total("core.certify_feed"));
        layers.push("core.offline_replay_s", total("core.offline_replay"));
        layers.push(
            "trace.span_coverage",
            tracer.top_level_total(run_id).as_secs_f64() / wall,
        );
        for (share, name) in shares.iter_mut().zip([
            "runtime.run",
            "runtime.report_tail",
            "durability.append_replay",
            "core.certify_feed",
            "core.offline_replay",
        ]) {
            share.push(total(name) / wall);
        }
    }
    layers.push(
        "trace.overhead_share",
        1.0 - median(&with_spans) / median(&plain),
    );
    notes.push(format!(
        "share of a traced iteration's wall: run {:.1}% / report tail {:.1}% / WAL replay {:.1}% \
         / certifier feed {:.1}% / offline replay ({} jobs) {:.1}%",
        100.0 * median(&shares[0]),
        100.0 * median(&shares[1]),
        100.0 * median(&shares[2]),
        100.0 * median(&shares[3]),
        slice.jobs.len(),
        100.0 * median(&shares[4]),
    ));

    // One worker, for the scaling ratio.
    let single = RuntimeConfig {
        workers: 1,
        ..p.config
    };
    ablation(
        "runtime.w1_jobs_per_s",
        &p,
        &single,
        &mut layers,
        &mut bench,
    );
    layers.push(
        "runtime.scaling",
        median(&with_spans) / median(layers.get("runtime.w1_jobs_per_s")),
    );
    simulate(&p, &mut layers, &mut bench.tally);

    match opts.workload {
        Workload::TwoplHotCold => {
            for (name, config) in [
                (
                    "runtime.engine_path_jobs_per_s",
                    RuntimeConfig {
                        grant_fast_path: false,
                        ..p.config
                    },
                ),
                (
                    "runtime.waves_jobs_per_s",
                    RuntimeConfig {
                        scheduler: SchedMode::Waves,
                        ..p.config
                    },
                ),
                (
                    "runtime.deterministic_jobs_per_s",
                    RuntimeConfig {
                        scheduler: SchedMode::Deterministic,
                        ..p.config
                    },
                ),
            ] {
                ablation(name, &p, &config, &mut layers, &mut bench);
            }
        }
        Workload::ReadMostlySnapshot => {
            let readers = p.with_jobs(p.jobs.iter().filter(|j| j.read_only).cloned().collect());
            let writers = p.with_jobs(p.jobs.iter().filter(|j| !j.read_only).cloned().collect());
            let locked = RuntimeConfig {
                snapshot_reads: false,
                ..p.config
            };
            for (name, slice, config) in [
                ("mvcc.read_slice_jobs_per_s", &readers, &p.config),
                ("mvcc.locked_read_slice_jobs_per_s", &readers, &locked),
                ("mvcc.writer_slice_jobs_per_s", &writers, &p.config),
                ("mvcc.writer_slice_nosnap_jobs_per_s", &writers, &locked),
            ] {
                ablation(name, slice, config, &mut layers, &mut bench);
            }
        }
        Workload::TwoplDurable => {
            // The directory store: real files and `sync_data`, on the
            // first jobs only — at a few thousand jobs/s the whole slice
            // would take the pass's time several times over.
            let on_disk = p.with_jobs(p.jobs[..p.jobs.len().min(DIRECTORY_SLICE_JOBS)].to_vec());
            for _ in 0..2 {
                let run = bench.run(
                    &on_disk,
                    &on_disk.config,
                    LogTo::Directory,
                    "directory-store run",
                );
                layers.push("durability.dir_store_jobs_per_s", run.jobs_per_s());
                let dir = run.log_dir.as_ref().expect("a directory-store run");
                let store = DirStore::open(dir).expect("log directory reopens");
                let start = Instant::now();
                let recovered = recover(&store, RecoveryMode::Oldest);
                let took = start.elapsed().as_secs_f64();
                match recovered {
                    Ok(r) => {
                        layers.push("durability.recover_s", took);
                        layers.push("durability.recover_steps_per_s", r.watermark as f64 / took);
                    }
                    Err(e) => bench.tally.misses.push(format!("recover: {e:?}")),
                }
            }
            notes.push(commit_breakdown(
                &on_disk,
                median(layers.get("durability.dir_store_jobs_per_s")),
                &mut layers,
                &mut bench,
            ));
        }
        _ => {}
    }

    WorkloadResult {
        workload: opts.workload,
        trace: true,
        tally: bench.tally,
        metrics: layers.summarize(),
        notes,
        spans: Some(tracer.to_json()),
    }
}

/// What fraction of a durable, certified 2PL commit is grant / WAL /
/// certify, measured from outside: the same jobs in memory (grant), on
/// the directory log (+ WAL, `durable_jobs_per_s`), and on the log with
/// strict certification (+ certify), as wall time per job.
fn commit_breakdown(
    p: &Prepared,
    durable_jobs_per_s: f64,
    layers: &mut Samples,
    bench: &mut Bench,
) -> String {
    let mut per_job = |config: &RuntimeConfig, log: LogTo, what: &str| {
        1.0 / median(&bench.rates(p, config, log, what))
    };
    let grant = per_job(&p.config, LogTo::Nowhere, "in-memory run");
    let certified = RuntimeConfig {
        certify_online: CertifyMode::Strict,
        ..p.config
    };
    let all = per_job(&certified, LogTo::Directory, "durable certified run");
    let durable = 1.0 / durable_jobs_per_s;
    layers.push("commit.grant_share", grant / all);
    layers.push("commit.wal_share", (durable - grant) / all);
    layers.push("commit.certify_share", (all - durable) / all);
    format!(
        "a durable certified 2PL commit, from outside: grant {:.1}% / WAL {:.1}% / certify {:.1}% \
         ({:.1} us per job in memory, {:.1} on the directory log, {:.1} with strict certification \
         too; sandbox file system)",
        100.0 * grant / all,
        100.0 * (durable - grant) / all,
        100.0 * (all - durable) / all,
        grant * 1e6,
        durable * 1e6,
        all * 1e6,
    )
}
