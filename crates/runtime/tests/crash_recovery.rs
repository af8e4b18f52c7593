//! Crash/recovery conformance: a durable run's log, killed at *any*
//! byte, after *any* store call, or with a bit flipped in any frame
//! header, recovers to a certified prefix of the execution the runtime
//! actually produced.
//!
//! The contract under test (the durability subsystem's north star):
//!
//! 1. **Prefix consistency** — the recovered stamped tail is exactly a
//!    prefix of the run's merged trace (stamps arbitrate the cross-worker
//!    byte order, so a torn group-commit batch can only cost a *suffix*);
//! 2. **Safety of the prefix** — the recovered schedule independently
//!    re-certifies as legal, proper, and conflict-serializable
//!    ([`Recovered::certify`]), because conflict-serializability is
//!    prefix-closed;
//! 3. **Graceful truncation** — torn frames, flipped bytes, and missing
//!    segments truncate the log at the damage; no input panics recovery,
//!    and only damage inside the base checkpoint leaves nothing to
//!    recover;
//! 4. **Checkpoint fidelity** — seeding from the newest checkpoint lands
//!    on the same state, locks and watermark as replaying everything from
//!    the base checkpoint;
//! 5. **Committed means whole** — every transaction recovered as
//!    committed has its last step below the recovered watermark;
//! 6. **A flushed run is durable** — a crash after the run's final flush
//!    that drops every unsynced byte still recovers the whole run and
//!    exactly its committed set.
//!
//! The crash grid enumerates; no crash point is sampled. Its cells are
//! {2PL, altruistic} × workers {1, 2} × `segment_bytes` {256, 1024} ×
//! `group_commit` {1, 3} × `checkpoint_every` {0, 8}, one durable run of
//! 11 jobs each. Every cell's crash points are every byte cut of the
//! final log, the store after every store call the log made (crashed
//! once keeping and once dropping its unsynced bytes), and a bit flip in
//! every segment-magic byte, every frame-header byte and every frame's
//! kind byte. `--nocapture` prints each cell's counts. Two runs outside
//! the grid are held to the same checks: a four-worker run at its full
//! log and every store call, and a 2 KiB-segment log at every byte cut.

mod common;

use common::check_run;
use slp_core::{is_serializable_with_aborts, Access, EntityId, StructuralState, TxId};
use slp_durability::frame::{decode_frame, FrameOutcome};
use slp_durability::{FaultyStore, Record, Recovered, SEGMENT_MAGIC};
use slp_policies::{Job, PolicyConfig, PolicyKind};
use slp_runtime::{
    recover, MemStore, RecoveryMode, Runtime, RuntimeConfig, RuntimeReport, SchedMode,
    SharedMemStore, Store, Wal, WalConfig, WalError,
};
use slp_sim::{dag_mixed_jobs, layered_dag, read_heavy_jobs, uniform_jobs};
use std::collections::{BTreeSet, HashMap};
use std::sync::{Arc, Mutex};

/// Runs `jobs` durably into `store` (the caller keeps a handle to crash
/// it), held to `common::check_run`. Durable runs keep the default 1 ms
/// park backstop, so that check does not assert `park_timeouts == 0`
/// here.
fn durable_run(
    kind: PolicyKind,
    config: &PolicyConfig,
    jobs: &[Job],
    run: &RuntimeConfig,
    wal_config: WalConfig,
    store: impl Store + 'static,
) -> RuntimeReport {
    let mut rt = Runtime::new(kind, config).expect("buildable kind");
    let wal = Arc::new(
        rt.create_wal(Box::new(store), wal_config)
            .expect("fresh store"),
    );
    let report = rt.run_durable(jobs, run, wal);
    check_run(run, jobs, &report, &format!("durable {}", report.policy));
    report
}

/// The transactions the run committed: everyone in the trace who did not
/// abort.
fn committed_set(report: &RuntimeReport) -> BTreeSet<TxId> {
    let aborted: BTreeSet<TxId> = report.aborted.iter().copied().collect();
    report
        .schedule
        .participants()
        .into_iter()
        .filter(|tx| !aborted.contains(tx))
        .collect()
}

/// The structural state the run ended in, derived by independent replay.
fn final_state(report: &RuntimeReport) -> StructuralState {
    report
        .schedule
        .check_proper(&report.initial)
        .expect("runtime traces are proper")
}

/// Asserts the recovered tail is a stamp-contiguous prefix of the run's
/// merged trace.
fn assert_prefix_of_run(r: &Recovered, report: &RuntimeReport, ctx: &str) {
    assert!(
        r.watermark <= report.schedule.len() as u64,
        "{ctx}: recovered past the end of the run"
    );
    for (i, &(stamp, step)) in r.tail.iter().enumerate() {
        assert_eq!(stamp, r.base_stamp + i as u64, "{ctx}: tail not contiguous");
        assert_eq!(
            step,
            report.schedule.steps()[stamp as usize],
            "{ctx}: recovered step {stamp} diverges from the run's trace"
        );
    }
}

/// Every byte cut of `log`: the store a crash at each byte position of
/// the concatenated segments leaves, from nothing to the whole log.
fn cuts(log: &MemStore) -> impl Iterator<Item = (usize, MemStore)> + '_ {
    (0..=log.total_bytes()).map(|cut| (cut, log.prefix(cut)))
}

/// Every byte a bit flip is aimed at, as offsets into the concatenated
/// segments: each segment's magic, and each frame's eight header bytes
/// and its kind byte. `log` is a clean log.
fn flip_offsets(log: &MemStore) -> Vec<usize> {
    let mut offsets = Vec::new();
    let mut base = 0;
    for index in log.list().expect("a memory store lists") {
        let data = log.read(index).expect("a listed segment reads");
        offsets.extend(base..base + SEGMENT_MAGIC.len());
        let mut at = SEGMENT_MAGIC.len();
        while let FrameOutcome::Record(_, rest) = decode_frame(&data[at..]) {
            offsets.extend(base + at..=base + at + 8);
            at = data.len() - rest.len();
        }
        base += data.len();
    }
    offsets
}

/// A store call, as far as the crash points it leaves need it.
#[derive(Clone, Copy, Debug)]
enum Call {
    Open,
    /// An append of this many whole frames (none for a segment magic),
    /// the last of them a checkpoint or not.
    Append {
        frames: usize,
        checkpoint: bool,
    },
    Sync,
    Remove,
}

/// A [`SharedMemStore`] that snapshots the store after every call that
/// changes it: each snapshot is a crash point.
#[derive(Clone, Default)]
struct RecordingStore {
    store: SharedMemStore,
    calls: Arc<Mutex<Vec<(Call, MemStore)>>>,
}

impl RecordingStore {
    fn record(&self, call: Call, result: Result<(), WalError>) -> Result<(), WalError> {
        let snapshot = self.store.snapshot();
        self.calls.lock().expect("calls").push((call, snapshot));
        result
    }
}

impl Store for RecordingStore {
    fn open_segment(&mut self, index: u64) -> Result<(), WalError> {
        let result = self.store.open_segment(index);
        self.record(Call::Open, result)
    }

    fn append(&mut self, bytes: &[u8]) -> Result<(), WalError> {
        let (mut frames, mut checkpoint, mut rest) = (0, false, bytes);
        while let FrameOutcome::Record(record, tail) = decode_frame(rest) {
            frames += 1;
            checkpoint = matches!(record, Record::Checkpoint(_));
            rest = tail;
        }
        let result = self.store.append(bytes);
        self.record(Call::Append { frames, checkpoint }, result)
    }

    fn sync(&mut self) -> Result<(), WalError> {
        let result = self.store.sync();
        self.record(Call::Sync, result)
    }

    fn list(&self) -> Result<Vec<u64>, WalError> {
        self.store.list()
    }

    fn read(&self, index: u64) -> Result<Vec<u8>, WalError> {
        self.store.read(index)
    }

    fn remove(&mut self, index: u64) -> Result<(), WalError> {
        let result = self.store.remove(index);
        self.record(Call::Remove, result)
    }
}

/// One cell of the crash grid: a durable run and every store call its
/// log made.
struct Cell {
    ctx: String,
    group_commit: usize,
    report: RuntimeReport,
    /// The store after each call, in call order; the last is the full log.
    calls: Vec<(Call, MemStore)>,
    /// How many of `calls` `Wal::create` made, and the bytes it left:
    /// the calls up to the first sync, which makes the base checkpoint
    /// durable.
    create_calls: usize,
    create_bytes: usize,
    /// Each transaction's last position in the run's trace.
    last_step: HashMap<TxId, u64>,
}

impl Cell {
    /// A grid cell: the grid's 11 jobs over 8 entities.
    fn run(kind: PolicyKind, workers: usize, wal_config: WalConfig) -> Cell {
        let pool: Vec<EntityId> = (0..8).map(EntityId).collect();
        // An odd job count: at 10 jobs every cell ended on a full sync
        // group, and a final flush that skipped its sync went unseen.
        let jobs = uniform_jobs(&pool, 11, 2, 7);
        Cell::run_jobs(kind, pool, &jobs, workers, wal_config)
    }

    /// `jobs` over the flat `pool`, run durably by `workers` workers.
    fn run_jobs(
        kind: PolicyKind,
        pool: Vec<EntityId>,
        jobs: &[Job],
        workers: usize,
        wal_config: WalConfig,
    ) -> Cell {
        let store = RecordingStore::default();
        let run = RuntimeConfig::with_workers(workers);
        let report = durable_run(
            kind,
            &PolicyConfig::flat(pool),
            jobs,
            &run,
            wal_config,
            store.clone(),
        );
        let calls = std::mem::take(&mut *store.calls.lock().expect("calls"));
        let create_calls = 1 + calls
            .iter()
            .position(|(call, _)| matches!(call, Call::Sync))
            .expect("create syncs its base checkpoint");
        let create_bytes = calls[create_calls - 1].1.total_bytes();
        let last_step = report
            .schedule
            .steps()
            .iter()
            .enumerate()
            .map(|(at, step)| (step.tx, at as u64))
            .collect();
        Cell {
            ctx: format!(
                "{} @ {workers}w, segment_bytes {}, group_commit {}, checkpoint_every {}",
                report.policy,
                wal_config.segment_bytes,
                wal_config.group_commit,
                wal_config.checkpoint_every
            ),
            group_commit: wal_config.group_commit,
            report,
            calls,
            create_calls,
            create_bytes,
            last_step,
        }
    }

    fn full_log(&self) -> &MemStore {
        &self.calls.last().expect("the log made calls").1
    }

    /// Recovers `store`, a crash of this cell's log, and holds the result
    /// to the contract. `None` where recovery failed, which only
    /// `may_fail` — a crash inside the base checkpoint — allows.
    fn check(&self, store: &MemStore, may_fail: bool, ctx: &str) -> Option<Recovered> {
        let r = match recover(store, RecoveryMode::Oldest) {
            Ok(r) => r,
            Err(e) => {
                assert!(may_fail, "{ctx}: lost the base checkpoint ({e})");
                return None;
            }
        };
        // The unpruned log's oldest checkpoint is the base: every
        // successful recovery is fully re-certifiable.
        assert_eq!(r.base_stamp, 0, "{ctx}: unpruned log must seed from base");
        assert_prefix_of_run(&r, &self.report, ctx);
        r.certify().unwrap_or_else(|e| panic!("{ctx}: {e}"));
        assert!(r.committed.len() <= self.report.committed, "{ctx}");
        for tx in &r.committed {
            assert!(
                self.last_step.get(tx).is_some_and(|&at| at < r.watermark),
                "{ctx}: {tx:?} recovered as committed without its last step"
            );
        }
        let fast = recover(store, RecoveryMode::Newest).expect("newest mode");
        assert_eq!(fast.state, r.state, "{ctx}: Newest != Oldest state");
        assert_eq!(fast.locks, r.locks, "{ctx}: Newest != Oldest locks");
        assert_eq!(
            fast.watermark, r.watermark,
            "{ctx}: Newest != Oldest watermark"
        );
        Some(r)
    }

    /// The full log recovers exactly the run the workers produced.
    fn check_full_log(&self) {
        let ctx = format!("{} / full log", self.ctx);
        let len = self.report.schedule.len() as u64;
        let summary = self.report.wal.expect("durable run reports its log");
        assert!(!summary.failed, "{ctx}");
        assert_eq!(
            summary.watermark, len,
            "{ctx}: a recorded step missed the log"
        );
        assert!(summary.records > 0 && summary.syncs > 0, "{ctx}");
        let r = self.check(self.full_log(), false, &ctx).expect("clean log");
        assert_eq!(r.truncation, None, "{ctx}");
        assert_eq!(r.dropped_after_gap, 0, "{ctx}");
        assert_eq!(
            r.watermark, len,
            "{ctx}: the full log recovers the full run"
        );
        assert_eq!(r.state, final_state(&self.report), "{ctx}");
        assert!(r.locks.is_empty(), "{ctx}: a quiescent run holds no locks");
        assert_eq!(r.committed.len(), self.report.committed, "{ctx}");
    }

    /// Every byte cut: watermarks never fall as the cut grows.
    fn check_cuts(&self) -> usize {
        let total = self.full_log().total_bytes();
        let mut watermark = 0;
        for (cut, store) in cuts(self.full_log()) {
            let ctx = format!("{} / cut at {cut}/{total}", self.ctx);
            if let Some(r) = self.check(&store, cut < self.create_bytes, &ctx) {
                assert!(
                    r.watermark >= watermark,
                    "{ctx}: a longer log recovered less"
                );
                watermark = r.watermark;
            }
        }
        total + 1
    }

    /// The store after every call, crashed with and without its unsynced
    /// bytes. After the last call the final flush has returned, so
    /// dropping what was never synced there loses nothing of the run.
    fn check_store_calls(&self) -> usize {
        for (i, (call, store)) in self.calls.iter().enumerate() {
            for keep_volatile in [true, false] {
                let ctx = format!(
                    "{} / crash after call {i} ({call:?}), keep_volatile={keep_volatile}",
                    self.ctx
                );
                self.check(&store.crashed(keep_volatile), i < self.create_calls, &ctx);
            }
        }
        let ctx = format!("{} / crash after the final flush", self.ctx);
        let r = self
            .check(&self.full_log().crashed(false), false, &ctx)
            .expect("a flushed log recovers");
        assert_eq!(
            r.watermark,
            self.report.schedule.len() as u64,
            "{ctx}: the flushed run lost steps"
        );
        let durable: BTreeSet<TxId> = r.committed.iter().copied().collect();
        assert_eq!(durable, committed_set(&self.report), "{ctx}");
        2 * self.calls.len()
    }

    /// A bit flip (bit `offset % 8`) in every segment-magic, frame-header
    /// and frame-kind byte.
    fn check_flips(&self) -> usize {
        let offsets = flip_offsets(self.full_log());
        for &offset in &offsets {
            let ctx = format!("{} / flip at {offset}", self.ctx);
            let mut store = self.full_log().clone();
            store.corrupt(offset, 1 << (offset % 8));
            self.check(&store, offset < self.create_bytes, &ctx);
        }
        offsets.len()
    }

    /// Whether the final flush synced frames no group boundary had: the
    /// last call is a sync closing fewer frames than a group, none of
    /// them a checkpoint (which syncs itself). Without such a cell the
    /// flushed-run check could not see a flush that skips its sync.
    fn flush_synced_a_short_group(&self) -> bool {
        let Some(((Call::Sync, _), earlier)) = self.calls.split_last() else {
            return false;
        };
        let group = earlier
            .iter()
            .rev()
            .map(|(call, _)| *call)
            .take_while(|call| !matches!(call, Call::Sync));
        let (mut frames, mut checkpoint_last) = (0, None);
        for call in group {
            if let Call::Append {
                frames: n @ 1..,
                checkpoint,
            } = call
            {
                frames += n;
                checkpoint_last.get_or_insert(checkpoint);
            }
        }
        frames < self.group_commit && checkpoint_last == Some(false)
    }
}

/// Runs the crash grid's cells for `kind` and checks every crash point
/// of each.
fn crash_grid(kind: PolicyKind) {
    let mut short_final_groups = 0;
    for workers in [1, 2] {
        for segment_bytes in [256, 1024] {
            for group_commit in [1, 3] {
                for checkpoint_every in [0, 8] {
                    let wal_config = WalConfig {
                        segment_bytes,
                        group_commit,
                        checkpoint_every,
                        ..WalConfig::default()
                    };
                    let cell = Cell::run(kind, workers, wal_config);
                    cell.check_full_log();
                    let cuts = cell.check_cuts();
                    let points = cell.check_store_calls();
                    let flips = cell.check_flips();
                    short_final_groups += cell.flush_synced_a_short_group() as usize;
                    println!(
                        "{}: {cuts} cuts, {points} crash points, {flips} flips",
                        cell.ctx
                    );
                }
            }
        }
    }
    assert!(
        short_final_groups > 0,
        "no cell reached its final flush with unsynced frames"
    );
}

#[test]
fn every_crash_point_of_a_2pl_run_recovers() {
    crash_grid(PolicyKind::TwoPhase);
}

#[test]
fn every_crash_point_of_an_altruistic_run_recovers() {
    crash_grid(PolicyKind::Altruistic);
}

/// A run wider than any grid cell — four workers, 20 jobs of three
/// targets over 16 entities, `group_commit` 4 — recovers exactly the
/// execution from its full log, and from every store call.
#[test]
fn durable_run_recovers_the_full_execution() {
    let pool: Vec<EntityId> = (0..16).map(EntityId).collect();
    let jobs = uniform_jobs(&pool, 20, 3, 7);
    let wal_config = WalConfig {
        group_commit: 4,
        checkpoint_every: 64,
        ..WalConfig::default()
    };
    let cell = Cell::run_jobs(PolicyKind::TwoPhase, pool, &jobs, 4, wal_config);
    cell.check_full_log();
    cell.check_store_calls();
}

/// Every byte cut of a two-worker 2PL log with 2 KiB segments and a
/// checkpoint every 16 records, a shape outside the grid. The name is
/// older than the grid: the cuts were once every third byte, and are
/// every byte now.
#[test]
fn every_sampled_byte_prefix_recovers_a_certified_prefix() {
    let pool: Vec<EntityId> = (0..8).map(EntityId).collect();
    let jobs = uniform_jobs(&pool, 10, 2, 3);
    let wal_config = WalConfig {
        group_commit: 1,
        checkpoint_every: 16,
        segment_bytes: 2048,
        ..WalConfig::default()
    };
    let cell = Cell::run_jobs(PolicyKind::TwoPhase, pool, &jobs, 2, wal_config);
    cell.check_full_log();
    cell.check_cuts();
}

#[test]
fn mid_run_store_failure_finishes_in_memory_and_the_prefix_recovers() {
    let pool: Vec<EntityId> = (0..12).map(EntityId).collect();
    let jobs = uniform_jobs(&pool, 16, 3, 11);
    // Two failure styles: a torn append mid-byte, and a dying fsync.
    type FaultWrap = Box<dyn Fn(SharedMemStore) -> Box<dyn Store>>;
    let faults: Vec<(&str, FaultWrap)> = vec![
        (
            "torn append after 2 KiB",
            Box::new(|h| Box::new(FaultyStore::new(h).fail_after_bytes(2048))),
        ),
        (
            "third fsync dies",
            Box::new(|h| Box::new(FaultyStore::new(h).fail_on_sync(3))),
        ),
    ];
    for (name, wrap) in faults {
        let handle = SharedMemStore::new();
        let mut rt = Runtime::new(PolicyKind::TwoPhase, &PolicyConfig::flat(pool.clone()))
            .expect("buildable kind");
        let wal = Arc::new(
            Wal::create(
                wrap(handle.clone()),
                WalConfig {
                    group_commit: 2,
                    checkpoint_every: 16,
                    ..WalConfig::default()
                },
                &rt.initial_state(),
            )
            .expect("create beats the fault budget"),
        );
        let config = RuntimeConfig::with_workers(4);
        let report = rt.run_durable(&jobs, &config, wal);

        // The dead log never stops the run.
        check_run(&config, &jobs, &report, name);
        let summary = report.wal.expect("durable run reports its log");
        assert!(summary.failed, "{name}: failure must be surfaced");
        assert!(
            summary.watermark < report.schedule.len() as u64,
            "{name}: a dead log cannot have recorded the whole run"
        );

        // What did reach the store — including a torn final append —
        // recovers to a certified prefix, with and without the volatile
        // (never-synced) suffix.
        for keep_volatile in [true, false] {
            let ctx = format!("{name} / keep_volatile={keep_volatile}");
            let store = handle.snapshot().crashed(keep_volatile);
            let r = recover(&store, RecoveryMode::Oldest).unwrap_or_else(|e| panic!("{ctx}: {e}"));
            assert_prefix_of_run(&r, &report, &ctx);
            r.certify().unwrap_or_else(|e| panic!("{ctx}: {e}"));
        }
    }
}

#[test]
fn ddag_insert_mix_durable_run_recovers() {
    for seed in [3u64, 9] {
        let dag = layered_dag(4, 3, 2, seed);
        let config = PolicyConfig::dag(dag.universe.clone(), dag.graph.clone());
        let mut rt = Runtime::new(PolicyKind::Ddag, &config).expect("DDAG builds");
        let jobs = {
            let mut intern = |name: &str| rt.intern(name).expect("DDAG interns");
            dag_mixed_jobs(&dag, 16, 2, 0.3, &mut intern, seed)
        };
        // The WAL's base checkpoint is captured *after* interning, so it
        // matches the initial state the run itself will record against.
        let handle = SharedMemStore::new();
        let wal = Arc::new(
            rt.create_wal(Box::new(handle.clone()), WalConfig::default())
                .expect("fresh store"),
        );
        let config = RuntimeConfig::with_workers(4);
        let report = rt.run_durable(&jobs, &config, wal);
        let ctx = format!("DDAG insert-mix / seed {seed}");
        check_run(&config, &jobs, &report, &ctx);
        assert!(!report.wal.expect("durable").failed, "{ctx}");

        let r = recover(&handle.snapshot(), RecoveryMode::Oldest)
            .unwrap_or_else(|e| panic!("{ctx}: {e}"));
        assert_eq!(r.base_state, report.initial, "{ctx}: base != run initial");
        assert_eq!(r.watermark, report.schedule.len() as u64, "{ctx}");
        assert_prefix_of_run(&r, &report, &ctx);
        assert_eq!(r.state, final_state(&report), "{ctx}: structural drift");
        r.certify().unwrap_or_else(|e| panic!("{ctx}: {e}"));
    }
}

/// The log is fed once per attempt: a steps frame and — for a commit — a
/// commit frame when the attempt retires, one more steps frame at most
/// for every conflict it waited out (the pre-park hand-over), and the
/// log's own checkpoints. Late as that is, nothing is lost: the flushed
/// log recovers every stamp the run drew and exactly its committed set,
/// aborted attempts (2PL deadlock victims at 2 and 4 workers) included
/// as steps without a commit record.
#[test]
fn one_append_per_attempt_still_logs_every_step_and_every_commit() {
    for kind in [PolicyKind::TwoPhase, PolicyKind::Altruistic] {
        for workers in [1usize, 2, 4] {
            let pool: Vec<EntityId> = (0..10).map(EntityId).collect();
            let jobs = uniform_jobs(&pool, 40, 3, 17 + workers as u64);
            let wal_config = WalConfig {
                checkpoint_every: 64,
                ..WalConfig::default()
            };
            let handle = SharedMemStore::new();
            let report = durable_run(
                kind,
                &PolicyConfig::flat(pool),
                &jobs,
                &RuntimeConfig::with_workers(workers),
                wal_config,
                handle.clone(),
            );
            let ctx = format!("{} @ {workers}w", report.policy);
            let wal = report.wal.expect("durable run reports its log");
            assert!(!wal.failed, "{ctx}");
            assert!(
                wal.records <= 2 * report.attempts as u64 + report.lock_waits + wal.checkpoints,
                "{ctx}: {} frames for {} attempts, {} waits, {} checkpoints",
                wal.records,
                report.attempts,
                report.lock_waits,
                wal.checkpoints
            );
            assert!(
                wal.syncs >= report.committed as u64,
                "{ctx}: a sync per commit"
            );

            let r = recover(&handle.snapshot(), RecoveryMode::Oldest).expect("clean log");
            assert_eq!(r.truncation, None, "{ctx}");
            assert_eq!(r.watermark, report.schedule.len() as u64, "{ctx}");
            assert_prefix_of_run(&r, &report, &ctx);
            let durable: BTreeSet<TxId> = r.committed.iter().copied().collect();
            assert_eq!(
                durable.len(),
                r.committed.len(),
                "{ctx}: one record a commit"
            );
            assert_eq!(durable, committed_set(&report), "{ctx}");
            r.certify().unwrap_or_else(|e| panic!("{ctx}: {e}"));
        }
    }
}

/// The byte-prefix sweep with snapshot reads on. A reader observes only
/// writers whose visibility flip it saw, and a writer flips only after
/// the one append that carried its steps *and* its commit record — so in
/// whatever prefix of the log survives, a recovered snapshot read that
/// observed a writer's version finds that writer durably committed. (A
/// flip ahead of the append, or a commit record appended apart from the
/// steps, leaves a cut where the read survives and the commit does not.)
///
/// The same jobs run twice: free-running, and under the wave scheduler.
/// Whether a free-running reader meets a writer's version is up to
/// timing; in waves, every reader admitted after a conflicting writer
/// waits behind that writer's commit and flip, so the check that some
/// read observed a writer is deterministic there.
#[test]
fn a_recovered_snapshot_read_never_observes_a_writer_the_log_lost() {
    let pool: Vec<EntityId> = (0..8).map(EntityId).collect();
    let jobs = read_heavy_jobs(&pool, 40, 2, 3, 0.5, 29);
    let read_only_jobs = jobs.iter().filter(|j| j.read_only).count() as u64;
    for scheduler in [SchedMode::Off, SchedMode::Waves] {
        let run = RuntimeConfig {
            snapshot_reads: true,
            scheduler,
            ..RuntimeConfig::with_workers(3)
        };
        let wal_config = WalConfig {
            group_commit: 1,
            checkpoint_every: 32,
            segment_bytes: 2048,
            ..WalConfig::default()
        };
        let handle = SharedMemStore::new();
        let report = durable_run(
            PolicyKind::TwoPhase,
            &PolicyConfig::flat(pool.clone()),
            &jobs,
            &run,
            wal_config,
            handle.clone(),
        );
        assert!(
            report.snapshot_reads > 0,
            "{scheduler:?}: the mix has read-only jobs"
        );
        let wal = report.wal.expect("durable run reports its log");
        let writer_attempts = report.attempts as u64 - read_only_jobs;
        assert!(
            wal.records
                <= 2 * writer_attempts + report.lock_waits + read_only_jobs + wal.checkpoints,
            "{scheduler:?}: a read-only job is one steps frame and no commit record"
        );

        let full = handle.snapshot();
        let total = full.total_bytes();
        let mut observed_writers = 0;
        for (cut, store) in cuts(&full) {
            let ctx = format!("{scheduler:?}, cut at {cut}/{total}");
            if let Ok(r) = recover(&store, RecoveryMode::Oldest) {
                assert_prefix_of_run(&r, &report, &ctx);
                let schedule = r.schedule().unwrap_or_else(|e| panic!("{ctx}: {e}"));
                assert!(schedule.is_legal(), "{ctx}");
                assert!(schedule.is_proper(&r.base_state), "{ctx}");
                // Aborted writers are phantoms to a snapshot reader: the
                // mixed-run oracle, not `certify`'s plain one.
                assert!(
                    is_serializable_with_aborts(&schedule, &report.aborted),
                    "{ctx}"
                );
                for (stamp, step) in &r.tail {
                    if let Access::Snapshot {
                        observed: Some(writer),
                    } = step.via
                    {
                        observed_writers += 1;
                        assert!(
                            r.committed.contains(&writer),
                            "{ctx}: the read at stamp {stamp} observed {writer:?}, \
                             whose commit record is not in the recovered prefix"
                        );
                    }
                }
            }
        }
        if scheduler == SchedMode::Waves {
            assert!(observed_writers > 0, "no read ever observed a writer");
        }
    }
}
