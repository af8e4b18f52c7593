//! Crash/recovery conformance: a durable run's log, killed at *any* byte
//! or record boundary, recovers to a certified prefix of the execution
//! the runtime actually produced.
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
//!    segments truncate the log at the damage; no input panics recovery;
//! 4. **Checkpoint fidelity** — seeding from the newest checkpoint lands
//!    on the same state as replaying everything from the base checkpoint.
//!
//! The crash-point property suite runs a seed matrix: two fixed seeds
//! always, plus `SLP_DURABILITY_SEED` when set (CI's rolling seed — see
//! `.github/workflows/ci.yml`).

mod common;

use common::check_run;
use proptest::test_runner::TestRng;
use slp_core::{is_serializable_with_aborts, Access, EntityId, StructuralState, TxId};
use slp_durability::{FaultyStore, Recovered};
use slp_policies::{Job, PolicyConfig, PolicyKind};
use slp_runtime::{
    recover, RecoveryMode, Runtime, RuntimeConfig, RuntimeReport, SharedMemStore, Store, Wal,
    WalConfig,
};
use slp_sim::{dag_mixed_jobs, layered_dag, read_heavy_jobs, uniform_jobs};
use std::collections::BTreeSet;
use std::sync::Arc;

/// Runs `jobs` durably against a fresh in-memory store; returns the run
/// report and the store handle (kept by the caller to simulate crashes).
fn durable_run(
    kind: PolicyKind,
    config: &PolicyConfig,
    jobs: &[Job],
    workers: usize,
    wal_config: WalConfig,
) -> (RuntimeReport, SharedMemStore) {
    let run = RuntimeConfig::with_workers(workers);
    durable_run_with(kind, config, jobs, &run, wal_config)
}

/// [`durable_run`] under an arbitrary runtime configuration, held to
/// `common::check_run`. Durable runs keep the default 1 ms park
/// backstop, so that check does not assert `park_timeouts == 0` here.
fn durable_run_with(
    kind: PolicyKind,
    config: &PolicyConfig,
    jobs: &[Job],
    run: &RuntimeConfig,
    wal_config: WalConfig,
) -> (RuntimeReport, SharedMemStore) {
    let mut rt = Runtime::new(kind, config).expect("buildable kind");
    let handle = SharedMemStore::new();
    let wal = Arc::new(
        rt.create_wal(Box::new(handle.clone()), wal_config)
            .expect("fresh store"),
    );
    let report = rt.run_durable(jobs, run, wal);
    check_run(run, jobs, &report, &format!("durable {}", report.policy));
    (report, handle)
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

#[test]
fn durable_run_recovers_the_full_execution() {
    let pool: Vec<EntityId> = (0..16).map(EntityId).collect();
    let jobs = uniform_jobs(&pool, 20, 3, 7);
    let wal_config = WalConfig {
        group_commit: 4,
        checkpoint_every: 64,
        ..WalConfig::default()
    };
    let (report, handle) = durable_run(
        PolicyKind::TwoPhase,
        &PolicyConfig::flat(pool),
        &jobs,
        4,
        wal_config,
    );
    let summary = report.wal.expect("durable run reports its log");
    assert!(!summary.failed);
    assert_eq!(
        summary.watermark,
        report.schedule.len() as u64,
        "every recorded step reached the log"
    );
    assert!(summary.records > 0 && summary.syncs > 0);

    // The flushed log replays to exactly the run the workers produced.
    let store = handle.snapshot();
    let r = recover(&store, RecoveryMode::Oldest).expect("clean log recovers");
    assert_eq!(r.truncation, None);
    assert_eq!(r.dropped_after_gap, 0);
    assert_eq!(r.watermark, report.schedule.len() as u64);
    assert_prefix_of_run(&r, &report, "full recovery");
    assert_eq!(r.state, final_state(&report));
    assert!(
        r.locks.is_empty(),
        "quiescent run leaves no in-flight locks"
    );
    assert_eq!(
        r.committed.len(),
        report.committed,
        "every commit record is durable after flush"
    );
    r.certify().expect("full recovery certifies");

    // Checkpoint fidelity: the fast path lands on the same state.
    let fast = recover(&store, RecoveryMode::Newest).expect("newest-checkpoint recovery");
    assert_eq!(fast.watermark, r.watermark);
    assert_eq!(fast.state, r.state);
    assert_eq!(fast.locks, r.locks);
}

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
    let (report, handle) = durable_run(
        PolicyKind::TwoPhase,
        &PolicyConfig::flat(pool),
        &jobs,
        2,
        wal_config,
    );
    let full = handle.snapshot();
    let total = full.total_bytes();
    let mut watermarks = Vec::new();
    let mut cut = 0;
    while cut <= total {
        let ctx = format!("cut at {cut}/{total}");
        let store = full.prefix(cut);
        match recover(&store, RecoveryMode::Oldest) {
            Ok(r) => {
                assert_prefix_of_run(&r, &report, &ctx);
                r.certify().unwrap_or_else(|e| panic!("{ctx}: {e}"));
                assert!(r.committed.len() <= report.committed, "{ctx}");
                // Checkpoint fidelity holds at every crash point, not
                // just on the clean log.
                let fast = recover(&store, RecoveryMode::Newest).expect("newest mode");
                assert_eq!(fast.state, r.state, "{ctx}: Newest != Oldest state");
                assert_eq!(fast.watermark, r.watermark, "{ctx}");
                watermarks.push(r.watermark);
            }
            Err(e) => {
                // Only a crash that beat the base checkpoint's first
                // fsync has nothing to recover.
                assert!(
                    cut < 256,
                    "{ctx}: lost the base checkpoint unexpectedly ({e})"
                );
            }
        }
        // Step 3 samples every frame header, length split, and payload
        // region without sweeping hundreds of thousands of cuts.
        cut += 3;
    }
    assert!(
        watermarks.windows(2).all(|w| w[0] <= w[1]),
        "longer surviving prefixes never recover less"
    );
    assert_eq!(
        watermarks.last(),
        Some(&(report.schedule.len() as u64)),
        "the complete log recovers the complete run"
    );
}

/// The crash-point property suite: randomized workloads, log tunings, and
/// crash treatments, over the seed matrix.
#[test]
fn crash_point_property_suite() {
    let mut seeds: Vec<u64> = vec![0xD00D_0001, 0xD00D_0002];
    if let Some(extra) = env_seed() {
        seeds.push(extra);
    }
    for seed in seeds {
        let mut rng = TestRng::deterministic(&format!("crash-points/{seed:#x}"));
        for case in 0..16u32 {
            run_crash_case(seed, case, &mut rng);
        }
    }
}

/// `SLP_DURABILITY_SEED`: the rolling CI seed. Same contract as
/// `SLP_RUNTIME_THREADS` — malformed panics — except empty counts as
/// unset (a CI matrix passes "no seed" as an empty string).
fn env_seed() -> Option<u64> {
    std::env::var("SLP_DURABILITY_SEED")
        .ok()
        .filter(|v| !v.is_empty())
        .map(|v| v.parse::<u64>().expect("SLP_DURABILITY_SEED must be a u64"))
}

fn run_crash_case(seed: u64, case: u32, rng: &mut TestRng) {
    let pool_size = 6 + rng.below(10) as u32;
    let pool: Vec<EntityId> = (0..pool_size).map(EntityId).collect();
    let jobs = uniform_jobs(
        &pool,
        6 + rng.below(12) as usize,
        2 + rng.below(2) as usize,
        rng.next_u64(),
    );
    let wal_config = WalConfig {
        segment_bytes: [256, 1024, 64 * 1024][rng.below(3) as usize],
        group_commit: 1 + rng.below(8) as usize,
        checkpoint_every: [0, 8, 32][rng.below(3) as usize],
        ..WalConfig::default()
    };
    let workers = 1 + rng.below(4) as usize;
    let kind = if rng.below(2) == 0 {
        PolicyKind::TwoPhase
    } else {
        PolicyKind::Altruistic
    };
    let (report, handle) = durable_run(kind, &PolicyConfig::flat(pool), &jobs, workers, wal_config);
    let full = handle.snapshot();
    let total = full.total_bytes();
    let ctx = format!(
        "seed {seed:#x} case {case} ({} @ {workers}w)",
        report.policy
    );

    // One random crash treatment per case.
    let (store, treatment) = match rng.below(3) {
        0 => {
            let cut = rng.below(total as u64 + 1) as usize;
            (full.prefix(cut), format!("prefix cut {cut}/{total}"))
        }
        1 => {
            let keep = rng.below(2) == 1;
            (full.crashed(keep), format!("crash keep_volatile={keep}"))
        }
        _ => {
            let mut store = full.clone();
            let offset = rng.below(total as u64) as usize;
            let mask = 1u8 << rng.below(8);
            store.corrupt(offset, mask);
            (store, format!("flip {mask:#04x} at {offset}/{total}"))
        }
    };
    let ctx = format!("{ctx} / {treatment}");

    match recover(&store, RecoveryMode::Oldest) {
        Ok(r) => {
            // The unpruned log's oldest checkpoint is the base: every
            // successful recovery is fully re-certifiable.
            assert_eq!(r.base_stamp, 0, "{ctx}: unpruned log must seed from base");
            assert_prefix_of_run(&r, &report, &ctx);
            r.certify().unwrap_or_else(|e| panic!("{ctx}: {e}"));
            assert!(r.committed.len() <= report.committed, "{ctx}");
            let fast = recover(&store, RecoveryMode::Newest).expect("newest mode");
            assert_eq!(fast.state, r.state, "{ctx}: Newest != Oldest state");
            assert_eq!(fast.watermark, r.watermark, "{ctx}");
        }
        Err(e) => {
            // Legitimate only when the treatment destroyed the base
            // checkpoint itself (an early cut or an early byte flip);
            // a durable-only crash always keeps it (synced at create).
            assert!(
                !treatment.starts_with("crash"),
                "{ctx}: base checkpoint should survive any post-sync crash ({e})"
            );
        }
    }
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
            let (report, handle) =
                durable_run(kind, &PolicyConfig::flat(pool), &jobs, workers, wal_config);
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
#[test]
fn a_recovered_snapshot_read_never_observes_a_writer_the_log_lost() {
    let pool: Vec<EntityId> = (0..8).map(EntityId).collect();
    let jobs = read_heavy_jobs(&pool, 40, 2, 3, 0.5, 29);
    let read_only_jobs = jobs.iter().filter(|j| j.read_only).count() as u64;
    let run = RuntimeConfig {
        snapshot_reads: true,
        ..RuntimeConfig::with_workers(3)
    };
    let wal_config = WalConfig {
        group_commit: 1,
        checkpoint_every: 32,
        segment_bytes: 2048,
        ..WalConfig::default()
    };
    let (report, handle) = durable_run_with(
        PolicyKind::TwoPhase,
        &PolicyConfig::flat(pool),
        &jobs,
        &run,
        wal_config,
    );
    assert!(report.snapshot_reads > 0, "the mix has read-only jobs");
    let wal = report.wal.expect("durable run reports its log");
    let writer_attempts = report.attempts as u64 - read_only_jobs;
    assert!(
        wal.records <= 2 * writer_attempts + report.lock_waits + read_only_jobs + wal.checkpoints,
        "a read-only job is one steps frame and no commit record"
    );

    let full = handle.snapshot();
    let total = full.total_bytes();
    let mut observed_writers = 0;
    let mut cut = 0;
    while cut <= total {
        let ctx = format!("cut at {cut}/{total}");
        if let Ok(r) = recover(&full.prefix(cut), RecoveryMode::Oldest) {
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
        cut += 5;
    }
    assert!(observed_writers > 0, "no read ever observed a writer");
}
