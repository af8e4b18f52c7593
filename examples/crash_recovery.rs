//! Kill-and-recover, end to end: a durable runtime run, a simulated
//! crash that tears the write-ahead log mid-byte, and a recovery that
//! replays the surviving prefix and re-certifies it against the paper's
//! criteria (legal + proper + serializable).
//!
//! The durability contract on display:
//!
//! 1. a clean shutdown recovers the *entire* execution, commit for
//!    commit;
//! 2. a crash at an arbitrary byte prefix recovers a stamp-contiguous
//!    *prefix* of the execution — never a torn or reordered one;
//! 3. whatever survives independently re-certifies, because
//!    conflict-serializability is prefix-closed;
//! 4. recovery from the newest checkpoint (the fast path) lands on the
//!    same state as replaying everything from the base.
//!
//! Run with: `cargo run --example crash_recovery`

use safe_locking::core::EntityId;
use safe_locking::policies::{PolicyConfig, PolicyKind};
use safe_locking::runtime::{
    recover, RecoveryMode, Runtime, RuntimeConfig, SharedMemStore, WalConfig,
};
use safe_locking::sim::hot_cold_jobs;
use std::sync::Arc;

fn main() {
    println!("== slp-durability: write-ahead log + crash recovery ==\n");

    // A durable run: every granted step is appended to the log (group
    // committed), checkpoints ride along, commits carry the watermark
    // they need to be durable.
    let pool: Vec<EntityId> = (0..24).map(EntityId).collect();
    let jobs = hot_cold_jobs(&pool, 60, 3, 4, 0.8, 42);
    let mut rt = Runtime::new(PolicyKind::TwoPhase, &PolicyConfig::flat(pool)).expect("2PL builds");
    let handle = SharedMemStore::new();
    let wal = Arc::new(
        rt.create_wal(
            Box::new(handle.clone()),
            WalConfig {
                segment_bytes: 4096,
                group_commit: 4,
                checkpoint_every: 64,
                ..WalConfig::default()
            },
        )
        .expect("fresh store"),
    );
    let config = RuntimeConfig::with_workers(4);
    let report = rt.run_durable(&jobs, &config, wal);
    let summary = report.wal.expect("durable run reports its log");
    println!(
        "ran {} jobs on {} workers: {} trace steps, {} committed",
        jobs.len(),
        report.workers,
        report.schedule.len(),
        report.committed
    );
    println!(
        "log: {} records / {} bytes across {} segments, {} fsyncs, {} checkpoints\n",
        summary.records, summary.bytes, summary.segments, summary.syncs, summary.checkpoints
    );
    assert!(!summary.failed, "in-memory store cannot fail");

    // Act 1 — clean shutdown. The flushed log replays to the whole run.
    let full = handle.snapshot();
    let r = recover(&full, RecoveryMode::Oldest).expect("clean log recovers");
    println!("clean recovery:");
    println!(
        "  watermark {} / {} steps, {} commits durable",
        r.watermark,
        report.schedule.len(),
        r.committed.len()
    );
    assert_eq!(r.watermark, report.schedule.len() as u64);
    assert_eq!(r.committed.len(), report.committed);
    r.certify().expect("full recovery certifies");
    println!("  re-certified: legal + proper + SERIALIZABLE\n");

    // Act 2 — kill -9. Chop the log at an arbitrary byte offset (2/3 in,
    // mid-frame more often than not) and recover what survives.
    let total = full.total_bytes();
    let cut = total * 2 / 3;
    let torn = full.prefix(cut);
    let r = recover(&torn, RecoveryMode::Oldest).expect("torn log still recovers");
    println!("crash at byte {cut}/{total}:");
    if let Some(t) = &r.truncation {
        println!(
            "  tail truncated in segment {} at offset {} ({:?})",
            t.segment, t.offset, t.reason
        );
    }
    println!(
        "  recovered watermark {} / {} steps, {} of {} commits durable",
        r.watermark,
        report.schedule.len(),
        r.committed.len(),
        report.committed
    );
    // Prefix consistency: the recovered tail is exactly the run's trace
    // up to the watermark — stamps arbitrate the cross-worker order, so
    // a torn group-commit batch can only cost a suffix.
    for (i, &(stamp, step)) in r.tail.iter().enumerate() {
        assert_eq!(stamp, i as u64, "tail must be stamp-contiguous");
        assert_eq!(
            step,
            report.schedule.steps()[stamp as usize],
            "recovered step diverges from the execution"
        );
    }
    r.certify().expect("the surviving prefix certifies");
    println!("  re-certified: legal + proper + SERIALIZABLE (a prefix of the run)\n");

    // Act 3 — the fast path agrees. Seeding from the newest surviving
    // checkpoint replays less but must land on the same state.
    let fast = recover(&torn, RecoveryMode::Newest).expect("newest-checkpoint mode");
    assert_eq!(fast.state, r.state, "checkpoint fidelity");
    assert_eq!(fast.watermark, r.watermark);
    println!(
        "fast recovery from the newest checkpoint: replayed {} steps instead of {}, same state",
        fast.tail.len(),
        r.tail.len()
    );
    println!("\nA crash can cost a suffix — never safety.");
}
