//! Benchmarks for the concurrent transaction runtime (`slp-runtime`):
//! end-to-end throughput across worker counts and the offline
//! trace-replay cost.
//!
//! Results are appended to `BENCH_runtime.json` with the host CPU count
//! noted (the PR-2/PR-4 convention): on a single-CPU container the
//! worker-scaling rows record scheduling overhead only — re-measure on
//! real cores before reading them as speedups.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use slp_core::EntityId;
use slp_policies::{PolicyConfig, PolicyKind};
use slp_runtime::{
    recover, CertifyMode, DirStore, IncrementalCertifier, RecoveryMode, Runtime, RuntimeConfig,
    SchedMode, SharedMemStore, Store, WalConfig,
};
use slp_sim::{deep_dag_jobs, hot_cold_jobs, layered_dag, read_heavy_jobs, Job};
use std::hint::black_box;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;
use std::time::Duration;

fn pool(n: u32) -> Vec<EntityId> {
    (0..n).map(EntityId).collect()
}

/// Throughput-oriented config: no per-step yields. The
/// grant fast path (on by default since PR 9) is pinned OFF here so the
/// baseline groups keep measuring the engine path their historical
/// `BENCH_runtime.json` rows measured; `bench_fast_path` is the group
/// that toggles it.
fn bench_config(workers: usize) -> RuntimeConfig {
    RuntimeConfig {
        workers,
        step_yield: false,
        grant_fast_path: false,
        max_wall: Duration::from_secs(60),
        ..Default::default()
    }
}

fn run_flat(kind: PolicyKind, pool: &[EntityId], jobs: &[Job], config: &RuntimeConfig) -> usize {
    let mut rt = Runtime::new(kind, &PolicyConfig::flat(pool.to_vec())).expect("flat kind");
    let report = rt.run(jobs, config);
    assert!(!report.timed_out);
    report.committed
}

/// End-to-end runtime throughput at 1/2/4/8 workers: 2PL over the
/// hot/cold contention mix, DDAG over deep dominator traversals.
fn bench_worker_scaling(c: &mut Criterion) {
    let mut group = c.benchmark_group("runtime_throughput");
    let p = pool(32);
    let jobs = hot_cold_jobs(&p, 160, 3, 4, 0.8, 42);
    for workers in [1usize, 2, 4, 8] {
        group.bench_with_input(
            BenchmarkId::new("2pl_hot_cold", workers),
            &workers,
            |b, &w| {
                b.iter(|| black_box(run_flat(PolicyKind::TwoPhase, &p, &jobs, &bench_config(w))));
            },
        );
    }
    let dag = layered_dag(5, 4, 2, 42);
    let dag_jobs = deep_dag_jobs(&dag, 48, 2, 42);
    for workers in [1usize, 2, 4, 8] {
        group.bench_with_input(BenchmarkId::new("ddag_deep", workers), &workers, |b, &w| {
            b.iter(|| {
                let config = PolicyConfig::dag(dag.universe.clone(), dag.graph.clone());
                let mut rt = Runtime::new(PolicyKind::Ddag, &config).expect("DDAG builds");
                let report = rt.run(&dag_jobs, &bench_config(w));
                assert!(!report.timed_out);
                black_box(report.committed)
            });
        });
    }
    group.finish();
}

/// Offline verification cost of a captured runtime trace (the conformance
/// suite's hot loop): legality + properness + serializability replay.
fn bench_trace_replay(c: &mut Criterion) {
    let mut group = c.benchmark_group("runtime_trace_replay");
    let p = pool(32);
    let jobs = hot_cold_jobs(&p, 160, 3, 4, 0.8, 21);
    let mut rt =
        Runtime::new(PolicyKind::TwoPhase, &PolicyConfig::flat(p.clone())).expect("2PL builds");
    // Capture at 1 worker: a single-worker run is deterministic, so the
    // replayed trace (and this row's cost) is identical every invocation —
    // the trajectory file compares rows by name across runs, so the name
    // must not embed a timing-dependent quantity.
    let report = rt.run(&jobs, &bench_config(1));
    let steps = report.schedule.len();
    assert_eq!(steps, 1920, "single-worker capture must be deterministic");
    group.bench_with_input(
        BenchmarkId::new("verify", "2pl_160jobs_1920steps"),
        &steps,
        |b, _| {
            b.iter(|| {
                black_box(
                    report.schedule.is_legal()
                        && report.schedule.is_proper(&report.initial)
                        && slp_core::is_serializable(&report.schedule),
                )
            });
        },
    );
    group.finish();
}

/// Online-certification overhead: the same hot/cold run with the
/// incremental serialization-graph certifier off vs monitoring. The
/// certifier runs outside the engine lock (one mutex around the graph,
/// fed once per attempt at finish/abort), so the acceptance bar is
/// ≤ 10% over the certifier-off row.
fn bench_certification(c: &mut Criterion) {
    let mut group = c.benchmark_group("runtime_certification");
    let p = pool(32);
    let jobs = hot_cold_jobs(&p, 160, 3, 4, 0.8, 42);
    for (name, mode) in [
        ("certify_off", CertifyMode::Off),
        ("certify_monitor", CertifyMode::Monitor),
    ] {
        for workers in [1usize, 4] {
            group.bench_with_input(
                BenchmarkId::new(name, format!("2pl_hot_cold_160/{workers}w")),
                &mode,
                |b, &mode| {
                    let config = RuntimeConfig {
                        certify_online: mode,
                        ..bench_config(workers)
                    };
                    b.iter(|| black_box(run_flat(PolicyKind::TwoPhase, &p, &jobs, &config)));
                },
            );
        }
    }
    // The certifier's own feeding cost, isolated from the runtime: replay
    // a deterministic 1-worker capture of the same workload through the
    // incremental machinery (observe + seal + truncation, no mutex).
    let mut rt =
        Runtime::new(PolicyKind::TwoPhase, &PolicyConfig::flat(p.clone())).expect("2PL builds");
    let report = rt.run(&jobs, &bench_config(1));
    let steps = report.schedule.len();
    group.bench_with_input(
        BenchmarkId::new("incremental_replay", format!("{steps}steps")),
        &steps,
        |b, _| {
            b.iter(|| black_box(IncrementalCertifier::certify_schedule(&report.schedule)));
        },
    );
    // The same capture fed the way the runtime feeds it: one batch per
    // maximal same-transaction run (= one attempt at 1 worker), sealed at
    // the transaction's last batch. The gap between this row and the
    // per-step row above is the batching win; the gap between this row
    // and the off/monitor pair is the runtime-side plumbing.
    let scheduled = report.schedule.steps();
    let mut batches: Vec<(Vec<(u64, slp_core::ScheduledStep)>, bool)> = Vec::new();
    let mut last_batch_of_tx = std::collections::HashMap::new();
    for (i, s) in scheduled.iter().enumerate() {
        match batches.last_mut() {
            Some((b, _)) if b.last().map(|(_, p)| p.tx) == Some(s.tx) => b.push((i as u64, *s)),
            _ => batches.push((vec![(i as u64, *s)], false)),
        }
        last_batch_of_tx.insert(s.tx, batches.len() - 1);
    }
    for (tx, &i) in &last_batch_of_tx {
        let _ = tx;
        batches[i].1 = true;
    }
    group.bench_with_input(
        BenchmarkId::new(
            "incremental_replay_batched",
            format!("{}batches", batches.len()),
        ),
        &steps,
        |b, _| {
            b.iter(|| {
                let mut cert = IncrementalCertifier::new();
                for (batch, seals) in &batches {
                    cert.observe_trace(batch);
                    if *seals {
                        cert.seal(batch.last().expect("nonempty batch").1.tx);
                    }
                }
                black_box(cert.violation().is_none())
            });
        },
    );
    group.finish();
}

/// The MVCC read path vs locked reads: the same read-heavy workload (90%
/// read-only jobs over a hot/cold mix) with `snapshot_reads` off — every
/// read planned through the lock service like any other job — and on —
/// read-only jobs capture a snapshot and walk version chains, zero lock
/// requests. The gap is the tentpole's headline: the snapshot rows must
/// beat the locked rows at every width, and the win grows with workers
/// because readers leave the sharded front-end entirely to the writer
/// minority.
fn bench_read_path(c: &mut Criterion) {
    let mut group = c.benchmark_group("runtime_read_path");
    let p = pool(64);
    let jobs = read_heavy_jobs(&p, 160, 3, 4, 0.9, 42);
    for (name, snapshots) in [("locked_reads", false), ("snapshot_reads", true)] {
        for workers in [1usize, 2, 4, 8] {
            group.bench_with_input(
                BenchmarkId::new(name, format!("{workers}w")),
                &snapshots,
                |b, &snapshots| {
                    let config = RuntimeConfig {
                        snapshot_reads: snapshots,
                        ..bench_config(workers)
                    };
                    b.iter(|| black_box(run_flat(PolicyKind::TwoPhase, &p, &jobs, &config)));
                },
            );
        }
    }
    group.finish();
}

/// The sharded grant fast path on vs off: 2PL hot/cold contention (the
/// workload the engine lock serializes hardest) and a 90/10 read-heavy
/// mix over a wider pool, at 1/2/4/8 workers. On real cores the word-CAS
/// rows should pull ahead as workers climb; on a single-CPU container
/// both paths time-slice one core, so the rows bound the fast path's
/// *overhead* instead (acceptance: within ~5% of the engine path at
/// every width).
fn bench_fast_path(c: &mut Criterion) {
    let mut group = c.benchmark_group("runtime_fast_path");
    let p = pool(32);
    let hot = hot_cold_jobs(&p, 160, 3, 4, 0.8, 42);
    let wide = pool(64);
    let reads = read_heavy_jobs(&wide, 160, 3, 4, 0.9, 42);
    for (name, fast) in [("engine_path", false), ("word_path", true)] {
        for workers in [1usize, 2, 4, 8] {
            group.bench_with_input(
                BenchmarkId::new(name, format!("hot_cold/{workers}w")),
                &fast,
                |b, &fast| {
                    let config = RuntimeConfig {
                        grant_fast_path: fast,
                        ..bench_config(workers)
                    };
                    b.iter(|| black_box(run_flat(PolicyKind::TwoPhase, &p, &hot, &config)));
                },
            );
            group.bench_with_input(
                BenchmarkId::new(name, format!("read90/{workers}w")),
                &fast,
                |b, &fast| {
                    let config = RuntimeConfig {
                        grant_fast_path: fast,
                        ..bench_config(workers)
                    };
                    b.iter(|| black_box(run_flat(PolicyKind::TwoPhase, &wide, &reads, &config)));
                },
            );
        }
    }
    group.finish();
}

/// One durable run of `jobs` against `store`; returns the committed count
/// (and asserts the log never failed — a dead log would make the row
/// measure nothing).
fn run_durable(
    jobs: &[Job],
    pool: &[EntityId],
    store: Box<dyn Store>,
    group_commit: usize,
    config: &RuntimeConfig,
) -> usize {
    let mut rt =
        Runtime::new(PolicyKind::TwoPhase, &PolicyConfig::flat(pool.to_vec())).expect("2PL builds");
    let wal = Arc::new(
        rt.create_wal(
            store,
            WalConfig {
                group_commit,
                ..WalConfig::default()
            },
        )
        .expect("fresh store"),
    );
    let report = rt.run_durable(jobs, config, wal);
    assert!(!report.timed_out);
    assert!(!report.wal.as_ref().expect("durable").failed);
    report.committed
}

/// Group-commit latency vs batch size: the durability tentpole's headline
/// knob. `wal_mem` rows isolate framing + checksum + watermark overhead
/// (no real I/O); `wal_dir` rows add real files and `sync_data`, so the
/// group-commit amortization shows up as fewer fsyncs per job. The
/// recovery row prices the replay path on the clean log.
fn bench_durability(c: &mut Criterion) {
    let mut group = c.benchmark_group("runtime_durability");
    let p = pool(32);
    let jobs = hot_cold_jobs(&p, 160, 3, 4, 0.8, 42);
    let config = bench_config(4);
    for batch in [1usize, 4, 16, 64] {
        group.bench_with_input(
            BenchmarkId::new("wal_mem_group", batch),
            &batch,
            |b, &batch| {
                b.iter(|| {
                    let store = Box::new(SharedMemStore::new());
                    black_box(run_durable(&jobs, &p, store, batch, &config))
                });
            },
        );
    }
    // Real files: fresh directory per iteration (the log insists on an
    // empty store), cleaned up as we go.
    let scratch = std::env::temp_dir().join(format!("slp-bench-wal-{}", std::process::id()));
    let serial = AtomicU64::new(0);
    for batch in [1usize, 16, 64] {
        group.bench_with_input(
            BenchmarkId::new("wal_dir_group", batch),
            &batch,
            |b, &batch| {
                b.iter(|| {
                    let dir =
                        scratch.join(format!("run-{}", serial.fetch_add(1, Ordering::Relaxed)));
                    let store = Box::new(DirStore::open(&dir).expect("scratch dir"));
                    let committed = run_durable(&jobs, &p, store, batch, &config);
                    std::fs::remove_dir_all(&dir).expect("scratch cleanup");
                    black_box(committed)
                });
            },
        );
    }
    let _ = std::fs::remove_dir_all(&scratch);
    // Recovery replay: rebuild state + committed set from the flushed log
    // of one representative run.
    let handle = SharedMemStore::new();
    run_durable(&jobs, &p, Box::new(handle.clone()), 4, &config);
    let full = handle.snapshot();
    group.bench_with_input(BenchmarkId::new("recover", "oldest"), &(), |b, _| {
        b.iter(|| {
            let r = recover(&full, RecoveryMode::Oldest).expect("clean log recovers");
            black_box(r.watermark)
        });
    });
    group.finish();
}

/// The admission-stage batch scheduler vs grant-time parking: 2PL over
/// hot/cold contention and DDAG over deep dominator traversals, with the
/// conflict DAG off (`parking` rows — every conflict discovered at the
/// lock service) and in `waves` mode (declared conflicts ordered into
/// barrier-separated waves up front) at 1/2/4/8 workers, plus a
/// `deterministic` overhead row at each width (admission-pinned ids and
/// trace renumbering; serial waves for the global-scope DDAG engine). On
/// a single-CPU container all rows time-slice one core, so read the
/// waves-vs-parking gap as scheduling overhead vs parking overhead, not
/// parallel speedup.
fn bench_scheduler(c: &mut Criterion) {
    let mut group = c.benchmark_group("runtime_scheduler");
    let p = pool(32);
    let hot = hot_cold_jobs(&p, 160, 3, 4, 0.8, 42);
    let dag = layered_dag(5, 4, 2, 42);
    let dag_jobs = deep_dag_jobs(&dag, 48, 2, 42);
    for (name, sched) in [
        ("parking", SchedMode::Off),
        ("waves", SchedMode::Waves),
        ("deterministic", SchedMode::Deterministic),
    ] {
        for workers in [1usize, 2, 4, 8] {
            group.bench_with_input(
                BenchmarkId::new(name, format!("2pl_hot_cold/{workers}w")),
                &sched,
                |b, &sched| {
                    let config = RuntimeConfig {
                        scheduler: sched,
                        ..bench_config(workers)
                    };
                    b.iter(|| black_box(run_flat(PolicyKind::TwoPhase, &p, &hot, &config)));
                },
            );
            group.bench_with_input(
                BenchmarkId::new(name, format!("ddag_deep/{workers}w")),
                &sched,
                |b, &sched| {
                    let config = RuntimeConfig {
                        scheduler: sched,
                        ..bench_config(workers)
                    };
                    b.iter(|| {
                        let pc = PolicyConfig::dag(dag.universe.clone(), dag.graph.clone());
                        let mut rt = Runtime::new(PolicyKind::Ddag, &pc).expect("DDAG builds");
                        let report = rt.run(&dag_jobs, &config);
                        assert!(!report.timed_out);
                        black_box(report.committed)
                    });
                },
            );
        }
    }
    group.finish();
}

criterion_group!(
    benches,
    bench_worker_scaling,
    bench_trace_replay,
    bench_certification,
    bench_read_path,
    bench_fast_path,
    bench_durability,
    bench_scheduler
);
criterion_main!(benches);
