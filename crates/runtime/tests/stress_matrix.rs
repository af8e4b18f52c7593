//! Runtime stress/determinism matrix (à la
//! `verifier/tests/parallel_agreement.rs`): seeded workloads at 1/2/4/8
//! workers, with the `SLP_RUNTIME_THREADS` override collapsing the ladder
//! to one width (the CI matrix convention).
//!
//! Per run: no lost jobs (attempts balance against committed + aborts +
//! rejected + abandoned, and every job either commits or is rejected), the
//! lock table is empty at quiescence (trace-level check), and the trace
//! replays legal + proper + serializable. Across repeated runs of the same
//! seed at the same width: the deterministic accounting — job *outcomes* —
//! is identical. Abort and wait *counts* are timing-dependent under real
//! threads by design (two runs of the same seed interleave differently);
//! at 1 worker there is no interleaving at all, so there the entire
//! accounting and the full step trace must be bit-identical.

use slp_core::{is_serializable, EntityId};
use slp_policies::{Job, PolicyConfig, PolicyKind};
use slp_runtime::{Runtime, RuntimeConfig, RuntimeReport};
use slp_sim::{deep_dag_jobs, hot_cold_jobs, layered_dag, uniform_jobs};

/// The worker widths to sweep: the env override pins one, else the ladder.
fn widths() -> Vec<usize> {
    match RuntimeConfig::env_workers() {
        Some(w) => vec![w],
        None => vec![1, 2, 4, 8],
    }
}

fn run_once(
    kind: PolicyKind,
    config: &PolicyConfig,
    jobs: &[Job],
    workers: usize,
    fast: bool,
) -> RuntimeReport {
    let mut rt = Runtime::new(kind, config).expect("buildable kind");
    // A park timeout far above scheduler jitter: with the wake protocol
    // correct it never fires (a parked worker is always woken by the
    // release that unblocks it), so `check_invariants` can assert the
    // counter stays zero. The default 1 ms timeout would race OS
    // preemption of lock holders and make that assertion meaningless.
    let config = RuntimeConfig {
        park_timeout: std::time::Duration::from_secs(10),
        grant_fast_path: fast,
        ..RuntimeConfig::with_workers(workers)
    };
    rt.run(jobs, &config)
}

/// The per-run invariants every stress cell must satisfy.
fn check_invariants(report: &RuntimeReport, jobs: usize, ctx: &str) {
    assert!(!report.timed_out, "{ctx}: timed out");
    assert!(
        report.accounting_balances(),
        "{ctx}: attempts ({}) != committed ({}) + policy aborts ({}) + \
         deadlock aborts ({}) + rejected ({}) + abandoned ({})",
        report.attempts,
        report.committed,
        report.policy_aborts,
        report.deadlock_aborts,
        report.rejected,
        report.abandoned
    );
    assert_eq!(report.committed + report.rejected, jobs, "{ctx}: lost jobs");
    assert_eq!(report.abandoned, 0, "{ctx}: abandoned jobs without timeout");
    assert!(
        report.lock_table_quiescent(),
        "{ctx}: locks still held at quiescence: {:?}",
        report.schedule.locks_held_at_end()
    );
    assert!(report.schedule.is_legal(), "{ctx}: illegal trace");
    assert!(
        report.schedule.is_proper(&report.initial),
        "{ctx}: improper trace"
    );
    assert!(
        is_serializable(&report.schedule),
        "{ctx}: nonserializable trace"
    );
    assert_eq!(
        report.latency.count, report.committed,
        "{ctx}: latency sample per committed job"
    );
    assert_eq!(
        report.grants,
        report.fast_path_grants + report.slow_path_grants,
        "{ctx}: every grant must be attributed to exactly one path"
    );
    // Happy paths run with a generous park timeout, so a firing backstop
    // means a worker parked and was never woken — a lost wakeup.
    assert_eq!(
        report.park_timeouts, 0,
        "{ctx}: park-timeout backstop fired on a healthy run"
    );
    // Anti-spin regression (race-free by construction): every conflict
    // observation is chargeable to the attempt or grant whose request
    // observed it, or — after the first in a conflict loop — to the park
    // return that preceded it, and a park only returns on a stripe
    // generation bump (one per released entity, waking at most `workers`
    // waiters) or a counted timeout. The old conflict loop re-requested
    // immediately when contention moved to a new entity, and that spin
    // inflates lock_waits past this budget on a hot plan tail.
    let unlock_bumps = report
        .schedule
        .steps()
        .iter()
        .filter(|s| s.step.is_unlock())
        .count() as u64;
    let budget = report.attempts as u64
        + report.grants
        + unlock_bumps * report.workers as u64
        + report.park_timeouts;
    assert!(
        report.lock_waits <= budget,
        "{ctx}: lock_waits ({}) exceeds the park/wake budget ({budget}: {} attempts + {} \
         grants + {unlock_bumps} unlock bumps x {} workers + {} timeouts) — a conflict loop \
         is spinning without parking",
        report.lock_waits,
        report.attempts,
        report.grants,
        report.workers,
        report.park_timeouts
    );
}

#[test]
fn stress_ladder_holds_invariants_at_every_width() {
    let pool: Vec<EntityId> = (0..20).map(EntityId).collect();
    for kind in [
        PolicyKind::TwoPhase,
        PolicyKind::Altruistic,
        PolicyKind::Dtr,
    ] {
        for seed in [5u64, 11] {
            let jobs = hot_cold_jobs(&pool, 24, 3, 4, 0.8, seed);
            for &w in &widths() {
                // Both grant paths at every cell: the fast path is inert
                // for Global-scope engines, but 2PL genuinely bypasses
                // the engine lock when `fast` is on.
                for fast in [true, false] {
                    let ctx = format!("{} / seed {seed} / {w} workers / fast {fast}", kind.name());
                    let report = run_once(kind, &PolicyConfig::flat(pool.clone()), &jobs, w, fast);
                    assert_eq!(report.workers, w, "{ctx}: width not honored");
                    check_invariants(&report, jobs.len(), &ctx);
                    if !fast {
                        assert_eq!(report.fast_path_grants, 0, "{ctx}: fast grants when off");
                    }
                }
            }
        }
    }
}

#[test]
fn ddag_stress_ladder_holds_invariants() {
    for seed in [3u64, 9] {
        let dag = layered_dag(4, 3, 2, seed);
        let config = PolicyConfig::dag(dag.universe.clone(), dag.graph.clone());
        let jobs = deep_dag_jobs(&dag, 16, 2, seed);
        for &w in &widths() {
            let ctx = format!("DDAG / seed {seed} / {w} workers");
            let report = run_once(PolicyKind::Ddag, &config, &jobs, w, true);
            check_invariants(&report, jobs.len(), &ctx);
        }
    }
}

#[test]
fn outcome_accounting_is_identical_across_repeated_runs() {
    let pool: Vec<EntityId> = (0..16).map(EntityId).collect();
    for seed in [2u64, 7] {
        let jobs = uniform_jobs(&pool, 20, 3, seed);
        for &w in &widths() {
            let runs: Vec<RuntimeReport> = (0..3)
                .map(|_| {
                    run_once(
                        PolicyKind::TwoPhase,
                        &PolicyConfig::flat(pool.clone()),
                        &jobs,
                        w,
                        true,
                    )
                })
                .collect();
            for r in &runs {
                check_invariants(r, jobs.len(), &format!("2PL / seed {seed} / {w} workers"));
            }
            let first = runs[0].outcome_fingerprint();
            for (i, r) in runs.iter().enumerate().skip(1) {
                assert_eq!(
                    r.outcome_fingerprint(),
                    first,
                    "seed {seed} / {w} workers: run {i} changed job outcomes"
                );
            }
        }
    }
}

#[test]
fn single_worker_runs_are_fully_deterministic() {
    // With one worker there is no interleaving: the entire report —
    // including abort counts, wait counts, and the step-by-step trace —
    // must repeat exactly.
    let pool: Vec<EntityId> = (0..16).map(EntityId).collect();
    for kind in [
        PolicyKind::TwoPhase,
        PolicyKind::Altruistic,
        PolicyKind::Dtr,
    ] {
        let jobs = hot_cold_jobs(&pool, 20, 3, 4, 0.8, 13);
        let a = run_once(kind, &PolicyConfig::flat(pool.clone()), &jobs, 1, true);
        let b = run_once(kind, &PolicyConfig::flat(pool.clone()), &jobs, 1, true);
        let ctx = format!("{} / 1 worker", kind.name());
        check_invariants(&a, jobs.len(), &ctx);
        assert_eq!(a.schedule, b.schedule, "{ctx}: trace changed across runs");
        assert_eq!(a.attempts, b.attempts, "{ctx}");
        assert_eq!(a.policy_aborts, b.policy_aborts, "{ctx}");
        assert_eq!(a.deadlock_aborts, b.deadlock_aborts, "{ctx}");
        assert_eq!(a.lock_waits, b.lock_waits, "{ctx}");
        assert_eq!(a.deadlock_aborts, 0, "{ctx}: one worker cannot deadlock");
        assert_eq!(a.lock_waits, 0, "{ctx}: one worker cannot conflict");
    }
}

#[test]
fn wall_clock_guard_reports_timeouts_honestly() {
    // A zero deadline: workers must drain without committing, flag the
    // timeout, and keep the accounting balanced (abandoned attempts are
    // counted, not lost).
    let pool: Vec<EntityId> = (0..8).map(EntityId).collect();
    let jobs = uniform_jobs(&pool, 10, 2, 1);
    let mut rt = Runtime::new(PolicyKind::TwoPhase, &PolicyConfig::flat(pool)).unwrap();
    let report = rt.run(
        &jobs,
        &RuntimeConfig {
            workers: 2,
            max_wall: std::time::Duration::ZERO,
            ..Default::default()
        },
    );
    assert!(report.timed_out);
    assert!(report.accounting_balances());
    assert_eq!(report.abandoned, jobs.len());
    assert_eq!(report.committed, 0);
    assert!(report.lock_table_quiescent());
}
