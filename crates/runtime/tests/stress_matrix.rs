//! Runtime stress/determinism matrix (à la
//! `verifier/tests/parallel_agreement.rs`): seeded workloads at 1/2/4/8
//! workers, with the `SLP_RUNTIME_THREADS` override collapsing the ladder
//! to one width (the CI matrix convention).
//!
//! Per run: `common::check_run` under the generous park timeout, so
//! `park_timeouts == 0` too. The flat-pool ladder sweeps the shared
//! workload table × the grant fast path on and off. Across repeated runs
//! of the same seed at the same width: the deterministic accounting —
//! job *outcomes* — is identical. Abort and wait *counts* are timing-dependent under real
//! threads by design (two runs of the same seed interleave differently);
//! at 1 worker there is no interleaving at all, so there the entire
//! accounting and the full step trace must be bit-identical.

mod common;

use common::{check_run, conf, ddag_workloads, flat_workloads, pool, widths, FLAT_KINDS};
use slp_policies::{Job, PolicyConfig, PolicyKind};
use slp_runtime::{Runtime, RuntimeConfig, RuntimeReport};
use slp_sim::{hot_cold_jobs, uniform_jobs};

/// Runs `jobs` under `kind` at `workers` with the fast path `fast`, and
/// holds the run to `common::check_run`.
fn run_once(kind: PolicyKind, jobs: &[Job], workers: usize, fast: bool) -> RuntimeReport {
    let mut rt = Runtime::new(kind, &PolicyConfig::flat(pool(16))).expect("buildable kind");
    let config = RuntimeConfig {
        grant_fast_path: fast,
        ..conf(workers)
    };
    let report = rt.run(jobs, &config);
    check_run(
        &config,
        jobs,
        &report,
        &format!("{} / {workers} workers", kind.name()),
    );
    report
}

#[test]
fn stress_ladder_holds_invariants_at_every_width() {
    // Both grant paths at every cell: the fast path is inert for
    // Global-scope engines, but 2PL genuinely bypasses the engine lock
    // when it is on — and must, on every workload of the table.
    for kind in FLAT_KINDS {
        for seed in [5u64, 11] {
            for w in flat_workloads(seed) {
                for &width in &widths() {
                    for fast in [true, false] {
                        let config = RuntimeConfig {
                            grant_fast_path: fast,
                            ..conf(width)
                        };
                        let ctx = format!("seed {seed} / {width} workers / fast {fast}");
                        let report = w.run(kind, &config, &ctx);
                        if fast && kind == PolicyKind::TwoPhase {
                            assert!(report.fast_path_grants > 0, "{ctx}: fast path inert");
                        }
                    }
                }
            }
        }
    }
}

#[test]
fn ddag_stress_ladder_holds_invariants() {
    for seed in [3u64, 9] {
        for w in ddag_workloads(seed) {
            for &width in &widths() {
                w.run(
                    PolicyKind::Ddag,
                    &conf(width),
                    &format!("seed {seed} / {width} workers"),
                );
            }
        }
    }
}

#[test]
fn outcome_accounting_is_identical_across_repeated_runs() {
    for seed in [2u64, 7] {
        let jobs = uniform_jobs(&pool(16), 20, 3, seed);
        for &w in &widths() {
            let runs: Vec<RuntimeReport> = (0..3)
                .map(|_| run_once(PolicyKind::TwoPhase, &jobs, w, true))
                .collect();
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
    for kind in FLAT_KINDS {
        let jobs = hot_cold_jobs(&pool(16), 20, 3, 4, 0.8, 13);
        let a = run_once(kind, &jobs, 1, true);
        let b = run_once(kind, &jobs, 1, true);
        let ctx = format!("{} / 1 worker", kind.name());
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
    // counted, not lost). The default 1 ms backstop: nothing runs, so no
    // wakeup is owed.
    let pool = pool(8);
    let jobs = uniform_jobs(&pool, 10, 2, 1);
    let mut rt = Runtime::new(PolicyKind::TwoPhase, &PolicyConfig::flat(pool)).unwrap();
    let config = RuntimeConfig {
        max_wall: std::time::Duration::ZERO,
        ..RuntimeConfig::with_workers(2)
    };
    let report = rt.run(&jobs, &config);
    check_run(&config, &jobs, &report, "zero deadline");
    assert!(report.timed_out);
    assert_eq!(report.abandoned, jobs.len());
    assert_eq!(report.committed, 0);
}
