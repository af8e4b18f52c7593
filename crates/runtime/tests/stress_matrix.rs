//! Runtime stress/determinism matrix: seeded workloads at 1/2/4/8
//! workers, with the `SLP_RUNTIME_THREADS` override collapsing the ladder
//! to one width (the CI matrix convention).
//!
//! Per run: `common::check_run` under the generous park timeout, so
//! `park_timeouts == 0` too. The flat-pool ladder sweeps the shared
//! workload table × the grant fast path on and off, and every engine run
//! in it — and in the DDAG ladder — × `step_yield` on and off: with it
//! off an engine attempt holds one write section from begin until it
//! finishes or must wait, so no transaction holds a lock outside a
//! section, nothing waits, and each attempt's steps are contiguous in the
//! merged trace. At one worker the two settings emit the same bytes. Across repeated runs
//! of the same seed at the same width: the deterministic accounting —
//! job *outcomes* — is identical. Abort and wait *counts* are timing-dependent under real
//! threads by design (two runs of the same seed interleave differently);
//! at 1 worker there is no interleaving at all, so there the entire
//! accounting and the full step trace must be bit-identical.

mod common;

use common::{check_run, conf, ddag_workloads, flat_workloads, pool, widths, Workload, FLAT_KINDS};
use slp_core::TxId;
use slp_policies::{GrantScope, Job, PolicyConfig, PolicyKind, PolicyRegistry};
use slp_runtime::{Runtime, RuntimeConfig, RuntimeReport};
use slp_sim::{hot_cold_jobs, uniform_jobs};
use std::collections::HashMap;

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

/// Whether `kind` with the fast path `fast` is an engine run: no word
/// table, every grant decided under the engine's write lock.
fn engine_run(kind: PolicyKind, fast: bool) -> bool {
    let engine = PolicyRegistry::new()
        .build(kind, &PolicyConfig::flat(pool(1)))
        .expect("buildable kind");
    !fast || engine.grant_scope() == GrantScope::Global
}

/// Runs `w` under `kind` and `config` (held to `check_run`); with
/// `step_yield` off in an engine run, also holds it to whole sections:
/// an attempt that never meets a lock held outside a section never
/// waits, so the run has no lock wait, and each transaction's steps sit
/// in one unbroken stretch of the merged trace.
fn run_cell(w: &Workload, kind: PolicyKind, config: &RuntimeConfig, ctx: &str) -> RuntimeReport {
    let ctx = format!("{ctx} / step_yield {}", config.step_yield);
    let report = w.run(kind, config, &ctx);
    if !config.step_yield {
        let ctx = format!("{} / {} / {ctx}", kind.name(), w.name);
        assert_eq!(report.lock_waits, 0, "{ctx}: an attempt waited");
        // Per transaction: its first position, last position and step count.
        let mut spans: HashMap<TxId, (usize, usize, usize)> = HashMap::new();
        for (i, s) in report.schedule.steps().iter().enumerate() {
            let span = spans.entry(s.tx).or_insert((i, i, 0));
            span.1 = i;
            span.2 += 1;
        }
        for (tx, (first, last, steps)) in spans {
            assert_eq!(
                last + 1 - first,
                steps,
                "{ctx}: {tx:?}'s steps are interleaved with another's"
            );
        }
    }
    report
}

#[test]
fn stress_ladder_holds_invariants_at_every_width() {
    // Both grant paths at every cell: the fast path is inert for
    // Global-scope engines, but 2PL genuinely bypasses the engine lock
    // when it is on — and must, on every workload of the table. Every
    // engine cell also runs with whole sections (`step_yield` off).
    for kind in FLAT_KINDS {
        for seed in [5u64, 11] {
            for w in flat_workloads(seed) {
                for &width in &widths() {
                    for fast in [true, false] {
                        let yields: &[bool] = if engine_run(kind, fast) {
                            &[true, false]
                        } else {
                            &[true]
                        };
                        for &step_yield in yields {
                            let config = RuntimeConfig {
                                grant_fast_path: fast,
                                step_yield,
                                ..conf(width)
                            };
                            let ctx = format!("seed {seed} / {width} workers / fast {fast}");
                            let report = run_cell(&w, kind, &config, &ctx);
                            if fast && kind == PolicyKind::TwoPhase {
                                assert!(report.fast_path_grants > 0, "{ctx}: fast path inert");
                            }
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
                for step_yield in [true, false] {
                    let config = RuntimeConfig {
                        step_yield,
                        ..conf(width)
                    };
                    let ctx = format!("seed {seed} / {width} workers");
                    run_cell(&w, PolicyKind::Ddag, &config, &ctx);
                }
            }
        }
    }
}

#[test]
fn width_one_schedules_are_identical_step_yield_on_and_off() {
    // At one worker there is no interleaving, so how an engine run
    // sections an attempt must not show: every safe kind, over its
    // workload table, emits the same schedule — the same steps under the
    // same stamps — and the same outcomes with `step_yield` on and off.
    // 2PL runs both as a word run and as an engine run.
    let cells = FLAT_KINDS
        .into_iter()
        .flat_map(|kind| [(kind, true), (kind, false)])
        .map(|(kind, fast)| (kind, fast, flat_workloads(3)))
        .chain([(PolicyKind::Ddag, true, ddag_workloads(3))]);
    for (kind, fast, table) in cells {
        for w in table {
            let run_with = |step_yield: bool| {
                let config = RuntimeConfig {
                    grant_fast_path: fast,
                    step_yield,
                    ..conf(1)
                };
                w.run(
                    kind,
                    &config,
                    &format!("fast {fast} / step_yield {step_yield}"),
                )
            };
            let (on, off) = (run_with(true), run_with(false));
            let ctx = format!("{} / {} / fast {fast}", kind.name(), w.name);
            assert_eq!(
                on.schedule, off.schedule,
                "{ctx}: sectioning changed the schedule"
            );
            assert_eq!(on.outcome_fingerprint(), off.outcome_fingerprint(), "{ctx}");
            assert_eq!(on.attempts, off.attempts, "{ctx}");
            assert_eq!(on.grants, off.grants, "{ctx}");
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
