//! Accounting on the paths that cut an attempt short.
//!
//! A worker records an attempt into its own buffer and counts it in its
//! own tallies; both reach the report only if the attempt's steps are
//! sealed into the worker's trace run and the tallies folded after the
//! join — on *every* exit path, not just commit. These runs end attempts
//! the other ways (abandoned on the wall-clock guard, deadlock victim,
//! strict-certification victim) at 1, 2 and 4 workers and hold the report
//! to what the workers did: the attempts balance, every grant is on one
//! of the two paths, the trace has exactly the steps that were recorded
//! (counted independently of the trace, per scenario), and every lock an
//! aborted or abandoned attempt held was released in the trace.

use slp_core::EntityId;
use slp_policies::{PolicyConfig, PolicyKind};
use slp_runtime::{CertifyMode, Runtime, RuntimeConfig, RuntimeReport};
use slp_sim::{long_short_jobs, uniform_jobs};
use std::time::Duration;

const WIDTHS: [usize; 3] = [1, 2, 4];

fn pool(n: u32) -> Vec<EntityId> {
    (0..n).map(EntityId).collect()
}

fn twopl(pool: &[EntityId]) -> Runtime {
    Runtime::new(PolicyKind::TwoPhase, &PolicyConfig::flat(pool.to_vec())).expect("2PL builds")
}

/// What must hold however the attempts ended. `recorded` is the number of
/// steps the workers recorded, counted without looking at the trace.
fn assert_nothing_lost(report: &RuntimeReport, recorded: u64, ctx: &str) {
    assert!(
        report.accounting_balances(),
        "{ctx}: unbalanced: {report:?}"
    );
    assert_eq!(
        report.grants,
        report.fast_path_grants + report.slow_path_grants,
        "{ctx}: a grant on neither path"
    );
    assert_eq!(
        report.schedule.len() as u64,
        recorded,
        "{ctx}: the trace lost (or grew) steps"
    );
    assert!(report.schedule.is_legal(), "{ctx}: illegal trace");
    assert!(
        report.lock_table_quiescent(),
        "{ctx}: a cut-short attempt left a lock in the trace: {:?}",
        report.schedule.locks_held_at_end()
    );
}

/// Under 2PL every granted action of a write job is two steps whichever
/// path granted it: a `Lock` is its lock step and, when the attempt
/// ends — commit, abort or abandon — its unlock; an `Access` is a read
/// and a write.
fn twopl_steps(report: &RuntimeReport) -> u64 {
    2 * report.grants
}

#[test]
fn an_expired_deadline_abandons_every_job_and_still_balances() {
    let pool = pool(6);
    let jobs = uniform_jobs(&pool, 40, 3, 11);
    for workers in WIDTHS {
        let ctx = format!("expired deadline / {workers} workers");
        let config = RuntimeConfig {
            max_wall: Duration::ZERO,
            ..RuntimeConfig::with_workers(workers)
        };
        let report = twopl(&pool).run(&jobs, &config);
        assert_nothing_lost(&report, 0, &ctx);
        assert!(report.timed_out, "{ctx}: not flagged");
        assert_eq!(
            (report.attempts, report.abandoned, report.committed),
            (jobs.len(), jobs.len(), 0),
            "{ctx}: one abandoned attempt per job"
        );
        assert!(report.aborted.is_empty(), "{ctx}: nothing began");
    }
}

/// The guard firing *mid-run*: whichever attempts it catches — before
/// their first request, or parked on a conflict with locks already held
/// and steps already recorded — the trace keeps their steps and their
/// unlocks.
#[test]
fn a_deadline_that_expires_mid_run_keeps_the_steps_of_what_it_cut_short() {
    let pool = pool(3);
    let jobs = uniform_jobs(&pool, 4000, 3, 12);
    let mut cut_short = 0;
    for workers in WIDTHS {
        for micros in [200, 1000, 5000] {
            let ctx = format!("{micros} µs deadline / {workers} workers");
            let config = RuntimeConfig {
                max_wall: Duration::from_micros(micros),
                ..RuntimeConfig::with_workers(workers)
            };
            let report = twopl(&pool).run(&jobs, &config);
            assert_nothing_lost(&report, twopl_steps(&report), &ctx);
            assert_eq!(report.abandoned > 0, report.timed_out, "{ctx}");
            assert_eq!(
                report.committed + report.abandoned,
                jobs.len(),
                "{ctx}: a job neither committed nor abandoned"
            );
            cut_short += report.abandoned;
        }
    }
    assert!(
        cut_short > 0,
        "no deadline ever fired: the sweep is vacuous"
    );
}

#[test]
fn deadlock_victims_on_a_hot_set_keep_their_steps_and_release_their_locks() {
    // Three-entity jobs over four entities, locked in random order: with
    // more than one worker, lock-order cycles are the common case.
    let pool = pool(4);
    let mut victims = 0;
    for workers in WIDTHS {
        for seed in 0..6u64 {
            let ctx = format!("hot set / {workers} workers / seed {seed}");
            let jobs = uniform_jobs(&pool, 60, 3, seed);
            let report = twopl(&pool).run(&jobs, &RuntimeConfig::with_workers(workers));
            assert_nothing_lost(&report, twopl_steps(&report), &ctx);
            assert!(!report.timed_out, "{ctx}: timed out");
            assert_eq!(report.committed, jobs.len(), "{ctx}: lost jobs");
            assert_eq!(
                report.aborted.len(),
                report.deadlock_aborts,
                "{ctx}: every victim is in the abort set"
            );
            if workers == 1 {
                assert_eq!(
                    report.deadlock_aborts, 0,
                    "{ctx}: alone, nothing to wait for"
                );
            }
            victims += report.deadlock_aborts;
        }
    }
    assert!(victims > 0, "no deadlock in the whole sweep: not a hot set");
}

/// The strict-recovery scenario of `online_certification.rs`: the
/// `AltruisticNoWake` mutant admits nonserializable interleavings and
/// strict certification aborts the transaction that closes a cycle —
/// after it has recorded *all* its steps. The certifier counts the steps
/// it was fed, attempt by attempt, which is the independent count here.
#[test]
fn strict_certification_victims_keep_their_steps_and_release_their_locks() {
    let pool = pool(16);
    let mut victims = 0;
    for seed in 0..80u64 {
        for workers in WIDTHS {
            let ctx = format!("strict mutant / {workers} workers / seed {seed}");
            let mut rt = Runtime::new(
                PolicyKind::AltruisticNoWake,
                &PolicyConfig::flat(pool.clone()),
            )
            .expect("mutant builds");
            let config = RuntimeConfig {
                certify_online: CertifyMode::Strict,
                ..RuntimeConfig::with_workers(workers)
            };
            let jobs = long_short_jobs(&pool, 10, 10, 2, seed);
            let report = rt.run(&jobs, &config);
            let fed = report
                .certification
                .as_ref()
                .expect("strict run certifies")
                .stats
                .steps;
            assert_nothing_lost(&report, fed, &ctx);
            assert!(!report.timed_out, "{ctx}: timed out");
            assert_eq!(report.committed, jobs.len(), "{ctx}: lost jobs");
            victims += report.certification_aborts;
        }
        // Every width has run this seed; stop at the first seed that
        // produced a victim (seeds before it exercised the clean path).
        if victims > 0 {
            break;
        }
    }
    assert!(
        victims > 0,
        "strict mode never aborted across the mutant sweep"
    );
}
