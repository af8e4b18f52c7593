//! Accounting on the paths that cut an attempt short.
//!
//! A worker records an attempt into its own buffer and counts it in its
//! own tallies; both reach the report only if the attempt's steps are
//! sealed into the worker's trace run and the tallies folded after the
//! join — on *every* exit path, not just commit. These runs end attempts
//! the other ways (abandoned on the wall-clock guard, deadlock victim,
//! strict-certification victim) at 1, 2 and 4 workers and hold the report
//! to what the workers did: `common::check_run` (the attempts balance,
//! every grant is on one of the two paths, and every lock an aborted or
//! abandoned attempt held was released in the trace), and the trace has
//! exactly the steps that were recorded (counted independently of the
//! trace, per scenario). Cut-short paths need overlapping attempts, so
//! `step_yield` stays on (the default). These runs keep the default 1 ms
//! park backstop: a parked waiter sees the deadline only when its park
//! returns.

mod common;

use common::{check_run, pool};
use slp_core::EntityId;
use slp_policies::{PolicyConfig, PolicyKind};
use slp_runtime::{CertifyMode, Runtime, RuntimeConfig, RuntimeReport};
use slp_sim::{long_short_jobs, uniform_jobs};
use std::time::Duration;

const WIDTHS: [usize; 3] = [1, 2, 4];

fn twopl(pool: &[EntityId]) -> Runtime {
    Runtime::new(PolicyKind::TwoPhase, &PolicyConfig::flat(pool.to_vec())).expect("2PL builds")
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
        check_run(&config, &jobs, &report, &ctx);
        assert_eq!(report.schedule.len() as u64, 0, "{ctx}: steps lost");
        assert!(report.timed_out, "{ctx}: not flagged");
        assert_eq!(
            (report.attempts, report.abandoned, report.committed),
            (jobs.len(), jobs.len(), 0),
            "{ctx}: one abandoned attempt per job"
        );
        assert!(report.aborted.is_empty(), "{ctx}: nothing began");
    }
}

/// The guard's other end: a `max_wall` past what an `Instant` can hold
/// is no deadline, not an overflow.
#[test]
fn an_unreachable_deadline_is_no_deadline() {
    let pool = pool(6);
    let jobs = uniform_jobs(&pool, 8, 3, 11);
    let config = RuntimeConfig {
        max_wall: Duration::MAX,
        ..RuntimeConfig::with_workers(2)
    };
    let report = twopl(&pool).run(&jobs, &config);
    check_run(&config, &jobs, &report, "unreachable deadline");
    assert!(!report.timed_out, "no deadline, no timeout");
    assert_eq!(report.committed, jobs.len(), "every job commits");
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
            check_run(&config, &jobs, &report, &ctx);
            assert_eq!(
                report.schedule.len() as u64,
                twopl_steps(&report),
                "{ctx}: steps lost"
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
            let config = RuntimeConfig::with_workers(workers);
            let report = twopl(&pool).run(&jobs, &config);
            check_run(&config, &jobs, &report, &ctx);
            assert_eq!(
                report.schedule.len() as u64,
                twopl_steps(&report),
                "{ctx}: steps lost"
            );
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
            check_run(&config, &jobs, &report, &ctx);
            assert_eq!(report.schedule.len() as u64, fed, "{ctx}: steps lost");
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
