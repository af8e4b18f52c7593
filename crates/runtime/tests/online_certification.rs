//! Differential suite: the online incremental certifier against the
//! offline serializability checker.
//!
//! * **Safe agreement** — every safe kind × the shared workload tables
//!   × 1 and 4 workers runs with the certifier in strict mode: the live
//!   verdict must be "no cycle" and the offline replay
//!   (`is_serializable`) must agree, with the certifier having observed
//!   every recorded step.
//! * **Mutant agreement** — the repo's negative controls, through
//!   `common::sweep_mutant` under strict certification (with it off, the
//!   same sweep is `trace_conformance.rs`'s): each unsafe mutant, driven
//!   by the probe planners that exercise its ablated rule, must yield a
//!   caught nonserializable trace. On *every* swept run the
//!   trace is legal and proper, the live verdict equals the offline
//!   verdict, a caught cycle comes with certification aborts, and the
//!   committed projection is serializable (strict mode's recovery
//!   claim). Each caught trace must be flagged at its closing edge — the
//!   in-stamp-order replay latches its violation at exactly the last
//!   step of the minimal nonserializable prefix.
//! * **Strict recovery** — a run that caught a cycle still drains its
//!   whole queue, the victims retried as fresh transactions and counted
//!   in the abort rate.
//! * **Truncation properties** — sealing transactions at random points
//!   (forcing committed-prefix truncation at different watermarks) and
//!   feeding steps in random arrival orders never changes a verdict.

mod common;

use common::{
    check_run, ddag_workloads, flat_workloads, mutant_run, pool, sweep_mutant, FLAT_KINDS,
    MUTANT_WORKERS, SWEEP_WIDTHS,
};
use proptest::test_runner::TestRng;
use slp_core::{
    is_serializable, EntityId, Schedule, ScheduledStep, SerializationGraph, Step, TxId,
};
use slp_policies::{PolicyConfig, PolicyKind};
use slp_runtime::{CertifyMode, IncrementalCertifier, Runtime, RuntimeConfig};
use slp_sim::{hot_cold_jobs, long_short_jobs};
use std::collections::HashMap;

/// Strict certification at `workers` under the shared base config.
fn strict(workers: usize) -> RuntimeConfig {
    RuntimeConfig {
        certify_online: CertifyMode::Strict,
        ..common::conf(workers)
    }
}

/// Strict certification for a mutant run at `workers`. Mutant runs keep
/// the default 1 ms park backstop, at which the catch rates on
/// `common::sweep_mutant` were measured.
fn mutant_conf(workers: usize) -> RuntimeConfig {
    RuntimeConfig {
        certify_online: CertifyMode::Strict,
        ..RuntimeConfig::with_workers(workers)
    }
}

#[test]
fn safe_kinds_certify_live_and_agree_with_offline_replay() {
    for kind in FLAT_KINDS {
        for seed in 0..6u64 {
            for w in flat_workloads(seed) {
                for width in SWEEP_WIDTHS {
                    w.run(
                        kind,
                        &strict(width),
                        &format!("width {width} / seed {seed}"),
                    );
                }
            }
        }
    }
}

#[test]
fn ddag_certifies_live_across_traversal_workloads() {
    for seed in 0..6u64 {
        for w in ddag_workloads(seed) {
            for width in SWEEP_WIDTHS {
                let ctx = format!("width {width} / seed {seed}");
                w.run(PolicyKind::Ddag, &strict(width), &ctx);
            }
        }
    }
}

#[test]
fn mutant_altruistic_no_wake_agrees_and_flags_the_closing_edge() {
    sweep_mutant(PolicyKind::AltruisticNoWake, CertifyMode::Strict);
}

#[test]
fn mutant_ddag_no_held_pred_agrees_and_flags_the_closing_edge() {
    sweep_mutant(PolicyKind::DdagNoHeldPredecessor, CertifyMode::Strict);
}

#[test]
fn mutant_ddag_no_all_preds_agrees_and_flags_the_closing_edge() {
    sweep_mutant(PolicyKind::DdagNoAllPredecessors, CertifyMode::Strict);
}

#[test]
fn strict_mode_recovers_by_aborting_the_cycle_victim_and_running_on() {
    // Recovery means the run *finishes*: `check_run` holds every run to
    // no halt, no timeout, balanced accounting (certification aborts
    // included), every job committed, and a serializable committed set.
    let config = mutant_conf(MUTANT_WORKERS);
    for seed in 0..80u64 {
        for _ in 0..3 {
            let (mut rt, jobs) = mutant_run(PolicyKind::AltruisticNoWake, seed);
            let report = rt.run(&jobs, &config);
            check_run(
                &config,
                &jobs,
                &report,
                &format!("strict recovery / seed {seed}"),
            );
            if report.certification_aborts > 0 {
                // The victims were retried as fresh transactions; the
                // abort rate counts them with every other abort.
                let aborts =
                    report.policy_aborts + report.deadlock_aborts + report.certification_aborts;
                assert_eq!(
                    (report.abort_rate() * report.attempts as f64).round() as usize,
                    aborts,
                    "abort_rate must count certification aborts"
                );
                return;
            }
        }
    }
    panic!("strict mode never caught a violation across the mutant sweep");
}

// ---------------------------------------------------------------------
// Truncation / arrival-order properties.
// ---------------------------------------------------------------------

/// A few base schedules with varied shapes: safe concurrent captures
/// plus one caught mutant trace when the sweep yields one.
fn base_schedules() -> Vec<Schedule> {
    let pool = pool(12);
    let mut out = Vec::new();
    for seed in [3u64, 8] {
        let mut rt =
            Runtime::new(PolicyKind::TwoPhase, &PolicyConfig::flat(pool.clone())).expect("2PL");
        out.push(
            rt.run(&hot_cold_jobs(&pool, 16, 3, 4, 0.8, seed), &strict(4))
                .schedule,
        );
    }
    'mutant: for seed in 0..40u64 {
        for _ in 0..3 {
            let mut rt = Runtime::new(
                PolicyKind::AltruisticNoWake,
                &PolicyConfig::flat(pool.clone()),
            )
            .expect("mutant builds");
            let report = rt.run(&long_short_jobs(&pool, 8, 8, 2, seed), &mutant_conf(4));
            if !is_serializable(&report.schedule) {
                out.push(report.schedule);
                break 'mutant;
            }
        }
    }
    out
}

/// Feeds `schedule` in stamp order, sealing each transaction at a
/// random point at or after its last step (varying how early the
/// committed-prefix watermark can truncate it); returns the verdict.
fn verdict_with_random_seals(schedule: &Schedule, rng: &mut TestRng) -> bool {
    let steps = schedule.steps();
    let mut last_pos: HashMap<TxId, usize> = HashMap::new();
    for (i, s) in steps.iter().enumerate() {
        last_pos.insert(s.tx, i);
    }
    let mut seal_at: Vec<Vec<TxId>> = vec![Vec::new(); steps.len()];
    let mut seal_tail: Vec<TxId> = Vec::new();
    for (&tx, &lp) in &last_pos {
        let p = lp + rng.below((steps.len() - lp) as u64 + 1) as usize;
        if p < steps.len() {
            seal_at[p].push(tx);
        } else {
            seal_tail.push(tx);
        }
    }
    let mut cert = IncrementalCertifier::new();
    for (i, s) in steps.iter().enumerate() {
        cert.observe_trace(&[(i as u64, ScheduledStep::new(s.tx, s.step))]);
        for &tx in &seal_at[i] {
            cert.seal_with(tx, false);
        }
    }
    for tx in seal_tail {
        cert.seal_with(tx, false);
    }
    assert!(
        cert.stats().live_nodes < last_pos.len() || cert.violation().is_some(),
        "sealing every transaction must reclaim nodes on a clean run"
    );
    cert.violation().is_some()
}

/// Feeds `schedule` in a random arrival order (stamps keep their
/// original positions), sealing each transaction as soon as its last
/// step has arrived; returns the verdict.
fn verdict_with_random_arrival(schedule: &Schedule, rng: &mut TestRng) -> bool {
    let steps = schedule.steps();
    let mut remaining: HashMap<TxId, usize> = HashMap::new();
    for s in steps {
        *remaining.entry(s.tx).or_default() += 1;
    }
    let mut order: Vec<usize> = (0..steps.len()).collect();
    for i in (1..order.len()).rev() {
        order.swap(i, rng.below(i as u64 + 1) as usize);
    }
    let mut cert = IncrementalCertifier::new();
    for idx in order {
        let s = steps[idx];
        cert.observe_trace(&[(idx as u64, ScheduledStep::new(s.tx, s.step))]);
        let left = remaining.get_mut(&s.tx).expect("counted");
        *left -= 1;
        if *left == 0 {
            cert.seal_with(s.tx, false);
        }
    }
    cert.violation().is_some()
}

#[test]
fn truncation_and_arrival_order_never_change_a_verdict() {
    let schedules = base_schedules();
    assert!(schedules.len() >= 2, "base schedules missing");
    for (si, schedule) in schedules.iter().enumerate() {
        let offline_bad = !is_serializable(schedule);
        // The deterministic replay agrees before any randomization.
        assert_eq!(
            IncrementalCertifier::certify_schedule_with_aborts(schedule, &[]).is_some(),
            offline_bad,
            "schedule {si}: baseline replay disagrees"
        );
        let mut rng = TestRng::deterministic(&format!("online-cert/truncation/{si}"));
        for case in 0..24 {
            assert_eq!(
                verdict_with_random_seals(schedule, &mut rng),
                offline_bad,
                "schedule {si} case {case}: truncation point changed the verdict"
            );
            assert_eq!(
                verdict_with_random_arrival(schedule, &mut rng),
                offline_bad,
                "schedule {si} case {case}: arrival order changed the verdict"
            );
        }
    }
}

/// A dirty-read anomaly whose missed writer aborted: offline, the
/// aborted writer's versions are phantoms and the anti-dependency
/// dissolves; the replayed certifier agrees. (On the committed variant
/// it reports no cycle either, where the batch graph has one: W2
/// committed and truncated before the reader's steps arrive, and
/// anti-dependencies into committed-truncated writers are dropped. That
/// is sound for runtime feeds, where a capture after a writer's commit
/// flip observes that writer, so the trace is unproducible; the batch
/// graph stays the trusted model.)
#[test]
fn certifier_dissolves_the_anti_dependency_on_an_aborted_writer() {
    // W2 writes e0 and e1 first; W1 then writes e0 (so W2 -> W1); the
    // reader observes W1 on e0 but the *initial* version on e1 —
    // missing W2's e1 write, hence R -> W2, closing the cycle
    // W2 -> W1 -> R -> W2 unless W2 aborted.
    let (e, t) = (EntityId, TxId);
    let s = Schedule::from_steps(vec![
        ScheduledStep::new(t(2), Step::write(e(0))),
        ScheduledStep::new(t(2), Step::write(e(1))),
        ScheduledStep::new(t(1), Step::write(e(0))),
        ScheduledStep::snapshot_read(t(3), e(0), Some(t(1))),
        ScheduledStep::snapshot_read(t(3), e(1), None),
    ]);
    assert!(!SerializationGraph::of(&s).is_acyclic());
    assert!(SerializationGraph::of_with_aborts(&s, &[t(2)]).is_acyclic());
    assert!(IncrementalCertifier::certify_schedule_with_aborts(&s, &[t(2)]).is_none());
}
