//! Differential suite: the online incremental certifier against the
//! offline serializability checker.
//!
//! * **Safe agreement** — every safe kind × seeded workload runs with
//!   the certifier in strict mode: the live verdict must be "no cycle"
//!   and the offline replay (`is_serializable`) must agree, with the
//!   certifier having observed every recorded step.
//! * **Mutant agreement** — the unsafe mutants run under the same
//!   sweep as the trace-conformance negative controls: on *every* swept
//!   run the live verdict must equal the offline verdict, a caught cycle
//!   must come with certification aborts, and the committed projection
//!   must be serializable (strict mode's recovery claim). Each caught
//!   nonserializable trace must be flagged at its closing edge — the
//!   in-stamp-order replay latches its violation at exactly the last
//!   step of the minimal nonserializable prefix.
//! * **Strict recovery** — a run that caught a cycle still drains its
//!   whole queue, the victims retried as fresh transactions.
//! * **Truncation properties** — sealing transactions at random points
//!   (forcing committed-prefix truncation at different watermarks) and
//!   feeding steps in random arrival orders never changes a verdict.

use proptest::test_runner::TestRng;
use slp_core::{is_serializable, EntityId, IncrementalCertifier, Schedule, ScheduledStep, TxId};
use slp_policies::{PolicyConfig, PolicyKind};
use slp_runtime::{
    CertifyMode, CrawlProbePlanner, Runtime, RuntimeConfig, RuntimeReport, ShoulderProbePlanner,
};
use slp_sim::{deep_dag_jobs, hot_cold_jobs, layered_dag, long_short_jobs, uniform_jobs};
use std::collections::HashMap;
use std::sync::Arc;

fn strict_conf(workers: usize) -> RuntimeConfig {
    RuntimeConfig {
        workers,
        certify_online: CertifyMode::Strict,
        ..Default::default()
    }
}

/// Mutant sweeps need actual concurrency (see trace_conformance.rs).
fn mutant_workers() -> usize {
    RuntimeConfig::workers_from_env(4).max(4)
}

/// The trace with every aborted transaction's steps removed wholesale.
fn committed_projection(report: &RuntimeReport) -> Schedule {
    Schedule::from_steps(
        report
            .schedule
            .steps()
            .iter()
            .filter(|s| !report.aborted.contains(&s.tx))
            .copied()
            .collect(),
    )
}

/// Asserts, on `report`, that the live verdict equals the offline one,
/// that a caught cycle came with certification aborts (and only then),
/// and that the committed projection is serializable; returns whether
/// the raw trace is nonserializable.
fn assert_agreement(report: &RuntimeReport, ctx: &str) -> bool {
    let cert = report
        .certification
        .as_ref()
        .unwrap_or_else(|| panic!("{ctx}: strict run must carry a certification"));
    let offline_bad = !is_serializable(&report.schedule);
    assert_eq!(
        cert.violation.is_some(),
        offline_bad,
        "{ctx}: online certifier ({:?}) disagrees with offline checker (nonserializable: \
         {offline_bad})",
        cert.violation
    );
    assert_eq!(
        cert.violation.is_some(),
        report.certification_aborts > 0,
        "{ctx}: the preserved first violation and the abort count must agree"
    );
    // The certifier excised every cycle it caught by aborting the
    // transaction that closed it, so the committed projection is
    // serializable no matter what the policy admitted. (The raw trace
    // keeps the victims' locked steps and so keeps the caught cycle.)
    assert!(
        is_serializable(&committed_projection(report)),
        "{ctx}: committed set nonserializable after strict recovery"
    );
    offline_bad
}

#[test]
fn safe_kinds_certify_live_and_agree_with_offline_replay() {
    let pool: Vec<EntityId> = (0..20).map(EntityId).collect();
    let workers = RuntimeConfig::workers_from_env(4);
    for kind in [
        PolicyKind::TwoPhase,
        PolicyKind::Altruistic,
        PolicyKind::Dtr,
    ] {
        for seed in 0..6u64 {
            for (name, jobs) in [
                ("uniform", uniform_jobs(&pool, 18, 3, seed)),
                ("hot-cold", hot_cold_jobs(&pool, 24, 3, 4, 0.8, seed)),
                ("long-short", long_short_jobs(&pool, 8, 10, 2, seed)),
            ] {
                let ctx = format!("{} / {name} / seed {seed}", kind.name());
                let mut rt =
                    Runtime::new(kind, &PolicyConfig::flat(pool.clone())).expect("buildable kind");
                let report = rt.run(&jobs, &strict_conf(workers));
                assert!(!report.timed_out, "{ctx}: timed out");
                assert!(report.accounting_balances(), "{ctx}: unbalanced");
                assert_eq!(report.committed, jobs.len(), "{ctx}: lost jobs");
                assert!(!assert_agreement(&report, &ctx), "{ctx}: safe kind flagged");
                let stats = report.certification.as_ref().expect("certified").stats;
                assert_eq!(
                    stats.steps,
                    report.schedule.len() as u64,
                    "{ctx}: certifier missed steps"
                );
                // Every transaction retires (commit or abort), so by
                // quiescence truncation has reclaimed the whole graph.
                assert_eq!(stats.live_nodes, 0, "{ctx}: unreclaimed certifier nodes");
            }
        }
    }
}

#[test]
fn ddag_certifies_live_across_traversal_workloads() {
    let workers = RuntimeConfig::workers_from_env(4);
    for seed in 0..6u64 {
        let dag = layered_dag(4, 3, 2, seed);
        let config = PolicyConfig::dag(dag.universe.clone(), dag.graph.clone());
        let jobs = deep_dag_jobs(&dag, 14, 2, seed);
        let ctx = format!("DDAG / deep / seed {seed}");
        let mut rt = Runtime::new(PolicyKind::Ddag, &config).expect("DDAG builds");
        let report = rt.run(&jobs, &strict_conf(workers));
        assert!(!report.timed_out, "{ctx}: timed out");
        assert_eq!(report.committed, jobs.len(), "{ctx}: lost jobs");
        assert!(!assert_agreement(&report, &ctx), "{ctx}: safe DDAG flagged");
    }
}

/// The last position of the minimal nonserializable prefix of
/// `schedule` — the closing edge of the first cycle in stamp order.
/// Serialization-graph edges only accumulate as steps append, so
/// nonserializability is monotone in the prefix length and binary
/// search finds the boundary.
fn closing_edge(schedule: &Schedule) -> u64 {
    let steps = schedule.steps();
    let prefix_bad = |k: usize| {
        let entries: Vec<(u64, ScheduledStep)> = steps[..k]
            .iter()
            .enumerate()
            .map(|(i, &s)| (i as u64, s))
            .collect();
        !is_serializable(&Schedule::from_sequenced(entries).expect("dense prefix stamps"))
    };
    let (mut lo, mut hi) = (1usize, steps.len());
    assert!(prefix_bad(hi), "whole schedule must be nonserializable");
    while lo < hi {
        let mid = lo + (hi - lo) / 2;
        if prefix_bad(mid) {
            hi = mid;
        } else {
            lo = mid + 1;
        }
    }
    (lo - 1) as u64
}

/// Sweeps a mutant until the runtime emits a nonserializable trace
/// (asserting online/offline agreement on *every* swept run), then
/// checks the caught trace is flagged at its closing edge by an
/// in-stamp-order replay.
fn sweep_mutant_for_agreement(
    mutant: PolicyKind,
    seeds: std::ops::Range<u64>,
    mut run_one: impl FnMut(u64) -> RuntimeReport,
) {
    const RUNS_PER_SEED: usize = 3;
    for seed in seeds {
        for _ in 0..RUNS_PER_SEED {
            let report = run_one(seed);
            let ctx = format!("{} / seed {seed}", mutant.name());
            if !assert_agreement(&report, &ctx) {
                continue;
            }
            // Caught: the deterministic replay (stamps fed in order,
            // transactions sealed at their last step) must latch its
            // violation exactly where the offline minimal prefix closes.
            let edge = closing_edge(&report.schedule);
            let replayed = IncrementalCertifier::certify_schedule(&report.schedule)
                .unwrap_or_else(|| panic!("{ctx}: replay must flag a nonserializable trace"));
            assert_eq!(
                replayed.stamp, edge,
                "{ctx}: replay flagged at stamp {} but the minimal nonserializable prefix \
                 closes at {edge}",
                replayed.stamp
            );
            return;
        }
    }
    panic!(
        "{}: no nonserializable trace caught across the sweep — mutant workload lost its teeth",
        mutant.name()
    );
}

#[test]
fn mutant_altruistic_no_wake_agrees_and_flags_the_closing_edge() {
    let pool: Vec<EntityId> = (0..16).map(EntityId).collect();
    sweep_mutant_for_agreement(PolicyKind::AltruisticNoWake, 0..80, |seed| {
        let mut rt = Runtime::new(
            PolicyKind::AltruisticNoWake,
            &PolicyConfig::flat(pool.clone()),
        )
        .expect("mutant builds");
        rt.run(
            &long_short_jobs(&pool, 10, 10, 2, seed),
            &strict_conf(mutant_workers()),
        )
    });
}

#[test]
fn mutant_ddag_no_held_pred_agrees_and_flags_the_closing_edge() {
    sweep_mutant_for_agreement(PolicyKind::DdagNoHeldPredecessor, 0..80, |seed| {
        let dag = layered_dag(4, 3, 2, seed);
        let config = PolicyConfig::dag(dag.universe.clone(), dag.graph.clone());
        let mut rt =
            Runtime::new(PolicyKind::DdagNoHeldPredecessor, &config).expect("mutant builds");
        rt.set_planner_factory(Arc::new(|_| Box::new(CrawlProbePlanner::default())));
        let mut jobs = deep_dag_jobs(&dag, 8, 2, seed);
        jobs.extend(deep_dag_jobs(&dag, 8, 1, seed.wrapping_add(7)));
        rt.run(&jobs, &strict_conf(mutant_workers()))
    });
}

#[test]
fn mutant_ddag_no_all_preds_agrees_and_flags_the_closing_edge() {
    sweep_mutant_for_agreement(PolicyKind::DdagNoAllPredecessors, 0..60, |seed| {
        let dag = layered_dag(5, 4, 2, seed);
        let config = PolicyConfig::dag(dag.universe.clone(), dag.graph.clone());
        let mut rt =
            Runtime::new(PolicyKind::DdagNoAllPredecessors, &config).expect("mutant builds");
        rt.set_planner_factory(Arc::new(|w| Box::new(ShoulderProbePlanner::new(w))));
        rt.run(
            &deep_dag_jobs(&dag, 20, 1, seed),
            &strict_conf(mutant_workers().max(8)),
        )
    });
}

#[test]
fn strict_mode_recovers_by_aborting_the_cycle_victim_and_running_on() {
    let pool: Vec<EntityId> = (0..16).map(EntityId).collect();
    let mut recovered_once = false;
    'sweep: for seed in 0..80u64 {
        for _ in 0..3 {
            let mut rt = Runtime::new(
                PolicyKind::AltruisticNoWake,
                &PolicyConfig::flat(pool.clone()),
            )
            .expect("mutant builds");
            let jobs = long_short_jobs(&pool, 10, 10, 2, seed);
            let report = rt.run(&jobs, &strict_conf(mutant_workers()));
            // Recovery means the run *finishes*: no halt, no timeout,
            // and the accounting (including certification aborts)
            // balances.
            assert!(!report.timed_out, "strict recovery must not hang");
            assert!(report.accounting_balances(), "unbalanced after recovery");
            // A certification abort implies the raw trace had a cycle,
            // and the committed set is serializable all the same.
            if assert_agreement(&report, &format!("strict recovery / seed {seed}")) {
                // The victims were retried as fresh transactions and the
                // run still drained the whole queue.
                assert_eq!(report.committed, jobs.len(), "jobs lost after recovery");
                recovered_once = true;
                break 'sweep;
            }
        }
    }
    assert!(
        recovered_once,
        "strict mode never caught a violation across the mutant sweep"
    );
}

// ---------------------------------------------------------------------
// Truncation / arrival-order properties.
// ---------------------------------------------------------------------

/// A few base schedules with varied shapes: safe concurrent captures
/// plus one caught mutant trace when the sweep yields one.
fn base_schedules() -> Vec<Schedule> {
    let pool: Vec<EntityId> = (0..12).map(EntityId).collect();
    let mut out = Vec::new();
    for seed in [3u64, 8] {
        let mut rt =
            Runtime::new(PolicyKind::TwoPhase, &PolicyConfig::flat(pool.clone())).expect("2PL");
        out.push(
            rt.run(&hot_cold_jobs(&pool, 16, 3, 4, 0.8, seed), &strict_conf(4))
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
            let report = rt.run(&long_short_jobs(&pool, 8, 8, 2, seed), &strict_conf(4));
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
        cert.observe(i as u64, s.tx, s.step);
        for &tx in &seal_at[i] {
            cert.seal(tx);
        }
    }
    for tx in seal_tail {
        cert.seal(tx);
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
        cert.observe(idx as u64, s.tx, s.step);
        let left = remaining.get_mut(&s.tx).expect("counted");
        *left -= 1;
        if *left == 0 {
            cert.seal(s.tx);
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
            IncrementalCertifier::certify_schedule(schedule).is_some(),
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
