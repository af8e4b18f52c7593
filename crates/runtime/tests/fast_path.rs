//! Sharded-grant fast-path conformance: the lock-word bypass must be
//! invisible in every verdict the formal model renders.
//!
//! * **Bypass ratio** — on an uncontended 2PL workload every grant is a
//!   word CAS: the engine lock is never taken for a grant at all.
//! * **Width-1 equivalence** — with one worker, fast-on and fast-off
//!   runs of the same jobs produce *byte-identical* schedules: the fast
//!   path emits exactly the steps the engine would (lock / read+write /
//!   ascending unlocks) for every job shape, read-only jobs included,
//!   stamped by the same counter in the same order.
//! * **One grant authority per run** — a planner that emits a locked
//!   point (outside the plain lock/access shape) is refused outright in a
//!   word run, before it takes a word, and runs through the engine with
//!   the fast path off.
//!
//! The stamp-ordering contract under test throughout: an acquire's stamp
//! is fetched after the word CAS, a release's before it, so per entity
//! the global counter orders conflicting steps exactly as the word
//! serialized them — `Schedule::from_sequenced_runs` (which rejects
//! duplicate or gapped stamps outright) then merges the per-worker runs
//! into a schedule that replays legal + serializable.

mod common;

use common::{check_run, pool};
use slp_policies::{
    AccessIntent, ActionPlanner, Job, PolicyAction, PolicyConfig, PolicyEngine, PolicyKind,
    PolicyViolation,
};
use slp_runtime::{Runtime, RuntimeConfig, RuntimeReport};
use slp_sim::uniform_jobs;
use std::sync::Arc;

/// Runs `jobs` on `rt` at `workers` with the fast path `fast` under the
/// shared base config, and holds the run to `common::check_run`.
fn run(rt: &mut Runtime, jobs: &[Job], workers: usize, fast: bool, ctx: &str) -> RuntimeReport {
    let config = RuntimeConfig {
        grant_fast_path: fast,
        ..common::conf(workers)
    };
    let report = rt.run(jobs, &config);
    check_run(&config, jobs, &report, ctx);
    report
}

#[test]
fn uncontended_two_phase_grants_bypass_the_engine_lock() {
    // A cold workload: 2 targets per job over 64 entities, so plans are
    // always plain lock/access over covered entities — every grant is
    // word-eligible and the engine lock is never taken for a grant.
    let pool = pool(64);
    let jobs = uniform_jobs(&pool, 200, 2, 42);
    let mut rt = Runtime::new(PolicyKind::TwoPhase, &PolicyConfig::flat(pool)).unwrap();
    let report = run(&mut rt, &jobs, 4, true, "2PL cold / fast on");
    assert_eq!(
        report.slow_path_grants, 0,
        "2PL plans are always fast-eligible: no grant should reach the engine"
    );
    assert_eq!(report.fast_path_fallbacks, 0, "no plan should fall back");
    assert!(
        report.fast_path_ratio() > 0.9,
        "bypass ratio {} not > 0.9 (fast {} / total {})",
        report.fast_path_ratio(),
        report.fast_path_grants,
        report.grants
    );
}

#[test]
fn fast_off_keeps_the_engine_path_untouched() {
    let pool = pool(24);
    let jobs = uniform_jobs(&pool, 60, 3, 9);
    let mut rt = Runtime::new(PolicyKind::TwoPhase, &PolicyConfig::flat(pool)).unwrap();
    let report = run(&mut rt, &jobs, 4, false, "2PL / fast off");
    assert_eq!(
        report.slow_path_grants, report.grants,
        "with the fast path off every grant is an engine grant"
    );
}

#[test]
fn global_scope_engines_ignore_the_knob() {
    // Altruistic grants read global wake state, so the engine advertises
    // GrantScope::Global and the knob must change nothing.
    let pool = pool(16);
    let jobs = uniform_jobs(&pool, 40, 3, 4);
    let mut rt = Runtime::new(PolicyKind::Altruistic, &PolicyConfig::flat(pool)).unwrap();
    let report = run(&mut rt, &jobs, 4, true, "altruistic / knob on");
    assert_eq!(report.fast_path_grants, 0, "no word table for Global scope");
    assert_eq!(report.fast_path_fallbacks, 0);
}

#[test]
fn width_one_schedules_are_identical_fast_on_and_off() {
    // At one worker there is no interleaving: the fast path must emit
    // byte-for-byte the schedule the engine path emits — same steps,
    // same stamps, same outcomes — across several seeds. Every other job
    // is a single-target read, which the engine locks `LX R W UX` like
    // any other job: the words must take it the same way.
    let pool = pool(16);
    for seed in 0..6u64 {
        let jobs: Vec<Job> = uniform_jobs(&pool, 30, 3, seed)
            .into_iter()
            .enumerate()
            .flat_map(|(i, job)| {
                let read = pool[(i * 5 + seed as usize) % pool.len()];
                [job, Job::read(vec![read])]
            })
            .collect();
        let ctx = format!("2PL width-1 / seed {seed}");
        let run_with = |fast: bool| {
            let mut rt =
                Runtime::new(PolicyKind::TwoPhase, &PolicyConfig::flat(pool.clone())).unwrap();
            run(&mut rt, &jobs, 1, fast, &format!("{ctx} / fast {fast}"))
        };
        let on = run_with(true);
        let off = run_with(false);
        assert_eq!(
            on.schedule, off.schedule,
            "{ctx}: fast path changed the step-for-step schedule"
        );
        assert_eq!(on.outcome_fingerprint(), off.outcome_fingerprint(), "{ctx}");
        assert_eq!(on.grants, off.grants, "{ctx}: grant counts diverged");
        assert_eq!(on.fast_path_grants, on.grants, "{ctx}: all grants fast");
    }
}

/// A 2PL planner whose plans are deliberately outside the word run's
/// shape: it appends a [`PolicyAction::LockedPoint`] (after every lock,
/// so the engine accepts it).
struct LockedPointPlanner;

impl ActionPlanner for LockedPointPlanner {
    fn intent(&self, _job: &Job) -> AccessIntent {
        AccessIntent::empty()
    }

    fn plan(
        &mut self,
        _engine: &dyn PolicyEngine,
        job: &Job,
    ) -> Result<Option<Vec<PolicyAction>>, PolicyViolation> {
        let mut plan = Vec::with_capacity(job.targets.len() * 2 + 1);
        for &t in &job.targets {
            plan.push(PolicyAction::Lock(t));
            plan.push(PolicyAction::Access(t));
        }
        plan.push(PolicyAction::LockedPoint);
        Ok(Some(plan))
    }
}

#[test]
fn a_word_run_refuses_a_plan_outside_the_plain_shape() {
    // Every plan ends in a locked point. A word run refuses each one
    // before it takes a word — a fatal violation, so the job is dropped —
    // and grants nothing; with the fast path off the engine runs them all.
    let pool = pool(8);
    let jobs = uniform_jobs(&pool, 40, 2, 7);
    let runtime = || {
        let mut rt = Runtime::new(PolicyKind::TwoPhase, &PolicyConfig::flat(pool.clone())).unwrap();
        rt.set_planner_factory(Arc::new(|_| Box::new(LockedPointPlanner)));
        rt
    };
    let config = common::conf(4);
    let refused = runtime().run(&jobs, &config);
    assert_eq!(refused.rejected, jobs.len(), "every plan refused");
    assert_eq!(refused.fast_path_fallbacks, jobs.len() as u64);
    assert_eq!((refused.grants, refused.committed), (0, 0));
    assert!(refused.accounting_balances());
    assert!(refused.lock_table_quiescent());
    assert!(
        refused.schedule.is_empty(),
        "a refused attempt took no step"
    );

    run(&mut runtime(), &jobs, 4, false, "locked points / fast off");
}
