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
//! * **Fast/slow interleaving** — a hot single entity hammered by
//!   fast-path workers and engine-path workers (their planner emits a
//!   locked point, which is fast-ineligible by design), with read-only
//!   jobs among them: both grant paths must agree on one lock word with
//!   no lost wakeups, no double grants, and a serializable merged trace.
//!
//! The stamp-ordering contract under test throughout: an acquire's stamp
//! is fetched after the word CAS, a release's before it, so per entity
//! the global counter orders conflicting steps exactly as the word
//! serialized them — `Schedule::from_sequenced_runs` (which rejects
//! duplicate or gapped stamps outright) then merges the per-worker runs
//! into a schedule that replays legal + serializable.

mod common;

use common::{check_run, pool};
use slp_core::EntityId;
use slp_policies::{
    planner_for, AccessIntent, ActionPlanner, Job, PolicyAction, PolicyConfig, PolicyEngine,
    PolicyKind, PolicyViolation,
};
use slp_runtime::{Runtime, RuntimeConfig, RuntimeReport};
use slp_sim::uniform_jobs;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Arc;

/// Runs `jobs` on `rt` at `workers` with the fast path `fast` under the
/// shared base config, and holds the run to `common::check_run`. The
/// base keeps `step_yield` on: the mixed-planner tests need words mode
/// and engine mode to meet on one word.
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

/// A 2PL planner whose plans are deliberately fast-ineligible: it
/// appends a [`PolicyAction::LockedPoint`] (after every lock, so the
/// engine accepts it), forcing the attempt down the engine path even in
/// a fast-active run — the tool for pitting both grant paths against the
/// same lock word.
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
fn fast_and_slow_paths_interleave_on_one_hot_entity() {
    // The dual-path stress the tentpole demands: ONE entity, 8 workers.
    // Even workers plan plain lock/access (fast path); odd workers plan
    // through LockedPointPlanner (engine path, counted as fallbacks);
    // every third job is read-only, and takes the word exclusively like
    // the writers do. Both paths contend on the same lock word, so a
    // coherence bug — a double grant, a lost wakeup, a release the other
    // path missed — surfaces as an illegal or nonserializable trace, a
    // stuck run (10 s park backstop), or a leaked lock.
    let pool = vec![EntityId(0)];
    let jobs: Vec<Job> = (0..240)
        .map(|i| {
            if i % 3 == 0 {
                Job::read(vec![EntityId(0)])
            } else {
                Job::access(vec![EntityId(0)])
            }
        })
        .collect();
    let mut rt = Runtime::new(PolicyKind::TwoPhase, &PolicyConfig::flat(pool)).unwrap();
    rt.set_planner_factory(Arc::new(|w| {
        if w % 2 == 1 {
            Box::new(LockedPointPlanner) as Box<dyn ActionPlanner>
        } else {
            planner_for(PolicyKind::TwoPhase)
        }
    }));
    let report = run(&mut rt, &jobs, 8, true, "hot-entity interleaving");
    assert_eq!(
        report.deadlock_aborts, 0,
        "single-lock transactions cannot cycle — a victim here is a phantom"
    );
    // Both paths must actually have been exercised (8 workers, half per
    // planner, every worker claims many of the 240 jobs).
    assert!(report.fast_path_grants > 0, "fast path never ran");
    assert!(report.slow_path_grants > 0, "engine path never ran");
    assert!(
        report.fast_path_fallbacks > 0,
        "locked-point plans must fall back"
    );
}

/// A 2PL planner whose every other plan is refused *after* it took a
/// lock word: `[Lock(A), Access(A), LockedPoint, Lock(B)]` — the engine
/// rules `PastLockedPoint` on `Lock(B)` once the attempt (engine mode,
/// because of the locked point) already holds `B`'s word. That word goes
/// back with no unlock step recorded, the one release the trace never
/// sees. The refusal is transient, so the job retries; the planner's
/// next plan is a well-formed engine-mode one on `B`, so every job ends.
struct RefusedAfterWordPlanner {
    next_is_refused: bool,
    refusals: Arc<AtomicUsize>,
}

const A: EntityId = EntityId(0);
const B: EntityId = EntityId(1);

impl ActionPlanner for RefusedAfterWordPlanner {
    fn intent(&self, _job: &Job) -> AccessIntent {
        AccessIntent::empty()
    }

    fn plan(
        &mut self,
        _engine: &dyn PolicyEngine,
        _job: &Job,
    ) -> Result<Option<Vec<PolicyAction>>, PolicyViolation> {
        self.next_is_refused = !self.next_is_refused;
        Ok(Some(if self.next_is_refused {
            self.refusals.fetch_add(1, Ordering::Relaxed);
            vec![
                PolicyAction::Lock(A),
                PolicyAction::Access(A),
                PolicyAction::LockedPoint,
                PolicyAction::Lock(B),
            ]
        } else {
            vec![
                PolicyAction::Lock(B),
                PolicyAction::Access(B),
                PolicyAction::LockedPoint,
            ]
        }))
    }
}

#[test]
fn a_refused_engine_mode_lock_gives_its_word_back() {
    // Odd workers run the refused-then-retried planner above; even
    // workers run plain words-mode jobs on B, so the handed-back word is
    // always contended: a hand-back that forgot the word would trip the
    // end-of-run "words all free" assert (or wedge the run), one that
    // forgot the wakeup would fire the 10 s park backstop.
    let refusals = Arc::new(AtomicUsize::new(0));
    let jobs: Vec<Job> = (0..240).map(|_| Job::access(vec![B])).collect();
    let mut rt = Runtime::new(PolicyKind::TwoPhase, &PolicyConfig::flat(vec![A, B])).unwrap();
    let counter = Arc::clone(&refusals);
    rt.set_planner_factory(Arc::new(move |w| {
        if w % 2 == 1 {
            Box::new(RefusedAfterWordPlanner {
                next_is_refused: false,
                refusals: Arc::clone(&counter),
            }) as Box<dyn ActionPlanner>
        } else {
            planner_for(PolicyKind::TwoPhase)
        }
    }));
    let report = run(&mut rt, &jobs, 8, true, "refused lock hand-back");
    let refused = refusals.load(Ordering::Relaxed);
    assert!(refused > 0, "the refused shape never ran");
    assert_eq!(
        report.policy_aborts, refused,
        "every refused plan is one counted policy abort"
    );
    assert_eq!(
        report.deadlock_aborts, 0,
        "A is always taken before B and B-holders never wait"
    );
    assert!(report.fast_path_grants > 0, "words mode never ran");
    assert!(report.slow_path_grants > 0, "engine mode never ran");
}
