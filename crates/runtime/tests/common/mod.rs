//! The runtime suites' shared harness: the worker widths, the base
//! config, the workload tables, and [`check_run`], the one check every
//! run is held to. Each suite includes it with `mod common;`.
//!
//! The spec is the paper's theorem: a safe policy's traces are legal,
//! proper and serializable. `check_run` asserts what holds for every
//! run and derives the rest from the run's [`RuntimeConfig`], so a
//! suite states only what is particular to its scenario.

#![allow(dead_code)]

use slp_core::{is_serializable, is_serializable_with_aborts, EntityId, Schedule, ScheduledStep};
use slp_policies::{
    CrawlProbePlanner, Job, PolicyConfig, PolicyKind, PolicyRegistry, ShoulderProbePlanner,
};
use slp_runtime::{
    CertifyMode, IncrementalCertifier, Runtime, RuntimeConfig, RuntimeReport, SchedMode,
};
use slp_sim::{
    dag_access_jobs, dag_mixed_jobs, deep_dag_jobs, hot_cold_jobs, layered_dag, long_short_jobs,
    uniform_jobs, LayeredDag,
};
use std::sync::Arc;
use std::time::Duration;

/// A park timeout far above scheduler jitter. With the wake protocol
/// correct it never fires, so under it [`check_run`] asserts
/// `park_timeouts == 0`: a firing is a lost wakeup or a stale waits-for
/// edge. (The default 1 ms backstop races OS preemption of lock holders,
/// so small counts there are noise.)
pub const GENEROUS_PARK: Duration = Duration::from_secs(10);

/// The safe flat-pool kinds.
pub const FLAT_KINDS: [PolicyKind; 3] = [
    PolicyKind::TwoPhase,
    PolicyKind::Altruistic,
    PolicyKind::Dtr,
];

/// The widths of a safe sweep: 1, where a run is serial, and 4, where
/// workers race.
pub const SWEEP_WIDTHS: [usize; 2] = [1, 4];

/// The widths a ladder sweeps.
pub const WIDTHS: [usize; 4] = [1, 2, 4, 8];

/// The width of a mutant sweep. A nonserializable interleaving needs
/// real concurrency: at width 1 every run is serial and trivially
/// serializable, so the negative control would be vacuous, not failed.
pub const MUTANT_WORKERS: usize = 4;

/// The base config: `workers` threads under the generous park timeout.
pub fn conf(workers: usize) -> RuntimeConfig {
    RuntimeConfig {
        workers,
        park_timeout: GENEROUS_PARK,
        ..Default::default()
    }
}

/// Entities `0..n`.
pub fn pool(n: u32) -> Vec<EntityId> {
    (0..n).map(EntityId).collect()
}

/// One row of a workload table.
pub struct Workload {
    pub name: &'static str,
    pub policy: PolicyConfig,
    /// Names interned into the engine before the run, in order: the
    /// insert mix's fresh nodes.
    pub fresh: Vec<String>,
    pub jobs: Vec<Job>,
}

impl Workload {
    fn flat(name: &'static str, jobs: Vec<Job>) -> Self {
        Workload {
            name,
            policy: PolicyConfig::flat(pool(24)),
            fresh: Vec::new(),
            jobs,
        }
    }

    /// A fresh runtime for `kind` with the workload's names interned.
    pub fn runtime(&self, kind: PolicyKind) -> Runtime {
        let mut rt = Runtime::new(kind, &self.policy).expect("buildable kind");
        for name in &self.fresh {
            rt.intern(name).expect("policy interns fresh names");
        }
        rt
    }

    /// Runs the workload under `kind` and `config`, checks the run, and
    /// hands back the report for the caller's own assertions.
    pub fn run(&self, kind: PolicyKind, config: &RuntimeConfig, ctx: &str) -> RuntimeReport {
        let report = self.runtime(kind).run(&self.jobs, config);
        let ctx = format!("{} / {} / {ctx}", kind.name(), self.name);
        check_run(config, &self.jobs, &report, &ctx);
        report
    }
}

/// The flat-pool table over 24 entities: a uniform mix, the long-scan
/// regime, and a hot set.
pub fn flat_workloads(seed: u64) -> Vec<Workload> {
    let p = pool(24);
    vec![
        Workload::flat("uniform", uniform_jobs(&p, 24, 3, seed)),
        Workload::flat("long-short", long_short_jobs(&p, 12, 14, 2, seed)),
        Workload::flat("hot-cold", hot_cold_jobs(&p, 30, 3, 4, 0.8, seed)),
    ]
}

/// The DDAG table: traversals, deep-layer dominator traversals, and the
/// insert mix — the dynamic case, where the graph grows while traversals
/// run and invalidated plans abort and replan as in Fig. 3.
pub fn ddag_workloads(seed: u64) -> Vec<Workload> {
    let dag = layered_dag(4, 3, 2, seed);
    let deep = layered_dag(5, 3, 2, seed);
    let config = |dag: &LayeredDag| PolicyConfig::dag(dag.universe.clone(), dag.graph.clone());
    // Fresh names get their ids from an engine like the one the run
    // builds (its universe also holds the edge entities); the run's
    // engine interns them in the same order, so the ids agree.
    let mut engine = PolicyRegistry::new()
        .build(PolicyKind::Ddag, &config(&dag))
        .expect("DDAG builds");
    let mut fresh = Vec::new();
    let mut intern = |name: &str| {
        fresh.push(name.to_owned());
        engine.intern_entity(name).expect("DDAG interns")
    };
    let mixed = dag_mixed_jobs(&dag, 16, 2, 0.3, &mut intern, seed);
    let row = |name, dag: &LayeredDag, fresh, jobs| Workload {
        name,
        policy: config(dag),
        fresh,
        jobs,
    };
    vec![
        row(
            "traversals",
            &dag,
            Vec::new(),
            dag_access_jobs(&dag, 16, 2, seed),
        ),
        row("deep", &deep, Vec::new(), deep_dag_jobs(&deep, 18, 2, seed)),
        row("insert-mix", &dag, fresh, mixed),
    ]
}

/// A fresh runtime and its jobs for one run of `mutant`'s sweep at
/// `seed`: a workload, and for the DDAG mutants a probe planner, built
/// to exercise the mutant's ablated rule.
pub fn mutant_run(mutant: PolicyKind, seed: u64) -> (Runtime, Vec<Job>) {
    let dag_runtime = |dag: &LayeredDag| {
        let config = PolicyConfig::dag(dag.universe.clone(), dag.graph.clone());
        Runtime::new(mutant, &config).expect("mutant builds")
    };
    match mutant {
        // Long/short under eager donation: shorts run in the long scan's
        // wake; without AL2 a short can escape the wake, commit an entity
        // ahead of the scan, and close a cycle when the scan reaches it.
        PolicyKind::AltruisticNoWake => {
            let pool = pool(16);
            let rt =
                Runtime::new(mutant, &PolicyConfig::flat(pool.clone())).expect("mutant builds");
            (rt, long_short_jobs(&pool, 10, 10, 2, seed))
        }
        // Lock-use-release crawls (L5a-conforming, L5b-violating) at
        // mixed speeds: short crawls overtake long ones mid-region,
        // inverting the conflict order between two shared nodes.
        PolicyKind::DdagNoHeldPredecessor => {
            let dag = layered_dag(4, 3, 2, seed);
            let mut rt = dag_runtime(&dag);
            rt.set_planner_factory(Arc::new(|_| Box::new(CrawlProbePlanner::default())));
            let mut jobs = deep_dag_jobs(&dag, 8, 2, seed);
            jobs.extend(deep_dag_jobs(&dag, 8, 1, seed.wrapping_add(7)));
            (rt, jobs)
        }
        // Opposite shoulder crawls through a deep, wide DAG: paths to
        // different deep targets cross at multi-parent mid-layer nodes in
        // either order (everyone shares the root early), and whoever
        // closes the crossing second closes the cycle the safe policy's
        // L5a would have refused. This is the hardest race of the three —
        // a cycle needs two path crossings to invert — so it gets the
        // deepest DAG, the most jobs, and (in `sweep_mutant`) the widest
        // worker pool.
        PolicyKind::DdagNoAllPredecessors => {
            let dag = layered_dag(5, 4, 2, seed);
            let mut rt = dag_runtime(&dag);
            rt.set_planner_factory(Arc::new(|w| Box::new(ShoulderProbePlanner::new(w))));
            (rt, deep_dag_jobs(&dag, 20, 1, seed))
        }
        safe => panic!("{} is not a mutant", safe.name()),
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

/// Sweeps `mutant`'s seeds under `certify` — each retried a few times:
/// the unsafe interleaving is a genuine race, and a fresh run rolls
/// fresh thread timings — until the runtime emits a nonserializable
/// trace, and panics if the whole budget stays clean. *Every* swept run
/// is held to [`check_run`]: legal and proper (the mutants only lose
/// serializability) and, under strict certification, the online verdict
/// equal to the offline one, a caught cycle paired with certification
/// aborts, and the committed projection serializable. The caught trace
/// must then be flagged at its closing edge by an in-stamp-order replay.
///
/// The runs keep the default 1 ms park backstop, at which the catch
/// rates were measured (release, single-CPU host, the hardest setting):
/// ~0.9 per seed for the AL2 mutant, ~1.0 for the L5b mutant, ~0.5 for
/// the L5a mutant — across 60+ seeds × 3 runs the sweep failing
/// spuriously is vanishingly unlikely.
pub fn sweep_mutant(mutant: PolicyKind, certify: CertifyMode) {
    const RUNS_PER_SEED: usize = 3;
    let (seeds, workers) = match mutant {
        PolicyKind::DdagNoAllPredecessors => (0..60u64, 8),
        _ => (0..80u64, MUTANT_WORKERS),
    };
    let config = RuntimeConfig {
        certify_online: certify,
        ..RuntimeConfig::with_workers(workers)
    };
    for seed in seeds {
        for _ in 0..RUNS_PER_SEED {
            let (mut rt, jobs) = mutant_run(mutant, seed);
            let report = rt.run(&jobs, &config);
            let ctx = format!("{} / {certify:?} / seed {seed}", mutant.name());
            check_run(&config, &jobs, &report, &ctx);
            if is_serializable(&report.schedule) {
                continue;
            }
            // Caught: the deterministic replay (stamps fed in order,
            // transactions sealed at their last step) must latch its
            // violation exactly where the offline minimal prefix closes.
            let edge = closing_edge(&report.schedule);
            let replayed =
                IncrementalCertifier::certify_schedule_with_aborts(&report.schedule, &[])
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
        "{}: no nonserializable trace caught across the sweep — either the mutant workload \
         no longer exercises the ablated rule or the replay pipeline lost its teeth",
        mutant.name()
    );
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

/// The one run check. Always: every job accounted for, a quiescent lock
/// table, a legal trace that is proper against `report.initial`, the
/// grant and latency identities, and the anti-spin `lock_waits` budget;
/// `park_timeouts == 0` under [`GENEROUS_PARK`]; and, for a safe kind,
/// a serializable trace. Derived from `config`: a deadline shorter than
/// the default (jobs cut short are abandoned and counted, not lost), the
/// snapshot-read count, online certification, the scheduler's waves and
/// the fast path's counters. A failed check panics with `ctx`.
pub fn check_run(config: &RuntimeConfig, jobs: &[Job], report: &RuntimeReport, ctx: &str) {
    let kind = PolicyKind::from_name(report.policy).expect("the report names a registered kind");
    assert_eq!(report.workers, config.workers, "{ctx}: width not honored");
    assert!(
        report.accounting_balances(),
        "{ctx}: attempts ({}) != committed ({}) + policy aborts ({}) + deadlock aborts ({}) \
         + certification aborts ({}) + rejected ({}) + abandoned ({})",
        report.attempts,
        report.committed,
        report.policy_aborts,
        report.deadlock_aborts,
        report.certification_aborts,
        report.rejected,
        report.abandoned
    );
    assert_eq!(report.rejected, 0, "{ctx}: well-formed jobs rejected");
    let deadline = config.max_wall < RuntimeConfig::default().max_wall;
    if deadline {
        // A deadline the run is meant to hit: what it cut short is
        // abandoned and counted, never lost.
        assert_eq!(report.abandoned > 0, report.timed_out, "{ctx}");
        assert_eq!(
            report.committed + report.abandoned,
            jobs.len(),
            "{ctx}: a job neither committed nor abandoned"
        );
    } else {
        assert!(!report.timed_out, "{ctx}: timed out");
        assert_eq!(
            report.abandoned, 0,
            "{ctx}: abandoned jobs without a deadline"
        );
        assert_eq!(report.committed, jobs.len(), "{ctx}: lost jobs");
    }
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
    assert_eq!(
        report.grants,
        report.fast_path_grants + report.slow_path_grants,
        "{ctx}: every grant must be attributed to exactly one path"
    );
    // A run grants through one authority: words or the engine, never both.
    assert!(
        report.fast_path_grants == 0 || report.slow_path_grants == 0,
        "{ctx}: {} word grants and {} engine grants in one run",
        report.fast_path_grants,
        report.slow_path_grants
    );
    if kind == PolicyKind::TwoPhase && config.grant_fast_path {
        assert_eq!(
            report.slow_path_grants, 0,
            "{ctx}: a 2PL word run asked the engine for a lock"
        );
    }
    assert_eq!(
        report.latency.count, report.committed,
        "{ctx}: one latency sample per committed job"
    );
    // Anti-spin budget (race-free by construction): every conflict
    // observation is chargeable to the attempt or grant whose request
    // observed it, or — after the first in a conflict loop — to the park
    // return that preceded it, and a park only returns on a stripe
    // generation bump (one per released entity, waking at most `workers`
    // waiters) or a counted timeout. A conflict loop that re-requests
    // without parking inflates lock_waits past this budget.
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
        "{ctx}: lock_waits ({}) exceeds the park/wake budget ({budget}: {} attempts + {} grants \
         + {unlock_bumps} unlock bumps x {} workers + {} timeouts) — a conflict loop is \
         spinning without parking",
        report.lock_waits,
        report.attempts,
        report.grants,
        report.workers,
        report.park_timeouts
    );
    if config.park_timeout >= GENEROUS_PARK {
        assert_eq!(
            report.park_timeouts, 0,
            "{ctx}: park-timeout backstop fired on a healthy run (a lost wakeup or a stale \
             waits-for edge)"
        );
    }

    // Serializability. Snapshot reads are checked with the aborted set:
    // it dissolves their edges against writers that never committed. A
    // run cut short by its deadline can leave a trace of tens of
    // thousands of steps on a hot set, where D(S) has quadratically many
    // edges; it replays through the incremental certifier instead, which
    // `online_certification.rs` holds to D(S).
    let serializable = if deadline {
        IncrementalCertifier::certify_schedule_with_aborts(&report.schedule, &report.aborted)
            .is_none()
    } else if config.snapshot_reads {
        is_serializable_with_aborts(&report.schedule, &report.aborted)
    } else {
        is_serializable(&report.schedule)
    };
    if kind.is_safe() {
        assert!(
            serializable,
            "{ctx}: NONSERIALIZABLE trace from a safe policy"
        );
    }
    // Every read-only job commits exactly once through the snapshot
    // path, so the count is exact even across writer retries.
    let snapshot_reads: u64 = jobs
        .iter()
        .filter(|j| config.snapshot_reads && j.read_only)
        .map(|j| j.targets.len() as u64)
        .sum();
    assert_eq!(
        report.snapshot_reads, snapshot_reads,
        "{ctx}: snapshot read count off"
    );

    match (config.certify_online, &report.certification) {
        (CertifyMode::Off, cert) => assert!(cert.is_none(), "{ctx}: certified with it off"),
        (CertifyMode::Strict, None) => panic!("{ctx}: strict run must carry a certification"),
        (CertifyMode::Strict, Some(cert)) => {
            assert_eq!(
                cert.violation.is_some(),
                !serializable,
                "{ctx}: online certifier ({:?}) disagrees with the offline check",
                cert.violation
            );
            assert_eq!(
                cert.violation.is_some(),
                report.certification_aborts > 0,
                "{ctx}: the preserved first violation and the abort count must agree"
            );
            assert_eq!(
                cert.stats.steps,
                report.schedule.len() as u64,
                "{ctx}: certifier missed steps"
            );
            // Every transaction retires (commit or abort), so by
            // quiescence truncation has reclaimed the whole graph.
            assert_eq!(
                cert.stats.live_nodes, 0,
                "{ctx}: unreclaimed certifier nodes"
            );
            // Strict recovery aborted the transaction that closed each
            // caught cycle, so the committed set is serializable whatever
            // the policy admitted. (The raw trace keeps the victims'
            // locked steps, and with them the caught cycle.)
            assert!(
                is_serializable(&committed_projection(report)),
                "{ctx}: committed set nonserializable after strict recovery"
            );
        }
    }

    if config.scheduler == SchedMode::Off {
        assert!(report.wave_widths.is_empty(), "{ctx}");
        assert_eq!(
            report.sched_parks_avoided, 0,
            "{ctx}: wave accounting with the scheduler off"
        );
    } else {
        assert!(
            !report.wave_widths.is_empty(),
            "{ctx}: scheduled run reported no waves"
        );
        assert_eq!(
            report
                .wave_widths
                .iter()
                .map(|&w| w as usize)
                .sum::<usize>(),
            jobs.len(),
            "{ctx}: wave widths don't partition the job queue"
        );
    }
    if !config.grant_fast_path {
        assert_eq!(
            (report.fast_path_grants, report.fast_path_fallbacks),
            (0, 0),
            "{ctx}: fast-path counters with the fast path off"
        );
    }
}
