//! Batch-scheduler conformance: the admission-stage conflict-DAG
//! scheduler must be invisible to the formal model and visible in the
//! contention counters.
//!
//! * **Mode sweep** — safe policies × contended workloads (hot/cold,
//!   deep-layer DAG traversals, the DDAG insert mix) × `off | waves |
//!   deterministic` × 1/2/4/8 workers: every captured trace legal,
//!   proper, serializable; accounting balanced; no lost jobs; and the
//!   wave accounting self-consistent (`wave_widths` sums to the job
//!   count, zero waves with the scheduler off).
//! * **Deterministic pin** — [`SchedMode::Deterministic`] must produce a
//!   byte-identical merged [`slp_core::Schedule`] and outcome
//!   fingerprint across worker counts *and* across repeated runs, for
//!   both a per-entity-scope engine (2PL, concurrent waves) and a
//!   global-scope engine (DDAG, serial waves).
//! * **Park avoidance** — on hot/cold contention at 4 workers, `waves`
//!   mode must resolve declared conflicts up front: nonzero
//!   `sched_parks_avoided`, and strictly fewer grant-time lock waits
//!   than the unscheduled runtime accumulates over the same seeds.
//!
//! Worker count honors `SLP_RUNTIME_THREADS` (CI matrix convention).

use slp_core::{is_serializable, EntityId};
use slp_policies::{Job, PolicyConfig, PolicyKind};
use slp_runtime::{Runtime, RuntimeConfig, RuntimeReport, SchedMode};
use slp_sim::{dag_mixed_jobs, deep_dag_jobs, hot_cold_jobs, layered_dag};

fn workers() -> usize {
    RuntimeConfig::workers_from_env(4)
}

fn conf(width: usize, sched: SchedMode) -> RuntimeConfig {
    RuntimeConfig {
        workers: width,
        scheduler: sched,
        ..Default::default()
    }
}

/// The widths a sweep covers: the env-pinned width under the CI matrix,
/// the full 1/2/4/8 ladder otherwise.
fn widths() -> Vec<usize> {
    match RuntimeConfig::env_workers() {
        Some(w) => vec![w],
        None => vec![1, 2, 4, 8],
    }
}

/// The full replay check plus the scheduler's own accounting: wave
/// widths must partition the job queue when scheduling is on and be
/// absent when it is off.
fn verify(report: &RuntimeReport, jobs: usize, sched: SchedMode, ctx: &str) {
    assert!(!report.timed_out, "{ctx}: timed out");
    assert!(report.accounting_balances(), "{ctx}: unbalanced accounting");
    assert_eq!(report.rejected, 0, "{ctx}: well-formed jobs rejected");
    assert_eq!(report.committed, jobs, "{ctx}: lost jobs");
    assert!(report.lock_table_quiescent(), "{ctx}: locks leaked");
    assert!(report.schedule.is_legal(), "{ctx}: illegal trace");
    assert!(
        report.schedule.is_proper(&report.initial),
        "{ctx}: improper trace"
    );
    assert!(
        is_serializable(&report.schedule),
        "{ctx}: NONSERIALIZABLE trace under the scheduler"
    );
    if sched == SchedMode::Off {
        assert_eq!(report.waves, 0, "{ctx}: waves reported with scheduler off");
        assert!(report.wave_widths.is_empty(), "{ctx}");
        assert_eq!(report.sched_parks_avoided, 0, "{ctx}");
    } else {
        assert_eq!(report.waves, report.wave_widths.len(), "{ctx}");
        assert!(report.waves > 0, "{ctx}: scheduled run reported no waves");
        assert_eq!(
            report
                .wave_widths
                .iter()
                .map(|&w| w as usize)
                .sum::<usize>(),
            jobs,
            "{ctx}: wave widths don't partition the job queue"
        );
    }
}

#[test]
fn scheduled_runs_conform_across_policies_modes_and_widths() {
    let pool: Vec<EntityId> = (0..24).map(EntityId).collect();
    for sched in [SchedMode::Off, SchedMode::Waves, SchedMode::Deterministic] {
        for &width in &widths() {
            for seed in 0..3u64 {
                // Flat-pool policies on the contended workload.
                for kind in [
                    PolicyKind::TwoPhase,
                    PolicyKind::Altruistic,
                    PolicyKind::Dtr,
                ] {
                    let jobs = hot_cold_jobs(&pool, 30, 3, 4, 0.8, seed);
                    let ctx = format!(
                        "{} / hot-cold / {sched:?} / width {width} / seed {seed}",
                        kind.name()
                    );
                    let mut rt = Runtime::new(kind, &PolicyConfig::flat(pool.clone()))
                        .expect("buildable kind");
                    let report = rt.run(&jobs, &conf(width, sched));
                    verify(&report, jobs.len(), sched, &ctx);
                }

                // DDAG on deep traversals (structural state, global scope).
                let dag = layered_dag(5, 3, 2, seed);
                let config = PolicyConfig::dag(dag.universe.clone(), dag.graph.clone());
                let jobs = deep_dag_jobs(&dag, 18, 2, seed);
                let ctx = format!("DDAG / deep / {sched:?} / width {width} / seed {seed}");
                let mut rt = Runtime::new(PolicyKind::Ddag, &config).expect("DDAG builds");
                let report = rt.run(&jobs, &conf(width, sched));
                verify(&report, jobs.len(), sched, &ctx);

                // DDAG insert mix: structural ops must fence waves, and
                // the fenced trace must still replay clean.
                let base = layered_dag(4, 3, 2, seed);
                let config = PolicyConfig::dag(base.universe.clone(), base.graph.clone());
                let mut rt = Runtime::new(PolicyKind::Ddag, &config).expect("DDAG builds");
                let jobs: Vec<Job> = {
                    let mut intern = |name: &str| rt.intern(name).expect("DDAG interns");
                    dag_mixed_jobs(&base, 16, 2, 0.3, &mut intern, seed)
                };
                let ctx = format!("DDAG / insert-mix / {sched:?} / width {width} / seed {seed}");
                let report = rt.run(&jobs, &conf(width, sched));
                verify(&report, jobs.len(), sched, &ctx);
            }
        }
    }
}

#[test]
fn deterministic_mode_is_byte_identical_across_widths_and_repeats() {
    let pool: Vec<EntityId> = (0..24).map(EntityId).collect();
    for seed in 0..3u64 {
        // 2PL: per-entity scope, waves run concurrently — the hard case,
        // since real threads race within each wave.
        let jobs = hot_cold_jobs(&pool, 30, 3, 4, 0.8, seed);
        let mut baseline: Option<RuntimeReport> = None;
        for &width in &widths() {
            for repeat in 0..2 {
                let ctx = format!("2PL / det / width {width} / repeat {repeat} / seed {seed}");
                let mut rt = Runtime::new(PolicyKind::TwoPhase, &PolicyConfig::flat(pool.clone()))
                    .expect("2PL builds");
                let report = rt.run(&jobs, &conf(width, SchedMode::Deterministic));
                verify(&report, jobs.len(), SchedMode::Deterministic, &ctx);
                match &baseline {
                    None => baseline = Some(report),
                    Some(base) => {
                        assert_eq!(
                            report.outcome_fingerprint(),
                            base.outcome_fingerprint(),
                            "{ctx}: fingerprint diverged"
                        );
                        assert_eq!(
                            report.schedule, base.schedule,
                            "{ctx}: deterministic schedule diverged from the \
                             width-{} baseline",
                            base.workers
                        );
                    }
                }
            }
        }

        // DDAG: global scope, waves run serially — admission order IS the
        // execution order, so the pin must hold here too.
        let dag = layered_dag(5, 3, 2, seed);
        let config = PolicyConfig::dag(dag.universe.clone(), dag.graph.clone());
        let jobs = deep_dag_jobs(&dag, 18, 2, seed);
        let mut baseline: Option<RuntimeReport> = None;
        for &width in &widths() {
            for repeat in 0..2 {
                let ctx = format!("DDAG / det / width {width} / repeat {repeat} / seed {seed}");
                let mut rt = Runtime::new(PolicyKind::Ddag, &config).expect("DDAG builds");
                let report = rt.run(&jobs, &conf(width, SchedMode::Deterministic));
                verify(&report, jobs.len(), SchedMode::Deterministic, &ctx);
                match &baseline {
                    None => baseline = Some(report),
                    Some(base) => {
                        assert_eq!(
                            report.outcome_fingerprint(),
                            base.outcome_fingerprint(),
                            "{ctx}: fingerprint diverged"
                        );
                        assert_eq!(report.schedule, base.schedule, "{ctx}: schedule diverged");
                    }
                }
            }
        }
    }
}

#[test]
fn waves_resolve_hot_cold_conflicts_ahead_of_the_lock_service() {
    // Conflicts the DAG orders up front never reach the lock service as
    // grant-time waits. Individual runs race (an unscheduled run can get
    // lucky), so the comparison aggregates over a seed sweep; the
    // scheduler's own counters are asserted per run.
    let pool: Vec<EntityId> = (0..24).map(EntityId).collect();
    let width = workers().max(4);
    let mut off_waits = 0u64;
    let mut waves_waits = 0u64;
    for seed in 0..8u64 {
        let jobs = hot_cold_jobs(&pool, 40, 3, 4, 0.9, seed);
        let mut rt = Runtime::new(PolicyKind::TwoPhase, &PolicyConfig::flat(pool.clone()))
            .expect("2PL builds");
        let off = rt.run(&jobs, &conf(width, SchedMode::Off));
        verify(
            &off,
            jobs.len(),
            SchedMode::Off,
            &format!("off / seed {seed}"),
        );

        let mut rt = Runtime::new(PolicyKind::TwoPhase, &PolicyConfig::flat(pool.clone()))
            .expect("2PL builds");
        let waves = rt.run(&jobs, &conf(width, SchedMode::Waves));
        let ctx = format!("waves / seed {seed}");
        verify(&waves, jobs.len(), SchedMode::Waves, &ctx);
        assert!(
            waves.sched_parks_avoided > 0,
            "{ctx}: hot/cold contention must produce conflict edges"
        );
        off_waits += off.lock_waits;
        waves_waits += waves.lock_waits;
    }
    assert!(
        off_waits > 0,
        "hot/cold at width {width} produced no lock waits unscheduled — \
         the workload no longer contends and this comparison is vacuous"
    );
    assert!(
        waves_waits < off_waits,
        "wave scheduling must strictly reduce grant-time lock waits \
         (waves {waves_waits} vs unscheduled {off_waits})"
    );
}
