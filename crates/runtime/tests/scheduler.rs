//! Batch-scheduler conformance: the admission-stage conflict-DAG
//! scheduler must be invisible to the formal model and visible in the
//! contention counters.
//!
//! * **Mode sweep** — safe policies × the shared flat-pool and DDAG
//!   workload tables × `off | waves | deterministic` × 1/2/4/8 workers,
//!   each run held to `common::check_run`, which derives the wave
//!   accounting from the mode (`wave_widths` sums to the job count, zero
//!   waves with the scheduler off).
//! * **Deterministic pin** — [`SchedMode::Deterministic`] must produce a
//!   byte-identical merged [`slp_core::Schedule`] and outcome
//!   fingerprint across worker counts *and* across repeated runs, on
//!   every row of both tables, for both a per-entity-scope engine (2PL,
//!   concurrent waves) and a global-scope engine (DDAG, serial waves).
//! * **Park avoidance** — on hot/cold contention at 4 workers, `waves`
//!   mode must resolve declared conflicts up front: nonzero
//!   `sched_parks_avoided`, and strictly fewer grant-time lock waits
//!   than the unscheduled runtime accumulates over the same seeds.
//!
//! The widths are set in code (`common::WIDTHS`).

mod common;

use common::{ddag_workloads, flat_workloads, pool, FLAT_KINDS, WIDTHS};
use slp_policies::{PolicyConfig, PolicyKind};
use slp_runtime::{Runtime, RuntimeConfig, RuntimeReport, SchedMode};
use slp_sim::hot_cold_jobs;

/// The shared base config at `width` under scheduler mode `sched`;
/// `common::check_run` derives the wave checks from it.
fn conf(width: usize, sched: SchedMode) -> RuntimeConfig {
    RuntimeConfig {
        scheduler: sched,
        ..common::conf(width)
    }
}

#[test]
fn scheduled_runs_conform_across_policies_modes_and_widths() {
    // Both tables: the DDAG rows run under a global-scope engine, and the
    // insert mix's structural jobs must fence waves.
    for sched in [SchedMode::Off, SchedMode::Waves, SchedMode::Deterministic] {
        for width in WIDTHS {
            for seed in 0..3u64 {
                let ctx = format!("{sched:?} / width {width} / seed {seed}");
                for w in flat_workloads(seed) {
                    for kind in FLAT_KINDS {
                        w.run(kind, &conf(width, sched), &ctx);
                    }
                }
                for w in ddag_workloads(seed) {
                    w.run(PolicyKind::Ddag, &conf(width, sched), &ctx);
                }
            }
        }
    }
}

#[test]
fn deterministic_mode_is_byte_identical_across_widths_and_repeats() {
    // 2PL: per-entity scope, waves run concurrently — the hard case,
    // since real threads race within each wave. DDAG: global scope, waves
    // run serially — admission order IS the execution order, so the pin
    // must hold there too.
    for seed in 0..3u64 {
        let flat = flat_workloads(seed)
            .into_iter()
            .map(|w| (PolicyKind::TwoPhase, w));
        let ddag = ddag_workloads(seed)
            .into_iter()
            .map(|w| (PolicyKind::Ddag, w));
        for (kind, w) in flat.chain(ddag) {
            let mut baseline: Option<RuntimeReport> = None;
            for width in WIDTHS {
                for repeat in 0..2 {
                    let ctx = format!("det / width {width} / repeat {repeat} / seed {seed}");
                    let report = w.run(kind, &conf(width, SchedMode::Deterministic), &ctx);
                    let Some(base) = &baseline else {
                        baseline = Some(report);
                        continue;
                    };
                    assert_eq!(
                        report.outcome_fingerprint(),
                        base.outcome_fingerprint(),
                        "{} / {} / {ctx}: fingerprint diverged",
                        kind.name(),
                        w.name
                    );
                    assert_eq!(
                        report.schedule,
                        base.schedule,
                        "{} / {} / {ctx}: deterministic schedule diverged from the width-{} \
                         baseline",
                        kind.name(),
                        w.name,
                        base.workers
                    );
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
    let pool = pool(24);
    let width = 4;
    let mut off_waits = 0u64;
    let mut waves_waits = 0u64;
    for seed in 0..8u64 {
        let jobs = hot_cold_jobs(&pool, 40, 3, 4, 0.9, seed);
        let run = |sched: SchedMode| {
            let config = conf(width, sched);
            let mut rt = Runtime::new(PolicyKind::TwoPhase, &PolicyConfig::flat(pool.clone()))
                .expect("2PL builds");
            let report = rt.run(&jobs, &config);
            common::check_run(&config, &jobs, &report, &format!("{sched:?} / seed {seed}"));
            report
        };
        let off = run(SchedMode::Off);
        let waves = run(SchedMode::Waves);
        assert!(
            waves.sched_parks_avoided > 0,
            "waves / seed {seed}: hot/cold contention must produce conflict edges"
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
