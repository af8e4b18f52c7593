//! Trace-replay conformance: every trace the concurrent runtime emits is
//! replayed through `slp-core` and checked against the formal model.
//!
//! * **Safe sweep** — every safe [`PolicyKind`] × 50+ seeded workloads
//!   (uniform, long/short, hot/cold contention, DAG traversals, deep-layer
//!   dominator traversals, insert mixes): each captured trace must be
//!   legal, proper for the run's initial structural state, and
//!   serializable, with no lost jobs and a quiescent lock table.
//! * **Fast-path sweep** — the sharded grant fast path
//!   ([`RuntimeConfig::grant_fast_path`]) on and off × 1/2/4/8 workers
//!   for the per-entity-scope policy, same verdicts required, plus the
//!   grant-accounting identity `grants == fast + slow`.
//! * **Negative controls** — the three mutant kinds run under the same
//!   runtime (the DDAG mutants driven by the probe planners that exercise
//!   their ablated rule) and the checker must catch at least one
//!   **non**serializable trace per mutant across the seed sweep — proving
//!   the capture → replay → verdict pipeline can actually see unsafety.
//!
//! The worker count honors `SLP_RUNTIME_THREADS` (CI matrix convention).

use slp_core::{is_serializable, EntityId};
use slp_policies::{Job, PolicyConfig, PolicyKind};
use slp_runtime::{CrawlProbePlanner, Runtime, RuntimeConfig, ShoulderProbePlanner};
use slp_sim::{
    dag_access_jobs, dag_mixed_jobs, deep_dag_jobs, hot_cold_jobs, layered_dag, long_short_jobs,
    uniform_jobs,
};
use std::sync::Arc;

fn workers() -> usize {
    RuntimeConfig::workers_from_env(4)
}

fn conf() -> RuntimeConfig {
    RuntimeConfig {
        workers: workers(),
        ..Default::default()
    }
}

/// Config for the mutant sweeps: a nonserializable interleaving requires
/// *actual* concurrency, so the width never drops below 4 even when
/// `SLP_RUNTIME_THREADS` pins the safe sweeps to 1 (at width 1 every run
/// is serial and trivially serializable — the negative control would be
/// vacuous, not failed).
fn mutant_conf() -> RuntimeConfig {
    RuntimeConfig {
        workers: workers().max(4),
        ..Default::default()
    }
}

/// Runs jobs through a fresh runtime and applies the full replay check.
/// Returns the number of committed jobs.
fn run_and_verify_safe(kind: PolicyKind, config: &PolicyConfig, jobs: &[Job], ctx: &str) {
    let mut rt = Runtime::new(kind, config).expect("buildable kind");
    let report = rt.run(jobs, &conf());
    assert!(!report.timed_out, "{ctx}: timed out");
    assert!(
        report.accounting_balances(),
        "{ctx}: attempts don't balance"
    );
    assert_eq!(report.rejected, 0, "{ctx}: well-formed jobs rejected");
    assert_eq!(report.committed, jobs.len(), "{ctx}: lost jobs");
    assert!(report.lock_table_quiescent(), "{ctx}: locks leaked");
    assert!(report.schedule.is_legal(), "{ctx}: illegal trace");
    assert!(
        report.schedule.is_proper(&report.initial),
        "{ctx}: improper trace"
    );
    assert!(
        is_serializable(&report.schedule),
        "{ctx}: NONSERIALIZABLE trace from a safe policy"
    );
}

#[test]
fn flat_pool_policies_emit_serializable_traces_across_the_seed_sweep() {
    // 3 workload shapes × 17 seeds = 51 workloads per flat-pool kind.
    let pool: Vec<EntityId> = (0..24).map(EntityId).collect();
    for kind in [
        PolicyKind::TwoPhase,
        PolicyKind::Altruistic,
        PolicyKind::Dtr,
    ] {
        for seed in 0..17u64 {
            let workloads: [(&str, Vec<Job>); 3] = [
                ("uniform", uniform_jobs(&pool, 24, 3, seed)),
                ("long-short", long_short_jobs(&pool, 12, 14, 2, seed)),
                ("hot-cold", hot_cold_jobs(&pool, 30, 3, 4, 0.8, seed)),
            ];
            for (name, jobs) in workloads {
                let ctx = format!("{} / {name} / seed {seed}", kind.name());
                run_and_verify_safe(kind, &PolicyConfig::flat(pool.clone()), &jobs, &ctx);
            }
        }
    }
}

#[test]
fn fast_path_on_and_off_conform_at_every_width() {
    // The sharded grant fast path must be invisible to the formal model:
    // 2PL (the per-entity-scope engine) swept with the word table on and
    // off at widths 1/2/4/8 (or the env-pinned width), every trace still
    // legal + proper + serializable, and the grant accounting split
    // exactly between the two paths.
    let pool: Vec<EntityId> = (0..24).map(EntityId).collect();
    let widths = match RuntimeConfig::env_workers() {
        Some(w) => vec![w],
        None => vec![1, 2, 4, 8],
    };
    for fast in [true, false] {
        for &width in &widths {
            for seed in 0..5u64 {
                let workloads: [(&str, Vec<Job>); 2] = [
                    ("uniform", uniform_jobs(&pool, 24, 3, seed)),
                    ("hot-cold", hot_cold_jobs(&pool, 30, 3, 4, 0.8, seed)),
                ];
                for (name, jobs) in workloads {
                    let ctx = format!("2PL / fast {fast} / width {width} / {name} / seed {seed}");
                    let mut rt =
                        Runtime::new(PolicyKind::TwoPhase, &PolicyConfig::flat(pool.clone()))
                            .expect("2PL builds");
                    let config = RuntimeConfig {
                        workers: width,
                        grant_fast_path: fast,
                        ..Default::default()
                    };
                    let report = rt.run(&jobs, &config);
                    assert!(!report.timed_out, "{ctx}: timed out");
                    assert!(report.accounting_balances(), "{ctx}: unbalanced");
                    assert_eq!(report.committed, jobs.len(), "{ctx}: lost jobs");
                    assert!(report.lock_table_quiescent(), "{ctx}: locks leaked");
                    assert!(report.schedule.is_legal(), "{ctx}: illegal trace");
                    assert!(
                        report.schedule.is_proper(&report.initial),
                        "{ctx}: improper trace"
                    );
                    assert!(
                        is_serializable(&report.schedule),
                        "{ctx}: NONSERIALIZABLE trace"
                    );
                    assert_eq!(
                        report.grants,
                        report.fast_path_grants + report.slow_path_grants,
                        "{ctx}: grant split doesn't sum"
                    );
                    if fast {
                        assert!(report.fast_path_grants > 0, "{ctx}: fast path inert");
                    } else {
                        assert_eq!(report.fast_path_grants, 0, "{ctx}: fast grants when off");
                        assert_eq!(report.fast_path_fallbacks, 0, "{ctx}");
                    }
                }
            }
        }
    }
}

#[test]
fn ddag_emits_serializable_traces_across_the_seed_sweep() {
    // 3 workload shapes × 17 seeds = 51 workloads for the DDAG policy,
    // including the insert mix (the *dynamic* part: the graph grows while
    // traversals run, and invalidated plans abort + replan as in Fig. 3).
    for seed in 0..17u64 {
        let dag = layered_dag(4, 3, 2, seed);
        let config = PolicyConfig::dag(dag.universe.clone(), dag.graph.clone());

        let ctx = format!("DDAG / traversals / seed {seed}");
        run_and_verify_safe(
            PolicyKind::Ddag,
            &config,
            &dag_access_jobs(&dag, 16, 2, seed),
            &ctx,
        );

        let deep = layered_dag(5, 3, 2, seed);
        let deep_config = PolicyConfig::dag(deep.universe.clone(), deep.graph.clone());
        let ctx = format!("DDAG / deep / seed {seed}");
        run_and_verify_safe(
            PolicyKind::Ddag,
            &deep_config,
            &deep_dag_jobs(&deep, 18, 2, seed),
            &ctx,
        );

        // Insert mix: fresh nodes interned through the engine before the
        // run, inserted concurrently with traversals during it.
        let mut rt = Runtime::new(PolicyKind::Ddag, &config).expect("DDAG builds");
        let mut fresh = Vec::new();
        let jobs = {
            let mut intern = |name: &str| {
                let id = rt.intern(name).expect("DDAG interns");
                fresh.push(id);
                id
            };
            dag_mixed_jobs(&dag, 16, 2, 0.3, &mut intern, seed)
        };
        let report = rt.run(&jobs, &conf());
        let ctx = format!("DDAG / insert-mix / seed {seed}");
        assert!(!report.timed_out, "{ctx}: timed out");
        assert!(
            report.accounting_balances(),
            "{ctx}: attempts don't balance"
        );
        assert_eq!(report.rejected, 0, "{ctx}: well-formed jobs rejected");
        assert_eq!(report.committed, jobs.len(), "{ctx}: lost jobs");
        assert!(report.lock_table_quiescent(), "{ctx}: locks leaked");
        assert!(report.schedule.is_legal(), "{ctx}: illegal trace");
        assert!(
            report.schedule.is_proper(&report.initial),
            "{ctx}: improper trace"
        );
        assert!(
            is_serializable(&report.schedule),
            "{ctx}: NONSERIALIZABLE trace from safe DDAG"
        );
    }
}

// ---------------------------------------------------------------------
// Negative controls: the checker must flag real runtime unsafety.
// ---------------------------------------------------------------------

/// Sweeps seeds (each retried a few times — the unsafe interleaving is a
/// genuine race, and a fresh run rolls fresh thread timings) until the
/// runtime + checker produce a nonserializable trace, panicking if the
/// whole budget stays clean. Every swept trace must still be legal and
/// proper: the mutants only lose serializability. Measured catch rates
/// per seed (release, single-CPU host, the hardest setting): ~0.9 for the
/// AL2 mutant, ~1.0 for the L5b mutant, ~0.5 for the L5a mutant — across
/// 60+ seeds × 3 runs the sweep failing spuriously is vanishingly
/// unlikely, and debug builds (the tier-1 gate) interleave far more.
const RUNS_PER_SEED: usize = 3;

fn sweep_for_nonserializable(
    mutant: PolicyKind,
    seeds: std::ops::Range<u64>,
    mut run_one: impl FnMut(u64) -> slp_runtime::RuntimeReport,
) {
    let mut caught = 0usize;
    let total = seeds.end - seeds.start;
    'seeds: for seed in seeds {
        for _ in 0..RUNS_PER_SEED {
            let report = run_one(seed);
            assert!(
                report.schedule.is_legal(),
                "{} / seed {seed}: the engine's lock table must keep every trace legal",
                mutant.name()
            );
            assert!(
                report.schedule.is_proper(&report.initial),
                "{} / seed {seed}: improper trace",
                mutant.name()
            );
            if !is_serializable(&report.schedule) {
                caught += 1;
                break 'seeds; // one caught trace proves the pipeline
            }
        }
    }
    assert!(
        caught >= 1,
        "{}: checker caught no nonserializable trace in {total} seeds × \
         {RUNS_PER_SEED} runs — either the mutant workload no longer \
         exercises the ablated rule or the replay pipeline lost its teeth",
        mutant.name()
    );
}

#[test]
fn mutant_altruistic_no_wake_yields_a_caught_nonserializable_trace() {
    // Long/short under eager donation: shorts run in the long scan's wake;
    // without AL2 a short can escape the wake, commit an entity ahead of
    // the scan, and close a cycle when the scan reaches it.
    let pool: Vec<EntityId> = (0..16).map(EntityId).collect();
    sweep_for_nonserializable(PolicyKind::AltruisticNoWake, 0..80, |seed| {
        let mut rt = Runtime::new(
            PolicyKind::AltruisticNoWake,
            &PolicyConfig::flat(pool.clone()),
        )
        .expect("mutant builds");
        rt.run(&long_short_jobs(&pool, 10, 10, 2, seed), &mutant_conf())
    });
}

#[test]
fn mutant_ddag_no_held_pred_yields_a_caught_nonserializable_trace() {
    // Lock-use-release crawls (L5a-conforming, L5b-violating) at mixed
    // speeds: short crawls overtake long ones mid-region, inverting the
    // conflict order between two shared nodes.
    sweep_for_nonserializable(PolicyKind::DdagNoHeldPredecessor, 0..80, |seed| {
        let dag = layered_dag(4, 3, 2, seed);
        let config = PolicyConfig::dag(dag.universe.clone(), dag.graph.clone());
        let mut rt =
            Runtime::new(PolicyKind::DdagNoHeldPredecessor, &config).expect("mutant builds");
        rt.set_planner_factory(Arc::new(|_| Box::new(CrawlProbePlanner::default())));
        let mut jobs = deep_dag_jobs(&dag, 8, 2, seed);
        jobs.extend(deep_dag_jobs(&dag, 8, 1, seed.wrapping_add(7)));
        rt.run(&jobs, &mutant_conf())
    });
}

#[test]
fn mutant_ddag_no_all_preds_yields_a_caught_nonserializable_trace() {
    // Opposite shoulder crawls through a deep, wide DAG: paths to
    // different deep targets cross at multi-parent mid-layer nodes in
    // either order (everyone shares the root early), and whoever closes
    // the crossing second closes the cycle the safe policy's L5a would
    // have refused. This is the hardest race of the three — a cycle
    // needs two path crossings to invert — so it gets the deepest DAG,
    // the most jobs, and the widest worker pool (see the catch-rate note
    // on the sweep helper).
    sweep_for_nonserializable(PolicyKind::DdagNoAllPredecessors, 0..60, |seed| {
        let dag = layered_dag(5, 4, 2, seed);
        let config = PolicyConfig::dag(dag.universe.clone(), dag.graph.clone());
        let mut rt =
            Runtime::new(PolicyKind::DdagNoAllPredecessors, &config).expect("mutant builds");
        rt.set_planner_factory(Arc::new(|w| Box::new(ShoulderProbePlanner::new(w))));
        let mut conf = mutant_conf();
        conf.workers = conf.workers.max(8);
        rt.run(&deep_dag_jobs(&dag, 20, 1, seed), &conf)
    });
}
