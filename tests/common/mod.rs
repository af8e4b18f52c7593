//! The simulator suites' shared harness: one table-driven sweep —
//! kind × workload × multiprogramming level (MPL) — and one sim check,
//! [`run_row`], every emitted trace is held to: legal, proper, every job
//! committed and every attempt accounted for, and, for the safe
//! policies, serializable (Theorems 2–4). A row's extra outcome (a
//! deadlock-free or abort-free regime, real contention, a forced
//! deadlock) is a column of the table. The sweep's cells are split
//! between named tests by [`Slice::of`], so each cell runs once. Each
//! suite includes this module with `mod common;`.
//!
//! The simulator stays beside the runtime: E7, E9 and two `bench-report`
//! rows run on it, and its interleavings are not the runtime's.

#![allow(dead_code)]

use safe_locking::core::{is_serializable, EntityId};
use safe_locking::graph::dag::is_acyclic;
use safe_locking::policies::{Job, PolicyConfig, PolicyKind, PolicyRegistry};
use safe_locking::sim::{
    build_adapter, dag_access_jobs, dag_mixed_jobs, deep_dag_jobs, hot_cold_jobs, layered_dag,
    long_short_jobs, read_heavy_jobs, run_sim, uniform_jobs, LayeredDag, SimConfig, SimReport,
};

/// What a row must show beyond the sim check.
#[derive(Clone, Copy, PartialEq)]
pub enum Expect {
    Nothing,
    /// A static graph locked in topological order: plans are never
    /// invalidated and nothing can deadlock.
    NoAborts,
    /// Opposite lock orders: 2PL must deadlock, and resolve every one.
    Deadlocks,
    /// The large-contention regime (E9d): heavy lock traffic, a guard
    /// against the generator turning conflict-free.
    Contends,
}

/// One row of the sweep: a workload, the MPLs it runs at, and its column.
pub struct Row {
    pub name: &'static str,
    pub config: PolicyConfig,
    /// Names interned before the run, in order: the insert mix's fresh
    /// nodes.
    pub fresh: Vec<String>,
    pub jobs: Vec<Job>,
    pub mpls: &'static [usize],
    pub expect: Expect,
}

impl Row {
    /// A row outside the table: no MPLs of its own, so no column.
    pub fn new(name: &'static str, config: PolicyConfig, jobs: Vec<Job>) -> Row {
        Row {
            name,
            config,
            fresh: Vec::new(),
            jobs,
            mpls: &[],
            expect: Expect::Nothing,
        }
    }

    /// Rows over one engine config, from `(name, jobs, MPLs, column)`.
    fn table(
        config: &PolicyConfig,
        rows: Vec<(&'static str, Vec<Job>, &'static [usize], Expect)>,
    ) -> Vec<Row> {
        rows.into_iter()
            .map(|(name, jobs, mpls, expect)| Row {
                mpls,
                expect,
                ..Row::new(name, config.clone(), jobs)
            })
            .collect()
    }
}

pub fn dag_config(dag: &LayeredDag) -> PolicyConfig {
    PolicyConfig::dag(dag.universe.clone(), dag.graph.clone())
}

/// The seeded rows for `kind`: the flat-pool table for flat-pool kinds,
/// the DDAG table for the graph kinds. The large-contention rows, the
/// sweep's costliest, run at every third seed.
pub fn rows(kind: PolicyKind, seed: u64) -> Vec<Row> {
    use Expect::*;
    let mut rows = if kind.needs_graph() {
        let dag = layered_dag(5, 4, 2, seed);
        let (fresh, mixed) = insert_mix(&dag, 25, seed + 100);
        let mut rows = Row::table(
            &dag_config(&dag),
            vec![
                (
                    "traversals",
                    dag_access_jobs(&dag, 30, 2, seed),
                    &[1, 4],
                    NoAborts,
                ),
                (
                    "large-contention",
                    deep_dag_jobs(&dag, 50, 2, seed + 1),
                    &[8],
                    Nothing,
                ),
                ("insert-mix", mixed, &[5], Nothing),
            ],
        );
        rows[2].fresh = fresh;
        rows
    } else {
        let p: Vec<EntityId> = (0..24).map(EntityId).collect();
        let opposite = (0..10)
            .map(|i| {
                Job::access(if i % 2 == 0 {
                    vec![p[0], p[1], p[2]]
                } else {
                    vec![p[2], p[1], p[0]]
                })
            })
            .collect();
        Row::table(
            &PolicyConfig::flat(p.clone()),
            vec![
                (
                    "uniform",
                    uniform_jobs(&p, 30, 3, seed),
                    &[1, 3, 8],
                    Nothing,
                ),
                (
                    "long-short",
                    long_short_jobs(&p, 12, 20, 2, seed),
                    &[6],
                    Nothing,
                ),
                (
                    "large-contention",
                    hot_cold_jobs(&p, 80, 3, 4, 0.8, seed),
                    &[8],
                    Contends,
                ),
                // Single-target jobs, half of them read-only.
                (
                    "read-heavy",
                    read_heavy_jobs(&p, 30, 1, 4, 0.5, seed),
                    &[4],
                    Nothing,
                ),
                ("opposite-order", opposite, &[4], Deadlocks),
            ],
        )
    };
    rows.retain(|r| r.name != "large-contention" || seed.is_multiple_of(3));
    rows
}

/// The DDAG insert mix over `dag`: the fresh names it interns, in order,
/// and the jobs. The names take their ids from an engine like the one a
/// run builds (its universe also holds the edge entities), so a run that
/// interns the same names in the same order agrees on every id.
fn insert_mix(dag: &LayeredDag, count: usize, seed: u64) -> (Vec<String>, Vec<Job>) {
    let mut engine = PolicyRegistry::new()
        .build(PolicyKind::Ddag, &dag_config(dag))
        .expect("DDAG builds");
    let mut fresh = Vec::new();
    let jobs = dag_mixed_jobs(
        dag,
        count,
        2,
        0.3,
        &mut |name| {
            fresh.push(name.to_owned());
            engine.intern_entity(name).expect("DDAG interns")
        },
        seed,
    );
    (fresh, jobs)
}

/// Runs `row` under `kind` on the simulator and applies the sim check:
/// every job committed and every attempt accounted for, a legal trace
/// proper for the initial state, and — for a safe kind — serializable.
/// DTR never deadlocks, one worker never waits, a DDAG graph stays
/// acyclic through the churn, and the row's column holds.
pub fn run_row(kind: PolicyKind, row: &Row, config: &SimConfig, ctx: &str) -> SimReport {
    let mut adapter = build_adapter(&PolicyRegistry::new(), kind, &row.config).expect("buildable");
    for name in &row.fresh {
        adapter.intern(name).expect("policy interns fresh names");
    }
    let initial = adapter.initial_state();
    let report = run_sim(&mut adapter, &row.jobs, config);
    let ctx = format!(
        "{} / {} / MPL {} / {ctx}",
        kind.name(),
        row.name,
        config.workers
    );
    assert!(!report.timed_out, "{ctx}: timed out");
    assert_eq!(report.rejected, 0, "{ctx}: well-formed jobs rejected");
    assert_eq!(report.committed, row.jobs.len(), "{ctx}: lost jobs");
    assert_eq!(
        report.attempts,
        report.committed + report.policy_aborts + report.deadlock_aborts + report.rejected,
        "{ctx}: attempts don't balance"
    );
    assert!(report.schedule.is_legal(), "{ctx}: illegal trace");
    assert!(report.schedule.is_proper(&initial), "{ctx}: improper trace");
    if kind.is_safe() {
        assert!(
            is_serializable(&report.schedule),
            "{ctx}: NONSERIALIZABLE trace from a safe policy"
        );
    }
    if kind == PolicyKind::Dtr {
        assert_eq!(
            report.deadlock_aborts, 0,
            "{ctx}: tree locking cannot deadlock"
        );
    }
    if config.workers == 1 {
        assert_eq!(
            (report.lock_waits, report.deadlock_aborts),
            (0, 0),
            "{ctx}: MPL 1 waited"
        );
    }
    if let Some(graph) = adapter.engine().graph() {
        assert!(is_acyclic(graph), "{ctx}: the graph lost its DAG shape");
    }
    // A column holds at the row's own MPLs.
    match row.expect {
        _ if !row.mpls.contains(&config.workers) => {}
        Expect::Nothing => {}
        Expect::NoAborts => assert_eq!(
            (report.policy_aborts, report.deadlock_aborts),
            (0, 0),
            "{ctx}: a static graph in topological order aborted"
        ),
        Expect::Deadlocks if kind == PolicyKind::TwoPhase => {
            assert!(
                report.deadlock_aborts > 0,
                "{ctx}: opposite lock orders must deadlock"
            )
        }
        Expect::Deadlocks => {}
        Expect::Contends => assert!(
            report.lock_waits > 50,
            "{ctx}: expected heavy contention, saw {} waits",
            report.lock_waits
        ),
    }
    report
}

/// The named tests that split the sweep between them: each cell of the
/// table belongs to exactly one, by [`Slice::of`].
#[derive(Clone, Copy, PartialEq, Debug)]
pub enum Slice {
    /// Every MPL-1 cell: one worker never waits or deadlocks.
    SingleWorker,
    /// The large-contention rows (E9d).
    Contention,
    /// The opposite-order row: 2PL deadlocks, and resolves each one.
    Deadlocks,
    /// Safe DDAG over a static graph: no aborts at all.
    DdagTraversals,
    /// Safe DDAG while the insert mix grows the graph.
    DdagChurn,
    /// 2PL's remaining cells.
    TwoPhase,
    /// Altruistic locking's remaining cells: the long scans' wake churn.
    Altruistic,
    /// DTR's remaining cells, every one deadlock-free.
    Dtr,
    /// Everything else: the mutants' cells, held to legal and proper.
    Rest,
}

impl Slice {
    /// The slice that runs `kind` on the row named `row` at `mpl`.
    pub fn of(kind: PolicyKind, row: &str, mpl: usize) -> Slice {
        match (kind, row) {
            _ if mpl == 1 => Slice::SingleWorker,
            (_, "large-contention") => Slice::Contention,
            (_, "opposite-order") => Slice::Deadlocks,
            (PolicyKind::Ddag, "traversals") => Slice::DdagTraversals,
            (PolicyKind::Ddag, "insert-mix") => Slice::DdagChurn,
            (PolicyKind::TwoPhase, _) => Slice::TwoPhase,
            (PolicyKind::Altruistic, _) => Slice::Altruistic,
            (PolicyKind::Dtr, _) => Slice::Dtr,
            _ => Slice::Rest,
        }
    }
}

/// Runs the cells of the sweep — every registered kind × six seeds ×
/// its rows × each row's MPLs — that belong to `slice`, each through
/// [`run_row`].
pub fn sweep(slice: Slice) {
    let mut cells = 0;
    for &kind in PolicyRegistry::new().kinds() {
        for seed in 0..6u64 {
            for row in rows(kind, seed) {
                for &workers in row.mpls {
                    if Slice::of(kind, row.name, workers) != slice {
                        continue;
                    }
                    let config = SimConfig {
                        workers,
                        ..Default::default()
                    };
                    run_row(kind, &row, &config, &format!("seed {seed}"));
                    cells += 1;
                }
            }
        }
    }
    assert!(cells > 0, "{slice:?} holds no cell of the sweep");
}
