//! Differential test of the DDAG planner and the engine-owned dominator
//! index it plans from.
//!
//! The planner reads `DdagEngine`'s `DomIndex` (immediate dominators,
//! depths, topological ranks, root) instead of deriving dominator *sets*
//! from the whole graph for every job. The set-based derivation is kept
//! here, verbatim, as the oracle: on random layered DAGs under random
//! structural churn the planner must return the oracle's plan action for
//! action and its `PlanViolation` for `PlanViolation` — in every graph
//! state the churn passes through, including the unrooted window between
//! `InsertNode` and `InsertEdge` — and after every structural `request`
//! the engine's index must equal one built from scratch.

use proptest::prelude::*;
use safe_locking::core::{EntityId, TxId};
use safe_locking::graph::{dag, dominators, rooted, DiGraph, DomIndex};
use safe_locking::policies::ddag::DdagEngine;
use safe_locking::policies::{
    ActionPlanner, DdagPlanner, Job, PlanViolation, PolicyAction, PolicyEngine, PolicyViolation,
};
use safe_locking::sim::layered_dag;
use std::collections::{BTreeMap, BTreeSet};

/// The planner as it was before the index: root, dominator sets and a
/// global topological sort recomputed from the graph for every job.
fn oracle_plan(g: &DiGraph, targets: &[EntityId]) -> Result<Vec<PolicyAction>, PolicyViolation> {
    if targets.is_empty() {
        return Err(PlanViolation::EmptyJob.into());
    }
    let root = rooted::root(g).ok_or(PlanViolation::NotRooted)?;
    for &t in targets {
        if !g.has_node(t) {
            return Err(PlanViolation::TargetMissing(t).into());
        }
    }
    // Lowest common dominator: intersect dominator sets, take the one
    // dominated by all others in the intersection (the largest set). A
    // rooted graph reaches every target and its root dominates them all.
    let sets = dominators::dominator_sets(g, root);
    let mut common: BTreeSet<EntityId> = sets[&targets[0]].clone();
    for t in &targets[1..] {
        common = common.intersection(&sets[t]).copied().collect();
    }
    let start = common
        .iter()
        .copied()
        .max_by_key(|d| sets[d].len())
        .expect("the root is a common dominator");
    // Region: predecessor closure from the targets up to `start`.
    let mut region: BTreeSet<EntityId> = targets.iter().copied().collect();
    region.insert(start);
    let mut frontier: Vec<EntityId> = targets.iter().copied().filter(|&t| t != start).collect();
    while let Some(n) = frontier.pop() {
        for p in g.predecessors(n) {
            if p != start && region.insert(p) {
                frontier.push(p);
            }
        }
    }
    // Lock order: global topological order restricted to the region.
    let topo = dag::topological_sort(g).ok_or(PlanViolation::CyclicGraph)?;
    let order: Vec<EntityId> = topo.into_iter().filter(|n| region.contains(n)).collect();
    // Release point of n: after the last region-successor of n is locked.
    let idx: BTreeMap<EntityId, usize> = order.iter().enumerate().map(|(i, &n)| (n, i)).collect();
    let mut release_after: BTreeMap<usize, Vec<EntityId>> = BTreeMap::new();
    for &n in &order {
        let last_succ = g
            .successors(n)
            .filter(|s| region.contains(s))
            .filter_map(|s| idx.get(&s).copied())
            .max();
        let at = last_succ.unwrap_or(idx[&n]);
        release_after.entry(at).or_default().push(n);
    }
    let target_set: BTreeSet<EntityId> = targets.iter().copied().collect();
    let mut plan = Vec::new();
    for (i, &n) in order.iter().enumerate() {
        plan.push(PolicyAction::Lock(n));
        if target_set.contains(&n) {
            plan.push(PolicyAction::Access(n));
        }
        for &m in release_after.get(&i).into_iter().flatten() {
            plan.push(PolicyAction::Unlock(m));
        }
    }
    Ok(plan)
}

/// One step of churn: what to mutate (`kind`, `a`, `b` index into the
/// current nodes and edges) and the jobs to plan once it is done.
type ChurnOp = (u8, u32, u32, Vec<Vec<u32>>);

fn arb_churn() -> impl Strategy<Value = Vec<ChurnOp>> {
    let jobs = prop::collection::vec(prop::collection::vec(0u32..96, 1..5), 1..4);
    prop::collection::vec((0u8..8, any::<u32>(), any::<u32>(), jobs), 0..20)
}

/// The engine under test, the one transaction that mutates it, and the
/// one planner — kept across every graph state, as a runtime worker keeps
/// its planner, so stale scratch contents would show.
struct Churn {
    engine: DdagEngine,
    planner: DdagPlanner,
    fresh: u32,
}

const ADMIN: TxId = TxId(1);

impl Churn {
    fn nodes(&self) -> Vec<EntityId> {
        self.engine.graph().nodes().collect()
    }

    /// Issues one structural request, then holds the engine to the index
    /// invariant and the planner to the oracle.
    fn mutate(&mut self, action: PolicyAction, jobs: &[Vec<u32>]) {
        let before = self.engine.graph().clone();
        let granted = self.engine.request(ADMIN, action).is_granted();
        assert_eq!(granted, *self.engine.graph() != before, "{action}");
        self.check(jobs);
    }

    fn check(&mut self, jobs: &[Vec<u32>]) {
        let g = self.engine.graph();
        assert_eq!(self.engine.dom_index(), &DomIndex::build(g));
        let nodes = self.nodes();
        for draw in jobs {
            // Mostly current nodes (repeats included), now and then a raw
            // id that may be an edge entity, a deleted node or nothing.
            let targets: Vec<EntityId> = draw
                .iter()
                .map(|&d| match nodes.get(d as usize % (nodes.len() + 1)) {
                    Some(&n) => n,
                    None => EntityId(d),
                })
                .collect();
            let got = self.planner.plan(
                &self.engine as &dyn PolicyEngine,
                &Job::access(targets.clone()),
            );
            assert_eq!(
                got,
                oracle_plan(g, &targets).map(Some),
                "targets {targets:?}"
            );
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    #[test]
    fn planner_matches_the_set_based_oracle_under_churn(
        (layers, width, parents, seed) in (1usize..4, 1usize..4, 1usize..3, any::<u64>()),
        ops in arb_churn(),
    ) {
        let d = layered_dag(layers, width, parents, seed);
        let mut churn = Churn {
            engine: DdagEngine::new(d.universe.clone(), d.graph.clone()),
            planner: DdagPlanner::default(),
            fresh: 0,
        };
        // The admin transaction crawls the whole graph once (legal under
        // L5: every predecessor locked and held) and keeps everything, so
        // L1 lets it mutate anywhere.
        churn.engine.begin(ADMIN).unwrap();
        for n in dag::topological_sort(&d.graph).unwrap() {
            churn.engine.lock(ADMIN, n).unwrap();
        }
        churn.check(&[vec![], vec![0], vec![3, 1], vec![5, 2, 7, 2]]);
        for (kind, a, b, jobs) in &ops {
            let nodes = churn.nodes();
            let pick = |i: u32| nodes[i as usize % nodes.len()];
            match kind {
                // A fresh leaf: locked per L2, inserted (the graph now has
                // two roots), then connected.
                0..=2 => {
                    churn.fresh += 1;
                    let leaf = churn.engine.intern(&format!("fresh{}", churn.fresh));
                    churn.engine.lock(ADMIN, leaf).unwrap();
                    churn.mutate(PolicyAction::InsertNode(leaf), jobs);
                    churn.mutate(PolicyAction::InsertEdge(pick(*a), leaf), jobs);
                }
                // An edge between existing nodes; refused (and nothing
                // may move) when it exists or would close a cycle.
                3 | 4 => churn.mutate(PolicyAction::InsertEdge(pick(*a), pick(*b)), jobs),
                5 => {
                    let edges: Vec<_> = churn.engine.graph().edges().collect();
                    if let Some(&(x, y)) = edges.get(*a as usize % edges.len().max(1)) {
                        churn.mutate(PolicyAction::DeleteEdge(x, y), jobs);
                    }
                }
                // A node delete, preceded by its incident edges; the root
                // itself is fair game while another node remains.
                _ => {
                    let n = pick(*a);
                    if nodes.len() > 1 {
                        let g = churn.engine.graph();
                        let incident: Vec<_> = g
                            .predecessors(n)
                            .map(|p| (p, n))
                            .chain(g.successors(n).map(|s| (n, s)))
                            .collect();
                        for (x, y) in incident {
                            churn.mutate(PolicyAction::DeleteEdge(x, y), jobs);
                        }
                        churn.mutate(PolicyAction::DeleteNode(n), jobs);
                    }
                }
            }
            // Deletes strand nodes as extra roots. Half the time leave the
            // graph unrooted for the next step; otherwise hang every
            // stray root under the first, so rooted states keep coming.
            if b % 2 == 0 {
                let mut roots = rooted::roots(churn.engine.graph()).into_iter();
                let first = roots.next().expect("a DAG has a root");
                for stray in roots {
                    churn.mutate(PolicyAction::InsertEdge(first, stray), jobs);
                }
            }
        }
        let copy = churn.engine.clone();
        prop_assert_eq!(copy.dom_index(), &DomIndex::build(copy.graph()));
        prop_assert_eq!(copy.dom_index(), churn.engine.dom_index());
    }
}
