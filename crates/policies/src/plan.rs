//! Plans: what a transaction wants ([`Job`]) and how it locks for it
//! ([`ActionPlanner`]).
//!
//! A policy is two things: the rules an engine checks and the plan a
//! transaction follows. The engines hold the rules; this module holds
//! the plans, one planner per safe policy, and every executor (the
//! `slp-sim` simulator and the `slp-runtime` service) drives a job the
//! same way — plan it against the engine's current state, `begin` it with
//! the planner's declared [`AccessIntent`], then request the plan's
//! actions in order.
//!
//! The planner split is what distinguishes policies that share an engine:
//! strict 2PL and altruistic locking both run on a plain lock manager, but
//! the [`TwoPhasePlanner`] holds every lock to the end while the
//! [`AltruisticPlanner`] donates each target as soon as the next lock is
//! acquired. The [`DdagPlanner`] lays dominator-closed traversal regions
//! over the engine's *current* graph (so concurrent structural changes
//! surface later as policy violations — abort + replan, as in Fig. 3),
//! reading the common dominator and the lock order from the dominator
//! index the engine maintains ([`PolicyEngine::dom_index`]) rather than
//! deriving them from the graph per job, and the [`DtrPlanner`] defers
//! entirely to the engine, which precomputes tree-locked plans per rule
//! DT2.
//!
//! ```
//! use slp_core::EntityId;
//! use slp_policies::{planner_for, Job, PolicyAction, PolicyConfig, PolicyKind, PolicyRegistry};
//!
//! let config = PolicyConfig::flat((0..4).map(EntityId).collect());
//! let engine = PolicyRegistry::new().build(PolicyKind::TwoPhase, &config).unwrap();
//! let plan = planner_for(PolicyKind::TwoPhase)
//!     .plan(engine.as_ref(), &Job::access(vec![EntityId(2)]))
//!     .unwrap();
//! assert_eq!(
//!     plan,
//!     Some(vec![PolicyAction::Lock(EntityId(2)), PolicyAction::Access(EntityId(2))])
//! );
//! ```

use crate::api::{AccessIntent, PlanViolation, PolicyAction, PolicyEngine, PolicyViolation};
use crate::registry::PolicyKind;
use slp_core::EntityId;
use slp_graph::{DiGraph, DomIndex, RegionScratch};

/// A unit of work for one transaction.
///
/// A job describes *what* a transaction wants (entities to `ACCESS`,
/// optionally a structural mutation); the policy's planner decides *how*
/// to lock for it. Using one job type for every policy keeps the E9
/// comparison apples-to-apples.
#[derive(Clone, PartialEq, Eq, Debug, Default)]
pub struct Job {
    /// Entities to `ACCESS` (read + write), in the given order.
    pub targets: Vec<EntityId>,
    /// Optional structural mutation (DDAG workloads): insert a fresh node
    /// under an existing parent, connected by a fresh edge.
    pub insert_under: Option<InsertUnder>,
    /// The job only *reads* its targets. A runtime with MVCC snapshot
    /// reads enabled serves such a job from a snapshot without touching
    /// the lock service at all; everywhere else it runs as an ordinary
    /// locked access (the read-path baseline).
    pub read_only: bool,
}

/// Insert `node` as a new child of `parent`.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub struct InsertUnder {
    /// The existing parent node.
    pub parent: EntityId,
    /// The fresh node to insert.
    pub node: EntityId,
}

impl Job {
    /// A job accessing the given targets.
    pub fn access(targets: Vec<EntityId>) -> Self {
        Job {
            targets,
            insert_under: None,
            read_only: false,
        }
    }

    /// A read-only job over the given targets (eligible for the MVCC
    /// snapshot read path).
    pub fn read(targets: Vec<EntityId>) -> Self {
        Job {
            targets,
            insert_under: None,
            read_only: true,
        }
    }

    /// A job inserting `node` under `parent` (and accessing nothing else).
    pub fn insert(parent: EntityId, node: EntityId) -> Self {
        Job {
            targets: Vec::new(),
            insert_under: Some(InsertUnder { parent, node }),
            read_only: false,
        }
    }

    /// Total number of data touches the job performs.
    pub fn size(&self) -> usize {
        self.targets.len() + usize::from(self.insert_under.is_some())
    }
}

/// Translates [`Job`]s into [`PolicyAction`] plans for one policy.
///
/// A planner may lay the plan itself (against the engine's current shared
/// state) or return `Ok(None)` to defer to the engine's own plan from
/// [`PolicyEngine::begin`] (plan-precomputing policies, rule DT2).
pub trait ActionPlanner {
    /// The access set `job` declares at `begin` (plan-precomputing
    /// policies require it; on-demand policies ignore it).
    fn intent(&self, job: &Job) -> AccessIntent;

    /// Plans the actions realizing `job`, or `Ok(None)` to use the
    /// engine's own precomputed plan.
    ///
    /// The engine is borrowed shared: planners only *read* engine state
    /// (the DDAG planner lays regions over [`PolicyEngine::graph`] and
    /// [`PolicyEngine::dom_index`]), which
    /// lets the threaded runtime plan under a read lock while other
    /// workers' grant decisions proceed.
    fn plan(
        &mut self,
        engine: &dyn PolicyEngine,
        job: &Job,
    ) -> Result<Option<Vec<PolicyAction>>, PolicyViolation>;
}

/// The planner matching a [`PolicyKind`] (mutants share their base
/// policy's planner — the ablated *engine* is what differs).
pub fn planner_for(kind: PolicyKind) -> Box<dyn ActionPlanner> {
    match kind.base() {
        PolicyKind::TwoPhase => Box::new(TwoPhasePlanner),
        PolicyKind::Altruistic => Box::new(AltruisticPlanner),
        PolicyKind::Ddag => Box::new(DdagPlanner::default()),
        PolicyKind::Dtr => Box::new(DtrPlanner),
        mutant => unreachable!("PolicyKind::base returns safe kinds, got {mutant}"),
    }
}

// ---------------------------------------------------------------------
// Flat-pool planners: 2PL, altruistic and DTR
// ---------------------------------------------------------------------

/// The targets of a job a flat-pool planner can carry out, or why it
/// cannot: a structural insert is outside the policy's vocabulary and a
/// job with no targets does no work. Both are fatal, so an executor
/// rejects the job instead of committing it as a zero-step success.
fn flat_targets<'j>(
    engine: &dyn PolicyEngine,
    job: &'j Job,
) -> Result<&'j [EntityId], PolicyViolation> {
    if let Some(ins) = job.insert_under {
        return Err(PolicyViolation::Unsupported {
            policy: engine.name(),
            action: PolicyAction::InsertNode(ins.node),
        });
    }
    if job.targets.is_empty() {
        return Err(PlanViolation::EmptyJob.into());
    }
    Ok(&job.targets)
}

/// Strict 2PL: lock each target on demand in job order, access it, release
/// everything only at commit (the executor's implicit `finish`).
pub struct TwoPhasePlanner;

impl ActionPlanner for TwoPhasePlanner {
    fn intent(&self, _job: &Job) -> AccessIntent {
        AccessIntent::empty()
    }

    fn plan(
        &mut self,
        engine: &dyn PolicyEngine,
        job: &Job,
    ) -> Result<Option<Vec<PolicyAction>>, PolicyViolation> {
        let targets = flat_targets(engine, job)?;
        let mut plan = Vec::with_capacity(targets.len() * 2);
        for &t in targets {
            plan.push(PolicyAction::Lock(t));
            plan.push(PolicyAction::Access(t));
        }
        Ok(Some(plan))
    }
}

/// Altruistic locking with eager donation: target `i` is donated as soon
/// as target `i + 1`'s lock is acquired, so short transactions can run in
/// the long transaction's wake.
pub struct AltruisticPlanner;

impl ActionPlanner for AltruisticPlanner {
    fn intent(&self, _job: &Job) -> AccessIntent {
        AccessIntent::empty()
    }

    fn plan(
        &mut self,
        engine: &dyn PolicyEngine,
        job: &Job,
    ) -> Result<Option<Vec<PolicyAction>>, PolicyViolation> {
        let targets = flat_targets(engine, job)?;
        let mut plan = Vec::new();
        for (i, &t) in targets.iter().enumerate() {
            plan.push(PolicyAction::Lock(t));
            if i == targets.len() - 1 {
                plan.push(PolicyAction::LockedPoint);
            }
            if i > 0 {
                // Donate the previous target now that the next lock is held.
                plan.push(PolicyAction::Unlock(targets[i - 1]));
            }
            plan.push(PolicyAction::Access(t));
        }
        Ok(Some(plan))
    }
}

/// Dynamic tree policy: declares the access set and defers planning to the
/// engine, which joins/extends the forest and precomputes the tree-locked
/// plan (rule DT2).
pub struct DtrPlanner;

impl ActionPlanner for DtrPlanner {
    fn intent(&self, job: &Job) -> AccessIntent {
        AccessIntent::access(job.targets.iter().copied())
    }

    fn plan(
        &mut self,
        engine: &dyn PolicyEngine,
        job: &Job,
    ) -> Result<Option<Vec<PolicyAction>>, PolicyViolation> {
        flat_targets(engine, job)?;
        Ok(None)
    }
}

// ---------------------------------------------------------------------
// DDAG planner
// ---------------------------------------------------------------------

/// DDAG traversals and structural inserts over the engine's shared rooted
/// DAG.
///
/// The planner reads the root, the targets' common dominator and the lock
/// order from the engine's [`DomIndex`] and lays each region out in
/// buffers it keeps between jobs, so a plan costs time proportional to
/// the region it locks, not to the graph.
#[derive(Default)]
pub struct DdagPlanner {
    region: RegionScratch,
    /// Per region position `i`: the first node to unlock once `order[i]`
    /// is locked, and the node to unlock after that one.
    release_head: Vec<u32>,
    release_next: Vec<u32>,
    is_target: Vec<bool>,
}

/// End of a release list.
const NIL: u32 = u32::MAX;

impl DdagPlanner {
    /// Plans a traversal: the dominator-closed region covering `targets`,
    /// locked in topological order with crawling release. Planned against
    /// the *current* graph — concurrent structural changes surface later
    /// as policy violations (abort + replan), as in Fig. 3.
    fn plan_traversal(
        &mut self,
        g: &DiGraph,
        index: &DomIndex,
        targets: &[EntityId],
    ) -> Result<Vec<PolicyAction>, PolicyViolation> {
        let (&first, rest) = targets.split_first().ok_or(PlanViolation::EmptyJob)?;
        index.root().map_err(|_| PlanViolation::NotRooted)?;
        if let Some(&t) = targets.iter().find(|&&t| !g.has_node(t)) {
            return Err(PlanViolation::TargetMissing(t).into());
        }
        if !index.is_acyclic() {
            return Err(PlanViolation::CyclicGraph.into());
        }
        // Start at the lowest common dominator (Lemma 3: the first node
        // locked dominates everything locked).
        let start = rest.iter().fold(first, |d, &t| {
            index
                .lowest_common_dominator(d, t)
                .expect("the root of a rooted graph dominates every node")
        });
        let DdagPlanner {
            region,
            release_head,
            release_next,
            is_target,
        } = self;
        index.predecessor_region(g, targets, Some(start), region);
        let order = region.order();
        // Release point of n: after the last region-successor of n is
        // locked (so L5's "presently holding a predecessor" always holds).
        // Visiting n from last to first and pushing at the front leaves
        // each list in lock order.
        release_head.clear();
        release_head.resize(order.len(), NIL);
        release_next.clear();
        release_next.resize(order.len(), NIL);
        for (i, &n) in order.iter().enumerate().rev() {
            let last_succ = g.successors(n).filter_map(|s| region.position(s)).max();
            let at = last_succ.unwrap_or(i);
            release_next[i] = release_head[at];
            release_head[at] = i as u32;
        }
        is_target.clear();
        is_target.resize(order.len(), false);
        for &t in targets {
            is_target[region.position(t).expect("targets seed the region")] = true;
        }
        let mut plan = Vec::with_capacity(2 * order.len() + targets.len());
        for (i, &n) in order.iter().enumerate() {
            plan.push(PolicyAction::Lock(n));
            if is_target[i] {
                plan.push(PolicyAction::Access(n));
            }
            let mut release = release_head[i];
            while release != NIL {
                plan.push(PolicyAction::Unlock(order[release as usize]));
                release = release_next[release as usize];
            }
        }
        Ok(plan)
    }
}

impl ActionPlanner for DdagPlanner {
    fn intent(&self, _job: &Job) -> AccessIntent {
        AccessIntent::empty()
    }

    fn plan(
        &mut self,
        engine: &dyn PolicyEngine,
        job: &Job,
    ) -> Result<Option<Vec<PolicyAction>>, PolicyViolation> {
        if let Some(ins) = job.insert_under {
            // Insert a fresh node under an existing parent: lock both (the
            // fresh node per L2), mutate, release.
            return Ok(Some(vec![
                PolicyAction::Lock(ins.parent),
                PolicyAction::Lock(ins.node),
                PolicyAction::InsertNode(ins.node),
                PolicyAction::InsertEdge(ins.parent, ins.node),
                PolicyAction::Unlock(ins.parent),
                PolicyAction::Unlock(ins.node),
            ]));
        }
        let (g, index) = engine
            .graph()
            .zip(engine.dom_index())
            .ok_or(PlanViolation::NoGraph)?;
        self.plan_traversal(g, index, &job.targets).map(Some)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::registry::{PolicyConfig, PolicyRegistry};
    use slp_core::{StructuralState, Universe};

    fn e(i: u32) -> EntityId {
        EntityId(i)
    }

    fn flat_engine(kind: PolicyKind) -> Box<dyn PolicyEngine> {
        let pool = (0..4).map(EntityId).collect();
        PolicyRegistry::new()
            .build(kind, &PolicyConfig::flat(pool))
            .expect("flat kinds build")
    }

    #[test]
    fn job_constructors() {
        let j = Job::access(vec![e(1), e(2)]);
        assert_eq!(j.size(), 2);
        assert!(j.insert_under.is_none());
        assert!(!j.read_only);
        let j = Job::insert(e(1), e(9));
        assert_eq!(j.size(), 1);
        assert_eq!(j.insert_under.unwrap().parent, e(1));
        let j = Job::read(vec![e(3)]);
        assert!(j.read_only);
        assert_eq!(j.size(), 1);
    }

    /// The three flat-pool planners refuse, fatally, a job they cannot
    /// carry out — a structural insert, or nothing at all — instead of
    /// letting it commit as a zero-step success.
    #[test]
    fn flat_pool_planners_reject_jobs_they_cannot_carry_out() {
        for kind in [
            PolicyKind::TwoPhase,
            PolicyKind::Altruistic,
            PolicyKind::Dtr,
        ] {
            let engine = flat_engine(kind);
            let mut planner = planner_for(kind);
            let err = planner
                .plan(engine.as_ref(), &Job::access(vec![]))
                .unwrap_err();
            assert_eq!(err, PolicyViolation::Plan(PlanViolation::EmptyJob));
            assert!(err.is_fatal());
            let err = planner
                .plan(engine.as_ref(), &Job::insert(e(0), e(9)))
                .unwrap_err();
            assert_eq!(
                err,
                PolicyViolation::Unsupported {
                    policy: kind.name(),
                    action: PolicyAction::InsertNode(e(9)),
                }
            );
            assert!(err.is_fatal());
        }
    }

    #[test]
    fn flat_pool_plans_follow_the_job_order() {
        use PolicyAction::*;
        let engine = flat_engine(PolicyKind::Altruistic);
        let job = Job::access(vec![e(2), e(0)]);
        let altruistic = AltruisticPlanner.plan(engine.as_ref(), &job).unwrap();
        assert_eq!(
            altruistic,
            Some(vec![
                Lock(e(2)),
                Access(e(2)),
                Lock(e(0)),
                LockedPoint,
                Unlock(e(2)),
                Access(e(0)),
            ]),
            "the last lock is the locked point; the first target is donated after it"
        );
        assert_eq!(DtrPlanner.plan(engine.as_ref(), &job).unwrap(), None);
        assert_eq!(DtrPlanner.intent(&job), AccessIntent::access([e(2), e(0)]));
    }

    /// The engine answers what exists: a flat kind its pool, the DDAG its
    /// nodes and edge entities.
    #[test]
    fn initial_state_prefers_the_engines_own_existence_tracking() {
        assert_eq!(
            flat_engine(PolicyKind::TwoPhase).structural_state(),
            StructuralState::from_entities((0..4).map(EntityId))
        );
        let mut u = Universe::new();
        let ids = u.entities(["r", "a"]);
        let mut g = DiGraph::new();
        g.add_node(ids[0]).unwrap();
        g.add_node(ids[1]).unwrap();
        g.add_edge(ids[0], ids[1]).unwrap();
        let ddag = PolicyRegistry::new()
            .build(PolicyKind::Ddag, &PolicyConfig::dag(u, g))
            .unwrap();
        let state = ddag.structural_state();
        assert!(state.contains(ids[0]) && state.contains(ids[1]));
        assert!(state.len() > 2, "the edge entity exists too");
    }
}
