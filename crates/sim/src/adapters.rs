//! One generic adapter over every policy: [`EngineAdapter`] drives any
//! [`PolicyEngine`] from per-transaction action plans produced by a
//! per-policy [`ActionPlanner`].
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
//! Use [`build_adapter`] to construct the adapter for any
//! [`PolicyKind`] through a [`PolicyRegistry`]:
//!
//! ```
//! use slp_core::EntityId;
//! use slp_policies::{PolicyConfig, PolicyKind, PolicyRegistry};
//! use slp_sim::{build_adapter, run_sim, uniform_jobs, SimConfig};
//!
//! let registry = PolicyRegistry::new();
//! let pool: Vec<EntityId> = (0..8).map(EntityId).collect();
//! let jobs = uniform_jobs(&pool, 10, 2, 7);
//! let mut adapter =
//!     build_adapter(&registry, PolicyKind::TwoPhase, &PolicyConfig::flat(pool)).unwrap();
//! let report = run_sim(&mut adapter, &jobs, &SimConfig::default());
//! assert_eq!(report.committed, 10);
//! ```

use crate::adapter::{Advance, PolicyAdapter};
use crate::job::Job;
use rustc_hash::FxHashMap;
use slp_core::{EntityId, Step, StructuralState, TxId};
use slp_graph::{DiGraph, DomIndex, RegionScratch};
use slp_policies::{
    AccessIntent, PlanViolation, PolicyAction, PolicyConfig, PolicyEngine, PolicyKind,
    PolicyRegistry, PolicyResponse, PolicyViolation, RegistryError,
};

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

// ---------------------------------------------------------------------
// Flat-pool planners: 2PL and altruistic
// ---------------------------------------------------------------------

/// Strict 2PL: lock each target on demand in job order, access it, release
/// everything only at commit (the adapter's implicit `finish`).
pub struct TwoPhasePlanner;

impl ActionPlanner for TwoPhasePlanner {
    fn intent(&self, _job: &Job) -> AccessIntent {
        AccessIntent::empty()
    }

    fn plan(
        &mut self,
        _engine: &dyn PolicyEngine,
        job: &Job,
    ) -> Result<Option<Vec<PolicyAction>>, PolicyViolation> {
        let mut plan = Vec::with_capacity(job.targets.len() * 2);
        for &t in &job.targets {
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
        _engine: &dyn PolicyEngine,
        job: &Job,
    ) -> Result<Option<Vec<PolicyAction>>, PolicyViolation> {
        let mut plan = Vec::new();
        for (i, &t) in job.targets.iter().enumerate() {
            plan.push(PolicyAction::Lock(t));
            if i == job.targets.len() - 1 {
                plan.push(PolicyAction::LockedPoint);
            }
            if i > 0 {
                // Donate the previous target now that the next lock is held.
                plan.push(PolicyAction::Unlock(job.targets[i - 1]));
            }
            plan.push(PolicyAction::Access(t));
        }
        Ok(Some(plan))
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

// ---------------------------------------------------------------------
// DTR planner
// ---------------------------------------------------------------------

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
        _engine: &dyn PolicyEngine,
        _job: &Job,
    ) -> Result<Option<Vec<PolicyAction>>, PolicyViolation> {
        Ok(None)
    }
}

// ---------------------------------------------------------------------
// The generic adapter
// ---------------------------------------------------------------------

/// The one simulator adapter: any [`PolicyEngine`] plus the matching
/// [`ActionPlanner`], with per-transaction plan cursors.
pub struct EngineAdapter<P: PolicyEngine + 'static> {
    engine: P,
    planner: Box<dyn ActionPlanner>,
    plans: FxHashMap<TxId, (Vec<PolicyAction>, usize)>,
    pool: Vec<EntityId>,
}

/// The adapter shape the [`PolicyRegistry`] produces: a boxed engine
/// behind the generic adapter.
pub type PolicyInstance = EngineAdapter<Box<dyn PolicyEngine>>;

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

/// Builds the simulator adapter for `kind` through `registry`: the engine
/// from the registry, the matching planner, and the initial pool from
/// `config` (for the initial structural state of flat-pool policies).
pub fn build_adapter(
    registry: &PolicyRegistry,
    kind: PolicyKind,
    config: &PolicyConfig,
) -> Result<PolicyInstance, RegistryError> {
    let engine = registry.build(kind, config)?;
    Ok(EngineAdapter::new(
        engine,
        planner_for(kind),
        config.pool.clone(),
    ))
}

impl<P: PolicyEngine + 'static> EngineAdapter<P> {
    /// An adapter over `engine` driven by `planner`. `pool` is the set of
    /// initially existing entities for policies that do not track
    /// existence themselves (see [`EngineAdapter::initial_state`]).
    pub fn new(engine: P, planner: Box<dyn ActionPlanner>, pool: Vec<EntityId>) -> Self {
        EngineAdapter {
            engine,
            planner,
            plans: FxHashMap::default(),
            pool,
        }
    }

    /// The wrapped engine.
    pub fn engine(&self) -> &P {
        &self.engine
    }

    /// The wrapped engine, mutably (for policy-specific introspection).
    pub fn engine_mut(&mut self) -> &mut P {
        &mut self.engine
    }

    /// Interns a fresh entity name through the engine (DDAG insert
    /// workloads); `None` if the policy has no growing universe.
    pub fn intern(&mut self, name: &str) -> Option<EntityId> {
        self.engine.intern_entity(name)
    }

    /// The engine's shared graph, if it maintains one.
    pub fn graph(&self) -> Option<&DiGraph> {
        self.engine.graph()
    }

    /// The initial structural state for properness checks: the engine's
    /// own existence tracking when present (DDAG: nodes + edge entities),
    /// else the flat pool. Capture *before* running jobs.
    pub fn initial_state(&self) -> StructuralState {
        match self.engine.structural_entities() {
            Some(entities) => StructuralState::from_entities(entities),
            None => StructuralState::from_entities(self.pool.iter().copied()),
        }
    }
}

impl<P: PolicyEngine + 'static> PolicyAdapter for EngineAdapter<P> {
    fn name(&self) -> &'static str {
        self.engine.name()
    }

    fn begin(&mut self, tx: TxId, job: &Job) -> Result<(), PolicyViolation> {
        // Plan first: a malformed job must not leave begun-but-planless
        // transaction state in the engine.
        let planned = self.planner.plan(&self.engine, job)?;
        let intent = self.planner.intent(job);
        let engine_plan = self.engine.begin(tx, &intent)?;
        let plan = match planned.or(engine_plan) {
            Some(plan) => plan,
            None => {
                // Misconfigured pairing (neither planner nor engine
                // produced a plan): retire the just-begun transaction so
                // the engine holds no planless state.
                self.engine.abort(tx);
                return Err(PolicyViolation::NoPlan(tx));
            }
        };
        self.plans.insert(tx, (plan, 0));
        Ok(())
    }

    fn advance(&mut self, tx: TxId) -> Advance {
        let Some((plan, cursor)) = self.plans.get_mut(&tx) else {
            return Advance::Violation(PolicyViolation::NoPlan(tx));
        };
        let Some(&action) = plan.get(*cursor) else {
            self.plans.remove(&tx);
            return match self.engine.finish(tx) {
                Ok(steps) => Advance::Done(steps),
                Err(v) => Advance::Violation(v),
            };
        };
        match self.engine.request(tx, action) {
            PolicyResponse::Granted(steps) => {
                *cursor += 1;
                Advance::Progress(steps)
            }
            PolicyResponse::Conflict { entity, holder } => Advance::Blocked { entity, holder },
            PolicyResponse::Violation(v) => Advance::Violation(v),
        }
    }

    fn abort(&mut self, tx: TxId) -> Vec<Step> {
        self.plans.remove(&tx);
        self.engine.abort(tx)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use slp_core::Universe;
    use slp_policies::DtrEngine;

    fn pool(n: u32) -> Vec<EntityId> {
        (0..n).map(EntityId).collect()
    }

    fn t(i: u32) -> TxId {
        TxId(i)
    }

    fn flat(kind: PolicyKind, n: u32) -> PolicyInstance {
        build_adapter(&PolicyRegistry::new(), kind, &PolicyConfig::flat(pool(n))).unwrap()
    }

    fn drain(adapter: &mut dyn PolicyAdapter, tx: TxId) -> Vec<Step> {
        let mut all = Vec::new();
        loop {
            match adapter.advance(tx) {
                Advance::Progress(s) => all.extend(s),
                Advance::Done(s) => {
                    all.extend(s);
                    return all;
                }
                other => panic!("unexpected {other:?}"),
            }
        }
    }

    #[test]
    fn two_phase_adapter_runs_a_job() {
        let mut a = flat(PolicyKind::TwoPhase, 4);
        assert_eq!(a.name(), "2PL");
        a.begin(t(1), &Job::access(vec![EntityId(0), EntityId(2)]))
            .unwrap();
        let steps = drain(&mut a, t(1));
        // 2 locks + 2*(R+W) + 2 unlocks
        assert_eq!(steps.len(), 8);
        let lt = slp_core::LockedTransaction::new(t(1), steps);
        assert!(lt.validate().is_ok());
        assert!(lt.is_two_phase(), "strict 2PL output must be two-phase");
    }

    #[test]
    fn two_phase_adapter_blocks_on_conflict() {
        let mut a = flat(PolicyKind::TwoPhase, 2);
        a.begin(t(1), &Job::access(vec![EntityId(0)])).unwrap();
        a.begin(t(2), &Job::access(vec![EntityId(0)])).unwrap();
        assert!(matches!(a.advance(t(1)), Advance::Progress(_))); // T1 locks 0
        assert_eq!(
            a.advance(t(2)),
            Advance::Blocked {
                entity: EntityId(0),
                holder: t(1)
            }
        );
        let _ = a.abort(t(2));
    }

    #[test]
    fn altruistic_adapter_donates_early() {
        let mut a = flat(PolicyKind::Altruistic, 4);
        a.begin(
            t(1),
            &Job::access(vec![EntityId(0), EntityId(1), EntityId(2)]),
        )
        .unwrap();
        let steps = drain(&mut a, t(1));
        let lt = slp_core::LockedTransaction::new(t(1), steps.clone());
        assert!(lt.validate().is_ok());
        assert!(
            !lt.is_two_phase(),
            "altruistic plans donate before the locked point"
        );
        // Unlock of entity 0 comes before the access of entity 2.
        let pos_unlock0 = steps
            .iter()
            .position(|s| *s == Step::unlock_exclusive(EntityId(0)))
            .unwrap();
        let pos_access2 = steps
            .iter()
            .position(|s| *s == Step::read(EntityId(2)))
            .unwrap();
        assert!(pos_unlock0 < pos_access2);
    }

    fn diamond_adapter() -> (PolicyInstance, Vec<EntityId>) {
        // Diamond r -> {a, b} -> j.
        let mut u = Universe::new();
        let ids = u.entities(["r", "a", "b", "j"]);
        let mut g = DiGraph::new();
        for &n in &ids {
            g.add_node(n).unwrap();
        }
        g.add_edge(ids[0], ids[1]).unwrap();
        g.add_edge(ids[0], ids[2]).unwrap();
        g.add_edge(ids[1], ids[3]).unwrap();
        g.add_edge(ids[2], ids[3]).unwrap();
        let adapter = build_adapter(
            &PolicyRegistry::new(),
            PolicyKind::Ddag,
            &PolicyConfig::dag(u, g),
        )
        .unwrap();
        (adapter, ids)
    }

    #[test]
    fn ddag_single_target_locks_only_the_target() {
        // L4: a transaction may begin by locking any node, so a job that
        // only touches the join node needs exactly one lock.
        let (mut a, ids) = diamond_adapter();
        a.begin(t(1), &Job::access(vec![ids[3]])).unwrap();
        let steps = drain(&mut a, t(1));
        let locked: Vec<EntityId> = steps
            .iter()
            .filter(|s| s.is_lock())
            .map(|s| s.entity)
            .collect();
        assert_eq!(locked, vec![ids[3]]);
    }

    #[test]
    fn ddag_multi_target_closes_the_dominator_region() {
        // Accessing {a, j} forces start at the common dominator r, and the
        // predecessor closure pulls in b (all of j's predecessors must be
        // locked before j, per L5).
        let (mut a, ids) = diamond_adapter();
        a.begin(t(1), &Job::access(vec![ids[1], ids[3]])).unwrap();
        let steps = drain(&mut a, t(1));
        let mut locked: Vec<EntityId> = steps
            .iter()
            .filter(|s| s.is_lock())
            .map(|s| s.entity)
            .collect();
        assert_eq!(locked[0], ids[0], "start at the common dominator r");
        assert_eq!(
            *locked.last().unwrap(),
            ids[3],
            "join j locked after its preds"
        );
        locked.sort_unstable();
        assert_eq!(locked, vec![ids[0], ids[1], ids[2], ids[3]]);
        let lt = slp_core::LockedTransaction::new(t(1), steps);
        assert!(lt.validate().is_ok());
        // Crawling: r is released before the transaction ends.
        let pos_unlock_r = lt
            .steps
            .iter()
            .position(|s| *s == Step::unlock_exclusive(ids[0]))
            .expect("r released");
        assert!(pos_unlock_r < lt.steps.len() - 1);
    }

    #[test]
    fn ddag_adapter_insert_job() {
        let mut u = Universe::new();
        let ids = u.entities(["r", "a"]);
        let mut g = DiGraph::new();
        g.add_node(ids[0]).unwrap();
        g.add_node(ids[1]).unwrap();
        g.add_edge(ids[0], ids[1]).unwrap();
        let mut a = build_adapter(
            &PolicyRegistry::new(),
            PolicyKind::Ddag,
            &PolicyConfig::dag(u, g),
        )
        .unwrap();
        let fresh = a.intern("new-node").expect("DDAG interns");
        a.begin(t(1), &Job::insert(ids[1], fresh)).unwrap();
        let steps = drain(&mut a, t(1));
        let g = a.graph().expect("DDAG has a graph");
        assert!(g.has_node(fresh));
        assert!(g.has_edge(ids[1], fresh));
        let lt = slp_core::LockedTransaction::new(t(1), steps);
        assert!(lt.validate().is_ok());
    }

    #[test]
    fn ddag_malformed_jobs_surface_typed_plan_errors() {
        let (mut a, _) = diamond_adapter();
        let err = a
            .begin(t(1), &Job::access(vec![EntityId(999)]))
            .unwrap_err();
        assert_eq!(
            err,
            PolicyViolation::Plan(PlanViolation::TargetMissing(EntityId(999)))
        );
        assert!(
            !err.is_fatal(),
            "graph-shape plan failures are transient under churn"
        );
        let err = a.begin(t(1), &Job::access(vec![])).unwrap_err();
        assert_eq!(err, PolicyViolation::Plan(PlanViolation::EmptyJob));
        assert!(err.is_fatal(), "an empty job can never commit work");
    }

    #[test]
    fn dtr_adapter_runs_jobs_and_grows_forest() {
        let mut a = flat(PolicyKind::Dtr, 5);
        a.begin(t(1), &Job::access(vec![EntityId(0), EntityId(1)]))
            .unwrap();
        let steps = drain(&mut a, t(1));
        assert!(!steps.is_empty());
        let dtr: &DtrEngine = a
            .engine()
            .as_any()
            .downcast_ref()
            .expect("registry builds a DtrEngine for PolicyKind::Dtr");
        assert_eq!(dtr.forest().len(), 2);
        let lt = slp_core::LockedTransaction::new(t(1), steps);
        assert!(lt.validate().is_ok());
    }

    #[test]
    fn dtr_adapter_blocks_on_contention() {
        let mut a = flat(PolicyKind::Dtr, 3);
        a.begin(t(1), &Job::access(vec![EntityId(0)])).unwrap();
        assert!(matches!(a.advance(t(1)), Advance::Progress(_))); // lock 0
        a.begin(t(2), &Job::access(vec![EntityId(0)])).unwrap();
        assert!(matches!(a.advance(t(2)), Advance::Blocked { .. }));
        let _ = a.abort(t(2));
    }

    #[test]
    fn mutant_kinds_build_and_report_their_names() {
        for kind in PolicyKind::MUTANTS {
            let config = if kind.needs_graph() {
                let mut u = Universe::new();
                let ids = u.entities(["r", "x"]);
                let mut g = DiGraph::new();
                g.add_node(ids[0]).unwrap();
                g.add_node(ids[1]).unwrap();
                g.add_edge(ids[0], ids[1]).unwrap();
                PolicyConfig::dag(u, g)
            } else {
                PolicyConfig::flat(pool(4))
            };
            let a = build_adapter(&PolicyRegistry::new(), kind, &config).unwrap();
            assert_eq!(a.name(), kind.name());
        }
    }

    #[test]
    fn advancing_an_unknown_transaction_is_a_fatal_no_plan() {
        let mut a = flat(PolicyKind::TwoPhase, 2);
        match a.advance(t(9)) {
            Advance::Violation(v) => assert!(v.is_fatal()),
            other => panic!("unexpected {other:?}"),
        }
    }
}
