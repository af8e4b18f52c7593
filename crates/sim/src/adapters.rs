//! The simulator's view of a policy: [`EngineAdapter`] pairs any
//! [`PolicyEngine`] with the policy's [`ActionPlanner`] (from
//! [`slp_policies::plan`]), and [`run_sim`](crate::run_sim) drives it.
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

use slp_core::{EntityId, StructuralState, TxId};
use slp_policies::{
    planner_for, ActionPlanner, Job, PolicyAction, PolicyConfig, PolicyEngine, PolicyKind,
    PolicyRegistry, PolicyViolation, RegistryError,
};

/// A policy engine and the planner matching it.
pub struct EngineAdapter {
    pub(crate) engine: Box<dyn PolicyEngine>,
    planner: Box<dyn ActionPlanner>,
}

/// Builds the simulator adapter for `kind` through `registry`: the engine
/// from the registry and the matching planner.
pub fn build_adapter(
    registry: &PolicyRegistry,
    kind: PolicyKind,
    config: &PolicyConfig,
) -> Result<EngineAdapter, RegistryError> {
    let engine = registry.build(kind, config)?;
    Ok(EngineAdapter::new(engine, planner_for(kind)))
}

impl EngineAdapter {
    /// An adapter over `engine` driven by `planner`.
    pub fn new(engine: Box<dyn PolicyEngine>, planner: Box<dyn ActionPlanner>) -> Self {
        EngineAdapter { engine, planner }
    }

    /// The wrapped engine.
    pub fn engine(&self) -> &dyn PolicyEngine {
        self.engine.as_ref()
    }

    /// Interns a fresh entity name through the engine (DDAG insert
    /// workloads); `None` if the policy has no growing universe.
    pub fn intern(&mut self, name: &str) -> Option<EntityId> {
        self.engine.intern_entity(name)
    }

    /// The initial structural state for properness checks: what the
    /// engine says exists ([`PolicyEngine::structural_state`]). Capture
    /// *before* running jobs.
    pub fn initial_state(&self) -> StructuralState {
        self.engine.structural_state()
    }

    /// Plans `job` and begins `tx` for it; returns the plan to run — the
    /// planner's own, else the one the engine precomputed at `begin`.
    pub(crate) fn begin(
        &mut self,
        tx: TxId,
        job: &Job,
    ) -> Result<Vec<PolicyAction>, PolicyViolation> {
        // Plan first: a malformed job must not leave begun-but-planless
        // transaction state in the engine.
        let planned = self.planner.plan(self.engine.as_ref(), job)?;
        let intent = self.planner.intent(job);
        match planned.or(self.engine.begin(tx, &intent)?) {
            Some(plan) => Ok(plan),
            None => {
                // Misconfigured pairing (neither planner nor engine
                // produced a plan): retire the just-begun transaction so
                // the engine holds no planless state.
                self.engine.abort(tx);
                Err(PolicyViolation::NoPlan(tx))
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use slp_core::{Step, Universe};
    use slp_graph::DiGraph;
    use slp_policies::{DtrEngine, PlanViolation, PolicyResponse};

    fn pool(n: u32) -> Vec<EntityId> {
        (0..n).map(EntityId).collect()
    }

    fn t(i: u32) -> TxId {
        TxId(i)
    }

    fn flat(kind: PolicyKind, n: u32) -> EngineAdapter {
        build_adapter(&PolicyRegistry::new(), kind, &PolicyConfig::flat(pool(n))).unwrap()
    }

    /// Begins `tx` for `job`, grants its whole plan and finishes it: the
    /// steps a lone transaction emits.
    fn drain(adapter: &mut EngineAdapter, tx: TxId, job: &Job) -> Vec<Step> {
        let plan = adapter.begin(tx, job).unwrap();
        let mut all = Vec::new();
        for action in plan {
            all.extend(adapter.engine.request(tx, action).expect_granted());
        }
        all.extend(adapter.engine.finish(tx).unwrap());
        all
    }

    #[test]
    fn two_phase_adapter_runs_a_job() {
        let mut a = flat(PolicyKind::TwoPhase, 4);
        assert_eq!(a.engine().name(), "2PL");
        let steps = drain(&mut a, t(1), &Job::access(vec![EntityId(0), EntityId(2)]));
        // 2 locks + 2*(R+W) + 2 unlocks
        assert_eq!(steps.len(), 8);
        let lt = slp_core::LockedTransaction::new(t(1), steps);
        assert!(lt.validate().is_ok());
        assert!(lt.is_two_phase(), "strict 2PL output must be two-phase");
    }

    #[test]
    fn two_phase_adapter_blocks_on_conflict() {
        let mut a = flat(PolicyKind::TwoPhase, 2);
        let first = a.begin(t(1), &Job::access(vec![EntityId(0)])).unwrap();
        let second = a.begin(t(2), &Job::access(vec![EntityId(0)])).unwrap();
        a.engine.request(t(1), first[0]).expect_granted(); // T1 locks 0
        assert_eq!(
            a.engine.request(t(2), second[0]),
            PolicyResponse::Conflict {
                entity: EntityId(0),
                holder: t(1)
            }
        );
        let _ = a.engine.abort(t(2));
    }

    #[test]
    fn altruistic_adapter_donates_early() {
        let mut a = flat(PolicyKind::Altruistic, 4);
        let job = Job::access(vec![EntityId(0), EntityId(1), EntityId(2)]);
        let steps = drain(&mut a, t(1), &job);
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

    fn diamond_adapter() -> (EngineAdapter, Vec<EntityId>) {
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
        let steps = drain(&mut a, t(1), &Job::access(vec![ids[3]]));
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
        let steps = drain(&mut a, t(1), &Job::access(vec![ids[1], ids[3]]));
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
        let steps = drain(&mut a, t(1), &Job::insert(ids[1], fresh));
        let g = a.engine().graph().expect("DDAG has a graph");
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
        let steps = drain(&mut a, t(1), &Job::access(vec![EntityId(0), EntityId(1)]));
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
        let first = a.begin(t(1), &Job::access(vec![EntityId(0)])).unwrap();
        a.engine.request(t(1), first[0]).expect_granted(); // lock 0
        let second = a.begin(t(2), &Job::access(vec![EntityId(0)])).unwrap();
        assert!(matches!(
            a.engine.request(t(2), second[0]),
            PolicyResponse::Conflict { .. }
        ));
        let _ = a.engine.abort(t(2));
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
            assert_eq!(a.engine().name(), kind.name());
        }
    }
}
