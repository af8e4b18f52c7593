//! Probe planners: plan shapes that *exercise the ablated rule* of each
//! DDAG mutant engine.
//!
//! The standard [`DdagPlanner`](crate::DdagPlanner) emits plans that satisfy every
//! DDAG rule by construction — the paper's point is that any interleaving
//! of rule-conforming transactions is serializable, so driving a mutant
//! engine with conforming plans can never surface the ablated rule. The
//! negative controls instead need plans that are legal under the mutant
//! but that the *safe* engine would refuse at a typed L5 violation:
//!
//! * [`CrawlProbePlanner`] — lock-use-release crawls down the ancestor
//!   closure in topological order, holding **nothing** between sessions.
//!   Every predecessor was locked in the past (L5a ✓) but none is held at
//!   lock time (L5b ✗): admitted only by `DDAG-no-held-pred`, where two
//!   crawls can overtake each other into a conflict cycle.
//! * [`ShoulderProbePlanner`] — a single root-to-target *path* crawl that
//!   always holds the previous path node (L5b ✓) but never locks a join
//!   node's other predecessors (L5a ✗): admitted only by
//!   `DDAG-no-all-preds`, where two transactions descending opposite
//!   shoulders of a diamond serialize the root one way and the join the
//!   other.
//!
//! The altruistic mutant needs no probe: the standard eager-donation
//! planner already exercises AL2 — whether a lock lands "outside the
//! wake" is a property of the *interleaving* (did the transaction take a
//! donated item while the donor was still active?), not of the plan.

use crate::{
    AccessIntent, ActionPlanner, Job, PlanViolation, PolicyAction, PolicyEngine, PolicyViolation,
};
use slp_graph::RegionScratch;

/// Lock-use-release crawls over the ancestor closure (for the
/// `DDAG-no-held-pred` negative control). Accesses every region node to
/// maximize conflict edges between overlapping crawls.
#[derive(Default)]
pub struct CrawlProbePlanner {
    region: RegionScratch,
}

impl ActionPlanner for CrawlProbePlanner {
    fn intent(&self, _job: &Job) -> AccessIntent {
        AccessIntent::empty()
    }

    fn plan(
        &mut self,
        engine: &dyn PolicyEngine,
        job: &Job,
    ) -> Result<Option<Vec<PolicyAction>>, PolicyViolation> {
        let (g, index) = engine
            .graph()
            .zip(engine.dom_index())
            .ok_or(PlanViolation::NoGraph)?;
        if job.targets.is_empty() {
            return Err(PlanViolation::EmptyJob.into());
        }
        if let Some(&t) = job.targets.iter().find(|&&t| !g.has_node(t)) {
            return Err(PlanViolation::TargetMissing(t).into());
        }
        if !index.is_acyclic() {
            return Err(PlanViolation::CyclicGraph.into());
        }
        // Ancestor closure of the targets (predecessor-closed, so every
        // predecessor of a region node precedes it in topological order —
        // L5a holds along the crawl).
        index.predecessor_region(g, &job.targets, None, &mut self.region);
        let mut plan = Vec::with_capacity(self.region.order().len() * 3);
        for &n in self.region.order() {
            plan.push(PolicyAction::Lock(n));
            plan.push(PolicyAction::Access(n));
            plan.push(PolicyAction::Unlock(n));
        }
        Ok(Some(plan))
    }
}

/// Single-path shoulder crawls (for the `DDAG-no-all-preds` negative
/// control): root → … → `targets[0]` along one predecessor chain, always
/// holding the previous node, accessing every node on the path. Which
/// shoulder a multi-parent node is reached through varies with the worker
/// index and a per-plan counter, so two transactions aiming at the same
/// target routinely descend opposite shoulders.
pub struct ShoulderProbePlanner {
    salt: usize,
    planned: usize,
}

impl ShoulderProbePlanner {
    /// A planner whose shoulder choices are decorrelated by `salt`
    /// (typically the worker index).
    pub fn new(salt: usize) -> Self {
        ShoulderProbePlanner { salt, planned: 0 }
    }
}

impl ActionPlanner for ShoulderProbePlanner {
    fn intent(&self, _job: &Job) -> AccessIntent {
        AccessIntent::empty()
    }

    fn plan(
        &mut self,
        engine: &dyn PolicyEngine,
        job: &Job,
    ) -> Result<Option<Vec<PolicyAction>>, PolicyViolation> {
        let g = engine.graph().ok_or(PlanViolation::NoGraph)?;
        let &target = job.targets.first().ok_or(PlanViolation::EmptyJob)?;
        if !g.has_node(target) {
            return Err(PlanViolation::TargetMissing(target).into());
        }
        self.planned += 1;
        // Climb from the target to the root, picking one predecessor per
        // level (salted, so different transactions pick different
        // shoulders).
        let mut path = vec![target];
        let mut cur = target;
        loop {
            let shoulders = g.in_degree(cur);
            if shoulders == 0 {
                break; // reached the root
            }
            let depth = path.len() - 1;
            let pick = (self
                .salt
                .wrapping_mul(31)
                .wrapping_add(self.planned.wrapping_mul(13))
                .wrapping_add(depth.wrapping_mul(7)))
                % shoulders;
            cur = g
                .predecessors(cur)
                .nth(pick)
                .expect("pick is below the in-degree");
            path.push(cur);
            if depth >= g.node_count() {
                // Only a cycle makes a climb longer than the graph.
                return Err(PlanViolation::CyclicGraph.into());
            }
        }
        path.reverse();
        let mut plan = Vec::with_capacity(path.len() * 3);
        plan.push(PolicyAction::Lock(path[0]));
        plan.push(PolicyAction::Access(path[0]));
        for i in 1..path.len() {
            plan.push(PolicyAction::Lock(path[i]));
            plan.push(PolicyAction::Access(path[i]));
            plan.push(PolicyAction::Unlock(path[i - 1]));
        }
        plan.push(PolicyAction::Unlock(*path.last().expect("non-empty path")));
        Ok(Some(plan))
    }
}
