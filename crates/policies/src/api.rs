//! The unified policy API: one engine interface over every locking policy.
//!
//! The paper's central observation is that 2PL, the DDAG policy (L1–L5),
//! altruistic locking (AL1–AL3), and the dynamic tree policy (DT0–DT3) are
//! all instances of a single abstraction — a *locking policy* whose
//! schedules must be legal, proper, and serializable. This module is that
//! abstraction made executable:
//!
//! * [`PolicyAction`] — the shared action vocabulary a transaction can
//!   request (locks, data operations, structural mutations);
//! * [`PolicyEngine`] — the object-safe engine trait
//!   (`begin`/`request`/`finish`/`abort`) every policy implements;
//! * [`PolicyResponse`] — the typed outcome of a request: granted (with
//!   emitted [`Step`]s), a lock conflict (the caller may *wait*), or a rule
//!   violation (the transaction must *abort*);
//! * [`PolicyViolation`] — the shared violation type wrapping each
//!   policy's rule-violation enum, so callers classify aborts without
//!   string matching;
//! * [`AccessIntent`] — the declared access set handed to `begin` (needed
//!   by plan-precomputing policies such as DTR, per rule DT2).
//!
//! Concrete engines ([`crate::DdagEngine`], [`crate::AltruisticEngine`],
//! [`crate::DtrEngine`], [`crate::TwoPhaseEngine`]) implement the trait in
//! their own modules; [`crate::PolicyRegistry`] builds any of them — mutant
//! negative controls included — as a `Box<dyn PolicyEngine>` from a
//! [`crate::PolicyKind`] or a name.
//!
//! # Waiting vs aborting
//!
//! Every engine distinguishes two failure classes, and the distinction is
//! load-bearing for schedulers: a [`PolicyResponse::Conflict`] means the
//! request is *legal* but the lock is currently held — the transaction may
//! park and retry the same request later; a [`PolicyResponse::Violation`]
//! means the policy forbids the action outright (e.g. the Fig. 3 scenario
//! where a concurrent edge insert invalidates a traversal's lock plan) —
//! the transaction must abort. [`PolicyViolation::is_fatal`] further
//! separates violations that can succeed on retry (rule state is
//! transient) from ones that cannot (the request itself is malformed).

use crate::altruistic::AltruisticViolation;
use crate::ddag::DdagViolation;
use crate::dtr::DtrViolation;
use slp_core::{DataOp, EntityId, Step, StructuralState, TxId};
use slp_graph::{DiGraph, DomIndex, Forest};
use std::any::Any;
use std::collections::BTreeMap;
use std::fmt;

/// One action a transaction can request from a [`PolicyEngine`].
///
/// Not every policy supports every action (only the DDAG policy mutates a
/// shared graph, only altruistic locking has a declared locked point); an
/// engine answers an action outside its vocabulary with
/// [`PolicyViolation::Unsupported`].
#[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Debug)]
pub enum PolicyAction {
    /// Acquire an exclusive lock on the entity.
    Lock(EntityId),
    /// Release the lock on the entity (a *donation* under altruistic
    /// locking when it happens before the locked point).
    Unlock(EntityId),
    /// `ACCESS` the entity: a read immediately followed by a write.
    Access(EntityId),
    /// Read the entity.
    Read(EntityId),
    /// Write the entity.
    Write(EntityId),
    /// Insert the entity as a new node of the shared structure.
    InsertNode(EntityId),
    /// Delete the node from the shared structure.
    DeleteNode(EntityId),
    /// Insert the edge `(a, b)` into the shared graph.
    InsertEdge(EntityId, EntityId),
    /// Delete the edge `(a, b)` from the shared graph.
    DeleteEdge(EntityId, EntityId),
    /// Declare the locked point: the transaction will acquire no further
    /// locks (altruistic locking learns wake dissolution from this).
    LockedPoint,
}

impl fmt::Display for PolicyAction {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        use PolicyAction::*;
        match self {
            Lock(e) => write!(f, "lock {e}"),
            Unlock(e) => write!(f, "unlock {e}"),
            Access(e) => write!(f, "access {e}"),
            Read(e) => write!(f, "read {e}"),
            Write(e) => write!(f, "write {e}"),
            InsertNode(e) => write!(f, "insert node {e}"),
            DeleteNode(e) => write!(f, "delete node {e}"),
            InsertEdge(a, b) => write!(f, "insert edge ({a}, {b})"),
            DeleteEdge(a, b) => write!(f, "delete edge ({a}, {b})"),
            LockedPoint => write!(f, "locked point"),
        }
    }
}

/// Why a plan for a job could not be constructed (planner-level failures,
/// as opposed to the per-policy *rule* violations).
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum PlanViolation {
    /// The job requests nothing.
    EmptyJob,
    /// The policy needs a shared rooted graph and its dominator index to
    /// plan against, but the engine maintains none (policy/planner
    /// mismatch).
    NoGraph,
    /// The shared graph has no root.
    NotRooted,
    /// A target node is not in the shared graph.
    TargetMissing(EntityId),
    /// The shared graph contains a cycle (no topological lock order).
    CyclicGraph,
}

impl PlanViolation {
    /// Whether retrying the job can never succeed. Graph-shape failures
    /// ([`PlanViolation::NotRooted`], [`PlanViolation::TargetMissing`], …)
    /// are *transient* under concurrent structural churn — e.g. a freshly
    /// inserted node is briefly a second root until its edge connects it —
    /// so only request-shape failures are fatal.
    pub fn is_fatal(&self) -> bool {
        matches!(self, PlanViolation::EmptyJob | PlanViolation::NoGraph)
    }
}

impl fmt::Display for PlanViolation {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        use PlanViolation::*;
        match self {
            EmptyJob => write!(f, "the job requests nothing"),
            NoGraph => write!(f, "the policy maintains no shared graph to plan against"),
            NotRooted => write!(f, "the shared graph has no root"),
            TargetMissing(e) => write!(f, "target {e} is not in the shared graph"),
            CyclicGraph => write!(f, "the shared graph contains a cycle"),
        }
    }
}

impl std::error::Error for PlanViolation {}

/// A policy violation, unified across every engine. Wraps the per-policy
/// rule-violation enums so callers — the simulator's abort classification
/// above all — can match on structure instead of parsing strings.
#[derive(Clone, PartialEq, Eq, Debug)]
pub enum PolicyViolation {
    /// A DDAG rule (L1–L5) or graph-discipline violation.
    Ddag(DdagViolation),
    /// An altruistic locking rule (AL1–AL3) violation.
    Altruistic(AltruisticViolation),
    /// A dynamic tree policy (DT0–DT3) violation.
    Dtr(DtrViolation),
    /// Plan construction failed before the transaction touched the engine.
    Plan(PlanViolation),
    /// The transaction has no plan (it was never begun, or its plan was
    /// consumed or discarded).
    NoPlan(TxId),
    /// The requested action is off the transaction's precomputed plan
    /// (plan-driven policies such as DTR execute exactly the plan declared
    /// at `begin`, per rule DT2).
    OffPlan(TxId, PolicyAction),
    /// The action is outside this policy's vocabulary.
    Unsupported {
        /// The policy that rejected the action.
        policy: &'static str,
        /// The rejected action.
        action: PolicyAction,
    },
}

impl PolicyViolation {
    /// Whether retrying the whole transaction can never succeed: the
    /// failure is in the request's *shape* (malformed job, action outside
    /// the policy's vocabulary, plan deviation, a plan that locks one
    /// entity twice or names one that does not exist — every retry
    /// replans it the same way), not in transient lock-table or rule
    /// state. Schedulers should drop fatal jobs instead of
    /// abort-and-retrying them forever.
    pub fn is_fatal(&self) -> bool {
        match self {
            PolicyViolation::NoPlan(_)
            | PolicyViolation::OffPlan(..)
            | PolicyViolation::Unsupported { .. }
            | PolicyViolation::Altruistic(
                AltruisticViolation::Relock(..) | AltruisticViolation::EntityOutOfRange(_),
            )
            | PolicyViolation::Ddag(
                DdagViolation::Relock(..) | DdagViolation::EntityOutOfRange(_),
            )
            | PolicyViolation::Dtr(DtrViolation::Plan(_) | DtrViolation::EntityOutOfRange(_)) => {
                true
            }
            PolicyViolation::Plan(p) => p.is_fatal(),
            _ => false,
        }
    }
}

impl fmt::Display for PolicyViolation {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            PolicyViolation::Ddag(v) => write!(f, "DDAG: {v}"),
            PolicyViolation::Altruistic(v) => write!(f, "altruistic: {v}"),
            PolicyViolation::Dtr(v) => write!(f, "DTR: {v}"),
            PolicyViolation::Plan(v) => write!(f, "plan: {v}"),
            PolicyViolation::NoPlan(tx) => write!(f, "{tx} has no plan"),
            PolicyViolation::OffPlan(tx, a) => {
                write!(f, "{tx} requested \"{a}\" off its precomputed plan")
            }
            PolicyViolation::Unsupported { policy, action } => {
                write!(f, "{policy} does not support \"{action}\"")
            }
        }
    }
}

impl std::error::Error for PolicyViolation {}

impl From<PlanViolation> for PolicyViolation {
    fn from(v: PlanViolation) -> Self {
        PolicyViolation::Plan(v)
    }
}

/// How much shared state a grant/refuse decision of this engine reads
/// ([`PolicyEngine::grant_scope`]).
///
/// Schedulers use this to decide whether a request can bypass the
/// engine's serialization point: a [`GrantScope::PerEntity`] engine
/// promises that, for the plain lock/access vocabulary
/// ([`PolicyAction::Lock`] / [`PolicyAction::Access`] /
/// [`PolicyAction::Read`] / [`PolicyAction::Write`]), granting is purely
/// a function of the requested entity's *current holder* — so an
/// atomic per-entity lock word can take the decision without consulting
/// the engine at all. The promise extends to release discipline:
/// fast-path transactions hold every lock to commit (no early release,
/// no donation wake sets), request no structural mutations, and never
/// relock — any plan outside that shape is refused in a word run; run it
/// with the fast path off.
#[derive(Clone, Copy, PartialEq, Eq, Debug, Default)]
pub enum GrantScope {
    /// A grant may read global policy state (wake sets, the shared graph,
    /// precomputed plans): every request must serialize on the engine.
    #[default]
    Global,
    /// A grant for the plain lock/access vocabulary depends only on the
    /// requested entity's holder: eligible requests may be decided by
    /// a per-entity atomic lock word, bypassing the engine entirely.
    PerEntity,
}

/// The outcome of a [`PolicyEngine::request`].
#[derive(Clone, PartialEq, Eq, Debug)]
pub enum PolicyResponse {
    /// The action ran; these [`Step`]s were emitted into the schedule.
    Granted(Vec<Step>),
    /// The action needs a lock currently held by `holder`. The request is
    /// otherwise legal: the transaction may wait and re-request.
    Conflict {
        /// The contended entity.
        entity: EntityId,
        /// The transaction holding it.
        holder: TxId,
    },
    /// The policy forbids the action: the transaction must abort.
    Violation(PolicyViolation),
}

/// Folds an engine result into a [`PolicyResponse`], routing lock
/// conflicts to the wait channel and rule violations to the abort channel.
pub(crate) fn respond(result: Result<Vec<Step>, PolicyViolation>) -> PolicyResponse {
    use PolicyViolation::{Altruistic, Ddag, Dtr};
    match result {
        Ok(steps) => PolicyResponse::Granted(steps),
        Err(
            Ddag(DdagViolation::LockConflict(entity, holder))
            | Altruistic(AltruisticViolation::LockConflict(entity, holder))
            | Dtr(DtrViolation::LockConflict(entity, holder)),
        ) => PolicyResponse::Conflict { entity, holder },
        Err(v) => PolicyResponse::Violation(v),
    }
}

impl PolicyResponse {
    /// The emitted steps, if the action was granted.
    pub fn granted(self) -> Option<Vec<Step>> {
        match self {
            PolicyResponse::Granted(steps) => Some(steps),
            _ => None,
        }
    }

    /// The emitted steps; panics (with the refusal) if not granted.
    pub fn expect_granted(self) -> Vec<Step> {
        match self {
            PolicyResponse::Granted(steps) => steps,
            PolicyResponse::Conflict { entity, holder } => {
                panic!("request not granted: {entity} is locked by {holder}")
            }
            PolicyResponse::Violation(v) => panic!("request not granted: {v}"),
        }
    }

    /// The violation, if the action was refused outright.
    pub fn violation(self) -> Option<PolicyViolation> {
        match self {
            PolicyResponse::Violation(v) => Some(v),
            _ => None,
        }
    }

    /// Whether the action was granted.
    pub fn is_granted(&self) -> bool {
        matches!(self, PolicyResponse::Granted(_))
    }
}

/// The access set a transaction declares at [`PolicyEngine::begin`]:
/// entity → the data operations the transaction will perform there.
///
/// Plan-precomputing policies (DTR, rule DT2) *require* the declaration and
/// return the realized plan from `begin`; on-demand policies ignore it.
#[derive(Clone, PartialEq, Eq, Debug, Default)]
pub struct AccessIntent {
    /// Entity → declared data operations, in plan order per entity.
    pub ops: BTreeMap<EntityId, Vec<DataOp>>,
}

impl AccessIntent {
    /// An empty declaration (for policies that lock on demand).
    pub fn empty() -> Self {
        Self::default()
    }

    /// Declares an `ACCESS` (read + write) on each target.
    pub fn access(targets: impl IntoIterator<Item = EntityId>) -> Self {
        AccessIntent {
            ops: targets
                .into_iter()
                .map(|e| (e, vec![DataOp::Read, DataOp::Write]))
                .collect(),
        }
    }

    /// Whether nothing is declared.
    pub fn is_empty(&self) -> bool {
        self.ops.is_empty()
    }
}

/// A locking policy as one object-safe engine.
///
/// An engine owns the policy's shared state (lock table, rule bookkeeping,
/// and — for dynamic policies — the shared graph or forest), enforces
/// every rule *online*, and emits the [`Step`]s realizing each granted
/// action so callers can record and verify the interleaved schedule.
///
/// The lifecycle per transaction is `begin` → any number of `request`s →
/// `finish` (or `abort` at any point). `begin` returns `Some(plan)` when
/// the policy precomputes the transaction's whole action sequence (DTR);
/// callers then drive `request` with exactly those actions in order.
///
/// The engine is the one authority on what exists
/// ([`PolicyEngine::structural_state`]). A flat-pool engine (2PL,
/// altruistic, DTR) is built over its pool, which is what exists, and
/// refuses, fatally, a lock on any other entity; the DDAG's entities are
/// its graph's nodes and edge entities. So no executor grants a step on
/// an absent entity.
///
/// `Send + Sync` is a supertrait so one engine can sit behind a lock and
/// serve requests from many worker threads (the `slp-runtime` service).
/// Engines have no interior mutability — all mutation goes through `&mut
/// self` — so every in-tree engine satisfies the bounds automatically.
pub trait PolicyEngine: Send + Sync {
    /// Display name of the policy (rows of the E9 tables; mutants carry a
    /// distinguishing suffix).
    fn name(&self) -> &'static str;

    /// Starts `tx` with the declared `intent`. Returns the precomputed
    /// action plan if this policy plans at start (rule DT2), `None` if it
    /// serves actions on demand.
    fn begin(
        &mut self,
        tx: TxId,
        intent: &AccessIntent,
    ) -> Result<Option<Vec<PolicyAction>>, PolicyViolation>;

    /// Requests one action for `tx`. See [`PolicyResponse`] for the
    /// wait/abort distinction.
    fn request(&mut self, tx: TxId, action: PolicyAction) -> PolicyResponse;

    /// Finishes `tx`: releases every lock it still holds and retires it.
    /// Returns the emitted unlock steps.
    fn finish(&mut self, tx: TxId) -> Result<Vec<Step>, PolicyViolation>;

    /// Aborts `tx`: releases all its locks without further structural
    /// changes (undo/recovery is outside the paper's model) and retires
    /// it. Infallible; aborting an unknown transaction is a no-op.
    fn abort(&mut self, tx: TxId) -> Vec<Step>;

    /// The shared rooted graph, if this policy maintains one (DDAG).
    /// Planners use it to lay out traversals against the *current* state.
    fn graph(&self) -> Option<&DiGraph> {
        None
    }

    /// The dominator-tree index of [`PolicyEngine::graph`], if this policy
    /// maintains one (DDAG). The engine keeps it equal to a fresh
    /// [`DomIndex::build`] of the graph across every structural mutation,
    /// so planners read roots, common dominators and lock order from it
    /// instead of recomputing them from the graph for every job.
    fn dom_index(&self) -> Option<&DomIndex> {
        None
    }

    /// The database forest, if this policy maintains one (DTR).
    fn forest(&self) -> Option<&Forest> {
        None
    }

    /// Interns a fresh entity name, for policies whose universe grows as
    /// structure is inserted (DDAG). `None` if the policy has no universe.
    fn intern_entity(&mut self, _name: &str) -> Option<EntityId> {
        None
    }

    /// The entities that exist now: a flat-pool policy's pool, or the
    /// DDAG's graph nodes and edge entities. Taken before a run, it is the
    /// initial state the run's schedule must be proper against.
    fn structural_state(&self) -> StructuralState;

    /// How much shared state this engine's grant decisions read — see
    /// [`GrantScope`]. Defaults to [`GrantScope::Global`] (every request
    /// serializes on the engine); only engines whose grants are purely
    /// per-entity (a plain exclusive lock manager) should return
    /// [`GrantScope::PerEntity`].
    fn grant_scope(&self) -> GrantScope {
        GrantScope::Global
    }

    /// Concrete-type escape hatch for policy-specific introspection
    /// (e.g. [`crate::DtrEngine::check_delete`] in the DT3 walkthrough).
    fn as_any(&self) -> &dyn Any;

    /// Mutable form of [`PolicyEngine::as_any`].
    fn as_any_mut(&mut self) -> &mut dyn Any;
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn violation_display_and_fatality() {
        let v = PolicyViolation::NoPlan(TxId(3));
        assert!(v.is_fatal());
        assert_eq!(v.to_string(), "T3 has no plan");
        let v = PolicyViolation::Altruistic(AltruisticViolation::Relock(TxId(1), EntityId(2)));
        assert!(
            v.is_fatal(),
            "a relock is in the plan: every retry repeats it"
        );
        assert!(v.to_string().contains("AL3"));
        let v = PolicyViolation::Ddag(DdagViolation::Relock(TxId(1), EntityId(2)));
        assert!(v.is_fatal());
        let v = PolicyViolation::Altruistic(AltruisticViolation::OutsideWake {
            tx: TxId(1),
            wake_of: TxId(2),
            item: EntityId(3),
        });
        assert!(!v.is_fatal(), "rule violations are retryable");
        let v = PolicyViolation::Unsupported {
            policy: "2PL",
            action: PolicyAction::InsertEdge(EntityId(0), EntityId(1)),
        };
        assert!(v.is_fatal());
        assert!(v.to_string().contains("insert edge"));
        let v = PolicyViolation::Plan(PlanViolation::TargetMissing(EntityId(7)));
        assert!(
            !v.is_fatal(),
            "graph-shape plan failures are transient under structural churn"
        );
        let v = PolicyViolation::Plan(PlanViolation::EmptyJob);
        assert!(v.is_fatal());
    }

    #[test]
    fn response_accessors() {
        let r = PolicyResponse::Granted(vec![Step::read(EntityId(0))]);
        assert!(r.is_granted());
        assert_eq!(r.granted().unwrap().len(), 1);
        let r = PolicyResponse::Conflict {
            entity: EntityId(1),
            holder: TxId(2),
        };
        assert!(!r.is_granted());
        assert!(r.clone().granted().is_none());
        assert!(r.violation().is_none());
        let r = PolicyResponse::Violation(PolicyViolation::NoPlan(TxId(1)));
        assert!(r.violation().is_some());
    }

    #[test]
    fn intent_constructors() {
        assert!(AccessIntent::empty().is_empty());
        let i = AccessIntent::access([EntityId(1), EntityId(2)]);
        assert_eq!(i.ops.len(), 2);
        assert_eq!(i.ops[&EntityId(1)], vec![DataOp::Read, DataOp::Write]);
    }
}
