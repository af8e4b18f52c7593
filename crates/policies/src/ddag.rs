//! The dynamic directed acyclic graph (DDAG) policy — Section 4.
//!
//! The database is a rooted DAG whose nodes *and edges* are entities;
//! transactions perform `ACCESS` (a `READ` immediately followed by a
//! `WRITE`), `INSERT`, and `DELETE` operations, with **exclusive locks
//! only**, under these rules:
//!
//! * **L1** — before any `INSERT`/`DELETE`/`ACCESS` on a node `A` (an edge
//!   `(A, B)`), `T` locks `A` (both `A` and `B`);
//! * **L2** — a node being inserted can be locked at any time;
//! * **L3** — a node can be locked by a transaction at most once;
//! * **L4** — a transaction may begin by locking any node;
//! * **L5** — other than the first node locked by `T`, a node in `G` can be
//!   locked by `T` only if all its predecessors *in the present state of
//!   `G`* have been locked by `T` in the past, and `T` is presently holding
//!   a lock on at least one of them.
//!
//! Additionally, a deleted entity may never be reinserted.
//!
//! [`DdagEngine`] is an online rule enforcer: it maintains the shared
//! graph, a lock table, and per-transaction lock history (the crate's
//! per-transaction table, with the edge entities each transaction locked
//! as its DDAG part), and rejects any action violating the rules. The mutant switches
//! ([`DdagConfig::without_held_predecessor_rule`], …) disable individual
//! clauses of L5 so the benchmark harness can demonstrate that each clause
//! is load-bearing (experiment E7).
//!
//! ## Modeling note: edge entities
//!
//! The paper locks only *nodes*; edge operations are protected by the locks
//! on both endpoints. To keep emitted schedules well formed in the core
//! model (every `INSERT` under an exclusive lock on the inserted entity),
//! the engine also takes a lock on the edge entity itself, held until the
//! transaction finishes. This adds no new conflicts beyond the endpoint
//! locks: two transactions can touch the same edge only strictly ordered by
//! their exclusive endpoint locks.

use crate::txtable::{violation_from_tx_error, TxTable};
use slp_core::{EntityId, LockMode, Step, TxId, Universe, MAX_ENTITIES};
use slp_graph::{dag, DiGraph, DomIndex};
use std::collections::BTreeMap;
use std::fmt;

/// A violation of the DDAG rules (or of basic lock/graph discipline).
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum DdagViolation {
    /// The transaction was never begun (or already finished).
    UnknownTransaction(TxId),
    /// `begin` called twice.
    AlreadyBegun(TxId),
    /// L3: the transaction already locked this entity.
    Relock(TxId, EntityId),
    /// L5 (first clause): some predecessor in the present graph was never
    /// locked by the transaction.
    PredecessorsNotLocked(TxId, EntityId),
    /// L5 (second clause): the transaction holds no lock on any present
    /// predecessor.
    NoHeldPredecessor(TxId, EntityId),
    /// The entity was deleted earlier and may not be reinserted.
    ReinsertionForbidden(EntityId),
    /// Another transaction holds the lock (the caller should wait or abort;
    /// the engine never blocks).
    LockConflict(EntityId, TxId),
    /// L1/well-formedness: an operation on an entity the transaction does
    /// not hold.
    NotHolding(TxId, EntityId),
    /// The node does not exist in the graph.
    NoSuchNode(EntityId),
    /// The node already exists in the graph.
    NodeExists(EntityId),
    /// The edge does not exist.
    NoSuchEdge(EntityId, EntityId),
    /// The edge already exists.
    EdgeExists(EntityId, EntityId),
    /// Inserting this edge would create a cycle (transactions must maintain
    /// acyclicity).
    WouldCreateCycle(EntityId, EntityId),
    /// Deleting a node that still has incident edges.
    NodeHasEdges(EntityId),
    /// The entity id names no entity: it is at or above [`MAX_ENTITIES`],
    /// past what the engine's and the runtime's per-entity tables hold,
    /// or it is not a node and the universe never interned it, so no
    /// edge entity could be named after it.
    EntityOutOfRange(EntityId),
}

impl fmt::Display for DdagViolation {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        use DdagViolation::*;
        match self {
            UnknownTransaction(t) => write!(f, "{t} is not an active transaction"),
            AlreadyBegun(t) => write!(f, "{t} already began"),
            Relock(t, e) => write!(f, "L3: {t} already locked {e}"),
            PredecessorsNotLocked(t, e) => {
                write!(f, "L5: {t} has not locked all present predecessors of {e}")
            }
            NoHeldPredecessor(t, e) => {
                write!(f, "L5: {t} holds no lock on any present predecessor of {e}")
            }
            ReinsertionForbidden(e) => write!(f, "{e} was deleted and cannot be reinserted"),
            LockConflict(e, holder) => write!(f, "{e} is locked by {holder}"),
            NotHolding(t, e) => write!(f, "L1: {t} does not hold a lock on {e}"),
            NoSuchNode(e) => write!(f, "node {e} does not exist"),
            NodeExists(e) => write!(f, "node {e} already exists"),
            NoSuchEdge(a, b) => write!(f, "edge ({a}, {b}) does not exist"),
            EdgeExists(a, b) => write!(f, "edge ({a}, {b}) already exists"),
            WouldCreateCycle(a, b) => write!(f, "edge ({a}, {b}) would create a cycle"),
            NodeHasEdges(e) => write!(f, "node {e} still has incident edges"),
            EntityOutOfRange(e) => write!(
                f,
                "{e} names no entity (never interned, or at or above MAX_ENTITIES ({MAX_ENTITIES}))"
            ),
        }
    }
}

impl std::error::Error for DdagViolation {}

violation_from_tx_error!(DdagViolation);

/// Rule switches for ablation (experiment E7). The default enables all
/// rules — the policy the paper proves safe.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub struct DdagConfig {
    /// Enforce L5's "all present predecessors locked in the past".
    pub require_all_predecessors: bool,
    /// Enforce L5's "presently holding a lock on at least one predecessor".
    pub require_held_predecessor: bool,
}

impl Default for DdagConfig {
    fn default() -> Self {
        DdagConfig {
            require_all_predecessors: true,
            require_held_predecessor: true,
        }
    }
}

impl DdagConfig {
    /// The sound policy.
    pub fn strict() -> Self {
        Self::default()
    }

    /// Mutant: drop the "presently holding" clause of L5.
    pub fn without_held_predecessor_rule() -> Self {
        DdagConfig {
            require_held_predecessor: false,
            ..Self::default()
        }
    }

    /// Mutant: drop the "all predecessors locked in the past" clause of L5.
    pub fn without_all_predecessors_rule() -> Self {
        DdagConfig {
            require_all_predecessors: false,
            ..Self::default()
        }
    }
}

/// The DDAG part of a transaction's rule state; the table's
/// `locked_past` serves L3, L4 and L5's first clause, `holding` L5's
/// second.
#[derive(Clone, Debug, Default)]
struct DdagTx {
    /// Edge entities locked by this transaction, in lock order (released
    /// at finish).
    edge_locks: Vec<EntityId>,
}

/// The DDAG policy engine: shared graph + lock table + per-transaction rule
/// state. All locks are exclusive.
#[derive(Clone, Debug)]
pub struct DdagEngine {
    universe: Universe,
    graph: DiGraph,
    /// Always `DomIndex::build(&graph)`: rebuilt by the four structural
    /// mutations, under the same `&mut self` that changed the graph.
    index: DomIndex,
    txs: TxTable<DdagTx>,
    /// `deleted[i]`: `EntityId(i)` was deleted and may not come back.
    deleted: Vec<bool>,
    config: DdagConfig,
    edge_entities: BTreeMap<(EntityId, EntityId), EntityId>,
    edge_seq: u64,
}

impl DdagEngine {
    /// Creates an engine over an initial graph. The caller is responsible
    /// for the initial graph being a rooted DAG (checkable via
    /// [`DdagEngine::is_rooted_dag`]). Edge entities are allocated for all
    /// initial edges so they can be deleted later.
    pub fn new(universe: Universe, graph: DiGraph) -> Self {
        let mut engine = DdagEngine {
            universe,
            index: DomIndex::build(&graph),
            graph,
            txs: TxTable::default(),
            deleted: Vec::new(),
            config: DdagConfig::default(),
            edge_entities: BTreeMap::new(),
            edge_seq: 0,
        };
        let edges: Vec<(EntityId, EntityId)> = engine.graph.edges().collect();
        for (a, b) in edges {
            let e = engine.fresh_edge_entity(a, b);
            engine.edge_entities.insert((a, b), e);
        }
        engine
    }

    /// Interns a fresh entity name (e.g. for a node about to be inserted).
    pub fn intern(&mut self, name: &str) -> EntityId {
        self.universe.entity(name)
    }

    /// Creates an engine with explicit rule switches (for ablations).
    pub fn with_config(universe: Universe, graph: DiGraph, config: DdagConfig) -> Self {
        DdagEngine {
            config,
            ..Self::new(universe, graph)
        }
    }

    /// The current graph.
    pub fn graph(&self) -> &DiGraph {
        &self.graph
    }

    /// The universe (grows as edge entities are allocated).
    pub fn universe(&self) -> &Universe {
        &self.universe
    }

    /// The dominator-tree index of the current graph.
    pub fn dom_index(&self) -> &DomIndex {
        &self.index
    }

    /// Whether the current graph is a rooted DAG.
    pub fn is_rooted_dag(&self) -> bool {
        self.index.is_acyclic() && self.index.root().is_ok()
    }

    /// The holder of a lock on `n`, if any.
    pub fn lock_holder(&self, n: EntityId) -> Option<TxId> {
        self.txs.locks.holders(n).first().map(|&(t, _)| t)
    }

    /// Entities currently held by `tx` (nodes only), in id order.
    pub fn holding(&self, tx: TxId) -> Vec<EntityId> {
        self.txs.holding(tx)
    }

    /// Registers a new transaction.
    pub fn begin(&mut self, tx: TxId) -> Result<(), DdagViolation> {
        self.txs.begin(tx, || Ok(DdagTx::default())).map(|_| ())
    }

    fn was_deleted(&self, n: EntityId) -> bool {
        self.deleted.get(n.index()) == Some(&true)
    }

    fn mark_deleted(&mut self, n: EntityId) {
        if n.index() >= self.deleted.len() {
            self.deleted.resize(n.index() + 1, false);
        }
        self.deleted[n.index()] = true;
    }

    /// Checks whether `tx` may lock node `n` *right now* without acquiring
    /// it. Distinguishes policy violations (abort) from lock conflicts
    /// (wait) so a scheduler can queue rather than abort.
    pub fn check_lock(&self, tx: TxId, n: EntityId) -> Result<(), DdagViolation> {
        let st = self.txs.lockable(tx, n)?;
        if st.locked_past.contains(&n) {
            return Err(DdagViolation::Relock(tx, n));
        }
        if self.graph.has_node(n) {
            // L4: the first lock may be any node; afterwards L5 applies.
            if !st.locked_past.is_empty() {
                let preds = || self.graph.predecessors(n);
                if self.config.require_all_predecessors
                    && !preds().all(|p| st.locked_past.contains(&p))
                {
                    return Err(DdagViolation::PredecessorsNotLocked(tx, n));
                }
                if self.config.require_held_predecessor && !preds().any(|p| st.holding.contains(&p))
                {
                    return Err(DdagViolation::NoHeldPredecessor(tx, n));
                }
            }
        } else {
            // L2: a node being inserted can be locked at any time — but a
            // deleted entity may not come back, and one the universe never
            // interned has no name to build an edge entity from.
            if n.index() >= self.universe.len() {
                return Err(DdagViolation::EntityOutOfRange(n));
            }
            if self.was_deleted(n) {
                return Err(DdagViolation::ReinsertionForbidden(n));
            }
        }
        self.txs.free(tx, n, DdagViolation::LockConflict)
    }

    /// Locks node `n` for `tx` (exclusive). Emits the `(LX n)` step.
    pub fn lock(&mut self, tx: TxId, n: EntityId) -> Result<Step, DdagViolation> {
        self.check_lock(tx, n)?;
        Ok(self.txs.lock(tx, n))
    }

    /// Unlocks node `n`. Emits `(UX n)`.
    pub fn unlock(&mut self, tx: TxId, n: EntityId) -> Result<Step, DdagViolation> {
        if !self.txs.unlock(tx, n)? {
            return Err(DdagViolation::NotHolding(tx, n));
        }
        Ok(Step::unlock_exclusive(n))
    }

    /// `ACCESS` node `n`: a read immediately followed by a write (under the
    /// held lock, per L1). Emits `(R n)(W n)`.
    pub fn access(&mut self, tx: TxId, n: EntityId) -> Result<Vec<Step>, DdagViolation> {
        self.txs.get(tx)?.holds(n, DdagViolation::NotHolding)?;
        if !self.graph.has_node(n) {
            return Err(DdagViolation::NoSuchNode(n));
        }
        Ok(vec![Step::read(n), Step::write(n)])
    }

    /// `INSERT` node `n` (under the held lock). Emits `(I n)`.
    pub fn insert_node(&mut self, tx: TxId, n: EntityId) -> Result<Vec<Step>, DdagViolation> {
        self.txs.get(tx)?.holds(n, DdagViolation::NotHolding)?;
        if self.graph.has_node(n) {
            return Err(DdagViolation::NodeExists(n));
        }
        if self.was_deleted(n) {
            return Err(DdagViolation::ReinsertionForbidden(n));
        }
        self.graph.add_node(n).expect("checked absent");
        self.reindex();
        Ok(vec![Step::insert(n)])
    }

    /// `DELETE` node `n` (under the held lock; all incident edges must have
    /// been deleted first). Emits `(D n)`.
    pub fn delete_node(&mut self, tx: TxId, n: EntityId) -> Result<Vec<Step>, DdagViolation> {
        self.txs.get(tx)?.holds(n, DdagViolation::NotHolding)?;
        if !self.graph.has_node(n) {
            return Err(DdagViolation::NoSuchNode(n));
        }
        match self.graph.remove_node(n) {
            Ok(()) => {}
            Err(slp_graph::GraphError::NodeHasEdges(_)) => {
                return Err(DdagViolation::NodeHasEdges(n))
            }
            Err(_) => unreachable!("existence checked"),
        }
        self.reindex();
        self.mark_deleted(n);
        Ok(vec![Step::delete(n)])
    }

    /// The entity id standing for edge `(a, b)`, if it currently exists.
    pub fn edge_entity(&self, a: EntityId, b: EntityId) -> Option<EntityId> {
        self.edge_entities.get(&(a, b)).copied()
    }

    /// `INSERT` edge `(a, b)`: both endpoints must be held (L1), the edge
    /// must not exist, and it must not create a cycle. Emits
    /// `(LX e)(I e)` on a fresh edge entity `e` (released at finish).
    pub fn insert_edge(
        &mut self,
        tx: TxId,
        a: EntityId,
        b: EntityId,
    ) -> Result<Vec<Step>, DdagViolation> {
        let st = self.txs.get(tx)?;
        st.holds(a, DdagViolation::NotHolding)?;
        st.holds(b, DdagViolation::NotHolding)?;
        if !self.graph.has_node(a) {
            return Err(DdagViolation::NoSuchNode(a));
        }
        if !self.graph.has_node(b) {
            return Err(DdagViolation::NoSuchNode(b));
        }
        if self.graph.has_edge(a, b) {
            return Err(DdagViolation::EdgeExists(a, b));
        }
        if dag::would_create_cycle(&self.graph, a, b) {
            return Err(DdagViolation::WouldCreateCycle(a, b));
        }
        self.graph.add_edge(a, b).expect("checked");
        self.reindex();
        let e = self.fresh_edge_entity(a, b);
        self.edge_entities.insert((a, b), e);
        self.txs.get_mut(tx)?.rule.edge_locks.push(e);
        self.txs.locks.grant(tx, e, LockMode::Exclusive);
        Ok(vec![Step::lock_exclusive(e), Step::insert(e)])
    }

    /// `DELETE` edge `(a, b)`: both endpoints must be held (L1). Emits
    /// `(LX e)(D e)` (edge-entity lock released at finish), or just
    /// `(D e)` if this transaction inserted the edge itself.
    pub fn delete_edge(
        &mut self,
        tx: TxId,
        a: EntityId,
        b: EntityId,
    ) -> Result<Vec<Step>, DdagViolation> {
        let st = self.txs.get(tx)?;
        st.holds(a, DdagViolation::NotHolding)?;
        st.holds(b, DdagViolation::NotHolding)?;
        let Some(e) = self.edge_entities.get(&(a, b)).copied() else {
            return Err(DdagViolation::NoSuchEdge(a, b));
        };
        let mut steps = Vec::with_capacity(2);
        let already_holding = st.rule.edge_locks.contains(&e);
        if !already_holding {
            self.txs.free(tx, e, DdagViolation::LockConflict)?;
            self.txs.locks.grant(tx, e, LockMode::Exclusive);
            self.txs.get_mut(tx)?.rule.edge_locks.push(e);
            steps.push(Step::lock_exclusive(e));
        }
        self.graph.remove_edge(a, b).expect("edge tracked");
        self.reindex();
        self.edge_entities.remove(&(a, b));
        self.mark_deleted(e);
        steps.push(Step::delete(e));
        Ok(steps)
    }

    /// Finishes `tx`: releases every lock it still holds (nodes in id
    /// order, then edge entities in lock order) and retires it. Emits the
    /// unlock steps.
    pub fn finish(&mut self, tx: TxId) -> Result<Vec<Step>, DdagViolation> {
        let (st, mut steps) = self.txs.retire(tx)?;
        for e in st.edge_locks {
            self.txs.locks.release(tx, e, LockMode::Exclusive);
            steps.push(Step::unlock_exclusive(e));
        }
        Ok(steps)
    }

    /// Aborts `tx`: releases all locks without further structural changes.
    /// (Undo/recovery is outside the paper's model.) Emits unlock steps.
    pub fn abort(&mut self, tx: TxId) -> Vec<Step> {
        self.finish(tx).unwrap_or_default()
    }

    /// Brings the index back in line with a graph that just changed.
    fn reindex(&mut self) {
        self.index = DomIndex::build(&self.graph);
    }

    fn fresh_edge_entity(&mut self, a: EntityId, b: EntityId) -> EntityId {
        self.edge_seq += 1;
        let name = format!(
            "edge({},{})#{}",
            self.universe.name(a).to_owned(),
            self.universe.name(b).to_owned(),
            self.edge_seq
        );
        self.universe.entity(&name)
    }

    /// The rule switches this engine enforces.
    pub fn config(&self) -> DdagConfig {
        self.config
    }
}

// ---------------------------------------------------------------------
// The unified policy API
// ---------------------------------------------------------------------

use crate::api::{
    respond, AccessIntent, PolicyAction, PolicyEngine, PolicyResponse, PolicyViolation,
};

impl PolicyEngine for DdagEngine {
    fn name(&self) -> &'static str {
        match (
            self.config.require_all_predecessors,
            self.config.require_held_predecessor,
        ) {
            (true, true) => "DDAG",
            (true, false) => "DDAG-no-held-pred",
            (false, true) => "DDAG-no-all-preds",
            (false, false) => "DDAG-no-L5",
        }
    }

    fn begin(
        &mut self,
        tx: TxId,
        _intent: &AccessIntent,
    ) -> Result<Option<Vec<PolicyAction>>, PolicyViolation> {
        DdagEngine::begin(self, tx).map_err(PolicyViolation::Ddag)?;
        Ok(None)
    }

    fn request(&mut self, tx: TxId, action: PolicyAction) -> PolicyResponse {
        let result = match action {
            PolicyAction::Lock(n) => self.lock(tx, n).map(|s| vec![s]),
            PolicyAction::Unlock(n) => self.unlock(tx, n).map(|s| vec![s]),
            PolicyAction::Access(n) => self.access(tx, n),
            PolicyAction::InsertNode(n) => self.insert_node(tx, n),
            PolicyAction::DeleteNode(n) => self.delete_node(tx, n),
            PolicyAction::InsertEdge(a, b) => self.insert_edge(tx, a, b),
            PolicyAction::DeleteEdge(a, b) => self.delete_edge(tx, a, b),
            unsupported => {
                return PolicyResponse::Violation(PolicyViolation::Unsupported {
                    policy: PolicyEngine::name(self),
                    action: unsupported,
                })
            }
        };
        respond(result.map_err(PolicyViolation::Ddag))
    }

    fn finish(&mut self, tx: TxId) -> Result<Vec<Step>, PolicyViolation> {
        DdagEngine::finish(self, tx).map_err(PolicyViolation::Ddag)
    }

    fn abort(&mut self, tx: TxId) -> Vec<Step> {
        DdagEngine::abort(self, tx)
    }

    fn graph(&self) -> Option<&DiGraph> {
        Some(&self.graph)
    }

    fn dom_index(&self) -> Option<&DomIndex> {
        Some(&self.index)
    }

    fn intern_entity(&mut self, name: &str) -> Option<EntityId> {
        Some(self.universe.entity(name))
    }

    fn structural_entities(&self) -> Option<Vec<EntityId>> {
        let mut entities: Vec<EntityId> = self.graph.nodes().collect();
        entities.extend(self.edge_entities.values().copied());
        Some(entities)
    }

    fn as_any(&self) -> &dyn std::any::Any {
        self
    }

    fn as_any_mut(&mut self) -> &mut dyn std::any::Any {
        self
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// The Fig. 3 setting: chain 1 -> 2 -> 3 -> 4.
    fn fig3_engine() -> (DdagEngine, Vec<EntityId>) {
        let mut u = Universe::new();
        let ids = u.entities(["1", "2", "3", "4"]);
        let mut g = DiGraph::new();
        for &n in &ids {
            g.add_node(n).unwrap();
        }
        g.add_edge(ids[0], ids[1]).unwrap();
        g.add_edge(ids[1], ids[2]).unwrap();
        g.add_edge(ids[2], ids[3]).unwrap();
        (DdagEngine::new(u, g), ids)
    }

    fn t(i: u32) -> TxId {
        TxId(i)
    }

    #[test]
    fn engine_starts_rooted() {
        let (engine, _) = fig3_engine();
        assert!(engine.is_rooted_dag());
    }

    #[test]
    fn fig3_walkthrough_without_edge_insert() {
        let (mut eng, ids) = fig3_engine();
        let (n2, n3, n4) = (ids[1], ids[2], ids[3]);
        // T1 begins by locking node 2 (L4).
        eng.begin(t(1)).unwrap();
        eng.lock(t(1), n2).unwrap();
        // Then locks 3 and 4 (L5) ...
        eng.lock(t(1), n3).unwrap();
        eng.lock(t(1), n4).unwrap();
        // ... then unlocks 3.
        eng.unlock(t(1), n3).unwrap();
        // T2 begins by locking node 3.
        eng.begin(t(2)).unwrap();
        eng.lock(t(2), n3).unwrap();
        // T1 releases 4; T2 proceeds by locking 4.
        eng.unlock(t(1), n4).unwrap();
        eng.lock(t(2), n4).unwrap();
        assert_eq!(eng.holding(t(2)), vec![n3, n4]);
    }

    #[test]
    fn fig3_edge_insert_forces_t2_abort() {
        let (mut eng, ids) = fig3_engine();
        let (n2, n3, n4) = (ids[1], ids[2], ids[3]);
        eng.begin(t(1)).unwrap();
        eng.lock(t(1), n2).unwrap();
        eng.lock(t(1), n3).unwrap();
        eng.lock(t(1), n4).unwrap();
        eng.unlock(t(1), n3).unwrap();
        // T1 adds the edge (2, 4) while holding both 2 and 4 (L1).
        eng.insert_edge(t(1), n2, n4).unwrap();
        eng.begin(t(2)).unwrap();
        eng.lock(t(2), n3).unwrap();
        eng.unlock(t(1), n4).unwrap();
        // T2 cannot lock 4: node 2 is now a predecessor of 4 and T2 has not
        // locked it.
        assert_eq!(
            eng.check_lock(t(2), n4),
            Err(DdagViolation::PredecessorsNotLocked(t(2), n4))
        );
        // T2 must abort and start from node 2.
        let released = eng.abort(t(2));
        assert_eq!(released.len(), 1); // UX 3
                                       // The restarted T2 may begin at node 2 (L4) — but must wait for T1
                                       // to release its lock.
        eng.begin(t(3)).unwrap();
        assert_eq!(
            eng.check_lock(t(3), n2),
            Err(DdagViolation::LockConflict(n2, t(1)))
        );
        eng.finish(t(1)).unwrap();
        assert!(eng.lock(t(3), n2).is_ok());
    }

    #[test]
    fn l3_rejects_relock_even_after_unlock() {
        let (mut eng, ids) = fig3_engine();
        eng.begin(t(1)).unwrap();
        eng.lock(t(1), ids[1]).unwrap();
        eng.unlock(t(1), ids[1]).unwrap();
        assert_eq!(
            eng.check_lock(t(1), ids[1]),
            Err(DdagViolation::Relock(t(1), ids[1]))
        );
    }

    #[test]
    fn l5_requires_all_predecessors_locked_in_past() {
        let (mut eng, ids) = fig3_engine();
        eng.begin(t(1)).unwrap();
        eng.lock(t(1), ids[0]).unwrap();
        // Locking 3 (pred = 2, never locked) fails.
        assert_eq!(
            eng.check_lock(t(1), ids[2]),
            Err(DdagViolation::PredecessorsNotLocked(t(1), ids[2]))
        );
    }

    #[test]
    fn l5_requires_a_presently_held_predecessor() {
        let (mut eng, ids) = fig3_engine();
        eng.begin(t(1)).unwrap();
        eng.lock(t(1), ids[1]).unwrap(); // 2
        eng.lock(t(1), ids[2]).unwrap(); // 3
        eng.unlock(t(1), ids[2]).unwrap(); // release 3 (pred of 4)
        assert_eq!(
            eng.check_lock(t(1), ids[3]),
            Err(DdagViolation::NoHeldPredecessor(t(1), ids[3]))
        );
    }

    #[test]
    fn mutant_configs_disable_specific_clauses() {
        let (_, ids) = fig3_engine();
        let mk = |config| {
            let mut u = Universe::new();
            let ids2 = u.entities(["1", "2", "3", "4"]);
            assert_eq!(ids2, ids);
            let mut g = DiGraph::new();
            for &n in &ids2 {
                g.add_node(n).unwrap();
            }
            g.add_edge(ids2[0], ids2[1]).unwrap();
            g.add_edge(ids2[1], ids2[2]).unwrap();
            g.add_edge(ids2[2], ids2[3]).unwrap();
            DdagEngine::with_config(u, g, config)
        };
        // Without the held-predecessor rule the lock in the previous test
        // succeeds.
        let mut eng = mk(DdagConfig::without_held_predecessor_rule());
        eng.begin(t(1)).unwrap();
        eng.lock(t(1), ids[1]).unwrap();
        eng.lock(t(1), ids[2]).unwrap();
        eng.unlock(t(1), ids[2]).unwrap();
        assert!(eng.lock(t(1), ids[3]).is_ok());
        // Without the all-predecessors rule, jumping to 3 from 1 succeeds
        // as long as *a* predecessor is held... it is not (pred of 3 is 2),
        // so it still fails on the holding clause; jump from 2 to 4 works.
        let mut eng = mk(DdagConfig::without_all_predecessors_rule());
        eng.begin(t(2)).unwrap();
        eng.lock(t(2), ids[2]).unwrap(); // first lock: 3
        assert!(eng.lock(t(2), ids[3]).is_ok()); // 4: holds pred 3; "all" not required
    }

    #[test]
    fn insert_node_then_connect() {
        let (mut eng, ids) = fig3_engine();
        let n5 = eng.intern("5");
        eng.begin(t(1)).unwrap();
        eng.lock(t(1), ids[1]).unwrap();
        // L2: lock a node being inserted at any time.
        eng.lock(t(1), n5).unwrap();
        eng.insert_node(t(1), n5).unwrap();
        let steps = eng.insert_edge(t(1), ids[1], n5).unwrap();
        assert_eq!(steps.len(), 2);
        assert!(eng.graph().has_edge(ids[1], n5));
        // The graph remains a rooted DAG.
        assert!(eng.is_rooted_dag());
        let unlocks = eng.finish(t(1)).unwrap();
        assert_eq!(unlocks.len(), 3); // node 2, node 99, edge entity
    }

    #[test]
    fn index_follows_every_structural_mutation() {
        use slp_graph::Unrooted;
        let (mut eng, ids) = fig3_engine();
        let n5 = eng.intern("5");
        let fresh = |eng: &DdagEngine| DomIndex::build(eng.graph());
        assert_eq!(eng.dom_index().root(), Ok(ids[0]));
        eng.begin(t(1)).unwrap();
        eng.lock(t(1), ids[2]).unwrap();
        eng.lock(t(1), ids[3]).unwrap();
        eng.lock(t(1), n5).unwrap();
        eng.insert_node(t(1), n5).unwrap();
        // The unrooted window: 5 exists but nothing points at it yet.
        assert_eq!(
            eng.dom_index().root(),
            Err(Unrooted::SeveralRoots(ids[0], n5))
        );
        assert!(!eng.is_rooted_dag());
        eng.insert_edge(t(1), ids[2], n5).unwrap();
        assert_eq!(eng.dom_index(), &fresh(&eng));
        assert_eq!(eng.dom_index().idom(n5), Some(ids[2]));
        eng.insert_edge(t(1), ids[3], n5).unwrap();
        eng.delete_edge(t(1), ids[2], n5).unwrap();
        assert_eq!(eng.dom_index(), &fresh(&eng));
        assert_eq!(eng.dom_index().idom(n5), Some(ids[3]));
        eng.delete_edge(t(1), ids[3], n5).unwrap();
        eng.delete_node(t(1), n5).unwrap();
        assert_eq!(eng.dom_index(), &fresh(&eng));
        assert_eq!(eng.dom_index().depth(n5), None);
        assert!(eng.is_rooted_dag());
        assert_eq!(eng.clone().dom_index(), eng.dom_index());
    }

    #[test]
    fn deleted_nodes_cannot_return() {
        let (mut eng, ids) = fig3_engine();
        let n4 = ids[3];
        eng.begin(t(1)).unwrap();
        eng.lock(t(1), ids[2]).unwrap();
        eng.lock(t(1), n4).unwrap();
        eng.delete_edge(t(1), ids[2], n4).unwrap();
        eng.delete_node(t(1), n4).unwrap();
        eng.finish(t(1)).unwrap();
        eng.begin(t(2)).unwrap();
        assert_eq!(
            eng.check_lock(t(2), n4),
            Err(DdagViolation::ReinsertionForbidden(n4))
        );
    }

    #[test]
    fn delete_node_requires_no_incident_edges() {
        let (mut eng, ids) = fig3_engine();
        eng.begin(t(1)).unwrap();
        eng.lock(t(1), ids[2]).unwrap();
        eng.lock(t(1), ids[3]).unwrap();
        assert_eq!(
            eng.delete_node(t(1), ids[3]),
            Err(DdagViolation::NodeHasEdges(ids[3]))
        );
    }

    #[test]
    fn edge_insert_rejects_cycles() {
        let (mut eng, ids) = fig3_engine();
        eng.begin(t(1)).unwrap();
        eng.lock(t(1), ids[1]).unwrap();
        eng.lock(t(1), ids[2]).unwrap();
        eng.lock(t(1), ids[3]).unwrap();
        assert_eq!(
            eng.insert_edge(t(1), ids[3], ids[1]),
            Err(DdagViolation::WouldCreateCycle(ids[3], ids[1]))
        );
    }

    #[test]
    fn access_requires_lock_and_existence() {
        let (mut eng, ids) = fig3_engine();
        eng.begin(t(1)).unwrap();
        assert_eq!(
            eng.access(t(1), ids[1]),
            Err(DdagViolation::NotHolding(t(1), ids[1]))
        );
        eng.lock(t(1), ids[1]).unwrap();
        assert_eq!(
            eng.access(t(1), ids[1]),
            Ok(vec![Step::read(ids[1]), Step::write(ids[1])])
        );
    }

    #[test]
    fn lock_conflicts_are_reported_not_policy_errors() {
        let (mut eng, ids) = fig3_engine();
        eng.begin(t(1)).unwrap();
        eng.begin(t(2)).unwrap();
        eng.lock(t(1), ids[1]).unwrap();
        assert_eq!(
            eng.check_lock(t(2), ids[1]),
            Err(DdagViolation::LockConflict(ids[1], t(1)))
        );
        assert_eq!(eng.lock_holder(ids[1]), Some(t(1)));
    }

    #[test]
    fn same_transaction_can_delete_its_own_inserted_edge() {
        let (mut eng, ids) = fig3_engine();
        eng.begin(t(1)).unwrap();
        eng.lock(t(1), ids[1]).unwrap();
        eng.lock(t(1), ids[2]).unwrap();
        eng.lock(t(1), ids[3]).unwrap();
        // Delete the existing edge (2,3) and reinsert a fresh (2,3)? No —
        // reinsertion uses a fresh entity, so it is allowed.
        eng.delete_edge(t(1), ids[1], ids[2]).unwrap();
        let steps = eng.insert_edge(t(1), ids[1], ids[2]).unwrap();
        assert_eq!(steps.len(), 2);
        // And delete its own fresh edge without a second lock step.
        let steps = eng.delete_edge(t(1), ids[1], ids[2]).unwrap();
        assert_eq!(
            steps.len(),
            1,
            "no relock of the edge entity it already holds"
        );
    }

    /// The rule state is unsorted, but every way out of it is in id
    /// order: `holding()`, and the unlocks `finish` and `abort` emit
    /// (nodes ascending, then edge entities in lock order).
    #[test]
    fn held_nodes_leave_in_ascending_id_order() {
        // Ids run against the edges: a (3) -> b (2) -> c (1) -> d (0).
        let mut u = Universe::new();
        let [d, c, b, a] = u.entities(["d", "c", "b", "a"])[..] else {
            unreachable!()
        };
        let g = DiGraph::from_parts([a, b, c, d], [(a, b), (b, c), (c, d)]);
        let mut eng = DdagEngine::new(u, g);
        eng.begin(t(1)).unwrap();
        for n in [a, b, c] {
            eng.lock(t(1), n).unwrap();
        }
        let edge = eng.insert_edge(t(1), a, c).unwrap()[0].entity;
        eng.unlock(t(1), b).unwrap();
        eng.lock(t(1), d).unwrap();
        assert_eq!(eng.holding(t(1)), vec![d, c, a]);
        assert_eq!(
            eng.finish(t(1)).unwrap(),
            [d, c, a, edge].map(Step::unlock_exclusive).to_vec()
        );
        eng.begin(t(2)).unwrap();
        for n in [a, b, c] {
            eng.lock(t(2), n).unwrap();
        }
        eng.unlock(t(2), b).unwrap();
        assert_eq!(eng.holding(t(2)), vec![c, a]);
        assert_eq!(eng.abort(t(2)), [c, a].map(Step::unlock_exclusive).to_vec());
        assert!(eng.holding(t(2)).is_empty());
    }

    /// An id at or above `MAX_ENTITIES` is refused, fatally, before any
    /// table is sized by it — also as a node being inserted (L2), which
    /// may otherwise be locked at any time.
    #[test]
    fn a_lock_past_max_entities_is_a_fatal_violation() {
        let (mut eng, ids) = fig3_engine();
        let past = EntityId(MAX_ENTITIES);
        let tx = t(1);
        PolicyEngine::begin(&mut eng, tx, &AccessIntent::empty()).unwrap();
        assert!(matches!(
            eng.request(tx, PolicyAction::Lock(ids[1])),
            PolicyResponse::Granted(_)
        ));
        match eng.request(tx, PolicyAction::Lock(past)) {
            PolicyResponse::Violation(v) => assert!(v.is_fatal(), "{v}"),
            other => panic!("a lock on {past} was not refused: {other:?}"),
        }
        assert_eq!(eng.lock_holder(past), None);
        assert_eq!(eng.holding(tx), vec![ids[1]]);
        assert_eq!(
            eng.check_lock(tx, past),
            Err(DdagViolation::EntityOutOfRange(past))
        );
    }

    /// A node being inserted must still be an interned entity: an id
    /// past the universe is refused at its lock, fatally, before any edge
    /// entity is named after it.
    #[test]
    fn a_lock_on_an_id_the_universe_never_interned_is_a_fatal_violation() {
        let (mut eng, ids) = fig3_engine();
        let stray = EntityId(eng.universe().len() as u32);
        let tx = t(1);
        PolicyEngine::begin(&mut eng, tx, &AccessIntent::empty()).unwrap();
        assert!(matches!(
            eng.request(tx, PolicyAction::Lock(ids[1])),
            PolicyResponse::Granted(_)
        ));
        assert_eq!(
            eng.check_lock(tx, stray),
            Err(DdagViolation::EntityOutOfRange(stray))
        );
        match eng.request(tx, PolicyAction::Lock(stray)) {
            PolicyResponse::Violation(v) => assert!(v.is_fatal(), "{v}"),
            other => panic!("a lock on {stray} was not refused: {other:?}"),
        }
        assert_eq!(eng.lock_holder(stray), None);
        assert_eq!(eng.holding(tx), vec![ids[1]]);
    }

    #[test]
    fn begin_twice_fails() {
        let (mut eng, _) = fig3_engine();
        eng.begin(t(1)).unwrap();
        assert_eq!(eng.begin(t(1)), Err(DdagViolation::AlreadyBegun(t(1))));
    }
}
