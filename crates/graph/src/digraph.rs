//! A mutable directed graph over entity ids.
//!
//! The DDAG policy's database is "a rooted DAG representation `G`" whose
//! nodes *and edges* are entities; transactions insert and delete both.
//! This type is the mutable structure the policy engines maintain; the
//! invariants (acyclicity, rootedness) are checked by the [`crate::dag`]
//! and [`crate::rooted`] modules rather than enforced here, because the
//! paper's transactions are themselves responsible for maintaining them.

use slp_core::EntityId;
use std::fmt;

/// Errors from graph mutations.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum GraphError {
    /// The node already exists.
    NodeExists(EntityId),
    /// The node does not exist.
    NoSuchNode(EntityId),
    /// The edge already exists.
    EdgeExists(EntityId, EntityId),
    /// The edge does not exist.
    NoSuchEdge(EntityId, EntityId),
    /// Removing this node would orphan incident edges.
    NodeHasEdges(EntityId),
}

impl fmt::Display for GraphError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            GraphError::NodeExists(n) => write!(f, "node {n} already exists"),
            GraphError::NoSuchNode(n) => write!(f, "node {n} does not exist"),
            GraphError::EdgeExists(a, b) => write!(f, "edge ({a}, {b}) already exists"),
            GraphError::NoSuchEdge(a, b) => write!(f, "edge ({a}, {b}) does not exist"),
            GraphError::NodeHasEdges(n) => write!(f, "node {n} still has incident edges"),
        }
    }
}

impl std::error::Error for GraphError {}

/// A directed graph with deterministic iteration order, stored flat by
/// entity id: a node flag per id plus each node's successors and
/// predecessors as sorted `Vec`s.
///
/// Every query is an index into those vectors, so the tables are as long
/// as the largest id the graph has held — ids are expected to be interned
/// by a [`slp_core::Universe`] (dense). The adjacency vectors grow only
/// when an edge needs them, so a node with a large id costs one flag per
/// id below it. Equality compares nodes and edges, not storage.
#[derive(Clone, Default)]
pub struct DiGraph {
    /// `is_node[i]`: whether `EntityId(i)` is a node. Never ends in
    /// `false`, so its length is one more than the largest node id.
    is_node: Vec<bool>,
    /// Sorted successors per id; ids past the end have none.
    succ: Vec<Vec<EntityId>>,
    /// Sorted predecessors per id, mirroring `succ`.
    pred: Vec<Vec<EntityId>>,
    node_count: usize,
    edge_count: usize,
}

impl PartialEq for DiGraph {
    fn eq(&self, other: &Self) -> bool {
        self.is_node == other.is_node
            && self.edge_count == other.edge_count
            && self.nodes().all(|n| self.succ_of(n) == other.succ_of(n))
    }
}

impl Eq for DiGraph {}

impl fmt::Debug for DiGraph {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("DiGraph")
            .field("nodes", &self.nodes().collect::<Vec<_>>())
            .field("edges", &self.edges().collect::<Vec<_>>())
            .finish()
    }
}

/// Inserts `x` into the sorted `v`; `false` if it was already there.
fn insert_sorted(v: &mut Vec<EntityId>, x: EntityId) -> bool {
    match v.binary_search(&x) {
        Ok(_) => false,
        Err(i) => {
            v.insert(i, x);
            true
        }
    }
}

/// Removes `x` from the sorted `v`; `false` if it was not there.
fn remove_sorted(v: &mut Vec<EntityId>, x: EntityId) -> bool {
    match v.binary_search(&x) {
        Ok(i) => {
            v.remove(i);
            true
        }
        Err(_) => false,
    }
}

impl DiGraph {
    /// An empty graph.
    pub fn new() -> Self {
        Self::default()
    }

    /// A graph from node and edge lists.
    ///
    /// # Panics
    ///
    /// Panics if an edge references an undeclared node or duplicates occur.
    pub fn from_parts(
        nodes: impl IntoIterator<Item = EntityId>,
        edges: impl IntoIterator<Item = (EntityId, EntityId)>,
    ) -> Self {
        let mut g = Self::new();
        for n in nodes {
            g.add_node(n).expect("duplicate node");
        }
        for (a, b) in edges {
            g.add_edge(a, b).expect("bad edge");
        }
        g
    }

    fn succ_of(&self, n: EntityId) -> &[EntityId] {
        self.succ.get(n.index()).map_or(&[], Vec::as_slice)
    }

    fn pred_of(&self, n: EntityId) -> &[EntityId] {
        self.pred.get(n.index()).map_or(&[], Vec::as_slice)
    }

    /// One more than the largest node id (0 for an empty graph): the
    /// length a per-entity table needs to cover every node.
    pub(crate) fn id_bound(&self) -> usize {
        self.is_node.len()
    }

    /// Adds a node.
    pub fn add_node(&mut self, n: EntityId) -> Result<(), GraphError> {
        if self.has_node(n) {
            return Err(GraphError::NodeExists(n));
        }
        if n.index() >= self.is_node.len() {
            self.is_node.resize(n.index() + 1, false);
        }
        self.is_node[n.index()] = true;
        self.node_count += 1;
        Ok(())
    }

    /// Removes a node; all incident edges must have been removed first.
    pub fn remove_node(&mut self, n: EntityId) -> Result<(), GraphError> {
        if !self.has_node(n) {
            return Err(GraphError::NoSuchNode(n));
        }
        if !self.succ_of(n).is_empty() || !self.pred_of(n).is_empty() {
            return Err(GraphError::NodeHasEdges(n));
        }
        self.is_node[n.index()] = false;
        while self.is_node.last() == Some(&false) {
            self.is_node.pop();
        }
        self.node_count -= 1;
        Ok(())
    }

    /// Adds the edge `(a, b)`.
    pub fn add_edge(&mut self, a: EntityId, b: EntityId) -> Result<(), GraphError> {
        if !self.has_node(a) {
            return Err(GraphError::NoSuchNode(a));
        }
        if !self.has_node(b) {
            return Err(GraphError::NoSuchNode(b));
        }
        let reach = a.index().max(b.index()) + 1;
        if self.succ.len() < reach {
            self.succ.resize_with(reach, Vec::new);
            self.pred.resize_with(reach, Vec::new);
        }
        if !insert_sorted(&mut self.succ[a.index()], b) {
            return Err(GraphError::EdgeExists(a, b));
        }
        insert_sorted(&mut self.pred[b.index()], a);
        self.edge_count += 1;
        Ok(())
    }

    /// Removes the edge `(a, b)`.
    pub fn remove_edge(&mut self, a: EntityId, b: EntityId) -> Result<(), GraphError> {
        let present = self
            .succ
            .get_mut(a.index())
            .is_some_and(|s| remove_sorted(s, b));
        if !present {
            return Err(GraphError::NoSuchEdge(a, b));
        }
        remove_sorted(&mut self.pred[b.index()], a);
        self.edge_count -= 1;
        Ok(())
    }

    /// Whether node `n` exists.
    pub fn has_node(&self, n: EntityId) -> bool {
        self.is_node.get(n.index()) == Some(&true)
    }

    /// Whether edge `(a, b)` exists.
    pub fn has_edge(&self, a: EntityId, b: EntityId) -> bool {
        self.succ_of(a).binary_search(&b).is_ok()
    }

    /// The nodes, in id order.
    pub fn nodes(&self) -> impl Iterator<Item = EntityId> + '_ {
        self.is_node
            .iter()
            .enumerate()
            .filter(|&(_, &is)| is)
            .map(|(i, _)| EntityId(i as u32))
    }

    /// Number of nodes.
    pub fn node_count(&self) -> usize {
        self.node_count
    }

    /// All edges, in id order.
    pub fn edges(&self) -> impl Iterator<Item = (EntityId, EntityId)> + '_ {
        self.nodes()
            .flat_map(|a| self.succ_of(a).iter().map(move |&b| (a, b)))
    }

    /// Number of edges.
    pub fn edge_count(&self) -> usize {
        self.edge_count
    }

    /// Successors of `n`, in id order (empty if absent).
    pub fn successors(&self, n: EntityId) -> impl Iterator<Item = EntityId> + '_ {
        self.succ_of(n).iter().copied()
    }

    /// Predecessors of `n`, in id order (empty if absent).
    pub fn predecessors(&self, n: EntityId) -> impl Iterator<Item = EntityId> + '_ {
        self.pred_of(n).iter().copied()
    }

    /// In-degree of `n`.
    pub fn in_degree(&self, n: EntityId) -> usize {
        self.pred_of(n).len()
    }

    /// Out-degree of `n`.
    pub fn out_degree(&self, n: EntityId) -> usize {
        self.succ_of(n).len()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn e(i: u32) -> EntityId {
        EntityId(i)
    }

    #[test]
    fn add_and_query_nodes_and_edges() {
        let mut g = DiGraph::new();
        g.add_node(e(1)).unwrap();
        g.add_node(e(2)).unwrap();
        g.add_edge(e(1), e(2)).unwrap();
        assert!(g.has_node(e(1)));
        assert!(g.has_edge(e(1), e(2)));
        assert!(!g.has_edge(e(2), e(1)));
        assert_eq!(g.node_count(), 2);
        assert_eq!(g.edge_count(), 1);
        assert_eq!(g.successors(e(1)).collect::<Vec<_>>(), vec![e(2)]);
        assert_eq!(g.predecessors(e(2)).collect::<Vec<_>>(), vec![e(1)]);
    }

    #[test]
    fn duplicate_nodes_and_edges_are_rejected() {
        let mut g = DiGraph::new();
        g.add_node(e(1)).unwrap();
        assert_eq!(g.add_node(e(1)), Err(GraphError::NodeExists(e(1))));
        g.add_node(e(2)).unwrap();
        g.add_edge(e(1), e(2)).unwrap();
        assert_eq!(
            g.add_edge(e(1), e(2)),
            Err(GraphError::EdgeExists(e(1), e(2)))
        );
    }

    #[test]
    fn edges_require_existing_endpoints() {
        let mut g = DiGraph::new();
        g.add_node(e(1)).unwrap();
        assert_eq!(g.add_edge(e(1), e(9)), Err(GraphError::NoSuchNode(e(9))));
        assert_eq!(g.add_edge(e(9), e(1)), Err(GraphError::NoSuchNode(e(9))));
    }

    #[test]
    fn node_removal_requires_no_incident_edges() {
        let mut g = DiGraph::from_parts([e(1), e(2)], [(e(1), e(2))]);
        assert_eq!(g.remove_node(e(1)), Err(GraphError::NodeHasEdges(e(1))));
        assert_eq!(g.remove_node(e(2)), Err(GraphError::NodeHasEdges(e(2))));
        g.remove_edge(e(1), e(2)).unwrap();
        assert!(g.remove_node(e(1)).is_ok());
        assert!(g.remove_node(e(2)).is_ok());
        assert_eq!(g.node_count(), 0);
    }

    #[test]
    fn remove_missing_edge_errors() {
        let mut g = DiGraph::from_parts([e(1), e(2)], []);
        assert_eq!(
            g.remove_edge(e(1), e(2)),
            Err(GraphError::NoSuchEdge(e(1), e(2)))
        );
    }

    #[test]
    fn degrees() {
        let g = DiGraph::from_parts(
            [e(1), e(2), e(3)],
            [(e(1), e(2)), (e(1), e(3)), (e(2), e(3))],
        );
        assert_eq!(g.out_degree(e(1)), 2);
        assert_eq!(g.in_degree(e(3)), 2);
        assert_eq!(g.in_degree(e(1)), 0);
        assert_eq!(g.edges().count(), 3);
    }

    #[test]
    fn iteration_is_deterministic() {
        let g = DiGraph::from_parts([e(3), e(1), e(2)], [(e(3), e(1)), (e(2), e(1))]);
        assert_eq!(g.nodes().collect::<Vec<_>>(), vec![e(1), e(2), e(3)]);
        assert_eq!(
            g.edges().collect::<Vec<_>>(),
            vec![(e(2), e(1)), (e(3), e(1))]
        );
    }
}
