//! Acyclicity checks and topological sorting for [`DiGraph`]s.

use crate::digraph::DiGraph;
use slp_core::EntityId;

/// Whether the graph is acyclic.
pub fn is_acyclic(g: &DiGraph) -> bool {
    topological_sort(g).is_some()
}

/// A topological sort of the nodes, or `None` if the graph has a cycle.
///
/// Kahn's algorithm with a stack of ready nodes: the sources are pushed in
/// id order, a node's successors are visited in id order and pushed as
/// their in-degree reaches zero, and the next node is always the one
/// pushed last. The order is part of the contract — a [`crate::DomIndex`]
/// ranks by it, and the DDAG planner locks in rank order.
pub fn topological_sort(g: &DiGraph) -> Option<Vec<EntityId>> {
    let mut indegree = vec![0; g.id_bound()];
    let mut ready = Vec::new();
    for n in g.nodes() {
        indegree[n.index()] = g.in_degree(n);
        if indegree[n.index()] == 0 {
            ready.push(n);
        }
    }
    let mut order = Vec::with_capacity(g.node_count());
    while let Some(n) = ready.pop() {
        order.push(n);
        for m in g.successors(n) {
            let d = &mut indegree[m.index()];
            *d -= 1;
            if *d == 0 {
                ready.push(m);
            }
        }
    }
    (order.len() == g.node_count()).then_some(order)
}

/// Whether adding the edge `(a, b)` would create a cycle (i.e. `b` already
/// reaches `a`). `a == b` always creates a (self-)cycle.
pub fn would_create_cycle(g: &DiGraph, a: EntityId, b: EntityId) -> bool {
    a == b || crate::reach::has_path(g, b, a)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn e(i: u32) -> EntityId {
        EntityId(i)
    }

    #[test]
    fn dag_is_acyclic_and_sorts() {
        let g = DiGraph::from_parts(
            [e(1), e(2), e(3)],
            [(e(1), e(2)), (e(2), e(3)), (e(1), e(3))],
        );
        assert!(is_acyclic(&g));
        let order = topological_sort(&g).unwrap();
        let pos = |n: EntityId| order.iter().position(|&x| x == n).unwrap();
        assert!(pos(e(1)) < pos(e(2)));
        assert!(pos(e(2)) < pos(e(3)));
    }

    /// The order is a stack over sources in id order: the last pushed
    /// ready node comes next, so the largest source goes first.
    #[test]
    fn sort_order_is_pinned() {
        let g = DiGraph::from_parts(
            [e(1), e(2), e(3), e(4), e(5)],
            [(e(1), e(3)), (e(2), e(3)), (e(1), e(4)), (e(3), e(5))],
        );
        assert_eq!(
            topological_sort(&g),
            Some(vec![e(2), e(1), e(4), e(3), e(5)])
        );
    }

    #[test]
    fn cycle_is_detected() {
        let g = DiGraph::from_parts([e(1), e(2)], [(e(1), e(2)), (e(2), e(1))]);
        assert!(!is_acyclic(&g));
        assert_eq!(topological_sort(&g), None);
    }

    #[test]
    fn would_create_cycle_checks() {
        let g = DiGraph::from_parts([e(1), e(2), e(3)], [(e(1), e(2)), (e(2), e(3))]);
        assert!(would_create_cycle(&g, e(3), e(1)));
        assert!(would_create_cycle(&g, e(1), e(1)));
        assert!(!would_create_cycle(&g, e(1), e(3)));
        assert!(would_create_cycle(&g, e(3), e(2)));
    }

    #[test]
    fn empty_graph_is_acyclic() {
        let g = DiGraph::new();
        assert!(is_acyclic(&g));
        assert_eq!(topological_sort(&g), Some(vec![]));
    }
}
