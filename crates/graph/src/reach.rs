//! Reachability queries: descendants, ancestors, and path existence.

use crate::digraph::DiGraph;
use slp_core::EntityId;
use std::collections::BTreeSet;

/// All nodes reachable from `start` by following edges forward, including
/// `start` itself (if present in the graph).
pub fn reachable_from(g: &DiGraph, start: EntityId) -> BTreeSet<EntityId> {
    let mut seen = BTreeSet::new();
    if !g.has_node(start) {
        return seen;
    }
    let mut stack = vec![start];
    while let Some(n) = stack.pop() {
        if seen.insert(n) {
            stack.extend(g.successors(n));
        }
    }
    seen
}

/// All descendants of `n` (nodes reachable via at least one edge).
pub fn descendants(g: &DiGraph, n: EntityId) -> BTreeSet<EntityId> {
    let mut d = reachable_from(g, n);
    d.remove(&n);
    d
}

/// All ancestors of `n` (nodes from which `n` is reachable via at least one
/// edge).
pub fn ancestors(g: &DiGraph, n: EntityId) -> BTreeSet<EntityId> {
    let mut seen = BTreeSet::new();
    if !g.has_node(n) {
        return seen;
    }
    let mut stack = vec![n];
    while let Some(m) = stack.pop() {
        if seen.insert(m) {
            stack.extend(g.predecessors(m));
        }
    }
    seen.remove(&n);
    seen
}

/// Whether there is a (possibly empty) path from `a` to `b`. The search
/// stops at the first sight of `b`.
pub fn has_path(g: &DiGraph, a: EntityId, b: EntityId) -> bool {
    if !g.has_node(a) {
        return false;
    }
    let mut seen = vec![false; g.id_bound()];
    seen[a.index()] = true;
    let mut stack = vec![a];
    while let Some(n) = stack.pop() {
        if n == b {
            return true;
        }
        for m in g.successors(n) {
            if !seen[m.index()] {
                seen[m.index()] = true;
                stack.push(m);
            }
        }
    }
    false
}

/// Whether `a` is a *proper* ancestor of `b` (a ≠ b and a path exists).
pub fn is_proper_ancestor(g: &DiGraph, a: EntityId, b: EntityId) -> bool {
    a != b && has_path(g, a, b)
}

/// Whether `a` and `b` are comparable (one reaches the other).
pub fn comparable(g: &DiGraph, a: EntityId, b: EntityId) -> bool {
    has_path(g, a, b) || has_path(g, b, a)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn e(i: u32) -> EntityId {
        EntityId(i)
    }

    /// Diamond: 1 -> 2, 1 -> 3, 2 -> 4, 3 -> 4.
    fn diamond() -> DiGraph {
        DiGraph::from_parts(
            [e(1), e(2), e(3), e(4)],
            [(e(1), e(2)), (e(1), e(3)), (e(2), e(4)), (e(3), e(4))],
        )
    }

    #[test]
    fn reachability_includes_start() {
        let g = diamond();
        let r = reachable_from(&g, e(2));
        assert_eq!(r, BTreeSet::from([e(2), e(4)]));
    }

    #[test]
    fn descendants_excludes_self() {
        let g = diamond();
        assert_eq!(descendants(&g, e(1)), BTreeSet::from([e(2), e(3), e(4)]));
        assert_eq!(descendants(&g, e(4)), BTreeSet::new());
    }

    #[test]
    fn ancestors_excludes_self() {
        let g = diamond();
        assert_eq!(ancestors(&g, e(4)), BTreeSet::from([e(1), e(2), e(3)]));
        assert_eq!(ancestors(&g, e(1)), BTreeSet::new());
    }

    #[test]
    fn paths_and_comparability() {
        let g = diamond();
        assert!(has_path(&g, e(1), e(4)));
        assert!(has_path(&g, e(1), e(1)));
        assert!(!has_path(&g, e(2), e(3)));
        assert!(is_proper_ancestor(&g, e(1), e(4)));
        assert!(!is_proper_ancestor(&g, e(1), e(1)));
        assert!(comparable(&g, e(4), e(1)));
        assert!(!comparable(&g, e(2), e(3)));
    }

    #[test]
    fn absent_nodes_reach_nothing() {
        let g = diamond();
        assert!(reachable_from(&g, e(9)).is_empty());
        assert!(ancestors(&g, e(9)).is_empty());
        assert!(!has_path(&g, e(9), e(1)));
    }
}
