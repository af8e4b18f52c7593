//! Dominators (Section 4).
//!
//! "A *dominator* `D` of a set of nodes `W` is a node such that every path
//! from the root to a node in `W` passes through `D`. Thus, in a rooted
//! graph, the root dominates all the nodes in the graph including itself."
//!
//! Lemma 3(a) — the key structural property of DDAG-locked transactions —
//! says every entity locked by a transaction is dominated (in the graph as
//! of the transaction's start) by the first entity it locked. The safety
//! proof, the policy validator, and the property tests all consult this
//! module.
//!
//! Queries go through the dominator tree of [`crate::DomIndex`];
//! [`dominator_sets`] is the definition spelled out as a dataflow fixpoint
//! and is kept as the oracle the index is tested against.

use crate::digraph::DiGraph;
use crate::dom_index::DomIndex;
use slp_core::EntityId;
use std::collections::{BTreeMap, BTreeSet};

/// The dominator sets of every node reachable from `root`: `dom(n)` is the
/// set of nodes through which *every* path from `root` to `n` passes
/// (including `n` and `root` themselves).
///
/// Classic iterative dataflow: `dom(root) = {root}`,
/// `dom(n) = {n} ∪ ⋂_{p ∈ preds(n)} dom(p)`, iterated to fixpoint — a
/// whole-graph computation over sets, for tests and one-off inspection.
/// Code that asks repeatedly builds a [`DomIndex`] once instead.
pub fn dominator_sets(g: &DiGraph, root: EntityId) -> BTreeMap<EntityId, BTreeSet<EntityId>> {
    let reachable = crate::reach::reachable_from(g, root);
    let mut dom: BTreeMap<EntityId, BTreeSet<EntityId>> = BTreeMap::new();
    if reachable.is_empty() {
        return dom;
    }
    let all: BTreeSet<EntityId> = reachable.iter().copied().collect();
    for &n in &reachable {
        if n == root {
            dom.insert(n, BTreeSet::from([root]));
        } else {
            dom.insert(n, all.clone());
        }
    }
    let mut changed = true;
    while changed {
        changed = false;
        for &n in &reachable {
            if n == root {
                continue;
            }
            let mut new: Option<BTreeSet<EntityId>> = None;
            for p in g.predecessors(n) {
                if !reachable.contains(&p) {
                    continue;
                }
                let pd = &dom[&p];
                new = Some(match new {
                    None => pd.clone(),
                    Some(acc) => acc.intersection(pd).copied().collect(),
                });
            }
            let mut new = new.unwrap_or_default();
            new.insert(n);
            if dom[&n] != new {
                dom.insert(n, new);
                changed = true;
            }
        }
    }
    dom
}

/// Whether `d` dominates node `w` with respect to `root`: every path from
/// `root` to `w` passes through `d`. If `w` is unreachable from `root`
/// there are no such paths and the condition holds vacuously — callers in
/// the DDAG policy only ask about reachable nodes of a rooted graph.
pub fn dominates(g: &DiGraph, root: EntityId, d: EntityId, w: EntityId) -> bool {
    DomIndex::hung_from(g, root).dominates(d, w)
}

/// Whether `d` dominates *every* node in `ws`.
pub fn dominates_all<'a>(
    g: &DiGraph,
    root: EntityId,
    d: EntityId,
    ws: impl IntoIterator<Item = &'a EntityId>,
) -> bool {
    let index = DomIndex::hung_from(g, root);
    ws.into_iter().all(|&w| index.dominates(d, w))
}

#[cfg(test)]
mod tests {
    use super::*;

    fn e(i: u32) -> EntityId {
        EntityId(i)
    }

    /// Diamond: 1 -> {2, 3} -> 4, plus 4 -> 5.
    fn diamond_tail() -> DiGraph {
        DiGraph::from_parts(
            [e(1), e(2), e(3), e(4), e(5)],
            [
                (e(1), e(2)),
                (e(1), e(3)),
                (e(2), e(4)),
                (e(3), e(4)),
                (e(4), e(5)),
            ],
        )
    }

    #[test]
    fn root_dominates_everything_including_itself() {
        let g = diamond_tail();
        for n in [1, 2, 3, 4, 5] {
            assert!(dominates(&g, e(1), e(1), e(n)), "root should dominate e{n}");
        }
    }

    #[test]
    fn every_node_dominates_itself() {
        let g = diamond_tail();
        for n in [1, 2, 3, 4, 5] {
            assert!(dominates(&g, e(1), e(n), e(n)));
        }
    }

    #[test]
    fn diamond_arms_do_not_dominate_join() {
        let g = diamond_tail();
        assert!(!dominates(&g, e(1), e(2), e(4)));
        assert!(!dominates(&g, e(1), e(3), e(4)));
        // But the join dominates the tail.
        assert!(dominates(&g, e(1), e(4), e(5)));
    }

    #[test]
    fn dominator_sets_match_hand_computation() {
        let g = diamond_tail();
        let dom = dominator_sets(&g, e(1));
        assert_eq!(dom[&e(4)], BTreeSet::from([e(1), e(4)]));
        assert_eq!(dom[&e(5)], BTreeSet::from([e(1), e(4), e(5)]));
        assert_eq!(dom[&e(2)], BTreeSet::from([e(1), e(2)]));
    }

    #[test]
    fn dominates_all_over_a_set() {
        let g = diamond_tail();
        let ws = [e(4), e(5)];
        assert!(dominates_all(&g, e(1), e(4), ws.iter()));
        assert!(!dominates_all(&g, e(1), e(2), ws.iter()));
    }

    #[test]
    fn chain_dominators() {
        let g = DiGraph::from_parts([e(1), e(2), e(3)], [(e(1), e(2)), (e(2), e(3))]);
        assert!(dominates(&g, e(1), e(2), e(3)));
        assert!(!dominates(&g, e(1), e(3), e(2)));
    }

    #[test]
    fn unreachable_node_is_vacuously_dominated() {
        let g = DiGraph::from_parts([e(1), e(2), e(9)], [(e(1), e(2))]);
        assert!(dominates(&g, e(1), e(2), e(9)));
    }

    /// Brute-force check on a small fixed graph: enumerate all simple paths
    /// from the root and verify the dataflow answer agrees with the
    /// path-based definition.
    #[test]
    fn dataflow_agrees_with_path_enumeration() {
        let g = DiGraph::from_parts(
            [e(0), e(1), e(2), e(3), e(4)],
            [
                (e(0), e(1)),
                (e(0), e(2)),
                (e(1), e(3)),
                (e(2), e(3)),
                (e(1), e(4)),
                (e(3), e(4)),
            ],
        );
        fn all_paths(
            g: &DiGraph,
            from: EntityId,
            to: EntityId,
            path: &mut Vec<EntityId>,
            out: &mut Vec<Vec<EntityId>>,
        ) {
            path.push(from);
            if from == to {
                out.push(path.clone());
            } else {
                for s in g.successors(from) {
                    if !path.contains(&s) {
                        all_paths(g, s, to, path, out);
                    }
                }
            }
            path.pop();
        }
        let dom = dominator_sets(&g, e(0));
        for w in g.nodes() {
            let mut paths = Vec::new();
            all_paths(&g, e(0), w, &mut Vec::new(), &mut paths);
            for d in g.nodes() {
                let by_paths = !paths.is_empty() && paths.iter().all(|p| p.contains(&d));
                let by_dataflow = dom[&w].contains(&d);
                assert_eq!(by_paths, by_dataflow, "dominates({d}, {w}) mismatch");
            }
        }
    }
}
