//! Property-based tests for the graph substrate: dominators against the
//! path-enumeration definition, reachability duality, forest invariants.

use proptest::prelude::*;
use safe_locking::core::EntityId;
use safe_locking::graph::{dag, dominators, forest::Forest, reach, rooted, DiGraph};
use std::collections::BTreeSet;

/// Generates a random *layered* DAG description: `widths[i]` nodes in
/// layer i, and for each non-root node a nonempty set of parents drawn
/// from the previous layer. Layered construction guarantees acyclicity
/// and rootedness by construction.
fn arb_layered_dag() -> impl Strategy<Value = (DiGraph, EntityId)> {
    (1usize..4, 1usize..4, any::<u64>()).prop_map(|(layers, width, seed)| {
        // Simple deterministic pseudo-random expansion from the seed.
        let mut state = seed | 1;
        let mut next = move |bound: usize| {
            state = state
                .wrapping_mul(6364136223846793005)
                .wrapping_add(1442695040888963407);
            ((state >> 33) as usize) % bound.max(1)
        };
        let mut g = DiGraph::new();
        let root = EntityId(0);
        g.add_node(root).unwrap();
        let mut prev = vec![root];
        let mut id = 1u32;
        for _ in 0..layers {
            let mut this = Vec::new();
            for _ in 0..width {
                let n = EntityId(id);
                id += 1;
                g.add_node(n).unwrap();
                let parents = 1 + next(prev.len());
                let mut choices: Vec<EntityId> = prev.clone();
                while choices.len() > parents {
                    let i = next(choices.len());
                    choices.swap_remove(i);
                }
                for p in choices {
                    g.add_edge(p, n).unwrap();
                }
                this.push(n);
            }
            prev = this;
        }
        (g, root)
    })
}

/// All simple paths from `from` to `to`.
fn all_paths(g: &DiGraph, from: EntityId, to: EntityId) -> Vec<Vec<EntityId>> {
    fn rec(
        g: &DiGraph,
        cur: EntityId,
        to: EntityId,
        path: &mut Vec<EntityId>,
        out: &mut Vec<Vec<EntityId>>,
    ) {
        path.push(cur);
        if cur == to {
            out.push(path.clone());
        } else {
            for s in g.successors(cur) {
                if !path.contains(&s) {
                    rec(g, s, to, path, out);
                }
            }
        }
        path.pop();
    }
    let mut out = Vec::new();
    rec(g, from, to, &mut Vec::new(), &mut out);
    out
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    #[test]
    fn layered_dags_are_rooted_and_acyclic((g, root) in arb_layered_dag()) {
        prop_assert!(dag::is_acyclic(&g));
        prop_assert_eq!(rooted::root(&g), Some(root));
    }

    #[test]
    fn dominators_match_path_enumeration((g, root) in arb_layered_dag()) {
        let dom = dominators::dominator_sets(&g, root);
        for w in g.nodes() {
            let paths = all_paths(&g, root, w);
            prop_assert!(!paths.is_empty(), "every node reachable from the root");
            for d in g.nodes() {
                let by_paths = paths.iter().all(|p| p.contains(&d));
                let by_dataflow = dom[&w].contains(&d);
                prop_assert_eq!(by_paths, by_dataflow, "dominates({}, {})", d, w);
            }
        }
    }

    #[test]
    fn ancestors_and_descendants_are_dual((g, _root) in arb_layered_dag()) {
        for a in g.nodes() {
            for b in g.nodes() {
                let a_anc_of_b = reach::descendants(&g, a).contains(&b);
                let b_desc_of_a = reach::ancestors(&g, b).contains(&a);
                prop_assert_eq!(a_anc_of_b, b_desc_of_a);
            }
        }
    }

    #[test]
    fn topological_sort_respects_every_edge((g, _root) in arb_layered_dag()) {
        let order = dag::topological_sort(&g).expect("acyclic");
        let pos = |n: EntityId| order.iter().position(|&x| x == n).unwrap();
        for (a, b) in g.edges() {
            prop_assert!(pos(a) < pos(b), "edge ({a}, {b}) out of order");
        }
    }

    #[test]
    fn root_dominates_every_node((g, root) in arb_layered_dag()) {
        let dom = dominators::dominator_sets(&g, root);
        for n in g.nodes() {
            prop_assert!(dom[&n].contains(&root));
            prop_assert!(dom[&n].contains(&n));
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(128))]

    /// Arbitrary digraphs — cycles, self-loops, several roots, nodes the
    /// start does not reach — from an arbitrary start node: the
    /// dominator-tree answers equal the set-based definition.
    #[test]
    fn dominator_tree_queries_match_dominator_sets(
        n in 1u32..8,
        edges in prop::collection::vec((0u32..8, 0u32..8), 0..20),
        top in 0u32..8,
    ) {
        let mut g = DiGraph::new();
        for i in 0..n {
            g.add_node(EntityId(i)).unwrap();
        }
        for (a, b) in edges {
            let _ = g.add_edge(EntityId(a % n), EntityId(b % n));
        }
        let top = EntityId(top);
        let sets = dominators::dominator_sets(&g, top);
        let nodes: Vec<EntityId> = g.nodes().collect();
        for w in (0..n + 1).map(EntityId) {
            let doms: Vec<EntityId> = (0..n + 1)
                .map(EntityId)
                .filter(|&d| dominators::dominates(&g, top, d, w))
                .collect();
            match sets.get(&w) {
                Some(set) => prop_assert_eq!(&doms, &set.iter().copied().collect::<Vec<_>>()),
                None => prop_assert_eq!(doms.len(), n as usize + 1, "vacuous when unreachable"),
            }
            prop_assert_eq!(
                dominators::dominates_all(&g, top, w, nodes.iter()),
                nodes.iter().all(|x| sets.get(x).is_none_or(|s| s.contains(&w)))
            );
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    #[test]
    fn forest_operations_maintain_forest_shape(
        ops in prop::collection::vec((0u8..4, 0u32..24, 0u32..24), 0..80)
    ) {
        let mut f = Forest::new();
        for (kind, a, b) in ops {
            let (ea, eb) = (EntityId(a), EntityId(b));
            match kind {
                0 => { let _ = f.add_root(ea); }
                1 => { let _ = f.add_child(ea, eb); }
                2 => { let _ = f.join(ea, eb); }
                _ => { let _ = f.remove(ea); }
            }
            // Invariants: every node has a root; paths terminate; roots
            // have no parent.
            for n in f.nodes().collect::<Vec<_>>() {
                let root = f.root_of(n).expect("every node in some tree");
                prop_assert!(f.parent(root).is_none());
                let path = f.path_from_root(n).expect("path exists");
                prop_assert_eq!(path[0], root);
                prop_assert_eq!(*path.last().unwrap(), n);
                // No duplicates in the path (no cycles).
                let set: BTreeSet<_> = path.iter().copied().collect();
                prop_assert_eq!(set.len(), path.len());
            }
        }
    }

    #[test]
    fn lca_is_a_common_ancestor_and_deepest(
        ops in prop::collection::vec((0u8..3, 0u32..16, 0u32..16), 0..40)
    ) {
        let mut f = Forest::new();
        for (kind, a, b) in ops {
            let (ea, eb) = (EntityId(a), EntityId(b));
            match kind {
                0 => { let _ = f.add_root(ea); }
                1 => { let _ = f.add_child(ea, eb); }
                _ => { let _ = f.join(ea, eb); }
            }
        }
        let nodes: Vec<EntityId> = f.nodes().collect();
        for &a in &nodes {
            for &b in &nodes {
                match f.lca(a, b) {
                    Some(l) => {
                        prop_assert!(f.is_ancestor(l, a));
                        prop_assert!(f.is_ancestor(l, b));
                        // Deepest: no child of l is an ancestor of both.
                        for c in f.children(l) {
                            prop_assert!(!(f.is_ancestor(c, a) && f.is_ancestor(c, b)));
                        }
                    }
                    None => prop_assert!(f.root_of(a) != f.root_of(b)
                        || f.root_of(a).is_none()),
                }
            }
        }
    }
}
