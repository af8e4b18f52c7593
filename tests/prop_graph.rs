//! Property-based tests for the graph substrate: the dense `DiGraph`
//! against a BTree reference model, dominators against the
//! path-enumeration definition, reachability duality, forest invariants.

use proptest::prelude::*;
use safe_locking::core::EntityId;
use safe_locking::graph::{dag, dominators, forest::Forest, reach, rooted, DiGraph, GraphError};
use std::collections::{BTreeMap, BTreeSet};

/// The reference digraph: a node set and successor / predecessor sets in
/// BTrees, with `DiGraph`'s error rules.
#[derive(Default)]
struct Model {
    nodes: BTreeSet<EntityId>,
    succ: BTreeMap<EntityId, BTreeSet<EntityId>>,
    pred: BTreeMap<EntityId, BTreeSet<EntityId>>,
}

impl Model {
    fn succ(&self, n: EntityId) -> Vec<EntityId> {
        self.succ.get(&n).into_iter().flatten().copied().collect()
    }

    fn pred(&self, n: EntityId) -> Vec<EntityId> {
        self.pred.get(&n).into_iter().flatten().copied().collect()
    }

    fn edges(&self) -> Vec<(EntityId, EntityId)> {
        let pairs = self
            .succ
            .iter()
            .flat_map(|(&a, s)| s.iter().map(move |&b| (a, b)));
        pairs.collect()
    }

    fn add_node(&mut self, n: EntityId) -> Result<(), GraphError> {
        self.nodes
            .insert(n)
            .then_some(())
            .ok_or(GraphError::NodeExists(n))
    }

    fn remove_node(&mut self, n: EntityId) -> Result<(), GraphError> {
        if !self.nodes.contains(&n) {
            return Err(GraphError::NoSuchNode(n));
        }
        if !self.succ(n).is_empty() || !self.pred(n).is_empty() {
            return Err(GraphError::NodeHasEdges(n));
        }
        self.nodes.remove(&n);
        Ok(())
    }

    fn add_edge(&mut self, a: EntityId, b: EntityId) -> Result<(), GraphError> {
        for n in [a, b] {
            if !self.nodes.contains(&n) {
                return Err(GraphError::NoSuchNode(n));
            }
        }
        if !self.succ.entry(a).or_default().insert(b) {
            return Err(GraphError::EdgeExists(a, b));
        }
        self.pred.entry(b).or_default().insert(a);
        Ok(())
    }

    fn remove_edge(&mut self, a: EntityId, b: EntityId) -> Result<(), GraphError> {
        if !self.succ.get_mut(&a).is_some_and(|s| s.remove(&b)) {
            return Err(GraphError::NoSuchEdge(a, b));
        }
        self.pred.get_mut(&b).unwrap().remove(&a);
        Ok(())
    }

    /// Kahn's algorithm over a BTree in-degree map: sources pushed in id
    /// order, the last pushed ready node taken next.
    fn topological_sort(&self) -> Option<Vec<EntityId>> {
        let mut indegree: BTreeMap<EntityId, usize> = self
            .nodes
            .iter()
            .map(|&n| (n, self.pred(n).len()))
            .collect();
        let mut ready: Vec<EntityId> = indegree
            .iter()
            .filter(|&(_, &d)| d == 0)
            .map(|(&n, _)| n)
            .collect();
        let mut order = Vec::new();
        while let Some(n) = ready.pop() {
            order.push(n);
            for m in self.succ(n) {
                let d = indegree.get_mut(&m).unwrap();
                *d -= 1;
                if *d == 0 {
                    ready.push(m);
                }
            }
        }
        (order.len() == self.nodes.len()).then_some(order)
    }
}

/// Ids the model test draws from: eleven small ones and one far away, so
/// the dense tables grow past nodes that are later removed.
const MODEL_IDS: [u32; 12] = [0, 1, 2, 3, 4, 5, 6, 7, 8, 9, 10, 40];

/// Every observation of `g` equals the model's.
fn assert_matches_model(g: &DiGraph, m: &Model) {
    prop_assert_eq!(
        g.nodes().collect::<Vec<_>>(),
        m.nodes.iter().copied().collect::<Vec<_>>()
    );
    prop_assert_eq!(g.edges().collect::<Vec<_>>(), m.edges());
    prop_assert_eq!(g.node_count(), m.nodes.len());
    prop_assert_eq!(g.edge_count(), m.edges().len());
    for a in MODEL_IDS.map(EntityId) {
        prop_assert_eq!(g.has_node(a), m.nodes.contains(&a));
        prop_assert_eq!(g.successors(a).collect::<Vec<_>>(), m.succ(a));
        prop_assert_eq!(g.predecessors(a).collect::<Vec<_>>(), m.pred(a));
        prop_assert_eq!(g.out_degree(a), m.succ(a).len());
        prop_assert_eq!(g.in_degree(a), m.pred(a).len());
        for b in MODEL_IDS.map(EntityId) {
            prop_assert_eq!(g.has_edge(a, b), m.succ(a).contains(&b));
        }
    }
    prop_assert_eq!(dag::topological_sort(g), m.topological_sort());
}

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

    /// Random add/remove node/edge sequences on the dense graph and the
    /// BTree model: the same result for every mutation, the same answer
    /// to every query after it, and equality by content — a graph rebuilt
    /// from scratch (another history, other storage) compares equal, and
    /// a mutation compares unequal exactly when it succeeded.
    #[test]
    fn dense_digraph_matches_the_btree_model(
        ops in prop::collection::vec((0u8..4, 0usize..12, 0usize..12), 0..80)
    ) {
        let (mut g, mut m) = (DiGraph::new(), Model::default());
        for (kind, a, b) in ops {
            let (a, b) = (EntityId(MODEL_IDS[a]), EntityId(MODEL_IDS[b]));
            let before = g.clone();
            let (dense, model) = match kind {
                0 => (g.add_node(a), m.add_node(a)),
                1 => (g.remove_node(a), m.remove_node(a)),
                2 => (g.add_edge(a, b), m.add_edge(a, b)),
                _ => (g.remove_edge(a, b), m.remove_edge(a, b)),
            };
            prop_assert_eq!(dense, model);
            prop_assert_eq!(before == g, dense.is_err());
            assert_matches_model(&g, &m);
        }
        let rebuilt = DiGraph::from_parts(m.nodes.iter().rev().copied(), m.edges().into_iter().rev());
        prop_assert_eq!(&rebuilt, &g);
        prop_assert_eq!(format!("{rebuilt:?}"), format!("{g:?}"));
    }

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
