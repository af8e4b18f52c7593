//! A dense dominator-tree index over a [`DiGraph`].
//!
//! [`crate::dominators::dominator_sets`] answers "who dominates `w`" with
//! a map of sets recomputed from the whole graph. A planner that asks the
//! question for every job only needs three numbers per node — its
//! *immediate* dominator, its depth in the dominator tree and its
//! topological rank — and those change only when the graph does. A
//! [`DomIndex`] holds exactly that, in `Vec`s keyed by
//! [`EntityId::index`], so it is built once per structural mutation and
//! every query afterwards is a walk up the `idom` chain:
//!
//! * `d` dominates `w` iff `d` is on `w`'s chain
//!   ([`DomIndex::dominates`]);
//! * the lowest common dominator of two nodes is where their chains meet
//!   ([`DomIndex::lowest_common_dominator`], a depth walk);
//! * a predecessor-closed region is laid out in lock order by sorting it
//!   on rank ([`DomIndex::predecessor_region`]).
//!
//! Ids are expected to be interned by a [`slp_core::Universe`] (dense):
//! the vectors are as long as the largest node id.

use crate::digraph::DiGraph;
use crate::{dag, rooted};
use slp_core::EntityId;
use std::fmt;

const NONE: u32 = u32::MAX;

/// Why a graph has no root (Section 4: a unique node without predecessors
/// that reaches every node).
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum Unrooted {
    /// No node is without predecessors (the graph is empty, or every node
    /// sits on or below a cycle).
    NoRoot,
    /// At least two nodes have no predecessors; these are the two with
    /// the smallest ids. A node inserted but not yet connected by its
    /// edge puts the graph here.
    SeveralRoots(EntityId, EntityId),
    /// One node has no predecessors but does not reach this node (only
    /// possible when the graph has a cycle).
    Unreachable(EntityId),
}

impl fmt::Display for Unrooted {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Unrooted::NoRoot => write!(f, "no node is without predecessors"),
            Unrooted::SeveralRoots(a, b) => write!(f, "{a} and {b} both have no predecessors"),
            Unrooted::Unreachable(n) => write!(f, "{n} is unreachable from the only root"),
        }
    }
}

impl std::error::Error for Unrooted {}

/// Immediate dominator, dominator-tree depth and topological rank of
/// every node, plus the root (or why there is none).
///
/// The index is a snapshot: whoever owns the graph rebuilds it
/// ([`DomIndex::build`]) after every mutation. Two indices of equal
/// graphs are equal.
#[derive(Clone, PartialEq, Eq, Debug)]
pub struct DomIndex {
    root: Result<EntityId, Unrooted>,
    acyclic: bool,
    /// Immediate dominator; `NONE` for the tree's top, for nodes it does
    /// not reach and for ids that are not nodes.
    idom: Vec<u32>,
    /// Depth in the dominator tree; `NONE` for nodes the tree's top does
    /// not reach and for ids that are not nodes.
    depth: Vec<u32>,
    /// Position in [`dag::topological_sort`]'s order; `NONE` for ids that
    /// are not nodes, and everywhere if the graph has a cycle.
    rank: Vec<u32>,
}

impl DomIndex {
    /// Indexes `g` from its own root. Without a root only
    /// [`DomIndex::rank`] and [`DomIndex::is_acyclic`] carry information.
    pub fn build(g: &DiGraph) -> DomIndex {
        match rooted::roots(g)[..] {
            [r] => Self::hung_from(g, r),
            [] => Self::ranked(g, Unrooted::NoRoot).0,
            [a, b, ..] => Self::ranked(g, Unrooted::SeveralRoots(a, b)).0,
        }
    }

    /// The rank half of the index alone — no dominator tree, `why` as the
    /// root verdict — and the topological order it was ranked by.
    fn ranked(g: &DiGraph, why: Unrooted) -> (DomIndex, Option<Vec<EntityId>>) {
        let bound = g.id_bound();
        let mut rank = vec![NONE; bound];
        let order = dag::topological_sort(g);
        for (i, n) in order.iter().flatten().enumerate() {
            rank[n.index()] = i as u32;
        }
        let index = DomIndex {
            root: Err(why),
            acyclic: order.is_some(),
            idom: vec![NONE; bound],
            depth: vec![NONE; bound],
            rank,
        };
        (index, order)
    }

    /// Indexes the part of `g` reachable from `top`, which need not be the
    /// graph's root ([`crate::dominators::dominates`] takes any start
    /// node). [`DomIndex::root`] still reports whether `top` *is* the root.
    pub(crate) fn hung_from(g: &DiGraph, top: EntityId) -> DomIndex {
        let (mut index, order) = Self::ranked(g, Unrooted::NoRoot);
        if !g.has_node(top) {
            return index;
        }
        let DomIndex { idom, depth, .. } = &mut index;
        // Cooper–Harvey–Kennedy: idom(n) is where the chains of n's
        // reached predecessors meet. In topological order every
        // predecessor is final before its successors are visited, so one
        // pass is exact; a cyclic graph takes reverse postorder and
        // repeats to a fixpoint.
        let acyclic = order.is_some();
        let sequence = order.unwrap_or_else(|| reverse_postorder(g, top, idom.len()));
        let mut number = vec![NONE; idom.len()];
        for (i, n) in sequence.iter().enumerate() {
            number[n.index()] = i as u32;
        }
        loop {
            let mut changed = false;
            for &n in sequence.iter().filter(|&&n| n != top) {
                let mut meet = NONE;
                for p in g.predecessors(n) {
                    if p == top || idom[p.index()] != NONE {
                        meet = match meet {
                            NONE => p.0,
                            m => intersect(idom, &number, m, p.0),
                        };
                    }
                }
                if idom[n.index()] != meet {
                    idom[n.index()] = meet;
                    changed = true;
                }
            }
            if acyclic || !changed {
                break;
            }
        }
        // Both sequences put a dominator before the nodes it dominates.
        depth[top.index()] = 0;
        for &n in &sequence {
            let dom = idom[n.index()];
            if dom != NONE {
                depth[n.index()] = depth[dom as usize] + 1;
            }
        }
        index.root = match g.nodes().find(|n| index.depth[n.index()] == NONE) {
            Some(n) => Err(Unrooted::Unreachable(n)),
            None if g.in_degree(top) > 0 => Err(Unrooted::NoRoot),
            None => Ok(top),
        };
        index
    }

    /// The graph's root, or why it has none.
    pub fn root(&self) -> Result<EntityId, Unrooted> {
        self.root
    }

    /// Whether the graph is acyclic.
    pub fn is_acyclic(&self) -> bool {
        self.acyclic
    }

    /// One more than the largest node id: the length a per-entity table
    /// needs to cover every node.
    fn bound(&self) -> usize {
        self.rank.len()
    }

    fn get(table: &[u32], n: EntityId) -> Option<u32> {
        table.get(n.index()).copied().filter(|&v| v != NONE)
    }

    /// The immediate dominator of `n`: the closest node, other than `n`,
    /// on every path from the root to `n`. `None` for the root itself, for
    /// unreachable nodes and for non-nodes.
    pub fn idom(&self, n: EntityId) -> Option<EntityId> {
        Self::get(&self.idom, n).map(EntityId)
    }

    /// How many proper dominators `n` has (the root has none); `None` if
    /// `n` is unreachable or not a node.
    pub fn depth(&self, n: EntityId) -> Option<u32> {
        Self::get(&self.depth, n)
    }

    /// The position of `n` in [`dag::topological_sort`]'s order; `None` if
    /// `n` is not a node or the graph has a cycle.
    pub fn rank(&self, n: EntityId) -> Option<u32> {
        Self::get(&self.rank, n)
    }

    /// The dominators of `n`, from `n` itself up to the root; empty if `n`
    /// is unreachable or not a node.
    pub fn dominators(&self, n: EntityId) -> impl Iterator<Item = EntityId> + '_ {
        let first = self.depth(n).map(|_| n);
        std::iter::successors(first, |&m| self.idom(m))
    }

    /// Whether every path from the root to `w` passes through `d`.
    /// Vacuously true when there is no such path (`w` unreachable or not
    /// a node), as in [`crate::dominators::dominates`].
    pub fn dominates(&self, d: EntityId, w: EntityId) -> bool {
        let Some(w_depth) = self.depth(w) else {
            return true;
        };
        match self.depth(d) {
            Some(d_depth) if d_depth <= w_depth => {
                self.dominators(w).nth((w_depth - d_depth) as usize) == Some(d)
            }
            _ => false,
        }
    }

    /// The deepest node dominating both `a` and `b`: where their dominator
    /// chains meet. `None` if either is unreachable or not a node.
    pub fn lowest_common_dominator(&self, a: EntityId, b: EntityId) -> Option<EntityId> {
        let (mut a, mut b) = (a, b);
        let (mut a_depth, mut b_depth) = (self.depth(a)?, self.depth(b)?);
        while a != b {
            // Lift the deeper side (`a`, after the swap). Two distinct
            // reached nodes are not both the top, so the deeper one has
            // an immediate dominator.
            if a_depth < b_depth {
                std::mem::swap(&mut a, &mut b);
                std::mem::swap(&mut a_depth, &mut b_depth);
            }
            a = self.idom(a)?;
            a_depth -= 1;
        }
        Some(a)
    }

    /// Collects into `scratch` the predecessor closure of `seeds` in `g`,
    /// in topological-rank order: every seed, every predecessor of a
    /// collected node, and so on up. The climb is cut at `stop`, which is
    /// collected but whose own predecessors are not followed — pass the
    /// seeds' common dominator and the result is the region a DDAG
    /// transaction starting there must lock (no path into the region
    /// avoids `stop`, so the closure cannot leak around it).
    ///
    /// `g` must be the graph this index was built from, acyclic, and every
    /// seed (and `stop`) one of its nodes.
    pub fn predecessor_region(
        &self,
        g: &DiGraph,
        seeds: &[EntityId],
        stop: Option<EntityId>,
        scratch: &mut RegionScratch,
    ) {
        scratch.begin(self.bound());
        for &n in stop.iter().chain(seeds) {
            scratch.collect(n);
        }
        let mut next = 0;
        while let Some(&n) = scratch.order.get(next) {
            next += 1;
            if Some(n) != stop {
                for p in g.predecessors(n) {
                    scratch.collect(p);
                }
            }
        }
        scratch.order.sort_unstable_by_key(|n| self.rank[n.index()]);
        for (i, n) in scratch.order.iter().enumerate() {
            scratch.pos[n.index()] = i as u32;
        }
    }
}

/// The meet of two dominator chains while they are still being computed:
/// lift whichever side is later in the processing order until they agree.
fn intersect(idom: &[u32], number: &[u32], mut a: u32, mut b: u32) -> u32 {
    while a != b {
        while number[a as usize] > number[b as usize] {
            a = idom[a as usize];
        }
        while number[b as usize] > number[a as usize] {
            b = idom[b as usize];
        }
    }
    a
}

/// The nodes reachable from `top`, in reverse DFS postorder.
fn reverse_postorder(g: &DiGraph, top: EntityId, bound: usize) -> Vec<EntityId> {
    let mut entered = vec![false; bound];
    let mut postorder = Vec::new();
    // Each entered node with its not-yet-followed successors.
    let mut stack = vec![(top, g.successors(top))];
    entered[top.index()] = true;
    while let Some((n, successors)) = stack.last_mut() {
        match successors.find(|s| !entered[s.index()]) {
            Some(s) => {
                entered[s.index()] = true;
                stack.push((s, g.successors(s)));
            }
            None => {
                postorder.push(*n);
                stack.pop();
            }
        }
    }
    postorder.reverse();
    postorder
}

/// Reusable buffers for [`DomIndex::predecessor_region`]: a planner keeps
/// one and lays out every job's region in it, so planning allocates
/// nothing per job once the buffers have grown to the graph's size.
#[derive(Clone, Debug, Default)]
pub struct RegionScratch {
    /// Bumped per region; `stamp[n] == epoch` marks `n` as collected.
    epoch: u32,
    stamp: Vec<u32>,
    /// Index into `order`, valid for collected nodes.
    pos: Vec<u32>,
    order: Vec<EntityId>,
}

impl RegionScratch {
    fn begin(&mut self, bound: usize) {
        if self.stamp.len() < bound {
            self.stamp.resize(bound, 0);
            self.pos.resize(bound, 0);
        }
        if self.epoch == u32::MAX {
            self.stamp.fill(0);
            self.epoch = 0;
        }
        self.epoch += 1;
        self.order.clear();
    }

    fn collect(&mut self, n: EntityId) {
        if self.stamp[n.index()] != self.epoch {
            self.stamp[n.index()] = self.epoch;
            self.order.push(n);
        }
    }

    /// The last region laid out, in topological-rank order.
    pub fn order(&self) -> &[EntityId] {
        &self.order
    }

    /// Where `n` sits in [`RegionScratch::order`], if it is in the region.
    pub fn position(&self, n: EntityId) -> Option<usize> {
        (self.stamp.get(n.index()) == Some(&self.epoch)).then(|| self.pos[n.index()] as usize)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::dominators::dominator_sets;
    use std::collections::BTreeSet;

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

    /// Every chain of `index` against the set-based oracle from `top`.
    fn assert_matches_oracle(g: &DiGraph, index: &DomIndex, top: EntityId) {
        let sets = dominator_sets(g, top);
        for id in 0..index.bound() as u32 + 1 {
            let chain: BTreeSet<EntityId> = index.dominators(e(id)).collect();
            let oracle = sets.get(&e(id)).cloned().unwrap_or_default();
            assert_eq!(chain, oracle, "dominators of {} from {top}", e(id));
            assert_eq!(
                index.depth(e(id)).map(|d| d as usize + 1),
                sets.get(&e(id)).map(BTreeSet::len)
            );
        }
    }

    #[test]
    fn diamond_tree_depths_and_ranks() {
        let g = diamond_tail();
        let index = DomIndex::build(&g);
        assert_eq!(index.root(), Ok(e(1)));
        assert!(index.is_acyclic());
        assert_eq!(index.idom(e(1)), None);
        assert_eq!(
            index.idom(e(4)),
            Some(e(1)),
            "neither arm dominates the join"
        );
        assert_eq!(index.idom(e(5)), Some(e(4)));
        assert_eq!(index.depth(e(5)), Some(2));
        assert_eq!(index.bound(), 6);
        assert_eq!(index.depth(e(0)), None, "id 0 is not a node");
        assert_eq!(index.rank(e(9)), None);
        let order = dag::topological_sort(&g).unwrap();
        for (i, &n) in order.iter().enumerate() {
            assert_eq!(index.rank(n), Some(i as u32));
        }
        assert_matches_oracle(&g, &index, e(1));
    }

    #[test]
    fn lowest_common_dominator_is_where_chains_meet() {
        let index = DomIndex::build(&diamond_tail());
        assert_eq!(index.lowest_common_dominator(e(2), e(3)), Some(e(1)));
        assert_eq!(index.lowest_common_dominator(e(5), e(4)), Some(e(4)));
        assert_eq!(index.lowest_common_dominator(e(2), e(5)), Some(e(1)));
        assert_eq!(index.lowest_common_dominator(e(3), e(3)), Some(e(3)));
        assert_eq!(index.lowest_common_dominator(e(3), e(9)), None);
        assert!(index.dominates(e(4), e(5)));
        assert!(!index.dominates(e(2), e(4)));
        assert!(!index.dominates(e(5), e(4)));
        assert!(index.dominates(e(2), e(9)), "vacuous for a non-node");
        assert!(!index.dominates(e(9), e(2)));
    }

    #[test]
    fn the_reason_for_no_root_is_reported() {
        assert_eq!(
            DomIndex::build(&DiGraph::new()).root(),
            Err(Unrooted::NoRoot)
        );
        // A node inserted but not yet connected is a second root.
        let mut g = diamond_tail();
        g.add_node(e(7)).unwrap();
        let index = DomIndex::build(&g);
        assert_eq!(index.root(), Err(Unrooted::SeveralRoots(e(1), e(7))));
        assert!(index.is_acyclic());
        assert!(
            index.rank(e(7)).is_some(),
            "ranks survive the unrooted window"
        );
        g.add_edge(e(5), e(7)).unwrap();
        assert_eq!(DomIndex::build(&g).root(), Ok(e(1)));
        // 1 -> 2 beside the cycle 3 <-> 4: one source, two nodes it misses.
        let g = DiGraph::from_parts(
            [e(1), e(2), e(3), e(4)],
            [(e(1), e(2)), (e(3), e(4)), (e(4), e(3))],
        );
        let index = DomIndex::build(&g);
        assert_eq!(index.root(), Err(Unrooted::Unreachable(e(3))));
        assert!(!index.is_acyclic());
        assert_eq!(index.rank(e(1)), None, "no topological order to rank by");
    }

    #[test]
    fn cyclic_graphs_reach_the_fixpoint() {
        // The irreducible loop 2 <-> 3 entered from both sides, a back edge
        // to the top, and a tail: every dominator set is {0, n} except 5's.
        let g = DiGraph::from_parts(
            [e(0), e(1), e(2), e(3), e(4), e(5)],
            [
                (e(0), e(1)),
                (e(0), e(2)),
                (e(1), e(3)),
                (e(2), e(3)),
                (e(3), e(2)),
                (e(3), e(4)),
                (e(4), e(0)),
                (e(4), e(5)),
            ],
        );
        let index = DomIndex::hung_from(&g, e(0));
        assert!(!index.is_acyclic());
        assert_eq!(
            index.root(),
            Err(Unrooted::NoRoot),
            "the top has a predecessor"
        );
        assert_eq!(index.idom(e(2)), Some(e(0)));
        assert_eq!(index.idom(e(4)), Some(e(3)));
        assert_matches_oracle(&g, &index, e(0));
        // Hung from inside the loop, the rest of the graph is below it.
        assert_matches_oracle(&g, &DomIndex::hung_from(&g, e(3)), e(3));
    }

    #[test]
    fn a_tree_hung_below_the_root_ignores_what_is_above_it() {
        let g = diamond_tail();
        let index = DomIndex::hung_from(&g, e(2));
        assert_eq!(index.root(), Err(Unrooted::Unreachable(e(1))));
        assert_eq!(index.idom(e(4)), Some(e(2)), "3 is not reached from 2");
        assert_matches_oracle(&g, &index, e(2));
        assert_eq!(DomIndex::hung_from(&g, e(9)).depth(e(1)), None);
    }

    #[test]
    fn regions_are_cut_at_the_stop_node_and_sorted_by_rank() {
        // 0 -> 1 -> {2, 3} -> 4 -> 5: the region of {5, 2} below their
        // common dominator 1 must not climb to 0.
        let g = DiGraph::from_parts(
            [e(0), e(1), e(2), e(3), e(4), e(5)],
            [
                (e(0), e(1)),
                (e(1), e(2)),
                (e(1), e(3)),
                (e(2), e(4)),
                (e(3), e(4)),
                (e(4), e(5)),
            ],
        );
        let index = DomIndex::build(&g);
        let mut scratch = RegionScratch::default();
        assert_eq!(scratch.position(e(1)), None);
        let stop = index.lowest_common_dominator(e(5), e(2));
        assert_eq!(stop, Some(e(1)));
        index.predecessor_region(&g, &[e(5), e(2), e(5)], stop, &mut scratch);
        let mut sorted = scratch.order().to_vec();
        sorted.sort_unstable();
        assert_eq!(sorted, [e(1), e(2), e(3), e(4), e(5)]);
        for (i, &n) in scratch.order().iter().enumerate() {
            assert_eq!(scratch.position(n), Some(i));
        }
        let ranks: Vec<_> = scratch.order().iter().map(|&n| index.rank(n)).collect();
        assert!(ranks.windows(2).all(|w| w[0] < w[1]));
        assert_eq!(scratch.position(e(0)), None);
        // Reuse: the next region forgets the previous one; without a stop
        // node the climb runs to the root.
        index.predecessor_region(&g, &[e(3)], None, &mut scratch);
        assert_eq!(scratch.order(), [e(0), e(1), e(3)]);
        assert_eq!(scratch.position(e(5)), None);
    }
}
