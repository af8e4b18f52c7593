//! The serializability graph `D(S)` of a schedule (Section 2).
//!
//! `D(S)` has a node per transaction in `S` and an edge `(Ti, Tj)` if a step
//! of `Ti` precedes a conflicting step of `Tj` in `S`. A schedule is
//! (conflict-)serializable iff `D(S)` is acyclic \[EGLT76\]. Each edge keeps
//! a *witness* — the earliest pair of conflicting schedule positions — so
//! counterexamples can be explained.
//!
//! [`SerializationGraph`] is the retained, witness-carrying batch form,
//! built from a whole schedule: the trusted model everything else is tested
//! against. The online form is `slp-runtime`'s incremental certifier;
//! the exhaustive verifier keeps its own dense edge sets in
//! `slp-verifier`.

use crate::schedule::Schedule;
use crate::txn::TxId;
use rustc_hash::{FxHashMap, FxHashSet};
use std::collections::BTreeMap;
use std::fmt;

/// An edge of the serializability graph, with its witnessing conflict.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub struct ConflictEdge {
    /// The transaction whose step comes first.
    pub from: TxId,
    /// The transaction whose conflicting step comes later.
    pub to: TxId,
    /// Schedule positions `(i, j)`, `i < j`, of the earliest witnessing
    /// conflicting step pair.
    pub witness: (usize, usize),
}

impl fmt::Display for ConflictEdge {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "{} -> {} (steps {} < {})",
            self.from, self.to, self.witness.0, self.witness.1
        )
    }
}

/// The serializability graph `D(S)`.
#[derive(Clone, Debug)]
pub struct SerializationGraph {
    /// Nodes in first-appearance order (this makes topological sorts and
    /// cycle reports deterministic).
    nodes: Vec<TxId>,
    /// Edge map with earliest witness per ordered pair.
    edges: BTreeMap<(TxId, TxId), (usize, usize)>,
}

/// Graph equality is *structural*: same node set (regardless of
/// first-appearance order) and same edge set. Witness positions are
/// ignored — Lemmas 1–2 conclude `D(S) = D(S̄)` even though the schedules
/// permute positions.
///
/// Comparison is allocation-free: nodes are unique per graph (they come
/// from [`Schedule::participants`]), so equal lengths plus membership of
/// every `self` node in `other` imply set equality.
impl PartialEq for SerializationGraph {
    fn eq(&self, other: &Self) -> bool {
        self.nodes.len() == other.nodes.len()
            && self.nodes.iter().all(|n| other.nodes.contains(n))
            && self.edges.len() == other.edges.len()
            && self.edges.keys().all(|k| other.edges.contains_key(k))
    }
}

impl Eq for SerializationGraph {}

impl SerializationGraph {
    /// Builds `D(S)` for a schedule.
    ///
    /// Steps conflict only when they touch the same entity, so the builder
    /// buckets steps per entity and compares within buckets. Snapshot
    /// reads, if any, are judged against the version they observed with an
    /// empty aborted set — see
    /// [`of_with_aborts`](SerializationGraph::of_with_aborts), which is
    /// what mixed traces from an aborting runtime should use.
    pub fn of(schedule: &Schedule) -> Self {
        Self::of_with_aborts(schedule, &[])
    }

    /// Builds `D(S)` for a schedule that may contain MVCC snapshot reads
    /// ([`crate::Access::Snapshot`]), given the set of transactions that
    /// aborted.
    ///
    /// Locked steps keep the paper's rule: an edge `(Ti, Tj)` whenever a
    /// step of `Ti` precedes a conflicting step of `Tj` (aborted or not —
    /// their lock steps really did order the trace). A snapshot read `r`
    /// by `R` of entity `e` is *not* ordered by trace position; it is
    /// ordered by the version it observed:
    ///
    /// * `X → R` for the observed writer `X` — the read saw `X`'s version,
    ///   so it serializes after `X`;
    /// * `R → W` for every *committed* mutator of `e` (data write, insert
    ///   or delete — lock-only traffic installs nothing) whose mutations
    ///   follow `X`'s (the read did not see them, so it serializes before
    ///   them) — writers at or before `X`'s are reached transitively
    ///   through the `W → X` write-write edges and need no direct edge;
    /// * an **aborted** writer of `e` gets no read edge at all: its
    ///   versions are invisible phantoms, and ordering a snapshot read
    ///   against them manufactures cycles that no real execution exhibits
    ///   (its trace steps still order against *locked* steps as always).
    ///
    /// With the correct visibility rule the observed writer is always
    /// committed; a broken rule (the negative control) lets `X` be
    /// in-progress, and the `X → R` edge plus `R → X` anti-dependencies
    /// from `X`'s later writes surface the dirty read as a genuine cycle.
    pub fn of_with_aborts(schedule: &Schedule, aborted: &[TxId]) -> Self {
        let aborted: FxHashSet<TxId> = aborted.iter().copied().collect();
        let nodes = schedule.participants();
        let mut edges: BTreeMap<(TxId, TxId), (usize, usize)> = BTreeMap::new();
        let mut by_entity: FxHashMap<u32, Vec<usize>> = FxHashMap::default();
        let steps = schedule.steps();
        for (i, s) in steps.iter().enumerate() {
            by_entity.entry(s.step.entity.0).or_default().push(i);
        }
        let mut add = |from: TxId, to: TxId, w: (usize, usize)| {
            // Keep the globally earliest witness pair so the result is
            // independent of bucket iteration order.
            edges
                .entry((from, to))
                .and_modify(|old| {
                    if w < *old {
                        *old = w;
                    }
                })
                .or_insert(w);
        };
        for positions in by_entity.values() {
            let (snap, normal): (Vec<usize>, Vec<usize>) =
                positions.iter().partition(|&&i| steps[i].is_snapshot());
            for (a, &i) in normal.iter().enumerate() {
                for &j in &normal[a + 1..] {
                    let (si, sj) = (&steps[i], &steps[j]);
                    if si.tx != sj.tx && si.step.conflicts_with(&sj.step) {
                        add(si.tx, sj.tx, (i, j));
                    }
                }
            }
            if snap.is_empty() {
                continue;
            }
            // Per-writer range of *mutation* positions on this entity
            // (`W`/`I`/`D` — the steps that install versions; a
            // transaction that merely exclusive-locks through leaves
            // nothing for a snapshot to miss and gets no read edge).
            // Mutations happen under exclusive locks, so distinct writers'
            // ranges are disjoint and min/max fully orders writers on the
            // entity.
            let mut strong: FxHashMap<TxId, (usize, usize)> = FxHashMap::default();
            for &j in &normal {
                let s = &steps[j];
                if s.step.op.is_mutation() {
                    strong
                        .entry(s.tx)
                        .and_modify(|r| {
                            r.0 = r.0.min(j);
                            r.1 = r.1.max(j);
                        })
                        .or_insert((j, j));
                }
            }
            for &i in &snap {
                let r = &steps[i];
                let crate::schedule::Access::Snapshot { observed } = r.via else {
                    unreachable!("partitioned as snapshot");
                };
                // Last strong position of the observed writer: the pivot
                // separating "saw it" (≤, transitive) from "missed it"
                // (>, direct anti-dependency). An observed writer absent
                // from the trace pivots at -∞: every in-trace writer's
                // version postdates what the read saw.
                let pivot = observed.and_then(|x| strong.get(&x).map(|&(_, last)| last));
                for (&w, &(first, last)) in &strong {
                    if w == r.tx {
                        continue;
                    }
                    if Some(w) == observed {
                        add(w, r.tx, (first.min(i), first.max(i)));
                        // Strong steps of the observed writer *after* the
                        // read are writes the snapshot missed (possible
                        // only when visibility exposed an in-progress
                        // writer): a real anti-dependency back into it.
                        if last > i && !aborted.contains(&w) {
                            add(r.tx, w, (i, last));
                        }
                        continue;
                    }
                    let after_pivot = pivot.is_none_or(|p| first > p);
                    if after_pivot && !aborted.contains(&w) {
                        add(r.tx, w, (first.min(i), first.max(i)));
                    }
                }
            }
        }
        SerializationGraph { nodes, edges }
    }

    /// Builds a graph from explicit parts (used by tests and by figure
    /// renderers that construct expected shapes).
    pub fn from_parts(nodes: Vec<TxId>, edges: Vec<ConflictEdge>) -> Self {
        let edges = edges
            .into_iter()
            .map(|e| ((e.from, e.to), e.witness))
            .collect();
        SerializationGraph { nodes, edges }
    }

    /// The nodes, in first-appearance order.
    pub fn nodes(&self) -> &[TxId] {
        &self.nodes
    }

    /// Number of nodes.
    pub fn node_count(&self) -> usize {
        self.nodes.len()
    }

    /// Number of edges.
    pub fn edge_count(&self) -> usize {
        self.edges.len()
    }

    /// Iterates over all edges with witnesses.
    pub fn edges(&self) -> impl Iterator<Item = ConflictEdge> + '_ {
        self.edges
            .iter()
            .map(|(&(from, to), &witness)| ConflictEdge { from, to, witness })
    }

    /// Whether the edge `(from, to)` is present.
    pub fn has_edge(&self, from: TxId, to: TxId) -> bool {
        self.edges.contains_key(&(from, to))
    }

    /// The witness of edge `(from, to)`, if present.
    pub fn witness(&self, from: TxId, to: TxId) -> Option<(usize, usize)> {
        self.edges.get(&(from, to)).copied()
    }

    /// Successors of `tx`.
    pub fn successors(&self, tx: TxId) -> Vec<TxId> {
        self.edges
            .keys()
            .filter(|&&(f, _)| f == tx)
            .map(|&(_, t)| t)
            .collect()
    }

    /// Predecessors of `tx`.
    pub fn predecessors(&self, tx: TxId) -> Vec<TxId> {
        self.edges
            .keys()
            .filter(|&&(_, t)| t == tx)
            .map(|&(f, _)| f)
            .collect()
    }

    /// Nodes with no outgoing edge. An isolated node is both a source and a
    /// sink — this matters for Theorem 1's condition (2a), which quantifies
    /// over *all* sinks of `D(S')`.
    pub fn sinks(&self) -> Vec<TxId> {
        self.nodes
            .iter()
            .copied()
            .filter(|&n| !self.edges.keys().any(|&(f, _)| f == n))
            .collect()
    }

    /// Nodes with no incoming edge.
    pub fn sources(&self) -> Vec<TxId> {
        self.nodes
            .iter()
            .copied()
            .filter(|&n| !self.edges.keys().any(|&(_, t)| t == n))
            .collect()
    }

    /// Whether the graph is acyclic, i.e. the schedule is serializable.
    pub fn is_acyclic(&self) -> bool {
        self.topological_sort().is_some()
    }

    /// A topological sort of the nodes, or `None` if the graph has a cycle.
    ///
    /// Deterministic: among ready nodes, the one earliest in
    /// first-appearance order is emitted first (Kahn's algorithm with a
    /// stable ready list).
    pub fn topological_sort(&self) -> Option<Vec<TxId>> {
        let mut indegree: BTreeMap<TxId, usize> = self.nodes.iter().map(|&n| (n, 0)).collect();
        for &(_, to) in self.edges.keys() {
            *indegree.get_mut(&to).expect("edge endpoint is a node") += 1;
        }
        let mut order = Vec::with_capacity(self.nodes.len());
        let mut remaining: Vec<TxId> = self.nodes.clone();
        while !remaining.is_empty() {
            let pick = remaining.iter().position(|n| indegree[n] == 0)?;
            let n = remaining.remove(pick);
            order.push(n);
            for (&(f, t), _) in self.edges.iter() {
                if f == n {
                    *indegree.get_mut(&t).expect("edge endpoint is a node") -= 1;
                }
            }
        }
        Some(order)
    }

    /// A cycle through the graph, as a node sequence `v0 -> v1 -> … -> v0`
    /// (first node repeated at the end), or `None` if acyclic.
    pub fn find_cycle(&self) -> Option<Vec<TxId>> {
        #[derive(Clone, Copy, PartialEq)]
        enum Color {
            White,
            Gray,
            Black,
        }
        let mut color: FxHashMap<TxId, Color> =
            self.nodes.iter().map(|&n| (n, Color::White)).collect();
        let mut stack: Vec<TxId> = Vec::new();

        fn dfs(
            g: &SerializationGraph,
            n: TxId,
            color: &mut FxHashMap<TxId, Color>,
            stack: &mut Vec<TxId>,
        ) -> Option<Vec<TxId>> {
            color.insert(n, Color::Gray);
            stack.push(n);
            for m in g.successors(n) {
                match color[&m] {
                    Color::Gray => {
                        let start = stack.iter().position(|&x| x == m).expect("gray on stack");
                        let mut cycle = stack[start..].to_vec();
                        cycle.push(m);
                        return Some(cycle);
                    }
                    Color::White => {
                        if let Some(c) = dfs(g, m, color, stack) {
                            return Some(c);
                        }
                    }
                    Color::Black => {}
                }
            }
            stack.pop();
            color.insert(n, Color::Black);
            None
        }

        for &n in &self.nodes {
            if color[&n] == Color::White {
                if let Some(c) = dfs(self, n, &mut color, &mut stack) {
                    return Some(c);
                }
            }
        }
        None
    }

    /// Whether the graph is a single simple path `v0 -> v1 -> … -> vk` with
    /// no extra edges except possibly the closing back edge `vk -> v0`.
    /// This is the *static-database* canonical shape (Fig. 1a): Yannakakis'
    /// theorem yields a simple path closed by one back edge.
    pub fn is_simple_path_with_back_edge(&self) -> bool {
        let n = self.nodes.len();
        if n == 0 {
            return false;
        }
        // A simple path has exactly one source; follow unique successors.
        let sources = self.sources();
        let start =
            match sources.as_slice() {
                [s] => *s,
                [] if n >= 2 => {
                    // Fully closed cycle: every node has in/out degree 1.
                    return self.nodes.iter().all(|&v| {
                        self.successors(v).len() == 1 && self.predecessors(v).len() == 1
                    }) && self.find_cycle().is_some_and(|c| c.len() == n + 1);
                }
                _ => return false,
            };
        let mut seen = vec![start];
        let mut cur = start;
        loop {
            let succ = self.successors(cur);
            match succ.as_slice() {
                [] => break,
                [next] => {
                    if seen.contains(next) {
                        return false;
                    }
                    seen.push(*next);
                    cur = *next;
                }
                [a, b] => {
                    // Allowed only for the node that also closes back to start.
                    let next = if *a == start {
                        *b
                    } else if *b == start {
                        *a
                    } else {
                        return false;
                    };
                    if seen.contains(&next) {
                        return false;
                    }
                    seen.push(next);
                    cur = next;
                }
                _ => return false,
            }
        }
        seen.len() == n
    }
}

impl fmt::Display for SerializationGraph {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "D(S): nodes {{")?;
        for (i, n) in self.nodes.iter().enumerate() {
            if i > 0 {
                write!(f, ", ")?;
            }
            write!(f, "{n}")?;
        }
        write!(f, "}}, edges {{")?;
        for (i, e) in self.edges().enumerate() {
            if i > 0 {
                write!(f, ", ")?;
            }
            write!(f, "{} -> {}", e.from, e.to)?;
        }
        write!(f, "}}")
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::entity::EntityId;
    use crate::schedule::ScheduledStep;
    use crate::step::Step;

    fn e(i: u32) -> EntityId {
        EntityId(i)
    }

    fn t(i: u32) -> TxId {
        TxId(i)
    }

    fn sched(steps: Vec<(u32, Step)>) -> Schedule {
        Schedule::from_steps(
            steps
                .into_iter()
                .map(|(i, s)| ScheduledStep::new(t(i), s))
                .collect(),
        )
    }

    #[test]
    fn conflicting_steps_create_edge_with_witness() {
        let s = sched(vec![(1, Step::write(e(0))), (2, Step::read(e(0)))]);
        let g = SerializationGraph::of(&s);
        assert!(g.has_edge(t(1), t(2)));
        assert!(!g.has_edge(t(2), t(1)));
        assert_eq!(g.witness(t(1), t(2)), Some((0, 1)));
    }

    #[test]
    fn non_conflicting_steps_create_no_edge() {
        let s = sched(vec![(1, Step::read(e(0))), (2, Step::read(e(0)))]);
        let g = SerializationGraph::of(&s);
        assert_eq!(g.edge_count(), 0);
        assert_eq!(g.node_count(), 2);
        // Both isolated nodes are sources and sinks.
        assert_eq!(g.sinks(), vec![t(1), t(2)]);
        assert_eq!(g.sources(), vec![t(1), t(2)]);
    }

    #[test]
    fn classic_two_transaction_cycle() {
        // T1 writes a then b; T2 writes b then a, interleaved to cross.
        let s = sched(vec![
            (1, Step::write(e(0))),
            (2, Step::write(e(1))),
            (1, Step::write(e(1))),
            (2, Step::write(e(0))),
        ]);
        let g = SerializationGraph::of(&s);
        assert!(g.has_edge(t(1), t(2)));
        assert!(g.has_edge(t(2), t(1)));
        assert!(!g.is_acyclic());
        let cycle = g.find_cycle().unwrap();
        assert_eq!(cycle.first(), cycle.last());
        assert!(cycle.len() == 3); // a -> b -> a
    }

    #[test]
    fn earliest_witness_is_kept() {
        let s = sched(vec![
            (1, Step::write(e(0))),
            (2, Step::write(e(0))),
            (1, Step::write(e(1))), // note: also 1->2? no, position 2 is after 1's? t1 again
            (2, Step::write(e(1))),
        ]);
        let g = SerializationGraph::of(&s);
        assert_eq!(g.witness(t(1), t(2)), Some((0, 1)));
    }

    #[test]
    fn topological_sort_respects_edges_and_is_stable() {
        let s = sched(vec![
            (3, Step::write(e(0))),
            (1, Step::write(e(0))),
            (1, Step::write(e(1))),
            (2, Step::write(e(1))),
        ]);
        let g = SerializationGraph::of(&s);
        let order = g.topological_sort().unwrap();
        assert_eq!(order, vec![t(3), t(1), t(2)]);
        assert!(g.is_acyclic());
    }

    #[test]
    fn sinks_and_sources_of_a_path() {
        let g = SerializationGraph::from_parts(
            vec![t(1), t(2), t(3)],
            vec![
                ConflictEdge {
                    from: t(1),
                    to: t(2),
                    witness: (0, 1),
                },
                ConflictEdge {
                    from: t(2),
                    to: t(3),
                    witness: (1, 2),
                },
            ],
        );
        assert_eq!(g.sources(), vec![t(1)]);
        assert_eq!(g.sinks(), vec![t(3)]);
        assert!(g.is_simple_path_with_back_edge());
    }

    #[test]
    fn path_closed_by_back_edge_is_recognized() {
        let g = SerializationGraph::from_parts(
            vec![t(1), t(2), t(3)],
            vec![
                ConflictEdge {
                    from: t(1),
                    to: t(2),
                    witness: (0, 1),
                },
                ConflictEdge {
                    from: t(2),
                    to: t(3),
                    witness: (1, 2),
                },
                ConflictEdge {
                    from: t(3),
                    to: t(1),
                    witness: (2, 3),
                },
            ],
        );
        assert!(!g.is_acyclic());
        assert!(g.is_simple_path_with_back_edge());
    }

    #[test]
    fn branching_graph_is_not_a_simple_path() {
        let g = SerializationGraph::from_parts(
            vec![t(1), t(2), t(3)],
            vec![
                ConflictEdge {
                    from: t(1),
                    to: t(2),
                    witness: (0, 1),
                },
                ConflictEdge {
                    from: t(1),
                    to: t(3),
                    witness: (0, 2),
                },
            ],
        );
        assert!(!g.is_simple_path_with_back_edge());
        assert_eq!(g.sinks(), vec![t(2), t(3)]);
    }

    #[test]
    fn lock_steps_participate_in_conflicts() {
        // Two exclusive locks on the same entity by different transactions
        // conflict; this is what closes the cycle in canonical schedules.
        let s = sched(vec![
            (1, Step::lock_exclusive(e(0))),
            (1, Step::unlock_exclusive(e(0))),
            (2, Step::lock_exclusive(e(0))),
        ]);
        let g = SerializationGraph::of(&s);
        assert!(g.has_edge(t(1), t(2)));
    }

    #[test]
    fn empty_schedule_graph() {
        let g = SerializationGraph::of(&Schedule::empty());
        assert_eq!(g.node_count(), 0);
        assert!(g.is_acyclic());
        assert_eq!(g.topological_sort(), Some(vec![]));
        assert_eq!(g.find_cycle(), None);
        assert!(!g.is_simple_path_with_back_edge());
    }

    /// Offline versioned-read edges: a snapshot read is ordered by the
    /// version it observed — `X → R` for the observed writer, `R → W` for
    /// writers past the pivot, nothing for older writers.
    #[test]
    fn snapshot_read_edges_follow_observed_version() {
        let s = Schedule::from_steps(vec![
            ScheduledStep::new(t(1), Step::write(e(0))),
            ScheduledStep::snapshot_read(t(3), e(0), Some(t(1))),
            ScheduledStep::new(t(2), Step::write(e(0))),
        ]);
        let g = SerializationGraph::of(&s);
        assert!(g.has_edge(t(1), t(3)), "observed writer precedes reader");
        assert!(g.has_edge(t(3), t(2)), "reader precedes missed writer");
        assert!(!g.has_edge(t(3), t(1)));
        assert!(
            !g.has_edge(t(2), t(3)),
            "snapshot reads take no stamp-order edge"
        );
        assert!(g.is_acyclic());
    }

    /// A dirty-read anomaly is a cycle offline — unless the missed writer
    /// aborted, in which case its versions are invisible phantoms and the
    /// anti-dependency dissolves.
    #[test]
    fn aborted_writer_dissolves_snapshot_anti_dependency() {
        // W2 writes e0 and e1 first; W1 then writes e0 (so W2 -> W1); the
        // reader observes W1 on e0 but the *initial* version on e1 —
        // missing W2's e1 write, hence R -> W2, closing the cycle
        // W2 -> W1 -> R -> W2.
        let s = Schedule::from_steps(vec![
            ScheduledStep::new(t(2), Step::write(e(0))),
            ScheduledStep::new(t(2), Step::write(e(1))),
            ScheduledStep::new(t(1), Step::write(e(0))),
            ScheduledStep::snapshot_read(t(3), e(0), Some(t(1))),
            ScheduledStep::snapshot_read(t(3), e(1), None),
        ]);
        assert!(!SerializationGraph::of(&s).is_acyclic());
        assert!(SerializationGraph::of_with_aborts(&s, &[t(2)]).is_acyclic());
    }
}
