//! The serializability graph `D(S)` of a schedule (Section 2).
//!
//! `D(S)` has a node per transaction in `S` and an edge `(Ti, Tj)` if a step
//! of `Ti` precedes a conflicting step of `Tj` in `S`. A schedule is
//! (conflict-)serializable iff `D(S)` is acyclic \[EGLT76\]. Each edge keeps
//! a *witness* — the earliest pair of conflicting schedule positions — so
//! counterexamples can be explained.
//!
//! Two faces of the same graph live here:
//!
//! * [`SerializationGraph`] — the retained, witness-carrying batch form,
//!   built from a whole schedule; the trusted model everything else is
//!   tested against.
//! * [`EdgeSet`] + [`ConflictIndex`] — the incremental form the safety
//!   verifiers drive: dense-index edge *sets* with a `u128` fast path
//!   (k ≤ [`EdgeSet::MAX_SMALL_TXS`]) and a fixed-stride `[u64]`-words
//!   fallback for arbitrary k, maintained through an apply/undo trail and
//!   used (by value) as the explorer's memo keys. Before the words fallback,
//!   exhaustive safety search was hard-capped at 11 transactions.

use crate::entity::EntityId;
use crate::schedule::{Access, Schedule, ScheduledStep};
use crate::step::Step;
use crate::txn::TxId;
use rustc_hash::{FxHashMap, FxHashSet};
use std::cmp::Reverse;
use std::collections::{BTreeMap, BinaryHeap};
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

/// Whether the `u128` edge bitmask over `k` nodes (bit `i * k + j` encodes
/// edge `i -> j`) contains a cycle, by Floyd–Warshall transitive closure on
/// bits. This is the [`EdgeSet`] fast path, exposed directly for callers
/// that keep raw masks (the verifier's retained reference explorer).
///
/// # Panics
///
/// If `k >` [`EdgeSet::MAX_SMALL_TXS`]: bit `k * k - 1` must exist, and a
/// silently wrapped shift would alias rows and corrupt the verdict. Wider
/// graphs belong in an [`EdgeSet`].
pub fn mask_has_cycle(mask: u128, k: usize) -> bool {
    assert!(
        k <= EdgeSet::MAX_SMALL_TXS,
        "mask_has_cycle addresses at most {} nodes, got {k}",
        EdgeSet::MAX_SMALL_TXS
    );
    let mut reach = mask;
    for via in 0..k {
        for i in 0..k {
            if reach & (1u128 << (i * k + via)) != 0 {
                for j in 0..k {
                    if reach & (1u128 << (via * k + j)) != 0 {
                        reach |= 1u128 << (i * k + j);
                    }
                }
            }
        }
    }
    (0..k).any(|i| reach & (1u128 << (i * k + i)) != 0)
}

/// A growable set of `D(S)` edges over `k` dense transaction indices.
///
/// Two representations behind one interface:
///
/// * **small** — a single `u128` with bit `from * k + to`, for
///   `k <=` [`EdgeSet::MAX_SMALL_TXS`] (11, since `k * k <= 128`). All
///   operations are branch-light word arithmetic and nothing allocates;
///   this is the representation on the exhaustive verifier's hot path.
/// * **wide** — a boxed `[u64]` with a fixed per-row stride of
///   `ceil(k / 64)` words, row `from` at words
///   `from * stride .. (from + 1) * stride`, bit `to` within the row. This
///   lifts the old hard `k <= 11` cap on exhaustive safety search: any `k`
///   works, at the cost of allocating edge sets.
///
/// The representation is chosen by [`EdgeSet::empty`] from `k` alone, so
/// all edge sets of one search agree and the mixed-representation
/// operations below can simply panic (that would be a construction bug,
/// not a data-dependent condition).
///
/// # Apply/undo
///
/// The verifier's DFS keeps **one** edge set and mutates it in place,
/// mirroring its simulator discipline: [`EdgeSet::apply`] ORs a delta in
/// and returns the bits that were actually new, and [`EdgeSet::undo`]
/// clears exactly those, restoring the set bit-for-bit (LIFO order).
#[derive(Clone, PartialEq, Eq, Hash, Debug)]
pub struct EdgeSet {
    repr: Repr,
}

#[derive(Clone, PartialEq, Eq, Hash, Debug)]
enum Repr {
    Small {
        k: u8,
        mask: u128,
    },
    Wide {
        k: u16,
        stride: u16,
        words: Box<[u64]>,
    },
}

impl EdgeSet {
    /// Maximum `k` the `u128` fast path can address (`k * k <= 128`).
    pub const MAX_SMALL_TXS: usize = 11;

    /// The empty edge set over `k` nodes, in the representation `k` calls
    /// for (`u128` up to [`EdgeSet::MAX_SMALL_TXS`], words above).
    pub fn empty(k: usize) -> Self {
        if k <= Self::MAX_SMALL_TXS {
            EdgeSet {
                repr: Repr::Small {
                    k: k as u8,
                    mask: 0,
                },
            }
        } else {
            Self::empty_wide(k)
        }
    }

    /// The empty edge set over `k` nodes in the **words** representation
    /// regardless of `k` — the differential arm of the property tests,
    /// which cross-check the two representations on small `k`.
    pub fn empty_wide(k: usize) -> Self {
        assert!(
            k <= u16::MAX as usize,
            "EdgeSet supports at most {} nodes",
            u16::MAX
        );
        let stride = k.div_ceil(64);
        EdgeSet {
            repr: Repr::Wide {
                k: k as u16,
                stride: stride as u16,
                words: vec![0u64; k * stride].into_boxed_slice(),
            },
        }
    }

    /// The node-index capacity `k` this set was built for.
    pub fn width(&self) -> usize {
        match &self.repr {
            Repr::Small { k, .. } => *k as usize,
            Repr::Wide { k, .. } => *k as usize,
        }
    }

    /// Inserts the edge `from -> to`.
    #[inline]
    pub fn insert(&mut self, from: usize, to: usize) {
        debug_assert!(from < self.width() && to < self.width());
        match &mut self.repr {
            Repr::Small { k, mask } => *mask |= 1u128 << (from * *k as usize + to),
            Repr::Wide { stride, words, .. } => {
                words[from * *stride as usize + to / 64] |= 1u64 << (to % 64);
            }
        }
    }

    /// Whether the edge `from -> to` is present.
    #[inline]
    pub fn contains(&self, from: usize, to: usize) -> bool {
        debug_assert!(from < self.width() && to < self.width());
        match &self.repr {
            Repr::Small { k, mask } => mask & (1u128 << (from * *k as usize + to)) != 0,
            Repr::Wide { stride, words, .. } => {
                words[from * *stride as usize + to / 64] & (1u64 << (to % 64)) != 0
            }
        }
    }

    /// Whether the set has no edges.
    pub fn is_empty(&self) -> bool {
        match &self.repr {
            Repr::Small { mask, .. } => *mask == 0,
            Repr::Wide { words, .. } => words.iter().all(|&w| w == 0),
        }
    }

    /// Number of edges.
    pub fn len(&self) -> usize {
        match &self.repr {
            Repr::Small { mask, .. } => mask.count_ones() as usize,
            Repr::Wide { words, .. } => words.iter().map(|w| w.count_ones() as usize).sum(),
        }
    }

    /// ORs `other` into `self`. Panics on mismatched width or
    /// representation (a construction bug — see the type docs).
    pub fn union_with(&mut self, other: &EdgeSet) {
        match (&mut self.repr, &other.repr) {
            (Repr::Small { k, mask }, Repr::Small { k: ok, mask: om }) if k == ok => *mask |= om,
            (
                Repr::Wide { k, words, .. },
                Repr::Wide {
                    k: ok, words: ow, ..
                },
            ) if k == ok => {
                for (w, o) in words.iter_mut().zip(ow.iter()) {
                    *w |= o;
                }
            }
            _ => panic!("EdgeSet::union_with on mismatched representations"),
        }
    }

    /// ORs `delta` in and returns the edges that were **actually added**
    /// (`delta & !self`) — the undo record for [`EdgeSet::undo`].
    #[inline]
    pub fn apply(&mut self, delta: &EdgeSet) -> EdgeSet {
        match (&mut self.repr, &delta.repr) {
            (Repr::Small { k, mask }, Repr::Small { k: dk, mask: dm }) if k == dk => {
                let added = dm & !*mask;
                *mask |= dm;
                EdgeSet {
                    repr: Repr::Small { k: *k, mask: added },
                }
            }
            (
                Repr::Wide { k, stride, words },
                Repr::Wide {
                    k: dk, words: dw, ..
                },
            ) if k == dk => {
                let mut added = vec![0u64; words.len()].into_boxed_slice();
                for i in 0..words.len() {
                    added[i] = dw[i] & !words[i];
                    words[i] |= dw[i];
                }
                EdgeSet {
                    repr: Repr::Wide {
                        k: *k,
                        stride: *stride,
                        words: added,
                    },
                }
            }
            _ => panic!("EdgeSet::apply on mismatched representations"),
        }
    }

    /// Clears the edges in `added`, reversing the [`EdgeSet::apply`] that
    /// returned it. Undo records must be replayed in reverse apply order
    /// (LIFO), exactly like the simulator's `UndoToken`s.
    #[inline]
    pub fn undo(&mut self, added: &EdgeSet) {
        match (&mut self.repr, &added.repr) {
            (Repr::Small { k, mask }, Repr::Small { k: ak, mask: am }) if k == ak => {
                debug_assert_eq!(*mask & am, *am, "EdgeSet::undo of edges not present");
                *mask &= !am;
            }
            (
                Repr::Wide { k, words, .. },
                Repr::Wide {
                    k: ak, words: aw, ..
                },
            ) if k == ak => {
                for (w, a) in words.iter_mut().zip(aw.iter()) {
                    debug_assert_eq!(*w & a, *a, "EdgeSet::undo of edges not present");
                    *w &= !a;
                }
            }
            _ => panic!("EdgeSet::undo on mismatched representations"),
        }
    }

    /// Whether node `from` has any outgoing edge.
    pub fn has_out_edges(&self, from: usize) -> bool {
        debug_assert!(from < self.width());
        match &self.repr {
            Repr::Small { k, mask } => {
                let row = (mask >> (from * *k as usize)) & ((1u128 << *k) - 1);
                row != 0
            }
            Repr::Wide { stride, words, .. } => {
                let s = *stride as usize;
                words[from * s..(from + 1) * s].iter().any(|&w| w != 0)
            }
        }
    }

    /// Whether the edge set contains a cycle — the serializability test of
    /// the accumulated `D(S)`, by Floyd–Warshall transitive closure (on the
    /// `u128` directly for the small representation, row-word OR for the
    /// wide one).
    pub fn has_cycle(&self) -> bool {
        match &self.repr {
            Repr::Small { k, mask } => mask_has_cycle(*mask, *k as usize),
            Repr::Wide { k, stride, words } => {
                let (k, stride) = (*k as usize, *stride as usize);
                let mut reach = words.to_vec();
                for via in 0..k {
                    for i in 0..k {
                        if i != via && reach[i * stride + via / 64] & (1u64 << (via % 64)) != 0 {
                            for w in 0..stride {
                                let v = reach[via * stride + w];
                                reach[i * stride + w] |= v;
                            }
                        }
                    }
                }
                (0..k).any(|i| reach[i * stride + i / 64] & (1u64 << (i % 64)) != 0)
            }
        }
    }

    /// The raw `u128` mask, if this is the small representation — the
    /// verifier packs it into its fast-path memo keys.
    pub fn as_small_mask(&self) -> Option<u128> {
        match &self.repr {
            Repr::Small { mask, .. } => Some(*mask),
            Repr::Wide { .. } => None,
        }
    }

    /// All edges `(from, to)`, in row-major order (tests and diagnostics;
    /// not a hot path).
    pub fn edges(&self) -> Vec<(usize, usize)> {
        let k = self.width();
        let mut out = Vec::new();
        for from in 0..k {
            for to in 0..k {
                if self.contains(from, to) {
                    out.push((from, to));
                }
            }
        }
        out
    }
}

/// An incremental conflict index over a *growing-and-shrinking* schedule:
/// the engine of the verifier's apply/undo DFS.
///
/// Transactions are addressed by **dense indices** `0..k` (the caller fixes
/// the numbering, typically first-appearance order of the system's ids).
/// The index maintains, per entity, the list of steps pushed so far that
/// touched it — so the `D(S)`-edge delta of a candidate step is computed by
/// scanning only that entity's accessors, `O(accessors)`, instead of
/// rescanning the whole schedule, `O(|S|)`. Pushes and pops are `O(1)`.
///
/// Edge deltas are returned as [`EdgeSet`]s, whose representation is chosen
/// from `k`: `u128` bitmask up to [`ConflictIndex::MAX_TXS`] transactions
/// (allocation-free), fixed-stride `u64` words above — so any `k`
/// constructs and indexes; only the state space bounds the search.
#[derive(Clone, Debug, Default)]
pub struct ConflictIndex {
    k: usize,
    /// Accessor lists indexed by dense entity id (entity ids come from the
    /// `Universe` interner, so the table stays small); grown on demand.
    by_entity: Vec<Vec<(u32, Step)>>,
    /// Entities of pushed steps, in push order, so `pop` knows which
    /// per-entity list to shrink.
    trail: Vec<EntityId>,
}

impl ConflictIndex {
    /// Widest `k` addressed by the allocation-free `u128` edge
    /// representation (`k * k <= 128`). Wider systems are fully supported;
    /// their edge sets fall back to [`EdgeSet`]'s words representation.
    pub const MAX_TXS: usize = EdgeSet::MAX_SMALL_TXS;

    /// An empty index over `k` dense transaction indices — any `k`.
    pub fn new(k: usize) -> Self {
        ConflictIndex {
            k,
            by_entity: Vec::new(),
            trail: Vec::new(),
        }
    }

    /// The dense-index capacity this index was built for.
    pub fn width(&self) -> usize {
        self.k
    }

    /// Number of steps currently pushed.
    pub fn len(&self) -> usize {
        self.trail.len()
    }

    /// Whether no step is pushed.
    pub fn is_empty(&self) -> bool {
        self.trail.is_empty()
    }

    /// The `D(S)`-edge delta of appending `step` for dense transaction
    /// `to`: the edge `from -> to` for every pushed step of a different
    /// transaction `from` that conflicts with `step`. Only the accessors of
    /// `step.entity` are scanned.
    ///
    /// `None` means the delta is empty — the common case, which this way
    /// stays allocation-free even in the words representation (the set is
    /// built lazily on the first conflicting accessor).
    #[inline]
    pub fn edge_delta(&self, to: usize, step: &Step) -> Option<EdgeSet> {
        debug_assert!(to < self.k);
        let mut out: Option<EdgeSet> = None;
        if let Some(accessors) = self.by_entity.get(step.entity.index()) {
            for &(from, ref prior) in accessors {
                if from as usize != to && prior.conflicts_with(step) {
                    out.get_or_insert_with(|| EdgeSet::empty(self.k))
                        .insert(from as usize, to);
                }
            }
        }
        out
    }

    /// Records that dense transaction `tx` appended `step`.
    #[inline]
    pub fn push(&mut self, tx: usize, step: Step) {
        debug_assert!(tx < self.k);
        let slot = step.entity.index();
        if slot >= self.by_entity.len() {
            self.by_entity.resize_with(slot + 1, Vec::new);
        }
        self.by_entity[slot].push((tx as u32, step));
        self.trail.push(step.entity);
    }

    /// Unrecords the most recently pushed step (LIFO).
    #[inline]
    pub fn pop(&mut self) {
        let entity = self.trail.pop().expect("ConflictIndex::pop on empty index");
        let accessors = &mut self.by_entity[entity.index()];
        accessors.pop().expect("accessor list nonempty");
    }
}

/// A serialization-graph cycle caught by the [`IncrementalCertifier`]:
/// the closing edge's stamp plus the full cycle it completed.
#[derive(Clone, PartialEq, Eq, Debug)]
pub struct CertViolation {
    /// The cycle as a transaction sequence `v0 -> v1 -> … -> v0` (first
    /// node repeated at the end, matching
    /// [`SerializationGraph::find_cycle`]).
    pub cycle: Vec<TxId>,
    /// Sequence stamp of the step whose edge closed the cycle — "the run
    /// stopped being serializable *here*".
    pub stamp: u64,
}

impl fmt::Display for CertViolation {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "cycle at stamp {}: ", self.stamp)?;
        for (i, tx) in self.cycle.iter().enumerate() {
            if i > 0 {
                write!(f, " -> ")?;
            }
            write!(f, "{tx}")?;
        }
        Ok(())
    }
}

/// Counters describing an [`IncrementalCertifier`]'s work and footprint.
#[derive(Clone, Copy, PartialEq, Eq, Debug, Default)]
pub struct CertStats {
    /// Steps observed.
    pub steps: u64,
    /// Distinct serialization-graph edges inserted (each one paid an
    /// incremental cycle check).
    pub edges: u64,
    /// Nodes removed by committed-prefix truncation.
    pub truncations: u64,
    /// Nodes retracted after a certification abort
    /// ([`IncrementalCertifier::retract`]): the victim's edges and
    /// accessor footprint were surgically removed and the run continued.
    pub retractions: u64,
    /// Transactions currently resident in the graph.
    pub live_nodes: usize,
    /// High-water mark of resident transactions — the certifier's actual
    /// memory bound over the run.
    pub peak_nodes: usize,
}

/// Per-(entity, transaction) access summary: the stamp extremes of the
/// transaction's benign (`{R, LS, US}`) and non-benign steps on the
/// entity. Edge direction against a newly observed step only asks "does a
/// conflicting access exist with a stamp below (above) the new stamp",
/// which min/max per conflict class answers exactly — so a hot entity's
/// history compresses from one entry per step to one per live
/// transaction, and the per-step scan is `O(live accessors)`, not
/// `O(steps ever taken on the entity)`.
#[derive(Clone, Copy, Debug)]
struct Accessor {
    slot: u32,
    /// `(min, max)` stamps of benign steps; [`NO_STAMPS`] when none.
    benign: (u64, u64),
    /// `(min, max)` stamps of non-benign steps; [`NO_STAMPS`] when none.
    strong: (u64, u64),
    /// `(min, max)` stamps of *mutation* steps (`W`/`I`/`D` — the subset
    /// of `strong` that installs versions); [`NO_STAMPS`] when none.
    /// Versioned-read edges consult this class: a snapshot read orders
    /// against what writers *installed*, not against their lock traffic.
    mutation: (u64, u64),
}

/// The empty stamp range: `min > max`, so `min < s` and `max > s` are both
/// false for every real stamp `s`.
const NO_STAMPS: (u64, u64) = (u64::MAX, 0);

/// Sentinel in the transaction-id → slot table: id not live.
const NO_SLOT: u32 = u32::MAX;

/// Sentinel in the transaction-id → slot table: id *was* live and has been
/// truncated or retracted. Distinguishing retirement from never-seen lets
/// a snapshot read's observed-writer lookup skip the edge to a truncated
/// writer (provably safe — truncation means no live accessor of the entity
/// predates it) instead of resurrecting a node that would never seal.
const RETIRED_SLOT: u32 = u32::MAX - 1;

/// A live snapshot reader registered against an entity: future strong
/// accesses to the entity scan this list the way they scan [`Accessor`]s.
/// A writer whose strong stamps all lie at or below `pivot` (the observed
/// version's install stamp) installed at or before the observed version and
/// is already ordered before the reader transitively; one with a strong
/// stamp above `pivot` wrote a version the reader's snapshot missed, so the
/// reader must serialize before it — once it commits (see
/// [`IncrementalCertifier::seal_with`]; the edge is parked until then).
#[derive(Clone, Copy, Debug)]
struct SnapReader {
    slot: u32,
    /// The observed writer (`None` when the read saw the initial
    /// version). Skipped by the future-writer scan: the read-time
    /// `X → R` edge already orders the pair. Held by id, not slot — the
    /// writer may truncate (and its slot recycle) while the reader is
    /// still live.
    observed: Option<TxId>,
    /// Install stamp of the observed version; `None` when the read saw
    /// the initial (pre-run) version, ordering the reader before *every*
    /// writer of the entity.
    pivot: Option<u64>,
    /// The read step's stamp (witness for parked edges).
    stamp: u64,
}

/// One snapshot read for the online certifier's explicit feed path
/// ([`IncrementalCertifier::observe_snapshot_reads`]). Workers publish
/// batches out of order, so the certifier cannot reconstruct which
/// version a read observed from arrival state — but the MVCC store knows
/// exactly, and supplies the observed writer and the version's install
/// stamp alongside the read.
#[derive(Clone, Copy, Debug)]
pub struct VersionedRead {
    /// The read step's globally dense stamp.
    pub stamp: u64,
    /// The reading transaction.
    pub tx: TxId,
    /// The entity read.
    pub entity: EntityId,
    /// The writer of the version observed; `None` when the read saw the
    /// initial (pre-run) version.
    pub observed: Option<TxId>,
    /// The observed version's install stamp; `None` for the initial
    /// version, which orders the reader before *every* writer of the
    /// entity.
    pub pivot: Option<u64>,
}

/// One batch's stamp extremes for a single entity: `(entity, benign
/// (min, max), strong (min, max))`.
type EntityGroup = (u32, (u64, u64), (u64, u64), (u64, u64));

/// Packs an ordered slot pair into the edge-set key.
#[inline]
fn edge_key(from: u32, into: u32) -> u64 {
    (u64::from(from) << 32) | u64::from(into)
}

/// A resident transaction in the incremental serialization graph.
#[derive(Clone, Debug)]
struct CertNode {
    tx: TxId,
    live: bool,
    /// No more steps will ever arrive for this transaction (it committed
    /// or aborted).
    sealed: bool,
    /// Sealed as *aborted*: its versions are permanently invisible, so
    /// parked reader → writer edges against it dissolve instead of
    /// materializing (an aborted writer orders nothing).
    aborted: bool,
    /// Outgoing edges of this node parked on still-unsealed writers
    /// (snapshot-read anti-dependencies whose direction is known but whose
    /// existence awaits the writer's outcome). A node with parked
    /// out-edges is pinned against truncation: the edge may still
    /// materialize.
    parked_out: u32,
    /// Newest stamp attributed to this transaction.
    last_stamp: u64,
    /// Live predecessor slots (edges into this node).
    preds: Vec<u32>,
    /// Live successor slots (edges out of this node).
    succs: Vec<u32>,
    /// Topological level: every edge `u -> v` maintains
    /// `level(u) < level(v)` (restored by lifting `v` and its descendants
    /// after each insert, à la Pearce–Kelly). An edge that lands forward
    /// in level order — the common case under stamp-ordered feeding —
    /// provably closes no cycle and skips the reachability search.
    level: u64,
    /// Entities this node has accessor entries under (for eager purge on
    /// truncation).
    touched: Vec<u32>,
}

impl CertNode {
    fn fresh(tx: TxId) -> Self {
        CertNode {
            tx,
            live: true,
            sealed: false,
            aborted: false,
            parked_out: 0,
            last_stamp: 0,
            preds: Vec::new(),
            succs: Vec::new(),
            level: 0,
            touched: Vec::new(),
        }
    }
}

/// An **online** serializability certifier: maintains `D(S)` incrementally
/// as sequence-stamped steps stream in, catching the first cycle at the
/// edge that closes it — no offline replay required.
///
/// Built for the runtime's feeding discipline:
///
/// * **Out-of-order arrival.** Workers publish their stamped batches after
///   dropping the engine lock, so steps arrive in arbitrary order across
///   workers even though stamps are dense. Edge *direction* is decided by
///   stamp comparison against each prior accessor of the entity, not by
///   arrival order, so the maintained graph is exactly `D(S)` of the
///   stamp-ordered schedule at every point.
/// * **Incremental cycle check.** Nodes carry topological levels (every
///   edge strictly increases level, maintained Pearce–Kelly style), so an
///   edge landing forward in level order — the common case under
///   stamp-ordered feeding — pays nothing; a backward edge pays one
///   level-bounded DFS asking whether `u` is reachable from `v`. The
///   first hit latches a [`CertViolation`] carrying the full cycle and
///   the closing stamp. No work is repeated for duplicate edges, and once latched the
///   certifier goes quiescent (the graph is kept for the autopsy).
/// * **Committed-prefix truncation.** A sealed transaction (committed or
///   aborted — both take no further steps) whose entire footprint lies
///   below the contiguous-stamp **watermark** can gain no new *incoming*
///   edge: any future arrival carries a stamp at or above the watermark,
///   hence after every step of the sealed transaction, so conflicts only
///   produce edges *out* of it. Once such a node also has no incoming
///   edges left, no cycle can ever include it, and it is removed — graph
///   *and* accessor entries — so graph state is bounded by the live
///   transaction window, not the run length ([`CertStats::peak_nodes`]).
///   The only per-run residue is the flat id → slot table (four bytes per
///   transaction ever started — dwarfed by any recorded trace).
///
/// Sequential sanity check: [`IncrementalCertifier::certify_schedule`]
/// replays a finished [`Schedule`] through the same machinery; the
/// differential suite pins its verdict to
/// [`is_serializable`](crate::serializability::is_serializable).
#[derive(Clone, Debug)]
pub struct IncrementalCertifier {
    slots: Vec<CertNode>,
    free: Vec<u32>,
    /// Live transactions' slots, indexed directly by transaction id
    /// (`NO_SLOT` when absent): the runtime allocates ids densely from a
    /// counter, so a flat table replaces a hash map on the per-attempt
    /// path. Four bytes per id ever seen — dwarfed by the recorded trace;
    /// the *graph* (nodes, edges, accessor lists) is what truncation
    /// bounds.
    by_tx: Vec<u32>,
    /// Per-entity accessor lists (live slots only — truncation purges),
    /// indexed directly by entity id: entities are interned dense, so a
    /// flat table replaces a hash map on the per-step hot path.
    accessors: Vec<Vec<Accessor>>,
    /// Per-entity live snapshot readers (same indexing as `accessors`):
    /// scanned by future strong accesses to decide reader → writer
    /// anti-dependencies against versions the reader's snapshot missed.
    snap_readers: Vec<Vec<SnapReader>>,
    /// Parked edges keyed by the *unsealed* target writer's slot: each
    /// entry is `(from slot, witness stamp)` of a snapshot reader that
    /// must precede the writer if — and only if — the writer commits.
    /// Flushed (or dissolved, on abort) by
    /// [`seal_with`](IncrementalCertifier::seal_with).
    parked: FxHashMap<u32, Vec<(u32, u64)>>,
    /// Present edges as `from << 32 | into` slot pairs: O(1) duplicate
    /// rejection regardless of node degree.
    edge_set: FxHashSet<u64>,
    /// Reused buffer for the edge candidates (with their witnessing
    /// stamps) of one observed access.
    scratch_edges: Vec<(u32, u32, u64)>,
    /// Reused buffer for one batch's per-(entity, class) stamp extremes.
    scratch_groups: Vec<EntityGroup>,
    /// Reused work list for truncation passes.
    scratch_work: Vec<u32>,
    /// Sealed nodes not yet removed: the only truncation candidates, so a
    /// pass walks this list instead of every slot. Entries go stale when
    /// their slot is recycled; passes drop them on sight.
    sealed_pending: Vec<u32>,
    /// Reused work list for level-raise cascades.
    scratch_raise: Vec<(u32, u64)>,
    /// Reused DFS stack for the incremental cycle check.
    scratch_dfs: Vec<(u32, usize)>,
    /// Contiguous-stamp watermark: every stamp `< next` has been observed.
    next_stamp: u64,
    /// Observed stamp ranges `[start, end)` at or above `next_stamp`,
    /// pending contiguity. Batches arrive with consecutive stamps, so a
    /// whole batch is one heap entry, not one per step.
    pending: BinaryHeap<Reverse<(u64, u64)>>,
    /// Epoch-stamped visited marks for the cycle-check DFS (no per-check
    /// allocation).
    visit_mark: Vec<u32>,
    visit_epoch: u32,
    violation: Option<CertViolation>,
    stats: CertStats,
}

impl Default for IncrementalCertifier {
    fn default() -> Self {
        Self::new()
    }
}

impl IncrementalCertifier {
    /// An empty certifier expecting stamps from 0.
    pub fn new() -> Self {
        IncrementalCertifier {
            slots: Vec::new(),
            free: Vec::new(),
            by_tx: Vec::new(),
            accessors: Vec::new(),
            snap_readers: Vec::new(),
            parked: FxHashMap::default(),
            edge_set: FxHashSet::default(),
            scratch_edges: Vec::new(),
            scratch_groups: Vec::new(),
            scratch_work: Vec::new(),
            sealed_pending: Vec::new(),
            scratch_raise: Vec::new(),
            scratch_dfs: Vec::new(),
            next_stamp: 0,
            pending: BinaryHeap::new(),
            visit_mark: Vec::new(),
            visit_epoch: 0,
            violation: None,
            stats: CertStats::default(),
        }
    }

    /// The first cycle caught, if any. Latched: once set it never clears,
    /// and subsequent observations are no-ops beyond stamp tracking.
    pub fn violation(&self) -> Option<&CertViolation> {
        self.violation.as_ref()
    }

    /// Work and footprint counters (live/peak node counts, edges,
    /// truncations).
    pub fn stats(&self) -> CertStats {
        self.stats
    }

    /// The contiguous-stamp watermark: every stamp below it has been
    /// observed, so the committed prefix up to here is truncatable.
    pub fn watermark(&mut self) -> u64 {
        self.advance_watermark();
        self.next_stamp
    }

    /// Feeds one stamped step. Stamps must be globally unique and dense
    /// over the whole run (the runtime's atomic sequence counter
    /// guarantees this); arrival order is free.
    pub fn observe(&mut self, stamp: u64, tx: TxId, step: Step) {
        self.observe_trace(&[(stamp, ScheduledStep::new(tx, step))]);
    }

    /// Feeds a stamped batch — the runtime's unit of arrival (one
    /// worker's recorded steps, stamps strictly ascending within the
    /// batch). Maximal consecutive stamp runs are tracked as single
    /// ranges, and each run of same-transaction steps is collapsed to
    /// per-(entity, class) stamp extremes before it touches the graph:
    /// serialization edges are pairwise stamp comparisons, so the
    /// extremes derive exactly the edge set per-step feeding would, at a
    /// fraction of the accessor scans.
    pub fn observe_trace(&mut self, batch: &[(u64, ScheduledStep)]) {
        let Some(&(first, _)) = batch.first() else {
            return;
        };
        // Record observed stamps as maximal consecutive ranges.
        let (mut start, mut prev) = (first, first);
        for &(s, _) in &batch[1..] {
            debug_assert!(s > prev, "batch stamps must be ascending");
            if s == prev + 1 {
                prev = s;
            } else {
                self.pending.push(Reverse((start, prev + 1)));
                (start, prev) = (s, s);
            }
        }
        self.pending.push(Reverse((start, prev + 1)));
        self.stats.steps += batch.len() as u64;
        if self.violation.is_some() {
            return; // latched: keep the graph frozen for the autopsy
        }
        let mut i = 0;
        while i < batch.len() {
            let tx = batch[i].1.tx;
            let to = self.slot_of(tx);
            debug_assert!(
                !self.slots[to as usize].sealed,
                "step for sealed transaction {}",
                self.slots[to as usize].tx
            );
            // Summarize this transaction's run of steps: per entity, the
            // (min, max) stamps of its benign and strong accesses.
            let mut groups = std::mem::take(&mut self.scratch_groups);
            groups.clear();
            let mut j = i;
            let mut run_last = first;
            while j < batch.len() && batch[j].1.tx == tx {
                let (stamp, s) = batch[j];
                run_last = stamp;
                let entity = s.step.entity.0;
                if let Access::Snapshot { observed } = s.via {
                    // Versioned read: ordered against the entity's writers
                    // by the version it observed, never by stamp order —
                    // it must not enter the benign accessor ranges. The
                    // pivot (observed version's install stamp) is derived
                    // from the observed writer's current strong extreme,
                    // which is exact under in-stamp-order feeding (replay);
                    // the runtime's out-of-order feed supplies it
                    // explicitly via `observe_snapshot_reads`.
                    let pivot = observed.and_then(|x| self.live_slot(x)).and_then(|xs| {
                        self.accessors.get(entity as usize).and_then(|l| {
                            l.iter()
                                .find(|a| a.slot == xs && a.mutation != NO_STAMPS)
                                .map(|a| a.mutation.1)
                        })
                    });
                    self.observe_versioned_read(stamp, to, entity, observed, pivot);
                    if self.violation.is_some() {
                        break;
                    }
                    j += 1;
                    continue;
                }
                let g = match groups.iter_mut().find(|g| g.0 == entity) {
                    Some(g) => g,
                    None => {
                        groups.push((entity, NO_STAMPS, NO_STAMPS, NO_STAMPS));
                        groups.last_mut().expect("just pushed")
                    }
                };
                let class = if s.step.op.is_benign() {
                    &mut g.1
                } else {
                    &mut g.2
                };
                class.0 = class.0.min(stamp);
                class.1 = class.1.max(stamp);
                if s.step.op.is_mutation() {
                    g.3 .0 = g.3 .0.min(stamp);
                    g.3 .1 = g.3 .1.max(stamp);
                }
                j += 1;
            }
            let node = &mut self.slots[to as usize];
            node.last_stamp = node.last_stamp.max(run_last);
            for &(entity, benign, strong, mutation) in &groups {
                self.observe_access(to, entity, benign, strong, mutation);
                if self.violation.is_some() {
                    break;
                }
            }
            self.scratch_groups = groups;
            if self.violation.is_some() {
                return;
            }
            i = j;
        }
    }

    /// Feeds a batch of snapshot reads with **explicit pivots** — the
    /// runtime's feed path for read-only jobs. Workers publish batches
    /// out of order, so the certifier cannot reconstruct which version a
    /// read observed from arrival state; the MVCC store knows exactly,
    /// and passes the observed version's install stamp along. Stamps must
    /// be ascending within the batch (the read path claims a dense stamp
    /// block at snapshot capture).
    pub fn observe_snapshot_reads(&mut self, reads: &[VersionedRead]) {
        let Some(first) = reads.first() else {
            return;
        };
        let (mut start, mut prev) = (first.stamp, first.stamp);
        for r in &reads[1..] {
            debug_assert!(r.stamp > prev, "batch stamps must be ascending");
            if r.stamp == prev + 1 {
                prev = r.stamp;
            } else {
                self.pending.push(Reverse((start, prev + 1)));
                (start, prev) = (r.stamp, r.stamp);
            }
        }
        self.pending.push(Reverse((start, prev + 1)));
        self.stats.steps += reads.len() as u64;
        if self.violation.is_some() {
            return; // latched: keep the graph frozen for the autopsy
        }
        for r in reads {
            let to = self.slot_of(r.tx);
            let node = &mut self.slots[to as usize];
            node.last_stamp = node.last_stamp.max(r.stamp);
            self.observe_versioned_read(r.stamp, to, r.entity.0, r.observed, r.pivot);
            if self.violation.is_some() {
                return;
            }
        }
    }

    /// Graph maintenance for one snapshot read: the versioned analogue of
    /// [`observe_access`](Self::observe_access). A snapshot read is
    /// ordered by the *version* it observed, never by stamp order:
    ///
    /// * `X → R` for the observed writer `X` (wr-dependency). An unseen
    ///   `X` gets a node now — its steps arrive at its commit; a
    ///   *truncated* `X` needs no edge, because truncation guarantees no
    ///   live accessor of the entity predates it.
    /// * `R → W` for every writer whose *mutation* stamps lie above
    ///   `pivot` (the observed version's install stamp): its version is
    ///   one the snapshot missed, so the reader serializes before it —
    ///   **iff it commits**. Against a sealed-committed writer the edge
    ///   lands now; against a sealed-aborted one it dissolves; against an
    ///   unsealed one it parks until
    ///   [`seal_with`](Self::seal_with) learns the outcome.
    /// * Writers at or below the pivot installed at or before the
    ///   observed version and are ordered before the reader transitively
    ///   through `X`'s own ww-edges — no direct edge needed.
    ///
    /// The read is then registered in the entity's [`SnapReader`] list so
    /// *future* strong accesses perform the mirror-image scan.
    ///
    /// Writers already **truncated** take no edge in either direction.
    /// This under-approximates `D(S)` but is sound for runtime feeds: a
    /// snapshot captured after a writer's commit flip *observes* that
    /// writer, and the commit pipeline flips writers in serialization
    /// order, so an anti-dependency into a committed-and-truncated
    /// writer can never lie on a cycle — any cycle through a snapshot
    /// read must pass through a writer still unflipped at capture, which
    /// is unsealed (hence resident) when the read is fed.
    fn observe_versioned_read(
        &mut self,
        stamp: u64,
        to: u32,
        entity: u32,
        observed: Option<TxId>,
        pivot: Option<u64>,
    ) {
        if entity as usize >= self.accessors.len() {
            self.accessors.resize_with(entity as usize + 1, Vec::new);
        }
        if entity as usize >= self.snap_readers.len() {
            self.snap_readers.resize_with(entity as usize + 1, Vec::new);
        }
        let mut x_slot = NO_SLOT;
        if let Some(x) = observed {
            match self.by_tx.get(x.0 as usize).copied().unwrap_or(NO_SLOT) {
                RETIRED_SLOT => {}
                NO_SLOT => x_slot = self.slot_of(x),
                s => x_slot = s,
            }
            if x_slot != NO_SLOT {
                self.add_edge(x_slot, to, stamp);
                if self.violation.is_some() {
                    return;
                }
            }
        }
        let mut new_edges = std::mem::take(&mut self.scratch_edges);
        new_edges.clear();
        for a in &self.accessors[entity as usize] {
            if a.slot == to || a.slot == x_slot || a.mutation == NO_STAMPS {
                continue;
            }
            if pivot.is_none_or(|p| a.mutation.0 > p) {
                new_edges.push((to, a.slot, stamp));
            }
        }
        for &(from, into, w) in &new_edges {
            let writer = &self.slots[into as usize];
            if writer.sealed {
                if !writer.aborted {
                    self.add_edge(from, into, w);
                    if self.violation.is_some() {
                        break;
                    }
                }
            } else {
                self.park(from, into, w);
            }
        }
        self.scratch_edges = new_edges;
        if self.violation.is_some() {
            return;
        }
        let list = &mut self.snap_readers[entity as usize];
        if !list.iter().any(|r| r.slot == to) {
            list.push(SnapReader {
                slot: to,
                observed,
                pivot,
                stamp,
            });
            let node = &mut self.slots[to as usize];
            if !node.touched.contains(&entity) {
                node.touched.push(entity);
            }
        }
    }

    /// Parks the edge `from → into` until `into`'s outcome is known,
    /// pinning `from` against truncation meanwhile.
    fn park(&mut self, from: u32, into: u32, stamp: u64) {
        self.parked.entry(into).or_default().push((from, stamp));
        self.slots[from as usize].parked_out += 1;
    }

    /// The slot of a currently resident transaction (`None` when never
    /// seen, truncated, or retracted).
    fn live_slot(&self, tx: TxId) -> Option<u32> {
        match self.by_tx.get(tx.0 as usize).copied() {
            Some(s) if s != NO_SLOT && s != RETIRED_SLOT => Some(s),
            _ => None,
        }
    }

    /// Graph maintenance for one transaction's access summary on one
    /// entity: edge deltas against the entity's other accessor summaries,
    /// then the summary folded into this transaction's own. `my_benign` /
    /// `my_strong` / `my_mutation` are the (min, max) stamps of the new
    /// accesses per conflict class ([`NO_STAMPS`] when the class is
    /// empty); mutations are the version-installing subset of the strong
    /// class.
    fn observe_access(
        &mut self,
        to: u32,
        entity: u32,
        my_benign: (u64, u64),
        my_strong: (u64, u64),
        my_mutation: (u64, u64),
    ) {
        if entity as usize >= self.accessors.len() {
            self.accessors.resize_with(entity as usize + 1, Vec::new);
        }
        // Edges against every other transaction that touched the entity,
        // directed by stamp order (collected first: edge insertion needs
        // `&mut self`). A prior access conflicts with my strong stamps
        // whatever its class, and with my benign stamps only when it is
        // strong; an edge exists iff a conflicting stamp lies on the
        // matching side of mine, which the class extremes answer exactly.
        // Already-present edges are rejected here, before they cost an
        // insertion attempt. Each candidate carries the stamp of mine
        // that witnessed it (for the violation report).
        let mut new_edges = std::mem::take(&mut self.scratch_edges);
        new_edges.clear();
        for a in &self.accessors[entity as usize] {
            if a.slot == to {
                continue;
            }
            let fwd_strong = a.strong.0.min(a.benign.0) < my_strong.1;
            if (fwd_strong || a.strong.0 < my_benign.1)
                && !self.edge_set.contains(&edge_key(a.slot, to))
            {
                let w = if fwd_strong { my_strong.1 } else { my_benign.1 };
                new_edges.push((a.slot, to, w));
            }
            let rev_strong = a.strong.1.max(a.benign.1) > my_strong.0;
            if (rev_strong || a.strong.1 > my_benign.0)
                && !self.edge_set.contains(&edge_key(to, a.slot))
            {
                let w = if rev_strong { my_strong.0 } else { my_benign.0 };
                new_edges.push((to, a.slot, w));
            }
        }
        for &(from, into, stamp) in &new_edges {
            self.add_edge(from, into, stamp);
            if self.violation.is_some() {
                break;
            }
        }
        self.scratch_edges = new_edges;
        if self.violation.is_some() {
            return;
        }
        // Fold the summary into the transaction's accessor entry.
        let list = &mut self.accessors[entity as usize];
        match list.iter_mut().find(|a| a.slot == to) {
            Some(a) => {
                a.benign = (a.benign.0.min(my_benign.0), a.benign.1.max(my_benign.1));
                a.strong = (a.strong.0.min(my_strong.0), a.strong.1.max(my_strong.1));
                a.mutation = (
                    a.mutation.0.min(my_mutation.0),
                    a.mutation.1.max(my_mutation.1),
                );
            }
            None => {
                list.push(Accessor {
                    slot: to,
                    benign: my_benign,
                    strong: my_strong,
                    mutation: my_mutation,
                });
                self.slots[to as usize].touched.push(entity);
            }
        }
        // Mirror-image of the versioned-read scan: my *mutations* may
        // have installed versions a live snapshot reader's snapshot
        // missed, so the reader precedes me — iff I commit. My seal is
        // still ahead (steps precede seals), so the edge always parks.
        // Lock-only traffic installs nothing and takes no edge; the
        // observed writer is skipped: its read-time `X → R` edge
        // already orders the pair.
        if my_mutation != NO_STAMPS && (entity as usize) < self.snap_readers.len() {
            let my_tx = self.slots[to as usize].tx;
            let mut parks = std::mem::take(&mut self.scratch_edges);
            parks.clear();
            for r in &self.snap_readers[entity as usize] {
                if r.slot == to || r.observed == Some(my_tx) {
                    continue;
                }
                if r.pivot.is_none_or(|p| my_mutation.0 > p) {
                    parks.push((r.slot, to, r.stamp));
                }
            }
            for &(from, into, stamp) in &parks {
                self.park(from, into, stamp);
            }
            self.scratch_edges = parks;
        }
    }

    /// Declares that `tx` will take no more steps and **committed**.
    /// Equivalent to [`seal_with`](Self::seal_with)`(tx, false)`; callers
    /// whose transactions can abort must say so, or parked snapshot-read
    /// edges against them will wrongly materialize.
    pub fn seal(&mut self, tx: TxId) {
        self.seal_with(tx, false);
    }

    /// Declares that `tx` will take no more steps, with its outcome
    /// (aborted transactions' recorded unlocks are part of the trace and
    /// its graph, they just stop growing — but their *versions* are
    /// permanently invisible, so parked reader → writer edges against
    /// them dissolve instead of materializing). Triggers a truncation
    /// pass.
    pub fn seal_with(&mut self, tx: TxId, aborted: bool) {
        if let Some(slot) = self.live_slot(tx) {
            let node = &mut self.slots[slot as usize];
            node.sealed = true;
            node.aborted = aborted;
            self.sealed_pending.push(slot);
            if let Some(list) = self.parked.remove(&slot) {
                for (from, stamp) in list {
                    self.slots[from as usize].parked_out -= 1;
                    if !aborted && self.violation.is_none() {
                        self.add_edge(from, slot, stamp);
                    }
                }
            }
        }
        self.truncate();
    }

    /// Surgically removes a live transaction from the graph — the
    /// certification-abort recovery path (strict mode): the victim's
    /// status-table entry flips to aborted, its versions become
    /// invisible, its recorded steps order nothing, and the run
    /// continues without it. Drops the victim's edges in both
    /// directions, its accessor and snapshot-reader footprint, and its
    /// parked edges in both roles; clears the violation latch when the
    /// victim appears in the latched cycle. Returns `false` when `tx` is
    /// not resident.
    pub fn retract(&mut self, tx: TxId) -> bool {
        let Some(slot) = self.live_slot(tx) else {
            return false;
        };
        let preds = std::mem::take(&mut self.slots[slot as usize].preds);
        for p in preds {
            self.edge_set.remove(&edge_key(p, slot));
            let succs = &mut self.slots[p as usize].succs;
            if let Some(i) = succs.iter().position(|&s| s == slot) {
                succs.swap_remove(i);
            }
        }
        let succs = std::mem::take(&mut self.slots[slot as usize].succs);
        for t in succs {
            self.edge_set.remove(&edge_key(slot, t));
            let preds = &mut self.slots[t as usize].preds;
            if let Some(i) = preds.iter().position(|&p| p == slot) {
                preds.swap_remove(i);
            }
            self.sealed_pending.push(t); // may have just become prunable
        }
        let touched = std::mem::take(&mut self.slots[slot as usize].touched);
        for e in touched {
            self.accessors[e as usize].retain(|a| a.slot != slot);
            if (e as usize) < self.snap_readers.len() {
                self.snap_readers[e as usize].retain(|r| r.slot != slot);
            }
        }
        if let Some(list) = self.parked.remove(&slot) {
            for (from, _) in list {
                self.slots[from as usize].parked_out -= 1;
            }
        }
        if self.slots[slot as usize].parked_out > 0 {
            for list in self.parked.values_mut() {
                list.retain(|&(from, _)| from != slot);
            }
            self.slots[slot as usize].parked_out = 0;
        }
        let node = &mut self.slots[slot as usize];
        node.live = false;
        node.sealed = true;
        self.by_tx[node.tx.0 as usize] = RETIRED_SLOT;
        self.free.push(slot);
        self.stats.retractions += 1;
        self.stats.live_nodes -= 1;
        if let Some(v) = &self.violation {
            if v.cycle.contains(&tx) {
                self.violation = None;
            }
        }
        self.truncate();
        true
    }

    /// Removes every sealed transaction whose footprint lies wholly below
    /// the contiguous-stamp watermark and which has no incoming edges —
    /// provably cycle-free forever (see the type docs). Runs automatically
    /// on every [`seal`](IncrementalCertifier::seal); exposed so tests can
    /// force truncation at arbitrary points and check the verdict is
    /// unaffected. A no-op after a violation latched.
    pub fn truncate(&mut self) {
        if self.violation.is_some() {
            return;
        }
        self.advance_watermark();
        // Only sealed nodes can be prunable, so the candidate set is the
        // sealed-pending list; `remove` feeds cascade candidates (preds
        // freed by a removal) back into the same work list.
        let mut work = std::mem::take(&mut self.sealed_pending);
        let mut keep = std::mem::take(&mut self.scratch_work);
        keep.clear();
        while let Some(s) = work.pop() {
            if self.prunable(s) {
                self.remove(s, &mut work);
            } else {
                let n = &self.slots[s as usize];
                if n.live && n.sealed {
                    keep.push(s); // still waiting on preds or the watermark
                }
                // Anything else is a stale or duplicate entry — drop it.
            }
        }
        self.sealed_pending = keep;
        self.scratch_work = work;
    }

    fn advance_watermark(&mut self) {
        while let Some(&Reverse((s, e))) = self.pending.peek() {
            if s > self.next_stamp {
                break;
            }
            self.pending.pop();
            self.next_stamp = self.next_stamp.max(e);
        }
    }

    fn prunable(&self, s: u32) -> bool {
        let n = &self.slots[s as usize];
        n.live
            && n.sealed
            && n.preds.is_empty()
            && n.parked_out == 0
            && n.last_stamp < self.next_stamp
    }

    /// Removes node `s`, cleaning both edge directions and its accessor
    /// entries, and queues successors that just became prunable.
    fn remove(&mut self, s: u32, work: &mut Vec<u32>) {
        let mut i = 0;
        while let Some(&t) = self.slots[s as usize].succs.get(i) {
            self.edge_set.remove(&edge_key(s, t));
            let preds = &mut self.slots[t as usize].preds;
            let pos = preds
                .iter()
                .position(|&p| p == s)
                .expect("edge recorded in both directions");
            preds.swap_remove(pos);
            if self.prunable(t) {
                work.push(t);
            }
            i += 1;
        }
        let mut i = 0;
        while let Some(&e) = self.slots[s as usize].touched.get(i) {
            self.accessors[e as usize].retain(|a| a.slot != s);
            if (e as usize) < self.snap_readers.len() {
                self.snap_readers[e as usize].retain(|r| r.slot != s);
            }
            i += 1;
        }
        let node = &mut self.slots[s as usize];
        node.live = false;
        self.by_tx[node.tx.0 as usize] = RETIRED_SLOT;
        self.free.push(s);
        self.stats.truncations += 1;
        self.stats.live_nodes -= 1;
    }

    fn slot_of(&mut self, tx: TxId) -> u32 {
        if tx.0 as usize >= self.by_tx.len() {
            self.by_tx.resize(tx.0 as usize + 1, NO_SLOT);
        } else if self.by_tx[tx.0 as usize] != NO_SLOT {
            let s = self.by_tx[tx.0 as usize];
            debug_assert!(s != RETIRED_SLOT, "step for retired transaction {tx}");
            if s != RETIRED_SLOT {
                return s;
            }
        }
        let slot = match self.free.pop() {
            Some(s) => {
                // Reset in place: the recycled node's edge and footprint
                // vectors keep their capacity, so steady-state slot churn
                // does not touch the allocator.
                let node = &mut self.slots[s as usize];
                node.tx = tx;
                node.sealed = false;
                node.aborted = false;
                node.parked_out = 0;
                node.live = true;
                node.last_stamp = 0;
                node.level = 0;
                node.succs.clear();
                node.preds.clear();
                node.touched.clear();
                s
            }
            None => {
                assert!(
                    self.slots.len() < u32::MAX as usize,
                    "certifier slot space exhausted"
                );
                self.slots.push(CertNode::fresh(tx));
                self.visit_mark.push(0);
                (self.slots.len() - 1) as u32
            }
        };
        self.by_tx[tx.0 as usize] = slot;
        self.stats.live_nodes += 1;
        self.stats.peak_nodes = self.stats.peak_nodes.max(self.stats.live_nodes);
        slot
    }

    /// Inserts edge `from -> into` (dedup against existing edges) and runs
    /// the incremental cycle check: is `from` reachable back from `into`?
    ///
    /// The level invariant (every edge strictly increases `level`) makes
    /// the check cheap: an edge landing forward in level order cannot
    /// close a cycle and pays nothing; a backward edge pays one DFS
    /// bounded to levels below `from`'s, after which `into` and its
    /// descendants are lifted to restore the invariant.
    fn add_edge(&mut self, from: u32, into: u32, stamp: u64) {
        if !self.edge_set.insert(edge_key(from, into)) {
            return;
        }
        self.slots[from as usize].succs.push(into);
        self.slots[into as usize].preds.push(from);
        self.stats.edges += 1;
        let (from_level, into_level) = (
            self.slots[from as usize].level,
            self.slots[into as usize].level,
        );
        if from_level < into_level {
            return; // level order already holds — no cycle possible
        }
        // A cycle needs a pre-existing path into -> … -> from, along which
        // levels strictly increase — possible only from a strictly lower
        // starting level.
        if into_level < from_level {
            if let Some(path) = self.path(into, from) {
                // path = into -> … -> from; the new edge closes
                // from -> into.
                let mut cycle: Vec<TxId> = Vec::with_capacity(path.len() + 1);
                cycle.push(self.slots[from as usize].tx);
                cycle.extend(path.iter().map(|&s| self.slots[s as usize].tx));
                // `path` ends at `from`, so the closing repeat is already
                // there.
                self.violation = Some(CertViolation { cycle, stamp });
                return;
            }
        }
        // No cycle: lift `into` above `from`, cascading along successors
        // whose levels the lift overtakes.
        let mut raise = std::mem::take(&mut self.scratch_raise);
        raise.clear();
        raise.push((into, from_level + 1));
        while let Some((n, min)) = raise.pop() {
            if self.slots[n as usize].level >= min {
                continue;
            }
            self.slots[n as usize].level = min;
            let mut i = 0;
            while let Some(&m) = self.slots[n as usize].succs.get(i) {
                raise.push((m, min + 1));
                i += 1;
            }
        }
        self.scratch_raise = raise;
    }

    /// DFS for a path `start -> … -> target` along successor edges;
    /// epoch-marked visited set, no allocation beyond the reused stack.
    /// Pruned by the level invariant: intermediates on any such path have
    /// levels strictly below `target`'s.
    fn path(&mut self, start: u32, target: u32) -> Option<Vec<u32>> {
        self.visit_epoch = self.visit_epoch.wrapping_add(1);
        if self.visit_epoch == 0 {
            self.visit_mark.iter_mut().for_each(|m| *m = 0);
            self.visit_epoch = 1;
        }
        let epoch = self.visit_epoch;
        let bound = self.slots[target as usize].level;
        // Stack of (node, next successor index to try); the node column is
        // the current path.
        let mut stack = std::mem::take(&mut self.scratch_dfs);
        stack.clear();
        stack.push((start, 0));
        self.visit_mark[start as usize] = epoch;
        if start == target {
            self.scratch_dfs = stack;
            return Some(vec![start]);
        }
        let mut found = None;
        'dfs: while let Some(&(n, i)) = stack.last() {
            match self.slots[n as usize].succs.get(i) {
                None => {
                    stack.pop();
                }
                Some(&m) => {
                    stack.last_mut().expect("nonempty").1 += 1;
                    if m == target {
                        let mut path: Vec<u32> = stack.iter().map(|&(s, _)| s).collect();
                        path.push(target);
                        found = Some(path);
                        break 'dfs;
                    }
                    if self.visit_mark[m as usize] != epoch && self.slots[m as usize].level < bound
                    {
                        self.visit_mark[m as usize] = epoch;
                        stack.push((m, 0));
                    }
                }
            }
        }
        self.scratch_dfs = stack;
        found
    }

    /// Replays a finished schedule through the incremental machinery:
    /// steps observed in order (stamp = position), each transaction sealed
    /// at its last step so truncation runs exactly as it would online.
    /// Returns the first caught cycle, or `None` — by construction the
    /// same verdict as
    /// [`is_serializable`](crate::serializability::is_serializable).
    pub fn certify_schedule(schedule: &Schedule) -> Option<CertViolation> {
        Self::certify_schedule_with_aborts(schedule, &[])
    }

    /// [`certify_schedule`](Self::certify_schedule) for a trace from an
    /// aborting runtime: each transaction seals with its outcome, so
    /// parked snapshot-read edges against `aborted` writers dissolve
    /// exactly as the online path dissolves them (mirrors
    /// [`SerializationGraph::of_with_aborts`]).
    pub fn certify_schedule_with_aborts(
        schedule: &Schedule,
        aborted: &[TxId],
    ) -> Option<CertViolation> {
        let steps = schedule.steps();
        let mut last: FxHashMap<TxId, usize> = FxHashMap::default();
        for (i, s) in steps.iter().enumerate() {
            last.insert(s.tx, i);
        }
        let mut cert = IncrementalCertifier::new();
        for (i, s) in steps.iter().enumerate() {
            cert.observe_trace(&[(i as u64, *s)]);
            if cert.violation().is_some() {
                break;
            }
            if last[&s.tx] == i {
                cert.seal_with(s.tx, aborted.contains(&s.tx));
            }
        }
        cert.violation.take()
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

    /// The incremental index must agree with `SerializationGraph::of` on
    /// the edge set of every prefix of a schedule, through pushes and pops.
    #[test]
    fn conflict_index_matches_batch_graph() {
        let ids = [t(1), t(2), t(3)];
        let steps = vec![
            (1, Step::write(e(0))),
            (2, Step::read(e(0))),
            (3, Step::lock_exclusive(e(1))),
            (3, Step::write(e(1))),
            (3, Step::unlock_exclusive(e(1))),
            (1, Step::lock_exclusive(e(1))),
            (2, Step::write(e(0))),
            (1, Step::write(e(1))),
        ];
        let k = ids.len();
        let dense = |tx: TxId| ids.iter().position(|&x| x == tx).unwrap();
        let set_of = |s: &Schedule| {
            let g = SerializationGraph::of(s);
            let mut set = EdgeSet::empty(k);
            for edge in g.edges() {
                set.insert(dense(edge.from), dense(edge.to));
            }
            set
        };
        let mut index = ConflictIndex::new(k);
        let mut schedule = Schedule::empty();
        let mut set = EdgeSet::empty(k);
        let mut set_trail = vec![set.clone()];
        for &(tx, step) in &steps {
            let to = dense(t(tx));
            if let Some(d) = index.edge_delta(to, &step) {
                set.union_with(&d);
            }
            index.push(to, step);
            schedule.push(ScheduledStep::new(t(tx), step));
            assert_eq!(set, set_of(&schedule), "prefix {}", schedule.len());
            set_trail.push(set.clone());
        }
        // Pop everything back; edge_delta must keep agreeing with the
        // batch graph of the shrunk schedule.
        while schedule.pop().is_some() {
            index.pop();
            set_trail.pop();
            let expect = set_trail.last().unwrap();
            assert_eq!(
                expect,
                &set_of(&schedule),
                "after pop to {}",
                schedule.len()
            );
            assert_eq!(index.len(), schedule.len());
        }
        assert!(index.is_empty());
    }

    #[test]
    fn conflict_index_delta_ignores_same_transaction_and_other_entities() {
        let mut index = ConflictIndex::new(2);
        index.push(0, Step::write(e(0)));
        // Same transaction: no edge (and no allocation — None).
        assert!(index.edge_delta(0, &Step::write(e(0))).is_none());
        // Different entity: no edge.
        assert!(index.edge_delta(1, &Step::write(e(1))).is_none());
        // Conflicting access by the other transaction: edge 0 -> 1.
        let delta = index.edge_delta(1, &Step::read(e(0))).expect("conflict");
        assert_eq!(delta.edges(), vec![(0, 1)]);
    }

    /// Wide-`k` construction is a first-class path: indices above the
    /// `u128` bound build, produce words-backed deltas, and agree with the
    /// batch graph (regression: `ConflictIndex::new` used to panic here).
    #[test]
    fn conflict_index_supports_wide_k() {
        let k = ConflictIndex::MAX_TXS + 5; // 16
        let mut index = ConflictIndex::new(k);
        assert_eq!(index.width(), k);
        for i in 0..k {
            index.push(i, Step::write(e(0)));
        }
        // A write by a fresh view of transaction 0: conflicts with every
        // *other* transaction's write.
        let delta = index.edge_delta(0, &Step::write(e(0))).expect("conflicts");
        assert!(delta.as_small_mask().is_none(), "k > 11 must use words");
        assert_eq!(delta.len(), k - 1);
        for from in 1..k {
            assert!(delta.contains(from, 0));
        }
    }

    #[test]
    fn edgeset_apply_undo_round_trip_both_reprs() {
        for k in [3usize, 13] {
            let mut set = if k <= EdgeSet::MAX_SMALL_TXS {
                EdgeSet::empty(k)
            } else {
                EdgeSet::empty_wide(k)
            };
            let mut d1 = EdgeSet::empty(k);
            d1.insert(0, 1);
            d1.insert(1, 2);
            let mut d2 = EdgeSet::empty(k);
            d2.insert(1, 2); // overlaps d1: must not be double-counted
            d2.insert(2, 0);
            let empty = set.clone();
            let a1 = set.apply(&d1);
            let after_d1 = set.clone();
            assert_eq!(a1.len(), 2);
            let a2 = set.apply(&d2);
            assert_eq!(a2.len(), 1, "overlap with d1 must not re-add (1,2)");
            assert!(set.has_cycle(), "0->1->2->0 closes a cycle (k = {k})");
            set.undo(&a2);
            assert_eq!(set, after_d1);
            assert!(!set.has_cycle());
            set.undo(&a1);
            assert_eq!(set, empty);
            assert!(set.is_empty());
        }
    }

    #[test]
    fn edgeset_wide_cycle_detection_spans_word_boundaries() {
        // k = 70 forces a 2-word stride; route a cycle through node 69 so
        // both words of a row carry bits.
        let k = 70;
        let mut set = EdgeSet::empty(k);
        assert!(set.as_small_mask().is_none());
        set.insert(0, 69);
        set.insert(69, 5);
        assert!(!set.has_cycle());
        assert!(set.has_out_edges(69));
        assert!(!set.has_out_edges(5));
        set.insert(5, 0);
        assert!(set.has_cycle());
        assert_eq!(set.edges(), vec![(0, 69), (5, 0), (69, 5)]);
    }

    /// Replaying whole schedules through the incremental certifier must
    /// agree with the batch checker, and flag the cycle at the position
    /// where the prefix first becomes nonserializable.
    #[test]
    fn certifier_agrees_with_batch_checker() {
        use crate::serializability::is_serializable;
        let serializable = sched(vec![
            (1, Step::write(e(0))),
            (1, Step::write(e(1))),
            (2, Step::write(e(0))),
            (2, Step::write(e(1))),
        ]);
        assert!(is_serializable(&serializable));
        assert_eq!(IncrementalCertifier::certify_schedule(&serializable), None);

        let crossed = sched(vec![
            (1, Step::write(e(0))),
            (2, Step::write(e(1))),
            (1, Step::write(e(1))), // 2 -> 1
            (2, Step::write(e(0))), // 1 -> 2: closes the cycle HERE
        ]);
        assert!(!is_serializable(&crossed));
        let v = IncrementalCertifier::certify_schedule(&crossed).expect("cycle");
        assert_eq!(v.stamp, 3, "flagged at the closing edge");
        assert_eq!(v.cycle.first(), v.cycle.last());
        assert!(v.cycle.contains(&t(1)) && v.cycle.contains(&t(2)));
    }

    /// Out-of-order arrival (the runtime's feeding reality) must build the
    /// same graph: edge direction follows stamps, not arrival order.
    #[test]
    fn certifier_handles_out_of_order_stamps() {
        let steps = [
            (0u64, 1u32, Step::write(e(0))),
            (1, 2, Step::write(e(1))),
            (2, 1, Step::write(e(1))),
            (3, 2, Step::write(e(0))),
        ];
        // Feed in a scrambled order; verdict must match in-order feeding.
        for order in [[3usize, 0, 2, 1], [1, 3, 0, 2], [0, 1, 2, 3]] {
            let mut cert = IncrementalCertifier::new();
            for &i in &order {
                let (stamp, tx, step) = steps[i];
                cert.observe(stamp, t(tx), step);
            }
            let v = cert.violation().expect("crossed writes cycle");
            assert!(v.cycle.contains(&t(1)) && v.cycle.contains(&t(2)));
        }
    }

    /// Truncation must not change any verdict, and must actually bound the
    /// resident graph: a long chain of disjoint committed transactions
    /// stays at O(1) live nodes.
    #[test]
    fn certifier_truncation_bounds_memory_and_keeps_verdicts() {
        let mut cert = IncrementalCertifier::new();
        let mut stamp = 0u64;
        for i in 0..1000u32 {
            let tx = t(i + 1);
            // Every transaction conflicts with the previous one on a
            // shared entity: a 1000-node path in D(S) without truncation.
            cert.observe(stamp, tx, Step::write(e(i)));
            stamp += 1;
            cert.observe(stamp, tx, Step::write(e(i + 1)));
            stamp += 1;
            cert.seal(tx);
        }
        assert!(cert.violation().is_none());
        let stats = cert.stats();
        assert_eq!(stats.steps, 2000);
        assert!(
            stats.peak_nodes <= 3,
            "chain must truncate as it commits, peak was {}",
            stats.peak_nodes
        );
        assert_eq!(stats.truncations, 1000);
        assert_eq!(stats.live_nodes, 0);
        assert_eq!(cert.watermark(), 2000);
    }

    /// A sealed transaction must NOT be pruned while a straggler below the
    /// watermark could still add an incoming edge — and once the straggler
    /// arrives, the cycle it closes is still caught.
    #[test]
    fn certifier_holds_unwatermarked_nodes_for_stragglers() {
        let mut cert = IncrementalCertifier::new();
        // Stamps 1..=2: T2 writes e0 then e1, commits. Stamp 0 (T1's
        // write of e1 that *precedes* T2's) is still in flight.
        cert.observe(1, t(2), Step::write(e(1)));
        cert.observe(2, t(2), Step::write(e(0)));
        cert.seal(t(2));
        cert.truncate();
        assert_eq!(
            cert.stats().truncations,
            0,
            "stamp 0 unseen: T2 must stay resident"
        );
        // The straggler: T1 wrote e1 before T2 (edge 1 -> 2) …
        cert.observe(0, t(1), Step::write(e(1)));
        // … and now writes e0 after T2 (edge 2 -> 1): cycle.
        cert.observe(3, t(1), Step::write(e(0)));
        let v = cert.violation().expect("straggler closes the cycle");
        assert_eq!(v.stamp, 3);
    }

    /// Sealing is what makes nodes eligible — an unsealed (still running)
    /// transaction is never pruned even when fully below the watermark.
    #[test]
    fn certifier_never_prunes_unsealed_nodes() {
        let mut cert = IncrementalCertifier::new();
        cert.observe(0, t(1), Step::write(e(0)));
        cert.observe(1, t(2), Step::write(e(1)));
        cert.seal(t(2));
        cert.truncate();
        let stats = cert.stats();
        // T2 (sealed, watermarked, no preds) goes; T1 stays.
        assert_eq!(stats.truncations, 1);
        assert_eq!(stats.live_nodes, 1);
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
        // The incremental certifier agrees when the writer aborted. (On
        // the cyclic variant it returns no violation: W2 committed and
        // truncated before the reader's steps arrive, and anti-
        // dependencies into committed-truncated writers are dropped —
        // sound for runtime feeds, where a capture after a writer's
        // commit flip observes that writer, so this trace is
        // unproducible; the batch graph above stays the trusted model.)
        assert!(IncrementalCertifier::certify_schedule_with_aborts(&s, &[t(2)]).is_none());
    }

    /// Online explicit-pivot feed, arriving out of order: the reader's
    /// snapshot is fed before the writers' steps, as the runtime does.
    #[test]
    fn certifier_versioned_reads_with_explicit_pivots() {
        let mut cert = IncrementalCertifier::new();
        // W1 installed e0 at stamp 0 and committed.
        cert.observe(0, t(1), Step::write(e(0)));
        cert.seal(t(1));
        // R's snapshot observed W1's version (install stamp 0).
        cert.observe_snapshot_reads(&[VersionedRead {
            stamp: 1,
            tx: t(3),
            entity: e(0),
            observed: Some(t(1)),
            pivot: Some(0),
        }]);
        cert.seal(t(3));
        // W2 writes e0 after the capture: R -> W2 parks, then lands at
        // W2's commit. All acyclic; everything truncates away.
        cert.observe(2, t(2), Step::write(e(0)));
        cert.seal_with(t(2), false);
        assert!(cert.violation().is_none());
        assert_eq!(cert.stats().live_nodes, 0, "all nodes truncated");
    }

    /// The scripted broken-visibility control: R dirty-observes X's
    /// uncommitted version on e1 while missing X's e0 write. If X
    /// commits, the parked R -> X edge lands against the read-time
    /// X -> R edge — a cycle; retracting the victim clears the latch.
    #[test]
    fn certifier_catches_broken_visibility_and_recovers_by_retraction() {
        let mut cert = IncrementalCertifier::new();
        cert.observe_snapshot_reads(&[
            VersionedRead {
                stamp: 0,
                tx: t(2),
                entity: e(0),
                observed: None,
                pivot: None,
            },
            VersionedRead {
                stamp: 1,
                tx: t(2),
                entity: e(1),
                observed: Some(t(1)), // in-progress: a dirty read
                pivot: Some(3),
            },
        ]);
        cert.seal(t(2));
        cert.observe_trace(&[
            (2, ScheduledStep::new(t(1), Step::write(e(0)))),
            (3, ScheduledStep::new(t(1), Step::write(e(1)))),
        ]);
        assert!(cert.violation().is_none(), "edge parked until X's outcome");
        cert.seal_with(t(1), false);
        let v = cert
            .violation()
            .expect("dirty read becomes a cycle at commit");
        assert!(v.cycle.contains(&t(1)) && v.cycle.contains(&t(2)));
        assert!(cert.retract(t(1)), "victim is resident");
        assert!(cert.violation().is_none(), "retraction clears the latch");
        assert_eq!(cert.stats().retractions, 1);
        // The certifier keeps running: an unrelated committed write is fine.
        cert.observe(4, t(4), Step::write(e(2)));
        cert.seal(t(4));
        assert!(cert.violation().is_none());
    }

    /// Same anomaly, but X aborts: its version was a phantom, the parked
    /// edge dissolves, and the whole graph truncates away.
    #[test]
    fn certifier_parked_edge_dissolves_when_writer_aborts() {
        let mut cert = IncrementalCertifier::new();
        cert.observe_snapshot_reads(&[
            VersionedRead {
                stamp: 0,
                tx: t(2),
                entity: e(0),
                observed: None,
                pivot: None,
            },
            VersionedRead {
                stamp: 1,
                tx: t(2),
                entity: e(1),
                observed: Some(t(1)),
                pivot: Some(3),
            },
        ]);
        cert.seal(t(2));
        cert.observe_trace(&[
            (2, ScheduledStep::new(t(1), Step::write(e(0)))),
            (3, ScheduledStep::new(t(1), Step::write(e(1)))),
        ]);
        cert.seal_with(t(1), true);
        assert!(cert.violation().is_none());
        assert_eq!(cert.stats().live_nodes, 0, "all nodes truncated");
    }
}
