//! The **online** serializability certifier: `D(S)` maintained
//! incrementally as sequence-stamped steps stream in from a running
//! system, with the first cycle caught at the edge that closes it.
//!
//! The batch form it is pinned to is [`slp_core::SerializationGraph`];
//! see [`IncrementalCertifier`] for the feeding discipline, the
//! incremental cycle check and committed-prefix truncation.

use rustc_hash::{FxHashMap, FxHashSet};
use slp_core::{Access, Schedule, ScheduledStep, TxId};
use std::cmp::Reverse;
use std::collections::BinaryHeap;
use std::fmt;

/// A serialization-graph cycle caught by the [`IncrementalCertifier`]:
/// the closing edge's stamp plus the full cycle it completed.
#[derive(Clone, PartialEq, Eq, Debug)]
pub struct CertViolation {
    /// The cycle as a transaction sequence `v0 -> v1 -> … -> v0` (first
    /// node repeated at the end, matching
    /// [`SerializationGraph::find_cycle`](slp_core::SerializationGraph::find_cycle)).
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
    /// (`IncrementalCertifier::retract`): the victim's edges and
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

/// One batch's stamp extremes for a single entity: `(entity, benign
/// (min, max), strong (min, max), mutation (min, max))` — the last the
/// version-installing subset of the strong steps (`W`/`I`/`D`).
type EntityGroup = (u32, (u64, u64), (u64, u64), (u64, u64));

/// Packs an ordered slot pair into the edge-set key.
#[inline]
fn edge_key(from: u32, into: u32) -> u64 {
    (u64::from(from) << 32) | u64::from(into)
}

/// Removes `slot` from an adjacency list (edges are recorded in both
/// directions, so it is there).
fn unlink(list: &mut Vec<u32>, slot: u32) {
    let pos = list
        .iter()
        .position(|&x| x == slot)
        .expect("edge recorded in both directions");
    list.swap_remove(pos);
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
    /// Entities this node has accessor or snapshot-reader entries under
    /// (for the eager purge when the slot is detached).
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
/// * **Snapshot reads are steps.** A read-only job's reads arrive in the
///   same batches as everything else
///   ([`ScheduledStep::snapshot_read`]), naming only the writer they
///   observed; the certifier derives the version from that writer's
///   steps. The premise is that an observed writer is fed before its
///   reader: the runtime certifies a writer before it makes its versions
///   visible, all of them at once, and a snapshot sees only visible
///   writers (replay feeds in stamp order, which implies it).
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
/// Sequential sanity check:
/// [`IncrementalCertifier::certify_schedule_with_aborts`]
/// replays a finished [`Schedule`] through the same machinery; the
/// differential suite pins its verdict to
/// [`is_serializable`](slp_core::is_serializable).
#[derive(Clone, Debug, Default)]
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
    /// The first latched cycle [`retract`](Self::retract) cleared: the
    /// run went on without the victim, but the report still shows what
    /// was caught.
    retracted: Option<CertViolation>,
    stats: CertStats,
}

impl IncrementalCertifier {
    /// An empty certifier expecting stamps from 0.
    pub fn new() -> Self {
        Self::default()
    }

    /// The cycle latched now, if any. Once set only a retraction clears
    /// it; until then observations are no-ops beyond stamp tracking.
    pub fn violation(&self) -> Option<&CertViolation> {
        self.violation.as_ref()
    }

    /// The first cycle caught over the whole run: the first one a
    /// retraction cleared, else the one latched now.
    pub fn first_violation(&self) -> Option<&CertViolation> {
        self.retracted.as_ref().or(self.violation.as_ref())
    }

    /// Work and footprint counters (live/peak node counts, edges,
    /// truncations).
    pub fn stats(&self) -> CertStats {
        self.stats
    }

    /// Feeds a stamped batch — the runtime's unit of arrival (one
    /// worker's recorded steps, stamps strictly ascending within the
    /// batch). Stamps must be globally unique and dense over the whole run
    /// (the runtime's atomic sequence counter guarantees this); arrival
    /// order across batches is free. Maximal consecutive stamp runs are
    /// tracked as single ranges, and each run of same-transaction steps is
    /// collapsed to per-(entity, class) stamp extremes before it touches
    /// the graph: serialization edges are pairwise stamp comparisons, so
    /// the extremes derive exactly the edge set per-step feeding would, at
    /// a fraction of the accessor scans. A snapshot read is one of the
    /// batch's steps ([`ScheduledStep::snapshot_read`]); its observed
    /// writer must already have been fed whole (see the type docs).
    pub fn observe_trace(&mut self, batch: &[(u64, ScheduledStep)]) {
        self.record_stamps(batch.iter().map(|&(s, _)| s));
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
            let mut run_last = batch[i].0;
            while j < batch.len() && batch[j].1.tx == tx {
                let (stamp, s) = batch[j];
                run_last = stamp;
                let entity = s.step.entity.0;
                if let Access::Snapshot { observed } = s.via {
                    // Versioned read: ordered against the entity's writers
                    // by the version it observed, never by stamp order —
                    // it must not enter the benign accessor ranges. The
                    // pivot (observed version's install stamp) is the
                    // observed writer's newest mutation stamp on the
                    // entity: a read returns that writer's newest version,
                    // and every feed has all of the writer's steps by the
                    // time a read can observe it — replay feeds in stamp
                    // order, and the runtime certifies a writer before it
                    // flips, all of its versions at once, while a snapshot
                    // sees only flipped writers. A retired writer yields
                    // no pivot, which orders the reader before every
                    // resident writer of the entity: each of them has
                    // stamps only above the retired one's (one below would
                    // be an edge into it, and it would not have retired).
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

    /// Counts a batch's stamps (strictly ascending) as observed steps and
    /// records them as maximal consecutive ranges pending contiguity, one
    /// heap entry per range.
    fn record_stamps(&mut self, mut stamps: impl Iterator<Item = u64>) {
        let Some(first) = stamps.next() else {
            return;
        };
        let (mut start, mut prev) = (first, first);
        let mut count = 1;
        for s in stamps {
            debug_assert!(s > prev, "batch stamps must be ascending");
            if s != prev + 1 {
                self.pending.push(Reverse((start, prev + 1)));
                start = s;
            }
            prev = s;
            count += 1;
        }
        self.pending.push(Reverse((start, prev + 1)));
        self.stats.steps += count;
    }

    /// Graph maintenance for one snapshot read: the versioned analogue of
    /// [`observe_access`](Self::observe_access). A snapshot read is
    /// ordered by the *version* it observed, never by stamp order:
    ///
    /// * `X → R` for the observed writer `X` (wr-dependency). A
    ///   *truncated* `X` needs no edge, because truncation guarantees no
    ///   live accessor of the entity predates it. An unseen `X` gets a
    ///   node now; only a hand-fed trace can have one, since a runtime
    ///   writer is fed before any snapshot can observe it.
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

    /// Whether `tx` has been fed, resident or retired — the premise a
    /// snapshot read's observed writer must meet (see the type docs).
    pub(crate) fn knows(&self, tx: TxId) -> bool {
        self.by_tx.get(tx.0 as usize).is_some_and(|&s| s != NO_SLOT)
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
    /// victim appears in the latched cycle, keeping the first cycle so
    /// cleared for [`first_violation`](Self::first_violation). Returns
    /// `false` when `tx` is not resident.
    pub(crate) fn retract(&mut self, tx: TxId) -> bool {
        let Some(slot) = self.live_slot(tx) else {
            return false;
        };
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
        let mut pending = std::mem::take(&mut self.sealed_pending);
        self.detach(slot, &mut pending);
        self.sealed_pending = pending;
        self.stats.retractions += 1;
        if self
            .violation
            .as_ref()
            .is_some_and(|v| v.cycle.contains(&tx))
        {
            let cleared = self.violation.take();
            self.retracted = self.retracted.take().or(cleared);
        }
        self.truncate();
        true
    }

    /// Removes every sealed transaction whose footprint lies wholly below
    /// the contiguous-stamp watermark and which has no incoming edges —
    /// provably cycle-free forever (see the type docs). Runs on every
    /// [`seal_with`](IncrementalCertifier::seal_with) and
    /// [`retract`](IncrementalCertifier::retract). A no-op after a
    /// violation latched.
    fn truncate(&mut self) {
        if self.violation.is_some() {
            return;
        }
        self.advance_watermark();
        // Only sealed nodes can be prunable, so the candidate set is the
        // sealed-pending list; `detach` feeds cascade candidates
        // (successors a removal left prunable) back into the same work
        // list.
        let mut work = std::mem::take(&mut self.sealed_pending);
        let mut keep = std::mem::take(&mut self.scratch_work);
        keep.clear();
        while let Some(s) = work.pop() {
            if self.prunable(s) {
                self.detach(s, &mut work);
                self.stats.truncations += 1;
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

    /// Tears down live slot `s`: drops its edges in both directions and
    /// its accessor and snapshot-reader footprint, retires its id, and
    /// frees the slot. Former successors that just became prunable are
    /// queued on `work`. The node's own lists keep their capacity for
    /// [`slot_of`](Self::slot_of) to reset on reuse; parked edges are the
    /// caller's (a truncated node has none).
    fn detach(&mut self, s: u32, work: &mut Vec<u32>) {
        let mut i = 0;
        while let Some(&p) = self.slots[s as usize].preds.get(i) {
            self.edge_set.remove(&edge_key(p, s));
            unlink(&mut self.slots[p as usize].succs, s);
            i += 1;
        }
        let mut i = 0;
        while let Some(&t) = self.slots[s as usize].succs.get(i) {
            self.edge_set.remove(&edge_key(s, t));
            unlink(&mut self.slots[t as usize].preds, s);
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
    /// at its last step — with its outcome, `aborted` or committed — so
    /// truncation runs exactly as it would online and parked snapshot-read
    /// edges against aborted writers dissolve exactly as the online path
    /// dissolves them. Returns the first caught cycle, or `None` — by
    /// construction the same verdict as
    /// [`is_serializable_with_aborts`](slp_core::is_serializable_with_aborts)
    /// (mirrors
    /// [`SerializationGraph::of_with_aborts`](slp_core::SerializationGraph::of_with_aborts)).
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

#[cfg(test)]
mod tests {
    use super::*;
    use slp_core::{is_serializable, EntityId, Step};

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

    /// Replaying whole schedules through the incremental certifier must
    /// agree with the batch checker, and flag the cycle at the position
    /// where the prefix first becomes nonserializable.
    #[test]
    fn certifier_agrees_with_batch_checker() {
        let serializable = sched(vec![
            (1, Step::write(e(0))),
            (1, Step::write(e(1))),
            (2, Step::write(e(0))),
            (2, Step::write(e(1))),
        ]);
        assert!(is_serializable(&serializable));
        assert_eq!(
            IncrementalCertifier::certify_schedule_with_aborts(&serializable, &[]),
            None
        );

        let crossed = sched(vec![
            (1, Step::write(e(0))),
            (2, Step::write(e(1))),
            (1, Step::write(e(1))), // 2 -> 1
            (2, Step::write(e(0))), // 1 -> 2: closes the cycle HERE
        ]);
        assert!(!is_serializable(&crossed));
        let v = IncrementalCertifier::certify_schedule_with_aborts(&crossed, &[]).expect("cycle");
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
                cert.observe_trace(&[(stamp, ScheduledStep::new(t(tx), step))]);
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
            cert.observe_trace(&[(stamp, ScheduledStep::new(tx, Step::write(e(i))))]);
            stamp += 1;
            cert.observe_trace(&[(stamp, ScheduledStep::new(tx, Step::write(e(i + 1))))]);
            stamp += 1;
            cert.seal_with(tx, false);
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
        cert.advance_watermark();
        assert_eq!(cert.next_stamp, 2000);
    }

    /// A sealed transaction must NOT be pruned while a straggler below the
    /// watermark could still add an incoming edge — and once the straggler
    /// arrives, the cycle it closes is still caught.
    #[test]
    fn certifier_holds_unwatermarked_nodes_for_stragglers() {
        let mut cert = IncrementalCertifier::new();
        // Stamps 1..=2: T2 writes e0 then e1, commits. Stamp 0 (T1's
        // write of e1 that *precedes* T2's) is still in flight.
        cert.observe_trace(&[(1, ScheduledStep::new(t(2), Step::write(e(1))))]);
        cert.observe_trace(&[(2, ScheduledStep::new(t(2), Step::write(e(0))))]);
        cert.seal_with(t(2), false);
        cert.truncate();
        assert_eq!(
            cert.stats().truncations,
            0,
            "stamp 0 unseen: T2 must stay resident"
        );
        // The straggler: T1 wrote e1 before T2 (edge 1 -> 2) …
        cert.observe_trace(&[(0, ScheduledStep::new(t(1), Step::write(e(1))))]);
        // … and now writes e0 after T2 (edge 2 -> 1): cycle.
        cert.observe_trace(&[(3, ScheduledStep::new(t(1), Step::write(e(0))))]);
        let v = cert.violation().expect("straggler closes the cycle");
        assert_eq!(v.stamp, 3);
    }

    /// Sealing is what makes nodes eligible — an unsealed (still running)
    /// transaction is never pruned even when fully below the watermark.
    #[test]
    fn certifier_never_prunes_unsealed_nodes() {
        let mut cert = IncrementalCertifier::new();
        cert.observe_trace(&[(0, ScheduledStep::new(t(1), Step::write(e(0))))]);
        cert.observe_trace(&[(1, ScheduledStep::new(t(2), Step::write(e(1))))]);
        cert.seal_with(t(2), false);
        cert.truncate();
        let stats = cert.stats();
        // T2 (sealed, watermarked, no preds) goes; T1 stays.
        assert_eq!(stats.truncations, 1);
        assert_eq!(stats.live_nodes, 1);
    }

    /// A snapshot read fed as a step, ahead of a later writer's steps:
    /// the pivot comes from the observed writer, fed (and here already
    /// retired) before the read, as the runtime feeds.
    #[test]
    fn certifier_versioned_reads_with_explicit_pivots() {
        let mut cert = IncrementalCertifier::new();
        // W1 installed e0 at stamp 0 and committed.
        cert.observe_trace(&[(0, ScheduledStep::new(t(1), Step::write(e(0))))]);
        cert.seal_with(t(1), false);
        // R's snapshot observed W1's version (install stamp 0).
        cert.observe_trace(&[(1, ScheduledStep::snapshot_read(t(3), e(0), Some(t(1))))]);
        cert.seal_with(t(3), false);
        // W2 writes e0 after the capture: R -> W2 parks, then lands at
        // W2's commit. All acyclic; everything truncates away.
        cert.observe_trace(&[(2, ScheduledStep::new(t(2), Step::write(e(0))))]);
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
        cert.observe_trace(&[
            (0, ScheduledStep::snapshot_read(t(2), e(0), None)),
            // In-progress: a dirty read.
            (1, ScheduledStep::snapshot_read(t(2), e(1), Some(t(1)))),
        ]);
        cert.seal_with(t(2), false);
        cert.observe_trace(&[
            (2, ScheduledStep::new(t(1), Step::write(e(0)))),
            (3, ScheduledStep::new(t(1), Step::write(e(1)))),
        ]);
        assert!(cert.violation().is_none(), "edge parked until X's outcome");
        cert.seal_with(t(1), false);
        let v = cert
            .violation()
            .cloned()
            .expect("dirty read becomes a cycle at commit");
        assert!(v.cycle.contains(&t(1)) && v.cycle.contains(&t(2)));
        assert!(cert.retract(t(1)), "victim is resident");
        assert!(cert.violation().is_none(), "retraction clears the latch");
        assert_eq!(cert.first_violation(), Some(&v), "but keeps the cycle");
        assert_eq!(cert.stats().retractions, 1);
        // The certifier keeps running: an unrelated committed write is fine.
        cert.observe_trace(&[(4, ScheduledStep::new(t(4), Step::write(e(2))))]);
        cert.seal_with(t(4), false);
        assert!(cert.violation().is_none());
    }

    /// Same anomaly, but X aborts: its version was a phantom, the parked
    /// edge dissolves, and the whole graph truncates away.
    #[test]
    fn certifier_parked_edge_dissolves_when_writer_aborts() {
        let mut cert = IncrementalCertifier::new();
        cert.observe_trace(&[
            (0, ScheduledStep::snapshot_read(t(2), e(0), None)),
            (1, ScheduledStep::snapshot_read(t(2), e(1), Some(t(1)))),
        ]);
        cert.seal_with(t(2), false);
        cert.observe_trace(&[
            (2, ScheduledStep::new(t(1), Step::write(e(0)))),
            (3, ScheduledStep::new(t(1), Step::write(e(1)))),
        ]);
        cert.seal_with(t(1), true);
        assert!(cert.violation().is_none());
        assert_eq!(cert.stats().live_nodes, 0, "all nodes truncated");
    }

    /// Retraction and truncation share one slot teardown: a retracted node
    /// and a truncated node leave the same residue — no accessor or
    /// snapshot-reader entry, no edge or parked edge in either role, a
    /// retired id, a free slot, and the live count one lower.
    #[test]
    fn retracted_and_truncated_nodes_leave_the_same_residue() {
        let read =
            |stamp, tx, entity| [(stamp, ScheduledStep::snapshot_read(t(tx), e(entity), None))];
        let write =
            |stamp, tx, entity| [(stamp, ScheduledStep::new(t(tx), Step::write(e(entity))))];
        // Tears T1 down through `detach` and checks what is left.
        let check = |mut cert: IncrementalCertifier, detach: fn(&mut IncrementalCertifier)| {
            let slot = cert.live_slot(t(1)).expect("resident");
            let live = cert.stats().live_nodes;
            detach(&mut cert);
            assert!(cert.accessors.iter().flatten().all(|a| a.slot != slot));
            assert!(cert.snap_readers.iter().flatten().all(|r| r.slot != slot));
            let touches = |k: u64| (k >> 32) as u32 == slot || k as u32 == slot;
            assert!(!cert.edge_set.iter().any(|&k| touches(k)));
            let linked = |n: &CertNode| n.preds.contains(&slot) || n.succs.contains(&slot);
            assert!(!cert.slots.iter().any(|n| n.live && linked(n)));
            assert!(!cert.parked.contains_key(&slot));
            assert!(cert
                .parked
                .values()
                .flatten()
                .all(|&(from, _)| from != slot));
            assert_eq!(cert.by_tx[1], RETIRED_SLOT);
            assert!(cert.free.contains(&slot));
            assert_eq!(cert.stats().live_nodes, live - 1);
        };
        // T1 snapshot-reads e0 (a snap-reader entry) and writes e1 (an
        // accessor entry). Truncated: sealed below the watermark with no
        // predecessor, and one successor, T2, which overwrote e1.
        let mut cert = IncrementalCertifier::new();
        cert.observe_trace(&read(0, 1, 0));
        cert.observe_trace(&write(1, 1, 1));
        cert.observe_trace(&write(2, 2, 1));
        check(cert, |c| {
            c.seal_with(t(1), false);
            assert_eq!(c.stats().truncations, 1);
        });
        // Retracted: the same footprint plus a predecessor (T4 wrote e1
        // first), a successor (T5 overwrote e1) and a parked edge in each
        // role (T3 read e1's initial version, which T1 overwrote; T2
        // overwrote the e0 version T1 read).
        let mut cert = IncrementalCertifier::new();
        cert.observe_trace(&write(0, 4, 1));
        cert.observe_trace(&read(1, 3, 1));
        cert.observe_trace(&read(2, 1, 0));
        cert.observe_trace(&write(3, 1, 1));
        cert.observe_trace(&write(4, 2, 0));
        cert.observe_trace(&write(5, 5, 1));
        let slot = cert.live_slot(t(1)).expect("resident");
        let node = &cert.slots[slot as usize];
        assert!(!node.preds.is_empty() && !node.succs.is_empty() && node.parked_out > 0);
        assert!(cert.parked.contains_key(&slot));
        check(cert, |c| {
            assert!(c.retract(t(1)));
            assert_eq!(c.stats().retractions, 1);
        });
    }
}
