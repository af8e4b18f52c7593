//! Exhaustive exploration of the legal-and-proper schedule space of a
//! locked transaction system.
//!
//! The safety question ("is every legal and proper schedule serializable?")
//! is decided for small systems by depth-first search over interleavings.
//! Soundness of the memoization: two search states with the same
//! per-transaction positions admit exactly the same *futures* (legality and
//! properness of a suffix depend only on positions), but may differ in the
//! serializability graph accumulated so far — so the memo key is the pair
//! (positions, `D(S)`-edge bitmask). Completion searches accept any
//! completion regardless of `D(S)`, so there the memo keys on positions
//! alone.
//!
//! # Search-loop design: apply/undo, not clone
//!
//! The DFS allocates **nothing per node** on its hot path:
//!
//! * **One simulator, mutated in place.** Instead of `sim.clone()` per
//!   branch, each candidate step is applied through
//!   [`ScheduleSimulator::apply_undoable`], which returns a compact
//!   [`slp_core::UndoToken`]; on backtrack the token is passed to
//!   [`ScheduleSimulator::undo`], restoring the simulator bit-for-bit
//!   (LIFO discipline). [`SearchStats::undo_ops`] counts these reversals.
//! * **O(1) schedule backtracking** via [`Schedule::pop`].
//! * **Incremental conflict edges.** A [`slp_core::ConflictIndex`] keeps
//!   per-entity accessor lists keyed by dense transaction indices, so the
//!   `D(S)`-edge delta of a candidate step scans only that entity's prior
//!   accessors instead of the whole schedule. The accumulated edge set is
//!   **one** [`slp_core::EdgeSet`] mutated in place through its
//!   `apply`/`undo` pair, mirroring the simulator discipline.
//! * **Packed memo keys.** Positions are bit-packed 8 bits per transaction
//!   into a `u128` (maintained incrementally, definitionally equal to
//!   [`slp_core::pack_positions`]), and probed alongside the `u128` edge
//!   mask in an `FxHashSet<(u128, u128)>` — no allocation per probe.
//!   Systems exceeding a bound degrade gracefully instead of failing:
//!   positions beyond the pack bound (more than 16 transactions or a
//!   transaction longer than 255 steps) fall back to interned `Vec<u16>`
//!   key halves, and edge sets beyond
//!   [`slp_core::ConflictIndex::MAX_TXS`] (11) transactions fall back to
//!   interned [`slp_core::EdgeSet`] words (`crate::memo::Interner`, the
//!   sequential twin of the parallel table's probe-or-intern). Probes
//!   stay allocation-free — a value is cloned once, on first insertion —
//!   and the old hard `k <= 11` panic became "any `k` verifies; the
//!   state space is the only limit".
//!
//! The pre-optimization clone-per-node DFS is retained verbatim in
//! [`crate::reference`] as the agreement baseline; `bench-report`'s
//! `verifier.seq_s` row times this search. [`crate::parallel`] runs this
//! same search as a work-stealing fleet over per-worker L1 memos and a
//! shared lock-free word table;
//! `verifier/tests/parallel_agreement.rs` locks the two to identical
//! verdicts.
//!
//! The randomized corpus-generation mode ([`complete_schedule_randomized`])
//! shuffles the candidate order at each node, which allocates the shuffled
//! order vector; only that mode pays the allocation.

use crate::memo::Interner;
use rand::rngs::StdRng;
use rand::seq::SliceRandom;
use rand::SeedableRng;
use rustc_hash::FxHashSet;
use slp_core::{
    ConflictIndex, EdgeSet, Schedule, ScheduleSimulator, ScheduledStep, TransactionSystem, TxId,
};
use std::fmt;

/// Re-exported for the retained reference explorer, which keeps raw `u128`
/// masks (it predates [`EdgeSet`] and is kept byte-for-byte faithful).
pub(crate) use slp_core::mask_has_cycle;

/// Limits on the search.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub struct SearchBudget {
    /// Maximum number of search states to visit before giving up.
    pub max_states: usize,
}

impl Default for SearchBudget {
    fn default() -> Self {
        SearchBudget {
            max_states: 2_000_000,
        }
    }
}

/// Statistics from a search run.
#[derive(Clone, Copy, PartialEq, Eq, Debug, Default)]
pub struct SearchStats {
    /// Search states visited.
    pub states: usize,
    /// Memoization hits (states skipped).
    pub memo_hits: usize,
    /// Complete schedules reached.
    pub completions: usize,
    /// Steps reversed while backtracking (apply/undo DFS only; the
    /// reference explorer clones instead and reports 0).
    pub undo_ops: usize,
}

impl fmt::Display for SearchStats {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "{} states, {} memo hits, {} completions, {} undos",
            self.states, self.memo_hits, self.completions, self.undo_ops
        )
    }
}

/// The verdict of a safety check.
#[derive(Clone, PartialEq, Eq, Debug)]
pub enum Verdict {
    /// Every legal and proper schedule is serializable.
    Safe(SearchStats),
    /// A legal, proper, nonserializable complete schedule exists.
    Unsafe {
        /// The counterexample schedule.
        witness: Schedule,
        /// Search statistics.
        stats: SearchStats,
    },
    /// The budget was exhausted before the space was covered.
    Exhausted(SearchStats),
}

impl Verdict {
    /// Whether the verdict is [`Verdict::Safe`].
    pub fn is_safe(&self) -> bool {
        matches!(self, Verdict::Safe(_))
    }

    /// Whether the verdict is [`Verdict::Unsafe`].
    pub fn is_unsafe(&self) -> bool {
        matches!(self, Verdict::Unsafe { .. })
    }

    /// The counterexample, if unsafe.
    pub fn witness(&self) -> Option<&Schedule> {
        match self {
            Verdict::Unsafe { witness, .. } => Some(witness),
            _ => None,
        }
    }

    /// The statistics of the run.
    pub fn stats(&self) -> SearchStats {
        match self {
            Verdict::Safe(s) | Verdict::Exhausted(s) | Verdict::Unsafe { stats: s, .. } => *s,
        }
    }
}

/// The visited-state set, keyed on (positions, `D(S)` edges). Two key
/// shapes:
///
/// * `Packed` — positions bit-packed into a `u128` **and** edges in
///   [`EdgeSet`]'s `u128` representation: one `(u128, u128)` probe, no
///   allocation. This is every system exhaustive search can realistically
///   cover.
/// * `PackedEdges` — positions still pack (k ≤ 16, steps ≤ 255) but edges
///   are words (k > 11): edge sets are interned through the shared
///   [`Interner`] (the sequential twin of the parallel table's
///   probe-or-intern — one key-interning API across explorers), so keys
///   are small `(u128, u32)` pairs, probes are allocation-free, and the
///   hit-heavy memo set never compares 100+-byte word strings.
/// * `Wide` — positions exceed the pack bound too: both halves interned,
///   `(u32, u32)` keys, allocation-free probes.
///
/// The parallel explorer's *shared* memo instead encodes whole keys into
/// the lock-free word table (one synchronized op per probe); this enum
/// doubles as the parallel workers' private L1 memo, which is what
/// guarantees the L1's per-probe cost equals the sequential explorer's.
pub(crate) enum Memo {
    Packed(FxHashSet<(u128, u128)>),
    PackedEdges {
        set: FxHashSet<(u128, u32)>,
        edges: Interner<EdgeSet>,
    },
    Wide {
        set: FxHashSet<(u32, u32)>,
        positions: Interner<Vec<u16>>,
        edges: Interner<EdgeSet>,
    },
}

impl Memo {
    /// Picks the key shape for a system of `k` transactions whose
    /// positions do (not) pack, with `small_edges` saying whether edge
    /// sets use the `u128` representation.
    pub(crate) fn for_system(packable: bool, small_edges: bool) -> Memo {
        match (packable, small_edges) {
            (true, true) => Memo::Packed(FxHashSet::default()),
            (true, false) => Memo::PackedEdges {
                set: FxHashSet::default(),
                edges: Interner::new(),
            },
            (false, _) => Memo::Wide {
                set: FxHashSet::default(),
                positions: Interner::new(),
                edges: Interner::new(),
            },
        }
    }

    pub(crate) fn contains(&self, packed: u128, positions: &[u16], edges: &EdgeSet) -> bool {
        match self {
            Memo::Packed(set) => {
                set.contains(&(packed, edges.as_small_mask().expect("small edges")))
            }
            // An un-interned value was never part of an inserted key, so
            // the memo cannot contain the state: answer without cloning.
            Memo::PackedEdges { set, edges: ids } => {
                ids.get(edges).is_some_and(|e| set.contains(&(packed, e)))
            }
            Memo::Wide {
                set,
                positions: pos_ids,
                edges: edge_ids,
            } => match (pos_ids.get(positions), edge_ids.get(edges)) {
                (Some(p), Some(e)) => set.contains(&(p, e)),
                _ => false,
            },
        }
    }

    pub(crate) fn insert(&mut self, packed: u128, positions: &[u16], edges: &EdgeSet) {
        match self {
            Memo::Packed(set) => {
                set.insert((packed, edges.as_small_mask().expect("small edges")));
            }
            Memo::PackedEdges { set, edges: ids } => {
                let e = ids.probe_or_intern(edges);
                set.insert((packed, e));
            }
            Memo::Wide {
                set,
                positions: pos_ids,
                edges: edge_ids,
            } => {
                let p = pos_ids.probe_or_intern(positions);
                let e = edge_ids.probe_or_intern(edges);
                set.insert((p, e));
            }
        }
    }
}

/// Incrementally maintained per-position bookkeeping, shared by the
/// sequential [`Search`] and the parallel explorer's workers so the two
/// searches cannot drift apart on it:
///
/// * `packed` — positions bit-packed 8 bits per transaction (the position
///   half of the fast-path memo key, definitionally equal to
///   [`slp_core::pack_positions`]), maintained only when `packable` (k ≤
///   16, all |T| ≤ 255) so wide systems never shift out of range;
/// * `started` / `finished` — how many transactions have taken at least
///   one step resp. run to completion, so acceptance checks need no O(k)
///   scan per node. Zero-length transactions are excluded from **both**
///   counters: they can never start, and pre-counting them as finished
///   would let `started == finished` accept nodes where a started
///   transaction is still mid-flight.
#[derive(Clone)]
pub(crate) struct PositionBook {
    /// Per-transaction step counts, densely indexed.
    pub(crate) lens: Vec<u16>,
    pub(crate) packable: bool,
    pub(crate) packed: u128,
    pub(crate) started: usize,
    pub(crate) finished: usize,
}

impl PositionBook {
    pub(crate) fn new(lens: Vec<u16>) -> Self {
        let packable = lens.len() <= 16 && lens.iter().all(|&l| l <= u8::MAX as u16);
        PositionBook {
            lens,
            packable,
            packed: 0,
            started: 0,
            finished: 0,
        }
    }

    /// Back to the all-zero-positions state (the parallel workers reuse
    /// one book across task replays).
    pub(crate) fn reset(&mut self) {
        self.packed = 0;
        self.started = 0;
        self.finished = 0;
    }

    /// Advances dense transaction `i` by one step: positions, the packed
    /// word, and the started/finished counters, all O(1).
    pub(crate) fn take(&mut self, positions: &mut [u16], i: usize) {
        positions[i] += 1;
        if self.packable {
            self.packed += 1u128 << (8 * i);
        }
        if positions[i] == 1 {
            self.started += 1;
        }
        if positions[i] == self.lens[i] {
            self.finished += 1;
        }
    }

    /// Reverses [`take`](PositionBook::take) for dense transaction `i`.
    pub(crate) fn untake(&mut self, positions: &mut [u16], i: usize) {
        if positions[i] == self.lens[i] {
            self.finished -= 1;
        }
        if positions[i] == 1 {
            self.started -= 1;
        }
        if self.packable {
            self.packed -= 1u128 << (8 * i);
        }
        positions[i] -= 1;
    }
}

struct Search<'a> {
    budget: SearchBudget,
    stats: SearchStats,
    /// Transactions in dense-index order (index `i` ↔ `ids[i]`).
    ids: Vec<TxId>,
    txs: Vec<&'a slp_core::LockedTransaction>,
    memo: Memo,
    /// Position bookkeeping (packed memo-key word, started/finished).
    book: PositionBook,
    /// Number of zero-length transactions (trivially complete; they only
    /// matter for the require_all acceptance mode).
    zero_len: usize,
    /// `D(S)`-edge tracking: present iff the acceptance predicate inspects
    /// edges (`want_cycle`), absent for plain completion searches.
    index: Option<ConflictIndex>,
    /// Search goal: when all started transactions have finished, accept if
    /// the accumulated `D(S)` edge mask satisfies this predicate.
    want_cycle: bool,
    /// When set, candidate transactions are tried in a shuffled order at
    /// each node, so the first completion found is a *random interleaved*
    /// schedule rather than a serial one.
    rng: Option<StdRng>,
    /// When true, acceptance requires *every* transaction of the system to
    /// have run to completion (not just the started subset).
    require_all: bool,
}

/// Outcome of the internal DFS.
enum Dfs {
    Found(Schedule),
    NotFound,
    BudgetExhausted,
}

impl<'a> Search<'a> {
    fn new(system: &'a TransactionSystem, budget: SearchBudget, want_cycle: bool) -> Self {
        let ids = system.ids();
        let txs: Vec<_> = ids
            .iter()
            .map(|&id| system.get(id).expect("listed id"))
            .collect();
        let lens: Vec<u16> = txs.iter().map(|t| t.len() as u16).collect();
        let k = ids.len();
        let zero_len = lens.iter().filter(|&&l| l == 0).count();
        let book = PositionBook::new(lens);
        // Completion searches never accumulate edges, so their keys always
        // qualify for the small-edge shape.
        let small_edges = !want_cycle || k <= ConflictIndex::MAX_TXS;
        let memo = Memo::for_system(book.packable, small_edges);
        let index = want_cycle.then(|| ConflictIndex::new(k));
        Search {
            budget,
            stats: SearchStats::default(),
            ids,
            txs,
            memo,
            book,
            zero_len,
            index,
            want_cycle,
            rng: None,
            require_all: false,
        }
    }

    fn dfs(
        &mut self,
        positions: &mut [u16],
        sim: &mut ScheduleSimulator,
        schedule: &mut Schedule,
        edges: &mut EdgeSet,
    ) -> Dfs {
        if self.stats.states >= self.budget.max_states {
            return Dfs::BudgetExhausted;
        }
        self.stats.states += 1;

        // Acceptance: every *started* transaction has run to completion
        // (or, in require_all mode, every transaction of the system) —
        // read off the incrementally maintained counters in O(1).
        let k = self.ids.len();
        let all_started_finished = if self.require_all {
            self.book.finished + self.zero_len == k
        } else {
            self.book.started == self.book.finished
        };
        if all_started_finished && self.book.started > 0 {
            self.stats.completions += 1;
            let accept = if self.want_cycle {
                edges.has_cycle()
            } else {
                true
            };
            if accept {
                return Dfs::Found(schedule.clone());
            }
        }

        // The deterministic search iterates candidates in dense order with
        // no per-node allocation; only the randomized corpus generator
        // materializes (and shuffles) an order vector.
        let shuffled: Option<Vec<usize>> = self.rng.as_mut().map(|rng| {
            let mut order: Vec<usize> = (0..k).collect();
            order.shuffle(rng);
            order
        });
        let mut budget_hit = false;
        for idx in 0..k {
            let i = shuffled.as_ref().map_or(idx, |order| order[idx]);
            let id = self.ids[i];
            let pos = positions[i] as usize;
            let Some(&step) = self.txs[i].steps.get(pos) else {
                continue;
            };
            // OR the candidate's edge delta into the running set; `added`
            // records the genuinely new edges so the backtrack can clear
            // exactly those (the edge-set half of the apply/undo trail).
            // Empty deltas — the common case — are `None` end to end, so
            // they skip the apply/undo pair and every allocation.
            let added = self
                .index
                .as_ref()
                .and_then(|index| index.edge_delta(i, &step))
                .map(|delta| edges.apply(&delta));
            // Memo probe before the legality/properness gate: the
            // simulator state is a function of `positions`, so a memoized
            // successor state was necessarily reached by applying this very
            // step legally — an illegal candidate can never hit.
            self.book.take(positions, i);
            if self.memo.contains(self.book.packed, positions, edges) {
                self.stats.memo_hits += 1;
                self.book.untake(positions, i);
                if let Some(a) = &added {
                    edges.undo(a);
                }
                continue;
            }
            // Legality + properness gate and application in one pass
            // (apply_undoable checks, then mutates only on success).
            let Ok(token) = sim.apply_undoable(id, &step) else {
                self.book.untake(positions, i);
                if let Some(a) = &added {
                    edges.undo(a);
                }
                continue;
            };
            schedule.push(ScheduledStep::new(id, step));
            if let Some(index) = &mut self.index {
                index.push(i, step);
            }
            let result = self.dfs(positions, sim, schedule, edges);
            if let Some(index) = &mut self.index {
                index.pop();
            }
            schedule.pop();
            sim.undo(token);
            self.stats.undo_ops += 1;
            match result {
                Dfs::Found(s) => {
                    self.book.untake(positions, i);
                    if let Some(a) = &added {
                        edges.undo(a);
                    }
                    return Dfs::Found(s);
                }
                // Only fully explored subtrees may be memoized.
                Dfs::NotFound => {
                    self.memo.insert(self.book.packed, positions, edges);
                }
                Dfs::BudgetExhausted => {
                    budget_hit = true;
                }
            }
            self.book.untake(positions, i);
            if let Some(a) = &added {
                edges.undo(a);
            }
            if budget_hit {
                break;
            }
        }
        if budget_hit {
            Dfs::BudgetExhausted
        } else {
            Dfs::NotFound
        }
    }
}

/// Decides safety of `system` by exhaustive search: looks for a complete
/// (over the started subset), legal, proper, nonserializable schedule.
pub fn verify_safety(system: &TransactionSystem, budget: SearchBudget) -> Verdict {
    let mut search = Search::new(system, budget, true);
    let mut positions = vec![0u16; search.ids.len()];
    let mut sim = ScheduleSimulator::new(system.initial_state().clone());
    let mut schedule = Schedule::empty();
    let mut edges = EdgeSet::empty(search.ids.len());
    match search.dfs(&mut positions, &mut sim, &mut schedule, &mut edges) {
        Dfs::Found(witness) => Verdict::Unsafe {
            witness,
            stats: search.stats,
        },
        Dfs::NotFound => Verdict::Safe(search.stats),
        Dfs::BudgetExhausted => Verdict::Exhausted(search.stats),
    }
}

/// Extends a legal & proper partial schedule `prefix` of `system` to any
/// complete legal & proper schedule (additional transactions may be
/// started). Returns `None` if no completion exists within budget.
pub fn complete_schedule(
    system: &TransactionSystem,
    prefix: &Schedule,
    budget: SearchBudget,
) -> Option<Schedule> {
    complete_with(system, prefix, budget, None)
}

/// Like [`complete_schedule`], but explores interleavings in a seeded
/// random order and requires **every** transaction of the system to run to
/// completion — the first schedule found is therefore a random interleaved
/// legal & proper schedule of the whole system (the corpus generator for
/// the Lemma 1–2 experiments).
pub fn complete_schedule_randomized(
    system: &TransactionSystem,
    prefix: &Schedule,
    budget: SearchBudget,
    seed: u64,
) -> Option<Schedule> {
    complete_with(system, prefix, budget, Some(seed))
}

fn complete_with(
    system: &TransactionSystem,
    prefix: &Schedule,
    budget: SearchBudget,
    seed: Option<u64>,
) -> Option<Schedule> {
    let mut search = Search::new(system, budget, false);
    search.rng = seed.map(StdRng::seed_from_u64);
    search.require_all = seed.is_some();
    let mut positions = vec![0u16; search.ids.len()];
    let mut sim = ScheduleSimulator::new(system.initial_state().clone());
    let mut schedule = Schedule::empty();
    for s in prefix.steps() {
        let i = search.ids.iter().position(|&t| t == s.tx)?;
        let tx = system.get(s.tx)?;
        if tx.steps.get(positions[i] as usize) != Some(&s.step) {
            return None; // not a partial schedule of the system
        }
        sim.apply(s.tx, &s.step).ok()?;
        schedule.push(*s);
        search.book.take(&mut positions, i);
    }
    debug_assert!(
        !search.book.packable || Some(search.book.packed) == slp_core::pack_positions(&positions),
        "incrementally maintained packed key diverged from pack_positions"
    );
    // Completion searches accept any completion regardless of `D(S)`, so
    // the edge set stays empty (and zero-width).
    let mut edges = EdgeSet::empty(0);
    match search.dfs(&mut positions, &mut sim, &mut schedule, &mut edges) {
        Dfs::Found(s) => Some(s),
        _ => None,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use slp_core::SystemBuilder;

    /// Two 2PL transactions: safe.
    fn two_phase_system() -> TransactionSystem {
        let mut b = SystemBuilder::new();
        b.exists("x");
        b.exists("y");
        b.tx(1)
            .lx("x")
            .write("x")
            .lx("y")
            .write("y")
            .ux("x")
            .ux("y")
            .finish();
        b.tx(2)
            .lx("x")
            .write("x")
            .lx("y")
            .write("y")
            .ux("y")
            .ux("x")
            .finish();
        b.build()
    }

    /// Classic non-2PL pair: unsafe.
    fn short_lock_system() -> TransactionSystem {
        let mut b = SystemBuilder::new();
        b.exists("x");
        b.exists("y");
        b.tx(1)
            .lx("x")
            .write("x")
            .ux("x")
            .lx("y")
            .write("y")
            .ux("y")
            .finish();
        b.tx(2)
            .lx("x")
            .write("x")
            .ux("x")
            .lx("y")
            .write("y")
            .ux("y")
            .finish();
        b.build()
    }

    #[test]
    fn two_phase_pair_is_safe() {
        let verdict = verify_safety(&two_phase_system(), SearchBudget::default());
        assert!(verdict.is_safe(), "{verdict:?}");
        assert!(verdict.stats().states > 0);
        assert!(
            verdict.stats().undo_ops > 0,
            "apply/undo DFS must backtrack via undo"
        );
    }

    #[test]
    fn short_lock_pair_is_unsafe_with_valid_witness() {
        let system = short_lock_system();
        let verdict = verify_safety(&system, SearchBudget::default());
        let witness = verdict.witness().expect("unsafe").clone();
        assert!(witness.is_legal());
        assert!(witness.is_proper(system.initial_state()));
        assert!(!slp_core::is_serializable(&witness));
        // The witness is complete over its participants.
        let parts: Vec<_> = witness
            .participants()
            .iter()
            .map(|&id| system.get(id).unwrap().clone())
            .collect();
        assert!(witness.is_complete_schedule_of(&parts));
    }

    #[test]
    fn single_transaction_system_is_safe() {
        let mut b = SystemBuilder::new();
        b.exists("x");
        b.tx(1).lx("x").write("x").ux("x").finish();
        let verdict = verify_safety(&b.build(), SearchBudget::default());
        assert!(verdict.is_safe());
    }

    #[test]
    fn empty_system_is_safe() {
        let b = SystemBuilder::new();
        let verdict = verify_safety(&b.build(), SearchBudget::default());
        assert!(verdict.is_safe());
    }

    #[test]
    fn properness_prunes_impossible_interleavings() {
        // T2 can only run between T1's insert and delete; all complete
        // schedules are serializable because T2's window forces an order.
        let mut b = SystemBuilder::new();
        b.tx(1).lx("a").insert("a").ux("a").finish();
        b.tx(2).lx("a").read("a").ux("a").finish();
        let system = b.build();
        let verdict = verify_safety(&system, SearchBudget::default());
        assert!(verdict.is_safe());
    }

    #[test]
    fn budget_exhaustion_is_reported() {
        let verdict = verify_safety(&two_phase_system(), SearchBudget { max_states: 3 });
        assert!(matches!(verdict, Verdict::Exhausted(_)));
    }

    #[test]
    fn completion_of_empty_prefix_exists() {
        let system = two_phase_system();
        let s = complete_schedule(&system, &Schedule::empty(), SearchBudget::default());
        let s = s.expect("completion exists");
        assert!(s.is_legal());
        assert!(s.is_proper(system.initial_state()));
    }

    #[test]
    fn completion_respects_prefix() {
        let system = short_lock_system();
        // Prefix: T1 does (LX x)(W x)(UX x).
        let t1 = system.get(TxId(1)).unwrap().clone();
        let prefix = Schedule::from_steps(
            t1.steps[..3]
                .iter()
                .map(|&s| ScheduledStep::new(TxId(1), s))
                .collect(),
        );
        let s = complete_schedule(&system, &prefix, SearchBudget::default()).unwrap();
        assert!(s.has_prefix(&prefix));
        assert!(s.is_legal());
        assert!(s.is_proper(system.initial_state()));
    }

    #[test]
    fn bogus_prefix_is_rejected() {
        let system = two_phase_system();
        let bogus = Schedule::from_steps(vec![ScheduledStep::new(
            TxId(1),
            slp_core::Step::write(slp_core::EntityId(0)), // T1 starts with LX x
        )]);
        assert_eq!(
            complete_schedule(&system, &bogus, SearchBudget::default()),
            None
        );
    }

    /// A 16-transaction system verifies exhaustively end-to-end — both
    /// verdict directions. Before the [`EdgeSet`] words representation,
    /// `ConflictIndex::new(16)` panicked and exhaustive safety search was
    /// hard-capped at 11 transactions.
    #[test]
    fn sixteen_transaction_system_verifies_end_to_end() {
        // Safe arm: a 2PL pair on x (so real D(S) edges flow through the
        // wide edge sets) plus 14 single-step transactions contending on
        // one shared entity p — whoever locks p first holds it forever,
        // which keeps the state space tiny at k = 16.
        let mut b = SystemBuilder::new();
        b.exists("x");
        for t in 1..=2 {
            b.tx(t).lx("x").write("x").ux("x").finish();
        }
        for t in 3..=16 {
            b.tx(t).lx("p").finish();
        }
        let safe = b.build();
        assert_eq!(safe.ids().len(), 16);
        let verdict = verify_safety(&safe, SearchBudget::default());
        assert!(verdict.is_safe(), "{verdict:?}");

        // Unsafe arm: the classic short-lock pair under the same padding;
        // the wide-representation cycle check must still fire.
        let mut b = SystemBuilder::new();
        b.exists("x");
        b.exists("y");
        for t in 1..=2 {
            b.tx(t)
                .lx("x")
                .write("x")
                .ux("x")
                .lx("y")
                .write("y")
                .ux("y")
                .finish();
        }
        for t in 3..=16 {
            b.tx(t).lx("p").finish();
        }
        let unsafe_ = b.build();
        let verdict = verify_safety(&unsafe_, SearchBudget::default());
        let witness = verdict.witness().expect("unsafe at k = 16").clone();
        assert!(witness.is_legal());
        assert!(witness.is_proper(unsafe_.initial_state()));
        assert!(!slp_core::is_serializable(&witness));
    }

    #[test]
    fn mask_cycle_detection() {
        // 3 nodes, edges 0->1, 1->2: acyclic.
        let k = 3;
        let edge = |i: usize, j: usize| 1u128 << (i * k + j);
        assert!(!mask_has_cycle(edge(0, 1) | edge(1, 2), k));
        assert!(mask_has_cycle(edge(0, 1) | edge(1, 2) | edge(2, 0), k));
        assert!(mask_has_cycle(edge(0, 1) | edge(1, 0), k));
        assert!(!mask_has_cycle(0, k));
    }

    #[test]
    fn randomized_completions_vary_with_seed_but_stay_valid() {
        let system = two_phase_system();
        let mut distinct = std::collections::HashSet::new();
        for seed in 0..8 {
            let s = complete_schedule_randomized(
                &system,
                &Schedule::empty(),
                SearchBudget::default(),
                seed,
            )
            .expect("completion exists");
            assert!(s.is_legal());
            assert!(s.is_proper(system.initial_state()));
            let all: Vec<_> = system.transactions().to_vec();
            assert!(s.is_complete_schedule_of(&all));
            distinct.insert(format!("{s}"));
        }
        assert!(
            distinct.len() > 1,
            "seeds should produce different interleavings"
        );
    }
}
