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
//! * **Incremental conflict edges.** A [`ConflictIndex`] keeps
//!   per-entity accessor lists keyed by dense transaction indices, so the
//!   `D(S)`-edge delta of a candidate step scans only that entity's prior
//!   accessors instead of the whole schedule. The accumulated edge set is
//!   **one** [`EdgeSet`] mutated in place through its
//!   `apply`/`undo` pair, mirroring the simulator discipline.
//! * **Packed memo keys.** Positions are bit-packed 8 bits per transaction
//!   into a `u128` (maintained incrementally, definitionally equal to
//!   [`crate::pack_positions`]), and probed alongside the `u128` edge
//!   mask in an `FxHashSet<(u128, u128)>` — no allocation per probe.
//!   Systems exceeding a bound degrade gracefully instead of failing:
//!   positions beyond the pack bound (more than 16 transactions or a
//!   transaction longer than 255 steps) fall back to interned `Vec<u16>`
//!   key halves, and edge sets beyond
//!   [`EdgeSet::MAX_SMALL_TXS`] (11) transactions fall back to
//!   interned [`EdgeSet`] words (the crate-private `memo`
//!   module). Probes stay allocation-free — a value is cloned once, on
//!   first insertion — so any `k` verifies; the state space is the only
//!   limit.
//!
//! The pre-optimization clone-per-node DFS is retained verbatim as a test
//! oracle (`verifier/tests/reference/`, used by `verifier/tests/agreement.rs`);
//! `bench-report`'s `verifier.seq_s` row times this search.
//!
//! # One search
//!
//! The crate has one DFS, in this module. One prefix replay starts every
//! search: the empty prefix for [`verify_safety`] and the caller's partial
//! schedule for [`complete_schedule`]. The budget rule refuses a node once
//! `max_states` states have been visited, so a budget equal to a search's
//! state count still completes it.
//!
//! The randomized corpus-generation mode ([`complete_schedule_randomized`])
//! shuffles the candidate order at each node, which allocates the shuffled
//! order vector; only that mode pays the allocation.

use crate::edges::{ConflictIndex, EdgeSet};
use crate::memo::Memo;
use rand::rngs::StdRng;
use rand::seq::SliceRandom;
use rand::SeedableRng;
use slp_core::{
    LockedTransaction, Schedule, ScheduleSimulator, ScheduledStep, TransactionSystem, TxId,
};
use std::fmt;

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

/// Incrementally maintained per-position bookkeeping:
///
/// * `packed` — positions bit-packed 8 bits per transaction (the position
///   half of the fast-path memo key, definitionally equal to
///   [`crate::pack_positions`]), maintained only when `packable` (k ≤
///   16, all |T| ≤ 255) so wide systems never shift out of range;
/// * `started` / `finished` — how many transactions have taken at least
///   one step resp. run to completion, so acceptance checks need no O(k)
///   scan per node. Zero-length transactions are excluded from **both**
///   counters: they can never start, and pre-counting them as finished
///   would let `started == finished` accept nodes where a started
///   transaction is still mid-flight.
struct PositionBook {
    /// Per-transaction step counts, densely indexed.
    lens: Vec<u16>,
    packable: bool,
    packed: u128,
    started: usize,
    finished: usize,
}

impl PositionBook {
    fn new(lens: Vec<u16>) -> Self {
        let packable = lens.len() <= 16 && lens.iter().all(|&l| l <= u8::MAX as u16);
        PositionBook {
            lens,
            packable,
            packed: 0,
            started: 0,
            finished: 0,
        }
    }

    /// Advances dense transaction `i` by one step: positions, the packed
    /// word, and the started/finished counters, all O(1).
    fn take(&mut self, positions: &mut [u16], i: usize) {
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
    fn untake(&mut self, positions: &mut [u16], i: usize) {
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

/// Outcome of exploring one node.
enum Dfs {
    /// An accepted schedule (the search is back at the node).
    Found(Schedule),
    /// Fully explored, nothing accepted below: memoizable.
    NotFound,
    /// Unwound early by the budget rule: nothing may be memoized.
    Exhausted,
}

/// One search over one system: the fixed per-system tables, the memo and
/// statistics, and the current node, mutated in place by apply/undo.
struct Search<'a> {
    budget: SearchBudget,
    stats: SearchStats,
    /// Transactions in dense-index order (index `i` ↔ `ids[i]`).
    ids: Vec<TxId>,
    txs: Vec<&'a LockedTransaction>,
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
    /// the accumulated `D(S)` edge set has a cycle.
    want_cycle: bool,
    /// When set, candidate transactions are tried in a shuffled order at
    /// each node, so the first completion found is a *random interleaved*
    /// schedule rather than a serial one.
    rng: Option<StdRng>,
    /// When true, acceptance requires *every* transaction of the system to
    /// have run to completion (not just the started subset).
    require_all: bool,
    positions: Vec<u16>,
    sim: ScheduleSimulator,
    schedule: Schedule,
    edges: EdgeSet,
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
        // qualify for the small-edge shape (their edge set stays empty and
        // zero-width).
        let small_edges = !want_cycle || k <= EdgeSet::MAX_SMALL_TXS;
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
            positions: vec![0; k],
            sim: ScheduleSimulator::new(system.initial_state().clone()),
            schedule: Schedule::empty(),
            edges: EdgeSet::empty(if want_cycle { k } else { 0 }),
        }
    }

    /// Replays `prefix` from the empty schedule (`None` if it is not a
    /// legal & proper partial schedule of the system), then searches below
    /// it.
    fn explore(&mut self, prefix: &Schedule) -> Option<Dfs> {
        for s in prefix.steps() {
            let i = self.ids.iter().position(|&t| t == s.tx)?;
            if self.txs[i].steps.get(self.positions[i] as usize) != Some(&s.step) {
                return None; // not a partial schedule of the system
            }
            self.sim.apply(s.tx, &s.step).ok()?;
            if let Some(index) = &mut self.index {
                if let Some(delta) = index.edge_delta(i, &s.step) {
                    self.edges.union_with(&delta);
                }
                index.push(i, s.step);
            }
            self.schedule.push(*s);
            self.book.take(&mut self.positions, i);
        }
        debug_assert!(
            !self.book.packable || Some(self.book.packed) == crate::pack_positions(&self.positions),
            "incrementally maintained packed key diverged from pack_positions"
        );
        Some(self.dfs())
    }

    fn dfs(&mut self) -> Dfs {
        // The budget rule: refuse a node once `max_states` states have
        // been visited.
        if self.stats.states >= self.budget.max_states {
            return Dfs::Exhausted;
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
            if !self.want_cycle || self.edges.has_cycle() {
                return Dfs::Found(self.schedule.clone());
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
        for idx in 0..k {
            let i = shuffled.as_ref().map_or(idx, |order| order[idx]);
            let id = self.ids[i];
            let Some(&step) = self.txs[i].steps.get(self.positions[i] as usize) else {
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
                .map(|delta| self.edges.apply(&delta));
            self.book.take(&mut self.positions, i);
            // Memo probe before the legality/properness gate: the
            // simulator state is a function of `positions`, so a memoized
            // successor state was necessarily reached by applying this very
            // step legally — an illegal candidate can never hit.
            let result = if self
                .memo
                .contains(self.book.packed, &self.positions, &self.edges)
            {
                self.stats.memo_hits += 1;
                Dfs::NotFound
            } else if let Ok(token) = self.sim.apply_undoable(id, &step) {
                // Legality + properness gate and application in one pass
                // (apply_undoable checks, then mutates only on success).
                self.schedule.push(ScheduledStep::new(id, step));
                if let Some(index) = &mut self.index {
                    index.push(i, step);
                }
                let result = self.dfs();
                if let Some(index) = &mut self.index {
                    index.pop();
                }
                self.schedule.pop();
                self.sim.undo(token);
                self.stats.undo_ops += 1;
                // Only fully explored subtrees may be memoized.
                if let Dfs::NotFound = result {
                    self.memo
                        .insert(self.book.packed, &self.positions, &self.edges);
                }
                result
            } else {
                Dfs::NotFound
            };
            self.book.untake(&mut self.positions, i);
            if let Some(a) = &added {
                self.edges.undo(a);
            }
            if !matches!(result, Dfs::NotFound) {
                return result;
            }
        }
        Dfs::NotFound
    }
}

/// Decides safety of `system` by exhaustive search: looks for a complete
/// (over the started subset), legal, proper, nonserializable schedule.
pub fn verify_safety(system: &TransactionSystem, budget: SearchBudget) -> Verdict {
    let mut search = Search::new(system, budget, true);
    let outcome = search
        .explore(&Schedule::empty())
        .expect("the empty prefix replays");
    let stats = search.stats;
    match outcome {
        Dfs::Found(witness) => Verdict::Unsafe { witness, stats },
        Dfs::NotFound => Verdict::Safe(stats),
        Dfs::Exhausted => Verdict::Exhausted(stats),
    }
}

/// [`verify_safety`] under the name of the deleted work-stealing parallel
/// verifier.
///
/// `bench_report`'s `verifier_sweep` workload still calls
/// `ParallelVerifier::new(threads).verify(..)` for its traced
/// `verifier.par_*` rows and its verdict cross-check, so until the
/// benchmark revision that re-points those rows at [`verify_safety`]
/// deletes this name (ROADMAP item 1), they time the sequential search.
pub struct ParallelVerifier;

impl ParallelVerifier {
    /// The verifier; the thread count is ignored.
    pub fn new(_threads: usize) -> Self {
        ParallelVerifier
    }

    /// Exactly [`verify_safety`].
    pub fn verify(&self, system: &TransactionSystem, budget: SearchBudget) -> Verdict {
        verify_safety(system, budget)
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
    match search.explore(prefix)? {
        Dfs::Found(schedule) => Some(schedule),
        Dfs::NotFound | Dfs::Exhausted => None,
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
    fn a_budget_of_exactly_the_state_count_completes_and_one_less_exhausts() {
        let system = two_phase_system();
        let states = verify_safety(&system, SearchBudget::default())
            .stats()
            .states;
        let exact = verify_safety(&system, SearchBudget { max_states: states });
        assert!(exact.is_safe(), "{exact:?}");
        assert_eq!(exact.stats().states, states);
        let short = verify_safety(
            &system,
            SearchBudget {
                max_states: states - 1,
            },
        );
        assert!(matches!(short, Verdict::Exhausted(_)), "{short:?}");
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
        use crate::mask_has_cycle;
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
