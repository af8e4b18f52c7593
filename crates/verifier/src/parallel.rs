//! Work-stealing parallel safety verification.
//!
//! [`ParallelVerifier::verify`] decides the same question as
//! [`crate::explorer::verify_safety`] — *does a legal, proper,
//! nonserializable complete schedule exist?* — by running the explorer's
//! own DFS on a fixed pool of `std::thread` workers (the vendored
//! [`workpool`] shim; no crates.io access). Each worker owns a private
//! search — simulator, conflict index, edge set and memo — and the DFS
//! reaches the three pieces of shared state through the pool's driver:
//!
//! * **A task queue of subtrees** ([`workpool::DonationQueue`]). A task is
//!   the schedule prefix leading from the empty schedule to a search node;
//!   the receiving worker replays it (the explorer's one prefix replay,
//!   which also serves `complete_schedule`) and explores the subtree.
//!   Work *stealing* is donation-based: once a node has one locally
//!   explored child and other workers sit idle, its remaining viable
//!   children are donated instead of explored. Donations are **batched**:
//!   they accumulate in a private buffer and are pushed in chunks
//!   (`DONATE_BATCH`, plus a flush before any local descent and at node
//!   end) — one queue lock and one wakeup per chunk instead of one per
//!   subtree.
//! * **An early-cancel flag** (inside the queue). The first worker to
//!   reach a nonserializable completion records it and cancels; every
//!   worker polls the flag once per node and unwinds.
//! * **A chunked state budget.** Each worker adds its visited-state count
//!   to one shared counter once per `STATE_CHUNK` nodes, and the
//!   explorer's budget rule runs against that total.
//!
//! Workers share no memo entries, so a state one worker explored may be
//! explored again by another. On `bench-report`'s `verifier_sweep`
//! catalog at two threads a shared table cost more time than that
//! duplicated work (`BENCH_verifier.json`). Each worker's memo is built
//! fresh per verify run and dropped with it: entries are system-specific,
//! so nothing could soundly carry over, and a per-run local pins no
//! memory in pool threads between runs. An entry is only inserted for a
//! subtree the worker explored to exhaustion with no witness; a node
//! whose children were donated or cut short (cancel, budget) inserts
//! nothing, so a memo hit always means "no witness below".
//!
//! # What is (and is not) deterministic
//!
//! With an ample budget the **verdict** is deterministic and identical to
//! the sequential explorer's: the task queue partitions the search space
//! exactly (every donated subtree is explored before termination), so a
//! witness is found iff one exists. With more than one worker the
//! *witness schedule* and the search statistics may vary run to run —
//! which subtree reaches a witness first is a race, and workers revisit
//! each other's states. When the budget trips, `Exhausted` frontiers are
//! likewise race-dependent. A one-worker pool never donates (no worker is
//! idle while it searches), so it *is* the sequential search: same
//! verdict, witness and statistics. `verifier/tests/parallel_agreement.rs`
//! pins both guarantees down differentially (155+ systems, thread counts
//! 1–8, repeated runs).

use crate::explorer::{Driver, Search, SearchBudget, SearchStats, Verdict};
use slp_core::{Schedule, TransactionSystem};
use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering};
use std::sync::{Arc, Mutex};
use workpool::{DonationQueue, PoolJob, ThreadPool};

/// Workers add their visited-state counts into the shared total (and the
/// budget rule checks it) every this many nodes — one atomic RMW per chunk
/// instead of per node. Budgets smaller than the chunk are checked at
/// budget granularity, keeping tiny-budget exhaustion prompt.
const STATE_CHUNK: usize = 256;

/// Donated sibling subtrees accumulate in a worker-private buffer and are
/// flushed to the queue in chunks of this size (and, regardless of fill,
/// before the worker descends locally and at node end) — batching the
/// lock/notify cost of donation.
const DONATE_BATCH: usize = 8;

/// All state shared by the workers of one verification run.
struct VerifyJob {
    system: TransactionSystem,
    budget: SearchBudget,
    queue: DonationQueue<Schedule>,
    /// States visited across all workers, added in chunks (see
    /// [`STATE_CHUNK`]).
    visited: AtomicUsize,
    budget_hit: AtomicBool,
    witness: Mutex<Option<Schedule>>,
    /// Aggregated statistics, folded in once per worker at the end.
    stats: Mutex<SearchStats>,
}

impl PoolJob for VerifyJob {
    fn run(&self, _worker: usize) {
        let mut search = Search::new(&self.system, self.budget, true);
        let mut driver = PoolDriver {
            job: self,
            counted: 0,
            donations: Vec::new(),
        };
        while let Some(prefix) = self.queue.pop() {
            let result = search
                .explore(&prefix, &mut driver)
                .expect("donated prefixes are legal and proper by construction");
            debug_assert!(
                driver.donations.is_empty(),
                "donations must flush by node end"
            );
            if let Some(witness) = result.found() {
                // The first witness recorded wins.
                self.witness
                    .lock()
                    .expect("witness slot")
                    .get_or_insert(witness);
                self.queue.cancel();
            }
            if search.exhausted {
                self.budget_hit.store(true, Ordering::SeqCst);
                // Cancel the whole run so queued tasks are abandoned
                // instead of each being explored up to its own budget
                // check, keeping post-exhaustion overshoot bounded.
                self.queue.cancel();
            }
            self.queue.complete();
        }
        let s = search.stats;
        let mut total = self.stats.lock().expect("statistics");
        total.states += s.states;
        total.memo_hits += s.memo_hits;
        total.completions += s.completions;
        total.undo_ops += s.undo_ops;
    }
}

/// A pool worker's driver for the explorer's DFS.
struct PoolDriver<'j> {
    job: &'j VerifyJob,
    /// How many of this worker's states are already in `job.visited`.
    counted: usize,
    /// Sibling subtrees awaiting a batched donation flush.
    donations: Vec<Schedule>,
}

impl Driver for PoolDriver<'_> {
    fn chunk(&self) -> usize {
        STATE_CHUNK
    }

    fn cancelled(&self) -> bool {
        self.job.queue.is_cancelled()
    }

    fn visited(&mut self, mine: usize) -> usize {
        let new = mine - self.counted;
        self.counted = mine;
        self.job.visited.fetch_add(new, Ordering::Relaxed) + new
    }

    fn wants_work(&self) -> bool {
        self.job.queue.idle_workers() > 0
    }

    fn donate(&mut self, prefix: Schedule) {
        self.donations.push(prefix);
        if self.donations.len() >= DONATE_BATCH {
            self.flush();
        }
    }

    fn flush(&mut self) {
        self.job.queue.push_batch(&mut self.donations);
    }
}

/// A reusable parallel safety verifier: a fixed thread pool plus the
/// dispatch logic. Building one pins the thread-spawn cost up front;
/// [`verify`](ParallelVerifier::verify) then costs one condvar round-trip
/// per call, which is what lets benchmarks measure search speedup rather
/// than thread-creation latency.
pub struct ParallelVerifier {
    pool: ThreadPool,
}

impl ParallelVerifier {
    /// A verifier over `threads` pooled workers (at least one).
    pub fn new(threads: usize) -> Self {
        ParallelVerifier {
            pool: ThreadPool::new(threads),
        }
    }

    /// Number of worker threads.
    pub fn threads(&self) -> usize {
        self.pool.threads()
    }

    /// Decides safety of `system` exactly like
    /// [`crate::explorer::verify_safety`], in parallel. The verdict is
    /// identical to the sequential explorer's whenever neither run trips
    /// the budget; see the module docs for the determinism contract.
    pub fn verify(&self, system: &TransactionSystem, budget: SearchBudget) -> Verdict {
        let queue = DonationQueue::new();
        queue.push_batch(&mut vec![Schedule::empty()]);
        let job = Arc::new(VerifyJob {
            system: system.clone(),
            budget,
            queue,
            visited: AtomicUsize::new(0),
            budget_hit: AtomicBool::new(false),
            witness: Mutex::new(None),
            stats: Mutex::new(SearchStats::default()),
        });
        self.pool.run(job.clone());
        let witness = job.witness.lock().expect("witness slot").take();
        let stats = *job.stats.lock().expect("statistics");
        Verdict::decide(witness, job.budget_hit.load(Ordering::SeqCst), stats)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::explorer::verify_safety;
    use slp_core::SystemBuilder;

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

    fn short_lock_system() -> TransactionSystem {
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
        b.build()
    }

    #[test]
    fn parallel_verdicts_match_sequential_on_classic_pairs() {
        for threads in [1, 2, 4] {
            let verifier = ParallelVerifier::new(threads);
            assert!(verifier
                .verify(&two_phase_system(), SearchBudget::default())
                .is_safe());
            let v = verifier.verify(&short_lock_system(), SearchBudget::default());
            let w = v.witness().expect("unsafe").clone();
            assert!(w.is_legal());
            assert!(w.is_proper(short_lock_system().initial_state()));
            assert!(!slp_core::is_serializable(&w));
        }
    }

    #[test]
    fn verifier_is_reusable_across_systems() {
        let verifier = ParallelVerifier::new(2);
        for _ in 0..5 {
            assert!(verifier
                .verify(&two_phase_system(), SearchBudget::default())
                .is_safe());
            assert!(verifier
                .verify(&short_lock_system(), SearchBudget::default())
                .is_unsafe());
        }
    }

    #[test]
    fn empty_and_tiny_systems() {
        let verifier = ParallelVerifier::new(4);
        let empty = SystemBuilder::new().build();
        assert!(verifier.verify(&empty, SearchBudget::default()).is_safe());
        let mut b = SystemBuilder::new();
        b.exists("x");
        b.tx(1).lx("x").write("x").ux("x").finish();
        assert!(verifier
            .verify(&b.build(), SearchBudget::default())
            .is_safe());
    }

    #[test]
    fn budget_exhaustion_is_reported() {
        let verdict =
            ParallelVerifier::new(2).verify(&two_phase_system(), SearchBudget { max_states: 3 });
        assert!(matches!(verdict, Verdict::Exhausted(_)), "{verdict:?}");
    }

    #[test]
    fn budget_that_fits_never_reports_exhausted() {
        // Exhaustion is keyed on *consumed* states, so a search whose true
        // state count fits the budget must never spuriously report
        // Exhausted, no matter how workers interleave.
        let system = two_phase_system();
        let true_states = verify_safety(&system, SearchBudget::default())
            .stats()
            .states;
        let verifier = ParallelVerifier::new(4);
        // 4x headroom absorbs states the workers revisit; the
        // single-thread exact-fit budget has no duplication and must
        // complete too (the sequential explorer only exhausts attempting
        // state max + 1).
        let budget = SearchBudget {
            max_states: 4 * true_states,
        };
        for run in 0..20 {
            let verdict = verifier.verify(&system, budget);
            assert!(verdict.is_safe(), "run {run}: {verdict:?}");
        }
        let exact = SearchBudget {
            max_states: true_states,
        };
        let single = ParallelVerifier::new(1);
        let verdict = single.verify(&system, exact);
        assert!(verdict.is_safe(), "exact-fit budget: {verdict:?}");
    }

    #[test]
    fn parallel_states_stay_in_the_sequential_ballpark() {
        // Workers may revisit each other's states, but their private memos
        // must keep the parallel search from degenerating to memo-less
        // exponential blowup.
        let system = two_phase_system();
        let seq = verify_safety(&system, SearchBudget::default());
        let par = ParallelVerifier::new(4).verify(&system, SearchBudget::default());
        assert!(par.is_safe());
        assert!(
            par.stats().states <= 10 * seq.stats().states.max(1),
            "parallel visited {} states vs sequential {}",
            par.stats().states,
            seq.stats().states
        );
    }

    #[test]
    fn l1_memo_state_does_not_leak_across_runs() {
        // Back-to-back verifies on the same pooled threads with different
        // systems of the same key width: stale memo entries from run 1
        // must not prune run 2 (each run builds its workers fresh memos).
        let verifier = ParallelVerifier::new(2);
        for _ in 0..10 {
            assert!(verifier
                .verify(&two_phase_system(), SearchBudget::default())
                .is_safe());
            assert!(verifier
                .verify(&short_lock_system(), SearchBudget::default())
                .is_unsafe());
        }
    }
}
