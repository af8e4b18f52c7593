//! Work-stealing parallel safety verification on a lock-free memo core.
//!
//! [`verify_safety_parallel`] decides the same question as
//! [`crate::explorer::verify_safety`] — *does a legal, proper,
//! nonserializable complete schedule exist?* — by running the apply/undo
//! DFS on a fixed pool of `std::thread` workers (the vendored
//! [`workpool`] shim; no crates.io access) that cooperate through three
//! pieces of shared state:
//!
//! * **A task queue of subtree roots** ([`workpool::DonationQueue`]). A
//!   task is the *path* (dense transaction indices) from the empty
//!   schedule to a search node; the receiving worker replays it through
//!   its private simulator / [`ConflictIndex`] / [`EdgeSet`] and explores
//!   the subtree. Work *stealing* is donation-based: whenever a worker is
//!   about to descend into sibling subtrees while other workers sit idle,
//!   it donates the siblings as tasks instead of recursing. Donations are
//!   **batched**: viable siblings of one node accumulate in a private
//!   buffer and are pushed in chunks (`DONATE_BATCH`, plus a flush
//!   before any local descent and at node end) — one queue lock and one
//!   wakeup per chunk instead of one per subtree.
//! * **A lock-free shared memo.** The visited-state set is a single
//!   [`crate::memo::AtomicWordTable`]: every memo key — packed or wide
//!   positions, `u128`-mask or words edges — is encoded by the shared
//!   [`crate::memo::KeyShape`] codec into a fixed-width `[u64]` word
//!   string and probed/inserted with atomic loads and a CAS. There are
//!   **no mutexes on the search hot path**, and a wide (`k > 11`) key
//!   performs exactly **one** synchronized probe-or-intern operation —
//!   the previous design sharded `Mutex<FxHashSet>` tables and interned
//!   each wide key half behind its own shard lock, so a wide probe took
//!   two locks and every probe paid lock traffic. Sharing the table
//!   across workers preserves the sequential search's pruning: a state
//!   fully explored by *any* worker is skipped by all. Soundness is
//!   unchanged — entries are only inserted for subtrees explored to
//!   exhaustion with no witness, and a frame whose children were donated
//!   or truncated (cancel/budget) inserts nothing, so a memo hit always
//!   means "no witness below".
//! * **An early-cancel flag** (inside the queue). The first worker to
//!   reach a nonserializable completion records it and cancels; every
//!   worker polls the flag once per node and unwinds.
//!
//! In front of the shared table, each worker keeps a **private L1
//! memo** — literally the sequential explorer's `Memo` shape
//! (`FxHashSet`-backed, identical per-probe cost), built fresh per
//! verify run and dropped with it (memo entries are system-specific, so
//! nothing could soundly carry over; a per-run local also pins no memory
//! in pool threads between runs).
//! The L1 is the worker's *primary* memo: states this worker explored or
//! already confirmed shared-hits are answered with zero synchronization,
//! so only first-sight probes and inserts ever reach the shared table.
//! The L1 only caches *positive* facts (state fully explored), which are
//! immutable, so it can never un-soundly prune. A single-worker pool's L1
//! is total — every probe its search could repeat is answered privately —
//! so the shared table is not even built at `threads == 1`: the memo path
//! degenerates to exactly the sequential explorer's, and the measured
//! single-thread pool overhead is dispatch + task-loop cost alone.
//!
//! # What is (and is not) deterministic
//!
//! With an ample budget the **verdict** is deterministic and identical to
//! the sequential explorer's: the task queue partitions the search space
//! exactly (every donated subtree is explored before termination), so a
//! witness is found iff one exists. The *witness schedule* and the search
//! statistics may vary run to run — which subtree reaches a witness first
//! is a race, and memo-race duplication can revisit states. When the
//! budget trips, `Exhausted` frontiers are likewise race-dependent.
//! `verifier/tests/parallel_agreement.rs` locks the verdict guarantees
//! down differentially (155+ systems, thread counts 1–8, repeated runs),
//! and its memo-storm stress hammers the table's probe-or-intern from
//! many threads to pin id stability and lost-insert freedom.

use crate::explorer::{Memo, PositionBook, SearchBudget, SearchStats, Verdict};
use crate::memo::{AtomicWordTable, KeyShape};
use slp_core::{
    pack_positions, ConflictIndex, EdgeSet, LockedTransaction, Schedule, ScheduleSimulator,
    ScheduledStep, TransactionSystem, TxId,
};
use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering};
use std::sync::{Arc, Mutex};
use workpool::{DonationQueue, PoolJob, ThreadPool};

/// Workers flush their *consumed* state counts into the shared total (and
/// check it against the budget) every this many nodes — one atomic RMW
/// per chunk instead of per node. Exhaustion triggers only when states
/// actually visited reach `max_states`, so a search that fits its budget
/// can never spuriously report `Exhausted`; the cost is overshoot — up to
/// `threads * STATE_CHUNK` states may be visited past the limit before
/// every worker notices. Budgets smaller than the chunk are flushed at
/// budget granularity, keeping tiny-budget exhaustion prompt.
const STATE_CHUNK: usize = 256;

/// Donated sibling subtrees accumulate in a worker-private buffer and are
/// flushed to the queue in chunks of this size (and, regardless of fill,
/// before the worker descends locally and at node end) — batching the
/// lock/notify cost of donation.
const DONATE_BATCH: usize = 8;

/// The shared visited-state set: the [`KeyShape`] codec (shared with the
/// sequential explorer, so the two searches' keys cannot drift apart)
/// over one lock-free [`AtomicWordTable`]. Only built for pools of more
/// than one worker — a single worker's L1 memo is already total, so the
/// shared table would have no reader.
struct SharedMemo {
    shape: KeyShape,
    table: Option<AtomicWordTable>,
}

impl SharedMemo {
    fn for_system(packable: bool, k: usize, small_edges: bool, share: bool) -> SharedMemo {
        let shape = KeyShape::new(packable, k, small_edges);
        let table = share.then(|| AtomicWordTable::new(shape.width().max(1)));
        SharedMemo { shape, table }
    }
}

/// A subtree of the search space: the dense-index path from the empty
/// schedule to its root node. Compact to donate, cheap to replay
/// (`O(path)` step applications).
struct Task {
    path: Vec<u32>,
}

/// All state shared by the workers of one verification run.
struct VerifyJob {
    system: TransactionSystem,
    ids: Vec<TxId>,
    /// Template position bookkeeping (zeroed counters) cloned by each
    /// worker — the packability bound is thereby derived in exactly one
    /// place, `PositionBook::new`, for both explorers.
    book: PositionBook,
    k: usize,
    /// Whether edge sets use the `u128` representation (cached for the
    /// workers' L1 memo construction).
    small_edges: bool,
    budget: SearchBudget,
    memo: SharedMemo,
    queue: DonationQueue<Task>,
    budget_hit: AtomicBool,
    /// Search states consumed across all workers, flushed in chunks (see
    /// [`STATE_CHUNK`]); compared against `budget.max_states`.
    states_counted: AtomicUsize,
    witness: Mutex<Option<Schedule>>,
    // Aggregated statistics, flushed once per worker at the end.
    states: AtomicUsize,
    memo_hits: AtomicUsize,
    completions: AtomicUsize,
    undo_ops: AtomicUsize,
}

impl VerifyJob {
    fn new(system: TransactionSystem, budget: SearchBudget, share: bool) -> Self {
        let ids = system.ids();
        let lens: Vec<u16> = ids
            .iter()
            .map(|&id| system.get(id).expect("listed id").len() as u16)
            .collect();
        let k = ids.len();
        let book = PositionBook::new(lens);
        let small_edges = k <= ConflictIndex::MAX_TXS;
        let memo = SharedMemo::for_system(book.packable, k, small_edges, share);
        let queue = DonationQueue::new();
        queue.push_batch(&mut vec![Task { path: Vec::new() }]);
        VerifyJob {
            system,
            ids,
            book,
            k,
            small_edges,
            budget,
            memo,
            queue,
            budget_hit: AtomicBool::new(false),
            states_counted: AtomicUsize::new(0),
            witness: Mutex::new(None),
            states: AtomicUsize::new(0),
            memo_hits: AtomicUsize::new(0),
            completions: AtomicUsize::new(0),
            undo_ops: AtomicUsize::new(0),
        }
    }

    fn stats(&self) -> SearchStats {
        SearchStats {
            states: self.states.load(Ordering::SeqCst),
            memo_hits: self.memo_hits.load(Ordering::SeqCst),
            completions: self.completions.load(Ordering::SeqCst),
            undo_ops: self.undo_ops.load(Ordering::SeqCst),
        }
    }
}

impl PoolJob for VerifyJob {
    fn run(&self, _worker: usize) {
        // One fresh L1 per worker per run, dropped when the run ends: a
        // worker's run is the L1's only consumer (states are
        // system-specific, so nothing could soundly survive into another
        // verify), and a plain local keeps no memory pinned afterwards.
        let mut l1 = Memo::for_system(self.book.packable, self.small_edges);
        Worker::new(self, &mut l1).run();
    }
}

/// Outcome of one worker's exploration of a subtree node.
enum Dfs {
    /// A witness was found (already recorded on the job).
    Found,
    /// Fully explored by this worker: no witness below; memoizable.
    NotFound,
    /// Some children were donated to other workers: no witness found
    /// *here*, but the frame is not fully explored by this worker, so
    /// neither it nor its ancestors may be memoized.
    Donated,
    /// Unwound early (cancel or budget): nothing may be memoized.
    Pruned,
}

/// One worker's private search state, rebuilt per task by path replay.
struct Worker<'j> {
    job: &'j VerifyJob,
    txs: Vec<&'j LockedTransaction>,
    positions: Vec<u16>,
    /// Dense-index path to the current node — the donation currency.
    path: Vec<u32>,
    /// Position bookkeeping (packed memo-key word, started/finished) —
    /// the same [`PositionBook`] the sequential explorer maintains.
    book: PositionBook,
    sim: ScheduleSimulator,
    schedule: Schedule,
    index: ConflictIndex,
    edges: EdgeSet,
    /// Reusable encode buffer for shared-table keys (no allocation per
    /// probe).
    scratch: Box<[u64]>,
    /// Sibling subtrees awaiting a batched donation flush.
    donate_buf: Vec<Task>,
    /// This worker's private L1 memo — the worker's *primary* memo, in
    /// the sequential explorer's own shape, fresh per run.
    l1: &'j mut Memo,
    stats: SearchStats,
    /// States visited since the last flush into `VerifyJob::states_counted`.
    unflushed: usize,
    /// Precomputed flush granularity (`STATE_CHUNK` capped by the budget).
    flush_chunk: usize,
}

impl<'j> Worker<'j> {
    fn new(job: &'j VerifyJob, l1: &'j mut Memo) -> Self {
        let txs = job
            .ids
            .iter()
            .map(|&id| job.system.get(id).expect("listed id"))
            .collect();
        Worker {
            job,
            txs,
            positions: vec![0; job.k],
            path: Vec::new(),
            book: job.book.clone(),
            sim: ScheduleSimulator::new(job.system.initial_state().clone()),
            schedule: Schedule::empty(),
            index: ConflictIndex::new(job.k),
            edges: EdgeSet::empty(job.k),
            scratch: job.memo.shape.scratch(),
            donate_buf: Vec::new(),
            l1,
            stats: SearchStats::default(),
            unflushed: 0,
            flush_chunk: STATE_CHUNK.min(job.budget.max_states.max(1)),
        }
    }

    /// Flushes this worker's unflushed state count into the shared total,
    /// returning the updated total.
    fn flush_states(&mut self) -> usize {
        let total = self
            .job
            .states_counted
            .fetch_add(self.unflushed, Ordering::Relaxed)
            + self.unflushed;
        self.unflushed = 0;
        total
    }

    /// Probes the current (positions, edges) state: the private L1 first
    /// (sequential-explorer cost, no synchronization), then — only when a
    /// shared table exists, i.e. the pool has >1 worker — one synchronized
    /// probe of the lock-free table, recording shared hits into the L1 so
    /// repeat probes never reach the table again.
    fn memo_contains(&mut self) -> bool {
        if self
            .l1
            .contains(self.book.packed, &self.positions, &self.edges)
        {
            return true;
        }
        let Some(table) = &self.job.memo.table else {
            return false;
        };
        self.job.memo.shape.encode(
            &mut self.scratch,
            self.book.packed,
            &self.positions,
            &self.edges,
        );
        let hit = table.contains(&self.scratch);
        if hit {
            self.l1
                .insert(self.book.packed, &self.positions, &self.edges);
        }
        hit
    }

    /// Records the current state as fully explored: into the private L1,
    /// and — when the pool shares — via exactly one synchronized
    /// probe-or-intern on the lock-free table so every other worker can
    /// prune it.
    fn memo_insert(&mut self) {
        self.l1
            .insert(self.book.packed, &self.positions, &self.edges);
        if let Some(table) = &self.job.memo.table {
            self.job.memo.shape.encode(
                &mut self.scratch,
                self.book.packed,
                &self.positions,
                &self.edges,
            );
            table.probe_or_intern(&self.scratch);
        }
    }

    /// Pushes the buffered donated subtrees in one queue operation.
    #[inline]
    fn flush_donations(&mut self) {
        if !self.donate_buf.is_empty() {
            self.job.queue.push_batch(&mut self.donate_buf);
        }
    }

    fn run(&mut self) {
        while let Some(task) = self.job.queue.pop() {
            self.run_task(task);
            debug_assert!(
                self.donate_buf.is_empty(),
                "donations must flush by node end"
            );
            self.flush_states();
            self.job.queue.complete();
        }
        // Flush private statistics into the shared totals.
        self.job
            .states
            .fetch_add(self.stats.states, Ordering::SeqCst);
        self.job
            .memo_hits
            .fetch_add(self.stats.memo_hits, Ordering::SeqCst);
        self.job
            .completions
            .fetch_add(self.stats.completions, Ordering::SeqCst);
        self.job
            .undo_ops
            .fetch_add(self.stats.undo_ops, Ordering::SeqCst);
    }

    /// Replays `task`'s path from the empty schedule, then explores the
    /// subtree rooted there.
    fn run_task(&mut self, task: Task) {
        let job = self.job;
        self.positions.fill(0);
        self.book.reset();
        self.sim = ScheduleSimulator::new(job.system.initial_state().clone());
        self.schedule = Schedule::empty();
        self.index = ConflictIndex::new(job.k);
        self.edges = EdgeSet::empty(job.k);
        self.path = task.path;
        for pi in 0..self.path.len() {
            let i = self.path[pi] as usize;
            let id = job.ids[i];
            let step = self.txs[i].steps[self.positions[i] as usize];
            if let Some(d) = self.index.edge_delta(i, &step) {
                self.edges.union_with(&d);
            }
            self.index.push(i, step);
            self.sim
                .apply(id, &step)
                .expect("donated paths are legal and proper by construction");
            self.schedule.push(ScheduledStep::new(id, step));
            self.book.take(&mut self.positions, i);
        }
        debug_assert!(
            !job.book.packable || Some(self.book.packed) == pack_positions(&self.positions),
            "incrementally maintained packed key diverged from pack_positions"
        );
        // The node may have been memoized between donation and pickup by a
        // worker that reached the same (positions, edges) state elsewhere.
        if !self.path.is_empty() && self.memo_contains() {
            self.stats.memo_hits += 1;
            return;
        }
        if let Dfs::NotFound = self.dfs() {
            // Mirror of the sequential parent's post-recursion insert: the
            // subtree root is now fully explored with no witness.
            if !self.path.is_empty() {
                self.memo_insert();
            }
        }
    }

    /// Records the first witness found and cancels all workers.
    fn offer_witness(&self) {
        {
            let mut w = self.job.witness.lock().expect("witness slot");
            if w.is_none() {
                *w = Some(self.schedule.clone());
            }
        }
        self.job.queue.cancel();
    }

    fn dfs(&mut self) -> Dfs {
        let job = self.job;
        if job.queue.is_cancelled() {
            return Dfs::Pruned;
        }
        self.stats.states += 1;
        self.unflushed += 1;
        if self.unflushed >= self.flush_chunk {
            // Strictly greater: a search space of exactly `max_states`
            // states completes (the sequential explorer only exhausts when
            // it attempts state `max_states + 1`).
            if self.flush_states() > job.budget.max_states {
                job.budget_hit.store(true, Ordering::SeqCst);
                // Cancel the whole run so queued tasks are abandoned
                // instead of each being explored up to its own flush
                // boundary, keeping post-exhaustion overshoot bounded.
                job.queue.cancel();
                return Dfs::Pruned;
            }
        }

        if self.book.started == self.book.finished && self.book.started > 0 {
            self.stats.completions += 1;
            if self.edges.has_cycle() {
                self.offer_witness();
                return Dfs::Found;
            }
        }

        let mut donated_any = false;
        let mut explored_locally = false;
        let mut pruned = false;
        for i in 0..job.k {
            let id = job.ids[i];
            let pos = self.positions[i] as usize;
            let Some(&step) = self.txs[i].steps.get(pos) else {
                continue;
            };
            // Empty deltas — the common case — are `None` end to end, so
            // they skip the apply/undo pair and every allocation.
            let added = self
                .index
                .edge_delta(i, &step)
                .map(|delta| self.edges.apply(&delta));
            self.book.take(&mut self.positions, i);
            // Memo probe before the legality gate, exactly as in the
            // sequential explorer (see its comment for the soundness
            // argument — it holds across workers because the simulator
            // state is a function of positions alone).
            if self.memo_contains() {
                self.stats.memo_hits += 1;
                self.book.untake(&mut self.positions, i);
                if let Some(a) = &added {
                    self.edges.undo(a);
                }
                continue;
            }
            // Donation ("stealing" from the donor's side): once this node
            // has one locally explored child, viable siblings go to the
            // batch buffer for idle workers instead of being explored
            // here; the buffer flushes in chunks, before any local
            // descent, and at node end.
            if explored_locally && job.queue.idle_workers() > 0 && self.sim.check(id, &step).is_ok()
            {
                let mut child = self.path.clone();
                child.push(i as u32);
                self.donate_buf.push(Task { path: child });
                donated_any = true;
                if self.donate_buf.len() >= DONATE_BATCH {
                    self.flush_donations();
                }
                self.book.untake(&mut self.positions, i);
                if let Some(a) = &added {
                    self.edges.undo(a);
                }
                continue;
            }
            let Ok(token) = self.sim.apply_undoable(id, &step) else {
                self.book.untake(&mut self.positions, i);
                if let Some(a) = &added {
                    self.edges.undo(a);
                }
                continue;
            };
            // About to explore locally: donated siblings must reach the
            // queue first, or idle workers would starve for the whole
            // descent.
            self.flush_donations();
            self.schedule.push(ScheduledStep::new(id, step));
            self.path.push(i as u32);
            self.index.push(i, step);
            let result = self.dfs();
            self.index.pop();
            self.path.pop();
            self.schedule.pop();
            self.sim.undo(token);
            self.stats.undo_ops += 1;
            match result {
                Dfs::Found => {
                    self.book.untake(&mut self.positions, i);
                    if let Some(a) = &added {
                        self.edges.undo(a);
                    }
                    return Dfs::Found;
                }
                Dfs::NotFound => {
                    explored_locally = true;
                    self.memo_insert();
                }
                Dfs::Donated => {
                    explored_locally = true;
                    donated_any = true;
                }
                Dfs::Pruned => {
                    pruned = true;
                }
            }
            self.book.untake(&mut self.positions, i);
            if let Some(a) = &added {
                self.edges.undo(a);
            }
            if pruned {
                break;
            }
        }
        self.flush_donations();
        if pruned {
            Dfs::Pruned
        } else if donated_any {
            Dfs::Donated
        } else {
            Dfs::NotFound
        }
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
        let share = self.pool.threads() > 1;
        let job = Arc::new(VerifyJob::new(system.clone(), budget, share));
        self.pool.run(job.clone());
        let stats = job.stats();
        let witness = job.witness.lock().expect("witness slot").take();
        match witness {
            Some(witness) => Verdict::Unsafe { witness, stats },
            None if job.budget_hit.load(Ordering::SeqCst) => Verdict::Exhausted(stats),
            None => Verdict::Safe(stats),
        }
    }
}

/// One-shot convenience over [`ParallelVerifier`]: spawns a pool of
/// `threads` workers, verifies, and tears the pool down. Callers verifying
/// many systems should hold a [`ParallelVerifier`] instead.
pub fn verify_safety_parallel(
    system: &TransactionSystem,
    budget: SearchBudget,
    threads: usize,
) -> Verdict {
    ParallelVerifier::new(threads).verify(system, budget)
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
            verify_safety_parallel(&two_phase_system(), SearchBudget { max_states: 3 }, 2);
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
        // 4x headroom absorbs memo-race duplication; the single-thread
        // exact-fit budget has no duplication and must complete too (the
        // sequential explorer only exhausts attempting state max + 1).
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
        // Memo races may duplicate a little work, but sharing the table
        // must keep the parallel search from degenerating to memo-less
        // exponential blowup.
        let system = two_phase_system();
        let seq = verify_safety(&system, SearchBudget::default());
        let par = verify_safety_parallel(&system, SearchBudget::default(), 4);
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
        // systems of the same key width: stale L1 entries from run 1 must
        // not prune run 2 (each run builds its workers fresh L1s).
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
