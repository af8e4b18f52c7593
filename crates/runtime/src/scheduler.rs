//! The admission-stage conflict-DAG batch scheduler.
//!
//! The paper's policies resolve conflicts *reactively*: a worker
//! discovers a held lock at grant time and parks on the entity's stripe.
//! But the declared [`AccessIntent`](slp_policies::AccessIntent) handed
//! to `begin` already contains
//! everything needed to order conflicting transactions *before* they
//! run. This module builds that ordering up front, the way block
//! executors do: take the whole admission batch, build a conflict DAG
//! over it from the declared access sets, and dispatch
//! anti-dependency-free *waves* onto the worker pool.
//!
//! # DAG construction
//!
//! Vertices are jobs in admission order. Two jobs get an edge iff they
//! declare a common entity, whatever they declare doing with it: every
//! engine the runtime serves, and the word path in front of them, locks
//! exclusively, so two jobs on one entity always conflict at grant time.
//! The edge always points from the lower admission index to the higher,
//! so the DAG is acyclic by construction. A job's *wave* is its
//! longest-path depth: wave 0 is the conflict-free frontier, wave `n + 1`
//! everything whose newest conflicting predecessor sits in wave `n`.
//! Jobs inside one wave are pairwise conflict-free **by declared intent**
//! and run concurrently.
//!
//! Structural jobs (inserts/deletes — anything that changes what exists)
//! *fence* the batch: the fence runs in a wave of its own, strictly
//! after every job admitted before it and strictly before every job
//! admitted after. Traversals planned against the engine's live graph
//! therefore never race a concurrent structural change in the same
//! wave.
//!
//! # What the DAG is, and is not
//!
//! The DAG is an *optimization*, never a correctness claim. Declared
//! intents may under-approximate the locks a policy actually takes (a
//! DDAG traversal locks its whole dominator region, not just its
//! targets), so the policy engine remains the sole grant authority and
//! intra-wave conflicts still park exactly as without the scheduler —
//! [`SchedMode::Waves`] just makes them rare. The conflict edges the DAG
//! *did* order up front are counted
//! (`WavePlan::conflict_edges` → `sched_parks_avoided` in the report):
//! each one is a conflict that would otherwise have been discovered at
//! grant time.
//!
//! # Deterministic mode
//!
//! [`SchedMode::Deterministic`] pins the whole run to admission order —
//! a replayable "block execution" mode:
//!
//! * transaction ids are derived from the job's admission index (not a
//!   shared racing counter),
//! * per-entity engines run waves concurrently (their plain lock/access
//!   plans cover exactly the declared set, so waves are genuinely
//!   conflict-free, with the grant fast path on and off); global-scope
//!   engines — whose lock footprint may exceed the declared intent —
//!   execute each wave's jobs one at a time, in admission order,
//! * and the merged trace is *renumbered* after the run: steps are
//!   regrouped per job in admission order and restamped densely. Only
//!   steps of non-conflicting transactions ever trade places (a
//!   conflicting pair is wave-ordered, and waves are barriers), so the
//!   renumbered schedule is conflict-equivalent to the executed one and
//!   byte-identical across worker counts and repeats.
//!
//! The wave barrier itself lives here (one mutex + condvar), not in the
//! lock service: a worker that drains the current wave blocks until the
//! in-flight jobs complete, then the whole pool advances through the
//! fence together.

use rustc_hash::FxHashMap;
use slp_core::EntityId;
use slp_policies::{ActionPlanner, Job};
use std::sync::{Condvar, Mutex};

/// Batch-scheduler mode ([`crate::RuntimeConfig::scheduler`]).
#[derive(Clone, Copy, PartialEq, Eq, Debug, Default)]
pub enum SchedMode {
    /// No scheduler: workers claim jobs off the shared cursor (the
    /// default — bit-compatible with the pre-scheduler runtime).
    #[default]
    Off,
    /// Conflict-DAG waves: jobs are dispatched wave by wave, so declared
    /// conflicts never meet inside a wave; parking remains the safety
    /// net for anything the intents under-declared.
    Waves,
    /// Waves plus a replayable commit order: admission-indexed
    /// transaction ids, admission-ordered trace renumbering, and serial
    /// wave execution for global-scope engines. The outcome fingerprint
    /// and the merged schedule are byte-identical across worker counts.
    Deterministic,
}

/// The conflict-DAG layering of one admission batch: which jobs run in
/// which wave, and how many conflict edges the DAG ordered up front.
pub(crate) struct WavePlan {
    /// Job indices per wave, admission-ordered within each wave.
    pub waves: Vec<Vec<usize>>,
    /// Conflict edges resolved by wave ordering instead of parking: one
    /// per touched entity an earlier job already touched (its latest
    /// toucher → this job). The admission-order edges a structural fence
    /// pins are not counted.
    pub conflict_edges: u64,
}

impl WavePlan {
    /// Layers `jobs` into conflict-free waves from the entities `planner`
    /// declares (falling back to the job's own shape when the planner
    /// declares nothing — on-demand policies like 2PL).
    pub fn build(jobs: &[Job], planner: &dyn ActionPlanner) -> WavePlan {
        let mut waves: Vec<Vec<usize>> = Vec::new();
        // The wave of the latest job touching each entity.
        let mut last_wave: FxHashMap<EntityId, usize> = FxHashMap::default();
        let mut conflict_edges = 0u64;
        // Jobs admitted after a structural fence start at `floor`; the
        // fence itself occupies `max_wave + 1` alone.
        let mut floor = 0usize;
        for (ji, job) in jobs.iter().enumerate() {
            let (touched, structural) = job_access_classes(planner, job);
            let mut wave = floor;
            for e in &touched {
                if let Some(&w) = last_wave.get(e) {
                    wave = wave.max(w + 1);
                    conflict_edges += 1;
                }
            }
            if structural {
                // The fence runs alone, strictly after everything
                // admitted so far; admission-order edges to the jobs it
                // fences off are pinned by construction, not counted.
                wave = wave.max(waves.len());
                floor = wave + 1;
            }
            for e in touched {
                last_wave.insert(e, wave);
            }
            if wave >= waves.len() {
                waves.resize_with(wave + 1, Vec::new);
            }
            waves[wave].push(ji);
        }
        WavePlan {
            waves,
            conflict_edges,
        }
    }
}

/// The entities one job declares it touches, plus whether the job is
/// structural (fences the batch).
///
/// The planner's [`AccessIntent`](slp_policies::AccessIntent) is the
/// source of truth when non-empty; on-demand planners declare nothing, so
/// the entities fall back to the job's own shape. What the job does with
/// an entity — read-only or not — never matters: every lock is exclusive.
fn job_access_classes(planner: &dyn ActionPlanner, job: &Job) -> (Vec<EntityId>, bool) {
    let intent = planner.intent(job);
    if !intent.is_empty() {
        let structural =
            job.insert_under.is_some() || intent.ops.values().flatten().any(|o| o.is_structural());
        return (intent.ops.into_keys().collect(), structural);
    }
    match job.insert_under {
        Some(ins) => (vec![ins.parent, ins.node], true),
        None => (job.targets.clone(), false),
    }
}

/// The wave-dispatch cursor the workers claim jobs from: hands out the
/// current wave's jobs, then blocks claimers at the wave fence until
/// every in-flight job of the wave completes, and advances the whole
/// pool together. In `serial` mode (deterministic runs on global-scope
/// engines) at most one job is in flight at any moment, in admission
/// order.
pub(crate) struct WaveDispatch {
    waves: Vec<Vec<usize>>,
    serial: bool,
    state: Mutex<DispatchState>,
    fence: Condvar,
}

struct DispatchState {
    wave: usize,
    next: usize,
    active: usize,
}

impl WaveDispatch {
    /// A dispatcher over `waves` (job indices per wave).
    pub fn new(waves: Vec<Vec<usize>>, serial: bool) -> Self {
        WaveDispatch {
            waves,
            serial,
            state: Mutex::new(DispatchState {
                wave: 0,
                next: 0,
                active: 0,
            }),
            fence: Condvar::new(),
        }
    }

    /// Claims the next job index, blocking at wave fences; `None` once
    /// every wave is drained. Every `Some` claim must be matched by one
    /// [`complete`](WaveDispatch::complete) call, whatever the job's
    /// outcome — the fence counts in-flight jobs, not successes.
    pub fn claim(&self) -> Option<usize> {
        let mut st = self.state.lock().expect("wave dispatch poisoned");
        loop {
            let Some(wave_jobs) = self.waves.get(st.wave) else {
                // Drained: wake any claimer still parked at the fence.
                self.fence.notify_all();
                return None;
            };
            if st.next < wave_jobs.len() && (!self.serial || st.active == 0) {
                let ji = wave_jobs[st.next];
                st.next += 1;
                st.active += 1;
                return Some(ji);
            }
            if st.next >= wave_jobs.len() && st.active == 0 {
                st.wave += 1;
                st.next = 0;
                self.fence.notify_all();
                continue;
            }
            st = self.fence.wait(st).expect("wave dispatch poisoned");
        }
    }

    /// Marks one claimed job finished (committed, dropped, or
    /// abandoned). The last completion of a wave releases the fence.
    pub fn complete(&self) {
        let mut st = self.state.lock().expect("wave dispatch poisoned");
        st.active -= 1;
        if st.active == 0 {
            self.fence.notify_all();
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use slp_core::DataOp;
    use slp_policies::{AccessIntent, PolicyAction, PolicyEngine, PolicyViolation};

    /// Declares exactly the job's targets (read+write, or read for
    /// read-only jobs) — a complete-intent planner for layering tests.
    struct DeclaringPlanner;

    impl ActionPlanner for DeclaringPlanner {
        fn intent(&self, job: &Job) -> AccessIntent {
            AccessIntent {
                ops: job
                    .targets
                    .iter()
                    .map(|&t| {
                        let ops = if job.read_only {
                            vec![DataOp::Read]
                        } else {
                            vec![DataOp::Read, DataOp::Write]
                        };
                        (t, ops)
                    })
                    .collect(),
            }
        }

        fn plan(
            &mut self,
            _engine: &dyn PolicyEngine,
            _job: &Job,
        ) -> Result<Option<Vec<PolicyAction>>, PolicyViolation> {
            Ok(None)
        }
    }

    /// Declares nothing (the 2PL shape): classes fall back to the job.
    struct SilentPlanner;

    impl ActionPlanner for SilentPlanner {
        fn intent(&self, _job: &Job) -> AccessIntent {
            AccessIntent::empty()
        }

        fn plan(
            &mut self,
            _engine: &dyn PolicyEngine,
            _job: &Job,
        ) -> Result<Option<Vec<PolicyAction>>, PolicyViolation> {
            Ok(None)
        }
    }

    fn e(i: u32) -> EntityId {
        EntityId(i)
    }

    #[test]
    fn disjoint_writers_share_wave_zero() {
        let jobs = vec![
            Job::access(vec![e(0)]),
            Job::access(vec![e(1)]),
            Job::access(vec![e(2)]),
        ];
        let plan = WavePlan::build(&jobs, &DeclaringPlanner);
        assert_eq!(plan.waves, vec![vec![0, 1, 2]]);
        assert_eq!(plan.conflict_edges, 0);
    }

    #[test]
    fn conflicting_writers_chain_one_wave_each() {
        let jobs = vec![
            Job::access(vec![e(0)]),
            Job::access(vec![e(0)]),
            Job::access(vec![e(0)]),
        ];
        let plan = WavePlan::build(&jobs, &DeclaringPlanner);
        assert_eq!(plan.waves, vec![vec![0], vec![1], vec![2]]);
        assert_eq!(plan.conflict_edges, 2, "one edge per adjacent pair");
    }

    #[test]
    fn read_declared_intents_chain_one_wave_each_like_writers() {
        // W(0) ; R(0) R(0) R(0) ; W(0): declared reads still lock
        // exclusively, so every job on e(0) waits for the one before.
        let jobs = vec![
            Job::access(vec![e(0)]),
            Job::read(vec![e(0)]),
            Job::read(vec![e(0)]),
            Job::read(vec![e(0)]),
            Job::access(vec![e(0)]),
        ];
        let plan = WavePlan::build(&jobs, &DeclaringPlanner);
        assert_eq!(
            plan.waves,
            vec![vec![0], vec![1], vec![2], vec![3], vec![4]]
        );
        assert_eq!(plan.conflict_edges, 4, "one edge per adjacent pair");
    }

    #[test]
    fn structural_jobs_fence_a_wave_alone() {
        let jobs = vec![
            Job::access(vec![e(0)]),
            Job::access(vec![e(1)]),
            Job::insert(e(0), e(9)),
            Job::access(vec![e(1)]),
        ];
        let plan = WavePlan::build(&jobs, &DeclaringPlanner);
        // The insert runs alone after wave 0, and the job admitted after
        // it starts past the fence even though e(1) was last touched in
        // wave 0.
        assert_eq!(plan.waves, vec![vec![0, 1], vec![2], vec![3]]);
    }

    #[test]
    fn silent_planners_fall_back_to_the_job_shape() {
        let jobs = vec![
            Job::access(vec![e(0), e(1)]),
            // Single-target reads lock exclusively, like writers: one
            // wave each.
            Job::read(vec![e(0)]),
            Job::read(vec![e(0)]),
            Job::read(vec![e(0), e(1)]),
            // Disjoint from everything: the frontier.
            Job::read(vec![e(2)]),
        ];
        let plan = WavePlan::build(&jobs, &SilentPlanner);
        assert_eq!(plan.waves, vec![vec![0, 4], vec![1], vec![2], vec![3]]);
        assert_eq!(plan.conflict_edges, 4);
    }

    #[test]
    fn dispatch_hands_out_waves_in_order_with_a_fence() {
        let d = WaveDispatch::new(vec![vec![0, 1], vec![2]], false);
        assert_eq!(d.claim(), Some(0));
        assert_eq!(d.claim(), Some(1));
        d.complete();
        d.complete();
        // Wave 0 fully complete: the fence opens into wave 1.
        assert_eq!(d.claim(), Some(2));
        d.complete();
        assert_eq!(d.claim(), None);
        assert_eq!(d.claim(), None, "drained dispatch stays drained");
    }

    #[test]
    fn dispatch_fence_blocks_until_inflight_jobs_complete() {
        use std::sync::Arc;
        let d = Arc::new(WaveDispatch::new(vec![vec![0], vec![1]], false));
        assert_eq!(d.claim(), Some(0));
        let d2 = Arc::clone(&d);
        let waiter = std::thread::spawn(move || d2.claim());
        // The waiter cannot cross the fence while job 0 is in flight.
        std::thread::sleep(std::time::Duration::from_millis(20));
        assert!(!waiter.is_finished(), "fence crossed with a job in flight");
        d.complete();
        assert_eq!(waiter.join().unwrap(), Some(1));
        d.complete();
        assert_eq!(d.claim(), None);
    }

    #[test]
    fn serial_dispatch_runs_one_job_at_a_time() {
        let d = WaveDispatch::new(vec![vec![0, 1]], true);
        assert_eq!(d.claim(), Some(0));
        let started = std::time::Instant::now();
        let (tx, rx) = std::sync::mpsc::channel();
        std::thread::scope(|s| {
            s.spawn(|| {
                let claimed = d.claim();
                tx.send((claimed, started.elapsed())).unwrap();
            });
            std::thread::sleep(std::time::Duration::from_millis(20));
            d.complete();
        });
        let (claimed, after) = rx.recv().unwrap();
        assert_eq!(claimed, Some(1));
        assert!(
            after >= std::time::Duration::from_millis(15),
            "serial claim must wait for the in-flight job"
        );
        d.complete();
        assert_eq!(d.claim(), None);
    }
}
