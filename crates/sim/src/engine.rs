//! The discrete-event simulation loop.
//!
//! `workers` concurrent slots execute a queue of [`Job`]s against one
//! [`EngineAdapter`]: each slot plans its job once, then requests the
//! plan's actions one at a time. Each emitted step costs ticks per the
//! latency model. Blocked transactions **park** on the contended entity
//! and are woken in FIFO order when it is unlocked; waits-for cycles
//! (deadlocks) abort the requester that closed the cycle, with a backoff
//! that grows per restart (this breaks symmetric livelocks); policy
//! violations abort and restart the job as a *fresh* transaction (the
//! paper's Fig. 3 "abort and start from node 2" behavior), or drop it
//! when the violation is fatal
//! ([`slp_policies::PolicyViolation::is_fatal`], the rule the runtime
//! applies too). The complete interleaved step trace is recorded for
//! post-hoc verification (legality, properness, serializability).

use crate::adapters::EngineAdapter;
use slp_core::{Schedule, ScheduledStep, Step, TxId};
use slp_policies::{Job, PolicyAction, PolicyResponse, WaitsFor};

/// Tick costs of the simulated operations.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub struct LatencyModel {
    /// Cost of a lock step.
    pub lock: u64,
    /// Cost of an unlock step.
    pub unlock: u64,
    /// Cost of a data step (read/write/insert/delete).
    pub data: u64,
    /// Backoff before an aborted job restarts (scaled by the number of
    /// restarts the job has already suffered).
    pub restart_backoff: u64,
}

impl Default for LatencyModel {
    fn default() -> Self {
        LatencyModel {
            lock: 1,
            unlock: 1,
            data: 5,
            restart_backoff: 10,
        }
    }
}

/// Simulation parameters.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub struct SimConfig {
    /// Multiprogramming level: number of concurrent transaction slots.
    pub workers: usize,
    /// Latency model.
    pub latency: LatencyModel,
    /// Hard cap on simulated ticks (guards against livelock in mutant
    /// policies).
    pub max_ticks: u64,
}

impl Default for SimConfig {
    fn default() -> Self {
        SimConfig {
            workers: 4,
            latency: LatencyModel::default(),
            max_ticks: 10_000_000,
        }
    }
}

/// The result of a simulation run.
#[derive(Clone, Debug)]
pub struct SimReport {
    /// Policy name.
    pub policy: &'static str,
    /// Jobs committed.
    pub committed: usize,
    /// Aborts due to *retryable* policy rule violations (the job restarts
    /// as a fresh transaction after backoff).
    pub policy_aborts: usize,
    /// Jobs dropped on a **fatal** violation ([`slp_policies::PolicyViolation::is_fatal`]):
    /// the request itself is malformed (bad plan, unsupported action), so
    /// retrying can never succeed. Classified by matching the violation
    /// enum, never by message text.
    pub rejected: usize,
    /// Aborts due to deadlock resolution.
    pub deadlock_aborts: usize,
    /// Number of times a transaction found its lock request blocked.
    pub lock_waits: u64,
    /// Total simulated time (commit of the last job).
    pub makespan: u64,
    /// Sum of job response times (first dispatch to commit).
    pub total_response: u64,
    /// Total attempts (= committed + policy/deadlock aborts + rejected).
    pub attempts: usize,
    /// The complete interleaved step trace.
    pub schedule: Schedule,
    /// Whether the run hit `max_ticks` before finishing the job queue.
    pub timed_out: bool,
}

impl SimReport {
    /// Committed jobs per 1000 ticks.
    pub fn throughput(&self) -> f64 {
        if self.makespan == 0 {
            0.0
        } else {
            self.committed as f64 * 1000.0 / self.makespan as f64
        }
    }

    /// Mean response time per committed job.
    pub fn mean_response(&self) -> f64 {
        if self.committed == 0 {
            0.0
        } else {
            self.total_response as f64 / self.committed as f64
        }
    }

    /// Abort rate over all attempts.
    pub fn abort_rate(&self) -> f64 {
        if self.attempts == 0 {
            0.0
        } else {
            (self.policy_aborts + self.deadlock_aborts) as f64 / self.attempts as f64
        }
    }
}

/// A job waiting for a slot: fresh, or restarting after an abort.
#[derive(Clone, Copy)]
struct Queued {
    job_idx: usize,
    /// The job's first dispatch: its response time runs from here across
    /// every restart.
    dispatched_at: u64,
    /// Aborts the job has suffered so far (scales its restart backoff).
    restarts: u64,
}

struct Run {
    tx: TxId,
    job: Queued,
    /// The attempt's plan and the index of its next action.
    plan: Vec<PolicyAction>,
    cursor: usize,
    ready_at: u64,
    /// When blocked, the entity this transaction is parked on. Parked
    /// workers do not poll; they are woken in FIFO order when the entity
    /// is unlocked.
    parked_on: Option<(slp_core::EntityId, u64)>,
}

/// Queues `job` to restart after a backoff that grows with its restarts
/// (this breaks symmetric livelocks).
fn requeue(retry_queue: &mut Vec<(u64, Queued)>, mut job: Queued, now: u64, config: &SimConfig) {
    job.restarts += 1;
    retry_queue.push((now + config.latency.restart_backoff * job.restarts, job));
}

/// Aborts `tx`: drops its waits-for edge, releases its locks and records
/// the unlock steps, which it returns for waking their waiters.
fn abort(
    adapter: &mut EngineAdapter,
    waits_for: &mut WaitsFor,
    schedule: &mut Schedule,
    tx: TxId,
) -> Vec<Step> {
    waits_for.clear(tx);
    let unlocks = adapter.engine.abort(tx);
    for s in &unlocks {
        schedule.push(ScheduledStep::new(tx, *s));
    }
    unlocks
}

/// Runs `jobs` through `adapter` under `config`. Deterministic: no RNG is
/// used by the engine itself (ties break by worker index).
pub fn run_sim(adapter: &mut EngineAdapter, jobs: &[Job], config: &SimConfig) -> SimReport {
    let mut report = SimReport {
        policy: adapter.engine.name(),
        committed: 0,
        policy_aborts: 0,
        rejected: 0,
        deadlock_aborts: 0,
        lock_waits: 0,
        makespan: 0,
        total_response: 0,
        attempts: 0,
        schedule: Schedule::empty(),
        timed_out: false,
    };
    let mut next_tx = 1u32;
    let mut next_job = 0usize;
    // Jobs whose attempt aborted, awaiting a restart not before the tick.
    let mut retry_queue: Vec<(u64, Queued)> = Vec::new();
    let mut workers: Vec<Option<Run>> = (0..config.workers).map(|_| None).collect();
    // Blocked transactions' edges, for deadlock detection.
    let mut waits_for = WaitsFor::default();
    // FIFO park sequence counter (first parked, first woken).
    let mut park_seq = 0u64;
    let mut now = 0u64;

    fn wake_parked(workers: &mut [Option<Run>], steps: &[Step], now: u64) {
        for s in steps {
            if !s.is_unlock() {
                continue;
            }
            // Wake the earliest-parked worker waiting on this entity.
            let candidate = (0..workers.len())
                .filter_map(|i| {
                    workers[i]
                        .as_ref()
                        .and_then(|r| r.parked_on)
                        .filter(|&(e, _)| e == s.entity)
                        .map(|(_, seq)| (seq, i))
                })
                .min();
            if let Some((_, i)) = candidate {
                let run = workers[i].as_mut().expect("parked worker");
                run.parked_on = None;
                run.ready_at = now + 1;
            }
        }
    }

    let step_cost = |l: &LatencyModel, steps: &[Step]| -> u64 {
        steps
            .iter()
            .map(|s| {
                if s.is_lock() {
                    l.lock
                } else if s.is_unlock() {
                    l.unlock
                } else {
                    l.data
                }
            })
            .sum()
    };

    loop {
        if now > config.max_ticks {
            report.timed_out = true;
            break;
        }
        // Fill idle workers.
        for w in workers.iter_mut() {
            if w.is_some() {
                continue;
            }
            // Prefer restarts whose backoff has expired, then fresh jobs.
            let job = if let Some(pos) = retry_queue
                .iter()
                .position(|&(not_before, _)| not_before <= now)
            {
                retry_queue.remove(pos).1
            } else if next_job < jobs.len() {
                next_job += 1;
                Queued {
                    job_idx: next_job - 1,
                    dispatched_at: now,
                    restarts: 0,
                }
            } else {
                continue;
            };
            let tx = TxId(next_tx);
            next_tx += 1;
            report.attempts += 1;
            match adapter.begin(tx, &jobs[job.job_idx]) {
                Ok(plan) => {
                    *w = Some(Run {
                        tx,
                        job,
                        plan,
                        cursor: 0,
                        ready_at: now,
                        parked_on: None,
                    });
                }
                // Fatal violations (malformed plan, unsupported action)
                // can never succeed on retry: drop the job. Transient rule
                // violations restart it with backoff.
                Err(v) if v.is_fatal() => {
                    report.rejected += 1;
                }
                Err(_) => {
                    report.policy_aborts += 1;
                    requeue(&mut retry_queue, job, now, config);
                }
            }
        }
        // Termination: nothing running and nothing left to dispatch. Idle
        // with only restarts pending: jump to the earliest backoff.
        if workers.iter().all(Option::is_none) {
            if next_job < jobs.len() {
                continue;
            }
            match retry_queue.iter().map(|&(not_before, _)| not_before).min() {
                Some(t) => now = t,
                None => break,
            }
            continue;
        }
        // Pick the ready worker with the earliest ready time.
        let wi = (0..workers.len())
            .filter(|&i| workers[i].is_some())
            .min_by_key(|&i| (workers[i].as_ref().expect("is_some").ready_at, i))
            .expect("some worker running");
        if workers[wi].as_ref().expect("selected").ready_at == u64::MAX {
            // Every running worker is parked and no restart can proceed:
            // break the stall by aborting the earliest-parked worker.
            let (_, stalled) = workers
                .iter()
                .enumerate()
                .filter_map(|(i, w)| {
                    w.as_ref()
                        .and_then(|r| r.parked_on)
                        .map(|(_, seq)| (seq, i))
                })
                .min()
                .expect("a parked worker exists");
            let run = workers[stalled].take().expect("parked");
            report.deadlock_aborts += 1;
            let unlocks = abort(adapter, &mut waits_for, &mut report.schedule, run.tx);
            wake_parked(&mut workers, &unlocks, now);
            requeue(&mut retry_queue, run.job, now, config);
            now += 1;
            continue;
        }
        let run = workers[wi].as_mut().expect("selected");
        now = now.max(run.ready_at);
        let tx = run.tx;
        // The next action of the plan, or — once the plan is spent — the
        // commit, whose unlock steps count as a grant too.
        let done = run.cursor == run.plan.len();
        let response = if done {
            match adapter.engine.finish(tx) {
                Ok(steps) => PolicyResponse::Granted(steps),
                Err(v) => PolicyResponse::Violation(v),
            }
        } else {
            adapter.engine.request(tx, run.plan[run.cursor])
        };
        let unlocks = match response {
            PolicyResponse::Granted(steps) => {
                waits_for.clear(tx);
                for s in &steps {
                    report.schedule.push(ScheduledStep::new(tx, *s));
                }
                let finish = now + step_cost(&config.latency, &steps).max(1);
                if done {
                    report.committed += 1;
                    report.total_response += finish - run.job.dispatched_at;
                    report.makespan = report.makespan.max(finish);
                    workers[wi] = None;
                } else {
                    run.cursor += 1;
                    run.ready_at = finish;
                }
                steps
            }
            PolicyResponse::Conflict { entity, holder } => {
                report.lock_waits += 1;
                // Deadlock detection: does the waits-for chain from the
                // holder lead back to this transaction?
                if !waits_for.note(tx, holder) {
                    // Park until the entity is unlocked (FIFO).
                    run.parked_on = Some((entity, park_seq));
                    park_seq += 1;
                    run.ready_at = u64::MAX;
                    continue;
                }
                // Abort the requester that closed the cycle.
                report.deadlock_aborts += 1;
                requeue(&mut retry_queue, run.job, now, config);
                workers[wi] = None;
                abort(adapter, &mut waits_for, &mut report.schedule, tx)
            }
            PolicyResponse::Violation(v) => {
                // Classification keys off the violation enum: fatal
                // violations drop the job; retryable rule violations (e.g.
                // a Fig. 3 plan invalidation) restart it as a fresh
                // transaction after backoff.
                if v.is_fatal() {
                    report.rejected += 1;
                } else {
                    report.policy_aborts += 1;
                    requeue(&mut retry_queue, run.job, now, config);
                }
                workers[wi] = None;
                abort(adapter, &mut waits_for, &mut report.schedule, tx)
            }
        };
        wake_parked(&mut workers, &unlocks, now);
    }
    report.makespan = report.makespan.max(now);
    report
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::adapters::build_adapter;
    use slp_core::EntityId;
    use slp_policies::{PolicyConfig, PolicyKind, PolicyRegistry};

    fn pool(n: u32) -> Vec<EntityId> {
        (0..n).map(EntityId).collect()
    }

    fn two_phase(n: u32) -> EngineAdapter {
        build_adapter(
            &PolicyRegistry::new(),
            PolicyKind::TwoPhase,
            &PolicyConfig::flat(pool(n)),
        )
        .unwrap()
    }

    #[test]
    fn disjoint_jobs_all_commit_without_waits() {
        let mut adapter = two_phase(8);
        let jobs: Vec<Job> = (0..4)
            .map(|i| Job::access(vec![EntityId(i * 2), EntityId(i * 2 + 1)]))
            .collect();
        let report = run_sim(&mut adapter, &jobs, &SimConfig::default());
        assert_eq!(report.committed, 4);
        assert_eq!(report.lock_waits, 0);
        assert_eq!(report.policy_aborts + report.deadlock_aborts, 0);
        assert!(report.schedule.is_legal());
        assert!(slp_core::is_serializable(&report.schedule));
    }

    #[test]
    fn contended_jobs_wait_but_commit() {
        let mut adapter = two_phase(1);
        let jobs: Vec<Job> = (0..3).map(|_| Job::access(vec![EntityId(0)])).collect();
        let report = run_sim(&mut adapter, &jobs, &SimConfig::default());
        assert_eq!(report.committed, 3);
        assert!(report.lock_waits > 0, "serialized access must wait");
        assert!(report.schedule.is_legal());
    }

    #[test]
    fn opposite_order_jobs_deadlock_and_recover() {
        let mut adapter = two_phase(2);
        // T1: 0 then 1. T2: 1 then 0 — classic deadlock under 2PL.
        let jobs = vec![
            Job::access(vec![EntityId(0), EntityId(1)]),
            Job::access(vec![EntityId(1), EntityId(0)]),
        ];
        let report = run_sim(&mut adapter, &jobs, &SimConfig::default());
        assert_eq!(
            report.committed, 2,
            "deadlock must be resolved by abort+restart"
        );
        assert!(report.deadlock_aborts >= 1);
        assert!(report.schedule.is_legal());
        assert!(slp_core::is_serializable(&report.schedule));
    }

    #[test]
    fn single_worker_serializes_everything() {
        let mut adapter = two_phase(2);
        let jobs = vec![
            Job::access(vec![EntityId(0), EntityId(1)]),
            Job::access(vec![EntityId(1), EntityId(0)]),
        ];
        let config = SimConfig {
            workers: 1,
            ..Default::default()
        };
        let report = run_sim(&mut adapter, &jobs, &config);
        assert_eq!(report.committed, 2);
        assert_eq!(report.deadlock_aborts, 0, "MPL 1 cannot deadlock");
        assert_eq!(report.lock_waits, 0);
    }

    #[test]
    fn report_metrics_are_consistent() {
        let mut adapter = two_phase(4);
        let jobs: Vec<Job> = (0..6).map(|i| Job::access(vec![EntityId(i % 4)])).collect();
        let report = run_sim(&mut adapter, &jobs, &SimConfig::default());
        assert_eq!(report.committed, 6);
        assert_eq!(
            report.attempts,
            6 + report.policy_aborts + report.deadlock_aborts
        );
        assert!(report.throughput() > 0.0);
        assert!(report.mean_response() > 0.0);
        assert!(report.makespan > 0);
        assert!(!report.timed_out);
    }
}
