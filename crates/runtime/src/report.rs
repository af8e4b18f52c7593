//! Run accounting: the simulator's accounting shape (committed / policy
//! aborts / deadlock aborts / rejected) plus wall-clock throughput and
//! latency percentiles.

use crate::certifier::{CertStats, CertViolation};
use slp_core::{Schedule, StructuralState, TxId};
use slp_durability::WalSummary;
use std::time::Duration;

/// Commit-latency summary over a run (microseconds; wall clock from a
/// job's first dispatch to its commit, across however many abort/restart
/// attempts it took).
#[derive(Clone, Copy, PartialEq, Eq, Debug, Default)]
pub struct LatencySummary {
    /// Number of committed jobs the summary covers.
    pub count: usize,
    /// Mean latency.
    pub mean_us: u64,
    /// Median.
    pub p50_us: u64,
    /// 95th percentile.
    pub p95_us: u64,
    /// 99th percentile.
    pub p99_us: u64,
    /// Worst observed.
    pub max_us: u64,
}

impl LatencySummary {
    /// Summarizes raw per-job latencies (consumed: sorted in place).
    pub fn from_micros(mut us: Vec<u64>) -> Self {
        if us.is_empty() {
            return LatencySummary::default();
        }
        us.sort_unstable();
        // Nearest-rank with ceiling: round the fractional rank *up* so a
        // percentile never understates the tail (with floor, 2 samples
        // would report the fastest job as p99).
        let pct = |q: f64| us[((us.len() - 1) as f64 * q).ceil() as usize];
        let n = us.len() as u64;
        LatencySummary {
            count: us.len(),
            // Round half-up: truncating division understates the mean by
            // up to a microsecond (1..=100 averages 50.5, not 50).
            mean_us: (us.iter().sum::<u64>() + n / 2) / n,
            p50_us: pct(0.50),
            p95_us: pct(0.95),
            p99_us: pct(0.99),
            max_us: *us.last().expect("non-empty"),
        }
    }
}

/// The online certifier's verdict on a run
/// ([`RuntimeReport::certification`], present when
/// [`crate::RuntimeConfig::certify_online`] was
/// [`Strict`](crate::CertifyMode::Strict)).
#[derive(Clone, Debug)]
pub struct Certification {
    /// The first serialization-graph cycle the certifier caught — the
    /// transaction that closed it was aborted, not committed — `None` on
    /// a certified-serializable run.
    pub violation: Option<CertViolation>,
    /// Certifier counters at end of run (steps observed, edges inserted,
    /// committed-prefix truncations, live/peak graph size).
    pub stats: CertStats,
}

/// The result of a [`crate::Runtime::run`].
///
/// Accounting mirrors the simulator's report: every
/// attempt (a `begin`ed — or planned-then-refused — fresh transaction)
/// ends in exactly one of committed / policy abort / deadlock abort /
/// certification abort / rejected / abandoned, so
/// `attempts == committed + policy_aborts + deadlock_aborts +
/// certification_aborts + rejected + abandoned` always holds
/// ([`RuntimeReport::accounting_balances`]). `abandoned` is only nonzero
/// when the run [`timed out`](RuntimeReport::timed_out).
#[derive(Clone, Debug)]
pub struct RuntimeReport {
    /// Policy name.
    pub policy: &'static str,
    /// Worker threads the run used.
    pub workers: usize,
    /// Jobs committed.
    pub committed: usize,
    /// Aborts on *retryable* policy rule violations (the job restarted as
    /// a fresh transaction after backoff).
    pub policy_aborts: usize,
    /// Aborts chosen to break waits-for deadlocks (the requester that
    /// closed the cycle, as in the simulator).
    pub deadlock_aborts: usize,
    /// Aborts chosen by [`Strict`](crate::CertifyMode::Strict) online
    /// certification to break a serialization-graph cycle: the
    /// transaction whose commit (or snapshot read) closed the cycle is
    /// aborted, its node retracted, and the run continues. The first
    /// caught cycle is preserved in
    /// [`certification`](RuntimeReport::certification).
    pub certification_aborts: usize,
    /// Jobs dropped on a fatal violation (malformed request — retrying
    /// can never succeed; [`slp_policies::PolicyViolation::is_fatal`]).
    pub rejected: usize,
    /// Attempts cut short by the wall-clock guard (their jobs neither
    /// committed nor were rejected; nonzero only on timeout).
    pub abandoned: usize,
    /// Total fresh-transaction attempts.
    pub attempts: usize,
    /// Number of times a request found its lock held (one per conflict
    /// observation, as in the simulator).
    pub lock_waits: u64,
    /// Actions granted (by words or by the engine — one per run):
    /// `grants == fast_path_grants + slow_path_grants` always.
    pub grants: u64,
    /// Actions granted by a per-entity lock-word CAS, bypassing the
    /// engine lock entirely ([`crate::RuntimeConfig::grant_fast_path`];
    /// zero with the fast path off or a
    /// [`slp_policies::GrantScope::Global`] engine).
    pub fast_path_grants: u64,
    /// Actions granted under the engine write lock: zero in a word run,
    /// [`grants`](RuntimeReport::grants) in an engine run.
    pub slow_path_grants: u64,
    /// Attempts a word run refused because their plan fell outside the
    /// plain lock/access shape (each also counted in
    /// [`rejected`](RuntimeReport::rejected)).
    pub fast_path_fallbacks: u64,
    /// Times a conflicting worker actually blocked on its stripe's
    /// condvar (a park whose generation check found no racing release).
    pub parks: u64,
    /// Times a parked worker's timeout backstop fired instead of a
    /// wakeup. The wake protocol makes lost wakeups impossible by
    /// construction, so with a timeout comfortably above scheduler jitter
    /// this is zero on every healthy run — the stress matrix asserts
    /// exactly that. (With the default 1 ms timeout, a preempted lock
    /// holder can legitimately out-sleep a waiter, so small counts there
    /// are noise, not lost wakeups.)
    pub park_timeouts: u64,
    /// Versioned reads served from MVCC snapshots (one per target of
    /// every read-only job taking the snapshot path; zero unless
    /// [`crate::RuntimeConfig::snapshot_reads`] is on). Snapshot reads
    /// never touch the lock service, so a pure-read workload with this
    /// nonzero shows `grants == 0` and `lock_waits == 0`.
    pub snapshot_reads: u64,
    /// Jobs per wave of the batch scheduler, in wave order: its length
    /// is the number of waves (empty when [`crate::SchedMode::Off`] —
    /// the whole queue is one unscheduled pool).
    pub wave_widths: Vec<u32>,
    /// Conflict edges the admission-stage DAG resolved by wave ordering
    /// — each one a conflict that would otherwise have surfaced at grant
    /// time as a `lock_wait` (and likely a park). Zero when the
    /// scheduler is off.
    pub sched_parks_avoided: u64,
    /// Wall-clock duration of the run.
    pub elapsed: Duration,
    /// Whether the wall-clock guard expired before the job queue drained.
    pub timed_out: bool,
    /// The total-ordered trace of every granted step: the workers'
    /// sequence-stamped runs, each already in stamp order, merged after
    /// the join by [`Schedule::from_sequenced_runs`] — which accepts
    /// only a dense, duplicate-free stamp sequence, so a step a worker
    /// recorded cannot be silently missing. Replay it through `slp_core`
    /// (legal / proper / serializable) to verify the run.
    pub schedule: Schedule,
    /// The structural state when the run started (for properness replay).
    pub initial: StructuralState,
    /// Every transaction that aborted (policy, deadlock, certification,
    /// or abandonment) and may have left steps in the trace — the abort
    /// set for offline [`slp_core::is_serializable_with_aborts`] replay.
    pub aborted: Vec<TxId>,
    /// Commit-latency percentiles.
    pub latency: LatencySummary,
    /// Write-ahead log counters when the run was durable
    /// ([`crate::Runtime::run_durable`]), `None` for in-memory runs. A
    /// summary with [`failed`](WalSummary::failed) set means the log
    /// store died mid-run: the in-memory result is complete, but only a
    /// prefix of it is durable.
    pub wal: Option<WalSummary>,
    /// Online certification verdict, `None` when the run did not certify
    /// ([`crate::RuntimeConfig::certify_online`] was
    /// [`Off`](crate::CertifyMode::Off)).
    pub certification: Option<Certification>,
}

impl RuntimeReport {
    /// Committed jobs per wall-clock second.
    pub fn throughput(&self) -> f64 {
        let secs = self.elapsed.as_secs_f64();
        if secs == 0.0 {
            0.0
        } else {
            self.committed as f64 / secs
        }
    }

    /// Abort rate over all attempts: policy, deadlock and certification
    /// aborts together.
    pub fn abort_rate(&self) -> f64 {
        if self.attempts == 0 {
            0.0
        } else {
            (self.policy_aborts + self.deadlock_aborts + self.certification_aborts) as f64
                / self.attempts as f64
        }
    }

    /// Whether every attempt is accounted for:
    /// `attempts == committed + policy_aborts + deadlock_aborts +
    /// certification_aborts + rejected + abandoned`.
    pub fn accounting_balances(&self) -> bool {
        self.attempts
            == self.committed
                + self.policy_aborts
                + self.deadlock_aborts
                + self.certification_aborts
                + self.rejected
                + self.abandoned
    }

    /// Fraction of grants decided by a lock-word CAS instead of the
    /// engine lock (the bypass ratio; 0.0 when nothing was granted).
    pub fn fast_path_ratio(&self) -> f64 {
        if self.grants == 0 {
            0.0
        } else {
            self.fast_path_grants as f64 / self.grants as f64
        }
    }

    /// `Some(true)` when the online certifier saw no cycle, `Some(false)`
    /// when it latched one, `None` when the run did not certify online.
    pub fn certified_serializable(&self) -> Option<bool> {
        self.certification.as_ref().map(|c| c.violation.is_none())
    }

    /// Whether the trace shows every acquired lock released — the
    /// trace-level statement that the engine's lock table reached
    /// quiescence when the workers drained.
    pub fn lock_table_quiescent(&self) -> bool {
        self.schedule.locks_held_at_end().is_empty()
    }

    /// The deterministic accounting fingerprint of a run: which jobs
    /// finished how. Abort *counts* are timing-dependent under real
    /// threads (two runs of the same seed interleave differently), but
    /// job *outcomes* under a safe policy are not: every well-formed job
    /// commits and every malformed one is rejected, regardless of
    /// interleaving. The determinism matrix compares this fingerprint
    /// across repeated runs.
    pub fn outcome_fingerprint(&self) -> (usize, usize, bool) {
        (self.committed, self.rejected, self.timed_out)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn latency_summary_percentiles() {
        let s = LatencySummary::from_micros((1..=100).collect());
        assert_eq!(s.count, 100);
        assert_eq!(s.p50_us, 51);
        assert_eq!(s.p95_us, 96);
        assert_eq!(s.p99_us, 100);
        assert_eq!(s.max_us, 100);
        // 1..=100 averages 50.5; half-up rounding reports 51 (truncation
        // used to report 50).
        assert_eq!(s.mean_us, 51);
        // Tiny samples must surface the tail, not hide it: with two
        // latencies the upper percentiles are the slower one.
        let s = LatencySummary::from_micros(vec![10, 1000]);
        assert_eq!(s.p50_us, 1000);
        assert_eq!(s.p99_us, 1000);
        assert_eq!(
            LatencySummary::from_micros(vec![]),
            LatencySummary::default()
        );
    }
}
