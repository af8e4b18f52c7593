//! Lock-free service metrics: a registry of atomic counters and
//! fixed-bucket latency histograms, fed by the runtime at the end of
//! every run and rendered as a plain-text snapshot.
//!
//! The registry is shared-reference friendly (every cell is an atomic
//! with relaxed ordering — counts are monotone statistics, not
//! synchronization), so a load generator can hold a [`Metrics`] across
//! thousands of runs and render a consolidated snapshot at any point
//! without stopping the world. [`Metrics::render`] emits one
//! `name value` line per counter plus cumulative `_bucket{le="..."}` /
//! `_sum` / `_count` lines per histogram — the text-exposition shape
//! scrapers already understand.

use crate::report::RuntimeReport;
use std::fmt::Write as _;
use std::sync::atomic::{AtomicU64, Ordering};

/// A monotone atomic counter (relaxed ordering; a statistic, not a
/// synchronization point).
#[derive(Default)]
pub struct Counter(AtomicU64);

impl Counter {
    /// Adds `n`.
    pub fn add(&self, n: u64) {
        self.0.fetch_add(n, Ordering::Relaxed);
    }

    /// Raises the value to `v` if larger (for high-water marks).
    pub fn record_max(&self, v: u64) {
        self.0.fetch_max(v, Ordering::Relaxed);
    }

    /// Current value.
    pub fn get(&self) -> u64 {
        self.0.load(Ordering::Relaxed)
    }
}

/// Upper bounds (µs, inclusive) of the histogram buckets: powers of 4
/// from 1 µs to ~1 s, followed by an implicit overflow bucket. Eleven
/// fixed buckets cover six decades at a quarter-decade resolution —
/// coarse, but allocation-free and mergeable across runs.
pub const LATENCY_BUCKETS_US: [u64; 11] = [
    1, 4, 16, 64, 256, 1_024, 4_096, 16_384, 65_536, 262_144, 1_048_576,
];

/// A fixed-bucket latency histogram (microseconds). Recording is one
/// relaxed `fetch_add` per sample; buckets are cumulative only at
/// render time.
#[derive(Default)]
pub struct Histogram {
    counts: [AtomicU64; LATENCY_BUCKETS_US.len() + 1],
    sum_us: AtomicU64,
}

impl Histogram {
    /// Records one sample.
    pub fn record(&self, us: u64) {
        self.record_all(&[us]);
    }

    /// Records a batch of samples: tallied locally, then one `fetch_add`
    /// per non-empty bucket — a run's hundred thousand commit latencies
    /// cost a dozen shared writes, not two per sample.
    pub fn record_all(&self, samples: &[u64]) {
        let mut counts = [0u64; LATENCY_BUCKETS_US.len() + 1];
        for &us in samples {
            let idx = LATENCY_BUCKETS_US
                .iter()
                .position(|&bound| us <= bound)
                .unwrap_or(LATENCY_BUCKETS_US.len());
            counts[idx] += 1;
        }
        for (cell, count) in self.counts.iter().zip(counts) {
            if count != 0 {
                cell.fetch_add(count, Ordering::Relaxed);
            }
        }
        self.sum_us
            .fetch_add(samples.iter().sum(), Ordering::Relaxed);
    }

    /// Total samples recorded.
    pub fn count(&self) -> u64 {
        self.counts.iter().map(|c| c.load(Ordering::Relaxed)).sum()
    }

    /// Sum of all samples (µs).
    pub fn sum_us(&self) -> u64 {
        self.sum_us.load(Ordering::Relaxed)
    }

    fn render_into(&self, name: &str, out: &mut String) {
        let mut cumulative = 0u64;
        for (i, bound) in LATENCY_BUCKETS_US.iter().enumerate() {
            cumulative += self.counts[i].load(Ordering::Relaxed);
            let _ = writeln!(out, "{name}_bucket{{le=\"{bound}\"}} {cumulative}");
        }
        cumulative += self.counts[LATENCY_BUCKETS_US.len()].load(Ordering::Relaxed);
        let _ = writeln!(out, "{name}_bucket{{le=\"+Inf\"}} {cumulative}");
        let _ = writeln!(out, "{name}_sum {}", self.sum_us());
        let _ = writeln!(out, "{name}_count {cumulative}");
    }
}

/// The metrics registry. All fields are public: samplers bump them
/// directly, dashboards read them directly, [`Metrics::render`] snapshots
/// everything as text.
#[derive(Default)]
pub struct Metrics {
    /// Completed runs recorded into this registry.
    pub runs: Counter,
    /// Fresh-transaction attempts.
    pub attempts: Counter,
    /// Jobs committed.
    pub committed: Counter,
    /// Retryable policy-rule aborts.
    pub policy_aborts: Counter,
    /// Deadlock-victim aborts.
    pub deadlock_aborts: Counter,
    /// Strict-certification cycle-victim aborts.
    pub certification_aborts: Counter,
    /// Jobs dropped on fatal violations.
    pub rejected: Counter,
    /// Attempts cut short by the wall-clock guard or a strict-mode halt.
    pub abandoned: Counter,
    /// Actions granted (both paths; fast + slow always equals this).
    pub grants: Counter,
    /// Actions granted by a per-entity lock-word CAS (engine bypassed).
    pub fast_path_grants: Counter,
    /// Actions granted under the engine write lock.
    pub slow_path_grants: Counter,
    /// Attempts a word run refused because their plan fell outside the
    /// plain lock/access shape (each also counted in `rejected`).
    pub fast_path_fallbacks: Counter,
    /// Conflict observations (a request found its lock held).
    pub conflicts: Counter,
    /// Times a worker actually blocked on a parking stripe.
    pub parks: Counter,
    /// Park-timeout backstop firings (lost-wakeup evidence under a
    /// generous timeout).
    pub park_timeouts: Counter,
    /// Versioned reads served from MVCC snapshots (no lock service).
    pub snapshot_reads: Counter,
    /// Waves dispatched by the batch scheduler (zero for unscheduled
    /// runs).
    pub waves: Counter,
    /// Conflict edges the admission-stage DAG resolved by wave ordering
    /// instead of grant-time parking.
    pub sched_parks_avoided: Counter,
    /// WAL records appended.
    pub wal_records: Counter,
    /// WAL bytes appended.
    pub wal_bytes: Counter,
    /// WAL fsync (or simulated sync) calls.
    pub wal_syncs: Counter,
    /// Steps the online certifier observed.
    pub cert_steps: Counter,
    /// Serialization-graph edges the certifier inserted.
    pub cert_edges: Counter,
    /// Transactions pruned by committed-prefix truncation.
    pub cert_truncations: Counter,
    /// High-water mark of live certifier nodes (bounded-memory witness).
    pub cert_peak_nodes: Counter,
    /// Serialization-graph cycles latched across runs.
    pub cert_violations: Counter,
    /// Commit latency (job dispatch to commit, across retries).
    pub commit_latency: Histogram,
    /// Wave width (jobs per scheduler wave; the bucket bounds read as
    /// plain counts here, not microseconds).
    pub wave_width: Histogram,
}

impl Metrics {
    /// A fresh, zeroed registry.
    pub fn new() -> Metrics {
        Metrics::default()
    }

    /// Records raw per-job commit latencies into the histogram (the
    /// runtime calls this before the samples are folded into the
    /// report's [`crate::LatencySummary`]).
    pub fn observe_latencies(&self, us: &[u64]) {
        self.commit_latency.record_all(us);
    }

    /// Folds one finished run's report into the registry: accounting,
    /// service contention counters, WAL counters, and the online
    /// certifier's stats when the run certified.
    pub fn record_run(&self, report: &RuntimeReport) {
        self.runs.add(1);
        self.attempts.add(report.attempts as u64);
        self.committed.add(report.committed as u64);
        self.policy_aborts.add(report.policy_aborts as u64);
        self.deadlock_aborts.add(report.deadlock_aborts as u64);
        self.certification_aborts
            .add(report.certification_aborts as u64);
        self.rejected.add(report.rejected as u64);
        self.abandoned.add(report.abandoned as u64);
        self.grants.add(report.grants);
        self.fast_path_grants.add(report.fast_path_grants);
        self.slow_path_grants.add(report.slow_path_grants);
        self.fast_path_fallbacks.add(report.fast_path_fallbacks);
        self.conflicts.add(report.lock_waits);
        self.parks.add(report.parks);
        self.park_timeouts.add(report.park_timeouts);
        self.snapshot_reads.add(report.snapshot_reads);
        self.waves.add(report.waves as u64);
        self.sched_parks_avoided.add(report.sched_parks_avoided);
        for &width in &report.wave_widths {
            self.wave_width.record(u64::from(width));
        }
        if let Some(wal) = &report.wal {
            self.wal_records.add(wal.records);
            self.wal_bytes.add(wal.bytes);
            self.wal_syncs.add(wal.syncs);
        }
        if let Some(cert) = &report.certification {
            self.cert_steps.add(cert.stats.steps);
            self.cert_edges.add(cert.stats.edges);
            self.cert_truncations.add(cert.stats.truncations);
            self.cert_peak_nodes
                .record_max(cert.stats.peak_nodes as u64);
            if cert.violation.is_some() {
                self.cert_violations.add(1);
            }
        }
    }

    /// Renders the registry as a text snapshot: `slp_<name> <value>`
    /// lines, histogram as cumulative buckets.
    pub fn render(&self) -> String {
        let counters: [(&str, &Counter); 26] = [
            ("runs_total", &self.runs),
            ("attempts_total", &self.attempts),
            ("committed_total", &self.committed),
            ("policy_aborts_total", &self.policy_aborts),
            ("deadlock_aborts_total", &self.deadlock_aborts),
            ("certification_aborts_total", &self.certification_aborts),
            ("rejected_total", &self.rejected),
            ("abandoned_total", &self.abandoned),
            ("grants_total", &self.grants),
            ("fast_path_grants_total", &self.fast_path_grants),
            ("slow_path_grants_total", &self.slow_path_grants),
            ("fast_path_fallbacks_total", &self.fast_path_fallbacks),
            ("conflicts_total", &self.conflicts),
            ("parks_total", &self.parks),
            ("park_timeouts_total", &self.park_timeouts),
            ("snapshot_reads_total", &self.snapshot_reads),
            ("waves_total", &self.waves),
            ("sched_parks_avoided_total", &self.sched_parks_avoided),
            ("wal_records_total", &self.wal_records),
            ("wal_bytes_total", &self.wal_bytes),
            ("wal_syncs_total", &self.wal_syncs),
            ("cert_steps_total", &self.cert_steps),
            ("cert_edges_total", &self.cert_edges),
            ("cert_truncations_total", &self.cert_truncations),
            ("cert_peak_nodes", &self.cert_peak_nodes),
            ("cert_violations_total", &self.cert_violations),
        ];
        let mut out = String::new();
        for (name, counter) in counters {
            let _ = writeln!(out, "slp_{name} {}", counter.get());
        }
        self.commit_latency
            .render_into("slp_commit_latency_us", &mut out);
        self.wave_width.render_into("slp_wave_width", &mut out);
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn histogram_buckets_are_cumulative_and_lossless() {
        let h = Histogram::default();
        for us in [0, 1, 2, 100, 5_000, u64::MAX] {
            h.record(us);
        }
        assert_eq!(h.count(), 6);
        // 0 and 1 land in the first bucket; u64::MAX overflows past the
        // last bound but is still counted.
        let rendered = {
            let mut s = String::new();
            h.render_into("lat", &mut s);
            s
        };
        assert!(rendered.contains("lat_bucket{le=\"1\"} 2"));
        assert!(rendered.contains("lat_bucket{le=\"4\"} 3"));
        assert!(rendered.contains("lat_bucket{le=\"+Inf\"} 6"));
        assert!(rendered.contains("lat_count 6"));
    }

    #[test]
    fn counters_accumulate_and_render() {
        let m = Metrics::new();
        m.committed.add(7);
        m.committed.add(3);
        m.cert_peak_nodes.record_max(5);
        m.cert_peak_nodes.record_max(2); // lower: high-water mark holds
        m.observe_latencies(&[10, 20, 30]);
        let text = m.render();
        assert!(text.contains("slp_committed_total 10"));
        assert!(text.contains("slp_cert_peak_nodes 5"));
        assert!(text.contains("slp_commit_latency_us_count 3"));
        assert!(text.contains("slp_commit_latency_us_sum 60"));
    }
}
