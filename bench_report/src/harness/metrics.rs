//! The metric and workload name lists. `BENCHMARK.json` at the repo root
//! repeats them for the driver; `tests/names.rs` holds the two in step.
//! What each metric means, where it is read and which end-to-end metric it
//! should move is in this package's `README.md`.

/// Which way a metric is better.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum Better {
    /// A larger value is better.
    Higher,
    /// A smaller value is better.
    Lower,
}

impl Better {
    /// The spelling `BENCHMARK.json` uses.
    pub fn as_str(self) -> &'static str {
        match self {
            Better::Higher => "higher",
            Better::Lower => "lower",
        }
    }
}

/// One metric's name, unit and direction.
#[derive(Clone, Copy, Debug)]
pub struct MetricDef {
    /// The metric's name (`[A-Za-z0-9_.-]` only).
    pub name: &'static str,
    /// Its unit.
    pub unit: &'static str,
    /// Which way is better.
    pub better: Better,
    /// End-to-end metrics: the share of the baseline's median by which
    /// the metric may worsen before it is a regression. 0 for per-layer
    /// metrics, which carry no bound.
    pub bound: f64,
}

const fn e2e(name: &'static str, unit: &'static str, better: Better, bound: f64) -> MetricDef {
    MetricDef {
        name,
        unit,
        better,
        bound,
    }
}

const fn layer(name: &'static str, unit: &'static str, better: Better) -> MetricDef {
    e2e(name, unit, better, 0.0)
}

/// What a user of the system sees; printed by every workload with
/// `--trace 0`.
pub const END_TO_END: &[MetricDef] = &[
    e2e("ops_per_s", "1/s", Better::Higher, 0.25),
    e2e("peak_rss_mb", "MiB", Better::Lower, 0.25),
    e2e("setup_s", "s", Better::Lower, 0.25),
];

use Better::{Higher, Lower};

/// Single-layer metrics; printed by every workload with `--trace 1`, 0
/// where a layer does not run.
pub const PER_LAYER: &[MetricDef] = &[
    layer("sim.gen_s", "s", Lower),
    layer("sim.steps_per_job", "count", Lower),
    layer("policies.build_s", "s", Lower),
    layer("policies.sim_jobs_per_s", "1/s", Higher),
    layer("runtime.run_s", "s", Lower),
    layer("runtime.report_tail_s", "s", Lower),
    layer("runtime.commit_p50_us", "us", Lower),
    layer("runtime.commit_p99_us", "us", Lower),
    layer("runtime.grants_per_job", "count", Lower),
    layer("runtime.fast_path_share", "ratio", Higher),
    layer("runtime.fast_path_fallbacks", "count", Lower),
    layer("runtime.lock_waits_per_kjob", "count", Lower),
    layer("runtime.parks_per_kjob", "count", Lower),
    layer("runtime.park_timeouts", "count", Lower),
    layer("runtime.deadlock_aborts_per_kjob", "count", Lower),
    layer("runtime.policy_aborts_per_kjob", "count", Lower),
    layer("runtime.attempts_per_commit", "ratio", Lower),
    layer("runtime.w1_jobs_per_s", "1/s", Higher),
    layer("runtime.scaling", "ratio", Higher),
    layer("runtime.engine_path_jobs_per_s", "1/s", Higher),
    layer("runtime.waves_jobs_per_s", "1/s", Higher),
    layer("runtime.deterministic_jobs_per_s", "1/s", Higher),
    layer("durability.records_per_job", "count", Lower),
    layer("durability.bytes_per_job", "count", Lower),
    layer("durability.syncs_per_kjob", "count", Lower),
    layer("durability.segments", "count", Lower),
    layer("durability.checkpoints", "count", Lower),
    layer("durability.append_replay_s", "s", Lower),
    layer("durability.dir_store_jobs_per_s", "1/s", Higher),
    layer("durability.recover_s", "s", Lower),
    layer("durability.recover_steps_per_s", "1/s", Higher),
    layer("core.certify_feed_s", "s", Lower),
    layer("core.cert_edges_per_step", "ratio", Lower),
    layer("core.cert_peak_nodes", "count", Lower),
    layer("core.cert_truncations", "count", Higher),
    layer("core.certification_aborts", "count", Lower),
    layer("core.offline_replay_s", "s", Lower),
    layer("mvcc.snapshot_reads_per_job", "count", Higher),
    layer("mvcc.lock_grants_per_job", "count", Lower),
    layer("mvcc.read_slice_jobs_per_s", "1/s", Higher),
    layer("mvcc.locked_read_slice_jobs_per_s", "1/s", Higher),
    layer("mvcc.writer_slice_jobs_per_s", "1/s", Higher),
    layer("mvcc.writer_slice_nosnap_jobs_per_s", "1/s", Higher),
    layer("verifier.states", "count", Lower),
    layer("verifier.memo_hit_share", "ratio", Higher),
    layer("verifier.undo_ops", "count", Lower),
    layer("verifier.seq_s", "s", Lower),
    layer("verifier.par_s", "s", Lower),
    layer("verifier.par_over_seq", "ratio", Lower),
    layer("verifier.verify_p99_us", "us", Lower),
    layer("commit.grant_share", "ratio", Lower),
    layer("commit.wal_share", "ratio", Lower),
    layer("commit.certify_share", "ratio", Lower),
    layer("trace.overhead_share", "ratio", Lower),
    layer("trace.span_coverage", "ratio", Higher),
];

/// The end-to-end metric named `name`.
pub fn end_to_end(name: &str) -> Option<&'static MetricDef> {
    END_TO_END.iter().find(|m| m.name == name)
}
