//! The benchmark harness behind `bench-report`.
//!
//! * [`catalog`] — the seven workloads, their frozen sizes and seeded
//!   input generation;
//! * [`metrics`] — the end-to-end and per-layer metric name lists;
//! * [`runtime_wl`] / [`verifier_wl`] — the measured passes: untraced
//!   repeats for the end-to-end metrics, a traced pass for the per-layer
//!   ones, and the correctness gate both share;
//! * [`spans`] — the in-memory span recorder of the traced pass;
//! * [`suite`] — every workload in child processes, the result file and
//!   its header;
//! * [`compare`] — `--compare` / `--selfcheck` verdicts;
//! * [`stats`], [`json`] — medians/quartiles and a small JSON value.

pub mod catalog;
pub mod compare;
pub mod json;
pub mod metrics;
pub mod runtime_wl;
pub mod spans;
pub mod stats;
pub mod suite;
pub mod verifier_wl;

use catalog::{Scale, Workload};
use json::Json;
use metrics::{MetricDef, END_TO_END, PER_LAYER};
use stats::Summary;
use std::collections::BTreeMap;
use std::path::PathBuf;

/// What one measured process is asked to do.
#[derive(Clone, Copy, Debug)]
pub struct Options {
    /// The workload to run.
    pub workload: Workload,
    /// Seed every input is generated from.
    pub seed: u64,
    /// How long the measured phase lasts.
    pub seconds: f64,
    /// `false`: untraced repeats, end-to-end metrics. `true`: the traced
    /// pass, per-layer metrics.
    pub trace: bool,
    /// Full size, or the test-only 1/100 size.
    pub scale: Scale,
}

/// Jobs submitted and jobs lost across every run of one process, with
/// what each failed check said.
#[derive(Default, Debug)]
pub struct Tally {
    /// Operations submitted (jobs; systems for the verifier).
    pub attempted: u64,
    /// Rejected + abandoned jobs, plus every job of a run that timed out
    /// or failed a correctness check.
    pub failed: u64,
    /// One line per failed check.
    pub misses: Vec<String>,
}

impl Tally {
    /// Counts one run: `jobs` submitted, `lost` of them not committed,
    /// and the run's failed checks — any of which forfeits the whole run.
    pub fn record(&mut self, what: &str, jobs: usize, lost: usize, misses: Vec<String>) {
        self.attempted += jobs as u64;
        self.failed += if misses.is_empty() { lost } else { jobs } as u64;
        self.misses
            .extend(misses.into_iter().map(|m| format!("{what}: {m}")));
    }
}

/// Samples per metric name, summarized at the end of a pass. Names are
/// checked against the metric lists so a typo cannot mint a new metric.
pub struct Samples {
    defs: &'static [MetricDef],
    values: BTreeMap<&'static str, Vec<f64>>,
}

impl Samples {
    /// An empty sample set over `defs`.
    pub fn new(defs: &'static [MetricDef]) -> Samples {
        Samples {
            defs,
            values: BTreeMap::new(),
        }
    }

    /// Adds one sample of `name`.
    pub fn push(&mut self, name: &'static str, value: f64) {
        assert!(
            self.defs.iter().any(|d| d.name == name),
            "unknown metric {name}"
        );
        self.values.entry(name).or_default().push(value);
    }

    /// The samples of `name` so far.
    pub fn get(&self, name: &str) -> &[f64] {
        self.values.get(name).map_or(&[], Vec::as_slice)
    }

    /// Every metric of the list, in list order; a metric with no sample
    /// (its layer did not run on this workload) reads 0.
    pub fn summarize(&self) -> Vec<(&'static MetricDef, Summary)> {
        self.defs
            .iter()
            .map(|d| {
                let s = match self.values.get(d.name) {
                    Some(v) => Summary::of(v),
                    None => Summary::single(0.0),
                };
                (d, s)
            })
            .collect()
    }
}

/// What one measured process found.
pub struct WorkloadResult {
    /// The workload that ran.
    pub workload: Workload,
    /// Whether this was the traced pass.
    pub trace: bool,
    /// Jobs submitted / lost and the failed checks.
    pub tally: Tally,
    /// Every metric of the pass's list, median first.
    pub metrics: Vec<(&'static MetricDef, Summary)>,
    /// Free-form findings printed above the metrics (flush policy, the
    /// share-of-wall table, the commit breakdown).
    pub notes: Vec<String>,
    /// The traced pass's spans.
    pub spans: Option<Json>,
}

impl WorkloadResult {
    /// Whether every output was correct: no failed check, no lost job,
    /// and every metric finite.
    pub fn correct(&self) -> bool {
        self.tally.misses.is_empty()
            && self.tally.failed == 0
            && self.metrics.iter().all(|(_, s)| s.median.is_finite())
    }

    /// The one-line result the driver reads: `correct`, `attempted`,
    /// `failed`, and each metric's median with its unit.
    pub fn result_line(&self) -> Json {
        Json::obj([
            ("correct", Json::Bool(self.correct())),
            ("attempted", Json::Num(self.tally.attempted.max(1) as f64)),
            ("failed", Json::Num(self.tally.failed as f64)),
            (
                "metrics",
                Json::obj(self.metrics.iter().map(|(d, s)| {
                    (
                        d.name,
                        Json::obj([
                            ("value", Json::Num(s.median)),
                            ("unit", Json::Str(d.unit.to_owned())),
                        ]),
                    )
                })),
            ),
        ])
    }

    /// The result with every metric's quartiles, for result files.
    pub fn detail(&self) -> Json {
        Json::obj([
            ("workload", Json::Str(self.workload.name().to_owned())),
            ("trace", Json::Bool(self.trace)),
            ("correct", Json::Bool(self.correct())),
            ("attempted", Json::Num(self.tally.attempted as f64)),
            ("failed", Json::Num(self.tally.failed as f64)),
            (
                "misses",
                Json::Arr(self.tally.misses.iter().cloned().map(Json::Str).collect()),
            ),
            (
                "metrics",
                Json::obj(
                    self.metrics
                        .iter()
                        .map(|(d, s)| (d.name, s.to_json(d.unit))),
                ),
            ),
        ])
    }

    /// Prints every metric by name with its unit and spread.
    pub fn print(&self) {
        println!(
            "== {} ({}) ==",
            self.workload.name(),
            if self.trace {
                "traced pass, per-layer metrics"
            } else {
                "untraced repeats, end-to-end metrics"
            }
        );
        for note in &self.notes {
            println!("{note}");
        }
        for (d, s) in &self.metrics {
            println!(
                "{:<38} {:>16.6} {:<6} (min {:.6}, q1 {:.6}, q3 {:.6}, n {})",
                d.name, s.median, d.unit, s.min, s.q1, s.q3, s.n
            );
        }
        let share = self.tally.failed as f64 / self.tally.attempted.max(1) as f64;
        println!(
            "failed_share                           {share:>16.6} ratio  ({} of {} submitted)",
            self.tally.failed, self.tally.attempted
        );
        for miss in &self.tally.misses {
            println!("MISS {miss}");
        }
    }
}

/// Runs the pass `opts` describes.
pub fn run_workload(opts: &Options) -> WorkloadResult {
    match (opts.workload, opts.trace) {
        (Workload::VerifierSweep, false) => verifier_wl::end_to_end(opts),
        (Workload::VerifierSweep, true) => verifier_wl::traced(opts),
        (_, false) => runtime_wl::end_to_end(opts),
        (_, true) => runtime_wl::traced(opts),
    }
}

/// The metric list a pass prints.
pub fn metric_list(trace: bool) -> &'static [MetricDef] {
    if trace {
        PER_LAYER
    } else {
        END_TO_END
    }
}

/// The build's target directory, found from the running executable
/// (`<target>/release/bench-report`, `<target>/debug/deps/<test>`): the
/// one place the benchmark writes — scratch stores, spans, result files —
/// so it stays inside the checkout and inside what `.gitignore` names.
pub fn target_dir() -> PathBuf {
    let exe = std::env::current_exe().expect("the running executable has a path");
    exe.ancestors()
        .find(|a| {
            a.file_name()
                .is_some_and(|n| n == "release" || n == "debug")
        })
        .and_then(|profile| profile.parent())
        .unwrap_or_else(|| exe.parent().expect("an executable lives in a directory"))
        .to_path_buf()
}

/// Resets this process's resident-set high-water mark to its current
/// size (`/proc/self/clear_refs`, Linux 4.0+), so the next
/// [`peak_rss_mb`] reads the peak of what ran in between. Where the
/// kernel refuses, later readings are the peak since the process began.
pub fn reset_peak_rss() {
    let _ = std::fs::write("/proc/self/clear_refs", "5");
}

/// This process's peak resident set (`VmHWM`) since the last
/// [`reset_peak_rss`], in MiB; 0 where `/proc` does not say.
pub fn peak_rss_mb() -> f64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|status| {
            let line = status.lines().find(|l| l.starts_with("VmHWM:"))?;
            line.split_whitespace().nth(1)?.parse::<f64>().ok()
        })
        .map_or(0.0, |kib| kib / 1024.0)
}
