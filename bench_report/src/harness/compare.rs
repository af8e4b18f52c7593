//! `--compare a.json b.json`: per workload × end-to-end metric, both
//! medians, the ratio with its base, each side's quartile spread, and a
//! verdict. `--selfcheck` applies the same rule to two sets of runs of
//! one commit.

use super::catalog::{Scale, Workload};
use super::json::Json;
use super::metrics::{Better, MetricDef, END_TO_END};
use super::stats::Summary;

/// How side `b` of a comparison stands against side `a`.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum Verdict {
    /// `b` is better than `a` by more than the bound.
    Better,
    /// The medians are within the bound of each other.
    Same,
    /// `b` is worse than `a` by more than the bound.
    Worse,
    /// A side's own quartile spread exceeds the bound: the runs cannot
    /// tell.
    Unresolved,
}

impl Verdict {
    /// The spelling in the report.
    pub fn as_str(self) -> &'static str {
        match self {
            Verdict::Better => "better",
            Verdict::Same => "same",
            Verdict::Worse => "worse",
            Verdict::Unresolved => "unresolved",
        }
    }
}

/// Judges one metric: `a` is the base, `b` the candidate.
pub fn judge(def: &MetricDef, a: &Summary, b: &Summary) -> Verdict {
    if a.spread() > def.bound || b.spread() > def.bound {
        return Verdict::Unresolved;
    }
    // How much worse `b` is, as a share of the base's median.
    let worse_by = match def.better {
        Better::Higher => (a.median - b.median) / a.median,
        Better::Lower => (b.median - a.median) / a.median,
    };
    if worse_by > def.bound {
        Verdict::Worse
    } else if worse_by < -def.bound {
        Verdict::Better
    } else {
        Verdict::Same
    }
}

/// One workload × metric row of a comparison.
#[derive(Clone, Debug)]
pub struct Row {
    /// The workload.
    pub workload: &'static str,
    /// The end-to-end metric.
    pub metric: &'static MetricDef,
    /// The base side.
    pub a: Summary,
    /// The candidate side.
    pub b: Summary,
    /// The verdict on `b`.
    pub verdict: Verdict,
}

/// A whole comparison.
#[derive(Clone, Debug, Default)]
pub struct Comparison {
    /// One row per workload × end-to-end metric present on both sides.
    pub rows: Vec<Row>,
    /// Workloads whose failed share rose from `a` to `b`.
    pub failed_rises: Vec<String>,
}

impl Comparison {
    /// Whether the comparison must exit non-zero: a `worse` row or a
    /// rise in `failed_share`.
    pub fn regressed(&self) -> bool {
        !self.failed_rises.is_empty() || self.rows.iter().any(|r| r.verdict == Verdict::Worse)
    }

    /// Prints one line per row.
    pub fn print(&self) {
        println!(
            "{:<24} {:<12} {:>14} {:>14} {:>9} {:>8} {:>8}  verdict",
            "workload", "metric", "a (base)", "b", "b/a", "spread a", "spread b"
        );
        for r in &self.rows {
            println!(
                "{:<24} {:<12} {:>14.4} {:>14.4} {:>9.4} {:>7.1}% {:>7.1}%  {} ({} is better, bound {:.0}%)",
                r.workload,
                r.metric.name,
                r.a.median,
                r.b.median,
                r.b.median / r.a.median,
                100.0 * r.a.spread(),
                100.0 * r.b.spread(),
                r.verdict.as_str(),
                r.metric.better.as_str(),
                100.0 * r.metric.bound,
            );
        }
        for rise in &self.failed_rises {
            println!("failed_share rose: {rise}");
        }
    }
}

fn failed_share(workload: &Json) -> Option<f64> {
    let attempted = workload.get("attempted")?.as_f64()?;
    Some(workload.get("failed")?.as_f64()? / attempted.max(1.0))
}

/// Compares two result files' documents. Refuses results stamped with
/// the test-only small scale: their sizes are not the frozen ones.
pub fn compare(a: &Json, b: &Json) -> Result<Comparison, String> {
    for (side, doc) in [("a", a), ("b", b)] {
        let scale = doc
            .get("header")
            .and_then(|h| h.get("scale"))
            .and_then(Json::as_str)
            .ok_or_else(|| format!("side {side} has no header.scale: not a result file"))?;
        if scale != Scale::Full.as_str() {
            return Err(format!(
                "side {side} is stamped scale `{scale}`: only full-scale results compare"
            ));
        }
    }
    let mut out = Comparison::default();
    for w in Workload::ALL {
        let side = |doc: &Json| {
            doc.get("workloads")
                .and_then(|ws| ws.get(w.name()))
                .cloned()
        };
        let (Some(wa), Some(wb)) = (side(a), side(b)) else {
            continue;
        };
        if let (Some(fa), Some(fb)) = (failed_share(&wa), failed_share(&wb)) {
            if fb > fa {
                out.failed_rises
                    .push(format!("{}: {fa:.6} -> {fb:.6}", w.name()));
            }
        }
        for def in END_TO_END {
            let metric = |w: &Json| {
                w.get("end_to_end")
                    .and_then(|m| m.get(def.name))
                    .and_then(Summary::from_json)
            };
            if let (Some(sa), Some(sb)) = (metric(&wa), metric(&wb)) {
                out.rows.push(Row {
                    workload: w.name(),
                    metric: def,
                    a: sa,
                    b: sb,
                    verdict: judge(def, &sa, &sb),
                });
            }
        }
    }
    if out.rows.is_empty() {
        return Err("the two files share no workload × end-to-end metric".into());
    }
    Ok(out)
}
