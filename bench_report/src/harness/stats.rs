//! Order statistics over the repeats of one metric.

use super::json::Json;

/// What a metric's repeats looked like: the median is the reported value,
/// the quartiles give `--compare` its spread.
#[derive(Clone, Copy, PartialEq, Debug)]
pub struct Summary {
    /// Samples summarized.
    pub n: usize,
    /// Smallest sample.
    pub min: f64,
    /// First quartile.
    pub q1: f64,
    /// Median — the value the benchmark reports.
    pub median: f64,
    /// Third quartile.
    pub q3: f64,
    /// Largest sample.
    pub max: f64,
}

impl Summary {
    /// A metric measured once (a count, a peak): every statistic is `v`.
    pub fn single(v: f64) -> Summary {
        Summary::of(&[v])
    }

    /// Summarizes `values` (at least one). Quartiles follow Python's
    /// `statistics.quantiles(values, n=4)` (the exclusive method), the
    /// rule the acceptance check uses, so a spread computed here matches
    /// one computed from the printed values — except that with two
    /// samples, where that method extrapolates past them, the quartiles
    /// stay within the samples.
    pub fn of(values: &[f64]) -> Summary {
        assert!(!values.is_empty(), "a summary needs at least one sample");
        let mut v = values.to_vec();
        v.sort_by(f64::total_cmp);
        let m = v.len();
        let quartile = |i: usize| {
            if m == 1 {
                return v[0];
            }
            let j = (i * (m + 1) / 4).clamp(1, m - 1);
            let delta = (i * (m + 1)) as f64 - (j * 4) as f64;
            ((v[j - 1] * (4.0 - delta) + v[j] * delta) / 4.0).clamp(v[0], v[m - 1])
        };
        Summary {
            n: m,
            min: v[0],
            q1: quartile(1),
            median: quartile(2),
            q3: quartile(3),
            max: v[m - 1],
        }
    }

    /// The interquartile distance as a share of the median (0 when the
    /// median is 0).
    pub fn spread(&self) -> f64 {
        if self.median == 0.0 {
            0.0
        } else {
            (self.q3 - self.q1).abs() / self.median.abs()
        }
    }

    /// The summary as a JSON object (result files, `#detail` lines).
    pub fn to_json(&self, unit: &str) -> Json {
        Json::obj([
            ("n", Json::Num(self.n as f64)),
            ("min", Json::Num(self.min)),
            ("q1", Json::Num(self.q1)),
            ("median", Json::Num(self.median)),
            ("q3", Json::Num(self.q3)),
            ("max", Json::Num(self.max)),
            ("unit", Json::Str(unit.to_owned())),
        ])
    }

    /// Reads back what [`to_json`](Summary::to_json) wrote.
    pub fn from_json(j: &Json) -> Option<Summary> {
        Some(Summary {
            n: j.get("n")?.as_f64()? as usize,
            min: j.get("min")?.as_f64()?,
            q1: j.get("q1")?.as_f64()?,
            median: j.get("median")?.as_f64()?,
            q3: j.get("q3")?.as_f64()?,
            max: j.get("max")?.as_f64()?,
        })
    }
}

/// The median of `values` (0 for none): counters reported once per run.
pub fn median(values: &[f64]) -> f64 {
    if values.is_empty() {
        0.0
    } else {
        Summary::of(values).median
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn quartiles_match_python_exclusive_method() {
        // statistics.quantiles([1..=10], n=4) == [2.75, 5.5, 8.25]
        let v: Vec<f64> = (1..=10).map(f64::from).collect();
        let s = Summary::of(&v);
        assert_eq!((s.q1, s.median, s.q3), (2.75, 5.5, 8.25));
        // statistics.quantiles([3, 1, 2], n=4) == [1.0, 2.0, 3.0]
        let s = Summary::of(&[3.0, 1.0, 2.0]);
        assert_eq!((s.q1, s.median, s.q3), (1.0, 2.0, 3.0));
        // statistics.quantiles([1, 2], n=4) == [0.75, 1.5, 2.25], kept
        // within the samples.
        let s = Summary::of(&[1.0, 2.0]);
        assert_eq!((s.q1, s.median, s.q3), (1.0, 1.5, 2.0));
        assert_eq!(Summary::single(4.0).spread(), 0.0);
    }
}
