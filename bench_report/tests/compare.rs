//! `--compare` verdicts: better / same / worse / unresolved, the
//! failed-share rule, and the refusal of small-scale results.

use slp_bench_report::harness::compare::{compare, judge, Verdict};
use slp_bench_report::harness::json::Json;
use slp_bench_report::harness::metrics::end_to_end;
use slp_bench_report::harness::stats::Summary;

/// Five samples around `median` with an interquartile spread of `spread`
/// (as a share of the median).
fn around(median: f64, spread: f64) -> Summary {
    let half = median * spread / 2.0;
    Summary::of(&[
        median - 2.0 * half,
        median - half,
        median,
        median + half,
        median + 2.0 * half,
    ])
}

fn result_file(scale: &str, ops: Summary, failed: f64) -> Json {
    Json::obj([
        ("header", Json::obj([("scale", Json::Str(scale.into()))])),
        (
            "workloads",
            Json::obj([(
                "twopl_hot_cold",
                Json::obj([
                    ("attempted", Json::Num(1000.0)),
                    ("failed", Json::Num(failed)),
                    ("end_to_end", Json::obj([("ops_per_s", ops.to_json("1/s"))])),
                ]),
            )]),
        ),
    ])
}

#[test]
fn verdicts_follow_direction_bound_and_spread() {
    let ops = end_to_end("ops_per_s").expect("ops_per_s is end-to-end");
    let rss = end_to_end("peak_rss_mb").expect("peak_rss_mb is end-to-end");
    let base = around(1000.0, 0.02);
    // Higher is better: the candidate is judged by how far its median
    // sits from the base's, as a share of the base's, against the bound.
    let at = |shift: f64| around(1000.0 * (1.0 + shift * ops.bound), 0.02);
    assert_eq!(judge(ops, &base, &at(2.0)), Verdict::Better);
    assert_eq!(judge(ops, &base, &at(0.5)), Verdict::Same);
    assert_eq!(judge(ops, &base, &at(-0.5)), Verdict::Same);
    assert_eq!(judge(ops, &base, &at(-2.0)), Verdict::Worse);
    // A side whose own spread exceeds the bound cannot tell.
    let noisy = around(1000.0 * (1.0 - 2.0 * ops.bound), 2.0 * ops.bound);
    assert_eq!(judge(ops, &base, &noisy), Verdict::Unresolved);
    assert_eq!(judge(ops, &noisy, &base), Verdict::Unresolved);
    // Lower is better.
    let mem = Summary::single(100.0);
    let at = |shift: f64| Summary::single(100.0 * (1.0 + shift * rss.bound));
    assert_eq!(judge(rss, &mem, &at(2.0)), Verdict::Worse);
    assert_eq!(judge(rss, &mem, &at(-2.0)), Verdict::Better);
    assert_eq!(judge(rss, &mem, &at(0.5)), Verdict::Same);
}

#[test]
fn a_worse_row_or_a_failed_share_rise_regresses() {
    let bound = end_to_end("ops_per_s").expect("end-to-end").bound;
    let a = result_file("full", around(1000.0, 0.02), 0.0);
    let same = compare(&a, &result_file("full", around(990.0, 0.02), 0.0)).unwrap();
    assert!(!same.regressed());
    assert_eq!(same.rows.len(), 1);
    assert_eq!(same.rows[0].verdict, Verdict::Same);

    let slow = 1000.0 * (1.0 - 2.0 * bound);
    let worse = compare(&a, &result_file("full", around(slow, 0.02), 0.0)).unwrap();
    assert!(worse.regressed());
    assert_eq!(worse.rows[0].verdict, Verdict::Worse);

    // Faster but losing jobs is a regression.
    let fast = 1000.0 * (1.0 + 2.0 * bound);
    let lossy = compare(&a, &result_file("full", around(fast, 0.02), 3.0)).unwrap();
    assert_eq!(lossy.rows[0].verdict, Verdict::Better);
    assert_eq!(lossy.failed_rises.len(), 1);
    assert!(lossy.regressed());

    // Unresolved alone does not fail the comparison; it is reported.
    let noisy = compare(&a, &result_file("full", around(slow, 2.0 * bound), 0.0)).unwrap();
    assert_eq!(noisy.rows[0].verdict, Verdict::Unresolved);
    assert!(!noisy.regressed());
}

#[test]
fn small_scale_results_are_refused() {
    let full = result_file("full", around(1000.0, 0.02), 0.0);
    let small = result_file("small", around(1000.0, 0.02), 0.0);
    assert!(compare(&full, &small).unwrap_err().contains("small"));
    assert!(compare(&small, &full).unwrap_err().contains("small"));
    assert!(compare(&Json::Null, &full).is_err());
}
