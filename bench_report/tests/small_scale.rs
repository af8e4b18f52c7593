//! A 1/100-scale pass over all seven workloads: every metric the
//! benchmark names is emitted, finite and plainly spelled, and every
//! correctness check holds.

use slp_bench_report::harness::catalog::{Scale, Workload};
use slp_bench_report::harness::json::Json;
use slp_bench_report::harness::{metric_list, run_workload, Options};

fn plainly_spelled(name: &str) -> bool {
    !name.is_empty()
        && name
            .chars()
            .all(|c| c.is_ascii_alphanumeric() || matches!(c, '_' | '.' | '-'))
}

#[test]
fn every_workload_emits_every_metric_at_small_scale() {
    for workload in Workload::ALL {
        for trace in [false, true] {
            let result = run_workload(&Options {
                workload,
                seed: 7,
                seconds: 0.05,
                trace,
                scale: Scale::Small,
            });
            let pass = format!("{} trace {trace}", workload.name());
            assert!(
                result.correct(),
                "{pass}: {:?} ({} of {} failed)",
                result.tally.misses,
                result.tally.failed,
                result.tally.attempted
            );
            assert!(result.tally.attempted >= 1, "{pass}: nothing attempted");
            let emitted: Vec<&str> = result.metrics.iter().map(|(d, _)| d.name).collect();
            let expected: Vec<&str> = metric_list(trace).iter().map(|d| d.name).collect();
            assert_eq!(emitted, expected, "{pass}");
            for (def, summary) in &result.metrics {
                assert!(plainly_spelled(def.name), "{pass}: {}", def.name);
                assert!(
                    summary.median.is_finite() && summary.q1.is_finite() && summary.q3.is_finite(),
                    "{pass}: {} is not finite",
                    def.name
                );
                if !trace {
                    assert!(summary.median > 0.0, "{pass}: {} must never be 0", def.name);
                }
            }
            // The result line parses back and carries exactly the keys
            // the driver reads.
            let line = Json::parse(&result.result_line().to_string()).expect("result line parses");
            let keys: Vec<&str> = line
                .members()
                .expect("an object")
                .iter()
                .map(|(k, _)| k.as_str())
                .collect();
            assert_eq!(
                keys,
                ["correct", "attempted", "failed", "metrics"],
                "{pass}"
            );
            assert_eq!(
                line.get("metrics").and_then(Json::members).map(<[_]>::len),
                Some(expected.len()),
                "{pass}"
            );
            assert_eq!(result.spans.is_some(), trace, "{pass}");
        }
    }
}

#[test]
fn the_designed_separations_hold() {
    let layers = |workload| {
        let result = run_workload(&Options {
            workload,
            seed: 11,
            seconds: 0.05,
            trace: true,
            scale: Scale::Small,
        });
        assert!(result.correct(), "{:?}", result.tally.misses);
        move |name: &str| {
            result
                .metrics
                .iter()
                .find(|(d, _)| d.name == name)
                .map(|(_, s)| s.median)
                .unwrap_or_else(|| panic!("no metric {name}"))
        }
    };
    let hot = layers(Workload::TwoplHotCold);
    assert_eq!(hot("runtime.fast_path_share"), 1.0);
    assert_eq!(hot("durability.records_per_job"), 0.0);
    assert_eq!(hot("core.cert_truncations"), 0.0);
    assert_eq!(hot("mvcc.snapshot_reads_per_job"), 0.0);
    let ddag = layers(Workload::DdagChurn);
    assert_eq!(ddag("runtime.fast_path_share"), 0.0);
    assert_eq!(ddag("mvcc.snapshot_reads_per_job"), 0.0);
    let reads = layers(Workload::ReadMostlySnapshot);
    assert!(reads("mvcc.snapshot_reads_per_job") > 0.0);
    assert_eq!(reads("durability.records_per_job"), 0.0);
    let durable = layers(Workload::TwoplDurable);
    assert!(durable("durability.records_per_job") > 0.0);
    assert!(durable("durability.recover_s") > 0.0);
    assert_eq!(durable("core.cert_truncations"), 0.0);
    let storm = layers(Workload::TwoplCertifiedStorm);
    assert!(storm("core.cert_truncations") > 0.0);
    assert_eq!(storm("durability.records_per_job"), 0.0);
}
