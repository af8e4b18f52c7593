//! `BENCHMARK.json` at the repo root and the binary agree on every name,
//! unit, direction and bound, and the file stays inside the driver's
//! contract.

use slp_bench_report::harness::catalog::Workload;
use slp_bench_report::harness::json::Json;
use slp_bench_report::harness::metrics::{MetricDef, END_TO_END, PER_LAYER};

fn benchmark_json() -> Json {
    let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
    let text = std::fs::read_to_string(path).expect("BENCHMARK.json sits at the repo root");
    assert!(text.len() <= 64 * 1024, "BENCHMARK.json is over 64 KiB");
    Json::parse(&text).expect("BENCHMARK.json parses")
}

fn keys(j: &Json) -> Vec<&str> {
    j.members()
        .expect("an object")
        .iter()
        .map(|(k, _)| k.as_str())
        .collect()
}

fn text<'a>(j: &'a Json, key: &str) -> &'a str {
    j.get(key)
        .and_then(Json::as_str)
        .unwrap_or_else(|| panic!("no string `{key}` in {j}"))
}

fn check_metrics(listed: &Json, defs: &[MetricDef], with_bound: bool) {
    let listed = listed.as_array().expect("a list of metrics");
    assert_eq!(listed.len(), defs.len());
    for (entry, def) in listed.iter().zip(defs) {
        let expected_keys: &[&str] = if with_bound {
            &["name", "unit", "better", "bound"]
        } else {
            &["name", "unit", "better"]
        };
        assert_eq!(keys(entry), expected_keys, "{}", def.name);
        assert_eq!(text(entry, "name"), def.name);
        assert_eq!(text(entry, "unit"), def.unit, "{}", def.name);
        assert_eq!(text(entry, "better"), def.better.as_str(), "{}", def.name);
        assert!(def.name.len() <= 64 && def.unit.len() <= 16, "{}", def.name);
        if with_bound {
            let bound = entry.get("bound").and_then(Json::as_f64).expect("a bound");
            assert_eq!(bound, def.bound, "{}", def.name);
            assert!(bound > 0.0 && bound <= 0.25, "{}", def.name);
        }
    }
}

#[test]
fn benchmark_json_and_the_binary_agree() {
    let doc = benchmark_json();
    assert_eq!(
        keys(&doc),
        [
            "command",
            "paths",
            "run_seconds",
            "workloads",
            "end_to_end",
            "per_layer"
        ]
    );
    let workloads = doc.get("workloads").and_then(Json::as_array).unwrap();
    assert_eq!(workloads.len(), Workload::ALL.len());
    for (entry, w) in workloads.iter().zip(Workload::ALL) {
        assert_eq!(keys(entry), ["name", "why"]);
        assert_eq!(text(entry, "name"), w.name());
        assert_eq!(text(entry, "why"), w.why());
        assert!(
            w.why().len() <= 200 && !w.why().contains('\n'),
            "{}",
            w.name()
        );
    }
    check_metrics(doc.get("end_to_end").unwrap(), END_TO_END, true);
    check_metrics(doc.get("per_layer").unwrap(), PER_LAYER, false);
    assert!(END_TO_END
        .iter()
        .any(|m| m.name == "setup_s" && m.unit == "s"));
    assert!(PER_LAYER.len() <= 128);

    // Names are used once across workloads and metrics.
    let mut names: Vec<&str> = Workload::ALL.iter().map(|w| w.name()).collect();
    names.extend(END_TO_END.iter().chain(PER_LAYER).map(|m| m.name));
    let total = names.len();
    names.sort_unstable();
    names.dedup();
    assert_eq!(names.len(), total, "a name is used twice");
}

#[test]
fn the_command_stays_inside_the_benchmarks_paths() {
    let doc = benchmark_json();
    let paths: Vec<&str> = doc
        .get("paths")
        .and_then(Json::as_array)
        .unwrap()
        .iter()
        .map(|p| p.as_str().unwrap())
        .collect();
    assert_eq!(paths, ["bench_report"]);
    let command = doc.get("command").and_then(Json::as_array).unwrap();
    assert!(command.len() <= 32);
    for arg in command {
        let arg = arg.as_str().unwrap();
        assert!(
            arg.len() <= 200 && !arg.starts_with('/') && !arg.contains(".."),
            "{arg}"
        );
        if arg.contains('/') {
            assert!(
                arg.starts_with("bench_report/"),
                "{arg} is outside the paths"
            );
        }
    }
    let seconds = doc.get("run_seconds").and_then(Json::as_f64).unwrap();
    assert!((1.0..=60.0).contains(&seconds) && seconds.fract() == 0.0);
}
