//! The whole set in one command: every workload in a child process of
//! its own, one after another — so peak memory and allocator state are
//! per workload — collected into one result document with a header that
//! says where the numbers came from.

use super::catalog::{self, Scale, Workload};
use super::json::Json;
use super::target_dir;
use slp_runtime::WalConfig;
use std::path::{Path, PathBuf};
use std::process::Command;
use std::time::{SystemTime, UNIX_EPOCH};

/// What the whole set is run with.
#[derive(Clone, Copy, Debug)]
pub struct SuiteOptions {
    /// Seed passed to every workload.
    pub seed: u64,
    /// Measured seconds per pass.
    pub seconds: f64,
    /// Full size, or the test-only 1/100 size.
    pub scale: Scale,
}

/// The line a child prints before its result line, carrying every
/// metric's quartiles.
pub const DETAIL_PREFIX: &str = "#detail ";

fn command_line(program: &str, args: &[&str]) -> Option<String> {
    let out = Command::new(program).args(args).output().ok()?;
    out.status
        .success()
        .then(|| String::from_utf8_lossy(&out.stdout).trim().to_owned())
}

/// `YYYY-MM-DD` (UTC) of a Unix timestamp.
fn civil_date(unix_seconds: u64) -> String {
    // Days-to-civil, Howard Hinnant's algorithm.
    let z = (unix_seconds / 86_400) as i64 + 719_468;
    let era = z.div_euclid(146_097);
    let doe = z.rem_euclid(146_097);
    let yoe = (doe - doe / 1_460 + doe / 36_524 - doe / 146_096) / 365;
    let doy = doe - (365 * yoe + yoe / 4 - yoe / 100);
    let mp = (5 * doy + 2) / 153;
    let day = doy - (153 * mp + 2) / 5 + 1;
    let month = if mp < 10 { mp + 3 } else { mp - 9 };
    let year = yoe + era * 400 + i64::from(month <= 2);
    format!("{year:04}-{month:02}-{day:02}")
}

fn rust_lines(dir: &Path) -> u64 {
    let Ok(entries) = std::fs::read_dir(dir) else {
        return 0;
    };
    entries
        .flatten()
        .map(|e| {
            let path = e.path();
            if path.is_dir() {
                rust_lines(&path)
            } else if path.extension().is_some_and(|x| x == "rs") {
                std::fs::read_to_string(&path).map_or(0, |s| s.lines().count() as u64)
            } else {
                0
            }
        })
        .sum()
}

/// First-party lines of Rust per crate (`crates/*/src` and this
/// package's `src`, found from the working directory — the root of the
/// checkout).
fn loc_per_crate() -> Json {
    let mut crates: Vec<(String, Json)> = std::fs::read_dir("crates")
        .into_iter()
        .flatten()
        .flatten()
        .map(|e| e.path())
        .chain([PathBuf::from("bench_report")])
        .filter(|dir| dir.join("src").is_dir())
        .map(|dir| {
            let name = dir.file_name().unwrap_or_default().to_string_lossy();
            (
                name.into_owned(),
                Json::Num(rust_lines(&dir.join("src")) as f64),
            )
        })
        .collect();
    crates.sort_by(|a, b| a.0.cmp(&b.0));
    Json::Obj(crates)
}

/// Where and how the numbers were produced.
pub fn header(opts: &SuiteOptions) -> Json {
    let rev = command_line("git", &["rev-parse", "--short", "HEAD"]);
    let dirty = command_line("git", &["status", "--porcelain"]).map(|s| !s.is_empty());
    let now = SystemTime::now()
        .duration_since(UNIX_EPOCH)
        .map_or(0, |d| d.as_secs());
    Json::obj([
        (
            "nproc",
            Json::Num(std::thread::available_parallelism().map_or(0, |n| n.get()) as f64),
        ),
        ("workers", Json::Num(catalog::workers() as f64)),
        ("git_rev", rev.map_or(Json::Null, Json::Str)),
        ("git_dirty", dirty.map_or(Json::Null, Json::Bool)),
        (
            "rustc",
            command_line("rustc", &["-V"]).map_or(Json::Null, Json::Str),
        ),
        ("date", Json::Str(civil_date(now))),
        ("seed", Json::Num(opts.seed as f64)),
        ("seconds", Json::Num(opts.seconds)),
        ("scale", Json::Str(opts.scale.as_str().to_owned())),
        (
            "jobs_per_run",
            Json::obj(
                Workload::ALL
                    .iter()
                    .map(|w| (w.name(), Json::Num(w.jobs(opts.scale) as f64))),
            ),
        ),
        (
            "flush_policy",
            Json::Str(format!("{:?}", WalConfig::default())),
        ),
        ("loc_per_crate", loc_per_crate()),
    ])
}

/// Runs one pass of one workload in a child process of this executable
/// and returns its `#detail` document. The child's report is passed
/// through to this process's output.
fn child_pass(opts: &SuiteOptions, workload: Workload, trace: bool) -> Result<Json, String> {
    let exe = std::env::current_exe().map_err(|e| format!("no path to this executable: {e}"))?;
    let out = Command::new(exe)
        .args(["--workload", workload.name()])
        .args(["--seed", &opts.seed.to_string()])
        .args(["--seconds", &opts.seconds.to_string()])
        .args(["--trace", if trace { "1" } else { "0" }])
        .args(["--scale", opts.scale.as_str()])
        .output()
        .map_err(|e| format!("{}: child did not start: {e}", workload.name()))?;
    let stdout = String::from_utf8_lossy(&out.stdout);
    let mut detail = None;
    for line in stdout.lines() {
        match line.strip_prefix(DETAIL_PREFIX) {
            Some(doc) => detail = Some(Json::parse(doc)?),
            None => println!("{line}"),
        }
    }
    eprint!("{}", String::from_utf8_lossy(&out.stderr));
    detail.ok_or_else(|| {
        format!(
            "{}: child exited with {} and no result",
            workload.name(),
            out.status
        )
    })
}

/// Runs every workload — the untraced pass, then the traced pass — and
/// returns the result document, with whether every pass was correct.
pub fn run_suite(opts: &SuiteOptions) -> Result<(Json, bool), String> {
    let mut workloads = Vec::new();
    let mut all_correct = true;
    for w in Workload::ALL {
        let plain = child_pass(opts, w, false)?;
        let traced = child_pass(opts, w, true)?;
        let num = |doc: &Json, key: &str| doc.get(key).and_then(Json::as_f64).unwrap_or(0.0);
        let correct = [&plain, &traced]
            .iter()
            .all(|d| d.get("correct").and_then(Json::as_bool) == Some(true));
        all_correct &= correct;
        let misses: Vec<Json> = [&plain, &traced]
            .iter()
            .filter_map(|d| d.get("misses").and_then(Json::as_array))
            .flatten()
            .cloned()
            .collect();
        workloads.push((
            w.name(),
            Json::obj([
                ("why", Json::Str(w.why().to_owned())),
                ("correct", Json::Bool(correct)),
                (
                    "attempted",
                    Json::Num(num(&plain, "attempted") + num(&traced, "attempted")),
                ),
                (
                    "failed",
                    Json::Num(num(&plain, "failed") + num(&traced, "failed")),
                ),
                ("misses", Json::Arr(misses)),
                (
                    "end_to_end",
                    plain.get("metrics").cloned().unwrap_or(Json::Null),
                ),
                (
                    "per_layer",
                    traced.get("metrics").cloned().unwrap_or(Json::Null),
                ),
            ]),
        ));
    }
    let doc = Json::obj([
        ("header", header(opts)),
        ("workloads", Json::obj(workloads)),
    ]);
    Ok((doc, all_correct))
}

/// Writes `doc` to `<target>/bench/<rev>-<n>.json`, `n` the first index
/// not taken, and returns the path.
pub fn write_result(doc: &Json) -> std::io::Result<PathBuf> {
    let dir = target_dir().join("bench");
    std::fs::create_dir_all(&dir)?;
    let rev = doc
        .get("header")
        .and_then(|h| h.get("git_rev"))
        .and_then(Json::as_str)
        .unwrap_or("norev")
        .to_owned();
    let path = (0u32..)
        .map(|n| dir.join(format!("{rev}-{n}.json")))
        .find(|p| !p.exists())
        .expect("an unused index exists");
    std::fs::write(&path, format!("{doc}\n"))?;
    Ok(path)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn civil_dates() {
        assert_eq!(civil_date(0), "1970-01-01");
        assert_eq!(civil_date(951_782_400), "2000-02-29");
        assert_eq!(civil_date(1_790_294_400), "2026-09-25");
    }
}
