//! `bench-report`: run one workload pass (the driver's contract), the
//! whole set (`--all`), a comparison of two result files (`--compare`),
//! or the set twice against itself (`--selfcheck`).

use slp_bench_report::harness::catalog::{Scale, Workload};
use slp_bench_report::harness::compare::compare;
use slp_bench_report::harness::json::Json;
use slp_bench_report::harness::suite::{run_suite, write_result, SuiteOptions, DETAIL_PREFIX};
use slp_bench_report::harness::{run_workload, target_dir, Options};
use std::process::ExitCode;

const USAGE: &str = "\
usage: bench-report --workload <name> [--seed N] [--seconds S] [--trace 0|1] [--scale full|small]
       bench-report --all [--seed N] [--seconds S] [--scale full|small]
       bench-report --selfcheck [--seed N] [--seconds S]
       bench-report --compare <a.json> <b.json>
       bench-report --list";

enum Mode {
    One(Workload),
    All,
    SelfCheck,
    Compare(String, String),
    List,
}

struct Args {
    seed: u64,
    seconds: f64,
    trace: bool,
    scale: Scale,
}

fn parse_args() -> Result<(Mode, Args), String> {
    let mut args = Args {
        seed: 42,
        seconds: 10.0,
        trace: false,
        scale: Scale::Full,
    };
    let mut mode = None;
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        let mut value = |what: &str| it.next().ok_or_else(|| format!("{flag} needs {what}"));
        match flag.as_str() {
            "--workload" => {
                let name = value("a workload name")?;
                let w = Workload::from_name(&name)
                    .ok_or_else(|| format!("unknown workload `{name}` (see --list)"))?;
                mode = Some(Mode::One(w));
            }
            "--seed" => {
                args.seed = value("a number")?
                    .parse()
                    .map_err(|_| "--seed takes a whole number".to_owned())?;
            }
            "--seconds" => {
                args.seconds = value("a number")?
                    .parse()
                    .ok()
                    .filter(|s: &f64| s.is_finite() && *s >= 0.0 && *s <= 600.0)
                    .ok_or_else(|| "--seconds takes a number from 0 to 600".to_owned())?;
            }
            "--trace" => {
                args.trace = match value("0 or 1")?.as_str() {
                    "0" => false,
                    "1" => true,
                    other => return Err(format!("--trace takes 0 or 1, not `{other}`")),
                };
            }
            "--scale" => {
                args.scale = match value("full or small")?.as_str() {
                    "full" => Scale::Full,
                    "small" => Scale::Small,
                    other => return Err(format!("--scale takes full or small, not `{other}`")),
                };
            }
            "--all" => mode = Some(Mode::All),
            "--selfcheck" => mode = Some(Mode::SelfCheck),
            "--list" => mode = Some(Mode::List),
            "--compare" => {
                let a = value("two result files")?;
                let b = value("two result files")?;
                mode = Some(Mode::Compare(a, b));
            }
            other => return Err(format!("unknown argument `{other}`")),
        }
    }
    Ok((mode.ok_or_else(|| "nothing to do".to_owned())?, args))
}

/// One pass of one workload: every metric by name with its unit, the
/// spans (traced pass), the quartiles line, and — last — the result line.
fn one(workload: Workload, args: &Args) -> ExitCode {
    let result = run_workload(&Options {
        workload,
        seed: args.seed,
        seconds: args.seconds,
        trace: args.trace,
        scale: args.scale,
    });
    result.print();
    if let Some(spans) = &result.spans {
        let dir = target_dir().join("bench");
        let path = dir.join(format!("spans-{}.json", workload.name()));
        match std::fs::create_dir_all(&dir)
            .and_then(|()| std::fs::write(&path, format!("{spans}\n")))
        {
            Ok(()) => println!("spans written to {}", path.display()),
            Err(e) => eprintln!("spans not written to {}: {e}", path.display()),
        }
    }
    println!("{DETAIL_PREFIX}{}", result.detail());
    println!("{}", result.result_line());
    if result.correct() {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}

fn suite(args: &Args) -> Result<(Json, bool), String> {
    let opts = SuiteOptions {
        seed: args.seed,
        seconds: args.seconds,
        scale: args.scale,
    };
    let (doc, correct) = run_suite(&opts)?;
    let path = write_result(&doc).map_err(|e| format!("result file not written: {e}"))?;
    println!("result file: {}", path.display());
    Ok((doc, correct))
}

fn load(path: &str) -> Result<Json, String> {
    let text = std::fs::read_to_string(path).map_err(|e| format!("{path}: {e}"))?;
    Json::parse(&text).map_err(|e| format!("{path}: {e}"))
}

fn judge(a: &Json, b: &Json) -> Result<ExitCode, String> {
    let comparison = compare(a, b)?;
    comparison.print();
    Ok(if comparison.regressed() {
        ExitCode::FAILURE
    } else {
        ExitCode::SUCCESS
    })
}

fn run(mode: &Mode, args: &Args) -> Result<ExitCode, String> {
    match mode {
        Mode::One(w) => Ok(one(*w, args)),
        Mode::All => {
            let (_, correct) = suite(args)?;
            Ok(if correct {
                ExitCode::SUCCESS
            } else {
                ExitCode::FAILURE
            })
        }
        Mode::SelfCheck => {
            let (a, correct_a) = suite(args)?;
            let (b, correct_b) = suite(args)?;
            let verdict = judge(&a, &b)?;
            Ok(if correct_a && correct_b {
                verdict
            } else {
                ExitCode::FAILURE
            })
        }
        Mode::Compare(a, b) => judge(&load(a)?, &load(b)?),
        Mode::List => {
            for w in Workload::ALL {
                println!("{:<24} {}", w.name(), w.why());
            }
            Ok(ExitCode::SUCCESS)
        }
    }
}

fn main() -> ExitCode {
    let (mode, args) = match parse_args() {
        Ok(parsed) => parsed,
        Err(e) => {
            eprintln!("bench-report: {e}\n{USAGE}");
            return ExitCode::from(2);
        }
    };
    match run(&mode, &args) {
        Ok(code) => code,
        Err(e) => {
            eprintln!("bench-report: {e}");
            ExitCode::FAILURE
        }
    }
}
