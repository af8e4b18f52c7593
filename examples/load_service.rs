//! Open-loop load generator for the transaction runtime: a scenario
//! catalog that drives `slp-runtime` at volume with the online
//! serializability certifier enabled, then prints the lock-free
//! [`Metrics`](safe_locking::runtime::Metrics) snapshot.
//!
//! Scenarios:
//!
//! * **hot-key storm** — 2PL over a hot/cold mix with a tiny hot set:
//!   most jobs collide, stressing queues, parks, and wakes;
//! * **long-lived transactions** — the altruistic policy's home turf: one
//!   long scan amid a crowd of short jobs (the \[SGMS94\] workload);
//! * **structural churn** — the DDAG policy over a growing DAG: fresh
//!   nodes interned and inserted concurrently with deep traversals;
//! * **read-heavy** — MVCC snapshot reads on: 90% of the jobs are
//!   read-only and execute against versioned snapshots without touching
//!   the lock service, while the writer minority runs locked 2PL;
//! * **wave-scheduled storm** — the hot-key storm admitted through the
//!   conflict-DAG batch scheduler (waves mode), plus a deterministic-mode
//!   double run that must produce byte-identical schedules;
//! * **mutant probe** — a negative control: `AltruisticNoWake` (a policy
//!   with its safety rule ablated) runs under strict certification until
//!   the certifier catches a serialization-graph cycle and recovers by
//!   aborting the transaction that closed it. Offline, the raw schedule
//!   must replay nonserializable and the committed projection (the
//!   aborted transactions' steps removed) serializable.
//!
//! Every scenario runs with strict online certification. Safe scenarios
//! must certify with **zero** violations and balanced accounting; the
//! probe must be *caught* and recover. Any miss exits
//! nonzero, so the generator doubles as a CI smoke check.
//!
//! Run with: `cargo run --release --example load_service -- --smoke`
//! (10 000 jobs per scenario) or `-- --jobs N` for a custom volume.

use safe_locking::core::{is_serializable, EntityId, Schedule};
use safe_locking::policies::{PolicyConfig, PolicyKind};
use safe_locking::runtime::{CertifyMode, Runtime, RuntimeConfig, RuntimeReport, SchedMode};
use safe_locking::sim::{
    dag_mixed_jobs, hot_cold_jobs, layered_dag, long_short_jobs, read_heavy_jobs,
};

/// Jobs per safe scenario without flags (quick local run).
const DEFAULT_JOBS: usize = 2_000;
/// Jobs per safe scenario under `--smoke` (the CI configuration).
const SMOKE_JOBS: usize = 10_000;

/// A throughput-oriented config with strict online certification: no
/// per-step yield (the generator measures volume, not interleaving
/// diversity).
fn load_config(workers: usize) -> RuntimeConfig {
    RuntimeConfig {
        step_yield: false,
        certify_online: CertifyMode::Strict,
        max_wall: std::time::Duration::from_secs(120),
        ..RuntimeConfig::with_workers(workers)
    }
}

/// Checks a safe scenario's run: balanced accounting, no lost jobs, and
/// a clean online certification verdict. Returns `false` (and says why)
/// on any miss — no offline replay here, because at load-generator
/// volume the quadratic replay would dwarf the run itself; the online
/// certifier *is* the serializability check.
fn check_safe(report: &RuntimeReport, jobs: usize, name: &str) -> bool {
    let mut ok = true;
    if report.timed_out {
        eprintln!("  {name}: FAILED — run hit the wall-clock guard");
        ok = false;
    }
    if !report.accounting_balances() {
        eprintln!(
            "  {name}: FAILED — attempts ({}) do not balance the outcomes",
            report.attempts
        );
        ok = false;
    }
    if report.committed + report.rejected != jobs {
        eprintln!(
            "  {name}: FAILED — lost jobs ({} committed + {} rejected != {jobs})",
            report.committed, report.rejected
        );
        ok = false;
    }
    match report.certified_serializable() {
        Some(true) => {}
        Some(false) => {
            let c = report
                .certification
                .as_ref()
                .expect("verdict implies certification");
            eprintln!(
                "  {name}: FAILED — online certifier latched a cycle: {:?}",
                c.violation
            );
            ok = false;
        }
        None => {
            eprintln!("  {name}: FAILED — run did not certify online");
            ok = false;
        }
    }
    ok
}

fn describe(report: &RuntimeReport, name: &str) {
    println!(
        "  {name}: {} committed, {} policy aborts, {} deadlock aborts, {} rejected; \
         {:.0} jobs/s, p50 {} µs, p99 {} µs",
        report.committed,
        report.policy_aborts,
        report.deadlock_aborts,
        report.rejected,
        report.throughput(),
        report.latency.p50_us,
        report.latency.p99_us
    );
    if let Some(cert) = &report.certification {
        println!(
            "  {name}: certified ONLINE — {} steps, {} edges, {} truncations, \
             peak graph {} nodes",
            cert.stats.steps, cert.stats.edges, cert.stats.truncations, cert.stats.peak_nodes
        );
    }
}

/// Scenario 1: hot-key storm. 2PL, 3 targets per job, 90% of draws on a
/// 4-entity hot set out of 64.
fn hot_key_storm(jobs: usize, workers: usize) -> bool {
    let pool: Vec<EntityId> = (0..64).map(EntityId).collect();
    let work = hot_cold_jobs(&pool, jobs, 3, 4, 0.9, 0xB0A7);
    let mut rt = Runtime::new(PolicyKind::TwoPhase, &PolicyConfig::flat(pool)).expect("2PL builds");
    let report = rt.run(&work, &load_config(workers));
    describe(&report, "hot-key storm");
    let ok = check_safe(&report, work.len(), "hot-key storm");
    if ok {
        // The metrics registry folds every run on this Runtime; one full
        // snapshot shows the exposition format.
        println!("\n  metrics snapshot (hot-key storm):");
        for line in rt.metrics().render().lines() {
            println!("    {line}");
        }
    }
    ok
}

/// Scenario 2: long-lived transactions. The altruistic policy with one
/// long scan over half the pool amid short two-entity jobs.
fn long_lived(jobs: usize, workers: usize) -> bool {
    let pool: Vec<EntityId> = (0..48).map(EntityId).collect();
    let work = long_short_jobs(&pool, 24, jobs.saturating_sub(1), 2, 0x10A6);
    let mut rt =
        Runtime::new(PolicyKind::Altruistic, &PolicyConfig::flat(pool)).expect("altruistic builds");
    let report = rt.run(&work, &load_config(workers));
    describe(&report, "long-lived");
    check_safe(&report, work.len(), "long-lived")
}

/// Scenario 3: structural churn. DDAG traversals over a layered DAG with
/// 2% of the jobs inserting fresh nodes (interned through the engine
/// before the run, inserted concurrently during it). The DAG is wide and
/// shallow so dominator closures stay short, and the insert rate is kept
/// low because planning cost grows with the interned universe — the run
/// measures churn volume, not total-overlap contention.
fn structural_churn(jobs: usize, workers: usize) -> bool {
    let dag = layered_dag(3, 24, 2, 0xC4A2);
    let config = PolicyConfig::dag(dag.universe.clone(), dag.graph.clone());
    let mut rt = Runtime::new(PolicyKind::Ddag, &config).expect("DDAG builds");
    let work = {
        let mut intern = |name: &str| rt.intern(name).expect("DDAG interns");
        dag_mixed_jobs(&dag, jobs, 2, 0.02, &mut intern, 0xC4A2)
    };
    let report = rt.run(&work, &load_config(workers));
    describe(&report, "structural churn");
    check_safe(&report, work.len(), "structural churn")
}

/// Scenario 4: read-heavy with MVCC snapshot reads. 90% of the jobs are
/// read-only and take the snapshot path (no lock requests at all); the
/// writer minority hammers a 4-entity hot set under 2PL. The run must
/// certify online like any other safe scenario, and the split between
/// snapshot reads and lock grants is printed as evidence the read path
/// really bypassed the lock service.
fn read_heavy(jobs: usize, workers: usize) -> bool {
    let pool: Vec<EntityId> = (0..64).map(EntityId).collect();
    let work = read_heavy_jobs(&pool, jobs, 3, 4, 0.9, 0x5EAD);
    let reads: u64 = work
        .iter()
        .filter(|j| j.read_only)
        .map(|j| j.targets.len() as u64)
        .sum();
    // The scenario *is* the snapshot read path.
    let config = RuntimeConfig {
        snapshot_reads: true,
        ..load_config(workers)
    };
    let mut rt = Runtime::new(PolicyKind::TwoPhase, &PolicyConfig::flat(pool)).expect("2PL builds");
    let report = rt.run(&work, &config);
    describe(&report, "read-heavy");
    println!(
        "  read-heavy: {} snapshot reads vs {} lock grants ({} read-only jobs never \
         touched the lock service)",
        report.snapshot_reads,
        report.grants,
        work.iter().filter(|j| j.read_only).count()
    );
    let mut ok = check_safe(&report, work.len(), "read-heavy");
    if report.snapshot_reads != reads {
        eprintln!(
            "  read-heavy: FAILED — {} snapshot reads recorded, expected {reads}",
            report.snapshot_reads
        );
        ok = false;
    }
    ok
}

/// Scenario 5: wave-scheduled storm. The hot-key storm workload again,
/// but admitted through the conflict-DAG batch scheduler
/// ([`SchedMode::Waves`]): declared conflicts are layered into
/// barrier-separated waves up front, so the hot set's collisions are
/// resolved by admission ordering instead of grant-time parking. The run
/// must certify online like the unscheduled storm, the wave accounting
/// must partition the queue, and the DAG must have found the contention
/// (`sched_parks_avoided > 0`). A deterministic-mode double run at a
/// quarter of the volume then pins the replayable contract: identical
/// outcome fingerprint *and* byte-identical merged schedule.
fn wave_scheduled_storm(jobs: usize, workers: usize) -> bool {
    let pool: Vec<EntityId> = (0..64).map(EntityId).collect();
    let work = hot_cold_jobs(&pool, jobs, 3, 4, 0.9, 0xB0A7);
    // The scenario *is* the batch scheduler (the CI matrix still varies
    // workers underneath it).
    let mut config = RuntimeConfig {
        scheduler: SchedMode::Waves,
        ..load_config(workers)
    };
    let mut rt =
        Runtime::new(PolicyKind::TwoPhase, &PolicyConfig::flat(pool.clone())).expect("2PL builds");
    let report = rt.run(&work, &config);
    describe(&report, "wave-scheduled storm");
    println!(
        "  wave-scheduled storm: {} waves (widest {}), {} conflict edges resolved at \
         admission, {} grant-time lock waits remained",
        report.waves,
        report.wave_widths.iter().max().copied().unwrap_or(0),
        report.sched_parks_avoided,
        report.lock_waits
    );
    let mut ok = check_safe(&report, work.len(), "wave-scheduled storm");
    let widths: usize = report.wave_widths.iter().map(|&w| w as usize).sum();
    if widths != work.len() || report.waves != report.wave_widths.len() {
        eprintln!(
            "  wave-scheduled storm: FAILED — {} waves / width sum {widths} do not \
             partition {} jobs",
            report.waves,
            work.len()
        );
        ok = false;
    }
    if report.sched_parks_avoided == 0 {
        eprintln!(
            "  wave-scheduled storm: FAILED — a 90%-hot workload produced no conflict \
             edges; the DAG builder saw no contention"
        );
        ok = false;
    }
    // Deterministic pin at volume: same workload, two runs, one quarter
    // of the jobs (the serial-ordering contract costs throughput; the
    // pin needs volume, not the full storm).
    config.scheduler = SchedMode::Deterministic;
    let det_work = hot_cold_jobs(&pool, (jobs / 4).max(64), 3, 4, 0.9, 0xDE7);
    let runs: Vec<RuntimeReport> = (0..2)
        .map(|_| {
            let mut rt = Runtime::new(PolicyKind::TwoPhase, &PolicyConfig::flat(pool.clone()))
                .expect("2PL builds");
            rt.run(&det_work, &config)
        })
        .collect();
    for r in &runs {
        ok &= check_safe(r, det_work.len(), "wave-scheduled storm (deterministic)");
    }
    if runs[0].outcome_fingerprint() != runs[1].outcome_fingerprint()
        || runs[0].schedule != runs[1].schedule
    {
        eprintln!(
            "  wave-scheduled storm: FAILED — deterministic mode produced diverging \
             runs ({} vs {} steps)",
            runs[0].schedule.len(),
            runs[1].schedule.len()
        );
        ok = false;
    } else {
        println!(
            "  wave-scheduled storm: deterministic double run pinned — {} steps, \
             byte-identical schedules",
            runs[0].schedule.len()
        );
    }
    ok
}

/// Scenario 6: mutant probe. `AltruisticNoWake` drops the wake rule that
/// makes altruistic locking safe; strict-mode certification must catch a
/// serialization-graph cycle within the seed sweep and recover by
/// aborting the transaction that closed it, the run going on to drain
/// its queue. Offline, the raw schedule (the victims' steps included)
/// must replay nonserializable and the committed projection serializable
/// (the differential check is cheap — the probe's runs are small).
fn mutant_probe(workers: usize) -> bool {
    let pool: Vec<EntityId> = (0..12).map(EntityId).collect();
    // Strict certification (the recovery is the point), and ≥ 4 workers —
    // a single worker cannot interleave, so the mutant cannot misbehave
    // when the CI matrix pins SLP_RUNTIME_THREADS=1.
    let config = RuntimeConfig {
        certify_online: CertifyMode::Strict,
        ..RuntimeConfig::with_workers(workers.max(4))
    };
    for seed in 0..80u64 {
        let work = long_short_jobs(&pool, 8, 30, 2, seed);
        for _ in 0..3 {
            let mut rt = Runtime::new(
                PolicyKind::AltruisticNoWake,
                &PolicyConfig::flat(pool.clone()),
            )
            .expect("mutant builds");
            let report = rt.run(&work, &config);
            if report.certified_serializable() == Some(false) {
                let cert = report
                    .certification
                    .as_ref()
                    .expect("violation implies certification");
                println!(
                    "  mutant probe: CAUGHT at seed {seed} — cycle {:?} at stamp {}; \
                     recovered with {} certification aborts, {} of {} jobs committed \
                     in {} steps",
                    cert.violation.as_ref().map(|v| &v.cycle),
                    cert.violation.as_ref().map(|v| v.stamp).unwrap_or(0),
                    report.certification_aborts,
                    report.committed,
                    work.len(),
                    report.schedule.len()
                );
                if is_serializable(&report.schedule) {
                    eprintln!(
                        "  mutant probe: FAILED — offline replay disagrees with the \
                         online verdict (file a bug!)"
                    );
                    return false;
                }
                println!("  mutant probe: offline replay agrees — nonserializable");
                let committed = Schedule::from_steps(
                    report
                        .schedule
                        .steps()
                        .iter()
                        .filter(|s| !report.aborted.contains(&s.tx))
                        .copied()
                        .collect(),
                );
                if !is_serializable(&committed) {
                    eprintln!(
                        "  mutant probe: FAILED — the committed projection is \
                         nonserializable after strict recovery"
                    );
                    return false;
                }
                println!("  mutant probe: committed projection serializable — recovered");
                return true;
            }
        }
    }
    eprintln!("  mutant probe: FAILED — certifier never caught the mutant in the sweep");
    false
}

fn main() {
    let mut jobs = DEFAULT_JOBS;
    let mut args = std::env::args().skip(1);
    while let Some(arg) = args.next() {
        match arg.as_str() {
            "--smoke" => jobs = SMOKE_JOBS,
            "--jobs" => {
                let n = args
                    .next()
                    .and_then(|v| v.parse().ok())
                    .unwrap_or_else(|| usage());
                jobs = n;
            }
            _ => usage(),
        }
    }

    let workers = RuntimeConfig::workers_from_env(4);
    println!("== slp-runtime load generator: {jobs} jobs/scenario, {workers} workers ==\n");

    let mut all_ok = true;
    for (name, run) in [
        ("hot-key storm", hot_key_storm as fn(usize, usize) -> bool),
        ("long-lived transactions", long_lived),
        ("structural churn", structural_churn),
        ("read-heavy (snapshot reads)", read_heavy),
        ("wave-scheduled storm", wave_scheduled_storm),
    ] {
        println!("scenario: {name}");
        all_ok &= run(jobs, workers);
        println!();
    }
    println!("scenario: mutant probe (strict certification)");
    all_ok &= mutant_probe(workers);

    if !all_ok {
        eprintln!("\nFAILED: a scenario missed its certification or accounting target.");
        std::process::exit(1);
    }
    println!("\nEvery safe scenario certified serializable online with balanced");
    println!("accounting, and the mutant's cycles were caught and aborted out of");
    println!("the committed set.");
}

fn usage() -> ! {
    eprintln!("usage: load_service [--smoke | --jobs N]");
    std::process::exit(2);
}
