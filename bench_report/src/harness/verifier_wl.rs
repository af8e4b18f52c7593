//! `verifier_sweep`: the repo's other user — someone checking a policy —
//! served by `slp-verifier` alone. A fixed catalog of systems goes through
//! `verify_safety` pass after pass; an operation is one search state
//! visited.
//!
//! The end-to-end metric runs the **sequential** explorer. At two threads
//! `ParallelVerifier::verify` is the slower of the two here (1.3× the
//! sequential wall on this catalog) and its rate depends on where the
//! host places its two threads: ten-run sets gave 360 k–1.27 M states/s
//! with interquartile spreads of 12–33 %. It is measured in the traced
//! pass instead (`verifier.par_s`, `verifier.par_over_seq`), where that
//! answer belongs, and every parallel verdict is still checked against
//! the sequential one.

use super::catalog::{self, verifier_catalog, CatalogSystem};
use super::metrics::{END_TO_END, PER_LAYER};
use super::spans::Tracer;
use super::stats::median;
use super::{peak_rss_mb, reset_peak_rss, Options, Samples, Tally, WorkloadResult};
use slp_verifier::{verify_safety, ParallelVerifier, SearchBudget, SearchStats, Verdict};
use std::time::Instant;

/// Wall time one timed repeat fills with catalog passes.
const REPEAT_SECONDS: f64 = 0.5;

/// Timed repeats a pass makes at least, however short `--seconds` is.
const MIN_REPEATS: usize = 3;

/// One pass over the catalog: states visited, per-system latencies, and
/// the verdicts for the correctness check.
struct Pass {
    states: usize,
    latencies_us: Vec<f64>,
    verdicts: Vec<Verdict>,
}

fn sequential_pass(systems: &[CatalogSystem]) -> Pass {
    let mut pass = Pass {
        states: 0,
        latencies_us: Vec::with_capacity(systems.len()),
        verdicts: Vec::with_capacity(systems.len()),
    };
    for s in systems {
        let start = Instant::now();
        let verdict = verify_safety(&s.system, SearchBudget::default());
        pass.latencies_us.push(start.elapsed().as_secs_f64() * 1e6);
        pass.states += verdict.stats().states;
        pass.verdicts.push(verdict);
    }
    pass
}

/// Whether two verdicts agree on safe / unsafe (witnesses and statistics
/// legitimately differ between search orders).
fn same_verdict(a: &Verdict, b: &Verdict) -> bool {
    (a.is_safe(), a.is_unsafe()) == (b.is_safe(), b.is_unsafe())
}

/// Checks a sequential pass against the parallel verifier and the
/// catalog's labels; every system is one attempted operation.
fn check_pass(pass: &Pass, systems: &[CatalogSystem], tally: &mut Tally) {
    let parallel = ParallelVerifier::new(catalog::workers());
    for (s, verdict) in systems.iter().zip(&pass.verdicts) {
        let other = parallel.verify(&s.system, SearchBudget::default());
        let mut misses = Vec::new();
        if !same_verdict(verdict, &other) {
            misses.push(format!(
                "verify_safety and ParallelVerifier disagree (safe {} vs {})",
                verdict.is_safe(),
                other.is_safe()
            ));
        }
        if !verdict.is_safe() && !verdict.is_unsafe() {
            misses.push("search budget exhausted".into());
        }
        if let Some(expected) = s.expect_safe {
            if verdict.is_safe() != expected {
                misses.push(format!("labelled safe = {expected}, verified otherwise"));
            }
        }
        for witness in [verdict.witness(), other.witness()].into_iter().flatten() {
            if slp_core::is_serializable(witness) {
                misses.push("an unsafe verdict's witness is serializable".into());
            }
        }
        tally.record(&s.label, 1, 0, misses);
    }
}

/// Catalog passes until [`REPEAT_SECONDS`] have gone: the repeat's
/// states/s and every per-system latency seen.
fn timed_repeat(systems: &[CatalogSystem]) -> (f64, Vec<f64>) {
    let start = Instant::now();
    let mut states = 0usize;
    let mut latencies = Vec::new();
    while start.elapsed().as_secs_f64() < REPEAT_SECONDS {
        let pass = sequential_pass(systems);
        states += pass.states;
        latencies.extend(pass.latencies_us);
    }
    (states as f64 / start.elapsed().as_secs_f64(), latencies)
}

fn p99(values: &mut [f64]) -> f64 {
    values.sort_by(f64::total_cmp);
    values[((values.len() - 1) as f64 * 0.99).ceil() as usize]
}

/// The untraced pass: set-up several times, timed repeats for
/// `opts.seconds`, then every verdict checked against `verify_safety`.
pub fn end_to_end(opts: &Options) -> WorkloadResult {
    let mut tally = Tally::default();
    let mut samples = Samples::new(END_TO_END);

    // Set-up: catalog generation and a warm-up pass (which is also the
    // pass whose verdicts are checked).
    let mut prepared = None;
    let setting_up = Instant::now();
    while opts
        .scale
        .set_up_again(samples.get("setup_s").len(), setting_up.elapsed())
    {
        let start = Instant::now();
        let systems = verifier_catalog(opts.scale, opts.seed);
        let warm = sequential_pass(&systems);
        samples.push("setup_s", start.elapsed().as_secs_f64());
        prepared = Some((systems, warm));
    }
    let (systems, warm) = prepared.expect("at least one set-up");

    let phase = Instant::now();
    while samples.get("ops_per_s").len() < MIN_REPEATS
        || phase.elapsed().as_secs_f64() < opts.seconds
    {
        reset_peak_rss();
        let (states_per_s, _) = timed_repeat(&systems);
        samples.push("ops_per_s", states_per_s);
        samples.push("peak_rss_mb", peak_rss_mb());
    }
    check_pass(&warm, &systems, &mut tally);

    WorkloadResult {
        workload: opts.workload,
        trace: false,
        tally,
        metrics: samples.summarize(),
        notes: vec![format!(
            "closed loop, sequential verify_safety, {} systems per pass, one operation = one \
             search state",
            systems.len()
        )],
        spans: None,
    }
}

/// The traced pass: per-system spans around the parallel and the
/// sequential verifier, search statistics, and the parallel-over-
/// sequential ratio at this thread count.
pub fn traced(opts: &Options) -> WorkloadResult {
    let workers = catalog::workers();
    let mut tally = Tally::default();
    let mut layers = Samples::new(PER_LAYER);
    let mut tracer = Tracer::new();

    let systems = tracer.span("verifier.catalog", |_| {
        verifier_catalog(opts.scale, opts.seed)
    });
    let verifier = ParallelVerifier::new(workers);
    let warm = sequential_pass(&systems);
    check_pass(&warm, &systems, &mut tally);
    let total = warm
        .verdicts
        .iter()
        .map(Verdict::stats)
        .fold(SearchStats::default(), |a, s| SearchStats {
            states: a.states + s.states,
            memo_hits: a.memo_hits + s.memo_hits,
            completions: a.completions + s.completions,
            undo_ops: a.undo_ops + s.undo_ops,
        });
    layers.push("verifier.states", total.states as f64);
    layers.push(
        "verifier.memo_hit_share",
        total.memo_hits as f64 / (total.states + total.memo_hits).max(1) as f64,
    );
    layers.push("verifier.undo_ops", total.undo_ops as f64);

    let (mut plain, mut with_spans, mut latencies) = (Vec::new(), Vec::new(), Vec::new());
    let phase = Instant::now();
    while plain.len() < 2 || phase.elapsed().as_secs_f64() < opts.seconds / 2.0 {
        // An untraced repeat, for the overhead of the spans below.
        let (states_per_s, lat) = timed_repeat(&systems);
        plain.push(states_per_s);
        latencies.extend(lat);

        let run_id = tracer.next_run();
        let iteration = Instant::now();
        let mut states = 0usize;
        for s in &systems {
            states += tracer.span("verifier.seq", |_| {
                verify_safety(&s.system, SearchBudget::default())
                    .stats()
                    .states
            });
        }
        let seq_s = tracer.total("verifier.seq", run_id).as_secs_f64();
        for s in &systems {
            tracer.span("verifier.par", |_| {
                std::hint::black_box(verifier.verify(&s.system, SearchBudget::default()));
            });
        }
        let wall = iteration.elapsed().as_secs_f64();
        let par_s = tracer.total("verifier.par", run_id).as_secs_f64();
        with_spans.push(states as f64 / seq_s);
        layers.push("verifier.par_s", par_s);
        layers.push("verifier.seq_s", seq_s);
        layers.push("verifier.par_over_seq", par_s / seq_s);
        layers.push(
            "trace.span_coverage",
            tracer.top_level_total(run_id).as_secs_f64() / wall,
        );
    }
    layers.push("verifier.verify_p99_us", p99(&mut latencies));
    layers.push(
        "trace.overhead_share",
        1.0 - median(&with_spans) / median(&plain),
    );

    WorkloadResult {
        workload: opts.workload,
        trace: true,
        tally,
        metrics: layers.summarize(),
        notes: vec![format!(
            "{workers} verifier threads, {} systems per pass; parallel over sequential wall = \
             {:.3}",
            systems.len(),
            median(layers.get("verifier.par_over_seq"))
        )],
        spans: Some(tracer.to_json()),
    }
}
