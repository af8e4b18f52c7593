//! Conformance for MVCC snapshot reads: mixed snapshot-read +
//! locked-write runs across every safe policy must stay legal, proper,
//! and serializable — certified online *and* replayed offline — while
//! read-only jobs never touch the lock service.
//!
//! * **Mixed sweep** — read-heavy hot-set workloads on every safe
//!   flat-pool kind, and the shared DDAG insert mix with concurrent
//!   readers, at 1 and 4 workers: snapshot reads enter the trace as stamped steps, the online
//!   certifier sees them, and the offline replay (aborted transactions
//!   excised) agrees — all checked by `common::check_run`.
//! * **Reader isolation** — a pure-read workload records zero grants and
//!   zero lock waits: the snapshot path is the entire read path.
//! * **Negative control** — the deliberately broken visibility rule
//!   (snapshots dirty-read in-progress writers) is scripted at the
//!   component level, where the race is deterministic: the certifier
//!   must flag the dirty snapshot as nonserializable at the closing
//!   edge, and the correct rule on the same script must not.

mod common;

use common::{check_run, ddag_workloads, pool, FLAT_KINDS, SWEEP_WIDTHS};
use slp_core::{EntityId, ScheduledStep, Step, TxId};
use slp_mvcc::{CommitPipeline, MvccStore, ObservedRead, VisibilityRule};
use slp_policies::{Job, PolicyConfig, PolicyKind};
use slp_runtime::{CertifyMode, IncrementalCertifier, Runtime, RuntimeConfig, RuntimeReport};
use slp_sim::read_heavy_jobs;

/// Runs `jobs` at 1 and at 4 workers, each on a fresh runtime from
/// `rt`, with snapshot reads and strict certification on, and holds
/// every run to `common::check_run`: for this config that is the exact
/// snapshot-read count, a clean online verdict, and offline
/// serializability with the aborted set excised. Returns the reports,
/// one per width, with their context.
fn run_mixed(rt: impl Fn() -> Runtime, jobs: &[Job], ctx: &str) -> Vec<(String, RuntimeReport)> {
    SWEEP_WIDTHS
        .into_iter()
        .map(|width| {
            let config = RuntimeConfig {
                snapshot_reads: true,
                certify_online: CertifyMode::Strict,
                ..common::conf(width)
            };
            let report = rt().run(jobs, &config);
            let ctx = format!("{ctx} / width {width}");
            check_run(&config, jobs, &report, &ctx);
            (ctx, report)
        })
        .collect()
}

fn flat_runtime(kind: PolicyKind) -> Runtime {
    Runtime::new(kind, &PolicyConfig::flat(pool(20))).expect("buildable kind")
}

#[test]
fn read_heavy_mixes_conform_across_safe_flat_pool_policies() {
    for kind in FLAT_KINDS {
        for seed in 0..8u64 {
            let jobs = read_heavy_jobs(&pool(20), 28, 3, 4, 0.95, seed);
            let ctx = format!("{} / read-heavy / seed {seed}", kind.name());
            for (ctx, report) in run_mixed(|| flat_runtime(kind), &jobs, &ctx) {
                assert!(
                    report.snapshot_reads > 0,
                    "{ctx}: 95% read probability produced no snapshot reads"
                );
            }
        }
    }
}

#[test]
fn strict_certification_never_aborts_a_safe_mixed_run() {
    for seed in 0..4u64 {
        let jobs = read_heavy_jobs(&pool(20), 24, 3, 4, 0.9, seed);
        let ctx = format!("2PL strict / read-heavy / seed {seed}");
        for (ctx, report) in run_mixed(|| flat_runtime(PolicyKind::TwoPhase), &jobs, &ctx) {
            assert_eq!(
                report.certification_aborts, 0,
                "{ctx}: strict mode aborted a correctly-visible snapshot run"
            );
        }
    }
}

#[test]
fn ddag_insert_mix_with_concurrent_readers_conforms() {
    for seed in 0..8u64 {
        let mix = ddag_workloads(seed)
            .into_iter()
            .find(|w| w.name == "insert-mix")
            .expect("the DDAG table has an insert mix");
        // Readers target the pre-existing universe only (never the
        // interned fresh nodes), so every snapshot read stays proper
        // whatever the insert timing.
        let (universe, _) = mix.policy.dag.as_ref().expect("a DDAG config");
        let base: Vec<EntityId> = universe.iter().collect();
        let mut jobs = mix.jobs.clone();
        jobs.extend(read_heavy_jobs(&base, 14, 2, 4, 1.0, seed.wrapping_add(99)));
        let ctx = format!("DDAG / insert-mix + readers / seed {seed}");
        for (ctx, report) in run_mixed(|| mix.runtime(PolicyKind::Ddag), &jobs, &ctx) {
            assert!(report.snapshot_reads > 0, "{ctx}: readers never ran");
        }
    }
}

#[test]
fn pure_read_workload_never_touches_the_lock_service() {
    let jobs = read_heavy_jobs(&pool(16), 40, 3, 4, 1.0, 7);
    assert!(
        jobs.iter().all(|j| j.read_only),
        "read_prob 1.0 is all reads"
    );
    for (ctx, report) in run_mixed(|| flat_runtime(PolicyKind::TwoPhase), &jobs, "pure-read") {
        assert_eq!(report.snapshot_reads, 40 * 3, "{ctx}: three reads per job");
        // The headline claim: the read path performs zero lock-service work.
        assert_eq!(report.grants, 0, "{ctx}: snapshot reads requested locks");
        assert_eq!(
            report.lock_waits, 0,
            "{ctx}: snapshot reads waited on locks"
        );
        assert_eq!(report.parks, 0, "{ctx}: snapshot reads parked");
    }
}

// ---------------------------------------------------------------------
// Negative control: the broken visibility rule, scripted.
// ---------------------------------------------------------------------

/// Runs the two-entity dirty-read script against `rule` and feeds
/// exactly what the snapshot observed (plus the writer's own trace) to a
/// fresh certifier, returning it for verdict inspection.
///
/// The script: writer `W` installs `e1`, the reader captures its
/// snapshot *between* `W`'s two installs, reads `e1` then `e0`, then `W`
/// installs `e0` and commits. Under the correct rule the snapshot
/// observes neither install (a consistent cut: `W` was in progress at
/// capture). Under the broken rule it observes `W` on `e1` but the
/// initial state on `e0` — a torn read ordered both after and before
/// `W`, which is precisely a serialization cycle.
fn certify_dirty_read_script(rule: VisibilityRule) -> IncrementalCertifier {
    let (e0, e1) = (EntityId(0), EntityId(1));
    let (w, r) = (TxId(1), TxId(2));
    let pipeline = CommitPipeline::new();
    let store = MvccStore::new();
    store.install(e1, w, 0);
    // Trace stamps: W writes e1 @0, the snapshot's reads claim @1..=2,
    // W writes e0 @3.
    let snap = pipeline.capture(2, |_| 1);
    let got_e1 = store.read(e1, &snap, pipeline.status_table(), rule);
    let got_e0 = store.read(e0, &snap, pipeline.status_table(), rule);
    match rule {
        VisibilityRule::Broken => {
            assert_eq!(
                got_e1,
                ObservedRead {
                    observed: Some(w),
                    pivot: Some(0)
                },
                "broken rule must dirty-read the in-progress install"
            );
            assert_eq!(got_e0, ObservedRead::INITIAL, "e0 not yet installed");
        }
        VisibilityRule::Correct => {
            assert_eq!(got_e1, ObservedRead::INITIAL, "consistent cut");
            assert_eq!(got_e0, ObservedRead::INITIAL, "consistent cut");
        }
    }
    store.install(e0, w, 3);
    pipeline.commit(w);

    let mut cert = IncrementalCertifier::new();
    cert.observe_trace(&[(0, ScheduledStep::new(w, Step::write(e1)))]);
    cert.observe_trace(&[
        (1, ScheduledStep::snapshot_read(r, e1, got_e1.observed)),
        (2, ScheduledStep::snapshot_read(r, e0, got_e0.observed)),
    ]);
    cert.seal_with(r, false);
    cert.observe_trace(&[(3, ScheduledStep::new(w, Step::write(e0)))]);
    cert.seal_with(w, false);
    cert
}

#[test]
fn broken_visibility_is_flagged_nonserializable_at_the_closing_edge() {
    let cert = certify_dirty_read_script(VisibilityRule::Broken);
    let v = cert
        .violation()
        .expect("a dirty snapshot must be certified nonserializable");
    assert!(
        v.cycle.contains(&TxId(1)) && v.cycle.contains(&TxId(2)),
        "the cycle must run through both the writer and the reader: {v}"
    );
    // The wr-dependency (W → R, the dirty read of e1) lands when the
    // read is fed; the anti-dependency (R → W, the missed e0 install)
    // parks until W's commit seal and closes the cycle carrying the e0
    // read's stamp.
    assert_eq!(v.stamp, 2, "closing edge must be the torn e0 read");
}

#[test]
fn correct_visibility_on_the_same_script_is_serializable() {
    let cert = certify_dirty_read_script(VisibilityRule::Correct);
    assert!(
        cert.violation().is_none(),
        "a consistent cut must certify serializable: {:?}",
        cert.violation()
    );
}
