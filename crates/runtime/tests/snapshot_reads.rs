//! Conformance for MVCC snapshot reads: mixed snapshot-read +
//! locked-write runs across every safe policy must stay legal, proper,
//! and serializable — certified online *and* replayed offline — while
//! read-only jobs never touch the lock service.
//!
//! * **Mixed sweep** — read-heavy hot-set workloads on every safe
//!   flat-pool kind, and a DDAG insert mix with concurrent readers:
//!   snapshot reads enter the trace as stamped steps, the online
//!   certifier sees them, and the offline replay (aborted transactions
//!   excised) agrees.
//! * **Reader isolation** — a pure-read workload records zero grants and
//!   zero lock waits: the snapshot path is the entire read path.
//! * **Negative control** — the deliberately broken visibility rule
//!   (snapshots dirty-read in-progress writers) is scripted at the
//!   component level, where the race is deterministic: the certifier
//!   must flag the dirty snapshot as nonserializable at the closing
//!   edge, and the correct rule on the same script must not.

use slp_core::{is_serializable_with_aborts, EntityId, ScheduledStep, Step, TxId};
use slp_mvcc::{CommitPipeline, MvccStore, ObservedRead, VisibilityRule};
use slp_policies::{Job, PolicyConfig, PolicyKind};
use slp_runtime::{
    CertifyMode, IncrementalCertifier, Runtime, RuntimeConfig, RuntimeReport, VersionedRead,
};
use slp_sim::{dag_mixed_jobs, layered_dag, read_heavy_jobs};

fn snapshot_conf() -> RuntimeConfig {
    RuntimeConfig {
        workers: RuntimeConfig::workers_from_env(4),
        snapshot_reads: true,
        certify_online: CertifyMode::Strict,
        ..Default::default()
    }
}

/// The full replay check for a mixed snapshot/locked run: accounting,
/// legality, properness, online certification, offline serializability
/// with the aborted set excised.
fn verify_mixed(report: &RuntimeReport, jobs: &[Job], ctx: &str) {
    assert!(!report.timed_out, "{ctx}: timed out");
    assert!(report.accounting_balances(), "{ctx}: unbalanced accounting");
    assert_eq!(report.rejected, 0, "{ctx}: well-formed jobs rejected");
    assert_eq!(report.committed, jobs.len(), "{ctx}: lost jobs");
    assert!(report.lock_table_quiescent(), "{ctx}: locks leaked");
    assert!(report.schedule.is_legal(), "{ctx}: illegal trace");
    assert!(
        report.schedule.is_proper(&report.initial),
        "{ctx}: improper trace"
    );
    let expected_reads: u64 = jobs
        .iter()
        .filter(|j| j.read_only)
        .map(|j| j.targets.len() as u64)
        .sum();
    // Every read-only job commits exactly once through the snapshot
    // path, so the counter is exact even across writer retries.
    assert_eq!(
        report.snapshot_reads, expected_reads,
        "{ctx}: snapshot read count off"
    );
    let cert = report.certification.as_ref().expect("strict run certifies");
    assert!(
        cert.violation.is_none(),
        "{ctx}: online certifier flagged a safe mixed run: {:?}",
        cert.violation
    );
    assert!(
        is_serializable_with_aborts(&report.schedule, &report.aborted),
        "{ctx}: NONSERIALIZABLE mixed trace from a safe policy"
    );
}

#[test]
fn read_heavy_mixes_conform_across_safe_flat_pool_policies() {
    let pool: Vec<EntityId> = (0..20).map(EntityId).collect();
    for kind in [
        PolicyKind::TwoPhase,
        PolicyKind::Altruistic,
        PolicyKind::Dtr,
    ] {
        for seed in 0..8u64 {
            let jobs = read_heavy_jobs(&pool, 28, 3, 4, 0.95, seed);
            let ctx = format!("{} / read-heavy / seed {seed}", kind.name());
            let mut rt =
                Runtime::new(kind, &PolicyConfig::flat(pool.clone())).expect("buildable kind");
            let report = rt.run(&jobs, &snapshot_conf());
            verify_mixed(&report, &jobs, &ctx);
            assert!(
                report.snapshot_reads > 0,
                "{ctx}: 95% read probability produced no snapshot reads"
            );
        }
    }
}

#[test]
fn strict_certification_never_aborts_a_safe_mixed_run() {
    let pool: Vec<EntityId> = (0..20).map(EntityId).collect();
    for seed in 0..4u64 {
        let jobs = read_heavy_jobs(&pool, 24, 3, 4, 0.9, seed);
        let ctx = format!("2PL strict / read-heavy / seed {seed}");
        let mut rt = Runtime::new(PolicyKind::TwoPhase, &PolicyConfig::flat(pool.clone()))
            .expect("2PL builds");
        let report = rt.run(&jobs, &snapshot_conf());
        verify_mixed(&report, &jobs, &ctx);
        assert_eq!(
            report.certification_aborts, 0,
            "{ctx}: strict mode aborted a correctly-visible snapshot run"
        );
    }
}

#[test]
fn ddag_insert_mix_with_concurrent_readers_conforms() {
    for seed in 0..8u64 {
        let dag = layered_dag(4, 3, 2, seed);
        let config = PolicyConfig::dag(dag.universe.clone(), dag.graph.clone());
        let mut rt = Runtime::new(PolicyKind::Ddag, &config).expect("DDAG builds");
        let jobs = {
            let mut intern = |name: &str| rt.intern(name).expect("DDAG interns");
            let mut jobs = dag_mixed_jobs(&dag, 14, 2, 0.3, &mut intern, seed);
            // Readers target the pre-existing universe only (never the
            // interned fresh nodes), so every snapshot read stays proper
            // whatever the insert timing.
            let base: Vec<EntityId> = dag.universe.iter().collect();
            jobs.extend(read_heavy_jobs(&base, 14, 2, 4, 1.0, seed.wrapping_add(99)));
            jobs
        };
        let report = rt.run(&jobs, &snapshot_conf());
        let ctx = format!("DDAG / insert-mix + readers / seed {seed}");
        verify_mixed(&report, &jobs, &ctx);
        assert!(report.snapshot_reads > 0, "{ctx}: readers never ran");
    }
}

#[test]
fn pure_read_workload_never_touches_the_lock_service() {
    let pool: Vec<EntityId> = (0..16).map(EntityId).collect();
    let jobs = read_heavy_jobs(&pool, 40, 3, 4, 1.0, 7);
    assert!(
        jobs.iter().all(|j| j.read_only),
        "read_prob 1.0 is all reads"
    );
    let mut rt =
        Runtime::new(PolicyKind::TwoPhase, &PolicyConfig::flat(pool.clone())).expect("2PL builds");
    let report = rt.run(&jobs, &snapshot_conf());
    assert_eq!(report.committed, jobs.len(), "reads lost");
    assert_eq!(report.snapshot_reads, 40 * 3, "three reads per job");
    // The headline claim: the read path performs zero lock-service work.
    assert_eq!(report.grants, 0, "snapshot reads requested locks");
    assert_eq!(report.lock_waits, 0, "snapshot reads waited on locks");
    assert_eq!(report.parks, 0, "snapshot reads parked");
    verify_mixed(&report, &jobs, "pure-read");
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
    pipeline.begin_writer(w);
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
    cert.observe_snapshot_reads(&[
        VersionedRead {
            stamp: 1,
            tx: r,
            entity: e1,
            observed: got_e1.observed,
            pivot: got_e1.pivot,
        },
        VersionedRead {
            stamp: 2,
            tx: r,
            entity: e0,
            observed: got_e0.observed,
            pivot: got_e0.pivot,
        },
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
