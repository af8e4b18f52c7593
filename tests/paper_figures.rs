//! Integration tests locking in every paper artifact reproduction.
//!
//! Each experiment module of `slp-bench` asserts its own claims
//! internally; these tests run them end-to-end so `cargo test` regenerates
//! and re-validates the entire evaluation section (E9's full sweeps are
//! exercised by the `paper-experiments` binary; here we run a reduced
//! version for time).

use slp_bench::experiments;

#[test]
fn e0_section2_interleavings() {
    let report = experiments::e0::run();
    assert!(report.contains("proper: true"));
    assert!(report.contains("improper"));
}

#[test]
fn e1_fig1_canonical_graph_shapes() {
    let report = experiments::e1::run();
    assert!(report.contains("simple path"));
    assert!(report.contains("sinks: [T3, T4]"));
}

#[test]
fn e2_fig2_chordless_cycle_counterexample() {
    let report = experiments::e2::run();
    assert!(report.contains("serializable ✗"));
    assert!(report.contains("unsafe = true"));
}

#[test]
fn e3_fig3_ddag_walkthrough() {
    let report = experiments::e3::run();
    assert!(report.contains("restart from node 2"));
}

#[test]
fn e4_fig4_altruistic_walkthrough() {
    let report = experiments::e4::run();
    assert!(report.contains("wake"));
    assert!(report.contains("serializable ✓"));
}

#[test]
fn e5_fig5_dtr_walkthrough() {
    let report = experiments::e5::run();
    assert!(report.contains("DT0"));
    assert!(report.contains("Fig. 5b"));
    assert!(report.contains("joins them"));
}

#[test]
fn e6_theorem1_agreement_reduced() {
    // The full E6 is minutes of work; a reduced batch keeps `cargo test`
    // fast while still cross-validating the theorem.
    use slp_verifier::GenParams;
    let row = experiments::e6::agreement_batch(GenParams::default(), 0..15);
    assert_eq!(row.disagreements, 0);
    assert_eq!(row.systems, 15);
}

#[test]
fn e7_soundness_and_mutants_reduced() {
    for row in experiments::e7::soundness_table(0..2) {
        assert_eq!(row.serializable, row.runs, "{}", row.policy);
    }
    // The deterministic mutant scenarios must stay nonserializable.
    let traces = [
        experiments::e7::ddag_no_held_predecessor_scenario(),
        experiments::e7::ddag_no_all_predecessors_scenario(),
        experiments::e7::altruistic_no_wake_scenario(),
    ];
    for trace in traces {
        assert!(trace.is_legal());
        assert!(!slp_core::is_serializable(&trace));
    }
}

#[test]
fn e8_lemma_invariance_reduced() {
    let stats = experiments::e8::lemma_sweep(0..12);
    assert!(stats.schedules > 0);
    assert_eq!(stats.violations, 0);
}

#[test]
fn e9_performance_shapes_reduced() {
    // One MPL point per policy: everything commits, nothing times out.
    for (_, reports) in experiments::e9::mpl_sweep(&[4], 99) {
        for r in reports {
            assert!(!r.timed_out);
            assert_eq!(r.committed, 60, "{}", r.policy);
        }
    }
    // The altruistic-vs-2PL makespan gap at one scan length.
    let rows = experiments::e9::scan_length_sweep(&[16], 99);
    let (_, r_2pl, r_alt) = &rows[0];
    assert!(
        r_alt.makespan < r_2pl.makespan,
        "altruistic ({}) must finish before 2PL ({})",
        r_alt.makespan,
        r_2pl.makespan
    );
}
