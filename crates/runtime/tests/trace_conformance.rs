//! Trace-replay conformance: every trace the concurrent runtime emits is
//! replayed through `slp-core` and checked against the formal model.
//!
//! * **Safe sweep** — every safe [`PolicyKind`] × 51 seeded workloads
//!   (the shared flat-pool table — uniform, long/short, hot/cold — and
//!   the DDAG table — traversals, deep-layer dominator traversals, the
//!   insert mix) × 1 and 4 workers: each run must pass `common::check_run`, so its trace is
//!   legal, proper for the run's initial structural state, and
//!   serializable, with no lost jobs and a quiescent lock table.
//! * **Fast-path sweep** — 2PL, the one kind whose grants bypass the
//!   engine lock, with the grant fast path on and off × 1/2/4/8 workers
//!   over five seeds of the flat-pool table (the stress ladder sweeps
//!   every flat kind at two other seeds): the same verdicts, and the
//!   fast path actually grants when it is on.
//! * **Negative controls** — `common::sweep_mutant` with certification
//!   off: the checker must catch a **non**serializable trace per mutant
//!   in a run that commits it whole, proving the capture → replay →
//!   verdict pipeline can see unsafety on its own. (`online_certification.rs`
//!   runs the same sweep under strict certification.)
//!
//! Every width is set in code (`common::SWEEP_WIDTHS`, `common::WIDTHS`,
//! `common::MUTANT_WORKERS`).

mod common;

use common::{
    conf, ddag_workloads, flat_workloads, sweep_mutant, FLAT_KINDS, SWEEP_WIDTHS, WIDTHS,
};
use slp_policies::PolicyKind;
use slp_runtime::{CertifyMode, RuntimeConfig};

#[test]
fn flat_pool_policies_emit_serializable_traces_across_the_seed_sweep() {
    for kind in FLAT_KINDS {
        for seed in 0..17u64 {
            for w in flat_workloads(seed) {
                for width in SWEEP_WIDTHS {
                    w.run(kind, &conf(width), &format!("width {width} / seed {seed}"));
                }
            }
        }
    }
}

#[test]
fn fast_path_on_and_off_conform_at_every_width() {
    for fast in [true, false] {
        for width in WIDTHS {
            for seed in 0..5u64 {
                for w in flat_workloads(seed) {
                    let config = RuntimeConfig {
                        grant_fast_path: fast,
                        ..conf(width)
                    };
                    let ctx = format!("fast {fast} / width {width} / seed {seed}");
                    let report = w.run(PolicyKind::TwoPhase, &config, &ctx);
                    if fast {
                        assert!(report.fast_path_grants > 0, "{ctx}: fast path inert");
                    }
                }
            }
        }
    }
}

#[test]
fn ddag_emits_serializable_traces_across_the_seed_sweep() {
    for seed in 0..17u64 {
        for w in ddag_workloads(seed) {
            for width in SWEEP_WIDTHS {
                let ctx = format!("width {width} / seed {seed}");
                w.run(PolicyKind::Ddag, &conf(width), &ctx);
            }
        }
    }
}

#[test]
fn mutant_altruistic_no_wake_yields_a_caught_nonserializable_trace() {
    sweep_mutant(PolicyKind::AltruisticNoWake, CertifyMode::Off);
}

#[test]
fn mutant_ddag_no_held_pred_yields_a_caught_nonserializable_trace() {
    sweep_mutant(PolicyKind::DdagNoHeldPredecessor, CertifyMode::Off);
}

#[test]
fn mutant_ddag_no_all_preds_yields_a_caught_nonserializable_trace() {
    sweep_mutant(PolicyKind::DdagNoAllPredecessors, CertifyMode::Off);
}
