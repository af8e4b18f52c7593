//! Cross-validation of Theorem 1 (experiment E6, test form).
//!
//! On randomized small locked transaction systems, the exhaustive explorer
//! (ground truth) and the canonical-schedule search (Theorem 1) must reach
//! the same verdict: a legal & proper nonserializable schedule exists iff
//! a canonical witness exists.

mod reference;

use reference::verify_safety_reference;
use slp_verifier::{
    find_canonical_witness, random_system, verify_safety, CanonicalBudget, GenParams, SearchBudget,
};

fn check_agreement(params: GenParams, seeds: std::ops::Range<u64>) -> (usize, usize) {
    let mut safe = 0;
    let mut unsafe_ = 0;
    for seed in seeds {
        let system = random_system(params, seed);
        let exhaustive = verify_safety(&system, SearchBudget::default());
        let canonical = find_canonical_witness(&system, CanonicalBudget::default());
        match (exhaustive.is_unsafe(), canonical.witness()) {
            (true, Some(w)) => {
                unsafe_ += 1;
                assert_eq!(w.verify(&system), Ok(()), "seed {seed}: witness must verify");
                assert!(
                    !slp_core::is_serializable(&w.extension),
                    "seed {seed}: canonical extension must be nonserializable"
                );
            }
            (false, None) => safe += 1,
            (ex, can) => panic!(
                "seed {seed}: Theorem 1 violated — exhaustive says unsafe={ex}, canonical witness present={}",
                can.is_some()
            ),
        }
    }
    (safe, unsafe_)
}

#[test]
fn theorem1_agreement_small_systems() {
    let (safe, unsafe_) = check_agreement(GenParams::default(), 0..60);
    // The generator must exercise both outcomes for the test to mean much.
    assert!(safe > 0, "no safe system generated");
    assert!(unsafe_ > 0, "no unsafe system generated");
}

#[test]
fn theorem1_agreement_more_structural_ops() {
    let params = GenParams {
        structural_prob: 0.5,
        ..GenParams::default()
    };
    let (safe, unsafe_) = check_agreement(params, 100..140);
    assert!(safe + unsafe_ == 40);
}

#[test]
fn theorem1_agreement_two_transactions() {
    let params = GenParams {
        transactions: 2,
        sessions_per_tx: 3,
        ..GenParams::default()
    };
    let (safe, unsafe_) = check_agreement(params, 200..260);
    assert!(safe + unsafe_ == 60);
    assert!(unsafe_ > 0, "two-transaction unsafe systems should exist");
}

/// The optimized apply/undo explorer must agree with the retained
/// clone-per-node reference explorer — not just on the verdict, but on
/// the witness and on every search statistic except `undo_ops` (the
/// reference clones instead of undoing), since both visit candidates in
/// the same dense order over the same memoized state space.
fn check_explorer_agreement(system: &slp_core::TransactionSystem, label: &str) {
    let budget = SearchBudget::default();
    let optimized = verify_safety(system, budget);
    let reference = verify_safety_reference(system, budget);
    assert_eq!(
        optimized.is_safe(),
        reference.is_safe(),
        "{label}: safety verdicts disagree (optimized {optimized:?}, reference {reference:?})"
    );
    assert_eq!(
        optimized.witness(),
        reference.witness(),
        "{label}: witnesses disagree"
    );
    let (o, r) = (optimized.stats(), reference.stats());
    assert_eq!(
        (o.states, o.memo_hits, o.completions),
        (r.states, r.memo_hits, r.completions),
        "{label}: search shapes disagree"
    );
    assert!(
        o.undo_ops > 0 || o.states <= 1,
        "{label}: optimized explorer did not backtrack via undo"
    );
    assert_eq!(r.undo_ops, 0, "{label}: reference explorer must not undo");
}

#[test]
fn optimized_explorer_matches_reference_on_random_systems() {
    // 120 systems across three generator regimes (≥ 100 overall), chosen
    // to exercise safe, unsafe, structural-heavy, and shared-lock cases.
    let regimes = [
        (GenParams::default(), 0..60u64),
        (
            GenParams {
                structural_prob: 0.6,
                ..GenParams::default()
            },
            500..530,
        ),
        (
            GenParams {
                transactions: 4,
                sessions_per_tx: 2,
                shared_lock_prob: 0.3,
                ..GenParams::default()
            },
            700..730,
        ),
    ];
    let mut checked = 0;
    for (params, seeds) in regimes {
        for seed in seeds {
            let system = random_system(params, seed);
            check_explorer_agreement(&system, &format!("seed {seed}"));
            checked += 1;
        }
    }
    assert!(
        checked >= 100,
        "agreement corpus shrank to {checked} systems"
    );
}

#[test]
fn optimized_explorer_matches_reference_on_fixed_systems() {
    use slp_core::SystemBuilder;
    // The classic safe/unsafe pairs plus a dynamic-database system whose
    // properness windows prune most interleavings.
    let mut b = SystemBuilder::new();
    b.exists("x");
    b.exists("y");
    b.tx(1)
        .lx("x")
        .write("x")
        .lx("y")
        .write("y")
        .ux("x")
        .ux("y")
        .finish();
    b.tx(2)
        .lx("x")
        .write("x")
        .lx("y")
        .write("y")
        .ux("y")
        .ux("x")
        .finish();
    check_explorer_agreement(&b.build(), "2PL pair");

    let mut b = SystemBuilder::new();
    b.exists("x");
    b.exists("y");
    b.tx(1)
        .lx("x")
        .write("x")
        .ux("x")
        .lx("y")
        .write("y")
        .ux("y")
        .finish();
    b.tx(2)
        .lx("x")
        .write("x")
        .ux("x")
        .lx("y")
        .write("y")
        .ux("y")
        .finish();
    check_explorer_agreement(&b.build(), "short-lock pair");

    let mut b = SystemBuilder::new();
    b.tx(1)
        .lx("a")
        .insert("a")
        .ux("a")
        .lx("b")
        .insert("b")
        .ux("b")
        .finish();
    b.tx(2).lx("a").read("a").delete("a").ux("a").finish();
    b.tx(3).lx("b").read("b").ux("b").finish();
    check_explorer_agreement(&b.build(), "dynamic windows");

    // Zero-step transaction alongside an unsafe pair: the incremental
    // started/finished counters must not let the empty transaction mask an
    // unfinished started one (regression: the empty transaction was
    // pre-counted as finished, accepting incomplete witnesses).
    let mut b = SystemBuilder::new();
    b.exists("x");
    b.exists("y");
    b.tx(1).finish();
    b.tx(2)
        .lx("x")
        .write("x")
        .ux("x")
        .lx("y")
        .write("y")
        .ux("y")
        .finish();
    b.tx(3)
        .lx("x")
        .write("x")
        .ux("x")
        .lx("y")
        .write("y")
        .ux("y")
        .finish();
    check_explorer_agreement(&b.build(), "zero-step transaction");
}

#[test]
fn all_two_phase_systems_are_safe() {
    let params = GenParams {
        two_phase_prob: 1.0,
        ..GenParams::default()
    };
    for seed in 300..340 {
        let system = random_system(params, seed);
        assert!(
            system.transactions().iter().all(|t| t.is_two_phase()),
            "generator must honor two_phase_prob = 1"
        );
        let verdict = verify_safety(&system, SearchBudget::default());
        assert!(verdict.is_safe(), "seed {seed}: 2PL system must be safe");
    }
}
