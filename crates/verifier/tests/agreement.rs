//! Cross-validation of Theorem 1 (experiment E6, test form).
//!
//! On randomized small locked transaction systems, the exhaustive explorer
//! (ground truth) and the canonical-schedule search (Theorem 1) must reach
//! the same verdict: a legal & proper nonserializable schedule exists iff
//! a canonical witness exists.

mod reference;

use reference::verify_safety_reference;
use slp_verifier::{
    complete_schedule, find_canonical_witness, random_system, verify_safety, CanonicalBudget,
    GenParams, SearchBudget, Verdict,
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

/// Runs [`verify_safety`] on `system` and checks its witness, if any:
/// legal, proper, nonserializable, complete over its participants, and
/// accepted by [`complete_schedule`]'s replay as a complete schedule of
/// the system. Returns whether the system is unsafe.
fn verify_checked(system: &slp_core::TransactionSystem, label: &str) -> bool {
    let budget = SearchBudget::default();
    let verdict = verify_safety(system, budget);
    assert!(
        !matches!(verdict, Verdict::Exhausted(_)),
        "{label}: search exhausted its budget"
    );
    let Some(witness) = verdict.witness() else {
        return false;
    };
    assert!(witness.is_legal(), "{label}: witness illegal");
    assert!(
        witness.is_proper(system.initial_state()),
        "{label}: witness improper"
    );
    assert!(
        !slp_core::is_serializable(witness),
        "{label}: witness serializable"
    );
    let parts: Vec<_> = witness
        .participants()
        .iter()
        .map(|&id| system.get(id).expect("participant").clone())
        .collect();
    assert!(
        witness.is_complete_schedule_of(&parts),
        "{label}: witness incomplete over its participants"
    );
    let replayed = complete_schedule(system, witness, budget)
        .unwrap_or_else(|| panic!("{label}: witness failed prefix replay"));
    assert_eq!(
        &replayed, witness,
        "{label}: replay extended a complete witness"
    );
    true
}

/// Past the reference oracle's 11-transaction cap: padding draws no
/// randomness, so a padded system has the same core as the unpadded one
/// of the same seed, and [`verify_safety`] on the padded system (words
/// edge sets, interned memo keys) must reach the oracle's verdict on the
/// core.
fn check_wide_corpus(core: GenParams, padding_txs: usize, seeds: std::ops::Range<u64>) {
    let padded = GenParams {
        padding_txs,
        ..core
    };
    for seed in seeds {
        let label = format!("k = {}, seed {seed}", core.transactions + padding_txs);
        let system = random_system(padded, seed);
        assert!(
            system.ids().len() > 11,
            "{label}: not past the oracle's cap"
        );
        let expected = verify_safety_reference(&random_system(core, seed), SearchBudget::default());
        assert_eq!(
            verify_checked(&system, &label),
            expected.is_unsafe(),
            "{label}: verdict differs from the core's"
        );
    }
}

// Every core of these corpora is safe: the `k = 13` and `k = 16` ones by
// construction (a one-session transaction is two-phase), the `k = 12`
// ones at these seeds. The unsafe direction at these widths is
// `fixed_k16_systems_verify_both_ways` and
// `fixed_k17_short_lock_system_is_unsafe_with_interned_positions`.

#[test]
fn wide_k12_and_k16_systems_keep_the_reference_verdict_of_their_core() {
    let core = GenParams {
        transactions: 2,
        sessions_per_tx: 2,
        ..GenParams::default()
    };
    check_wide_corpus(core, 10, 900..920);
    let core = GenParams {
        sessions_per_tx: 1,
        ..core
    };
    check_wide_corpus(core, 14, 7..8);
}

#[test]
fn wide_k13_systems_keep_the_reference_verdict_of_their_core() {
    let core = GenParams {
        transactions: 3,
        sessions_per_tx: 1,
        ..GenParams::default()
    };
    check_wide_corpus(core, 10, 1000..1015);
}

/// A two-transaction core plus single-step `LX` padding contending on one
/// entity, so the state space stays tiny at any width: a 2PL pair (safe)
/// or the short-lock pair (unsafe).
fn padded_pair(two_phase: bool, k: u32) -> slp_core::TransactionSystem {
    let mut b = slp_core::SystemBuilder::new();
    b.exists("x");
    b.exists("y");
    for t in 1..=2 {
        let tx = b.tx(t).lx("x").write("x");
        if two_phase {
            tx.lx("y").write("y").ux("x").ux("y").finish();
        } else {
            tx.ux("x").lx("y").write("y").ux("y").finish();
        }
    }
    for t in 3..=k {
        b.tx(t).lx("q").finish();
    }
    b.build()
}

/// Checks that [`padded_pair`] at width `k` has `k` transactions and that
/// [`verify_safety`] finds it unsafe exactly when it is not two-phase.
fn check_padded_pair(two_phase: bool, k: u32) {
    let system = padded_pair(two_phase, k);
    assert_eq!(system.ids().len(), k as usize);
    let label = format!("k = {k}, 2PL = {two_phase}");
    assert_eq!(verify_checked(&system, &label), !two_phase, "{label}");
}

/// `k = 16` (words edge sets, packed positions) in both verdicts.
#[test]
fn fixed_k16_systems_verify_both_ways() {
    check_padded_pair(true, 16);
    check_padded_pair(false, 16);
}

/// `k = 17`, past the position-packing bound too (interned position
/// keys).
#[test]
fn fixed_k17_short_lock_system_is_unsafe_with_interned_positions() {
    check_padded_pair(false, 17);
}

/// Theorem 1's search enumerates subsets and orders lazily, so a system
/// with more transactions than a machine word has bits reaches the same
/// witness after the same candidates as a narrow one (subsets used to be
/// built up front with `1 << k`, which overflowed past 64 others).
#[test]
fn a_wide_system_finds_the_narrow_canonical_witness_after_as_many_candidates() {
    for k in [4, 65] {
        let system = padded_pair(false, k);
        let outcome = find_canonical_witness(&system, CanonicalBudget::default());
        let witness = outcome
            .witness()
            .unwrap_or_else(|| panic!("k = {k}: {outcome:?}"));
        assert_eq!(witness.verify(&system), Ok(()));
        assert_eq!(outcome.stats().candidates, 12, "k = {k}");
    }
}
