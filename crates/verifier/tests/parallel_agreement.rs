//! Differential harness for the work-stealing parallel safety verifier.
//!
//! The parallel verifier runs the explorer's one DFS on a thread pool,
//! with work donation, a budget counted across workers and early cancel —
//! shared state that could make it drift from the sequential search. This
//! suite locks the two down:
//!
//! * **One search**: a one-worker pool returns exactly
//!   [`verify_safety`]'s verdict — witness and search statistics included
//!   — on 156 systems.
//! * **Verdict agreement** on 155+ seeded [`random_system`] instances
//!   spanning the `k <= 11` (u128 edge masks, packed memo keys) and the
//!   `k > 11` (words edge sets, wide memo keys) regimes.
//! * **Witness validity**: every parallel witness replays through the
//!   independent one-shot predicates *and* through
//!   [`complete_schedule`]'s simulator-driven prefix replay, and is
//!   nonserializable.
//! * **Determinism**: repeated runs across thread counts {1, 2, 4, 8}
//!   return a stable verdict — the canary for lost donations, lost
//!   wakeups, and early-cancel bugs.
//!
//! The differential thread count honors `SLP_VERIFIER_THREADS` (set by the
//! CI matrix); the determinism stress always sweeps its fixed ladder.

use slp_verifier::{
    complete_schedule, random_system, verify_safety, GenParams, ParallelVerifier, SearchBudget,
    Verdict,
};

/// Thread count for the differential runs: `SLP_VERIFIER_THREADS` or 4.
fn par_threads() -> usize {
    match std::env::var("SLP_VERIFIER_THREADS") {
        Ok(v) => v
            .parse()
            .expect("SLP_VERIFIER_THREADS must be a positive integer"),
        Err(_) => 4,
    }
}

/// Checks one system: sequential and parallel verdicts must agree, neither
/// may exhaust its budget, and an unsafe parallel witness must replay to a
/// nonserializable complete schedule via the reference completion search.
fn check_system(
    system: &slp_core::TransactionSystem,
    verifier: &ParallelVerifier,
    label: &str,
) -> bool {
    let budget = SearchBudget::default();
    let sequential = verify_safety(system, budget);
    let parallel = verifier.verify(system, budget);
    assert!(
        !matches!(sequential, Verdict::Exhausted(_)),
        "{label}: sequential search exhausted its budget — corpus system too large"
    );
    assert!(
        !matches!(parallel, Verdict::Exhausted(_)),
        "{label}: parallel search exhausted its budget — corpus system too large"
    );
    assert_eq!(
        sequential.is_unsafe(),
        parallel.is_unsafe(),
        "{label}: verdicts disagree (sequential {sequential:?}, parallel {parallel:?})"
    );
    if let Some(witness) = parallel.witness() {
        assert!(witness.is_legal(), "{label}: parallel witness illegal");
        assert!(
            witness.is_proper(system.initial_state()),
            "{label}: parallel witness improper"
        );
        assert!(
            !slp_core::is_serializable(witness),
            "{label}: parallel witness serializable"
        );
        let parts: Vec<_> = witness
            .participants()
            .iter()
            .map(|&id| system.get(id).expect("participant").clone())
            .collect();
        assert!(
            witness.is_complete_schedule_of(&parts),
            "{label}: parallel witness incomplete over its participants"
        );
        // Replay through the sequential explorer's completion search: the
        // witness must be accepted as a complete legal & proper schedule
        // of the system (the search re-applies it step by step through an
        // independent simulator instance).
        let replayed = complete_schedule(system, witness, budget)
            .unwrap_or_else(|| panic!("{label}: parallel witness failed prefix replay"));
        assert!(replayed.has_prefix(witness), "{label}: replay lost prefix");
        assert!(
            !slp_core::is_serializable(&replayed),
            "{label}: replayed completion serializable"
        );
    }
    parallel.is_unsafe()
}

/// The differential corpus: five generator regimes, 155 systems total,
/// with the last two in the wide (`k > 11`) regime the `EdgeSet` words
/// representation unlocked.
fn corpus() -> Vec<(GenParams, std::ops::Range<u64>, &'static str, bool)> {
    vec![
        (GenParams::default(), 0..60, "default 3tx", false),
        (
            GenParams {
                structural_prob: 0.6,
                ..GenParams::default()
            },
            500..530,
            "structural-heavy",
            false,
        ),
        (
            GenParams {
                transactions: 4,
                sessions_per_tx: 2,
                shared_lock_prob: 0.3,
                ..GenParams::default()
            },
            700..730,
            "4tx shared-light",
            false,
        ),
        (
            GenParams {
                transactions: 2,
                sessions_per_tx: 2,
                padding_txs: 10,
                ..GenParams::default()
            },
            900..920,
            "wide k=12",
            true,
        ),
        (
            GenParams {
                transactions: 3,
                sessions_per_tx: 1,
                padding_txs: 10,
                ..GenParams::default()
            },
            1000..1015,
            "wide k=13",
            true,
        ),
    ]
}

#[test]
fn parallel_agrees_with_sequential_on_150_plus_systems() {
    let verifier = ParallelVerifier::new(par_threads());
    let mut checked = 0;
    let mut unsafe_seen = 0;
    let mut wide_checked = 0;
    for (params, seeds, name, wide) in corpus() {
        for seed in seeds {
            let system = random_system(params, seed);
            if wide {
                assert!(
                    system.ids().len() > 11,
                    "{name}: expected the k > 11 regime"
                );
                wide_checked += 1;
            }
            if check_system(&system, &verifier, &format!("{name}, seed {seed}")) {
                unsafe_seen += 1;
            }
            checked += 1;
        }
    }
    assert!(checked >= 150, "differential corpus shrank to {checked}");
    assert!(wide_checked >= 30, "wide regime shrank to {wide_checked}");
    assert!(unsafe_seen > 0, "corpus never produced an unsafe system");
    assert!(unsafe_seen < checked, "corpus never produced a safe system");
}

/// A one-worker pool is the sequential search: nobody is idle to take a
/// donation, so its one worker runs the explorer's DFS over the whole
/// space in the same order — same verdict, witness and statistics.
#[test]
fn a_one_worker_pool_is_the_sequential_search() {
    let verifier = ParallelVerifier::new(1);
    let budget = SearchBudget::default();
    let wide_13 = GenParams {
        transactions: 3,
        sessions_per_tx: 1,
        padding_txs: 10,
        ..GenParams::default()
    };
    let systems = (0..150)
        .map(|seed| (GenParams::default(), seed))
        .chain((1000..1006).map(|seed| (wide_13, seed)));
    for (params, seed) in systems {
        let system = random_system(params, seed);
        assert_eq!(
            verifier.verify(&system, budget),
            verify_safety(&system, budget),
            "seed {seed} (k = {})",
            system.ids().len()
        );
    }
}

/// `k = 17` exceeds the position-packing bound too, pushing both searches
/// onto `Vec<u16>`-keyed memo tables. Built directly so the padding
/// transactions contend on one entity and the state space stays tiny.
#[test]
fn wide_positions_regime_k17_agrees() {
    use slp_core::SystemBuilder;
    let mut b = SystemBuilder::new();
    b.exists("x");
    b.exists("y");
    for t in 1..=2 {
        b.tx(t)
            .lx("x")
            .write("x")
            .ux("x")
            .lx("y")
            .write("y")
            .ux("y")
            .finish();
    }
    for t in 3..=17 {
        b.tx(t).lx("q").finish();
    }
    let system = b.build();
    assert_eq!(system.ids().len(), 17);
    let verifier = ParallelVerifier::new(par_threads());
    assert!(check_system(&system, &verifier, "k=17 short-lock"));
}

/// Determinism stress: the verdict (not the witness schedule or the
/// statistics) must be stable across 10 repeated runs at every thread
/// count in {1, 2, 4, 8} — racy memoization, lost wakeups, or broken
/// early-cancel would show up as a flipped verdict here.
#[test]
fn verdict_is_deterministic_across_runs_and_thread_counts() {
    let systems: Vec<(String, slp_core::TransactionSystem)> = (0..6u64)
        .map(|seed| {
            (
                format!("default seed {seed}"),
                random_system(GenParams::default(), seed),
            )
        })
        .chain((0..2u64).map(|seed| {
            let params = GenParams {
                transactions: 2,
                sessions_per_tx: 1,
                padding_txs: 10,
                ..GenParams::default()
            };
            (
                format!("wide seed {seed}"),
                random_system(params, 40 + seed),
            )
        }))
        .collect();
    let budget = SearchBudget::default();
    for (label, system) in &systems {
        let expected = verify_safety(system, budget).is_unsafe();
        for threads in [1usize, 2, 4, 8] {
            let verifier = ParallelVerifier::new(threads);
            for run in 0..10 {
                let verdict = verifier.verify(system, budget);
                assert!(
                    !matches!(verdict, Verdict::Exhausted(_)),
                    "{label}: budget exhausted at {threads} threads"
                );
                assert_eq!(
                    verdict.is_unsafe(),
                    expected,
                    "{label}: verdict flipped at {threads} threads, run {run}"
                );
            }
        }
    }
}

/// `k = 16` end-to-end through the *parallel* verifier as well (the
/// sequential arm lives in the explorer's unit tests): wide edge sets,
/// packed positions, interned memo keys. Two
/// fixed systems pin both verdict directions; one generated system with
/// fully independent padding exercises the combinatorially larger space.
#[test]
fn sixteen_transactions_verify_in_parallel() {
    use slp_core::SystemBuilder;
    let verifier = ParallelVerifier::new(par_threads());
    // Safe and unsafe fixed systems: a 2PL / short-lock pair plus 14
    // single-step transactions contending on one entity (tiny space).
    for (two_phase, expect_unsafe) in [(true, false), (false, true)] {
        let mut b = SystemBuilder::new();
        b.exists("x");
        b.exists("y");
        for t in 1..=2 {
            let tx = b.tx(t);
            if two_phase {
                tx.lx("x")
                    .write("x")
                    .lx("y")
                    .write("y")
                    .ux("x")
                    .ux("y")
                    .finish();
            } else {
                tx.lx("x")
                    .write("x")
                    .ux("x")
                    .lx("y")
                    .write("y")
                    .ux("y")
                    .finish();
            }
        }
        for t in 3..=16 {
            b.tx(t).lx("p").finish();
        }
        let system = b.build();
        assert_eq!(system.ids().len(), 16);
        let label = format!("fixed k=16 (2pl={two_phase})");
        assert_eq!(check_system(&system, &verifier, &label), expect_unsafe);
    }
    // Generated arm: 2^14 independent padding interleavings on top of a
    // real two-transaction core.
    let params = GenParams {
        transactions: 2,
        sessions_per_tx: 1,
        padding_txs: 14,
        ..GenParams::default()
    };
    let system = random_system(params, 7);
    assert_eq!(system.ids().len(), 16);
    check_system(&system, &verifier, "generated k=16 seed 7");
}
