//! Cross-crate validation of Theorem 1's structure beyond the E6 verdict
//! agreement: witness anatomy, the exclusive-locks specialization
//! (Section 3.3), minimization, and the if-direction implication.

use safe_locking::core::{is_serializable, EntityId, LockMode, Operation, SerializationGraph};
use safe_locking::verifier::{
    find_canonical_witness, minimize_witness, random_system, verify_safety, CanonicalBudget,
    GenParams, SearchBudget,
};

#[test]
fn witnesses_satisfy_every_stated_condition() {
    let mut found = 0;
    for seed in 0..60u64 {
        let system = random_system(GenParams::default(), seed);
        let outcome = find_canonical_witness(&system, CanonicalBudget::default());
        let Some(w) = outcome.witness() else { continue };
        found += 1;
        // The verifier-checked certificate must verify.
        assert_eq!(w.verify(&system), Ok(()), "seed {seed}");
        // Condition 1 anatomy: Tc's prefix contains an unlock, and the
        // step at lock_pos locks A*.
        let tc = system.get(w.tc).unwrap();
        assert!(tc.unlocked_anything_by(w.lock_pos));
        assert!(matches!(tc.steps[w.lock_pos].op, Operation::Lock(_)));
        assert_eq!(tc.steps[w.lock_pos].entity, w.a_star);
        // Tc is not two-phase (condition 1 implies it).
        assert!(!tc.is_two_phase(), "seed {seed}: Tc must violate 2PL");
        // The serial prefix is serial, legal, proper, and serializable.
        let s_prime = w.serial_prefix(&system);
        assert!(s_prime.is_legal());
        assert!(s_prime.is_proper(system.initial_state()));
        assert!(is_serializable(&s_prime));
        // If-direction: the complete extension is nonserializable.
        assert!(!is_serializable(&w.extension), "seed {seed}");
    }
    assert!(found >= 5, "expected several unsafe systems, found {found}");
}

#[test]
fn exclusive_only_witnesses_have_unique_sinks() {
    // Section 3.3: with only exclusive locks, D(S') has a unique sink.
    let params = GenParams {
        structural_prob: 0.3,
        shared_lock_prob: 0.0,
        ..GenParams::default()
    };
    let mut checked = 0;
    for seed in 0..80u64 {
        let system = random_system(params, seed);
        // Skip systems that use shared locks.
        let uses_shared = system.transactions().iter().any(|t| {
            t.steps
                .iter()
                .any(|s| matches!(s.op, Operation::Lock(LockMode::Shared)))
        });
        if uses_shared {
            continue;
        }
        let outcome = find_canonical_witness(&system, CanonicalBudget::default());
        if let Some(w) = outcome.witness() {
            checked += 1;
            assert!(
                w.has_unique_sink(&system),
                "seed {seed}: exclusive-only canonical witness must have a unique sink"
            );
        }
    }
    assert!(
        checked >= 2,
        "expected some exclusive-only witnesses, got {checked}"
    );
}

#[test]
fn minimized_witnesses_stay_valid_counterexamples() {
    for seed in 0..40u64 {
        let system = random_system(GenParams::default(), seed);
        let verdict = verify_safety(&system, SearchBudget::default());
        let Some(w) = verdict.witness() else { continue };
        let min = minimize_witness(w, system.initial_state());
        assert!(min.is_legal(), "seed {seed}");
        assert!(min.is_proper(system.initial_state()), "seed {seed}");
        assert!(!is_serializable(&min), "seed {seed}");
        assert!(min.participants().len() >= 2, "seed {seed}");
        assert!(
            min.len() <= w.len(),
            "seed {seed}: minimization never grows"
        );
        // Minimization only removes whole transactions, so every remaining
        // projection matches the original witness's projection.
        for tx in min.participants() {
            assert_eq!(min.projection(tx), w.projection(tx), "seed {seed}");
        }
    }
}

#[test]
fn exhaustive_witnesses_are_genuine() {
    for seed in 0..40u64 {
        let system = random_system(GenParams::default(), seed);
        if let Some(w) = verify_safety(&system, SearchBudget::default()).witness() {
            assert!(w.is_legal(), "seed {seed}");
            assert!(w.is_proper(system.initial_state()), "seed {seed}");
            assert!(!is_serializable(w), "seed {seed}");
            // Complete over its participants.
            let parts: Vec<_> = w
                .participants()
                .iter()
                .map(|&id| system.get(id).unwrap().clone())
                .collect();
            assert!(w.is_complete_schedule_of(&parts), "seed {seed}");
            // And its serialization graph really has a cycle.
            assert!(
                SerializationGraph::of(w).find_cycle().is_some(),
                "seed {seed}"
            );
        }
    }
}

#[test]
fn budget_exhaustion_degrades_gracefully() {
    let system = random_system(GenParams::default(), 3);
    let tiny = SearchBudget { max_states: 5 };
    let verdict = verify_safety(&system, tiny);
    // Must never claim Safe with an exhausted budget.
    match verdict {
        safe_locking::verifier::Verdict::Safe(stats) => {
            assert!(stats.states <= 5, "safe verdicts within budget are fine");
        }
        safe_locking::verifier::Verdict::Unsafe { witness, .. } => {
            assert!(!is_serializable(&witness));
        }
        safe_locking::verifier::Verdict::Exhausted(_) => {}
    }
}

#[test]
fn policy_generators_from_policies_crate_are_safe_under_verifier() {
    // Lock random transactions with the 2PL generators and verify the
    // systems with the exhaustive verifier: always safe.
    use safe_locking::core::Step;
    use safe_locking::core::{SystemBuilder, Transaction, TxId};
    use safe_locking::policies::two_phase;
    use safe_locking::verifier::{verify_safety, SearchBudget};

    for seed in 0..5u32 {
        let mut b = SystemBuilder::new();
        for i in 0..4 {
            b.exists(&format!("x{i}"));
        }
        let mk = |id: u32, order: &[u32]| {
            Transaction::new(
                TxId(id),
                order
                    .iter()
                    .flat_map(|&i| [Step::read(EntityId(i)), Step::write(EntityId(i))])
                    .collect(),
            )
        };
        let t1 = mk(1, &[seed % 4, (seed + 1) % 4]);
        let t2 = mk(2, &[(seed + 2) % 4, (seed + 3) % 4]);
        b.add_transaction(two_phase::lock_strict(&t1));
        b.add_transaction(two_phase::lock_conservative(&t2));
        let system = b.build();
        let verdict = verify_safety(&system, SearchBudget::default());
        assert!(
            verdict.is_safe(),
            "2PL-locked system must verify safe (seed {seed})"
        );
    }
}
