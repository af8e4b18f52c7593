//! Long-lived transactions under altruistic locking (Section 5).
//!
//! The scenario altruistic locking was designed for \[SGMS94\]: one long
//! scan holds up a stream of short transactions under 2PL, while under
//! altruistic locking the short transactions run *in the wake* of the scan
//! on the items it has already donated. Reproduces the Fig. 4 walkthrough
//! through the unified [`PolicyEngine`] API, then compares 2PL vs
//! altruistic response times in simulation — both policies selected by
//! [`PolicyKind`] and built through the [`PolicyRegistry`].
//!
//! Run with: `cargo run --example long_lived_transactions`

use safe_locking::core::{is_serializable, EntityId, TxId};
use safe_locking::policies::altruistic::{AltruisticEngine, AltruisticViolation};
use safe_locking::policies::{
    AccessIntent, PolicyAction, PolicyConfig, PolicyKind, PolicyRegistry, PolicyResponse,
    PolicyViolation,
};
use safe_locking::sim::{build_adapter, long_short_jobs, run_sim, SimConfig};

fn main() {
    let registry = PolicyRegistry::new();

    // ------------------------------------------------------------------
    // 1. The Fig. 4 walkthrough.
    // ------------------------------------------------------------------
    println!("== Fig. 4: entering and leaving a wake ==\n");
    let mut eng = registry
        .build(PolicyKind::Altruistic, &PolicyConfig::default())
        .expect("flat kind");
    let (t1, t2) = (TxId(1), TxId(2));
    let (i1, i2, i3, i4) = (EntityId(1), EntityId(2), EntityId(3), EntityId(4));
    // Wake membership is altruistic-specific introspection: reach the
    // concrete engine through the trait's downcast hatch.
    let in_wake = |eng: &dyn safe_locking::policies::PolicyEngine, ti: TxId, tj: TxId| {
        eng.as_any()
            .downcast_ref::<AltruisticEngine>()
            .expect("altruistic engine")
            .in_wake_of(ti, tj)
    };

    eng.begin(t1, &AccessIntent::empty()).unwrap();
    eng.begin(t2, &AccessIntent::empty()).unwrap();
    eng.request(t1, PolicyAction::Lock(i1)).expect_granted();
    eng.request(t1, PolicyAction::Access(i1)).expect_granted();
    eng.request(t1, PolicyAction::Lock(i2)).expect_granted();
    eng.request(t1, PolicyAction::Unlock(i1)).expect_granted();
    println!("T1 donates item 1 before reaching its locked point");
    eng.request(t2, PolicyAction::Lock(i1)).expect_granted();
    println!("T2 locks item 1 -> T2 is now in the wake of T1");
    assert!(in_wake(eng.as_ref(), t2, t1));
    match eng.request(t2, PolicyAction::Lock(i4)) {
        PolicyResponse::Violation(PolicyViolation::Altruistic(
            AltruisticViolation::OutsideWake { .. },
        )) => println!(
            "T2 may not lock item 4: while in T1's wake it may only lock \
             items T1 has donated (rule AL2)"
        ),
        other => println!("unexpected: {other:?}"),
    }
    eng.request(t1, PolicyAction::Lock(i3)).expect_granted();
    eng.request(t1, PolicyAction::LockedPoint).expect_granted();
    println!("T1 reaches its locked point (locks item 3): the wake dissolves");
    assert!(!in_wake(eng.as_ref(), t2, t1));
    eng.request(t2, PolicyAction::Lock(i4)).expect_granted();
    println!("T2 locks item 4 freely now");
    eng.finish(t1).unwrap();
    eng.finish(t2).unwrap();

    // ------------------------------------------------------------------
    // 2. Simulation: one long scan + many short transactions.
    // ------------------------------------------------------------------
    println!("\n== Simulation: long scan + short transactions ==\n");
    let pool: Vec<EntityId> = (0..24).map(EntityId).collect();
    let jobs = long_short_jobs(&pool, 16, 24, 2, 3);
    let config = SimConfig {
        workers: 6,
        ..Default::default()
    };

    println!(
        "{:<12} {:>9} {:>10} {:>12} {:>10} {:>8}",
        "policy", "committed", "waits", "mean resp", "makespan", "aborts"
    );
    for kind in [PolicyKind::TwoPhase, PolicyKind::Altruistic] {
        let mut adapter =
            build_adapter(&registry, kind, &PolicyConfig::flat(pool.clone())).expect("flat kind");
        let initial = adapter.initial_state();
        let report = run_sim(&mut adapter, &jobs, &config);
        println!(
            "{:<12} {:>9} {:>10} {:>12.1} {:>10} {:>8}",
            report.policy,
            report.committed,
            report.lock_waits,
            report.mean_response(),
            report.makespan,
            report.policy_aborts + report.deadlock_aborts,
        );
        assert!(report.schedule.is_legal());
        assert!(report.schedule.is_proper(&initial));
        assert!(
            is_serializable(&report.schedule),
            "{}: trace must be serializable",
            report.policy
        );
    }
    println!("\nboth traces verified serializable ✓ (2PL classic; altruistic by Theorem 3)");
    println!("altruistic lets short transactions follow in the scan's wake instead of");
    println!("queueing behind it — compare the wait counts and response times above.");
}
