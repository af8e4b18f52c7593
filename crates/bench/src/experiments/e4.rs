//! E4 — Fig. 4: the altruistic locking walkthrough.
//!
//! `T1` is long-lived over items 1, 2, 3. Once it donates item 1, `T2`
//! locks it and enters `T1`'s wake: until `T1` reaches its locked point,
//! `T2` may lock only items `T1` has donated (rule AL2). When `T1` locks
//! item 3 (its locked point), the wake dissolves.

use slp_core::display::render_schedule;
use slp_core::{EntityId, Schedule, ScheduledStep, TxId};
use slp_policies::altruistic::{AltruisticEngine, AltruisticViolation};
use std::fmt::Write;

/// Regenerates the Fig. 4 walkthrough.
pub fn run() -> String {
    let mut out = String::new();
    writeln!(out, "E4 — Fig. 4: altruistic locking (exclusive locks)\n").unwrap();
    let items: Vec<EntityId> = (1..=4).map(EntityId).collect();
    let mut eng = AltruisticEngine::new(items.iter().copied());
    let (t1, t2) = (TxId(1), TxId(2));
    let (i1, i2, i3, i4) = (items[0], items[1], items[2], items[3]);
    // Align entity ids 0..=4 with names so the rendering reads like Fig. 4.
    let mut universe = slp_core::Universe::new();
    for i in 0..=4 {
        universe.entity(&format!("{i}"));
    }

    let mut trace = Schedule::empty();
    let push = |tx: TxId, steps: Vec<slp_core::Step>, trace: &mut Schedule| {
        for s in steps {
            trace.push(ScheduledStep::new(tx, s));
        }
    };

    eng.begin(t1).unwrap();
    eng.begin(t2).unwrap();
    push(t1, vec![eng.lock(t1, i1).unwrap()], &mut trace);
    push(t1, eng.access(t1, i1).unwrap(), &mut trace);
    push(t1, vec![eng.lock(t1, i2).unwrap()], &mut trace);
    push(t1, vec![eng.unlock(t1, i1).unwrap()], &mut trace);
    writeln!(out, "T1 locks 1, accesses it, locks 2, and donates item 1").unwrap();

    push(t2, vec![eng.lock(t2, i1).unwrap()], &mut trace);
    push(t2, eng.access(t2, i1).unwrap(), &mut trace);
    assert!(eng.in_wake_of(t2, t1));
    writeln!(out, "T2 locks item 1 -> T2 is in the wake of T1").unwrap();

    match eng.check_lock(t2, i4) {
        Err(AltruisticViolation::OutsideWake { item, .. }) => {
            writeln!(
                out,
                "AL2: T2 may not lock item {} — it is in T1's wake and item {} was\nnot donated by T1",
                item.0, item.0
            )
            .unwrap();
        }
        other => panic!("expected AL2 violation, got {other:?}"),
    }

    push(t1, eng.access(t1, i2).unwrap(), &mut trace);
    push(t1, vec![eng.unlock(t1, i2).unwrap()], &mut trace);
    push(t2, vec![eng.lock(t2, i2).unwrap()], &mut trace);
    push(t2, eng.access(t2, i2).unwrap(), &mut trace);
    writeln!(
        out,
        "T1 donates item 2 as well; T2 (fully in the wake) takes it"
    )
    .unwrap();

    push(t1, vec![eng.lock(t1, i3).unwrap()], &mut trace);
    eng.declare_locked_point(t1).unwrap();
    assert!(!eng.in_wake_of(t2, t1));
    writeln!(
        out,
        "T1 locks item 3 — its locked point: T2 is no longer in the wake"
    )
    .unwrap();

    push(t2, vec![eng.lock(t2, i4).unwrap()], &mut trace);
    push(t2, eng.access(t2, i4).unwrap(), &mut trace);
    writeln!(out, "T2 now locks item 4 freely").unwrap();

    push(t1, eng.access(t1, i3).unwrap(), &mut trace);
    push(t1, eng.finish(t1).unwrap(), &mut trace);
    push(t2, eng.finish(t2).unwrap(), &mut trace);

    writeln!(out, "\nthe complete schedule:").unwrap();
    write!(out, "{}", render_schedule(&trace, &universe)).unwrap();
    assert!(trace.is_legal());
    assert!(
        slp_core::is_serializable(&trace),
        "altruistic schedules are serializable (Theorem 3)"
    );
    let order = slp_core::serializability::serialization_order(&trace).unwrap();
    writeln!(
        out,
        "\nlegal ✓  serializable ✓ — equivalent serial order: {order:?}"
    )
    .unwrap();
    writeln!(
        out,
        "note: T2 ran entirely in T1's wake, so it serializes AFTER T1 even\nthough T1 was still running — the altruism that helps long transactions."
    )
    .unwrap();
    out
}
