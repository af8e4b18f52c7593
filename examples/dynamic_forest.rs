//! The dynamic tree policy (Section 6): the concurrency control builds the
//! database forest itself.
//!
//! Reproduces the Fig. 5 walkthrough — the forest grows as transactions
//! declare their access sets (rules DT0–DT2) and shrinks again once nodes
//! are no longer needed (rule DT3) — then runs a simulated workload and
//! verifies serializability (Theorem 4). The policy is built through the
//! [`PolicyRegistry`] and driven through the unified [`PolicyEngine`]
//! trait: `begin` hands back the precomputed tree-locked plan (DT2), the
//! forest is read through the trait's introspection, and the DT3
//! garbage-collection check reaches the concrete engine through the
//! downcast hatch.
//!
//! Run with: `cargo run --example dynamic_forest`

use safe_locking::core::{is_serializable, EntityId, TxId};
use safe_locking::graph::Forest;
use safe_locking::policies::dtr::DtrEngine;
use safe_locking::policies::{
    AccessIntent, PolicyAction, PolicyConfig, PolicyEngine, PolicyKind, PolicyRegistry,
};
use safe_locking::sim::{build_adapter, run_sim, uniform_jobs, SimConfig};

fn show_forest(f: &Forest) {
    print!("forest:");
    for root in f.roots() {
        print!(" tree(root {root}): {{");
        let mut first = true;
        for n in f.tree_nodes(root) {
            if !first {
                print!(", ");
            }
            match f.parent(n) {
                Some(p) => print!("{n}<-{p}"),
                None => print!("{n}"),
            }
            first = false;
        }
        print!("}}");
    }
    println!();
}

/// Drives `tx` through its remaining precomputed plan actions.
fn run_plan(eng: &mut Box<dyn PolicyEngine>, tx: TxId, actions: &[PolicyAction]) {
    for &a in actions {
        eng.request(tx, a).expect_granted();
    }
}

fn main() {
    let registry = PolicyRegistry::new();

    // ------------------------------------------------------------------
    // 1. The Fig. 5 walkthrough.
    // ------------------------------------------------------------------
    println!("== Fig. 5: the database forest under DT0–DT3 ==\n");
    // The pool is what exists; the forest starts empty all the same.
    let (e1, e2, e3, e4) = (EntityId(1), EntityId(2), EntityId(3), EntityId(4));
    let mut eng = registry
        .build(PolicyKind::Dtr, &PolicyConfig::flat(vec![e1, e2, e3, e4]))
        .expect("flat kind");
    println!("DT0: the forest starts empty");
    show_forest(eng.forest().expect("DTR maintains a forest"));

    // T1 arrives accessing {1, 2, 3}: they are connected into one tree.
    let plan1 = eng
        .begin(TxId(1), &AccessIntent::access([e1, e2, e3]))
        .unwrap()
        .expect("DT2 precomputes the plan");
    println!("\nDT2: T1 declares A(T1) = {{e1, e2, e3}}; forest becomes (Fig. 5a):");
    let forest = eng.forest().expect("DTR maintains a forest");
    show_forest(forest);
    assert_eq!(forest.roots().len(), 1);
    println!("T1's precomputed tree-locked plan: {} actions", plan1.len());
    eng.request(TxId(1), plan1[0]).expect_granted(); // T1 takes its first lock.

    // T2 arrives accessing {3, 4}: node 4 is added and joined (Fig. 5b).
    let plan2 = eng
        .begin(TxId(2), &AccessIntent::access([e3, e4]))
        .unwrap()
        .expect("DT2 precomputes the plan");
    println!("\nDT1+DT2: T2 declares A(T2) = {{e3, e4}}; node e4 joined (Fig. 5b):");
    let forest = eng.forest().expect("DTR maintains a forest");
    show_forest(forest);
    assert_eq!(forest.roots().len(), 1, "one tree after joining");

    // While transactions are active, e4 cannot be garbage collected. The
    // DT3 check is DTR-specific introspection: downcast to the engine.
    let dtr: &DtrEngine = eng.as_any().downcast_ref().expect("DTR engine");
    println!(
        "\nDT3 check while T2 is active: delete(e4) -> {:?}",
        dtr.check_delete(e4).unwrap_err()
    );

    // Run both to completion (T1 first — it holds the root).
    run_plan(&mut eng, TxId(1), &plan1[1..]);
    eng.finish(TxId(1)).unwrap();
    run_plan(&mut eng, TxId(2), &plan2);
    eng.finish(TxId(2)).unwrap();

    // Now e4 may go: every remaining (zero) transaction stays tree-locked.
    let dtr: &mut DtrEngine = eng.as_any_mut().downcast_mut().expect("DTR engine");
    dtr.delete(e4).unwrap();
    println!("\nDT3 after T2 finished: e4 deleted from the forest:");
    show_forest(eng.forest().expect("DTR maintains a forest"));

    // ------------------------------------------------------------------
    // 2. Simulation under the DTR policy.
    // ------------------------------------------------------------------
    println!("\n== Simulated workload under DTR ==\n");
    let pool: Vec<EntityId> = (0..16).map(EntityId).collect();
    let jobs = uniform_jobs(&pool, 30, 3, 21);
    let mut adapter =
        build_adapter(&registry, PolicyKind::Dtr, &PolicyConfig::flat(pool)).expect("flat kind");
    let initial = adapter.initial_state();
    let report = run_sim(
        &mut adapter,
        &jobs,
        &SimConfig {
            workers: 4,
            ..Default::default()
        },
    );

    println!("jobs committed   : {}", report.committed);
    println!("lock waits       : {}", report.lock_waits);
    println!("makespan (ticks) : {}", report.makespan);
    println!(
        "throughput       : {:.2} jobs / kilotick",
        report.throughput()
    );
    println!(
        "forest size now  : {} nodes",
        adapter.engine().forest().expect("DTR").len()
    );

    assert!(report.schedule.is_legal());
    assert!(report.schedule.is_proper(&initial));
    assert!(is_serializable(&report.schedule));
    println!("\ntrace verified: legal ✓  proper ✓  serializable ✓ (Theorem 4)");
}
