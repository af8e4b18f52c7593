//! E5 — Fig. 5: the dynamic tree policy walkthrough.
//!
//! The database forest evolves under the policy's own rules: empty at
//! first (DT0), grown and joined as transactions declare access sets
//! (DT1, DT2), and shrunk by garbage collection once no active
//! transaction's tree-lockedness depends on a node (DT3).

use slp_core::{DataOp, EntityId, TxId};
use slp_graph::Forest;
use slp_policies::dtr::{DtrEngine, DtrViolation};
use std::collections::BTreeMap;
use std::fmt::Write;

fn access() -> Vec<DataOp> {
    vec![DataOp::Read, DataOp::Write]
}

fn render_forest(f: &Forest) -> String {
    let mut out = String::new();
    if f.is_empty() {
        return "  (empty)".to_owned();
    }
    for root in f.roots() {
        write!(out, "  tree rooted at {root}:").unwrap();
        for n in f.tree_nodes(root) {
            match f.parent(n) {
                Some(p) => write!(out, " {n}(parent {p})").unwrap(),
                None => write!(out, " {n}(root)").unwrap(),
            }
        }
        out.push('\n');
    }
    out.pop();
    out
}

/// Regenerates the Fig. 5 walkthrough.
pub fn run() -> String {
    let mut out = String::new();
    writeln!(
        out,
        "E5 — Fig. 5: the database forest under the dynamic tree policy\n"
    )
    .unwrap();
    let (e1, e2, e3, e4) = (EntityId(1), EntityId(2), EntityId(3), EntityId(4));
    let mut eng = DtrEngine::new([e1, e2, e3, e4]);

    writeln!(out, "DT0 — initially the database forest is empty:").unwrap();
    writeln!(out, "{}", render_forest(eng.forest())).unwrap();

    let ops1 = BTreeMap::from([(e1, access()), (e2, access()), (e3, access())]);
    let plan1 = eng.begin(TxId(1), &ops1).unwrap();
    writeln!(out, "\nDT2 — T1 declares A(T1) = {{e1, e2, e3}} (Fig. 5a):").unwrap();
    writeln!(out, "{}", render_forest(eng.forest())).unwrap();
    writeln!(
        out,
        "T1 is tree-locked with a precomputed {}-step plan",
        plan1.len()
    )
    .unwrap();
    assert_eq!(eng.forest().roots().len(), 1);
    eng.step(TxId(1)).unwrap(); // T1 takes its first lock

    let ops2 = BTreeMap::from([(e3, access()), (e4, access())]);
    let plan2 = eng.begin(TxId(2), &ops2).unwrap();
    writeln!(
        out,
        "\nDT1+DT2 — T2 declares A(T2) = {{e3, e4}}; e4 is joined (Fig. 5b):"
    )
    .unwrap();
    writeln!(out, "{}", render_forest(eng.forest())).unwrap();
    writeln!(out, "T2's plan has {} steps", plan2.len()).unwrap();
    assert!(eng.forest().contains(e4));
    assert_eq!(eng.forest().roots().len(), 1);

    match eng.check_delete(e4) {
        Err(DtrViolation::WouldBreakTreeLocking(tx)) => {
            writeln!(
                out,
                "\nDT3 while T2 is active: deleting e4 would leave {tx} not tree-locked — rejected"
            )
            .unwrap();
        }
        Err(DtrViolation::NodeLocked(n)) => {
            writeln!(
                out,
                "\nDT3 while e4 is locked: node {n} is locked — rejected"
            )
            .unwrap();
        }
        other => panic!("DT3 must reject, got {other:?}"),
    }

    eng.run_to_end(TxId(1)).unwrap();
    eng.finish(TxId(1)).unwrap();
    eng.run_to_end(TxId(2)).unwrap();
    eng.finish(TxId(2)).unwrap();
    writeln!(
        out,
        "\nT1 and T2 run to completion (every plan step validated online)"
    )
    .unwrap();

    eng.delete(e4).unwrap();
    writeln!(out, "\nDT3 after T2 finishes: e4 deleted — remaining transactions (none)\nstay tree-locked w.r.t. G(e4):").unwrap();
    writeln!(out, "{}", render_forest(eng.forest())).unwrap();
    assert!(!eng.forest().contains(e4));

    // A third transaction spanning two separate trees triggers a join.
    let mut eng2 = DtrEngine::new([e1, e2]);
    eng2.begin(TxId(10), &BTreeMap::from([(e1, access())]))
        .unwrap();
    eng2.run_to_end(TxId(10)).unwrap();
    eng2.finish(TxId(10)).unwrap();
    eng2.begin(TxId(11), &BTreeMap::from([(e2, access())]))
        .unwrap();
    eng2.run_to_end(TxId(11)).unwrap();
    eng2.finish(TxId(11)).unwrap();
    writeln!(
        out,
        "\nsecond scenario — two single-node trees from T10, T11:"
    )
    .unwrap();
    writeln!(out, "{}", render_forest(eng2.forest())).unwrap();
    assert_eq!(eng2.forest().roots().len(), 2);
    eng2.begin(TxId(12), &BTreeMap::from([(e1, access()), (e2, access())]))
        .unwrap();
    writeln!(
        out,
        "\nT12 spans both trees -> DT1 joins them (edge between the roots):"
    )
    .unwrap();
    writeln!(out, "{}", render_forest(eng2.forest())).unwrap();
    assert_eq!(eng2.forest().roots().len(), 1);
    eng2.run_to_end(TxId(12)).unwrap();
    eng2.finish(TxId(12)).unwrap();
    out
}
