//! Property tests for the snapshot visibility rule: what a read observes
//! is a pure function of `(snapshot, status table)` — never of timing,
//! never of unresolved writers — and a status flip exposes *all* of a
//! writer's versions atomically.

use proptest::prelude::*;
use slp_core::{EntityId, TxId};
use slp_mvcc::{MvccStore, ObservedRead, Snapshot, TxStatus, TxStatusTable, VisibilityRule};

fn mix(state: &mut u64) -> u64 {
    *state = state.wrapping_add(0x9e37_79b9_7f4a_7c15);
    let mut z = *state;
    z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    z ^ (z >> 31)
}

#[derive(Clone, Copy, Debug, PartialEq)]
enum Outcome {
    InProgress,
    Aborted,
    Committed(u64),
}

/// One write or delete in entity-chain install order.
#[derive(Clone, Copy, Debug)]
struct Op {
    tx: TxId,
    entity: EntityId,
    stamp: u64,
    delete: bool,
}

/// A random history: per-writer targets installed in stamp order, commit
/// stamps issued in install order (as the commit pipeline guarantees),
/// outcomes mixed.
struct History {
    ops: Vec<Op>,
    outcomes: Vec<Outcome>, // indexed by writer id
    max_commit: u64,
}

fn random_history(seed: u64) -> History {
    let mut rng = seed.wrapping_mul(2).wrapping_add(1);
    let n_entities = 1 + (mix(&mut rng) % 4) as u32;
    let n_writers = (mix(&mut rng) % 9) as u32;
    let mut ops = Vec::new();
    let mut outcomes = Vec::new();
    let mut stamp = 0;
    let mut commit_clock = 0;
    for w in 0..n_writers {
        let targets = 1 + (mix(&mut rng) % 2) as u32;
        for _ in 0..targets {
            ops.push(Op {
                tx: TxId(w),
                entity: EntityId(mix(&mut rng) as u32 % n_entities),
                stamp,
                delete: mix(&mut rng).is_multiple_of(5),
            });
            stamp += 1;
        }
        outcomes.push(match mix(&mut rng) % 3 {
            0 => Outcome::InProgress,
            1 => Outcome::Aborted,
            _ => {
                commit_clock += 1;
                Outcome::Committed(commit_clock)
            }
        });
    }
    History {
        ops,
        outcomes,
        max_commit: commit_clock,
    }
}

fn build(h: &History) -> (MvccStore, TxStatusTable) {
    let store = MvccStore::new();
    let tst = TxStatusTable::new();
    for op in &h.ops {
        if op.delete {
            store.delete(op.entity, op.tx, op.stamp);
        } else {
            store.install(op.entity, op.tx, op.stamp);
        }
    }
    for (w, o) in h.outcomes.iter().enumerate() {
        match o {
            Outcome::InProgress => {}
            Outcome::Aborted => assert!(tst.abort(TxId(w as u32))),
            Outcome::Committed(c) => assert!(tst.commit(TxId(w as u32), *c)),
        }
    }
    (store, tst)
}

/// Independent reimplementation of the visibility rule over the abstract
/// history: simulate the chain per entity, then scan newest-first for
/// the first version whose writer committed at or below the read stamp.
fn model_read(
    h: &History,
    outcomes: &[Outcome],
    entity: EntityId,
    read_stamp: u64,
) -> ObservedRead {
    let visible = |tx: TxId| match outcomes[tx.0 as usize] {
        Outcome::Committed(c) => c <= read_stamp,
        _ => false,
    };
    // (xmin, stamp, xmax)
    type ModelVersion = (TxId, u64, Option<(TxId, u64)>);
    let mut chain: Vec<ModelVersion> = Vec::new();
    for op in h.ops.iter().filter(|o| o.entity == entity) {
        if op.delete {
            if chain.is_empty() {
                chain.push((op.tx, op.stamp, Some((op.tx, op.stamp))));
            } else {
                chain.last_mut().expect("nonempty").2 = Some((op.tx, op.stamp));
            }
        } else {
            chain.push((op.tx, op.stamp, None));
        }
    }
    for &(xmin, stamp, xmax) in chain.iter().rev() {
        if !visible(xmin) {
            continue;
        }
        if let Some((d, dstamp)) = xmax {
            if visible(d) {
                return ObservedRead {
                    observed: Some(d),
                    pivot: Some(dstamp),
                };
            }
        }
        return ObservedRead {
            observed: Some(xmin),
            pivot: Some(stamp),
        };
    }
    ObservedRead::INITIAL
}

fn snap(read_stamp: u64) -> Snapshot {
    Snapshot {
        read_stamp,
        base_stamp: 0,
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(128))]

    /// The store's answer equals the model's at every read stamp — the
    /// observed version is a function of (snapshot, status table) only —
    /// and whatever is observed is a committed writer within the
    /// snapshot's horizon: never aborted, never in-progress.
    #[test]
    fn visibility_is_a_function_of_snapshot_and_status(seed in 0u64..300) {
        let h = random_history(seed);
        let (store, tst) = build(&h);
        let entities: Vec<EntityId> =
            (0..4).map(EntityId).collect();
        for rs in 0..=h.max_commit + 1 {
            for &e in &entities {
                let got = store.read(e, &snap(rs), &tst, VisibilityRule::Correct);
                prop_assert_eq!(got, model_read(&h, &h.outcomes, e, rs));
                if let Some(w) = got.observed {
                    match tst.status(w) {
                        TxStatus::Committed(c) => prop_assert!(c <= rs),
                        s => prop_assert!(false, "observed unresolved writer {:?}", s),
                    }
                }
            }
        }
    }

    /// The commit flip is atomic: before it, none of the writer's
    /// versions are visible anywhere; after it, *every* entity the
    /// writer touched reflects the update at read stamps covering the
    /// flip — and reads below the flip stamp are bit-for-bit unchanged.
    #[test]
    fn commit_flip_exposes_all_updates_atomically(seed in 0u64..300) {
        let h = random_history(seed);
        let (store, tst) = build(&h);
        let Some(w) = h
            .outcomes
            .iter()
            .position(|o| *o == Outcome::InProgress)
            .map(|i| TxId(i as u32))
        else {
            continue; // no in-progress writer in this history
        };
        let flip_stamp = h.max_commit + 1;
        let entities: Vec<EntityId> = (0..4).map(EntityId).collect();
        let before: Vec<ObservedRead> = entities
            .iter()
            .map(|&e| store.read(e, &snap(flip_stamp), &tst, VisibilityRule::Correct))
            .collect();
        for r in &before {
            prop_assert!(r.observed != Some(w), "in-progress writer visible");
        }
        prop_assert!(tst.commit(w, flip_stamp));
        // Outcomes with the flip applied drive the model.
        let mut outcomes = h.outcomes.clone();
        outcomes[w.0 as usize] = Outcome::Committed(flip_stamp);
        for &e in &entities {
            let after = store.read(e, &snap(flip_stamp), &tst, VisibilityRule::Correct);
            prop_assert_eq!(after, model_read(&h, &outcomes, e, flip_stamp));
            // Below the flip stamp nothing changed.
            prop_assert_eq!(
                store.read(e, &snap(flip_stamp - 1), &tst, VisibilityRule::Correct),
                model_read(&h, &h.outcomes, e, flip_stamp - 1)
            );
        }
    }
}
