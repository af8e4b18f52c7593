//! A capture takes no lock, so it races the commit cascades. One thread
//! commits writers in lock-order chains (some deferred and then cascading,
//! some aborted) while another captures in a loop: every capture must see
//! a downward-closed set in lock order, and exactly the writers the status
//! table says committed at or below its `read_stamp`.

use slp_core::{EntityId, TxId};
use slp_mvcc::{CommitPipeline, MvccStore, Snapshot, TxStatus, VisibilityRule};
use std::sync::atomic::{AtomicBool, Ordering};
use std::thread;

/// Chains per round; chain `k` is `LEN` writers locking entity `k` in turn.
const CHAINS: u32 = 48;
const LEN: u32 = 4;
const ROUNDS: u32 = 40;

fn writer(k: u32, i: u32) -> TxId {
    TxId(1 + k * LEN + i)
}

fn aborts(k: u32, i: u32) -> bool {
    (k * 7 + i).is_multiple_of(5)
}

/// The order in which chain `k`'s writers settle: against lock order (each
/// defers, and the head's commit cascades), along it, or mixed.
fn settle_order(k: u32) -> [u32; LEN as usize] {
    match k % 3 {
        0 => [3, 2, 1, 0],
        1 => [0, 1, 2, 3],
        _ => [1, 3, 0, 2],
    }
}

fn commit_chains(p: &CommitPipeline, store: &MvccStore) {
    let mut stamp = 0;
    for k in 0..CHAINS {
        for i in 0..LEN {
            p.note_lock(writer(k, i), EntityId(k));
            store.install(EntityId(k), writer(k, i), stamp);
            stamp += 1;
        }
        for i in settle_order(k) {
            if aborts(k, i) {
                p.abort(writer(k, i));
            } else {
                p.commit(writer(k, i));
            }
            thread::yield_now();
        }
    }
}

fn check_capture(p: &CommitPipeline, store: &MvccStore, snap: &Snapshot) {
    let c = snap.read_stamp;
    let tst = p.status_table();
    let visible_at = |tx| match tst.status(tx) {
        TxStatus::Committed(at) if at <= c => Some(at),
        _ => None,
    };
    let visible = (0..CHAINS)
        .flat_map(|k| (0..LEN).map(move |i| writer(k, i)))
        .filter(|&tx| visible_at(tx).is_some())
        .count();
    assert_eq!(
        visible as u64, c,
        "commit stamps are dense: read_stamp {c} must cover exactly {c} flips"
    );
    for k in 0..CHAINS {
        let mut newest = None;
        for j in 0..LEN {
            let Some(at) = visible_at(writer(k, j)) else {
                continue;
            };
            for i in 0..j {
                let before = tst.status(writer(k, i));
                assert!(
                    before == TxStatus::Aborted
                        || matches!(before, TxStatus::Committed(x) if x < at),
                    "read_stamp {c}: {:?} visible at {at} but its lock-order \
                     predecessor {:?} is {before:?}",
                    writer(k, j),
                    writer(k, i),
                );
            }
            newest = Some(writer(k, j));
        }
        let read = store.read(EntityId(k), snap, tst, VisibilityRule::Correct);
        assert_eq!(read.observed, newest, "read_stamp {c}, chain {k}");
    }
}

#[test]
fn a_capture_never_sees_a_half_flipped_commit_set() {
    for _ in 0..ROUNDS {
        let (p, store) = (CommitPipeline::new(), MvccStore::new());
        let done = AtomicBool::new(false);
        thread::scope(|s| {
            s.spawn(|| {
                commit_chains(&p, &store);
                done.store(true, Ordering::Release);
            });
            loop {
                let finished = done.load(Ordering::Acquire);
                check_capture(&p, &store, &p.capture(0, |_| 0));
                if finished {
                    break;
                }
            }
        });
        assert_eq!(p.stranded(), 0);
    }
}
