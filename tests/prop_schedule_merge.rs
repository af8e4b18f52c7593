//! `Schedule::from_sequenced_runs` — the linear merge the runtime builds
//! its trace with — against `Schedule::from_sequenced`, the sort-based
//! reconstruction it replaced there, kept as the oracle: on *any* input,
//! well formed or not, the two return the same `Result`. Never a panic,
//! never a silently shorter schedule.

use proptest::prelude::*;
use safe_locking::core::{EntityId, Schedule, ScheduledStep, SequenceError, Step, TxId};

type Entry = (u64, ScheduledStep);
/// A run: chunks whose entries, back to back, are the run's entries.
type Run = Vec<Vec<Entry>>;

/// Stamp `stamp`, carrying a step no other stamp carries (so schedule
/// equality pins the order, not just the length).
fn entry(stamp: u64) -> Entry {
    let id = stamp as u32;
    (
        stamp,
        ScheduledStep::new(TxId(id), Step::read(EntityId(id))),
    )
}

/// Deals the dense stamps `base..base + owners.len()` out to `runs` runs
/// (`owners[i]` picks the run of the `i`-th stamp, so every run is
/// ascending and any of them may stay empty), then cuts each run into
/// chunks at `cuts` (a cut at a chunk boundary yields an empty chunk).
fn deal(base: u64, owners: &[usize], runs: usize, cuts: &[usize]) -> Vec<Run> {
    let mut flat: Vec<Vec<Entry>> = vec![Vec::new(); runs];
    for (i, &owner) in owners.iter().enumerate() {
        flat[owner % runs].push(entry(base + i as u64));
    }
    flat.into_iter()
        .map(|run| {
            let mut chunks = vec![run];
            for &cut in cuts {
                let last = chunks.last_mut().expect("at least one chunk");
                let tail = last.split_off(cut % (last.len() + 1));
                chunks.push(tail);
            }
            chunks
        })
        .collect()
}

fn flatten(runs: &[Run]) -> Vec<Entry> {
    runs.iter().flatten().flatten().copied().collect()
}

/// The `(run, chunk, index)` of the `nth` entry (wrapping) of non-empty
/// `runs`.
fn locate(runs: &[Run], nth: usize) -> (usize, usize, usize) {
    let total = flatten(runs).len();
    let mut left = nth % total;
    for (r, run) in runs.iter().enumerate() {
        for (c, chunk) in run.iter().enumerate() {
            if left < chunk.len() {
                return (r, c, left);
            }
            left -= chunk.len();
        }
    }
    unreachable!("nth < total")
}

/// Both constructors on the same entries; they must agree exactly.
fn agree(runs: Vec<Run>) -> Result<Schedule, SequenceError> {
    let oracle = Schedule::from_sequenced(flatten(&runs));
    let merged = Schedule::from_sequenced_runs(runs);
    assert_eq!(
        merged, oracle,
        "the merge must return what the sort returns"
    );
    merged
}

/// Stamp bases for sequences shorter than `len`: small ones, and one
/// just under `u64::MAX`.
fn arb_base(len: u64) -> impl Strategy<Value = u64> {
    prop_oneof![0u64..1000, Just(u64::MAX - len)]
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    /// Any dense stamped sequence, split into any number of ascending
    /// runs — a single run, empty runs, empty chunks — merges into the
    /// schedule the sort reconstructs.
    #[test]
    fn dense_runs_merge_to_the_sorted_schedule(
        owners in prop::collection::vec(0usize..6, 1..120),
        runs in 1usize..6,
        cuts in prop::collection::vec(0usize..64, 0..4),
        low in 0u64..4,
    ) {
        // One case in four ends exactly on `u64::MAX`: the merge must not
        // overflow looking for the stamp after it.
        let base = if low == 0 { u64::MAX - (owners.len() as u64 - 1) } else { low * 37 };
        let schedule = agree(deal(base, &owners, runs, &cuts)).expect("dense input");
        prop_assert_eq!(schedule.len(), owners.len());
        let in_stamp_order: Vec<_> = (0..owners.len() as u64).map(|i| entry(base + i).1).collect();
        prop_assert_eq!(schedule.steps(), &in_stamp_order[..]);
    }

    /// One stamp recorded twice — in the same run or in another — is the
    /// oracle's `Duplicate`.
    #[test]
    fn an_injected_duplicate_is_reported_as_the_sort_reports_it(
        owners in prop::collection::vec(0usize..4, 2..80),
        runs in 1usize..5,
        cuts in prop::collection::vec(0usize..64, 0..3),
        (from, to) in (0usize..1000, 0usize..1000),
        base in arb_base(80),
    ) {
        let mut dealt = deal(base, &owners, runs, &cuts);
        let (r, c, i) = locate(&dealt, from);
        let doubled = dealt[r][c][i];
        let (r, c, i) = locate(&dealt, to);
        dealt[r][c].insert(i, doubled);
        prop_assert_eq!(agree(dealt), Err(SequenceError::Duplicate(doubled.0)));
    }

    /// One stamp lost from the middle is the oracle's `Gap` (lost off
    /// either end, the rest is still dense — and still agrees).
    #[test]
    fn an_injected_gap_is_reported_as_the_sort_reports_it(
        owners in prop::collection::vec(0usize..4, 3..80),
        runs in 1usize..5,
        cuts in prop::collection::vec(0usize..64, 0..3),
        lose in 0usize..1000,
        base in arb_base(80),
    ) {
        let mut dealt = deal(base, &owners, runs, &cuts);
        let (r, c, i) = locate(&dealt, lose);
        let (lost, _) = dealt[r][c].remove(i);
        let result = agree(dealt);
        if lost == base || lost == base + owners.len() as u64 - 1 {
            prop_assert_eq!(result.expect("still dense").len(), owners.len() - 1);
        } else {
            prop_assert_eq!(result, Err(SequenceError::Gap { after: lost - 1, found: lost + 1 }));
        }
    }

    /// A run that is not ascending is not the merge's to reject: the
    /// stamps are still dense and distinct, so — like the sort — it
    /// reconstructs the full schedule.
    #[test]
    fn an_out_of_order_run_is_still_reconstructed(
        owners in prop::collection::vec(0usize..4, 2..80),
        runs in 1usize..5,
        cuts in prop::collection::vec(0usize..64, 0..3),
        (a, b) in (0usize..1000, 0usize..1000),
        base in arb_base(80),
    ) {
        let mut dealt = deal(base, &owners, runs, &cuts);
        let (ra, ca, ia) = locate(&dealt, a);
        let (rb, cb, ib) = locate(&dealt, b);
        let (ea, eb) = (dealt[ra][ca][ia], dealt[rb][cb][ib]);
        dealt[ra][ca][ia] = eb;
        dealt[rb][cb][ib] = ea;
        prop_assert_eq!(agree(dealt).expect("dense, merely misplaced").len(), owners.len());
    }

    /// No run, empty runs, runs of empty chunks: `Empty`, as for the sort.
    #[test]
    fn all_empty_input_is_empty(shape in prop::collection::vec(0usize..4, 0..5)) {
        let runs: Vec<Run> = shape.iter().map(|&chunks| vec![Vec::new(); chunks]).collect();
        prop_assert_eq!(agree(runs), Err(SequenceError::Empty));
    }
}
