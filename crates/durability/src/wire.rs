//! The payload codecs of the log's frames ([`crate::frame`] adds length
//! and checksum): sequence-stamped [`ScheduledStep`]s, [`StructuralState`]
//! snapshots, and lock-table entries. A recovered step must be bit for bit
//! the step that executed; the round-trip tests here pin that.
//!
//! Encoding conventions: all integers little-endian, no padding, no
//! self-description — framing, versioning, and integrity are the log's job.
//! Every decoder is total: malformed bytes decode to `None`, never a
//! panic, because the decoders' one caller is crash recovery, where the
//! input is by definition untrusted.

use slp_core::{
    Access, DataOp, EntityId, LockMode, Operation, ScheduledStep, Step, StructuralState, TxId,
    MAX_ENTITIES,
};

/// Encoded size of one locked stamped step: stamp (8) + tx (4) + entity
/// (4) + op (1). Snapshot reads are [`SNAPSHOT_STEP_BYTES`] instead; the
/// step codec is streaming, so mixed batches decode without a fixed width.
pub(crate) const STAMPED_STEP_BYTES: usize = 17;

/// Encoded size of one stamped snapshot read: [`STAMPED_STEP_BYTES`] plus
/// the observed writer (4).
pub(crate) const SNAPSHOT_STEP_BYTES: usize = STAMPED_STEP_BYTES + 4;

/// The tag marking a snapshot read (a read that bypassed the lock service
/// and observed a specific version). Not an [`Operation`] tag — the record
/// carries an extra trailing `u32` naming the observed writer, with
/// `u32::MAX` standing for "observed the initial value" (no real
/// transaction ever gets id `u32::MAX`).
const SNAPSHOT_READ_TAG: u8 = 8;

/// The `u32` encoding of "observed the initial value" in a snapshot-read
/// record.
const OBSERVED_NONE: u32 = u32::MAX;

/// Encoded size of one lock-table entry: entity (4) + tx (4) + mode (1).
pub(crate) const LOCK_ENTRY_BYTES: usize = 9;

/// One lock-table entry as it crosses the durability boundary.
pub(crate) type LockEntry = (EntityId, TxId, LockMode);

/// Appends a `u32` little-endian.
pub(crate) fn put_u32(out: &mut Vec<u8>, v: u32) {
    out.extend_from_slice(&v.to_le_bytes());
}

/// Appends a `u64` little-endian.
pub(crate) fn put_u64(out: &mut Vec<u8>, v: u64) {
    out.extend_from_slice(&v.to_le_bytes());
}

/// Reads a `u32` little-endian, returning the remaining buffer.
pub(crate) fn get_u32(buf: &[u8]) -> Option<(u32, &[u8])> {
    let (head, rest) = buf.split_first_chunk()?;
    Some((u32::from_le_bytes(*head), rest))
}

/// Reads a `u64` little-endian, returning the remaining buffer.
pub(crate) fn get_u64(buf: &[u8]) -> Option<(u64, &[u8])> {
    let (head, rest) = buf.split_first_chunk()?;
    Some((u64::from_le_bytes(*head), rest))
}

/// Decodes an entity id, refusing one at or above [`MAX_ENTITIES`]: no
/// run names it, and a state sized by it would take up to 512 MiB.
fn get_entity(buf: &[u8]) -> Option<(EntityId, &[u8])> {
    let (id, buf) = get_u32(buf)?;
    (id < MAX_ENTITIES).then_some((EntityId(id), buf))
}

/// The one-byte operation tag (stable across versions; new operations get
/// new tags, existing tags are never reused).
fn op_tag(op: Operation) -> u8 {
    match op {
        Operation::Data(DataOp::Read) => 0,
        Operation::Data(DataOp::Write) => 1,
        Operation::Data(DataOp::Insert) => 2,
        Operation::Data(DataOp::Delete) => 3,
        Operation::Lock(LockMode::Shared) => 4,
        Operation::Lock(LockMode::Exclusive) => 5,
        Operation::Unlock(LockMode::Shared) => 6,
        Operation::Unlock(LockMode::Exclusive) => 7,
    }
}

/// Decodes an operation tag.
fn op_from_tag(tag: u8) -> Option<Operation> {
    Some(match tag {
        0 => Operation::Data(DataOp::Read),
        1 => Operation::Data(DataOp::Write),
        2 => Operation::Data(DataOp::Insert),
        3 => Operation::Data(DataOp::Delete),
        4 => Operation::Lock(LockMode::Shared),
        5 => Operation::Lock(LockMode::Exclusive),
        6 => Operation::Unlock(LockMode::Shared),
        7 => Operation::Unlock(LockMode::Exclusive),
        _ => return None,
    })
}

/// Encodes one sequence-stamped scheduled step ([`STAMPED_STEP_BYTES`],
/// or [`SNAPSHOT_STEP_BYTES`] for a snapshot read).
pub(crate) fn put_stamped_step(out: &mut Vec<u8>, stamp: u64, s: &ScheduledStep) {
    put_u64(out, stamp);
    put_u32(out, s.tx.0);
    put_u32(out, s.step.entity.0);
    match s.via {
        Access::Locked => out.push(op_tag(s.step.op)),
        Access::Snapshot { observed } => {
            out.push(SNAPSHOT_READ_TAG);
            put_u32(out, observed.map_or(OBSERVED_NONE, |w| w.0));
        }
    }
}

/// Decodes one sequence-stamped scheduled step.
pub(crate) fn get_stamped_step(buf: &[u8]) -> Option<((u64, ScheduledStep), &[u8])> {
    let (stamp, buf) = get_u64(buf)?;
    let (tx, buf) = get_u32(buf)?;
    let (entity, buf) = get_entity(buf)?;
    let (&tag, buf) = buf.split_first()?;
    if tag == SNAPSHOT_READ_TAG {
        let (observed, buf) = get_u32(buf)?;
        let observed = (observed != OBSERVED_NONE).then_some(TxId(observed));
        return Some((
            (
                stamp,
                ScheduledStep::snapshot_read(TxId(tx), entity, observed),
            ),
            buf,
        ));
    }
    let op = op_from_tag(tag)?;
    Some((
        (stamp, ScheduledStep::new(TxId(tx), Step::new(op, entity))),
        buf,
    ))
}

/// Most words a state's bitset may have: one per 64 ids below
/// [`MAX_ENTITIES`]. A state with more names an id no run names.
pub(crate) const MAX_STATE_WORDS: usize = MAX_ENTITIES as usize / 64;

/// Encodes a structural state as its bitset: the word count, then the
/// words ([`StructuralState::words`]). The bitset is canonical, so equal
/// states encode to equal bytes, which is what lets recovery compare
/// snapshots bitwise. The caller bounds the count by [`MAX_STATE_WORDS`].
pub(crate) fn put_state(out: &mut Vec<u8>, state: &StructuralState) {
    let words = state.words();
    put_u32(out, words.len() as u32);
    for &word in words {
        put_u64(out, word);
    }
}

/// Decodes a structural state, refusing a word count past
/// [`MAX_STATE_WORDS`] and a bitset no state has (a trailing zero word).
pub(crate) fn get_state(buf: &[u8]) -> Option<(StructuralState, &[u8])> {
    let (count, buf) = get_u32(buf)?;
    let count = count as usize;
    if count > MAX_STATE_WORDS {
        return None;
    }
    let (body, rest) = buf.split_at_checked(count * 8)?;
    let words = body
        .chunks_exact(8)
        .map(|w| u64::from_le_bytes(w.try_into().expect("an 8-byte chunk")))
        .collect();
    Some((StructuralState::from_words(words)?, rest))
}

/// Encodes one lock-table entry ([`LOCK_ENTRY_BYTES`]).
pub(crate) fn put_lock_entry(out: &mut Vec<u8>, entry: &LockEntry) {
    put_u32(out, entry.0 .0);
    put_u32(out, entry.1 .0);
    out.push(match entry.2 {
        LockMode::Shared => 0,
        LockMode::Exclusive => 1,
    });
}

/// Decodes one lock-table entry.
pub(crate) fn get_lock_entry(buf: &[u8]) -> Option<(LockEntry, &[u8])> {
    let (entity, buf) = get_u32(buf)?;
    let (tx, buf) = get_u32(buf)?;
    let (&tag, buf) = buf.split_first()?;
    let mode = match tag {
        0 => LockMode::Shared,
        1 => LockMode::Exclusive,
        _ => return None,
    };
    Some(((EntityId(entity), TxId(tx), mode), buf))
}

#[cfg(test)]
mod tests {
    use super::*;

    fn e(i: u32) -> EntityId {
        EntityId(i)
    }

    fn t(i: u32) -> TxId {
        TxId(i)
    }

    #[test]
    fn op_tags_round_trip_and_are_dense() {
        let ops = [
            Operation::Data(DataOp::Read),
            Operation::Data(DataOp::Write),
            Operation::Data(DataOp::Insert),
            Operation::Data(DataOp::Delete),
            Operation::Lock(LockMode::Shared),
            Operation::Lock(LockMode::Exclusive),
            Operation::Unlock(LockMode::Shared),
            Operation::Unlock(LockMode::Exclusive),
        ];
        for (i, op) in ops.into_iter().enumerate() {
            assert_eq!(op_tag(op) as usize, i);
            assert_eq!(op_from_tag(op_tag(op)), Some(op));
        }
        assert_eq!(op_from_tag(8), None);
        assert_eq!(op_from_tag(255), None);
    }

    #[test]
    fn stamped_step_round_trips_at_fixed_width() {
        let cases = [
            (0u64, ScheduledStep::new(t(1), Step::lock_exclusive(e(0)))),
            (u64::MAX, ScheduledStep::new(t(u32::MAX), Step::read(e(7)))),
            (
                42,
                ScheduledStep::new(t(9), Step::insert(e(MAX_ENTITIES - 1))),
            ),
        ];
        for (stamp, step) in cases {
            let mut out = Vec::new();
            put_stamped_step(&mut out, stamp, &step);
            assert_eq!(out.len(), STAMPED_STEP_BYTES);
            let ((s2, step2), rest) = get_stamped_step(&out).unwrap();
            assert_eq!((s2, step2), (stamp, step));
            assert!(rest.is_empty());
        }
        // One past the largest id a run may name is a corrupt payload.
        let mut out = Vec::new();
        let beyond = ScheduledStep::new(t(9), Step::insert(e(MAX_ENTITIES)));
        put_stamped_step(&mut out, 42, &beyond);
        assert_eq!(get_stamped_step(&out), None);
    }

    #[test]
    fn snapshot_read_round_trips_with_observed_writer() {
        let cases = [
            (7u64, ScheduledStep::snapshot_read(t(3), e(5), Some(t(2)))),
            (9, ScheduledStep::snapshot_read(t(4), e(0), None)),
        ];
        for (stamp, step) in cases {
            let mut out = Vec::new();
            put_stamped_step(&mut out, stamp, &step);
            assert_eq!(out.len(), SNAPSHOT_STEP_BYTES);
            let ((s2, step2), rest) = get_stamped_step(&out).unwrap();
            assert_eq!((s2, step2), (stamp, step));
            assert!(rest.is_empty());
        }
        // Mixed batches decode record-by-record despite the width change.
        let mut out = Vec::new();
        let batch = [
            (0u64, ScheduledStep::new(t(1), Step::write(e(2)))),
            (1, ScheduledStep::snapshot_read(t(2), e(2), Some(t(1)))),
            (2, ScheduledStep::new(t(1), Step::unlock_exclusive(e(2)))),
        ];
        for (stamp, step) in &batch {
            put_stamped_step(&mut out, *stamp, step);
        }
        let mut rest: &[u8] = &out;
        for expected in &batch {
            let (got, tail) = get_stamped_step(rest).unwrap();
            assert_eq!(got, *expected);
            rest = tail;
        }
        assert!(rest.is_empty());
        // Truncating the observed field decodes to `None`, not a panic.
        let mut out = Vec::new();
        put_stamped_step(
            &mut out,
            1,
            &ScheduledStep::snapshot_read(t(2), e(2), Some(t(1))),
        );
        for cut in 0..out.len() {
            assert!(get_stamped_step(&out[..cut]).is_none());
        }
    }

    #[test]
    fn truncated_inputs_report_not_panic() {
        let mut out = Vec::new();
        put_stamped_step(&mut out, 5, &ScheduledStep::new(t(1), Step::write(e(2))));
        for cut in 0..out.len() {
            assert!(
                get_stamped_step(&out[..cut]).is_none(),
                "prefix of {cut} bytes decoded"
            );
        }
        assert!(get_u32(&[1, 2]).is_none());
        assert!(get_u64(&[1, 2, 3, 4, 5, 6, 7]).is_none());
        assert!(get_state(&[2, 0, 0, 0, 9]).is_none()); // claims 2 ids, has 1 byte
    }

    #[test]
    fn state_codec_is_canonical_and_round_trips() {
        let state = StructuralState::from_entities([e(64), e(3), e(0), e(127)]);
        let mut a = Vec::new();
        put_state(&mut a, &state);
        // Same set inserted in a different order encodes identically.
        let mut b = Vec::new();
        put_state(
            &mut b,
            &StructuralState::from_entities([e(0), e(127), e(3), e(64)]),
        );
        assert_eq!(a, b);
        let (decoded, rest) = get_state(&a).unwrap();
        assert_eq!(decoded, state);
        assert!(rest.is_empty());
        // Empty state is 4 bytes of zero count.
        let mut empty = Vec::new();
        put_state(&mut empty, &StructuralState::empty());
        assert_eq!(empty, vec![0, 0, 0, 0]);
        assert_eq!(get_state(&empty).unwrap().0, StructuralState::empty());
    }

    /// Random states — empty, dense, and sparse with ids up to
    /// `MAX_ENTITIES − 1` — round-trip at 4 + 8 bytes a word, and every
    /// truncation of one decodes to `None`.
    #[test]
    fn random_states_round_trip_and_every_truncation_is_refused() {
        let mut rng = proptest::test_runner::TestRng::deterministic("wire/state-codec");
        let mut states = vec![
            StructuralState::empty(),
            StructuralState::from_entities((0..1024).map(e)),
            StructuralState::from_entities([e(MAX_ENTITIES - 1)]),
        ];
        for _ in 0..40 {
            let dense = (0..1 + rng.below(300)).map(|_| e(rng.below(512) as u32));
            states.push(dense.collect());
            let sparse = (0..rng.below(20)).map(|_| e(rng.below(MAX_ENTITIES as u64) as u32));
            states.push(sparse.collect());
        }
        for state in states {
            let mut out = Vec::new();
            put_state(&mut out, &state);
            assert_eq!(out.len(), 4 + 8 * state.words().len());
            let (decoded, rest) = get_state(&out).unwrap();
            assert_eq!(decoded, state);
            assert!(rest.is_empty());
            for cut in 0..out.len() {
                assert!(get_state(&out[..cut]).is_none(), "{cut} of {}", out.len());
            }
        }
    }

    #[test]
    fn a_state_past_the_bound_or_with_a_trailing_zero_word_is_refused() {
        let mut past = Vec::new();
        put_u32(&mut past, MAX_STATE_WORDS as u32 + 1);
        past.resize(4 + 8 * (MAX_STATE_WORDS + 1), 0xff);
        assert!(get_state(&past).is_none());
        let mut zero_tail = Vec::new();
        put_u32(&mut zero_tail, 2);
        put_u64(&mut zero_tail, 1);
        put_u64(&mut zero_tail, 0);
        assert!(get_state(&zero_tail).is_none());
    }

    #[test]
    fn lock_entry_round_trips() {
        for entry in [
            (e(0), t(1), LockMode::Shared),
            (e(u32::MAX), t(u32::MAX), LockMode::Exclusive),
        ] {
            let mut out = Vec::new();
            put_lock_entry(&mut out, &entry);
            assert_eq!(out.len(), LOCK_ENTRY_BYTES);
            let (decoded, rest) = get_lock_entry(&out).unwrap();
            assert_eq!(decoded, entry);
            assert!(rest.is_empty());
        }
        let bad = [0, 0, 0, 0, 0, 0, 0, 0, 9];
        assert_eq!(get_lock_entry(&bad), None);
    }
}
