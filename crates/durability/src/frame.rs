//! Log records and their on-disk framing.
//!
//! Every record is written as one frame:
//!
//! ```text
//! frame   := [len: u32 LE] [crc32(payload): u32 LE] [payload: len bytes]
//! payload := [kind: u8] [body]
//! ```
//!
//! and every segment file starts with the 8-byte [`SEGMENT_MAGIC`]. The
//! length field bounds the read, the checksum vouches for the payload, and
//! the kind byte dispatches the body codec (the body codecs themselves
//! live in the private `wire` module). Decoding is *total*: any byte sequence
//! decodes to either a record or a typed [`TornReason`] — crash recovery
//! feeds arbitrary truncations and corruptions through this path, so there
//! is no input on which it may panic.
//!
//! Encoding writes a frame in place at the end of a buffer the caller
//! owns and reuses: the header is reserved, the payload encoded behind
//! it, then length and checksum are filled in — no second payload
//! buffer. A worker encodes and checksums its attempt's frames
//! ([`encode_steps`], [`encode_commit`]) *before* it takes the log's
//! mutex; only a checkpoint ([`encode_checkpoint`]) is encoded under it,
//! because it is the log's own replica that is being written. That frame
//! carries the structural state as its bitset, 8 bytes per 64 ids — 128
//! bytes for a 1 024-entity universe — so a checkpoint costs the log
//! about what one attempt's frames do. The writer never emits a frame the
//! decoder would refuse: see [`MAX_FRAME_BYTES`].
//!
//! Kind bytes: 1 `Steps`, 2 `Commit`, 4 `Checkpoint`. Kind 3 was the
//! checkpoint of the first format, which listed the state's entities at 4
//! bytes each; it is retired and never reused, and the decoder refuses it
//! as [`TornReason::BadPayload`], so an old checkpoint can never be
//! misread as a new one: a log with kind-3 checkpoints ends, for
//! recovery, at its base checkpoint, and recovers to
//! [`RecoverError::NoCheckpoint`](crate::RecoverError::NoCheckpoint).
//! Step and commit frames are byte for byte the first writer's.

use crate::crc::crc32;
use crate::wire::{
    get_lock_entry, get_stamped_step, get_state, get_u32, get_u64, put_lock_entry,
    put_stamped_step, put_state, put_u32, put_u64, LockEntry, LOCK_ENTRY_BYTES, MAX_STATE_WORDS,
    SNAPSHOT_STEP_BYTES, STAMPED_STEP_BYTES,
};
use crate::WalError;
use slp_core::{EntityId, LockMode, ScheduledStep, StructuralState, TxId};
use std::fmt;

/// First bytes of every segment file. The trailing newline makes a
/// truncated-magic file obviously non-binary garbage in a hex dump.
pub const SEGMENT_MAGIC: &[u8; 8] = b"SLPWAL1\n";

/// Frames larger than this are rejected as torn/corrupt: a bigger length
/// field is a corrupted length field, and trusting it would make recovery
/// attempt an absurd allocation. The writer holds itself to the same
/// bound — a frame it wrote and recovery refused would silently end the
/// log there: a step batch of any length is split into frames of at most
/// [`MAX_FRAME_STEPS`] steps ([`encode_steps`]), and a checkpoint that
/// would not fit, or whose state the decoder would refuse, is a typed
/// error ([`encode_checkpoint`]), never a frame.
pub const MAX_FRAME_BYTES: usize = 1 << 20;

/// Most steps one `Steps` frame carries. A batch is a whole attempt (or
/// the part of one taken before a park), so its length is the job's, not
/// the log's, to choose; 4096 steps is ~70 KiB — about a default segment
/// — and far inside [`MAX_FRAME_BYTES`] even if every step is a snapshot
/// read.
pub const MAX_FRAME_STEPS: usize = 4096;
const _: () = assert!(1 + 4 + MAX_FRAME_STEPS * SNAPSHOT_STEP_BYTES <= MAX_FRAME_BYTES);

/// One durable log record.
#[derive(Clone, PartialEq, Eq, Debug)]
pub enum Record {
    /// A batch of sequence-stamped granted steps (one group-commit unit).
    Steps(Vec<(u64, ScheduledStep)>),
    /// Transaction `tx` committed; it is durably committed once the
    /// contiguous-stamp watermark reaches `required_watermark` (one past
    /// its last stamped step — all of its effects are then in the durable
    /// prefix).
    Commit {
        /// The committed transaction.
        tx: TxId,
        /// Watermark at which the commit becomes durable.
        required_watermark: u64,
    },
    /// A fuzzy checkpoint: the replayed state at a contiguous-stamp
    /// watermark. Recovery restarts from the newest surviving checkpoint
    /// and replays only the stamped tail past it. On the wire (kind 4):
    /// `[watermark u64][committed u64][word count u32][words u64 × n]
    /// [lock count u32][lock entries]`, the words being the state's
    /// canonical bitset ([`StructuralState::words`]).
    Checkpoint(Checkpoint),
}

/// The body of a [`Record::Checkpoint`].
#[derive(Clone, PartialEq, Eq, Debug)]
pub struct Checkpoint {
    /// Next expected stamp: every step with a smaller stamp is folded in.
    pub watermark: u64,
    /// Number of commit records durable at `watermark` when the
    /// checkpoint was written (the committed-transaction watermark; exact
    /// commit identities before this point may live in pruned segments).
    pub committed: u64,
    /// Structural state after applying all steps below `watermark`.
    pub state: StructuralState,
    /// Locks held at `watermark`, in acquisition order.
    pub locks: Vec<(EntityId, TxId, LockMode)>,
}

/// Why a frame could not be decoded — i.e. where the durable log ends.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum TornReason {
    /// Fewer than 8 bytes left: the len+crc header itself is torn.
    TruncatedHeader,
    /// The length field promises more bytes than the segment has.
    TruncatedPayload,
    /// The length field exceeds [`MAX_FRAME_BYTES`] (corrupt length).
    OversizeLength,
    /// The payload checksum does not match (torn or corrupted payload).
    BadChecksum,
    /// Checksum-valid payload that does not decode (unknown kind byte or
    /// malformed body) — a writer from the future or a logic bug; either
    /// way the tail is untrusted.
    BadPayload,
    /// The segment file is shorter than the magic, or the magic differs.
    BadMagic,
    /// A segment index is missing from the directory: everything after
    /// the hole is untrusted.
    MissingSegment,
}

impl fmt::Display for TornReason {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let s = match self {
            TornReason::TruncatedHeader => "torn frame header",
            TornReason::TruncatedPayload => "frame length exceeds remaining bytes",
            TornReason::OversizeLength => "frame length field corrupt (oversize)",
            TornReason::BadChecksum => "frame checksum mismatch",
            TornReason::BadPayload => "frame payload undecodable",
            TornReason::BadMagic => "bad segment magic",
            TornReason::MissingSegment => "segment missing from sequence",
        };
        f.write_str(s)
    }
}

const KIND_STEPS: u8 = 1;
const KIND_COMMIT: u8 = 2;
/// Kind 3, the entity-list checkpoint, is retired (see the module docs).
const KIND_CHECKPOINT: u8 = 4;

/// Opens a frame of `kind` at the end of `out`: the header is reserved
/// and filled in by [`close_frame`], so the payload is encoded in place.
fn open_frame(out: &mut Vec<u8>, kind: u8) -> usize {
    let at = out.len();
    out.extend_from_slice(&[0; 8]);
    out.push(kind);
    at
}

/// Writes the length and checksum of the frame opened at `at`.
fn close_frame(out: &mut [u8], at: usize) {
    let (header, payload) = out[at..].split_at_mut(8);
    assert!(payload.len() <= MAX_FRAME_BYTES, "frame exceeds the bound");
    header[..4].copy_from_slice(&(payload.len() as u32).to_le_bytes());
    header[4..].copy_from_slice(&crc32(payload).to_le_bytes());
}

/// One `Steps` frame; the caller bounds `entries` by [`MAX_FRAME_STEPS`].
fn steps_frame(out: &mut Vec<u8>, entries: &[(u64, ScheduledStep)]) {
    let at = open_frame(out, KIND_STEPS);
    put_u32(out, entries.len() as u32);
    for (stamp, step) in entries {
        put_stamped_step(out, *stamp, step);
    }
    close_frame(out, at);
}

/// Appends `entries` to `out` as `Steps` frames of at most
/// [`MAX_FRAME_STEPS`] steps each — none for an empty batch — and returns
/// how many frames that took.
pub fn encode_steps(out: &mut Vec<u8>, entries: &[(u64, ScheduledStep)]) -> usize {
    out.reserve(entries.len() * SNAPSHOT_STEP_BYTES + 16);
    let frames = entries.chunks(MAX_FRAME_STEPS);
    let count = frames.len();
    frames.for_each(|frame| steps_frame(out, frame));
    count
}

/// Appends a `Commit` frame to `out`.
pub fn encode_commit(out: &mut Vec<u8>, tx: TxId, required_watermark: u64) {
    let at = open_frame(out, KIND_COMMIT);
    put_u32(out, tx.0);
    put_u64(out, required_watermark);
    close_frame(out, at);
}

/// Appends a `Checkpoint` frame to `out` from the parts of a
/// [`Checkpoint`], borrowed. A checkpoint the decoder would refuse — one
/// past [`MAX_FRAME_BYTES`] (about 116 k lock entries), or a state naming
/// an id at or above [`MAX_ENTITIES`](slp_core::MAX_ENTITIES) — is
/// [`WalError::OversizeCheckpoint`] and writes nothing.
pub fn encode_checkpoint(
    out: &mut Vec<u8>,
    watermark: u64,
    committed: u64,
    state: &StructuralState,
    locks: &[LockEntry],
) -> Result<(), WalError> {
    let words = state.words().len();
    let payload = 1 + 8 + 8 + 4 + 8 * words + 4 + LOCK_ENTRY_BYTES * locks.len();
    if payload > MAX_FRAME_BYTES || words > MAX_STATE_WORDS {
        return Err(WalError::OversizeCheckpoint(payload));
    }
    out.reserve(8 + payload);
    let at = open_frame(out, KIND_CHECKPOINT);
    put_u64(out, watermark);
    put_u64(out, committed);
    put_state(out, state);
    put_u32(out, locks.len() as u32);
    for entry in locks {
        put_lock_entry(out, entry);
    }
    close_frame(out, at);
    Ok(())
}

/// Appends `record` to `out` as exactly one frame — the inverse of
/// [`decode_frame`] — and returns the frame's size. Panics on a record
/// one frame cannot hold; the log's writer goes through [`encode_steps`]
/// and [`encode_checkpoint`], which split or refuse instead.
pub fn encode_frame(out: &mut Vec<u8>, record: &Record) -> usize {
    let at = out.len();
    match record {
        Record::Steps(entries) => {
            assert!(entries.len() <= MAX_FRAME_STEPS, "split the batch");
            steps_frame(out, entries);
        }
        Record::Commit {
            tx,
            required_watermark,
        } => encode_commit(out, *tx, *required_watermark),
        Record::Checkpoint(c) => {
            encode_checkpoint(out, c.watermark, c.committed, &c.state, &c.locks)
                .expect("checkpoint fits one frame")
        }
    }
    out.len() - at
}

/// The outcome of decoding one frame off the front of `buf`.
#[derive(Clone, PartialEq, Eq, Debug)]
pub enum FrameOutcome<'a> {
    /// A record, plus the rest of the buffer.
    Record(Record, &'a [u8]),
    /// The buffer is exhausted — a clean segment end.
    End,
    /// The bytes from here on are torn or corrupt; recovery truncates.
    Torn(TornReason),
}

/// Decodes the frame at the start of `buf`. Total: never panics.
pub fn decode_frame(buf: &[u8]) -> FrameOutcome<'_> {
    if buf.is_empty() {
        return FrameOutcome::End;
    }
    if buf.len() < 8 {
        return FrameOutcome::Torn(TornReason::TruncatedHeader);
    }
    let (len, rest) = get_u32(buf).expect("8 bytes checked");
    let (crc, rest) = get_u32(rest).expect("8 bytes checked");
    let len = len as usize;
    if len > MAX_FRAME_BYTES {
        return FrameOutcome::Torn(TornReason::OversizeLength);
    }
    if rest.len() < len {
        return FrameOutcome::Torn(TornReason::TruncatedPayload);
    }
    let (payload, rest) = rest.split_at(len);
    if crc32(payload) != crc {
        return FrameOutcome::Torn(TornReason::BadChecksum);
    }
    match decode_payload(payload) {
        Some(record) => FrameOutcome::Record(record, rest),
        None => FrameOutcome::Torn(TornReason::BadPayload),
    }
}

/// Decodes a checksum-valid payload; `None` on any malformation.
fn decode_payload(payload: &[u8]) -> Option<Record> {
    let (&kind, body) = payload.split_first()?;
    match kind {
        KIND_STEPS => {
            let (count, mut body) = get_u32(body)?;
            // The count is untrusted until its entries decode: reserve
            // only what the body can hold.
            let mut entries =
                Vec::with_capacity((count as usize).min(body.len() / STAMPED_STEP_BYTES));
            for _ in 0..count {
                let (entry, rest) = get_stamped_step(body)?;
                entries.push(entry);
                body = rest;
            }
            body.is_empty().then_some(Record::Steps(entries))
        }
        KIND_COMMIT => {
            let (tx, body) = get_u32(body)?;
            let (required_watermark, body) = get_u64(body)?;
            body.is_empty().then_some(Record::Commit {
                tx: TxId(tx),
                required_watermark,
            })
        }
        KIND_CHECKPOINT => {
            let (watermark, body) = get_u64(body)?;
            let (committed, body) = get_u64(body)?;
            let (state, body) = get_state(body)?;
            let (count, mut body) = get_u32(body)?;
            let mut locks = Vec::with_capacity((count as usize).min(body.len() / LOCK_ENTRY_BYTES));
            for _ in 0..count {
                let (entry, rest) = get_lock_entry(body)?;
                locks.push(entry);
                body = rest;
            }
            body.is_empty().then_some(Record::Checkpoint(Checkpoint {
                watermark,
                committed,
                state,
                locks,
            }))
        }
        _ => None,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use slp_core::{Step, MAX_ENTITIES};

    fn steps_record() -> Record {
        Record::Steps(vec![
            (
                0,
                ScheduledStep::new(TxId(1), Step::lock_exclusive(EntityId(3))),
            ),
            (1, ScheduledStep::new(TxId(1), Step::insert(EntityId(3)))),
            (
                2,
                ScheduledStep::new(TxId(1), Step::unlock_exclusive(EntityId(3))),
            ),
        ])
    }

    fn checkpoint_record() -> Record {
        Record::Checkpoint(Checkpoint {
            watermark: 3,
            committed: 1,
            state: StructuralState::from_entities([EntityId(3), EntityId(9)]),
            locks: vec![(EntityId(9), TxId(4), LockMode::Shared)],
        })
    }

    #[test]
    fn frames_round_trip_back_to_back() {
        let records = [
            steps_record(),
            Record::Commit {
                tx: TxId(1),
                required_watermark: 3,
            },
            checkpoint_record(),
            Record::Steps(vec![]),
        ];
        let mut buf = Vec::new();
        for r in &records {
            encode_frame(&mut buf, r);
        }
        let mut rest: &[u8] = &buf;
        let mut decoded = Vec::new();
        loop {
            match decode_frame(rest) {
                FrameOutcome::Record(r, tail) => {
                    decoded.push(r);
                    rest = tail;
                }
                FrameOutcome::End => break,
                FrameOutcome::Torn(reason) => panic!("torn: {reason}"),
            }
        }
        assert_eq!(decoded, records);
    }

    /// The wire format, pinned byte for byte. `FIXTURE` is what the log's
    /// first writer (one payload `Vec` per record, bytewise CRC) produced
    /// for a steps batch with a snapshot read in it, a commit and a kind-3
    /// checkpoint; `CHECKPOINT_FIXTURE` is the same checkpoint in kind 4,
    /// written by hand: state {3, 9} is one word, `0x208`. Steps and
    /// commit frames are byte for byte the first writer's, so those frames
    /// of a log written by any revision decode today and the other way
    /// round; the kind-3 checkpoint is refused, never misread.
    #[test]
    fn the_wire_format_is_byte_for_byte_the_first_writers() {
        const FIXTURE: &str = "3c000000cd28e92001030000000700000000000000010000000300000005\
            0800000000000000020000000300000008010000000900000000000000010000000300000007\
            0d0000006ea34d6502010000000a00000000000000\
            2a0000000961fbc2030a00000000000000010000000000000002000000030000000900000001\
            000000090000000400000000";
        // Header, kind, watermark, committed, word count, the word, lock
        // count, the lock entry.
        const CHECKPOINT_FIXTURE: &str = "2a000000963cccd3\
            04\
            0a00000000000000\
            0100000000000000\
            01000000\
            0802000000000000\
            01000000\
            090000000400000000";
        let hex = |s: &str| -> Vec<u8> {
            (0..s.len() / 2)
                .map(|i| u8::from_str_radix(&s[2 * i..2 * i + 2], 16).expect("hex"))
                .collect()
        };
        let (fixture, checkpoint_fixture) = (hex(FIXTURE), hex(CHECKPOINT_FIXTURE));
        let steps = vec![
            (
                7,
                ScheduledStep::new(TxId(1), Step::lock_exclusive(EntityId(3))),
            ),
            (
                8,
                ScheduledStep::snapshot_read(TxId(2), EntityId(3), Some(TxId(1))),
            ),
            (
                9,
                ScheduledStep::new(TxId(1), Step::unlock_exclusive(EntityId(3))),
            ),
        ];
        let checkpoint = Checkpoint {
            watermark: 10,
            committed: 1,
            state: StructuralState::from_entities([EntityId(3), EntityId(9)]),
            locks: vec![(EntityId(9), TxId(4), LockMode::Shared)],
        };
        let mut buf = Vec::new();
        assert_eq!(encode_steps(&mut buf, &steps), 1);
        encode_commit(&mut buf, TxId(1), 10);
        let (old_frames, old_checkpoint) = fixture.split_at(buf.len());
        assert_eq!(buf, old_frames);
        buf.clear();
        encode_checkpoint(&mut buf, 10, 1, &checkpoint.state, &checkpoint.locks).unwrap();
        assert_eq!(buf, checkpoint_fixture);

        let mut rest: &[u8] = &fixture;
        let mut decoded = Vec::new();
        while let FrameOutcome::Record(r, tail) = decode_frame(rest) {
            decoded.push(r);
            rest = tail;
        }
        assert_eq!(rest, old_checkpoint);
        assert_eq!(
            decode_frame(old_checkpoint),
            FrameOutcome::Torn(TornReason::BadPayload),
            "a retired kind-3 checkpoint is refused"
        );
        decoded.push(match decode_frame(&checkpoint_fixture) {
            FrameOutcome::Record(r, []) => r,
            other => panic!("{other:?}"),
        });
        assert_eq!(
            decoded,
            [
                Record::Steps(steps),
                Record::Commit {
                    tx: TxId(1),
                    required_watermark: 10
                },
                Record::Checkpoint(checkpoint)
            ]
        );
    }

    #[test]
    fn a_long_batch_is_split_into_frames_the_decoder_accepts() {
        let entries: Vec<(u64, ScheduledStep)> = (0..2 * MAX_FRAME_STEPS as u64 + 5)
            .map(|i| (i, ScheduledStep::new(TxId(1), Step::read(EntityId(0)))))
            .collect();
        let mut buf = Vec::new();
        assert_eq!(encode_steps(&mut buf, &entries), 3);
        assert_eq!(encode_steps(&mut buf, &[]), 0, "an empty batch is no frame");
        let mut rest: &[u8] = &buf;
        let mut decoded = Vec::new();
        while let FrameOutcome::Record(Record::Steps(frame), tail) = decode_frame(rest) {
            assert!(frame.len() <= MAX_FRAME_STEPS);
            decoded.extend(frame);
            rest = tail;
        }
        assert!(rest.is_empty(), "every frame decoded");
        assert_eq!(decoded, entries);
    }

    #[test]
    fn a_checkpoint_past_the_frame_bound_is_an_error_not_a_frame() {
        // 9 bytes a lock entry: the bound falls between these two tables.
        let locks = |n: u32| -> Vec<LockEntry> {
            (0..n)
                .map(|i| (EntityId(i), TxId(1), LockMode::Exclusive))
                .collect()
        };
        let state = StructuralState::from_entities((0..1024).map(EntityId));
        let mut buf = Vec::new();
        encode_checkpoint(&mut buf, 0, 0, &state, &locks(116_000)).unwrap();
        assert!(matches!(decode_frame(&buf), FrameOutcome::Record(_, [])));
        let len = buf.len();
        assert!(matches!(
            encode_checkpoint(&mut buf, 0, 0, &state, &locks(117_000)),
            Err(WalError::OversizeCheckpoint(bytes)) if bytes > MAX_FRAME_BYTES
        ));
        assert_eq!(buf.len(), len, "a refused checkpoint writes nothing");
    }

    /// A state naming an id the decoder refuses is refused by the writer
    /// too: its frame would be small, but recovery could not read it.
    #[test]
    fn a_checkpoint_naming_an_id_past_max_entities_is_an_error_not_a_frame() {
        let last = StructuralState::from_entities([EntityId(MAX_ENTITIES - 1)]);
        let past = StructuralState::from_entities([EntityId(MAX_ENTITIES)]);
        let mut buf = Vec::new();
        encode_checkpoint(&mut buf, 0, 0, &last, &[]).unwrap();
        assert!(matches!(decode_frame(&buf), FrameOutcome::Record(_, [])));
        let len = buf.len();
        assert!(matches!(
            encode_checkpoint(&mut buf, 0, 0, &past, &[]),
            Err(WalError::OversizeCheckpoint(_))
        ));
        assert_eq!(buf.len(), len, "a refused checkpoint writes nothing");
    }

    #[test]
    fn every_truncation_is_torn_never_a_panic() {
        let mut buf = Vec::new();
        encode_frame(&mut buf, &steps_record());
        encode_frame(&mut buf, &checkpoint_record());
        let full = {
            let mut n = 0;
            let mut rest: &[u8] = &buf;
            while let FrameOutcome::Record(_, tail) = decode_frame(rest) {
                n += 1;
                rest = tail;
            }
            n
        };
        assert_eq!(full, 2);
        for cut in 0..buf.len() {
            // Walk the truncated prefix to its end: each decode is either a
            // record, a clean end (cut on a frame boundary), or a typed
            // torn verdict — never a panic, never an infinite loop.
            let mut rest = &buf[..cut];
            let mut guard = 0;
            while let FrameOutcome::Record(_, tail) = decode_frame(rest) {
                rest = tail;
                guard += 1;
                assert!(guard <= 2, "more frames than were written");
            }
        }
    }

    #[test]
    fn corruption_is_caught_by_checksum_or_bounds() {
        let mut buf = Vec::new();
        encode_frame(&mut buf, &steps_record());
        for i in 0..buf.len() {
            let mut corrupt = buf.clone();
            corrupt[i] ^= 0x40;
            match decode_frame(&corrupt) {
                FrameOutcome::Torn(_) => {}
                FrameOutcome::Record(r, _) => {
                    panic!("flip at byte {i} decoded as {r:?}")
                }
                FrameOutcome::End => panic!("flip at byte {i} read as end"),
            }
        }
    }

    #[test]
    fn oversize_length_field_is_rejected_before_allocation() {
        let mut buf = Vec::new();
        put_u32(&mut buf, (MAX_FRAME_BYTES + 1) as u32);
        put_u32(&mut buf, 0);
        buf.extend_from_slice(&[0; 16]);
        assert_eq!(
            decode_frame(&buf),
            FrameOutcome::Torn(TornReason::OversizeLength)
        );
    }

    /// A checksum-valid frame around `payload`.
    fn framed(payload: &[u8]) -> Vec<u8> {
        let mut buf = Vec::new();
        put_u32(&mut buf, payload.len() as u32);
        put_u32(&mut buf, crc32(payload));
        buf.extend_from_slice(payload);
        buf
    }

    #[test]
    fn unknown_kind_with_valid_checksum_is_bad_payload() {
        assert_eq!(
            decode_frame(&framed(&[99u8, 1, 2, 3])),
            FrameOutcome::Torn(TornReason::BadPayload)
        );
    }

    /// Corruption the checksum cannot see: every single-bit flip of a
    /// payload, framed with a recomputed CRC, decodes to a record or to
    /// `BadPayload` — and a count field claiming `u32::MAX` entries is
    /// refused without reserving room for them.
    #[test]
    fn a_checksum_valid_corrupt_payload_is_a_record_or_bad_payload() {
        let steps = Record::Steps(vec![
            (
                7,
                ScheduledStep::new(TxId(1), Step::lock_exclusive(EntityId(3))),
            ),
            (
                8,
                ScheduledStep::snapshot_read(TxId(2), EntityId(3), Some(TxId(1))),
            ),
        ]);
        let commit = Record::Commit {
            tx: TxId(1),
            required_watermark: 9,
        };
        for record in [steps, commit, checkpoint_record()] {
            let mut buf = Vec::new();
            encode_frame(&mut buf, &record);
            let payload = buf.split_off(8);
            for bit in 0..payload.len() * 8 {
                let mut flipped = payload.clone();
                flipped[bit / 8] ^= 1 << (bit % 8);
                match decode_frame(&framed(&flipped)) {
                    FrameOutcome::Record(..) | FrameOutcome::Torn(TornReason::BadPayload) => {}
                    other => panic!("{record:?}, bit {bit}: {other:?}"),
                }
            }
        }

        // The count field sits right after the kind byte of a `Steps`
        // payload, and after watermark, committed and the state of a
        // checkpoint's; the zero bytes behind it hold an entry or two.
        let mut huge_steps = vec![KIND_STEPS];
        put_u32(&mut huge_steps, u32::MAX);
        let mut huge_locks = vec![KIND_CHECKPOINT];
        put_u64(&mut huge_locks, 3);
        put_u64(&mut huge_locks, 1);
        put_state(&mut huge_locks, &StructuralState::empty());
        put_u32(&mut huge_locks, u32::MAX);
        for mut payload in [huge_steps, huge_locks] {
            payload.resize(payload.len() + SNAPSHOT_STEP_BYTES, 0);
            assert_eq!(
                decode_frame(&framed(&payload)),
                FrameOutcome::Torn(TornReason::BadPayload)
            );
        }

        // A state past the bound any run names, written by hand: a word
        // count of 2^25 (an id near bit 31) and a bitset with a trailing
        // zero word, which no state has. Both are refused before any word
        // is read into a state.
        let checkpoint_with = |count: u32, words: &[u64]| {
            let mut payload = vec![KIND_CHECKPOINT];
            put_u64(&mut payload, 3);
            put_u64(&mut payload, 1);
            put_u32(&mut payload, count);
            for &w in words {
                put_u64(&mut payload, w);
            }
            put_u32(&mut payload, 0);
            payload
        };
        let far_state = checkpoint_with(1 << 25, &[1]);
        let zero_tail = checkpoint_with(2, &[0x208, 0]);
        assert!(matches!(
            decode_frame(&framed(&checkpoint_with(2, &[0x208, 1]))),
            FrameOutcome::Record(..)
        ));
        // An entity id at bit 31 as an `Insert` step.
        let far = 1 << 31;
        let mut far_insert = Vec::new();
        encode_frame(
            &mut far_insert,
            &Record::Steps(vec![(
                0,
                ScheduledStep::new(TxId(1), Step::insert(EntityId(far))),
            )]),
        );
        for payload in [far_state, zero_tail, far_insert.split_off(8)] {
            assert_eq!(
                decode_frame(&framed(&payload)),
                FrameOutcome::Torn(TornReason::BadPayload)
            );
        }
    }

    /// A bad tag inside a checksum-valid body ends the log like any other
    /// malformed payload. The last byte of each record below is a tag: a
    /// step's op byte (8 is the snapshot-read tag, whose observed-writer
    /// field is then missing; 9 is no tag at all) and a lock entry's mode
    /// byte.
    #[test]
    fn unknown_op_or_mode_tag_with_valid_checksum_is_bad_payload() {
        let step = Record::Steps(vec![(
            4,
            ScheduledStep::new(TxId(1), Step::write(EntityId(2))),
        )]);
        for (record, tag) in [(&step, 8), (&step, 9), (&checkpoint_record(), 9)] {
            let mut buf = Vec::new();
            encode_frame(&mut buf, record);
            let mut payload = buf.split_off(8);
            assert!(matches!(
                decode_frame(&framed(&payload)),
                FrameOutcome::Record(..)
            ));
            *payload.last_mut().expect("nonempty") = tag;
            assert_eq!(
                decode_frame(&framed(&payload)),
                FrameOutcome::Torn(TornReason::BadPayload),
                "{record:?} with tag {tag}"
            );
        }
    }
}
