//! Durability for the transaction runtime: a segmented write-ahead log
//! with group commit, fuzzy checkpoints, and torn-tail-tolerant crash
//! recovery.
//!
//! # What is logged
//!
//! The runtime's lock service produces a totally ordered trace of granted
//! steps (each carrying a dense sequence stamp — see
//! `slp_runtime::LockService`). Durability is a replica of that trace:
//!
//! - [`frame::Record::Steps`] — a batch of stamped steps: an attempt, or
//!   the part of one taken before its worker parked;
//! - [`frame::Record::Commit`] — a transaction finished, durable once the
//!   contiguous-stamp watermark covers its last step;
//! - [`frame::Record::Checkpoint`] — the replayed [`StructuralState`] plus
//!   held locks at a watermark, so recovery replays only the tail.
//!
//! Records are framed with a length + CRC-32 header ([`frame`]), appended
//! to numbered segment files ([`store`]), and fsynced at configurable
//! group boundaries ([`wal`]).
//!
//! # Crash recovery
//!
//! [`recover::recover`] rebuilds state from whatever bytes survived: it
//! parses frames until the first torn or corrupt one, truncates there
//! (**never** panics on garbage), seeds from a surviving checkpoint, and
//! replays the contiguous stamped tail. Because conflict-serializability
//! is prefix-closed, any contiguous stamp-prefix of a safe run is itself
//! a legal, proper, serializable run — recovery therefore lands on a
//! prefix-consistent execution no matter where the crash cut the log.
//! `slp-runtime`'s crash grid (`tests/crash_recovery.rs`) holds that line
//! on 32 small durable runs, with no point sampled: every byte prefix of
//! each log, the store after every call the log made to it (crashed
//! keeping and dropping its unsynced bytes), and a bit flip in every
//! segment-magic, frame-header and frame-kind byte.
//!
//! [`StructuralState`]: slp_core::StructuralState

#![warn(missing_docs)]

use std::fmt;

mod crc;
pub mod frame;
pub mod handover;
pub mod recover;
pub mod store;
pub mod wal;
mod wire;

pub use crc::crc32;
pub use frame::{Checkpoint, Record, TornReason, SEGMENT_MAGIC};
pub use handover::Handover;
pub use recover::{recover, RecoverError, Recovered, RecoveryMode, Truncation};
pub use store::{DirStore, FaultyStore, MemStore, SharedMemStore, Store};
pub use wal::{Wal, WalConfig, WalSummary};

/// Why a log operation failed.
#[derive(Clone, PartialEq, Eq, Debug)]
pub enum WalError {
    /// The backing store reported an I/O failure.
    Io(String),
    /// The store (or an injected fault) simulated a crash: the write may
    /// be partially applied and nothing later will succeed.
    Crashed,
    /// [`Wal::create`] was given a store that already holds segments; a
    /// log is created exactly once per run (recover from it instead).
    LogNotEmpty,
    /// The checkpoint replica is one recovery would refuse: its payload
    /// would be this many bytes, past [`frame::MAX_FRAME_BYTES`], or its
    /// state names an entity id at or above
    /// [`MAX_ENTITIES`](slp_core::MAX_ENTITIES) — so it is not written
    /// and logging stops.
    OversizeCheckpoint(usize),
    /// An appended step names this entity, at or above
    /// [`MAX_ENTITIES`](slp_core::MAX_ENTITIES): recovery would refuse
    /// its frame and stop there, so the batch is not written and logging
    /// stops.
    EntityOutOfRange(slp_core::EntityId),
    /// A step's stamp lies this far past the watermark — further than
    /// any run's out-of-order overhang, so the stamps are not the dense
    /// sequence the log is a replica of.
    StampGap(u64),
}

impl fmt::Display for WalError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            WalError::Io(e) => write!(f, "log i/o error: {e}"),
            WalError::Crashed => f.write_str("log store crashed"),
            WalError::LogNotEmpty => f.write_str("store already contains a log"),
            WalError::OversizeCheckpoint(bytes) => {
                write!(f, "checkpoint of {bytes} bytes exceeds one frame")
            }
            WalError::EntityOutOfRange(e) => write!(f, "step names {e}, past MAX_ENTITIES"),
            WalError::StampGap(gap) => write!(f, "stamp {gap} past the watermark: not dense"),
        }
    }
}

impl std::error::Error for WalError {}

impl From<std::io::Error> for WalError {
    fn from(e: std::io::Error) -> Self {
        WalError::Io(e.to_string())
    }
}
