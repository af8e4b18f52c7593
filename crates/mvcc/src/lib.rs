//! # slp-mvcc — multi-version entity store for snapshot reads
//!
//! Read-only jobs should never block writers — or be blocked by them. The
//! paper's locking policies serialize *writers*; this crate adds the
//! versioned side that lets readers bypass the lock service entirely:
//!
//! * [`TxStatusTable`] — a lock-free status slot per transaction id:
//!   `InProgress → Committed(stamp) | Aborted`, flipped by one atomic
//!   compare-and-swap. The flip **is** the commit: every version a writer
//!   installed becomes visible to later snapshots at that instant,
//!   atomically, with no commit-time write-backs to the versions.
//! * [`MvccStore`] — per-entity version chains. A writer installs a
//!   [`Version`] (`xmin` = its id, `stamp` = the trace stamp of the
//!   installing write) at lock-grant time; a delete sets the newest
//!   version's `xmax`. Versions of aborted writers are never rolled
//!   back — the status table makes them permanently invisible.
//! * [`Snapshot`] — `read_stamp`, the published commit clock at capture,
//!   and `base_stamp`, the first trace stamp of its reads. A version is
//!   visible iff its `xmin` committed at or below `read_stamp` and its
//!   `xmax` (if any) did not ([`MvccStore::read`]).
//! * [`CommitPipeline`] — issues commit stamps and defers a writer's flip
//!   until every lock-order predecessor has resolved, cascading deferred
//!   flips when their predecessors land. Early lock release (altruistic
//!   donation, DDAG crawling) makes raw commit order diverge from
//!   conflict order; the pipeline restores the invariant snapshots need:
//!   **the flipped set at any capture is a downward-closed prefix of the
//!   serialization order**, so every snapshot reads a consistent cut.
//!   A capture takes no lock, and a writer takes the pipeline's one mutex
//!   only to flip or to wait on an unresolved predecessor.
//!
//! The [`VisibilityRule::Broken`] mutant deliberately lets snapshots see
//! in-progress writers — the scripted negative control that the online
//! certifier must flag as nonserializable.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod pipeline;
mod spine;
mod store;
mod tst;

pub use pipeline::{CommitOutcome, CommitPipeline, Snapshot};
pub use store::{MvccStore, ObservedRead, Version, VisibilityRule};
pub use tst::{TxStatus, TxStatusTable, TX_SLOTS};
