//! # slp-runtime — a concurrent transaction runtime over the policy API
//!
//! The paper's safety theorems are statements about *executions*: any
//! legal, proper schedule a safe policy admits is serializable. The
//! discrete-event simulator (`slp-sim`) produces such executions one
//! deterministic interleaving at a time; this crate produces them the way
//! a database would — N worker threads submitting [`slp_policies::Job`]s
//! against one shared [`slp_policies::PolicyEngine`], with real blocking,
//! real wakeups, and real races — and captures a lossless total order of
//! every granted step so each run can be re-verified offline against the
//! formal model.
//!
//! * [`Runtime`] — build a service for any [`slp_policies::PolicyKind`]
//!   and [`Runtime::run`] a job queue;
//! * [`RuntimeConfig`] — worker count, park timeout, per-step yield,
//!   the mode switches described below, wall-clock guard — set in code
//!   only;
//! * **durability** — [`Runtime::run_durable`] mirrors every granted step
//!   and commit into a `slp-durability` write-ahead log (group-committed,
//!   checkpointed), handed over one attempt at a time once the attempt
//!   holds no lock; after a crash, [`fn@recover`] replays the surviving
//!   prefix into a certified execution. Key log types are re-exported
//!   here so durable runs need no direct `slp-durability` dependency;
//! * [`RuntimeReport`] — the simulator's accounting shape (committed /
//!   policy aborts / deadlock aborts / rejected; attempts always balance)
//!   plus wall-clock throughput, commit-latency percentiles, and the
//!   merged [`slp_core::Schedule`] trace (the workers' stamp-ordered
//!   runs, merged in linear time by
//!   [`slp_core::Schedule::from_sequenced_runs`]) with its initial
//!   structural state, ready for legality / properness /
//!   serializability replay;
//! * **online certification** — [`RuntimeConfig::certify_online`]
//!   ([`CertifyMode::Strict`]) feeds every attempt's stamped steps to an
//!   incremental serialization-graph certifier
//!   ([`IncrementalCertifier`]) before the attempt takes
//!   effect: a cycle is detected at the closing edge and broken by
//!   aborting the transaction that closed it (counted in
//!   [`RuntimeReport::certification_aborts`], the first caught cycle kept
//!   in [`RuntimeReport::certification`]), with committed-prefix
//!   truncation keeping graph memory bounded on million-job runs;
//! * **MVCC snapshot reads** — [`RuntimeConfig::snapshot_reads`] serves
//!   read-only jobs from an `slp-mvcc` versioned store: writers install
//!   versions at grant time and flip visibility atomically at commit (in
//!   lock order, strictly after the WAL commit record), readers capture a
//!   [`slp_mvcc::Snapshot`] and never touch the lock service. Snapshot
//!   reads enter the trace as stamped [`slp_core::ScheduledStep`]s so
//!   both the online certifier and offline replay cover them;
//! * **batch scheduling** — [`RuntimeConfig::scheduler`] puts an
//!   admission-stage conflict-DAG scheduler in front of the worker pool
//!   ([`SchedMode::Waves`]): the job queue is layered into
//!   conflict-free waves from the declared access intents (structural
//!   jobs fence a wave boundary) so declared conflicts are ordered up
//!   front instead of discovered at grant time, with parking kept as
//!   the safety net. [`SchedMode::Deterministic`] additionally pins
//!   transaction ids and the merged trace to admission order — a
//!   replayable block-execution mode whose outcome fingerprint and
//!   schedule are byte-identical across worker counts (see the
//!   `scheduler` module docs).
//!
//! ## Architecture
//!
//! A worker plans a job under the engine's *read* lock, opens the
//! attempt, and then drives it through one loop over one entry point,
//! `advance`: it grants the plan from the attempt's cursor until the
//! attempt is over (committed or refused) or an action conflicts; a
//! conflict publishes a waits-for edge (requester-victim rule on a closed
//! cycle, in the simulator's [`slp_policies::WaitsFor`] table), parks on
//! the contended entity's stripe against the generation read at the
//! conflict, retracts the edge and advances again from the same action.
//! The wall-clock guard is checked at attempt start and at every
//! conflict. Where granted steps come from is fixed for the whole run.
//! In an *engine run* the engine rules under its write lock — the
//! serialization point for grants that read global policy state — one
//! section per wake-up of an attempt: begin, the grants up to the first
//! conflict and finish share one acquisition (one engine call per
//! section with [`RuntimeConfig::step_yield`] on). In a *word run* — per-entity policies
//! ([`slp_policies::GrantScope::PerEntity`], e.g. 2PL) with
//! [`RuntimeConfig::grant_fast_path`] on (the default) — each grant is
//! a CAS on the entity's own atomic lock word, the engine's write lock
//! is never taken, and a plan outside the plain lock/access shape is refused.
//! A run has one grant authority, words or engine, never both. Everything
//! around the decision is shared and sharded: entity-striped condvars
//! woken only by releases hashing to their stripe, per-worker trace
//! recording with one atomic sequence stamp taken inside the grant, one
//! retire tail (free words → wake → certify → log → commit pipeline),
//! and a park-timeout backstop. What a worker counts and records it
//! owns: tallies are plain integers summed after the join, and the
//! attempt it is running lives in a small reused buffer that is sealed
//! into fixed-size chunks when the attempt ends — however it ends — so
//! a worker's trace never regrows and is already in stamp order when
//! the runs are merged. The lost-wakeup and stamp-ordering arguments
//! live in the `service` and `fastpath` module docs (source).

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod certifier;
mod fastpath;
mod service;
mod trace;

pub mod report;
pub mod runner;
pub mod scheduler;

pub use report::{Certification, LatencySummary, RuntimeReport};
pub use runner::{CertifyMode, PlannerFactory, Runtime, RuntimeConfig};
pub use scheduler::SchedMode;

pub use certifier::{CertStats, CertViolation, IncrementalCertifier};

// The MVCC surface a snapshot-read run touches (the store internals stay
// in `slp_mvcc`).
pub use slp_mvcc::{Snapshot, TxStatus};

// The durability surface a durable run touches: create a log, run against
// it, recover after a crash. (The fault-injection stores and frame-level
// API stay in `slp_durability`.)
pub use slp_durability::{
    recover, DirStore, MemStore, Recovered, RecoveryMode, SharedMemStore, Store, Wal, WalConfig,
    WalError, WalSummary,
};
