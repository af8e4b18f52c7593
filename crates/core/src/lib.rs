//! # slp-core — the model of *Safe Locking Policies for Dynamic Databases*
//!
//! This crate implements the formal model of Chaudhri & Hadzilacos
//! (PODS 1995 / JCSS 1998): dynamic databases whose *structural state*
//! changes under `INSERT`/`DELETE`, transactions and locked transactions
//! over the operations `{R, W, I, D, LS, LX, US, UX}`, schedules with the
//! **properness** and **legality** predicates, conflict serializability via
//! the serializability graph `D(S)`, the schedule transformations of
//! Lemmas 1–2, and the canonical-schedule certificates of **Theorem 1**.
//!
//! ## Layout
//!
//! | module | contents |
//! |--------|----------|
//! | [`entity`] | [`EntityId`], [`Universe`] interner |
//! | [`ops`] | [`DataOp`], [`LockMode`], [`Operation`] |
//! | [`step`] | [`Step`] = (operation, entity) |
//! | [`txn`] | [`Transaction`], [`LockedTransaction`], well-formedness |
//! | [`state`] | [`StructuralState`], [`ValueState`], step definedness |
//! | [`schedule`] | [`Schedule`], properness/legality, [`ScheduleSimulator`] |
//! | [`sgraph`] | [`SerializationGraph`] `D(S)` with witnesses, the batch model |
//! | [`serializability`] | conflict-serializability tests and witnesses |
//! | [`interaction`] | interaction multigraph + chordless cycles (Fig. 2) |
//! | [`transform`] | Lemma 1 [`transpose`], Lemma 2 [`move_to_back`] |
//! | [`canonical`] | [`CanonicalWitness`] — Theorem 1 certificates |
//! | [`system`] | [`TransactionSystem`], [`SystemBuilder`] |
//! | [`display`] | paper-style schedule rendering |
//! | [`explain`](mod@explain) | [`Explanation`] — a `D(S)` cycle or serial order, in words |
//!
//! ## Quick start
//!
//! ```
//! use slp_core::{Schedule, StructuralState, SystemBuilder, TxId};
//! use slp_core::serializability::is_serializable;
//!
//! // The paper's Section 2 example: T1 and T2 on an initially empty DB.
//! let mut b = SystemBuilder::new();
//! b.tx(1).insert("a").insert("b").write("c").insert("d").finish();
//! b.tx(2).read("a").delete("b").insert("c").finish();
//! let system = b.build();
//!
//! // The proper interleaving: (I a)(I b)(R a)(D b)(I c)(W c)(I d).
//! let order = [TxId(1), TxId(1), TxId(2), TxId(2), TxId(2), TxId(1), TxId(1)];
//! let s = Schedule::interleave(system.transactions(), &order).unwrap();
//! assert!(s.is_proper(&StructuralState::empty()));
//!
//! // Proper does not mean serializable: T1 precedes T2 on a and b, but T2
//! // precedes T1 on c, so D(S) has a cycle. (These transactions carry no
//! // locks — locking policies exist precisely to exclude such schedules.)
//! assert!(!is_serializable(&s));
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod canonical;
pub mod display;
pub mod entity;
pub mod explain;
pub mod interaction;
pub mod ops;
pub mod schedule;
pub mod serializability;
pub mod sgraph;
pub mod state;
pub mod step;
pub mod system;
pub mod transform;
pub mod txn;

pub use canonical::{CanonicalViolation, CanonicalWitness};
pub use entity::{EntityId, Universe, MAX_ENTITIES};
pub use explain::{explain, explain_nonserializable, Explanation};
pub use interaction::InteractionGraph;
pub use ops::{DataOp, LockMode, Operation};
pub use schedule::{
    Access, LegalViolation, LockTable, ProperViolation, Schedule, ScheduleSimulator, ScheduledStep,
    SequenceError, StepError, UndoToken,
};
pub use serializability::{
    are_conflict_equivalent, equivalent_serial_schedule, is_serializable,
    is_serializable_with_aborts,
};
pub use sgraph::{ConflictEdge, SerializationGraph};
pub use state::{StructuralState, UndefinedStep, ValueState};
pub use step::Step;
pub use system::{SystemBuilder, TransactionSystem, TxBuilder};
pub use transform::{move_to_back, transpose, TransposeError};
pub use txn::{LockedTransaction, Transaction, TxId, TxnViolation};
