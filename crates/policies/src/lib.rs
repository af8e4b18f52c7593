//! # slp-policies — locking policies for dynamic databases
//!
//! Implementations of the locking policies studied in *Safe Locking
//! Policies for Dynamic Databases* (Chaudhri & Hadzilacos), plus the
//! baselines they build on and mutant variants for ablation:
//!
//! | module | policy | paper section |
//! |--------|--------|---------------|
//! | [`two_phase`] | strict & conservative 2PL generators + validator | baseline (condition 1 of Theorem 1) |
//! | [`tree`] | tree-protocol planner & validator \[SK80\] | substrate for Section 6 |
//! | [`ddag`] | dynamic DAG policy engine (rules L1–L5) | Section 4 |
//! | [`altruistic`] | altruistic locking engine (rules AL1–AL3) \[SGMS94\] | Section 5 |
//! | [`dtr`] | dynamic tree policy engine (rules DT0–DT3) \[CM86\] | Section 6 |
//! | [`mutants`] | deliberately unsafe lockers (negative controls) | — |
//! | [`probes`] | planners whose plans exercise the DDAG mutants' ablated rules | — |
//! | [`plan`] | jobs and the per-policy planners that turn them into action plans | Sections 4–6 |
//!
//! The engines share one shape, made explicit by the [`api`] module: they
//! maintain the shared structure (graph / wake sets / forest), enforce
//! every rule *online*, emit the [`slp_core::Step`]s realizing each
//! action, and distinguish **rule violations** (the transaction must
//! abort) from **lock conflicts** (the transaction may wait) so a
//! scheduler can queue. The three global-scope engines (DDAG, altruistic,
//! DTR — and 2PL, which runs on the altruistic engine) keep their
//! per-transaction rule state in one crate-private table: a slot per
//! active transaction in a `Vec` sorted by [`slp_core::TxId`], holding
//! what it locked in the past and what it holds now as short `Vec`s plus
//! one engine-specific part, beside the engine's lock table. It owns
//! `begin`, slot lookup, the lock path (which refuses an id at or above
//! [`slp_core::MAX_ENTITIES`]) and retirement; it iterates by id and
//! hands held entities out in id order.
//!
//! Every engine implements the object-safe [`PolicyEngine`] trait, and
//! [`PolicyRegistry`] builds any of them — mutants included — from a
//! [`PolicyKind`] or a name:
//!
//! ```
//! use slp_policies::{AccessIntent, PolicyAction, PolicyConfig, PolicyKind, PolicyRegistry};
//! use slp_core::{EntityId, TxId};
//!
//! let registry = PolicyRegistry::new();
//! let config = PolicyConfig::flat((0..4).map(EntityId).collect());
//! let mut engine = registry.build(PolicyKind::TwoPhase, &config).unwrap();
//! engine.begin(TxId(1), &AccessIntent::empty()).unwrap();
//! let steps = engine
//!     .request(TxId(1), PolicyAction::Lock(EntityId(0)))
//!     .expect_granted();
//! assert_eq!(steps.len(), 1);
//! ```
//!
//! An engine holds a policy's rules; [`plan`] holds the other half, the
//! plan a transaction follows: a [`Job`] says what a transaction wants,
//! and the policy's [`ActionPlanner`] ([`planner_for`]) says how it locks
//! for it. Both executors — the `slp-sim` simulator and the `slp-runtime`
//! service — drive every job through these two halves, and pick deadlock
//! victims with one [`WaitsFor`] table ([`waits`]).

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod altruistic;
pub mod api;
pub mod ddag;
pub mod dtr;
pub mod mutants;
pub mod plan;
pub mod probes;
pub mod registry;
pub mod tree;
pub mod two_phase;
mod txtable;
pub mod waits;

pub use altruistic::{AltruisticConfig, AltruisticEngine, AltruisticViolation};
pub use api::{
    AccessIntent, GrantScope, PlanViolation, PolicyAction, PolicyEngine, PolicyResponse,
    PolicyViolation,
};
pub use ddag::{DdagConfig, DdagEngine, DdagViolation};
pub use dtr::{DtrEngine, DtrViolation};
pub use plan::{
    initial_state, planner_for, ActionPlanner, AltruisticPlanner, DdagPlanner, DtrPlanner,
    InsertUnder, Job, TwoPhasePlanner,
};
pub use probes::{CrawlProbePlanner, ShoulderProbePlanner};
pub use registry::{PolicyBuilder, PolicyConfig, PolicyKind, PolicyRegistry, RegistryError};
pub use tree::{is_tree_locked, tree_lock_plan, PlanError, TreeLockViolation};
pub use two_phase::TwoPhaseEngine;
pub use waits::WaitsFor;
