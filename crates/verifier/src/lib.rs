//! # slp-verifier — safety verification for locked transaction systems
//!
//! Two independent deciders for the paper's central question, *is this
//! locked transaction system safe?* (every legal & proper schedule
//! serializable):
//!
//! * [`explorer::verify_safety`] — **exhaustive**: memoized DFS over all
//!   legal & proper interleavings, looking for a nonserializable complete
//!   schedule. Ground truth for small systems.
//! * [`canonical_search::find_canonical_witness`] — **Theorem 1**: only
//!   canonical candidates are enumerated (a serial execution of prefixes
//!   plus a culprit lock step satisfying conditions 1, 2a, 2b). Correct by
//!   the paper's main theorem; experiment E6 cross-validates the two
//!   deciders on randomized systems.
//!
//! The exhaustive decider is one sequential search; [`ParallelVerifier`]
//! is only another name for [`explorer::verify_safety`], kept while the
//! benchmark calls it.
//!
//! The exhaustive search's state lives in [`edges`]: the `D(S)` edge
//! sets ([`EdgeSet`], with a `u128` fast path and a words
//! fallback for any transaction count), the per-entity [`ConflictIndex`]
//! that yields each step's edge delta, and the packed memo key
//! ([`pack_positions`]). The batch graph they are tested against is
//! [`slp_core::SerializationGraph`].
//!
//! Supporting modules: [`minimize`] (witness shrinking) and [`gen`]
//! (seeded random system generation). The retained clone-per-node
//! explorer, the agreement oracle for the optimized apply/undo DFS, lives
//! with the tests (`verifier/tests/reference/`).

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod canonical_search;
pub mod edges;
pub mod explorer;
pub mod gen;
mod memo;
pub mod minimize;

pub use canonical_search::{find_canonical_witness, CanonicalBudget, CanonicalOutcome};
pub use edges::{mask_has_cycle, pack_positions, ConflictIndex, EdgeSet};
pub use explorer::{
    complete_schedule, complete_schedule_randomized, verify_safety, ParallelVerifier, SearchBudget,
    SearchStats, Verdict,
};
pub use gen::{random_system, GenParams};
pub use minimize::minimize_witness;
