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
//! The exhaustive decider also runs **in parallel**:
//! [`parallel::ParallelVerifier`] runs the explorer's one DFS on a
//! work-stealing thread pool, each worker with its own memo (the
//! sequential explorer's), with batched work donation, a state budget
//! counted across workers, and early cancellation;
//! `verifier/tests/parallel_agreement.rs` pins its verdicts to the
//! sequential explorer's differentially, and a one-worker pool to its
//! exact result.
//!
//! Supporting modules: [`minimize`] (witness shrinking) and [`gen`]
//! (seeded random system generation). The retained clone-per-node
//! explorer, the agreement oracle for the optimized apply/undo DFS, lives
//! with the tests (`verifier/tests/reference/`).

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod canonical_search;
pub mod explorer;
pub mod gen;
mod memo;
pub mod minimize;
pub mod parallel;

pub use canonical_search::{find_canonical_witness, CanonicalBudget, CanonicalOutcome};
pub use explorer::{
    complete_schedule, complete_schedule_randomized, verify_safety, SearchBudget, SearchStats,
    Verdict,
};
pub use gen::{random_system, GenParams};
pub use minimize::minimize_witness;
pub use parallel::ParallelVerifier;
