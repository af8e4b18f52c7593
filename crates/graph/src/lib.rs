//! # slp-graph — graph substrate for dynamic locking policies
//!
//! The DDAG policy (Section 4) runs over *dynamic rooted DAGs* whose nodes
//! and edges are database entities; the dynamic tree policy (Section 6)
//! maintains a *database forest*. This crate provides both structures and
//! the queries the policies and their correctness arguments need:
//!
//! * [`DiGraph`] — mutable digraph stored flat by entity id (a node flag
//!   and sorted successor / predecessor `Vec`s per id), iterated in id
//!   order;
//! * [`dag`] — acyclicity, topological sort (the order a [`DomIndex`]
//!   ranks by), cycle-prevention checks;
//! * [`reach`] — ancestors/descendants/path queries;
//! * [`rooted`] — the paper's rootedness definition (unique root reaching
//!   every node);
//! * [`dominators`] — dominator sets ("every path from the root to `w`
//!   passes through `d`"), the engine of Lemma 3;
//! * [`DomIndex`] — the dominator tree, topological rank and root of a
//!   graph in dense vectors, built once per mutation and queried per job;
//! * [`Forest`] — parent-pointer forests with the DTR policy's `join` and
//!   `remove` mutations.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod dag;
pub mod digraph;
pub mod dom_index;
pub mod dominators;
pub mod forest;
pub mod reach;
pub mod rooted;

pub use digraph::{DiGraph, GraphError};
pub use dom_index::{DomIndex, RegionScratch, Unrooted};
pub use forest::{Forest, ForestError};
