//! Property tests for `EdgeSet` — the growable `D(S)`-edge representation.
//!
//! The safety verifiers pick the `u128` fast path for `k <= 11` and the
//! fixed-stride words fallback above, so a representation bug would show
//! up only past the old `ConflictIndex` cap, exactly where no legacy test
//! looked. These properties force **both** representations through the
//! same operation sequences on the same `k` and demand identical
//! observable behavior, and they round-trip the apply/undo (mask-trail)
//! machinery the DFS leans on.

use proptest::prelude::*;
use safe_locking::core::{ConflictEdge, SerializationGraph, TxId};
use safe_locking::verifier::EdgeSet;

/// Builds the equivalent `SerializationGraph` (the trusted, slow model).
fn graph_of(k: usize, edges: &[(usize, usize)]) -> SerializationGraph {
    SerializationGraph::from_parts(
        (0..k as u32).map(TxId).collect(),
        edges
            .iter()
            .map(|&(f, t)| ConflictEdge {
                from: TxId(f as u32),
                to: TxId(t as u32),
                witness: (0, 0),
            })
            .collect(),
    )
}

proptest! {
    /// Small (`u128`) and wide (words) representations agree on every
    /// observable — membership, counts, out-degrees, cycle detection —
    /// under the same insertions, and both match the graph model.
    #[test]
    fn small_and_wide_reprs_agree(
        k in 2usize..=11,
        raw in prop::collection::vec((0usize..11, 0usize..11), 0..40),
    ) {
        let edges: Vec<(usize, usize)> =
            raw.iter().map(|&(f, t)| (f % k, t % k)).collect();
        let mut small = EdgeSet::empty(k);
        let mut wide = EdgeSet::empty_wide(k);
        prop_assert!(small.as_small_mask().is_some());
        prop_assert!(wide.as_small_mask().is_none());
        for &(f, t) in &edges {
            small.insert(f, t);
            wide.insert(f, t);
        }
        prop_assert_eq!(small.width(), wide.width());
        prop_assert_eq!(small.len(), wide.len());
        prop_assert_eq!(small.is_empty(), wide.is_empty());
        prop_assert_eq!(small.edges(), wide.edges());
        for f in 0..k {
            prop_assert_eq!(small.has_out_edges(f), wide.has_out_edges(f));
            for t in 0..k {
                prop_assert_eq!(small.contains(f, t), wide.contains(f, t));
            }
        }
        prop_assert_eq!(small.has_cycle(), wide.has_cycle());
        let model = graph_of(k, &edges);
        prop_assert_eq!(small.has_cycle(), !model.is_acyclic());
    }

    /// Apply/undo round-trips bit-for-bit in both representations: after
    /// applying a sequence of deltas and undoing the returned added-masks
    /// in reverse (LIFO, like the DFS unwind), every intermediate state
    /// matches the snapshot taken on the way down.
    #[test]
    fn apply_undo_round_trips_in_both_reprs(
        k in 2usize..=11,
        raw in prop::collection::vec(
            prop::collection::vec((0usize..11, 0usize..11), 0..4),
            0..12,
        ),
    ) {
        for use_wide in [false, true] {
            let mut set = if use_wide {
                EdgeSet::empty_wide(k)
            } else {
                EdgeSet::empty(k)
            };
            let mut snapshots = vec![set.clone()];
            let mut trail = Vec::new();
            for delta_edges in &raw {
                let mut delta = if use_wide {
                    EdgeSet::empty_wide(k)
                } else {
                    EdgeSet::empty(k)
                };
                for &(f, t) in delta_edges {
                    delta.insert(f % k, t % k);
                }
                let added = set.apply(&delta);
                // The added mask is exactly the delta minus what was
                // already present.
                for &(f, t) in delta_edges {
                    prop_assert!(set.contains(f % k, t % k));
                    // An edge is in the added-mask iff it was absent from
                    // the pre-apply snapshot.
                    prop_assert_eq!(
                        added.contains(f % k, t % k),
                        !snapshots.last().unwrap().contains(f % k, t % k)
                    );
                }
                trail.push(added);
                snapshots.push(set.clone());
            }
            while let Some(added) = trail.pop() {
                snapshots.pop();
                set.undo(&added);
                prop_assert_eq!(&set, snapshots.last().unwrap());
            }
            prop_assert!(set.is_empty());
        }
    }

    /// Past the `u128` bound the words representation is the only one;
    /// cycle detection must still match the graph model, including across
    /// 64-bit word boundaries in a row.
    #[test]
    fn wide_only_regime_matches_graph_model(
        k in 12usize..80,
        raw in prop::collection::vec((0usize..80, 0usize..80), 0..60),
    ) {
        let edges: Vec<(usize, usize)> =
            raw.iter().map(|&(f, t)| (f % k, t % k)).collect();
        let mut set = EdgeSet::empty(k);
        prop_assert!(set.as_small_mask().is_none(), "k > 11 must be words-backed");
        for &(f, t) in &edges {
            set.insert(f, t);
        }
        let model = graph_of(k, &edges);
        prop_assert_eq!(set.has_cycle(), !model.is_acyclic());
        prop_assert_eq!(set.len(), model.edge_count());
        for f in 0..k {
            prop_assert_eq!(
                set.has_out_edges(f),
                !model.successors(TxId(f as u32)).is_empty()
            );
        }
    }

    /// `pack_positions` is the from-scratch definition of the packed memo
    /// key the explorer maintains incrementally: packing must equal the
    /// sum of per-transaction shifted contributions, and must refuse
    /// exactly the out-of-range shapes.
    #[test]
    fn pack_positions_matches_incremental_definition(
        positions in prop::collection::vec(0u16..300, 0..20),
    ) {
        let packed = safe_locking::verifier::pack_positions(&positions);
        let fits = positions.len() <= 16 && positions.iter().all(|&p| p <= 255);
        prop_assert_eq!(packed.is_some(), fits);
        if let Some(p) = packed {
            let mut incremental = 0u128;
            for (i, &pos) in positions.iter().enumerate() {
                for _ in 0..pos {
                    incremental += 1u128 << (8 * i);
                }
            }
            prop_assert_eq!(p, incremental);
        }
    }
}
