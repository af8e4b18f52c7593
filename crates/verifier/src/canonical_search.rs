//! Search for canonical nonserializable schedules — the operational form
//! of Theorem 1.
//!
//! Instead of exploring *all* interleavings, this search enumerates only
//! the highly structured candidates the theorem quantifies over:
//!
//! 1. a culprit `Tc` and a lock step `(L A*)` preceded by some unlock
//!    (condition 1);
//! 2. a subset of other transactions with one prefix each, executed
//!    **serially** in some order (so the candidate partial schedules are
//!    serial — the whole point of the theorem);
//! 3. a cheap check of condition 2a (every sink of `D(S')` unlocks `A*` in
//!    a conflicting mode);
//! 4. a completion search for condition 2b (delegated to
//!    [`crate::explorer::complete_schedule`]).
//!
//! By Theorem 1, this search finds a witness **iff** the system is unsafe —
//! experiment E6 cross-validates exactly that against the exhaustive
//! explorer on randomized systems.

use crate::edges::{ConflictIndex, EdgeSet};
use crate::explorer::{complete_schedule, SearchBudget};
use slp_core::canonical::CanonicalWitness;
use slp_core::{Operation, Schedule, ScheduleSimulator, ScheduledStep, TransactionSystem, TxId};
use std::fmt;

/// Budget for the canonical search.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub struct CanonicalBudget {
    /// Maximum number of candidate serial prefixes to test.
    pub max_candidates: usize,
    /// Budget for each condition-2b completion search.
    pub completion: SearchBudget,
}

impl Default for CanonicalBudget {
    fn default() -> Self {
        CanonicalBudget {
            max_candidates: 500_000,
            completion: SearchBudget {
                max_states: 200_000,
            },
        }
    }
}

/// Statistics of a canonical search run.
#[derive(Clone, Copy, PartialEq, Eq, Debug, Default)]
pub struct CanonicalStats {
    /// Serial candidates enumerated.
    pub candidates: usize,
    /// Candidates surviving conditions 1 + 2a (completion attempted).
    pub completions_tried: usize,
}

impl fmt::Display for CanonicalStats {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "{} candidates, {} completions tried",
            self.candidates, self.completions_tried
        )
    }
}

/// The outcome of a canonical search.
#[derive(Clone, Debug)]
pub enum CanonicalOutcome {
    /// No canonical witness exists (within budget): by Theorem 1 the
    /// system is safe.
    NoWitness(CanonicalStats),
    /// A canonical witness was found: the system is unsafe.
    Witness {
        /// The verified certificate.
        witness: CanonicalWitness,
        /// Search statistics.
        stats: CanonicalStats,
    },
    /// The candidate budget was exhausted.
    Exhausted(CanonicalStats),
}

impl CanonicalOutcome {
    /// The witness, if found.
    pub fn witness(&self) -> Option<&CanonicalWitness> {
        match self {
            CanonicalOutcome::Witness { witness, .. } => Some(witness),
            _ => None,
        }
    }

    /// The run's statistics.
    pub fn stats(&self) -> CanonicalStats {
        match self {
            CanonicalOutcome::NoWitness(s)
            | CanonicalOutcome::Exhausted(s)
            | CanonicalOutcome::Witness { stats: s, .. } => *s,
        }
    }
}

/// The orders of `items`, one at a time, in lexicographic order of their
/// indices (the first element varies slowest).
fn permutations<T: Clone>(items: &[T]) -> impl Iterator<Item = Vec<T>> + '_ {
    let mut next = Some((0..items.len()).collect::<Vec<_>>());
    std::iter::from_fn(move || {
        let order = next.take()?;
        let out = order.iter().map(|&i| items[i].clone()).collect();
        next = next_permutation(order);
        Some(out)
    })
}

/// The lexicographic successor of the index order `p`, if any.
fn next_permutation(mut p: Vec<usize>) -> Option<Vec<usize>> {
    let i = p.windows(2).rposition(|w| w[0] < w[1])?;
    let j = p.iter().rposition(|&x| x > p[i])?;
    p.swap(i, j);
    p[i + 1..].reverse();
    Some(p)
}

/// The subsets of `items`, one at a time: by size, then by ascending
/// bitmask (bit `i` for `items[i]`) within a size. Nothing is built ahead
/// of the caller, so a wide system costs only the subsets it reaches.
fn subsets<T: Clone>(items: &[T]) -> impl Iterator<Item = Vec<T>> + '_ {
    (0..=items.len()).flat_map(move |size| {
        let mut next = Some((0..size).collect::<Vec<_>>());
        std::iter::from_fn(move || {
            let chosen = next.take()?;
            let out = chosen.iter().map(|&i| items[i].clone()).collect();
            next = next_combination(chosen, items.len());
            Some(out)
        })
    })
}

/// The ascending index set after `c` over `0..n`: the next larger bitmask
/// with as many bits set, if any.
fn next_combination(mut c: Vec<usize>, n: usize) -> Option<Vec<usize>> {
    let j = (0..c.len()).find(|&j| c[j] + 1 < c.get(j + 1).copied().unwrap_or(n))?;
    c[j] += 1;
    for (i, x) in c[..j].iter_mut().enumerate() {
        *x = i;
    }
    Some(c)
}

/// Searches for a canonical nonserializable schedule of `system`.
pub fn find_canonical_witness(
    system: &TransactionSystem,
    budget: CanonicalBudget,
) -> CanonicalOutcome {
    let mut stats = CanonicalStats::default();
    let ids = system.ids();

    for &tc_id in &ids {
        let tc = system.get(tc_id).expect("listed");
        for lock_pos in tc.lock_positions() {
            // Condition 1: Tc must have unlocked something earlier.
            if !tc.unlocked_anything_by(lock_pos) {
                continue;
            }
            let a_star = tc.steps[lock_pos].entity;
            let Operation::Lock(tc_mode) = tc.steps[lock_pos].op else {
                continue;
            };
            // At-most-once: Tc must not have locked A* in its prefix.
            if tc.steps[..lock_pos]
                .iter()
                .any(|s| s.is_lock() && s.entity == a_star)
            {
                continue;
            }
            let others: Vec<TxId> = ids.iter().copied().filter(|&t| t != tc_id).collect();
            for subset in subsets(&others) {
                if subset.is_empty() {
                    continue; // k > 1 required
                }
                // Prefix-length choices per subset member. A useful prefix
                // for a potential sink must reach past an unlock of A*; we
                // enumerate all nonempty prefixes and let 2a filter.
                let lens: Vec<Vec<usize>> = subset
                    .iter()
                    .map(|&t| (1..=system.get(t).expect("listed").len()).collect())
                    .collect();
                let mut combo = vec![0usize; subset.len()];
                loop {
                    let prefix_lens: Vec<(TxId, usize)> = subset
                        .iter()
                        .zip(&combo)
                        .map(|(&t, &ci)| {
                            (t, lens[subset.iter().position(|&x| x == t).unwrap()][ci])
                        })
                        .collect();
                    // Orders: permutations of subset ∪ {tc}.
                    let mut participants: Vec<(TxId, usize)> = prefix_lens.clone();
                    participants.push((tc_id, lock_pos));
                    for order in permutations(&participants) {
                        stats.candidates += 1;
                        if stats.candidates > budget.max_candidates {
                            return CanonicalOutcome::Exhausted(stats);
                        }
                        if let Some(witness) = try_candidate(
                            system, tc_id, a_star, lock_pos, tc_mode, &order, budget, &mut stats,
                        ) {
                            return CanonicalOutcome::Witness { witness, stats };
                        }
                    }
                    // Advance the mixed-radix prefix-length counter.
                    let mut i = 0;
                    loop {
                        if i == combo.len() {
                            break;
                        }
                        combo[i] += 1;
                        if combo[i] < lens[i].len() {
                            break;
                        }
                        combo[i] = 0;
                        i += 1;
                    }
                    if i == combo.len() {
                        break;
                    }
                }
            }
        }
    }
    CanonicalOutcome::NoWitness(stats)
}

#[allow(clippy::too_many_arguments)]
fn try_candidate(
    system: &TransactionSystem,
    tc_id: TxId,
    a_star: slp_core::EntityId,
    lock_pos: usize,
    tc_mode: slp_core::LockMode,
    order: &[(TxId, usize)],
    budget: CanonicalBudget,
    stats: &mut CanonicalStats,
) -> Option<CanonicalWitness> {
    // Build S' incrementally: one simulator pass checks legality and
    // properness together (instead of two full re-scans of the serial
    // schedule), while a ConflictIndex accumulates the D(S')-edge set —
    // the same apply-side machinery the exhaustive explorer drives. The
    // EdgeSet picks its own representation from k, so candidates of any
    // width take this one path (the old k > 11 SerializationGraph fallback
    // is gone).
    let k = order.len();
    let mut sim = ScheduleSimulator::new(system.initial_state().clone());
    let mut index = ConflictIndex::new(k);
    let mut edges = EdgeSet::empty(k);
    let mut s_prime = Schedule::empty();
    for (oi, &(id, len)) in order.iter().enumerate() {
        let t = system.get(id).expect("listed");
        for &step in &t.steps[..len] {
            if sim.apply(id, &step).is_err() {
                return None; // S' illegal or improper
            }
            if let Some(d) = index.edge_delta(oi, &step) {
                edges.union_with(&d);
            }
            index.push(oi, step);
            s_prime.push(ScheduledStep::new(id, step));
        }
    }
    // Condition 2a. Every order member has a nonempty prefix, so the dense
    // order position is the edge-set row; a sink is a row with no
    // out-edges.
    let sinks: Vec<TxId> = (0..k)
        .filter(|&oi| !edges.has_out_edges(oi))
        .map(|oi| order[oi].0)
        .collect();
    for sink in sinks {
        let (_, plen) = order.iter().find(|&&(id, _)| id == sink)?;
        let t = system.get(sink).expect("listed");
        if !t.released_conflicting_lock_by(*plen, a_star, tc_mode) {
            return None;
        }
    }
    // Condition 2b: completion search.
    stats.completions_tried += 1;
    let extension = complete_schedule(system, &s_prime, budget.completion)?;
    let witness = CanonicalWitness {
        tc: tc_id,
        a_star,
        lock_pos,
        order: order.to_vec(),
        extension,
    };
    // Final sanity: the certificate must verify.
    witness.verify(system).ok()?;
    Some(witness)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::explorer::verify_safety;
    use slp_core::SystemBuilder;

    fn short_lock_system() -> TransactionSystem {
        let mut b = SystemBuilder::new();
        b.exists("x");
        b.exists("y");
        b.tx(1)
            .lx("x")
            .write("x")
            .ux("x")
            .lx("y")
            .write("y")
            .ux("y")
            .finish();
        b.tx(2)
            .lx("x")
            .write("x")
            .ux("x")
            .lx("y")
            .write("y")
            .ux("y")
            .finish();
        b.build()
    }

    fn two_phase_system() -> TransactionSystem {
        let mut b = SystemBuilder::new();
        b.exists("x");
        b.exists("y");
        b.tx(1)
            .lx("x")
            .write("x")
            .lx("y")
            .write("y")
            .ux("x")
            .ux("y")
            .finish();
        b.tx(2)
            .lx("y")
            .write("y")
            .lx("x")
            .write("x")
            .ux("y")
            .ux("x")
            .finish();
        b.build()
    }

    #[test]
    fn unsafe_system_yields_verified_witness() {
        let system = short_lock_system();
        let outcome = find_canonical_witness(&system, CanonicalBudget::default());
        let witness = outcome
            .witness()
            .expect("unsafe system has a canonical witness");
        assert_eq!(witness.verify(&system), Ok(()));
        // The theorem's "if" direction: the extension is nonserializable.
        assert!(!slp_core::is_serializable(&witness.extension));
    }

    #[test]
    fn safe_system_yields_no_witness() {
        let outcome = find_canonical_witness(&two_phase_system(), CanonicalBudget::default());
        assert!(outcome.witness().is_none());
        assert!(matches!(outcome, CanonicalOutcome::NoWitness(_)));
    }

    #[test]
    fn agrees_with_exhaustive_search_on_fixed_systems() {
        for (system, expect_unsafe) in [(short_lock_system(), true), (two_phase_system(), false)] {
            let exhaustive = verify_safety(&system, Default::default());
            let canonical = find_canonical_witness(&system, CanonicalBudget::default());
            assert_eq!(exhaustive.is_unsafe(), expect_unsafe);
            assert_eq!(canonical.witness().is_some(), expect_unsafe);
        }
    }

    #[test]
    fn budget_exhaustion_reported() {
        let outcome = find_canonical_witness(
            &short_lock_system(),
            CanonicalBudget {
                max_candidates: 1,
                completion: Default::default(),
            },
        );
        assert!(matches!(
            outcome,
            CanonicalOutcome::Exhausted(_) | CanonicalOutcome::Witness { .. }
        ));
    }

    #[test]
    fn two_phase_culprits_are_never_candidates() {
        // A system where every transaction is two-phase generates zero
        // completion attempts (condition 1 filters everything).
        let outcome = find_canonical_witness(&two_phase_system(), CanonicalBudget::default());
        assert_eq!(outcome.stats().completions_tried, 0);
    }

    #[test]
    fn permutation_and_subset_helpers() {
        let perms: Vec<_> = permutations(&[1, 2, 3]).collect();
        assert_eq!(
            perms,
            [
                [1, 2, 3],
                [1, 3, 2],
                [2, 1, 3],
                [2, 3, 1],
                [3, 1, 2],
                [3, 2, 1]
            ]
        );
        assert_eq!(permutations::<u32>(&[]).count(), 1);
        // By size, then by ascending bitmask within a size.
        for n in 0..8u32 {
            let items: Vec<u32> = (0..n).collect();
            let mut masks: Vec<u32> = (0..1 << n).collect();
            masks.sort_by_key(|m| m.count_ones());
            let expected: Vec<Vec<u32>> = masks
                .iter()
                .map(|m| {
                    items
                        .iter()
                        .copied()
                        .filter(|i| m & (1 << i) != 0)
                        .collect()
                })
                .collect();
            assert_eq!(subsets(&items).collect::<Vec<_>>(), expected, "n = {n}");
        }
    }
}
