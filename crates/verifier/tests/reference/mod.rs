//! The pre-optimization exhaustive explorer, retained as an oracle.
//!
//! This is the clone-per-node DFS the apply/undo explorer in
//! `slp_verifier::explorer` replaced: it clones the whole [`ScheduleSimulator`]
//! at every expansion, rebuilds the schedule vector on every backtrack,
//! rescans the entire schedule per candidate step to compute conflict
//! edges, and keys its memo table on freshly allocated `Vec<u16>`
//! position vectors. It is deliberately **not** optimized further —
//! its value is that it is small, obviously faithful to the definition,
//! and independent of the optimized search's undo/index machinery, which
//! makes it the agreement baseline for `verifier/tests/agreement.rs`, the
//! test that includes this module.
//!
//! Both explorers visit candidate transactions in the same dense order, so
//! on agreement they return *identical* verdicts, witnesses included.

use slp_core::{Schedule, ScheduleSimulator, ScheduledStep, TransactionSystem, TxId};
use slp_verifier::{mask_has_cycle, EdgeSet, SearchBudget, SearchStats, Verdict};
use std::collections::HashSet;

struct NaiveSearch<'a> {
    system: &'a TransactionSystem,
    ids: Vec<TxId>,
    budget: SearchBudget,
    stats: SearchStats,
    memo: HashSet<(Vec<u16>, u128)>,
}

enum Dfs {
    Found(Schedule),
    NotFound,
    BudgetExhausted,
}

impl<'a> NaiveSearch<'a> {
    /// Recomputes the conflict edges the next step of `step.tx` adds
    /// against all earlier steps by scanning the whole schedule.
    fn new_edges(&self, schedule: &Schedule, step: &ScheduledStep) -> u128 {
        let k = self.ids.len();
        let to = self
            .ids
            .iter()
            .position(|&t| t == step.tx)
            .expect("known tx");
        let mut mask = 0u128;
        for prior in schedule.steps() {
            if prior.tx != step.tx && prior.step.conflicts_with(&step.step) {
                let from = self
                    .ids
                    .iter()
                    .position(|&t| t == prior.tx)
                    .expect("known tx");
                mask |= 1u128 << (from * k + to);
            }
        }
        mask
    }

    fn dfs(
        &mut self,
        positions: &mut Vec<u16>,
        sim: &ScheduleSimulator,
        schedule: &mut Schedule,
        edges: u128,
    ) -> Dfs {
        if self.stats.states >= self.budget.max_states {
            return Dfs::BudgetExhausted;
        }
        self.stats.states += 1;

        let k = self.ids.len();
        let all_started_finished = self.ids.iter().enumerate().all(|(i, &id)| {
            let len = self.system.get(id).expect("known tx").len() as u16;
            positions[i] == 0 || positions[i] == len
        });
        let started_any = positions.iter().any(|&p| p > 0);
        if all_started_finished && started_any {
            self.stats.completions += 1;
            if mask_has_cycle(edges, k) {
                return Dfs::Found(schedule.clone());
            }
        }

        let mut budget_hit = false;
        for i in 0..k {
            let id = self.ids[i];
            let tx = self.system.get(id).expect("known tx");
            let pos = positions[i] as usize;
            let Some(&step) = tx.steps.get(pos) else {
                continue;
            };
            if sim.check(id, &step).is_err() {
                continue;
            }
            let sstep = ScheduledStep::new(id, step);
            let next_edges = edges | self.new_edges(schedule, &sstep);
            positions[i] += 1;
            let key = (positions.clone(), next_edges);
            if self.memo.contains(&key) {
                self.stats.memo_hits += 1;
                positions[i] -= 1;
                continue;
            }
            let mut next_sim = sim.clone();
            next_sim.apply(id, &step).expect("checked");
            schedule.push(sstep);
            let result = self.dfs(positions, &next_sim, schedule, next_edges);
            schedule_pop(schedule);
            positions[i] -= 1;
            match result {
                Dfs::Found(s) => return Dfs::Found(s),
                Dfs::NotFound => {
                    self.memo.insert(key);
                }
                Dfs::BudgetExhausted => {
                    budget_hit = true;
                    break;
                }
            }
        }
        if budget_hit {
            Dfs::BudgetExhausted
        } else {
            Dfs::NotFound
        }
    }
}

/// The O(n)-per-backtrack schedule rebuild the optimized explorer's
/// [`Schedule::pop`] replaced, kept verbatim for fidelity.
fn schedule_pop(s: &mut Schedule) {
    let mut steps = s.steps().to_vec();
    steps.pop();
    *s = Schedule::from_steps(steps);
}

/// Decides safety of `system` exactly like
/// [`verify_safety`](slp_verifier::verify_safety), using the retained
/// clone-per-node reference DFS. Slow; use only as an oracle.
///
/// # Panics
///
/// If the system has more than [`EdgeSet::MAX_SMALL_TXS`] (11)
/// transactions: the oracle is kept byte-for-byte at its pre-`EdgeSet`
/// state, so its raw `u128` edge masks still carry the old hard cap that
/// the production explorers have since lifted. Wide-`k` cross-checks use
/// the sequential [`verify_safety`](slp_verifier::verify_safety)
/// instead (see `verifier/tests/parallel_agreement.rs`).
pub fn verify_safety_reference(system: &TransactionSystem, budget: SearchBudget) -> Verdict {
    assert!(
        system.ids().len() <= EdgeSet::MAX_SMALL_TXS,
        "the reference oracle's u128 edge masks address at most {} transactions, got {}",
        EdgeSet::MAX_SMALL_TXS,
        system.ids().len()
    );
    let mut search = NaiveSearch {
        system,
        ids: system.ids(),
        budget,
        stats: SearchStats::default(),
        memo: HashSet::new(),
    };
    let mut positions = vec![0u16; search.ids.len()];
    let sim = ScheduleSimulator::new(system.initial_state().clone());
    let mut schedule = Schedule::empty();
    match search.dfs(&mut positions, &sim, &mut schedule, 0) {
        Dfs::Found(witness) => Verdict::Unsafe {
            witness,
            stats: search.stats,
        },
        Dfs::NotFound => Verdict::Safe(search.stats),
        Dfs::BudgetExhausted => Verdict::Exhausted(search.stats),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use slp_core::SystemBuilder;

    #[test]
    fn reference_explorer_decides_the_classic_pairs() {
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
            .lx("x")
            .write("x")
            .lx("y")
            .write("y")
            .ux("y")
            .ux("x")
            .finish();
        assert!(verify_safety_reference(&b.build(), SearchBudget::default()).is_safe());

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
        assert!(verify_safety_reference(&b.build(), SearchBudget::default()).is_unsafe());
    }
}
