//! Canonical nonserializable schedules — Theorem 1 (Section 3).
//!
//! A locked transaction system `τ` is **not safe** iff there are
//! transactions `T1, …, Tk` (k > 1) in `τ`, a distinguished `Tc`, and an
//! entity `A*` such that:
//!
//! 1. `Tc` locks `A*` after it has unlocked some entity (a two-phase
//!    violation), and
//! 2. letting `T'c` be `Tc`'s prefix up to (excluding) the `(L A*)` step,
//!    there are prefixes `T'i` of the other transactions such that the
//!    partial schedule `S'` executing `T'1, …, T'k` serially satisfies:
//!    * (2a) every sink of `D(S')` unlocks `A*` having previously locked
//!      it in a mode conflicting with the mode of `Tc`'s `(L A*)`, and
//!    * (2b) `S'` extends to a complete legal and proper schedule.
//!
//! [`CanonicalWitness`] packages such a certificate; [`CanonicalWitness::verify`]
//! checks every condition against a transaction system and reports the
//! first violation. With exclusive locks only, (2a) degenerates to "`D(S')`
//! has a unique sink which unlocks `A*`" (Section 3.3) — see
//! [`CanonicalWitness::has_unique_sink`].

use crate::entity::EntityId;
use crate::ops::{LockMode, Operation};
use crate::schedule::Schedule;
use crate::sgraph::SerializationGraph;
use crate::system::TransactionSystem;
use crate::txn::{LockedTransaction, TxId};
use std::fmt;

/// A certificate that a locked transaction system is unsafe, in the
/// canonical form of Theorem 1.
#[derive(Clone, PartialEq, Eq, Debug)]
pub struct CanonicalWitness {
    /// The distinguished transaction `Tc` that closes the cycle.
    pub tc: TxId,
    /// The entity `A*` whose locking by `Tc` closes the cycle.
    pub a_star: EntityId,
    /// Index within `Tc`'s steps of the `(L A*)` step; `T'c` is the prefix
    /// up to (excluding) this index.
    pub lock_pos: usize,
    /// The serial order `T'1, …, T'k` with each transaction's prefix
    /// length. `tc` must appear with prefix length `lock_pos`.
    pub order: Vec<(TxId, usize)>,
    /// A complete, legal, proper schedule with `S'` as a prefix
    /// (condition 2b's witness).
    pub extension: Schedule,
}

/// Which condition of Theorem 1 a purported witness violates.
#[derive(Clone, PartialEq, Eq, Debug)]
pub enum CanonicalViolation {
    /// Fewer than two transactions are involved.
    TooFewTransactions,
    /// A transaction named in `order` is not in the system, or appears
    /// twice, or its prefix length exceeds its length.
    MalformedOrder,
    /// `tc` does not appear in `order` with prefix length `lock_pos`.
    TcPrefixMismatch,
    /// The step of `Tc` at `lock_pos` is not a lock step on `a_star`.
    NotALockStep,
    /// Condition 1: `Tc` does not unlock any entity before `lock_pos`.
    NoEarlierUnlock,
    /// `Tc` already locked `a_star` in its prefix (transactions lock an
    /// entity at most once).
    TcRelocksAStar,
    /// The serial prefix schedule `S'` is illegal (it could then never be a
    /// prefix of a legal schedule).
    PrefixIllegal,
    /// Condition 2a fails: the named sink of `D(S')` does not unlock `a_star`
    /// after locking it in a conflicting mode.
    SinkDoesNotReleaseAStar {
        /// The offending sink.
        sink: TxId,
    },
    /// Condition 2b fails: the extension is not a complete schedule of the
    /// involved transactions.
    ExtensionIncomplete,
    /// Condition 2b fails: the extension does not have `S'` as a prefix.
    ExtensionDoesNotExtendPrefix,
    /// Condition 2b fails: the extension is illegal.
    ExtensionIllegal,
    /// Condition 2b fails: the extension is improper.
    ExtensionImproper,
}

impl fmt::Display for CanonicalViolation {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        use CanonicalViolation::*;
        match self {
            TooFewTransactions => write!(f, "a canonical schedule needs k > 1 transactions"),
            MalformedOrder => write!(f, "order names unknown/duplicate transactions or oversized prefixes"),
            TcPrefixMismatch => write!(f, "Tc must appear in the order with prefix length lock_pos"),
            NotALockStep => write!(f, "Tc's step at lock_pos is not a lock of A*"),
            NoEarlierUnlock => write!(f, "condition 1: Tc must unlock some entity before locking A*"),
            TcRelocksAStar => write!(f, "Tc locks A* twice"),
            PrefixIllegal => write!(f, "the serial prefix schedule S' is illegal"),
            SinkDoesNotReleaseAStar { sink } => write!(
                f,
                "condition 2a: sink {sink} of D(S') does not unlock A* after locking it in a conflicting mode"
            ),
            ExtensionIncomplete => write!(f, "condition 2b: extension is not a complete schedule"),
            ExtensionDoesNotExtendPrefix => write!(f, "condition 2b: extension does not extend S'"),
            ExtensionIllegal => write!(f, "condition 2b: extension is illegal"),
            ExtensionImproper => write!(f, "condition 2b: extension is improper"),
        }
    }
}

impl std::error::Error for CanonicalViolation {}

impl CanonicalWitness {
    /// The serial partial schedule `S'` described by the witness: the
    /// prefixes executed back-to-back in `order`.
    pub fn serial_prefix(&self, system: &TransactionSystem) -> Schedule {
        let prefixes: Vec<LockedTransaction> = self
            .order
            .iter()
            .filter_map(|&(id, len)| {
                system
                    .get(id)
                    .map(|t| LockedTransaction::new(id, t.steps[..len.min(t.steps.len())].to_vec()))
            })
            .collect();
        Schedule::serial(&prefixes)
    }

    /// The lock mode in which `Tc` locks `A*`.
    pub fn tc_lock_mode(&self, system: &TransactionSystem) -> Option<LockMode> {
        let tc = system.get(self.tc)?;
        match tc.steps.get(self.lock_pos)?.op {
            Operation::Lock(m) => Some(m),
            _ => None,
        }
    }

    /// Whether `D(S')` has a unique sink — the simplified condition (2a) of
    /// Section 3.3, which must hold when only exclusive locks are used.
    pub fn has_unique_sink(&self, system: &TransactionSystem) -> bool {
        SerializationGraph::of(&self.serial_prefix(system))
            .sinks()
            .len()
            == 1
    }

    /// Verifies every condition of Theorem 1 against `system`, returning
    /// the first violation found.
    pub fn verify(&self, system: &TransactionSystem) -> Result<(), CanonicalViolation> {
        if self.order.len() < 2 {
            return Err(CanonicalViolation::TooFewTransactions);
        }
        // Order must name distinct known transactions with valid prefixes.
        let mut seen = Vec::new();
        for &(id, len) in &self.order {
            let Some(t) = system.get(id) else {
                return Err(CanonicalViolation::MalformedOrder);
            };
            if seen.contains(&id) || len > t.steps.len() {
                return Err(CanonicalViolation::MalformedOrder);
            }
            seen.push(id);
        }
        if !self.order.contains(&(self.tc, self.lock_pos)) {
            return Err(CanonicalViolation::TcPrefixMismatch);
        }
        let tc = system.get(self.tc).expect("checked in order");
        let lock_mode = match tc.steps.get(self.lock_pos).map(|s| s.op) {
            Some(Operation::Lock(m)) if tc.steps[self.lock_pos].entity == self.a_star => m,
            _ => return Err(CanonicalViolation::NotALockStep),
        };
        // Condition 1.
        if !tc.unlocked_anything_by(self.lock_pos) {
            return Err(CanonicalViolation::NoEarlierUnlock);
        }
        // At-most-once locking of A* by Tc.
        if tc.steps[..self.lock_pos]
            .iter()
            .any(|s| s.is_lock() && s.entity == self.a_star)
        {
            return Err(CanonicalViolation::TcRelocksAStar);
        }
        // The serial prefix S'.
        let s_prime = self.serial_prefix(system);
        if !s_prime.is_legal() {
            return Err(CanonicalViolation::PrefixIllegal);
        }
        // Condition 2a: every sink of D(S') unlocks A* having previously
        // locked it in a conflicting mode.
        let d = SerializationGraph::of(&s_prime);
        for sink in d.sinks() {
            let t = system.get(sink).expect("participant");
            let plen = self
                .order
                .iter()
                .find(|&&(id, _)| id == sink)
                .map(|&(_, len)| len)
                .expect("sink is in order");
            if !t.released_conflicting_lock_by(plen, self.a_star, lock_mode) {
                return Err(CanonicalViolation::SinkDoesNotReleaseAStar { sink });
            }
        }
        // Condition 2b: the extension completes S' legally and properly.
        if !self.extension.has_prefix(&s_prime) {
            return Err(CanonicalViolation::ExtensionDoesNotExtendPrefix);
        }
        let participants = self.extension.participants();
        let involved: Vec<LockedTransaction> = participants
            .iter()
            .filter_map(|&id| system.get(id).cloned())
            .collect();
        if involved.len() != participants.len()
            || !self.extension.is_complete_schedule_of(&involved)
            || !self.order.iter().all(|&(id, _)| participants.contains(&id))
        {
            return Err(CanonicalViolation::ExtensionIncomplete);
        }
        if !self.extension.is_legal() {
            return Err(CanonicalViolation::ExtensionIllegal);
        }
        if !self.extension.is_proper(system.initial_state()) {
            return Err(CanonicalViolation::ExtensionImproper);
        }
        Ok(())
    }
}

impl fmt::Display for CanonicalWitness {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "canonical witness: Tc = {}, A* = {}, (L A*) at step {}; serial order ",
            self.tc, self.a_star, self.lock_pos
        )?;
        for (i, (id, len)) in self.order.iter().enumerate() {
            if i > 0 {
                write!(f, ", ")?;
            }
            write!(f, "{id}[..{len}]")?;
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::serializability::is_serializable;
    use crate::system::SystemBuilder;

    /// The classic non-2PL counterexample, phrased in the dynamic model:
    ///
    /// * `T1 = (LX a)(W a)(UX a)(LX b)(W b)(UX b)` — releases `a` before
    ///   locking `b` (the 2PL violation),
    /// * `T2 = (LX a)(W a)(LX b)(W b)(UX a)(UX b)`.
    ///
    /// Canonical witness: `Tc = T1`, `A* = b`; serial order `T1' T2'` where
    /// `T1' = T1[..3]` (through `(UX a)`) and `T2'` is all of... `T2`
    /// releases `b` only at the end, so `T2'` must be the *whole* of `T2`
    /// so that it has unlocked `b`.
    fn unsafe_system() -> (TransactionSystem, CanonicalWitness) {
        let mut b = SystemBuilder::new();
        b.exists("a");
        b.exists("b");
        b.tx(1)
            .lx("a")
            .write("a")
            .ux("a")
            .lx("b")
            .write("b")
            .ux("b")
            .finish();
        b.tx(2)
            .lx("a")
            .write("a")
            .lx("b")
            .write("b")
            .ux("b")
            .ux("a")
            .finish();
        let system = b.build();
        let a = system.universe().lookup("a").unwrap();
        let b_ent = system.universe().lookup("b").unwrap();
        let _ = a;
        let t1 = system.get(TxId(1)).unwrap().clone();
        let t2 = system.get(TxId(2)).unwrap().clone();
        // Extension: T1' (3 steps), then all of T2, then the rest of T1.
        let mut ext = Schedule::serial([&LockedTransaction::new(TxId(1), t1.steps[..3].to_vec())]);
        for s in &t2.steps {
            ext.push(crate::schedule::ScheduledStep::new(TxId(2), *s));
        }
        for s in &t1.steps[3..] {
            ext.push(crate::schedule::ScheduledStep::new(TxId(1), *s));
        }
        let witness = CanonicalWitness {
            tc: TxId(1),
            a_star: b_ent,
            lock_pos: 3,
            order: vec![(TxId(1), 3), (TxId(2), t2.steps.len())],
            extension: ext,
        };
        (system, witness)
    }

    #[test]
    fn valid_witness_verifies() {
        let (system, witness) = unsafe_system();
        assert_eq!(witness.verify(&system), Ok(()));
    }

    #[test]
    fn witness_extension_is_nonserializable() {
        // Theorem 1 "if" direction: any complete legal proper extension of
        // S' is nonserializable.
        let (system, witness) = unsafe_system();
        assert!(witness.verify(&system).is_ok());
        assert!(!is_serializable(&witness.extension));
    }

    #[test]
    fn exclusive_only_witness_has_unique_sink() {
        let (system, witness) = unsafe_system();
        assert!(witness.has_unique_sink(&system));
    }

    #[test]
    fn condition1_requires_earlier_unlock() {
        let (system, mut witness) = unsafe_system();
        // Point lock_pos at T1's first lock (position 0): no earlier unlock.
        witness.lock_pos = 0;
        witness.order[0] = (TxId(1), 0);
        let a = system.universe().lookup("a").unwrap();
        witness.a_star = a;
        assert!(matches!(
            witness.verify(&system),
            Err(CanonicalViolation::NoEarlierUnlock)
                | Err(CanonicalViolation::ExtensionDoesNotExtendPrefix)
        ));
    }

    #[test]
    fn sink_must_release_a_star() {
        let (system, mut witness) = unsafe_system();
        // Truncate T2's prefix before it unlocks b: sink no longer releases A*.
        witness.order[1] = (TxId(2), 4);
        assert!(matches!(
            witness.verify(&system),
            Err(CanonicalViolation::SinkDoesNotReleaseAStar { .. })
                | Err(CanonicalViolation::ExtensionDoesNotExtendPrefix)
        ));
    }

    #[test]
    fn order_must_reference_known_transactions() {
        let (system, mut witness) = unsafe_system();
        witness.order.push((TxId(9), 0));
        assert_eq!(
            witness.verify(&system),
            Err(CanonicalViolation::MalformedOrder)
        );
    }

    #[test]
    fn k_must_exceed_one() {
        let (system, mut witness) = unsafe_system();
        witness.order.truncate(1);
        assert_eq!(
            witness.verify(&system),
            Err(CanonicalViolation::TooFewTransactions)
        );
    }

    #[test]
    fn lock_pos_must_point_at_lock_of_a_star() {
        let (system, mut witness) = unsafe_system();
        witness.lock_pos = 4; // (W b), not a lock
        witness.order[0] = (TxId(1), 4);
        assert_eq!(
            witness.verify(&system),
            Err(CanonicalViolation::NotALockStep)
        );
    }

    #[test]
    fn serial_prefix_matches_hand_construction() {
        let (system, witness) = unsafe_system();
        let s_prime = witness.serial_prefix(&system);
        assert_eq!(s_prime.len(), 3 + 6);
        let t1 = system.get(TxId(1)).unwrap();
        assert_eq!(s_prime.projection(TxId(1)), t1.steps[..3].to_vec());
        // S' itself is serial, hence serializable.
        assert!(is_serializable(&s_prime));
    }

    #[test]
    fn tc_lock_mode_reports_exclusive() {
        let (system, witness) = unsafe_system();
        assert_eq!(witness.tc_lock_mode(&system), Some(LockMode::Exclusive));
    }

    #[test]
    fn shared_mode_sinks_satisfy_2a_only_with_conflicting_mode() {
        // Tc locks A* in *shared* mode; a sink that locked A* in shared
        // mode does not conflict and must be rejected.
        let mut b = SystemBuilder::new();
        b.exists("a");
        b.exists("b");
        // T1: LS a, R a, US a, LS b ... locks b shared after unlocking a.
        b.tx(1)
            .ls("a")
            .read("a")
            .us("a")
            .ls("b")
            .read("b")
            .us("b")
            .finish();
        // T2: locks b shared (no conflict with T1's shared lock).
        b.tx(2)
            .ls("b")
            .read("b")
            .us("b")
            .lx("a")
            .write("a")
            .ux("a")
            .finish();
        let system = b.build();
        let b_ent = system.universe().lookup("b").unwrap();
        let t2_len = system.get(TxId(2)).unwrap().steps.len();
        let t1 = system.get(TxId(1)).unwrap().clone();
        let t2 = system.get(TxId(2)).unwrap().clone();
        let mut ext = Schedule::serial([&LockedTransaction::new(TxId(1), t1.steps[..3].to_vec())]);
        for s in &t2.steps {
            ext.push(crate::schedule::ScheduledStep::new(TxId(2), *s));
        }
        for s in &t1.steps[3..] {
            ext.push(crate::schedule::ScheduledStep::new(TxId(1), *s));
        }
        let witness = CanonicalWitness {
            tc: TxId(1),
            a_star: b_ent,
            lock_pos: 3,
            order: vec![(TxId(1), 3), (TxId(2), t2_len)],
            extension: ext,
        };
        // T2 locked b in shared mode; T1's (LS b) does not conflict with it,
        // so 2a must fail on sink T2.
        assert!(matches!(
            witness.verify(&system),
            Err(CanonicalViolation::SinkDoesNotReleaseAStar { .. })
        ));
    }
}
