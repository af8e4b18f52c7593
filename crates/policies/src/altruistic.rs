//! Altruistic locking — Section 5 \[SGMS94\].
//!
//! Designed for long-lived transactions: a transaction may *donate*
//! (unlock) items it is finished with before reaching its **locked point**
//! (the instant it acquires its last lock). A transaction `Ti` is **in the
//! wake** of `Tj` if `Ti` has locked an item unlocked by `Tj` while `Tj`
//! has not yet reached its locked point. Rules (exclusive locks only):
//!
//! * **AL1** — a transaction must lock an item before any
//!   `INSERT`/`DELETE`/`ACCESS` on it;
//! * **AL2** — if `Ti` is in the wake of an active `Tj`, *all* items locked
//!   by `Ti` so far must have been unlocked by `Tj` in the past;
//! * **AL3** — a transaction may lock an item only once.
//!
//! [`AltruisticEngine`] enforces the rules online. The engine learns locked
//! points either from [`AltruisticEngine::declare_locked_point`] (the
//! SGMS94 assumption that access sets are predeclared) or implicitly at
//! [`AltruisticEngine::finish`]. The mutant switch
//! [`AltruisticConfig::without_wake_rule`] disables AL2 for the E7
//! ablation.
//!
//! A transaction's locked-past and held sets live in the crate's
//! per-transaction table (short `Vec`s in a slot found by binary search);
//! its donated set is what it locked and no longer holds. The AL2 scan
//! walks the active transactions in id order and reports the smallest
//! item outside the wake, and held items leave in id order. The entities
//! that exist are the pool the engine is built over; a lock on any other
//! id is refused at its lock, fatally.

use crate::txtable::{violation_from_tx_error, TxSlot, TxTable};
use slp_core::{DataOp, EntityId, Step, StructuralState, TxId};
use std::fmt;

/// A violation of the altruistic locking rules.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum AltruisticViolation {
    /// The transaction was never begun (or already finished).
    UnknownTransaction(TxId),
    /// `begin` called twice.
    AlreadyBegun(TxId),
    /// AL3: the transaction already locked this item.
    Relock(TxId, EntityId),
    /// AL2: the transaction is in the wake of `wake_of` but holds (or would
    /// hold) an item outside that transaction's donated set.
    OutsideWake {
        /// The transaction violating the rule.
        tx: TxId,
        /// The transaction whose wake is being violated.
        wake_of: TxId,
        /// The item outside the wake.
        item: EntityId,
    },
    /// Another transaction holds the lock (wait, don't abort).
    LockConflict(EntityId, TxId),
    /// AL1: a data operation on an item the transaction does not hold.
    NotHolding(TxId, EntityId),
    /// Locking after the declared locked point.
    PastLockedPoint(TxId),
    /// The entity is not in the engine's pool: it does not exist (an id
    /// at or above [`slp_core::MAX_ENTITIES`] never does).
    EntityOutOfRange(EntityId),
}

impl fmt::Display for AltruisticViolation {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        use AltruisticViolation::*;
        match self {
            UnknownTransaction(t) => write!(f, "{t} is not an active transaction"),
            AlreadyBegun(t) => write!(f, "{t} already began"),
            Relock(t, e) => write!(f, "AL3: {t} already locked {e}"),
            OutsideWake { tx, wake_of, item } => write!(
                f,
                "AL2: {tx} is in the wake of {wake_of} but item {item} was not donated by {wake_of}"
            ),
            LockConflict(e, holder) => write!(f, "{e} is locked by {holder}"),
            NotHolding(t, e) => write!(f, "AL1: {t} does not hold a lock on {e}"),
            PastLockedPoint(t) => write!(f, "{t} tried to lock after its locked point"),
            EntityOutOfRange(e) => write!(f, "{e} is not in the pool"),
        }
    }
}

impl std::error::Error for AltruisticViolation {}

violation_from_tx_error!(AltruisticViolation);

/// Rule switches for ablation.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub struct AltruisticConfig {
    /// Enforce AL2 (the wake rule).
    pub enforce_wake_rule: bool,
}

impl Default for AltruisticConfig {
    fn default() -> Self {
        AltruisticConfig {
            enforce_wake_rule: true,
        }
    }
}

impl AltruisticConfig {
    /// The sound policy.
    pub fn strict() -> Self {
        Self::default()
    }

    /// Mutant: AL2 disabled — unsafe, used to show the rule is load-bearing.
    pub fn without_wake_rule() -> Self {
        AltruisticConfig {
            enforce_wake_rule: false,
        }
    }
}

/// The altruistic part of a transaction's rule state. Its donated set is
/// not stored: an item leaves `holding` only by an unlock, so what it
/// donated is what it locked in the past and holds no more.
#[derive(Clone, Debug, Default)]
struct AltTx {
    at_locked_point: bool,
}

/// Whether `tj` has donated (unlocked) `item`.
fn donated(tj: &TxSlot<AltTx>, item: EntityId) -> bool {
    tj.locked_past.contains(&item) && !tj.holding.contains(&item)
}

/// The altruistic locking engine (exclusive locks only) over a fixed
/// pool of existing entities.
#[derive(Clone, Debug)]
pub struct AltruisticEngine {
    txs: TxTable<AltTx>,
    pool: StructuralState,
    config: AltruisticConfig,
}

impl AltruisticEngine {
    /// An engine with the full rule set over `pool`.
    pub fn new(pool: impl IntoIterator<Item = EntityId>) -> Self {
        Self::with_config(pool, AltruisticConfig::default())
    }

    /// An engine with explicit rule switches over `pool`.
    pub fn with_config(pool: impl IntoIterator<Item = EntityId>, config: AltruisticConfig) -> Self {
        AltruisticEngine {
            txs: TxTable::default(),
            pool: StructuralState::from_entities(pool),
            config,
        }
    }

    /// Registers a transaction.
    pub fn begin(&mut self, tx: TxId) -> Result<(), AltruisticViolation> {
        self.txs.begin(tx, || Ok(AltTx::default())).map(|_| ())
    }

    /// Whether `tx` is currently in the wake of `other`.
    pub fn in_wake_of(&self, tx: TxId, other: TxId) -> bool {
        let (Ok(ti), Ok(tj)) = (self.txs.get(tx), self.txs.get(other)) else {
            return false;
        };
        !tj.rule.at_locked_point && ti.locked_past.iter().any(|&i| donated(tj, i))
    }

    /// Checks whether `tx` may lock `item` right now; distinguishes policy
    /// violations (abort) from lock conflicts (wait). An item outside the
    /// pool is refused first.
    pub fn check_lock(&self, tx: TxId, item: EntityId) -> Result<(), AltruisticViolation> {
        let st = self.txs.get(tx)?;
        if !self.pool.contains(item) {
            return Err(AltruisticViolation::EntityOutOfRange(item));
        }
        if st.rule.at_locked_point {
            return Err(AltruisticViolation::PastLockedPoint(tx));
        }
        if st.locked_past.contains(&item) {
            return Err(AltruisticViolation::Relock(tx, item));
        }
        if self.config.enforce_wake_rule {
            // Hypothetically extend the locked set with `item`, then check
            // AL2 against every active transaction before its locked point,
            // in id order.
            for tj in self.txs.iter() {
                if tj.tx == tx || tj.rule.at_locked_point {
                    continue;
                }
                let entering_wake =
                    donated(tj, item) || st.locked_past.iter().any(|&i| donated(tj, i));
                if !entering_wake {
                    continue;
                }
                // All items locked so far (including `item`) must be
                // donated; the smallest one that is not is reported.
                let outside = st.locked_past.iter().copied().filter(|&i| !donated(tj, i));
                if let Some(outside) = outside.min().or((!donated(tj, item)).then_some(item)) {
                    return Err(AltruisticViolation::OutsideWake {
                        tx,
                        wake_of: tj.tx,
                        item: outside,
                    });
                }
            }
        }
        self.txs.free(tx, item, AltruisticViolation::LockConflict)
    }

    /// Locks `item` for `tx`. Emits `(LX item)`.
    pub fn lock(&mut self, tx: TxId, item: EntityId) -> Result<Step, AltruisticViolation> {
        self.check_lock(tx, item)?;
        Ok(self.txs.lock(tx, item))
    }

    /// Unlocks (donates) `item`. Emits `(UX item)`. Before the locked
    /// point this is a *donation*: other transactions locking it enter the
    /// wake of `tx`.
    pub fn unlock(&mut self, tx: TxId, item: EntityId) -> Result<Step, AltruisticViolation> {
        if !self.txs.unlock(tx, item)? {
            return Err(AltruisticViolation::NotHolding(tx, item));
        }
        Ok(Step::unlock_exclusive(item))
    }

    /// Performs a data operation on a held item (AL1). Emits the step(s):
    /// `ACCESS` expands to `(R item)(W item)`.
    pub fn data(
        &mut self,
        tx: TxId,
        op: DataOp,
        item: EntityId,
    ) -> Result<Vec<Step>, AltruisticViolation> {
        self.txs
            .get(tx)?
            .holds(item, AltruisticViolation::NotHolding)?;
        Ok(vec![Step::new(op, item)])
    }

    /// `ACCESS`: read immediately followed by write.
    pub fn access(&mut self, tx: TxId, item: EntityId) -> Result<Vec<Step>, AltruisticViolation> {
        self.txs
            .get(tx)?
            .holds(item, AltruisticViolation::NotHolding)?;
        Ok(vec![Step::read(item), Step::write(item)])
    }

    /// Declares that `tx` has acquired its last lock. From this instant
    /// transactions holding its donated items are no longer "in its wake".
    pub fn declare_locked_point(&mut self, tx: TxId) -> Result<(), AltruisticViolation> {
        self.txs.get_mut(tx)?.rule.at_locked_point = true;
        Ok(())
    }

    /// Finishes `tx`: releases remaining locks in id order, retires it.
    /// Emits unlocks.
    pub fn finish(&mut self, tx: TxId) -> Result<Vec<Step>, AltruisticViolation> {
        Ok(self.txs.retire(tx)?.1)
    }

    /// Aborts `tx` (releases everything, no undo — as in the paper's
    /// model). Emits unlocks.
    pub fn abort(&mut self, tx: TxId) -> Vec<Step> {
        self.finish(tx).unwrap_or_default()
    }

    /// Items currently held by `tx`, in id order.
    pub fn holding(&self, tx: TxId) -> Vec<EntityId> {
        self.txs.holding(tx)
    }
}

// ---------------------------------------------------------------------
// The unified policy API
// ---------------------------------------------------------------------

use crate::api::{
    respond, AccessIntent, PolicyAction, PolicyEngine, PolicyResponse, PolicyViolation,
};

impl PolicyEngine for AltruisticEngine {
    fn name(&self) -> &'static str {
        if self.config.enforce_wake_rule {
            "altruistic"
        } else {
            "altruistic-no-wake"
        }
    }

    fn begin(
        &mut self,
        tx: TxId,
        _intent: &AccessIntent,
    ) -> Result<Option<Vec<PolicyAction>>, PolicyViolation> {
        AltruisticEngine::begin(self, tx).map_err(PolicyViolation::Altruistic)?;
        Ok(None)
    }

    fn request(&mut self, tx: TxId, action: PolicyAction) -> PolicyResponse {
        let result = match action {
            PolicyAction::Lock(e) => self.lock(tx, e).map(|s| vec![s]),
            PolicyAction::Unlock(e) => self.unlock(tx, e).map(|s| vec![s]),
            PolicyAction::Access(e) => self.access(tx, e),
            PolicyAction::Read(e) => self.data(tx, DataOp::Read, e),
            PolicyAction::Write(e) => self.data(tx, DataOp::Write, e),
            PolicyAction::LockedPoint => self.declare_locked_point(tx).map(|()| Vec::new()),
            structural => {
                return PolicyResponse::Violation(PolicyViolation::Unsupported {
                    policy: PolicyEngine::name(self),
                    action: structural,
                })
            }
        };
        respond(result.map_err(PolicyViolation::Altruistic))
    }

    fn finish(&mut self, tx: TxId) -> Result<Vec<Step>, PolicyViolation> {
        AltruisticEngine::finish(self, tx).map_err(PolicyViolation::Altruistic)
    }

    fn abort(&mut self, tx: TxId) -> Vec<Step> {
        AltruisticEngine::abort(self, tx)
    }

    fn structural_state(&self) -> StructuralState {
        self.pool.clone()
    }

    fn as_any(&self) -> &dyn std::any::Any {
        self
    }

    fn as_any_mut(&mut self) -> &mut dyn std::any::Any {
        self
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn t(i: u32) -> TxId {
        TxId(i)
    }

    fn e(i: u32) -> EntityId {
        EntityId(i)
    }

    /// The Fig. 4 walkthrough: T1 is long-lived over items 1, 2, 3; it
    /// releases 1 early. T2 locks 1 (entering T1's wake); while T1 is
    /// before its locked point T2 may lock only items T1 donated; after
    /// T1's locked point T2 is free.
    #[test]
    fn fig4_wake_walkthrough() {
        let mut eng = AltruisticEngine::new((0..10).map(EntityId));
        eng.begin(t(1)).unwrap();
        eng.begin(t(2)).unwrap();
        eng.lock(t(1), e(1)).unwrap();
        eng.access(t(1), e(1)).unwrap();
        eng.lock(t(1), e(2)).unwrap();
        eng.unlock(t(1), e(1)).unwrap(); // donate item 1
                                         // T2 locks 1 -> enters T1's wake.
        eng.lock(t(2), e(1)).unwrap();
        assert!(eng.in_wake_of(t(2), t(1)));
        // T2 may not lock item 4 (not donated by T1) while in the wake.
        assert_eq!(
            eng.check_lock(t(2), e(4)),
            Err(AltruisticViolation::OutsideWake {
                tx: t(2),
                wake_of: t(1),
                item: e(4)
            })
        );
        // T1 donates 2 as well; T2 can take it.
        eng.unlock(t(1), e(2)).unwrap();
        eng.lock(t(2), e(2)).unwrap();
        // T1 reaches its locked point (locks its last item 3).
        eng.lock(t(1), e(3)).unwrap();
        eng.declare_locked_point(t(1)).unwrap();
        assert!(!eng.in_wake_of(t(2), t(1)));
        // Now T2 can lock anything.
        assert!(eng.lock(t(2), e(4)).is_ok());
    }

    #[test]
    fn wake_rule_checked_on_entry_too() {
        let mut eng = AltruisticEngine::new((0..10).map(EntityId));
        eng.begin(t(1)).unwrap();
        eng.begin(t(2)).unwrap();
        eng.lock(t(1), e(1)).unwrap();
        eng.unlock(t(1), e(1)).unwrap();
        // T2 first locks a non-donated item, then tries the donated one:
        // entering the wake now would leave item 5 outside it.
        eng.lock(t(2), e(5)).unwrap();
        assert_eq!(
            eng.check_lock(t(2), e(1)),
            Err(AltruisticViolation::OutsideWake {
                tx: t(2),
                wake_of: t(1),
                item: e(5)
            })
        );
    }

    #[test]
    fn finished_transactions_produce_no_wake() {
        let mut eng = AltruisticEngine::new((0..10).map(EntityId));
        eng.begin(t(1)).unwrap();
        eng.lock(t(1), e(1)).unwrap();
        eng.unlock(t(1), e(1)).unwrap();
        eng.finish(t(1)).unwrap();
        eng.begin(t(2)).unwrap();
        eng.lock(t(2), e(1)).unwrap();
        assert!(!eng.in_wake_of(t(2), t(1)));
        assert!(eng.lock(t(2), e(9)).is_ok());
    }

    #[test]
    fn al3_relock_rejected() {
        let mut eng = AltruisticEngine::new((0..10).map(EntityId));
        eng.begin(t(1)).unwrap();
        eng.lock(t(1), e(1)).unwrap();
        eng.unlock(t(1), e(1)).unwrap();
        assert_eq!(
            eng.check_lock(t(1), e(1)),
            Err(AltruisticViolation::Relock(t(1), e(1)))
        );
    }

    #[test]
    fn al1_data_requires_lock() {
        let mut eng = AltruisticEngine::new((0..10).map(EntityId));
        eng.begin(t(1)).unwrap();
        assert_eq!(
            eng.data(t(1), DataOp::Write, e(1)),
            Err(AltruisticViolation::NotHolding(t(1), e(1)))
        );
        eng.lock(t(1), e(1)).unwrap();
        assert_eq!(
            eng.data(t(1), DataOp::Write, e(1)),
            Ok(vec![Step::write(e(1))])
        );
    }

    #[test]
    fn lock_conflicts_reported_for_waiting() {
        let mut eng = AltruisticEngine::new((0..10).map(EntityId));
        eng.begin(t(1)).unwrap();
        eng.begin(t(2)).unwrap();
        eng.lock(t(1), e(1)).unwrap();
        assert_eq!(
            eng.check_lock(t(2), e(1)),
            Err(AltruisticViolation::LockConflict(e(1), t(1)))
        );
    }

    #[test]
    fn locking_after_locked_point_rejected() {
        let mut eng = AltruisticEngine::new((0..10).map(EntityId));
        eng.begin(t(1)).unwrap();
        eng.lock(t(1), e(1)).unwrap();
        eng.declare_locked_point(t(1)).unwrap();
        assert_eq!(
            eng.check_lock(t(1), e(2)),
            Err(AltruisticViolation::PastLockedPoint(t(1)))
        );
    }

    #[test]
    fn mutant_allows_wake_escape() {
        let mut eng = AltruisticEngine::with_config(
            (0..10).map(EntityId),
            AltruisticConfig::without_wake_rule(),
        );
        eng.begin(t(1)).unwrap();
        eng.begin(t(2)).unwrap();
        eng.lock(t(1), e(1)).unwrap();
        eng.unlock(t(1), e(1)).unwrap();
        eng.lock(t(2), e(1)).unwrap();
        // AL2 disabled: T2 may lock outside the wake — the unsafe behavior
        // experiment E7 exploits.
        assert!(eng.lock(t(2), e(4)).is_ok());
    }

    #[test]
    fn two_wakes_simultaneously() {
        let mut eng = AltruisticEngine::new((0..10).map(EntityId));
        eng.begin(t(1)).unwrap();
        eng.begin(t(2)).unwrap();
        eng.begin(t(3)).unwrap();
        // T1 donates {1, 2}; T2 donates {2, 3}.
        eng.lock(t(1), e(1)).unwrap();
        eng.lock(t(1), e(2)).unwrap();
        eng.unlock(t(1), e(1)).unwrap();
        eng.unlock(t(1), e(2)).unwrap();
        eng.lock(t(2), e(3)).unwrap();
        eng.unlock(t(2), e(3)).unwrap();
        // T3 locks 2 (in T1's wake only). Fine: {2} ⊆ donated(T1).
        eng.lock(t(3), e(2)).unwrap();
        // T3 locks 3 -> it is already in T1's wake ({3} not donated by T1)
        // and would also enter T2's wake ({2} not donated by T2). Either
        // violation is a correct rejection; the engine reports the first.
        assert!(matches!(
            eng.check_lock(t(3), e(3)),
            Err(AltruisticViolation::OutsideWake { tx, .. }) if tx == t(3)
        ));
    }

    #[test]
    fn finish_releases_remaining_locks() {
        let mut eng = AltruisticEngine::new((0..10).map(EntityId));
        eng.begin(t(1)).unwrap();
        eng.lock(t(1), e(1)).unwrap();
        eng.lock(t(1), e(2)).unwrap();
        eng.unlock(t(1), e(1)).unwrap();
        let steps = eng.finish(t(1)).unwrap();
        assert_eq!(steps, vec![Step::unlock_exclusive(e(2))]);
        assert_eq!(eng.holding(t(1)), Vec::<EntityId>::new());
    }
}
