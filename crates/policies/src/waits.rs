//! The waits-for table both executors detect deadlocks with.
//!
//! A blocked transaction waits for one holder, so the table keeps at most
//! one edge per waiter — no more entries than there are executing slots —
//! in a plain vector. The victim rule is the requester's: the transaction
//! whose new edge closes a cycle through itself aborts. A cycle among
//! other transactions is theirs to break.
//!
//! Detection is complete as long as every parked waiter's edge names its
//! current holder and the publish and the walk are one step (the caller
//! holds the table for both): in a real deadlock every member is parked
//! with its edge published, so whichever member publishes last walks the
//! whole cycle.

use slp_core::TxId;

/// The waits-for edges of the blocked transactions, at most one per
/// waiter.
#[derive(Debug, Default)]
pub struct WaitsFor {
    edges: Vec<(TxId, TxId)>,
}

impl WaitsFor {
    /// Publishes (or overwrites) the edge `tx → holder`, then walks the
    /// chain from `holder`: `true` iff it returns to `tx`, which makes
    /// the requester the deadlock victim.
    pub fn note(&mut self, tx: TxId, holder: TxId) -> bool {
        match self.edges.iter_mut().find(|(waiter, _)| *waiter == tx) {
            Some(edge) => edge.1 = holder,
            None => self.edges.push((tx, holder)),
        }
        // A cycle through `tx` uses each edge at most once, so a chain
        // that has not come back after one hop per edge never will: it
        // dead-ends or circles among others.
        let mut cur = holder;
        for _ in 0..self.edges.len() {
            if cur == tx {
                return true;
            }
            match self.edges.iter().find(|(waiter, _)| *waiter == cur) {
                Some(&(_, next)) => cur = next,
                None => return false,
            }
        }
        false
    }

    /// Removes `tx`'s edge (its blocked request was granted, or it
    /// aborts).
    pub fn clear(&mut self, tx: TxId) {
        if let Some(i) = self.edges.iter().position(|(waiter, _)| *waiter == tx) {
            self.edges.swap_remove(i);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn t(i: u32) -> TxId {
        TxId(i)
    }

    #[test]
    fn the_edge_that_closes_a_cycle_names_its_requester() {
        let mut g = WaitsFor::default();
        // t1 → t2 → t3, no cycle yet.
        assert!(!g.note(t(1), t(2)));
        assert!(!g.note(t(2), t(3)));
        // t3 → t1 closes the cycle; t3 is the victim.
        assert!(g.note(t(3), t(1)));
        g.clear(t(3));
        // With t3's edge removed the cycle is open again.
        assert!(!g.note(t(1), t(2)));
        assert!(g.note(t(2), t(1)), "two-cycle through the requester");
        g.clear(t(2));
        assert!(!g.note(t(4), t(1)), "chain dead-ends outside the cycle");
    }

    #[test]
    fn a_cycle_among_others_is_not_the_requesters() {
        let mut g = WaitsFor::default();
        assert!(!g.note(t(2), t(4)));
        assert!(g.note(t(4), t(2)), "closing a 2-cycle names the closer");
        // A walker outside that cycle stops after one hop per edge and is
        // not chosen as a victim for someone else's deadlock.
        assert!(!g.note(t(1), t(2)), "foreign cycle: not ours to break");
    }

    #[test]
    fn noting_again_overwrites_the_edge() {
        let mut g = WaitsFor::default();
        assert!(!g.note(t(1), t(2)));
        // The holder moved on; noting again points the edge at the fresh
        // holder, and the old edge is gone.
        assert!(!g.note(t(1), t(3)));
        assert!(!g.note(t(2), t(1)), "t1 no longer waits on t2's chain");
        assert!(g.note(t(3), t(1)), "the fresh edge closes this cycle");
    }
}
