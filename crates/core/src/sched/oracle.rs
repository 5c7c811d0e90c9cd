//! A stateful link scheduler built directly on the Table 1 reference
//! discipline (paper §2).
//!
//! Where [`crate::sched::tree::ComparatorTree`] models the hardware — keys
//! and a comparator tournament — this scheduler keeps the same leaf state
//! but decides each selection by evaluating the three-queue discipline of
//! [`crate::sched::reference::ReferenceScheduler`]. It exists so the
//! ablation experiments can run the *specification* through the exact same
//! router code path as the two implementations and compare outcomes, and so
//! property tests have a stateful oracle with the full
//! insert/select/commit lifecycle.
//!
//! The reference discipline treats late packets as maximally urgent, i.e.
//! [`LatePolicy::Saturate`]; configuration validation rejects the oracle
//! under [`LatePolicy::Wrap`].

use crate::memory::SlotAddr;
use crate::sched::leaf::{Leaf, LeafStore};
use crate::sched::reference::{ReferenceChoice, ReferenceScheduler};
use crate::sched::tree::Selection;
use rtr_types::clock::{LogicalTime, SlotClock};
use rtr_types::ids::Port;
use rtr_types::key::{LatePolicy, SortKey};

/// The Table 1 discipline with the same leaf lifecycle as the comparator
/// tree.
#[derive(Debug)]
pub struct OracleScheduler {
    leaves: LeafStore,
    clock: SlotClock,
    reference: ReferenceScheduler,
}

impl OracleScheduler {
    /// Creates an oracle with `capacity` leaves.
    ///
    /// # Panics
    ///
    /// Panics under [`LatePolicy::Wrap`]: the reference discipline has no
    /// notion of aliased late keys.
    #[must_use]
    pub fn new(capacity: usize, clock: SlotClock, late_policy: LatePolicy) -> Self {
        assert!(
            late_policy == LatePolicy::Saturate,
            "the oracle scheduler implements Table 1, which saturates late packets"
        );
        OracleScheduler {
            leaves: LeafStore::new(capacity),
            clock,
            reference: ReferenceScheduler::new(clock),
        }
    }

    /// The leaf state: occupancy, per-port backlog, mutation counter.
    #[must_use]
    pub fn leaves(&self) -> &LeafStore {
        &self.leaves
    }

    /// Inserts a packet's scheduler state, returning its leaf index.
    ///
    /// # Errors
    ///
    /// Gives the leaf back if every leaf is occupied.
    pub fn insert(&mut self, leaf: Leaf) -> Result<usize, Leaf> {
        self.leaves.insert(leaf)
    }

    /// Evaluates Table 1 for `port` at time `t`. The horizon is left to the
    /// caller (as with the tree, the winning key's class carries the
    /// early/on-time distinction and the port applies §3.2's horizon check
    /// before transmitting an early winner), so the discipline is evaluated
    /// with an unbounded horizon here.
    #[must_use]
    pub fn select(&self, port: Port, t: LogicalTime) -> Option<Selection> {
        let choice = self.reference.choose(self.leaves.iter(), port, t, self.clock.range());
        let idx = match choice {
            ReferenceChoice::OnTime(idx) | ReferenceChoice::EarlyWithinHorizon(idx) => idx,
            ReferenceChoice::Nothing => return None,
        };
        let leaf = self.leaves.get(idx).expect("reference chose a live leaf");
        let key = SortKey::compute(&self.clock, leaf.l, leaf.delay, t, LatePolicy::Saturate);
        Some(Selection { leaf: idx, addr: leaf.addr, key })
    }

    /// Records that `port` transmitted leaf `idx`; frees the leaf when the
    /// last port commits.
    ///
    /// # Panics
    ///
    /// Panics if the leaf is empty or the port's bit was not set.
    pub fn commit(&mut self, idx: usize, port: Port) -> Option<SlotAddr> {
        self.leaves.commit(idx, port)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rtr_types::ids::Direction;

    const XP: Port = Port::Dir(Direction::XPlus);

    fn clock() -> SlotClock {
        SlotClock::new(8)
    }

    fn leaf(l: u64, d: u32, mask: u8, addr: u16) -> Leaf {
        Leaf { l: clock().wrap(l), delay: d, port_mask: mask, addr: SlotAddr(addr) }
    }

    #[test]
    fn oracle_round_trips_a_leaf() {
        let mut o = OracleScheduler::new(4, clock(), LatePolicy::Saturate);
        let idx = o.insert(leaf(0, 5, XP.mask(), 2)).unwrap();
        let sel = o.select(XP, clock().wrap(1)).unwrap();
        assert_eq!(sel.leaf, idx);
        assert_eq!(sel.addr, SlotAddr(2));
        assert!(sel.key.is_on_time(&clock()));
        assert_eq!(o.commit(idx, XP), Some(SlotAddr(2)));
        assert!(o.leaves().is_empty());
    }

    #[test]
    fn oracle_reports_early_winners_for_the_port_to_gate() {
        let mut o = OracleScheduler::new(4, clock(), LatePolicy::Saturate);
        o.insert(leaf(30, 5, XP.mask(), 0)).unwrap();
        let sel = o.select(XP, clock().wrap(20)).unwrap();
        assert!(sel.key.is_early(&clock()));
        assert_eq!(sel.key.time_field(&clock()), 10, "the port compares this against its horizon");
    }

    #[test]
    #[should_panic(expected = "Table 1")]
    fn oracle_rejects_wrap_policy() {
        let _ = OracleScheduler::new(4, clock(), LatePolicy::Wrap);
    }
}
