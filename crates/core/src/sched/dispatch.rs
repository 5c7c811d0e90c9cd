//! Scheduler dispatch: the router runs the exact comparator tree (the
//! fabricated chip), the §7 banded approximation, or the Table 1 oracle.
//! [`Scheduler`] is that closed set, statically dispatched by `match`.

use crate::memory::SlotAddr;
use crate::sched::banded::BandedScheduler;
use crate::sched::leaf::{Leaf, LeafStore};
use crate::sched::oracle::OracleScheduler;
use crate::sched::tree::{ComparatorTree, Selection};
use rtr_types::clock::{LogicalTime, SlotClock};
use rtr_types::config::SchedulerKind;
use rtr_types::ids::Port;
use rtr_types::key::LatePolicy;

/// The link scheduler variant instantiated by the router.
#[derive(Debug)]
pub enum Scheduler {
    /// The exact comparator tree (Figure 5).
    Tree(ComparatorTree),
    /// The §7 banded approximation.
    Banded(BandedScheduler),
    /// The Table 1 reference discipline, run as a live scheduler.
    Oracle(OracleScheduler),
}

/// Evaluates `$call` on the active implementation (one signature on all).
macro_rules! each {
    ($self:expr, $s:ident => $call:expr) => {
        match $self {
            Scheduler::Tree($s) => $call,
            Scheduler::Banded($s) => $call,
            Scheduler::Oracle($s) => $call,
        }
    };
}

impl Scheduler {
    /// Builds the scheduler selected by the configuration.
    #[must_use]
    pub fn new(
        kind: SchedulerKind,
        capacity: usize,
        clock: SlotClock,
        late_policy: LatePolicy,
    ) -> Self {
        match kind {
            SchedulerKind::ComparatorTree => {
                Scheduler::Tree(ComparatorTree::new(capacity, clock, late_policy))
            }
            SchedulerKind::Banded { band_shift } => {
                Scheduler::Banded(BandedScheduler::new(capacity, clock, late_policy, band_shift))
            }
            SchedulerKind::Oracle => {
                Scheduler::Oracle(OracleScheduler::new(capacity, clock, late_policy))
            }
        }
    }

    /// The active implementation's leaves.
    fn leaves(&self) -> &LeafStore {
        each!(self, s => s.leaves())
    }

    /// Number of buffered packets.
    #[must_use]
    pub fn len(&self) -> usize {
        self.leaves().len()
    }

    /// Whether no packets are buffered.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Monotone counter bumped on every mutation (never by selection).
    #[must_use]
    pub fn version(&self) -> u64 {
        self.leaves().version()
    }

    /// Inserts a packet's scheduler state, returning its leaf index — or
    /// the leaf back (`Err`) if every slot is occupied.
    pub fn insert(&mut self, leaf: Leaf) -> Result<usize, Leaf> {
        each!(self, s => s.insert(leaf))
    }

    /// The winning packet for `port` at scheduler time `t` (early or not).
    #[must_use]
    pub fn select(&self, port: Port, t: LogicalTime) -> Option<Selection> {
        each!(self, s => s.select(port, t))
    }

    /// Records that `port` sent leaf `idx`; the last port frees its slot.
    pub fn commit(&mut self, idx: usize, port: Port) -> Option<SlotAddr> {
        each!(self, s => s.commit(idx, port))
    }

    /// The occupied `(index, leaf)` pairs in index order.
    pub fn iter(&self) -> impl Iterator<Item = (usize, &Leaf)> {
        self.leaves().iter()
    }

    /// Buffered packets still awaiting transmission on `port`.
    #[must_use]
    pub fn backlog_for(&self, port: Port) -> usize {
        self.leaves().backlog_for(port)
    }

    /// The ports with buffered packets still awaiting them, as a mask.
    #[must_use]
    pub fn backlog_mask(&self) -> u8 {
        self.leaves().backlog_mask()
    }

    /// Sorting-key computations so far (banded and oracle count none).
    #[must_use]
    pub fn key_computations(&self) -> u64 {
        match self {
            Scheduler::Tree(t) => t.key_computations(),
            Scheduler::Banded(_) | Scheduler::Oracle(_) => 0,
        }
    }

    /// Heap bytes held: the leaves plus what the variant keeps beside them.
    #[must_use]
    pub fn heap_bytes(&self) -> usize {
        match self {
            Scheduler::Tree(t) => t.heap_bytes(),
            Scheduler::Banded(b) => b.heap_bytes(),
            Scheduler::Oracle(o) => o.leaves().heap_bytes(),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rtr_types::ids::Direction;

    #[test]
    fn dispatch_constructs_the_requested_variant() {
        let clock = SlotClock::new(8);
        let tree = Scheduler::new(SchedulerKind::ComparatorTree, 8, clock, LatePolicy::Saturate);
        assert!(matches!(tree, Scheduler::Tree(_)));
        let banded =
            Scheduler::new(SchedulerKind::Banded { band_shift: 3 }, 8, clock, LatePolicy::Saturate);
        assert!(matches!(banded, Scheduler::Banded(_)));
        let oracle = Scheduler::new(SchedulerKind::Oracle, 8, clock, LatePolicy::Saturate);
        assert!(matches!(oracle, Scheduler::Oracle(_)));
    }

    #[test]
    fn all_variants_round_trip_a_leaf() {
        let clock = SlotClock::new(8);
        for kind in [
            SchedulerKind::ComparatorTree,
            SchedulerKind::Banded { band_shift: 2 },
            SchedulerKind::Oracle,
        ] {
            let mut s = Scheduler::new(kind, 4, clock, LatePolicy::Saturate);
            assert!(s.is_empty());
            let idx = s
                .insert(Leaf {
                    l: clock.wrap(0),
                    delay: 5,
                    port_mask: Port::Dir(Direction::XPlus).mask(),
                    addr: SlotAddr(2),
                })
                .unwrap();
            assert_eq!(s.len(), 1);
            let sel = s.select(Port::Dir(Direction::XPlus), clock.wrap(1)).unwrap();
            assert_eq!(sel.addr, SlotAddr(2));
            assert_eq!(s.backlog_for(Port::Dir(Direction::XPlus)), 1);
            assert_eq!(s.commit(idx, Port::Dir(Direction::XPlus)), Some(SlotAddr(2)));
            assert!(s.is_empty());
        }
    }
}
