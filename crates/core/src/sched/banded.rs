//! An approximate, reduced-complexity link scheduler (paper §7).
//!
//! "We are also considering alternate link-scheduling algorithms that would
//! improve the router's scalability; these algorithms could include
//! approximate versions of real-time channels, as well as new schemes with
//! reduced implementation complexity."
//!
//! This scheduler quantises the normalised sorting key into a small number
//! of **priority bands** and serves FIFO within a band. Hardware-wise that
//! replaces the `n − 1`-comparator tree with `B` FIFO queues per class and
//! a `B`-way priority encoder — cost grows with `B`, not with the number
//! of buffered packets. The price is *bounded priority inversion*: two
//! packets whose laxities fall in the same band may be served in arrival
//! order, so admission must widen its overhead allowance `η` by the band
//! width (see the ablation in `rtr-bench`).

use crate::memory::SlotAddr;
use crate::sched::leaf::{Leaf, LeafStore};
use crate::sched::tree::Selection;
use rtr_types::clock::{LogicalTime, SlotClock};
use rtr_types::ids::Port;
use rtr_types::key::{LatePolicy, SortKey};

/// The banded approximate scheduler. Interface-compatible with
/// [`crate::sched::tree::ComparatorTree`].
#[derive(Debug)]
pub struct BandedScheduler {
    leaves: LeafStore,
    /// Arrival sequence number of the leaf at each index (FIFO within a
    /// band); meaningful where `leaves` is occupied.
    seqs: Vec<u64>,
    clock: SlotClock,
    late_policy: LatePolicy,
    /// Laxity quantum: keys are right-shifted by this many bits before
    /// comparison (band width = `2^shift` slots).
    band_shift: u32,
    next_seq: u64,
}

impl BandedScheduler {
    /// Creates a banded scheduler with `2^band_shift`-slot bands.
    ///
    /// `band_shift = 0` degenerates to exact EDF with FIFO tie-breaking.
    #[must_use]
    pub fn new(
        capacity: usize,
        clock: SlotClock,
        late_policy: LatePolicy,
        band_shift: u32,
    ) -> Self {
        BandedScheduler {
            leaves: LeafStore::new(capacity),
            seqs: Vec::new(),
            clock,
            late_policy,
            band_shift,
            next_seq: 0,
        }
    }

    /// The band width in slots.
    #[must_use]
    pub fn band_slots(&self) -> u32 {
        1 << self.band_shift
    }

    /// The leaf state: occupancy, per-port backlog, mutation counter.
    #[must_use]
    pub fn leaves(&self) -> &LeafStore {
        &self.leaves
    }

    /// Inserts a packet's scheduler state.
    ///
    /// # Errors
    ///
    /// Gives the leaf back if every slot is occupied.
    pub fn insert(&mut self, leaf: Leaf) -> Result<usize, Leaf> {
        let idx = self.leaves.insert(leaf)?;
        if idx == self.seqs.len() {
            self.seqs.push(self.next_seq);
        } else {
            self.seqs[idx] = self.next_seq;
        }
        self.next_seq += 1;
        Ok(idx)
    }

    /// Selects the packet with the smallest (banded key, arrival sequence)
    /// for `port` at time `t`. The returned [`Selection`] carries the
    /// winner's *exact* key so the caller's class/horizon checks behave
    /// identically to the tree's.
    #[must_use]
    pub fn select(&self, port: Port, t: LogicalTime) -> Option<Selection> {
        let mut best: Option<(u32, u64, Selection)> = None;
        for (idx, leaf) in self.leaves.iter() {
            let seq = self.seqs[idx];
            if !leaf.eligible_for(port) {
                continue;
            }
            let key = SortKey::compute(&self.clock, leaf.l, leaf.delay, t, self.late_policy);
            // Quantise only the time field; the class bits stay exact so
            // on-time packets always beat early ones.
            let class = key.value() & !(self.clock.half_range() - 1);
            let banded = class | (key.time_field(&self.clock) >> self.band_shift);
            let better = match &best {
                None => true,
                Some((b, s, _)) => banded < *b || (banded == *b && seq < *s),
            };
            if better {
                best = Some((banded, seq, Selection { leaf: idx, addr: leaf.addr, key }));
            }
        }
        best.map(|(_, _, sel)| sel)
    }

    /// Records a transmission; frees the leaf when its mask empties.
    ///
    /// # Panics
    ///
    /// Panics if the leaf is empty or the port's bit was clear.
    pub fn commit(&mut self, idx: usize, port: Port) -> Option<SlotAddr> {
        self.leaves.commit(idx, port)
    }

    /// Heap bytes currently allocated behind the scheduler — zero until
    /// the first insert.
    #[must_use]
    pub fn heap_bytes(&self) -> usize {
        self.leaves.heap_bytes() + self.seqs.capacity() * std::mem::size_of::<u64>()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::sched::tree::ComparatorTree;
    use proptest::prelude::*;
    use rtr_types::ids::Direction;

    const XP: Port = Port::Dir(Direction::XPlus);

    fn clock() -> SlotClock {
        SlotClock::new(8)
    }

    fn leaf(l: u64, d: u32, addr: u16) -> Leaf {
        Leaf { l: clock().wrap(l), delay: d, port_mask: XP.mask(), addr: SlotAddr(addr) }
    }

    #[test]
    fn fifo_within_band_edf_across_bands() {
        let mut s = BandedScheduler::new(16, clock(), LatePolicy::Saturate, 3); // 8-slot bands
                                                                                // Laxities 5 and 2 share band 0: FIFO order wins (addr 0 first).
        s.insert(leaf(0, 5, 0)).unwrap();
        s.insert(leaf(0, 2, 1)).unwrap();
        // Laxity 20 is band 2: always later.
        s.insert(leaf(0, 20, 2)).unwrap();
        let t = clock().wrap(0);
        let first = s.select(XP, t).unwrap();
        assert_eq!(first.addr, SlotAddr(0), "same band → arrival order");
        s.commit(first.leaf, XP);
        assert_eq!(s.select(XP, t).unwrap().addr, SlotAddr(1));
    }

    #[test]
    fn cross_band_ordering_is_exact() {
        let mut s = BandedScheduler::new(16, clock(), LatePolicy::Saturate, 3);
        s.insert(leaf(0, 30, 0)).unwrap(); // band 3
        s.insert(leaf(0, 9, 1)).unwrap(); // band 1
        let sel = s.select(XP, clock().wrap(0)).unwrap();
        assert_eq!(sel.addr, SlotAddr(1));
    }

    #[test]
    fn on_time_always_beats_early_regardless_of_band() {
        let mut s = BandedScheduler::new(16, clock(), LatePolicy::Saturate, 5);
        s.insert(leaf(10, 100, 0)).unwrap(); // early by 5 at t = 5
        s.insert(leaf(0, 120, 1)).unwrap(); // on-time, huge laxity
        let sel = s.select(XP, clock().wrap(5)).unwrap();
        assert_eq!(sel.addr, SlotAddr(1));
        assert!(sel.key.is_on_time(&clock()));
    }

    #[test]
    fn zero_shift_matches_exact_tree() {
        let mut banded = BandedScheduler::new(32, clock(), LatePolicy::Saturate, 0);
        let mut tree = ComparatorTree::new(32, clock(), LatePolicy::Saturate);
        for i in 0..20u16 {
            let l = u64::from(i) * 3 % 40;
            let d = 4 + u32::from(i) * 7 % 60;
            banded.insert(leaf(l, d, i)).unwrap();
            tree.insert(leaf(l, d, i)).unwrap();
        }
        let t = clock().wrap(25);
        assert_eq!(
            banded.select(XP, t).unwrap().key.value(),
            tree.select(XP, t).unwrap().key.value(),
            "band width 1 must pick a minimum-key packet"
        );
    }

    proptest! {
        /// The banded winner's key never exceeds the exact minimum by more
        /// than one band width — the bounded-inversion property admission
        /// compensates with a wider η.
        #[test]
        fn inversion_is_bounded_by_band_width(
            shift in 0u32..5,
            t_abs in 100u64..10_000,
            leaves in proptest::collection::vec((0u64..60, 0u32..100, 0u16..64), 1..24),
        ) {
            let c = clock();
            let mut banded = BandedScheduler::new(64, c, LatePolicy::Saturate, shift);
            let mut tree = ComparatorTree::new(64, c, LatePolicy::Saturate);
            for (off, extra, addr) in &leaves {
                // Keep packets in the admitted (not-late) regime.
                let l_abs = t_abs - (off % 50);
                let d = ((t_abs - l_abs) as u32 + extra % 60).min(127);
                let lf = Leaf {
                    l: c.wrap(l_abs),
                    delay: d,
                    port_mask: XP.mask(),
                    addr: SlotAddr(*addr),
                };
                banded.insert(lf).unwrap();
                tree.insert(lf).unwrap();
            }
            let t = c.wrap(t_abs);
            let approx = banded.select(XP, t).unwrap();
            let exact = tree.select(XP, t).unwrap();
            prop_assert!(approx.key.value() >= exact.key.value());
            prop_assert!(
                u64::from(approx.key.value()) < u64::from(exact.key.value()) + (1u64 << shift),
                "inversion beyond one band: approx {} exact {} shift {}",
                approx.key.value(), exact.key.value(), shift
            );
        }
    }
}
