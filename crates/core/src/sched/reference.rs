//! The three-queue reference scheduler (paper §2, Table 1).
//!
//! An independent software implementation of the real-time channels link
//! discipline, written directly from Table 1 rather than from keys and
//! comparators:
//!
//! 1. **Queue 1** — on-time time-constrained packets, priority by deadline
//!    `ℓ(m) + d`;
//! 2. **Queue 2** — best-effort packets (handled by the ports, not here);
//! 3. **Queue 3** — early time-constrained packets, priority by logical
//!    arrival time `ℓ(m)`, transmissible only within the horizon `h`.
//!
//! The comparator tree of [`crate::sched::tree`] must make exactly the same
//! choice for every reachable state; the property tests in this module prove
//! that equivalence on randomized states, which is how we validate the key
//! encoding of Figure 4.

use crate::sched::leaf::Leaf;
use rtr_types::clock::{LogicalTime, SlotClock};
use rtr_types::ids::Port;

/// What the reference discipline decided for a port.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ReferenceChoice {
    /// An on-time packet must be transmitted (leaf index given); this
    /// preempts best-effort traffic.
    OnTime(usize),
    /// No on-time packet exists; best-effort traffic goes first, but if none
    /// is waiting the given early packet may be transmitted (it is within
    /// the horizon).
    EarlyWithinHorizon(usize),
    /// Only early packets beyond the horizon (or nothing) are buffered: the
    /// link serves best-effort traffic or idles.
    Nothing,
}

/// The Table 1 reference scheduler. Stateless: it evaluates a set of leaves.
#[derive(Debug, Clone, Copy)]
pub struct ReferenceScheduler {
    clock: SlotClock,
}

impl ReferenceScheduler {
    /// Creates a reference scheduler over the given clock.
    #[must_use]
    pub fn new(clock: SlotClock) -> Self {
        ReferenceScheduler { clock }
    }

    /// Evaluates Table 1 for `port` at time `t` over `leaves`
    /// (index, leaf) pairs, with horizon `h`.
    ///
    /// Ties resolve to the lowest leaf index, matching the leftmost-wins
    /// behaviour of the comparator tree.
    #[must_use]
    pub fn choose<'a>(
        &self,
        leaves: impl Iterator<Item = (usize, &'a Leaf)>,
        port: Port,
        t: LogicalTime,
        h: u32,
    ) -> ReferenceChoice {
        // Queue 1: on-time packets by (deadline laxity, index).
        let mut best_on_time: Option<(u32, usize)> = None;
        // Queue 3: early packets by (time to arrival, index).
        let mut best_early: Option<(u32, usize)> = None;
        for (idx, leaf) in leaves {
            if !leaf.eligible_for(port) {
                continue;
            }
            if self.clock.is_early(leaf.l, t) {
                let wait = self.clock.until(leaf.l, t);
                if best_early.is_none_or(|(w, _)| wait < w) {
                    best_early = Some((wait, idx));
                }
            } else {
                let deadline = leaf.deadline(&self.clock);
                let laxity = if self.clock.has_passed(deadline, t) {
                    0 // late packets are maximally urgent (LatePolicy::Saturate)
                } else {
                    self.clock.until(deadline, t)
                };
                if best_on_time.is_none_or(|(lx, _)| laxity < lx) {
                    best_on_time = Some((laxity, idx));
                }
            }
        }
        if let Some((_, idx)) = best_on_time {
            ReferenceChoice::OnTime(idx)
        } else if let Some((wait, idx)) = best_early {
            if wait <= h {
                ReferenceChoice::EarlyWithinHorizon(idx)
            } else {
                ReferenceChoice::Nothing
            }
        } else {
            ReferenceChoice::Nothing
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::memory::SlotAddr;
    use crate::sched::tree::ComparatorTree;
    use proptest::prelude::*;
    use rtr_types::ids::Direction;
    use rtr_types::key::LatePolicy;

    const XP: Port = Port::Dir(Direction::XPlus);

    fn clock() -> SlotClock {
        SlotClock::new(8)
    }

    fn leaf(l: u64, d: u32, mask: u8, addr: u16) -> Leaf {
        Leaf { l: clock().wrap(l), delay: d, port_mask: mask, addr: SlotAddr(addr) }
    }

    #[test]
    fn on_time_wins_over_early() {
        let r = ReferenceScheduler::new(clock());
        let leaves = [leaf(20, 5, 0b10, 0), leaf(5, 100, 0b10, 1)];
        let choice = r.choose(leaves.iter().enumerate(), XP, clock().wrap(10), 100);
        assert_eq!(choice, ReferenceChoice::OnTime(1));
    }

    #[test]
    fn early_outside_horizon_yields_nothing() {
        let r = ReferenceScheduler::new(clock());
        let leaves = [leaf(20, 5, 0b10, 0)];
        assert_eq!(
            r.choose(leaves.iter().enumerate(), XP, clock().wrap(10), 9),
            ReferenceChoice::Nothing
        );
        assert_eq!(
            r.choose(leaves.iter().enumerate(), XP, clock().wrap(10), 10),
            ReferenceChoice::EarlyWithinHorizon(0)
        );
    }

    #[test]
    fn empty_set_yields_nothing() {
        let r = ReferenceScheduler::new(clock());
        assert_eq!(r.choose(std::iter::empty(), XP, clock().wrap(0), 10), ReferenceChoice::Nothing);
    }

    /// Strategy generating leaves in the admissible regime around a time.
    fn arb_leaves(t_abs: u64) -> impl Strategy<Value = Vec<Leaf>> {
        proptest::collection::vec(
            (-80i64..80, 0u32..127, 1u8..32, 0u16..64).prop_map(move |(off, extra, mask, addr)| {
                // Generate l in [t-80, t+80) and a deadline at or after t so
                // no packet is late (the admitted-traffic regime).
                let l_abs = (t_abs as i64 + off).max(0) as u64;
                let d_min = t_abs.saturating_sub(l_abs) as u32;
                let d = (d_min + extra).min(127);
                Leaf {
                    l: SlotClock::new(8).wrap(l_abs),
                    delay: d,
                    port_mask: mask,
                    addr: SlotAddr(addr),
                }
            }),
            0..40,
        )
    }

    proptest! {
        /// The comparator tree and the Table 1 reference model agree on
        /// every port, time, and horizon: the central correctness property
        /// of the Figure 4/5 key-and-tree design.
        #[test]
        fn tree_matches_reference(
            t_abs in 100u64..100_000,
            leaves in (100u64..100_000).prop_flat_map(arb_leaves),
            h in 0u32..127,
        ) {
            let c = clock();
            let t = c.wrap(t_abs);
            let reference = ReferenceScheduler::new(c);
            let mut tree = ComparatorTree::new(64, c, LatePolicy::Saturate);
            for leaf in &leaves {
                tree.insert(*leaf).unwrap();
            }
            for port in Port::ALL {
                let tree_sel = tree.select(port, t);
                let ref_choice = reference.choose(tree.leaves().iter(), port, t, h);
                match ref_choice {
                    ReferenceChoice::OnTime(idx) => {
                        let sel = tree_sel.expect("tree missed an on-time packet");
                        prop_assert!(sel.key.is_on_time(&c));
                        prop_assert_eq!(sel.leaf, idx);
                    }
                    ReferenceChoice::EarlyWithinHorizon(idx) => {
                        let sel = tree_sel.expect("tree missed an early packet");
                        prop_assert!(sel.key.is_early(&c));
                        prop_assert_eq!(sel.leaf, idx);
                        prop_assert!(sel.key.time_field(&c) <= h);
                    }
                    ReferenceChoice::Nothing => {
                        // The tree may still report an early packet beyond
                        // the horizon; the port-level check rejects it.
                        if let Some(sel) = tree_sel {
                            prop_assert!(sel.key.is_early(&c));
                            prop_assert!(sel.key.time_field(&c) > h);
                        }
                    }
                }
            }
        }
    }
}
