//! Per-packet scheduler state: one leaf of the comparator tree (Figure 5),
//! and the store every scheduler variant keeps its leaves in.
//!
//! Each leaf stores the packet's logical arrival time `ℓ(m)`, its local delay
//! bound `d` (so the deadline `ℓ(m) + d` is known), the bit mask of output
//! ports still waiting to transmit it, and the address of the packet's data
//! in the shared memory. A mask of zero means the leaf — and the memory
//! slot — are free.
//!
//! The chip has one leaf per packet-memory slot and evaluates all of them
//! every slot time; [`LeafStore`] holds and scans only the leaves that were
//! ever issued (DESIGN.md §3.14), and answers "how many packets wait for
//! this port" from a counter.

use crate::memory::SlotAddr;
use rtr_types::clock::{LogicalTime, SlotClock};
use rtr_types::ids::{Port, PORT_COUNT};

/// Scheduler state for one buffered time-constrained packet.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Leaf {
    /// Logical arrival time `ℓ(m)` at this node.
    pub l: LogicalTime,
    /// Local delay bound `d` in slots; the local deadline is `ℓ(m) + d`.
    pub delay: u32,
    /// Output ports that still have to transmit this packet (multicast sets
    /// several bits at arrival; each port clears its own bit).
    pub port_mask: u8,
    /// Address of the packet in the shared memory.
    pub addr: SlotAddr,
}

impl Leaf {
    /// The packet's local deadline `ℓ(m) + d`.
    #[must_use]
    pub fn deadline(&self, clock: &SlotClock) -> LogicalTime {
        clock.add(self.l, self.delay)
    }

    /// Whether `port` still has to transmit this packet.
    #[must_use]
    pub fn eligible_for(&self, port: Port) -> bool {
        self.port_mask & port.mask() != 0
    }

    /// Clears `port`'s bit; returns `true` if the leaf is now empty (all
    /// ports served) and the memory slot can be freed.
    pub fn clear_port(&mut self, port: Port) -> bool {
        self.port_mask &= !port.mask();
        self.port_mask == 0
    }
}

/// The leaves of one scheduler, sized and scanned by use.
///
/// Indices are handed out exactly as a full-size vector with a high-to-low
/// free stack would hand them out: a freed index goes on the `holes` stack
/// and is reissued last-freed-first, and only when no hole is left does
/// the next never-used index (the length of `slots`) come into play. That
/// stack is, at every moment, the never-used indices in descending order
/// with the holes on top of them, so the two disciplines issue the same
/// index at every insert — which every tie-break (leftmost leaf wins)
/// depends on.
#[derive(Debug)]
pub struct LeafStore {
    /// Most leaves the store may hold: one per packet-memory slot, so
    /// indices fit the 32-bit fields below with room to spare.
    capacity: usize,
    /// One slot per index issued so far; `None` is a hole.
    slots: Vec<Option<Leaf>>,
    /// Freed indices, reissued from the top.
    holes: Vec<u32>,
    /// One past the highest occupied index: the occupied prefix every scan
    /// and every tournament rebuild is bounded by.
    high: u32,
    /// Leaves whose mask still names each port.
    backlog: [u32; PORT_COUNT],
    version: u64,
}

impl LeafStore {
    /// Creates an empty store for up to `capacity` leaves. Allocates
    /// nothing until the first insert.
    #[must_use]
    pub fn new(capacity: usize) -> Self {
        LeafStore {
            capacity,
            slots: Vec::new(),
            holes: Vec::new(),
            high: 0,
            backlog: [0; PORT_COUNT],
            version: 0,
        }
    }

    /// Number of occupied leaves: every issued index that is not a hole.
    #[must_use]
    pub fn len(&self) -> usize {
        self.slots.len() - self.holes.len()
    }

    /// Whether no leaf is occupied.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.high == 0
    }

    /// One past the highest occupied index.
    #[must_use]
    pub fn high(&self) -> usize {
        self.high as usize
    }

    /// Monotone counter bumped by every `insert` and `commit`; output ports
    /// cache selections against it.
    #[must_use]
    pub fn version(&self) -> u64 {
        self.version
    }

    /// Occupied leaves still awaiting transmission on `port`.
    #[must_use]
    pub fn backlog_for(&self, port: Port) -> usize {
        self.backlog[port.index()] as usize
    }

    /// The ports with leaves still awaiting them, as a mask (bit `i` =
    /// port `i`, as in [`Leaf::port_mask`]).
    #[must_use]
    pub fn backlog_mask(&self) -> u8 {
        (0..PORT_COUNT).fold(0, |mask, i| mask | u8::from(self.backlog[i] > 0) << i)
    }

    /// The leaf at `idx`, if occupied.
    #[must_use]
    pub fn get(&self, idx: usize) -> Option<&Leaf> {
        self.slots.get(idx).and_then(Option::as_ref)
    }

    /// The occupied `(index, leaf)` pairs in index order.
    pub fn iter(&self) -> impl Iterator<Item = (usize, &Leaf)> {
        self.slots[..self.high as usize]
            .iter()
            .enumerate()
            .filter_map(|(i, l)| l.as_ref().map(|l| (i, l)))
    }

    /// Stores `leaf`, returning its index — or the leaf back if the store
    /// is full.
    #[inline]
    pub fn insert(&mut self, leaf: Leaf) -> Result<usize, Leaf> {
        debug_assert!(leaf.port_mask != 0, "inserting a leaf with an empty mask");
        let idx = match self.holes.pop() {
            Some(hole) => {
                debug_assert!(self.slots[hole as usize].is_none());
                self.slots[hole as usize] = Some(leaf);
                hole
            }
            None if self.slots.len() < self.capacity => {
                self.slots.push(Some(leaf));
                self.slots.len() as u32 - 1
            }
            None => return Err(leaf),
        };
        // Bit `i` of the mask is port `i`.
        for (bit, count) in self.backlog.iter_mut().enumerate() {
            *count += u32::from(leaf.port_mask >> bit & 1);
        }
        self.version += 1;
        self.high = self.high.max(idx + 1);
        Ok(idx as usize)
    }

    /// Records that `port` transmitted leaf `idx`: clears the port's bit
    /// and, if the mask is now empty, frees the leaf and returns the memory
    /// address that must go back to the idle pool.
    ///
    /// # Panics
    ///
    /// Panics if the leaf is empty or the port's bit was not set — either
    /// indicates a scheduler/port desynchronisation bug.
    #[inline]
    pub fn commit(&mut self, idx: usize, port: Port) -> Option<SlotAddr> {
        let leaf =
            self.slots.get_mut(idx).and_then(Option::as_mut).expect("committing an empty leaf");
        assert!(leaf.eligible_for(port), "committing a port whose bit is clear");
        self.version += 1;
        self.backlog[port.index()] -= 1;
        if !leaf.clear_port(port) {
            return None;
        }
        let addr = leaf.addr;
        self.slots[idx] = None;
        self.holes.push(idx as u32);
        while self.high > 0 && self.slots[self.high as usize - 1].is_none() {
            self.high -= 1;
        }
        Some(addr)
    }

    /// Heap bytes currently allocated behind the store.
    #[must_use]
    pub fn heap_bytes(&self) -> usize {
        self.slots.capacity() * std::mem::size_of::<Option<Leaf>>()
            + self.holes.capacity() * std::mem::size_of::<u32>()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rtr_types::ids::{ports_in_mask, Direction};

    #[test]
    fn deadline_wraps_with_clock() {
        let clock = SlotClock::new(8);
        let leaf = Leaf { l: clock.wrap(250), delay: 10, port_mask: 0b10, addr: SlotAddr(0) };
        assert_eq!(leaf.deadline(&clock).raw(), 4);
    }

    #[test]
    fn multicast_mask_clears_per_port() {
        let clock = SlotClock::new(8);
        let mut leaf = Leaf {
            l: clock.wrap(0),
            delay: 1,
            port_mask: Port::Dir(Direction::XPlus).mask() | Port::Local.mask(),
            addr: SlotAddr(3),
        };
        assert!(leaf.eligible_for(Port::Local));
        assert!(leaf.eligible_for(Port::Dir(Direction::XPlus)));
        assert!(!leaf.eligible_for(Port::Dir(Direction::YPlus)));
        assert!(!leaf.clear_port(Port::Local), "one port still pending");
        assert!(!leaf.eligible_for(Port::Local));
        assert!(leaf.clear_port(Port::Dir(Direction::XPlus)), "last port frees the leaf");
    }

    /// The storage every scheduler variant used to carry: all `capacity`
    /// leaves materialised, free indices on a stack built high to low.
    struct EagerStore {
        leaves: Vec<Option<Leaf>>,
        free: Vec<usize>,
        high: usize,
    }

    impl EagerStore {
        fn new(capacity: usize) -> Self {
            EagerStore {
                leaves: vec![None; capacity],
                free: (0..capacity).rev().collect(),
                high: 0,
            }
        }

        fn insert(&mut self, leaf: Leaf) -> Result<usize, Leaf> {
            let idx = self.free.pop().ok_or(leaf)?;
            self.leaves[idx] = Some(leaf);
            self.high = self.high.max(idx + 1);
            Ok(idx)
        }

        fn commit(&mut self, idx: usize, port: Port) -> Option<SlotAddr> {
            let leaf = self.leaves[idx].as_mut().expect("committing an empty leaf");
            if !leaf.clear_port(port) {
                return None;
            }
            let addr = leaf.addr;
            self.leaves[idx] = None;
            self.free.push(idx);
            while self.high > 0 && self.leaves[self.high - 1].is_none() {
                self.high -= 1;
            }
            Some(addr)
        }

        fn iter(&self) -> impl Iterator<Item = (usize, &Leaf)> {
            self.leaves.iter().enumerate().filter_map(|(i, l)| l.as_ref().map(|l| (i, l)))
        }
    }

    fn assert_same(store: &LeafStore, eager: &EagerStore) {
        assert!(store.iter().eq(eager.iter()), "occupied leaves differ");
        assert_eq!(store.len(), eager.iter().count());
        assert_eq!(store.is_empty(), eager.iter().next().is_none());
        assert_eq!(store.high(), eager.high);
        for port in Port::ALL {
            let waiting = eager.iter().filter(|(_, leaf)| leaf.eligible_for(port)).count();
            assert_eq!(store.backlog_for(port), waiting, "backlog for {port}");
        }
    }

    /// Commits the `port`-th pending port of the `leaf`-th occupied leaf
    /// (both counted modulo what there is) on both stores.
    fn commit_both(store: &mut LeafStore, eager: &mut EagerStore, leaf: usize, port: usize) {
        let occupied: Vec<(usize, u8)> = eager.iter().map(|(i, l)| (i, l.port_mask)).collect();
        let (idx, mask) = occupied[leaf % occupied.len()];
        let pending: Vec<Port> = ports_in_mask(mask).collect();
        let port = pending[port % pending.len()];
        let version = store.version();
        assert_eq!(store.commit(idx, port), eager.commit(idx, port));
        assert_eq!(store.version(), version + 1);
        assert_same(store, eager);
    }

    proptest::proptest! {
        /// A random multicast insert/commit sequence, then to full, then
        /// back to empty: the store hands out the index the eager free
        /// stack hands out at every insert, and agrees with it on
        /// occupancy, high-water bound, per-port backlog and iteration
        /// order after every call.
        #[test]
        fn leaf_store_issues_what_the_eager_free_stack_issues(
            ops in proptest::collection::vec((0u8..3, 1u8..32, 0usize..64, 0usize..5), 1..200),
        ) {
            const CAPACITY: usize = 12;
            let clock = SlotClock::new(8);
            let mut store = LeafStore::new(CAPACITY);
            let mut eager = EagerStore::new(CAPACITY);
            let mut stored = 0u16;
            let mut insert_both = |store: &mut LeafStore, eager: &mut EagerStore, mask: u8| {
                stored += 1;
                let leaf = Leaf {
                    l: clock.wrap(u64::from(stored)),
                    delay: 3,
                    port_mask: mask,
                    addr: SlotAddr(stored),
                };
                let issued = store.insert(leaf);
                assert_eq!(issued, eager.insert(leaf));
                assert_same(store, eager);
                issued.is_ok()
            };
            for (kind, mask, leaf_pick, port_pick) in ops {
                if kind < 2 || store.is_empty() {
                    insert_both(&mut store, &mut eager, mask);
                } else {
                    commit_both(&mut store, &mut eager, leaf_pick, port_pick);
                }
            }
            while insert_both(&mut store, &mut eager, 0b1_0101) {}
            proptest::prop_assert_eq!(store.len(), CAPACITY);
            let mut pick = 0;
            while !store.is_empty() {
                pick += 7;
                commit_both(&mut store, &mut eager, pick, pick / 3);
            }
            proptest::prop_assert_eq!(store.high(), 0);
            let refilled = insert_both(&mut store, &mut eager, 1);
            proptest::prop_assert!(refilled, "an emptied store takes leaves again");
        }
    }
}
