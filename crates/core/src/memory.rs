//! The shared time-constrained packet memory (paper §3.4).
//!
//! A single packet memory, shared by the reception port and the four output
//! links, stores every buffered time-constrained packet. An **idle-address
//! FIFO** hands unused slot addresses to arriving packets; departing packets
//! return their address to the pool. The paper's chip stores packets in a
//! 10-byte-wide single-ported SRAM; here the slot granularity is one whole
//! packet, and the chunked bus timing is modelled by the router's arrival
//! pipeline.

use rtr_types::packet::TcPacket;

/// Address of a packet slot in the shared memory.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct SlotAddr(pub u16);

impl SlotAddr {
    /// Flat slot index.
    #[must_use]
    pub fn index(self) -> usize {
        usize::from(self.0)
    }
}

impl std::fmt::Display for SlotAddr {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "slot{}", self.0)
    }
}

/// One packet-memory slot: either a buffered packet or a free slot carrying
/// the intrusive idle-FIFO chain (the address of the next free slot).
#[derive(Debug)]
enum Slot {
    /// The slot holds a buffered packet.
    Occupied(TcPacket),
    /// The slot is idle; `next` chains to the next idle address (the FIFO
    /// order), `None` at the tail.
    Free { next: Option<SlotAddr> },
}

/// The shared packet memory plus its idle-address FIFO.
///
/// The idle FIFO is *intrusive*: each free slot stores the address of the
/// next free slot, and the memory keeps only the FIFO's head and tail —
/// the paper's idle-address FIFO collapses to two registers plus the slot
/// array itself, halving the layout's allocations.
///
/// The chip's FIFO starts out holding every address in order, so freed
/// addresses queue behind the never-used ones. Here a never-used address
/// has no slot yet: it is the length of `slots`, issued (and its slot
/// pushed) while that is below the capacity, and the chained FIFO holds
/// freed slots only — the same issue order, with a slot vector as long as
/// the most addresses ever handed out rather than the capacity (DESIGN.md
/// §3.14).
#[derive(Debug)]
pub struct PacketMemory {
    capacity: usize,
    /// One slot per address issued so far.
    slots: Vec<Slot>,
    /// Oldest freed address (FIFO front), issued once every address has
    /// been used; `None` when no slot is free.
    free_head: Option<SlotAddr>,
    /// Last freed address (FIFO back), where freed slots are appended.
    free_tail: Option<SlotAddr>,
    /// Occupancy counts; addresses are 16-bit, so 32 bits hold any count.
    live: u32,
    high_water: u32,
}

impl PacketMemory {
    /// Creates a memory with `capacity` packet slots (256 on the paper's
    /// chip), all idle.
    #[must_use]
    pub fn new(capacity: usize) -> Self {
        PacketMemory {
            capacity,
            slots: Vec::new(),
            free_head: None,
            free_tail: None,
            live: 0,
            high_water: 0,
        }
    }

    /// Total number of slots.
    #[must_use]
    pub fn capacity(&self) -> usize {
        self.capacity
    }

    /// Number of occupied slots.
    #[must_use]
    pub fn occupied(&self) -> usize {
        self.live as usize
    }

    /// Highest occupancy ever observed (for the buffer-reservation
    /// experiments).
    #[must_use]
    pub fn high_water(&self) -> usize {
        self.high_water as usize
    }

    /// Stores an arriving packet, drawing an address from the idle FIFO.
    ///
    /// Returns `None` — and gives the packet back — if the memory is full
    /// (admission control reserves slots precisely so this cannot happen for
    /// admitted traffic).
    pub fn store(&mut self, packet: TcPacket) -> Result<SlotAddr, TcPacket> {
        let addr = if self.slots.len() < self.capacity {
            self.slots.push(Slot::Occupied(packet));
            SlotAddr((self.slots.len() - 1) as u16)
        } else {
            let Some(addr) = self.free_head else {
                return Err(packet);
            };
            let Slot::Free { next } =
                std::mem::replace(&mut self.slots[addr.index()], Slot::Occupied(packet))
            else {
                unreachable!("idle FIFO handed a live slot");
            };
            self.free_head = next;
            if next.is_none() {
                self.free_tail = None;
            }
            addr
        };
        self.live += 1;
        self.high_water = self.high_water.max(self.live);
        Ok(addr)
    }

    /// Reads the packet at `addr` without freeing it (multicast transmits
    /// the same slot several times).
    #[must_use]
    pub fn peek(&self, addr: SlotAddr) -> Option<&TcPacket> {
        match self.slots.get(addr.index()) {
            Some(Slot::Occupied(p)) => Some(p),
            _ => None,
        }
    }

    /// Frees the slot, returning its packet and pushing the address back
    /// onto the idle FIFO.
    ///
    /// # Panics
    ///
    /// Panics if the slot is already free — that would mean the scheduler
    /// double-freed an address, corrupting the idle pool.
    pub fn free(&mut self, addr: SlotAddr) -> TcPacket {
        let slot = std::mem::replace(&mut self.slots[addr.index()], Slot::Free { next: None });
        let Slot::Occupied(packet) = slot else {
            panic!("freeing an already-idle packet slot");
        };
        match self.free_tail {
            Some(tail) => {
                let Slot::Free { next } = &mut self.slots[tail.index()] else {
                    unreachable!("idle-FIFO tail points at a live slot");
                };
                *next = Some(addr);
            }
            None => self.free_head = Some(addr),
        }
        self.free_tail = Some(addr);
        self.live -= 1;
        packet
    }

    /// Heap bytes currently allocated behind the memory — zero until the
    /// first store.
    #[must_use]
    pub fn heap_bytes(&self) -> usize {
        self.slots.capacity() * std::mem::size_of::<Slot>()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;
    use rtr_types::ids::ConnectionId;
    use rtr_types::packet::PacketTrace;
    use rtr_types::SlotClock;
    use std::collections::VecDeque;

    fn packet(tag: u8) -> TcPacket {
        TcPacket {
            conn: ConnectionId(u16::from(tag)),
            arrival: SlotClock::new(8).wrap(0),
            payload: vec![tag; 18].into(),
            trace: PacketTrace::default(),
        }
    }

    #[test]
    fn store_peek_free_round_trip() {
        let mut m = PacketMemory::new(4);
        let a = m.store(packet(1)).unwrap();
        assert_eq!(m.occupied(), 1);
        assert_eq!(m.peek(a).unwrap().payload[0], 1);
        let p = m.free(a);
        assert_eq!(p.payload[0], 1);
        assert_eq!(m.occupied(), 0);
        assert!(m.peek(a).is_none());
    }

    #[test]
    fn unmaterialised_memory_reports_like_an_empty_one() {
        let m = PacketMemory::new(8);
        assert_eq!(m.capacity(), 8);
        assert_eq!(m.occupied(), 0);
        assert_eq!(m.high_water(), 0);
        assert!(m.peek(SlotAddr(0)).is_none());
        // A zero-capacity memory must still reject stores cleanly.
        let mut z = PacketMemory::new(0);
        assert!(z.store(packet(1)).is_err());
        assert_eq!(z.capacity(), 0);
    }

    #[test]
    fn full_memory_rejects_and_returns_packet() {
        let mut m = PacketMemory::new(2);
        m.store(packet(1)).unwrap();
        m.store(packet(2)).unwrap();
        let rejected = m.store(packet(3)).unwrap_err();
        assert_eq!(rejected.payload[0], 3);
        assert_eq!(m.occupied(), 2);
    }

    #[test]
    fn freed_addresses_are_reissued_fifo() {
        let mut m = PacketMemory::new(2);
        let a = m.store(packet(1)).unwrap();
        let b = m.store(packet(2)).unwrap();
        m.free(a);
        m.free(b);
        // FIFO discipline: a then b come back in order.
        assert_eq!(m.store(packet(3)).unwrap(), a);
        assert_eq!(m.store(packet(4)).unwrap(), b);
    }

    #[test]
    #[should_panic(expected = "already-idle")]
    fn double_free_panics() {
        let mut m = PacketMemory::new(1);
        let a = m.store(packet(1)).unwrap();
        m.free(a);
        m.free(a);
    }

    #[test]
    fn high_water_tracks_peak() {
        let mut m = PacketMemory::new(8);
        let a = m.store(packet(1)).unwrap();
        let _b = m.store(packet(2)).unwrap();
        m.free(a);
        assert_eq!(m.occupied(), 1);
        assert_eq!(m.high_water(), 2);
    }

    proptest! {
        /// The chip's idle-address FIFO starts out holding every address in
        /// order and takes freed ones at the back. Over more than twice the
        /// capacity in stores, with frees interleaved, the memory issues
        /// the address that FIFO issues — and refuses when it is empty.
        #[test]
        fn addresses_come_in_the_eager_idle_fifo_order(
            ops in proptest::collection::vec((0u8..3, 0usize..64), 40..300),
        ) {
            const CAPACITY: u16 = 16;
            let mut m = PacketMemory::new(usize::from(CAPACITY));
            let mut idle: VecDeque<SlotAddr> = (0..CAPACITY).map(SlotAddr).collect();
            let mut live: Vec<SlotAddr> = Vec::new();
            // The drawn operations, then enough stores, every other one
            // followed by a free, to make the count certain.
            let tail = (0..3 * usize::from(CAPACITY))
                .flat_map(|k| [(0, 0), (2 + (k % 2) as u8, k)]);
            let mut stores = 0;
            for (kind, pick) in ops.into_iter().chain(tail) {
                if kind < 2 {
                    let issued = m.store(packet(stores as u8)).ok();
                    prop_assert_eq!(issued, idle.pop_front());
                    live.extend(issued);
                    stores += usize::from(issued.is_some());
                } else if kind == 2 && !live.is_empty() {
                    let addr = live.swap_remove(pick % live.len());
                    m.free(addr);
                    idle.push_back(addr);
                }
                prop_assert_eq!(m.occupied(), live.len());
            }
            prop_assert!(stores > 2 * usize::from(CAPACITY));
        }

        /// Under any interleaving of stores and frees the idle pool and the
        /// live slots exactly partition the memory, and no address is ever
        /// issued twice concurrently.
        #[test]
        fn conservation_under_random_ops(ops in proptest::collection::vec(any::<bool>(), 1..400)) {
            let mut m = PacketMemory::new(16);
            let mut live: Vec<SlotAddr> = Vec::new();
            for (i, store) in ops.into_iter().enumerate() {
                if store {
                    match m.store(packet(i as u8)) {
                        Ok(addr) => {
                            prop_assert!(!live.contains(&addr), "address issued twice");
                            live.push(addr);
                        }
                        Err(_) => prop_assert_eq!(live.len(), 16),
                    }
                } else if let Some(addr) = live.pop() {
                    m.free(addr);
                }
                prop_assert_eq!(m.occupied(), live.len());
            }
        }
    }
}
