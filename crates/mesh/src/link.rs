//! Physical links: unidirectional symbol pipes with a reverse credit wire.
//!
//! A link carries at most one [`LinkSymbol`] per cycle in the data direction
//! (both virtual channels share the physical wires; the chip's output
//! arbitration enforces the one-byte-per-cycle budget) and best-effort
//! credits in the reverse direction (the acknowledgement bit of §3.2).
//!
//! A time-constrained packet holds its link from head to tail (§3.2), so its
//! continuation symbols are fixed by its head and the wire is their owner:
//! a chip drives only the [`LinkSymbol::TcStart`], and the link itself puts
//! the `wire_len − 1` [`LinkSymbol::TcCont`]s on the wire, one per cycle, as
//! the simulator asks it to ([`Link::emit_continuation`]). At the far end the
//! link takes every one of them off the wire at its exact cycle and counts
//! it, but hands the receiving chip only the last — the one that completes
//! the packet — so neither chip ticks for the bytes in between. A
//! continuation that arrives while nothing is being absorbed (an orphan of a
//! head a fault destroyed, or the tail of a packet a crashed receiver lost)
//! reaches the chip as before.
//!
//! Links are where the fault plane acts (see [`crate::fault`]): a link can
//! be **down** (blackholing what is sent while down) or **flaky** (a seeded
//! generator drops or corrupts a fraction of the *packets* it carries).
//! Faults are packet-coherent: the fate of a packet is decided at its head
//! symbol and its continuation symbols follow, so a packet either crosses
//! whole or vanishes whole and the downstream reassembly state machines
//! never see a torn frame from a link fault. (Crashed *receivers* can still
//! tear packets — arrivals whose exact cycle passes unobserved are dropped
//! and counted here, and the receiver's input ports tolerate the orphaned
//! remainder.) Every symbol destroyed lands in the [`LinkLedger`], whose
//! conservation identity `sent = delivered + lost + in flight` makes
//! lost-to-fault a ledger column rather than a leak.

use std::collections::VecDeque;

use rtr_types::flit::LinkSymbol;
use rtr_types::ids::ConnectionId;
use rtr_types::time::Cycle;

/// Per-link symbol accounting, including the fault-plane loss columns.
///
/// The conservation identity is
/// `symbols_sent == symbols_delivered + symbols_lost + in_flight`;
/// [`Link::check_conservation`] asserts it. `late_arrivals_dropped` is a
/// sub-count of `symbols_lost` (the crashed-receiver case), and
/// `symbols_corrupted` counts *delivered* symbols whose content was
/// deliberately damaged (they are not lost).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct LinkLedger {
    /// Symbols the transmitter put on the wire (including ones a fault
    /// destroyed at the transmit end).
    pub symbols_sent: u64,
    /// The time-constrained share of `symbols_sent`.
    pub tc_symbols_sent: u64,
    /// Symbols taken off the wire at their exact arrival cycle.
    pub symbols_delivered: u64,
    /// Symbols destroyed by faults: blackholed while down, flaky-dropped,
    /// or stale at a crashed receiver.
    pub symbols_lost: u64,
    /// Delivered symbols whose content was deliberately corrupted (a
    /// sub-class of `symbols_delivered`).
    pub symbols_corrupted: u64,
    /// Best-effort credit bytes destroyed while the link was down.
    pub credits_lost: u64,
    /// The subset of `symbols_lost` dropped because their arrival cycle
    /// passed while the receiver was not polling (node crash).
    pub late_arrivals_dropped: u64,
}

impl LinkLedger {
    /// Folds another ledger into this one (mesh-wide totals).
    pub fn merge(&mut self, other: &LinkLedger) {
        self.symbols_sent += other.symbols_sent;
        self.tc_symbols_sent += other.tc_symbols_sent;
        self.symbols_delivered += other.symbols_delivered;
        self.symbols_lost += other.symbols_lost;
        self.symbols_corrupted += other.symbols_corrupted;
        self.credits_lost += other.credits_lost;
        self.late_arrivals_dropped += other.late_arrivals_dropped;
    }

    /// The symbols sent, split by virtual channel.
    #[must_use]
    pub fn usage(&self) -> LinkUsage {
        LinkUsage {
            tc_symbols: self.tc_symbols_sent,
            be_symbols: self.symbols_sent - self.tc_symbols_sent,
        }
    }
}

/// Per-link traffic counters (symbols carried per virtual channel).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct LinkUsage {
    /// Time-constrained symbols carried.
    pub tc_symbols: u64,
    /// Best-effort symbols carried.
    pub be_symbols: u64,
}

impl LinkUsage {
    /// Link utilisation over `cycles` (symbols per cycle, both channels).
    #[must_use]
    pub fn utilization(&self, cycles: Cycle) -> f64 {
        if cycles == 0 {
            return 0.0;
        }
        (self.tc_symbols + self.be_symbols) as f64 / cycles as f64
    }
}

/// One unidirectional link (plus its reverse credit wire).
#[derive(Debug)]
pub struct Link {
    /// Wire latency in cycles added on top of the one-cycle transfer.
    latency: Cycle,
    data: VecDeque<(Cycle, LinkSymbol)>,
    credits: VecDeque<(Cycle, u16)>,
    /// Earliest owed arrival: the front data symbol's or the front credit
    /// batch's cycle, whichever is sooner; `Cycle::MAX` on an empty wire.
    /// Kept by every call that pushes or pops either queue, so a receiver
    /// can pass over the link with one compare.
    next_at: Cycle,
    /// Downed link: new packets and credits are blackholed (packets whose
    /// head already crossed complete, keeping receivers coherent).
    down: bool,
    /// Flaky regime: packets dropped, per 1024 (0 = off).
    drop_per_1024: u16,
    /// Flaky regime: packets corrupted, per 1024 (0 = off).
    corrupt_per_1024: u16,
    /// Per-link xorshift64 state for the flaky decisions (0 = unseeded;
    /// seeded by the first `set_flaky`).
    rng: u64,
    /// The time-constrained packet in transit had its head destroyed:
    /// drop its continuation symbols too.
    tc_dropping: bool,
    /// Same for the best-effort packet in transit.
    be_dropping: bool,
    /// The current best-effort packet was chosen for corruption; the first
    /// payload byte gets flipped.
    be_corrupt_armed: bool,
    /// Byte position within the current best-effort packet (0 = head).
    be_pos: u16,
    /// Corrupt decision stashed by the last flaky roll (both decisions
    /// come from one draw so a packet is never dropped *and* corrupted).
    pending_corrupt: bool,
    /// Index of the next continuation the link owes the wire (0 = none):
    /// set by sending a time-constrained head, stepped by
    /// [`Link::emit_continuation`] up to `emit_last`.
    emit_next: u8,
    /// Index of the last continuation of the packet being emitted.
    emit_last: u8,
    /// Continuations still to be taken off the wire without being handed
    /// to the receiver: set by delivering a head, cleared by
    /// [`Link::stop_absorbing`].
    absorb: u8,
    ledger: LinkLedger,
}

impl Link {
    /// Creates a link with the given extra wire latency.
    #[must_use]
    pub fn new(latency: Cycle) -> Self {
        Link {
            latency,
            data: VecDeque::new(),
            credits: VecDeque::new(),
            next_at: Cycle::MAX,
            down: false,
            drop_per_1024: 0,
            corrupt_per_1024: 0,
            rng: 0,
            tc_dropping: false,
            be_dropping: false,
            be_corrupt_armed: false,
            be_pos: 0,
            pending_corrupt: false,
            emit_next: 0,
            emit_last: 0,
            absorb: 0,
            ledger: LinkLedger::default(),
        }
    }

    /// Whether any fault state can touch the next symbol sent: the link is
    /// down or flaky, or a packet in transit is being dropped or corrupted.
    fn fault_live(&self) -> bool {
        self.down
            || self.tc_dropping
            || self.be_dropping
            || self.be_corrupt_armed
            || self.drop_per_1024 != 0
            || self.corrupt_per_1024 != 0
    }

    /// What `next_at` must read, by the queues themselves: the earlier
    /// front's arrival cycle. Pops restamp from it; pushes only lower it.
    fn earliest_front(&self) -> Cycle {
        let data = self.data.front().map_or(Cycle::MAX, |(t, _)| *t);
        let credit = self.credits.front().map_or(Cycle::MAX, |(t, _)| *t);
        data.min(credit)
    }

    /// Puts a symbol on the wire at `now`; it arrives at `now + 1 +
    /// latency` — unless a fault destroys it, in which case it is counted
    /// in the [`LinkLedger`] and never arrives. Fault decisions are made
    /// at packet heads and inherited by continuation symbols, so packets
    /// cross (or vanish) whole.
    ///
    /// A time-constrained head makes the link owe its packet's
    /// continuations, which only [`Link::emit_continuation`] sends; the
    /// sender drives nothing else on the link until they are out.
    pub fn send(&mut self, now: Cycle, symbol: LinkSymbol) {
        if let LinkSymbol::TcStart(packet) = &symbol {
            self.emit_last = packet.last_index();
            self.emit_next = u8::from(self.emit_last > 0);
        }
        self.ledger.symbols_sent += 1;
        self.ledger.tc_symbols_sent += u64::from(symbol.is_time_constrained());
        // With no fault state live, `through_faults` would pass the symbol
        // on untouched and reset only flags that are already clear (`be_pos`
        // is read only while a corruption is armed, and arming zeroes it).
        let symbol = if self.fault_live() {
            let Some(symbol) = self.through_faults(symbol) else { return };
            symbol
        } else {
            symbol
        };
        let arrive = now + 1 + self.latency;
        debug_assert!(
            self.data.back().is_none_or(|(t, _)| *t < arrive),
            "link carries at most one symbol per cycle"
        );
        self.data.push_back((arrive, symbol));
        self.next_at = self.next_at.min(arrive);
    }

    /// Whether the link still owes the wire a continuation of the packet
    /// whose head it sent.
    #[must_use]
    pub fn owes_continuation(&self) -> bool {
        self.emit_next != 0
    }

    /// Puts the next owed continuation symbol on the wire at `now`, through
    /// [`Link::send`] like any symbol. The simulator calls it once per cycle
    /// while the link owes one and its transmitting node is up.
    pub fn emit_continuation(&mut self, now: Cycle) {
        let index = self.emit_next;
        debug_assert!(index != 0, "no continuation owed");
        self.emit_next = if index == self.emit_last { 0 } else { index + 1 };
        self.send(now, LinkSymbol::TcCont { index });
    }

    /// Stops absorbing the packet being received: its remaining
    /// continuations reach the receiver as orphans. The simulator calls it
    /// when the receiving node restores from a crash, whose reassembly
    /// registers no longer hold the packet.
    pub fn stop_absorbing(&mut self) {
        self.absorb = 0;
    }

    /// The fault plane's verdict on a symbol entering the wire: `None` when
    /// it is destroyed (and counted lost), else the symbol, maybe corrupted.
    /// Out of line, so the fault-free `send` stays a plain queue push.
    #[cold]
    fn through_faults(&mut self, symbol: LinkSymbol) -> Option<LinkSymbol> {
        Some(match symbol {
            LinkSymbol::TcStart(mut packet) => {
                self.tc_dropping = false;
                if self.down || self.roll_drop() {
                    self.tc_dropping = true;
                    self.ledger.symbols_lost += 1;
                    return None;
                }
                if self.roll_corrupt() {
                    // Header corruption: a flipped connection id. Routers
                    // drop unknown ids deliberately (`tc_dropped_no_conn`),
                    // so the damage is observable and well-accounted.
                    packet.conn = ConnectionId(packet.conn.0 ^ 0x155);
                    self.ledger.symbols_corrupted += 1;
                }
                LinkSymbol::TcStart(packet)
            }
            LinkSymbol::TcCont { index } => {
                if self.tc_dropping {
                    self.ledger.symbols_lost += 1;
                    return None;
                }
                LinkSymbol::TcCont { index }
            }
            LinkSymbol::Be(mut byte) => {
                if byte.head {
                    self.be_dropping = false;
                    self.be_corrupt_armed = false;
                    self.be_pos = 0;
                    if self.down || self.roll_drop() {
                        self.be_dropping = true;
                    } else if self.roll_corrupt() {
                        self.be_corrupt_armed = true;
                    }
                } else {
                    self.be_pos = self.be_pos.saturating_add(1);
                }
                if self.be_dropping {
                    self.ledger.symbols_lost += 1;
                    if byte.tail {
                        self.be_dropping = false;
                    }
                    return None;
                }
                // Payload corruption only (positions ≥ 4 skip the 4-byte
                // header, whose offsets steer routing): the packet arrives
                // whole, framed, and wrong.
                if self.be_corrupt_armed && self.be_pos >= 4 {
                    byte.byte ^= 0xA5;
                    self.be_corrupt_armed = false;
                    self.ledger.symbols_corrupted += 1;
                }
                if byte.tail {
                    self.be_corrupt_armed = false;
                }
                LinkSymbol::Be(byte)
            }
        })
    }

    /// Takes the symbol arriving exactly at `now`, if any. Arrivals whose
    /// exact cycle already passed unobserved — possible only when the
    /// receiver stopped polling (node crash) — are dropped *deliberately*
    /// and counted (`symbols_lost` / `late_arrivals_dropped`), never
    /// delivered late: delivering them after the fact would retroactively
    /// change what the receiver should have seen cycles ago.
    ///
    /// A delivered time-constrained head starts an absorption: the next
    /// `wire_len − 2` continuations are taken off the wire and counted
    /// delivered at their cycles, but `recv` answers `None` for them. The
    /// last continuation is returned, and so is any that arrives while
    /// nothing is absorbed.
    pub fn recv(&mut self, now: Cycle) -> Option<LinkSymbol> {
        if self.next_at > now {
            return None;
        }
        while let Some(&(t, _)) = self.data.front() {
            if t < now {
                self.data.pop_front();
                self.ledger.symbols_lost += 1;
                self.ledger.late_arrivals_dropped += 1;
            } else if t == now {
                self.ledger.symbols_delivered += 1;
                let symbol = self.data.pop_front().map(|(_, s)| s);
                self.next_at = self.earliest_front();
                return match symbol {
                    Some(LinkSymbol::TcCont { .. }) if self.absorb > 0 => {
                        self.absorb -= 1;
                        None
                    }
                    Some(LinkSymbol::TcStart(packet)) => {
                        self.absorb = packet.last_index().saturating_sub(1);
                        Some(LinkSymbol::TcStart(packet))
                    }
                    symbol => symbol,
                };
            } else {
                break;
            }
        }
        self.next_at = self.earliest_front();
        None
    }

    /// Puts credits on the reverse wire at `now` (blackholed while the
    /// link is down — the reverse wire is part of the same cable).
    pub fn send_credit(&mut self, now: Cycle, bytes: u16) {
        if self.down {
            self.ledger.credits_lost += u64::from(bytes);
            return;
        }
        let arrive = now + 1 + self.latency;
        self.credits.push_back((arrive, bytes));
        self.next_at = self.next_at.min(arrive);
    }

    /// Takes the credits arriving at `now` (summed), if any. Unlike data
    /// symbols, credits are pure counters with no per-cycle framing, so
    /// batches whose cycle passed while the receiver was crashed are
    /// simply delivered late.
    pub fn recv_credit(&mut self, now: Cycle) -> u16 {
        if self.next_at > now {
            return 0;
        }
        let mut total = 0;
        while let Some(&(t, bytes)) = self.credits.front() {
            if t > now {
                break;
            }
            self.credits.pop_front();
            total += bytes;
        }
        self.next_at = self.earliest_front();
        total
    }

    /// Fails the link: everything sent from now on is blackholed (and
    /// counted). Symbols already in flight still arrive, and a packet
    /// whose head already crossed completes — faults are packet-coherent,
    /// so receivers never see a torn frame.
    pub fn set_down(&mut self) {
        self.down = true;
    }

    /// Repairs the link. Packets whose head was blackholed while down
    /// stay blackholed to their tail (coherence); the next head crosses.
    pub fn set_up(&mut self) {
        self.down = false;
    }

    /// Whether the link is currently down.
    #[must_use]
    pub fn is_down(&self) -> bool {
        self.down
    }

    /// Configures the flaky regime: per-1024 packet drop and corruption
    /// probabilities, decided per packet head by a seeded xorshift64
    /// generator. Zero rates (with any seed) end the regime.
    pub fn set_flaky(&mut self, drop_per_1024: u16, corrupt_per_1024: u16, seed: u64) {
        self.drop_per_1024 = drop_per_1024.min(1024);
        self.corrupt_per_1024 = corrupt_per_1024.min(1024);
        self.rng = seed.max(1);
    }

    /// The link's symbol-accounting ledger.
    #[must_use]
    pub fn ledger(&self) -> LinkLedger {
        self.ledger
    }

    /// Checks the ledger identity `sent == delivered + lost + in flight`.
    ///
    /// # Errors
    ///
    /// Returns a description of the imbalance.
    pub fn check_conservation(&self) -> Result<(), String> {
        let l = &self.ledger;
        let accounted = l.symbols_delivered + l.symbols_lost + self.data.len() as u64;
        if l.symbols_sent != accounted {
            return Err(format!(
                "link conservation violated: sent {} != delivered {} + lost {} + in-flight {}",
                l.symbols_sent,
                l.symbols_delivered,
                l.symbols_lost,
                self.data.len()
            ));
        }
        Ok(())
    }

    /// One flaky-regime roll; both decisions (drop, corrupt) come from
    /// disjoint bit ranges of a single draw so a packet is never both.
    fn roll(&mut self) -> u64 {
        let mut x = self.rng.max(1);
        x ^= x << 13;
        x ^= x >> 7;
        x ^= x << 17;
        self.rng = x;
        x
    }

    fn roll_drop(&mut self) -> bool {
        if self.drop_per_1024 == 0 && self.corrupt_per_1024 == 0 {
            return false;
        }
        let r = self.roll();
        let drop = (r % 1024) < u64::from(self.drop_per_1024);
        self.pending_corrupt = !drop && ((r >> 10) % 1024) < u64::from(self.corrupt_per_1024);
        drop
    }

    fn roll_corrupt(&mut self) -> bool {
        std::mem::take(&mut self.pending_corrupt)
    }

    /// Symbols currently in flight.
    #[must_use]
    pub fn in_flight(&self) -> usize {
        self.data.len()
    }

    /// Credit batches currently on the reverse wire.
    #[must_use]
    pub fn credits_in_flight(&self) -> usize {
        self.credits.len()
    }

    /// Heap bytes behind the link's in-flight queues (their allocated
    /// capacity, not just current occupancy — the memory-footprint
    /// guardrail counts what the allocator actually holds).
    #[must_use]
    pub fn heap_bytes(&self) -> usize {
        self.data.capacity() * std::mem::size_of::<(Cycle, LinkSymbol)>()
            + self.credits.capacity() * std::mem::size_of::<(Cycle, u16)>()
    }

    /// `Some(0)` ("now") while the link owes a continuation, else the cycle
    /// of the next delivery it owes (front data symbol or front credit
    /// batch, whichever is earlier); `None` when it owes nothing.
    /// [`Link::recv`] insists on being called at the exact arrival cycle,
    /// so the simulator's leaping mode must never jump past this — and
    /// until it comes, `recv` and `recv_credit` are both no-ops.
    #[must_use]
    pub fn next_event(&self) -> Option<Cycle> {
        if self.owes_continuation() {
            return Some(0);
        }
        self.next_arrival()
    }

    /// [`Link::next_event`] without the continuations owed.
    pub(crate) fn next_arrival(&self) -> Option<Cycle> {
        (self.next_at != Cycle::MAX).then_some(self.next_at)
    }

    /// [`Link::next_arrival`] as the queues themselves say it — the scan
    /// it used to run, kept as the oracle `next_at` is checked against.
    #[cfg(any(test, debug_assertions))]
    pub(crate) fn scanned_next_arrival(&self) -> Option<Cycle> {
        Some(self.earliest_front()).filter(|&at| at != Cycle::MAX)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rtr_types::clock::SlotClock;
    use rtr_types::flit::BeByte;
    use rtr_types::packet::{PacketTrace, TcPacket};

    fn be(byte: u8) -> LinkSymbol {
        LinkSymbol::Be(BeByte::body(byte))
    }

    /// The head of a `wire_len`-symbol time-constrained packet.
    fn tc_head(conn: u16, wire_len: usize) -> LinkSymbol {
        LinkSymbol::TcStart(Box::new(TcPacket {
            conn: ConnectionId(conn),
            arrival: SlotClock::new(8).wrap(0),
            payload: vec![0; wire_len - 2].into(),
            trace: PacketTrace::default(),
        }))
    }

    fn tc_start(conn: u16) -> LinkSymbol {
        tc_head(conn, 20)
    }

    #[test]
    fn symbol_arrives_after_latency() {
        let mut l = Link::new(2);
        l.send(10, be(7));
        assert!(l.recv(12).is_none());
        assert_eq!(l.recv(13), Some(be(7)));
        assert!(l.recv(14).is_none());
    }

    #[test]
    fn zero_latency_link_delivers_next_cycle() {
        let mut l = Link::new(0);
        l.send(0, be(1));
        assert_eq!(l.recv(1), Some(be(1)));
    }

    #[test]
    fn credits_accumulate() {
        let mut l = Link::new(0);
        l.send_credit(5, 1);
        l.send_credit(5, 2);
        assert_eq!(l.recv_credit(5), 0);
        assert_eq!(l.recv_credit(6), 3);
        assert_eq!(l.recv_credit(7), 0);
    }

    #[test]
    fn back_to_back_symbols_keep_order() {
        let mut l = Link::new(1);
        l.send(0, be(1));
        l.send(1, be(2));
        assert_eq!(l.recv(2), Some(be(1)));
        assert_eq!(l.recv(3), Some(be(2)));
    }

    #[test]
    fn stale_arrivals_are_dropped_and_counted_not_delivered_late() {
        let mut l = Link::new(0);
        l.send(0, be(1));
        l.send(1, be(2));
        l.send(2, be(3));
        // Receiver crashed through cycles 1–2; polls again at 3: the two
        // stale symbols are destroyed, the on-time one delivered.
        assert_eq!(l.recv(3), Some(be(3)));
        let ledger = l.ledger();
        assert_eq!(ledger.late_arrivals_dropped, 2);
        assert_eq!(ledger.symbols_lost, 2);
        assert_eq!(ledger.symbols_delivered, 1);
        l.check_conservation().unwrap();
    }

    #[test]
    fn downed_link_blackholes_new_packets_but_completes_in_flight() {
        let mut l = Link::new(0);
        l.send(0, tc_head(4, 3));
        l.emit_continuation(1);
        l.set_down();
        // The started packet's remaining symbol still crosses (coherence)…
        l.emit_continuation(2);
        assert!(l.recv(1).is_some());
        assert!(l.recv(2).is_none(), "the middle continuation is absorbed");
        assert!(l.recv(3).is_some());
        assert_eq!(l.ledger().symbols_delivered, 3);
        // …but a new packet sent while down vanishes whole.
        l.send(3, tc_head(5, 3));
        l.emit_continuation(4);
        l.emit_continuation(5);
        assert!((4..=6).all(|t| l.recv(t).is_none()));
        // Credits sent while down vanish too.
        l.send_credit(3, 2);
        assert_eq!(l.recv_credit(10), 0);
        let ledger = l.ledger();
        assert_eq!(ledger.symbols_lost, 3);
        assert_eq!(ledger.credits_lost, 2);
        l.check_conservation().unwrap();
        // Repair: packets flow again.
        l.set_up();
        l.send(6, tc_start(6));
        assert!(l.recv(7).is_some());
    }

    #[test]
    fn repaired_link_finishes_blackholing_the_torn_packet() {
        let mut l = Link::new(0);
        l.set_down();
        l.send(0, tc_start(1)); // head destroyed
        l.set_up();
        // Continuations of the destroyed packet must not leak through
        // after the repair — the receiver never saw the head.
        l.emit_continuation(1);
        assert!(l.recv(2).is_none());
        assert_eq!(l.ledger().symbols_lost, 2);
        l.check_conservation().unwrap();
    }

    #[test]
    fn a_head_makes_the_link_emit_and_absorb_its_continuations() {
        let mut l = Link::new(2);
        l.send(10, tc_start(3));
        for k in 1..20 {
            assert!(l.owes_continuation(), "continuation {k} owed");
            l.emit_continuation(10 + k);
        }
        assert!(!l.owes_continuation(), "all 19 sent");
        let indices: Vec<u8> = l
            .data
            .iter()
            .filter_map(|(_, s)| match s {
                LinkSymbol::TcCont { index } => Some(*index),
                _ => None,
            })
            .collect();
        assert_eq!(indices, (1..20).collect::<Vec<u8>>());
        assert!(matches!(l.recv(13), Some(LinkSymbol::TcStart(_))));
        for t in 14..32 {
            assert_eq!(l.recv(t), None, "continuation arriving at {t} is absorbed");
            assert_eq!(l.next_event(), Some(t + 1), "and the link still owes the next");
        }
        assert_eq!(l.recv(32), Some(LinkSymbol::TcCont { index: 19 }), "the last is handed on");
        assert_eq!((l.ledger().symbols_sent, l.ledger().symbols_delivered), (20, 20));
        assert_eq!(l.next_event(), None);
        l.check_conservation().unwrap();
    }

    #[test]
    fn the_largest_slot_emits_and_hands_on_continuation_255() {
        // `slot_bytes = 256`, the largest `RouterConfig::validate` admits:
        // the last continuation's index is the top of its byte.
        let mut l = Link::new(0);
        l.send(0, tc_head(1, 256));
        for k in 1..256 {
            l.emit_continuation(k);
        }
        assert!(!l.owes_continuation());
        assert!(l.recv(1).is_some());
        assert!((2..256).all(|t| l.recv(t).is_none()), "254 continuations absorbed");
        assert_eq!(l.recv(256), Some(LinkSymbol::TcCont { index: 255 }));
        assert_eq!((l.ledger().symbols_sent, l.ledger().symbols_delivered), (256, 256));
        l.check_conservation().unwrap();
    }

    #[test]
    fn a_link_that_stops_absorbing_hands_on_the_rest_as_orphans() {
        let mut l = Link::new(0);
        l.send(0, tc_start(3));
        for k in 1..20 {
            l.emit_continuation(k);
        }
        assert!(l.recv(1).is_some());
        assert_eq!(l.recv(2), None);
        l.stop_absorbing();
        for t in 3..=20 {
            assert_eq!(l.recv(t), Some(LinkSymbol::TcCont { index: (t - 1) as u8 }));
        }
        l.check_conservation().unwrap();
    }

    #[test]
    fn flaky_link_drops_whole_packets_deterministically() {
        let run = |seed: u64| -> (u64, u64) {
            let mut l = Link::new(0);
            l.set_flaky(512, 0, seed);
            let mut now = 0;
            for p in 0..64u16 {
                l.send(now, tc_head(p, 2));
                now += 1;
                l.emit_continuation(now);
                now += 1;
            }
            // Drain.
            for t in 0..=now {
                l.recv(t);
            }
            l.check_conservation().unwrap();
            (l.ledger().symbols_lost, l.ledger().symbols_delivered)
        };
        let (lost_a, delivered_a) = run(42);
        let (lost_b, delivered_b) = run(42);
        assert_eq!((lost_a, delivered_a), (lost_b, delivered_b), "seeded => reproducible");
        assert!(lost_a > 0 && delivered_a > 0, "a 50% regime drops some and passes some");
        assert_eq!(lost_a % 2, 0, "packets drop whole (head + cont)");
    }

    #[test]
    fn flaky_corruption_flips_the_connection_id() {
        let mut l = Link::new(0);
        l.set_flaky(0, 1024, 7);
        l.send(0, tc_start(4));
        match l.recv(1) {
            Some(LinkSymbol::TcStart(p)) => {
                assert_eq!(p.conn, ConnectionId(4 ^ 0x155), "corrupted header id");
            }
            other => panic!("expected a delivered TcStart, got {other:?}"),
        }
        assert_eq!(l.ledger().symbols_corrupted, 1);
        l.check_conservation().unwrap();
    }

    #[test]
    fn be_corruption_hits_payload_never_the_header() {
        let mut l = Link::new(0);
        l.set_flaky(0, 1024, 9);
        let bytes = [
            BeByte { byte: 1, head: true, tail: false, trace: None },
            BeByte::body(0),
            BeByte::body(1),
            BeByte::body(0),
            BeByte::body(0x11),
            BeByte { byte: 0x22, head: false, tail: true, trace: None },
        ];
        for (t, b) in bytes.into_iter().enumerate() {
            l.send(t as Cycle, LinkSymbol::Be(b));
        }
        let mut out = Vec::new();
        for t in 1..=6 {
            if let Some(LinkSymbol::Be(b)) = l.recv(t) {
                out.push(b.byte);
            }
        }
        assert_eq!(out.len(), 6, "corrupted packets still arrive whole");
        assert_eq!(&out[..4], &[1, 0, 1, 0], "header untouched");
        assert_eq!(out[4], 0x11 ^ 0xA5, "first payload byte flipped");
        assert_eq!(out[5], 0x22, "only one byte corrupted");
        assert_eq!(l.ledger().symbols_corrupted, 1);
    }

    proptest::proptest! {
        /// Any interleaving of sends, emissions, credit returns and
        /// (possibly long overdue — a crashed receiver) polls, on a link
        /// that goes down and comes back, keeps `next_at` equal to the
        /// earlier queue front, `next_event` at it or at "now" while a
        /// continuation is owed, `recv`/`recv_credit` inert before it, and
        /// the ledger balanced, after every call.
        #[test]
        fn next_at_is_the_earlier_queue_front_after_every_call(
            latency in 0u64..4,
            ops in proptest::collection::vec((0u8..7, 0u64..7, 1u16..5), 1..120),
        ) {
            let mut l = Link::new(latency);
            let (mut now, mut last_send) = (0, None);
            for (op, gap, bytes) in ops {
                now += gap;
                // One symbol per cycle is the wire's own rule.
                let mut next_send = || {
                    if last_send == Some(now) {
                        now += 1;
                    }
                    last_send = Some(now);
                    now
                };
                match op {
                    // Nothing is driven over the continuations a head owes.
                    0 | 1 if !l.owes_continuation() => {
                        let symbol = if op == 0 { be(bytes as u8) } else { tc_head(bytes, 4) };
                        l.send(next_send(), symbol);
                    }
                    0 | 1 | 5 if l.owes_continuation() => l.emit_continuation(next_send()),
                    2 => l.send_credit(now, bytes),
                    3 => {
                        // Due now, unless it is a continuation being absorbed.
                        let due = l.data.iter().find(|(t, _)| *t == now).is_some_and(|(_, s)| {
                            l.absorb == 0 || !matches!(s, LinkSymbol::TcCont { .. })
                        });
                        proptest::prop_assert_eq!(l.recv(now).is_some(), due);
                        proptest::prop_assert!(l.data.front().is_none_or(|(t, _)| *t > now));
                    }
                    4 => {
                        let owed: u16 =
                            l.credits.iter().filter(|(t, _)| *t <= now).map(|(_, b)| b).sum();
                        proptest::prop_assert_eq!(l.recv_credit(now), owed);
                    }
                    _ if l.is_down() => l.set_up(),
                    _ => l.set_down(),
                }
                let scanned = l.scanned_next_arrival();
                proptest::prop_assert_eq!(l.next_at, scanned.unwrap_or(Cycle::MAX));
                let visit = if l.owes_continuation() { Some(0) } else { scanned };
                proptest::prop_assert_eq!(l.next_event(), visit);
                l.check_conservation().unwrap();
            }
        }
    }

    #[test]
    fn an_empty_link_owes_nothing() {
        // `Link` has no `Default`: a zeroed `next_at` would read "owes now".
        let mut l = Link::new(3);
        assert_eq!(l.next_event(), None);
        l.send_credit(0, 1);
        assert_eq!(l.next_event(), Some(4));
        assert_eq!((l.recv_credit(4), l.next_event()), (1, None));
    }

    /// [`Link::send`] without its fault-free shortcut: every symbol takes
    /// the fault plane's path.
    fn send_slow(l: &mut Link, now: Cycle, symbol: LinkSymbol) {
        l.ledger.symbols_sent += 1;
        l.ledger.tc_symbols_sent += u64::from(symbol.is_time_constrained());
        if let Some(symbol) = l.through_faults(symbol) {
            let arrive = now + 1 + l.latency;
            l.data.push_back((arrive, symbol));
            l.next_at = l.next_at.min(arrive);
        }
    }

    #[test]
    fn the_fault_free_shortcut_agrees_with_the_fault_path_across_mid_packet_toggles() {
        // Two packets of each class back to back; a fault regime switches
        // on before symbol `on` and off three symbols later, for every
        // `on` — so inside a best-effort packet, inside a time-constrained
        // one, and on every boundary.
        let mut stream = Vec::new();
        for round in 0..2u16 {
            for i in 0..8u8 {
                let byte = BeByte { byte: i, head: i == 0, tail: i == 7, trace: None };
                stream.push(LinkSymbol::Be(byte));
            }
            stream.push(tc_head(round, 6));
            stream.extend((1..6).map(|index| LinkSymbol::TcCont { index }));
        }
        type Toggle = fn(&mut Link);
        let regimes: [(Toggle, Toggle); 3] = [
            (|l| l.set_down(), |l| l.set_up()),
            (|l| l.set_flaky(1024, 0, 5), |l| l.set_flaky(0, 0, 5)),
            (|l| l.set_flaky(0, 1024, 5), |l| l.set_flaky(0, 0, 5)),
        ];
        // What a run leaves behind, `be_pos` aside: the shortcut does not
        // count bytes of packets no fault is watching.
        let state = |l: &Link| {
            let flags = (l.down, l.tc_dropping, l.be_dropping, l.be_corrupt_armed, l.rng);
            format!("{:?} {:?} {:?} {flags:?}", l.data, l.next_at, l.ledger)
        };
        for (on, off) in regimes {
            for start in 0..stream.len() {
                let (mut fast, mut slow) = (Link::new(1), Link::new(1));
                for (now, symbol) in stream.iter().enumerate() {
                    for l in [&mut fast, &mut slow] {
                        if now == start {
                            on(l);
                        } else if now == start + 3 {
                            off(l);
                        }
                    }
                    fast.send(now as Cycle, symbol.clone());
                    send_slow(&mut slow, now as Cycle, symbol.clone());
                    assert_eq!(state(&fast), state(&slow), "regime on at {start}, symbol {now}");
                }
                fast.check_conservation().unwrap();
            }
        }
    }
}
