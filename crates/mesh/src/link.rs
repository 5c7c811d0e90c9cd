//! Physical links: unidirectional symbol pipes with a reverse credit wire.
//!
//! A link carries at most one [`LinkSymbol`] per cycle in the data direction
//! (both virtual channels share the physical wires; the chip's output
//! arbitration enforces the one-byte-per-cycle budget) and best-effort
//! credits in the reverse direction (the acknowledgement bit of §3.2).
//!
//! A time-constrained packet holds its link from head to tail (§3.2), so its
//! continuation symbols are a pure function of its head: a chip drives only
//! the [`LinkSymbol::TcStart`], and sending it queues the `wire_len − 1`
//! [`LinkSymbol::TcCont`]s behind it as one wire entry, a *run* — its first
//! arrival cycle and its first and last index — whose symbols arrive one per
//! cycle. At the far end the link hands the receiving chip the head at its
//! cycle and then only the last continuation, the one that completes the
//! packet; the middle is counted delivered by the clock. So nothing runs on
//! either chip or on the link between a packet's head and its tail, and
//! every ledger read works out a run's sent and delivered share from the
//! cycle it is asked at. A continuation that arrives while nothing is being
//! absorbed (the rest of a packet a crashed receiver lost) reaches the chip,
//! one per cycle, like any symbol.
//!
//! Links are where the fault plane acts (see [`crate::fault`]): a link can
//! be **down** (blackholing what is sent while down) or **flaky** (a seeded
//! generator drops or corrupts a fraction of the *packets* it carries).
//! Faults are packet-coherent: the fate of a packet is decided at its head
//! symbol and its continuation symbols follow, so a packet either crosses
//! whole or vanishes whole and the downstream reassembly state machines
//! never see a torn frame from a link fault. (Crashed nodes can still
//! tear packets: a crashed transmitter parks the rest of its run until its
//! restore, and arrivals whose exact cycle passes while the receiver is
//! crashed are dropped and counted here, and the receiver's input ports
//! tolerate the orphaned remainder.) Every symbol
//! destroyed lands in the [`LinkLedger`], whose conservation identity
//! `sent = delivered + lost + in flight` makes lost-to-fault a ledger column
//! rather than a leak.

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
    /// Counts `n` continuations of a run sent, as they leave its wire entry.
    fn settle_run(&mut self, n: u64) {
        self.symbols_sent += n;
        self.tc_symbols_sent += n;
    }

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

/// One entry of a link's data wire, queued with the arrival cycle of its
/// (first) symbol.
#[derive(Debug)]
enum Wire {
    /// One symbol.
    Symbol(LinkSymbol),
    /// Continuations `first..=last` of one time-constrained packet, arriving
    /// one per cycle. A `lost` run's head was destroyed: its symbols count
    /// as sent and lost as they would have been emitted, and never arrive.
    Run { first: u8, last: u8, lost: bool },
}

/// The arrival cycle of a run its crashed transmitter has not emitted yet.
const PARKED: Cycle = Cycle::MAX;

/// The number of continuations in the run `first..=last`.
fn run_len(first: u8, last: u8) -> u64 {
    u64::from(last - first) + 1
}

/// The arrival cycle of an entry's last symbol.
fn last_arrival(&(at, ref wire): &(Cycle, Wire)) -> Cycle {
    match *wire {
        Wire::Symbol(_) => at,
        Wire::Run { first, last, .. } => at.saturating_add(u64::from(last - first)),
    }
}

/// One unidirectional link (plus its reverse credit wire).
#[derive(Debug)]
pub struct Link {
    /// Wire latency in cycles added on top of the one-cycle transfer.
    latency: Cycle,
    data: VecDeque<(Cycle, Wire)>,
    credits: VecDeque<(Cycle, u16)>,
    /// The earliest arrival a chip must see ([`Link::next_event`]);
    /// `Cycle::MAX` when there is none. Kept by every call that changes
    /// either queue or the absorption, so a receiver can pass over the link
    /// with one compare.
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
    /// The best-effort packet in transit had its head destroyed: drop the
    /// rest of it too.
    be_dropping: bool,
    /// The current best-effort packet was chosen for corruption; the first
    /// payload byte gets flipped.
    be_corrupt_armed: bool,
    /// Byte position within the current best-effort packet (0 = head).
    be_pos: u16,
    /// Corrupt decision stashed by the last flaky roll (both decisions
    /// come from one draw so a packet is never dropped *and* corrupted).
    pending_corrupt: bool,
    /// Index of the continuation that completes the packet being received
    /// (0 = none): set by delivering its head, cleared by handing that
    /// continuation on or by [`Link::stop_absorbing`]. The runs at the front
    /// of the wire absorb every index below it.
    absorb: u8,
    /// What is settled; [`Link::ledger`] adds the queued runs' shares.
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
            be_dropping: false,
            be_corrupt_armed: false,
            be_pos: 0,
            pending_corrupt: false,
            absorb: 0,
            ledger: LinkLedger::default(),
        }
    }

    /// Whether any fault state can touch the next symbol sent: the link is
    /// down or flaky, or a best-effort packet in transit is being dropped
    /// or corrupted.
    fn fault_live(&self) -> bool {
        self.down
            || self.be_dropping
            || self.be_corrupt_armed
            || self.drop_per_1024 != 0
            || self.corrupt_per_1024 != 0
    }

    /// The next data arrival a chip must see, by the wire itself: a symbol,
    /// the continuation that completes the packet being absorbed, or an
    /// orphan continuation.
    fn data_wake(&self) -> Cycle {
        if let Some(&(at, Wire::Symbol(_))) = self.data.front() {
            return at;
        }
        for &(at, ref wire) in &self.data {
            match *wire {
                Wire::Symbol(_) => return at,
                Wire::Run { lost: true, .. } => break,
                Wire::Run { .. } if self.absorb == 0 => return at,
                Wire::Run { first, last, .. } if last >= self.absorb => {
                    return at.saturating_add(u64::from(self.absorb - first));
                }
                // Absorbed whole: the rest of its packet is behind it.
                Wire::Run { .. } => {}
            }
        }
        Cycle::MAX
    }

    /// What `next_at` must read, by the queues themselves. Pops and
    /// absorption changes restamp from it; pushes only lower it.
    fn earliest_front(&self) -> Cycle {
        let credit = self.credits.front().map_or(Cycle::MAX, |(t, _)| *t);
        self.data_wake().min(credit)
    }

    /// Puts a symbol on the wire at `now`; it arrives at `now + 1 +
    /// latency` — unless a fault destroys it, in which case it is counted
    /// in the [`LinkLedger`] and never arrives. Fault decisions are made
    /// at packet heads and inherited by continuation symbols, so packets
    /// cross (or vanish) whole.
    ///
    /// A time-constrained head queues its packet's continuations behind it
    /// as one run, on the wire from the next cycle on; the sender drives
    /// nothing else on the link until they are out.
    pub fn send(&mut self, now: Cycle, symbol: LinkSymbol) {
        let arrive = now + 1 + self.latency;
        debug_assert!(
            self.data.back().is_none_or(|entry| last_arrival(entry) < arrive),
            "link carries at most one symbol per cycle: a chip drove over its own packet"
        );
        // A lost run is all emitted by now: settle it.
        while let Some(&(_, Wire::Run { first, last, lost: true })) = self.data.back() {
            let n = run_len(first, last);
            self.ledger.settle_run(n);
            self.ledger.symbols_lost += n;
            self.data.pop_back();
        }
        let run = match &symbol {
            LinkSymbol::TcStart(packet) => packet.last_index(),
            _ => 0,
        };
        self.ledger.symbols_sent += 1;
        self.ledger.tc_symbols_sent += u64::from(symbol.is_time_constrained());
        // With no fault state live, `through_faults` would pass the symbol
        // on untouched and reset only flags that are already clear (`be_pos`
        // is read only while a corruption is armed, and arming zeroes it).
        let symbol = if self.fault_live() { self.through_faults(symbol) } else { Some(symbol) };
        let lost = symbol.is_none();
        if let Some(symbol) = symbol {
            self.data.push_back((arrive, Wire::Symbol(symbol)));
            self.next_at = self.next_at.min(arrive);
        }
        if run > 0 {
            self.data.push_back((arrive + 1, Wire::Run { first: 1, last: run, lost }));
        }
    }

    /// Parks the rest of the run being emitted: its transmitting node
    /// crashed at `now`, so the continuations due from `now` on wait for
    /// [`Link::resume_run`].
    pub(crate) fn pause_run(&mut self, now: Cycle) {
        // Emitted before `now`: what arrives by `now + latency`.
        let reach = now + self.latency + 1;
        let Some((at, Wire::Run { first, last, lost })) = self.data.back_mut() else { return };
        let sent = reach.saturating_sub(*at);
        if sent >= run_len(*first, *last) {
            return;
        }
        if sent == 0 {
            *at = PARKED;
        } else {
            let rest = Wire::Run { first: *first + sent as u8, last: *last, lost: *lost };
            *last = *first + sent as u8 - 1;
            self.data.push_back((PARKED, rest));
        }
        self.next_at = self.earliest_front();
    }

    /// Puts a parked run back on the wire from `now`, its transmitting
    /// node's restore cycle.
    pub(crate) fn resume_run(&mut self, now: Cycle) {
        let arrive = now + 1 + self.latency;
        if let Some((at, Wire::Run { .. })) = self.data.back_mut() {
            if *at == PARKED {
                *at = arrive;
                self.next_at = self.earliest_front();
            }
        }
    }

    /// Stops absorbing the packet being received: its receiving node
    /// crashed at `now` and polls nothing until its restore, whose
    /// reassembly registers no longer hold the packet. What arrived before
    /// `now` was absorbed; the rest is dropped as missed or reaches the
    /// receiver as orphans.
    pub fn stop_absorbing(&mut self, now: Cycle) {
        if self.absorb != 0 {
            self.absorb_before(now);
            self.absorb = 0;
            self.next_at = self.earliest_front();
        }
    }

    /// Counts delivered, and takes off the wire, the continuations being
    /// absorbed that arrive before `end`.
    fn absorb_before(&mut self, end: Cycle) {
        while let Some((at, Wire::Run { first, last, lost: false })) = self.data.front_mut() {
            let middle_last = (*last).min(self.absorb - 1);
            if middle_last < *first {
                break;
            }
            let arrived = end.saturating_sub(*at).min(run_len(*first, middle_last));
            self.ledger.settle_run(arrived);
            self.ledger.symbols_delivered += arrived;
            if arrived == run_len(*first, *last) {
                self.data.pop_front();
                continue;
            }
            *first += arrived as u8;
            *at += arrived;
            break;
        }
    }

    /// The fault plane's verdict on a symbol entering the wire: `None` when
    /// it is destroyed (and counted lost), else the symbol, maybe corrupted.
    /// Out of line, so the fault-free `send` stays a plain queue push.
    #[cold]
    fn through_faults(&mut self, symbol: LinkSymbol) -> Option<LinkSymbol> {
        Some(match symbol {
            LinkSymbol::TcStart(mut packet) => {
                if self.down || self.roll_drop() {
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
            // A continuation follows its head's fate, which its run holds.
            cont @ LinkSymbol::TcCont { .. } => cont,
        })
    }

    /// Takes the symbol a chip must see at `now`, if any. Arrivals whose
    /// exact cycle already passed unobserved — possible only when the
    /// receiver stopped polling (node crash) — are dropped *deliberately*
    /// and counted (`symbols_lost` / `late_arrivals_dropped`), never
    /// delivered late: delivering them after the fact would retroactively
    /// change what the receiver should have seen cycles ago.
    ///
    /// A delivered time-constrained head starts an absorption: its
    /// continuations below the last are counted delivered as their cycles
    /// come and never handed on, so the receiver must poll the link at every
    /// [`Link::next_event`] while it is live and call
    /// [`Link::stop_absorbing`] when it stops. The last continuation is
    /// returned at its cycle, and so is any that arrives while nothing is
    /// absorbed.
    pub fn recv(&mut self, now: Cycle) -> Option<LinkSymbol> {
        if self.next_at > now {
            return None;
        }
        if self.absorb != 0 {
            self.absorb_before(now + 1);
        }
        let symbol = self.take(now);
        self.next_at = self.earliest_front();
        symbol
    }

    /// [`Link::recv`] past the absorbed continuations.
    fn take(&mut self, now: Cycle) -> Option<LinkSymbol> {
        loop {
            let (at, wire) = self.data.front_mut()?;
            let missed = now.checked_sub(*at)?;
            let Wire::Run { first, last, lost } = wire else {
                let Some((_, Wire::Symbol(symbol))) = self.data.pop_front() else {
                    unreachable!("the front entry is a symbol")
                };
                if missed > 0 {
                    self.ledger.symbols_lost += 1;
                    self.ledger.late_arrivals_dropped += 1;
                    continue;
                }
                self.ledger.symbols_delivered += 1;
                if let LinkSymbol::TcStart(packet) = &symbol {
                    self.absorb = packet.last_index();
                }
                return Some(symbol);
            };
            if *lost {
                return None;
            }
            // Handed on one per cycle; what arrived unpolled is dropped.
            debug_assert!(
                missed == 0 || self.absorb == 0,
                "a live receiver missed a packet's tail"
            );
            let left = run_len(*first, *last);
            let missed = missed.min(left);
            self.ledger.settle_run(missed + u64::from(missed < left));
            self.ledger.symbols_lost += missed;
            self.ledger.late_arrivals_dropped += missed;
            if missed == left {
                self.data.pop_front();
                continue;
            }
            let index = *first + missed as u8;
            if index == *last {
                self.data.pop_front();
            } else {
                *first = index + 1;
                *at = now + 1;
            }
            if index == self.absorb {
                self.absorb = 0;
            }
            self.ledger.symbols_delivered += 1;
            return Some(LinkSymbol::TcCont { index });
        }
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

    /// What the queued runs add to the settled ledger by the start of cycle
    /// `now`, and what is on the wire then: `[in flight, sent, delivered,
    /// lost]`. A run's continuation is sent once its emission cycle (its
    /// arrival less the wire) has passed, and absorbed once its arrival has.
    fn unsettled(&self, now: Cycle) -> [u64; 4] {
        let [mut flight, mut sent, mut delivered, mut lost] = [0; 4];
        let mut absorb = self.absorb;
        for &(at, ref wire) in &self.data {
            let Wire::Run { first, last, lost: dropped } = *wire else {
                flight += 1;
                absorb = 0;
                continue;
            };
            let emitted = (now + self.latency + 1).saturating_sub(at).min(run_len(first, last));
            sent += emitted;
            if dropped {
                lost += emitted;
                continue;
            }
            let absorbed = if absorb > first {
                now.saturating_sub(at).min(run_len(first, last.min(absorb - 1)))
            } else {
                0
            };
            if last >= absorb {
                absorb = 0;
            }
            delivered += absorbed;
            flight += emitted - absorbed;
        }
        [flight, sent, delivered, lost]
    }

    /// The link's symbol-accounting ledger at the start of cycle `now` (the
    /// simulator's clock between cycles).
    #[must_use]
    pub fn ledger(&self, now: Cycle) -> LinkLedger {
        let [_, sent, delivered, lost] = self.unsettled(now);
        let mut ledger = self.ledger;
        ledger.settle_run(sent);
        ledger.symbols_delivered += delivered;
        ledger.symbols_lost += lost;
        ledger
    }

    /// Checks the ledger identity `sent == delivered + lost + in flight` at
    /// the start of cycle `now`.
    ///
    /// # Errors
    ///
    /// Returns a description of the imbalance.
    pub fn check_conservation(&self, now: Cycle) -> Result<(), String> {
        let l = self.ledger(now);
        let in_flight = self.in_flight(now) as u64;
        if l.symbols_sent != l.symbols_delivered + l.symbols_lost + in_flight {
            return Err(format!(
                "link conservation violated: sent {} != delivered {} + lost {} + in-flight {}",
                l.symbols_sent, l.symbols_delivered, l.symbols_lost, in_flight
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

    /// Symbols in flight at the start of cycle `now`.
    #[must_use]
    pub fn in_flight(&self, now: Cycle) -> usize {
        self.unsettled(now)[0] as usize
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
        self.data.capacity() * std::mem::size_of::<(Cycle, Wire)>()
            + self.credits.capacity() * std::mem::size_of::<(Cycle, u16)>()
    }

    /// The cycle of the next arrival a chip must see — a data symbol, the
    /// continuation that completes the packet being absorbed, an orphan
    /// continuation, or a credit batch, whichever is earliest; `None` when
    /// the link owes nothing. A run's middle needs no visit: the clock
    /// counts it. [`Link::recv`] insists on being called at the exact
    /// arrival cycle, so the simulator must never leap past this — and
    /// until it comes, `recv` and `recv_credit` are both no-ops.
    #[must_use]
    pub fn next_event(&self) -> Option<Cycle> {
        (self.next_at != Cycle::MAX).then_some(self.next_at)
    }

    /// The next arrival the link's live ends must see, by the queues
    /// themselves: data for a live receiver, credits for a live
    /// transmitter. With both ends live it is what [`Link::next_event`]
    /// must answer.
    pub(crate) fn wake(&self, receiver: bool, transmitter: bool) -> Option<Cycle> {
        let data = if receiver { self.data_wake() } else { Cycle::MAX };
        let credit = self.credits.front().filter(|_| transmitter).map_or(Cycle::MAX, |(t, _)| *t);
        Some(data.min(credit)).filter(|&at| at != Cycle::MAX)
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
        let ledger = l.ledger(4);
        assert_eq!(ledger.late_arrivals_dropped, 2);
        assert_eq!(ledger.symbols_lost, 2);
        assert_eq!(ledger.symbols_delivered, 1);
        l.check_conservation(4).unwrap();
    }

    #[test]
    fn downed_link_blackholes_new_packets_but_completes_in_flight() {
        let mut l = Link::new(0);
        l.send(0, tc_head(4, 3));
        l.set_down();
        // The started packet's continuations still cross (coherence)…
        assert!(l.recv(1).is_some());
        assert!(l.recv(2).is_none(), "the middle continuation is absorbed");
        assert!(l.recv(3).is_some());
        assert_eq!(l.ledger(4).symbols_delivered, 3);
        // …but a new packet sent while down vanishes whole, a symbol a cycle.
        l.send(3, tc_head(5, 3));
        assert_eq!(l.ledger(5).symbols_lost, 2, "the head and one continuation so far");
        assert!((4..=6).all(|t| l.recv(t).is_none()));
        // Credits sent while down vanish too.
        l.send_credit(3, 2);
        assert_eq!(l.recv_credit(10), 0);
        let ledger = l.ledger(7);
        assert_eq!(ledger.symbols_lost, 3);
        assert_eq!(ledger.credits_lost, 2);
        l.check_conservation(7).unwrap();
        // Repair: packets flow again.
        l.set_up();
        l.send(6, tc_start(6));
        assert!(l.recv(7).is_some());
        assert_eq!(l.ledger(8).symbols_lost, 3, "the lost run is settled, not lost twice");
        l.check_conservation(8).unwrap();
    }

    #[test]
    fn repaired_link_finishes_blackholing_the_torn_packet() {
        let mut l = Link::new(0);
        l.set_down();
        l.send(0, tc_start(1)); // head destroyed
        l.set_up();
        // Continuations of the destroyed packet must not leak through
        // after the repair — the receiver never saw the head.
        assert!((1..=20).all(|t| l.recv(t).is_none()));
        assert_eq!(l.next_event(), None);
        assert_eq!(l.ledger(2).symbols_lost, 2, "lost as they would have been emitted");
        assert_eq!(l.ledger(21).symbols_lost, 20);
        l.check_conservation(21).unwrap();
    }

    #[test]
    fn a_head_makes_the_link_emit_and_absorb_its_continuations() {
        let mut l = Link::new(2);
        l.send(10, tc_start(3));
        assert_eq!(l.data.len(), 2, "the head and one run");
        for t in 11..=30 {
            let ledger = l.ledger(t);
            assert_eq!((ledger.symbols_sent, ledger.tc_symbols_sent), (t - 10, t - 10));
        }
        assert_eq!(l.next_event(), Some(13));
        assert!(matches!(l.recv(13), Some(LinkSymbol::TcStart(_))));
        assert_eq!(l.next_event(), Some(32), "the receiver's next arrival is the tail");
        for t in 14..32 {
            assert_eq!(l.recv(t), None, "continuation arriving at {t} is absorbed");
            assert_eq!(l.ledger(t + 1).symbols_delivered, t - 12);
            l.check_conservation(t + 1).unwrap();
        }
        assert_eq!(l.recv(32), Some(LinkSymbol::TcCont { index: 19 }), "the last is handed on");
        assert_eq!((l.ledger(33).symbols_sent, l.ledger(33).symbols_delivered), (20, 20));
        assert_eq!(l.next_event(), None);
        assert!(l.data.is_empty());
        l.check_conservation(33).unwrap();
    }

    #[test]
    fn the_largest_slot_emits_and_hands_on_continuation_255() {
        // `slot_bytes = 256`, the largest `RouterConfig::validate` admits:
        // the last continuation's index is the top of its byte.
        let mut l = Link::new(0);
        l.send(0, tc_head(1, 256));
        assert!(l.recv(1).is_some());
        assert!((2..256).all(|t| l.recv(t).is_none()), "254 continuations absorbed");
        assert_eq!(l.recv(256), Some(LinkSymbol::TcCont { index: 255 }));
        assert_eq!((l.ledger(257).symbols_sent, l.ledger(257).symbols_delivered), (256, 256));
        l.check_conservation(257).unwrap();
    }

    #[test]
    fn a_link_that_stops_absorbing_hands_on_the_rest_as_orphans() {
        let mut l = Link::new(0);
        l.send(0, tc_start(3));
        assert!(l.recv(1).is_some());
        assert_eq!(l.recv(2), None);
        l.stop_absorbing(3);
        assert_eq!(l.ledger(3).symbols_delivered, 2, "what arrived before the stop was absorbed");
        for t in 3..=20 {
            assert_eq!(l.next_event(), Some(t));
            assert_eq!(l.recv(t), Some(LinkSymbol::TcCont { index: (t - 1) as u8 }));
        }
        l.check_conservation(21).unwrap();
    }

    #[test]
    fn a_paused_run_resumes_from_the_restore_cycle() {
        let mut l = Link::new(1);
        l.send(0, tc_head(2, 10));
        assert!(l.recv(2).is_some());
        l.pause_run(4); // continuations 1–3 went out at 1–3
        assert_eq!(l.next_event(), None, "the tail waits for the restore");
        assert_eq!(l.ledger(50).symbols_sent, 4);
        assert_eq!(l.ledger(50).symbols_delivered, 4, "the three sent were absorbed");
        l.resume_run(50); // continuations 4–9 go out at 50–55
        assert_eq!(l.ledger(53).symbols_sent, 7);
        assert_eq!(l.next_event(), Some(57));
        assert!((51..57).all(|t| l.recv(t).is_none()));
        assert_eq!(l.recv(57), Some(LinkSymbol::TcCont { index: 9 }));
        assert_eq!((l.ledger(58).symbols_sent, l.ledger(58).symbols_delivered), (10, 10));
        l.check_conservation(58).unwrap();
    }

    #[test]
    fn flaky_link_drops_whole_packets_deterministically() {
        let run = |seed: u64| -> (u64, u64) {
            let mut l = Link::new(0);
            l.set_flaky(512, 0, seed);
            let mut now = 0;
            for p in 0..64u16 {
                l.send(now, tc_head(p, 2));
                now += 2;
            }
            // Drain.
            for t in 0..=now {
                l.recv(t);
            }
            l.check_conservation(now + 1).unwrap();
            (l.ledger(now + 1).symbols_lost, l.ledger(now + 1).symbols_delivered)
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
        assert_eq!(l.ledger(2).symbols_corrupted, 1);
        l.check_conservation(2).unwrap();
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
        assert_eq!(l.ledger(7).symbols_corrupted, 1);
    }

    proptest::proptest! {
        /// Any interleaving of sends, credit returns, (possibly long
        /// overdue — a crashed receiver) polls, absorption stops and
        /// transmitter pauses, on a link that goes down and comes back,
        /// keeps `next_at` equal to the wake the queues themselves give,
        /// `recv`/`recv_credit` inert before it, and the ledger balanced,
        /// after every call.
        #[test]
        fn next_at_is_the_earlier_queue_front_after_every_call(
            latency in 0u64..4,
            ops in proptest::collection::vec((0u8..8, 0u64..7, 1u16..5), 1..120),
        ) {
            let mut l = Link::new(latency);
            let (mut now, mut paused) = (0, false);
            for (op, gap, bytes) in ops {
                now += gap;
                // One symbol per cycle is the wire's own rule, and nothing
                // is driven over a run.
                let free = !paused && l.data.back().is_none_or(|e| last_arrival(e) <= now + latency);
                match op {
                    0 if free => l.send(now, be(bytes as u8)),
                    1 if free => l.send(now, tc_head(bytes, 4)),
                    2 => l.send_credit(now, bytes),
                    3 => {
                        // An overdue poll is a receiver back from a crash.
                        if l.next_event().is_some_and(|at| at < now) {
                            l.stop_absorbing(now);
                        }
                        let due = l.next_event().is_some_and(|at| at <= now);
                        let got = l.recv(now);
                        proptest::prop_assert!(due || got.is_none());
                    }
                    4 => {
                        let owed: u16 =
                            l.credits.iter().filter(|(t, _)| *t <= now).map(|(_, b)| b).sum();
                        proptest::prop_assert_eq!(l.recv_credit(now), owed);
                    }
                    5 => l.stop_absorbing(now),
                    6 if paused => l.resume_run(now),
                    6 => l.pause_run(now),
                    _ if l.is_down() => l.set_up(),
                    _ => l.set_down(),
                }
                paused ^= op == 6;
                proptest::prop_assert_eq!(l.next_event(), l.wake(true, true));
                l.check_conservation(now + 1).unwrap();
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
        while let Some(&(_, Wire::Run { first, last, lost: true })) = l.data.back() {
            let n = run_len(first, last);
            l.ledger.settle_run(n);
            l.ledger.symbols_lost += n;
            l.data.pop_back();
        }
        let run = if let LinkSymbol::TcStart(packet) = &symbol { packet.last_index() } else { 0 };
        l.ledger.symbols_sent += 1;
        l.ledger.tc_symbols_sent += u64::from(symbol.is_time_constrained());
        let arrive = now + 1 + l.latency;
        let symbol = l.through_faults(symbol);
        let lost = symbol.is_none();
        if let Some(symbol) = symbol {
            l.data.push_back((arrive, Wire::Symbol(symbol)));
            l.next_at = l.next_at.min(arrive);
        }
        if run > 0 {
            l.data.push_back((arrive + 1, Wire::Run { first: 1, last: run, lost }));
        }
    }

    #[test]
    fn the_fault_free_shortcut_agrees_with_the_fault_path_across_mid_packet_toggles() {
        // Two packets of each class back to back; a fault regime switches
        // on before symbol `on` and off three symbols later, for every
        // `on` — so inside a best-effort packet, inside a time-constrained
        // one (whose continuations its run carries), and on every boundary.
        let mut stream = Vec::new();
        for round in 0..2u16 {
            for i in 0..8u8 {
                let byte = BeByte { byte: i, head: i == 0, tail: i == 7, trace: None };
                stream.push((1, LinkSymbol::Be(byte)));
            }
            stream.push((6, tc_head(round, 6)));
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
            let flags = (l.down, l.be_dropping, l.be_corrupt_armed, l.rng);
            format!("{:?} {:?} {:?} {flags:?}", l.data, l.next_at, l.ledger)
        };
        for (on, off) in regimes {
            for start in 0..stream.len() {
                let (mut fast, mut slow) = (Link::new(1), Link::new(1));
                let mut now = 0;
                for (k, (cycles, symbol)) in stream.iter().enumerate() {
                    for l in [&mut fast, &mut slow] {
                        if k == start {
                            on(l);
                        } else if k == start + 3 {
                            off(l);
                        }
                    }
                    fast.send(now, symbol.clone());
                    send_slow(&mut slow, now, symbol.clone());
                    assert_eq!(state(&fast), state(&slow), "regime on at {start}, symbol {k}");
                    now += cycles;
                }
                fast.check_conservation(now).unwrap();
            }
        }
    }

    /// The per-symbol link the run-based one replaced, kept as the oracle
    /// of [`the_run_link_answers_like_the_per_symbol_link`]: a head makes
    /// it owe its packet's continuations, [`SymbolLink::emit`] puts one on
    /// the wire per cycle while the transmitter is up, and the far end
    /// takes each off at its cycle, absorbing all but the last. Its fault
    /// plane, credit wire and ledger are a real [`Link`]'s, whose data wire
    /// it leaves empty.
    struct SymbolLink {
        wire: Link,
        data: VecDeque<(Cycle, LinkSymbol)>,
        /// Index of the next continuation owed (0 = none), and the last.
        emit_next: u8,
        emit_last: u8,
        /// The packet being emitted had its head destroyed.
        dropping: bool,
        /// Continuations still to be taken off the wire unseen.
        absorb: u8,
    }

    impl SymbolLink {
        fn new(latency: Cycle) -> Self {
            let wire = Link::new(latency);
            SymbolLink {
                wire,
                data: VecDeque::new(),
                emit_next: 0,
                emit_last: 0,
                dropping: false,
                absorb: 0,
            }
        }

        fn send(&mut self, now: Cycle, symbol: LinkSymbol) {
            let l = &mut self.wire;
            l.ledger.symbols_sent += 1;
            l.ledger.tc_symbols_sent += u64::from(symbol.is_time_constrained());
            let symbol = match symbol {
                LinkSymbol::TcCont { .. } if self.dropping => {
                    l.ledger.symbols_lost += 1;
                    None
                }
                LinkSymbol::TcStart(packet) => {
                    self.emit_last = packet.last_index();
                    self.emit_next = u8::from(self.emit_last > 0);
                    let head = l.through_faults(LinkSymbol::TcStart(packet));
                    self.dropping = head.is_none();
                    head
                }
                symbol => l.through_faults(symbol),
            };
            if let Some(symbol) = symbol {
                self.data.push_back((now + 1 + l.latency, symbol));
            }
        }

        fn emit(&mut self, now: Cycle) {
            let index = self.emit_next;
            self.emit_next = if index == self.emit_last { 0 } else { index + 1 };
            self.send(now, LinkSymbol::TcCont { index });
        }

        fn recv(&mut self, now: Cycle) -> Option<LinkSymbol> {
            while let Some(&(t, _)) = self.data.front() {
                if t > now {
                    break;
                }
                let symbol = self.data.pop_front().map(|(_, s)| s);
                if t < now {
                    self.wire.ledger.symbols_lost += 1;
                    self.wire.ledger.late_arrivals_dropped += 1;
                    continue;
                }
                self.wire.ledger.symbols_delivered += 1;
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
            }
            None
        }

        /// The next arrival a chip must see at the start of cycle `now`,
        /// the continuations still owed included: a live transmitter emits
        /// them one per cycle from `now` on.
        fn next_event(&self, now: Cycle, transmitter: bool) -> Option<Cycle> {
            let latency = self.wire.latency;
            let owing = transmitter && !self.dropping && self.emit_next != 0;
            let owed = owing.then_some(self.emit_next..=self.emit_last);
            let owed =
                owed.into_iter().flatten().enumerate().map(|(k, index)| {
                    (now + k as Cycle + 1 + latency, LinkSymbol::TcCont { index })
                });
            let mut absorb = self.absorb;
            let data = self.data.iter().cloned().chain(owed).find(|(_, symbol)| {
                let absorbed = matches!(symbol, LinkSymbol::TcCont { .. }) && absorb > 0;
                absorb -= u8::from(absorbed);
                !absorbed
            });
            let credit = self.wire.credits.front().map(|(t, _)| *t);
            data.map(|(t, _)| t).into_iter().chain(credit).min()
        }
    }

    proptest::proptest! {
        /// The run-based link against the per-symbol one, driven cycle by
        /// cycle the way the simulator drives a link — both are offered
        /// the same heads (2–256 symbols), best-effort bytes and credits
        /// while the transmitter is up, polled while their end is up, and
        /// faulted alike — must answer every `recv` and `recv_credit` the
        /// same and agree on `next_event`, the ledger and `in_flight` at
        /// every cycle boundary. A receiver crash stops the run link's
        /// absorption at once and the per-symbol link's at the restore, as
        /// the simulator used to: nothing polls either in between.
        #[test]
        fn the_run_link_answers_like_the_per_symbol_link(
            latency in 0u64..=20,
            ops in proptest::collection::vec((0u8..9, 0u64..24, 0u16..1024), 1..60),
        ) {
            let mut run = Link::new(latency);
            let mut oracle = SymbolLink::new(latency);
            let (mut tx, mut rx) = (true, true);
            let mut now: Cycle = 0;
            // One cycle: arrivals, the oracle's emission, then what the
            // transmitter drives.
            let cycle = |run: &mut Link, oracle: &mut SymbolLink, now: Cycle,
                             tx: bool, rx: bool, send: Option<LinkSymbol>, credit: u16| {
                if rx {
                    proptest::prop_assert_eq!(run.recv(now), oracle.recv(now), "recv at {}", now);
                }
                if tx {
                    let credits = oracle.wire.recv_credit(now);
                    proptest::prop_assert_eq!(run.recv_credit(now), credits, "credits at {}", now);
                    if oracle.emit_next != 0 {
                        oracle.emit(now);
                    }
                }
                if let Some(symbol) = send {
                    run.send(now, symbol.clone());
                    oracle.send(now, symbol);
                }
                if credit > 0 {
                    run.send_credit(now, credit);
                    oracle.wire.send_credit(now, credit);
                }
                let next = now + 1;
                proptest::prop_assert_eq!(run.ledger(next), oracle.wire.ledger(next), "ledger at {}", next);
                proptest::prop_assert_eq!(run.in_flight(next), oracle.data.len(), "in flight at {}", next);
                if rx {
                    proptest::prop_assert_eq!(run.next_event(), oracle.next_event(next, tx), "wake at {}", next);
                }
                proptest::prop_assert_eq!(run.next_event(), run.wake(true, true));
                run.check_conservation(next).unwrap();
            };
            for (op, gap, param) in ops {
                let (mut send, mut credit) = (None, 0);
                match op {
                    // A head, or a best-effort byte, at the first cycle the
                    // wire is free; every transmission ends with the
                    // emission of its last continuation.
                    0..=2 if tx => {
                        while oracle.emit_next != 0 {
                            cycle(&mut run, &mut oracle, now, tx, rx, None, 0);
                            now += 1;
                        }
                        send = Some(match op {
                            0 | 1 => tc_head(param, 2 + usize::from(param % 255)),
                            _ => {
                                let (head, tail) = (param & 1 != 0, param & 2 != 0);
                                LinkSymbol::Be(BeByte { byte: param as u8, head, tail, trace: None })
                            }
                        });
                    }
                    3 if rx => credit = 1 + param % 5,
                    4 => {
                        tx = !tx;
                        if tx { run.resume_run(now) } else { run.pause_run(now) }
                    }
                    5 => {
                        rx = !rx;
                        if rx { oracle.absorb = 0 } else { run.stop_absorbing(now) }
                    }
                    6 if run.is_down() => {
                        run.set_up();
                        oracle.wire.set_up();
                    }
                    6 => {
                        run.set_down();
                        oracle.wire.set_down();
                    }
                    7 => {
                        let (drop, corrupt) = (param % 700, param / 2 % 500);
                        run.set_flaky(drop, corrupt, u64::from(param));
                        oracle.wire.set_flaky(drop, corrupt, u64::from(param));
                    }
                    _ => {}
                }
                cycle(&mut run, &mut oracle, now, tx, rx, send, credit);
                now += 1;
                for _ in 0..gap {
                    cycle(&mut run, &mut oracle, now, tx, rx, None, 0);
                    now += 1;
                }
            }
        }
    }
}
