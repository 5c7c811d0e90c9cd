//! Time-constrained traffic sources.

use rtr_channels::sender::ChannelSender;
use rtr_mesh::source::TrafficSource;
use rtr_types::chip::InjectQueues;
use rtr_types::ids::NodeId;
use rtr_types::packet::Payload;
use rtr_types::time::{cycle_to_slot, slot_to_cycle, Cycle};

/// A connection with a *continual backlog* of traffic — the regime of the
/// paper's Figure 7 ("each connection has a continual backlog of traffic").
///
/// The source keeps the connection's logical arrival times a bounded lead
/// ahead of real time: it injects the next message whenever its logical
/// arrival would be within `lead_messages · I_min` slots of now. Because
/// guarantees are based on logical time, this saturates the connection's
/// reserved share without overflowing the reserved buffers.
#[derive(Debug)]
pub struct BackloggedTcSource {
    sender: ChannelSender,
    i_min: u32,
    lead_messages: u32,
    slot_bytes: usize,
    chunks: Vec<Payload>,
    injected: u64,
}

impl BackloggedTcSource {
    /// Creates a backlogged source over an established channel's sender.
    ///
    /// `lead_messages` bounds how far logical time may run ahead of real
    /// time (2–4 is plenty to keep the scheduler busy).
    #[must_use]
    pub fn new(
        sender: ChannelSender,
        i_min: u32,
        lead_messages: u32,
        slot_bytes: usize,
        payload: Vec<u8>,
    ) -> Self {
        // Chunk and pad the message body once; every injected packet then
        // shares the same reference-counted payloads.
        let chunks = sender.prepare_payload(&payload);
        BackloggedTcSource {
            sender,
            i_min,
            lead_messages: lead_messages.max(1),
            slot_bytes,
            chunks,
            injected: 0,
        }
    }

    /// Messages injected so far.
    #[must_use]
    pub fn injected(&self) -> u64 {
        self.injected
    }
}

impl TrafficSource for BackloggedTcSource {
    fn pre_cycle(&mut self, now: Cycle, _node: NodeId, io: &mut InjectQueues) {
        let t = cycle_to_slot(now, self.slot_bytes);
        let lead = u64::from(self.lead_messages) * u64::from(self.i_min);
        loop {
            let next_l0 = match self.sender.last_logical_arrival() {
                Some(l) => l + u64::from(self.i_min),
                None => t,
            };
            if next_l0 > t + lead {
                break;
            }
            for p in self.sender.make_message_shared(now, &self.chunks) {
                io.inject_tc.push_back(p);
            }
            self.injected += 1;
        }
    }

    fn next_event(&self, now: Cycle) -> Option<Cycle> {
        // The next message fires when real time reaches slot
        // `next ℓ0 − lead`; until then the source is silent.
        let t = cycle_to_slot(now, self.slot_bytes);
        let lead = u64::from(self.lead_messages) * u64::from(self.i_min);
        let fire_slot = self.sender.peek_next_arrival(t).saturating_sub(lead);
        Some(slot_to_cycle(fire_slot, self.slot_bytes).max(now + 1))
    }
}

/// A strictly periodic sender: one message every `period_slots`, starting at
/// `phase_slots`.
#[derive(Debug)]
pub struct PeriodicTcSource {
    sender: ChannelSender,
    period_slots: u64,
    phase_slots: u64,
    slot_bytes: usize,
    chunks: Vec<Payload>,
    sent: u64,
    limit: Option<u64>,
}

impl PeriodicTcSource {
    /// Creates a periodic source.
    ///
    /// # Panics
    ///
    /// Panics if `period_slots` is zero.
    #[must_use]
    pub fn new(
        sender: ChannelSender,
        period_slots: u64,
        phase_slots: u64,
        slot_bytes: usize,
        payload: Vec<u8>,
    ) -> Self {
        assert!(period_slots > 0, "period must be positive");
        let chunks = sender.prepare_payload(&payload);
        PeriodicTcSource {
            sender,
            period_slots,
            phase_slots,
            slot_bytes,
            chunks,
            sent: 0,
            limit: None,
        }
    }

    /// Stops after `limit` messages.
    #[must_use]
    pub fn with_limit(mut self, limit: u64) -> Self {
        self.limit = Some(limit);
        self
    }

    /// Messages sent so far.
    #[must_use]
    pub fn sent(&self) -> u64 {
        self.sent
    }
}

impl TrafficSource for PeriodicTcSource {
    fn pre_cycle(&mut self, now: Cycle, _node: NodeId, io: &mut InjectQueues) {
        if self.limit.is_some_and(|l| self.sent >= l) {
            return;
        }
        let t = cycle_to_slot(now, self.slot_bytes);
        // Fire on the first cycle of each due slot.
        let due = self.phase_slots + self.sent * self.period_slots;
        if t >= due && now.is_multiple_of(self.slot_bytes as u64) {
            for p in self.sender.make_message_shared(now, &self.chunks) {
                io.inject_tc.push_back(p);
            }
            self.sent += 1;
        }
    }

    fn next_event(&self, now: Cycle) -> Option<Cycle> {
        if self.limit.is_some_and(|l| self.sent >= l) {
            return None;
        }
        let due = self.phase_slots + self.sent * self.period_slots;
        Some(next_slot_fire(due, now, self.slot_bytes))
    }
}

/// A bursty (but contract-conforming) sender: every `burst_period_slots` it
/// generates `burst_size` messages back to back.
///
/// The logical arrival times still advance by `I_min` per message (§2), so
/// the burst is legal whenever `burst_size ≤ B_max + 1` and the long-run
/// rate stays within the contract. Deadline-driven links absorb such bursts
/// without hurting other connections; FIFO links do not — which is what the
/// baseline-comparison experiment demonstrates.
#[derive(Debug)]
pub struct BurstyTcSource {
    sender: ChannelSender,
    burst_size: u32,
    burst_period_slots: u64,
    slot_bytes: usize,
    chunks: Vec<Payload>,
    bursts: u64,
}

impl BurstyTcSource {
    /// Creates a bursty source.
    ///
    /// # Panics
    ///
    /// Panics if the burst size or period is zero.
    #[must_use]
    pub fn new(
        sender: ChannelSender,
        burst_size: u32,
        burst_period_slots: u64,
        slot_bytes: usize,
        payload: Vec<u8>,
    ) -> Self {
        assert!(burst_size > 0 && burst_period_slots > 0, "burst parameters must be positive");
        let chunks = sender.prepare_payload(&payload);
        BurstyTcSource { sender, burst_size, burst_period_slots, slot_bytes, chunks, bursts: 0 }
    }

    /// Bursts emitted so far.
    #[must_use]
    pub fn bursts(&self) -> u64 {
        self.bursts
    }
}

impl TrafficSource for BurstyTcSource {
    fn pre_cycle(&mut self, now: Cycle, _node: NodeId, io: &mut InjectQueues) {
        let t = cycle_to_slot(now, self.slot_bytes);
        if t >= self.bursts * self.burst_period_slots && now.is_multiple_of(self.slot_bytes as u64)
        {
            for _ in 0..self.burst_size {
                for p in self.sender.make_message_shared(now, &self.chunks) {
                    io.inject_tc.push_back(p);
                }
            }
            self.bursts += 1;
        }
    }

    fn next_event(&self, now: Cycle) -> Option<Cycle> {
        let due = self.bursts * self.burst_period_slots;
        Some(next_slot_fire(due, now, self.slot_bytes))
    }
}

/// First cycle strictly after `now` at which a slot-aligned source whose
/// next message is due in slot `due` will fire: the start of slot `due`, or
/// the next slot boundary if that is already past.
fn next_slot_fire(due: u64, now: Cycle, slot_bytes: usize) -> Cycle {
    let due_cycle = slot_to_cycle(due, slot_bytes);
    if due_cycle > now {
        due_cycle
    } else {
        (now / slot_bytes as u64 + 1) * slot_bytes as u64
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rtr_channels::establish::{EstablishedChannel, Hop};
    use rtr_channels::spec::{ChannelRequest, TrafficSpec};
    use rtr_types::clock::SlotClock;
    use rtr_types::ids::{ConnectionId, Port};

    fn channel(i_min: u32) -> EstablishedChannel {
        EstablishedChannel {
            id: 0,
            ingress: ConnectionId(1),
            depth: 1,
            guaranteed: 4,
            hops: vec![Hop {
                node: NodeId(0),
                conn: ConnectionId(1),
                out_conn: ConnectionId(1),
                delay: 4,
                out_mask: Port::Local.mask(),
                buffers: 1,
            }],
            request: ChannelRequest::unicast(
                NodeId(0),
                NodeId(0),
                TrafficSpec::periodic(i_min, 18),
                4,
            ),
        }
    }

    fn sender(i_min: u32) -> ChannelSender {
        ChannelSender::new(&channel(i_min), SlotClock::new(8), 20, 18)
    }

    #[test]
    fn backlogged_source_keeps_bounded_lead() {
        let mut src = BackloggedTcSource::new(sender(8), 8, 2, 20, vec![0; 18]);
        let mut io = InjectQueues::default();
        src.pre_cycle(0, NodeId(0), &mut io);
        // Lead = 16 slots → ℓ0 ∈ {0, 8, 16}: three messages immediately.
        assert_eq!(io.inject_tc.len(), 3);
        // No more until real time catches up.
        src.pre_cycle(19, NodeId(0), &mut io);
        assert_eq!(io.inject_tc.len(), 3);
        // At slot 8 (cycle 160), ℓ0 = 24 comes within the lead.
        src.pre_cycle(160, NodeId(0), &mut io);
        assert_eq!(io.inject_tc.len(), 4);
        assert_eq!(src.injected(), 4);
    }

    #[test]
    fn backlogged_arrivals_are_spaced_i_min() {
        let mut src = BackloggedTcSource::new(sender(16), 16, 3, 20, vec![0; 18]);
        let mut io = InjectQueues::default();
        for now in 0..2000 {
            src.pre_cycle(now, NodeId(0), &mut io);
        }
        let ls: Vec<u64> = io.inject_tc.iter().map(|p| p.trace.logical_arrival).collect();
        for w in ls.windows(2) {
            assert_eq!(w[1] - w[0], 16);
        }
    }

    #[test]
    fn periodic_source_fires_on_schedule() {
        let mut src = PeriodicTcSource::new(sender(4), 5, 2, 20, vec![0; 18]).with_limit(3);
        let mut io = InjectQueues::default();
        let mut fire_cycles = Vec::new();
        for now in 0..1000 {
            let before = io.inject_tc.len();
            src.pre_cycle(now, NodeId(0), &mut io);
            if io.inject_tc.len() > before {
                fire_cycles.push(now);
            }
        }
        // Slots 2, 7, 12 → cycles 40, 140, 240; limit stops the rest.
        assert_eq!(fire_cycles, vec![40, 140, 240]);
        assert_eq!(src.sent(), 3);
    }

    #[test]
    fn bursty_source_dumps_batches_with_spaced_logical_arrivals() {
        let mut src = BurstyTcSource::new(sender(8), 4, 48, 20, vec![0; 18]);
        let mut io = InjectQueues::default();
        src.pre_cycle(0, NodeId(0), &mut io);
        assert_eq!(io.inject_tc.len(), 4, "whole burst at once");
        let ls: Vec<u64> = io.inject_tc.iter().map(|p| p.trace.logical_arrival).collect();
        assert_eq!(ls, vec![0, 8, 16, 24], "logical arrivals stay I_min apart");
        // Nothing more until the next burst period (slot 48 = cycle 960).
        for now in 1..960 {
            src.pre_cycle(now, NodeId(0), &mut io);
        }
        assert_eq!(io.inject_tc.len(), 4);
        src.pre_cycle(960, NodeId(0), &mut io);
        assert_eq!(io.inject_tc.len(), 8);
        assert_eq!(src.bursts(), 2);
    }
}
