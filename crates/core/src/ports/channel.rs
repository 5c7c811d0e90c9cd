//! The best-effort wormhole channel (paper §3.2, §3.4).
//!
//! One channel spans a router's five ports: bytes routed by the input ports
//! leave on the output their header chose, one per output per cycle, under
//! round-robin arbitration that binds an output to the winning input until
//! the packet's tail, and credit-based flow control that never overruns the
//! downstream flit buffer. It also owns the two ends that are not links:
//! the injection port and the reception port's packet reassembly.
//!
//! It does *not* decide when an output may carry a best-effort byte: the
//! arbitration order between classes belongs to the owning router, which
//! calls [`WormholeChannel::send`] on the cycles it grants and reads back
//! what happened.

use std::collections::VecDeque;

use rtr_types::flit::{BeByte, LinkSymbol};
use rtr_types::ids::{Port, PORT_COUNT};
use rtr_types::packet::{BePacket, PacketTrace};
use rtr_types::time::Cycle;
use rtr_types::{chip::ChipIo, error::PacketDecodeError};

use super::input::{InputPort, PortTiming};

/// Reassembles a best-effort byte stream into packets.
#[derive(Debug, Default)]
pub struct BeReassembler {
    buf: Vec<u8>,
    trace: Option<PacketTrace>,
}

impl BeReassembler {
    /// Takes the stream's next byte. A tail byte completes the packet:
    /// decoded with the head byte's trace restored, or the decode error of
    /// a malformed one (a fault destroyed part of it upstream).
    pub fn push(&mut self, byte: BeByte) -> Option<Result<BePacket, PacketDecodeError>> {
        if byte.head {
            self.buf.clear();
            self.trace = byte.trace.map(|trace| *trace);
        }
        self.buf.push(byte.byte);
        if !byte.tail {
            return None;
        }
        let packet = BePacket::from_wire(&self.buf).map(|mut packet| {
            packet.trace = self.trace.take().unwrap_or_default();
            packet
        });
        self.buf.clear();
        Some(packet)
    }

    /// Bytes of the unfinished packet held so far.
    #[must_use]
    pub fn buffered(&self) -> usize {
        self.buf.len()
    }
}

/// What [`WormholeChannel::send`] did on an output this cycle.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct BeSent {
    /// The input port served.
    pub input: usize,
    /// The byte was a packet's head: the output just picked this input.
    pub head: bool,
    /// A tail reached the reception port: the trace of the packet now at
    /// the back of `io.delivered_be`, or why the bytes were not a packet.
    pub delivered: Option<Result<PacketTrace, PacketDecodeError>>,
}

/// Wormhole state of one output port (an input index fits a byte).
#[derive(Debug)]
struct BeOut {
    /// Input bound to the packet in flight, until its tail byte.
    bound: Option<u8>,
    /// Next input to consider in round-robin order.
    rr_next: u8,
    /// Free flit-buffer bytes downstream.
    credits: u32,
    /// Reception port: local delivery needs no credits.
    infinite_credit: bool,
}

impl BeOut {
    fn has_credit(&self) -> bool {
        self.infinite_credit || self.credits > 0
    }
}

/// No ready head-of-line byte: the input requests no output this tick.
const NO_REQUEST: u8 = u8::MAX;

/// The output `input`'s head-of-line byte may leave on at `now`, if any.
fn request_of(input: &InputPort, now: Cycle) -> u8 {
    match input.be_head() {
        Some(head) if head.ready_at <= now => head.out.index() as u8,
        _ => NO_REQUEST,
    }
}

/// The best-effort virtual channel of one router.
#[derive(Debug)]
pub struct WormholeChannel {
    outs: [BeOut; PORT_COUNT],
    /// The tick's request vector: per input, the output its ready
    /// head-of-line byte is routed to. Only a head-of-line byte can leave,
    /// so this is everything arbitration needs to know about the inputs;
    /// [`Self::collect_requests`] fills it once the tick's arrivals are in
    /// and [`Self::send`] refreshes the one input it pops.
    requests: [u8; PORT_COUNT],
    /// Injection in progress: position in `inject_buf` and the packet's
    /// trace.
    inject: Option<(usize, PacketTrace)>,
    /// Wire bytes of the injection in progress, reused across packets so
    /// injection never allocates.
    inject_buf: Vec<u8>,
    rx: BeReassembler,
}

impl WormholeChannel {
    /// A channel whose network outputs start with `flit_bytes` credits (the
    /// simulator overrides them from the real neighbour).
    #[must_use]
    pub fn new(flit_bytes: u32) -> Self {
        WormholeChannel {
            outs: std::array::from_fn(|i| BeOut {
                bound: None,
                rr_next: 0,
                credits: flit_bytes,
                infinite_credit: i == 0,
            }),
            requests: [NO_REQUEST; PORT_COUNT],
            inject: None,
            inject_buf: Vec::new(),
            rx: BeReassembler::default(),
        }
    }

    /// Overrides the credit pool of a network output.
    pub fn set_credits(&mut self, port: Port, bytes: u32) {
        let out = &mut self.outs[port.index()];
        if !out.infinite_credit {
            out.credits = bytes;
        }
    }

    /// Takes the credits freed downstream — first, so this cycle can spend them.
    pub fn ingest_credits(&mut self, credit_in: &[u16; PORT_COUNT]) {
        for (out, &bytes) in self.outs.iter_mut().zip(credit_in) {
            if !out.infinite_credit {
                out.credits += u32::from(bytes);
            }
        }
    }

    /// The injection port: feeds the packet at the head of `queue` into the
    /// local input port, one byte per cycle, gated by its flit buffer.
    #[inline]
    pub fn inject(
        &mut self,
        now: Cycle,
        local: &mut InputPort,
        queue: &mut VecDeque<BePacket>,
        timing: PortTiming,
    ) {
        if self.inject.is_none() {
            if let Some(packet) = queue.pop_front() {
                packet.to_wire_into(&mut self.inject_buf);
                self.inject = Some((0, packet.trace));
            }
        }
        if let Some((pos, trace)) = &mut self.inject {
            if local.be_occupancy() < timing.flit_capacity as usize {
                let wire = &self.inject_buf;
                let head = *pos == 0;
                let tail = *pos == wire.len() - 1;
                // Boxed once here; every later hop moves the box on.
                let trace = head.then(|| Box::new(*trace));
                let byte = BeByte { byte: wire[*pos], head, tail, trace };
                let outcome = local.push_be(now, byte, timing);
                debug_assert_eq!(outcome, Default::default(), "injection is free-space gated");
                *pos += 1;
                if *pos == wire.len() {
                    self.inject = None;
                }
            }
        }
    }

    /// Drops the injection in progress (crash: no upstream link to refund).
    pub fn abort_injection(&mut self) {
        self.inject = None;
    }

    /// Reads the tick's request vector off the flit buffers. The owning
    /// router calls this once per tick, after the last byte of the cycle
    /// has entered an input port (link arrivals and [`Self::inject`]) and
    /// before the first [`Self::send`].
    #[inline]
    pub fn collect_requests(&mut self, inputs: &[InputPort; PORT_COUNT], now: Cycle) {
        for (request, input) in self.requests.iter_mut().zip(inputs) {
            *request = request_of(input, now);
        }
    }

    /// Whether a byte could leave on `out_idx` this cycle (read-only).
    #[must_use]
    pub fn waiting(&self, inputs: &[InputPort; PORT_COUNT], out_idx: usize, now: Cycle) -> bool {
        let port = Port::from_index(out_idx);
        self.outs[out_idx].has_credit()
            && inputs.iter().any(|input| input.be_front_for(port, now).is_some())
    }

    /// Picks the input whose head-of-line byte this output should carry,
    /// honouring an existing wormhole binding and otherwise rotating
    /// round-robin over the input links (§3.2). Reads the request vector,
    /// not the flit buffers.
    #[inline]
    fn be_pick(
        &mut self,
        inputs: &[InputPort; PORT_COUNT],
        out_idx: usize,
        now: Cycle,
    ) -> Option<usize> {
        debug_assert!(
            (0..PORT_COUNT * PORT_COUNT).all(|k| {
                let (i, o) = (k / PORT_COUNT, k % PORT_COUNT);
                inputs[i].be_front_for(Port::from_index(o), now).is_some()
                    == (usize::from(self.requests[i]) == o)
            }),
            "request vector {:?} is not the flit buffers' at cycle {now}",
            self.requests
        );
        let want = out_idx as u8;
        let out = &mut self.outs[out_idx];
        if let Some(bound) = out.bound.map(usize::from) {
            // A packet is mid-flight on this output: only its bytes may go.
            return (self.requests[bound] == want).then_some(bound);
        }
        for k in 0..PORT_COUNT {
            let i = (usize::from(out.rr_next) + k) % PORT_COUNT;
            if self.requests[i] == want {
                debug_assert!(
                    inputs[i].be_head().is_some_and(|front| front.byte.head),
                    "unbound output must start at a head byte"
                );
                out.rr_next = u8::try_from((i + 1) % PORT_COUNT).expect("a port index fits a byte");
                return Some(i);
            }
        }
        None
    }

    /// Sends one byte on `out_idx` if a credit and a ready byte exist: pick,
    /// bind, spend the credit, return the input's credit upstream, and drive
    /// the link — or, on the reception port, reassemble and deliver.
    #[inline]
    pub fn send(
        &mut self,
        now: Cycle,
        inputs: &mut [InputPort; PORT_COUNT],
        out_idx: usize,
        io: &mut ChipIo,
    ) -> Option<BeSent> {
        // An all-idle vector answers every output of the tick in one compare.
        if self.requests == [NO_REQUEST; PORT_COUNT] || !self.outs[out_idx].has_credit() {
            return None;
        }
        let in_idx = self.be_pick(inputs, out_idx, now)?;
        let byte = inputs[in_idx].pop_be().byte;
        let head = byte.head;
        // The pop may expose a byte a later output of this tick must see.
        self.requests[in_idx] = request_of(&inputs[in_idx], now);
        let out = &mut self.outs[out_idx];
        out.bound = (!byte.tail).then(|| u8::try_from(in_idx).expect("a port index fits a byte"));
        if !out.infinite_credit {
            out.credits -= 1;
        }
        if in_idx != 0 {
            io.credit_out[in_idx] += 1;
        }
        let delivered = if out_idx == 0 {
            self.rx.push(byte).map(|packet| {
                packet.map(|packet| {
                    let trace = packet.trace;
                    io.delivered_be.push((now, packet));
                    trace
                })
            })
        } else {
            io.tx[out_idx] = Some(LinkSymbol::Be(byte));
            None
        };
        Some(BeSent { input: in_idx, head, delivered })
    }

    /// The channel's share of `Chip::next_event`: the earliest cycle it has
    /// work for, given no further arrivals or credits. At or before `now`
    /// means it already has (an injection in progress, a ready byte with a
    /// credit); `None` that nothing buffered can move — a byte without
    /// credit and a held header byte wait on the link, not on time.
    #[must_use]
    pub fn next_event(&self, inputs: &[InputPort; PORT_COUNT], now: Cycle) -> Option<Cycle> {
        if self.inject.is_some() {
            return Some(now);
        }
        let mut earliest: Option<Cycle> = None;
        for input in inputs {
            if let Some(head) = input.be_head() {
                if head.ready_at > now {
                    earliest = Some(earliest.map_or(head.ready_at, |e| e.min(head.ready_at)));
                } else if self.outs[head.out.index()].has_credit() {
                    return Some(now);
                }
            }
        }
        earliest
    }

    /// Heap bytes behind the channel's staging buffers.
    #[must_use]
    pub fn heap_bytes(&self) -> usize {
        self.inject_buf.capacity() + self.rx.buf.capacity()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// The timing every test port shares.
    const T: PortTiming =
        PortTiming { pipeline_latency: 10, tc_store_latency: 6, flit_capacity: 10 };

    fn inputs() -> [InputPort; PORT_COUNT] {
        Default::default()
    }

    #[test]
    fn credits_gate_network_outputs_but_never_the_reception_port() {
        let mut channel = WormholeChannel::new(2);
        channel.set_credits(Port::Local, 0);
        channel.set_credits(Port::from_index(1), 0);
        assert!(channel.outs[0].has_credit(), "local delivery needs no credits");
        assert!(!channel.outs[1].has_credit() && channel.outs[2].has_credit());
        assert!(!channel.waiting(&inputs(), 2, 0), "credit alone is not a waiting byte");
        channel.ingest_credits(&[0, 1, 0, 0, 0]);
        assert!(channel.outs[1].has_credit());
    }

    #[test]
    fn send_reports_head_binding_and_delivery() {
        let mut channel = WormholeChannel::new(8);
        let mut inputs = inputs();
        let mut io = ChipIo::new();
        let trace = PacketTrace { sequence: 9, ..PacketTrace::default() };
        io.inject_be.push_back(BePacket::new(0, 0, vec![1, 2], trace));
        let mut reports = Vec::new();
        for now in 0..40 {
            channel.inject(now, &mut inputs[0], &mut io.inject_be, T);
            channel.collect_requests(&inputs, now);
            if now == 0 {
                assert_eq!(channel.next_event(&inputs, now), Some(now), "injecting: busy now");
            }
            if let Some(sent) = channel.send(now, &mut inputs, 0, &mut io) {
                reports.push(sent);
            }
        }
        assert_eq!(reports.len(), 6, "4 header + 2 payload bytes");
        assert!(reports[0].head && reports[1..].iter().all(|r| !r.head));
        assert!(reports.iter().all(|r| r.input == 0));
        assert!(reports[..5].iter().all(|r| r.delivered.is_none()));
        assert_eq!(reports[5].delivered, Some(Ok(trace)));
        assert_eq!(io.delivered_be[0].1.payload, vec![1, 2]);
        assert_eq!(channel.next_event(&inputs, 40), None, "drained");
    }

    /// Pushes one payload-free packet (its four header bytes) into `input`,
    /// one byte per cycle from `at`.
    fn push_packet(input: &mut InputPort, at: Cycle, x_off: i8, y_off: i8) {
        let wire = BePacket::new(x_off, y_off, vec![], PacketTrace::default()).to_wire();
        for (i, &byte) in wire.iter().enumerate() {
            let (head, tail) = (i == 0, i == wire.len() - 1);
            let outcome =
                input.push_be(at + i as Cycle, BeByte { byte, head, tail, trace: None }, T);
            assert_eq!(outcome, Default::default());
        }
    }

    /// One tick of the channel alone: collect, then offer every output its
    /// cycle in port order; returns `(output, what was sent)` per byte.
    fn tick(
        channel: &mut WormholeChannel,
        inputs: &mut [InputPort; PORT_COUNT],
        now: Cycle,
        io: &mut ChipIo,
    ) -> Vec<(usize, BeSent)> {
        channel.collect_requests(inputs, now);
        let sends =
            (0..PORT_COUNT).filter_map(|out| Some((out, channel.send(now, inputs, out, io)?)));
        sends.collect()
    }

    #[test]
    fn a_pop_exposes_the_next_packet_to_a_later_output_of_the_same_tick() {
        // Input 2 holds a packet for +x (output 1) and, behind it, one for
        // +y (output 3). On the tick output 1 takes the first packet's
        // tail, the pop uncovers the second packet's head — ready, and
        // bound for an output that has not had its turn yet. The live
        // probe served it that same cycle; so must the request vector.
        let mut channel = WormholeChannel::new(8);
        let mut inputs = inputs();
        let mut io = ChipIo::new();
        push_packet(&mut inputs[2], 0, 1, 0);
        push_packet(&mut inputs[2], 4, 0, 1);
        let served: Vec<Vec<(usize, bool)>> = (100..105)
            .map(|now| {
                let sent = tick(&mut channel, &mut inputs, now, &mut io);
                assert!(sent.iter().all(|(_, s)| s.input == 2));
                sent.iter().map(|(out, s)| (*out, s.head)).collect()
            })
            .collect();
        assert_eq!(served[0], [(1, true)]);
        assert_eq!(served[1], [(1, false)]);
        assert_eq!(served[3], [(1, false), (3, true)], "tail on +x, then the uncovered head on +y");
        assert_eq!(served[4], [(3, false)]);
        // The other way round the later packet's output has already had its
        // turn when the pop happens: the head waits one cycle.
        push_packet(&mut inputs[4], 200, 0, 1);
        push_packet(&mut inputs[4], 204, 1, 0);
        let served: Vec<usize> =
            (300..305).map(|now| tick(&mut channel, &mut inputs, now, &mut io).len()).collect();
        assert_eq!(served, [1, 1, 1, 1, 1], "output 1 was offered before output 3 popped");
    }

    #[test]
    fn round_robin_alternates_packets_between_two_requesting_inputs() {
        // Inputs 1 and 2 each hold two packets for the reception port: the
        // output stays bound to one input until its packet's tail, then the
        // round-robin pointer moves past it.
        let mut channel = WormholeChannel::new(8);
        let mut inputs = inputs();
        let mut io = ChipIo::new();
        for input in [1, 2] {
            push_packet(&mut inputs[input], 0, 0, 0);
            push_packet(&mut inputs[input], 4, 0, 0);
        }
        let order: Vec<usize> = (100..116)
            .flat_map(|now| tick(&mut channel, &mut inputs, now, &mut io))
            .map(|(out, sent)| {
                assert_eq!(out, 0);
                sent.input
            })
            .collect();
        assert_eq!(order, [1, 1, 1, 1, 2, 2, 2, 2, 1, 1, 1, 1, 2, 2, 2, 2]);
        assert_eq!(io.delivered_be.len(), 4);
        assert!(tick(&mut channel, &mut inputs, 116, &mut io).is_empty(), "drained: all idle");
    }

    #[test]
    fn reassembler_reports_a_torn_packet_as_malformed() {
        let mut rx = BeReassembler::default();
        assert!(rx.push(BeByte { byte: 0, head: true, tail: false, trace: None }).is_none());
        assert_eq!(rx.buffered(), 1);
        // The length bytes never arrive; the tail closes a 2-byte "packet".
        let torn = rx.push(BeByte { byte: 0, head: false, tail: true, trace: None });
        assert!(matches!(torn, Some(Err(PacketDecodeError::Truncated { .. }))));
        assert_eq!(rx.buffered(), 0, "the next packet starts clean");
    }
}
