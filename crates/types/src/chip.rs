//! The chip-to-network interface: what any router model exchanges with its
//! node and links each cycle.
//!
//! Defining this interface here (rather than in the simulator crate) lets the
//! real-time router, the baseline routers, and the mesh simulator all agree
//! on one contract without dependency cycles. A [`Chip`] is ticked on each
//! cycle it can act in with a fresh view of arriving symbols and credits and
//! fills in what it drives onto the links; injection queues and delivery
//! sinks persist across cycles.

use std::collections::VecDeque;

use crate::control::{ControlCommand, ControlError};
use crate::flit::LinkSymbol;
use crate::ids::PORT_COUNT;
use crate::packet::{BePacket, TcPacket};
use crate::time::Cycle;

/// Per-cycle I/O bundle between a router chip and its node/links.
///
/// Index convention follows [`crate::ids::Port::index`]: index 0 is the local
/// port (whose network fields are unused — injection and delivery go through
/// the dedicated queues), indices 1–4 are the four mesh directions.
#[derive(Debug, Default)]
pub struct ChipIo {
    /// Data symbol arriving on each input port this cycle (cleared by the
    /// simulator every cycle before delivery).
    pub rx: [Option<LinkSymbol>; PORT_COUNT],
    /// Best-effort credit bytes arriving for each *output* port this cycle
    /// (flit-buffer space freed downstream).
    pub credit_in: [u16; PORT_COUNT],
    /// Data symbol the chip drives on each output port this cycle (filled by
    /// the chip; the simulator moves it onto the link and clears it).
    pub tx: [Option<LinkSymbol>; PORT_COUNT],
    /// Best-effort credit bytes the chip returns upstream on each *input*
    /// port this cycle.
    pub credit_out: [u16; PORT_COUNT],
    /// Time-constrained injection queue, written by the node's traffic
    /// source; the chip drains it at injection-port bandwidth.
    pub inject_tc: VecDeque<TcPacket>,
    /// Best-effort injection queue, written by the node's traffic source.
    pub inject_be: VecDeque<BePacket>,
    /// Time-constrained packets delivered through the reception port, with
    /// the delivery cycle (appended by the chip; drained by the node).
    pub delivered_tc: Vec<(Cycle, TcPacket)>,
    /// Best-effort packets delivered through the reception port (appended by
    /// the chip; drained by the node).
    pub delivered_be: Vec<(Cycle, BePacket)>,
}

impl ChipIo {
    /// A fresh I/O bundle with empty queues.
    #[must_use]
    pub fn new() -> Self {
        ChipIo::default()
    }

    /// Clears the per-cycle fields (`rx`, `credit_in`); called by the
    /// simulator before delivering this cycle's link arrivals. `tx` and
    /// `credit_out` are cleared when collected.
    pub fn begin_cycle(&mut self) {
        self.rx = Default::default();
        self.credit_in = [0; PORT_COUNT];
    }

    /// Heap bytes held behind this bundle's queues (allocated capacity,
    /// not occupancy), for the simulator's memory-footprint accounting.
    /// Packet payloads boxed inside the queues are not followed.
    #[must_use]
    pub fn heap_bytes(&self) -> usize {
        self.inject_tc.capacity() * std::mem::size_of::<TcPacket>()
            + self.inject_be.capacity() * std::mem::size_of::<BePacket>()
            + self.delivered_tc.capacity() * std::mem::size_of::<(Cycle, TcPacket)>()
            + self.delivered_be.capacity() * std::mem::size_of::<(Cycle, BePacket)>()
    }
}

/// A point-in-time occupancy snapshot of a router chip, for telemetry
/// sampling.
///
/// All values are instantaneous gauges (not counters): the simulator samples
/// them every N cycles to build occupancy time series. Array fields follow
/// the [`crate::ids::Port::index`] convention.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct ChipGauges {
    /// Shared packet-memory slots currently holding a packet.
    pub memory_occupied: usize,
    /// Total shared packet-memory slots.
    pub memory_capacity: usize,
    /// Packets currently queued in the link scheduler (all outputs).
    pub sched_backlog: usize,
    /// Scheduled packets waiting for each output port (per-link queue depth).
    pub queue_depth: [usize; PORT_COUNT],
    /// Horizon register of each output port, in slots.
    pub horizon: [u32; PORT_COUNT],
    /// Best-effort flit-buffer bytes occupied on each input port.
    pub be_buffered: [usize; PORT_COUNT],
}

/// Wake-precision counters of a chip's [`Chip::next_event`] predictions.
///
/// `next_event` is allowed to be conservative — answering `now + 1` always
/// preserves correctness — but every short answer pins the event core to
/// ticking this chip on the next cycle. The share of short answers is how
/// much of a run a chip kept from being leaped. Both values are cumulative
/// counters since construction.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct WakeStats {
    /// Total `next_event` polls answered.
    pub polls: u64,
    /// Polls answered `now + 1` (no leap possible past this chip).
    pub short_polls: u64,
}

impl WakeStats {
    /// Accumulates another chip's counters into this one.
    pub fn merge(&mut self, other: &WakeStats) {
        self.polls += other.polls;
        self.short_polls += other.short_polls;
    }
}

/// A router chip model that can sit at a node of the mesh simulator.
///
/// The simulator calls [`Chip::tick`] at most once per cycle, in increasing
/// cycle order, after filling `io.rx`/`io.credit_in` with this cycle's link
/// arrivals. The chip reads those, updates internal state, fills
/// `io.tx`/`io.credit_out`, drains injection queues, and appends deliveries.
/// Every drive call ticks a chip only on the cycles it can act in — an
/// input reached it, or its own [`Chip::next_event`] came due — and reports
/// the cycles in between through [`Chip::skip_quiet`].
///
/// Within a cycle each chip touches only its own state and its own
/// [`ChipIo`]; cross-node effects travel only through the simulator's link
/// phases, so the order in which chips tick cannot change results.
pub trait Chip {
    /// Advances the chip by one cycle.
    fn tick(&mut self, now: Cycle, io: &mut ChipIo);

    /// How many best-effort flit-buffer bytes each of this chip's *input*
    /// ports provides. The simulator uses this to initialise the upstream
    /// neighbour's credit counters.
    fn flit_buffer_bytes(&self) -> usize;

    /// Sets the initial best-effort credit pool of an output port to the
    /// downstream neighbour's flit-buffer size. Called once by the simulator
    /// while wiring the network, before any traffic flows.
    fn set_output_credits(&mut self, port: crate::ids::Port, bytes: u32);

    /// Applies one Table 3 control write — the only way protocol software
    /// programs the chip (§4.1). A refusal leaves the chip unchanged. The
    /// default refuses every write with [`ControlError::Unsupported`]: a
    /// chip without a connection table has nothing to program.
    ///
    /// # Errors
    ///
    /// The chip's [`ControlError`] for a write it refuses.
    fn apply_control(&mut self, cmd: ControlCommand) -> Result<(), ControlError> {
        let _ = cmd;
        Err(ControlError::Unsupported)
    }

    /// Instantaneous occupancy gauges for telemetry sampling, if the chip
    /// exposes them. The default (`None`) opts the chip out of occupancy
    /// time series.
    fn gauges(&self) -> Option<ChipGauges> {
        None
    }

    /// The earliest cycle strictly after `now` at which this chip must be
    /// ticked again, assuming it last ticked at `now` and receives **no**
    /// further link arrivals, credits, or injections. `None` means the chip
    /// is fully drained and never needs another tick on its own.
    ///
    /// A time-constrained packet in flight is not a reason to tick every
    /// cycle: a chip drives only its head, the link emits and absorbs its
    /// continuation symbols (see `rtr_mesh::link`), and a reception ends with
    /// the last symbol's arrival. A chip pacing a packet itself — through an
    /// output, the reception port or an injection port — answers the cycle
    /// that pacing ends: the cycle an output frees, the delivery cycle, the
    /// cycle of the injection's last symbol.
    ///
    /// This is the contract every drive call trusts: the simulator skips
    /// every cycle in `(now, next_event)` without
    /// ticking the chip unless an input reaches it, and the chip's
    /// observable state (counters patched via [`Chip::skip_quiet`] aside)
    /// must be identical to having ticked through them. Conservative answers
    /// are always safe — the default `Some(now + 1)` ticks the chip on every
    /// cycle.
    ///
    /// The simulator may also poll a chip *before* its tick at `now`, in the
    /// state its last tick left it — at `now − 1`, at any earlier cycle the
    /// chip has slept since (the span not yet reported through
    /// [`Chip::skip_quiet`]), or none on a fresh build: the prime cycle of a
    /// freshly built event core does so for every chip no input reached. An
    /// answer of `now + 1` or earlier ticks the chip at `now`; a later one
    /// skips `now` too, up to the answer, and `None` skips it until an input
    /// arrives. So a chip with work due at `now` must not answer beyond
    /// `now + 1` — the default never does — and a chip that counts a wake
    /// from its own pacing counts it from the last cycle it accounted, not
    /// from `now`: polled later, it names the same cycle it named right
    /// after its last tick, or `now + 1` if that cycle has come.
    fn next_event(&self, now: Cycle) -> Option<Cycle> {
        Some(now + 1)
    }

    /// Informs the chip that the cycles `from..to` were provably quiet and
    /// were skipped rather than ticked. Implementations that keep per-cycle
    /// counters (e.g. idle-cycle statistics) account the skipped span here,
    /// and implementations with internal state that normally relaxes over
    /// quiet cycles (e.g. a grant pipeline draining) settle it to what
    /// ticking through the span would have computed by `to`, so every run
    /// reports statistics and behaviour identical to ticking every cycle. "Quiet" includes
    /// cycles a port spent carrying a packet's continuation symbols: the
    /// span advances that transmission (and counts its bytes) as the ticks
    /// would have, and a port busy through the span is not settled — a
    /// dense tick of a busy port never reads its scheduler. Its
    /// `next_event` answer keeps every span short of a cycle that must tick
    /// (a delivery, an injection's last symbol, a port freeing).
    ///
    /// This is called per chip — possibly with a different `from` for every
    /// chip — each time a chip that slept is about to be ticked again (or
    /// observed), in every drive mode, not only on whole-network leaps. The
    /// default does nothing.
    fn skip_quiet(&mut self, from: Cycle, to: Cycle) {
        let _ = (from, to);
    }

    /// Wake-precision telemetry for this chip's [`Chip::next_event`]
    /// answers, if it keeps any. The default (`None`) opts the chip out of
    /// the wake-precision report.
    fn wake_stats(&self) -> Option<WakeStats> {
        None
    }

    /// Contributes this chip's monotone counters to a metrics collection,
    /// one `(name, value)` call per counter. Names are stable, namespaced
    /// (e.g. `router.tc_arrived`, `sched.key_computations`), and identical
    /// across the chips of one network so the simulator can sum them into a
    /// unified [`MetricsRegistry`] snapshot. The default contributes
    /// nothing.
    ///
    /// Counters emitted here must be *drive-mode independent*: a run that
    /// ticks every chip on every cycle and a leaping run of the same
    /// scenario must report byte-identical totals (the metrics-equivalence suite enforces this),
    /// so per-poll or per-wake bookkeeping belongs in
    /// [`Chip::wake_stats`], not here.
    ///
    /// [`MetricsRegistry`]: https://docs.rs/rtr-metrics
    fn counters(&self, emit: &mut dyn FnMut(&'static str, u64)) {
        let _ = emit;
    }

    /// Estimated heap bytes owned by this chip beyond `size_of::<Self>()`
    /// — scheduler leaves, packet-memory slots, per-port buffers — for the
    /// simulator's bytes-per-node footprint guardrail. An estimate, not an
    /// audit: implementations count their dominant allocations (by
    /// capacity, matching what the allocator holds) and may ignore small
    /// fixed-size bookkeeping. The default reports none.
    fn heap_bytes_estimate(&self) -> usize {
        0
    }

    /// Checks the chip's internal conservation ledger (every packet
    /// accounted for exactly once), if it keeps one. Called by the
    /// simulator's `check_conservation`, which reports a violation with the
    /// node's index. The default has no ledger and always passes.
    ///
    /// # Errors
    ///
    /// Returns a description of the first violated invariant.
    fn check_conservation(&self) -> Result<(), String> {
        Ok(())
    }

    /// Aborts partially-received packets on every input port — the
    /// simulator calls this when the node restores from a crash, because
    /// the reassembly registers of a crashed node are undefined and the
    /// wire has lost arbitrary symbols in between. Completed packets and
    /// queued flits survive; only mid-arrival state is cleared. Beside it
    /// the simulator stops the feeding links absorbing the aborted
    /// packets, so their remaining continuation symbols arrive as orphans,
    /// one per cycle, for the chip to shed.
    ///
    /// Returns, per input port ([`crate::ids::Port::index`] convention),
    /// the number of best-effort bytes dropped whose upstream flow-control
    /// credits the simulator must refund through the feeding links. Chips
    /// without partial-arrival state (the default) drop nothing.
    fn abort_partial_rx(&mut self) -> [u8; PORT_COUNT] {
        [0; PORT_COUNT]
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::flit::BeByte;

    #[test]
    fn begin_cycle_clears_transient_fields_only() {
        let mut io = ChipIo::new();
        io.rx[1] = Some(LinkSymbol::Be(BeByte::body(1)));
        io.credit_in[2] = 3;
        io.inject_be.push_back(BePacket::new(0, 0, vec![], Default::default()));
        io.begin_cycle();
        assert!(io.rx.iter().all(Option::is_none));
        assert_eq!(io.credit_in, [0; PORT_COUNT]);
        assert_eq!(io.inject_be.len(), 1, "injection queues persist");
    }
}
