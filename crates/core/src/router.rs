//! The real-time router chip (paper Figure 2).
//!
//! Orchestrates the datapaths of both traffic classes:
//!
//! * **Time-constrained** packets are reassembled at the input ports,
//!   looked up in the connection table (which assigns the next hop's
//!   connection identifier and the local deadline `ℓ(m) + d`), stored in the
//!   shared packet memory via the idle-address FIFO, and scheduled on the
//!   output ports by the shared comparator tree.
//! * **Best-effort** bytes cut through: the input port makes the
//!   dimension-ordered decision from the header offsets and the output port
//!   forwards bytes whenever no on-time time-constrained packet claims the
//!   link and a downstream credit is available.
//!
//! Per-cycle link arbitration (§3.2): an in-flight time-constrained packet
//! finishes its bytes; otherwise an on-time selection starts; otherwise a
//! best-effort byte goes; otherwise an early selection within the horizon
//! goes; otherwise the link idles.

use std::mem::size_of;
use std::sync::{Arc, LazyLock};

use rtr_types::chip::{Chip, ChipIo, WakeStats};
use rtr_types::clock::{LogicalTime, SlotClock};
use rtr_types::config::RouterConfig;
use rtr_types::error::ConfigError;
use rtr_types::flit::LinkSymbol;
use rtr_types::ids::{Port, PORT_COUNT};
use rtr_types::packet::TcPacket;
use rtr_types::time::Cycle;

use crate::conn_table::ConnectionTable;
use crate::control::{ControlCommand, ControlError, ControlPort, ControlReg};
use crate::memory::PacketMemory;
use crate::ports::{output::PendingCut, PortTiming};
use crate::ports::{BeSent, InputPort, OutputPort, Serialiser, WakePolls, WormholeChannel};
use crate::sched::dispatch::Scheduler;
use crate::sched::leaf::Leaf;
use crate::stats::{RouterLedger, RouterStats};

#[cfg(feature = "metrics")]
use rtr_types::trace::{DropReason, QueueClass, SharedTraceSink, TraceEvent, TraceRecord};

/// Emits a trace event through the attached sink. With the `metrics` feature
/// disabled the invocation expands to nothing, so the event-building
/// expressions are never evaluated and the traced datapath costs zero.
#[cfg(feature = "metrics")]
macro_rules! trace_event {
    ($self:ident, $now:expr, $event:expr) => {
        if let Some(sink) = &$self.trace_sink {
            sink.lock().unwrap().record(&TraceRecord {
                cycle: $now,
                node: $self.trace_node,
                event: $event,
            });
        }
    };
}
#[cfg(not(feature = "metrics"))]
macro_rules! trace_event {
    ($self:ident, $now:expr, $event:expr) => {};
}

/// The single-chip real-time router.
///
/// Inline is what a router needs before it ever carries a packet: its
/// configuration and clock, the control port with the connection table and
/// the horizon registers it writes, the initial best-effort credits, the
/// count of cycles it was alive and the wake-poll counters — 144 bytes.
/// Everything a packet moves through, and the statistics ledger that
/// counts it, is one boxed [`Datapath`] that the router's first
/// [`Chip::tick`] builds, so a router no traffic reaches never holds one
/// (DESIGN.md §3.16). Everywhere but `tick` a router without a datapath
/// reads as empty: its ledger all zero, every alive cycle idle.
#[derive(Debug)]
pub struct RealTimeRouter {
    regs: Registers,
    control: ControlPort,
    /// The best-effort credit pool each output starts with, as
    /// `set_output_credits` records it before the datapath exists.
    initial_credits: [u32; PORT_COUNT],
    wake: WakePolls,
    /// The ports, scheduler and packet memory; `None` until the first tick.
    datapath: Option<Box<Datapath>>,
}

/// What a tick reads and writes beside the datapath: the configuration and
/// clock, the connection table and horizon registers the control port
/// writes, and the count of cycles accounted alive. The tick's helpers are
/// its methods, handed the datapath they borrow beside it.
#[derive(Debug)]
struct Registers {
    /// The architectural parameters, shared (read-only) with the template
    /// and every sibling router of the mesh — stamping out a router costs
    /// one `Arc` bump instead of a config clone.
    config: Arc<RouterConfig>,
    clock: SlotClock,
    /// Bounded clock skew in slots, added to the local scheduler clock
    /// (§4.1: routers share a notion of time within bounded skew).
    skew_slots: u64,
    /// The connection table; its teardown tombstones make a packet
    /// arriving for a cleared connection an accounted teardown abort
    /// (`tc_aborted_teardown`), not a `no_conn` routing error.
    table: ConnectionTable,
    /// Horizon register `h` of each output port, in slots (Table 3).
    horizons: [u32; PORT_COUNT],
    /// Cycles the router has accounted alive: one per tick, a span's length
    /// per `skip_quiet`, none while crashed. Each such cycle adds one to
    /// exactly one of an output's `tc_bytes`, `be_bytes` or idle count, so
    /// the idle counts are derived from it rather than stored.
    alive: Cycle,
    /// Event sink for cycle-accurate tracing (None = tracing off).
    #[cfg(feature = "metrics")]
    trace_sink: Option<SharedTraceSink>,
    /// Node identity stamped on emitted trace records.
    #[cfg(feature = "metrics")]
    trace_node: rtr_types::ids::NodeId,
}

/// What a packet moves through (paper Figure 2): the five input and output
/// ports, the best-effort wormhole channel, the comparator tree, the shared
/// packet memory and the injection serialiser — and the statistics ledger
/// that counts what moved. A [`RealTimeRouter`] builds its datapath on its
/// first tick; a fresh one is the state of a router that has never ticked.
#[derive(Debug)]
pub struct Datapath {
    stats: RouterStats,
    memory: PacketMemory,
    sched: Scheduler,
    /// The input ports' shared latencies and flit buffer.
    timing: PortTiming,
    inputs: [InputPort; PORT_COUNT],
    outputs: [OutputPort; PORT_COUNT],
    /// Bit `i` (`Port::mask`): whether output `i`'s grant pipeline last
    /// observed a candidate. Written only by a selection recompute and by
    /// `skip_quiet`; one byte so an idle router's `skip_quiet` compares all
    /// five outputs with the scheduler's backlog mask at once.
    had_candidate: u8,
    /// The best-effort virtual channel across all five ports.
    be: WormholeChannel,
    /// Pacing of the time-constrained injection port.
    tc_inject: Serialiser,
    /// The first cycle the datapath has not accounted: one past its last
    /// tick, or the end of the last span `skip_quiet` accounted. Serialiser
    /// wakes count from it, so a poll before a tick (the event core's
    /// prime) answers as exactly as one after.
    next_cycle: Cycle,
}

impl Datapath {
    /// The empty datapath of a router with `config` and `clock` whose
    /// network outputs start with `credits` best-effort credits — what a
    /// router's first tick builds, so kept out of the tick's body.
    #[cold]
    #[inline(never)]
    fn boxed(config: &RouterConfig, clock: SlotClock, credits: [u32; PORT_COUNT]) -> Box<Self> {
        let timing = PortTiming::from_config(config);
        let mut be = WormholeChannel::new(timing.flit_capacity);
        for port in Port::ALL {
            be.set_credits(port, credits[port.index()]);
        }
        Box::new(Datapath {
            stats: RouterStats::default(),
            memory: PacketMemory::new(config.packet_slots),
            sched: Scheduler::new(config.scheduler, config.packet_slots, clock, config.late_policy),
            timing,
            inputs: Default::default(),
            outputs: Default::default(),
            had_candidate: 0,
            be,
            tc_inject: Serialiser::default(),
            next_cycle: 0,
        })
    }

    /// Debug builds re-derive the per-port backlog the wake logic reads
    /// from a count over the buffered leaves.
    fn dbg_check_backlog(&self) {
        debug_assert!(
            Port::ALL.iter().all(|&port| {
                let counted = self.sched.iter().filter(|(_, leaf)| leaf.eligible_for(port)).count();
                self.sched.backlog_for(port) == counted
            }),
            "per-port backlog counters are not the buffered leaves'"
        );
    }

    /// Heap bytes behind the datapath: the ledger's per-connection counters,
    /// the packet memory, the scheduler's leaves and the per-port queues and
    /// staging buffers.
    fn heap_bytes(&self) -> usize {
        self.stats.heap_bytes()
            + self.memory.heap_bytes()
            + self.sched.heap_bytes()
            + self.inputs.iter().map(InputPort::heap_bytes).sum::<usize>()
            + self.be.heap_bytes()
    }
}

/// A validated construction template for stamping out identical routers.
///
/// Building a mesh means constructing thousands of routers from one
/// [`RouterConfig`]. The template validates the configuration once and
/// pre-builds the shared read-only state — the configuration and the slot
/// clock — so [`RouterTemplate::build`] writes only the registers of each
/// router. Its datapath with its ledger, the connection table's rows, the
/// packet memory and the scheduler all allocate by use, which is what makes
/// 128×128 builds cheap.
#[derive(Debug, Clone)]
pub struct RouterTemplate {
    config: Arc<RouterConfig>,
    clock: SlotClock,
}

impl RouterTemplate {
    /// Validates `config` and prepares the shared pieces.
    ///
    /// # Errors
    ///
    /// Returns the configuration's validation error, if any.
    pub fn new(config: RouterConfig) -> Result<Self, ConfigError> {
        config.validate()?;
        let clock = SlotClock::new(config.clock_bits);
        Ok(RouterTemplate { clock, config: Arc::new(config) })
    }

    /// The validated configuration.
    #[must_use]
    pub fn config(&self) -> &RouterConfig {
        &self.config
    }

    /// Stamps out one router: its registers, with an empty connection table
    /// and no datapath, so it holds no heap until it installs its first
    /// connection or ticks for the first time.
    #[must_use]
    pub fn build(&self) -> RealTimeRouter {
        let config = Arc::clone(&self.config);
        let clock = self.clock;
        let flit_capacity = PortTiming::from_config(&config).flit_capacity;
        RealTimeRouter {
            regs: Registers {
                clock,
                skew_slots: 0,
                table: ConnectionTable::new(config.connections),
                horizons: [0; PORT_COUNT],
                alive: 0,
                #[cfg(feature = "metrics")]
                trace_sink: None,
                #[cfg(feature = "metrics")]
                trace_node: rtr_types::ids::NodeId(0),
                config,
            },
            control: ControlPort::new(clock),
            initial_credits: [flit_capacity; PORT_COUNT],
            wake: WakePolls::default(),
            datapath: None,
        }
    }
}

impl RealTimeRouter {
    /// Builds a router from its architectural parameters. Meshes should
    /// build a [`RouterTemplate`] once and call [`RouterTemplate::build`]
    /// per node instead of re-validating per router.
    ///
    /// # Errors
    ///
    /// Returns the configuration's validation error, if any.
    pub fn new(config: RouterConfig) -> Result<Self, ConfigError> {
        Ok(RouterTemplate::new(config)?.build())
    }

    /// The router's architectural parameters.
    #[must_use]
    pub fn config(&self) -> &RouterConfig {
        &self.regs.config
    }

    /// The scheduler clock.
    #[must_use]
    pub fn clock(&self) -> SlotClock {
        self.regs.clock
    }

    /// Statistics counters. A router that never ticked has counted
    /// nothing: its counters are one shared all-zero ledger, and every
    /// cycle it was alive was idle.
    #[must_use]
    pub fn stats(&self) -> RouterLedger<'_> {
        static EMPTY: LazyLock<RouterStats> = LazyLock::new(RouterStats::default);
        RouterLedger::new(self.datapath.as_ref().map_or(&EMPTY, |dp| &dp.stats), self.regs.alive)
    }

    /// Idle cycles per output port: the cycles the router was alive (ticked
    /// or skipped as quiet, never crashed) and the port carried neither
    /// class. Derived, not stored: `alive − tc_bytes − be_bytes`.
    #[must_use]
    pub fn idle_cycles(&self) -> [u64; PORT_COUNT] {
        self.stats().idle_cycles()
    }

    /// Mutable statistics counters, for fault injection: tests corrupt a
    /// counter to force a conservation violation. Not for datapath use —
    /// the router maintains its own ledger.
    ///
    /// # Panics
    ///
    /// Panics if the router never ticked: it holds no ledger to corrupt.
    #[doc(hidden)]
    pub fn stats_mut(&mut self) -> &mut RouterStats {
        &mut self.datapath.as_mut().expect("a router that never ticked holds no ledger").stats
    }

    /// Checks the packet-conservation invariants (see
    /// [`RouterStats::check_conservation`]) against the live memory
    /// occupancy. Call between cycles.
    ///
    /// # Errors
    ///
    /// Returns a description of the first violated invariant.
    pub fn check_conservation(&self) -> Result<(), String> {
        self.stats().check_conservation(self.memory_occupied())
    }

    /// Attaches a trace sink and sets the node identity stamped on emitted
    /// records. Only available with the `metrics` feature.
    #[cfg(feature = "metrics")]
    pub fn set_trace_sink(&mut self, node: rtr_types::ids::NodeId, sink: SharedTraceSink) {
        self.regs.trace_node = node;
        self.regs.trace_sink = Some(sink);
    }

    /// Current packet-memory occupancy (buffered time-constrained packets).
    #[must_use]
    pub fn memory_occupied(&self) -> usize {
        self.datapath.as_ref().map_or(0, |dp| dp.memory.occupied())
    }

    /// Peak packet-memory occupancy observed so far.
    #[must_use]
    pub fn memory_high_water(&self) -> usize {
        self.datapath.as_ref().map_or(0, |dp| dp.memory.high_water())
    }

    /// Sets this router's bounded clock skew in slots (must stay well below
    /// half the clock range for the §4.3 windows to hold).
    pub fn set_clock_skew(&mut self, slots: u64) {
        self.regs.skew_slots = slots;
    }

    /// The horizon register of an output port.
    #[must_use]
    pub fn horizon(&self, port: Port) -> u32 {
        self.regs.horizons[port.index()]
    }

    /// Performs one word-level control-register write (the Table 3 pin
    /// protocol).
    ///
    /// # Errors
    ///
    /// See [`ControlError`].
    pub fn control_write(
        &mut self,
        reg: ControlReg,
        value: u16,
    ) -> Result<Option<ControlCommand>, ControlError> {
        self.control.write(reg, value, &mut self.regs.table, &mut self.regs.horizons)
    }

    /// Read access to the connection table (diagnostics, tests).
    #[must_use]
    pub fn connection_table(&self) -> &ConnectionTable {
        &self.regs.table
    }

    /// The local scheduler time at `now`, including this router's skew.
    #[must_use]
    pub fn scheduler_time(&self, now: Cycle) -> LogicalTime {
        self.regs.scheduler_time(now)
    }
}

impl Registers {
    fn scheduler_time(&self, now: Cycle) -> LogicalTime {
        self.clock.wrap(now / self.config.slot_bytes as u64 + self.skew_slots)
    }

    fn ingest_network_symbols(&mut self, dp: &mut Datapath, now: Cycle, io: &mut ChipIo) {
        for idx in 1..PORT_COUNT {
            if let Some(symbol) = io.rx[idx].take() {
                match symbol {
                    LinkSymbol::TcStart(packet) => self.ingest_tc_start(dp, now, idx, packet),
                    LinkSymbol::TcCont { index } => {
                        if !dp.inputs[idx].push_tc_cont(now, index, dp.timing) {
                            // Orphan of a packet whose head a fault destroyed.
                            dp.stats.tc_orphan_symbols += 1;
                        }
                    }
                    LinkSymbol::Be(byte) => {
                        let (input, timing) = (&mut dp.inputs[idx], dp.timing);
                        let outcome = input.accept_be(now, byte, &mut io.credit_out[idx], timing);
                        dp.stats.be_dropped_faulty += u64::from(outcome.dropped);
                        if outcome.truncated {
                            dp.stats.be_truncated += 1;
                        }
                    }
                }
            }
        }
    }

    /// Handles the first symbol of an arriving time-constrained packet:
    /// either sets up a virtual cut-through (§7 extension, when enabled and
    /// the packet would win the output immediately) or begins the normal
    /// store-and-forward reception.
    fn ingest_tc_start(
        &mut self,
        dp: &mut Datapath,
        now: Cycle,
        in_idx: usize,
        packet: Box<TcPacket>,
    ) {
        if self.config.tc_cut_through {
            if let Some(entry) = self.table.lookup(packet.conn) {
                if entry.out_mask.count_ones() == 1 {
                    let out_port = rtr_types::ids::ports_in_mask(entry.out_mask)
                        .next()
                        .expect("mask has one bit");
                    let out_idx = out_port.index();
                    let t = self.scheduler_time(now);
                    let l = packet.arrival;
                    // Cut through when the output is free, no buffered
                    // packet has a smaller sorting key (the paper's
                    // condition), and the packet is transmittable now:
                    // on-time, or early within the horizon with no
                    // best-effort flit awaiting service (§3.2 ordering).
                    let on_time = !self.clock.is_early(l, t);
                    let transmittable = on_time
                        || (self.clock.until(l, t) <= self.horizons[out_idx]
                            && !dp.be.waiting(&dp.inputs, out_idx, now));
                    if transmittable
                        && !dp.outputs[out_idx].tc_tx.busy()
                        && dp.outputs[out_idx].pending_cut.is_none()
                    {
                        let key = rtr_types::key::SortKey::compute(
                            &self.clock,
                            l,
                            entry.delay,
                            t,
                            self.config.late_policy,
                        );
                        let wins =
                            dp.sched.select(out_port, t).is_none_or(|buffered| key < buffered.key);
                        if wins {
                            let t_config = &self.config.timing;
                            let cut_latency = t_config.sync_cycles
                                + t_config.header_cycles
                                + t_config.bus_grant_cycles;
                            let last = packet.last_index();
                            trace_event!(
                                self,
                                now,
                                TraceEvent::TcArrive {
                                    conn: packet.conn,
                                    port: in_idx as u8,
                                    src: packet.trace.source,
                                    seq: packet.trace.sequence,
                                }
                            );
                            trace_event!(
                                self,
                                now,
                                TraceEvent::TcCutThrough {
                                    conn: entry.outgoing,
                                    port: out_idx as u8,
                                    src: packet.trace.source,
                                    seq: packet.trace.sequence,
                                }
                            );
                            let rewritten = TcPacket {
                                conn: entry.outgoing,
                                arrival: self.clock.add(l, entry.delay),
                                ..*packet
                            };
                            dp.outputs[out_idx].pending_cut = Some(Box::new(PendingCut {
                                packet: rewritten,
                                start_at: now + cut_latency,
                                early: !on_time,
                            }));
                            if dp.inputs[in_idx].push_tc_start_cut(last) {
                                dp.stats.tc_truncated += 1;
                            }
                            dp.stats.tc_arrived += 1;
                            dp.stats.tc_cut_through += 1;
                            if !on_time {
                                dp.stats.tc_early_transmitted[out_idx] += 1;
                            }
                            return;
                        }
                    }
                }
            }
        }
        if dp.inputs[in_idx].push_tc_start(now, packet, dp.timing) {
            dp.stats.tc_truncated += 1;
        }
    }

    fn run_injectors(&mut self, dp: &mut Datapath, now: Cycle, io: &mut ChipIo) {
        // Time-constrained injection port: one byte per cycle.
        if let Some(index) = dp.tc_inject.step() {
            let fed = dp.inputs[0].push_tc_cont(now, index, dp.timing);
            debug_assert!(fed, "injection continuations always follow their start");
        } else if let Some(packet) = io.inject_tc.pop_front() {
            if packet.payload.len() != self.config.tc_data_bytes() {
                dp.stats.tc_malformed += 1;
                trace_event!(
                    self,
                    now,
                    TraceEvent::TcDrop {
                        conn: packet.conn,
                        reason: DropReason::Malformed,
                        src: packet.trace.source,
                        seq: packet.trace.sequence,
                    }
                );
            } else {
                dp.stats.tc_injected += 1;
                trace_event!(
                    self,
                    now,
                    TraceEvent::TcInject {
                        conn: packet.conn,
                        src: packet.trace.source,
                        seq: packet.trace.sequence,
                    }
                );
                dp.tc_inject.begin(packet.wire_len());
                // Boxed once here; every later hop passes the box on.
                self.ingest_tc_start(dp, now, 0, Box::new(packet));
            }
        }

        dp.be.inject(now, &mut dp.inputs[0], &mut io.inject_be, dp.timing);
    }

    fn process_tc_arrivals(&mut self, dp: &mut Datapath, now: Cycle) {
        for idx in 0..PORT_COUNT {
            let Some(packet) = dp.inputs[idx].take_ready_tc(now) else {
                continue;
            };
            dp.stats.tc_arrived += 1;
            trace_event!(
                self,
                now,
                TraceEvent::TcArrive {
                    conn: packet.conn,
                    port: idx as u8,
                    src: packet.trace.source,
                    seq: packet.trace.sequence,
                }
            );
            let Some(entry) = self.table.lookup(packet.conn) else {
                if self.table.is_torn_down(packet.conn) {
                    // The connection was torn down while this packet was
                    // in flight: an accounted abort, not a routing error.
                    dp.stats.tc_aborted_teardown += 1;
                    trace_event!(
                        self,
                        now,
                        TraceEvent::TcDrop {
                            conn: packet.conn,
                            reason: DropReason::TornDown,
                            src: packet.trace.source,
                            seq: packet.trace.sequence,
                        }
                    );
                } else {
                    dp.stats.tc_dropped_no_conn += 1;
                    trace_event!(
                        self,
                        now,
                        TraceEvent::TcDrop {
                            conn: packet.conn,
                            reason: DropReason::NoConnection,
                            src: packet.trace.source,
                            seq: packet.trace.sequence,
                        }
                    );
                }
                continue;
            };
            let l = packet.arrival;
            let rewritten = TcPacket {
                conn: entry.outgoing,
                arrival: self.clock.add(l, entry.delay),
                ..*packet
            };
            let addr = match dp.memory.store(rewritten) {
                Ok(addr) => addr,
                Err(_dropped) => {
                    dp.stats.tc_dropped_no_buffer += 1;
                    trace_event!(
                        self,
                        now,
                        TraceEvent::TcDrop {
                            conn: _dropped.conn,
                            reason: DropReason::NoBuffer,
                            src: _dropped.trace.source,
                            seq: _dropped.trace.sequence,
                        }
                    );
                    continue;
                }
            };
            trace_event!(
                self,
                now,
                TraceEvent::SlotAlloc {
                    conn: entry.outgoing,
                    slot: addr.0,
                    src: packet.trace.source,
                    seq: packet.trace.sequence,
                }
            );
            let leaf = Leaf { l, delay: entry.delay, port_mask: entry.out_mask, addr };
            if dp.sched.insert(leaf).is_err() {
                // Unreachable: leaves and memory slots are allocated 1:1.
                dp.memory.free(addr);
                dp.stats.tc_dropped_no_buffer += 1;
                trace_event!(self, now, TraceEvent::SlotFree { slot: addr.0 });
                trace_event!(
                    self,
                    now,
                    TraceEvent::TcDrop {
                        conn: entry.outgoing,
                        reason: DropReason::NoBuffer,
                        src: packet.trace.source,
                        seq: packet.trace.sequence,
                    }
                );
            } else {
                dp.stats.tc_buffered += 1;
            }
        }
    }

    /// Arbitrates one output for cycle `now`; `t` is the tick's scheduler
    /// time, computed once for all five outputs.
    fn drive_output(
        &mut self,
        dp: &mut Datapath,
        now: Cycle,
        t: LogicalTime,
        out_idx: usize,
        io: &mut ChipIo,
    ) {
        let port = Port::from_index(out_idx);

        // 1. An in-flight time-constrained packet finishes its bytes (on a
        //    network output the link emits them).
        if dp.outputs[out_idx].tc_tx.busy() {
            dp.stats.tc_bytes[out_idx] += 1;
            if dp.outputs[out_idx].tc_tx.advance(now, io) {
                self.note_tc_delivered(dp, now, io);
            }
            return;
        }

        // 1b. A virtual cut-through owns this output: start streaming once
        //     the header-processing latency elapses (until then best-effort
        //     bytes may still fill the gap below; buffered starts hold off).
        if let Some(pending) = &dp.outputs[out_idx].pending_cut {
            if pending.start_at <= now {
                let pending = dp.outputs[out_idx].pending_cut.take().expect("checked");
                self.transmit_tc(dp, now, out_idx, pending.packet, pending.early, io);
            } else {
                self.send_be(dp, now, out_idx, io);
            }
            return;
        }

        // 2. Consult the (pipelined) comparator tree.
        let sched = &dp.sched;
        let sched_latency = self.config.effective_sched_latency();
        let (selection, usable) = dp.outputs[out_idx].selection_with_grant(
            now,
            (sched.version(), t.raw()),
            sched_latency,
            &mut dp.had_candidate,
            port.mask(),
            || sched.select(port, t),
        );
        let granted = usable.then_some(selection).flatten();

        // On-time packets preempt best-effort traffic at a byte boundary.
        if let Some(sel) = granted {
            if sel.key.is_on_time(&self.clock) {
                self.start_tc(dp, now, out_idx, sel, false, io);
                return;
            }
        }

        // 3. Best-effort flits consume excess bandwidth, ahead of early
        //    time-constrained packets.
        if self.send_be(dp, now, out_idx, io) {
            return;
        }

        // 4. Early time-constrained packets within the horizon fill
        //    otherwise-idle cycles.
        if let Some(sel) = granted {
            if sel.key.is_early(&self.clock)
                && sel.key.time_field(&self.clock) <= self.horizons[out_idx]
            {
                self.start_tc(dp, now, out_idx, sel, true, io);
            }
        }
        // Otherwise the output idles: counted by `alive`, not stored.
    }

    /// Gives this cycle on `out_idx` to the best-effort channel and accounts
    /// what it did; returns whether a byte went.
    #[inline]
    fn send_be(&mut self, dp: &mut Datapath, now: Cycle, out_idx: usize, io: &mut ChipIo) -> bool {
        let Some(BeSent { input: _input, head, delivered }) =
            dp.be.send(now, &mut dp.inputs, out_idx, io)
        else {
            return false;
        };
        if head {
            trace_event!(
                self,
                now,
                TraceEvent::BeSelect { port: out_idx as u8, input: _input as u8 }
            );
        }
        dp.stats.be_bytes[out_idx] += 1;
        match delivered {
            Some(Ok(_trace)) => {
                dp.stats.be_delivered += 1;
                trace_event!(
                    self,
                    now,
                    TraceEvent::BeDeliver { src: _trace.source, seq: _trace.sequence }
                );
            }
            Some(Err(_)) => dp.stats.be_malformed += 1,
            None => {}
        }
        true
    }

    /// Commits the scheduler's selection for `out_idx` and starts clocking
    /// the packet out.
    fn start_tc(
        &mut self,
        dp: &mut Datapath,
        now: Cycle,
        out_idx: usize,
        sel: crate::sched::tree::Selection,
        early: bool,
        io: &mut ChipIo,
    ) {
        let port = Port::from_index(out_idx);
        let packet =
            dp.memory.peek(sel.addr).expect("selected leaf points at an idle memory slot").clone();
        trace_event!(
            self,
            now,
            TraceEvent::SchedSelect {
                conn: packet.conn,
                port: out_idx as u8,
                class: if early { QueueClass::EarlyWithinHorizon } else { QueueClass::OnTimeEdf },
                src: packet.trace.source,
                seq: packet.trace.sequence,
            }
        );
        if let Some(freed) = dp.sched.commit(sel.leaf, port) {
            dp.memory.free(freed);
            dp.stats.tc_retired += 1;
            trace_event!(self, now, TraceEvent::SlotFree { slot: freed.0 });
        }
        if early {
            dp.stats.tc_early_transmitted[out_idx] += 1;
        }
        if sel.key.is_aliased() {
            dp.stats.aliased_keys += 1;
        }
        self.transmit_tc(dp, now, out_idx, packet, early, io);
    }

    /// Puts a packet's start symbol on `out_idx` — a committed selection or
    /// a virtual cut-through whose header latency has elapsed.
    fn transmit_tc(
        &mut self,
        dp: &mut Datapath,
        now: Cycle,
        out_idx: usize,
        packet: TcPacket,
        _early: bool,
        io: &mut ChipIo,
    ) {
        dp.stats.tc_transmitted[out_idx] += 1;
        dp.stats.tc_bytes[out_idx] += 1;
        *dp.stats.tc_bytes_by_conn.entry((out_idx, packet.conn)).or_insert(0) +=
            packet.wire_len() as u64;
        trace_event!(
            self,
            now,
            TraceEvent::TcTransmit {
                conn: packet.conn,
                port: out_idx as u8,
                early: _early,
                slack: i64::from(self.clock.signed_diff(packet.arrival, self.scheduler_time(now))),
                src: packet.trace.source,
                seq: packet.trace.sequence,
            }
        );
        if dp.outputs[out_idx].tc_tx.start(now, out_idx, packet, io) {
            self.note_tc_delivered(dp, now, io);
        }
    }

    /// Accounts the packet the serialiser just pushed onto `io.delivered_tc`.
    fn note_tc_delivered(&mut self, dp: &mut Datapath, _now: Cycle, _io: &ChipIo) {
        dp.stats.tc_delivered += 1;
        trace_event!(self, _now, {
            let (_, packet) = _io.delivered_tc.last().expect("just delivered");
            TraceEvent::TcDeliver {
                conn: packet.conn,
                slack: i64::from(self.clock.signed_diff(packet.arrival, self.scheduler_time(_now))),
                src: packet.trace.source,
                seq: packet.trace.sequence,
            }
        });
    }
}

impl Chip for RealTimeRouter {
    fn tick(&mut self, now: Cycle, io: &mut ChipIo) {
        // The first tick builds the datapath; the tick body borrows it
        // beside the registers.
        let regs = &mut self.regs;
        let dp = self
            .datapath
            .get_or_insert_with(|| Datapath::boxed(&regs.config, regs.clock, self.initial_credits));
        regs.alive += 1;
        // Credits freed downstream arrive first so this cycle can use them.
        dp.be.ingest_credits(&io.credit_in);
        regs.ingest_network_symbols(dp, now, io);
        regs.run_injectors(dp, now, io);
        dp.be.collect_requests(&dp.inputs, now);
        regs.process_tc_arrivals(dp, now);
        let t = regs.scheduler_time(now);
        for out_idx in 0..PORT_COUNT {
            regs.drive_output(dp, now, t, out_idx, io);
        }
        dp.next_cycle = now + 1;
    }

    fn flit_buffer_bytes(&self) -> usize {
        self.regs.config.be_path_bytes()
    }

    fn set_output_credits(&mut self, port: Port, bytes: u32) {
        match &mut self.datapath {
            Some(dp) => dp.be.set_credits(port, bytes),
            None => self.initial_credits[port.index()] = bytes,
        }
    }

    /// Writes the connection table or horizon registers; never builds the
    /// datapath.
    fn apply_control(&mut self, cmd: ControlCommand) -> Result<(), ControlError> {
        self.control.apply(cmd, &mut self.regs.table, &mut self.regs.horizons)
    }

    fn gauges(&self) -> Option<rtr_types::chip::ChipGauges> {
        let mut g = rtr_types::chip::ChipGauges {
            memory_capacity: self.regs.config.packet_slots,
            horizon: self.regs.horizons,
            ..Default::default()
        };
        if let Some(dp) = &self.datapath {
            g.memory_occupied = dp.memory.occupied();
            g.sched_backlog = dp.sched.len();
            for i in 0..PORT_COUNT {
                g.queue_depth[i] = dp.sched.backlog_for(Port::from_index(i));
                g.be_buffered[i] = dp.inputs[i].be_occupancy();
            }
        }
        Some(g)
    }

    fn next_event(&self, now: Cycle) -> Option<Cycle> {
        // A router that never ticked holds nothing that could wake it.
        let Some(dp) = self.datapath.as_deref() else {
            return self.wake.answer(now, None);
        };
        let mut earliest = dp.be.next_event(&dp.inputs, now);
        if earliest.is_some_and(|at| at <= now) {
            return self.wake.short(now);
        }
        let mut merge = |at: Cycle| {
            let at = at.max(now + 1);
            earliest = Some(earliest.map_or(at, |e: Cycle| e.min(at)));
        };

        // A packet crossing a port at a symbol per cycle needs no tick in
        // between (its link emits and absorbs the symbols): the injection
        // port wakes on its last symbol, which completes input 0's
        // reception, the reception port on the delivery, a network output
        // on the cycle it frees. A reception wakes on its last symbol's
        // arrival, like any arrival.
        let next = dp.next_cycle;
        let free_at = |port: usize| dp.outputs[port].tc_tx.last_at(next).map(|last| last + 1);
        if let Some(last) = dp.tc_inject.last_at(next) {
            merge(last);
        }
        for (idx, out) in dp.outputs.iter().enumerate() {
            if let Some(last) = out.tc_tx.last_at(next) {
                merge(if idx == 0 { last } else { last + 1 });
            }
            if let Some(pending) = &out.pending_cut {
                merge(pending.start_at);
            }
        }

        // A port whose candidate set changed since its last selection needs
        // no tick to notice: `skip_quiet` settles the grant pipeline over a
        // skipped span (`OutputPort::settle_pipeline`).
        dp.dbg_check_backlog();
        for input in &dp.inputs {
            if let Some(ready) = input.next_tc_ready() {
                merge(ready);
            }
        }

        // Buffered time-constrained packets wake the chip when they become
        // transmittable: on-time (or late) packets resolve through the EDF
        // grant pipeline by stepping; early packets sleep until they enter a
        // subscribed output's horizon window. Either waits for a busy output
        // to free — a busy port never reads the tree.
        let t = self.scheduler_time(now);
        let slot_bytes = self.regs.config.slot_bytes as u64;
        for (_, leaf) in dp.sched.iter() {
            let on_time = !self.regs.clock.is_early(leaf.l, t);
            for port in rtr_types::ids::ports_in_mask(leaf.port_mask) {
                let delta = if on_time {
                    0
                } else {
                    let horizon = self.regs.horizons[port.index()];
                    u64::from(self.regs.clock.until(leaf.l, t)).saturating_sub(u64::from(horizon))
                };
                // The scheduler slot advances exactly when `now` crosses a
                // multiple of `slot_bytes`, so the packet enters the horizon
                // at the cycle beginning slot `now / slot_bytes + delta`.
                let ready =
                    if delta == 0 { now + 1 } else { (now / slot_bytes + delta) * slot_bytes };
                let mut at = free_at(port.index()).map_or(ready, |free| free.max(ready));
                // A pipeline that has seen its candidate grants nothing
                // before it has refilled.
                if dp.had_candidate & port.mask() != 0 {
                    at = at.max(dp.outputs[port.index()].grant_ready_at());
                }
                if at <= now + 1 {
                    return self.wake.short(now);
                }
                merge(at);
            }
        }

        self.wake.answer(now, earliest)
    }

    fn skip_quiet(&mut self, from: Cycle, to: Cycle) {
        // A quiescent cycle ends with each output either carrying its
        // packet's next symbol or taking an idle path in `drive_output`.
        // The idle ones are counted by `alive`; a router that never ticked
        // has nothing else to account.
        let skipped = to - from;
        self.regs.alive += skipped;
        let Some(dp) = self.datapath.as_deref_mut() else {
            return;
        };
        debug_assert_eq!(from, dp.next_cycle, "a skipped span must start where the last ended");
        dp.next_cycle = to;
        let mut busy_ports = 0;
        for (idx, out) in dp.outputs.iter_mut().enumerate() {
            let busy = out.tc_tx.skip(skipped);
            dp.stats.tc_bytes[idx] += busy;
            if busy > 0 {
                busy_ports |= Port::from_index(idx).mask();
                // `next_event` wakes a network output as it frees and the
                // reception port on its delivery.
                debug_assert!(busy == skipped, "output {idx} freed inside a quiet span");
                debug_assert!(idx != 0 || out.tc_tx.busy(), "a delivery skipped");
            }
        }
        let fed = dp.tc_inject.skip(skipped);
        debug_assert!(fed == 0 || dp.tc_inject.busy(), "an injection's last symbol skipped");
        // Settle stale grant pipelines: a port whose `had_candidate` bit
        // disagrees with the scheduler's live backlog records, at the
        // span's first cycle, the transition the first dense tick of the
        // span would have recorded on its selection recompute. Nothing can
        // transmit inside a provably quiet span (on-time backlog on a free
        // port forces per-cycle ticks via `next_event`'s short answers), so
        // the transition is all that recompute would have done. A port busy
        // through the span never reads the tree in a dense tick (it returns
        // at step 1 of `drive_output`), so it is left for its first tick.
        // An idle router usually has nothing to settle: one compare says so,
        // and one that never ticked has no pipeline at all.
        dp.dbg_check_backlog();
        let backlog = dp.sched.backlog_mask();
        let stale = (dp.had_candidate ^ backlog) & !busy_ports;
        if stale == 0 {
            return;
        }
        let latency = self.regs.config.effective_sched_latency();
        for (idx, out) in dp.outputs.iter_mut().enumerate() {
            let bit = Port::from_index(idx).mask();
            if stale & bit != 0 {
                out.settle_pipeline(from, &mut dp.had_candidate, backlog, bit, latency);
            }
        }
    }

    fn wake_stats(&self) -> Option<WakeStats> {
        Some(self.wake.snapshot())
    }

    fn counters(&self, emit: &mut dyn FnMut(&'static str, u64)) {
        self.stats().emit_counters(emit);
        let keys = self.datapath.as_ref().map_or(0, |dp| dp.sched.key_computations());
        emit("sched.key_computations", keys);
    }

    fn heap_bytes_estimate(&self) -> usize {
        // The connection table's rows and the datapath's box with what it
        // holds, the ledger's per-connection byte counters included. The
        // shared `Arc<RouterConfig>` is charged to the template, not to
        // every router.
        self.regs.table.heap_bytes()
            + self.datapath.as_ref().map_or(0, |dp| size_of::<Datapath>() + dp.heap_bytes())
    }

    fn check_conservation(&self) -> Result<(), String> {
        RealTimeRouter::check_conservation(self)
    }

    fn abort_partial_rx(&mut self) -> [u8; PORT_COUNT] {
        let mut dropped = [0u8; PORT_COUNT];
        let Some(dp) = self.datapath.as_deref_mut() else {
            return dropped;
        };
        for (idx, input) in dp.inputs.iter_mut().enumerate() {
            let aborted = input.abort_partial();
            if aborted.tc_aborted {
                dp.stats.tc_truncated += 1;
            }
            if aborted.be_truncated {
                dp.stats.be_truncated += 1;
            }
            dp.stats.be_dropped_faulty += u64::from(aborted.be_dropped);
            dropped[idx] = aborted.be_dropped;
        }
        // The injection machinery feeds port 0 from inside the node; its
        // mid-flight packet died with the port's reassembly registers, and
        // there is no upstream link to refund.
        dp.tc_inject = Serialiser::default();
        dp.be.abort_injection();
        dropped[0] = 0;
        dropped
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rtr_types::flit::BeByte;
    use rtr_types::ids::{ConnectionId, Direction};
    use rtr_types::packet::{BePacket, PacketTrace};

    fn router() -> RealTimeRouter {
        RealTimeRouter::new(RouterConfig::default()).unwrap()
    }

    fn io() -> ChipIo {
        ChipIo::new()
    }

    fn run(router: &mut RealTimeRouter, io: &mut ChipIo, from: &mut Cycle, cycles: u64) {
        for _ in 0..cycles {
            io.begin_cycle();
            router.tick(*from, io);
            // Drop any network tx/credits (single-router tests).
            io.tx = Default::default();
            io.credit_out = [0; PORT_COUNT];
            *from += 1;
        }
    }

    /// The datapath of a router that has ticked.
    fn datapath(router: &RealTimeRouter) -> &Datapath {
        router.datapath.as_deref().expect("the router has ticked")
    }

    /// Programs `incoming` to leave as `outgoing` with delay bound `delay`
    /// on the ports in `out_mask`.
    fn connect(r: &mut RealTimeRouter, incoming: u16, outgoing: u16, delay: u32, out_mask: u8) {
        let (incoming, outgoing) = (ConnectionId(incoming), ConnectionId(outgoing));
        r.apply_control(ControlCommand::SetConnection { incoming, outgoing, delay, out_mask })
            .unwrap();
    }

    fn tc_packet(conn: u16, arrival: u64, router: &RealTimeRouter) -> TcPacket {
        TcPacket {
            conn: ConnectionId(conn),
            arrival: router.clock().wrap(arrival),
            payload: vec![0x5A; router.config().tc_data_bytes()].into(),
            trace: PacketTrace::default(),
        }
    }

    #[test]
    fn local_loopback_tc_delivery() {
        let mut r = router();
        // Connection 1: deliver locally with d = 4 slots.
        connect(&mut r, 1, 1, 4, Port::Local.mask());
        let mut io = io();
        io.inject_tc.push_back(tc_packet(1, 0, &r));
        let mut now = 0;
        run(&mut r, &mut io, &mut now, 200);
        assert_eq!(io.delivered_tc.len(), 1, "packet must be delivered locally");
        assert_eq!(r.stats().tc_injected, 1);
        assert_eq!(r.stats().tc_delivered, 1);
        assert_eq!(r.stats().tc_dropped(), 0);
        // Injection takes 20 cycles, storage ~6, scheduling ~4, reception 20.
        let (cycle, _) = io.delivered_tc[0];
        assert!((40..=80).contains(&cycle), "delivery at {cycle}");
    }

    /// A router costs what it holds: storing, scheduling, transmitting and
    /// freeing one packet leaves a few slots, leaves and tournament nodes
    /// behind, not the chip's 256 of each (which was ≈ 45 KB).
    #[test]
    fn a_router_that_buffered_one_packet_holds_by_use() {
        let mut r = router();
        connect(&mut r, 1, 1, 4, Port::Local.mask());
        let mut io = io();
        io.inject_tc.push_back(tc_packet(1, 0, &r));
        let mut now = 0;
        run(&mut r, &mut io, &mut now, 200);
        assert_eq!(r.stats().tc_delivered, 1);
        let dp = datapath(&r);
        assert_eq!((dp.memory.occupied(), dp.sched.len()), (0, 0), "stored, sent and freed");
        let port_queues =
            dp.inputs.iter().map(InputPort::heap_bytes).sum::<usize>() + dp.be.heap_bytes();
        let ledger = r.regs.table.heap_bytes() + dp.stats.heap_bytes() + size_of::<Datapath>();
        let held = r.heap_bytes_estimate() - port_queues - ledger;
        assert_eq!(held, dp.memory.heap_bytes() + dp.sched.heap_bytes());
        assert!(held > 0, "capacity actually held is reported");
        assert!(held < 1024, "one buffered packet left {held} B of memory and scheduler state");
    }

    /// A forwarding router's estimate covers its ledger too: the first
    /// transmission per (port, connection) adds an entry to
    /// `tc_bytes_by_conn`, in the ledger its datapath box holds.
    #[test]
    fn the_estimate_counts_the_per_connection_byte_counters() {
        let mut r = router();
        let east = Port::Dir(Direction::XPlus);
        connect(&mut r, 1, 2, 4, east.mask());
        let mut io = io();
        io.inject_tc.push_back(tc_packet(1, 0, &r));
        let mut now = 0;
        run(&mut r, &mut io, &mut now, 200);
        assert_eq!(r.stats().tc_transmitted[east.index()], 1, "forwarded on +x");
        let entries = r.stats().tc_bytes_by_conn.capacity();
        let map = entries * size_of::<((usize, ConnectionId), u64)>();
        assert!(map > 0, "the first transmission added an entry");
        let dp = datapath(&r);
        let others = dp.memory.heap_bytes()
            + dp.sched.heap_bytes()
            + dp.inputs.iter().map(InputPort::heap_bytes).sum::<usize>()
            + dp.be.heap_bytes();
        let counted = r.regs.table.heap_bytes() + size_of::<Datapath>() + others;
        let estimate = r.heap_bytes_estimate();
        assert!(estimate >= counted + map, "estimate {estimate} B < {counted} B + {map} B of map");
    }

    /// A router whose datapath a late first tick builds behaves like its
    /// twin that ticked from cycle 0. Both get the same non-default output
    /// credits and table and horizon writes; one ticks idle through
    /// `0..N`, the other is told the span was quiet, which builds nothing.
    /// From `N` on both take the same time-constrained packet and
    /// best-effort bytes, both bound for the credit-limited +x output, and
    /// every cycle drives, returns, answers and counts the same.
    #[test]
    fn a_late_first_tick_behaves_like_a_densely_ticked_twin() {
        const N: Cycle = 333;
        let (east, west, north) = (
            Port::Dir(Direction::XPlus),
            Port::Dir(Direction::XMinus),
            Port::Dir(Direction::YPlus),
        );
        let [mut dense, mut late] = [router(), router()].map(|mut r| {
            r.set_output_credits(east, 5);
            connect(&mut r, 2, 7, 4, east.mask());
            r.apply_control(ControlCommand::SetHorizon { port_mask: east.mask(), horizon: 3 })
                .unwrap();
            r
        });
        let (mut dense_io, mut late_io) = (io(), io());
        for now in 0..N {
            dense_io.begin_cycle();
            dense.tick(now, &mut dense_io);
        }
        late.skip_quiet(0, N);
        assert!(late.datapath.is_none(), "a quiet span builds no datapath");

        // An early packet (two slots ahead, inside the horizon) on the -x
        // input, and a best-effort packet two hops east on the +y input.
        let packet = tc_packet(2, N / 20 + 2, &late);
        let mut wire = Vec::new();
        BePacket::new(2, 0, vec![0xB5; 12], PacketTrace::default()).to_wire_into(&mut wire);
        let counters = |r: &RealTimeRouter| {
            let mut all = Vec::new();
            r.counters(&mut |name, value| all.push((name, value)));
            all
        };
        for now in N..N + 200 {
            let k = (now - N) as usize;
            for io in [&mut dense_io, &mut late_io] {
                io.begin_cycle();
                io.rx[west.index()] = match k {
                    0 => Some(LinkSymbol::TcStart(Box::new(packet.clone()))),
                    1..20 => Some(LinkSymbol::TcCont { index: k as u8 }),
                    _ => None,
                };
                io.rx[north.index()] = wire.get(k).map(|&byte| {
                    let (head, tail) = (k == 0, k + 1 == wire.len());
                    LinkSymbol::Be(BeByte { byte, head, tail, trace: None })
                });
                io.credit_in[east.index()] = u16::from(k == 120) * 4;
            }
            dense.tick(now, &mut dense_io);
            late.tick(now, &mut late_io);
            assert_eq!(format!("{:?}", dense_io.tx), format!("{:?}", late_io.tx), "tx at {now}");
            assert_eq!(dense_io.credit_out, late_io.credit_out, "credit_out at {now}");
            assert_eq!(dense.next_event(now), late.next_event(now), "next_event at {now}");
            assert_eq!(counters(&dense), counters(&late), "counters at {now}");
            for io in [&mut dense_io, &mut late_io] {
                io.tx = Default::default();
                io.credit_out = [0; PORT_COUNT];
            }
        }
        let sent =
            dense.stats().tc_transmitted[east.index()] + dense.stats().be_bytes[east.index()];
        assert_eq!(sent, 1 + 9, "the packet and the credited best-effort bytes left on +x");
    }

    /// `slot_bytes = 256` is the largest slot `RouterConfig::validate`
    /// admits: the symbol counts narrowed to `u32` hold its wire length and
    /// the last continuation index is 255, the top of its byte. One packet
    /// crosses injection, a network hop and local delivery at the cycle the
    /// pipeline arithmetic predicts, and each port counts every byte. The
    /// hop is what a link makes of it: the router drives the head alone,
    /// which arrives the next cycle, and the last continuation arrives
    /// `wire` cycles after it went out (the ones between are absorbed).
    #[test]
    fn a_packet_at_the_largest_slot_crosses_injection_a_hop_and_delivery() {
        let config = RouterConfig { slot_bytes: 256, ..RouterConfig::default() };
        let wire = config.slot_bytes as u64;
        let (east, west) = (Port::Dir(Direction::XPlus), Port::Dir(Direction::XMinus));
        let [mut up, mut down] = [east, Port::Local].map(|out| {
            let mut r = RealTimeRouter::new(config.clone()).unwrap();
            connect(&mut r, 1, 1, 1, out.mask());
            r
        });
        let (mut up_io, mut down_io) = (io(), io());
        up_io.inject_tc.push_back(tc_packet(1, 0, &up));
        let mut arrivals = std::collections::VecDeque::new();
        for now in 0..1_000 {
            up_io.begin_cycle();
            down_io.begin_cycle();
            if arrivals.front().is_some_and(|(at, _)| *at == now) {
                down_io.rx[west.index()] = arrivals.pop_front().map(|(_, symbol)| symbol);
            }
            up.tick(now, &mut up_io);
            down.tick(now, &mut down_io);
            if let Some(symbol) = up_io.tx[east.index()].take() {
                assert!(matches!(symbol, LinkSymbol::TcStart(_)), "only the head is driven");
                assert!(arrivals.is_empty(), "one packet crosses");
                arrivals.push_back((now + 1, symbol));
                arrivals.push_back((now + wire, LinkSymbol::TcCont { index: 255 }));
            }
        }
        // Each router: the last symbol, the store latency, the grant
        // pipeline, then `wire` symbols out; one cycle on the wire between.
        let store = u64::from(PortTiming::from_config(&config).tc_store_latency);
        let sched = config.effective_sched_latency();
        assert_eq!(down_io.delivered_tc.len(), 1);
        assert_eq!(down_io.delivered_tc[0].0, 3 * wire - 2 + 2 * (store + sched));
        assert_eq!(down_io.delivered_tc[0].1.payload.len(), config.tc_data_bytes());
        for (router, out) in [(&up, east), (&down, Port::Local)] {
            assert_eq!(router.stats().tc_bytes[out.index()], wire, "bytes sent on {out:?}");
            assert_eq!(router.stats().tc_conn_bytes(out.index(), ConnectionId(1)), wire);
            router.check_conservation().unwrap();
        }
    }

    /// A router mid-transmission needs no tick until a packet ends: right
    /// after a head leaves on +x it answers the cycle +x frees, and a router
    /// delivering locally answers the delivery cycle — never `now + 1`. A
    /// later tick, and a poll before a tick (what the event core's prime
    /// does), answer the same cycle; the skipped span counts as bytes sent.
    #[test]
    fn a_router_mid_transmission_wakes_when_its_serialiser_ends() {
        let east = Port::Dir(Direction::XPlus);
        for (out, end) in [(east, 20), (Port::Local, 19)] {
            let mut r = router();
            connect(&mut r, 1, 1, 4, out.mask());
            let mut io = io();
            io.inject_tc.push_back(tc_packet(1, 0, &r));
            let mut now = 0;
            let start = loop {
                io.begin_cycle();
                r.tick(now, &mut io);
                io.tx = Default::default();
                if r.stats().tc_transmitted[out.index()] == 1 {
                    break now;
                }
                now += 1;
            };
            assert_eq!(r.next_event(start), Some(start + end), "{out:?} right after its start");
            for now in start + 1..start + 5 {
                io.begin_cycle();
                r.tick(now, &mut io);
            }
            assert_eq!(r.next_event(start + 4), Some(start + end), "{out:?} mid-packet");
            assert_eq!(r.next_event(start + 5), Some(start + end), "{out:?} before a tick");
            r.skip_quiet(start + 5, start + end);
            io.begin_cycle();
            r.tick(start + end, &mut io);
            assert_eq!(r.stats().tc_bytes[out.index()], 20, "{out:?}: every byte counted");
            assert_eq!(io.delivered_tc.len(), usize::from(out == Port::Local));
            assert_eq!(r.next_event(start + end), None, "{out:?}: nothing left to do");
        }
    }

    #[test]
    fn torn_down_connection_aborts_arrivals_into_its_own_column() {
        let mut r = router();
        connect(&mut r, 3, 3, 4, Port::Local.mask());
        r.apply_control(ControlCommand::ClearConnection { incoming: ConnectionId(3) }).unwrap();
        let mut io = io();
        io.inject_tc.push_back(tc_packet(3, 0, &r));
        let mut now = 0;
        run(&mut r, &mut io, &mut now, 100);
        assert_eq!(r.stats().tc_aborted_teardown, 1, "abort lands in the teardown column");
        assert_eq!(r.stats().tc_dropped_no_conn, 0, "not a routing error");
        r.check_conservation().unwrap();
        // Re-installing the id lifts the tombstone: the recycled
        // identifier's traffic routes normally.
        connect(&mut r, 3, 3, 4, Port::Local.mask());
        io.inject_tc.push_back(tc_packet(3, now / 20 + 1, &r));
        run(&mut r, &mut io, &mut now, 200);
        assert_eq!(r.stats().tc_delivered, 1, "recycled id delivers");
        assert_eq!(r.stats().tc_aborted_teardown, 1, "no new aborts");
        r.check_conservation().unwrap();
    }

    #[test]
    fn clearing_an_absent_connection_leaves_no_tombstone() {
        let mut r = router();
        // Clearing an id that never existed is a no-op teardown: a later
        // arrival for it is a genuine routing error, not an abort.
        let _ = r.apply_control(ControlCommand::ClearConnection { incoming: ConnectionId(7) });
        let mut io = io();
        io.inject_tc.push_back(tc_packet(7, 0, &r));
        let mut now = 0;
        run(&mut r, &mut io, &mut now, 100);
        assert_eq!(r.stats().tc_aborted_teardown, 0);
        assert_eq!(r.stats().tc_dropped_no_conn, 1);
    }

    #[test]
    fn unknown_connection_dropped_and_counted() {
        let mut r = router();
        let mut io = io();
        io.inject_tc.push_back(tc_packet(7, 0, &r));
        let mut now = 0;
        run(&mut r, &mut io, &mut now, 100);
        assert_eq!(r.stats().tc_dropped_no_conn, 1);
        assert!(io.delivered_tc.is_empty());
    }

    #[test]
    fn malformed_injection_rejected() {
        let mut r = router();
        let mut io = io();
        io.inject_tc.push_back(TcPacket {
            conn: ConnectionId(0),
            arrival: r.clock().wrap(0),
            payload: vec![1, 2, 3].into(), // wrong size
            trace: PacketTrace::default(),
        });
        let mut now = 0;
        run(&mut r, &mut io, &mut now, 50);
        assert_eq!(r.stats().tc_malformed, 1);
        assert_eq!(r.stats().tc_injected, 0);
    }

    #[test]
    fn tc_packet_forwarded_on_network_port_with_rewritten_header() {
        let mut r = router();
        connect(&mut r, 2, 9, 8, Port::Dir(Direction::XPlus).mask());
        let mut io = io();
        io.inject_tc.push_back(tc_packet(2, 3, &r));
        let mut first_tx: Option<(Cycle, TcPacket)> = None;
        for now in 0..300u64 {
            io.begin_cycle();
            r.tick(now, &mut io);
            if first_tx.is_none() {
                if let Some(LinkSymbol::TcStart(p)) =
                    io.tx[Port::Dir(Direction::XPlus).index()].take()
                {
                    first_tx = Some((now, *p));
                }
            }
            io.tx = Default::default();
        }
        let (_, p) = first_tx.expect("packet must leave on +x");
        assert_eq!(p.conn, ConnectionId(9), "next-hop connection id");
        // New timestamp = ℓ + d = 3 + 8 = 11.
        assert_eq!(p.arrival.raw(), 11);
        assert_eq!(r.stats().tc_transmitted[Port::Dir(Direction::XPlus).index()], 1);
    }

    #[test]
    fn multicast_fans_out_to_all_masked_ports() {
        let mut r = router();
        let mask = Port::Dir(Direction::XPlus).mask()
            | Port::Dir(Direction::YMinus).mask()
            | Port::Local.mask();
        connect(&mut r, 1, 1, 4, mask);
        let mut io = io();
        io.inject_tc.push_back(tc_packet(1, 0, &r));
        let mut starts = [0u32; PORT_COUNT];
        for now in 0..400u64 {
            io.begin_cycle();
            r.tick(now, &mut io);
            for (idx, tx) in io.tx.iter().enumerate().skip(1) {
                if matches!(tx, Some(LinkSymbol::TcStart(_))) {
                    starts[idx] += 1;
                }
            }
            io.tx = Default::default();
        }
        assert_eq!(starts[Port::Dir(Direction::XPlus).index()], 1);
        assert_eq!(starts[Port::Dir(Direction::YMinus).index()], 1);
        assert_eq!(io.delivered_tc.len(), 1, "local copy delivered");
        assert_eq!(r.memory_occupied(), 0, "slot freed after the last port");
    }

    #[test]
    fn be_local_loopback_delivery() {
        let mut r = router();
        let mut io = io();
        let payload: Vec<u8> = (0..32).collect();
        io.inject_be.push_back(BePacket::new(
            0,
            0,
            payload.clone(),
            PacketTrace { sequence: 42, ..PacketTrace::default() },
        ));
        let mut now = 0;
        run(&mut r, &mut io, &mut now, 300);
        assert_eq!(io.delivered_be.len(), 1);
        let (_, p) = &io.delivered_be[0];
        assert_eq!(p.payload, payload);
        assert_eq!(p.trace.sequence, 42, "trace survives the trip");
        assert_eq!(p.header.x_off, 0);
        assert_eq!(p.header.y_off, 0);
    }

    #[test]
    fn be_forwarded_on_network_port_with_stepped_offsets() {
        let mut r = router();
        let mut io = io();
        io.inject_be.push_back(BePacket::new(2, -1, vec![0xCC; 8], PacketTrace::default()));
        let mut bytes = Vec::new();
        let out = Port::Dir(Direction::XPlus).index();
        for now in 0..200u64 {
            io.begin_cycle();
            io.credit_in[out] = 1; // emulate downstream flit-buffer drain
            r.tick(now, &mut io);
            if let Some(LinkSymbol::Be(b)) = io.tx[out].take() {
                bytes.push(b);
            }
            io.tx = Default::default();
        }
        assert_eq!(bytes.len(), 12, "4 header + 8 payload bytes");
        assert!(bytes[0].head);
        assert!(bytes[11].tail);
        assert_eq!(bytes[0].byte, 1, "x offset stepped 2 → 1");
        assert_eq!(bytes[1].byte, 0xFF, "y offset unchanged (-1)");
    }

    #[test]
    fn be_transmission_stalls_without_credits() {
        let mut r = router();
        r.set_output_credits(Port::Dir(Direction::XPlus), 3);
        let mut io = io();
        io.inject_be.push_back(BePacket::new(1, 0, vec![0xEE; 20], PacketTrace::default()));
        let mut sent = 0;
        for now in 0..500u64 {
            io.begin_cycle();
            r.tick(now, &mut io);
            if matches!(io.tx[Port::Dir(Direction::XPlus).index()], Some(LinkSymbol::Be(_))) {
                sent += 1;
            }
            io.tx = Default::default();
        }
        assert_eq!(sent, 3, "exactly the credit pool leaves");
    }

    #[test]
    fn on_time_tc_preempts_best_effort_stream() {
        let mut r = router();
        let out = Port::Dir(Direction::XPlus);
        connect(&mut r, 1, 1, 2, out.mask());
        let mut io = io();
        // A long best-effort packet starts flowing; credits replenished by
        // the harness to keep it moving.
        io.inject_be.push_back(BePacket::new(3, 0, vec![0xAB; 200], PacketTrace::default()));
        let mut symbols = Vec::new();
        for now in 0..600u64 {
            io.begin_cycle();
            io.credit_in[out.index()] = 1; // emulate downstream consumption
            if now == 100 {
                io.inject_tc.push_back(TcPacket {
                    conn: ConnectionId(1),
                    arrival: r.clock().wrap(now / 20),
                    payload: vec![0; r.config().tc_data_bytes()].into(),
                    trace: PacketTrace::default(),
                });
            }
            r.tick(now, &mut io);
            if let Some(s) = io.tx[out.index()].take() {
                symbols.push((now, s));
            }
            io.tx = Default::default();
        }
        // Find the TC packet's head; it must appear while BE bytes still
        // remain (preemption) and hold the link for its 20 cycles — the
        // link emits the 19 continuations, so the router drives nothing
        // until they are out.
        let tc_start = symbols
            .iter()
            .position(|(_, s)| matches!(s, LinkSymbol::TcStart(_)))
            .expect("TC packet must be transmitted");
        let be_after_tc = symbols[tc_start..].iter().any(|(_, s)| matches!(s, LinkSymbol::Be(_)));
        assert!(be_after_tc, "best-effort stream resumes after preemption");
        let (start, _) = symbols[tc_start];
        let (next, _) = symbols[tc_start + 1];
        assert_eq!(next, start + 20, "the packet holds the link for its 20 byte times");
        assert_eq!(r.stats().tc_bytes[out.index()], 20);
    }

    #[test]
    fn early_packet_waits_for_logical_arrival_with_zero_horizon() {
        let mut r = router();
        let out = Port::Dir(Direction::XPlus);
        connect(&mut r, 1, 1, 4, out.mask());
        let mut io = io();
        // Logical arrival at slot 20 — far in the future.
        io.inject_tc.push_back(tc_packet(1, 20, &r));
        let mut start_cycle = None;
        for now in 0..1000u64 {
            io.begin_cycle();
            r.tick(now, &mut io);
            if start_cycle.is_none() && matches!(io.tx[out.index()], Some(LinkSymbol::TcStart(_))) {
                start_cycle = Some(now);
            }
            io.tx = Default::default();
        }
        let start = start_cycle.expect("packet eventually transmits");
        assert!(start >= 20 * 20, "must not transmit before slot 20 (cycle 400), got {start}");
    }

    #[test]
    fn early_packet_transmits_within_horizon() {
        let mut r = router();
        let out = Port::Dir(Direction::XPlus);
        connect(&mut r, 1, 1, 4, out.mask());
        r.apply_control(ControlCommand::SetHorizon { port_mask: out.mask(), horizon: 100 })
            .unwrap();
        let mut io = io();
        io.inject_tc.push_back(tc_packet(1, 20, &r));
        let mut start_cycle = None;
        for now in 0..1000u64 {
            io.begin_cycle();
            r.tick(now, &mut io);
            if start_cycle.is_none() && matches!(io.tx[out.index()], Some(LinkSymbol::TcStart(_))) {
                start_cycle = Some(now);
            }
            io.tx = Default::default();
        }
        let start = start_cycle.expect("packet transmits early");
        assert!(start < 20 * 20, "horizon permits early transmission, got {start}");
        assert_eq!(r.stats().tc_early_transmitted[out.index()], 1);
    }

    #[test]
    fn memory_exhaustion_drops_and_counts() {
        let mut r =
            RealTimeRouter::new(RouterConfig { packet_slots: 2, ..RouterConfig::default() })
                .unwrap();
        let out = Port::Dir(Direction::XPlus);
        connect(&mut r, 1, 1, 100, out.mask());
        let mut io = io();
        // Far-future arrivals so nothing transmits (h = 0): memory fills.
        for k in 0..4 {
            io.inject_tc.push_back(tc_packet(1, 120 + k, &r));
        }
        let mut now = 0;
        run(&mut r, &mut io, &mut now, 400);
        assert_eq!(r.stats().tc_dropped_no_buffer, 2);
        assert_eq!(r.memory_occupied(), 2);
    }

    #[test]
    fn cut_through_beats_store_and_forward_latency() {
        let out = Port::Dir(Direction::XPlus);
        let measure = |cut: bool| -> Cycle {
            let mut r = RealTimeRouter::new(RouterConfig {
                tc_cut_through: cut,
                ..RouterConfig::default()
            })
            .unwrap();
            connect(&mut r, 1, 1, 8, out.mask());
            let mut io = io();
            io.inject_tc.push_back(tc_packet(1, 0, &r));
            for now in 0..600u64 {
                io.begin_cycle();
                r.tick(now, &mut io);
                if matches!(io.tx[out.index()], Some(LinkSymbol::TcStart(_))) {
                    if cut {
                        assert_eq!(r.stats().tc_cut_through, 1);
                        assert_eq!(r.memory_occupied(), 0, "cut packets never buffer");
                    }
                    return now;
                }
                io.tx = Default::default();
            }
            panic!("packet never transmitted");
        };
        let buffered = measure(false);
        let cut = measure(true);
        assert!(cut + 10 <= buffered, "cut-through must skip the store wait: {cut} vs {buffered}");
    }

    #[test]
    fn cut_through_streams_contiguously_with_correct_header() {
        let out = Port::Dir(Direction::XPlus);
        let mut r =
            RealTimeRouter::new(RouterConfig { tc_cut_through: true, ..RouterConfig::default() })
                .unwrap();
        connect(&mut r, 2, 9, 6, out.mask());
        let mut io = io();
        io.inject_tc.push_back(tc_packet(2, 0, &r));
        let (mut symbols, mut held) = (Vec::new(), Vec::new());
        for now in 0..300u64 {
            io.begin_cycle();
            r.tick(now, &mut io);
            if let Some(s) = io.tx[out.index()].take() {
                symbols.push((now, s));
            }
            if datapath(&r).outputs[out.index()].tc_tx.busy() {
                held.push(now);
            }
            io.tx = Default::default();
        }
        // The head alone is driven (the link emits the continuations), and
        // the port stays taken through its last symbol.
        assert_eq!(symbols.len(), 1);
        let (start, first) = &symbols[0];
        let LinkSymbol::TcStart(p) = first else { panic!("start first") };
        assert_eq!(p.conn, ConnectionId(9), "header rewritten on the fly");
        assert_eq!(p.arrival.raw(), 6, "timestamp = ℓ + d");
        assert_eq!(held, (*start..start + 19).collect::<Vec<_>>(), "held contiguously");
        assert_eq!(r.stats().tc_bytes[out.index()], 20);
    }

    #[test]
    fn cut_through_defers_to_buffered_packet_with_smaller_key() {
        let out = Port::Dir(Direction::XPlus);
        let mut r =
            RealTimeRouter::new(RouterConfig { tc_cut_through: true, ..RouterConfig::default() })
                .unwrap();
        for conn in [1u16, 2] {
            connect(&mut r, conn, conn, if conn == 1 { 4 } else { 100 }, out.mask());
        }
        let mut io = io();
        // Tight packet first: it buffers (nothing to cut past at arrival it
        // does cut... it also cuts through). Then the loose packet arrives
        // while the tight one is pending/transmitting — it must buffer.
        io.inject_tc.push_back(tc_packet(1, 0, &r));
        io.inject_tc.push_back(tc_packet(2, 0, &r));
        let mut now = 0;
        run(&mut r, &mut io, &mut now, 800);
        let s = r.stats();
        assert_eq!(s.tc_transmitted[out.index()], 2);
        assert_eq!(
            s.tc_cut_through, 1,
            "only the first packet may cut; the second buffers behind it"
        );
        assert_eq!(s.tc_dropped(), 0);
    }

    #[test]
    fn multicast_never_cuts_through() {
        let mask = Port::Dir(Direction::XPlus).mask() | Port::Local.mask();
        let mut r =
            RealTimeRouter::new(RouterConfig { tc_cut_through: true, ..RouterConfig::default() })
                .unwrap();
        connect(&mut r, 1, 1, 4, mask);
        let mut io = io();
        io.inject_tc.push_back(tc_packet(1, 0, &r));
        let mut now = 0;
        run(&mut r, &mut io, &mut now, 600);
        assert_eq!(r.stats().tc_cut_through, 0);
        assert_eq!(io.delivered_tc.len(), 1, "still delivered via buffering");
    }

    #[test]
    fn early_packets_never_cut_through() {
        let out = Port::Dir(Direction::XPlus);
        let mut r =
            RealTimeRouter::new(RouterConfig { tc_cut_through: true, ..RouterConfig::default() })
                .unwrap();
        connect(&mut r, 1, 1, 4, out.mask());
        let mut io = io();
        io.inject_tc.push_back(tc_packet(1, 50, &r)); // ℓ far in the future
        let mut now = 0;
        run(&mut r, &mut io, &mut now, 100);
        assert_eq!(r.stats().tc_cut_through, 0);
        assert_eq!(r.memory_occupied(), 1, "early packet waits in the memory");
    }

    #[test]
    fn early_packet_within_horizon_cuts_through() {
        let out = Port::Dir(Direction::XPlus);
        let mut r =
            RealTimeRouter::new(RouterConfig { tc_cut_through: true, ..RouterConfig::default() })
                .unwrap();
        connect(&mut r, 1, 1, 4, out.mask());
        r.apply_control(ControlCommand::SetHorizon { port_mask: out.mask(), horizon: 100 })
            .unwrap();
        let mut io = io();
        io.inject_tc.push_back(tc_packet(1, 50, &r));
        let mut now = 0;
        run(&mut r, &mut io, &mut now, 100);
        assert_eq!(r.stats().tc_cut_through, 1);
        assert_eq!(r.stats().tc_early_transmitted[out.index()], 1);
        assert_eq!(r.memory_occupied(), 0);
    }

    #[test]
    fn all_output_ports_transmit_concurrently_from_one_scheduler() {
        // Four connections to four different network ports: the shared
        // comparator tree serves them all in the same packet slot (§4.2's
        // "overlaps communication scheduling with packet transmission on
        // each of the five output ports").
        let mut r = router();
        for (i, dir) in Direction::ALL.into_iter().enumerate() {
            connect(&mut r, i as u16 + 1, i as u16 + 1, 4, Port::Dir(dir).mask());
        }
        let mut io = io();
        // Four packets arrive on the four network inputs in the same
        // cycles (the aggregate-bandwidth case the shared memory and
        // pipelined tree are sized for).
        let mut busy_counts = Vec::new();
        for now in 0..600u64 {
            io.begin_cycle();
            if now == 0 {
                for i in 1..PORT_COUNT {
                    io.rx[i] = Some(LinkSymbol::TcStart(Box::new(tc_packet(i as u16, 0, &r))));
                }
            } else if now < 20 {
                for i in 1..PORT_COUNT {
                    io.rx[i] = Some(LinkSymbol::TcCont { index: now as u8 });
                }
            }
            r.tick(now, &mut io);
            let busy = (1..PORT_COUNT)
                .filter(|&i| io.tx[i].as_ref().is_some_and(LinkSymbol::is_time_constrained))
                .count();
            busy_counts.push(busy);
            io.tx = Default::default();
        }
        assert_eq!(busy_counts.iter().max(), Some(&4), "all four ports must stream simultaneously");
        let total: u64 = (1..PORT_COUNT).map(|i| r.stats().tc_transmitted[i]).sum();
        assert_eq!(total, 4, "every port served its packet");
    }

    #[test]
    fn be_round_robin_shares_an_output_between_inputs() {
        // Two best-effort streams arrive on different network inputs, both
        // bound for the local reception port: round-robin alternates
        // packets between them.
        let mut r = router();
        let mut io = io();
        let mk_byte = |b: u8, head: bool, tail: bool| {
            LinkSymbol::Be(BeByte { byte: b, head, tail, trace: None })
        };
        // Interleave 3 short packets per input (offsets 0,0 → local):
        // header [0,0,len_lo,len_hi] + 1 payload byte.
        let mut delivered_order = Vec::new();
        let mut queue: Vec<(usize, Vec<LinkSymbol>)> = Vec::new();
        for pkt in 0..3 {
            for in_idx in [1usize, 2] {
                queue.push((
                    in_idx,
                    vec![
                        mk_byte(0, true, false),
                        mk_byte(0, false, false),
                        mk_byte(1, false, false),
                        mk_byte(0, false, false),
                        mk_byte(0xA0 + (in_idx as u8) * 16 + pkt, false, true),
                    ],
                ));
            }
        }
        // Feed both inputs one byte per cycle.
        let mut feeds: [std::collections::VecDeque<LinkSymbol>; 2] =
            [Default::default(), Default::default()];
        for (in_idx, symbols) in queue {
            feeds[in_idx - 1].extend(symbols);
        }
        for now in 0..800u64 {
            io.begin_cycle();
            for (k, feed) in feeds.iter_mut().enumerate() {
                if let Some(s) = feed.pop_front() {
                    io.rx[k + 1] = Some(s);
                }
            }
            r.tick(now, &mut io);
            io.tx = Default::default();
            io.credit_out = [0; PORT_COUNT];
            for (_, p) in io.delivered_be.drain(..) {
                delivered_order.push(p.payload[0]);
            }
        }
        assert_eq!(delivered_order.len(), 6, "all six packets delivered");
        // Packets from the two inputs alternate (round-robin at packet
        // granularity): no input gets two consecutive deliveries.
        for w in delivered_order.windows(2) {
            assert_ne!(w[0] & 0xF0, w[1] & 0xF0, "order {delivered_order:?}");
        }
    }

    #[test]
    fn leaf_sharing_delays_the_first_grant() {
        // §5.1's leaf sharing serialises keys through the base comparator:
        // the first selection after an idle period takes k× longer.
        let start_cycle = |sharing: usize| -> Cycle {
            let mut r = RealTimeRouter::new(RouterConfig {
                leaf_sharing: sharing,
                ..RouterConfig::default()
            })
            .unwrap();
            let out = Port::Dir(Direction::XPlus);
            connect(&mut r, 1, 1, 8, out.mask());
            let mut io = io();
            io.inject_tc.push_back(tc_packet(1, 0, &r));
            for now in 0..600u64 {
                io.begin_cycle();
                r.tick(now, &mut io);
                if matches!(io.tx[out.index()], Some(LinkSymbol::TcStart(_))) {
                    return now;
                }
                io.tx = Default::default();
            }
            panic!("packet never transmitted");
        };
        let fast = start_cycle(1);
        let slow = start_cycle(8);
        assert_eq!(slow - fast, 28, "7 extra serialisation rounds × 4 cycles");
    }

    #[cfg(feature = "metrics")]
    #[test]
    fn trace_records_full_local_lifecycle() {
        use rtr_types::ids::NodeId;
        use rtr_types::trace::{shared, RingSink};

        let mut r = router();
        connect(&mut r, 1, 1, 4, Port::Local.mask());
        let ring = shared(RingSink::new(256));
        r.set_trace_sink(NodeId(5), ring.clone());
        let mut io = io();
        io.inject_tc.push_back(tc_packet(1, 0, &r));
        let mut now = 0;
        run(&mut r, &mut io, &mut now, 200);
        assert_eq!(io.delivered_tc.len(), 1);

        let ring = ring.lock().unwrap();
        assert!(ring.records().all(|rec| rec.node == NodeId(5)));
        let tags: Vec<&str> = ring.records().map(|rec| rec.event.tag()).collect();
        // The full store-and-forward lifecycle, in causal order.
        let expected = [
            "tc_inject",
            "tc_arrive",
            "slot_alloc",
            "sched_select",
            "slot_free",
            "tc_transmit",
            "tc_deliver",
        ];
        let mut want = expected.iter().peekable();
        for tag in &tags {
            if want.peek() == Some(&tag) {
                want.next();
            }
        }
        let missing: Vec<&&str> = want.collect();
        assert!(missing.is_empty(), "missing {missing:?} in trace: {tags:?}");
        // Cycles are monotone within the record stream.
        let cycles: Vec<u64> = ring.records().map(|rec| rec.cycle).collect();
        assert!(cycles.windows(2).all(|w| w[0] <= w[1]), "cycles must be monotone");
    }

    #[test]
    fn conservation_holds_after_mixed_outcomes() {
        let mut r = router();
        connect(&mut r, 1, 1, 4, Port::Local.mask());
        let mut io = io();
        io.inject_tc.push_back(tc_packet(1, 0, &r)); // delivered
        io.inject_tc.push_back(tc_packet(7, 0, &r)); // dropped: no connection
        let mut now = 0;
        run(&mut r, &mut io, &mut now, 300);
        r.check_conservation().unwrap();
        assert_eq!(r.stats().tc_buffered, 1);
        assert_eq!(r.stats().tc_retired, 1);
    }

    /// The settle fast path: after two idle spans — the first opening with
    /// the +x bit still set by the packet just sent (settled), the second
    /// with mask and backlog agreeing (the one-compare exit) — a new packet
    /// is granted on the cycle a twin ticked through the same spans grants
    /// it, with identical statistics.
    #[test]
    fn an_idle_router_settles_like_its_densely_ticked_twin() {
        let east = Port::Dir(Direction::XPlus);
        let [mut sparse, mut dense] = [router(), router()].map(|mut r| {
            connect(&mut r, 1, 1, 4, east.mask());
            r
        });
        let (mut sparse_io, mut dense_io) = (io(), io());
        // One cycle; whether a packet's start symbol left on +x.
        let tick = |r: &mut RealTimeRouter, io: &mut ChipIo, now: Cycle| {
            io.begin_cycle();
            r.tick(now, io);
            io.credit_out = [0; PORT_COUNT];
            matches!(io.tx[east.index()].take(), Some(LinkSymbol::TcStart(_)))
        };
        // Tick both until each has granted one packet queued at `now`, and
        // return the cycle after its last symbol left.
        let send_one = |sparse: &mut RealTimeRouter,
                        dense: &mut RealTimeRouter,
                        ios: [&mut ChipIo; 2],
                        mut now: Cycle| {
            let slot = now / sparse.config().slot_bytes as u64;
            ios[0].inject_tc.push_back(tc_packet(1, slot, sparse));
            ios[1].inject_tc.push_back(tc_packet(1, slot, dense));
            let mut granted = None;
            while granted.is_none() || datapath(sparse).outputs[east.index()].tc_tx.busy() {
                let started = tick(sparse, ios[0], now);
                assert_eq!(started, tick(dense, ios[1], now), "grants diverged at {now}");
                granted = granted.or(started.then_some(now));
                now += 1;
            }
            now
        };
        let now = send_one(&mut sparse, &mut dense, [&mut sparse_io, &mut dense_io], 0);
        let bits =
            |r: &RealTimeRouter| (datapath(r).had_candidate, datapath(r).sched.backlog_mask());
        let (had, backlog) = bits(&sparse);
        assert_ne!(had, backlog, "the +x bit is stale");
        for (from, to) in [(now, now + 300), (now + 300, now + 700)] {
            sparse.skip_quiet(from, to);
            let (had, backlog) = bits(&sparse);
            assert_eq!(had, backlog, "after {from}..{to}");
            for t in from..to {
                assert!(!tick(&mut dense, &mut dense_io, t), "an idle span sends nothing");
            }
        }
        send_one(&mut sparse, &mut dense, [&mut sparse_io, &mut dense_io], now + 700);
        assert_eq!(sparse.stats().tc_transmitted[east.index()], 2);
        assert_eq!(format!("{:?}", sparse.stats()), format!("{:?}", dense.stats()));
        assert_eq!(datapath(&sparse).had_candidate, datapath(&dense).had_candidate);
    }

    #[test]
    fn scheduler_time_honours_skew() {
        let mut r = router();
        assert_eq!(r.scheduler_time(40).raw(), 2);
        r.set_clock_skew(3);
        assert_eq!(r.scheduler_time(40).raw(), 5);
    }

    #[test]
    fn every_output_of_a_tick_arbitrates_on_the_skewed_clock() {
        // One early packet per output (zero horizon), all logically arriving
        // at slot 50. A router skewed 10 slots ahead must start all five in
        // slot 40 of real time, an unskewed one in slot 50: the scheduler
        // time `tick` computes once is the skewed one, on every port.
        let first_starts = |skew: u64| -> [Cycle; PORT_COUNT] {
            let mut r = router();
            r.set_clock_skew(skew);
            for port in Port::ALL {
                connect(&mut r, port.index() as u16 + 1, 9, 4, port.mask());
            }
            let mut io = io();
            for port in Port::ALL {
                io.inject_tc.push_back(tc_packet(port.index() as u16 + 1, 50, &r));
            }
            let mut starts = [Cycle::MAX; PORT_COUNT];
            for now in 0..1200u64 {
                io.begin_cycle();
                r.tick(now, &mut io);
                io.tx = Default::default();
                for (start, &sent) in starts.iter_mut().zip(&r.stats().tc_transmitted) {
                    if sent == 1 && *start == Cycle::MAX {
                        *start = now;
                    }
                }
            }
            starts
        };
        let slot = |cycle: Cycle| cycle / RouterConfig::default().slot_bytes as u64;
        assert_eq!(first_starts(0).map(slot), [50; PORT_COUNT]);
        assert_eq!(first_starts(10).map(slot), [40; PORT_COUNT]);
    }
}
