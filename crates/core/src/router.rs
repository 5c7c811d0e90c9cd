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

use std::sync::Arc;

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
use crate::stats::RouterStats;

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
#[derive(Debug)]
pub struct RealTimeRouter {
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
    control: ControlPort,
    memory: PacketMemory,
    sched: Scheduler,
    /// The input ports' shared latencies and flit buffer.
    timing: PortTiming,
    inputs: [InputPort; PORT_COUNT],
    outputs: [OutputPort; PORT_COUNT],
    /// The best-effort virtual channel across all five ports.
    be: WormholeChannel,
    /// Pacing of the time-constrained injection port.
    tc_inject: Serialiser,
    stats: RouterStats,
    wake: WakePolls,
    /// Event sink for cycle-accurate tracing (None = tracing off).
    #[cfg(feature = "metrics")]
    trace_sink: Option<SharedTraceSink>,
    /// Node identity stamped on emitted trace records.
    #[cfg(feature = "metrics")]
    trace_node: rtr_types::ids::NodeId,
}

/// A validated construction template for stamping out identical routers.
///
/// Building a mesh means constructing thousands of routers from one
/// [`RouterConfig`]. The template validates the configuration once and
/// pre-builds the shared read-only state — the configuration and the slot
/// clock — so [`RouterTemplate::build`] allocates only what is genuinely
/// per-router. Combined with a connection table, a packet memory and a
/// scheduler that all allocate by use, this is what makes 128×128 builds
/// cheap.
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

    /// Stamps out one router, with an empty connection table that holds no
    /// heap until the router installs its first connection.
    #[must_use]
    pub fn build(&self) -> RealTimeRouter {
        let config = Arc::clone(&self.config);
        let clock = self.clock;
        let timing = PortTiming::from_config(&config);
        RealTimeRouter {
            clock,
            skew_slots: 0,
            table: ConnectionTable::new(config.connections),
            control: ControlPort::new(clock),
            memory: PacketMemory::new(config.packet_slots),
            sched: Scheduler::new(config.scheduler, config.packet_slots, clock, config.late_policy),
            timing,
            inputs: Default::default(),
            outputs: Default::default(),
            be: WormholeChannel::new(timing.flit_capacity),
            tc_inject: Serialiser::default(),
            stats: RouterStats::default(),
            wake: WakePolls::default(),
            #[cfg(feature = "metrics")]
            trace_sink: None,
            #[cfg(feature = "metrics")]
            trace_node: rtr_types::ids::NodeId(0),
            config,
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
        &self.config
    }

    /// The scheduler clock.
    #[must_use]
    pub fn clock(&self) -> SlotClock {
        self.clock
    }

    /// Statistics counters.
    #[must_use]
    pub fn stats(&self) -> &RouterStats {
        &self.stats
    }

    /// Mutable statistics counters, for fault injection: tests (and the
    /// flight-recorder demo) corrupt a counter to force a conservation
    /// violation. Not for datapath use — the router maintains its own
    /// ledger.
    #[doc(hidden)]
    pub fn stats_mut(&mut self) -> &mut RouterStats {
        &mut self.stats
    }

    /// Checks the packet-conservation invariants (see
    /// [`RouterStats::check_conservation`]) against the live memory
    /// occupancy. Call between cycles.
    ///
    /// # Errors
    ///
    /// Returns a description of the first violated invariant.
    pub fn check_conservation(&self) -> Result<(), String> {
        self.stats.check_conservation(self.memory.occupied())
    }

    /// Attaches a trace sink and sets the node identity stamped on emitted
    /// records. Only available with the `metrics` feature.
    #[cfg(feature = "metrics")]
    pub fn set_trace_sink(&mut self, node: rtr_types::ids::NodeId, sink: SharedTraceSink) {
        self.trace_node = node;
        self.trace_sink = Some(sink);
    }

    /// Current packet-memory occupancy (buffered time-constrained packets).
    #[must_use]
    pub fn memory_occupied(&self) -> usize {
        self.memory.occupied()
    }

    /// Peak packet-memory occupancy observed so far.
    #[must_use]
    pub fn memory_high_water(&self) -> usize {
        self.memory.high_water()
    }

    /// Sets this router's bounded clock skew in slots (must stay well below
    /// half the clock range for the §4.3 windows to hold).
    pub fn set_clock_skew(&mut self, slots: u64) {
        self.skew_slots = slots;
    }

    /// The horizon register of an output port.
    #[must_use]
    pub fn horizon(&self, port: Port) -> u32 {
        self.outputs[port.index()].horizon
    }

    /// Applies a typed control command (Table 3) — what protocol software
    /// calls during channel establishment.
    ///
    /// # Errors
    ///
    /// See [`ControlError`].
    pub fn apply_control(&mut self, cmd: ControlCommand) -> Result<(), ControlError> {
        let mut horizons: [u32; PORT_COUNT] = std::array::from_fn(|i| self.outputs[i].horizon);
        self.control.apply(cmd, &mut self.table, &mut horizons)?;
        for (out, h) in self.outputs.iter_mut().zip(horizons) {
            out.horizon = h;
        }
        Ok(())
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
        let mut horizons: [u32; PORT_COUNT] = std::array::from_fn(|i| self.outputs[i].horizon);
        let r = self.control.write(reg, value, &mut self.table, &mut horizons)?;
        for (out, h) in self.outputs.iter_mut().zip(horizons) {
            out.horizon = h;
        }
        Ok(r)
    }

    /// Read access to the connection table (diagnostics, tests).
    #[must_use]
    pub fn connection_table(&self) -> &ConnectionTable {
        &self.table
    }

    /// The local scheduler time at `now`, including this router's skew.
    #[must_use]
    pub fn scheduler_time(&self, now: Cycle) -> LogicalTime {
        self.clock.wrap(now / self.config.slot_bytes as u64 + self.skew_slots)
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

    fn ingest_network_symbols(&mut self, now: Cycle, io: &mut ChipIo) {
        for idx in 1..PORT_COUNT {
            if let Some(symbol) = io.rx[idx].take() {
                match symbol {
                    LinkSymbol::TcStart(packet) => self.ingest_tc_start(now, idx, packet),
                    LinkSymbol::TcCont { .. } => {
                        if !self.inputs[idx].push_tc_cont(now, self.timing) {
                            // Orphan of a packet whose head a fault destroyed.
                            self.stats.tc_orphan_symbols += 1;
                        }
                    }
                    LinkSymbol::Be(byte) => {
                        let (input, timing) = (&mut self.inputs[idx], self.timing);
                        let outcome = input.accept_be(now, byte, &mut io.credit_out[idx], timing);
                        self.stats.be_dropped_faulty += u64::from(outcome.dropped);
                        if outcome.truncated {
                            self.stats.be_truncated += 1;
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
    fn ingest_tc_start(&mut self, now: Cycle, in_idx: usize, packet: Box<TcPacket>) {
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
                        || (self.clock.until(l, t) <= self.outputs[out_idx].horizon
                            && !self.be.waiting(&self.inputs, out_idx, now));
                    if transmittable
                        && !self.outputs[out_idx].tc_tx.busy()
                        && self.outputs[out_idx].pending_cut.is_none()
                    {
                        let key = rtr_types::key::SortKey::compute(
                            &self.clock,
                            l,
                            entry.delay,
                            t,
                            self.config.late_policy,
                        );
                        let wins = self
                            .sched
                            .select(out_port, t)
                            .is_none_or(|buffered| key < buffered.key);
                        if wins {
                            let t_config = &self.config.timing;
                            let cut_latency = t_config.sync_cycles
                                + t_config.header_cycles
                                + t_config.bus_grant_cycles;
                            let wire_len = packet.wire_len();
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
                            self.outputs[out_idx].pending_cut = Some(Box::new(PendingCut {
                                packet: rewritten,
                                start_at: now + cut_latency,
                                early: !on_time,
                            }));
                            if self.inputs[in_idx].push_tc_start_cut(wire_len) {
                                self.stats.tc_truncated += 1;
                            }
                            self.stats.tc_arrived += 1;
                            self.stats.tc_cut_through += 1;
                            if !on_time {
                                self.stats.tc_early_transmitted[out_idx] += 1;
                            }
                            return;
                        }
                    }
                }
            }
        }
        if self.inputs[in_idx].push_tc_start(now, packet, self.timing) {
            self.stats.tc_truncated += 1;
        }
    }

    fn run_injectors(&mut self, now: Cycle, io: &mut ChipIo) {
        // Time-constrained injection port: one byte per cycle.
        if self.tc_inject.step() {
            let fed = self.inputs[0].push_tc_cont(now, self.timing);
            debug_assert!(fed, "injection continuations always follow their start");
        } else if let Some(packet) = io.inject_tc.pop_front() {
            if packet.payload.len() != self.config.tc_data_bytes() {
                self.stats.tc_malformed += 1;
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
                self.stats.tc_injected += 1;
                trace_event!(
                    self,
                    now,
                    TraceEvent::TcInject {
                        conn: packet.conn,
                        src: packet.trace.source,
                        seq: packet.trace.sequence,
                    }
                );
                self.tc_inject.begin(packet.wire_len());
                // Boxed once here; every later hop passes the box on.
                self.ingest_tc_start(now, 0, Box::new(packet));
            }
        }

        self.be.inject(now, &mut self.inputs[0], &mut io.inject_be, self.timing);
    }

    fn process_tc_arrivals(&mut self, now: Cycle) {
        for idx in 0..PORT_COUNT {
            let Some(packet) = self.inputs[idx].take_ready_tc(now) else {
                continue;
            };
            self.stats.tc_arrived += 1;
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
                    self.stats.tc_aborted_teardown += 1;
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
                    self.stats.tc_dropped_no_conn += 1;
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
            let addr = match self.memory.store(rewritten) {
                Ok(addr) => addr,
                Err(_dropped) => {
                    self.stats.tc_dropped_no_buffer += 1;
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
            if self.sched.insert(leaf).is_err() {
                // Unreachable: leaves and memory slots are allocated 1:1.
                self.memory.free(addr);
                self.stats.tc_dropped_no_buffer += 1;
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
                self.stats.tc_buffered += 1;
            }
        }
    }

    /// Arbitrates one output for cycle `now`; `t` is the tick's scheduler
    /// time, computed once for all five outputs.
    fn drive_output(&mut self, now: Cycle, t: LogicalTime, out_idx: usize, io: &mut ChipIo) {
        let port = Port::from_index(out_idx);

        // 1. An in-flight time-constrained packet finishes its bytes.
        if self.outputs[out_idx].tc_tx.busy() {
            self.stats.tc_bytes[out_idx] += 1;
            if self.outputs[out_idx].tc_tx.advance(now, out_idx, io) {
                self.note_tc_delivered(now, io);
            }
            return;
        }

        // 1b. A virtual cut-through owns this output: start streaming once
        //     the header-processing latency elapses (until then best-effort
        //     bytes may still fill the gap below; buffered starts hold off).
        if let Some(pending) = &self.outputs[out_idx].pending_cut {
            if pending.start_at <= now {
                let pending = self.outputs[out_idx].pending_cut.take().expect("checked");
                self.transmit_tc(now, out_idx, pending.packet, pending.early, io);
            } else if !self.send_be(now, out_idx, io) {
                self.stats.idle_cycles[out_idx] += 1;
            }
            return;
        }

        // 2. Consult the (pipelined) comparator tree.
        let sched = &self.sched;
        let sched_latency = self.config.effective_sched_latency();
        let (selection, usable) = self.outputs[out_idx].selection_with_grant(
            now,
            sched.version(),
            t.raw(),
            sched_latency,
            || sched.select(port, t),
        );
        let granted = usable.then_some(selection).flatten();

        // On-time packets preempt best-effort traffic at a byte boundary.
        if let Some(sel) = granted {
            if sel.key.is_on_time(&self.clock) {
                self.start_tc(now, out_idx, sel, false, io);
                return;
            }
        }

        // 3. Best-effort flits consume excess bandwidth, ahead of early
        //    time-constrained packets.
        if self.send_be(now, out_idx, io) {
            return;
        }

        // 4. Early time-constrained packets within the horizon fill
        //    otherwise-idle cycles.
        if let Some(sel) = granted {
            if sel.key.is_early(&self.clock)
                && sel.key.time_field(&self.clock) <= self.outputs[out_idx].horizon
            {
                self.start_tc(now, out_idx, sel, true, io);
                return;
            }
        }

        self.stats.idle_cycles[out_idx] += 1;
    }

    /// Gives this cycle on `out_idx` to the best-effort channel and accounts
    /// what it did; returns whether a byte went.
    #[inline]
    fn send_be(&mut self, now: Cycle, out_idx: usize, io: &mut ChipIo) -> bool {
        let Some(BeSent { input: _input, head, delivered }) =
            self.be.send(now, &mut self.inputs, out_idx, io)
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
        self.stats.be_bytes[out_idx] += 1;
        match delivered {
            Some(Ok(_trace)) => {
                self.stats.be_delivered += 1;
                trace_event!(
                    self,
                    now,
                    TraceEvent::BeDeliver { src: _trace.source, seq: _trace.sequence }
                );
            }
            Some(Err(_)) => self.stats.be_malformed += 1,
            None => {}
        }
        true
    }

    /// Commits the scheduler's selection for `out_idx` and starts clocking
    /// the packet out.
    fn start_tc(
        &mut self,
        now: Cycle,
        out_idx: usize,
        sel: crate::sched::tree::Selection,
        early: bool,
        io: &mut ChipIo,
    ) {
        let port = Port::from_index(out_idx);
        let packet = self
            .memory
            .peek(sel.addr)
            .expect("selected leaf points at an idle memory slot")
            .clone();
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
        if let Some(freed) = self.sched.commit(sel.leaf, port) {
            self.memory.free(freed);
            self.stats.tc_retired += 1;
            trace_event!(self, now, TraceEvent::SlotFree { slot: freed.0 });
        }
        if early {
            self.stats.tc_early_transmitted[out_idx] += 1;
        }
        if sel.key.is_aliased() {
            self.stats.aliased_keys += 1;
        }
        self.transmit_tc(now, out_idx, packet, early, io);
    }

    /// Puts a packet's start symbol on `out_idx` — a committed selection or
    /// a virtual cut-through whose header latency has elapsed.
    fn transmit_tc(
        &mut self,
        now: Cycle,
        out_idx: usize,
        packet: TcPacket,
        _early: bool,
        io: &mut ChipIo,
    ) {
        self.stats.tc_transmitted[out_idx] += 1;
        self.stats.tc_bytes[out_idx] += 1;
        *self.stats.tc_bytes_by_conn.entry((out_idx, packet.conn)).or_insert(0) +=
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
        if self.outputs[out_idx].tc_tx.start(now, out_idx, packet, io) {
            self.note_tc_delivered(now, io);
        }
    }

    /// Accounts the packet the serialiser just pushed onto `io.delivered_tc`.
    fn note_tc_delivered(&mut self, _now: Cycle, _io: &ChipIo) {
        self.stats.tc_delivered += 1;
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
        // Credits freed downstream arrive first so this cycle can use them.
        self.be.ingest_credits(&io.credit_in);
        self.ingest_network_symbols(now, io);
        self.run_injectors(now, io);
        self.be.collect_requests(&self.inputs, now);
        self.process_tc_arrivals(now);
        let t = self.scheduler_time(now);
        for out_idx in 0..PORT_COUNT {
            self.drive_output(now, t, out_idx, io);
        }
    }

    fn flit_buffer_bytes(&self) -> usize {
        self.config.be_path_bytes()
    }

    fn set_output_credits(&mut self, port: Port, bytes: u32) {
        self.be.set_credits(port, bytes);
    }

    fn gauges(&self) -> Option<rtr_types::chip::ChipGauges> {
        let mut g = rtr_types::chip::ChipGauges {
            memory_occupied: self.memory.occupied(),
            memory_capacity: self.memory.capacity(),
            sched_backlog: self.sched.len(),
            ..Default::default()
        };
        for i in 0..PORT_COUNT {
            g.queue_depth[i] = self.sched.backlog_for(Port::from_index(i));
            g.horizon[i] = self.outputs[i].horizon;
            g.be_buffered[i] = self.inputs[i].be_occupancy();
        }
        Some(g)
    }

    fn next_event(&self, now: Cycle) -> Option<Cycle> {
        // Anything that makes progress every cycle forces a tick next cycle.
        if self.tc_inject.busy()
            || self.inputs.iter().any(InputPort::tc_rx_active)
            || self.outputs.iter().any(|out| out.tc_tx.busy())
        {
            return self.wake.short(now);
        }
        let mut earliest = self.be.next_event(&self.inputs, now);
        if earliest.is_some_and(|at| at <= now) {
            return self.wake.short(now);
        }
        let mut merge = |at: Cycle| {
            let at = at.max(now + 1);
            earliest = Some(earliest.map_or(at, |e: Cycle| e.min(at)));
        };

        // A port whose candidate set changed since its last selection needs
        // no tick to notice: `skip_quiet` settles the grant pipeline over a
        // skipped span (`OutputPort::settle_pipeline`).
        self.dbg_check_backlog();
        for out in &self.outputs {
            if let Some(pending) = &out.pending_cut {
                merge(pending.start_at);
            }
        }

        for input in &self.inputs {
            if let Some(ready) = input.next_tc_ready() {
                merge(ready);
            }
        }

        // Buffered time-constrained packets wake the chip when they become
        // transmittable: on-time (or late) packets resolve through the EDF
        // grant pipeline by stepping; early packets sleep until they enter a
        // subscribed output's horizon window.
        let t = self.scheduler_time(now);
        let slot_bytes = self.config.slot_bytes as u64;
        for (_, leaf) in self.sched.iter() {
            if !self.clock.is_early(leaf.l, t) {
                return self.wake.short(now);
            }
            for port in rtr_types::ids::ports_in_mask(leaf.port_mask) {
                let horizon = self.outputs[port.index()].horizon;
                let delta =
                    u64::from(self.clock.until(leaf.l, t)).saturating_sub(u64::from(horizon));
                if delta == 0 {
                    return self.wake.short(now);
                }
                // The scheduler slot advances exactly when `now` crosses a
                // multiple of `slot_bytes`, so the packet enters the horizon
                // at the cycle beginning slot `now / slot_bytes + delta`.
                merge((now / slot_bytes + delta) * slot_bytes);
            }
        }

        self.wake.answer(now, earliest)
    }

    fn skip_quiet(&mut self, from: Cycle, to: Cycle) {
        // Every quiescent cycle ends with all five outputs taking an idle
        // path in `drive_output`, so account the skipped span as idle time.
        let skipped = to - from;
        for idle in &mut self.stats.idle_cycles {
            *idle += skipped;
        }
        // Settle stale grant pipelines: a port whose `had_candidate` flag
        // disagrees with the scheduler's live backlog records, at the
        // span's first cycle, the transition the first dense tick of the
        // span would have recorded on its selection recompute. Nothing can
        // transmit inside a provably quiet span (on-time backlog forces
        // per-cycle ticks via `next_event`'s short answers), so the
        // transition is all that recompute would have done.
        self.dbg_check_backlog();
        let latency = self.config.effective_sched_latency();
        for (idx, out) in self.outputs.iter_mut().enumerate() {
            let has_candidate = self.sched.backlog_for(Port::from_index(idx)) > 0;
            if out.had_candidate() != has_candidate {
                out.settle_pipeline(from, has_candidate, latency);
            }
        }
    }

    fn wake_stats(&self) -> Option<WakeStats> {
        Some(self.wake.snapshot())
    }

    fn counters(&self, emit: &mut dyn FnMut(&'static str, u64)) {
        self.stats.emit_counters(emit);
        emit("sched.key_computations", self.sched.key_computations());
    }

    fn heap_bytes_estimate(&self) -> usize {
        // The dominant allocations: packet memory, scheduler leaves, the
        // connection table's rows, and the per-port queues and staging
        // buffers. The shared `Arc<RouterConfig>` is charged to the
        // template, not to every router.
        self.memory.heap_bytes()
            + self.sched.heap_bytes()
            + self.table.heap_bytes()
            + self.inputs.iter().map(InputPort::heap_bytes).sum::<usize>()
            + self.be.heap_bytes()
    }

    fn check_conservation(&self) -> Result<(), String> {
        RealTimeRouter::check_conservation(self)
    }

    fn abort_partial_rx(&mut self) -> [u8; PORT_COUNT] {
        let mut dropped = [0u8; PORT_COUNT];
        for (idx, input) in self.inputs.iter_mut().enumerate() {
            let aborted = input.abort_partial();
            if aborted.tc_aborted {
                self.stats.tc_truncated += 1;
            }
            if aborted.be_truncated {
                self.stats.be_truncated += 1;
            }
            self.stats.be_dropped_faulty += u64::from(aborted.be_dropped);
            dropped[idx] = aborted.be_dropped;
        }
        // The injection machinery feeds port 0 from inside the node; its
        // mid-flight packet died with the port's reassembly registers, and
        // there is no upstream link to refund.
        self.tc_inject = Serialiser::default();
        self.be.abort_injection();
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
        r.apply_control(ControlCommand::SetConnection {
            incoming: ConnectionId(1),
            outgoing: ConnectionId(1),
            delay: 4,
            out_mask: Port::Local.mask(),
        })
        .unwrap();
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
        r.apply_control(ControlCommand::SetConnection {
            incoming: ConnectionId(1),
            outgoing: ConnectionId(1),
            delay: 4,
            out_mask: Port::Local.mask(),
        })
        .unwrap();
        let mut io = io();
        io.inject_tc.push_back(tc_packet(1, 0, &r));
        let mut now = 0;
        run(&mut r, &mut io, &mut now, 200);
        assert_eq!(r.stats().tc_delivered, 1);
        assert_eq!((r.memory.occupied(), r.sched.len()), (0, 0), "stored, sent and freed");
        let port_queues = r.inputs.iter().map(InputPort::heap_bytes).sum::<usize>()
            + r.be.heap_bytes()
            + r.table.heap_bytes();
        let held = r.heap_bytes_estimate() - port_queues;
        assert_eq!(held, r.memory.heap_bytes() + r.sched.heap_bytes());
        assert!(held > 0, "capacity actually held is reported");
        assert!(held < 1024, "one buffered packet left {held} B of memory and scheduler state");
    }

    /// `slot_bytes = 256` is the largest slot `RouterConfig::validate`
    /// admits: the symbol counts narrowed to `u32` hold its wire length and
    /// the last continuation index is 255, the top of its byte. One packet
    /// crosses injection, a network hop and local delivery at the cycle the
    /// pipeline arithmetic predicts, and each port counts every byte.
    #[test]
    fn a_packet_at_the_largest_slot_crosses_injection_a_hop_and_delivery() {
        let config = RouterConfig { slot_bytes: 256, ..RouterConfig::default() };
        let wire = config.slot_bytes as u64;
        let (east, west) = (Port::Dir(Direction::XPlus), Port::Dir(Direction::XMinus));
        let [mut up, mut down] = [east, Port::Local].map(|out| {
            let mut r = RealTimeRouter::new(config.clone()).unwrap();
            r.apply_control(ControlCommand::SetConnection {
                incoming: ConnectionId(1),
                outgoing: ConnectionId(1),
                delay: 1,
                out_mask: out.mask(),
            })
            .unwrap();
            r
        });
        let (mut up_io, mut down_io) = (io(), io());
        up_io.inject_tc.push_back(tc_packet(1, 0, &up));
        let mut on_wire = None;
        let mut indices = Vec::new();
        for now in 0..1_000 {
            up_io.begin_cycle();
            down_io.begin_cycle();
            // What the upstream router drove last cycle arrives now.
            down_io.rx[west.index()] = on_wire.take();
            up.tick(now, &mut up_io);
            down.tick(now, &mut down_io);
            on_wire = up_io.tx[east.index()].take();
            if let Some(LinkSymbol::TcCont { index }) = on_wire {
                indices.push(index);
            }
        }
        assert_eq!(indices, (1..=255).collect::<Vec<u8>>(), "continuation indices fill the byte");
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

    #[test]
    fn torn_down_connection_aborts_arrivals_into_its_own_column() {
        let mut r = router();
        r.apply_control(ControlCommand::SetConnection {
            incoming: ConnectionId(3),
            outgoing: ConnectionId(3),
            delay: 4,
            out_mask: Port::Local.mask(),
        })
        .unwrap();
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
        r.apply_control(ControlCommand::SetConnection {
            incoming: ConnectionId(3),
            outgoing: ConnectionId(3),
            delay: 4,
            out_mask: Port::Local.mask(),
        })
        .unwrap();
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
        r.apply_control(ControlCommand::SetConnection {
            incoming: ConnectionId(2),
            outgoing: ConnectionId(9),
            delay: 8,
            out_mask: Port::Dir(Direction::XPlus).mask(),
        })
        .unwrap();
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
        r.apply_control(ControlCommand::SetConnection {
            incoming: ConnectionId(1),
            outgoing: ConnectionId(1),
            delay: 4,
            out_mask: mask,
        })
        .unwrap();
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
        r.apply_control(ControlCommand::SetConnection {
            incoming: ConnectionId(1),
            outgoing: ConnectionId(1),
            delay: 2,
            out_mask: out.mask(),
        })
        .unwrap();
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
        // Find the TC packet's symbols; they must be contiguous (20 cycles)
        // and must appear while BE bytes still remain (preemption).
        let tc_start = symbols
            .iter()
            .position(|(_, s)| matches!(s, LinkSymbol::TcStart(_)))
            .expect("TC packet must be transmitted");
        let be_after_tc = symbols[tc_start..].iter().any(|(_, s)| matches!(s, LinkSymbol::Be(_)));
        assert!(be_after_tc, "best-effort stream resumes after preemption");
        for k in 1..20 {
            assert!(
                matches!(symbols[tc_start + k].1, LinkSymbol::TcCont { .. }),
                "TC symbols must be contiguous at byte level"
            );
        }
    }

    #[test]
    fn early_packet_waits_for_logical_arrival_with_zero_horizon() {
        let mut r = router();
        let out = Port::Dir(Direction::XPlus);
        r.apply_control(ControlCommand::SetConnection {
            incoming: ConnectionId(1),
            outgoing: ConnectionId(1),
            delay: 4,
            out_mask: out.mask(),
        })
        .unwrap();
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
        r.apply_control(ControlCommand::SetConnection {
            incoming: ConnectionId(1),
            outgoing: ConnectionId(1),
            delay: 4,
            out_mask: out.mask(),
        })
        .unwrap();
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
        r.apply_control(ControlCommand::SetConnection {
            incoming: ConnectionId(1),
            outgoing: ConnectionId(1),
            delay: 100,
            out_mask: out.mask(),
        })
        .unwrap();
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
            r.apply_control(ControlCommand::SetConnection {
                incoming: ConnectionId(1),
                outgoing: ConnectionId(1),
                delay: 8,
                out_mask: out.mask(),
            })
            .unwrap();
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
        r.apply_control(ControlCommand::SetConnection {
            incoming: ConnectionId(2),
            outgoing: ConnectionId(9),
            delay: 6,
            out_mask: out.mask(),
        })
        .unwrap();
        let mut io = io();
        io.inject_tc.push_back(tc_packet(2, 0, &r));
        let mut symbols = Vec::new();
        for now in 0..300u64 {
            io.begin_cycle();
            r.tick(now, &mut io);
            if let Some(s) = io.tx[out.index()].take() {
                symbols.push((now, s));
            }
            io.tx = Default::default();
        }
        assert_eq!(symbols.len(), 20);
        let (start, first) = &symbols[0];
        let LinkSymbol::TcStart(p) = first else { panic!("start first") };
        assert_eq!(p.conn, ConnectionId(9), "header rewritten on the fly");
        assert_eq!(p.arrival.raw(), 6, "timestamp = ℓ + d");
        for (k, (cycle, _)) in symbols.iter().enumerate() {
            assert_eq!(*cycle, start + k as u64, "symbols are contiguous");
        }
    }

    #[test]
    fn cut_through_defers_to_buffered_packet_with_smaller_key() {
        let out = Port::Dir(Direction::XPlus);
        let mut r =
            RealTimeRouter::new(RouterConfig { tc_cut_through: true, ..RouterConfig::default() })
                .unwrap();
        for conn in [1u16, 2] {
            r.apply_control(ControlCommand::SetConnection {
                incoming: ConnectionId(conn),
                outgoing: ConnectionId(conn),
                delay: if conn == 1 { 4 } else { 100 },
                out_mask: out.mask(),
            })
            .unwrap();
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
        r.apply_control(ControlCommand::SetConnection {
            incoming: ConnectionId(1),
            outgoing: ConnectionId(1),
            delay: 4,
            out_mask: mask,
        })
        .unwrap();
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
        r.apply_control(ControlCommand::SetConnection {
            incoming: ConnectionId(1),
            outgoing: ConnectionId(1),
            delay: 4,
            out_mask: out.mask(),
        })
        .unwrap();
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
        r.apply_control(ControlCommand::SetConnection {
            incoming: ConnectionId(1),
            outgoing: ConnectionId(1),
            delay: 4,
            out_mask: out.mask(),
        })
        .unwrap();
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
            r.apply_control(ControlCommand::SetConnection {
                incoming: ConnectionId(i as u16 + 1),
                outgoing: ConnectionId(i as u16 + 1),
                delay: 4,
                out_mask: Port::Dir(dir).mask(),
            })
            .unwrap();
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
            r.apply_control(ControlCommand::SetConnection {
                incoming: ConnectionId(1),
                outgoing: ConnectionId(1),
                delay: 8,
                out_mask: out.mask(),
            })
            .unwrap();
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
        r.apply_control(ControlCommand::SetConnection {
            incoming: ConnectionId(1),
            outgoing: ConnectionId(1),
            delay: 4,
            out_mask: Port::Local.mask(),
        })
        .unwrap();
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
        r.apply_control(ControlCommand::SetConnection {
            incoming: ConnectionId(1),
            outgoing: ConnectionId(1),
            delay: 4,
            out_mask: Port::Local.mask(),
        })
        .unwrap();
        let mut io = io();
        io.inject_tc.push_back(tc_packet(1, 0, &r)); // delivered
        io.inject_tc.push_back(tc_packet(7, 0, &r)); // dropped: no connection
        let mut now = 0;
        run(&mut r, &mut io, &mut now, 300);
        r.check_conservation().unwrap();
        assert_eq!(r.stats().tc_buffered, 1);
        assert_eq!(r.stats().tc_retired, 1);
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
                r.apply_control(ControlCommand::SetConnection {
                    incoming: ConnectionId(port.index() as u16 + 1),
                    outgoing: ConnectionId(9),
                    delay: 4,
                    out_mask: port.mask(),
                })
                .unwrap();
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
