//! The network simulator.
//!
//! Every simulated cycle runs through one kernel (`Simulator::cycle`):
//! apply the timed operations due now (faults, then control-plane table
//! writes — one agenda), deliver link arrivals (data symbols and
//! reverse-flowing credits) into per-node [`ChipIo`] bundles, run the
//! registered traffic sources, tick the chips, move driven symbols onto the
//! links (a time-constrained head takes its packet's continuations with it:
//! the link settles them by the clock, see [`crate::link`]),
//! route returned credits back to the upstream transmitter, and drain
//! deliveries into per-node [`DeliveryLog`]s. Every cycle ticks only the
//! chips that can act — handed an arrival or credits, whose source ran,
//! touched from outside or by the agenda, or due by their own
//! [`Chip::next_event`] — and reconciles the rest lazily.
//!
//! Every chip's and link's next wake lives in one record, a min-tournament
//! ([`WakeQueue`]): a handle is due iff its wake is at or before the cycle,
//! a mark brings a wake forward to the cycle in progress, and a poll sets
//! it to the answer, so nothing in it is stale and nothing is carried. A
//! cycle reads the due chips and links from it, visits only those links,
//! and polls each link it visited or a chip drove once at its end; the
//! drive calls leap over quiet spans to the record's earliest wake. The
//! results are bit-identical to ticking every chip and visiting every link
//! on every cycle.
//!
//! The simulation is fully deterministic: node order is fixed, all queues
//! are FIFO, and sources that need randomness own their seeded generators.

use std::collections::BTreeMap;

use rtr_events::{QueueStats, WakeHandle, WakeQueue};
use rtr_metrics::{MetricsRegistry, MetricsSnapshot, Phase, PhaseProfiler};
use rtr_types::chip::{Chip, ChipIo, WakeStats};
use rtr_types::control::{ControlCommand, ControlError};
use rtr_types::ids::{Direction, NodeId, Port};
use rtr_types::packet::{BePacket, TcPacket};
use rtr_types::time::Cycle;

use crate::adjacency::LinkTable;
use crate::fault::{FaultKind, FaultSchedule, FaultStats};
use crate::link::{LinkLedger, LinkUsage};
use crate::metrics::SimMetrics;
use crate::source::TrafficSource;
use crate::stats::{DeliveryLog, OccupancyHistory};
use crate::topology::Topology;

/// Whether a node's injection queues hold anything — work no chip's
/// `next_event` describes, so the simulator keeps such a chip due instead.
fn injecting(io: &ChipIo) -> bool {
    !(io.inject_tc.is_empty() && io.inject_be.is_empty())
}

/// Whether link `li`'s receiving and transmitting nodes are up.
fn live_ends(adj: &LinkTable, crashed: &[bool], li: usize) -> (bool, bool) {
    (!crashed[adj.dst(li).node.index()], !crashed[adj.owner_of(li).index()])
}

/// The wake of link `li`: the next arrival a live end must see (a link
/// with a crashed end wakes for its live end alone; the restore marks it).
fn link_wake(adj: &LinkTable, crashed: &[bool], li: usize) -> Option<Cycle> {
    let link = adj.link(li);
    match live_ends(adj, crashed, li) {
        (true, true) => link.next_event(),
        (rx, tx) => link.wake(rx, tx),
    }
}

/// What a timed operation does when its cycle comes.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Op {
    /// A scripted fault (or repair).
    Fault(FaultKind),
    /// A Table 3 write to the chip at the node.
    Control(NodeId, ControlCommand),
}

/// The agenda of timed operations — scripted faults and scheduled
/// control-plane writes alike. The kernel applies the due prefix at the
/// start of the step simulating each op's cycle, *before* link arrivals,
/// and the leap planner clamps its quiet targets to [`Agenda::next_at`],
/// so every drive mode observes each op at exactly the same cycle boundary
/// and no leap ever crosses one.
struct Agenda {
    /// Pending ops keyed `(cycle, is a control op, filing order)`: at a
    /// shared cycle faults apply before control writes, and within a plane
    /// ops apply in the order they were filed.
    ops: BTreeMap<(Cycle, bool, u64), Op>,
    /// Ops filed so far (the key's tie-breaker).
    filed: u64,
}

impl Agenda {
    fn file(&mut self, at: Cycle, op: Op) {
        self.ops.insert((at, matches!(op, Op::Control(..)), self.filed), op);
        self.filed += 1;
    }

    /// The cycle of the earliest pending op.
    fn next_at(&self) -> Option<Cycle> {
        self.ops.first_key_value().map(|(key, _)| key.0)
    }

    /// Removes and returns the earliest pending op if it is due by `now`.
    fn pop_due(&mut self, now: Cycle) -> Option<Op> {
        let entry = self.ops.first_entry()?;
        (entry.key().0 <= now).then(|| entry.remove())
    }
}

/// The network simulator, generic over the router chip model.
pub struct Simulator<C: Chip> {
    topo: Topology,
    chips: Vec<C>,
    ios: Vec<ChipIo>,
    logs: Vec<DeliveryLog>,
    /// The wired links in CSR form: pipe state, usage counters, and the
    /// forward/reverse adjacency, all indexed by dense global link index.
    adj: LinkTable,
    /// The registered sources: home node, the source, and the first cycle
    /// its `pre_cycle` must run again — its own `next_event` answer as of
    /// its last run (0 = not run yet), so the per-cycle source pass costs a
    /// compare for a source that has promised silence. It is the source's
    /// only wake: the leap planner clamps to the earliest.
    sources: Vec<(NodeId, Box<dyn TrafficSource>, Cycle)>,
    /// Sources whose `next_event` answered `None`, in the order they ran
    /// out: they never run again, and only their counters are read.
    retired: Vec<Box<dyn TrafficSource>>,
    /// Sample chip gauges every N cycles (None = sampling off).
    gauge_every: Option<Cycle>,
    gauge_samples: OccupancyHistory,
    /// The chips the last cycle ticked (live node indices, ascending): the
    /// only [`ChipIo`]s left to clear, and the next cycle's list buffer.
    tick_list: Vec<u32>,
    /// The one wake record: handle `i < n` is the chip at node `i`, handle
    /// `n + li` the link at global CSR index `li` (see [`LinkTable`]). A
    /// chip's wake is its [`Chip::next_event`] answer polled right after
    /// its last tick (`now + 1` while it has queued injections), brought
    /// forward to the cycle in progress by an arrival, a run of its source,
    /// an agenda op or external mutation; a link's is the next arrival a
    /// live end must see. A traffic source's `due` is its only wake. Empty
    /// until the first cycle, or an injection before it, allocates it.
    wakes: WakeQueue,
    /// The handles a cycle read due as it began, sorted (chips, then
    /// links), followed by the links its sends made due: the links it
    /// visits and polls at its end. The next cycle's buffer.
    due: Vec<WakeHandle>,
    /// Chip ticks actually executed (a cycle ticks only the due chips;
    /// leaped cycles execute none).
    ticks_executed: u64,
    /// Per-chip lazy idle-accounting stamp: the first cycle not yet
    /// accounted to the chip, either by a tick (which covers the cycle it
    /// runs) or by a [`Chip::skip_quiet`] reconciliation. Cycles and leaps
    /// leave quiet chips untouched; the span
    /// `unticked[i]..tick_cycle` is reconciled in one `skip_quiet` call
    /// the next time chip `i` ticks, and [`Simulator::settle_idle`]
    /// flushes every outstanding span at the public drive-call boundaries.
    unticked: Vec<Cycle>,
    /// Debug-build checksum: cycles accounted per chip (ticked +
    /// skip-reconciled). Must equal `now` whenever the simulator settles —
    /// the lazy reconciliation proven against the one-tick-per-chip-per-cycle
    /// count of ticking every chip.
    #[cfg(debug_assertions)]
    dbg_accounted: Vec<Cycle>,
    /// Counter registry and phase profiler (both zero-sized no-ops
    /// without the `metrics` feature).
    metrics: SimMetrics,
    /// Pending faults and control-plane writes.
    agenda: Agenda,
    /// Base seed for the per-link flaky generators (each link derives its
    /// own stream, so one flaky link's traffic cannot perturb another's).
    fault_seed: u64,
    /// Counts of fault events actually applied (the loss columns live in
    /// the per-link ledgers; [`Simulator::fault_stats`] merges both).
    fault_events: FaultStats,
    /// Per-node crash flags: a crashed chip is not ticked, receives no
    /// arrivals or credits, and its sources stay silent until restore.
    crashed: Vec<bool>,
    control_events: ControlStats,
    /// The most recent rejected control ops, oldest first (at most
    /// [`REJECTION_LOG_CAP`]).
    control_rejections: Vec<(Cycle, NodeId, ControlError)>,
    now: Cycle,
}

/// How many rejected control ops [`Simulator::control_rejections`] keeps.
const REJECTION_LOG_CAP: usize = 16;

/// Counters for the scheduled control-operation plane (see
/// [`Simulator::schedule_control`]).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct ControlStats {
    /// Writes the chip accepted.
    pub ops_applied: u64,
    /// Writes the chip refused with a [`ControlError`]; the error is not
    /// propagated — the schedule keeps running like hardware would — but
    /// the most recent ones are kept in [`Simulator::control_rejections`].
    pub ops_rejected: u64,
}

impl ControlStats {
    /// Emits the counters under `control.*` names.
    pub fn emit_counters(&self, emit: &mut impl FnMut(&'static str, u64)) {
        emit("control.ops_applied", self.ops_applied);
        emit("control.ops_rejected", self.ops_rejected);
    }
}

impl<C: Chip> std::fmt::Debug for Simulator<C> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Simulator")
            .field("nodes", &self.topo.len())
            .field("now", &self.now)
            .finish_non_exhaustive()
    }
}

impl<C: Chip> Simulator<C> {
    /// Builds a simulator over `topo`, creating one chip per node with
    /// `make_chip` and zero-latency wires.
    ///
    /// # Errors
    ///
    /// Propagates the first chip-construction error.
    pub fn build<E>(
        topo: Topology,
        make_chip: impl FnMut(NodeId) -> Result<C, E>,
    ) -> Result<Self, E> {
        Self::build_with_latency(topo, 0, make_chip)
    }

    /// Builds a simulator with the given extra wire latency on every link.
    ///
    /// # Errors
    ///
    /// Propagates the first chip-construction error.
    pub fn build_with_latency<E>(
        topo: Topology,
        link_latency: Cycle,
        mut make_chip: impl FnMut(NodeId) -> Result<C, E>,
    ) -> Result<Self, E> {
        let n = topo.len();
        let mut chips = Vec::with_capacity(n);
        for node in topo.nodes() {
            chips.push(make_chip(node)?);
        }
        let adj = LinkTable::build(&topo, link_latency);
        for li in 0..adj.len() {
            // Initialise the transmitter's credit pool from the receiver's
            // flit buffer.
            let bytes = chips[adj.dst(li).node.index()].flit_buffer_bytes() as u32;
            chips[adj.owner_of(li).index()].set_output_credits(Port::Dir(adj.dir(li)), bytes);
        }
        Ok(Simulator {
            chips,
            ios: (0..n).map(|_| ChipIo::new()).collect(),
            logs: (0..n).map(|_| DeliveryLog::default()).collect(),
            adj,
            sources: Vec::new(),
            retired: Vec::new(),
            gauge_every: None,
            gauge_samples: OccupancyHistory::default(),
            tick_list: Vec::with_capacity(n),
            wakes: WakeQueue::default(),
            due: Vec::new(),
            ticks_executed: 0,
            unticked: vec![0; n],
            #[cfg(debug_assertions)]
            dbg_accounted: vec![0; n],
            metrics: SimMetrics::new(),
            agenda: Agenda { ops: BTreeMap::new(), filed: 0 },
            fault_seed: 1,
            fault_events: FaultStats::default(),
            crashed: vec![false; n],
            control_events: ControlStats::default(),
            control_rejections: Vec::new(),
            now: 0,
            topo,
        })
    }

    /// The wired topology.
    #[must_use]
    pub fn topology(&self) -> &Topology {
        &self.topo
    }

    /// Current cycle.
    #[must_use]
    pub fn now(&self) -> Cycle {
        self.now
    }

    /// The chip at a node.
    #[must_use]
    pub fn chip(&self, node: NodeId) -> &C {
        &self.chips[node.index()]
    }

    /// Mutable access to the chip at a node (e.g. for control-interface
    /// writes during channel establishment). Settles that chip's
    /// outstanding lazy idle accounting first, so its counters are current
    /// before external code reads or mutates it — that chip's only: every
    /// drive call settles all chips before it returns, and a scan of the
    /// whole mesh per table write is what channel establishment on a
    /// 128×128 mesh used to spend its time on.
    /// The next cycle ticks the chip and re-polls its wake — once a cycle
    /// has run: the first cycle polls every chip nothing marked before its
    /// tick, so a table written before it builds no datapath where nothing
    /// flows.
    pub fn chip_mut(&mut self, node: NodeId) -> &mut C {
        let i = node.index();
        self.settle_chip(i);
        if self.polled() {
            self.mark(i);
        }
        &mut self.chips[i]
    }

    /// Makes every live chip tick and every link be visited on the next
    /// cycle, the first included, whatever their wakes say: the every-chip
    /// reference drive (`rtr_bench::churn::DriveMode::EveryChip`) calls it
    /// before each [`Simulator::step`], so the reference does not lean on
    /// the wakes or the first cycle's poll it is held against.
    #[doc(hidden)]
    pub fn wake_every_chip(&mut self) {
        self.allocate_wakes();
        for handle in 0..self.chips.len() + self.adj.len() {
            self.mark(handle);
        }
    }

    /// Whether the first cycle has run. Before it no chip has been polled
    /// and none needs a mark: the first cycle polls every live chip that
    /// nothing marked before its tick (`prime`); no link has a wake yet
    /// but what a mark gave it.
    fn polled(&self) -> bool {
        self.now > 0
    }

    /// Allocates the wake record if no cycle and no injection has yet:
    /// every handle in it is without a wake, every chip never polled.
    fn allocate_wakes(&mut self) {
        if self.wakes.is_empty() {
            let handles = self.chips.len() + self.adj.len();
            self.wakes = WakeQueue::with_capacity(handles);
            for _ in 0..handles {
                self.wakes.register();
            }
        }
    }

    /// Brings a handle's wake forward to the cycle in progress.
    fn mark(&mut self, handle: usize) {
        self.wakes.mark(WakeHandle(handle as u32), self.now);
    }

    /// Marks chip `i` in the cycle in progress, adding it to the cycle's
    /// tick list `list` if the mark made it due.
    fn mark_chip(&mut self, i: usize, list: &mut Vec<u32>) {
        if self.wakes.mark(WakeHandle(i as u32), self.now) {
            list.push(i as u32);
        }
    }

    /// Marks link `li`, which a send changed, adding it to the links the
    /// cycle polls at its end (`due`) if the mark made it due.
    fn mark_link(&mut self, li: usize) {
        let h = WakeHandle((self.chips.len() + li) as u32);
        if self.wakes.mark(h, self.now) {
            self.due.push(h);
        }
    }

    /// Sets link `li`'s wake to what a poll of it answers, and returns it.
    fn poll_link(&mut self, li: usize) -> Cycle {
        let at = link_wake(&self.adj, &self.crashed, li).unwrap_or(Cycle::MAX);
        self.wakes.set_wake(WakeHandle((self.chips.len() + li) as u32), at);
        at
    }

    /// The delivery log of a node.
    #[must_use]
    pub fn log(&self, node: NodeId) -> &DeliveryLog {
        &self.logs[node.index()]
    }

    /// Registers a traffic source at a node (several per node are allowed;
    /// they run in registration order). It is due at once: the next cycle
    /// runs it.
    pub fn add_source(&mut self, node: NodeId, source: Box<dyn TrafficSource>) {
        self.sources.push((node, source, 0));
    }

    /// Queues a time-constrained packet for injection at a node.
    ///
    /// The chip ticks on the next cycle (the first cycle included: its
    /// pre-tick poll reads no injection queue), and every cycle that leaves
    /// it a queued packet ticks it again, so no drive call sleeps or leaps
    /// past a live chip's queued injections.
    pub fn inject_tc(&mut self, node: NodeId, packet: TcPacket) {
        self.ios[node.index()].inject_tc.push_back(packet);
        self.allocate_wakes();
        self.mark(node.index());
    }

    /// Queues a best-effort packet for injection at a node (see
    /// [`Simulator::inject_tc`]).
    pub fn inject_be(&mut self, node: NodeId, packet: BePacket) {
        self.ios[node.index()].inject_be.push_back(packet);
        self.allocate_wakes();
        self.mark(node.index());
    }

    /// Starts sampling every chip's occupancy gauges once per `every`
    /// cycles (after that cycle's tick). Chips whose [`Chip::gauges`]
    /// returns `None` contribute zeroed gauges.
    ///
    /// # Panics
    ///
    /// Panics if `every` is zero.
    pub fn enable_gauge_sampling(&mut self, every: Cycle) {
        assert!(every > 0, "sampling period must be positive");
        self.gauge_every = Some(every);
    }

    /// The occupancy samples collected so far (empty unless
    /// [`Simulator::enable_gauge_sampling`] was called).
    #[must_use]
    pub fn gauge_samples(&self) -> &OccupancyHistory {
        &self.gauge_samples
    }

    /// Does nothing: chips always tick on the calling thread. Kept only for
    /// its one caller, the `mesh.pool.speedup_2w` probe in
    /// `benchmark/src/probes.rs`; ROADMAP 1(d) deletes it with that probe.
    #[doc(hidden)]
    pub fn set_parallelism(&mut self, _workers: usize) {}

    /// Operation counters of the wake record. The record lives as long as
    /// the simulator, so the counters cover the whole run (all zero before
    /// its first cycle).
    #[must_use]
    pub fn event_core_stats(&self) -> QueueStats {
        self.wakes.stats()
    }

    /// The merged wake-precision telemetry of every chip that keeps any
    /// (see [`rtr_types::chip::WakeStats`]), or `None` when no chip does.
    fn wake_precision(&self) -> Option<WakeStats> {
        let mut merged: Option<WakeStats> = None;
        for chip in &self.chips {
            if let Some(stats) = chip.wake_stats() {
                merged.get_or_insert_with(WakeStats::default).merge(&stats);
            }
        }
        merged
    }

    /// The counter registry. A zero-sized no-op without the `metrics`
    /// feature.
    #[must_use]
    pub fn metrics_registry(&self) -> &MetricsRegistry {
        &self.metrics.registry
    }

    /// The drive-phase wall-clock profiler. Off by default even when
    /// compiled in; enable with [`rtr_metrics::PhaseProfiler::set_enabled`].
    #[must_use]
    pub fn phase_profiler(&self) -> &PhaseProfiler {
        &self.metrics.profiler
    }

    /// A snapshot of every registered metric, after absorbing the chips'
    /// counters, wake-precision telemetry, event-core stats, tick counts,
    /// and the profiler's phase report into the registry. Empty without
    /// the `metrics` feature.
    #[must_use]
    pub fn metrics_snapshot(&self) -> MetricsSnapshot {
        self.refresh_metrics();
        self.metrics.registry.snapshot()
    }

    /// Folds every external counter source into the registry so a
    /// subsequent snapshot is complete. Cheap and idempotent: absorbed
    /// counters are overwritten, not accumulated.
    fn refresh_metrics(&self) {
        if !self.metrics.registry.enabled() {
            return;
        }
        let registry = &self.metrics.registry;
        // Chip counters, summed across nodes. Names repeat per chip, so a
        // sorted map keeps both the sums and the registration order stable.
        let mut totals: std::collections::BTreeMap<&'static str, u64> =
            std::collections::BTreeMap::new();
        for chip in &self.chips {
            chip.counters(&mut |name, value| {
                *totals.entry(name).or_insert(0) += value;
            });
        }
        let sources = self.sources.iter().map(|(_, source, _)| source);
        for source in sources.chain(&self.retired) {
            source.counters(&mut |name, value| {
                *totals.entry(name).or_insert(0) += value;
            });
        }
        for (name, value) in totals {
            registry.absorb_counter(name, value);
        }
        let mut symbols = 0usize;
        let mut credit_batches = 0usize;
        for link in self.adj.links() {
            symbols += link.in_flight(self.now);
            credit_batches += link.credits_in_flight();
        }
        registry.absorb_counter("sim.link_symbols_in_flight", symbols as u64);
        registry.absorb_counter("sim.link_credits_in_flight", credit_batches as u64);
        if let Some(wake) = self.wake_precision() {
            registry.absorb_counter("wake.polls", wake.polls);
            registry.absorb_counter("wake.short_polls", wake.short_polls);
        }
        self.event_core_stats()
            .emit_counters(&mut |name, value| registry.absorb_counter(name, value));
        registry.absorb_counter("sim.ticks_executed", self.ticks_executed);
        registry.absorb_counter("sim.cycles", self.now);
        let faults = self.fault_stats();
        if faults != FaultStats::default() {
            faults.emit_counters(&mut |name, value| registry.absorb_counter(name, value));
        }
        if self.control_events != ControlStats::default() {
            self.control_events
                .emit_counters(&mut |name, value| registry.absorb_counter(name, value));
        }
        for line in self.metrics.profiler.report() {
            if line.calls > 0 {
                registry.absorb_counter(&format!("profile.{}.ns", line.phase.name()), line.ns);
                registry
                    .absorb_counter(&format!("profile.{}.calls", line.phase.name()), line.calls);
            }
        }
    }

    /// Checks every chip's and every link's conservation ledger, returning
    /// the first violation.
    ///
    /// # Errors
    ///
    /// Returns the offending node and the chip's own ledger description.
    pub fn check_conservation(&self) -> Result<(), String> {
        for (node, chip) in self.chips.iter().enumerate() {
            if let Err(violation) = chip.check_conservation() {
                return Err(format!("node {node}: {violation}"));
            }
        }
        // Link ledgers: symbols destroyed by faults must land in a loss
        // column, never leak (`sent = delivered + lost + in flight`).
        for li in 0..self.adj.len() {
            if let Err(violation) = self.adj.link(li).check_conservation(self.now) {
                let node = self.adj.owner_of(li);
                return Err(format!("link {} {:?}: {violation}", node.index(), self.adj.dir(li)));
            }
        }
        Ok(())
    }

    /// Installs a scripted fault schedule (replacing any pending faults).
    /// Events are applied at the start of the step simulating their cycle,
    /// before link arrivals, identically in every drive mode; same-cycle
    /// events apply in schedule order, and events scheduled before the
    /// current cycle are skipped.
    pub fn set_fault_schedule(&mut self, schedule: FaultSchedule) {
        let (events, seed) = schedule.into_parts();
        self.agenda.ops.retain(|_, op| !matches!(op, Op::Fault(_)));
        for event in events {
            if event.at >= self.now {
                self.agenda.file(event.at, Op::Fault(event.kind));
            }
        }
        self.fault_seed = seed.max(1);
    }

    /// Schedules one fault event at cycle `at` (clamped to the current
    /// cycle), after any fault already pending at that cycle.
    pub fn schedule_fault(&mut self, at: Cycle, kind: FaultKind) {
        self.agenda.file(at.max(self.now), Op::Fault(kind));
    }

    /// Fault-plane statistics: event counts plus the loss columns summed
    /// over every link's [`LinkLedger`].
    #[must_use]
    pub fn fault_stats(&self) -> FaultStats {
        let mut stats = self.fault_events;
        for link in self.adj.links() {
            let ledger = link.ledger(self.now);
            stats.symbols_lost += ledger.symbols_lost;
            stats.symbols_corrupted += ledger.symbols_corrupted;
            stats.credits_lost += ledger.credits_lost;
            stats.late_arrivals_dropped += ledger.late_arrivals_dropped;
        }
        stats
    }

    /// Schedules a Table 3 write to the chip at `node`,
    /// applied at the start of the step simulating cycle `at` (clamped to
    /// the current cycle), before link arrivals — identically in every
    /// drive mode, including inside spans the leaper would otherwise skip.
    ///
    /// This is the simulator half of live channel signaling: a signaling
    /// engine models its per-write reprogramming latency by scheduling
    /// each table delta a few cycles out instead of mutating through
    /// [`Simulator::chip_mut`] (which writes between cycles, not at one).
    /// Either way the written chip ticks on the cycle of the write (or,
    /// through `chip_mut`, on the next). The chip's refusal
    /// ([`Chip::apply_control`]) is counted in [`ControlStats`] and logged
    /// in [`Simulator::control_rejections`], not propagated — the schedule
    /// keeps running like hardware would.
    pub fn schedule_control(&mut self, at: Cycle, node: NodeId, cmd: ControlCommand) {
        self.agenda.file(at.max(self.now), Op::Control(node, cmd));
    }

    /// Counters for the scheduled control-operation plane.
    #[must_use]
    pub fn control_stats(&self) -> ControlStats {
        self.control_events
    }

    /// The most recent scheduled writes the chip refused, oldest first, as
    /// `(cycle applied, node, the chip's error)`. Only the last few are
    /// kept; [`ControlStats::ops_rejected`] counts them all.
    #[must_use]
    pub fn control_rejections(&self) -> &[(Cycle, NodeId, ControlError)] {
        &self.control_rejections
    }

    /// Applies every agenda op due at or before the current cycle. Called
    /// once per cycle by the kernel, before link arrivals.
    fn apply_due(&mut self) {
        while let Some(op) = self.agenda.pop_due(self.now) {
            match op {
                Op::Fault(kind) => self.apply_fault(kind),
                Op::Control(node, cmd) => self.apply_control(node, cmd),
            }
        }
    }

    fn apply_control(&mut self, node: NodeId, cmd: ControlCommand) {
        let now = self.now;
        let i = node.index();
        match self.chips[i].apply_control(cmd) {
            Ok(()) => self.control_events.ops_applied += 1,
            Err(error) => {
                self.control_events.ops_rejected += 1;
                if self.control_rejections.len() == REJECTION_LOG_CAP {
                    self.control_rejections.remove(0);
                }
                self.control_rejections.push((now, node, error));
            }
        }
        // A table delta can change what the chip will do next (e.g. a
        // buffered packet becomes routable), so the chip ticks and
        // re-polls this cycle, exactly like a chip the fault plane touched.
        self.mark(i);
    }

    /// Whether the node is currently crashed.
    #[must_use]
    pub fn is_crashed(&self, node: NodeId) -> bool {
        self.crashed[node.index()]
    }

    /// Every link currently down, as `(driving node, direction)` pairs in
    /// node-major order.
    #[must_use]
    pub fn downed_links(&self) -> Vec<(NodeId, Direction)> {
        let down = (0..self.adj.len()).filter(|&li| self.adj.link(li).is_down());
        down.map(|li| (self.adj.owner_of(li), self.adj.dir(li))).collect()
    }

    /// The symbol-accounting ledger of the link leaving `node` in `dir`
    /// (defaults to zero for unwired directions).
    #[must_use]
    pub fn link_ledger(&self, node: NodeId, dir: Direction) -> LinkLedger {
        self.adj
            .out_index(node.index(), dir)
            .map_or_else(LinkLedger::default, |li| self.adj.link(li).ledger(self.now))
    }

    fn apply_fault(&mut self, kind: FaultKind) {
        let now = self.now;
        let n = self.chips.len();
        match kind {
            FaultKind::NodeCrash { node } | FaultKind::NodeRestore { node } => {
                let i = node.index();
                let crash = matches!(kind, FaultKind::NodeCrash { .. });
                if self.crashed[i] == crash {
                    return;
                }
                // Settle the chip's pending span under its old state, so
                // every span stays homogeneous: alive lag is reconciled as
                // idle before a crash, and the span settled at restore is
                // purely crashed cycles.
                self.settle_chip(i);
                self.crashed[i] = crash;
                let (out_start, out_end) = self.adj.out_bounds(i);
                let (in_start, in_end) = self.adj.in_bounds(i);
                if crash {
                    self.fault_events.node_crash_events += 1;
                    // The node's links stop with it: a run it was emitting
                    // parks until its restore, and one it was receiving is
                    // absorbed no further — nothing polls its in-links while
                    // it is dark, and its restored reassembly registers will
                    // not hold the packet, so the rest arrives as orphans.
                    for li in out_start..out_end {
                        self.adj.link_mut(li).pause_run(now);
                    }
                    for fi in in_start..in_end {
                        let li = self.adj.in_link(fi);
                        self.adj.link_mut(li).stop_absorbing(now);
                    }
                } else {
                    self.fault_events.node_restore_events += 1;
                    // A restored chip's reassembly registers are undefined:
                    // abort partial arrivals and refund the flow-control
                    // credits of the dropped best-effort bytes upstream.
                    let dropped = self.chips[i].abort_partial_rx();
                    for fi in in_start..in_end {
                        let bytes = u16::from(dropped[Port::Dir(self.adj.in_dir(fi)).index()]);
                        if bytes > 0 {
                            let li = self.adj.in_link(fi);
                            self.adj.link_mut(li).send_credit(now, bytes);
                        }
                    }
                    for li in out_start..out_end {
                        self.adj.link_mut(li).resume_run(now);
                    }
                }
                // Crash clears the chip's wake and leaves its links waking
                // for their live ends alone; restore ticks the chip, and its
                // links deliver what waited for it this very cycle. A
                // source's `due` is its only wake.
                self.mark(i);
                for li in out_start..out_end {
                    self.mark(n + li);
                }
                for fi in in_start..in_end {
                    self.mark(n + self.adj.in_link(fi));
                }
            }
            FaultKind::LinkDown { node, dir }
            | FaultKind::LinkUp { node, dir }
            | FaultKind::LinkFlaky { node, dir, .. }
            | FaultKind::LinkStable { node, dir } => {
                // Unwired directions are ignored: a schedule written for a
                // larger mesh degrades to a no-op, not a panic.
                let Some(li) = self.adj.out_index(node.index(), dir) else { return };
                // The flaky-generator seed: the schedule seed splayed by
                // the link index, so each link rolls an independent stream.
                let seed =
                    (self.fault_seed ^ (li as u64).wrapping_mul(0x9E37_79B9_7F4A_7C15)).max(1);
                let (link, events) = (self.adj.link_mut(li), &mut self.fault_events);
                match kind {
                    FaultKind::LinkDown { .. } => {
                        link.set_down();
                        events.link_down_events += 1;
                    }
                    FaultKind::LinkUp { .. } => {
                        link.set_up();
                        events.link_up_events += 1;
                    }
                    FaultKind::LinkFlaky { drop_per_1024, corrupt_per_1024, .. } => {
                        link.set_flaky(drop_per_1024, corrupt_per_1024, seed);
                        events.link_flaky_events += 1;
                    }
                    // `LinkStable`: the outer arm admits nothing else.
                    _ => {
                        link.set_flaky(0, 0, seed);
                        events.link_stable_events += 1;
                    }
                }
                self.mark(n + li);
            }
        }
    }

    /// Traffic carried so far by the link leaving `node` in `dir`
    /// (defaults to zero for unwired directions).
    #[must_use]
    pub fn link_usage(&self, node: NodeId, dir: Direction) -> LinkUsage {
        self.link_ledger(node, dir).usage()
    }

    /// Chip ticks executed so far (the tick-loop work actually performed).
    /// Every cycle ticks only the chips that can act — an idle mesh ticks
    /// none — and a leaped cycle executes none, so this counter is how
    /// tests pin the O(events) claim.
    #[must_use]
    pub fn ticks_executed(&self) -> u64 {
        self.ticks_executed
    }

    /// Estimated resident bytes per node: the struct-of-arrays arenas (CSR
    /// link table, per-node I/O staging, event-core state) plus each chip's
    /// own dominant allocations, divided by the node count. Allocated
    /// *capacity* is counted, not occupancy — this is what the allocator
    /// holds, the number the mega-mesh footprint guardrail pins down.
    #[must_use]
    pub fn bytes_per_node(&self) -> usize {
        let n = self.chips.len();
        let chips = n * std::mem::size_of::<C>()
            + self.chips.iter().map(Chip::heap_bytes_estimate).sum::<usize>();
        let ios = self.ios.capacity() * std::mem::size_of::<ChipIo>()
            + self.ios.iter().map(ChipIo::heap_bytes).sum::<usize>();
        let logs = self.logs.capacity() * std::mem::size_of::<DeliveryLog>()
            + self
                .logs
                .iter()
                .map(|log| {
                    log.tc.capacity() * std::mem::size_of::<(Cycle, TcPacket)>()
                        + log.be.capacity() * std::mem::size_of::<(Cycle, BePacket)>()
                })
                .sum::<usize>();
        let events = self.wakes.bytes_estimate()
            + self.due.capacity() * std::mem::size_of::<WakeHandle>()
            + self.tick_list.capacity() * std::mem::size_of::<u32>();
        let total = chips
            + ios
            + logs
            + events
            + self.adj.heap_bytes()
            + self.topo.heap_bytes()
            + self.unticked.capacity() * std::mem::size_of::<Cycle>()
            + self.crashed.capacity()
            + self.sources.capacity()
                * std::mem::size_of::<(NodeId, Box<dyn TrafficSource>, Cycle)>()
            + self.retired.capacity() * std::mem::size_of::<Box<dyn TrafficSource>>();
        total / n.max(1)
    }

    /// Advances the network by one cycle, ticking only the chips that can
    /// act in it and visiting only the links whose wake is due.
    pub fn step(&mut self) {
        self.cycle();
        self.settle_idle();
    }

    /// The step kernel — the one definition of what happens in a cycle:
    ///
    /// 1. (the first cycle) the wake record is allocated (unless an
    ///    injection or the every-chip hook did), every chip in it never
    ///    polled;
    /// 2. agenda ops due now apply — faults, then control writes — marking
    ///    what they touch;
    /// 3. the handles due now are read from the record: the chips, then
    ///    the links;
    /// 4. the links read due deliver arrivals, marking the chips they
    ///    reach, and sources run, marking their chips (`phase_pre`);
    /// 5. (the first cycle) every live chip nothing marked is polled before
    ///    its tick;
    /// 6. the due live chips tick, in ascending node order, each polled
    ///    right after its tick; a crashed one's wake is cleared. They are
    ///    the chips read due and those the cycle's marks made due (on the
    ///    first cycle, or with more than an eighth of the chips due, a scan
    ///    of the chips' wakes finds them). Every other chip is provably
    ///    quiet and its idle accounting is reconciled lazily from
    ///    `unticked`;
    /// 7. the ticked chips' driven symbols and credits move onto the links,
    ///    marking each, their deliveries drain, the clock advances
    ///    (`phase_post`);
    /// 8. every link read due or marked is polled, once. No handle is due
    ///    any more.
    ///
    /// Returns whether a source run or a poll of the cycle made something
    /// due on the next one, where no leap can start, so the drive loop
    /// need not plan one.
    fn cycle(&mut self) -> bool {
        let now = self.now;
        let n = self.chips.len();
        let t = self.metrics.profiler.start();
        let first = !self.polled();
        self.allocate_wakes();
        self.apply_due();
        self.due.clear();
        self.wakes.due(now, &mut self.due);
        let t = self.metrics.profiler.lap(Phase::WheelPop, t);
        let mut list = std::mem::take(&mut self.tick_list);
        // Being handed an arrival (`rx`/`credit_in`) makes a chip tick: the
        // last cycle's tick list holds every `ChipIo` left to clear.
        for &node in &list {
            self.ios[node as usize].begin_cycle();
        }
        list.clear();
        // The tick list: the chips due as the cycle began, and every chip
        // the cycle makes due before the ticks.
        let chips = self.due.partition_point(|h| h.index() < n);
        list.extend(self.due[..chips].iter().map(|h| h.0));
        let mut busy = self.phase_pre(&mut list, chips);
        let t = self.metrics.profiler.lap(Phase::LinkPre, t);
        if first {
            self.prime();
            self.metrics.registry.inc(self.metrics.ids.stale_repolls, n as u64);
        }
        // The first cycle's poll made chips due that no mark listed, and on
        // a mesh where most chips act a scan of the chips' wakes costs less
        // than sorting what the marks found: either way the scan finds every
        // due chip in order.
        if first || list.len() > n / 8 {
            let wakes = &self.wakes;
            let due = |&h: &u32| wakes.wake_of(WakeHandle(h)).is_some_and(|at| at <= now);
            list.clear();
            list.extend((0..n as u32).filter(due));
        } else {
            list.sort_unstable();
            debug_assert!(list.windows(2).all(|w| w[0] < w[1]), "a chip made due twice");
        }
        busy |= self.tick_chips(now, &mut list);
        let t = self.metrics.profiler.lap(Phase::SerialTick, t);
        self.phase_post(now, &list);
        self.tick_list = list;
        let t = self.metrics.profiler.lap(Phase::LinkPost, t);
        // Every link the cycle visited or sent on, once.
        for k in chips..self.due.len() {
            busy |= self.poll_link(self.due[k].index() - n) <= now + 1;
        }
        #[cfg(debug_assertions)]
        {
            let next = self.wakes.next_wake();
            assert!(next.is_none_or(|at| at > now), "a handle is still due after cycle {now}");
            for li in 0..self.adj.len() {
                let wake = self.wakes.wake_of(WakeHandle((n + li) as u32));
                let stale = wake != link_wake(&self.adj, &self.crashed, li);
                assert!(!stale, "link {li} changed in cycle {now} but was not polled");
            }
        }
        self.metrics.profiler.stop(Phase::Repoll, t);
        busy
    }

    /// The first cycle polls every live chip nothing marked *before* its
    /// tick (see [`Chip::next_event`]): an answer by the next cycle makes
    /// it due now, a later one is its wake, and `None` leaves it to its
    /// `unticked` stamp. So a fresh 128×128 build ticks only the chips that
    /// can act. A chip with a queued injection was marked by `inject_*` or
    /// by its source's run, so no `ChipIo` is read here.
    fn prime(&mut self) {
        let now = self.now;
        for (i, chip) in self.chips.iter().enumerate() {
            let h = WakeHandle(i as u32);
            if self.crashed[i] || self.wakes.wake_of(h).is_some_and(|at| at <= now) {
                continue;
            }
            match chip.next_event(now) {
                Some(at) if at > now + 1 => self.wakes.set_wake(h, at),
                Some(_) => {
                    self.wakes.mark(h, now);
                }
                None => {}
            }
        }
    }

    /// Ticks the due live chips in `list` (ascending) for cycle `now`, each
    /// polled for its next wake right after its tick; a due crashed chip
    /// loses its wake (its restore marks it) and leaves the list. Returns
    /// whether a poll answered the next cycle.
    fn tick_chips(&mut self, now: Cycle, list: &mut Vec<u32>) -> bool {
        let (chips, ios, unticked, wakes) =
            (&mut self.chips, &mut self.ios, &mut self.unticked, &mut self.wakes);
        let mut busy = false;
        #[cfg(debug_assertions)]
        let accounted = &mut self.dbg_accounted;
        list.retain(|&h| {
            let i = h as usize;
            if self.crashed[i] {
                wakes.set_wake(WakeHandle(h), Cycle::MAX);
                return false;
            }
            #[cfg(debug_assertions)]
            {
                accounted[i] += now + 1 - unticked[i];
            }
            let chip = &mut chips[i];
            // First reconcile any idle span a sparse cycle or a leap left
            // pending.
            if unticked[i] < now {
                chip.skip_quiet(unticked[i], now);
            }
            chip.tick(now, &mut ios[i]);
            unticked[i] = now + 1;
            // A chip's state is final for the cycle once it has ticked — the
            // link phases never touch it — so polling here sees what an
            // end-of-cycle poll would — bar injections still queued, which
            // tick the chip again on the next cycle.
            let at = if injecting(&ios[i]) { Some(now + 1) } else { chip.next_event(now) };
            let at = at.unwrap_or(Cycle::MAX);
            wakes.set_wake(WakeHandle(h), at);
            busy |= at <= now + 1;
            true
        });
        self.ticks_executed += list.len() as u64;
        busy
    }

    /// Flushes every chip's outstanding lazy idle span. Cycles and leaps
    /// touch only due chips; a quiet chip's
    /// [`Chip::skip_quiet`] accounting is deferred until its next tick.
    /// Public drive calls end by settling, so external observers
    /// ([`Simulator::chip`], stats, reports) always see fully reconciled
    /// per-chip counters.
    fn settle_idle(&mut self) {
        for i in 0..self.chips.len() {
            self.settle_chip(i);
            #[cfg(debug_assertions)]
            debug_assert_eq!(
                self.dbg_accounted[i], self.now,
                "chip {i}: lazy idle accounting diverged from the per-chip cycle count"
            );
        }
    }

    /// Accounts chip `i`'s pending span `unticked[i]..now`: idle cycles
    /// (via [`Chip::skip_quiet`]) while the chip is alive. A crashed chip's
    /// span is homogeneously crashed — its alive lag was settled when the
    /// crash applied — and is accounted without `skip_quiet`: a dead chip
    /// does not idle, it does nothing at all.
    fn settle_chip(&mut self, i: usize) {
        let (u, now) = (self.unticked[i], self.now);
        if u < now {
            if !self.crashed[i] {
                self.chips[i].skip_quiet(u, now);
            }
            self.unticked[i] = now;
            #[cfg(debug_assertions)]
            {
                self.dbg_accounted[i] += now - u;
            }
        }
    }

    /// Debug-build proof of the activity sets (DESIGN.md §3.11) where a
    /// cycle's full sweeps used to start. Every `ChipIo` is clear, and
    /// every live chip with queued injections is due. No link the link pass
    /// will pass over — its handle is not in `due_links` (the handles it
    /// visits, sorted), or its `next_at` lies ahead — owes a live end an
    /// arrival by the queues' own account.
    #[cfg(debug_assertions)]
    fn dbg_check_activity(&self, due_links: &[WakeHandle]) {
        let (now, n) = (self.now, self.chips.len());
        for (node, io) in self.ios.iter().enumerate() {
            let clear = io.rx.iter().chain(&io.tx).all(Option::is_none)
                && io.credit_in.iter().chain(&io.credit_out).all(|&c| c == 0)
                && io.delivered_tc.is_empty()
                && io.delivered_be.is_empty();
            assert!(clear, "chip {node} carried traffic into cycle {now} without having ticked");
            let due = self.wakes.wake_of(WakeHandle(node as u32)).is_some_and(|at| at <= now);
            let seen = self.crashed[node] || due || !injecting(io);
            assert!(seen, "chip {node} has queued injections but is not due at {now}");
        }
        for li in 0..self.adj.len() {
            let link = self.adj.link(li);
            let (rx, tx) = live_ends(&self.adj, &self.crashed, li);
            let owes = link.wake(rx, tx).is_some_and(|at| at <= now);
            let polled = link.next_event().is_some_and(|at| at <= now)
                && due_links.binary_search(&WakeHandle((n + li) as u32)).is_ok();
            assert!(polled || !owes, "link {li} owes an arrival at {now} but will not be polled");
        }
    }

    /// Pre-tick phases of one cycle: link arrivals, and traffic sources.
    /// The cycle visits the links of `due` from index `links` on.
    ///
    /// A chip handed symbols or credits, and the chip of every source that
    /// ran, is marked: it ticks in this cycle, and joins `list` if the
    /// mark made it due. Returns whether a source that ran is due on the
    /// next cycle.
    fn phase_pre(&mut self, list: &mut Vec<u32>, links: usize) -> bool {
        let now = self.now;
        let n = self.chips.len();

        // 1. Link arrivals (data forward, credits backward). A link's wake
        // is the earliest arrival a live end must see (a crash or restore of
        // either end marks it), so the visit would be a no-op on every link
        // not due. A link writes only its own `rx` and `credit_in` slots, so
        // the order of the visits is free.
        #[cfg(debug_assertions)]
        self.dbg_check_activity(&self.due[links..]);
        for k in links..self.due.len() {
            let li = self.due[k].index() - n;
            // Nothing due on either wire: a no-op whatever the crash flags
            // say.
            if self.adj.link(li).next_event().is_some_and(|at| at <= now) {
                let node = self.adj.owner_of(li).index();
                // A crashed receiver drains nothing: its arrivals age on the
                // wire and are dropped (and counted) once stale. A crashed
                // *transmitter* takes no credits either — credits are pure
                // counters, so its batches simply deliver late after restore.
                let (recv_data, tx_up) = live_ends(&self.adj, &self.crashed, li);
                let link = self.adj.link_mut(li);
                let symbol = if recv_data { link.recv(now) } else { None };
                let credits = if tx_up { link.recv_credit(now) } else { 0 };
                if let Some(symbol) = symbol {
                    let dst = self.adj.dst(li);
                    let rx = dst.node.index();
                    self.ios[rx].rx[Port::Dir(dst.dir).index()] = Some(symbol);
                    self.mark_chip(rx, list);
                }
                if credits > 0 {
                    self.ios[node].credit_in[Port::Dir(self.adj.dir(li)).index()] += credits;
                    self.mark_chip(node, list);
                }
            }
        }
        let visits = self.due.len() - links;
        self.metrics.registry.inc(self.metrics.ids.link_visits, visits as u64);

        // 2. Traffic sources (silent while their node is crashed). A source
        // runs when its own `next_event` answer comes due — the contract
        // leaping relies on: until then `pre_cycle` would do nothing. The
        // chip of every source that ran ticks: no `next_event` sees
        // injection queues, and a source that writes more of the `ChipIo`
        // than its queues (a misbehaving neighbour returning credits it
        // never freed) is collected as it was when every chip ticked. One
        // that answers `None` never runs again and is retired.
        let (mut exhausted, mut busy) = (false, false);
        for (node, source, due) in &mut self.sources {
            let i = node.index();
            if now < *due || self.crashed[i] {
                continue;
            }
            source.pre_cycle(now, *node, &mut self.ios[i]);
            *due = source.next_event(now).unwrap_or(Cycle::MAX);
            exhausted |= *due == Cycle::MAX;
            busy |= *due <= now + 1;
            if self.wakes.mark(WakeHandle(i as u32), now) {
                list.push(i as u32);
            }
        }
        if exhausted {
            let retired = self.sources.extract_if(.., |(_, _, due)| *due == Cycle::MAX);
            self.retired.extend(retired.map(|(_, source, _)| source));
        }
        busy
    }

    /// Post-tick phases of one cycle: symbol/credit collection and
    /// delivery draining over the chips in `list` that just ticked (only a
    /// tick drives, returns credits, or delivers), gauge sampling, and the
    /// clock advance. A link that carried a new symbol or credit batch is
    /// marked, so the cycle polls it at its end.
    fn phase_post(&mut self, now: Cycle, list: &[u32]) {
        self.metrics.registry.inc(self.metrics.ids.io_visits, list.len() as u64);
        // 3. Collect driven symbols and returned credits — walking only
        // the wired outputs and fed inputs via the CSR tables. A chip can
        // only drive ports its wiring feeds credits through, so scanning
        // the sparse tables covers every live port; the debug asserts
        // below catch a chip writing to an unwired one. A head takes its
        // packet's continuations onto the link with it.
        for &node in list {
            let node = node as usize;
            debug_assert!(
                self.ios[node].tx[Port::Local.index()].is_none(),
                "chips must deliver locally, not drive the local port"
            );
            let (start, end) = self.adj.out_bounds(node);
            for li in start..end {
                let idx = Port::Dir(self.adj.dir(li)).index();
                if let Some(symbol) = self.ios[node].tx[idx].take() {
                    self.adj.link_mut(li).send(now, symbol);
                    self.mark_link(li);
                }
            }
            let (fs, fe) = self.adj.in_bounds(node);
            for fi in fs..fe {
                let idx = Port::Dir(self.adj.in_dir(fi)).index();
                let credits = self.ios[node].credit_out[idx];
                if credits > 0 {
                    self.ios[node].credit_out[idx] = 0;
                    let li = self.adj.in_link(fi);
                    self.adj.link_mut(li).send_credit(now, credits);
                    self.mark_link(li);
                }
            }
            debug_assert!(
                Direction::ALL.iter().all(|&d| self.ios[node].tx[Port::Dir(d).index()].is_none()),
                "symbol driven on an unwired link"
            );
            debug_assert!(
                Direction::ALL
                    .iter()
                    .all(|&d| self.ios[node].credit_out[Port::Dir(d).index()] == 0),
                "credit returned on an unfed input port"
            );
        }

        // 4. Drain deliveries.
        for &node in list {
            let (io, log) = (&mut self.ios[node as usize], &mut self.logs[node as usize]);
            log.tc.append(&mut io.delivered_tc);
            log.be.append(&mut io.delivered_be);
        }

        // 5. Periodic occupancy sampling.
        if self.gauge_every.is_some_and(|every| now.is_multiple_of(every)) {
            self.gauge_samples.record(now, &self.chips);
        }

        self.now += 1;
    }

    /// Runs for `cycles` cycles. Each cycle ticks only the chips that can
    /// act in it, and whenever a cycle ends with every component provably
    /// quiescent, simulated time leaps directly to the earliest next event
    /// instead of stepping through the silent span one cycle at a time.
    ///
    /// The result is **bit-identical** to waking every chip and link before
    /// each [`Simulator::step`] — delivery logs, statistics, link-usage
    /// counters, gauge samples (synthesized for leaped cycles), and trace
    /// timestamps all match — because a chip, link, or traffic source is
    /// passed over only while it reports (via [`Chip::next_event`],
    /// [`Link::next_event`], and [`TrafficSource::next_event`]) that nothing
    /// can change before its wake. See the `event_core` integration tests.
    ///
    /// Every chip and link keeps its next-event cycle in one wake record
    /// and is polled again only when it came due or something marked it,
    /// so an executed cycle costs wake bookkeeping for the components that
    /// acted, and a leap decision reads the record's minimum in O(1). An
    /// idle span of any length costs O(1) bookkeeping instead of
    /// O(nodes × cycles) chip ticks (see [`Simulator::ticks_executed`]).
    ///
    /// [`TrafficSource::next_event`]: crate::source::TrafficSource::next_event
    /// [`Link::next_event`]: crate::link::Link::next_event
    pub fn run(&mut self, cycles: Cycle) {
        self.drive(cycles, None::<fn(&Self) -> bool>);
    }

    /// Same as [`Simulator::run`]. Kept only for its one caller, the
    /// `mesh.pool.speedup_2w` probe in `benchmark/src/probes.rs`; ROADMAP
    /// 1(d) deletes it with that probe.
    #[doc(hidden)]
    pub fn run_parallel(&mut self, cycles: Cycle) {
        self.run(cycles);
    }

    /// Same as [`Simulator::run`]. Kept only for its callers in
    /// `benchmark/src/{workloads,probes}.rs`; ROADMAP 1(d) moves them to
    /// `run` and deletes it.
    #[doc(hidden)]
    pub fn run_leaping(&mut self, cycles: Cycle) {
        self.run(cycles);
    }

    /// If the network is provably quiescent at `self.now` (a cycle or a
    /// leap ran last), returns the earliest cycle at which anything
    /// can happen, clamped to `end`: the earliest wake in the record, read
    /// from its top instead of re-polling every component, and the
    /// earliest source `due`. Returns `None` when something is due now (a
    /// wake a poll or a mark left at `self.now`), i.e. no leap is possible.
    fn quiet_target(&mut self, end: Cycle) -> Option<Cycle> {
        // Never leap across an agenda op: each must apply at the start of
        // exactly its own cycle in every drive mode.
        let end = self.agenda.next_at().map_or(end, |at| end.min(at));
        let mut end = self.wakes.next_wake().map_or(end, |at| end.min(at));
        // A source's `due` is its only wake, read only where a leap is
        // possible. One on a crashed node is silent; the agenda clamp stops
        // at its restore.
        for (node, _, due) in &self.sources {
            if end <= self.now {
                return None;
            }
            if !self.crashed[node.index()] {
                end = end.min(*due);
            }
        }
        (end > self.now).then_some(end)
    }

    /// Moves simulated time from `self.now` towards `target` across a
    /// quiet span, performing the bookkeeping the skipped cycles would
    /// have: gauge samples (every gauge is constant while the network is
    /// quiescent). Without a predicate the span is jumped in one block;
    /// with one it is walked boundary by boundary — every cycle boundary
    /// gets its predicate evaluation, exactly as a cycle-by-cycle run would —
    /// stopping early (and returning true) where the predicate fires.
    /// Chips are *not* touched either way: their skipped-span accounting
    /// is reconciled lazily from the per-chip `unticked` stamp at their
    /// next tick or at the end-of-call settle, so a leap costs O(1).
    fn leap_to(
        &mut self,
        target: Cycle,
        predicate: Option<&mut impl FnMut(&Self) -> bool>,
    ) -> bool {
        let from = self.now;
        debug_assert!(target > from, "leap must move forward");
        debug_assert!(
            self.agenda.next_at().is_none_or(|at| target <= at),
            "leap across an agenda op"
        );
        let t = self.metrics.profiler.start();
        let mut fired = false;
        if let Some(predicate) = predicate {
            while !fired && self.now < target {
                if self.gauge_every.is_some_and(|every| self.now.is_multiple_of(every)) {
                    self.gauge_samples.record(self.now, &self.chips);
                }
                self.now += 1;
                fired = predicate(self);
            }
        } else {
            if let Some(every) = self.gauge_every {
                let mut at = from.next_multiple_of(every);
                while at < target {
                    self.gauge_samples.record(at, &self.chips);
                    at += every;
                }
            }
            self.now = target;
        }
        let to = self.now;
        self.metrics.registry.inc(self.metrics.ids.leaps, 1);
        self.metrics.registry.inc(self.metrics.ids.leaped_cycles, to - from);
        self.metrics.profiler.stop(Phase::LeapApply, t);
        fired
    }

    /// Runs until `predicate` returns true or `max_cycles` elapse; returns
    /// whether the predicate fired. A budget running past [`Cycle::MAX`]
    /// ends there.
    ///
    /// The predicate is evaluated at every cycle boundary — including each
    /// boundary inside a quiet span, walked one by one without ticking chips
    /// (recording gauge samples where due) — so the run stops at the first
    /// boundary it holds at, the same one a cycle-by-cycle run stops at.
    ///
    /// One caveat, inherent to leaping and sparse ticking: chip-internal
    /// per-cycle counters (e.g. idle-cycle tallies via
    /// [`Chip::skip_quiet`]) settle at the end of the call, *after* the
    /// firing boundary's predicate evaluation. Predicates over
    /// simulator-owned state (`now`, delivery logs, reports) are exact at
    /// every boundary.
    pub fn run_until(&mut self, max_cycles: Cycle, predicate: impl FnMut(&Self) -> bool) -> bool {
        self.drive(max_cycles, Some(predicate))
    }

    /// The drive loop: cycles while anything is active, a leap across every
    /// provably quiet span, the idle settle at the end. Returns whether
    /// `predicate` (checked at every cycle boundary) fired.
    fn drive(&mut self, cycles: Cycle, mut predicate: Option<impl FnMut(&Self) -> bool>) -> bool {
        // Once a cycle has run, the record holds every wake, and what
        // touched the mesh since marked it or clamps the plan, so the call
        // may start with a leap.
        let mut plan = self.polled();
        let end = self.now.saturating_add(cycles);
        let mut fired = false;
        while !fired && self.now < end {
            if plan {
                let t = self.metrics.profiler.start();
                let target = self.quiet_target(end);
                self.metrics.profiler.stop(Phase::LeapPlan, t);
                if let Some(target) = target {
                    fired = self.leap_to(target, predicate.as_mut());
                    if fired || self.now >= end {
                        break;
                    }
                }
            }
            // A cycle that made something due on the next one leaves no
            // quiet span to plan.
            plan = !self.cycle();
            fired = predicate.as_mut().is_some_and(|p| p(self));
        }
        self.settle_idle();
        fired
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rtr_core::RealTimeRouter;
    use rtr_types::config::RouterConfig;
    use rtr_types::ids::ConnectionId;
    use rtr_types::packet::PacketTrace;

    fn two_node_sim() -> Simulator<RealTimeRouter> {
        Simulator::build(Topology::mesh(2, 1), |_| RealTimeRouter::new(RouterConfig::default()))
            .unwrap()
    }

    #[test]
    fn be_packet_crosses_one_hop() {
        let mut sim = two_node_sim();
        let dst = sim.topology().node_at(1, 0);
        let payload: Vec<u8> = (0..50).collect();
        sim.inject_be(
            NodeId(0),
            BePacket::new(
                1,
                0,
                payload.clone(),
                PacketTrace {
                    source: NodeId(0),
                    destination: dst,
                    injected_at: 0,
                    ..PacketTrace::default()
                },
            ),
        );
        assert!(sim.run_until(2000, |s| !s.log(dst).be.is_empty()));
        let (cycle, p) = &sim.log(dst).be[0];
        assert_eq!(p.payload, payload);
        assert_eq!(p.header.x_off, 0, "offsets consumed");
        // One traversal ≈ 10 cycles overhead per router, 2 routers, 54 wire
        // bytes: sanity-check the ballpark.
        assert!(*cycle > 54 && *cycle < 150, "latency {cycle}");
    }

    #[test]
    fn tc_packet_crosses_one_hop_with_table_routing() {
        let mut sim = two_node_sim();
        let src = NodeId(0);
        let dst = sim.topology().node_at(1, 0);
        // Source: incoming conn 5 → forward +x as conn 7, d = 4.
        sim.chip_mut(src)
            .apply_control(ControlCommand::SetConnection {
                incoming: ConnectionId(5),
                outgoing: ConnectionId(7),
                delay: 4,
                out_mask: Port::Dir(Direction::XPlus).mask(),
            })
            .unwrap();
        // Destination: incoming conn 7 → deliver locally, d = 4.
        sim.chip_mut(dst)
            .apply_control(ControlCommand::SetConnection {
                incoming: ConnectionId(7),
                outgoing: ConnectionId(7),
                delay: 4,
                out_mask: Port::Local.mask(),
            })
            .unwrap();
        let clock = sim.chip(src).clock();
        let payload = vec![0xDD; sim.chip(src).config().tc_data_bytes()];
        sim.inject_tc(
            src,
            TcPacket {
                conn: ConnectionId(5),
                arrival: clock.wrap(0),
                payload: payload.clone().into(),
                trace: PacketTrace {
                    source: src,
                    destination: dst,
                    deadline: 12,
                    ..PacketTrace::default()
                },
            },
        );
        assert!(sim.run_until(3000, |s| !s.log(dst).tc.is_empty()));
        let (_, p) = &sim.log(dst).tc[0];
        assert_eq!(p.payload, payload);
        assert_eq!(sim.log(dst).tc_deadline_misses(20), 0);
        assert_eq!(sim.chip(src).stats().tc_transmitted[Port::Dir(Direction::XPlus).index()], 1);
        assert_eq!(sim.chip(dst).stats().tc_delivered, 1);
    }

    #[test]
    fn credits_flow_back_for_long_streams() {
        let mut sim = two_node_sim();
        let dst = sim.topology().node_at(1, 0);
        // 200-byte packet: far more than the 10-byte flit buffer, so it only
        // completes if credits return.
        sim.inject_be(NodeId(0), BePacket::new(1, 0, vec![0xAB; 200], PacketTrace::default()));
        assert!(sim.run_until(5000, |s| !s.log(dst).be.is_empty()));
        assert_eq!(sim.log(dst).be[0].1.payload.len(), 200);
    }

    #[test]
    fn sources_run_each_cycle() {
        let mut sim = two_node_sim();
        let dst = sim.topology().node_at(1, 0);
        sim.add_source(
            NodeId(0),
            Box::new(crate::source::FnSource(move |now, _node, io: &mut ChipIo| {
                if now == 0 {
                    io.inject_be.push_back(BePacket::new(
                        1,
                        0,
                        vec![1, 2, 3],
                        PacketTrace::default(),
                    ));
                }
            })),
        );
        assert!(sim.run_until(1000, |s| !s.log(dst).be.is_empty()));
    }

    #[test]
    fn loopback_topology_returns_traffic_to_self() {
        let mut sim: Simulator<RealTimeRouter> =
            Simulator::build(
                Topology::loopback(),
                |_| RealTimeRouter::new(RouterConfig::default()),
            )
            .unwrap();
        // x_off = 1: the packet leaves +x, re-enters on −x with offsets
        // exhausted, and is delivered locally.
        sim.inject_be(NodeId(0), BePacket::new(1, 0, vec![9; 16], PacketTrace::default()));
        assert!(sim.run_until(2000, |s| !s.log(NodeId(0)).be.is_empty()));
    }

    #[test]
    fn run_until_respects_budget() {
        let mut sim = two_node_sim();
        assert!(!sim.run_until(10, |_| false));
        assert_eq!(sim.now(), 10);
    }

    #[test]
    fn wire_latency_delays_delivery_by_exactly_its_cycles() {
        // One best-effort packet (4 header + 6 payload bytes) over the one
        // link of a 2×1 mesh: the extra wire cycles are the only knob, and
        // a pipelined wire adds them once, not once per symbol.
        let delivered_at = |sim: &mut Simulator<RealTimeRouter>| {
            let dst = sim.topology().node_at(1, 0);
            sim.inject_be(NodeId(0), BePacket::new(1, 0, vec![0; 6], PacketTrace::default()));
            assert!(sim.run_until(2000, |s| !s.log(dst).be.is_empty()));
            sim.log(dst).be[0].0
        };
        let base = delivered_at(&mut two_node_sim());
        assert_eq!(base, 30);
        for latency in [1, 3, 7, 20] {
            let mut sim = Simulator::build_with_latency(Topology::mesh(2, 1), latency, |_| {
                RealTimeRouter::new(RouterConfig::default())
            })
            .unwrap();
            assert_eq!(delivered_at(&mut sim), base + latency, "latency {latency}");
        }
    }

    #[test]
    fn gauge_sampling_tracks_memory_occupancy() {
        let mut sim = two_node_sim();
        let src = NodeId(0);
        // A connection whose logical arrival is far in the future: the
        // packet parks in the source's packet memory (h = 0, nothing
        // transmits), so occupancy gauges must show it.
        sim.chip_mut(src)
            .apply_control(ControlCommand::SetConnection {
                incoming: ConnectionId(5),
                outgoing: ConnectionId(5),
                delay: 100,
                out_mask: Port::Dir(Direction::XPlus).mask(),
            })
            .unwrap();
        let clock = sim.chip(src).clock();
        let payload = vec![0; sim.chip(src).config().tc_data_bytes()];
        sim.inject_tc(
            src,
            TcPacket {
                conn: ConnectionId(5),
                arrival: clock.wrap(120),
                payload: payload.into(),
                trace: PacketTrace::default(),
            },
        );
        sim.enable_gauge_sampling(10);
        sim.run(400);
        let samples = sim.gauge_samples();
        assert_eq!(samples.len(), 40, "one sample per 10 cycles");
        assert!(samples.cycles().windows(2).all(|w| w[0] < w[1]));
        let peak = samples.iter().map(|s| s.nodes[src.index()].memory_occupied).max().unwrap();
        assert_eq!(peak, 1, "the parked packet shows up in the gauges");
        assert!(samples
            .iter()
            .any(|s| s.nodes[src.index()].queue_depth[Port::Dir(Direction::XPlus).index()] == 1));
        assert!(samples.iter().all(|s| s.nodes[0].memory_capacity > 0));
    }

    #[test]
    #[should_panic(expected = "sampling period must be positive")]
    fn gauge_sampling_rejects_a_zero_period() {
        // A zero period would divide by zero on every cycle's
        // `is_multiple_of` check; the knob must refuse it up front.
        two_node_sim().enable_gauge_sampling(0);
    }

    /// Drives `sim` `cycles` cycles the reference way: every chip ticked and
    /// every link visited on every cycle.
    fn run_every_chip(sim: &mut Simulator<RealTimeRouter>, cycles: Cycle) {
        for _ in 0..cycles {
            sim.wake_every_chip();
            sim.step();
        }
    }

    #[test]
    fn leaping_over_an_idle_mesh_costs_o_events_ticks() {
        // A fully idle network simulated for a million cycles must leap the
        // whole span: the clock reaches the end, but only O(events) chip
        // ticks actually execute — here none: the first cycle polls each
        // chip before its tick, and an idle router answers `None`.
        let mut sim = two_node_sim();
        sim.run(1_000_000);
        assert_eq!(sim.now(), 1_000_000);
        assert_eq!(sim.ticks_executed(), 0, "an idle mesh ticks nothing");
        // Only waking every chip before each step pays the full bill.
        let mut every = two_node_sim();
        run_every_chip(&mut every, 1_000);
        assert_eq!(every.ticks_executed(), 2 * 1_000);
        // A table write marks its chip once a cycle has run; before the
        // first, the first cycle's poll stands in for the mark.
        let mut written = two_node_sim();
        written.chip_mut(NodeId(0));
        written.step();
        assert_eq!(written.ticks_executed(), 0, "a write before the first cycle ticks nothing");
        written.chip_mut(NodeId(0));
        written.step();
        assert_eq!(written.ticks_executed(), 1);
    }

    #[test]
    fn an_idle_mesh_polls_each_chip_once() {
        // The first cycle polls every chip before its tick, and an idle
        // router answers `None`, so an idle mesh never ticks — one poll per
        // chip, whether the span is leapt or stepped one cycle at a time.
        let mut sim: Simulator<RealTimeRouter> =
            Simulator::build(
                Topology::mesh(8, 8),
                |_| RealTimeRouter::new(RouterConfig::default()),
            )
            .unwrap();
        sim.run(10_000);
        for _ in 0..100 {
            sim.step();
        }
        assert_eq!(sim.now(), 10_100);
        assert_eq!(sim.ticks_executed(), 0);
        for node in sim.topology().nodes() {
            assert_eq!(sim.chip(node).wake_stats().map(|w| w.polls), Some(1), "{node}");
            let idle = sim.chip(node).idle_cycles()[Port::Local.index()];
            assert_eq!(idle, 10_100, "{node}: the skipped cycles are accounted");
        }
    }

    #[test]
    fn a_run_matches_the_every_chip_reference_on_a_one_hop_transfer() {
        let mut every = two_node_sim();
        let mut sim = two_node_sim();
        let dst = every.topology().node_at(1, 0);
        for sim in [&mut every, &mut sim] {
            sim.enable_gauge_sampling(25);
            sim.inject_be(NodeId(0), BePacket::new(1, 0, vec![0x5A; 40], PacketTrace::default()));
        }
        run_every_chip(&mut every, 2000);
        sim.run(2000);
        assert_eq!(every.now(), sim.now());
        assert_eq!(every.log(dst).be, sim.log(dst).be);
        assert_eq!(every.gauge_samples().cycles(), sim.gauge_samples().cycles());
        // The run ticks the chips only where they act, and leaps the quiet
        // tail, where the record holds no wake.
        assert!(sim.ticks_executed() * 2 < every.ticks_executed());
        assert_eq!(sim.wakes.next_wake(), None, "the quiet tail holds no wake");
        #[cfg(feature = "metrics")]
        {
            let leaped = sim.metrics_snapshot().counter("sim.leaped_cycles").unwrap_or(0);
            assert!(leaped > 0, "the quiet tail must be leaped");
        }
        for node in [NodeId(0), dst] {
            assert_eq!(
                format!("{:?}", every.chip(node).stats()),
                format!("{:?}", sim.chip(node).stats())
            );
            assert_eq!(every.chip(node).idle_cycles(), sim.chip(node).idle_cycles());
        }
    }

    #[test]
    fn a_streaming_hop_keeps_one_exact_wake_per_handle() {
        // Four best-effort packets stream back to back over one hop: both
        // chips and both wires answer "next cycle" for hundreds of cycles.
        // Each answer overwrites its handle's one wake — nothing is carried
        // and nothing goes stale — so the record neither grows nor lags:
        // mid-stream every link's wake is what a poll of it answers, and
        // once the hop drains no handle has a wake.
        const PACKETS: u64 = 4;
        let mut every = two_node_sim();
        let mut sim = two_node_sim();
        let dst = every.topology().node_at(1, 0);
        sim.run(10); // the first cycle is behind us
        run_every_chip(&mut every, 10);
        let warm = sim.event_core_stats();
        let bytes = sim.wakes.bytes_estimate();
        for sim in [&mut every, &mut sim] {
            for k in 0..PACKETS {
                let payload = vec![k as u8; 120];
                sim.inject_be(NodeId(0), BePacket::new(1, 0, payload, PacketTrace::default()));
            }
        }
        let ticks = sim.ticks_executed();
        sim.run(150);
        let n = sim.chips.len();
        assert_eq!(sim.wakes.next_wake(), Some(sim.now()), "mid-stream");
        for li in 0..sim.adj.len() {
            let wake = sim.wakes.wake_of(WakeHandle((n + li) as u32));
            assert_eq!(wake, link_wake(&sim.adj, &sim.crashed, li), "link {li}");
        }
        run_every_chip(&mut every, 2_000);
        sim.run(1_850);
        assert_eq!(every.log(dst).be, sim.log(dst).be);
        assert_eq!(sim.log(dst).be.len(), PACKETS as usize);
        let ticked = sim.ticks_executed() - ticks;
        assert!(ticked >= 400, "only {ticked} ticks");
        // Each tick was read due and its poll writes its chip's wake; the
        // links' reads and polls add theirs.
        let after = sim.event_core_stats();
        let (filed, fired) = (after.filed - warm.filed, after.fired - warm.fired);
        assert!(filed > ticked && fired > ticked, "{filed} filed, {fired} fired, {ticked} ticks");
        assert_eq!(sim.wakes.bytes_estimate(), bytes, "the record grew");
        assert_eq!(sim.wakes.next_wake(), None, "a drained hop keeps a wake");
    }

    /// The first cycle polls every chip before its tick and counts the
    /// polls in `sim.stale_repolls`; from then on a chip is polled right
    /// after each of its ticks and nowhere else, and nothing polls every
    /// chip again. Every node of an 8×8 mesh sends a long best-effort
    /// packet across it; 200 cycles later they are in flight.
    #[cfg(feature = "metrics")]
    #[test]
    fn after_the_first_cycle_every_poll_follows_a_tick() {
        let mut sim: Simulator<RealTimeRouter> =
            Simulator::build(
                Topology::mesh(8, 8),
                |_| RealTimeRouter::new(RouterConfig::default()),
            )
            .unwrap();
        let topo = sim.topology().clone();
        for node in topo.nodes() {
            let (x, y) = topo.coords(node);
            let (dx, dy) = (7 - 2 * x as i8, 7 - 2 * y as i8);
            sim.inject_be(node, BePacket::new(dx, dy, vec![0x5A; 300], PacketTrace::default()));
        }
        sim.run(200);
        let stale = |sim: &Simulator<_>| sim.metrics_snapshot().counter("sim.stale_repolls");
        assert_eq!(stale(&sim), Some(64), "the first cycle polls every chip, once");
        let busy = (0..sim.adj.len()).filter(|&li| sim.adj.link(li).next_event().is_some());
        assert!(busy.count() > 0, "nothing in flight");
        let polls = |sim: &Simulator<RealTimeRouter>| -> u64 {
            sim.chips.iter().map(|chip| chip.wake_stats().unwrap().polls).sum()
        };
        let (polled, ticks) = (polls(&sim), sim.ticks_executed());
        sim.run(2_000);
        assert_eq!(stale(&sim), Some(64), "no later cycle polls every chip");
        assert_eq!(polls(&sim) - polled, sim.ticks_executed() - ticks, "one poll per tick");
    }

    #[test]
    fn run_until_saturates_the_end_of_its_budget() {
        // `Cycle::MAX` cycles from cycle 10 run past the clock's range: the
        // budget ends at `Cycle::MAX`, and the predicate ends the run at
        // cycle 20, across a quiet span that is leapt boundary by boundary.
        let mut sim = two_node_sim();
        sim.run(10);
        assert!(sim.run_until(Cycle::MAX, |s| s.now() >= 20));
        assert_eq!(sim.now(), 20);
        #[cfg(feature = "metrics")]
        {
            let leaped = sim.metrics_snapshot().counter("sim.leaped_cycles").unwrap_or(0);
            assert_eq!(leaped, 20 - 1, "all but the first cycle are leapt");
        }
    }

    /// Queues one best-effort packet for the node at `x + 1` at cycle `.0`.
    struct OneShot(Cycle);

    impl TrafficSource for OneShot {
        fn pre_cycle(&mut self, now: Cycle, _node: NodeId, io: &mut ChipIo) {
            if now == self.0 {
                io.inject_be.push_back(BePacket::new(1, 0, vec![7; 8], PacketTrace::default()));
            }
        }

        fn next_event(&self, now: Cycle) -> Option<Cycle> {
            (now < self.0).then_some(self.0)
        }
    }

    #[test]
    fn mutation_keeps_a_warm_core_and_its_counters() {
        // A source registered and a chip written between two drive calls
        // run on the next cycle; the wake record is not rebuilt, so its
        // counters cover the whole run and never go down. A source files no
        // wake (its `due` is its only one); the wire is twenty cycles long,
        // so it outruns the flit buffer's credits, and each packet's
        // arrivals wake a link gone quiet.
        let latent = || {
            Simulator::build_with_latency(Topology::mesh(2, 1), 20, |_| {
                RealTimeRouter::new(RouterConfig::default())
            })
            .unwrap()
        };
        let (mut sim, mut every) = (latent(), latent());
        let dst = sim.topology().node_at(1, 0);
        for sim in [&mut sim, &mut every] {
            sim.add_source(NodeId(0), Box::new(OneShot(100)));
        }
        sim.run(500);
        run_every_chip(&mut every, 500);
        let warm = sim.event_core_stats();
        let bytes = sim.wakes.bytes_estimate();
        assert!(warm.filed > 0 && warm.fired > 0, "{warm:?}");
        for sim in [&mut sim, &mut every] {
            sim.add_source(NodeId(0), Box::new(OneShot(700)));
            sim.chip_mut(dst).set_clock_skew(0);
        }
        assert_eq!(sim.event_core_stats(), warm, "mutation kept the core");
        let ticks = sim.ticks_executed();
        sim.run(1_500);
        run_every_chip(&mut every, 1_500);
        let after = sim.event_core_stats();
        assert!(after.filed > warm.filed && after.fired > warm.fired, "{warm:?} → {after:?}");
        assert_eq!(sim.wakes.bytes_estimate(), bytes, "the record was not rebuilt");
        assert!(sim.ticks_executed() - ticks < 400, "the second call still leaps");
        assert_eq!(sim.log(dst).be.len(), 2, "both one-shot packets arrived");
        assert_eq!(every.log(dst).be, sim.log(dst).be);
    }

    #[test]
    fn scheduled_control_op_installs_a_route_mid_run() {
        let mut sim = two_node_sim();
        let src = NodeId(0);
        let dst = sim.topology().node_at(1, 0);
        for (node, mask) in [(src, Port::Dir(Direction::XPlus).mask()), (dst, Port::Local.mask())] {
            let cmd = ControlCommand::SetConnection {
                incoming: ConnectionId(9),
                outgoing: ConnectionId(9),
                delay: 4,
                out_mask: mask,
            };
            sim.schedule_control(500, node, cmd);
        }
        sim.run(400);
        assert_eq!(sim.control_stats().ops_applied, 0, "not due yet");
        sim.run(200);
        assert_eq!(sim.control_stats().ops_applied, 2);
        // The mid-run table writes route traffic exactly like t=0 setup.
        let clock = sim.chip(src).clock();
        let slot_bytes = sim.chip(src).config().slot_bytes;
        let payload = vec![0xEE; sim.chip(src).config().tc_data_bytes()];
        sim.inject_tc(
            src,
            TcPacket {
                conn: ConnectionId(9),
                arrival: clock.wrap(rtr_types::time::cycle_to_slot(sim.now(), slot_bytes) + 2),
                payload: payload.clone().into(),
                trace: PacketTrace::default(),
            },
        );
        assert!(sim.run_until(3000, |s| !s.log(dst).tc.is_empty()));
        assert_eq!(sim.log(dst).tc[0].1.payload, payload);
    }

    #[test]
    fn control_op_failures_are_counted_not_propagated() {
        let mut sim = two_node_sim();
        // A horizon at half the 8-bit clock range breaks §4.3's rollover
        // window: the router refuses it, and the run goes on.
        sim.schedule_control(
            10,
            NodeId(0),
            ControlCommand::SetHorizon { port_mask: Port::Local.mask(), horizon: 128 },
        );
        sim.run(20);
        assert_eq!(sim.control_stats().ops_rejected, 1);
        assert_eq!(sim.control_stats().ops_applied, 0);
        let refused = ControlError::HorizonTooLarge { horizon: 128, max: 127 };
        assert_eq!(sim.control_rejections(), [(10, NodeId(0), refused)]);
        assert_eq!(sim.chip(NodeId(0)).horizon(Port::Local), 0);
    }

    #[test]
    fn leaping_never_crosses_a_control_epoch() {
        // An idle mesh with one control op mid-slumber: the leaper must
        // split its quiet span at the epoch (the debug assert in `leap_to`
        // aborts the test otherwise), apply the op at its exact cycle, and
        // keep leaping on both sides.
        let mut sim = two_node_sim();
        sim.schedule_control(
            5_555,
            NodeId(0),
            ControlCommand::SetConnection {
                incoming: ConnectionId(3),
                outgoing: ConnectionId(3),
                delay: 4,
                out_mask: Port::Local.mask(),
            },
        );
        sim.run(10_000);
        assert_eq!(sim.now(), 10_000);
        assert_eq!(sim.control_stats().ops_applied, 1);
        assert!(sim.ticks_executed() <= 16, "still leaps: {}", sim.ticks_executed());
    }

    #[test]
    fn link_usage_counts_symbols_by_class() {
        let mut sim = two_node_sim();
        let dst = sim.topology().node_at(1, 0);
        sim.inject_be(NodeId(0), BePacket::new(1, 0, vec![0; 30], PacketTrace::default()));
        assert!(sim.run_until(2000, |s| !s.log(dst).be.is_empty()));
        let usage = sim.link_usage(NodeId(0), Direction::XPlus);
        assert_eq!(usage.be_symbols, 34, "4 header + 30 payload bytes crossed");
        assert_eq!(usage.tc_symbols, 0);
        assert_eq!(
            sim.link_usage(dst, Direction::XMinus),
            LinkUsage::default(),
            "the return link never carried anything"
        );
    }

    /// At a shared cycle the agenda pops faults before control ops, even
    /// a fault filed after one, and the control ops in filing order; an op
    /// is not due before its cycle.
    #[test]
    fn agenda_pops_faults_first_then_control_ops_in_filing_order() {
        let mut agenda = Agenda { ops: BTreeMap::new(), filed: 0 };
        let clear = |conn| {
            Op::Control(NodeId(1), ControlCommand::ClearConnection { incoming: ConnectionId(conn) })
        };
        let restore = Op::Fault(FaultKind::NodeRestore { node: NodeId(2) });
        agenda.file(9, Op::Fault(FaultKind::NodeCrash { node: NodeId(3) }));
        agenda.file(7, clear(1));
        agenda.file(7, restore);
        agenda.file(7, clear(2));
        assert_eq!(agenda.next_at(), Some(7));
        assert!(agenda.pop_due(6).is_none());

        let popped: Vec<Op> = std::iter::from_fn(|| agenda.pop_due(7)).collect();
        assert_eq!(popped, [restore, clear(1), clear(2)]);
        assert_eq!(agenda.next_at(), Some(9));
    }
}
