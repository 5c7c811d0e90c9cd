//! The cycle-stepped network simulator.
//!
//! Every simulated cycle runs through one kernel (`Simulator::cycle`):
//! apply the timed operations due now (faults, then control-plane table
//! writes — one agenda), deliver link arrivals (data symbols and
//! reverse-flowing credits) into per-node [`ChipIo`] bundles, run the
//! registered traffic sources, tick the chips, move driven symbols onto
//! the links, route returned credits back to the upstream transmitter, and
//! drain deliveries into per-node [`DeliveryLog`]s. The drive calls differ
//! only in *which* chips the kernel ticks — all of them (dense), or the
//! ones the calendar-queue event core proves can change state (event);
//! the results are bit-identical.
//!
//! The simulation is fully deterministic: node order is fixed, all queues
//! are FIFO, and sources that need randomness own their seeded generators.

use std::collections::BTreeMap;

use rtr_events::{QueueStats, WakeHandle, WakeQueue};
use rtr_metrics::{
    FlightEvent, FlightGuard, FlightRecorder, MetricsRegistry, MetricsSnapshot, Phase,
    PhaseProfiler, PhaseToken,
};
use rtr_types::chip::{Chip, ChipIo, WakeStats};
use rtr_types::ids::{Direction, NodeId, Port};
use rtr_types::packet::{BePacket, TcPacket};
use rtr_types::time::Cycle;

use crate::adjacency::{LinkTable, LinkUsage};
use crate::fault::{FaultKind, FaultSchedule, FaultStats};
use crate::link::LinkLedger;
use crate::metrics::SimMetrics;
use crate::source::TrafficSource;
use crate::stats::{DeliveryLog, OccupancyHistory};
use crate::topology::Topology;

/// The simulator's half of the calendar-queue event core: the wake queue
/// itself plus the per-step dirty set of components whose registered wake
/// must be recomputed after the cycle runs.
///
/// The queue holds only wakes beyond the next cycle. A component answering
/// `now + 1` — a busy chip, every zero-latency wire — is *carried*: it goes
/// straight onto the next cycle's dirty list and never enters the wheel
/// (DESIGN.md §3.15).
///
/// Handle layout (for `n` nodes and `L` wired links): chips occupy `0..n`
/// (by node index), links `n..n + L` (`n +` the link's global CSR index —
/// see [`LinkTable`]), traffic sources `n + L..` (by registration order).
/// The core is rebuilt from scratch whenever the world changes shape or is
/// mutated behind its back (see `Simulator::events_stale`).
#[derive(Debug)]
struct EventCore {
    queue: WakeQueue,
    /// Handles marked dirty during the step in progress, in marking order
    /// (deduplicated via `stamp`). The step began with the first `began`:
    /// what the last step carried, then what the wheel fired.
    dirty: Vec<WakeHandle>,
    began: usize,
    /// Handles polled this step that answered the next cycle, stamped for
    /// it already. A handle is polled at most once a step and nothing marks
    /// it afterwards, so the list holds no duplicate.
    carry: Vec<WakeHandle>,
    /// Wakes carried so far: with the queue's `filed`, one per answered poll.
    carried: u64,
    /// Per-handle cycle of the most recent dirty mark.
    stamp: Vec<Cycle>,
    /// Poll every component at the end of the next step (the core was just
    /// built and knows no wakes yet).
    prime: bool,
}

impl EventCore {
    fn new(handles: usize) -> Self {
        let mut queue = WakeQueue::with_capacity(handles);
        for _ in 0..handles {
            queue.register();
        }
        EventCore {
            queue,
            // A cycle marks, carries and pops only what is active, so the
            // lists grow to the busiest cycle's activity, not to `handles`.
            dirty: Vec::new(),
            began: 0,
            carry: Vec::new(),
            carried: 0,
            stamp: vec![Cycle::MAX; handles],
            prime: true,
        }
    }

    /// Opens the step simulating `now`: its dirty list starts as what the
    /// last step carried (already stamped `now`), and the wheel's due wakes
    /// join it — other handles, since carrying one clears its registration.
    fn begin(&mut self, now: Cycle) {
        std::mem::swap(&mut self.dirty, &mut self.carry);
        self.carry.clear();
        debug_assert!(self.dirty.iter().all(|h| self.stamp[h.index()] == now));
        let carried = self.dirty.len();
        self.queue.pop_due(now, &mut self.dirty);
        for h in &self.dirty[carried..] {
            self.stamp[h.index()] = now;
        }
        self.began = self.dirty.len();
    }

    /// Marks a handle for re-polling at the end of the step simulating
    /// `now`. Steps have distinct `now`s, so the stamp deduplicates marks
    /// within a step without any per-step reset.
    fn mark(&mut self, handle: usize, now: Cycle) {
        let stamp = &mut self.stamp[handle];
        debug_assert!(*stamp <= now || *stamp == Cycle::MAX, "{handle} marked after its poll");
        if *stamp != now {
            *stamp = now;
            self.dirty.push(WakeHandle(handle as u32));
        }
    }

    /// Records a handle's wake as polled at the end of cycle `now`: cleared
    /// for `None`, filed in the wheel when it lies beyond the next cycle,
    /// else carried (a wake never lands at or before the cycle just run).
    fn file_wake(&mut self, handle: u32, at: Option<Cycle>, now: Cycle) {
        match at {
            Some(at) if at > now + 1 => self.queue.set_wake(WakeHandle(handle), at),
            Some(_) => {
                self.queue.clear_wake(WakeHandle(handle));
                self.stamp[handle as usize] = now + 1;
                self.carry.push(WakeHandle(handle));
            }
            None => self.queue.clear_wake(WakeHandle(handle)),
        }
    }
}

/// The nodes whose injection queues may hold packets — queues no wake
/// describes. Every non-empty queue's node is listed (never the converse);
/// the event cycle marks the listed chips and prunes the drained.
struct Backlog {
    nodes: Vec<u32>,
    /// Per-node membership of `nodes`.
    listed: Vec<bool>,
}

impl Backlog {
    fn note(&mut self, node: usize) {
        if !std::mem::replace(&mut self.listed[node], true) {
            self.nodes.push(node as u32);
        }
    }

    /// Whether a node's injection queues hold anything.
    fn pending(io: &ChipIo) -> bool {
        !(io.inject_tc.is_empty() && io.inject_be.is_empty())
    }
}

/// What a timed operation does when its cycle comes.
enum Op<C> {
    /// A scripted fault (or repair).
    Fault(FaultKind),
    /// A control-plane write against the chip at the node.
    Control(NodeId, ControlFn<C>),
}

/// The agenda of timed operations — scripted faults and scheduled
/// control-plane writes alike. The kernel applies the due prefix at the
/// start of the step simulating each op's cycle, *before* link arrivals,
/// and the leap planner clamps its quiet targets to [`Agenda::next_at`],
/// so every drive mode observes each op at exactly the same cycle boundary
/// and no leap ever crosses one.
struct Agenda<C> {
    /// Pending ops keyed `(cycle, is a control op, filing order)`: at a
    /// shared cycle faults apply before control writes, and within a plane
    /// ops apply in the order they were filed.
    ops: BTreeMap<(Cycle, bool, u64), Op<C>>,
    /// Ops filed so far (the key's tie-breaker).
    filed: u64,
}

impl<C> Agenda<C> {
    fn file(&mut self, at: Cycle, op: Op<C>) {
        self.ops.insert((at, matches!(op, Op::Control(..)), self.filed), op);
        self.filed += 1;
    }

    /// The cycle of the earliest pending op.
    fn next_at(&self) -> Option<Cycle> {
        self.ops.first_key_value().map(|(key, _)| key.0)
    }

    /// Removes and returns the earliest pending op if it is due by `now`.
    fn pop_due(&mut self, now: Cycle) -> Option<Op<C>> {
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
    /// compare for a source that has promised silence.
    sources: Vec<(NodeId, Box<dyn TrafficSource>, Cycle)>,
    /// Fed by [`Simulator::inject_tc`]/[`Simulator::inject_be`] and the
    /// event cycle's source pass; the prime cycle scans in what dense
    /// cycles queued.
    backlog: Backlog,
    /// Sample chip gauges every N cycles (None = sampling off).
    gauge_every: Option<Cycle>,
    gauge_samples: OccupancyHistory,
    /// The chips the last cycle ticked (live node indices, ascending): the
    /// only [`ChipIo`]s left to clear, and the next cycle's list buffer.
    tick_list: Vec<u32>,
    /// Chip ticks actually executed (sparse event-core steps tick only the
    /// due chips; leaped cycles execute none).
    ticks_executed: u64,
    /// Per-chip lazy idle-accounting stamp: the first cycle not yet
    /// accounted to the chip, either by a tick (which covers the cycle it
    /// runs) or by a [`Chip::skip_quiet`] reconciliation. Sparse steps and
    /// leaps leave quiet chips untouched; the span
    /// `unticked[i]..tick_cycle` is reconciled in one `skip_quiet` call
    /// the next time chip `i` ticks, and [`Simulator::settle_idle`]
    /// flushes every outstanding span at the public drive-call boundaries.
    unticked: Vec<Cycle>,
    /// Debug-build checksum: cycles accounted per chip (ticked +
    /// skip-reconciled). Must equal `now` whenever the simulator settles —
    /// the sparse path's lazy reconciliation proven against dense
    /// stepping's one-tick-per-chip-per-cycle invariant.
    #[cfg(debug_assertions)]
    dbg_accounted: Vec<Cycle>,
    /// The calendar-queue event core behind the leaping paths.
    events: EventCore,
    /// The event core no longer reflects the world: dense cycles mutate
    /// chips without wake bookkeeping (keeping them at zero event-core
    /// overhead), as do external mutators like [`Simulator::chip_mut`].
    /// The next leaping call re-primes.
    events_stale: bool,
    /// Metrics registry, phase profiler, and flight recorder (all
    /// zero-sized no-ops without the `metrics` feature).
    metrics: SimMetrics,
    /// Pending faults and control-plane writes.
    agenda: Agenda<C>,
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
    control_rejections: Vec<(Cycle, NodeId, String)>,
    now: Cycle,
}

/// The boxed closure form of a scheduled control operation; see
/// [`Simulator::schedule_control`].
pub type ControlFn<C> = Box<dyn FnOnce(&mut C) -> Result<(), String>>;

/// How many rejected control ops [`Simulator::control_rejections`] keeps.
const REJECTION_LOG_CAP: usize = 16;

/// Counters for the scheduled control-operation plane (see
/// [`Simulator::schedule_control`]).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct ControlStats {
    /// Operations applied whose closure returned `Ok`.
    pub ops_applied: u64,
    /// Operations applied whose closure returned `Err` (e.g. a control
    /// write the router rejected); the error is not propagated — the
    /// schedule keeps running like hardware would — but the most recent
    /// ones are kept in [`Simulator::control_rejections`].
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
            backlog: Backlog { nodes: Vec::new(), listed: vec![false; n] },
            gauge_every: None,
            gauge_samples: OccupancyHistory::default(),
            tick_list: Vec::with_capacity(n),
            ticks_executed: 0,
            unticked: vec![0; n],
            #[cfg(debug_assertions)]
            dbg_accounted: vec![0; n],
            events: EventCore::new(0),
            events_stale: true,
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
    pub fn chip_mut(&mut self, node: NodeId) -> &mut C {
        self.settle_chip(node.index());
        self.events_stale = true;
        &mut self.chips[node.index()]
    }

    /// The delivery log of a node.
    #[must_use]
    pub fn log(&self, node: NodeId) -> &DeliveryLog {
        &self.logs[node.index()]
    }

    /// Registers a traffic source at a node (several per node are allowed;
    /// they run in registration order).
    pub fn add_source(&mut self, node: NodeId, source: Box<dyn TrafficSource>) {
        self.events_stale = true;
        self.sources.push((node, source, 0));
    }

    /// Queues a time-constrained packet for injection at a node.
    ///
    /// Injection does not invalidate a warm event core: the node joins
    /// the injection-backlog list, the event cycle marks every listed chip
    /// dirty until its queues drain, and the leap planner never leaps past
    /// a listed backlog, so no wake can go stale.
    pub fn inject_tc(&mut self, node: NodeId, packet: TcPacket) {
        self.ios[node.index()].inject_tc.push_back(packet);
        self.backlog.note(node.index());
    }

    /// Queues a best-effort packet for injection at a node (see
    /// [`Simulator::inject_tc`] on why this keeps the event core warm).
    pub fn inject_be(&mut self, node: NodeId, packet: BePacket) {
        self.ios[node.index()].inject_be.push_back(packet);
        self.backlog.note(node.index());
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
    /// `benchmark/src/probes.rs`; ROADMAP 1(f) deletes it with that probe.
    #[doc(hidden)]
    pub fn set_parallelism(&mut self, _workers: usize) {}

    /// Operation counters of the calendar-queue event core, or `None` when
    /// the core is stale (no leaping call since the last world mutation).
    #[must_use]
    pub fn event_core_stats(&self) -> Option<QueueStats> {
        (!self.events_stale).then(|| self.events.queue.stats())
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

    /// The unified metrics registry (counters, gauges, histograms). A
    /// zero-sized no-op without the `metrics` feature; runtime-switchable
    /// via [`rtr_metrics::MetricsRegistry::set_enabled`] with it.
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
    /// the `metrics` feature (or with the registry runtime-disabled).
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
        for (_, source, _) in &self.sources {
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
            symbols += link.in_flight();
            credit_batches += link.credits_in_flight();
        }
        registry.set_gauge(registry.gauge("sim.link_symbols_in_flight"), symbols as i64);
        registry.set_gauge(registry.gauge("sim.link_credits_in_flight"), credit_batches as i64);
        if let Some(wake) = self.wake_precision() {
            registry.absorb_counter("wake.polls", wake.polls);
            registry.absorb_counter("wake.short_polls", wake.short_polls);
        }
        if let Some(queue) = self.event_core_stats() {
            queue.emit_counters(&mut |name, value| registry.absorb_counter(name, value));
            registry.absorb_counter("sim.wakes_carried", self.events.carried);
        }
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

    /// Arms a flight recorder keeping the last `cap` trace events in a
    /// ring, dumped as JSONL to `path` on the first conservation failure
    /// or panic (see [`Simulator::flight_guard`]). No-op without the
    /// `metrics` feature.
    pub fn arm_flight_recorder(&mut self, cap: usize, path: impl Into<std::path::PathBuf>) {
        self.metrics.arm_recorder(cap, path.into());
    }

    /// The armed flight recorder, if any.
    #[must_use]
    pub fn flight_recorder(&self) -> Option<&FlightRecorder> {
        self.metrics.recorder()
    }

    /// A guard that dumps the flight ring if the current thread panics
    /// while it is alive (`None` when no recorder is armed). Take one at
    /// the top of a test body to capture the moments before an assert.
    #[must_use]
    pub fn flight_guard(&self) -> Option<FlightGuard> {
        let recorder = self.metrics.recorder()?;
        Some(recorder.panic_guard(self.metrics_snapshot()))
    }

    /// Checks every chip's conservation ledger, dumping the flight ring
    /// (when a recorder is armed) and returning the first violation.
    ///
    /// # Errors
    ///
    /// Returns the offending node and the chip's own ledger description.
    pub fn check_conservation(&self) -> Result<(), String> {
        for (node, chip) in self.chips.iter().enumerate() {
            if let Err(violation) = chip.check_conservation() {
                let message = format!("node {node}: {violation}");
                if let Some(rec) = self.metrics.recorder() {
                    rec.dump("conservation", &self.metrics_snapshot());
                }
                return Err(message);
            }
        }
        // Link ledgers: symbols destroyed by faults must land in a loss
        // column, never leak (`sent = delivered + lost + in flight`).
        for li in 0..self.adj.len() {
            if let Err(violation) = self.adj.link(li).check_conservation() {
                let node = self.adj.owner_of(li);
                let message = format!("link {} {:?}: {violation}", node.index(), self.adj.dir(li));
                if let Some(rec) = self.metrics.recorder() {
                    rec.dump("conservation", &self.metrics_snapshot());
                }
                return Err(message);
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
            let ledger = link.ledger();
            stats.symbols_lost += ledger.symbols_lost;
            stats.symbols_corrupted += ledger.symbols_corrupted;
            stats.credits_lost += ledger.credits_lost;
            stats.late_arrivals_dropped += ledger.late_arrivals_dropped;
        }
        stats
    }

    /// Schedules a control-plane operation against the chip at `node`,
    /// applied at the start of the step simulating cycle `at` (clamped to
    /// the current cycle), before link arrivals — identically in every
    /// drive mode, including inside spans the leaper would otherwise skip.
    ///
    /// This is the simulator half of live channel signaling: a signaling
    /// engine models its per-write reprogramming latency by scheduling
    /// each table delta a few cycles out instead of mutating through
    /// [`Simulator::chip_mut`] (which would also cold-stale a warm event
    /// core; scheduled ops keep it warm and just mark the written chip
    /// dirty). The closure's `Err` is counted in [`ControlStats`] and
    /// logged in [`Simulator::control_rejections`], not propagated — the
    /// schedule keeps running like hardware would.
    pub fn schedule_control(
        &mut self,
        at: Cycle,
        node: NodeId,
        op: impl FnOnce(&mut C) -> Result<(), String> + 'static,
    ) {
        self.agenda.file(at.max(self.now), Op::Control(node, Box::new(op)));
    }

    /// Counters for the scheduled control-operation plane.
    #[must_use]
    pub fn control_stats(&self) -> ControlStats {
        self.control_events
    }

    /// The most recent control ops whose closure returned `Err`, oldest
    /// first, as `(cycle applied, node, the closure's message)`. Only the
    /// last few are kept; [`ControlStats::ops_rejected`] counts them all.
    #[must_use]
    pub fn control_rejections(&self) -> &[(Cycle, NodeId, String)] {
        &self.control_rejections
    }

    /// Applies every agenda op due at or before the current cycle. Called
    /// once per cycle by the kernel, before link arrivals.
    fn apply_due(&mut self) {
        while let Some(op) = self.agenda.pop_due(self.now) {
            match op {
                Op::Fault(kind) => self.apply_fault(kind),
                Op::Control(node, op) => self.apply_control(node, op),
            }
        }
    }

    fn apply_control(&mut self, node: NodeId, op: ControlFn<C>) {
        let now = self.now;
        let i = node.index();
        match op(&mut self.chips[i]) {
            Ok(()) => self.control_events.ops_applied += 1,
            Err(message) => {
                self.control_events.ops_rejected += 1;
                if self.control_rejections.len() == REJECTION_LOG_CAP {
                    self.control_rejections.remove(0);
                }
                self.control_rejections.push((now, node, message));
            }
        }
        // A table delta can change what the chip will do next (e.g. a
        // buffered packet becomes routable); mark it dirty so a warm
        // event core ticks and re-polls it this cycle, exactly like a
        // chip the fault plane touched. Dense stepping ticks every
        // chip anyway, so the outcomes stay byte-identical.
        if !self.events_stale {
            self.events.mark(i, now);
        }
        self.record_fault(now, "control_op", node, 0);
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
            .map_or_else(LinkLedger::default, |li| self.adj.link(li).ledger())
    }

    fn apply_fault(&mut self, kind: FaultKind) {
        let now = self.now;
        let n = self.chips.len();
        let warm = !self.events_stale;
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
                let label = if crash {
                    self.fault_events.node_crash_events += 1;
                    "fault_node_crash"
                } else {
                    self.fault_events.node_restore_events += 1;
                    // A restored chip's reassembly registers are undefined:
                    // abort partial arrivals and refund the flow-control
                    // credits of the dropped best-effort bytes upstream.
                    let dropped = self.chips[i].abort_partial_rx();
                    let (fs, fe) = self.adj.in_bounds(i);
                    for fi in fs..fe {
                        let idx = Port::Dir(self.adj.in_dir(fi)).index();
                        let bytes = u16::from(dropped[idx]);
                        if bytes > 0 {
                            let li = self.adj.in_link(fi);
                            self.adj.link_mut(li).send_credit(now, bytes);
                            if warm {
                                self.events.mark(n + li, now);
                            }
                        }
                    }
                    "fault_node_restore"
                };
                if warm {
                    // Crash clears the chip's and its sources' wakes;
                    // restore re-registers them.
                    self.events.mark(i, now);
                    let base = n + self.adj.len();
                    for (s, (home, ..)) in self.sources.iter().enumerate() {
                        if home.index() == i {
                            self.events.mark(base + s, now);
                        }
                    }
                }
                self.record_fault(now, label, node, 0);
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
                let label = match kind {
                    FaultKind::LinkDown { .. } => {
                        link.set_down();
                        events.link_down_events += 1;
                        "fault_link_down"
                    }
                    FaultKind::LinkUp { .. } => {
                        link.set_up();
                        events.link_up_events += 1;
                        "fault_link_up"
                    }
                    FaultKind::LinkFlaky { drop_per_1024, corrupt_per_1024, .. } => {
                        link.set_flaky(drop_per_1024, corrupt_per_1024, seed);
                        events.link_flaky_events += 1;
                        "fault_link_flaky"
                    }
                    // `LinkStable`: the outer arm admits nothing else.
                    _ => {
                        link.set_flaky(0, 0, seed);
                        events.link_stable_events += 1;
                        "fault_link_stable"
                    }
                };
                if warm {
                    self.events.mark(n + li, now);
                }
                self.record_fault(now, label, node, dir as u64);
            }
        }
    }

    fn record_fault(&self, cycle: Cycle, kind: &'static str, node: NodeId, a: u64) {
        if let Some(rec) = self.metrics.recorder() {
            rec.record(FlightEvent { cycle, kind, node: u32::from(node.0), a, b: 0 });
        }
    }

    /// Traffic carried so far by the link leaving `node` in `dir`
    /// (defaults to zero for unwired directions).
    #[must_use]
    pub fn link_usage(&self, node: NodeId, dir: Direction) -> LinkUsage {
        self.adj
            .out_index(node.index(), dir)
            .map_or_else(LinkUsage::default, |li| self.adj.usage(li))
    }

    /// Chip ticks executed so far (the tick-loop work actually performed).
    /// Plain stepping executes `nodes × cycles` ticks; the event-driven
    /// [`Simulator::run_leaping`] executes none for leaped cycles, so this
    /// counter is how tests pin the O(events) claim.
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
        let events = self.events.queue.bytes_estimate()
            + (self.events.dirty.capacity() + self.events.carry.capacity())
                * std::mem::size_of::<WakeHandle>()
            + self.events.stamp.capacity() * std::mem::size_of::<Cycle>()
            + (self.tick_list.capacity() + self.backlog.nodes.capacity())
                * std::mem::size_of::<u32>()
            + self.backlog.listed.capacity();
        let total = chips
            + ios
            + logs
            + events
            + self.adj.heap_bytes()
            + self.topo.heap_bytes()
            + self.unticked.capacity() * std::mem::size_of::<Cycle>()
            + self.sources.capacity()
                * std::mem::size_of::<(NodeId, Box<dyn TrafficSource>, Cycle)>();
        total / n.max(1)
    }

    /// Advances the network by one cycle.
    ///
    /// While the event core is warm (a leaping call primed it and nothing
    /// invalidated it since), the cycle runs with wake bookkeeping and
    /// ticks only the chips that can change state — the results are
    /// bit-identical, and keeping the queue warm means a later leaping
    /// call starts from live wakes instead of an O(components) re-prime
    /// (counted by the `sim.stale_repolls` metric).
    pub fn step(&mut self) {
        self.step_inner();
        self.settle_idle();
    }

    /// One cycle without the idle settle (public drive calls settle once, at
    /// their end). A stale event core stays stale: dense cycles skip wakes.
    fn step_inner(&mut self) {
        if self.events_stale {
            self.cycle::<false>();
        } else {
            self.cycle::<true>();
        }
    }

    /// The step kernel — the one definition of what happens in a cycle:
    ///
    /// 1. (`EV`) the dirty set starts as the handles carried into this cycle
    ///    and the wheel's due wakes join it;
    /// 2. agenda ops due now apply — faults, then control writes;
    /// 3. links — all when dense or priming, else those whose wake fired or
    ///    was carried — deliver arrivals, and sources run (`phase_pre`);
    /// 4. chips tick: every live chip when dense (`EV` unset) or priming a
    ///    freshly built event core, otherwise exactly the dirty chips (due
    ///    wakes, arrivals, credits, pending injections, agenda touches).
    ///    Every other chip is provably quiet — its registered wake lies
    ///    beyond `now` and nothing external reached it — and its per-cycle
    ///    idle accounting is reconciled lazily from `unticked`;
    /// 5. the ticked chips' driven symbols and credits move onto the
    ///    links, their deliveries drain, the clock advances (`phase_post`);
    /// 6. (`EV`) the dirty links and sources re-register their wakes, or
    ///    the prime sweep registers everything once; a wake for the next
    ///    cycle is carried there instead of filed.
    ///
    /// `EV = false` compiles all wake bookkeeping out.
    fn cycle<const EV: bool>(&mut self) {
        let now = self.now;
        let n = self.chips.len();
        let t = self.metrics.profiler.start();
        if EV {
            debug_assert!(!self.events_stale, "event cycle on a stale core");
            self.events.begin(now);
        }
        self.apply_due();
        let t = if EV { self.metrics.profiler.lap(Phase::WheelPop, t) } else { t };
        let prime = EV && std::mem::take(&mut self.events.prime);
        let mut list = std::mem::take(&mut self.tick_list);
        self.phase_pre::<EV>(&list, prime);
        let t = self.metrics.profiler.lap(Phase::LinkPre, t);

        // A crashed chip is passed over either way: its cycles are
        // accounted (without `skip_quiet`) when it restores or at settle.
        list.clear();
        let crashed = &self.crashed;
        if !EV || prime {
            list.extend((0..n as u32).filter(|&h| !crashed[h as usize]));
        } else {
            let dirty = self.events.dirty.iter().map(|h| h.0);
            list.extend(dirty.filter(|&h| (h as usize) < n && !crashed[h as usize]));
            list.sort_unstable();
        }
        let t = self.tick_chips::<EV>(now, &list, t);
        self.phase_post::<EV>(now, &list);
        self.tick_list = list;
        let t = self.metrics.profiler.lap(Phase::LinkPost, t);
        if EV {
            if prime {
                // Priming a fresh queue: chips were polled as they ticked
                // and sources are polled unconditionally, but only the
                // non-empty links file a wake — the queue is empty, so
                // idle links have nothing to clear, and at mega-mesh scale
                // they vastly outnumber the ones carrying traffic. Only
                // the wakes actually filed count as (stale) repolls.
                let mut repolled = (n + self.sources.len()) as u64;
                for li in 0..self.adj.len() {
                    if let Some(at) = self.adj.link(li).next_event() {
                        self.events.file_wake((n + li) as u32, Some(at), now);
                        repolled += 1;
                    }
                }
                for s in 0..self.sources.len() {
                    self.repoll(n + self.adj.len() + s, now);
                }
                self.metrics.registry.inc(self.metrics.ids.stale_repolls, repolled);
            } else {
                for k in 0..self.events.dirty.len() {
                    // Live chips were polled as they ticked.
                    let h = self.events.dirty[k].index();
                    if h >= n || self.crashed[h] {
                        self.repoll(h, now);
                    }
                }
                #[cfg(debug_assertions)]
                {
                    let mut polled = self.events.dirty.clone();
                    polled.sort_unstable();
                    assert!(polled.windows(2).all(|w| w[0] != w[1]), "a handle polled twice");
                }
            }
            self.events.carried += self.events.carry.len() as u64;
            self.metrics.profiler.stop(Phase::Repoll, t);
        }
    }

    /// Ticks the chips in `list` (live node indices, ascending) for cycle
    /// `now` and, with `EV`, registers each one's next wake, in ascending
    /// node order.
    fn tick_chips<const EV: bool>(
        &mut self,
        now: Cycle,
        list: &[u32],
        t: PhaseToken,
    ) -> PhaseToken {
        #[cfg(debug_assertions)]
        for &h in list {
            self.dbg_accounted[h as usize] += now + 1 - self.unticked[h as usize];
        }
        self.ticks_executed += list.len() as u64;
        for &h in list {
            let i = h as usize;
            let chip = &mut self.chips[i];
            // First reconcile any idle span a sparse cycle or a leap left
            // pending.
            if self.unticked[i] < now {
                chip.skip_quiet(self.unticked[i], now);
            }
            chip.tick(now, &mut self.ios[i]);
            self.unticked[i] = now + 1;
            // A chip's state is final for the cycle once it has ticked — the
            // link phases never touch it — so polling here sees what an
            // end-of-cycle poll would.
            if EV {
                self.events.file_wake(h, chip.next_event(now), now);
            }
        }
        self.metrics.profiler.lap(Phase::SerialTick, t)
    }

    /// Flushes every chip's outstanding lazy idle span. Sparse event-core
    /// steps and leaps touch only due chips; a quiet chip's
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
                "chip {i}: sparse idle accounting diverged from dense per-chip cycle counts"
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
    /// cycle's full sweeps used to start. On an event cycle every `ChipIo`
    /// is clear and its backlog listed (a dense cycle clears them all and
    /// keeps no backlog list). On every cycle no link the arrival pass will
    /// pass over — its wake is not in `fired` (the handles the cycle began
    /// with, sorted; `None` when all links are swept), or its `next_at` lies
    /// ahead — owes anything yet by the queues' own account.
    #[cfg(debug_assertions)]
    fn dbg_check_activity(&self, event: bool, fired: Option<&[WakeHandle]>) {
        let (now, n) = (self.now, self.chips.len());
        let ios = if event { &self.ios[..] } else { &[] };
        for (node, io) in ios.iter().enumerate() {
            let clear = io.rx.iter().chain(&io.tx).all(Option::is_none)
                && io.credit_in.iter().chain(&io.credit_out).all(|&c| c == 0)
                && io.delivered_tc.is_empty()
                && io.delivered_be.is_empty();
            assert!(clear, "chip {node} carried traffic into cycle {now} without having ticked");
            let listed = self.backlog.listed[node] || !Backlog::pending(io);
            assert!(listed, "chip {node} has queued injections but is not on the backlog list");
        }
        for li in 0..self.adj.len() {
            let link = self.adj.link(li);
            let owes = link.scanned_next_event().is_some_and(|at| at <= now);
            let polled = link.next_event().is_some_and(|at| at <= now)
                && fired.is_none_or(|f| f.binary_search(&WakeHandle((n + li) as u32)).is_ok());
            assert!(polled || !owes, "link {li} owes an arrival at {now} but will not be polled");
        }
    }

    /// The nodes a per-chip pass of the link phases visits: a cycle's tick
    /// `list` on an event cycle. A dense cycle ticks every live chip, so its
    /// domain is plain `0..n` and its loops compile without the indirection.
    fn ticked<const EV: bool>(list: &[u32], n: usize) -> impl Iterator<Item = usize> + '_ {
        (0..if EV { list.len() } else { n }).map(move |k| if EV { list[k] as usize } else { k })
    }

    /// Pre-tick phases of one cycle: link arrivals and traffic sources.
    /// `ticked_last` is the previous cycle's tick list.
    ///
    /// With `EV` set, additionally feeds the event core's dirty set:
    /// chips receiving symbols, credits, or holding pending injections —
    /// and links whose queues were popped — get their wakes recomputed at
    /// the end of the step. `EV = false` compiles the bookkeeping out.
    fn phase_pre<const EV: bool>(&mut self, ticked_last: &[u32], prime: bool) {
        let now = self.now;
        let n = self.chips.len();
        // Being handed an arrival (`rx`/`credit_in`) makes a chip tick.
        for node in Self::ticked::<EV>(ticked_last, n) {
            self.ios[node].begin_cycle();
        }
        if prime {
            // Dense cycles skipped the backlog bookkeeping with the wakes.
            for i in (0..n).filter(|&i| Backlog::pending(&self.ios[i])) {
                self.backlog.note(i);
            }
        }

        // 1. Link arrivals (data forward, credits backward). A link's wake
        // is its earliest owed arrival (carried to the next cycle while a
        // crashed end leaves one parked), so on a primed core `recv` and
        // `recv_credit` are no-ops on every link the step did not begin
        // with. Their order is free: a link writes only its own `rx` and
        // `credit_in` slots, and the tick list is sorted afterwards.
        let sweep = !EV || prime;
        let began = if sweep { self.adj.len() } else { self.events.began };
        #[cfg(debug_assertions)]
        {
            let mut fired = if sweep { Vec::new() } else { self.events.dirty[..began].to_vec() };
            fired.sort_unstable();
            self.dbg_check_activity(EV, (!sweep).then_some(&fired[..]));
        }
        let mut visits = 0;
        for k in 0..began {
            // The step began with chips and sources too: below `n` the
            // subtraction wraps, so both fall outside the link indices.
            let li = if sweep { k } else { self.events.dirty[k].index().wrapping_sub(n) };
            if !sweep && li >= self.adj.len() {
                continue;
            }
            visits += 1;
            // Nothing due on either wire: `recv` and `recv_credit` would be
            // no-ops whatever the crash flags say.
            if self.adj.link(li).next_event().is_none_or(|at| at > now) {
                continue;
            }
            let node = self.adj.owner_of(li).index();
            // A crashed receiver drains nothing: its arrivals age on the
            // wire and are dropped (and counted) once stale. A crashed
            // *transmitter* takes no credits either — credits are pure
            // counters, so its batches simply deliver late after restore.
            let recv_data = !self.crashed[self.adj.dst(li).node.index()];
            let recv_credits = !self.crashed[node];
            if !recv_data && !recv_credits {
                continue;
            }
            let (symbol, credits) = {
                let link = self.adj.link_mut(li);
                (
                    if recv_data { link.recv(now) } else { None },
                    if recv_credits { link.recv_credit(now) } else { 0 },
                )
            };
            if EV && (symbol.is_some() || credits > 0) {
                self.events.mark(n + li, now);
            }
            if let Some(symbol) = symbol {
                let dst = self.adj.dst(li);
                self.ios[dst.node.index()].rx[Port::Dir(dst.dir).index()] = Some(symbol);
                if EV {
                    self.events.mark(dst.node.index(), now);
                }
            }
            if credits > 0 {
                self.ios[node].credit_in[Port::Dir(self.adj.dir(li)).index()] += credits;
                if EV {
                    self.events.mark(node, now);
                }
            }
        }
        self.metrics.registry.inc(self.metrics.ids.link_visits, visits);

        // 2. Traffic sources (silent while their node is crashed). A source
        // runs when its own `next_event` answer comes due — the contract
        // leaping relies on: until then `pre_cycle` would do nothing.
        for (node, source, due) in &mut self.sources {
            let i = node.index();
            if now < *due || self.crashed[i] {
                continue;
            }
            source.pre_cycle(now, *node, &mut self.ios[i]);
            *due = source.next_event(now).unwrap_or(Cycle::MAX);
            if EV && Backlog::pending(&self.ios[i]) {
                self.backlog.note(i);
            }
        }

        // 3. Chips with pending injections may start draining them this
        // tick (the injection queues live outside the chips, so their
        // `next_event` cannot account for them). A crashed chip drains
        // nothing; its restore event re-marks it.
        if EV {
            let Backlog { nodes, listed } = &mut self.backlog;
            let (ios, crashed, events) = (&self.ios, &self.crashed, &mut self.events);
            nodes.retain(|&node| {
                let i = node as usize;
                listed[i] = Backlog::pending(&ios[i]);
                if listed[i] && !crashed[i] {
                    events.mark(i, now);
                }
                listed[i]
            });
        }
    }

    /// Post-tick phases of one cycle: symbol/credit collection and delivery
    /// draining over the chips in `list` that just ticked (only a tick
    /// drives, returns credits, or delivers), gauge sampling, and the clock
    /// advance. With `EV` set, links that carried a new symbol or credit
    /// batch are marked dirty.
    fn phase_post<const EV: bool>(&mut self, now: Cycle, list: &[u32]) {
        let n = self.chips.len();
        let walked = if EV { list.len() } else { n };
        self.metrics.registry.inc(self.metrics.ids.io_visits, walked as u64);
        // 4. Collect driven symbols and returned credits — walking only
        // the wired outputs and fed inputs via the CSR tables. A chip can
        // only drive ports its wiring feeds credits through, so scanning
        // the sparse tables covers every live port; the debug asserts
        // below catch a chip writing to an unwired one.
        for node in Self::ticked::<EV>(list, n) {
            debug_assert!(
                self.ios[node].tx[Port::Local.index()].is_none(),
                "chips must deliver locally, not drive the local port"
            );
            let (start, end) = self.adj.out_bounds(node);
            for li in start..end {
                let idx = Port::Dir(self.adj.dir(li)).index();
                if let Some(symbol) = self.ios[node].tx[idx].take() {
                    let usage = self.adj.usage_mut(li);
                    if symbol.is_time_constrained() {
                        usage.tc_symbols += 1;
                    } else {
                        usage.be_symbols += 1;
                    }
                    self.adj.link_mut(li).send(now, symbol);
                    if EV {
                        self.events.mark(n + li, now);
                    }
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
                    if EV {
                        self.events.mark(n + li, now);
                    }
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

        // 5. Drain deliveries — recording them in the flight ring when a
        // recorder is armed.
        if let Some(rec) = self.metrics.recorder() {
            for node in Self::ticked::<EV>(list, n) {
                let io = &self.ios[node];
                for (cycle, p) in &io.delivered_tc {
                    rec.record(FlightEvent {
                        cycle: *cycle,
                        kind: "deliver_tc",
                        node: node as u32,
                        a: u64::from(p.conn.0),
                        b: p.trace.deadline,
                    });
                }
                for (cycle, p) in &io.delivered_be {
                    rec.record(FlightEvent {
                        cycle: *cycle,
                        kind: "deliver_be",
                        node: node as u32,
                        a: p.payload.len() as u64,
                        b: 0,
                    });
                }
            }
        }
        for node in Self::ticked::<EV>(list, n) {
            let (io, log) = (&mut self.ios[node], &mut self.logs[node]);
            log.tc.append(&mut io.delivered_tc);
            log.be.append(&mut io.delivered_be);
        }

        // 6. Periodic occupancy sampling.
        if self.gauge_every.is_some_and(|every| now.is_multiple_of(every)) {
            self.gauge_samples.record(now, &self.chips);
        }

        self.now += 1;
    }

    /// Runs for `cycles` cycles.
    pub fn run(&mut self, cycles: Cycle) {
        self.run_until(cycles, |_| false);
    }

    /// Same as [`Simulator::run`]. Kept only for its one caller, the
    /// `mesh.pool.speedup_2w` probe in `benchmark/src/probes.rs`; ROADMAP
    /// 1(f) deletes it with that probe.
    #[doc(hidden)]
    pub fn run_parallel(&mut self, cycles: Cycle) {
        self.run(cycles);
    }

    /// Polls a link's, a source's, or a crashed chip's `next_event` and
    /// files (or clears) its wake; live chips are polled as they tick.
    /// See [`EventCore`] for the handle layout.
    fn repoll(&mut self, handle: usize, now: Cycle) {
        let n = self.chips.len();
        let nl = n + self.adj.len();
        let at = if handle < n {
            // A crashed chip has no wake: it is not ticked until restore,
            // which marks it dirty again.
            debug_assert!(self.crashed[handle], "live chips are polled as they tick");
            None
        } else if handle < nl {
            self.adj.link(handle - n).next_event()
        } else {
            let (node, source, _) = &self.sources[handle - nl];
            if self.crashed[node.index()] {
                None
            } else {
                source.next_event(now)
            }
        };
        self.events.file_wake(handle as u32, at, now);
    }

    /// If the network is provably quiescent at `self.now` (an event cycle
    /// just ran), returns the earliest cycle at which anything can happen,
    /// clamped to `end`: the minimum registered wake, read in O(1) instead
    /// of re-polling every component. Returns `None` when some component
    /// needs the very next cycle, i.e. no leap is possible.
    fn quiet_target(&mut self, end: Cycle) -> Option<Cycle> {
        // Never leap across an agenda op: each must apply at the start of
        // exactly its own cycle in every drive mode.
        let end = self.agenda.next_at().map_or(end, |at| end.min(at));
        // A carried handle wakes at `self.now`, and no wheel entry says so.
        if !self.events.carry.is_empty() {
            return None;
        }
        // Packets queued for injection live in simulator-owned ChipIo
        // queues the chips drain over time, so no wake describes them; any
        // backlog keeps stepping. (A crashed chip drains nothing, so its
        // backlog cannot block a leap — the agenda clamp stops at restore.)
        let blocks = |&node: &u32| {
            !self.crashed[node as usize] && Backlog::pending(&self.ios[node as usize])
        };
        if self.backlog.nodes.iter().any(blocks) {
            return None;
        }
        let target = self.events.queue.next_wake().map_or(end, |w| w.min(end));
        (target > self.now).then_some(target)
    }

    /// Moves simulated time from `self.now` towards `target` across a
    /// quiet span, performing the bookkeeping the skipped cycles would
    /// have: gauge samples (every gauge is constant while the network is
    /// quiescent). Without a predicate the span is jumped in one block;
    /// with one it is walked boundary by boundary — every cycle boundary
    /// gets its predicate evaluation, exactly as stepped execution would —
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
        self.metrics.registry.observe(self.metrics.ids.leap_len, to - from);
        if let Some(rec) = self.metrics.recorder() {
            rec.record(FlightEvent { cycle: from, kind: "leap", node: 0, a: from, b: to });
        }
        self.metrics.profiler.stop(Phase::LeapApply, t);
        fired
    }

    /// Runs until `predicate` returns true (checked after each cycle) or
    /// `max_cycles` elapse; returns whether the predicate fired.
    ///
    /// While the event core is warm, cycles run sparsely, so a predicate
    /// reading chip-internal per-cycle counters mid-run sees them settle
    /// only at the end of the call — the same caveat as
    /// [`Simulator::run_until_leaping`]. Predicates over simulator-owned
    /// state (`now`, delivery logs, reports) are exact at every boundary.
    pub fn run_until(
        &mut self,
        max_cycles: Cycle,
        mut predicate: impl FnMut(&Self) -> bool,
    ) -> bool {
        let fired = (0..max_cycles).any(|_| {
            self.step_inner();
            predicate(self)
        });
        self.settle_idle();
        fired
    }

    /// Runs for `cycles` cycles on the event-driven fast path: whenever a
    /// cycle ends with every component provably quiescent, simulated time
    /// leaps directly to the earliest next event instead of stepping
    /// through the silent span one cycle at a time.
    ///
    /// The result is **bit-identical** to [`Simulator::run`] over the same
    /// span — delivery logs, statistics, link-usage counters, gauge samples
    /// (synthesized for leaped cycles), and trace timestamps all match —
    /// because a leap is only taken when every chip, link, and traffic
    /// source reports (via [`Chip::next_event`], [`Link::next_event`], and
    /// [`TrafficSource::next_event`]) that nothing can change before the
    /// target cycle. See the `event_core` integration tests.
    ///
    /// Components register their next-event cycle in a calendar queue once
    /// and re-register only when their state could have changed, so a
    /// stepped cycle costs O(dirty components) wake bookkeeping and a leap
    /// decision pops the queue's minimum in O(1). The queue holds only
    /// wakes beyond the next cycle: a component that answers `now + 1` is
    /// carried straight onto the next cycle's dirty list, so a busy
    /// neighbourhood streams without touching the wheel at all.
    ///
    /// The payoff is on sparse loads: an idle span of any length costs
    /// O(1) bookkeeping instead of O(nodes × cycles) chip ticks (see
    /// [`Simulator::ticks_executed`]).
    ///
    /// [`TrafficSource::next_event`]: crate::source::TrafficSource::next_event
    /// [`Link::next_event`]: crate::link::Link::next_event
    pub fn run_leaping(&mut self, cycles: Cycle) {
        self.drive_leaping(cycles, None::<fn(&Self) -> bool>);
    }

    /// Runs until `predicate` returns true or `max_cycles` elapse, on the
    /// leaping fast path; returns whether the predicate fired.
    ///
    /// The budget and predicate semantics are **identical** to
    /// [`Simulator::run_until`]: the predicate is evaluated at every cycle
    /// boundary — including each boundary inside a quiet span — and the
    /// run stops at the exact same cycle with the same return value. A
    /// quiet span is walked boundary-by-boundary without ticking chips
    /// (recording gauge samples where due), so a predicate that becomes
    /// true mid-leap fires at its true cycle rather than at the span's
    /// end.
    ///
    /// One caveat, inherent to leaping and sparse ticking: chip-internal
    /// per-cycle counters (e.g. idle-cycle tallies via
    /// [`Chip::skip_quiet`]) settle at the end of the call, *after* the
    /// firing boundary's predicate evaluation. Predicates over
    /// simulator-owned state (`now`, delivery logs, reports) see exactly
    /// what stepped execution shows them.
    pub fn run_until_leaping(
        &mut self,
        max_cycles: Cycle,
        predicate: impl FnMut(&Self) -> bool,
    ) -> bool {
        self.drive_leaping(max_cycles, Some(predicate))
    }

    /// The leaping drive loop: event cycles while anything is active, a
    /// leap across every provably quiet span, the idle settle at the end.
    /// Returns whether `predicate` (checked at every cycle boundary) fired.
    fn drive_leaping(
        &mut self,
        cycles: Cycle,
        mut predicate: Option<impl FnMut(&Self) -> bool>,
    ) -> bool {
        if self.events_stale {
            // Dense cycles or external mutation ran since the last event
            // cycle: rebuild the core. The fresh queue is primed — the first
            // event cycle ticks and polls everything, later ones the dirty.
            self.events = EventCore::new(self.chips.len() + self.adj.len() + self.sources.len());
            self.events_stale = false;
        }
        let end = self.now + cycles;
        let mut fired = false;
        while !fired && self.now < end {
            self.cycle::<true>();
            fired = predicate.as_mut().is_some_and(|p| p(self));
            if fired || self.now >= end {
                break;
            }
            let t = self.metrics.profiler.start();
            let target = self.quiet_target(end);
            self.metrics.profiler.stop(Phase::LeapPlan, t);
            if let Some(target) = target {
                fired = self.leap_to(target, predicate.as_mut());
            }
        }
        self.settle_idle();
        fired
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rtr_core::control::ControlCommand;
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

    #[test]
    fn leaping_over_an_idle_mesh_costs_o_events_ticks() {
        // A fully idle network simulated for a million cycles must leap the
        // whole span: the clock reaches the end, but only O(events) chip
        // ticks actually execute (here: the single warm-up step per leap
        // attempt, not nodes × cycles).
        let mut sim = two_node_sim();
        sim.run_leaping(1_000_000);
        assert_eq!(sim.now(), 1_000_000);
        assert!(
            sim.ticks_executed() <= 8,
            "idle mesh ticked {} times, expected O(events)",
            sim.ticks_executed()
        );
        // A stepped control pays the full bill.
        let mut stepped = two_node_sim();
        stepped.run(1_000);
        assert_eq!(stepped.ticks_executed(), 2 * 1_000);
    }

    #[test]
    fn leaping_matches_stepping_on_a_one_hop_transfer() {
        let mut stepped = two_node_sim();
        let mut leaping = two_node_sim();
        let dst = stepped.topology().node_at(1, 0);
        for sim in [&mut stepped, &mut leaping] {
            sim.enable_gauge_sampling(25);
            sim.inject_be(NodeId(0), BePacket::new(1, 0, vec![0x5A; 40], PacketTrace::default()));
        }
        stepped.run(2000);
        leaping.run_leaping(2000);
        assert_eq!(stepped.now(), leaping.now());
        assert_eq!(stepped.log(dst).be, leaping.log(dst).be);
        assert_eq!(stepped.gauge_samples().cycles(), leaping.gauge_samples().cycles());
        assert!(
            leaping.ticks_executed() < stepped.ticks_executed(),
            "the quiet tail after delivery must be leaped"
        );
        assert_eq!(
            format!("{:?}", stepped.chip(dst).stats()),
            format!("{:?}", leaping.chip(dst).stats())
        );
    }

    #[test]
    fn a_streaming_hop_files_no_wheel_entries() {
        // Four best-effort packets stream back to back over one hop: both
        // chips and both wires answer "next cycle" for hundreds of cycles.
        // Those answers are carried, so the wheel sees only the few wakes
        // that lie further out — one or two a packet, none per cycle.
        const PACKETS: u64 = 4;
        let mut stepped = two_node_sim();
        let mut leaping = two_node_sim();
        let dst = stepped.topology().node_at(1, 0);
        leaping.run_leaping(10); // warm core: the prime cycle is behind us
        stepped.run(10);
        let warm = leaping.event_core_stats().expect("leaping built the core");
        for sim in [&mut stepped, &mut leaping] {
            for k in 0..PACKETS {
                let payload = vec![k as u8; 120];
                sim.inject_be(NodeId(0), BePacket::new(1, 0, payload, PacketTrace::default()));
            }
        }
        let ticks = leaping.ticks_executed();
        stepped.run(2_000);
        leaping.run_leaping(2_000);
        assert_eq!(stepped.log(dst).be, leaping.log(dst).be);
        assert_eq!(leaping.log(dst).be.len(), PACKETS as usize);
        let busy = (leaping.ticks_executed() - ticks) / 2;
        assert!(busy >= 200, "only {busy} busy cycles");
        let after = leaping.event_core_stats().expect("injection keeps the core warm");
        let filed = after.filed - warm.filed;
        assert!(filed <= 2 * PACKETS, "{filed} wakes filed over {busy} busy cycles");
    }

    #[test]
    fn scheduled_control_op_installs_a_route_mid_run() {
        let mut sim = two_node_sim();
        let src = NodeId(0);
        let dst = sim.topology().node_at(1, 0);
        for (node, mask) in [(src, Port::Dir(Direction::XPlus).mask()), (dst, Port::Local.mask())] {
            sim.schedule_control(500, node, move |chip| {
                chip.apply_control(ControlCommand::SetConnection {
                    incoming: ConnectionId(9),
                    outgoing: ConnectionId(9),
                    delay: 4,
                    out_mask: mask,
                })
                .map_err(|e| e.to_string())
            });
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
        sim.schedule_control(10, NodeId(0), |_chip| Err("nope".to_string()));
        sim.run(20);
        assert_eq!(sim.control_stats().ops_rejected, 1);
        assert_eq!(sim.control_stats().ops_applied, 0);
    }

    #[test]
    fn leaping_never_crosses_a_control_epoch() {
        // An idle mesh with one control op mid-slumber: the leaper must
        // split its quiet span at the epoch (the debug assert in `leap_to`
        // aborts the test otherwise), apply the op at its exact cycle, and
        // keep leaping on both sides.
        let mut sim = two_node_sim();
        sim.schedule_control(5_555, NodeId(0), |chip| {
            chip.apply_control(ControlCommand::SetConnection {
                incoming: ConnectionId(3),
                outgoing: ConnectionId(3),
                delay: 4,
                out_mask: Port::Local.mask(),
            })
            .map_err(|e| e.to_string())
        });
        sim.run_leaping(10_000);
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
}
