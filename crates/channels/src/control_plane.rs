//! Live control plane: channel signaling against a *running* mesh
//! (paper §4.1, taken online).
//!
//! [`crate::establish::ChannelManager`] programs routers synchronously —
//! fine for pre-run setup, but a real network establishes and tears down
//! channels while traffic flows. The [`SignalingEngine`] here closes that
//! gap: it runs the ordinary admission test against the manager's live
//! [`crate::admission::LinkBook`]/[`crate::admission::BufferBook`] state,
//! and then applies the resulting routing-table deltas *as simulated work*
//! — each table write is scheduled onto the mesh at its own future cycle,
//! [`RecoveryConfig::cycles_per_table_write`] apart, through
//! [`Simulator::schedule_control`]. There is no global pause: the mesh
//! keeps forwarding between writes, exactly as the paper's protocol
//! processor would interleave table updates with traffic.
//!
//! Two guarantees carry over from the offline path:
//!
//! * **Admitted channels stay safe.** Admission runs *before* any write is
//!   scheduled, against the same reservation books the offline manager
//!   uses, so a rejected request perturbs nothing and an accepted one
//!   cannot overload a link that existing channels depend on.
//! * **Writes are ordered leaf-ward.** Establishment commands are issued
//!   in the manager's breadth-first hop order but take effect bottom-up in
//!   time only after the *whole* sequence is scheduled; the source may not
//!   inject until [`EstablishTicket::ready_at`], so no packet ever races
//!   its own connection's table entry.
//!
//! Teardown offers two styles ([`TeardownStyle`]): `Abort` clears the
//! tables as fast as the write cost allows (in-flight packets then land in
//! the router's `tc_aborted_teardown` ledger column — counted, conserved,
//! but not delivered), while `Drain` delays the clears by the channel's
//! guaranteed bound plus one inter-message slack so every packet already
//! injected delivers first.

use rtr_core::control::ControlCommand;
use rtr_core::RealTimeRouter;
use rtr_mesh::sim::Simulator;
use rtr_mesh::topology::Topology;
use rtr_types::config::RouterConfig;
use rtr_types::ids::NodeId;
use rtr_types::time::Cycle;

use crate::establish::{ChannelManager, ControlPlane, EstablishError, EstablishedChannel};
use crate::recovery::RecoveryConfig;
use crate::spec::ChannelRequest;

/// A [`ControlPlane`] that records commands instead of applying them —
/// the capture half of the signaling engine: the manager's establishment
/// and teardown logic runs unmodified, and the recorded deltas are then
/// scheduled onto the simulator as timed control ops.
#[derive(Debug, Default)]
pub struct DeferredPlane {
    /// Commands in issue order.
    pub commands: Vec<(NodeId, ControlCommand)>,
}

impl ControlPlane for DeferredPlane {
    fn apply(
        &mut self,
        node: NodeId,
        cmd: ControlCommand,
    ) -> Result<(), rtr_core::control::ControlError> {
        self.commands.push((node, cmd));
        Ok(())
    }
}

/// How a live teardown treats the channel's in-flight packets.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum TeardownStyle {
    /// Clear the tables as soon as the write cost allows. Packets still in
    /// flight hit tombstoned entries and are aborted into the router's
    /// `tc_aborted_teardown` ledger column — accounted, not delivered.
    Abort,
    /// Delay the clears until every packet already injected has had its
    /// guaranteed bound (plus one `I_min` of slack) to deliver, then clear.
    Drain,
}

/// Receipt for a live establishment: the channel plus its activation time.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct EstablishTicket {
    /// The admitted channel (reservations held from the moment of
    /// admission, table entries live from [`EstablishTicket::ready_at`]).
    pub channel: EstablishedChannel,
    /// First cycle at which every hop's table entry is in place; the
    /// source must not inject before this.
    pub ready_at: Cycle,
    /// Table writes the establishment cost.
    pub table_writes: u64,
}

/// Receipt for a live teardown.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct TeardownTicket {
    /// Cycle at which the last table entry is cleared.
    pub cleared_at: Cycle,
    /// Table writes the teardown cost.
    pub table_writes: u64,
}

/// Monotone counters over the engine's lifetime.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct SignalingStats {
    /// Establishment requests received.
    pub establish_attempted: u64,
    /// Establishment requests admitted and scheduled.
    pub establish_accepted: u64,
    /// Establishment requests rejected by admission.
    pub establish_rejected: u64,
    /// Teardowns performed.
    pub teardowns: u64,
    /// Total table writes scheduled (establish + teardown).
    pub table_writes: u64,
}

impl SignalingStats {
    /// Fraction of establishment attempts rejected (0 when none attempted).
    #[must_use]
    pub fn rejection_rate(&self) -> f64 {
        if self.establish_attempted == 0 {
            return 0.0;
        }
        self.establish_rejected as f64 / self.establish_attempted as f64
    }
}

/// The live signaling engine: admission against live reservation state,
/// table deltas applied as timed simulated work.
#[derive(Debug)]
pub struct SignalingEngine {
    manager: ChannelManager,
    slot_bytes: usize,
    /// Modeled cost of one routing-table write, in cycles (the same
    /// constant the recovery path charges).
    cycles_per_table_write: Cycle,
    stats: SignalingStats,
}

impl SignalingEngine {
    /// An engine over a fresh [`ChannelManager`] for `config`, charging
    /// [`RecoveryConfig::cycles_per_table_write`] per table write.
    #[must_use]
    pub fn new(config: &RouterConfig) -> Self {
        SignalingEngine::with_write_cost(config, RecoveryConfig::default().cycles_per_table_write)
    }

    /// An engine with an explicit per-write cycle cost.
    #[must_use]
    pub fn with_write_cost(config: &RouterConfig, cycles_per_table_write: Cycle) -> Self {
        SignalingEngine::from_manager(ChannelManager::new(config), config)
            .set_write_cost(cycles_per_table_write)
    }

    /// Adopts an existing manager (with whatever channels and reservations
    /// it already holds) — lets a scenario set up long-lived channels
    /// offline and then hand the same reservation books to the live plane.
    #[must_use]
    pub fn from_manager(manager: ChannelManager, config: &RouterConfig) -> Self {
        SignalingEngine {
            manager,
            slot_bytes: config.slot_bytes,
            cycles_per_table_write: RecoveryConfig::default().cycles_per_table_write,
            stats: SignalingStats::default(),
        }
    }

    fn set_write_cost(mut self, cycles_per_table_write: Cycle) -> Self {
        self.cycles_per_table_write = cycles_per_table_write.max(1);
        self
    }

    /// The underlying manager (reservation books, channel registry).
    #[must_use]
    pub fn manager(&self) -> &ChannelManager {
        &self.manager
    }

    /// Mutable access to the underlying manager (policy knobs, partitions).
    pub fn manager_mut(&mut self) -> &mut ChannelManager {
        &mut self.manager
    }

    /// Lifetime counters.
    #[must_use]
    pub fn stats(&self) -> SignalingStats {
        self.stats
    }

    /// The modeled per-write cost, in cycles.
    #[must_use]
    pub fn write_cost(&self) -> Cycle {
        self.cycles_per_table_write
    }

    /// Requests a channel against the running mesh: admission runs now,
    /// table writes are scheduled one write-cost apart starting next cycle.
    ///
    /// # Errors
    ///
    /// Propagates the manager's admission rejection; nothing is scheduled
    /// and no reservation is held on failure.
    pub fn request_establish(
        &mut self,
        topo: &Topology,
        request: ChannelRequest,
        sim: &mut Simulator<RealTimeRouter>,
    ) -> Result<EstablishTicket, EstablishError> {
        self.stats.establish_attempted += 1;
        let mut deferred = DeferredPlane::default();
        let channel = match self.manager.establish(topo, request, &mut deferred) {
            Ok(channel) => channel,
            Err(e) => {
                self.stats.establish_rejected += 1;
                return Err(e);
            }
        };
        self.stats.establish_accepted += 1;
        let (ready_at, table_writes) = self.schedule_writes(sim, sim.now(), deferred.commands);
        Ok(EstablishTicket { channel, ready_at, table_writes })
    }

    /// Tears a channel down against the running mesh.
    ///
    /// Reservations are released immediately (the capacity is free for new
    /// admissions), while the table clears land per `style`. In-flight
    /// packets of an `Abort` teardown are aborted into the routers'
    /// teardown ledger; a `Drain` teardown lets them deliver first.
    ///
    /// # Errors
    ///
    /// Propagates the manager's teardown error. An unknown channel id is
    /// (as in the offline path) a successful no-op.
    pub fn request_teardown(
        &mut self,
        channel_id: u64,
        style: TeardownStyle,
        sim: &mut Simulator<RealTimeRouter>,
    ) -> Result<TeardownTicket, EstablishError> {
        let drain_margin = match style {
            TeardownStyle::Abort => 0,
            TeardownStyle::Drain => {
                self.manager.channels().get(&channel_id).map_or(0, |c| self.drain_margin(c))
            }
        };
        let mut deferred = DeferredPlane::default();
        self.manager.teardown(channel_id, &mut deferred)?;
        self.stats.teardowns += 1;
        let (cleared_at, table_writes) =
            self.schedule_writes(sim, sim.now() + drain_margin, deferred.commands);
        Ok(TeardownTicket { cleared_at, table_writes })
    }

    /// Cycles a draining teardown waits before its first clear: the
    /// channel's guaranteed end-to-end bound plus one `I_min` of slack,
    /// in slots, converted to cycles. Any packet injected before the
    /// teardown request delivers inside this window.
    fn drain_margin(&self, channel: &EstablishedChannel) -> Cycle {
        let slots = channel.guaranteed_bound() + channel.request.spec.i_min;
        Cycle::from(slots) * self.slot_bytes as Cycle
    }

    /// Schedules `commands` one write-cost apart starting after `base`,
    /// returning the cycle the last one lands on and the write count.
    fn schedule_writes(
        &mut self,
        sim: &mut Simulator<RealTimeRouter>,
        base: Cycle,
        commands: Vec<(NodeId, ControlCommand)>,
    ) -> (Cycle, u64) {
        let cost = self.cycles_per_table_write;
        let writes = commands.len() as u64;
        self.stats.table_writes += writes;
        let mut at = base;
        for (node, cmd) in commands {
            at += cost;
            sim.schedule_control(at, node, cmd);
        }
        (at, writes)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::spec::TrafficSpec;

    fn setup(width: u16) -> (Topology, Simulator<RealTimeRouter>, SignalingEngine) {
        let config = RouterConfig::default();
        let topo = Topology::mesh(width, 1);
        let sim = Simulator::build(topo.clone(), |_| RealTimeRouter::new(config.clone())).unwrap();
        (topo, sim, SignalingEngine::new(&config))
    }

    #[test]
    fn live_establishment_schedules_timed_table_writes() {
        let (topo, mut sim, mut engine) = setup(3);
        sim.run(100);
        let request = ChannelRequest::unicast(
            topo.node_at(0, 0),
            topo.node_at(2, 0),
            TrafficSpec::periodic(16, 18),
            24,
        );
        let ticket = engine.request_establish(&topo, request, &mut sim).unwrap();
        // 3 hops (2 links + reception) = 3 writes, one write-cost apart.
        assert_eq!(ticket.table_writes, 3);
        assert_eq!(ticket.ready_at, 100 + 3 * engine.write_cost());
        // Nothing applied yet: the writes are future simulated work.
        assert_eq!(sim.control_stats().ops_applied, 0);
        sim.run(ticket.ready_at - sim.now() + 1);
        let stats = sim.control_stats();
        assert_eq!(stats.ops_applied, 3, "every write lands by ready_at");
        assert_eq!(stats.ops_rejected, 0);
        assert_eq!(engine.stats().establish_accepted, 1);
    }

    #[test]
    fn rejected_requests_schedule_nothing() {
        let (topo, mut sim, mut engine) = setup(2);
        let request = ChannelRequest::unicast(
            topo.node_at(0, 0),
            topo.node_at(1, 0),
            TrafficSpec::periodic(8, 18),
            1, // 2 scheduled hops cannot fit in 1 slot
        );
        assert!(engine.request_establish(&topo, request, &mut sim).is_err());
        assert_eq!(engine.stats().establish_rejected, 1);
        assert_eq!(engine.stats().table_writes, 0);
        sim.run(1_000);
        assert_eq!(sim.control_stats().ops_applied, 0);
        assert!((engine.stats().rejection_rate() - 1.0).abs() < 1e-12);
    }

    #[test]
    fn drain_teardown_waits_for_the_guaranteed_bound() {
        let (topo, mut sim, mut engine) = setup(2);
        let request = || {
            ChannelRequest::unicast(
                topo.node_at(0, 0),
                topo.node_at(1, 0),
                TrafficSpec::periodic(16, 18),
                20,
            )
        };
        let a = engine.request_establish(&topo, request(), &mut sim).unwrap();
        let b = engine.request_establish(&topo, request(), &mut sim).unwrap();
        sim.run(a.ready_at.max(b.ready_at) + 1 - sim.now());

        let start = sim.now();
        let abort = engine.request_teardown(a.channel.id, TeardownStyle::Abort, &mut sim).unwrap();
        assert_eq!(abort.table_writes, 2);
        assert_eq!(abort.cleared_at, start + 2 * engine.write_cost());

        // The drain margin covers the guaranteed bound plus one I_min of
        // slack, in cycles.
        let margin = Cycle::from(b.channel.guaranteed_bound() + 16)
            * RouterConfig::default().slot_bytes as Cycle;
        let drain = engine.request_teardown(b.channel.id, TeardownStyle::Drain, &mut sim).unwrap();
        assert_eq!(drain.cleared_at, sim.now() + margin + 2 * engine.write_cost());
        assert!(drain.cleared_at > abort.cleared_at);

        // Both teardowns released their reservations immediately.
        assert!(engine.manager().channels().is_empty());
        sim.run(drain.cleared_at + 1 - sim.now());
        assert_eq!(sim.control_stats().ops_applied, 4 + 4, "establish + teardown writes");
    }

    #[test]
    fn unknown_channel_teardown_is_a_no_op_ticket() {
        let (_topo, mut sim, mut engine) = setup(2);
        let ticket = engine.request_teardown(404, TeardownStyle::Drain, &mut sim).unwrap();
        assert_eq!(ticket.table_writes, 0);
        assert_eq!(ticket.cleared_at, sim.now());
    }
}
