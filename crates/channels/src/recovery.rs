//! Live fault recovery: detect a mid-run failure, localize it from
//! link-level observables, and re-route the affected channel while the
//! mesh keeps running.
//!
//! The paper's establishment procedure (§5) assumes a static topology;
//! this module supplies the runtime half of fault tolerance. A monitor
//! watches a channel's destination for an arrival timeout (the
//! end-to-end symptom), localizes the fault from the per-link
//! conservation ledgers (the transmit-side symptoms: blackholed sends on
//! a downed link, arrivals ageing undrained at a crashed neighbour), and
//! then drives [`ChannelManager::reroute`] against the live simulator.
//! Channels whose routes avoid the fault are never touched — their
//! guarantees hold throughout — while the affected channel reports a
//! measured violation window and re-route latency.

use rtr_core::RealTimeRouter;
use rtr_mesh::{Simulator, Topology};
use rtr_types::ids::{Direction, NodeId};
use rtr_types::time::Cycle;

use crate::establish::{ChannelManager, EstablishError, EstablishedChannel};

/// Tuning knobs for the detection/recovery loop.
#[derive(Debug, Clone, Copy)]
pub struct RecoveryConfig {
    /// How often (in cycles) the monitor polls the destination log.
    pub check_every: Cycle,
    /// Cycles without a new arrival before a fault is declared. Must be
    /// comfortably above the channel's delay bound or healthy jitter
    /// trips the detector.
    pub timeout: Cycle,
    /// Total cycle budget for the whole watch → detect → re-route →
    /// first-recovered-arrival sequence.
    pub max_cycles: Cycle,
    /// Modelled control-plane cost of reprogramming one router's tables.
    /// The recovery loop lets the mesh run `cycles_per_table_write × hops`
    /// cycles between detection and the replacement channel going live,
    /// so the reported re-route latency reflects reprogramming work
    /// instead of an instantaneous software write.
    pub cycles_per_table_write: Cycle,
}

impl Default for RecoveryConfig {
    fn default() -> Self {
        RecoveryConfig {
            check_every: 64,
            timeout: 2048,
            max_cycles: 200_000,
            cycles_per_table_write: 8,
        }
    }
}

/// What happened during one recovery episode, with the cycle stamps the
/// experiments report.
#[derive(Debug, Clone)]
pub struct RecoveryReport {
    /// Cycle at which the monitor declared the fault (arrival timeout).
    pub detected_at: Cycle,
    /// Directed links the localizer decided to route around.
    pub suspects: Vec<(NodeId, Direction)>,
    /// Cycle at which the replacement channel was installed.
    pub rerouted_at: Cycle,
    /// Cycle of the first arrival over the replacement route.
    pub recovered_at: Cycle,
    /// The replacement channel.
    pub channel: EstablishedChannel,
    /// Whether the replacement kept the original ingress connection id.
    /// [`ChannelManager::reroute`] explicitly prefers the torn-down
    /// channel's ingress id for the replacement (the generation-ordered
    /// allocator would otherwise put the just-released id at the back of
    /// the reuse queue), so senders stamped with the old ingress keep
    /// working unmodified whenever the id is still free at the source.
    pub ingress_preserved: bool,
}

impl RecoveryReport {
    /// Length of the service interruption: from fault declaration to the
    /// first arrival over the new route. (The true violation window also
    /// includes the pre-detection silence; callers that know the fault
    /// injection cycle can measure from there instead.)
    #[must_use]
    pub fn violation_window(&self) -> Cycle {
        self.recovered_at.saturating_sub(self.detected_at)
    }

    /// Control-plane latency: from fault declaration to the replacement
    /// channel being programmed into the routers.
    #[must_use]
    pub fn reroute_latency(&self) -> Cycle {
        self.rerouted_at.saturating_sub(self.detected_at)
    }
}

/// Why a recovery episode failed.
#[derive(Debug)]
pub enum RecoveryError {
    /// The cycle budget elapsed without the destination ever stalling.
    NoFaultObserved,
    /// The destination stalled but the localizer found no suspect link —
    /// the stall is not explained by the fault plane (e.g. the source
    /// itself stopped).
    NoSuspects,
    /// Re-establishment around the suspects failed; the original channel
    /// is preserved when the failure was `NoRoute`.
    Reroute(EstablishError),
    /// The replacement channel was installed but no arrival followed
    /// within the remaining budget.
    NotRecovered,
}

impl std::fmt::Display for RecoveryError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            RecoveryError::NoFaultObserved => write!(f, "no arrival timeout within the budget"),
            RecoveryError::NoSuspects => write!(f, "stall detected but no suspect links found"),
            RecoveryError::Reroute(e) => write!(f, "re-route failed: {e}"),
            RecoveryError::NotRecovered => {
                write!(f, "re-routed but no arrival followed within the budget")
            }
        }
    }
}

impl std::error::Error for RecoveryError {}

/// Localizes faults from transmit-side observables only.
///
/// Two symptoms identify a fault without peeking at simulator ground
/// truth beyond what a transmitter could see in hardware:
///
/// * a *downed link* blackholes everything driven onto it — the
///   credit-timeout monitors modelled by [`Simulator::downed_links`]
///   report it directly;
/// * a *crashed node* stops draining its input links, so arrivals age
///   past their delivery cycle and show up in the upstream link's
///   [`late_arrivals_dropped`](rtr_mesh::LinkLedger::late_arrivals_dropped)
///   ledger column. Every link touching such a neighbour is marked
///   suspect in both directions, steering the BFS around the node.
#[must_use]
pub fn suspect_dead_links<C: rtr_types::chip::Chip>(
    sim: &Simulator<C>,
    topo: &Topology,
) -> Vec<(NodeId, Direction)> {
    let mut dead = sim.downed_links();
    for node in topo.nodes() {
        for dir in Direction::ALL {
            let Some(end) = topo.link_end(node, dir) else { continue };
            if sim.link_ledger(node, dir).late_arrivals_dropped == 0 {
                continue;
            }
            // The receiver stopped draining: presume the neighbour
            // crashed and avoid every link touching it.
            let suspect = end.node;
            for d in Direction::ALL {
                if let Some(far) = topo.link_end(suspect, d) {
                    dead.push((suspect, d));
                    dead.push((far.node, d.opposite()));
                }
            }
        }
    }
    dead.sort_by_key(|(n, d)| (n.index(), *d as u8));
    dead.dedup();
    dead
}

/// Runs the full watch → detect → localize → re-route → recover loop
/// against a live simulation.
///
/// Steps `sim` in [`RecoveryConfig::check_every`]-cycle chunks watching
/// `watch_dst`'s time-constrained delivery log. Once `timeout` cycles
/// pass without a new arrival the fault is declared, suspects are
/// gathered with [`suspect_dead_links`], and `manager` re-routes
/// `channel_id` around them through the simulator's control plane (which
/// reprograms router tables mid-run). The loop then keeps the mesh
/// running until the first arrival over the replacement route and
/// reports all three cycle stamps.
///
/// # Errors
///
/// See [`RecoveryError`]. On [`RecoveryError::Reroute`] with
/// `EstablishError::Admission(`[`AdmissionError::NoRoute`]`)` the original
/// channel is left installed; other establishment failures tear it down
/// first (the manager's documented re-route semantics).
///
/// [`AdmissionError::NoRoute`]: crate::admission::AdmissionError::NoRoute
pub fn watch_and_recover(
    sim: &mut Simulator<RealTimeRouter>,
    manager: &mut ChannelManager,
    topo: &Topology,
    channel_id: u64,
    watch_dst: NodeId,
    config: &RecoveryConfig,
) -> Result<RecoveryReport, RecoveryError> {
    let old_ingress = manager.channels().get(&channel_id).map(|c| c.ingress);
    let deadline = sim.now() + config.max_cycles;
    let mut last_len = sim.log(watch_dst).tc.len();
    let mut last_progress = sim.now();
    let detected_at = loop {
        if sim.now() >= deadline {
            return Err(RecoveryError::NoFaultObserved);
        }
        sim.run(config.check_every.min(deadline - sim.now()));
        let len = sim.log(watch_dst).tc.len();
        if len > last_len {
            last_len = len;
            last_progress = sim.now();
        } else if sim.now() - last_progress >= config.timeout {
            break sim.now();
        }
    };

    let suspects = suspect_dead_links(sim, topo);
    if suspects.is_empty() {
        return Err(RecoveryError::NoSuspects);
    }
    // Charge the modelled reprogramming time (one table write per hop of
    // the outgoing route) before the replacement goes live; the mesh keeps
    // running — and keeps blackholing — in the meantime.
    let hops = manager.channels().get(&channel_id).map_or(0, |c| c.hops.len()) as Cycle;
    sim.run((config.cycles_per_table_write * hops).min(deadline.saturating_sub(sim.now())));
    let channel =
        manager.reroute(channel_id, topo, &suspects, sim).map_err(RecoveryError::Reroute)?;
    let rerouted_at = sim.now();
    let ingress_preserved = old_ingress == Some(channel.ingress);

    let before = sim.log(watch_dst).tc.len();
    let budget = deadline.saturating_sub(sim.now());
    if !sim.run_until(budget, |s| s.log(watch_dst).tc.len() > before) {
        return Err(RecoveryError::NotRecovered);
    }
    let recovered_at = sim.log(watch_dst).tc[before].0;
    Ok(RecoveryReport {
        detected_at,
        suspects,
        rerouted_at,
        recovered_at,
        channel,
        ingress_preserved,
    })
}
