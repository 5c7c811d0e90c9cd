//! Extension experiment X2: the real-time router vs the §6 baselines.
//!
//! Scenario: a 4×4 mesh where one *tight-deadline* periodic connection
//! shares its row with two *aggressive* (backlogged) connections, under a
//! sweep of uniform best-effort background load. The same offered traffic
//! runs on three routers:
//!
//! * the **real-time router** — deadline scheduling plus logical-arrival
//!   regulation: the tight connection never misses, regardless of the
//!   aggressors or the background;
//! * the **priority-VC** baseline — class priority but FIFO service and no
//!   regulation: the aggressors' ahead-of-contract packets queue in front
//!   of the tight connection and cause misses;
//! * the **pure wormhole** baseline — deadline traffic rides the single
//!   best-effort channel and misses grow with background load.

use rtr_baselines::fifo_sf::FifoSfRouter;
use rtr_baselines::priority_vc::PriorityVcRouter;
use rtr_baselines::wormhole::WormholeRouter;
use rtr_channels::establish::{ChannelManager, ControlPlane, EstablishedChannel};
use rtr_channels::sender::ChannelSender;
use rtr_channels::spec::{ChannelRequest, TrafficSpec};
use rtr_core::RealTimeRouter;
use rtr_mesh::stats::LatencySummary;
use rtr_mesh::{Simulator, Topology, TrafficSource};
use rtr_types::chip::Chip;
use rtr_types::clock::SlotClock;
use rtr_types::config::RouterConfig;
use rtr_types::ids::NodeId;
use rtr_types::time::Cycle;
use rtr_workloads::be::SizeDist;
use rtr_workloads::tc::{BurstyTcSource, PeriodicTcSource};

use crate::util::{add_uniform_be, PeriodicDeadlineBeSource};

/// The router designs under comparison.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Design {
    /// The paper's real-time router.
    RealTime,
    /// Fixed class priority, FIFO within class.
    PriorityVc,
    /// Single-class wormhole.
    Wormhole,
    /// Store-and-forward FIFO for all traffic (the §3.1 strawman).
    StoreForward,
}

impl std::fmt::Display for Design {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            Design::RealTime => f.write_str("real-time router"),
            Design::PriorityVc => f.write_str("priority-VC FIFO"),
            Design::Wormhole => f.write_str("pure wormhole"),
            Design::StoreForward => f.write_str("store&forward FIFO"),
        }
    }
}

/// One measured row.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct CompareRow {
    /// The design measured.
    pub design: Design,
    /// Best-effort background injection rate (packets/cycle/node).
    pub be_rate: f64,
    /// Tight-connection packets delivered.
    pub delivered: usize,
    /// Tight-connection deadline misses.
    pub misses: usize,
    /// Tight-connection mean latency, cycles.
    pub mean_latency: f64,
    /// Tight-connection worst latency, cycles.
    pub max_latency: Cycle,
}

impl CompareRow {
    /// Miss ratio in percent.
    #[must_use]
    pub fn miss_percent(&self) -> f64 {
        if self.delivered == 0 {
            return 100.0;
        }
        100.0 * self.misses as f64 / self.delivered as f64
    }
}

/// The tight channel's contract: period 8 slots, end-to-end bound 16 slots
/// over the 4-hop route (3 links + reception).
const TIGHT_PERIOD: u32 = 8;
const TIGHT_DEADLINE: u32 = 12;
/// Aggressors: same long-run rate, but legally bursty (`B_max = 11`,
/// twelve messages dumped every 96 slots) with a loose end-to-end bound.
const AGGR_PERIOD: u32 = 8;
const AGGR_DEADLINE: u32 = 24;
const AGGR_BURST: u32 = 12;
const AGGR_BURST_PERIOD: u64 = 96;

struct Scenario {
    topo: Topology,
    tight: ChannelRequest,
    aggressors: Vec<ChannelRequest>,
}

fn scenario() -> Scenario {
    let topo = Topology::mesh(4, 4);
    // Destination (2,0): the tight channel arrives from the west, the
    // aggressors from the east and the north — three different input
    // ports converging on one scheduled reception port, so bursts pile up
    // there instead of being serialised by a shared upstream link.
    let dst = topo.node_at(2, 0);
    let tight = ChannelRequest::unicast(
        topo.node_at(0, 0),
        dst,
        TrafficSpec::periodic(TIGHT_PERIOD, 18),
        TIGHT_DEADLINE,
    );
    let aggr_spec = TrafficSpec { i_min: AGGR_PERIOD, s_max_bytes: 18, b_max: AGGR_BURST - 1 };
    let aggressors = vec![
        ChannelRequest::unicast(topo.node_at(3, 0), dst, aggr_spec, AGGR_DEADLINE),
        ChannelRequest::unicast(topo.node_at(2, 3), dst, aggr_spec, AGGR_DEADLINE),
    ];
    Scenario { topo, tight, aggressors }
}

fn channels_for<P: ControlPlane>(
    topo: &Topology,
    plane: &mut P,
) -> (EstablishedChannel, Vec<EstablishedChannel>) {
    let s = scenario();
    let config = RouterConfig::default();
    let mut manager = ChannelManager::new(&config);
    let tight = manager.establish(topo, s.tight, plane).expect("tight channel must be admissible");
    let aggressors = s
        .aggressors
        .into_iter()
        .map(|r| manager.establish(topo, r, plane).expect("aggressors admissible"))
        .collect();
    (tight, aggressors)
}

fn measure_tight(
    log: &rtr_mesh::stats::DeliveryLog,
    tight_source: NodeId,
    slot_bytes: usize,
    be_class: bool,
) -> (usize, usize, f64, Cycle) {
    let (delivered, misses, latencies) = if be_class {
        let packets: Vec<_> = log
            .be
            .iter()
            .filter(|(_, p)| p.trace.source == tight_source && p.trace.deadline != 0)
            .collect();
        let misses = packets
            .iter()
            .filter(|(c, p)| rtr_types::time::cycle_to_slot(*c, slot_bytes) > p.trace.deadline)
            .count();
        let lat: Vec<Cycle> =
            packets.iter().map(|(c, p)| c.saturating_sub(p.trace.injected_at)).collect();
        (packets.len(), misses, lat)
    } else {
        let packets: Vec<_> =
            log.tc.iter().filter(|(_, p)| p.trace.source == tight_source).collect();
        let misses = packets
            .iter()
            .filter(|(c, p)| rtr_types::time::cycle_to_slot(*c, slot_bytes) > p.trace.deadline)
            .count();
        let lat: Vec<Cycle> =
            packets.iter().map(|(c, p)| c.saturating_sub(p.trace.injected_at)).collect();
        (packets.len(), misses, lat)
    };
    let summary = LatencySummary::of(&latencies);
    (delivered, misses, summary.mean, summary.max)
}

/// The sources of the scenario's channels: the tight one periodic, the
/// aggressors legally bursty.
fn tc_sources(
    tight: &EstablishedChannel,
    aggressors: &[EstablishedChannel],
    config: &RouterConfig,
) -> Vec<(NodeId, Box<dyn TrafficSource>)> {
    let (clock, slot, data) =
        (SlotClock::new(config.clock_bits), config.slot_bytes, config.tc_data_bytes());
    let mut sources: Vec<(NodeId, Box<dyn TrafficSource>)> = Vec::new();
    let sender = ChannelSender::new(tight, clock, slot, data);
    sources.push((
        tight.request.source,
        Box::new(PeriodicTcSource::new(sender, u64::from(TIGHT_PERIOD), 0, slot, vec![0x71; data])),
    ));
    for a in aggressors {
        let sender = ChannelSender::new(a, clock, slot, data);
        // Legally bursty: logical-arrival regulation at the links is
        // what keeps the burst away from the tight channel.
        sources.push((
            a.request.source,
            Box::new(BurstyTcSource::new(
                sender,
                AGGR_BURST,
                AGGR_BURST_PERIOD,
                slot,
                vec![0xA6; data],
            )),
        ));
    }
    sources
}

/// Runs the scenario on a table-routed design: the manager programs the
/// channels through the simulator's own control plane (each chip takes the
/// Table 3 writes it has registers for), then the sources and the
/// background start. Returns the tight channel's measurement.
fn run_table_routed<C: Chip>(
    mut sim: Simulator<C>,
    be_rate: f64,
    total_cycles: Cycle,
) -> (usize, usize, f64, Cycle) {
    let config = RouterConfig::default();
    let topo = sim.topology().clone();
    let (tight, aggressors) = channels_for(&topo, &mut sim);
    for (node, src) in tc_sources(&tight, &aggressors, &config) {
        sim.add_source(node, src);
    }
    add_uniform_be(&mut sim, be_rate, SizeDist::Uniform(16, 64), 0xBEEF, 8);
    sim.run(total_cycles);
    let (source, dst) = (tight.request.source, tight.request.destinations[0]);
    measure_tight(sim.log(dst), source, config.slot_bytes, false)
}

/// Runs one design at one background load for `total_cycles`.
///
/// # Panics
///
/// Panics only on internal simulation errors.
#[must_use]
pub fn run_one(design: Design, be_rate: f64, total_cycles: Cycle) -> CompareRow {
    let config = RouterConfig::default();
    let topo = scenario().topo;
    let (delivered, misses, mean_latency, max_latency) = match design {
        Design::RealTime => {
            let sim = Simulator::build(topo, |_| RealTimeRouter::new(config.clone())).unwrap();
            run_table_routed(sim, be_rate, total_cycles)
        }
        Design::PriorityVc => {
            let sim = Simulator::build(topo, |_| PriorityVcRouter::new(config.clone())).unwrap();
            run_table_routed(sim, be_rate, total_cycles)
        }
        Design::StoreForward => {
            let sim = Simulator::build(topo, |_| FifoSfRouter::new(config.clone())).unwrap();
            run_table_routed(sim, be_rate, total_cycles)
        }
        Design::Wormhole => {
            let tight = scenario().tight;
            let mut sim = wormhole_sim(be_rate);
            sim.run(total_cycles);
            measure_tight(sim.log(tight.destinations[0]), tight.source, config.slot_bytes, true)
        }
    };
    CompareRow { design, be_rate, delivered, misses, mean_latency, max_latency }
}

/// The scenario on the pure-wormhole baseline, traffic attached and not yet
/// run. There are no channels: deadline traffic goes out as best-effort
/// packets with the same periods and deadlines.
///
/// # Panics
///
/// Panics only on internal simulation errors.
#[must_use]
pub fn wormhole_sim(be_rate: f64) -> Simulator<WormholeRouter> {
    let config = RouterConfig::default();
    let s = scenario();
    let dst = s.tight.destinations[0];
    let mut sim = Simulator::build(s.topo.clone(), |_| WormholeRouter::new(config.clone()))
        .expect("default config is valid");
    let flows = [(s.tight.source, TIGHT_PERIOD, TIGHT_DEADLINE)]
        .into_iter()
        .chain(s.aggressors.iter().map(|a| (a.source, AGGR_PERIOD, AGGR_DEADLINE)));
    for (source, period, deadline) in flows {
        sim.add_source(
            source,
            Box::new(PeriodicDeadlineBeSource::new(
                &s.topo,
                source,
                dst,
                u64::from(period),
                u64::from(deadline),
                config.tc_data_bytes(),
                config.slot_bytes,
            )),
        );
    }
    add_uniform_be(&mut sim, be_rate, SizeDist::Uniform(16, 64), 0xBEEF, 8);
    sim
}

/// Runs the full comparison grid.
#[must_use]
pub fn run(be_rates: &[f64], total_cycles: Cycle) -> Vec<CompareRow> {
    let mut rows = Vec::new();
    for &rate in be_rates {
        for design in [Design::RealTime, Design::PriorityVc, Design::StoreForward, Design::Wormhole]
        {
            rows.push(run_one(design, rate, total_cycles));
        }
    }
    rows
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn real_time_router_never_misses() {
        let row = run_one(Design::RealTime, 0.2, 60_000);
        assert!(row.delivered > 200, "delivered {}", row.delivered);
        assert_eq!(row.misses, 0, "EDF + regulation guarantee the tight channel");
    }

    #[test]
    fn priority_fifo_misses_under_aggressive_peers() {
        let row = run_one(Design::PriorityVc, 0.0, 60_000);
        assert!(row.delivered > 100);
        assert!(row.misses > 0, "unregulated FIFO must let aggressors delay the tight channel");
    }

    #[test]
    fn wormhole_degrades_with_background_load() {
        let quiet = run_one(Design::Wormhole, 0.0, 60_000);
        let busy = run_one(Design::Wormhole, 0.3, 60_000);
        assert!(
            busy.mean_latency > quiet.mean_latency,
            "background load must hurt: {} vs {}",
            busy.mean_latency,
            quiet.mean_latency
        );
        assert!(busy.misses >= quiet.misses);
    }
}
