//! Chaos scenarios: measured fault-tolerance outcomes (`rtr chaos`).
//!
//! Three scripted scenarios exercise the fault plane end to end and
//! report *recovery* figures rather than wall-clock: a mid-run link kill
//! answered by the detection/re-route loop, a flaky-link regime absorbed
//! by the conservation ledger, and a node crash/restore blackout. Each
//! scenario is fully deterministic (seeded schedule, seeded traffic), so
//! the rows pinned by `chaos_rows_match_the_recorded_run` are a regression
//! surface: a violation window or loss column that drifts means the fault
//! plane or the recovery loop changed behaviour.

use rtr_channels::establish::ChannelManager;
use rtr_channels::recovery::{watch_and_recover, RecoveryConfig};
use rtr_channels::spec::{ChannelRequest, TrafficSpec};
use rtr_core::RealTimeRouter;
use rtr_mesh::{FaultKind, FaultSchedule, Simulator, Topology};
use rtr_types::config::RouterConfig;
use rtr_types::ids::{Direction, NodeId};
use rtr_types::time::cycle_to_slot;

use crate::util::add_periodic_sender;

/// Measured outcome of one chaos scenario.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ChaosOutcome {
    /// Scenario identifier.
    pub scenario: &'static str,
    /// Cycle the scripted fault fired.
    pub fault_at: u64,
    /// Cycle the monitor declared the fault (0 when no detector ran).
    pub detected_at: u64,
    /// Cycle the replacement channel went live (0 when no re-route ran).
    pub rerouted_at: u64,
    /// Cycle service resumed at the victim's destination.
    pub recovered_at: u64,
    /// Full service interruption seen by the victim, fault to first
    /// post-recovery arrival.
    pub violation_window: u64,
    /// Detection-to-installed control-plane latency (0 when no re-route).
    pub reroute_latency: u64,
    /// Deliveries on the victim channel across the whole run.
    pub victim_delivered: usize,
    /// Deadline misses on the victim channel.
    pub victim_misses: usize,
    /// Delivery cycle of each of those misses.
    pub victim_late_at: Vec<u64>,
    /// Deliveries on the fault-avoiding bystander channel.
    pub bystander_delivered: usize,
    /// Deadline misses on the bystander — the guarantee under test: 0.
    pub bystander_misses: usize,
    /// Symbols blackholed or dropped by the fault plane.
    pub symbols_lost: u64,
    /// Symbols delivered corrupted by a flaky regime.
    pub symbols_corrupted: u64,
}

fn build_pair(
    topo: &Topology,
    config: &RouterConfig,
) -> (Simulator<RealTimeRouter>, ChannelManager, ChannelPair) {
    let mut sim = Simulator::build(topo.clone(), |_| RealTimeRouter::new(config.clone())).unwrap();
    let mut manager = ChannelManager::new(config);
    let src = topo.node_at(0, 0);
    let dst = topo.node_at(2, 0);
    let far_src = topo.node_at(0, 2);
    let far_dst = topo.node_at(2, 2);
    let victim = manager
        .establish(
            topo,
            ChannelRequest::unicast(src, dst, TrafficSpec::periodic(16, 18), 60),
            &mut sim,
        )
        .unwrap();
    let bystander = manager
        .establish(
            topo,
            ChannelRequest::unicast(far_src, far_dst, TrafficSpec::periodic(16, 18), 60),
            &mut sim,
        )
        .unwrap();
    add_periodic_sender(&mut sim, &victim, 16, 0, 0x44);
    add_periodic_sender(&mut sim, &bystander, 16, 5, 0x55);
    let pair = ChannelPair { victim_id: victim.id, dst, far_dst };
    (sim, manager, pair)
}

struct ChannelPair {
    victim_id: u64,
    dst: NodeId,
    far_dst: NodeId,
}

/// When the fault struck and how service came back: the columns the
/// scenarios differ in (zeros where no detector or re-route ran).
struct Timeline {
    fault_at: u64,
    detected_at: u64,
    rerouted_at: u64,
    recovered_at: u64,
}

impl ChannelPair {
    /// Reads the delivery and loss columns off the finished run.
    fn outcome(
        &self,
        scenario: &'static str,
        sim: &Simulator<RealTimeRouter>,
        slot_bytes: usize,
        t: Timeline,
    ) -> ChaosOutcome {
        let victim = sim.log(self.dst);
        let bystander = sim.log(self.far_dst);
        let stats = sim.fault_stats();
        // The predicate of `DeliveryLog::tc_deadline_misses`, keeping the cycles.
        let victim_late_at: Vec<u64> = victim
            .tc
            .iter()
            .filter(|(cycle, p)| {
                p.trace.deadline != 0 && cycle_to_slot(*cycle, slot_bytes) > p.trace.deadline
            })
            .map(|(cycle, _)| *cycle)
            .collect();
        ChaosOutcome {
            scenario,
            fault_at: t.fault_at,
            detected_at: t.detected_at,
            rerouted_at: t.rerouted_at,
            recovered_at: t.recovered_at,
            violation_window: t.recovered_at.saturating_sub(t.fault_at),
            reroute_latency: t.rerouted_at - t.detected_at,
            victim_delivered: victim.tc.len(),
            victim_misses: victim_late_at.len(),
            victim_late_at,
            bystander_delivered: bystander.tc.len(),
            bystander_misses: bystander.tc_deadline_misses(slot_bytes),
            symbols_lost: stats.symbols_lost,
            symbols_corrupted: stats.symbols_corrupted,
        }
    }
}

/// A mid-run link kill on the victim's row, answered by the full
/// watch → detect → localize → re-route loop while the mesh keeps
/// running. The bystander channel on a disjoint row must keep a zero
/// miss count throughout.
#[must_use]
pub fn link_down_recovery() -> ChaosOutcome {
    let config = RouterConfig::default();
    let topo = Topology::mesh(3, 3);
    let (mut sim, mut manager, pair) = build_pair(&topo, &config);
    let fault_at = 5_000;
    sim.run(4_000);
    sim.schedule_fault(
        fault_at,
        FaultKind::LinkDown { node: topo.node_at(1, 0), dir: Direction::XPlus },
    );
    let recovery = RecoveryConfig {
        check_every: 64,
        timeout: 768,
        max_cycles: 60_000,
        cycles_per_table_write: 8,
    };
    let report =
        watch_and_recover(&mut sim, &mut manager, &topo, pair.victim_id, pair.dst, &recovery)
            .expect("the 3x3 mesh always has a detour");
    sim.run(20_000);
    let timeline = Timeline {
        fault_at,
        detected_at: report.detected_at,
        rerouted_at: report.rerouted_at,
        recovered_at: report.recovered_at,
    };
    pair.outcome("chaos_link_down_recovery", &sim, config.slot_bytes, timeline)
}

/// A flaky regime on the victim's first-hop link: a seeded fraction of
/// packet heads is dropped whole-packet and another fraction delivered
/// corrupted, then the link heals. No re-route runs — the scenario
/// measures what the conservation ledger absorbs and that the healthy
/// bystander never notices.
#[must_use]
pub fn flaky_link() -> ChaosOutcome {
    let config = RouterConfig::default();
    let topo = Topology::mesh(3, 3);
    let (mut sim, _manager, pair) = build_pair(&topo, &config);
    let fault_at = 4_000;
    let schedule = FaultSchedule::new()
        .with_seed(0xF1A2)
        .link_flaky(fault_at, topo.node_at(0, 0), Direction::XPlus, 256, 128)
        .link_stable(24_000, topo.node_at(0, 0), Direction::XPlus);
    sim.set_fault_schedule(schedule);
    sim.run(40_000);
    sim.check_conservation().expect("losses must be ledgered, not leaked");
    // Service was degraded, not interrupted: recovery is the heal cycle.
    let timeline = Timeline { fault_at, detected_at: 0, rerouted_at: 0, recovered_at: 24_000 };
    pair.outcome("chaos_flaky_link", &sim, config.slot_bytes, timeline)
}

/// A crash/restore blackout of the router in the middle of the victim's
/// route. No re-route: the scenario measures the self-healing gap — the
/// node comes back, half-received packets are aborted with their credits
/// refunded, and the channel resumes on its original reservation.
#[must_use]
pub fn node_crash() -> ChaosOutcome {
    let config = RouterConfig::default();
    let topo = Topology::mesh(3, 3);
    let (mut sim, _manager, pair) = build_pair(&topo, &config);
    let fault_at = 6_000;
    let restore_at = 12_000;
    let schedule = FaultSchedule::new()
        .node_crash(fault_at, topo.node_at(1, 0))
        .node_restore(restore_at, topo.node_at(1, 0));
    sim.set_fault_schedule(schedule);
    sim.run(40_000);
    sim.check_conservation().expect("crash losses must be ledgered, not leaked");
    let recovered_at = sim
        .log(pair.dst)
        .tc
        .iter()
        .map(|(cycle, _)| *cycle)
        .find(|&cycle| cycle > restore_at)
        .unwrap_or(0);
    let timeline = Timeline { fault_at, detected_at: 0, rerouted_at: 0, recovered_at };
    pair.outcome("chaos_node_crash", &sim, config.slot_bytes, timeline)
}

/// Runs all three scenarios in order.
#[must_use]
pub fn run_all() -> Vec<ChaosOutcome> {
    vec![link_down_recovery(), flaky_link(), node_crash()]
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Every column of the three rows, as last recorded by the old runner
    /// (its JSON is in git history at `9c68c21`). The bystander's zero
    /// misses are the guarantee; the rest moves only if the fault plane or
    /// the recovery loop changes behaviour.
    #[test]
    fn chaos_rows_match_the_recorded_run() {
        let row = |scenario,
                   [fault_at, detected_at, rerouted_at, recovered_at]: [u64; 4],
                   victim: (usize, &[u64]),
                   bystander_delivered,
                   (symbols_lost, symbols_corrupted)| ChaosOutcome {
            scenario,
            fault_at,
            detected_at,
            rerouted_at,
            recovered_at,
            violation_window: recovered_at - fault_at,
            reroute_latency: rerouted_at - detected_at,
            victim_delivered: victim.0,
            victim_misses: victim.1.len(),
            victim_late_at: victim.1.to_vec(),
            bystander_delivered,
            bystander_misses: 0,
            symbols_lost,
            symbols_corrupted,
        };
        let recorded = [
            row("chaos_link_down_recovery", [5_000, 5_920, 5_944, 7_059], (78, &[]), 83, (80, 0)),
            row("chaos_flaky_link", [4_000, 0, 0, 24_000], (103, &[]), 123, (180, 11)),
            // The one late packet left the source at cycle 5 760, sat out the
            // blackout in the crashed router's packet memory (a crash
            // freezes a chip, it does not wipe it), and is the very arrival
            // that ends the violation window: late by design, inside
            // [fault_at, recovered_at] = [6 000, 12 049].
            row("chaos_node_crash", [6_000, 0, 0, 12_049], (104, &[12_049]), 123, (380, 0)),
        ];
        assert_eq!(run_all(), recorded);
        assert_eq!((recorded[0].violation_window, recorded[0].reroute_latency), (2_059, 24));
        for outcome in &recorded {
            let window = outcome.fault_at..=outcome.recovered_at;
            assert!(outcome.victim_late_at.iter().all(|at| window.contains(at)), "{outcome:?}");
        }
    }
}
