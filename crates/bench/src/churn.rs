//! Connection-churn scenario: live establish/teardown under load, with
//! admission-guaranteed bystanders.
//!
//! A seeded Poisson schedule of short-lived channels churns against a
//! running 8×8 mesh through the live control plane
//! ([`rtr_channels::control_plane::SignalingEngine`]): every request runs
//! the ordinary admission test against the live reservation books, and
//! accepted channels' table writes land as timed simulated work — no
//! global pause. Two long-lived bystander channels carry periodic traffic
//! across the whole run; the guarantee under test is that *no amount of
//! churn* makes them miss a deadline, because admission never lets a new
//! channel overload a link they reserve.
//!
//! The scenario is fully deterministic (the churn schedule is a pure
//! function of its seed) and drive-mode independent, so the row pinned by
//! `churn_row_matches_the_recorded_run` (and printed by `rtr churn`) is a
//! regression surface for the whole signaling path: setup throughput,
//! per-establish table cost, rejection rate, and the teardown-abort ledger.

use std::cmp::Reverse;
use std::collections::BinaryHeap;

use rtr_channels::control_plane::{SignalingEngine, TeardownStyle};
use rtr_channels::spec::{ChannelRequest, TrafficSpec};
use rtr_core::RealTimeRouter;
use rtr_mesh::{Simulator, Topology};
use rtr_types::chip::Chip;
use rtr_types::config::RouterConfig;
use rtr_types::control::ControlError;
use rtr_types::ids::NodeId;
use rtr_types::time::{cycle_to_slot, slot_to_cycle, Cycle};
use rtr_workloads::churn::{churn_schedule, ChurnConfig, ChurnEvent, WindowedSource};
use rtr_workloads::tc::PeriodicTcSource;

use crate::util::{add_periodic_sender, sender_for};

/// How a drive call advances the simulator: which chips each cycle ticks.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum DriveMode {
    /// Every live chip ticks and every link is visited on every cycle, the
    /// first included — the reference [`DriveMode::Run`] is held to: every
    /// chip and link is woken before each [`Simulator::step`], whatever its
    /// wake says.
    EveryChip,
    /// [`Simulator::run`]: cycles that tick the chips that can act and
    /// visit the links that are due, and leaps over quiet spans.
    Run,
}

impl DriveMode {
    /// Every drive mode, the reference first.
    pub const ALL: [DriveMode; 2] = [DriveMode::EveryChip, DriveMode::Run];

    /// Advances the simulator `cycles` cycles the way this mode does.
    pub fn advance<C: Chip>(self, sim: &mut Simulator<C>, cycles: Cycle) {
        if cycles == 0 {
            return;
        }
        match self {
            DriveMode::EveryChip => {
                for _ in 0..cycles {
                    sim.wake_every_chip();
                    sim.step();
                }
            }
            DriveMode::Run => sim.run(cycles),
        }
    }
}

/// Measured outcome of the churn scenario.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ChurnOutcome {
    /// Scenario identifier.
    pub scenario: &'static str,
    /// Establishment attempts issued.
    pub attempted: u64,
    /// Attempts admitted.
    pub accepted: u64,
    /// Attempts rejected by admission (reservation books untouched).
    pub rejected: u64,
    /// Teardowns performed.
    pub teardowns: u64,
    /// Routing-table writes scheduled across the run.
    pub table_writes: u64,
    /// Modeled cost of one table write, in cycles.
    pub write_cost_cycles: u64,
    /// Mean table-update cost of one accepted establishment, in cycles.
    pub setup_cycles_per_establish: u64,
    /// Accepted establishments per million cycles of run time.
    pub accepted_per_mcycle: u64,
    /// Total run length in cycles.
    pub span_cycles: u64,
    /// Control ops the simulator applied (table writes that landed).
    pub control_ops_applied: u64,
    /// Control ops that failed at the router (must be 0).
    pub control_ops_rejected: u64,
    /// The most recent of those failures, as `(cycle, node, the router's
    /// error)`.
    pub control_rejections: Vec<(Cycle, NodeId, ControlError)>,
    /// Packets aborted into the teardown ledger by `Abort` teardowns.
    pub aborted_packets: u64,
    /// Deliveries on the two long-lived bystander channels.
    pub bystander_delivered: usize,
    /// Deadline misses on the bystanders — the guarantee under test: 0.
    pub bystander_misses: usize,
    /// Deliveries on churned (short-lived) channels.
    pub churn_delivered: usize,
}

enum Action {
    Establish(usize),
    Teardown(u64, TeardownStyle),
}

/// Plays a churn schedule against a running mesh through the signaling
/// engine, calling `advance` to move the simulator between control events.
///
/// Each arrival requests a channel of period `period_slots` and a deadline
/// of `hop_deadline_slots` per router on its route, carries periodic
/// traffic for its lifetime, and is torn down — `Abort` and `Drain`
/// alternating, so both the drain path and the abort ledger run — at its
/// stop slot, pulled inside a run that ends at `horizon`. Events due at or
/// past `horizon` never fire. Returns the admitted arrivals' destinations
/// and the cycle the last teardown's table clears land.
pub fn drive_schedule(
    sim: &mut Simulator<RealTimeRouter>,
    engine: &mut SignalingEngine,
    config: &RouterConfig,
    events: &[ChurnEvent],
    (period_slots, hop_deadline_slots): (u32, u32),
    horizon: Cycle,
    mut advance: impl FnMut(&mut Simulator<RealTimeRouter>, Cycle),
) -> (Vec<NodeId>, Cycle) {
    let topo = sim.topology().clone();
    let mut actions: Vec<Action> = Vec::new();
    let mut due: BinaryHeap<Reverse<(Cycle, usize)>> = BinaryHeap::new();
    for (i, event) in events.iter().enumerate() {
        let at = slot_to_cycle(event.start_slot, config.slot_bytes).max(1);
        due.push(Reverse((at, actions.len())));
        actions.push(Action::Establish(i));
    }

    let mut churn_dsts: Vec<NodeId> = Vec::new();
    let mut last_clear = 0;
    while let Some(Reverse((at, seq))) = due.pop() {
        if at >= horizon {
            break;
        }
        advance(sim, at.saturating_sub(sim.now()));
        match actions[seq] {
            Action::Establish(i) => {
                let event = events[i];
                let (sx, sy) = topo.coords(event.src);
                let (dx, dy) = topo.coords(event.dst);
                let dist = u32::from(sx.abs_diff(dx) + sy.abs_diff(dy));
                let request = ChannelRequest::unicast(
                    event.src,
                    event.dst,
                    TrafficSpec::periodic(period_slots, 18),
                    hop_deadline_slots * (dist + 1),
                );
                let Ok(ticket) = engine.request_establish(&topo, request, sim) else {
                    continue;
                };
                // A channel that only becomes ready on the run's last cycle
                // stays up: its teardown falls past the horizon.
                let stop = slot_to_cycle(event.stop_slot(), config.slot_bytes)
                    .min(horizon.saturating_sub(1).max(1))
                    .max(ticket.ready_at + 1);
                let style = if i % 2 == 0 { TeardownStyle::Abort } else { TeardownStyle::Drain };
                due.push(Reverse((stop, actions.len())));
                actions.push(Action::Teardown(ticket.channel.id, style));

                let first_slot = cycle_to_slot(ticket.ready_at, config.slot_bytes) + 1;
                let source = PeriodicTcSource::new(
                    sender_for(sim, &ticket.channel),
                    u64::from(period_slots),
                    first_slot,
                    config.slot_bytes,
                    vec![0x80 ^ i as u8; config.tc_data_bytes()],
                )
                .with_limit((event.lifetime_slots / u64::from(period_slots)).max(1));
                sim.add_source(
                    event.src,
                    Box::new(WindowedSource::new(source, ticket.ready_at, stop)),
                );
                churn_dsts.push(event.dst);
            }
            Action::Teardown(id, style) => {
                let ticket =
                    engine.request_teardown(id, style, sim).expect("teardown of a known channel");
                last_clear = last_clear.max(ticket.cleared_at);
            }
        }
    }
    (churn_dsts, last_clear)
}

/// Runs the churn scenario under one drive mode.
///
/// Every mode produces byte-identical network state (asserted by
/// `tests/churn.rs`); `rtr churn` prints the [`DriveMode::Run`] run.
#[must_use]
pub fn run_churn(mode: DriveMode) -> ChurnOutcome {
    let config = RouterConfig::default();
    let topo = Topology::mesh(8, 8);
    let mut sim = Simulator::build(topo.clone(), |_| RealTimeRouter::new(config.clone())).unwrap();
    let mut engine = SignalingEngine::new(&config);

    // Two long-lived bystanders on the mesh's top and bottom rows; their
    // reservations sit in the same books every churn admission runs
    // against.
    let bystander_dsts = [topo.node_at(7, 0), topo.node_at(7, 7)];
    for (i, (src, dst)) in
        [(topo.node_at(0, 0), bystander_dsts[0]), (topo.node_at(0, 7), bystander_dsts[1])]
            .into_iter()
            .enumerate()
    {
        let request = ChannelRequest::unicast(src, dst, TrafficSpec::periodic(16, 18), 96);
        let ticket = engine
            .request_establish(&topo, request, &mut sim)
            .expect("an empty mesh admits the bystanders");
        let start_slot = cycle_to_slot(ticket.ready_at, config.slot_bytes) + 1;
        add_periodic_sender(&mut sim, &ticket.channel, 16, start_slot + i as u64, 0x55 + i as u8);
    }

    // The churn schedule: establishment times and lifetimes are a pure
    // function of the seed, so every drive mode sees the same requests at
    // the same cycles.
    // Heavy enough that admission has to say no sometimes: ~30 concurrent
    // channels, each reserving a quarter of every link it crosses.
    let churn = ChurnConfig {
        seed: 0xC4A2,
        arrivals: 48,
        mean_interarrival_slots: 12.0,
        mean_lifetime_slots: 384.0,
        min_lifetime_slots: 64,
    };
    let events = churn_schedule(&churn, &topo);
    let (mut churn_dsts, last_clear) =
        drive_schedule(&mut sim, &mut engine, &config, &events, (4, 4), Cycle::MAX, |sim, gap| {
            mode.advance(sim, gap)
        });
    // Let the last drains land and the bystanders run a comfortable tail.
    let tail = last_clear.saturating_sub(sim.now()) + 20_000;
    mode.advance(&mut sim, tail);

    sim.check_conservation().expect("churn losses must be ledgered, not leaked");
    let control = sim.control_stats();
    let stats = engine.stats();
    let aborted_packets: u64 = topo.nodes().map(|n| sim.chip(n).stats().tc_aborted_teardown).sum();
    let span_cycles = sim.now();
    let bystander_delivered: usize = bystander_dsts.iter().map(|d| sim.log(*d).tc.len()).sum();
    let bystander_misses: usize =
        bystander_dsts.iter().map(|d| sim.log(*d).tc_deadline_misses(config.slot_bytes)).sum();
    churn_dsts.sort_unstable();
    churn_dsts.dedup();
    let churn_delivered: usize = churn_dsts
        .iter()
        .filter(|d| !bystander_dsts.contains(d))
        .map(|d| sim.log(*d).tc.len())
        .sum();
    ChurnOutcome {
        scenario: "churn_admission_under_load",
        attempted: stats.establish_attempted,
        accepted: stats.establish_accepted,
        rejected: stats.establish_rejected,
        teardowns: stats.teardowns,
        table_writes: stats.table_writes,
        write_cost_cycles: engine.write_cost(),
        // Teardown writes are charged to their establishment: every
        // churned channel pays for both ends of its life.
        setup_cycles_per_establish: (stats.table_writes * engine.write_cost())
            .checked_div(stats.establish_accepted)
            .unwrap_or(0),
        accepted_per_mcycle: stats.establish_accepted * 1_000_000 / span_cycles.max(1),
        span_cycles,
        control_ops_applied: control.ops_applied,
        control_ops_rejected: control.ops_rejected,
        control_rejections: sim.control_rejections().to_vec(),
        aborted_packets,
        bystander_delivered,
        bystander_misses,
        churn_delivered,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Every column of the row, as last recorded by the old runner (its
    /// JSON is in git history at `9c68c21`): admission said no nine times,
    /// every table write landed, and the bystanders never missed.
    #[test]
    fn churn_row_matches_the_recorded_run() {
        let recorded = ChurnOutcome {
            scenario: "churn_admission_under_load",
            attempted: 50,
            accepted: 41,
            rejected: 9,
            teardowns: 39,
            table_writes: 506,
            write_cost_cycles: 8,
            setup_cycles_per_establish: 98,
            accepted_per_mcycle: 710,
            span_cycles: 57_712,
            control_ops_applied: 506,
            control_ops_rejected: 0,
            control_rejections: Vec::new(),
            aborted_packets: 54,
            bystander_delivered: 404,
            bystander_misses: 0,
            churn_delivered: 4_352,
        };
        assert_eq!(run_churn(DriveMode::Run), recorded);
    }
}
