//! Integration: event-driven time leaping is bit-identical to stepping.
//!
//! [`Simulator::run_leaping`] may advance simulated time over provably
//! quiet spans, but the observable outcome must match plain cycle stepping
//! exactly: the same packets with the same payload bytes delivered at the
//! same cycles in the same order, and an identical [`NetworkReport`] —
//! statistics, link usage, deadline metrics, and occupancy time series
//! included. This suite drives seeded 8×8 meshes at sparse, mixed, and
//! saturating loads (plus a horizon-limited early-traffic corner on a
//! two-node mesh) through both paths and diffs everything. The sparse and
//! idle scenarios additionally pin the point of the fast path: far fewer
//! chip ticks executed for the same simulated span.

use realtime_router::baselines::WormholeRouter;
use realtime_router::channels::establish::{EstablishedChannel, Hop};
use realtime_router::channels::sender::ChannelSender;
use realtime_router::channels::spec::{ChannelRequest, TrafficSpec};
use realtime_router::channels::ChannelManager;
use realtime_router::core::{ControlCommand, RealTimeRouter};
use realtime_router::mesh::{NetworkReport, Simulator, Topology};
use realtime_router::types::chip::Chip;
use realtime_router::types::config::{RouterConfig, SchedulerKind};
use realtime_router::types::ids::{ConnectionId, Direction, NodeId, Port};
use realtime_router::types::packet::{PacketTrace, TcPacket};
use realtime_router::workloads::be::{RandomBeSource, SizeDist};
use realtime_router::workloads::patterns::TrafficPattern;
use realtime_router::workloads::tc::PeriodicTcSource;

const DELAY: u32 = 6;

/// Adds a one-hop periodic TC channel from `(0, y)` to `(1, y)`.
fn add_channel(sim: &mut Simulator<RealTimeRouter>, y: u16, index: usize, period_slots: u64) {
    let config = RouterConfig::default();
    let topo = sim.topology().clone();
    let conn = ConnectionId(10 + index as u16);
    let src = topo.node_at(0, y);
    let dst = topo.node_at(1, y);
    sim.chip_mut(src)
        .apply_control(ControlCommand::SetConnection {
            incoming: conn,
            outgoing: conn,
            delay: DELAY,
            out_mask: Port::Dir(Direction::XPlus).mask(),
        })
        .unwrap();
    sim.chip_mut(dst)
        .apply_control(ControlCommand::SetConnection {
            incoming: conn,
            outgoing: conn,
            delay: DELAY,
            out_mask: Port::Local.mask(),
        })
        .unwrap();
    let channel = EstablishedChannel {
        id: u64::from(conn.0),
        ingress: conn,
        depth: 2,
        guaranteed: 2 * DELAY,
        hops: vec![
            Hop {
                node: src,
                conn,
                out_conn: conn,
                delay: DELAY,
                out_mask: Port::Dir(Direction::XPlus).mask(),
                buffers: 2,
            },
            Hop {
                node: dst,
                conn,
                out_conn: conn,
                delay: DELAY,
                out_mask: Port::Local.mask(),
                buffers: 2,
            },
        ],
        request: ChannelRequest::unicast(
            src,
            dst,
            TrafficSpec::periodic(period_slots as u32, 18),
            2 * DELAY,
        ),
    };
    let sender = ChannelSender::new(
        &channel,
        sim.chip(src).clock(),
        config.slot_bytes,
        config.tc_data_bytes(),
    );
    sim.add_source(
        src,
        Box::new(PeriodicTcSource::new(
            sender,
            period_slots,
            0,
            config.slot_bytes,
            vec![0xA0 + index as u8, config.tc_data_bytes() as u8]
                .into_iter()
                .cycle()
                .take(config.tc_data_bytes())
                .collect(),
        )),
    );
}

/// Adds a seeded Bernoulli BE source at every node.
fn add_be_background(sim: &mut Simulator<RealTimeRouter>, rate: f64) {
    let topo = sim.topology().clone();
    for node in topo.nodes() {
        sim.add_source(
            node,
            Box::new(
                RandomBeSource::new(
                    topo.clone(),
                    TrafficPattern::Uniform,
                    rate,
                    SizeDist::Fixed(16),
                    0xC0FF_EE00 ^ u64::from(node.0),
                )
                .with_max_queue(8),
            ),
        );
    }
}

/// Builds an 8×8 mesh with four periodic channels and optional BE load.
fn build_mesh(tc_period_slots: u64, be_rate: f64) -> Simulator<RealTimeRouter> {
    let config = RouterConfig::default();
    let mut sim =
        Simulator::build(Topology::mesh(8, 8), |_| RealTimeRouter::new(config.clone())).unwrap();
    sim.enable_gauge_sampling(50);
    for (i, y) in [0u16, 2, 5, 7].into_iter().enumerate() {
        add_channel(&mut sim, y, i, tc_period_slots);
    }
    if be_rate > 0.0 {
        add_be_background(&mut sim, be_rate);
    }
    sim
}

/// Runs one simulator stepped and an identically-built one leaping, then
/// asserts byte-identical observables. Returns `(stepped, leaping)` for
/// scenario-specific follow-up assertions.
fn assert_equivalent<C: Chip>(
    mut build: impl FnMut() -> Simulator<C>,
    cycles: u64,
) -> (Simulator<C>, Simulator<C>) {
    let config = RouterConfig::default();
    let mut stepped = build();
    stepped.run(cycles);
    let mut leaping = build();
    leaping.run_leaping(cycles);

    assert_eq!(stepped.now(), leaping.now(), "both runs must cover the same span");
    for node in stepped.topology().nodes() {
        let (s, l) = (stepped.log(node), leaping.log(node));
        assert_eq!(s.tc, l.tc, "TC deliveries diverged at {node}");
        assert_eq!(s.be, l.be, "BE deliveries diverged at {node}");
    }
    let s = format!("{:?}", NetworkReport::capture(&stepped, config.slot_bytes));
    let l = format!("{:?}", NetworkReport::capture(&leaping, config.slot_bytes));
    assert_eq!(s, l, "network reports diverged between stepped and leaping runs");
    (stepped, leaping)
}

/// Sparse load (≲1% injection): long-period channels, no best-effort
/// traffic. The network is quiet most of the time, so leaping must both
/// match stepping exactly and execute a small fraction of its ticks.
#[test]
fn leaping_equivalence_sparse_load() {
    let cycles = 20_000;
    let (stepped, leaping) = assert_equivalent(|| build_mesh(64, 0.0), cycles);
    let tc_total: usize = stepped.topology().nodes().map(|n| stepped.log(n).tc.len()).sum();
    assert!(tc_total >= 40, "sparse TC load too light to trust: {tc_total}");
    assert!(
        leaping.ticks_executed() * 2 < stepped.ticks_executed(),
        "sparse load must leap most cycles: {} vs {} ticks",
        leaping.ticks_executed(),
        stepped.ticks_executed()
    );
}

/// Mixed load: period-8 channels plus 5% Bernoulli BE background. Random
/// sources draw every cycle, so leaping windows are rare-to-absent — the
/// fast path must degrade gracefully to per-cycle stepping with no
/// divergence, while sparse ticking still skips the chips a cycle never
/// touches (so the event path ticks no more, usually fewer).
#[test]
fn leaping_equivalence_mixed_load() {
    let cycles = 4_000;
    let (stepped, leaping) = assert_equivalent(|| build_mesh(8, 0.05), cycles);
    let be_total: usize = stepped.topology().nodes().map(|n| stepped.log(n).be.len()).sum();
    assert!(be_total > 500, "mixed BE load too light to trust: {be_total}");
    assert!(
        leaping.ticks_executed() <= stepped.ticks_executed(),
        "sparse ticking may never exceed dense stepping: {} vs {} ticks",
        leaping.ticks_executed(),
        stepped.ticks_executed()
    );
}

/// Saturating load: period-8 channels plus 35% Bernoulli BE background —
/// heavy contention, credit stalls, and early-cut gap fills, all with the
/// leaping check armed every cycle.
#[test]
fn leaping_equivalence_saturating_load() {
    let cycles = 3_000;
    let (stepped, _) = assert_equivalent(|| build_mesh(8, 0.35), cycles);
    let be_total: usize = stepped.topology().nodes().map(|n| stepped.log(n).be.len()).sum();
    assert!(be_total > 1_000, "saturating BE load too light to trust: {be_total}");
}

/// Horizon-limited early traffic: a packet whose logical arrival is far in
/// the future parks in packet memory until its slack enters the horizon.
/// The leaping run must wake exactly at the horizon boundary — waking one
/// slot late would shift the transmit cycle, one slot early would burn
/// ticks — and still deliver at the stepped run's cycle.
#[test]
fn leaping_equivalence_horizon_limited_early_tc() {
    let cycles = 6_000;
    let build = || {
        let config = RouterConfig::default();
        let mut sim =
            Simulator::build(Topology::mesh(2, 1), |_| RealTimeRouter::new(config.clone()))
                .unwrap();
        sim.enable_gauge_sampling(50);
        let src = NodeId(0);
        let dst = sim.topology().node_at(1, 0);
        sim.chip_mut(src)
            .apply_control(ControlCommand::SetConnection {
                incoming: ConnectionId(5),
                outgoing: ConnectionId(5),
                delay: 100,
                out_mask: Port::Dir(Direction::XPlus).mask(),
            })
            .unwrap();
        sim.chip_mut(src)
            .apply_control(ControlCommand::SetHorizon {
                port_mask: Port::Dir(Direction::XPlus).mask(),
                horizon: 4,
            })
            .unwrap();
        sim.chip_mut(dst)
            .apply_control(ControlCommand::SetConnection {
                incoming: ConnectionId(5),
                outgoing: ConnectionId(5),
                delay: 100,
                out_mask: Port::Local.mask(),
            })
            .unwrap();
        let clock = sim.chip(src).clock();
        let payload = vec![0x77; sim.chip(src).config().tc_data_bytes()];
        sim.inject_tc(
            src,
            TcPacket {
                conn: ConnectionId(5),
                arrival: clock.wrap(120),
                payload: payload.into(),
                trace: PacketTrace {
                    source: src,
                    destination: dst,
                    deadline: 320,
                    ..PacketTrace::default()
                },
            },
        );
        sim
    };
    let (stepped, leaping) = assert_equivalent(build, cycles);
    let dst = stepped.topology().node_at(1, 0);
    assert_eq!(stepped.log(dst).tc.len(), 1, "the parked packet must arrive");
    assert!(
        leaping.ticks_executed() * 2 < stepped.ticks_executed(),
        "the early-parked span must be leaped: {} vs {} ticks",
        leaping.ticks_executed(),
        stepped.ticks_executed()
    );
}

/// The `extensions_compose` mesh — 4×4, three multi-hop channels, §7
/// virtual cut-through on — with period-64 channels and `be_rate` uniform
/// best-effort background.
fn cut_through_mesh(scheduler: SchedulerKind, be_rate: f64) -> Simulator<RealTimeRouter> {
    const PERIOD: u64 = 64;
    let config = RouterConfig { tc_cut_through: true, scheduler, ..RouterConfig::default() };
    let topo = Topology::mesh(4, 4);
    let mut sim = Simulator::build(topo.clone(), |_| RealTimeRouter::new(config.clone())).unwrap();
    let mut manager = ChannelManager::new(&config);
    for ((sx, sy), (dx, dy)) in [((0, 0), (3, 1)), ((3, 3), (0, 2)), ((1, 0), (2, 3))] {
        let (src, dst) = (topo.node_at(sx, sy), topo.node_at(dx, dy));
        let depth = topo.dor_route(src, dst).len() as u32 + 1;
        let spec = TrafficSpec::periodic(PERIOD as u32, 18);
        let request = ChannelRequest::unicast(src, dst, spec, depth * 8);
        let channel = manager.establish(&topo, request, &mut sim).unwrap();
        let sender = ChannelSender::new(
            &channel,
            sim.chip(src).clock(),
            config.slot_bytes,
            config.tc_data_bytes(),
        );
        let payload = vec![3; config.tc_data_bytes()];
        let source = PeriodicTcSource::new(sender, PERIOD, 0, config.slot_bytes, payload);
        sim.add_source(src, Box::new(source));
    }
    if be_rate > 0.0 {
        add_be_background(&mut sim, be_rate);
    }
    sim
}

/// Cut-through leaps the way it steps: a packet that cuts through waits out
/// its header latency in the output port's `pending_cut`, and `next_event`
/// must wake the chip at its `start_at` — on both schedulers, on a quiet
/// mesh (which must leap most cycles) and under best-effort load.
#[test]
fn cut_through_leaps_like_it_steps() {
    for scheduler in [SchedulerKind::ComparatorTree, SchedulerKind::Banded { band_shift: 1 }] {
        for be_rate in [0.0, 0.05] {
            let (stepped, leaping) =
                assert_equivalent(|| cut_through_mesh(scheduler, be_rate), 40_000);
            let topo = stepped.topology();
            let cut: u64 = topo.nodes().map(|n| stepped.chip(n).stats().tc_cut_through).sum();
            assert!(cut > 0, "{scheduler:?} at BE {be_rate}: no packet cut through");
            if be_rate == 0.0 {
                assert!(
                    leaping.ticks_executed() * 2 < stepped.ticks_executed(),
                    "{scheduler:?}: a quiet cut-through mesh must leap: {} vs {} ticks",
                    leaping.ticks_executed(),
                    stepped.ticks_executed()
                );
            }
        }
    }
}

/// The baselines' share of the contract: a baseline that answers
/// `next_event` at all (the pure-wormhole router, whose answer is the
/// kit channel's) must leap like it steps. The `baseline_compare` scenario
/// under 20% best-effort background; the store-and-forward and priority-VC
/// baselines keep the trait's never-leap default and need no proof.
#[test]
fn baselines_leap_like_they_step() {
    let (stepped, leaping) =
        assert_equivalent(|| rtr_bench::baseline_compare::wormhole_sim(0.2), 10_000);
    // Every baseline counter is event-based, so — unlike the real-time
    // router's `sched.key_computations` work counter — all of them match.
    let counters = |sim: &Simulator<WormholeRouter>, node| {
        let mut seen = Vec::new();
        sim.chip(node).counters(&mut |name, value| seen.push((name, value)));
        seen
    };
    for node in stepped.topology().nodes() {
        assert_eq!(counters(&stepped, node), counters(&leaping, node), "counters at {node}");
    }
    let be_total: usize = stepped.topology().nodes().map(|n| stepped.log(n).be.len()).sum();
    assert!(be_total > 500, "the scenario must carry traffic: {be_total} packets");
    assert!(
        leaping.ticks_executed() < stepped.ticks_executed(),
        "idle wormhole chips must be skipped: {} vs {} ticks",
        leaping.ticks_executed(),
        stepped.ticks_executed()
    );
}
