//! Integration: every drive call is bit-identical to ticking every chip.
//!
//! The simulator has one step kernel and two ways to drive it
//! ([`DriveMode`]): every live chip and link woken before each step (the
//! reference), and `run` (cycles that tick only the chips that can act and
//! visit only the links that are due, leaping across quiet spans). This
//! suite proves the two bit-identical. Every scenario diffs delivery logs
//! byte-for-byte and the full `Debug` rendering of [`NetworkReport`]:
//! seeded 8×8 meshes at sparse, mixed and saturating load and on a latent
//! wire, a packet parked early behind a horizon, §7 cut-through on both
//! schedulers, a 16×16 mesh whose routers mostly never tick under `run`
//! (and so never build a datapath), and the wormhole baseline, and the two
//! baselines that keep the trait's conservative wake leaping from a fresh
//! build. The predicate tests lock [`Simulator::run_until`] to
//! cycle-by-cycle semantics, mid-leap and at the end of its budget. The
//! conservation test closes the per-node packet ledger under every drive
//! mode, and the warm-queue tests pin the contract that the wake record is
//! built once: plain `step`, injection and external mutation all keep it
//! complete.

use realtime_router::baselines::{FifoSfRouter, PriorityVcRouter, WormholeRouter};
use realtime_router::channels::spec::{ChannelRequest, TrafficSpec};
use realtime_router::channels::ChannelManager;
use realtime_router::core::{ControlCommand, Datapath, RealTimeRouter};
use realtime_router::mesh::{NetworkReport, Simulator, Topology, TrafficSource};
use realtime_router::types::chip::{Chip, ChipIo};
use realtime_router::types::config::{RouterConfig, SchedulerKind};
use realtime_router::types::ids::{ConnectionId, Direction, NodeId, Port};
use realtime_router::types::packet::{BePacket, PacketTrace, TcPacket};
use realtime_router::workloads::be::SizeDist;
use rtr_bench::churn::DriveMode;
use rtr_bench::util::{add_one_hop_channel, add_periodic_sender, add_uniform_be, ONE_HOP_DELAY};

/// Builds an 8×8 mesh with four periodic channels and optional BE load.
fn build_mesh(tc_period_slots: u64, be_rate: f64) -> Simulator<RealTimeRouter> {
    build_mesh_on_wire(0, tc_period_slots, be_rate)
}

/// [`build_mesh`] with `latency` extra cycles on every wire.
fn build_mesh_on_wire(
    latency: u64,
    tc_period_slots: u64,
    be_rate: f64,
) -> Simulator<RealTimeRouter> {
    let config = RouterConfig::default();
    let mut sim = Simulator::build_with_latency(Topology::mesh(8, 8), latency, |_| {
        RealTimeRouter::new(config.clone())
    })
    .unwrap();
    sim.enable_gauge_sampling(50);
    for (i, y) in [0u16, 2, 5, 7].into_iter().enumerate() {
        add_one_hop_channel(&mut sim, y, i, tc_period_slots);
    }
    add_uniform_be(&mut sim, be_rate, SizeDist::Fixed(16), 0xC0FF_EE00, 8);
    sim
}

/// Full observable fingerprint of a finished run: every node's delivery
/// log plus the `Debug` rendering of the captured [`NetworkReport`].
fn fingerprint<C: Chip>(sim: &Simulator<C>) -> String {
    let mut out = String::new();
    for node in sim.topology().nodes() {
        let log = sim.log(node);
        out.push_str(&format!("{node}: tc={:?} be={:?}\n", log.tc, log.be));
    }
    out.push_str(&format!("{:?}", NetworkReport::capture(sim, RouterConfig::default().slot_bytes)));
    out
}

/// Builds the scenario and drives it `cycles` cycles in one drive mode.
fn drive<C: Chip>(
    build: &mut impl FnMut() -> Simulator<C>,
    mode: DriveMode,
    cycles: u64,
) -> Simulator<C> {
    let mut sim = build();
    mode.advance(&mut sim, cycles);
    sim
}

/// Runs one scenario in both drive modes and asserts byte-identical
/// observables. Returns the runs in [`DriveMode::ALL`] order — the
/// every-chip reference, then `run` — for follow-up assertions.
fn assert_modes_agree<C: Chip>(
    mut build: impl FnMut() -> Simulator<C>,
    cycles: u64,
) -> [Simulator<C>; 2] {
    let runs = DriveMode::ALL.map(|mode| drive(&mut build, mode, cycles));
    let reference = fingerprint(&runs[0]);
    for (mode, sim) in DriveMode::ALL.iter().zip(&runs) {
        assert_eq!(sim.now(), runs[0].now(), "{mode:?} covered a different span");
        assert_eq!(fingerprint(sim), reference, "{mode:?} vs every chip");
    }
    runs
}

/// Sparse load: long-period channels, no best-effort traffic. The event
/// queue must leap most cycles and stay byte-identical to the reference,
/// which visits every link on every cycle, whatever the link wakes say.
#[test]
fn event_core_equivalence_sparse_load() {
    let [every, run] = assert_modes_agree(|| build_mesh(64, 0.0), 20_000);
    let tc_total: usize = every.topology().nodes().map(|n| every.log(n).tc.len()).sum();
    assert!(tc_total >= 40, "sparse TC load too light to trust: {tc_total}");
    assert!(
        run.ticks_executed() * 2 < every.ticks_executed(),
        "sparse load must skip most node-cycles: {} vs {} ticks",
        run.ticks_executed(),
        every.ticks_executed()
    );
    let stats = run.event_core_stats();
    assert!(stats.fired > 0, "wakes must actually fire: {stats:?}");
    #[cfg(feature = "metrics")]
    {
        let topo = every.topology();
        let wired =
            |node| Direction::ALL.into_iter().filter(move |&d| topo.link_end(node, d).is_some());
        let links = topo.nodes().flat_map(wired).count() as u64;
        let visits = every.metrics_snapshot().counter("sim.link_visits");
        assert_eq!(visits, Some(links * 20_000), "the reference visits every link every cycle");
    }
}

/// Mixed load: period-8 channels plus 5% Bernoulli BE background. Random
/// sources draw every cycle, so no cycle is leapt, and every cycle ticks
/// the chip of each source it ran — every chip, exactly the every-chip
/// run's ticks — while staying byte-identical.
#[test]
fn event_core_equivalence_mixed_load() {
    let [every, run] = assert_modes_agree(|| build_mesh(8, 0.05), 4_000);
    let be_total: usize = every.topology().nodes().map(|n| every.log(n).be.len()).sum();
    assert!(be_total > 500, "mixed BE load too light to trust: {be_total}");
    assert_eq!(run.ticks_executed(), every.ticks_executed(), "a source ran at every chip");
    assert_eq!(every.ticks_executed(), 64 * 4_000);
}

/// Saturating load: period-8 channels plus 35% Bernoulli BE background —
/// heavy contention and credit stalls with the event core armed throughout.
#[test]
fn event_core_equivalence_saturating_load() {
    let [every, ..] = assert_modes_agree(|| build_mesh(8, 0.35), 3_000);
    let be_total: usize = every.topology().nodes().map(|n| every.log(n).be.len()).sum();
    assert!(be_total > 1_000, "saturating BE load too light to trust: {be_total}");
}

/// A zero-latency link's wake is always the next cycle — the three
/// scenarios above. Three cycles of wire put a fresh arrival further out,
/// and the link's one wake says so: the record holds a link's next arrival
/// wherever it lies. Both drive modes agree on the latent wire too, and,
/// as on the direct wire, a random source at every chip ticks every chip
/// on every cycle.
#[test]
fn event_core_equivalence_on_a_latent_wire() {
    let [every, run] = assert_modes_agree(|| build_mesh_on_wire(3, 8, 0.05), 3_000);
    let tc: usize = every.topology().nodes().map(|n| every.log(n).tc.len()).sum();
    let be: usize = every.topology().nodes().map(|n| every.log(n).be.len()).sum();
    assert!(tc >= 40 && be > 300, "latent-wire load too light to trust: {tc} / {be}");
    assert_eq!(run.ticks_executed(), every.ticks_executed(), "a source ran at every chip");
    assert_eq!(every.ticks_executed(), 64 * 3_000);
}

/// A router builds its datapath on its first tick. The first cycle polls
/// every chip before its tick and ticks only those that can act, so `run`
/// builds one only where traffic goes, while waking every chip builds one
/// at every node. Two channels across a
/// 16×16 mesh and one late best-effort packet leave most of the mesh
/// without one; every run still agrees byte for byte, a router that never
/// ticked reading as an empty one everywhere the report looks.
#[test]
fn a_mostly_pristine_mesh_leaps_like_it_steps() {
    let build = || {
        let config = RouterConfig::default();
        let mut sim =
            Simulator::build(Topology::mesh(16, 16), |_| RealTimeRouter::new(config.clone()))
                .unwrap();
        let topo = sim.topology().clone();
        let mut manager = ChannelManager::new(&config);
        for (i, ((sx, sy), (dx, dy))) in
            [((1, 1), (14, 4)), ((13, 14), (2, 10))].into_iter().enumerate()
        {
            let (src, dst) = (topo.node_at(sx, sy), topo.node_at(dx, dy));
            let request = ChannelRequest::unicast(src, dst, TrafficSpec::periodic(128, 18), 200);
            let channel = manager.establish(&topo, request, &mut sim).unwrap();
            add_periodic_sender(&mut sim, &channel, 128, i as u64, 0xC0 + i as u8);
        }
        sim.add_source(topo.node_at(15, 0), Box::new(Burst { at: 9_000, packets: 1 }));
        sim
    };
    let [every, run] = assert_modes_agree(build, 12_000);
    let delivered = |sim: &Simulator<RealTimeRouter>| {
        let logs = sim.topology().nodes().map(|n| sim.log(n));
        logs.fold((0, 0), |(tc, be), log| (tc + log.tc.len(), be + log.be.len()))
    };
    let (tc, be) = delivered(&run);
    assert!(tc >= 8 && be == 1, "both channels and the late packet delivered: {tc} / {be}");
    let holders = |sim: &Simulator<RealTimeRouter>| {
        let datapath = std::mem::size_of::<Datapath>();
        sim.topology().nodes().filter(|&n| sim.chip(n).heap_bytes_estimate() >= datapath).count()
    };
    assert_eq!(holders(&every), 256, "every router ticked, and so built its datapath");
    assert!(holders(&run) < 256 / 4, "the run built {} datapaths", holders(&run));
}

/// A predicate that becomes true in the middle of a leapable quiet span
/// must stop `run_until` at exactly the cycle a cycle-by-cycle run stops
/// at — not at the span's end — with the reference's logs, after the ticks
/// a plain `run` to that cycle executes.
#[test]
fn run_until_predicate_fires_mid_leap() {
    // In the sparse mesh, cycle 1_000 sits inside a long quiet span
    // (period-64 channels fire every 1_280 cycles).
    let target = 1_000;
    let budget = 20_000;
    let every = drive(&mut || build_mesh(64, 0.0), DriveMode::EveryChip, target);
    let mut planned = build_mesh(64, 0.0);
    planned.run(target);
    let mut walked = build_mesh(64, 0.0);
    let hit = walked.run_until(budget, |s| s.now() >= target);
    assert!(hit, "the predicate must fire within the budget");
    assert_eq!(walked.now(), every.now(), "mid-leap predicate must stop at its true cycle");
    assert_eq!(walked.now(), target, "s.now() >= {target} first holds at cycle {target}");
    assert_eq!(fingerprint(&every), fingerprint(&walked));
    // Walking the quiet prefix boundary by boundary ticks no chip a leap
    // across it in one block would not.
    assert_eq!(walked.ticks_executed(), planned.ticks_executed());
    #[cfg(feature = "metrics")]
    {
        let leaped = walked.metrics_snapshot().counter("sim.leaped_cycles").unwrap_or(0);
        assert!(leaped > 0, "the quiet prefix must still be leaped");
    }
}

/// Budget semantics must match stepping every chip one cycle at a time
/// exactly when the predicate never fires: a `false` result, the same
/// final cycle, the same logs.
#[test]
fn run_until_budget_exhaustion_matches_stepped() {
    let budget = 5_000;
    let stepped = drive(&mut || build_mesh(64, 0.0), DriveMode::EveryChip, budget);
    let mut run = build_mesh(64, 0.0);
    assert!(!run.run_until(budget, |_| false));
    assert_eq!(stepped.now(), run.now(), "budget must bound both runs identically");
    assert_eq!(fingerprint(&stepped), fingerprint(&run));
}

/// The per-node conservation ledger (arrived = buffered + delivered +
/// dropped + forwarded, memory occupancy consistent) must close under every
/// drive mode.
#[test]
fn conservation_holds_across_all_drive_modes() {
    for mode in DriveMode::ALL {
        let sim = drive(&mut || build_mesh(8, 0.05), mode, 4_000);
        if let Err(violation) = sim.check_conservation() {
            panic!("{mode:?} run must conserve packets: {violation}");
        }
    }
}

/// Hops of [`one_packet_over_four_hops`].
const HOPS: u16 = 4;

/// A row of `HOPS + 1` routers forwarding connection 40 east, the last
/// delivering it, with one packet queued at node 0 before cycle 0.
fn one_packet_over_four_hops() -> Simulator<RealTimeRouter> {
    let config = RouterConfig::default();
    let mut sim =
        Simulator::build(Topology::mesh(HOPS + 1, 1), |_| RealTimeRouter::new(config.clone()))
            .unwrap();
    let conn = ConnectionId(40);
    for x in 0..=HOPS {
        let port = if x == HOPS { Port::Local } else { Port::Dir(Direction::XPlus) };
        let write = ControlCommand::SetConnection {
            incoming: conn,
            outgoing: conn,
            delay: ONE_HOP_DELAY,
            out_mask: port.mask(),
        };
        sim.chip_mut(NodeId(x)).apply_control(write).unwrap();
    }
    sim.inject_tc(
        NodeId(0),
        TcPacket {
            conn,
            arrival: sim.chip(NodeId(0)).clock().wrap(2),
            payload: vec![0x4E; config.tc_data_bytes()].into(),
            trace: PacketTrace::default(),
        },
    );
    sim
}

/// A time-constrained packet costs each router it crosses a few ticks, not
/// one per byte: one packet over a 4-hop route (five routers) under
/// `run` ticks the routers at most five times each in all — its
/// head, its tail, the end of the store latency, its start, the cycle its
/// output frees (injection and delivery alike) — where ticking through its
/// 20 bytes on both ends of every hop would take at least 40 per router.
/// Its links settle the continuation symbols by the clock, so the delivery
/// matches every other drive mode to the cycle and every link ledger counts
/// all 20 symbols.
#[test]
fn a_packet_costs_its_routers_a_few_ticks_not_one_per_byte() {
    let dst = NodeId(HOPS);
    let [every, run] = assert_modes_agree(one_packet_over_four_hops, 2_000);
    assert_eq!(every.log(dst).tc.len(), 1);
    for x in 0..HOPS {
        let ledger = run.link_ledger(NodeId(x), Direction::XPlus);
        assert_eq!((ledger.symbols_sent, ledger.symbols_delivered), (20, 20), "hop {x}");
    }
    let routers = u64::from(HOPS) + 1;
    assert!(
        run.ticks_executed() <= 5 * routers,
        "{} ticks for one packet over {HOPS} hops",
        run.ticks_executed()
    );
    for x in 0..=HOPS {
        // One poll after each tick, and one in the prime for the four
        // routers no injection reached.
        let polls = run.chip(NodeId(x)).wake_stats().unwrap().polls;
        assert!(polls <= 6, "router {x} was polled {polls} times");
    }
    for sim in [&every, &run] {
        sim.check_conservation().unwrap();
    }
}

/// Plain `step` calls between two runs keep the wake record warm (no
/// rebuild, no re-poll storm): each is one cycle of the one kernel, which
/// reads and writes the live record. Nothing else stales it either —
/// `chip_mut` and `add_source` make what they touch due on the next
/// cycle — so the result stays byte-identical to ticking every chip, and
/// the runs on either side still leap their quiet spans.
#[test]
fn plain_stepping_keeps_event_queue_warm() {
    let mut interleaved = build_mesh(64, 0.0);
    interleaved.run(6_000);
    let warm = interleaved.event_core_stats();
    assert!(warm.fired > 0, "the run filled the record: {warm:?}");
    for _ in 0..6_000 {
        interleaved.step(); // a plain stepped segment in the middle
    }
    let stepped = interleaved.event_core_stats();
    assert!(stepped.filed > warm.filed, "plain stepping wrote to the same record");
    interleaved.run(8_000);

    let every = drive(&mut || build_mesh(64, 0.0), DriveMode::EveryChip, 20_000);
    assert_eq!(every.now(), interleaved.now());
    assert_eq!(fingerprint(&every), fingerprint(&interleaved), "every chip vs interleave");
    assert!(
        interleaved.ticks_executed() * 2 < every.ticks_executed(),
        "stepping and leaping must still skip quiet chips"
    );
    #[cfg(feature = "metrics")]
    {
        let stale = interleaved.metrics_snapshot().counter("sim.stale_repolls");
        assert_eq!(stale, Some(64), "only the first cycle polls every chip");
    }
}

/// Queues `packets` best-effort packets two hops west at cycle `at`;
/// silent otherwise.
struct Burst {
    at: u64,
    packets: usize,
}

impl TrafficSource for Burst {
    fn pre_cycle(&mut self, now: u64, _node: NodeId, io: &mut ChipIo) {
        if now == self.at {
            let packet = BePacket::new(-2, 0, vec![0xB5; 24], PacketTrace::default());
            io.inject_be.extend(std::iter::repeat_n(packet, self.packets));
        }
    }

    fn next_event(&self, now: u64) -> Option<u64> {
        (now < self.at).then_some(self.at)
    }
}

/// Packets queued for injection live in simulator-owned queues no chip's
/// `next_event` describes, so a live chip with a queued packet stays due,
/// and the cycle finds it in the wake record, not by scanning the
/// mesh. Injecting from outside (`inject_tc` / `inject_be`) between two
/// drive calls must neither stale the record nor go unnoticed by it, and
/// neither may a `chip_mut` write that releases a parked packet; a backlog
/// a source left behind at the end of one drive call must be picked up by
/// the next, and the result stays byte-identical to ticking every chip.
#[test]
fn injection_on_a_warm_core_is_seen() {
    let conn = ConnectionId(40);
    let drive = |mode: DriveMode| {
        let mut sim = build_mesh(64, 0.0);
        let topo = sim.topology().clone();
        // A routed one-hop connection without a source of its own, on a row
        // the periodic channels leave alone.
        let (src, dst) = (topo.node_at(0, 3), topo.node_at(1, 3));
        for (node, port) in [(src, Port::Dir(Direction::XPlus)), (dst, Port::Local)] {
            sim.chip_mut(node)
                .apply_control(ControlCommand::SetConnection {
                    incoming: conn,
                    outgoing: conn,
                    delay: ONE_HOP_DELAY,
                    out_mask: port.mask(),
                })
                .unwrap();
        }
        // The burst lands in one drive call and is still draining when the
        // next begins.
        sim.add_source(topo.node_at(6, 1), Box::new(Burst { at: 40, packets: 3 }));
        mode.advance(&mut sim, 45);
        mode.advance(&mut sim, 2_955);
        let warm = sim.event_core_stats();

        let config = RouterConfig::default();
        let slot = realtime_router::types::time::cycle_to_slot(sim.now(), config.slot_bytes);
        // 50 slots early behind a zero horizon: the packet parks at `src`.
        sim.inject_tc(
            src,
            TcPacket {
                conn,
                arrival: sim.chip(src).clock().wrap(slot + 50),
                payload: vec![0x7C; config.tc_data_bytes()].into(),
                trace: PacketTrace::default(),
            },
        );
        let be_src = topo.node_at(4, 4);
        sim.inject_be(be_src, BePacket::new(2, 1, vec![0xBE; 24], PacketTrace::default()));
        assert_eq!(sim.event_core_stats(), warm, "injection must not stale the core");
        mode.advance(&mut sim, 200);
        // Widening the horizon releases the parked packet at once: the chip
        // must tick on the next cycle, not at the wake it filed before.
        let before = sim.event_core_stats();
        let xplus = Port::Dir(Direction::XPlus).mask();
        sim.chip_mut(src)
            .apply_control(ControlCommand::SetHorizon { port_mask: xplus, horizon: 60 })
            .unwrap();
        assert_eq!(sim.event_core_stats(), before, "a chip_mut write keeps the core");
        mode.advance(&mut sim, 2_800);
        // Still the same queue: a re-prime would have started its counters
        // from zero.
        let after = sim.event_core_stats();
        assert!(after.filed > warm.filed && after.fired > warm.fired, "{warm:?} → {after:?}");
        assert_eq!(sim.log(dst).tc.len(), 1, "the injected TC packet arrived");
        let early = sim.chip(src).stats().tc_early_transmitted[Port::Dir(Direction::XPlus).index()];
        assert_eq!(early, 1, "the widened horizon sent the parked packet early");
        assert_eq!(sim.log(topo.node_at(6, 5)).be.len(), 1, "the injected BE packet arrived");
        assert_eq!(sim.log(topo.node_at(4, 1)).be.len(), 3, "the dense-queued burst arrived");
        sim
    };
    let [every, run] = DriveMode::ALL.map(drive);
    assert_eq!(fingerprint(&every), fingerprint(&run));
    assert!(
        run.ticks_executed() * 2 < every.ticks_executed(),
        "the run must still skip quiet chips: {} vs {} ticks",
        run.ticks_executed(),
        every.ticks_executed()
    );
}

/// Horizon-limited early traffic: a packet whose logical arrival is far in
/// the future parks in packet memory until its slack enters the horizon.
/// The event run must wake exactly at the horizon boundary — waking one
/// slot late would shift the transmit cycle, one slot early would burn
/// ticks — and still deliver at the every-chip run's cycle.
#[test]
fn leaping_equivalence_horizon_limited_early_tc() {
    let build = || {
        let config = RouterConfig::default();
        let mut sim =
            Simulator::build(Topology::mesh(2, 1), |_| RealTimeRouter::new(config.clone()))
                .unwrap();
        sim.enable_gauge_sampling(50);
        let src = NodeId(0);
        let dst = sim.topology().node_at(1, 0);
        let (conn, xplus) = (ConnectionId(5), Port::Dir(Direction::XPlus).mask());
        for (node, out_mask) in [(src, xplus), (dst, Port::Local.mask())] {
            sim.chip_mut(node)
                .apply_control(ControlCommand::SetConnection {
                    incoming: conn,
                    outgoing: conn,
                    delay: 100,
                    out_mask,
                })
                .unwrap();
        }
        sim.chip_mut(src)
            .apply_control(ControlCommand::SetHorizon { port_mask: xplus, horizon: 4 })
            .unwrap();
        let clock = sim.chip(src).clock();
        let payload = vec![0x77; sim.chip(src).config().tc_data_bytes()];
        sim.inject_tc(
            src,
            TcPacket {
                conn,
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
    let [every, run] = assert_modes_agree(build, 6_000);
    let dst = every.topology().node_at(1, 0);
    assert_eq!(every.log(dst).tc.len(), 1, "the parked packet must arrive");
    assert!(
        run.ticks_executed() * 2 < every.ticks_executed(),
        "the early-parked span must be slept through: {} vs {} ticks",
        run.ticks_executed(),
        every.ticks_executed()
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
        add_periodic_sender(&mut sim, &channel, PERIOD, 0, 3);
    }
    add_uniform_be(&mut sim, be_rate, SizeDist::Fixed(16), 0xC0FF_EE00, 8);
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
            let [every, run] = assert_modes_agree(|| cut_through_mesh(scheduler, be_rate), 40_000);
            let topo = every.topology();
            let cut: u64 = topo.nodes().map(|n| every.chip(n).stats().tc_cut_through).sum();
            assert!(cut > 0, "{scheduler:?} at BE {be_rate}: no packet cut through");
            if be_rate == 0.0 {
                assert!(
                    run.ticks_executed() * 2 < every.ticks_executed(),
                    "{scheduler:?}: a quiet cut-through mesh must sleep: {} vs {} ticks",
                    run.ticks_executed(),
                    every.ticks_executed()
                );
            }
        }
    }
}

/// The baselines' share of the contract: a baseline that answers
/// `next_event` at all (the pure-wormhole router, whose answer is the
/// kit channel's) must leap like it steps. The `baseline_compare` scenario
/// under 20% best-effort background. The store-and-forward and priority-VC
/// baselines keep the trait's never-leap default; the next test holds them
/// to the prime's pre-tick poll.
#[test]
fn baselines_leap_like_they_step() {
    let [every, run] =
        assert_modes_agree(|| rtr_bench::baseline_compare::wormhole_sim(0.2), 10_000);
    // Every baseline counter is event-based, so — unlike the real-time
    // router's `sched.key_computations` work counter — all of them match.
    let counters = |sim: &Simulator<WormholeRouter>, node| {
        let mut seen = Vec::new();
        sim.chip(node).counters(&mut |name, value| seen.push((name, value)));
        seen
    };
    for node in every.topology().nodes() {
        assert_eq!(counters(&every, node), counters(&run, node), "counters at {node}");
    }
    let be_total: usize = every.topology().nodes().map(|n| every.log(n).be.len()).sum();
    assert!(be_total > 500, "the scenario must carry traffic: {be_total} packets");
    // Its background sources draw at every chip on every cycle, and a
    // cycle ticks the chip of each source it ran.
    assert_eq!(run.ticks_executed(), every.ticks_executed(), "a source ran at every chip");
}

/// The first cycle polls each chip *before* its first tick, and an answer
/// by the next cycle ticks it. The store-and-forward and
/// priority-VC baselines keep the trait's conservative `next_event`
/// (`now + 1`), so every one of them ticks on every cycle from the first —
/// `run` ticks every chip in all but name and must match the reference
/// byte for byte, with a packet queued before cycle 0,
/// seeded background load and a burst that sleeps in the wake queue.
#[test]
fn conservative_chips_leap_from_a_fresh_build() {
    fn loaded<C: Chip>(make: impl Fn() -> C) -> Simulator<C> {
        let topo = Topology::mesh(4, 4);
        let mut sim =
            Simulator::build(topo.clone(), |_| Ok::<_, std::convert::Infallible>(make())).unwrap();
        sim.inject_be(NodeId(0), BePacket::new(3, 3, vec![0x5C; 24], PacketTrace::default()));
        sim.add_source(topo.node_at(3, 0), Box::new(Burst { at: 30, packets: 3 }));
        add_uniform_be(&mut sim, 0.05, SizeDist::Fixed(16), 0xFA57, 8);
        sim
    }
    fn check<C: Chip>(make: impl Fn() -> C) {
        let [every, run] = assert_modes_agree(|| loaded(&make), 3_000);
        let delivered: usize = every.topology().nodes().map(|n| every.log(n).be.len()).sum();
        assert!(delivered > 30, "the mesh must carry traffic: {delivered} packets");
        assert_eq!(
            run.ticks_executed(),
            every.ticks_executed(),
            "a chip that always answers the next cycle ticks on every cycle"
        );
    }
    let config = RouterConfig::default();
    check(|| FifoSfRouter::new(config.clone()).unwrap());
    check(|| PriorityVcRouter::new(config.clone()).unwrap());
}
