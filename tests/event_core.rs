//! Integration: the calendar-queue event core is bit-identical to stepping.
//!
//! The simulator has one step kernel with two real axes: *which* chips a
//! cycle ticks (dense: all of them; event: the ones the registered-wake
//! calendar queue proves can change, leaping across quiet spans) and *who*
//! executes the ticks (the calling thread, or the worker pool — workers
//! drain wake re-polls into per-chunk buffers merged at the barrier). This
//! suite proves all four combinations bit-identical, with dense serial
//! stepping as the reference. Every scenario diffs delivery logs
//! byte-for-byte and the full `Debug` rendering of [`NetworkReport`]. The
//! mid-leap predicate test locks [`Simulator::run_until_leaping`] to
//! stepped `run_until` semantics. The conservation test closes the
//! per-node packet ledger under all four drive modes, and the warm-queue
//! test pins the contract that plain `step` drives a primed event queue
//! instead of staling it. The wake-queue unit tests (stale-wake invalidation,
//! same-cycle re-registration, wheel rollover) exercise the public
//! `events` API directly.

use realtime_router::channels::establish::{EstablishedChannel, Hop};
use realtime_router::channels::sender::ChannelSender;
use realtime_router::channels::spec::{ChannelRequest, TrafficSpec};
use realtime_router::core::{ControlCommand, RealTimeRouter};
use realtime_router::events::{WakeHandle, WakeQueue};
use realtime_router::mesh::{NetworkReport, Simulator, Topology, TrafficSource};
use realtime_router::types::chip::ChipIo;
use realtime_router::types::config::RouterConfig;
use realtime_router::types::ids::{ConnectionId, Direction, NodeId, Port};
use realtime_router::types::packet::{BePacket, PacketTrace, TcPacket};
use realtime_router::workloads::be::{RandomBeSource, SizeDist};
use realtime_router::workloads::patterns::TrafficPattern;
use realtime_router::workloads::tc::PeriodicTcSource;
use rtr_bench::churn::DriveMode;

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
        add_channel(&mut sim, y, i, tc_period_slots);
    }
    if be_rate > 0.0 {
        add_be_background(&mut sim, be_rate);
    }
    sim
}

/// Full observable fingerprint of a finished run: every node's delivery
/// log plus the `Debug` rendering of the captured [`NetworkReport`].
fn fingerprint(sim: &Simulator<RealTimeRouter>) -> String {
    let config = RouterConfig::default();
    let mut out = String::new();
    for node in sim.topology().nodes() {
        let log = sim.log(node);
        out.push_str(&format!("{node}: tc={:?} be={:?}\n", log.tc, log.be));
    }
    out.push_str(&format!("{:?}", NetworkReport::capture(sim, config.slot_bytes)));
    out
}

/// Builds the scenario and drives it `cycles` cycles in one of the drive
/// modes, {dense, event} × {serial, 4-worker pool}.
fn drive(
    build: &mut impl FnMut() -> Simulator<RealTimeRouter>,
    mode: DriveMode,
    cycles: u64,
) -> Simulator<RealTimeRouter> {
    let mut sim = build();
    mode.configure(&mut sim);
    mode.advance(&mut sim, cycles);
    sim
}

/// Runs one scenario in every drive mode and asserts byte-identical
/// observables against dense serial stepping. Returns `(dense serial,
/// event serial)` for follow-up assertions.
fn assert_all_modes_agree(
    mut build: impl FnMut() -> Simulator<RealTimeRouter>,
    cycles: u64,
) -> (Simulator<RealTimeRouter>, Simulator<RealTimeRouter>) {
    let [stepped, dense_pool, serial, event_pool] =
        DriveMode::ALL.map(|mode| drive(&mut build, mode, cycles));
    let f_stepped = fingerprint(&stepped);
    for (sim, mode) in [&dense_pool, &serial, &event_pool].into_iter().zip(&DriveMode::ALL[1..]) {
        assert_eq!(stepped.now(), sim.now(), "{mode:?} covered a different span");
        assert_eq!(f_stepped, fingerprint(sim), "dense serial vs {mode:?}");
    }
    (stepped, serial)
}

/// Sparse load: long-period channels, no best-effort traffic. The event
/// queue must leap most cycles and stay byte-identical in every mode.
#[test]
fn event_core_equivalence_sparse_load() {
    let (stepped, leaping) = assert_all_modes_agree(|| build_mesh(64, 0.0), 20_000);
    let tc_total: usize = stepped.topology().nodes().map(|n| stepped.log(n).tc.len()).sum();
    assert!(tc_total >= 40, "sparse TC load too light to trust: {tc_total}");
    assert!(
        leaping.ticks_executed() * 2 < stepped.ticks_executed(),
        "sparse load must leap most cycles: {} vs {} ticks",
        leaping.ticks_executed(),
        stepped.ticks_executed()
    );
    let stats = leaping.event_core_stats().expect("event core must be live after leaping");
    assert!(stats.fired > 0, "wakes must actually fire: {stats:?}");
}

/// Mixed load: period-8 channels plus 5% Bernoulli BE background. Random
/// sources draw every cycle, so the queue never leaps whole cycles — but
/// sparse ticking still runs only the chips each cycle actually touches,
/// so the event path must execute strictly fewer ticks while staying
/// byte-identical.
#[test]
fn event_core_equivalence_mixed_load() {
    let (stepped, leaping) = assert_all_modes_agree(|| build_mesh(8, 0.05), 4_000);
    let be_total: usize = stepped.topology().nodes().map(|n| stepped.log(n).be.len()).sum();
    assert!(be_total > 500, "mixed BE load too light to trust: {be_total}");
    assert!(
        leaping.ticks_executed() < stepped.ticks_executed(),
        "sparse ticking must skip quiet chips even when no cycle leaps: {} vs {} ticks",
        leaping.ticks_executed(),
        stepped.ticks_executed()
    );
    assert!(leaping.ticks_executed() > 0, "something must still tick under mixed load");
}

/// Saturating load: period-8 channels plus 35% Bernoulli BE background —
/// heavy contention and credit stalls with the event core armed throughout.
#[test]
fn event_core_equivalence_saturating_load() {
    let (stepped, _) = assert_all_modes_agree(|| build_mesh(8, 0.35), 3_000);
    let be_total: usize = stepped.topology().nodes().map(|n| stepped.log(n).be.len()).sum();
    assert!(be_total > 1_000, "saturating BE load too light to trust: {be_total}");
}

/// The wire decides which way a link's wake travels. A zero-latency link
/// always answers the next cycle, so its wake is carried onto the next dirty
/// list and never filed — the three scenarios above. Three cycles of wire put
/// a fresh arrival beyond the next cycle, so the same wake is filed in the
/// wheel (and fires from it, unless a later poll of the link finds the
/// arrival one cycle off and carries it the rest of the way). All four drive
/// modes agree on the latent wire too, and the wheel's own counter shows the
/// two wires really took different ways.
#[test]
fn event_core_equivalence_on_a_latent_wire() {
    let (stepped, leaping) = assert_all_modes_agree(|| build_mesh_on_wire(3, 8, 0.05), 3_000);
    let tc: usize = stepped.topology().nodes().map(|n| stepped.log(n).tc.len()).sum();
    let be: usize = stepped.topology().nodes().map(|n| stepped.log(n).be.len()).sum();
    assert!(tc >= 40 && be > 300, "latent-wire load too light to trust: {tc} / {be}");
    assert!(leaping.ticks_executed() < stepped.ticks_executed());
    let filed = |sim: &Simulator<RealTimeRouter>| sim.event_core_stats().expect("warm core").filed;
    let direct = drive(&mut || build_mesh(8, 0.05), DriveMode::EventSerial, 3_000);
    assert!(
        filed(&leaping) > 4 * filed(&direct),
        "a latent wire's wakes go through the wheel, a direct wire's do not: {} vs {}",
        filed(&leaping),
        filed(&direct)
    );
}

/// A predicate that becomes true in the middle of a leapable quiet span
/// must stop `run_until_leaping` at exactly the cycle stepped `run_until`
/// stops at — not at the span's end — with identical logs either way.
#[test]
fn run_until_predicate_fires_mid_leap() {
    // In the sparse mesh, cycle 1_000 sits inside a long quiet span
    // (period-64 channels fire every 1_280 cycles).
    let target = 1_000;
    let budget = 20_000;
    let mut stepped = build_mesh(64, 0.0);
    let hit_stepped = stepped.run_until(budget, |s| s.now() >= target);
    let mut leaping = build_mesh(64, 0.0);
    let hit_leaping = leaping.run_until_leaping(budget, |s| s.now() >= target);
    assert_eq!(hit_stepped, hit_leaping, "predicate outcome diverged");
    assert!(hit_leaping, "the predicate must fire within the budget");
    assert_eq!(stepped.now(), leaping.now(), "mid-leap predicate must stop at its true cycle");
    assert_eq!(leaping.now(), target, "s.now() >= {target} first holds at cycle {target}");
    assert_eq!(fingerprint(&stepped), fingerprint(&leaping));
    assert!(
        leaping.ticks_executed() < stepped.ticks_executed(),
        "the quiet prefix must still be leaped"
    );
}

/// Budget semantics must match stepped `run_until` exactly when the
/// predicate never fires: same `false` result, same final cycle.
#[test]
fn run_until_budget_exhaustion_matches_stepped() {
    let budget = 5_000;
    let mut stepped = build_mesh(64, 0.0);
    assert!(!stepped.run_until(budget, |_| false));
    let mut leaping = build_mesh(64, 0.0);
    assert!(!leaping.run_until_leaping(budget, |_| false));
    assert_eq!(stepped.now(), leaping.now(), "budget must bound both runs identically");
    assert_eq!(fingerprint(&stepped), fingerprint(&leaping));
}

/// The per-node conservation ledger (arrived = buffered + delivered +
/// dropped + forwarded, memory occupancy consistent) must close under every
/// drive mode: dense or event-driven, on the calling thread or the pool.
#[test]
fn conservation_holds_across_all_drive_modes() {
    for mode in DriveMode::ALL {
        let sim = drive(&mut || build_mesh(8, 0.05), mode, 4_000);
        if let Err(violation) = sim.check_conservation() {
            panic!("{mode:?} run must conserve packets: {violation}");
        }
    }
}

/// Interleaving plain `run` between leaping runs must keep the event queue
/// warm (no teardown, no re-poll storm) and stay byte-identical to a pure
/// stepped run: plain `step` now drives the live queue instead of staling
/// it, so only explicit mutation (`chip_mut`, `add_source`) forces a
/// re-prime.
#[test]
fn plain_stepping_keeps_event_queue_warm() {
    let mut cold = build_mesh(64, 0.0);
    cold.run(2_000);
    assert!(
        cold.event_core_stats().is_none(),
        "a never-leaped sim must not have built the event core"
    );

    let mut interleaved = build_mesh(64, 0.0);
    interleaved.run_leaping(6_000);
    assert!(interleaved.event_core_stats().is_some(), "leaping must build the queue");
    interleaved.run(6_000); // plain stepped segment in the middle
    assert!(
        interleaved.event_core_stats().is_some(),
        "plain stepping must keep the primed queue warm, not tear it down"
    );
    interleaved.run_leaping(8_000);

    let mut stepped = build_mesh(64, 0.0);
    stepped.run(20_000);
    assert_eq!(stepped.now(), interleaved.now());
    assert_eq!(
        fingerprint(&stepped),
        fingerprint(&interleaved),
        "stepped vs leap/step/leap interleave"
    );
    assert!(
        interleaved.ticks_executed() < stepped.ticks_executed(),
        "the leaping segments must still skip quiet cycles"
    );
}

/// Queues a burst of best-effort packets at one cycle; silent otherwise.
struct Burst(u64);

impl TrafficSource for Burst {
    fn pre_cycle(&mut self, now: u64, _node: NodeId, io: &mut ChipIo) {
        if now == self.0 {
            let packet = BePacket::new(-2, 0, vec![0xB5; 24], PacketTrace::default());
            io.inject_be.extend([packet.clone(), packet.clone(), packet]);
        }
    }

    fn next_event(&self, now: u64) -> Option<u64> {
        (now < self.0).then_some(self.0)
    }
}

/// Packets queued for injection live in simulator-owned queues no wake
/// describes, and the event cycle finds their chips on the injection-backlog
/// list, not by scanning the mesh. Injecting from outside (`inject_tc` /
/// `inject_be`) between two drive calls must neither stale the warm core nor
/// go unnoticed by it, a backlog a *dense* cycle's source left behind must be
/// picked up when the core is primed, and the result stays byte-identical to
/// dense stepping.
#[test]
fn injection_on_a_warm_core_is_seen() {
    let conn = ConnectionId(40);
    let drive = |mode: DriveMode| {
        let leaping = mode == DriveMode::EventSerial;
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
                    delay: DELAY,
                    out_mask: port.mask(),
                })
                .unwrap();
        }
        // The burst lands in a dense cycle (no core yet, so no backlog
        // bookkeeping) and is still draining when the core is primed.
        sim.add_source(topo.node_at(6, 1), Box::new(Burst(40)));
        sim.run(45);
        mode.advance(&mut sim, 2_955);
        let warm = sim.event_core_stats();

        let config = RouterConfig::default();
        let slot = realtime_router::types::time::cycle_to_slot(sim.now(), config.slot_bytes);
        sim.inject_tc(
            src,
            TcPacket {
                conn,
                arrival: sim.chip(src).clock().wrap(slot + 2),
                payload: vec![0x7C; config.tc_data_bytes()].into(),
                trace: PacketTrace::default(),
            },
        );
        let be_src = topo.node_at(4, 4);
        sim.inject_be(be_src, BePacket::new(2, 1, vec![0xBE; 24], PacketTrace::default()));
        if leaping {
            let warm = warm.expect("leaping built the core");
            let now = sim.event_core_stats().expect("injection must not stale the core");
            assert_eq!(warm, now);
        }
        mode.advance(&mut sim, 3_000);
        if leaping {
            // Still the same queue: a re-prime would have started its
            // counters from zero.
            let after = sim.event_core_stats().unwrap();
            let warm = warm.unwrap();
            assert!(after.filed > warm.filed && after.fired > warm.fired, "{warm:?} → {after:?}");
        }
        assert_eq!(sim.log(dst).tc.len(), 1, "the injected TC packet arrived");
        assert_eq!(sim.log(topo.node_at(6, 5)).be.len(), 1, "the injected BE packet arrived");
        assert_eq!(sim.log(topo.node_at(4, 1)).be.len(), 3, "the dense-queued burst arrived");
        sim
    };
    let (stepped, leaping) = (drive(DriveMode::DenseSerial), drive(DriveMode::EventSerial));
    assert_eq!(fingerprint(&stepped), fingerprint(&leaping));
    assert!(
        leaping.ticks_executed() * 2 < stepped.ticks_executed(),
        "both leaping spans must still leap: {} vs {} ticks",
        leaping.ticks_executed(),
        stepped.ticks_executed()
    );
}

/// Stale wakes never fire: re-registering at a later cycle invalidates the
/// earlier wheel entry lazily, and only the live wake pops.
#[test]
fn stale_wakes_are_invalidated() {
    let mut q = WakeQueue::new();
    let h = q.register();
    q.set_wake(h, 10);
    q.set_wake(h, 500); // the entry filed for cycle 10 is now stale
    let mut due = Vec::new();
    q.pop_due(10, &mut due);
    assert!(due.is_empty(), "stale wake at 10 must not fire: {due:?}");
    q.pop_due(500, &mut due);
    assert_eq!(due, vec![h]);
    assert_eq!(q.stats().stale_discarded, 1);
}

/// Re-registering the *same* cycle is idempotent: one firing, no
/// duplicate wheel entries.
#[test]
fn same_cycle_reregistration_is_idempotent() {
    let mut q = WakeQueue::new();
    let h = q.register();
    q.set_wake(h, 42);
    q.set_wake(h, 42);
    q.set_wake(h, 42);
    let mut due = Vec::new();
    q.pop_due(100, &mut due);
    assert_eq!(due, vec![h], "exactly one firing");
    assert_eq!(q.stats().filed, 1, "same-cycle re-registration must not re-file");
}

/// The wheel survives horizons and wakes near `Cycle::MAX`: top-level
/// slots cover the full 64-bit range without overflow.
#[test]
fn wheel_rollover_near_cycle_max() {
    let mut q = WakeQueue::new();
    let a = q.register();
    let b = q.register();
    q.pop_due(u64::MAX - 4_000, &mut Vec::new());
    q.set_wake(a, u64::MAX - 1);
    q.set_wake(b, u64::MAX);
    assert_eq!(q.next_wake(), Some(u64::MAX - 1));
    let mut due = Vec::new();
    q.pop_due(u64::MAX - 2, &mut due);
    assert!(due.is_empty());
    q.pop_due(u64::MAX, &mut due);
    assert_eq!(due, vec![a, b], "both extreme wakes fire, sorted by handle");
    assert_eq!(WakeHandle(0), a);
}
