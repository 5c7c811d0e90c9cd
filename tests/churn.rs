//! Churn: the live control plane is deterministic across both drive
//! modes, recycled connection ids never collide with their past lives,
//! and teardown losses are ledgered rather than leaked.
//!
//! Establish/teardown requests land through
//! [`SignalingEngine`](realtime_router::channels::control_plane::SignalingEngine)
//! while the mesh runs: admission consults the live reservation books and
//! accepted channels' table writes are timed control ops, so a mid-run
//! establishment must produce byte-identical outcomes whether the mesh is
//! stepped densely or leapt over the event queue — and the leaper must never
//! leap *across* a pending table write (a late write would tick routers
//! against stale tables).

use std::cmp::Reverse;
use std::collections::BinaryHeap;

use proptest::prelude::*;
use realtime_router::channels::control_plane::{SignalingEngine, TeardownStyle};
use realtime_router::channels::sender::ChannelSender;
use realtime_router::channels::spec::{ChannelRequest, TrafficSpec};
use realtime_router::core::RealTimeRouter;
use realtime_router::mesh::{Simulator, Topology};
use realtime_router::types::config::RouterConfig;
use realtime_router::types::ids::Direction;
use realtime_router::types::time::{cycle_to_slot, slot_to_cycle, Cycle};
use realtime_router::workloads::churn::{churn_schedule, ChurnConfig, WindowedSource};
use realtime_router::workloads::tc::PeriodicTcSource;

/// The drive modes; dense stepping is the reference leaping is held to.
use rtr_bench::churn::DriveMode as Mode;

/// Everything observable about a finished run: per-node delivery logs,
/// control-op and signaling counters, and per-link conservation ledgers.
fn fingerprint(sim: &Simulator<RealTimeRouter>, engine: &SignalingEngine) -> String {
    let mut out = String::new();
    for node in sim.topology().nodes() {
        let log = sim.log(node);
        out.push_str(&format!("{node}: tc {:?} be {:?}\n", log.tc, log.be));
    }
    out.push_str(&format!("controls {:?}\n", sim.control_stats()));
    out.push_str(&format!("signaling {:?}\n", engine.stats()));
    for node in sim.topology().nodes() {
        for dir in Direction::ALL {
            if sim.topology().link_end(node, dir).is_some() {
                out.push_str(&format!("{node}/{dir:?}: {:?}\n", sim.link_ledger(node, dir)));
            }
        }
    }
    out
}

enum Action {
    Establish(usize),
    Teardown(u64, TeardownStyle),
}

/// Replays one seeded establish/teardown interleaving on a loaded 8×8
/// mesh under `mode` and returns the run's fingerprint plus the tick
/// count (so callers can assert leaping really leapt).
fn run_interleaving(seed: u64, arrivals: usize, mode: Mode) -> (String, u64) {
    let config = RouterConfig::default();
    let topo = Topology::mesh(8, 8);
    let mut sim = Simulator::build(topo.clone(), |_| RealTimeRouter::new(config.clone())).unwrap();
    let mut engine = SignalingEngine::new(&config);

    // A long-lived bystander keeps the mesh loaded: its reservations sit
    // in the books every churn admission runs against, and its deadline
    // must survive any interleaving.
    let bystander_dst = topo.node_at(7, 7);
    let request = ChannelRequest::unicast(
        topo.node_at(0, 0),
        bystander_dst,
        TrafficSpec::periodic(16, 18),
        96,
    );
    let ticket = engine.request_establish(&topo, request, &mut sim).unwrap();
    let sender = ChannelSender::new(
        &ticket.channel,
        sim.chip(topo.node_at(0, 0)).clock(),
        config.slot_bytes,
        config.tc_data_bytes(),
    );
    sim.add_source(
        topo.node_at(0, 0),
        Box::new(PeriodicTcSource::new(
            sender,
            16,
            cycle_to_slot(ticket.ready_at, config.slot_bytes) + 1,
            config.slot_bytes,
            vec![0x55; config.tc_data_bytes()],
        )),
    );

    let churn = ChurnConfig {
        seed,
        arrivals,
        mean_interarrival_slots: 16.0,
        mean_lifetime_slots: 160.0,
        min_lifetime_slots: 48,
    };
    let events = churn_schedule(&churn, &topo);

    let mut actions: Vec<Action> = Vec::new();
    let mut due: BinaryHeap<Reverse<(Cycle, usize)>> = BinaryHeap::new();
    for (i, event) in events.iter().enumerate() {
        let at = slot_to_cycle(event.start_slot, config.slot_bytes).max(1);
        due.push(Reverse((at, actions.len())));
        actions.push(Action::Establish(i));
    }

    let mut last_clear = 0;
    while let Some(Reverse((at, seq))) = due.pop() {
        let gap = at.saturating_sub(sim.now());
        mode.advance(&mut sim, gap);
        match actions[seq] {
            Action::Establish(i) => {
                let event = events[i];
                let (sx, sy) = topo.coords(event.src);
                let (dx, dy) = topo.coords(event.dst);
                let dist = u32::from(sx.abs_diff(dx) + sy.abs_diff(dy));
                let request = ChannelRequest::unicast(
                    event.src,
                    event.dst,
                    TrafficSpec::periodic(8, 18),
                    6 * (dist + 1),
                );
                let Ok(ticket) = engine.request_establish(&topo, request, &mut sim) else {
                    continue;
                };
                let stop = slot_to_cycle(event.stop_slot(), config.slot_bytes);
                let style = if i % 2 == 0 { TeardownStyle::Abort } else { TeardownStyle::Drain };
                due.push(Reverse((stop.max(ticket.ready_at + 1), actions.len())));
                actions.push(Action::Teardown(ticket.channel.id, style));

                let sender = ChannelSender::new(
                    &ticket.channel,
                    sim.chip(event.src).clock(),
                    config.slot_bytes,
                    config.tc_data_bytes(),
                );
                let source = PeriodicTcSource::new(
                    sender,
                    8,
                    cycle_to_slot(ticket.ready_at, config.slot_bytes) + 1,
                    config.slot_bytes,
                    vec![0x80 ^ i as u8; config.tc_data_bytes()],
                )
                .with_limit((event.lifetime_slots / 8).max(1));
                sim.add_source(
                    event.src,
                    Box::new(WindowedSource::new(source, ticket.ready_at, stop)),
                );
            }
            Action::Teardown(id, style) => {
                let ticket = engine.request_teardown(id, style, &mut sim).unwrap();
                last_clear = last_clear.max(ticket.cleared_at);
            }
        }
    }
    let tail = last_clear.saturating_sub(sim.now()) + 6_000;
    mode.advance(&mut sim, tail);

    sim.check_conservation().expect("churn losses must be ledgered, not leaked");
    assert_eq!(
        sim.log(bystander_dst).tc_deadline_misses(config.slot_bytes),
        0,
        "the admitted bystander must never miss under churn"
    );
    (fingerprint(&sim, &engine), sim.ticks_executed())
}

proptest! {
    #![proptest_config(ProptestConfig {
        cases: 3, // each case replays a full churn run in both drive modes
        ..ProptestConfig::default()
    })]

    /// Random establish/teardown interleavings on a loaded mesh produce
    /// byte-identical delivery logs, control counters, and link ledgers
    /// in both drive modes.
    #[test]
    fn random_churn_interleavings_are_drive_mode_invariant(
        seed in any::<u64>(),
        arrivals in 6usize..12,
    ) {
        let (reference, _) = run_interleaving(seed, arrivals, Mode::Dense);
        let (fp, _) = run_interleaving(seed, arrivals, Mode::Event);
        prop_assert_eq!(&reference, &fp, "leaping diverged for seed {:#x}", seed);
    }
}

#[test]
fn the_bench_churn_scenario_agrees_in_every_drive_mode() {
    use rtr_bench::churn::run_churn;
    assert_eq!(run_churn(Mode::Dense), run_churn(Mode::Event), "leaping diverged");
}

#[test]
fn table_writes_inside_quiet_spans_land_at_their_exact_cycle() {
    // Nothing is scheduled anywhere near the writes: the only resident
    // channel sleeps 256 slots between packets, and the establishment's
    // table writes are spread 1 500 cycles apart by an exaggerated write
    // cost, landing mid-slumber. The leaper must split its quiet span at
    // every write epoch (the debug assert in `leap_to` aborts the test
    // otherwise) and still leap the spans between them.
    let config = RouterConfig::default();
    let build = || {
        let topo = Topology::mesh(4, 1);
        let mut sim =
            Simulator::build(topo.clone(), |_| RealTimeRouter::new(config.clone())).unwrap();
        let mut engine = SignalingEngine::with_write_cost(&config, 1_500);
        let request = ChannelRequest::unicast(
            topo.node_at(0, 0),
            topo.node_at(1, 0),
            TrafficSpec::periodic(256, 18),
            2_048,
        );
        let ticket = engine.request_establish(&topo, request, &mut sim).unwrap();
        let sender = ChannelSender::new(
            &ticket.channel,
            sim.chip(topo.node_at(0, 0)).clock(),
            config.slot_bytes,
            config.tc_data_bytes(),
        );
        sim.add_source(
            topo.node_at(0, 0),
            Box::new(PeriodicTcSource::new(
                sender,
                256,
                cycle_to_slot(ticket.ready_at, config.slot_bytes) + 1,
                config.slot_bytes,
                vec![0xA5; config.tc_data_bytes()],
            )),
        );
        (sim, engine, topo)
    };
    let span = 40_000;

    let (mut stepped, engine, _) = build();
    stepped.run(span);
    stepped.check_conservation().unwrap();
    let reference = fingerprint(&stepped, &engine);
    // Both writes landed even though the run started with empty tables.
    assert_eq!(stepped.control_stats().ops_applied, 2);
    assert_eq!(
        stepped.control_stats().ops_rejected,
        0,
        "rejected control ops: {:?}",
        stepped.control_rejections()
    );

    let (mut leaping, engine, topo) = build();
    leaping.run_leaping(span);
    leaping.check_conservation().unwrap();
    assert_eq!(reference, fingerprint(&leaping, &engine), "leaping diverged");
    assert!(
        leaping.ticks_executed() * 2 < stepped.ticks_executed(),
        "leaping must still leap the quiet spans between writes: {} vs {} ticks",
        leaping.ticks_executed(),
        stepped.ticks_executed()
    );
    // The channel went live: the writes were applied, not skipped.
    assert!(!leaping.log(topo.node_at(1, 0)).tc.is_empty(), "leaping delivered nothing");
}

#[test]
fn recycled_connection_ids_never_collide_with_their_predecessors() {
    // Exhaust a two-id space so the third establishment *must* reuse the
    // first channel's id. The generation-ordered allocator hands back the
    // least-recently-released id, and by the time it returns, every
    // in-flight packet from its previous life has been aborted into the
    // teardown ledger — none may be delivered onto the new channel.
    let config = RouterConfig { connections: 2, ..RouterConfig::default() };
    let topo = Topology::mesh(2, 1);
    let src = topo.node_at(0, 0);
    let dst = topo.node_at(1, 0);
    let mut sim = Simulator::build(topo.clone(), |_| RealTimeRouter::new(config.clone())).unwrap();
    let mut engine = SignalingEngine::new(&config);

    let establish = |engine: &mut SignalingEngine,
                     sim: &mut Simulator<RealTimeRouter>,
                     payload: u8,
                     stop: Cycle| {
        let request = ChannelRequest::unicast(src, dst, TrafficSpec::periodic(4, 18), 64);
        let ticket = engine.request_establish(&topo, request, sim).unwrap();
        let sender = ChannelSender::new(
            &ticket.channel,
            sim.chip(src).clock(),
            config.slot_bytes,
            config.tc_data_bytes(),
        );
        let source = PeriodicTcSource::new(
            sender,
            2,
            cycle_to_slot(ticket.ready_at, config.slot_bytes) + 1,
            config.slot_bytes,
            vec![payload; config.tc_data_bytes()],
        );
        sim.add_source(src, Box::new(WindowedSource::new(source, ticket.ready_at, stop)));
        ticket
    };

    // Life one of id A: dense traffic, torn down abruptly while its
    // source is still firing, so late injections hit the tombstone.
    let a = establish(&mut engine, &mut sim, 0xAA, 3_000);
    let a_id = a.channel.ingress;
    sim.run(2_000);
    engine.request_teardown(a.channel.id, TeardownStyle::Abort, &mut sim).unwrap();
    sim.run(1_000);

    // A fresh channel prefers the never-released id.
    let b = establish(&mut engine, &mut sim, 0xBB, 5_000);
    assert_ne!(b.channel.ingress, a_id, "a just-released id must go to the back of the queue");
    sim.run(2_000);
    engine.request_teardown(b.channel.id, TeardownStyle::Abort, &mut sim).unwrap();
    sim.run(1_000);

    // The id space is exhausted: the next establishment must recycle, and
    // the least-recently-released id is A's.
    let c = establish(&mut engine, &mut sim, 0xCC, 12_000);
    assert_eq!(c.channel.ingress, a_id, "recycling must pick the least-recently-released id");
    sim.run(6_000);

    // A's late injections were aborted into the ledger, not delivered.
    let aborted: u64 = topo.nodes().map(|n| sim.chip(n).stats().tc_aborted_teardown).sum();
    assert!(aborted > 0, "the abort teardown must have ledgered in-flight packets");
    sim.check_conservation().unwrap();
    // Every delivery on the recycled id belongs to its current life: no
    // 0xAA payload lands after C's tables went live.
    let stale = sim
        .log(dst)
        .tc
        .iter()
        .filter(|(cycle, p)| *cycle >= c.ready_at && p.payload.as_slice()[0] != 0xCC)
        .count();
    assert_eq!(stale, 0, "a recycled id delivered a predecessor's packet");
    let current = sim
        .log(dst)
        .tc
        .iter()
        .filter(|(_, p)| p.conn == a_id && p.payload.as_slice()[0] == 0xCC)
        .count();
    assert!(current > 0, "the recycled id must carry its new channel's traffic");
}

#[test]
fn drain_teardown_delivers_everything_abort_ledgers_the_rest() {
    let config = RouterConfig::default();
    let run = |style: TeardownStyle, stop: Cycle, teardown_at: Cycle| {
        let topo = Topology::mesh(4, 1);
        let src = topo.node_at(0, 0);
        let dst = topo.node_at(3, 0);
        let mut sim =
            Simulator::build(topo.clone(), |_| RealTimeRouter::new(config.clone())).unwrap();
        let mut engine = SignalingEngine::new(&config);
        let request = ChannelRequest::unicast(src, dst, TrafficSpec::periodic(4, 18), 96);
        let ticket = engine.request_establish(&topo, request, &mut sim).unwrap();
        let sender = ChannelSender::new(
            &ticket.channel,
            sim.chip(src).clock(),
            config.slot_bytes,
            config.tc_data_bytes(),
        );
        let source = PeriodicTcSource::new(
            sender,
            4,
            cycle_to_slot(ticket.ready_at, config.slot_bytes) + 1,
            config.slot_bytes,
            vec![0xD0; config.tc_data_bytes()],
        )
        .with_limit(16);
        sim.add_source(src, Box::new(WindowedSource::new(source, ticket.ready_at, stop)));
        sim.run(teardown_at);
        let teardown = engine.request_teardown(ticket.channel.id, style, &mut sim).unwrap();
        let tail = teardown.cleared_at.saturating_sub(sim.now()) + 4_000;
        sim.run(tail);
        sim.check_conservation().expect("teardown must keep the ledger balanced");
        let aborted: u64 = topo.nodes().map(|n| sim.chip(n).stats().tc_aborted_teardown).sum();
        (sim.log(dst).tc.len(), aborted, teardown.cleared_at)
    };

    // Drain: the clear waits out the guaranteed bound, so all 16 packets
    // land and nothing is aborted.
    let (delivered, aborted, cleared_at) = run(TeardownStyle::Drain, 1_800, 2_000);
    assert_eq!(delivered, 16, "a drained teardown must deliver every in-flight packet");
    assert_eq!(aborted, 0, "a drained teardown aborts nothing");
    assert!(cleared_at > 2_000, "the drain margin must defer the clear");

    // Abort mid-stream: the source is still firing when the tables clear,
    // so late packets hit the tombstone and are counted, and the
    // conservation check above proves they were ledgered rather than
    // leaked.
    let (delivered, aborted, _) = run(TeardownStyle::Abort, 4_000, 600);
    assert!(delivered < 16, "the abrupt clear must cut deliveries short: {delivered}");
    assert!(aborted > 0, "aborted packets must land in the teardown ledger");
}
