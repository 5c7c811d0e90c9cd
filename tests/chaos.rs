//! Chaos: the scripted fault plane is deterministic across both drive
//! modes, and conservation still balances with loss columns included.
//!
//! A seeded [`FaultSchedule`] is part of the simulation's initial state,
//! so a mid-run link kill, a flaky regime, or a node crash must produce
//! byte-identical outcomes whether the mesh is stepped densely or leapt
//! over the event queue — and the leaper must never leap *across* a fault
//! epoch (the clamp is load-bearing: a fault applied late would tick
//! routers against a stale topology).

use realtime_router::channels::establish::{EstablishedChannel, Hop};
use realtime_router::channels::sender::ChannelSender;
use realtime_router::channels::spec::{ChannelRequest, TrafficSpec};
use realtime_router::core::{ControlCommand, RealTimeRouter};
use realtime_router::mesh::{FaultSchedule, NetworkReport, Simulator, Topology};
use realtime_router::types::config::RouterConfig;
use realtime_router::types::ids::{ConnectionId, Direction, NodeId, Port};
use realtime_router::types::packet::{BePacket, PacketTrace, TcPacket};
use realtime_router::workloads::tc::PeriodicTcSource;
use rtr_bench::churn::DriveMode;

const DELAY: u32 = 6;

/// Adds a one-hop periodic TC channel from `(0, y)` to `(1, y)` by
/// programming the tables directly (no admission round-trip, so builds
/// stay cheap and identical).
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
            vec![0xB0 + index as u8; config.tc_data_bytes()],
        )),
    );
}

/// The chaos scenario: a sparse 8×8 mesh (long quiet spans, so leaping
/// really leaps) with every fault kind landing mid-run, several of them
/// inside spans that would otherwise be leapt over.
fn build_chaos_mesh() -> Simulator<RealTimeRouter> {
    let config = RouterConfig::default();
    let mut sim =
        Simulator::build(Topology::mesh(8, 8), |_| RealTimeRouter::new(config.clone())).unwrap();
    sim.enable_gauge_sampling(50);
    // Row 5 runs dense (period 8) so the flaky regime sees enough packet
    // heads to both drop and corrupt; the rest stay sparse so the mesh
    // still has long quiet spans to leap.
    for (i, (y, period)) in [(0u16, 64u64), (2, 64), (5, 8), (7, 64)].into_iter().enumerate() {
        add_channel(&mut sim, y, i, period);
    }
    let topo = sim.topology().clone();
    let schedule = FaultSchedule::new()
        .with_seed(0xC4A05)
        .link_down(3_000, topo.node_at(0, 2), Direction::XPlus)
        .link_up(6_000, topo.node_at(0, 2), Direction::XPlus)
        .link_flaky(8_000, topo.node_at(0, 5), Direction::XPlus, 256, 128)
        .link_stable(12_500, topo.node_at(0, 5), Direction::XPlus)
        .node_crash(13_000, topo.node_at(1, 7))
        .node_restore(15_000, topo.node_at(1, 7));
    sim.set_fault_schedule(schedule);
    sim
}

const SPAN: u64 = 20_000;

fn fingerprint(sim: &Simulator<RealTimeRouter>) -> String {
    let mut out = String::new();
    for node in sim.topology().nodes() {
        let log = sim.log(node);
        out.push_str(&format!("{node}: tc {:?} be {:?}\n", log.tc, log.be));
    }
    out.push_str(&format!("faults {:?}\n", sim.fault_stats()));
    for node in sim.topology().nodes() {
        for dir in Direction::ALL {
            if sim.topology().link_end(node, dir).is_some() {
                out.push_str(&format!("{node}/{dir:?}: {:?}\n", sim.link_ledger(node, dir)));
            }
        }
    }
    out
}

#[test]
fn dense_and_event_agree_under_chaos() {
    let mut stepped = build_chaos_mesh();
    stepped.run(SPAN);
    stepped.check_conservation().unwrap();

    let mut leaping = build_chaos_mesh();
    leaping.run_leaping(SPAN);
    leaping.check_conservation().unwrap();
    assert_eq!(fingerprint(&stepped), fingerprint(&leaping), "leaping diverged");
    assert!(
        leaping.ticks_executed() * 2 < stepped.ticks_executed(),
        "the sparse chaos scenario must still leap: {} vs {} ticks",
        leaping.ticks_executed(),
        stepped.ticks_executed()
    );

    // Full network reports agree too (the report holds per-router stats
    // and link usage, not drive-mode internals like tick counts).
    let report = |sim: &Simulator<RealTimeRouter>| {
        format!("{:?}", NetworkReport::capture(sim, RouterConfig::default().slot_bytes))
    };
    assert_eq!(report(&stepped), report(&leaping), "network reports diverged");

    // The chaos really happened: the outage blackholed symbols, the flaky
    // regime corrupted some, the crash aged arrivals into drops.
    let stats = stepped.fault_stats();
    assert_eq!(stats.link_down_events, 1);
    assert_eq!(stats.node_crash_events, 1);
    assert!(stats.symbols_lost > 0, "outage must lose symbols: {stats:?}");
    assert!(stats.symbols_corrupted > 0, "flaky regime must corrupt symbols: {stats:?}");
}

#[test]
fn faults_inside_quiet_spans_fire_at_their_exact_cycle() {
    // Nothing is scheduled anywhere near the fault: a lone periodic
    // channel sleeps 64 slots between packets, and the link kill lands
    // mid-slumber. The leaper must split its quiet span at the epoch (the
    // debug assert in `leap_to` would abort the test otherwise) and the
    // downed link must blackhole the very next head that touches it.
    let build = || {
        let config = RouterConfig::default();
        let mut sim =
            Simulator::build(Topology::mesh(4, 1), |_| RealTimeRouter::new(config.clone()))
                .unwrap();
        add_channel(&mut sim, 0, 0, 64);
        sim
    };
    let span = 12_000;
    let broken = (NodeId(0), Direction::XPlus);

    let mut stepped = build();
    stepped.schedule_fault(
        5_555,
        realtime_router::mesh::FaultKind::LinkDown { node: broken.0, dir: broken.1 },
    );
    stepped.run(span);

    let mut leaping = build();
    leaping.schedule_fault(
        5_555,
        realtime_router::mesh::FaultKind::LinkDown { node: broken.0, dir: broken.1 },
    );
    leaping.run_leaping(span);

    assert_eq!(fingerprint(&stepped), fingerprint(&leaping));
    assert!(
        leaping.ticks_executed() * 2 < stepped.ticks_executed(),
        "quiet spans on both sides of the fault must still be leapt: {} vs {}",
        leaping.ticks_executed(),
        stepped.ticks_executed()
    );
    assert_eq!(leaping.downed_links(), vec![broken]);
    // Deliveries stop after the kill: the last arrival predates the fault
    // plus one in-flight packet's worth of slack.
    let dst = leaping.topology().node_at(1, 0);
    let last = leaping.log(dst).tc.last().map(|(cycle, _)| *cycle).unwrap_or(0);
    assert!(last < 5_555 + 2_000, "no deliveries long after the kill (last {last})");
    let ledger = leaping.link_ledger(broken.0, broken.1);
    assert!(ledger.symbols_lost > 0, "the dead link blackholed traffic: {ledger:?}");
    leaping.check_conservation().unwrap();
}

#[test]
fn crash_and_restore_balance_the_ledger_in_every_mode() {
    // A node crash stops the chip dead: arrivals age past their delivery
    // cycle and are dropped-and-counted, credits deliver late, and the
    // restore aborts half-received packets (refunding their flit-buffer
    // credits). The conservation check must balance in both modes, with
    // the losses showing up in the fault columns rather than vanishing.
    let build = || {
        let config = RouterConfig::default();
        let mut sim =
            Simulator::build(Topology::mesh(4, 1), |_| RealTimeRouter::new(config.clone()))
                .unwrap();
        // Period 8: dense enough that symbols are mid-link when the
        // crash lands.
        add_channel(&mut sim, 0, 0, 8);
        let schedule =
            FaultSchedule::new().node_crash(2_003, NodeId(1)).node_restore(4_007, NodeId(1));
        sim.set_fault_schedule(schedule);
        sim
    };
    let span = 10_000;

    let mut stepped = build();
    stepped.run(span);
    stepped.check_conservation().unwrap();
    let reference = fingerprint(&stepped);

    let mut leaping = build();
    leaping.run_leaping(span);
    leaping.check_conservation().unwrap();
    assert_eq!(reference, fingerprint(&leaping), "leaping diverged under crash/restore");

    let stats = stepped.fault_stats();
    assert_eq!(stats.node_crash_events, 1);
    assert_eq!(stats.node_restore_events, 1);
    assert!(
        stats.late_arrivals_dropped > 0,
        "arrivals must age out while the node is dark: {stats:?}"
    );
    assert!(!stepped.is_crashed(NodeId(1)), "restored");
    // Service resumed after the restore.
    let dst = stepped.topology().node_at(1, 0);
    let after = stepped.log(dst).tc.iter().filter(|(cycle, _)| *cycle > 4_007).count();
    assert!(after > 20, "deliveries resumed after restore: {after}");
}

/// Symbols already on the wire when their receiver crashes park there: the
/// link's wake keeps firing for them, nothing drains them while the node is
/// dark, and the restore's first arrival pass drops every one as a counted
/// late arrival — on an event cycle that visits only the links whose wake
/// fired, exactly as on a dense one that sweeps them all. The link is also
/// cut while the node is dark, so the restore's flit-buffer refunds for the
/// half-received best-effort packet land in `credits_lost`.
#[test]
fn stale_arrivals_at_a_crashed_receiver_are_dropped_at_restore_in_every_mode() {
    const CRASH: u64 = 60;
    const RESTORE: u64 = 900;
    let run = |mode: DriveMode| {
        let config = RouterConfig::default();
        // Eight cycles of wire: several symbols are in flight at once.
        let mut sim = Simulator::build_with_latency(Topology::mesh(4, 1), 8, |_| {
            RealTimeRouter::new(config.clone())
        })
        .unwrap();
        // One packet every 1 280 cycles: the restore lands mid-slumber.
        add_channel(&mut sim, 0, 0, 64);
        sim.inject_be(NodeId(0), BePacket::new(1, 0, vec![0xBE; 120], PacketTrace::default()));
        sim.set_fault_schedule(
            FaultSchedule::new()
                .node_crash(CRASH, NodeId(1))
                .link_down(200, NodeId(0), Direction::XPlus)
                .node_restore(RESTORE, NodeId(1))
                .link_up(1_000, NodeId(0), Direction::XPlus),
        );
        mode.advance(&mut sim, RESTORE);
        let parked = sim.link_ledger(NodeId(0), Direction::XPlus);
        mode.advance(&mut sim, 1);
        let dropped = sim.link_ledger(NodeId(0), Direction::XPlus);
        mode.advance(&mut sim, 5_000);
        sim.check_conservation().unwrap();
        (parked, dropped, fingerprint(&sim), sim.fault_stats())
    };
    let (parked, dropped, reference, stats) = run(DriveMode::Dense);
    assert_eq!(parked.late_arrivals_dropped, 0, "nothing drains a dark node's wire");
    assert!(
        dropped.late_arrivals_dropped > 8,
        "the restore cycle drops what was in flight at the crash and sent since: {dropped:?}"
    );
    assert_eq!(stats.late_arrivals_dropped, dropped.late_arrivals_dropped, "and nothing later");
    assert!(stats.credits_lost > 0, "the refunds went down a dead reverse wire: {stats:?}");
    assert_eq!((parked, dropped, reference, stats), run(DriveMode::Event), "leaping diverged");
}

/// Faults and control-plane table writes are entries of one agenda: a
/// crash/restore pair and two scheduled table writes — the second write
/// on the restore's own cycle, deep inside a quiet span — must land at
/// their exact cycles in both drive modes, faults before writes.
#[test]
fn faults_and_table_writes_share_one_agenda() {
    const RESTORE: u64 = 7_000;
    let build = || {
        let config = RouterConfig::default();
        let mut sim =
            Simulator::build(Topology::mesh(8, 4), |_| RealTimeRouter::new(config.clone()))
                .unwrap();
        add_channel(&mut sim, 0, 0, 64);
        add_channel(&mut sim, 1, 1, 64);
        let topo = sim.topology().clone();
        // Row 1's channel starts unrouted (its packets drop cleanly) and
        // goes live mid-run: the source hop's entry at 5 000, the
        // destination's on the very cycle row 0's destination restores.
        let conn = ConnectionId(11);
        let hops = [
            (5_000, topo.node_at(0, 1), Port::Dir(Direction::XPlus).mask()),
            (RESTORE, topo.node_at(1, 1), Port::Local.mask()),
        ];
        for (at, node, out_mask) in hops {
            sim.chip_mut(node)
                .apply_control(ControlCommand::ClearConnection { incoming: conn })
                .unwrap();
            sim.schedule_control(at, node, move |chip| {
                chip.apply_control(ControlCommand::SetConnection {
                    incoming: conn,
                    outgoing: conn,
                    delay: DELAY,
                    out_mask,
                })
                .map_err(|e| e.to_string())
            });
        }
        sim.set_fault_schedule(
            FaultSchedule::new()
                .node_crash(3_003, topo.node_at(1, 0))
                .node_restore(RESTORE, topo.node_at(1, 0)),
        );
        sim
    };
    // Dense stepping first (the reference), then leaping.
    let mut reference: Option<(String, u64)> = None;
    for mode in DriveMode::ALL {
        let mut sim = build();
        #[cfg(feature = "metrics")]
        let dump = std::env::temp_dir()
            .join(format!("rtr_chaos_agenda_{mode:?}_{}.jsonl", std::process::id()));
        #[cfg(feature = "metrics")]
        sim.arm_flight_recorder(4_096, dump.clone());
        mode.advance(&mut sim, 12_000);
        sim.check_conservation().unwrap();
        assert_eq!(sim.control_stats().ops_applied, 2, "{mode:?}: {:?}", sim.control_rejections());
        assert_eq!(sim.fault_stats().node_restore_events, 1, "{mode:?}");
        let late = sim.topology().node_at(1, 1);
        let first = sim.log(late).tc.first().expect("row 1 went live").0;
        assert!(first > RESTORE, "{mode:?}: delivered before the last write landed ({first})");

        let outcome = format!("{}controls {:?}\n", fingerprint(&sim), sim.control_stats());
        match &reference {
            None => reference = Some((outcome, sim.ticks_executed())),
            Some((expected, dense_ticks)) => {
                assert_eq!(expected, &outcome, "{mode:?} diverged");
                assert!(
                    sim.ticks_executed() * 2 < *dense_ticks,
                    "{mode:?} must still leap the spans around the shared cycle: {} vs {} ticks",
                    sim.ticks_executed(),
                    dense_ticks
                );
            }
        }
        // The flight recorder saw the shared cycle's ops in agenda order.
        #[cfg(feature = "metrics")]
        {
            sim.flight_recorder().unwrap().dump("agenda", &sim.metrics_snapshot());
            let text = std::fs::read_to_string(&dump).expect("dump written");
            std::fs::remove_file(&dump).ok();
            let at_restore: Vec<&str> = text
                .lines()
                .filter(|l| l.starts_with(&format!("{{\"cycle\": {RESTORE},")))
                .filter_map(|l| l.split("\"ev\": \"").nth(1)?.split('"').next())
                .collect();
            assert_eq!(at_restore, ["fault_node_restore", "control_op"], "{mode:?}");
        }
    }
}

/// The source pass skips a source until its own `next_event` answer comes
/// due. A periodic sender whose node is dark across several of its fire
/// cycles must still fire on the cycles it always has — the restore cycle
/// if slot-aligned, else the next slot boundary, then once per slot until
/// it has caught up — and a source registered mid-run must be polled on the
/// very cycle it was added, in both drive modes.
#[test]
fn sources_keep_their_fire_cycles_across_a_crash_and_a_mid_run_registration() {
    use realtime_router::mesh::source::FnSource;
    use std::cell::RefCell;
    use std::rc::Rc;
    const CRASH: u64 = 1_003;
    const RESTORE: u64 = 2_011;
    const ADDED: u64 = 3_001;
    const END: u64 = 4_000;
    let run = |mode: DriveMode| {
        let config = RouterConfig::default();
        let mut sim =
            Simulator::build(Topology::mesh(2, 2), |_| RealTimeRouter::new(config.clone()))
                .unwrap();
        // One message every 8 slots (160 cycles) from (0, 0), which crashes.
        add_channel(&mut sim, 0, 0, 8);
        sim.set_fault_schedule(
            FaultSchedule::new().node_crash(CRASH, NodeId(0)).node_restore(RESTORE, NodeId(0)),
        );
        // Every poll of a source that never promises silence, per node.
        let polls: Rc<RefCell<Vec<(NodeId, u64)>>> = Rc::default();
        let recorder = |polls: &Rc<RefCell<Vec<(NodeId, u64)>>>| {
            let polls = Rc::clone(polls);
            Box::new(FnSource(move |now, node, _: &mut _| polls.borrow_mut().push((node, now))))
        };
        sim.add_source(NodeId(0), recorder(&polls));
        mode.advance(&mut sim, ADDED);
        add_channel(&mut sim, 1, 1, 8);
        sim.add_source(NodeId(3), recorder(&polls));
        mode.advance(&mut sim, END - ADDED);
        sim.check_conservation().unwrap();
        // The fire cycles of a row's sender, as stamped on what it delivered.
        let fired = |y: u16| -> Vec<u64> {
            let log = sim.log(sim.topology().node_at(1, y));
            let mut at: Vec<u64> = log.tc.iter().map(|(_, p)| p.trace.injected_at).collect();
            at.sort_unstable();
            at
        };
        let polls = polls.borrow().clone();
        (fired(0), fired(1), polls, fingerprint(&sim))
    };
    let (row0, row1, polls, reference) = run(DriveMode::Dense);
    // Row 0: on period until the crash; dark across the fire cycles 1 120 …
    // 1 920; from the first slot boundary after the restore one message per
    // slot until message k is no longer overdue (k · 160 > now); on period
    // again. (The burst runs logical time ahead, so later messages are held
    // ~1 000 cycles and the last few are still in the mesh at the end.)
    let mut expected: Vec<u64> = (0..=960).step_by(160).collect();
    expected.extend((2_020..=2_140).step_by(20));
    expected.extend((2_240..=2_880).step_by(160));
    assert_eq!(row0, expected);
    // Row 1's sender did not exist before cycle 3 001: overdue from birth,
    // it fires on every slot boundary from the first one it sees.
    assert_eq!(row1[..4], [3_020, 3_040, 3_060, 3_080], "row 1 fired at {row1:?}");
    // The every-cycle sources: node 0's on each live cycle and no dark one,
    // node 3's from the cycle it was registered on.
    let polled = |node: u16| -> Vec<u64> {
        polls.iter().filter(|(n, _)| *n == NodeId(node)).map(|(_, now)| *now).collect()
    };
    assert_eq!(polled(0), (0..CRASH).chain(RESTORE..END).collect::<Vec<_>>());
    assert_eq!(polled(3), (ADDED..END).collect::<Vec<_>>());
    let (r0, r1, p, outcome) = run(DriveMode::Event);
    assert_eq!((&r0, &r1, &p), (&row0, &row1, &polls), "leaping polled differently");
    assert_eq!(outcome, reference, "leaping diverged");
}

/// A busy chip answers "next cycle" and is carried onto that cycle's dirty
/// list without a wheel entry. If the agenda crashes the chip on that very
/// cycle, the carried handle must behave like a fired wake would have: the
/// chip is not ticked, its wake is cleared rather than carried again — so
/// the dark span is leapt, not stepped — and the restore's mark ticks it
/// again. Only node 0 is ever active (it injects a packet it delivers to
/// itself), so every tick counted below is its own.
#[test]
fn a_chip_carried_into_its_crash_cycle_neither_ticks_nor_blocks_leaps() {
    const INJECT: u64 = 100;
    const CRASH: u64 = 110; // mid-injection: the chip ticks every cycle
    const RESTORE: u64 = 5_000;
    const END: u64 = 9_000;
    let run = |mode: DriveMode, crash: bool| {
        let config = RouterConfig::default();
        let mut sim =
            Simulator::build(Topology::mesh(2, 1), |_| RealTimeRouter::new(config.clone()))
                .unwrap();
        let conn = ConnectionId(30);
        sim.chip_mut(NodeId(0))
            .apply_control(ControlCommand::SetConnection {
                incoming: conn,
                outgoing: conn,
                delay: DELAY,
                out_mask: Port::Local.mask(),
            })
            .unwrap();
        if crash {
            sim.set_fault_schedule(
                FaultSchedule::new().node_crash(CRASH, NodeId(0)).node_restore(RESTORE, NodeId(0)),
            );
        }
        mode.advance(&mut sim, INJECT);
        let slot = realtime_router::types::time::cycle_to_slot(sim.now(), config.slot_bytes);
        sim.inject_tc(
            NodeId(0),
            TcPacket {
                conn,
                arrival: sim.chip(NodeId(0)).clock().wrap(slot + 2),
                payload: vec![0x7C; config.tc_data_bytes()].into(),
                trace: PacketTrace::default(),
            },
        );
        // Ticks executed, and wakes filed in the wheel, span by span.
        let spans = [CRASH - 1, CRASH, CRASH + 1, RESTORE, RESTORE + 1, END].map(|stop| {
            let filed = |sim: &Simulator<_>| sim.event_core_stats().map_or(0, |s| s.filed);
            let before = (sim.ticks_executed(), filed(&sim), sim.now());
            mode.advance(&mut sim, stop - before.2);
            (sim.ticks_executed() - before.0, filed(&sim) - before.1)
        });
        sim.check_conservation().unwrap();
        (spans, fingerprint(&sim))
    };
    let (_, reference) = run(DriveMode::Dense, true);
    // Undisturbed, the chip ticks on the cycle before CRASH, files nothing,
    // and ticks on CRASH: it was carried there.
    let (spans, _) = run(DriveMode::Event, false);
    assert_eq!(spans[1..3], [(1, 0), (1, 0)], "not mid-injection at {CRASH}");
    let ([_, before, crash, dark, restore, tail], outcome) = run(DriveMode::Event, true);
    assert_eq!(before, (1, 0), "the chip ticked and was carried into its crash");
    assert_eq!(crash, (0, 0), "a chip crashed on the cycle it was carried to ticked");
    assert_eq!(dark, (0, 0), "nothing stirs while the only busy chip is dark");
    assert_eq!(restore.0, 1, "the restore marks the chip");
    assert!(tail.0 < 100, "the tail must be leapt, not stepped: {} ticks", tail.0);
    assert_eq!(outcome, reference, "leaping diverged from dense stepping");
}
