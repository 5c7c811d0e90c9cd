//! Integration: the word-level control interface (Table 3) drives real
//! traffic — programming a route through raw register writes only.

use realtime_router::core::{ControlCommand, ControlError, ControlReg, RealTimeRouter, TableError};
use realtime_router::mesh::{Simulator, Topology};
use realtime_router::types::chip::Chip;
use realtime_router::types::clock::SlotClock;
use realtime_router::types::config::RouterConfig;
use realtime_router::types::ids::{ConnectionId, Direction, NodeId, Port};
use realtime_router::types::packet::{PacketTrace, TcPacket};

#[test]
fn word_level_writes_program_a_working_route() {
    let config = RouterConfig::default();
    let topo = Topology::mesh(2, 1);
    let mut sim = Simulator::build(topo.clone(), |_| RealTimeRouter::new(config.clone())).unwrap();
    let src = NodeId(0);
    let dst = topo.node_at(1, 0);

    // Source: conn 5 → +x as conn 9, d = 6 — the four-write sequence.
    let chip = sim.chip_mut(src);
    chip.control_write(ControlReg::OutConn, 9).unwrap();
    chip.control_write(ControlReg::Delay, 6).unwrap();
    chip.control_write(ControlReg::PortMask, u16::from(Port::Dir(Direction::XPlus).mask()))
        .unwrap();
    chip.control_write(ControlReg::InConnCommit, 5).unwrap();
    // Horizon for all ports — the two-write sequence.
    chip.control_write(ControlReg::HorizonMask, 0b1_1111).unwrap();
    chip.control_write(ControlReg::HorizonCommit, 4).unwrap();
    assert_eq!(chip.horizon(Port::Dir(Direction::XPlus)), 4);

    // Destination: conn 9 → reception, d = 6.
    let chip = sim.chip_mut(dst);
    chip.control_write(ControlReg::OutConn, 9).unwrap();
    chip.control_write(ControlReg::Delay, 6).unwrap();
    chip.control_write(ControlReg::PortMask, u16::from(Port::Local.mask())).unwrap();
    chip.control_write(ControlReg::InConnCommit, 9).unwrap();

    let clock = sim.chip(src).clock();
    sim.inject_tc(
        src,
        TcPacket {
            conn: ConnectionId(5),
            arrival: clock.wrap(0),
            payload: vec![0xAD; config.tc_data_bytes()].into(),
            trace: PacketTrace { deadline: 12, ..PacketTrace::default() },
        },
    );
    assert!(sim.run_until(5_000, |s| !s.log(dst).tc.is_empty()));
    assert_eq!(sim.log(dst).tc_deadline_misses(config.slot_bytes), 0);
}

#[test]
fn table_rewrite_redirects_in_flight_connections() {
    // Reprogramming an entry between packets changes the route — the
    // "protocol software can edit this table" behaviour of §3.3.
    let config = RouterConfig::default();
    let topo = Topology::mesh(3, 1);
    let mut sim = Simulator::build(topo.clone(), |_| RealTimeRouter::new(config.clone())).unwrap();
    let src = NodeId(0);
    let near = topo.node_at(1, 0);
    let far = topo.node_at(2, 0);

    // Initially: conn 1 delivers at the near node.
    sim.chip_mut(src)
        .apply_control(ControlCommand::SetConnection {
            incoming: ConnectionId(1),
            outgoing: ConnectionId(1),
            delay: 6,
            out_mask: Port::Dir(Direction::XPlus).mask(),
        })
        .unwrap();
    sim.chip_mut(near)
        .apply_control(ControlCommand::SetConnection {
            incoming: ConnectionId(1),
            outgoing: ConnectionId(1),
            delay: 6,
            out_mask: Port::Local.mask(),
        })
        .unwrap();

    let clock = sim.chip(src).clock();
    let packet = |slot: u64| TcPacket {
        conn: ConnectionId(1),
        arrival: clock.wrap(slot),
        payload: vec![1; config.tc_data_bytes()].into(),
        trace: PacketTrace::default(),
    };
    sim.inject_tc(src, packet(0));
    assert!(sim.run_until(5_000, |s| !s.log(near).tc.is_empty()));

    // Rewrite the near node: forward to the far node instead.
    sim.chip_mut(near)
        .apply_control(ControlCommand::SetConnection {
            incoming: ConnectionId(1),
            outgoing: ConnectionId(1),
            delay: 6,
            out_mask: Port::Dir(Direction::XPlus).mask(),
        })
        .unwrap();
    sim.chip_mut(far)
        .apply_control(ControlCommand::SetConnection {
            incoming: ConnectionId(1),
            outgoing: ConnectionId(1),
            delay: 6,
            out_mask: Port::Local.mask(),
        })
        .unwrap();
    let t = sim.now() / config.slot_bytes as u64;
    sim.inject_tc(src, packet(t));
    assert!(sim.run_until(5_000, |s| !s.log(far).tc.is_empty()));
    assert_eq!(sim.log(near).tc.len(), 1, "no further near deliveries");
}

#[test]
fn word_level_plane_establishment_matches_typed() {
    // Establish the same channel twice — once through the typed control
    // plane, once through the raw pin protocol — and compare the tables.
    use realtime_router::channels::{ChannelManager, ChannelRequest, TrafficSpec, WordLevelPlane};
    let config = RouterConfig::default();
    let topo = Topology::mesh(3, 1);
    let request =
        || ChannelRequest::unicast(NodeId(0), NodeId(2), TrafficSpec::periodic(16, 18), 30);

    let mut typed_sim =
        Simulator::build(topo.clone(), |_| RealTimeRouter::new(config.clone())).unwrap();
    let mut m1 = ChannelManager::new(&config);
    let a = m1.establish(&topo, request(), &mut typed_sim).unwrap();

    let mut word_sim =
        Simulator::build(topo.clone(), |_| RealTimeRouter::new(config.clone())).unwrap();
    let mut m2 = ChannelManager::new(&config);
    let b = {
        let mut plane = WordLevelPlane(&mut word_sim);
        m2.establish(&topo, request(), &mut plane).unwrap()
    };
    assert_eq!(a.hops, b.hops, "identical plans");
    for hop in &a.hops {
        assert_eq!(
            typed_sim.chip(hop.node).connection_table().lookup(hop.conn),
            word_sim.chip(hop.node).connection_table().lookup(hop.conn),
            "identical programmed tables at {}",
            hop.node
        );
    }
    // And the word-programmed network actually delivers.
    let clock = word_sim.chip(NodeId(0)).clock();
    word_sim.inject_tc(
        NodeId(0),
        TcPacket {
            conn: b.ingress,
            arrival: clock.wrap(0),
            payload: vec![1; config.tc_data_bytes()].into(),
            trace: PacketTrace { deadline: 30, ..PacketTrace::default() },
        },
    );
    assert!(word_sim.run_until(5_000, |s| !s.log(NodeId(2)).tc.is_empty()));
    assert_eq!(word_sim.log(NodeId(2)).tc_deadline_misses(config.slot_bytes), 0);
}

#[test]
fn unprogrammed_connections_drop_cleanly_everywhere() {
    let config = RouterConfig::default();
    let topo = Topology::mesh(2, 2);
    let mut sim = Simulator::build(topo.clone(), |_| RealTimeRouter::new(config.clone())).unwrap();
    let clock = sim.chip(NodeId(0)).clock();
    for node in topo.nodes() {
        sim.inject_tc(
            node,
            TcPacket {
                conn: ConnectionId(77),
                arrival: clock.wrap(0),
                payload: vec![0; config.tc_data_bytes()].into(),
                trace: PacketTrace::default(),
            },
        );
    }
    sim.run(3_000);
    for node in topo.nodes() {
        assert_eq!(sim.chip(node).stats().tc_dropped_no_conn, 1);
        assert!(sim.log(node).tc.is_empty());
        assert_eq!(sim.chip(node).memory_occupied(), 0, "drops must not leak slots");
    }
}

/// A scheduled control op the router refuses is not silently dropped: the
/// simulator keeps the most recent rejections — cycle, node, and the
/// router's own `ControlError` — behind the `ops_rejected` count.
#[test]
fn rejected_control_ops_are_kept_with_their_reason() {
    let config = RouterConfig::default();
    let capacity = config.connections;
    let mut sim =
        Simulator::build(Topology::mesh(2, 1), |_| RealTimeRouter::new(config.clone())).unwrap();
    // Twenty writes past the end of the connection table, then a horizon
    // at half the clock range: the router refuses all of them.
    let past_the_table = |i: u64| ConnectionId(capacity as u16 + i as u16);
    for i in 0..20u64 {
        let incoming = past_the_table(i);
        let cmd = ControlCommand::SetConnection {
            incoming,
            outgoing: incoming,
            delay: 4,
            out_mask: Port::Local.mask(),
        };
        sim.schedule_control(100 + i, NodeId(0), cmd);
    }
    let half_range = 1 << (config.clock_bits - 1);
    let horizon = ControlCommand::SetHorizon { port_mask: Port::Local.mask(), horizon: half_range };
    sim.schedule_control(5_000, NodeId(1), horizon);
    sim.run(10_000);
    assert_eq!(sim.control_stats().ops_rejected, 21);
    assert_eq!(sim.control_stats().ops_applied, 0);
    let kept = sim.control_rejections();
    assert_eq!(kept.len(), 16, "only the most recent rejections are kept");
    let bad_index = ControlError::Table(TableError::BadIndex { conn: past_the_table(5), capacity });
    assert_eq!(kept[0], (105, NodeId(0), bad_index), "oldest first");
    let too_large = ControlError::HorizonTooLarge { horizon: half_range, max: half_range - 1 };
    assert_eq!(kept[15], (5_000, NodeId(1), too_large), "each op is logged at its own cycle");
}

/// A chip with no connection table takes no Table 3 write: the trait's
/// default refuses it, and a scheduled write on a wormhole mesh is counted
/// and kept like any other refusal, on the cycle it was scheduled for
/// inside a span the run would otherwise leap.
#[test]
fn a_chip_without_control_registers_refuses_scheduled_writes() {
    use realtime_router::baselines::WormholeRouter;
    let mut sim =
        Simulator::build(Topology::mesh(2, 1), |_| WormholeRouter::new(RouterConfig::default()))
            .unwrap();
    let clear = ControlCommand::ClearConnection { incoming: ConnectionId(1) };
    sim.schedule_control(300, NodeId(1), clear);
    sim.run(1_000);
    let stats = sim.control_stats();
    assert_eq!((stats.ops_applied, stats.ops_rejected), (0, 1));
    assert_eq!(sim.control_rejections(), [(300, NodeId(1), ControlError::Unsupported)]);
}

/// The table-routed baselines take teardown through the same control
/// plane as the real-time router: once `ChannelManager::teardown` has
/// cleared a priority-VC channel, a packet on it is dropped, not delivered.
/// A horizon write, which the baseline has no register for, is refused.
#[test]
fn priority_vc_teardown_clears_the_route() {
    use realtime_router::baselines::PriorityVcRouter;
    use realtime_router::channels::{ChannelManager, ChannelRequest, TrafficSpec};
    let config = RouterConfig::default();
    let topo = Topology::mesh(3, 1);
    let mut sim =
        Simulator::build(topo.clone(), |_| PriorityVcRouter::new(config.clone())).unwrap();
    let (src, dst) = (topo.node_at(0, 0), topo.node_at(2, 0));
    let mut manager = ChannelManager::new(&config);
    let request = ChannelRequest::unicast(src, dst, TrafficSpec::periodic(16, 18), 24);
    let channel = manager.establish(&topo, request, &mut sim).unwrap();
    let packet = |sim: &Simulator<PriorityVcRouter>| TcPacket {
        conn: channel.hops[0].conn,
        arrival: SlotClock::new(config.clock_bits).wrap(sim.now() / config.slot_bytes as u64),
        payload: vec![0x5A; config.tc_data_bytes()].into(),
        trace: PacketTrace::default(),
    };
    sim.inject_tc(src, packet(&sim));
    sim.run(2_000);
    assert_eq!(sim.log(dst).tc.len(), 1, "the established route delivers");

    manager.teardown(channel.id, &mut sim).unwrap();
    sim.inject_tc(src, packet(&sim));
    sim.run(2_000);
    assert_eq!(sim.log(dst).tc.len(), 1, "the torn-down route delivers nothing more");
    assert_eq!(sim.chip(src).stats().tc_dropped, 1, "the source hop has no entry left");

    let horizon = ControlCommand::SetHorizon { port_mask: Port::Local.mask(), horizon: 4 };
    assert_eq!(sim.chip_mut(dst).apply_control(horizon), Err(ControlError::Unsupported));
}

/// The 16-bit control registers never narrow a value silently: on an
/// 18-bit clock a hop delay of 2^16 or more is legal (below half the clock
/// range) and the typed plane installs it, but it cannot travel through
/// the Delay register, so the word-level plane refuses it before writing
/// anything; and a port mask with a bit above the low byte is refused,
/// not truncated to the bits that happen to name a port.
#[test]
fn wide_values_are_refused_by_the_word_level_registers() {
    use realtime_router::channels::{
        ChannelManager, ChannelRequest, EstablishError, TrafficSpec, WordLevelPlane,
    };
    let config = RouterConfig { clock_bits: 18, ..RouterConfig::default() };
    let topo = Topology::mesh(2, 1);
    let build = || Simulator::build(topo.clone(), |_| RealTimeRouter::new(config.clone())).unwrap();
    let request = || {
        ChannelRequest::unicast(NodeId(0), NodeId(1), TrafficSpec::periodic(80_000, 18), 140_000)
    };

    let mut typed_sim = build();
    let typed = ChannelManager::new(&config).establish(&topo, request(), &mut typed_sim).unwrap();
    let hop = typed.hops[0];
    assert_eq!(hop.delay, 70_000);
    assert_eq!(typed_sim.chip(hop.node).connection_table().lookup(hop.conn).unwrap().delay, 70_000);

    let mut word_sim = build();
    let mut manager = ChannelManager::new(&config);
    let refused =
        manager.establish(&topo, request(), &mut WordLevelPlane(&mut word_sim)).unwrap_err();
    assert_eq!(
        refused,
        EstablishError::Control(ControlError::RegisterOverflow {
            reg: ControlReg::Delay,
            value: 70_000
        })
    );
    let table = word_sim.chip(hop.node).connection_table();
    assert_eq!(table.lookup(hop.conn), None, "nothing was programmed");
    assert!(manager.utilization_report().is_empty(), "the refusal left reservations booked");

    let chip = word_sim.chip_mut(NodeId(0));
    chip.control_write(ControlReg::OutConn, 1).unwrap();
    chip.control_write(ControlReg::Delay, 6).unwrap();
    assert_eq!(
        chip.control_write(ControlReg::PortMask, 0x0102),
        Err(ControlError::RegisterOverflow { reg: ControlReg::PortMask, value: 0x0102 })
    );
    assert_eq!(
        chip.control_write(ControlReg::InConnCommit, 1),
        Err(ControlError::IncompleteSequence { reg: ControlReg::InConnCommit })
    );
    assert_eq!(chip.connection_table().lookup(ConnectionId(1)), None);
}
