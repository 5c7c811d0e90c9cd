//! The 256×256 (65 536-node) mega-mesh: `NodeId` boundary behaviour at the
//! `u16` extremes, CSR adjacency vs. the dense wiring table on irregular
//! topologies, and the struct-of-arrays memory-footprint guardrail.
//!
//! The paper's router targets "parallel signal-processing systems with
//! hundreds of processing nodes"; the struct-of-arrays simulator layout is
//! what lets the reproduction push two orders of magnitude past that on one
//! host. These tests pin the node-identifier arithmetic exactly at the edge
//! of the 16-bit space and keep the per-node footprint honest.

use proptest::prelude::*;
use realtime_router::channels::{ChannelManager, ChannelRequest, DeferredPlane, TrafficSpec};
use realtime_router::core::{Datapath, RealTimeRouter, RouterStats, RouterTemplate};
use realtime_router::mesh::{LinkTable, Simulator, Topology};
use realtime_router::types::chip::Chip;
use realtime_router::types::config::RouterConfig;
use realtime_router::types::ids::{Direction, NodeId, PORT_COUNT};
use rtr_bench::util::{add_periodic_sender, periodic_mesh, sender_for};
use std::mem::size_of;

/// Builds an idle `width × height` simulator from one shared template —
/// the construction path the mega-mesh benches time.
fn idle_mesh(width: u16, height: u16) -> Simulator<RealTimeRouter> {
    let template = RouterTemplate::new(RouterConfig::default()).unwrap();
    Simulator::build(Topology::mesh(width, height), |_| {
        Ok::<_, std::convert::Infallible>(template.build())
    })
    .unwrap()
}

#[test]
fn node_ids_reach_the_u16_extremes() {
    let topo = Topology::mesh(256, 256);
    assert_eq!(topo.len(), 65_536);
    // The far corner is the last representable NodeId.
    assert_eq!(topo.node_at(255, 255), NodeId(65_535));
    assert_eq!(topo.coords(NodeId(65_535)), (255, 255));
    assert_eq!(topo.coords(NodeId(0)), (0, 0));
    // Every corner's wiring: exactly two links, pointing inward.
    for (x, y, wired, unwired) in [
        (0, 0, [Direction::XPlus, Direction::YPlus], [Direction::XMinus, Direction::YMinus]),
        (255, 0, [Direction::XMinus, Direction::YPlus], [Direction::XPlus, Direction::YMinus]),
        (0, 255, [Direction::XPlus, Direction::YMinus], [Direction::XMinus, Direction::YPlus]),
        (255, 255, [Direction::XMinus, Direction::YMinus], [Direction::XPlus, Direction::YPlus]),
    ] {
        let n = topo.node_at(x, y);
        for dir in wired {
            let end = topo.link_end(n, dir).expect("corner link inward");
            assert_eq!(end.dir, dir.opposite());
            assert_eq!(topo.link_end(end.node, end.dir).unwrap().node, n);
        }
        for dir in unwired {
            assert!(topo.link_end(n, dir).is_none());
        }
    }
    // node_at never overflows the u16 index arithmetic along the last row.
    for x in 0..256u16 {
        let n = topo.node_at(x, 255);
        assert_eq!(topo.coords(n), (x, 255));
    }
}

/// One column past the full `u16` id space must fail loudly, naming both
/// dimensions, rather than wrap node indices silently.
#[test]
#[should_panic(expected = "a 257×256 mesh has more nodes than the 65 536 a NodeId can name")]
fn a_mesh_past_the_node_id_space_is_refused() {
    let _ = Topology::mesh(257, 256);
}

#[test]
fn be_offsets_span_the_i8_header_field() {
    let topo = Topology::mesh(256, 256);
    // 127 hops is the largest offset the Figure 3b header can carry.
    let src = topo.node_at(128, 255);
    let dst = topo.node_at(255, 255);
    assert_eq!(topo.be_offsets(src, dst), (127, 0));
    assert_eq!(topo.be_offsets(dst, src), (-127, 0));
    let down = topo.node_at(0, 127);
    assert_eq!(topo.be_offsets(topo.node_at(0, 0), down), (0, 127));
    // A route along both axes at the edge still walks to its destination.
    let route = topo.dor_route(topo.node_at(200, 200), topo.node_at(255, 255));
    assert_eq!(route.len(), 110);
    assert_eq!(*topo.walk(topo.node_at(200, 200), &route).last().unwrap(), topo.node_at(255, 255));
}

/// Time-constrained routing is table-driven: only best-effort headers carry
/// offsets, so a channel may cross more than 127 hops of one axis.
#[test]
fn a_tc_route_may_be_longer_than_the_be_header_allows() {
    let config = RouterConfig::default();
    let mut sim = idle_mesh(200, 1);
    let topo = sim.topology().clone();
    let (src, dst) = (topo.node_at(0, 0), topo.node_at(199, 0));
    assert_eq!(topo.dor_route(src, dst), vec![Direction::XPlus; 199]);
    assert_eq!(topo.dor_route(dst, src), vec![Direction::XMinus; 199]);
    let mut manager = ChannelManager::new(&config);
    let request = ChannelRequest::unicast(src, dst, TrafficSpec::periodic(4096, 18), 200 * 8);
    let channel = manager.establish(&topo, request, &mut sim).expect("an empty mesh admits it");
    assert_eq!(channel.hops.len(), 200);
    let mut sender = sender_for(&sim, &channel);
    for packet in sender.make_message(0, &vec![7; config.tc_data_bytes()]) {
        sim.inject_tc(src, packet);
    }
    sim.run(200 * 8 * config.slot_bytes as u64);
    assert_eq!(sim.log(dst).tc.len(), 1);
    assert_eq!(sim.log(dst).tc_deadline_misses(config.slot_bytes), 0);
}

#[test]
fn mega_mesh_builds_and_ticks() {
    let mut sim = idle_mesh(256, 256);
    assert_eq!(sim.topology().len(), 65_536);
    // The full open mesh wires 2·(256·255·2) directed links.
    let expected_links = 2 * (256 * 255) * 2;
    let table = LinkTable::build(sim.topology(), 0);
    assert_eq!(table.len(), expected_links);
    // An idle mega-mesh leaps through time without executing node ticks.
    sim.run(1_000);
    assert_eq!(sim.now(), 1_000);
    assert!(
        sim.ticks_executed() <= 65_536,
        "idle leaping must not tick the mesh per cycle (executed {})",
        sim.ticks_executed()
    );
}

/// The footprint guardrail: an idle router costs ~1.2 KiB all in — the
/// 144 B router struct (control registers and connection table) plus I/O
/// staging, CSR link share, and event-core share, with *no* heap behind it
/// (the datapath and its statistics ledger are built by a router's first
/// tick; packet memory, scheduler leaves, port queues and connection-table
/// rows materialise on first use, and the config is Arc-shared). The
/// ceilings are the measured footprint plus 5 %: the seed's eager layout
/// sat several KiB of heap higher per node, an earlier router carried
/// 1.2 KiB of empty packet slots, one that held its 1.6 KiB datapath inline
/// cost 3.6 KiB per node, and one whose best-effort bytes carried their
/// packet's trace inline and whose ledger sat beside its registers cost
/// 2.0 KiB. The bench reports the live number as a `bytes_per_node`
/// column.
#[test]
fn bytes_per_node_stays_under_the_ceiling() {
    let sim = idle_mesh(64, 64);
    let idle = sim.bytes_per_node();
    assert!(idle > 0, "estimate must count the fixed arenas");
    // 1 202 bytes/node measured.
    assert!(idle <= 1_262, "idle mesh costs {idle} bytes/node, ceiling 1 262");

    // Driving the mesh builds a datapath behind the routers that carry
    // traffic and allocates behind them by what they buffered and the
    // table rows they were written: 1 327 bytes/node measured.
    let mut sim = periodic_mesh(64, 64, 512);
    sim.run(20_000);
    let driven = sim.bytes_per_node();
    assert!(driven <= 1_393, "driven mesh costs {driven} bytes/node, ceiling 1 393");
}

/// The fixed part of the same budget: a mesh is a `Vec` of router structs,
/// so every byte here is paid per node by building, priming and settling
/// it. A router holds its control registers inline and its datapath — the
/// statistics ledger included — in a box its first tick builds, a packet
/// only in the box it travels in, and its teardown tombstones in its
/// connection table's rows (DESIGN.md §3.16). Each ceiling is what that
/// layout measures plus 5 % for the router and the datapath, the measured
/// size for each part, so a failure names the part that grew. A mesh also
/// holds about two links per node (65 024 on 128×128) and one `ChipIo` of
/// ten symbol slots per node, so the link, the symbol and the best-effort
/// byte are pinned at their measured sizes too: a byte carries its
/// packet's trace boxed, and a trace back inline breaks three pins.
#[test]
fn router_struct_does_not_grow() {
    use realtime_router::core::ports::{InputPort, OutputPort, Serialiser, WormholeChannel};
    use realtime_router::core::ConnectionTable;
    use realtime_router::mesh::link::Link;
    use realtime_router::types::chip::ChipIo;
    use realtime_router::types::flit::{BeByte, LinkSymbol};

    // 144 B measured (168 B with the `metrics` feature's trace sink fields).
    let ceiling = if cfg!(feature = "metrics") { 176 } else { 151 };
    let size = size_of::<RealTimeRouter>();
    assert!(size <= ceiling, "RealTimeRouter grew to {size} bytes (ceiling {ceiling})");
    for (part, size, ceiling) in [
        // 1 728 B measured, the 344 B ledger included.
        ("Datapath", size_of::<Datapath>(), 1814),
        ("RouterStats", size_of::<RouterStats>(), 344),
        ("InputPort", size_of::<InputPort>(), 112),
        ("OutputPort", size_of::<OutputPort>(), 72),
        ("Serialiser", size_of::<Serialiser>(), 16),
        ("WormholeChannel", size_of::<WormholeChannel>(), 200),
        ("ConnectionTable", size_of::<ConnectionTable>(), 32),
        ("Link", size_of::<Link>(), 160),
        ("ChipIo", size_of::<ChipIo>(), 296),
        ("LinkSymbol", size_of::<LinkSymbol>(), 16),
        ("BeByte", size_of::<BeByte>(), 16),
    ] {
        assert!(size <= ceiling, "{part} grew to {size} bytes (ceiling {ceiling})");
    }
}

/// Only traffic builds a datapath. Establishing eight channels across a
/// 64×64 mesh writes table rows and horizon registers at every hop but
/// builds nothing; running them builds a datapath at the routers their
/// packets reach and nowhere else — a router that holds one (its estimate
/// counts the box) is on the route of a channel that delivered, or is a
/// source's node.
#[test]
fn only_routers_that_ticked_hold_a_datapath() {
    let config = RouterConfig::default();
    let mut sim = idle_mesh(64, 64);
    let topo = sim.topology().clone();
    let mut manager = ChannelManager::new(&config);
    let channels: Vec<_> = (0..8u16)
        .map(|i| {
            let (x, y) = (2 + 7 * i, 4 + 3 * i);
            let (src, dst) = (topo.node_at(x, y), topo.node_at(x + 12, y + 24));
            let hops = topo.dor_route(src, dst).len() as u32 + 1;
            let request =
                ChannelRequest::unicast(src, dst, TrafficSpec::periodic(256, 18), hops * 4);
            manager.establish(&topo, request, &mut sim).expect("a lightly loaded mesh admits it")
        })
        .collect();
    let holds_datapath = |sim: &Simulator<RealTimeRouter>, node| {
        sim.chip(node).heap_bytes_estimate() >= size_of::<Datapath>()
    };
    assert!(
        topo.nodes().all(|node| !holds_datapath(&sim, node)),
        "establishment builds no datapath"
    );

    for (i, channel) in channels.iter().enumerate() {
        add_periodic_sender(&mut sim, channel, 256, i as u64, i as u8);
    }
    sim.run(8_000);
    let mut carried = std::collections::HashSet::new();
    for channel in &channels {
        let dst = channel.request.destinations[0];
        assert!(!sim.log(dst).tc.is_empty(), "channel {} delivered", channel.id);
        carried.extend(channel.hops.iter().map(|hop| hop.node));
        carried.insert(channel.request.source);
    }
    let holders: Vec<NodeId> = topo.nodes().filter(|&node| holds_datapath(&sim, node)).collect();
    assert!(!holders.is_empty(), "the routes' routers ticked");
    let strays: Vec<&NodeId> = holders.iter().filter(|node| !carried.contains(node)).collect();
    assert!(strays.is_empty(), "off-route routers built a datapath: {strays:?}");

    // A router that never ticked counted nothing and idled every cycle,
    // and reading its ledger builds no datapath either.
    let empty = format!("{:?}", RouterStats::default());
    for node in topo.nodes().filter(|node| !holders.contains(node)) {
        let router = sim.chip(node);
        assert_eq!(format!("{:?}", *router.stats()), empty, "{node}: a ledger it never kept");
        assert_eq!(router.idle_cycles(), [sim.now(); PORT_COUNT], "{node}: idle throughout");
        assert!(!holds_datapath(&sim, node), "{node}: reading its ledger built a datapath");
    }
}

/// What `mega_cold` pays per request, without the stopwatch: the
/// manager's books cost a bounded number of words per node a channel
/// crossed and nothing for the rest of the mesh — only the 4-byte slot
/// index is per mesh node, and only once a high-numbered node is booked.
/// A layout that sizes a node's identifier tables to `connections` when
/// the node is first crossed (256 stamps = 2 KiB), or when an identifier
/// is first released there, breaks the ceiling.
#[test]
fn manager_books_cost_only_the_nodes_channels_cross() {
    const PER_BOOKED_NODE: usize = 768;
    let topo = Topology::mesh(128, 128);
    let mut manager = ChannelManager::new(&RouterConfig::default());
    assert_eq!(manager.heap_bytes(), 0, "construction allocates nothing, whatever the mesh");
    let mut plane = DeferredPlane::default();
    let mut crossed = std::collections::HashSet::new();
    let channels: Vec<u64> = (0..32u16)
        .map(|k| {
            let (src, dst) = (topo.node_at(0, k), topo.node_at(127, 127 - k));
            crossed.extend(topo.walk(src, &topo.dor_route(src, dst)));
            let hops = 127 + (127 - 2 * u32::from(k)) + 1;
            let request =
                ChannelRequest::unicast(src, dst, TrafficSpec::periodic(4096, 18), hops * 64);
            manager.establish(&topo, request, &mut plane).expect("a lightly loaded mesh").id
        })
        .collect();
    assert_eq!(manager.booked_nodes(), crossed.len());
    assert!(crossed.len() < topo.len() / 2, "{} of {} nodes", crossed.len(), topo.len());
    // The slot index may hold twice the mesh (amortised growth).
    let ceiling = 2 * 4 * topo.len() + PER_BOOKED_NODE * crossed.len();
    let live = manager.heap_bytes();
    assert!(live <= ceiling, "{live} B over {} booked nodes, ceiling {ceiling}", crossed.len());
    // Teardown stamps a release per hop; that too is sized by use.
    for id in channels {
        manager.teardown(id, &mut plane).unwrap();
    }
    let drained = manager.heap_bytes();
    assert!(drained <= ceiling, "{drained} B after teardown, ceiling {ceiling}");
    println!("{} booked nodes: {live} B live, {drained} B after teardown", crossed.len());
}

/// A cycle costs what happened in it, not the mesh around it: the
/// same eight three-hop periodic channels poll the same number of links for
/// arrivals and walk the same number of `ChipIo`s on 16×16 as on 64×64 —
/// the prime cycle of a fresh build included, which polls every chip but
/// ticks only those that can act and sweeps no link.
#[cfg(feature = "metrics")]
#[test]
fn event_cycle_work_is_flat_in_mesh_size() {
    let work = |side: u16| {
        let config = RouterConfig::default();
        let mut sim = idle_mesh(side, side);
        let topo = sim.topology().clone();
        let mut manager = ChannelManager::new(&config);
        for i in 0..8u16 {
            let (src, dst) = (topo.node_at(2 + i, 1), topo.node_at(3 + i, 3));
            let request = ChannelRequest::unicast(src, dst, TrafficSpec::periodic(64, 18), 40);
            let channel = manager.establish(&topo, request, &mut sim).unwrap();
            rtr_bench::util::add_periodic_sender(&mut sim, &channel, 64, u64::from(i), i as u8);
        }
        let visits = |sim: &Simulator<RealTimeRouter>| {
            let snapshot = sim.metrics_snapshot();
            ["sim.link_visits", "sim.io_visits"].map(|name| snapshot.counter(name).unwrap())
        };
        sim.run(1);
        let prime = visits(&sim);
        sim.run(20_000);
        let delivered: usize = topo.nodes().map(|n| sim.log(n).tc.len()).sum();
        assert!(delivered >= 8 * 14, "the channels carried traffic: {delivered}");
        // The prime polls every chip once and no source (a source's `due`
        // is its only wake) or link, and nothing re-primes mid-run: the
        // whole run's stale-repoll bill is one prime, not a per-leap sweep
        // of the mesh.
        let nodes = u64::from(side) * u64::from(side);
        let stale = sim.metrics_snapshot().counter("sim.stale_repolls").unwrap();
        assert_eq!(stale, nodes, "{side}×{side}: one prime of {nodes} chips allowed");
        let [links, ios] = visits(&sim);
        [prime, [links - prime[0], ios - prime[1]]]
    };
    let [small_prime, small] = work(16);
    assert!(small.iter().all(|&visits| visits > 0), "{small:?}");
    let [large_prime, large] = work(64);
    assert_eq!(small_prime, large_prime, "prime [link_visits, io_visits] on 16×16 vs 64×64");
    assert_eq!(small, large, "[link_visits, io_visits] after the prime on 16×16 vs 64×64");
}

proptest! {
    /// On arbitrary irregular topologies (random meshes with random links
    /// torn out) the CSR adjacency agrees link-for-link with the dense
    /// wiring table in both directions: every wired `(node, dir)` appears
    /// exactly once with the right endpoint, and every feeder points back
    /// at the link that drives it.
    #[test]
    fn csr_agrees_with_dense_wiring(
        w in 1u16..12,
        h in 1u16..12,
        dead in proptest::collection::vec((0u16..144, 0usize..4), 0..40),
    ) {
        let dead: Vec<(NodeId, Direction)> = dead
            .into_iter()
            .map(|(n, d)| (NodeId(n % (w * h)), Direction::ALL[d]))
            .collect();
        let topo = Topology::mesh(w, h).without_links(&dead);
        let table = LinkTable::build(&topo, 0);

        let mut wired = 0usize;
        for node in topo.nodes() {
            for dir in Direction::ALL {
                match topo.link_end(node, dir) {
                    Some(end) => {
                        wired += 1;
                        let li = table
                            .out_index(node.index(), dir)
                            .expect("wired link present in CSR");
                        prop_assert_eq!(table.dir(li), dir);
                        prop_assert_eq!(table.dst(li).node, end.node);
                        prop_assert_eq!(table.dst(li).dir, end.dir);
                        prop_assert_eq!(table.owner_of(li), node);
                    }
                    None => prop_assert_eq!(table.out_index(node.index(), dir), None),
                }
            }
        }
        prop_assert_eq!(table.len(), wired, "CSR holds exactly the wired links");

        // Reverse map: each node's feeders are exactly the links that land
        // on it, and each names the link that drives the input port.
        let mut feeders = 0usize;
        for node in topo.nodes() {
            let (start, end) = table.in_bounds(node.index());
            feeders += end - start;
            for fi in start..end {
                let li = table.in_link(fi);
                prop_assert_eq!(table.dst(li).node, node);
                prop_assert_eq!(table.dst(li).dir, table.in_dir(fi));
            }
        }
        prop_assert_eq!(feeders, wired, "every link feeds exactly one input port");
    }
}
