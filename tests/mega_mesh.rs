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
use realtime_router::core::{RealTimeRouter, RouterTemplate};
use realtime_router::mesh::{LinkTable, Simulator, Topology};
use realtime_router::types::config::RouterConfig;
use realtime_router::types::ids::{Direction, NodeId};
use rtr_bench::util::{periodic_mesh, sender_for};

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
    sim.run_leaping(200 * 8 * config.slot_bytes as u64);
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
    sim.run_leaping(1_000);
    assert_eq!(sim.now(), 1_000);
    assert!(
        sim.ticks_executed() <= 65_536,
        "idle leaping must not tick the mesh per cycle (executed {})",
        sim.ticks_executed()
    );
}

/// The footprint guardrail: an idle router costs ~3.5 KiB all in — the
/// 2.1 KiB chip struct (port registers, stats, scheduler registers) plus
/// I/O staging, CSR link share, and event-core share, with *no* heap behind
/// it (packet memory, scheduler leaves, port queues and connection-table
/// rows materialise on first use, and the config is Arc-shared). The
/// ceilings are the measured footprint plus 5 %: the seed's eager layout
/// sat several KiB of heap higher per node, and the router before PR 25
/// carried 1.2 KiB of empty packet slots. The bench reports the live
/// number as a `bytes_per_node` column.
#[test]
fn bytes_per_node_stays_under_the_ceiling() {
    let sim = idle_mesh(64, 64);
    let idle = sim.bytes_per_node();
    assert!(idle > 0, "estimate must count the fixed arenas");
    // 3 598 bytes/node measured.
    assert!(idle <= 3_778, "idle mesh costs {idle} bytes/node, ceiling 3 778");

    // Driving the mesh allocates behind the routers that carry traffic, by
    // what they buffered and the table rows they were written: 3 719
    // bytes/node measured.
    let mut sim = periodic_mesh(64, 64, 512);
    sim.run_leaping(20_000);
    let driven = sim.bytes_per_node();
    assert!(driven <= 3_905, "driven mesh costs {driven} bytes/node, ceiling 3 905");
}

/// The fixed part of the same budget: a mesh is a `Vec` of router structs,
/// so every byte here is paid per node by building, priming and settling
/// it. A router holds its registers inline, a packet only in the box it
/// travels in, and its teardown tombstones in its connection table's rows
/// (DESIGN.md §3.16); 2 104 bytes (2 120 with the `metrics` feature's trace
/// sink fields) is what that layout measures, and one ceiling per part names
/// the part that grew.
#[test]
fn router_struct_does_not_grow() {
    use realtime_router::core::ports::{InputPort, OutputPort, Serialiser, WormholeChannel};
    use realtime_router::core::ConnectionTable;
    use std::mem::size_of;

    let ceiling = if cfg!(feature = "metrics") { 2120 } else { 2104 };
    let size = size_of::<RealTimeRouter>();
    assert!(size <= ceiling, "RealTimeRouter grew to {size} bytes (ceiling {ceiling})");
    for (part, size, ceiling) in [
        ("InputPort", size_of::<InputPort>(), 152),
        ("OutputPort", size_of::<OutputPort>(), 80),
        ("Serialiser", size_of::<Serialiser>(), 16),
        ("WormholeChannel", size_of::<WormholeChannel>(), 200),
        ("ConnectionTable", size_of::<ConnectionTable>(), 32),
    ] {
        assert!(size <= ceiling, "{part} grew to {size} bytes (ceiling {ceiling})");
    }
}

/// An event cycle costs what happened in it, not the mesh around it: the
/// same eight three-hop periodic channels poll the same number of links for
/// arrivals and walk the same number of `ChipIo`s on 16×16 as on 64×64 once
/// the one-shot prime cycle (which does sweep everything) is behind them.
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

#[cfg(feature = "metrics")]
#[test]
fn event_cycle_work_is_flat_in_mesh_size() {
    let work_after_prime = |side: u16| {
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
        sim.run_leaping(1);
        let [prime_links, prime_ios] = visits(&sim);
        let nodes = u64::from(side) * u64::from(side);
        assert_eq!(prime_ios, nodes, "the prime cycle walks every chip");
        assert_eq!(prime_links, 4 * nodes - 4 * u64::from(side), "and every link");
        sim.run_leaping(20_000);
        let delivered: usize = topo.nodes().map(|n| sim.log(n).tc.len()).sum();
        assert!(delivered >= 8 * 14, "the channels carried traffic: {delivered}");
        // The cold prime re-polls every chip and source but only the links
        // that carry traffic, and nothing re-primes mid-run: the whole run's
        // stale-repoll bill is one prime, not a per-leap sweep of the mesh.
        let stale = sim.metrics_snapshot().counter("sim.stale_repolls").unwrap();
        assert!(
            stale <= nodes + 8 + 256,
            "{side}×{side}: {stale} stale re-polls, one prime allowed"
        );
        let [links, ios] = visits(&sim);
        [links - prime_links, ios - prime_ios]
    };
    let small = work_after_prime(16);
    assert!(small.iter().all(|&visits| visits > 0), "{small:?}");
    assert_eq!(small, work_after_prime(64), "[link_visits, io_visits] on 16×16 vs 64×64");
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
