//! Per-layer probes: each one times calls into a single layer's public
//! functions, outside any workload, and reports one number.
//!
//! A probe runs a few batches and reports the median batch, so one
//! descheduling does not decide the number. Probes carry no bound: they
//! locate a change a workload metric showed, they do not gate it.

use std::hint::black_box;
use std::time::Instant;

use rtr_channels::admission::{LinkBook, LinkReservation};
use rtr_channels::control_plane::DeferredPlane;
use rtr_channels::establish::ChannelManager;
use rtr_channels::sender::ChannelSender;
use rtr_channels::spec::{ChannelRequest, TrafficSpec};
use rtr_core::control::ControlCommand;
use rtr_core::memory::SlotAddr;
use rtr_core::sched::leaf::Leaf;
use rtr_core::sched::tree::ComparatorTree;
use rtr_core::{RealTimeRouter, RouterTemplate};
use rtr_events::WakeQueue;
use rtr_mesh::link::Link;
use rtr_mesh::source::TrafficSource;
use rtr_mesh::{Simulator, Topology};
use rtr_types::chip::{Chip, ChipIo};
use rtr_types::clock::SlotClock;
use rtr_types::config::RouterConfig;
use rtr_types::flit::LinkSymbol;
use rtr_types::ids::{ConnectionId, Direction, NodeId, Port};
use rtr_types::key::LatePolicy;
use rtr_types::packet::{BePacket, PacketTrace, TcPacket};
use rtr_workloads::be::{RandomBeSource, SizeDist};
use rtr_workloads::patterns::TrafficPattern;
use rtr_workloads::tc::PeriodicTcSource;

use crate::stats::median;
use crate::workloads::Scale;

/// Median of `batches` samples.
fn median_of(batches: usize, sample: impl FnMut() -> f64) -> f64 {
    median(&std::iter::repeat_with(sample).take(batches).collect::<Vec<_>>())
}

/// Nanoseconds per unit of the `units` units of work `work` does.
fn timed(units: u64, work: impl FnOnce()) -> f64 {
    let start = Instant::now();
    work();
    start.elapsed().as_nanos() as f64 / units as f64
}

fn populated_tree(fill: usize) -> ComparatorTree {
    let clock = SlotClock::new(8);
    let mut tree = ComparatorTree::new(256, clock, LatePolicy::Saturate);
    for i in 0..fill {
        tree.insert(Leaf {
            l: clock.wrap(60 + (i as u64 * 7) % 90),
            delay: 4 + (i as u32 * 13) % 100,
            port_mask: 1 << (i % 5),
            addr: SlotAddr(i as u16),
        })
        .expect("tree has room");
    }
    tree
}

/// Warm selects over all five ports at a fixed slot time.
fn sched_select_ns(fill: usize, reads: u64) -> f64 {
    let t = SlotClock::new(8).wrap(100);
    let tree = populated_tree(fill);
    let _ = tree.select(Port::Dir(Direction::XPlus), t);
    median_of(5, || {
        timed(reads, || {
            let mut acc = 0u64;
            for _ in 0..reads / 5 {
                for port in Port::ALL {
                    if let Some(sel) = tree.select(port, t) {
                        acc = acc.wrapping_add(sel.leaf as u64);
                    }
                }
            }
            black_box(acc);
        })
    })
}

/// One insert plus the commit that frees it again, on a warm tree holding
/// 128 other leaves.
fn sched_insert_remove_ns(pairs: u64) -> f64 {
    let clock = SlotClock::new(8);
    let t = clock.wrap(100);
    let mut tree = populated_tree(128);
    let _ = tree.select(Port::Dir(Direction::XPlus), t);
    median_of(5, || {
        timed(pairs, || {
            for i in 0..pairs {
                let port = Port::ALL[(i % 5) as usize];
                let idx = tree
                    .insert(Leaf {
                        l: clock.wrap(70 + i % 60),
                        delay: 8,
                        port_mask: port.mask(),
                        addr: SlotAddr(200),
                    })
                    .expect("tree has room");
                black_box(tree.commit(idx, port));
            }
        })
    })
}

/// A router with three connections and a backlog of `tc_packets`
/// time-constrained plus up to 64 best-effort packets.
fn loaded_router(tc_packets: u64) -> (RealTimeRouter, ChipIo) {
    let mut router = RealTimeRouter::new(RouterConfig::default()).expect("default config");
    let out = Port::Dir(Direction::XPlus);
    for i in 1..=3u16 {
        router
            .apply_control(ControlCommand::SetConnection {
                incoming: ConnectionId(i),
                outgoing: ConnectionId(i),
                delay: 4 * u32::from(i),
                out_mask: out.mask(),
            })
            .expect("fresh table accepts the entry");
    }
    let mut io = ChipIo::new();
    for k in 0..tc_packets {
        io.inject_tc.push_back(TcPacket {
            conn: ConnectionId((k % 3 + 1) as u16),
            arrival: router.clock().wrap(k),
            payload: vec![0; router.config().tc_data_bytes()].into(),
            trace: PacketTrace::default(),
        });
        if k < 64 {
            io.inject_be.push_back(BePacket::new(1, 0, vec![0; 60], PacketTrace::default()));
        }
    }
    (router, io)
}

/// One router cycle, isolated: 1000 cycles over a fresh backlog.
fn router_tick_ns(tc_packets: u64, batches: usize) -> f64 {
    const CYCLES: u64 = 1000;
    median_of(batches, || {
        let (mut router, mut io) = loaded_router(tc_packets);
        timed(CYCLES, || {
            for now in 0..CYCLES {
                io.begin_cycle();
                io.credit_in[1] = 1;
                router.tick(now, &mut io);
                io.tx = Default::default();
                io.credit_out = [0; 5];
            }
            black_box(router.stats().tc_transmitted[1]);
        })
    })
}

/// `next_event` on a router that still holds a backlog.
fn router_next_event_ns(polls: u64) -> f64 {
    let (mut router, mut io) = loaded_router(64);
    for now in 0..200 {
        io.begin_cycle();
        router.tick(now, &mut io);
        io.tx = Default::default();
        io.credit_out = [0; 5];
    }
    median_of(5, || {
        timed(polls, || {
            let mut acc = 0u64;
            for i in 0..polls {
                acc = acc.wrapping_add(router.next_event(200 + (i & 1)).unwrap_or(0));
            }
            black_box(acc);
        })
    })
}

fn router_build_us(builds: u64) -> f64 {
    let template = RouterTemplate::new(RouterConfig::default()).expect("default config");
    median_of(5, || {
        timed(builds, || {
            for _ in 0..builds {
                black_box(template.build());
            }
        })
    }) / 1e3
}

fn set_connection_ns(writes: u64) -> f64 {
    let mut router = RealTimeRouter::new(RouterConfig::default()).expect("default config");
    let ids = router.config().connections as u64;
    median_of(5, || {
        timed(writes, || {
            for i in 0..writes {
                router
                    .apply_control(ControlCommand::SetConnection {
                        incoming: ConnectionId((i % ids) as u16),
                        outgoing: ConnectionId(((i + 1) % ids) as u16),
                        delay: 4 + (i % 8) as u32,
                        out_mask: Port::Dir(Direction::XPlus).mask(),
                    })
                    .expect("in-range entry");
            }
        })
    })
}

/// The event wheel at 64 k registered handles: filing a wake, firing one,
/// and asking for the earliest.
fn event_wheel_ns(handles: u32) -> (f64, f64, f64) {
    let mut queue = WakeQueue::with_capacity(handles as usize);
    let registered: Vec<_> = (0..handles).map(|_| queue.register()).collect();
    let span = u64::from(handles);
    // Wakes land on distinct pseudo-random cycles inside the next `span`.
    let wake_of = |i: u64, base: u64| base + 1 + (i.wrapping_mul(2_654_435_761) % span);
    let mut base = 0u64;
    let mut due = Vec::new();
    let (mut set_samples, mut pop_samples, mut next_samples) = (Vec::new(), Vec::new(), Vec::new());
    for _ in 0..3 {
        set_samples.push(timed(span, || {
            for (i, &handle) in registered.iter().enumerate() {
                queue.set_wake(handle, wake_of(i as u64, base));
            }
        }));
        next_samples.push(timed(1000, || {
            let mut acc = 0u64;
            for _ in 0..1000 {
                acc = acc.wrapping_add(queue.next_wake().unwrap_or(0));
            }
            black_box(acc);
        }));
        // Every filed wake fires exactly once while time sweeps the span.
        pop_samples.push(timed(span, || {
            for now in base + 1..=base + span {
                due.clear();
                queue.pop_due(now, &mut due);
                black_box(due.len());
            }
        }));
        base += span;
    }
    (median(&set_samples), median(&pop_samples), median(&next_samples))
}

fn link_send_recv_ns(symbols: u64) -> f64 {
    let mut link = Link::new(0);
    let mut now = 0u64;
    median_of(5, || {
        timed(symbols, || {
            let mut got = 0u64;
            for _ in 0..symbols {
                link.send(now, LinkSymbol::TcCont { index: 1 });
                now += 1;
                got += u64::from(link.recv(now).is_some());
            }
            black_box(got);
        })
    })
}

fn idle_mesh(side: u16) -> Simulator<RealTimeRouter> {
    let template = RouterTemplate::new(RouterConfig::default()).expect("default config");
    Simulator::build(Topology::mesh(side, side), |_| {
        Ok::<_, std::convert::Infallible>(template.build())
    })
    .expect("infallible router factory")
}

/// A mesh under seeded uniform best-effort load (`bench_runner`'s
/// `mesh_*_serial` scenario at any side).
fn be_loaded_mesh(side: u16, workers: usize) -> Simulator<RealTimeRouter> {
    let topo = Topology::mesh(side, side);
    let mut sim = idle_mesh(side);
    sim.set_parallelism(workers);
    for node in topo.nodes() {
        sim.add_source(
            node,
            Box::new(
                RandomBeSource::new(
                    topo.clone(),
                    TrafficPattern::Uniform,
                    0.2,
                    SizeDist::Fixed(32),
                    u64::from(node.0),
                )
                .with_max_queue(8),
            ),
        );
    }
    sim
}

/// Dense best-effort stepping, one worker against two: the evidence the
/// keep-or-delete call on the worker pool needs. The only place the
/// benchmark uses a second thread.
fn pool_speedup_2w(side: u16, cycles: u64) -> f64 {
    let time = |workers: usize| {
        let mut sim = be_loaded_mesh(side, workers);
        let start = Instant::now();
        sim.run_parallel(cycles);
        black_box(sim.now());
        start.elapsed().as_secs_f64()
    };
    let one = time(1);
    let two = time(2);
    one / two
}

fn admissible_ns(reservations: u32, tests: u64) -> f64 {
    let mut book = LinkBook::new();
    for i in 0..reservations {
        book.reserve(LinkReservation { packets: 1, period: 64 + 8 * i, delay: 8 + i % 8 });
    }
    let candidate = LinkReservation { packets: 1, period: 128, delay: 12 };
    median_of(5, || {
        timed(tests, || {
            let mut ok = 0u64;
            for _ in 0..tests {
                ok += u64::from(book.admissible(black_box(candidate), 2).is_ok());
            }
            black_box(ok);
        })
    })
}

/// A sender for a one-hop channel on a two-node line.
fn one_hop_sender(config: &RouterConfig) -> ChannelSender {
    let topo = Topology::mesh(2, 1);
    let mut manager = ChannelManager::new(config);
    let channel = manager
        .establish(
            &topo,
            ChannelRequest::unicast(NodeId(0), NodeId(1), TrafficSpec::periodic(8, 18), 16),
            &mut DeferredPlane::default(),
        )
        .expect("an empty line admits one channel");
    ChannelSender::new(
        &channel,
        SlotClock::new(config.clock_bits),
        config.slot_bytes,
        config.tc_data_bytes(),
    )
}

fn make_message_ns(messages: u64) -> f64 {
    let config = RouterConfig::default();
    let mut sender = one_hop_sender(&config);
    let chunks = sender.prepare_payload(&vec![0x42; config.tc_data_bytes()]);
    let period = 8 * config.slot_bytes as u64;
    let mut now = 0u64;
    median_of(5, || {
        timed(messages, || {
            for _ in 0..messages {
                black_box(sender.make_message_shared(now, &chunks));
                now += period;
            }
        })
    })
}

/// `pre_cycle` of one source, every cycle, as the dense loop calls it.
fn source_pre_cycle_ns(mut source: impl TrafficSource, cycles: u64) -> f64 {
    let mut io = ChipIo::new();
    let mut now = 0u64;
    median_of(5, || {
        timed(cycles, || {
            for _ in 0..cycles {
                source.pre_cycle(now, NodeId(0), &mut io);
                now += 1;
                if io.inject_be.len() + io.inject_tc.len() >= 4 {
                    io.inject_be.clear();
                    io.inject_tc.clear();
                }
            }
        })
    })
}

/// Runs every probe and reports `(metric name, value)` pairs.
///
/// At smoke scale the counts shrink and so do the meshes (32×32 for the
/// rows named `128x128`, 8×8 for `32x32`): the rows then only prove the
/// probe runs.
#[must_use]
pub fn run_all(scale: Scale) -> Vec<(&'static str, f64)> {
    let smoke = scale == Scale::Smoke;
    let n = |full: u64, small: u64| if smoke { small } else { full };
    let big_side = n(128, 32) as u16;
    let config = RouterConfig::default();
    let mut out = Vec::new();

    out.push(("core.sched.select_ns.occ16", sched_select_ns(16, n(100_000, 5_000))));
    out.push(("core.sched.select_ns.occ256", sched_select_ns(256, n(100_000, 5_000))));
    out.push(("core.sched.insert_remove_ns.occ128", sched_insert_remove_ns(n(50_000, 2_000))));
    let batches = n(9, 3) as usize;
    out.push(("core.router.tick_ns.idle", router_tick_ns(0, batches)));
    let tick_mixed = router_tick_ns(64, batches);
    out.push(("core.router.tick_ns.mixed", tick_mixed));
    out.push(("core.router.tick_ns.occ256", router_tick_ns(256, batches)));
    out.push(("core.router.next_event_ns", router_next_event_ns(n(100_000, 5_000))));
    out.push(("core.router.build_us", router_build_us(n(2_000, 100))));
    out.push(("core.control.set_connection_ns", set_connection_ns(n(100_000, 5_000))));

    let (set_wake, pop_due, next_wake) = event_wheel_ns(n(65_536, 4_096) as u32);
    out.push(("events.set_wake_ns", set_wake));
    out.push(("events.pop_due_ns", pop_due));
    out.push(("events.next_wake_ns", next_wake));

    out.push(("mesh.link.send_recv_ns", link_send_recv_ns(n(200_000, 10_000))));
    let idle_cycles = n(4_000, 200);
    let idle_step = median_of(3, || {
        let mut sim = idle_mesh(8);
        timed(64 * idle_cycles, || sim.run(idle_cycles))
    });
    out.push(("mesh.sim.idle_step_ns_per_node_cycle.8x8", idle_step));
    let idle_leap = median_of(3, || {
        let mut sim = idle_mesh(8);
        timed(1, || sim.run_leaping(1_000_000))
    });
    out.push(("mesh.sim.idle_leap_us_per_mcycle.8x8", idle_leap / 1e3));
    let topo_build =
        median_of(3, || timed(1, || drop(black_box(Topology::mesh(big_side, big_side)))));
    out.push(("mesh.topology.build_ms.128x128", topo_build / 1e6));
    let (mut build, mut prime, mut bytes_per_node) = (Vec::new(), Vec::new(), 0);
    for _ in 0..3 {
        let mut sim = None;
        build.push(timed(1, || sim = Some(idle_mesh(big_side))));
        let mut sim = sim.expect("just built");
        bytes_per_node = sim.bytes_per_node();
        // The first leaping call on a fresh mesh pays the cold prime: every
        // component is polled once to seed the event wheel.
        prime.push(timed(1, || sim.run_leaping(100)));
    }
    out.push(("mesh.sim.build_ms.128x128", median(&build) / 1e6));
    out.push(("mesh.sim.bytes_per_node.128x128", bytes_per_node as f64));
    out.push(("mesh.sim.prime_ms.128x128", median(&prime) / 1e6));
    out.push(("mesh.pool.speedup_2w.32x32", pool_speedup_2w(n(32, 8) as u16, n(1_000, 50))));

    out.push(("channels.admission.admissible_ns.res4", admissible_ns(4, n(100_000, 5_000))));
    out.push(("channels.admission.admissible_ns.res24", admissible_ns(24, n(20_000, 1_000))));
    out.push(("channels.sender.make_message_ns", make_message_ns(n(100_000, 5_000))));

    let be_source = RandomBeSource::new(
        Topology::mesh(8, 8),
        TrafficPattern::Uniform,
        0.2,
        SizeDist::Uniform(8, 64),
        7,
    )
    .with_max_queue(8);
    out.push(("workloads.be.pre_cycle_ns", source_pre_cycle_ns(be_source, n(200_000, 10_000))));
    let tc_source = PeriodicTcSource::new(
        one_hop_sender(&config),
        8,
        0,
        config.slot_bytes,
        vec![0x42; config.tc_data_bytes()],
    );
    out.push(("workloads.tc.pre_cycle_ns", source_pre_cycle_ns(tc_source, n(200_000, 10_000))));
    out
}
