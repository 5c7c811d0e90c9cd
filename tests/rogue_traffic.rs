//! Robustness: garbage traffic cannot crash routers or break other
//! channels' guarantees.
//!
//! A rogue host blasts time-constrained packets with random connection
//! identifiers, random (often aliasing) timestamps, and wrong payload
//! sizes into the network while a legitimate admitted channel runs. The
//! invariants: no panics, every rogue packet is accounted for in the drop
//! counters or delivered harmlessly, and the legitimate channel never
//! misses.

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use realtime_router::channels::{ChannelManager, ChannelRequest, TrafficSpec};
use realtime_router::core::RealTimeRouter;
use realtime_router::mesh::source::FnSource;
use realtime_router::mesh::{Simulator, Topology};
use realtime_router::prelude::*;
use realtime_router::workloads::tc::PeriodicTcSource;
use rtr_bench::churn::DriveMode;
use rtr_bench::util::{add_periodic_sender, sender_for};

#[test]
fn rogue_injections_are_contained() {
    let config = RouterConfig::default();
    let topo = Topology::mesh(3, 3);
    let mut sim = Simulator::build(topo.clone(), |_| RealTimeRouter::new(config.clone())).unwrap();
    let mut manager = ChannelManager::new(&config);

    // The legitimate channel crosses the rogue's node.
    let src = topo.node_at(0, 1);
    let dst = topo.node_at(2, 1);
    let channel = manager
        .establish(
            &topo,
            ChannelRequest::unicast(src, dst, TrafficSpec::periodic(16, 18), 48),
            &mut sim,
        )
        .unwrap();
    add_periodic_sender(&mut sim, &channel, 16, 0, 0x60);

    // The rogue sits mid-route and injects garbage every few cycles.
    let rogue = topo.node_at(1, 1);
    let clock = sim.chip(rogue).clock();
    let _data_bytes = config.tc_data_bytes();
    let mut rng = StdRng::seed_from_u64(0xBAD);
    sim.add_source(
        rogue,
        Box::new(FnSource(move |now: u64, _node, io: &mut rtr_types::chip::ChipIo| {
            if now.is_multiple_of(7) && io.inject_tc.len() < 8 {
                let payload_len = *[0usize, 3, 18, 18, 18].get(rng.gen_range(0..5usize)).unwrap();
                io.inject_tc.push_back(TcPacket {
                    conn: ConnectionId(rng.gen_range(0..256)),
                    arrival: clock.wrap(rng.gen_range(0..100_000)),
                    payload: vec![0xEE; payload_len].into(),
                    trace: PacketTrace::default(),
                });
            }
        })),
    );

    sim.run(100_000);

    // The legitimate channel is untouched.
    let log = sim.log(dst);
    assert!(log.tc.len() > 280, "delivered {}", log.tc.len());
    assert_eq!(log.tc_deadline_misses(config.slot_bytes), 0);

    // Every rogue packet is accounted for: malformed or unknown-connection
    // drops at the rogue's own router (garbage conn ids may rarely hit the
    // legitimate entry installed there and be forwarded — those appear as
    // deliveries or downstream drops, never as corruption).
    let stats = sim.chip(rogue).stats();
    assert!(stats.tc_malformed > 0, "wrong-size payloads rejected");
    assert!(stats.tc_dropped_no_conn > 0, "unknown connections dropped");
    let injected_attempts = stats.tc_injected + stats.tc_malformed;
    // The injection port drains one packet per 20-cycle slot, so ~5 000
    // attempts reach the router over 100 000 cycles.
    assert!(injected_attempts > 3_000, "the rogue really was blasting: {injected_attempts}");
    // Memory never leaks slots.
    for node in topo.nodes() {
        let chip = sim.chip(node);
        assert!(chip.memory_occupied() <= chip.config().packet_slots);
    }
}

#[test]
fn over_rate_source_is_regulated_and_cannot_starve_a_well_behaved_channel() {
    // A host violates its own traffic contract: it declared one message
    // every 16 slots but sends every 4. The logical-arrival recurrence
    // ℓ = max(ℓ_prev + I_min, t) stamps the excess further and further
    // into the future, so it travels as *early* traffic: a
    // work-conserving router may forward it in otherwise-idle slots (or
    // park it in the channel's own reserved buffers until its stamp),
    // but it can never claim another channel's reserved slots. The
    // invariant under test is that a co-resident well-behaved channel
    // sharing both links keeps its guarantee in full while the cheater
    // blasts at 4x.
    let config = RouterConfig::default();
    let topo = Topology::mesh(3, 3);
    let mut sim = Simulator::build(topo.clone(), |_| RealTimeRouter::new(config.clone())).unwrap();
    let mut manager = ChannelManager::new(&config);

    let src = topo.node_at(0, 0);
    let greedy_dst = topo.node_at(2, 0);
    let honest_dst = topo.node_at(2, 1);
    // Both channels leave the same source and share the two row-0 links
    // (dimension-order: the honest route turns south only at the last
    // column).
    let greedy = manager
        .establish(
            &topo,
            ChannelRequest::unicast(src, greedy_dst, TrafficSpec::periodic(16, 18), 60),
            &mut sim,
        )
        .unwrap();
    let honest = manager
        .establish(
            &topo,
            ChannelRequest::unicast(src, honest_dst, TrafficSpec::periodic(16, 18), 80),
            &mut sim,
        )
        .unwrap();

    let greedy_sender = sender_for(&sim, &greedy);
    // Period 4 on a contract of 16: four times the declared rate.
    sim.add_source(
        src,
        Box::new(PeriodicTcSource::new(
            greedy_sender,
            4,
            0,
            config.slot_bytes,
            vec![0x6E; config.tc_data_bytes()],
        )),
    );
    add_periodic_sender(&mut sim, &honest, 16, 7, 0x61);

    sim.run(60_000);

    // The honest channel keeps its guarantee in full.
    let honest_log = sim.log(honest_dst);
    assert!(honest_log.tc.len() > 150, "honest delivered {}", honest_log.tc.len());
    assert_eq!(honest_log.tc_deadline_misses(config.slot_bytes), 0);

    // The greedy channel's deliveries are early, never late: whatever the
    // mesh chose to carry met the stamps the contract recurrence issued.
    let greedy_log = sim.log(greedy_dst);
    assert!(greedy_log.tc.len() > 150, "greedy delivered {}", greedy_log.tc.len());
    assert_eq!(greedy_log.tc_deadline_misses(config.slot_bytes), 0);

    // The mesh is work-conserving about the excess: far-future stamps
    // alias into the §4.3 wrapped clock window (the paper assumes policed
    // entry — `PolicedSender` is the designed countermeasure), so the
    // cheater's packets travel in slack slots at roughly the send rate
    // rather than being queued for hours. What matters is that this slack
    // service never displaced the honest channel's reserved slots, which
    // the zero-miss assertion above already proves at full blast.
    assert!(
        greedy_log.tc.len() > 600,
        "slack bandwidth carried the aliased excess: {}",
        greedy_log.tc.len()
    );
    for node in topo.nodes() {
        let chip = sim.chip(node);
        assert!(chip.memory_occupied() <= chip.config().packet_slots);
    }
}

#[test]
fn byzantine_neighbor_credits_cannot_corrupt_or_starve_the_tc_class() {
    // A compromised router lies to its upstream neighbour: it manufactures
    // best-effort flow-control credits it never earned, inviting the
    // neighbour to overrun its input buffer. The overflow must be absorbed
    // (dropped and counted) by the fault-tolerant ingest path, and the
    // time-constrained class — whose bandwidth is reserved, not
    // credit-governed — must keep every guarantee. The liar's source writes
    // no injection queue, only `credit_out`, so this holds under `run` only
    // if a cycle ticks the chip of each source that ran: each router's
    // statistics must match the every-chip run's.
    let config = RouterConfig::default();
    let topo = Topology::mesh(3, 1);
    let src = topo.node_at(0, 0);
    let liar = topo.node_at(1, 0);
    let dst = topo.node_at(2, 0);
    let run = |mode: DriveMode| {
        let mut sim =
            Simulator::build(topo.clone(), |_| RealTimeRouter::new(config.clone())).unwrap();
        let mut manager = ChannelManager::new(&config);
        let channel = manager
            .establish(
                &topo,
                ChannelRequest::unicast(src, dst, TrafficSpec::periodic(16, 18), 60),
                &mut sim,
            )
            .unwrap();
        add_periodic_sender(&mut sim, &channel, 16, 0, 0x42);

        // A best-effort flood keeps the upstream transmitter busy enough for
        // the bogus credits to matter.
        let (bx, by) = topo.be_offsets(src, dst);
        sim.add_source(
            src,
            Box::new(FnSource(move |_now: u64, node, io: &mut rtr_types::chip::ChipIo| {
                if io.inject_be.len() < 4 {
                    io.inject_be.push_back(BePacket::new(
                        bx,
                        by,
                        vec![0xBE; 48],
                        PacketTrace { source: node, injected_at: 0, ..PacketTrace::default() },
                    ));
                }
            })),
        );

        // The liar duplicates credits on its upstream-facing input port
        // every cycle, far beyond anything it actually freed.
        let upstream_port = Port::Dir(Direction::XMinus).index();
        sim.add_source(
            liar,
            Box::new(FnSource(move |_now: u64, _node, io: &mut rtr_types::chip::ChipIo| {
                io.credit_out[upstream_port] += 2;
            })),
        );

        mode.advance(&mut sim, 40_000);

        // The reserved class never misses, byzantine credits or not.
        let log = sim.log(dst);
        assert!(log.tc.len() > 100, "{mode:?}: tc delivered {}", log.tc.len());
        assert_eq!(log.tc_deadline_misses(config.slot_bytes), 0, "{mode:?}");

        // The invited overrun really happened and was absorbed as counted
        // drops at the liar's ingest, not a crash and not corruption.
        let liar_stats = sim.chip(liar).stats();
        assert!(
            liar_stats.be_dropped_faulty > 0 || liar_stats.be_truncated > 0,
            "{mode:?}: the overrun must surface in the tolerant-ingest counters"
        );
        // Best-effort service degrades but the mesh keeps forwarding;
        // nothing leaks router memory.
        assert!(sim.log(dst).be.len() > 10, "{mode:?}: be still flows: {}", sim.log(dst).be.len());
        for node in topo.nodes() {
            let chip = sim.chip(node);
            assert!(chip.memory_occupied() <= chip.config().packet_slots, "{mode:?}");
        }
        topo.nodes().map(|node| format!("{:?}", sim.chip(node).stats())).collect::<Vec<_>>()
    };
    let [every, run] = DriveMode::ALL.map(run);
    assert_eq!(run, every, "run vs every chip");
}
