//! Integration: cycle-accurate tracing on a 3×3 mesh (needs `--features
//! trace`).
//!
//! Runs admitted periodic channels plus background best-effort noise with
//! every router tracing into one shared ring, then checks that each
//! *delivered* time-constrained packet left a complete
//! `inject → arrive → select → transmit → deliver` chain, that cycles are
//! monotone along each chain, and that no admitted channel was ever
//! delivered late (delivery slack ≥ 0). Also exercises the
//! [`realtime_router::mesh::NetworkReport`] slack view against the trace.

#![cfg(feature = "trace")]

use std::collections::BTreeMap;

use realtime_router::core::RealTimeRouter;
use realtime_router::mesh::{NetworkReport, Simulator, Topology};
use realtime_router::prelude::*;
use realtime_router::types::trace::{shared, RingSink, TraceEvent, TraceRecord};
use realtime_router::workloads::be::{RandomBeSource, SizeDist};
use realtime_router::workloads::patterns::TrafficPattern;
use rtr_bench::util::add_periodic_sender;

#[test]
fn delivered_tc_packets_leave_complete_chains() {
    let config = RouterConfig::default();
    let topo = Topology::mesh(3, 3);
    let mut sim = Simulator::build(topo.clone(), |_| RealTimeRouter::new(config.clone())).unwrap();
    let ring = shared(RingSink::new(1 << 20));
    for node in topo.nodes() {
        sim.chip_mut(node).set_trace_sink(node, ring.clone());
    }

    let mut manager = ChannelManager::new(&config);
    // Two channels share source node 0 on purpose: their trace provenance
    // must still stitch into distinct chains.
    let pairs = [(0u16, 8u16), (0, 2), (4, 6), (7, 1)];
    for (phase, (src, dst)) in pairs.into_iter().enumerate() {
        let (src, dst) = (NodeId(src), NodeId(dst));
        let depth = topo.dor_route(src, dst).len() as u32 + 1;
        let channel = manager
            .establish(
                &topo,
                ChannelRequest::unicast(src, dst, TrafficSpec::periodic(16, 18), depth * 6),
                &mut sim,
            )
            .expect("sparse channel set admits");
        add_periodic_sender(&mut sim, &channel, 16, phase as u64 * 2, 0x42);
    }
    for node in topo.nodes() {
        sim.add_source(
            node,
            Box::new(
                RandomBeSource::new(
                    topo.clone(),
                    TrafficPattern::Uniform,
                    0.1,
                    SizeDist::Uniform(4, 32),
                    u64::from(node.0) * 13 + 3,
                )
                .with_max_queue(4),
            ),
        );
    }
    sim.run(20_000);

    // Stitch per-packet chains from the trace by (src, seq) provenance.
    let ring = ring.lock().unwrap();
    assert_eq!(ring.dropped(), 0, "ring must be big enough for the whole run");
    let mut chains: BTreeMap<(NodeId, u64), Vec<TraceRecord>> = BTreeMap::new();
    for rec in ring.records() {
        if let Some(id) = rec.event.packet_id() {
            if !matches!(rec.event, TraceEvent::BeDeliver { .. }) {
                chains.entry(id).or_default().push(*rec);
            }
        }
    }

    let delivered: Vec<(NodeId, u64)> = topo
        .nodes()
        .flat_map(|n| {
            sim.log(n)
                .tc
                .iter()
                .map(|(_, p)| (p.trace.source, p.trace.sequence))
                .collect::<Vec<_>>()
        })
        .collect();
    assert!(delivered.len() > 200, "delivered {}", delivered.len());

    for id in &delivered {
        let chain = chains.get(id).unwrap_or_else(|| panic!("no trace chain for {id:?}"));
        let tags: Vec<&str> = chain.iter().map(|r| r.event.tag()).collect();
        for want in ["tc_inject", "tc_arrive", "sched_select", "tc_transmit", "tc_deliver"] {
            assert!(tags.contains(&want), "chain for {id:?} is missing {want}: {tags:?}");
        }
        // The lifecycle appears in causal order and cycles never go back.
        let mut expected = ["tc_inject", "tc_arrive", "sched_select", "tc_transmit", "tc_deliver"]
            .iter()
            .peekable();
        for tag in &tags {
            if expected.peek() == Some(&tag) {
                expected.next();
            }
        }
        assert_eq!(expected.count(), 0, "out-of-order chain for {id:?}: {tags:?}");
        assert!(
            chain.windows(2).all(|w| w[0].cycle <= w[1].cycle),
            "cycles regress in chain for {id:?}"
        );
        // Admission guarantees on-time delivery: slack never negative.
        for rec in chain {
            if let TraceEvent::TcDeliver { slack, .. } = rec.event {
                assert!(slack >= 0, "late delivery for {id:?}: slack {slack}");
            }
        }
    }

    // The mesh-level slack report agrees: nothing admitted ran late.
    let report = NetworkReport::capture(&sim, config.slot_bytes);
    assert!(!report.slack.is_empty(), "slack report populated");
    assert!(report.min_slack().unwrap() >= 0, "admitted channels stay on time");
    assert_eq!(report.deadline_misses, 0);
}
