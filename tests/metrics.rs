//! Integration: the unified metrics registry, phase profiler, and flight
//! recorder observed through the simulator (`--features metrics` only).
//!
//! The equivalence test extends the event-core suite's guarantee to the
//! metrics plane: the datapath ledger (`router.*` counters) must render
//! byte-identically whether a scenario was driven stepped or leaping —
//! observability must not see drive-mode artifacts — while work counters
//! (scheduler key computations) shrink under leaping, never grow. The flight-recorder tests induce real failures
//! (a cooked conservation ledger, a panic under a guard) and assert the
//! post-mortem JSONL dump carries the recent-event ring plus a full
//! metrics snapshot. The profiler test checks wall-clock attribution lands
//! in the phases each drive mode actually executes.
#![cfg(feature = "metrics")]

use realtime_router::channels::establish::{EstablishedChannel, Hop};
use realtime_router::channels::sender::ChannelSender;
use realtime_router::channels::spec::{ChannelRequest, TrafficSpec};
use realtime_router::core::{ControlCommand, RealTimeRouter};
use realtime_router::mesh::{Simulator, Topology};
use realtime_router::metrics::{MetricLine, Phase};
use realtime_router::types::config::RouterConfig;
use realtime_router::types::ids::{ConnectionId, Direction, NodeId, Port};
use realtime_router::workloads::be::{RandomBeSource, SizeDist};
use realtime_router::workloads::patterns::TrafficPattern;
use realtime_router::workloads::tc::PeriodicTcSource;

const DELAY: u32 = 6;

/// A 4×4 mesh with two one-hop periodic TC channels and optional BE load.
fn build_mesh(tc_period_slots: u64, be_rate: f64) -> Simulator<RealTimeRouter> {
    let config = RouterConfig::default();
    let topo = Topology::mesh(4, 4);
    let mut sim = Simulator::build(topo.clone(), |_| RealTimeRouter::new(config.clone())).unwrap();
    for (i, y) in [0u16, 3].into_iter().enumerate() {
        let conn = ConnectionId(10 + i as u16);
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
                TrafficSpec::periodic(tc_period_slots as u32, 18),
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
                tc_period_slots,
                0,
                config.slot_bytes,
                vec![0xA0 + i as u8; config.tc_data_bytes()],
            )),
        );
    }
    if be_rate > 0.0 {
        for node in topo.nodes() {
            sim.add_source(
                node,
                Box::new(
                    RandomBeSource::new(
                        topo.clone(),
                        TrafficPattern::Uniform,
                        be_rate,
                        SizeDist::Fixed(16),
                        0xC0FF_EE00 ^ u64::from(node.0),
                    )
                    .with_max_queue(8),
                ),
            );
        }
    }
    sim
}

fn temp_path(tag: &str) -> std::path::PathBuf {
    std::env::temp_dir().join(format!("rtr_metrics_it_{tag}_{}.jsonl", std::process::id()))
}

/// The datapath ledger must be drive-mode independent: `router.*` counters
/// and the scheduler's key-computation count snapshot byte-identically
/// between a stepped and a leaping run of the same scenario.
#[test]
fn datapath_counters_are_drive_mode_independent() {
    for (period, be_rate, cycles) in [(64, 0.0, 10_000), (8, 0.05, 3_000)] {
        let mut stepped = build_mesh(period, be_rate);
        stepped.run(cycles);
        let mut leaping = build_mesh(period, be_rate);
        leaping.run_leaping(cycles);
        assert_eq!(stepped.now(), leaping.now());

        let snap_stepped = stepped.metrics_snapshot();
        let snap_leaping = leaping.metrics_snapshot();
        let a = snap_stepped.filter_prefix("router.").to_jsonl(cycles);
        let b = snap_leaping.filter_prefix("router.").to_jsonl(cycles);
        assert!(!a.is_empty(), "router. namespace must be populated");
        assert_eq!(
            a, b,
            "router. counters diverged between stepped and leaping \
             (period {period}, be {be_rate})"
        );
        // Work counters are NOT expected to match: leaping exists to skip
        // scheduler polls on quiet cycles, so its key work is bounded by
        // the stepped run's — while delivering the identical ledger above.
        let keys_stepped = snap_stepped.counter("sched.key_computations").unwrap_or(0);
        let keys_leaping = snap_leaping.counter("sched.key_computations").unwrap_or(0);
        assert!(keys_stepped > 0, "the tree scheduler must have computed keys");
        assert!(
            keys_leaping <= keys_stepped,
            "leaping must never do more scheduler work: {keys_leaping} vs {keys_stepped}"
        );
        // Wake accounting: a chip that answers the next cycle is carried
        // there, never filed, so the carried count covers every short poll
        // (wires and sources add theirs) and the wheel sees fewer wakes than
        // the chips alone gave short answers.
        let [short, carried, filed] = ["wake.short_polls", "sim.wakes_carried", "queue.filed"]
            .map(|name| snap_leaping.counter(name).unwrap_or(0));
        assert!(short > 0 && carried >= short, "{carried} carried, {short} short polls");
        assert!(filed < short, "{filed} wakes filed against {short} short polls");
        // The drive-mode-dependent plane must, by contrast, show the leap.
        assert!(
            snap_leaping.counter("sim.leaps").unwrap_or(0) > 0 || be_rate > 0.0,
            "sparse leaping run must record leaps"
        );
    }
}

/// Interleaving plain stepping between leaping runs must not re-prime the
/// event queue: `sim.stale_repolls` counts the priming passes, and a warm
/// queue adds none.
#[test]
fn warm_queue_adds_no_stale_repolls() {
    let mut sim = build_mesh(64, 0.0);
    sim.run_leaping(2_000);
    let after_prime = sim.metrics_snapshot().counter("sim.stale_repolls").unwrap_or(0);
    assert!(after_prime > 0, "the first leaping call must prime (and count) the queue");
    sim.run(2_000);
    sim.run_leaping(2_000);
    let after_interleave = sim.metrics_snapshot().counter("sim.stale_repolls").unwrap_or(0);
    assert_eq!(
        after_prime, after_interleave,
        "plain stepping kept the queue warm, so no re-prime may happen"
    );
}

/// A conservation-ledger violation must dump the flight recorder: header
/// line with the reason, the recent-event ring, and a parseable metrics
/// snapshot.
#[test]
fn flight_recorder_dumps_on_conservation_violation() {
    let path = temp_path("conservation");
    let mut sim = build_mesh(8, 0.05);
    sim.arm_flight_recorder(32, path.clone());
    sim.run(1_000);
    assert!(sim.check_conservation().is_ok(), "healthy run must conserve");

    // Cook the ledger: one phantom arrival that never leaves the node.
    sim.chip_mut(NodeId(0)).stats_mut().tc_arrived += 1;
    let err = sim.check_conservation().expect_err("cooked ledger must fail");
    assert!(err.contains("node 0"), "violation must name the node: {err}");

    let text = std::fs::read_to_string(&path).expect("violation must write the dump");
    std::fs::remove_file(&path).ok();
    let lines: Vec<&str> = text.lines().collect();
    assert!(
        lines[0].contains("\"flight\": \"dump\"")
            && lines[0].contains("\"reason\": \"conservation\""),
        "dump header must carry the trigger reason: {}",
        lines[0]
    );
    let events = lines.iter().filter(|l| l.contains("\"ev\": \"")).count();
    assert!(events > 0, "dump must carry the recent-event ring");
    let metrics: Vec<MetricLine> = lines.iter().filter_map(|l| MetricLine::parse(l)).collect();
    assert!(
        metrics.iter().any(|m| m.name == "router.tc_arrived"),
        "dump must embed a full metrics snapshot"
    );
    assert_eq!(sim.flight_recorder().unwrap().dumped().as_deref(), Some("conservation"));
}

/// A panic while a [`realtime_router::metrics::FlightGuard`] is alive must
/// dump with reason `"panic"` — the post-mortem for unwinding tests.
#[test]
fn flight_guard_dumps_on_panic() {
    let path = temp_path("panic");
    let mut sim = build_mesh(8, 0.05);
    sim.arm_flight_recorder(32, path.clone());
    sim.run(500);
    let guard = sim.flight_guard().expect("armed recorder must hand out guards");
    let result = std::panic::catch_unwind(std::panic::AssertUnwindSafe(move || {
        let _guard = guard;
        panic!("induced failure under guard");
    }));
    assert!(result.is_err());
    let text = std::fs::read_to_string(&path).expect("panic must write the dump");
    std::fs::remove_file(&path).ok();
    assert!(text.lines().next().unwrap().contains("\"reason\": \"panic\""));
    assert!(text.lines().filter_map(MetricLine::parse).count() > 0);
}

/// Wall-clock attribution must land in the phases a drive mode actually
/// runs: stepped time in the tick loop, leaping runs in planning as well as
/// in the tick loop for the cycles they step.
#[test]
fn profiler_attributes_time_to_live_phases() {
    let mut stepped = build_mesh(8, 0.05);
    stepped.phase_profiler().set_enabled(true);
    stepped.run(1_000);
    let report = stepped.phase_profiler().report();
    let line = |p: Phase| report.iter().find(|l| l.phase == p).copied().unwrap();
    assert_eq!(line(Phase::SerialTick).calls, 1_000);
    assert!(line(Phase::SerialTick).ns > 0);
    let (dominant, share) = stepped.phase_profiler().dominant().unwrap();
    assert!(share > 0.0 && share <= 1.0, "dominant {dominant:?} share {share}");

    let mut leaping = build_mesh(8, 0.05);
    leaping.phase_profiler().set_enabled(true);
    leaping.run_leaping(1_000);
    let report = leaping.phase_profiler().report();
    let line = |p: Phase| report.iter().find(|l| l.phase == p).copied().unwrap();
    assert!(line(Phase::LeapPlan).calls > 0, "leaping run must plan leaps");
    assert!(line(Phase::SerialTick).calls > 0, "stepped cycles must attribute their chip ticks");

    // The profile also exports through the registry as profile.* counters.
    let snap = leaping.metrics_snapshot();
    assert!(snap.counter("profile.leap_plan.calls").unwrap_or(0) > 0);
}
