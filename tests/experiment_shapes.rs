//! Integration: the paper experiments keep their published shapes
//! (abbreviated versions of the `rtr-bench` harnesses; see EXPERIMENTS.md
//! for the full regeneration).

use rtr_bench::baseline_compare::{run_one, Design};
use rtr_bench::{exp1, fig7, horizon, mesh_guarantees};

#[test]
fn e1_wormhole_latency_is_constant_plus_b() {
    let rows = exp1::run(&[16, 64, 160]);
    let c0 = rows[0].wormhole_latency - rows[0].bytes as u64;
    for r in &rows {
        assert_eq!(
            r.wormhole_latency,
            c0 + r.bytes as u64,
            "slope must be exactly one cycle per byte"
        );
        assert!(
            (30..=31).contains(&(r.wormhole_latency - r.bytes as u64)),
            "constant within one cycle of the paper's 30"
        );
        assert!(r.store_forward_latency > r.wormhole_latency);
    }
}

#[test]
fn f7_shares_and_deadlines() {
    let r = fig7::run(0, 92, 30_000, 3_000);
    assert!((r.tc_shares[0] - 0.125).abs() < 0.012);
    assert!((r.tc_shares[1] - 0.0625).abs() < 0.008);
    assert!((r.tc_shares[2] - 0.03125).abs() < 0.006);
    assert!(r.be_share > 0.5);
    assert_eq!(r.deadline_misses, 0);
}

#[test]
fn x1_horizon_trade_off_shape() {
    let rows = horizon::run(&[0, 32], 40_000);
    assert!(rows[1].mean_latency < rows[0].mean_latency);
    assert!(rows[1].dst_held_packets >= rows[0].dst_held_packets);
    assert!(rows[1].required_reservation > rows[0].required_reservation);
}

#[test]
fn x2_design_hierarchy() {
    let rt = run_one(Design::RealTime, 0.2, 40_000);
    let pv = run_one(Design::PriorityVc, 0.2, 40_000);
    let wh = run_one(Design::Wormhole, 0.2, 40_000);
    assert_eq!(rt.misses, 0, "the real-time router never misses");
    assert!(pv.misses > 0, "FIFO priority misses under bursty peers");
    assert!(wh.misses > pv.misses, "wormhole fares worst under load");
}

/// Behaviour preservation, pinned: the exact rows the four designs produced
/// before their port plumbing moved onto the shared router kit. A refactor
/// that shifts one delivery by one cycle changes a mean or a max here.
#[test]
fn x2_rows_match_the_recorded_run() {
    let recorded = [
        (Design::RealTime, 249, 0, 179.0, 179),
        (Design::PriorityVc, 250, 42, 129.264, 270),
        (Design::StoreForward, 166, 165, 6707.921686746988, 13514),
        (Design::Wormhole, 246, 245, 872.2073170731708, 1462),
    ];
    for (design, delivered, misses, mean_latency, max_latency) in recorded {
        let row = run_one(design, 0.2, 40_000);
        let got = (row.delivered, row.misses, row.mean_latency, row.max_latency);
        assert_eq!(got, (delivered, misses, mean_latency, max_latency), "{design}");
    }
}

/// The same for Experiment 1: both latency columns of `exp1_wormhole`.
#[test]
fn e1_latencies_match_the_recorded_run() {
    let recorded = [
        (8, 39, 45),
        (16, 47, 77),
        (20, 51, 93),
        (32, 63, 141),
        (64, 95, 269),
        (96, 127, 397),
        (128, 159, 525),
        (192, 223, 781),
        (256, 287, 1037),
    ];
    let rows = exp1::run(&recorded.map(|(bytes, _, _)| bytes));
    let got = rows.iter().map(|r| (r.bytes, r.wormhole_latency, r.store_forward_latency));
    assert!(got.eq(recorded), "exp1 rows moved: {rows:?}");
}

#[test]
fn x3_mesh_guarantees_hold() {
    let r = mesh_guarantees::run(4, 10, 0.1, 99, 50_000);
    assert!(r.admitted > 0);
    assert_eq!(r.misses, 0);
    assert_eq!(r.aliased_keys, 0);
}
