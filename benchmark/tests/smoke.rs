//! The benchmark's own checks, at smoke scale: every workload runs and
//! passes its output checks, the digest is a function of the seed, and the
//! names this crate emits are the names `BENCHMARK.json` declares.
//!
//! `cargo test` exercises the end-to-end side; `cargo test --features
//! traced` the per-layer side (a build is one or the other).

use rtr_benchmark::json::{self, Json};
use rtr_benchmark::manifest::{END_TO_END, PER_LAYER};
use rtr_benchmark::single::{measure, traced_build, Measurement, Options};
use rtr_benchmark::spans::Recorder;
use rtr_benchmark::workloads::{run_repeat, Scale, Workload};

fn smoke(workload: Workload, seed: u64) -> Measurement {
    let options = Options {
        workload,
        seed,
        seconds: 0.05,
        trace: traced_build(),
        untraced_exe: None,
        scale: Scale::Smoke,
    };
    measure(&options).expect("the build matches the mode")
}

fn digest(measurement: &Measurement) -> String {
    measurement.detail.get("sim_digest").and_then(Json::as_str).expect("digest").to_string()
}

#[test]
fn every_workload_runs_and_passes_its_checks() {
    for workload in Workload::ALL {
        let m = smoke(workload, 42);
        let failures = m.detail.get("failures").cloned();
        assert!(m.correct, "{}: {failures:?}", workload.name());
        assert_eq!(m.failed, 0, "{}: {failures:?}", workload.name());
        assert!(m.attempted >= 1);
        assert_eq!(m.detail.get("scale").and_then(Json::as_str), Some("smoke"));
        // The emitted names are exactly the manifest's, in order.
        let emitted: Vec<(&str, &str)> = m.metrics.iter().map(|x| (x.name, x.unit)).collect();
        let declared: Vec<(&str, &str)> = if traced_build() {
            PER_LAYER.to_vec()
        } else {
            END_TO_END.iter().map(|&(name, unit, _)| (name, unit)).collect()
        };
        assert_eq!(emitted, declared, "{}", workload.name());
        assert!(m.metrics.iter().all(|x| x.value.is_finite()), "{}", workload.name());
        if !traced_build() {
            assert!(
                m.metrics.iter().all(|x| x.value > 0.0),
                "{}: {:?}",
                workload.name(),
                m.metrics
            );
        } else {
            // Defined for the dense mixed node-cycle, n/a (0) elsewhere.
            let ratio = m.metrics.iter().find(|x| x.name == "mesh.dense_over_router_ratio");
            let ratio = ratio.expect("declared").value;
            assert_eq!(ratio > 0.0, workload == Workload::DenseMixed, "{}", workload.name());
        }
    }
}

#[test]
fn discarded_set_ups_leave_no_admission_samples() {
    for workload in Workload::ALL {
        let [once, thrice] = [1, 3].map(|setups| {
            run_repeat(workload, Scale::Smoke, 42, setups, &mut Recorder::new(false))
        });
        assert_eq!(thrice.setup_ns.len(), 3);
        assert_eq!(once.establish_us.len(), thrice.establish_us.len(), "{}", workload.name());
        assert_eq!(once.reject_us.len(), thrice.reject_us.len(), "{}", workload.name());
        assert_eq!(once.digest, thrice.digest, "{}", workload.name());
    }
}

#[test]
fn the_digest_is_a_function_of_the_seed() {
    for workload in Workload::ALL {
        let (a, b, c) = (smoke(workload, 7), smoke(workload, 7), smoke(workload, 8));
        assert_eq!(digest(&a), digest(&b), "{}: same seed, same outputs", workload.name());
        assert_ne!(digest(&a), digest(&c), "{}: another seed, other outputs", workload.name());
    }
}

#[test]
fn the_result_line_has_exactly_the_contract_keys() {
    let m = smoke(Workload::AdmitStorm, 42);
    let line = json::parse(&m.result_line()).expect("valid JSON");
    let keys: Vec<&str> = line.as_object().unwrap().iter().map(|(k, _)| k.as_str()).collect();
    assert_eq!(keys, ["correct", "attempted", "failed", "metrics"]);
    for (_, metric) in line.get("metrics").unwrap().as_object().unwrap() {
        let keys: Vec<&str> = metric.as_object().unwrap().iter().map(|(k, _)| k.as_str()).collect();
        assert_eq!(keys, ["value", "unit"]);
    }
}

#[test]
fn benchmark_json_declares_what_the_crate_emits() {
    let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
    let file = json::parse(&std::fs::read_to_string(path).expect("BENCHMARK.json")).unwrap();
    let keys: Vec<&str> = file.as_object().unwrap().iter().map(|(k, _)| k.as_str()).collect();
    assert_eq!(keys, ["command", "paths", "run_seconds", "workloads", "end_to_end", "per_layer"]);
    // `run` and `trace` measure each process for as long as the driver does.
    assert_eq!(
        file.get("run_seconds").and_then(Json::as_f64),
        Some(Scale::Full.seconds_per_process())
    );

    let names = |key: &str| -> Vec<String> {
        file.get(key)
            .and_then(Json::as_array)
            .unwrap()
            .iter()
            .map(|row| row.get("name").and_then(Json::as_str).unwrap().to_string())
            .collect()
    };
    assert_eq!(names("workloads"), Workload::ALL.map(|w| w.name().to_string()));

    let rows = file.get("end_to_end").and_then(Json::as_array).unwrap();
    assert_eq!(rows.len(), END_TO_END.len());
    for (row, (name, unit, bound)) in rows.iter().zip(END_TO_END) {
        assert_eq!(row.get("name").and_then(Json::as_str), Some(name));
        assert_eq!(row.get("unit").and_then(Json::as_str), Some(unit));
        assert_eq!(row.get("better").and_then(Json::as_str), Some("lower"));
        assert_eq!(row.get("bound").and_then(Json::as_f64), Some(bound), "{name}");
    }
    let rows = file.get("per_layer").and_then(Json::as_array).unwrap();
    assert_eq!(rows.len(), PER_LAYER.len());
    for (row, (name, unit)) in rows.iter().zip(PER_LAYER) {
        assert_eq!(row.get("name").and_then(Json::as_str), Some(name));
        assert_eq!(row.get("unit").and_then(Json::as_str), Some(unit), "{name}");
    }
}
