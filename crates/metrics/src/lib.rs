//! Unified observability for the real-time router reproduction: a metrics
//! registry, a simulator phase profiler, and a crash-dump flight recorder.
//!
//! Everything here is built around one discipline: **observability must not
//! tax the datapath it observes**. The crate compiles to two shapes:
//!
//! - With the `metrics` feature, [`MetricsRegistry`], [`PhaseProfiler`], and
//!   [`FlightRecorder`] are real: `Cell`-based counters/gauges/log₂
//!   histograms with deterministic snapshot order, wall-clock attribution
//!   per simulator phase, and a bounded ring of recent events dumped as
//!   JSONL on conservation failures or panics.
//! - Without it (the default), every one of those types is a zero-sized
//!   struct whose methods are empty `#[inline]` bodies, so hot structs that
//!   embed them grow by zero bytes and call sites compile to nothing — the
//!   same contract as the router's packet tracing (`rtr_types::trace`),
//!   which the root and `rtr-bench` `metrics` features switch on with
//!   this crate's.
//!
//! [`MetricsSnapshot`] (and its JSONL rendering) is compiled in both shapes
//! so export surfaces and parsers never need feature gates; a disabled
//! registry simply snapshots to an empty set.

#![forbid(unsafe_code)]

pub mod flight;
pub mod profile;
pub mod registry;
pub mod snapshot;

pub use flight::{FlightEvent, FlightGuard, FlightRecorder};
pub use profile::{Phase, PhaseProfiler, PhaseToken};
pub use registry::{CounterId, GaugeId, HistogramId, MetricsRegistry};
pub use snapshot::{HistogramSnapshot, MetricLine, MetricValue, MetricsSnapshot};

#[cfg(test)]
mod size_tests {
    //! The overhead guardrail: the disabled path must be size-zero so the
    //! simulator and routers can embed these types unconditionally.
    #![allow(unused_imports)]
    use super::*;

    #[cfg(not(feature = "metrics"))]
    #[test]
    fn disabled_types_are_zero_sized() {
        assert_eq!(std::mem::size_of::<MetricsRegistry>(), 0);
        assert_eq!(std::mem::size_of::<PhaseProfiler>(), 0);
        assert_eq!(std::mem::size_of::<FlightRecorder>(), 0);
        assert_eq!(std::mem::size_of::<CounterId>(), 0);
        assert_eq!(std::mem::size_of::<GaugeId>(), 0);
        assert_eq!(std::mem::size_of::<HistogramId>(), 0);
        assert_eq!(std::mem::size_of::<PhaseToken>(), 0);
    }

    #[cfg(not(feature = "metrics"))]
    #[test]
    fn disabled_registry_snapshots_empty() {
        let reg = MetricsRegistry::new();
        let c = reg.counter("sim.ticks");
        reg.inc(c, 5);
        assert!(reg.snapshot().is_empty());
    }

    #[cfg(feature = "metrics")]
    #[test]
    fn enabled_registry_is_live() {
        let reg = MetricsRegistry::new();
        let c = reg.counter("sim.ticks");
        reg.inc(c, 5);
        assert_eq!(reg.snapshot().counter("sim.ticks"), Some(5));
    }
}
