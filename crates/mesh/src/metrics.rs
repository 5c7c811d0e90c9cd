//! The simulator's metrics bundle: registry + profiler + flight recorder.
//!
//! [`SimMetrics`] groups everything the simulator carries for
//! observability, so `sim.rs` holds one field and the `metrics` feature
//! gates live here. With the feature off every member is a zero-sized
//! no-op (checked by a unit test below), so the bundle adds no bytes to
//! `Simulator` and call sites compile out.

use std::path::PathBuf;

use rtr_metrics::{CounterId, FlightRecorder, HistogramId, MetricsRegistry, PhaseProfiler};

/// Pre-registered ids for the simulator's own hot-path metrics.
///
/// Ids are zero-sized when the feature is off, so this struct always has
/// the same shape and call sites never need gates.
#[derive(Debug)]
pub(crate) struct SimIds {
    /// `sim.stale_repolls`: components re-polled by full prime passes.
    pub stale_repolls: CounterId,
    /// `sim.leaps`: number of quiet spans skipped.
    pub leaps: CounterId,
    /// `sim.leaped_cycles`: total cycles skipped by leaping.
    pub leaped_cycles: CounterId,
    /// `sim.leap_cycles`: log2 histogram of individual leap lengths.
    pub leap_len: HistogramId,
    /// `sim.link_visits`: links polled for arrivals by the pre phase.
    pub link_visits: CounterId,
    /// `sim.io_visits`: `ChipIo`s walked by the post phase.
    pub io_visits: CounterId,
}

/// Everything the simulator carries for observability.
#[derive(Debug)]
pub(crate) struct SimMetrics {
    /// The unified counter/gauge/histogram registry.
    pub registry: MetricsRegistry,
    /// Wall-clock attribution per drive phase.
    pub profiler: PhaseProfiler,
    #[cfg(feature = "metrics")]
    recorder: Option<FlightRecorder>,
    /// Pre-registered ids for hot-path increments.
    pub ids: SimIds,
}

impl SimMetrics {
    pub fn new() -> Self {
        let registry = MetricsRegistry::new();
        let ids = SimIds {
            stale_repolls: registry.counter("sim.stale_repolls"),
            leaps: registry.counter("sim.leaps"),
            leaped_cycles: registry.counter("sim.leaped_cycles"),
            leap_len: registry.histogram("sim.leap_cycles"),
            link_visits: registry.counter("sim.link_visits"),
            io_visits: registry.counter("sim.io_visits"),
        };
        SimMetrics {
            registry,
            profiler: PhaseProfiler::new(),
            #[cfg(feature = "metrics")]
            recorder: None,
            ids,
        }
    }

    /// The armed flight recorder, if any (always `None` with the feature
    /// off, which dead-code-eliminates recording blocks).
    #[inline]
    pub fn recorder(&self) -> Option<&FlightRecorder> {
        #[cfg(feature = "metrics")]
        {
            self.recorder.as_ref()
        }
        #[cfg(not(feature = "metrics"))]
        {
            None
        }
    }

    /// Arms a flight recorder with a ring of `cap` events dumping to
    /// `path`. No-op without the `metrics` feature.
    pub fn arm_recorder(&mut self, cap: usize, path: PathBuf) {
        #[cfg(feature = "metrics")]
        {
            let recorder = FlightRecorder::new(cap);
            recorder.set_dump_path(path);
            self.recorder = Some(recorder);
        }
        #[cfg(not(feature = "metrics"))]
        {
            let _ = (cap, path);
        }
    }
}

#[cfg(all(test, not(feature = "metrics")))]
mod size_tests {
    use super::SimMetrics;

    /// The whole bundle must vanish from `Simulator` when the feature is
    /// off — any stray non-ZST member would show up here.
    #[test]
    fn disabled_bundle_is_zero_sized() {
        assert_eq!(std::mem::size_of::<SimMetrics>(), 0);
    }
}
