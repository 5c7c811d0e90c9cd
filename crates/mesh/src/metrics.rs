//! The simulator's metrics bundle: counter registry + phase profiler.
//!
//! [`SimMetrics`] groups everything the simulator carries for
//! observability, so `sim.rs` holds one field. With the `metrics` feature
//! off every member is a zero-sized no-op (checked by a unit test below),
//! so the bundle adds no bytes to `Simulator` and call sites compile out.

use rtr_metrics::{CounterId, MetricsRegistry, PhaseProfiler};

/// Pre-registered ids for the simulator's own hot-path metrics.
///
/// Ids are zero-sized when the feature is off, so this struct always has
/// the same shape and call sites never need gates.
#[derive(Debug)]
pub(crate) struct SimIds {
    /// `sim.stale_repolls`: the chips the first cycle polls before their
    /// tick, because the fresh wake record holds no wake for them: every
    /// chip, once per simulator (no link, and no source: its `due` is its
    /// only wake).
    pub stale_repolls: CounterId,
    /// `sim.leaps`: number of quiet spans skipped.
    pub leaps: CounterId,
    /// `sim.leaped_cycles`: total cycles skipped by leaping.
    pub leaped_cycles: CounterId,
    /// `sim.link_visits`: links visited (arrivals, emission) by the pre phase.
    pub link_visits: CounterId,
    /// `sim.io_visits`: `ChipIo`s walked by the post phase.
    pub io_visits: CounterId,
}

/// Everything the simulator carries for observability.
#[derive(Debug)]
pub(crate) struct SimMetrics {
    /// The counter registry.
    pub registry: MetricsRegistry,
    /// Wall-clock attribution per drive phase.
    pub profiler: PhaseProfiler,
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
            link_visits: registry.counter("sim.link_visits"),
            io_visits: registry.counter("sim.io_visits"),
        };
        SimMetrics { registry, profiler: PhaseProfiler::new(), ids }
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
