//! The phase profiler: wall-clock attribution per simulator drive phase.
//!
//! The simulator brackets each phase of its cycle loop with
//! [`PhaseProfiler::start`]/[`PhaseProfiler::stop`]; phases are placed so
//! they never nest, making accumulated time per phase *self* time. The
//! profiler is off by default even when compiled in (`Instant::now` twice
//! per phase is real cost); [`PhaseProfiler::set_enabled`] turns it on for
//! attribution runs, and a disabled `start` is a single predictable branch.
//!
//! Without the `metrics` feature the profiler is a zero-sized no-op.

/// One phase of the simulator's drive loop.
///
/// The enum is compiled regardless of the feature so call sites never need
/// gates. Variants map to the phases named in the bench reports:
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Phase {
    /// Pre-tick work: source injection, link delivery into `rx`.
    LinkPre,
    /// The chip-tick loop, including each ticked chip's wake registration.
    SerialTick,
    /// Post-tick work: collecting `tx`, credits, delivery drain.
    LinkPost,
    /// Wake-queue pop and due-list marking.
    WheelPop,
    /// Re-polling dirty components' `next_event` after a tick.
    Repoll,
    /// Leap planning: the agenda clamp and `next_wake` horizon checks.
    LeapPlan,
    /// Applying a leap: moving the clock across the quiet span.
    LeapApply,
}

impl Phase {
    /// Every phase, in report order.
    pub const ALL: [Phase; 7] = [
        Phase::LinkPre,
        Phase::SerialTick,
        Phase::LinkPost,
        Phase::WheelPop,
        Phase::Repoll,
        Phase::LeapPlan,
        Phase::LeapApply,
    ];

    /// Stable snake_case name used in metric names and JSON columns.
    #[must_use]
    pub fn name(self) -> &'static str {
        match self {
            Phase::LinkPre => "link_pre",
            Phase::SerialTick => "serial_tick",
            Phase::LinkPost => "link_post",
            Phase::WheelPop => "wheel_pop",
            Phase::Repoll => "repoll",
            Phase::LeapPlan => "leap_plan",
            Phase::LeapApply => "leap_apply",
        }
    }

    #[cfg(feature = "metrics")]
    fn index(self) -> usize {
        self as usize
    }
}

/// Accumulated self-time of one phase.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct PhaseLine {
    /// Which phase.
    pub phase: Phase,
    /// Total self-time in nanoseconds.
    pub ns: u64,
    /// Number of start/stop brackets recorded.
    pub calls: u64,
}

#[cfg(feature = "metrics")]
mod enabled {
    use std::cell::Cell;
    use std::time::Instant;

    use super::{Phase, PhaseLine};

    /// An in-flight phase measurement (`None` when profiling is off).
    #[derive(Debug)]
    pub struct PhaseToken(Option<Instant>);

    /// Wall-clock accumulator per [`Phase`]. See the module docs.
    #[derive(Debug, Default)]
    pub struct PhaseProfiler {
        enabled: Cell<bool>,
        ns: [Cell<u64>; Phase::ALL.len()],
        calls: [Cell<u64>; Phase::ALL.len()],
    }

    impl PhaseProfiler {
        /// A fresh profiler, disabled until [`PhaseProfiler::set_enabled`].
        #[must_use]
        pub fn new() -> Self {
            PhaseProfiler::default()
        }

        /// Turns measurement on or off.
        pub fn set_enabled(&self, on: bool) {
            self.enabled.set(on);
        }

        /// Whether measurement is on.
        #[must_use]
        pub fn enabled(&self) -> bool {
            self.enabled.get()
        }

        /// Opens a measurement bracket (cheap no-op token when disabled).
        #[inline]
        #[must_use]
        pub fn start(&self) -> PhaseToken {
            PhaseToken(self.enabled.get().then(Instant::now))
        }

        /// Closes a bracket, attributing the elapsed time to `phase`.
        #[inline]
        pub fn stop(&self, phase: Phase, token: PhaseToken) {
            if let Some(t0) = token.0 {
                let i = phase.index();
                let ns = &self.ns[i];
                ns.set(ns.get() + t0.elapsed().as_nanos() as u64);
                let calls = &self.calls[i];
                calls.set(calls.get() + 1);
            }
        }

        /// Closes a bracket for `phase` and immediately opens the next one,
        /// for back-to-back phases (one `Instant::now` instead of two).
        #[inline]
        #[must_use]
        pub fn lap(&self, phase: Phase, token: PhaseToken) -> PhaseToken {
            if let Some(t0) = token.0 {
                let now = Instant::now();
                let i = phase.index();
                let ns = &self.ns[i];
                ns.set(ns.get() + (now - t0).as_nanos() as u64);
                let calls = &self.calls[i];
                calls.set(calls.get() + 1);
                PhaseToken(Some(now))
            } else {
                PhaseToken(None)
            }
        }

        /// Accumulated self-time per phase, report order, zero rows kept.
        #[must_use]
        pub fn report(&self) -> Vec<PhaseLine> {
            Phase::ALL
                .iter()
                .map(|&phase| PhaseLine {
                    phase,
                    ns: self.ns[phase.index()].get(),
                    calls: self.calls[phase.index()].get(),
                })
                .collect()
        }

        /// The phase with the most self-time and its share of the total,
        /// `None` when nothing was recorded.
        #[must_use]
        pub fn dominant(&self) -> Option<(Phase, f64)> {
            let report = self.report();
            let total: u64 = report.iter().map(|l| l.ns).sum();
            if total == 0 {
                return None;
            }
            let top = report.iter().max_by_key(|l| l.ns)?;
            Some((top.phase, top.ns as f64 / total as f64))
        }
    }
}

#[cfg(not(feature = "metrics"))]
mod disabled {
    use super::{Phase, PhaseLine};

    /// Inert measurement token.
    #[derive(Debug, Default)]
    pub struct PhaseToken;

    /// Zero-sized stand-in for the profiler; every method is a no-op.
    #[derive(Debug, Default)]
    pub struct PhaseProfiler;

    impl PhaseProfiler {
        /// A fresh (inert) profiler.
        #[must_use]
        pub fn new() -> Self {
            PhaseProfiler
        }

        /// No-op.
        pub fn set_enabled(&self, _on: bool) {}

        /// Always false.
        #[must_use]
        pub fn enabled(&self) -> bool {
            false
        }

        /// No-op.
        #[inline]
        #[must_use]
        pub fn start(&self) -> PhaseToken {
            PhaseToken
        }

        /// No-op.
        #[inline]
        pub fn stop(&self, _phase: Phase, _token: PhaseToken) {}

        /// No-op.
        #[inline]
        #[must_use]
        pub fn lap(&self, _phase: Phase, _token: PhaseToken) -> PhaseToken {
            PhaseToken
        }

        /// Always empty.
        #[must_use]
        pub fn report(&self) -> Vec<PhaseLine> {
            Vec::new()
        }

        /// Always `None`.
        #[must_use]
        pub fn dominant(&self) -> Option<(Phase, f64)> {
            None
        }
    }
}

#[cfg(feature = "metrics")]
pub use enabled::{PhaseProfiler, PhaseToken};

#[cfg(not(feature = "metrics"))]
pub use disabled::{PhaseProfiler, PhaseToken};

#[cfg(all(test, feature = "metrics"))]
mod tests {
    use super::*;

    #[test]
    fn disabled_profiler_records_nothing() {
        let prof = PhaseProfiler::new();
        let t = prof.start();
        prof.stop(Phase::SerialTick, t);
        assert!(prof.report().iter().all(|l| l.ns == 0 && l.calls == 0));
        assert!(prof.dominant().is_none());
    }

    #[test]
    fn enabled_profiler_attributes_time() {
        let prof = PhaseProfiler::new();
        prof.set_enabled(true);
        let t = prof.start();
        std::hint::black_box((0..10_000).sum::<u64>());
        let t = prof.lap(Phase::SerialTick, t);
        prof.stop(Phase::LinkPost, t);
        let report = prof.report();
        let tick = report.iter().find(|l| l.phase == Phase::SerialTick).unwrap();
        assert_eq!(tick.calls, 1);
        let (dom, share) = prof.dominant().unwrap();
        assert!(matches!(dom, Phase::SerialTick | Phase::LinkPost));
        assert!(share > 0.0 && share <= 1.0);
    }
}
