//! Connection-churn workloads: seeded Poisson arrivals of short-lived
//! channels.
//!
//! The live control plane (`rtr_channels::control_plane`) needs a traffic
//! model where channels come and go while the mesh runs. This module
//! provides the *schedule* half: a deterministic, seed-reproducible list of
//! [`ChurnEvent`]s — establishment times drawn from a Poisson process
//! (exponential inter-arrivals), lifetimes drawn from a shifted exponential
//! — plus [`WindowedSource`], an adaptor that confines any inner
//! [`TrafficSource`] to its channel's `[start, stop)` lifetime so the
//! driver can pre-register sources for connections that do not exist yet.
//!
//! The schedule is generated up front from the seed alone (no simulation
//! feedback), which is what makes both drive modes byte-identical: every
//! mode sees the same establishment requests at the same cycles.

use rand::rngs::StdRng;
use rand::{Rng, RngCore, SeedableRng};
use rtr_mesh::source::TrafficSource;
use rtr_mesh::topology::Topology;
use rtr_types::chip::ChipIo;
use rtr_types::ids::NodeId;
use rtr_types::time::Cycle;

/// Parameters of a Poisson churn schedule.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ChurnConfig {
    /// RNG seed; the whole schedule is a pure function of it.
    pub seed: u64,
    /// Establishment attempts to generate.
    pub arrivals: usize,
    /// Mean inter-arrival gap between establishment attempts, in slots
    /// (the Poisson process rate is its reciprocal).
    pub mean_interarrival_slots: f64,
    /// Mean channel lifetime in slots (exponential, shifted by the
    /// minimum).
    pub mean_lifetime_slots: f64,
    /// Floor on lifetimes, in slots — a channel always lives long enough
    /// to carry at least one message.
    pub min_lifetime_slots: u64,
}

impl Default for ChurnConfig {
    fn default() -> Self {
        ChurnConfig {
            seed: 0xC0DE,
            arrivals: 64,
            mean_interarrival_slots: 32.0,
            mean_lifetime_slots: 256.0,
            min_lifetime_slots: 64,
        }
    }
}

/// One scheduled short-lived connection.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ChurnEvent {
    /// Slot at which the establishment request is issued.
    pub start_slot: u64,
    /// Slots between establishment and the teardown request.
    pub lifetime_slots: u64,
    /// Source node.
    pub src: NodeId,
    /// Destination node (always distinct from `src`).
    pub dst: NodeId,
}

impl ChurnEvent {
    /// Slot at which the teardown request is issued.
    #[must_use]
    pub fn stop_slot(&self) -> u64 {
        self.start_slot + self.lifetime_slots
    }
}

/// Draws one exponential variate with the given mean (slots), via
/// inversion from the generator's 53-bit uniform.
fn exponential(rng: &mut StdRng, mean: f64) -> f64 {
    // u ∈ [0, 1); ln(1 − u) is finite because 1 − u > 0.
    let u = (rng.next_u64() >> 11) as f64 * (1.0 / (1u64 << 53) as f64);
    -mean * (1.0 - u).ln()
}

/// Generates the deterministic churn schedule for a mesh: `arrivals`
/// establishment attempts at Poisson times, each with an exponential
/// lifetime and a uniformly random distinct source/destination pair.
///
/// Events are returned sorted by `start_slot`.
///
/// # Panics
///
/// Panics if the topology has fewer than two nodes (no distinct pair
/// exists) or a mean parameter is not positive.
#[must_use]
pub fn churn_schedule(config: &ChurnConfig, topo: &Topology) -> Vec<ChurnEvent> {
    let nodes = u64::from(topo.width()) * u64::from(topo.height());
    assert!(nodes >= 2, "churn needs at least two nodes");
    assert!(
        config.mean_interarrival_slots > 0.0 && config.mean_lifetime_slots > 0.0,
        "mean parameters must be positive"
    );
    let mut rng = StdRng::seed_from_u64(config.seed);
    let mut at = 0.0_f64;
    let mut events = Vec::with_capacity(config.arrivals);
    for _ in 0..config.arrivals {
        at += exponential(&mut rng, config.mean_interarrival_slots);
        let lifetime =
            config.min_lifetime_slots + exponential(&mut rng, config.mean_lifetime_slots) as u64;
        let src = NodeId(rng.gen_range(0..nodes as u16));
        let dst = loop {
            let d = NodeId(rng.gen_range(0..nodes as u16));
            if d != src {
                break d;
            }
        };
        events.push(ChurnEvent { start_slot: at as u64, lifetime_slots: lifetime, src, dst });
    }
    events
}

/// Confines an inner source to a `[start, stop)` cycle window.
///
/// Outside the window the source is silent and (after `stop`) exhausted,
/// so the simulator can leap over it entirely; before `start`
/// its next event is the window opening. The driver uses this to register
/// a churned channel's sender at build time while the channel itself is
/// only established mid-run.
#[derive(Debug)]
pub struct WindowedSource<S> {
    inner: S,
    start: Cycle,
    stop: Cycle,
}

impl<S> WindowedSource<S> {
    /// Wraps `inner`, active on cycles `start..stop`.
    #[must_use]
    pub fn new(inner: S, start: Cycle, stop: Cycle) -> Self {
        WindowedSource { inner, start, stop: stop.max(start) }
    }

    /// The wrapped source.
    #[must_use]
    pub fn inner(&self) -> &S {
        &self.inner
    }
}

impl<S: TrafficSource> TrafficSource for WindowedSource<S> {
    fn pre_cycle(&mut self, now: Cycle, node: NodeId, io: &mut ChipIo) {
        if now >= self.start && now < self.stop {
            self.inner.pre_cycle(now, node, io);
        }
    }

    fn next_event(&self, now: Cycle) -> Option<Cycle> {
        if now >= self.stop.saturating_sub(1) {
            return None;
        }
        if now < self.start {
            return Some(self.start.max(now + 1));
        }
        // Inside the window: the inner source's own event, capped at the
        // window close (an exhausted inner source stays silent until then).
        let close = self.stop.saturating_sub(1).max(now + 1);
        Some(self.inner.next_event(now).map_or(close, |e| e.min(close)))
    }

    fn counters(&self, emit: &mut dyn FnMut(&'static str, u64)) {
        self.inner.counters(emit);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rtr_mesh::source::FnSource;

    #[test]
    fn schedule_is_deterministic_and_sorted() {
        let topo = Topology::mesh(4, 4);
        let config = ChurnConfig { seed: 42, arrivals: 50, ..ChurnConfig::default() };
        let a = churn_schedule(&config, &topo);
        let b = churn_schedule(&config, &topo);
        assert_eq!(a, b, "same seed, same schedule");
        assert_eq!(a.len(), 50);
        for w in a.windows(2) {
            assert!(w[0].start_slot <= w[1].start_slot, "sorted by start");
        }
        for e in &a {
            assert_ne!(e.src, e.dst);
            assert!(e.lifetime_slots >= config.min_lifetime_slots);
        }
        let c = churn_schedule(&ChurnConfig { seed: 43, ..config }, &topo);
        assert_ne!(a, c, "different seed, different schedule");
    }

    #[test]
    fn schedule_tracks_the_configured_rates() {
        let topo = Topology::mesh(8, 8);
        let config = ChurnConfig {
            seed: 7,
            arrivals: 2000,
            mean_interarrival_slots: 20.0,
            mean_lifetime_slots: 100.0,
            min_lifetime_slots: 10,
        };
        let events = churn_schedule(&config, &topo);
        let span = events.last().unwrap().start_slot as f64;
        let mean_gap = span / events.len() as f64;
        assert!((15.0..25.0).contains(&mean_gap), "mean inter-arrival {mean_gap}");
        let mean_life =
            events.iter().map(|e| e.lifetime_slots as f64).sum::<f64>() / events.len() as f64;
        assert!((90.0..130.0).contains(&mean_life), "mean lifetime {mean_life}");
    }

    #[test]
    fn windowed_source_fires_only_inside_its_window() {
        let mut fired = Vec::new();
        let probe = FnSource(|now: Cycle, _n: NodeId, _io: &mut ChipIo| {
            fired.push(now);
        });
        {
            let mut src = WindowedSource::new(probe, 10, 20);
            let mut io = ChipIo::new();
            for now in 0..30 {
                src.pre_cycle(now, NodeId(0), &mut io);
            }
        }
        assert_eq!(fired, (10..20).collect::<Vec<_>>());
    }

    #[test]
    fn windowed_next_event_respects_the_window() {
        let probe = FnSource(|_: Cycle, _: NodeId, _: &mut ChipIo| {});
        let src = WindowedSource::new(probe, 100, 200);
        // Before the window: wake exactly at the opening.
        assert_eq!(src.next_event(0), Some(100));
        // Inside: the inner default (now + 1), capped at the close.
        assert_eq!(src.next_event(150), Some(151));
        assert_eq!(src.next_event(198), Some(199), "cycle 199 is the last active one");
        assert_eq!(src.next_event(199), None, "nothing after the last active cycle");
        // After: exhausted.
        assert_eq!(src.next_event(500), None);
    }
}
