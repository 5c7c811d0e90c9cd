//! Best-effort traffic sources.

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use rtr_mesh::source::TrafficSource;
use rtr_mesh::topology::Topology;
use rtr_types::chip::InjectQueues;
use rtr_types::ids::NodeId;
use rtr_types::packet::{BePacket, PacketTrace, Payload};
use rtr_types::time::Cycle;

use crate::patterns::TrafficPattern;

/// A source that keeps a constant backlog of best-effort packets to one
/// destination — the "best-effort consumes any excess bandwidth" load of
/// Figure 7.
#[derive(Debug)]
pub struct BackloggedBeSource {
    destination: NodeId,
    offsets: (i8, i8),
    payload: Payload,
    queue_depth: usize,
    sequence: u64,
}

impl BackloggedBeSource {
    /// Creates a source sending `packet_bytes`-payload packets from `src`
    /// to `dst`, keeping `queue_depth` packets queued for injection.
    #[must_use]
    pub fn new(
        topo: &Topology,
        src: NodeId,
        dst: NodeId,
        packet_bytes: usize,
        queue_depth: usize,
    ) -> Self {
        BackloggedBeSource {
            destination: dst,
            offsets: topo.be_offsets(src, dst),
            // One shared payload for the whole run: injection clones the
            // reference count, never the bytes.
            payload: vec![0xBE; packet_bytes].into(),
            queue_depth: queue_depth.max(1),
            sequence: 0,
        }
    }

    /// Packets injected so far.
    #[must_use]
    pub fn injected(&self) -> u64 {
        self.sequence
    }
}

impl TrafficSource for BackloggedBeSource {
    fn pre_cycle(&mut self, now: Cycle, node: NodeId, io: &mut InjectQueues) {
        while io.inject_be.len() < self.queue_depth {
            let trace = PacketTrace {
                source: node,
                destination: self.destination,
                sequence: self.sequence,
                injected_at: now,
                ..PacketTrace::default()
            };
            io.inject_be.push_back(BePacket::new(
                self.offsets.0,
                self.offsets.1,
                self.payload.clone(),
                trace,
            ));
            self.sequence += 1;
        }
    }
}

/// Payload-size distribution for random sources.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum SizeDist {
    /// Every packet has the same payload size.
    Fixed(usize),
    /// Uniformly random payload size in `[lo, hi]`.
    Uniform(usize, usize),
}

impl SizeDist {
    fn sample(&self, rng: &mut StdRng) -> usize {
        match *self {
            SizeDist::Fixed(n) => n,
            SizeDist::Uniform(lo, hi) => rng.gen_range(lo..=hi),
        }
    }
}

/// A seeded Bernoulli source: each cycle, with probability `rate`, queue one
/// packet to a pattern-chosen destination.
///
/// `rate × mean_packet_bytes` is the offered load in bytes per cycle (link
/// bandwidth is 1 byte per cycle).
#[derive(Debug)]
pub struct RandomBeSource {
    topo: Topology,
    pattern: TrafficPattern,
    rate: f64,
    size: SizeDist,
    /// Shared payload for `SizeDist::Fixed` sources; variable-size sources
    /// must allocate per packet.
    template: Option<Payload>,
    max_queue: usize,
    rng: StdRng,
    sequence: u64,
}

impl RandomBeSource {
    /// Creates a seeded random source.
    ///
    /// # Panics
    ///
    /// Panics if `rate` is not within `[0, 1]`.
    #[must_use]
    pub fn new(
        topo: Topology,
        pattern: TrafficPattern,
        rate: f64,
        size: SizeDist,
        seed: u64,
    ) -> Self {
        assert!((0.0..=1.0).contains(&rate), "rate must be a probability");
        let template = match size {
            SizeDist::Fixed(n) => Some(vec![0xDA; n].into()),
            SizeDist::Uniform(..) => None,
        };
        RandomBeSource {
            topo,
            pattern,
            rate,
            size,
            template,
            max_queue: 64,
            rng: StdRng::seed_from_u64(seed),
            sequence: 0,
        }
    }

    /// Caps the injection queue (back-pressure on the generator).
    #[must_use]
    pub fn with_max_queue(mut self, max_queue: usize) -> Self {
        self.max_queue = max_queue.max(1);
        self
    }
}

impl TrafficSource for RandomBeSource {
    fn pre_cycle(&mut self, now: Cycle, node: NodeId, io: &mut InjectQueues) {
        if io.inject_be.len() >= self.max_queue || !self.rng.gen_bool(self.rate) {
            return;
        }
        let dst = self.pattern.pick(&mut self.rng, &self.topo, node);
        let (x, y) = self.topo.be_offsets(node, dst);
        let payload = match &self.template {
            Some(p) => p.clone(),
            None => vec![0xDA; self.size.sample(&mut self.rng)].into(),
        };
        let trace = PacketTrace {
            source: node,
            destination: dst,
            sequence: self.sequence,
            injected_at: now,
            ..PacketTrace::default()
        };
        io.inject_be.push_back(BePacket::new(x, y, payload, trace));
        self.sequence += 1;
    }

    fn next_event(&self, now: Cycle) -> Option<Cycle> {
        // A Bernoulli source draws its RNG every cycle, so skipping cycles
        // would desynchronise the random stream — unless the rate is zero,
        // in which case every draw rejects and the skipped draws are
        // unobservable.
        (self.rate > 0.0).then_some(now + 1)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn backlogged_source_tops_up_queue() {
        let topo = Topology::mesh(2, 1);
        let mut src = BackloggedBeSource::new(&topo, NodeId(0), NodeId(1), 32, 2);
        let mut io = InjectQueues::default();
        src.pre_cycle(0, NodeId(0), &mut io);
        assert_eq!(io.inject_be.len(), 2);
        io.inject_be.pop_front();
        src.pre_cycle(1, NodeId(0), &mut io);
        assert_eq!(io.inject_be.len(), 2);
        assert_eq!(src.injected(), 3);
        assert_eq!(io.inject_be[0].header.x_off, 1);
    }

    #[test]
    fn random_source_rate_is_roughly_honoured() {
        let topo = Topology::mesh(4, 4);
        let mut src =
            RandomBeSource::new(topo, TrafficPattern::Uniform, 0.25, SizeDist::Fixed(16), 42)
                .with_max_queue(100_000);
        let mut io = InjectQueues::default();
        for now in 0..10_000 {
            src.pre_cycle(now, NodeId(5), &mut io);
        }
        let n = io.inject_be.len() as f64;
        assert!((n - 2500.0).abs() < 200.0, "generated {n} packets at rate 0.25");
    }

    #[test]
    fn random_source_respects_queue_cap() {
        let topo = Topology::mesh(2, 2);
        let mut src =
            RandomBeSource::new(topo, TrafficPattern::Uniform, 1.0, SizeDist::Uniform(1, 8), 1)
                .with_max_queue(5);
        let mut io = InjectQueues::default();
        for now in 0..100 {
            src.pre_cycle(now, NodeId(0), &mut io);
        }
        assert_eq!(io.inject_be.len(), 5);
    }

    #[test]
    fn random_source_is_deterministic_per_seed() {
        let topo = Topology::mesh(3, 3);
        let run = |seed| {
            let mut src = RandomBeSource::new(
                topo.clone(),
                TrafficPattern::Uniform,
                0.5,
                SizeDist::Uniform(4, 64),
                seed,
            );
            let mut io = InjectQueues::default();
            for now in 0..200 {
                src.pre_cycle(now, NodeId(0), &mut io);
            }
            io.inject_be.iter().map(|p| (p.trace.destination, p.payload.len())).collect::<Vec<_>>()
        };
        assert_eq!(run(9), run(9));
        assert_ne!(run(9), run(10));
    }
}
