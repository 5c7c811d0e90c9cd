//! The traffic-source interface.
//!
//! A [`TrafficSource`] is a node's host: it runs before the chip ticks, on
//! every cycle it has not promised to sit out (see
//! [`TrafficSource::next_event`]), and reaches the chip only through the
//! node's [`InjectQueues`]. Implementations live in `rtr_workloads`; tests
//! and examples can use closures via [`FnSource`].

use rtr_types::chip::InjectQueues;
use rtr_types::ids::NodeId;
use rtr_types::time::Cycle;

/// A per-node traffic generator.
pub trait TrafficSource {
    /// Runs before the node's chip ticks at `now`; may inspect the queues
    /// and push injections.
    fn pre_cycle(&mut self, now: Cycle, node: NodeId, io: &mut InjectQueues);

    /// The earliest cycle strictly after `now` at which this source may
    /// inject (or otherwise change state), assuming it last ran at `now`.
    /// `None` means the source is exhausted and will never inject again.
    ///
    /// The answer is a promise: the simulator does not call `pre_cycle`
    /// again before that cycle (and leaps over cycles only when every
    /// source's next event is in the future). Sources
    /// that consult a random-number generator or their injection queue every
    /// cycle must keep the conservative default `Some(now + 1)`, which runs
    /// them cycle by cycle.
    fn next_event(&self, now: Cycle) -> Option<Cycle> {
        Some(now + 1)
    }
}

/// Wraps a closure as a traffic source.
pub struct FnSource<F>(pub F);

impl<F: FnMut(Cycle, NodeId, &mut InjectQueues)> TrafficSource for FnSource<F> {
    fn pre_cycle(&mut self, now: Cycle, node: NodeId, io: &mut InjectQueues) {
        (self.0)(now, node, io);
    }
}

impl<F> std::fmt::Debug for FnSource<F> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str("FnSource")
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rtr_types::packet::{BePacket, PacketTrace};

    #[test]
    fn fn_source_injects() {
        let mut source = FnSource(|now: Cycle, _node: NodeId, io: &mut InjectQueues| {
            if now == 3 {
                io.inject_be.push_back(BePacket::new(0, 0, vec![], PacketTrace::default()));
            }
        });
        let mut io = InjectQueues::default();
        for now in 0..5 {
            source.pre_cycle(now, NodeId(0), &mut io);
        }
        assert_eq!(io.inject_be.len(), 1);
    }
}
