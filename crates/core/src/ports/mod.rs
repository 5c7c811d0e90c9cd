//! The router kit (paper §3, Figure 2): the port state machines every
//! router in the workspace is assembled from.
//!
//! * [`input`] — the per-link input port (both virtual channels) and the
//!   [`PortTiming`] its router stores once for all five,
//! * [`WormholeChannel`] — the best-effort channel across all five ports,
//! * [`output`] — the time-constrained link serialiser and the real-time
//!   router's grant pipeline,
//! * [`WakePolls`] — the `next_event` poll counters.

use std::cell::Cell;

use rtr_types::chip::WakeStats;
use rtr_types::time::Cycle;

mod channel;
pub mod input;
pub mod output;

pub use channel::{BeReassembler, BeSent, WormholeChannel};
pub use input::{AbortedRx, BePush, InputPort, PortTiming};
pub use output::{OutputPort, Serialiser};

/// Wake-precision counters of a chip's `next_event` answers (see
/// [`WakeStats`]). A `Cell` because polling takes `&self`; kept out of the
/// chip's statistics because drive modes poll at different rates.
#[derive(Debug, Default)]
pub struct WakePolls(Cell<WakeStats>);

impl WakePolls {
    fn update(&self, f: impl FnOnce(&mut WakeStats)) {
        let mut stats = self.0.get();
        f(&mut stats);
        self.0.set(stats);
    }

    /// The counters so far.
    #[must_use]
    pub fn snapshot(&self) -> WakeStats {
        self.0.get()
    }

    /// Counts a poll answered short: the chip needs its next tick.
    pub fn short(&self, now: Cycle) -> Option<Cycle> {
        self.answer(now, Some(now))
    }

    /// Counts a poll and answers it with the earliest wake the chip found;
    /// anything at or before `now + 1` is the (counted) short answer.
    pub fn answer(&self, now: Cycle, wake: Option<Cycle>) -> Option<Cycle> {
        let short = wake.is_some_and(|at| at <= now + 1);
        self.update(|s| {
            s.polls += 1;
            s.short_polls += u64::from(short);
        });
        short.then_some(now + 1).or(wake)
    }
}
