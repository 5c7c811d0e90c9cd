//! Traffic generators for the router experiments.
//!
//! * [`patterns`] — spatial destination patterns (uniform, transpose,
//!   hotspot, nearest-neighbour),
//! * [`tc`] — time-constrained sources: the continually-backlogged
//!   connections of Figure 7 and periodic senders,
//! * [`be`] — best-effort sources: backlogged streams and seeded random
//!   (Bernoulli) load,
//! * [`churn`] — seeded Poisson schedules of short-lived connections for
//!   the live control plane, plus a lifetime-window source adaptor.
//!
//! All randomised sources own a seeded generator, keeping every experiment
//! reproducible.

#![warn(missing_docs)]
#![forbid(unsafe_code)]

pub mod be;
pub mod churn;
pub mod patterns;
pub mod tc;

pub use be::{BackloggedBeSource, RandomBeSource};
pub use churn::{churn_schedule, ChurnConfig, ChurnEvent, WindowedSource};
pub use patterns::TrafficPattern;
pub use tc::{BackloggedTcSource, BurstyTcSource, PeriodicTcSource};
