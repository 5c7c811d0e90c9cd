//! The metrics registry: named counters.
//!
//! All storage is `Cell`-based so the hot path increments through `&self` —
//! the same interior-mutability discipline `rtr-core`'s `WakeTelemetry`
//! uses, generalised behind names. Registration returns copyable ids;
//! increments index straight into a flat `Cell` vector (no name lookup).
//! Snapshots iterate names in sorted order, so equivalent state always
//! renders byte-identically.
//!
//! Without the `metrics` feature every type here is a zero-sized no-op.

#[cfg(feature = "metrics")]
mod enabled {
    use std::cell::{Cell, RefCell};
    use std::collections::BTreeMap;

    use crate::snapshot::MetricsSnapshot;

    /// Handle to a registered counter.
    #[derive(Debug, Clone, Copy, PartialEq, Eq)]
    pub struct CounterId(u32);

    /// The unified registry. See the module docs.
    #[derive(Debug, Default)]
    pub struct MetricsRegistry {
        names: RefCell<BTreeMap<String, u32>>,
        counters: RefCell<Vec<Cell<u64>>>,
    }

    impl MetricsRegistry {
        /// A fresh registry.
        #[must_use]
        pub fn new() -> Self {
            MetricsRegistry::default()
        }

        /// Always true: the `metrics` feature compiles the registry in.
        #[must_use]
        pub fn enabled(&self) -> bool {
            true
        }

        /// Registers (or finds) a counter by name.
        pub fn counter(&self, name: &str) -> CounterId {
            let mut names = self.names.borrow_mut();
            if let Some(&i) = names.get(name) {
                return CounterId(i);
            }
            let mut counters = self.counters.borrow_mut();
            let id = counters.len() as u32;
            counters.push(Cell::new(0));
            names.insert(name.to_string(), id);
            CounterId(id)
        }

        /// Adds `n` to a counter.
        #[inline]
        pub fn inc(&self, id: CounterId, n: u64) {
            let counters = self.counters.borrow();
            let cell = &counters[id.0 as usize];
            cell.set(cell.get() + n);
        }

        /// Overwrites a counter with an absorbed, authoritative total (how
        /// the simulator folds pre-existing stat structs into the registry).
        #[inline]
        pub fn set_counter(&self, id: CounterId, value: u64) {
            self.counters.borrow()[id.0 as usize].set(value);
        }

        /// Absorbs a named counter total, registering the name on first use
        /// — the path for metrics whose source of truth lives elsewhere
        /// (router ledgers, queue stats, wake telemetry).
        pub fn absorb_counter(&self, name: &str, value: u64) {
            let id = self.counter(name);
            self.set_counter(id, value);
        }

        /// Freezes every registered counter, sorted by name.
        #[must_use]
        pub fn snapshot(&self) -> MetricsSnapshot {
            let counters = self.counters.borrow();
            let entries = self
                .names
                .borrow()
                .iter()
                .map(|(name, &i)| (name.clone(), counters[i as usize].get()))
                .collect();
            MetricsSnapshot { entries }
        }
    }
}

#[cfg(not(feature = "metrics"))]
mod disabled {
    use crate::snapshot::MetricsSnapshot;

    /// Handle to a registered counter (inert without the `metrics` feature).
    #[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
    pub struct CounterId;

    /// Zero-sized stand-in for the registry; every method is a no-op.
    #[derive(Debug, Default)]
    pub struct MetricsRegistry;

    impl MetricsRegistry {
        /// A fresh (inert) registry.
        #[must_use]
        pub fn new() -> Self {
            MetricsRegistry
        }

        /// Always false: nothing records.
        #[must_use]
        pub fn enabled(&self) -> bool {
            false
        }

        /// Returns an inert handle.
        pub fn counter(&self, _name: &str) -> CounterId {
            CounterId
        }

        /// No-op.
        #[inline]
        pub fn inc(&self, _id: CounterId, _n: u64) {}

        /// No-op.
        #[inline]
        pub fn set_counter(&self, _id: CounterId, _value: u64) {}

        /// No-op.
        pub fn absorb_counter(&self, _name: &str, _value: u64) {}

        /// Always empty.
        #[must_use]
        pub fn snapshot(&self) -> MetricsSnapshot {
            MetricsSnapshot::empty()
        }
    }
}

#[cfg(feature = "metrics")]
pub use enabled::{CounterId, MetricsRegistry};

#[cfg(not(feature = "metrics"))]
pub use disabled::{CounterId, MetricsRegistry};

#[cfg(all(test, feature = "metrics"))]
mod tests {
    use super::*;

    #[test]
    fn counters_snapshot_sorted() {
        let reg = MetricsRegistry::new();
        let b = reg.counter("b.total");
        let a = reg.counter("a.total");
        reg.inc(b, 2);
        reg.inc(a, 1);
        let snap = reg.snapshot();
        assert_eq!(snap.entries, [("a.total".to_string(), 1), ("b.total".to_string(), 2)]);
    }

    #[test]
    fn re_registration_returns_same_id() {
        let reg = MetricsRegistry::new();
        let a = reg.counter("same");
        let b = reg.counter("same");
        assert_eq!(a, b);
        reg.inc(a, 1);
        reg.inc(b, 1);
        assert_eq!(reg.snapshot().counter("same"), Some(2));
    }

    #[test]
    fn absorb_counter_overwrites() {
        let reg = MetricsRegistry::new();
        reg.absorb_counter("router.tc_arrived", 5);
        reg.absorb_counter("router.tc_arrived", 9);
        assert_eq!(reg.snapshot().counter("router.tc_arrived"), Some(9));
    }
}
