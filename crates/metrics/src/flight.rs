//! The flight recorder: a bounded ring of recent simulator events, dumped
//! with a metrics snapshot when something goes wrong.
//!
//! The recorder answers the question equivalence-suite failures used to
//! leave open: *what was the network doing just before the invariant
//! broke?* The simulator records cheap fixed-size events (deliveries,
//! leaps, injections) into the ring; on a conservation-ledger violation, a
//! missed deadline, or a panic (via [`FlightGuard`]), the last-N events and
//! a full [`MetricsSnapshot`] are written as flat JSONL for post-mortem
//! reading (`rtr trace-dump` summarises these files).
//!
//! The recorder is `Arc`-shared and `Send`, so guards can outlive the
//! borrow of the simulator that armed them. Only the *first* dump wins;
//! later triggers are ignored so the dump reflects the original failure.
//!
//! Without the `metrics` feature every type here is a zero-sized no-op.

/// One recorded event: a fixed-size, allocation-free record.
///
/// `a`/`b` are kind-specific operands (connection id, leap bounds, …);
/// the JSONL form spells the kind in `"ev"` so dumps read without a schema.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct FlightEvent {
    /// Cycle the event happened at.
    pub cycle: u64,
    /// Static event kind tag, e.g. `"deliver_tc"`, `"leap"`.
    pub kind: &'static str,
    /// Node involved (0 for network-wide events).
    pub node: u32,
    /// First operand (kind-specific).
    pub a: u64,
    /// Second operand (kind-specific).
    pub b: u64,
}

impl FlightEvent {
    /// Renders the event as one flat JSONL line (with trailing newline).
    #[must_use]
    pub fn to_jsonl(&self) -> String {
        format!(
            "{{\"cycle\": {}, \"node\": {}, \"ev\": \"{}\", \"a\": {}, \"b\": {}}}\n",
            self.cycle, self.node, self.kind, self.a, self.b
        )
    }
}

#[cfg(feature = "metrics")]
mod enabled {
    use std::collections::VecDeque;
    use std::io::Write as _;
    use std::path::PathBuf;
    use std::sync::{Arc, Mutex};

    use super::FlightEvent;
    use crate::snapshot::MetricsSnapshot;

    #[derive(Debug)]
    struct Inner {
        cap: usize,
        ring: VecDeque<FlightEvent>,
        dropped: u64,
        dump_path: Option<PathBuf>,
        dumped: Option<String>,
        pending: Option<&'static str>,
    }

    /// The flight recorder. See the module docs.
    #[derive(Debug, Clone)]
    pub struct FlightRecorder {
        inner: Arc<Mutex<Inner>>,
    }

    impl FlightRecorder {
        /// A recorder keeping the most recent `cap` events.
        #[must_use]
        pub fn new(cap: usize) -> Self {
            FlightRecorder {
                inner: Arc::new(Mutex::new(Inner {
                    cap: cap.max(1),
                    ring: VecDeque::new(),
                    dropped: 0,
                    dump_path: None,
                    dumped: None,
                    pending: None,
                })),
            }
        }

        /// Sets where dumps are written. Without a path, dumps are skipped.
        pub fn set_dump_path(&self, path: PathBuf) {
            self.inner.lock().unwrap().dump_path = Some(path);
        }

        /// Appends an event, evicting the oldest past capacity.
        pub fn record(&self, event: FlightEvent) {
            let mut inner = self.inner.lock().unwrap();
            if inner.ring.len() == inner.cap {
                inner.ring.pop_front();
                inner.dropped += 1;
            }
            inner.ring.push_back(event);
        }

        /// Events currently held.
        #[must_use]
        pub fn len(&self) -> usize {
            self.inner.lock().unwrap().ring.len()
        }

        /// Whether the ring is empty.
        #[must_use]
        pub fn is_empty(&self) -> bool {
            self.len() == 0
        }

        /// Flags a failure noticed deep in the drive loop; the simulator
        /// collects it at the end of the step (where a snapshot can be
        /// taken) and calls [`FlightRecorder::dump`]. First flag wins.
        pub fn trigger(&self, reason: &'static str) {
            let mut inner = self.inner.lock().unwrap();
            if inner.pending.is_none() {
                inner.pending = Some(reason);
            }
        }

        /// Takes the pending trigger, if any.
        pub fn take_trigger(&self) -> Option<&'static str> {
            self.inner.lock().unwrap().pending.take()
        }

        /// The reason of the dump already written, if any.
        #[must_use]
        pub fn dumped(&self) -> Option<String> {
            self.inner.lock().unwrap().dumped.clone()
        }

        /// Writes the dump: a header line, the ring's events oldest-first,
        /// then the metrics snapshot. Returns the path written, `None` when
        /// no dump path is set or a dump was already written.
        ///
        /// # Panics
        ///
        /// On I/O errors — a failing dump during a post-mortem must be
        /// loud, not silent.
        pub fn dump(&self, reason: &str, snapshot: &MetricsSnapshot) -> Option<PathBuf> {
            let mut inner = self.inner.lock().unwrap();
            if inner.dumped.is_some() {
                return None;
            }
            let path = inner.dump_path.clone()?;
            let last_cycle = inner.ring.back().map_or(0, |e| e.cycle);
            let mut text = format!(
                "{{\"flight\": \"dump\", \"reason\": \"{}\", \"cycle\": {}, \
                 \"events\": {}, \"dropped\": {}}}\n",
                reason,
                last_cycle,
                inner.ring.len(),
                inner.dropped
            );
            for event in &inner.ring {
                text.push_str(&event.to_jsonl());
            }
            text.push_str(&snapshot.to_jsonl(last_cycle));
            let mut file = std::fs::File::create(&path)
                .unwrap_or_else(|e| panic!("flight recorder: create {}: {e}", path.display()));
            file.write_all(text.as_bytes())
                .unwrap_or_else(|e| panic!("flight recorder: write {}: {e}", path.display()));
            inner.dumped = Some(reason.to_string());
            Some(path)
        }

        /// Arms a panic guard: if the current thread unwinds while the
        /// guard is alive, the recorder dumps with reason `"panic"` and the
        /// snapshot captured at arm time.
        #[must_use]
        pub fn panic_guard(&self, snapshot: MetricsSnapshot) -> FlightGuard {
            FlightGuard { recorder: self.clone(), snapshot }
        }
    }

    /// Dump-on-panic guard returned by [`FlightRecorder::panic_guard`].
    #[derive(Debug)]
    pub struct FlightGuard {
        recorder: FlightRecorder,
        snapshot: MetricsSnapshot,
    }

    impl FlightGuard {
        /// Refreshes the snapshot that a panic dump would include.
        pub fn update_snapshot(&mut self, snapshot: MetricsSnapshot) {
            self.snapshot = snapshot;
        }
    }

    impl Drop for FlightGuard {
        fn drop(&mut self) {
            if std::thread::panicking() {
                self.recorder.dump("panic", &self.snapshot);
            }
        }
    }
}

#[cfg(not(feature = "metrics"))]
mod disabled {
    use std::path::PathBuf;

    use super::FlightEvent;
    use crate::snapshot::MetricsSnapshot;

    /// Zero-sized stand-in for the recorder; every method is a no-op.
    #[derive(Debug, Clone, Default)]
    pub struct FlightRecorder;

    impl FlightRecorder {
        /// A fresh (inert) recorder.
        #[must_use]
        pub fn new(_cap: usize) -> Self {
            FlightRecorder
        }

        /// No-op.
        pub fn set_dump_path(&self, _path: PathBuf) {}

        /// No-op.
        pub fn record(&self, _event: FlightEvent) {}

        /// Always zero.
        #[must_use]
        pub fn len(&self) -> usize {
            0
        }

        /// Always true.
        #[must_use]
        pub fn is_empty(&self) -> bool {
            true
        }

        /// No-op.
        pub fn trigger(&self, _reason: &'static str) {}

        /// Always `None`.
        pub fn take_trigger(&self) -> Option<&'static str> {
            None
        }

        /// Always `None`.
        #[must_use]
        pub fn dumped(&self) -> Option<String> {
            None
        }

        /// Never writes; always `None`.
        pub fn dump(&self, _reason: &str, _snapshot: &MetricsSnapshot) -> Option<PathBuf> {
            None
        }

        /// Returns an inert guard.
        #[must_use]
        pub fn panic_guard(&self, _snapshot: MetricsSnapshot) -> FlightGuard {
            FlightGuard
        }
    }

    /// Inert dump-on-panic guard.
    #[derive(Debug, Default)]
    pub struct FlightGuard;
}

#[cfg(feature = "metrics")]
pub use enabled::{FlightGuard, FlightRecorder};

#[cfg(not(feature = "metrics"))]
pub use disabled::{FlightGuard, FlightRecorder};

#[cfg(all(test, feature = "metrics"))]
mod tests {
    use super::*;
    use crate::registry::MetricsRegistry;
    use crate::snapshot::{MetricLine, MetricsSnapshot};

    fn temp_path(tag: &str) -> std::path::PathBuf {
        std::env::temp_dir().join(format!("rtr_flight_{tag}_{}.jsonl", std::process::id()))
    }

    fn event(cycle: u64) -> FlightEvent {
        FlightEvent { cycle, kind: "deliver_tc", node: 3, a: 7, b: 0 }
    }

    #[test]
    fn ring_evicts_oldest_and_dump_holds_last_n() {
        let rec = FlightRecorder::new(4);
        for cycle in 0..10 {
            rec.record(event(cycle));
        }
        assert_eq!(rec.len(), 4);
        let reg = MetricsRegistry::new();
        reg.absorb_counter("router.tc_arrived", 10);
        let path = temp_path("ring");
        rec.set_dump_path(path.clone());
        let written = rec.dump("conservation", &reg.snapshot()).unwrap();
        let text = std::fs::read_to_string(&written).unwrap();
        std::fs::remove_file(&written).ok();
        let lines: Vec<&str> = text.lines().collect();
        assert!(lines[0].contains("\"reason\": \"conservation\""));
        assert!(lines[0].contains("\"events\": 4"));
        assert!(lines[0].contains("\"dropped\": 6"));
        assert!(lines[1].contains("\"cycle\": 6"), "oldest surviving event first");
        let metric = lines.iter().find_map(|l| MetricLine::parse(l)).unwrap();
        assert_eq!(metric.name, "router.tc_arrived");
        // A second trigger must not clobber the original post-mortem.
        assert!(rec.dump("later", &reg.snapshot()).is_none());
        assert_eq!(rec.dumped().as_deref(), Some("conservation"));
    }

    #[test]
    fn panic_guard_dumps_on_unwind() {
        let rec = FlightRecorder::new(8);
        rec.record(event(1));
        let path = temp_path("panic");
        rec.set_dump_path(path.clone());
        let rec2 = rec.clone();
        let result = std::panic::catch_unwind(move || {
            let _guard = rec2.panic_guard(MetricsSnapshot::empty());
            panic!("boom");
        });
        assert!(result.is_err());
        let text = std::fs::read_to_string(&path).unwrap();
        std::fs::remove_file(&path).ok();
        assert!(text.lines().next().unwrap().contains("\"reason\": \"panic\""));
    }

    #[test]
    fn pending_trigger_is_first_wins() {
        let rec = FlightRecorder::new(2);
        rec.trigger("deadline_miss");
        rec.trigger("conservation");
        assert_eq!(rec.take_trigger(), Some("deadline_miss"));
        assert_eq!(rec.take_trigger(), None);
    }
}
