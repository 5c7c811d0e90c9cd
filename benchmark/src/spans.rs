//! Span recording around calls into the layers, and the self-time reducer.
//!
//! The benchmark times every call it makes into a layer whether or not it
//! is tracing — the end-to-end metrics are those timings. A traced run
//! additionally *keeps* each timing as a span (name, layer, start, end,
//! parent, repeat), in memory, and writes them out when the run ends. No
//! span is recorded inside the program under test: a layer is seen from
//! outside, at its public functions.

use std::time::Instant;

/// The crate a timed call lands in. `Bench` is the harness itself: input
/// generation, output checks, and the brackets that group other spans.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Layer {
    /// The benchmark's own code.
    Bench,
    /// `rtr-mesh`: topology, simulator build, advancing time, reports.
    Mesh,
    /// `rtr-channels`: admission, establishment, teardown, signaling.
    Channels,
    /// `rtr-workloads`: traffic-source construction.
    Workloads,
}

impl Layer {
    /// Every layer, in report order.
    pub const ALL: [Layer; 4] = [Layer::Bench, Layer::Mesh, Layer::Channels, Layer::Workloads];

    /// Stable lower-case name used in `spans.jsonl`.
    #[must_use]
    pub fn name(self) -> &'static str {
        match self {
            Layer::Bench => "bench",
            Layer::Mesh => "mesh",
            Layer::Channels => "channels",
            Layer::Workloads => "workloads",
        }
    }
}

/// One recorded span. Times are nanoseconds since the recorder was made.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Span {
    /// What was called.
    pub name: &'static str,
    /// Where the call lands.
    pub layer: Layer,
    /// Start, ns since the recorder's origin.
    pub start_ns: u64,
    /// End, ns since the recorder's origin.
    pub end_ns: u64,
    /// Index of the enclosing span, if any.
    pub parent: Option<usize>,
    /// Which repeat of the workload the span belongs to.
    pub rep: u32,
}

/// An open span: close it with [`Recorder::end`].
#[derive(Debug)]
#[must_use = "an open span must be closed with Recorder::end"]
pub struct Open {
    started: Instant,
    slot: Option<usize>,
}

/// Times calls and, when keeping, stores them as spans.
#[derive(Debug)]
pub struct Recorder {
    origin: Instant,
    keep: bool,
    rep: u32,
    spans: Vec<Span>,
    stack: Vec<usize>,
}

impl Recorder {
    /// A recorder that only times (`keep = false`) or also stores spans.
    #[must_use]
    pub fn new(keep: bool) -> Self {
        Recorder { origin: Instant::now(), keep, rep: 0, spans: Vec::new(), stack: Vec::new() }
    }

    /// Tags spans opened from now on with repeat number `rep`.
    pub fn set_rep(&mut self, rep: u32) {
        self.rep = rep;
    }

    /// Opens a span.
    pub fn begin(&mut self, name: &'static str, layer: Layer) -> Open {
        let started = Instant::now();
        let slot = self.keep.then(|| {
            let start_ns = (started - self.origin).as_nanos() as u64;
            self.spans.push(Span {
                name,
                layer,
                start_ns,
                end_ns: start_ns,
                parent: self.stack.last().copied(),
                rep: self.rep,
            });
            self.stack.push(self.spans.len() - 1);
            self.spans.len() - 1
        });
        Open { started, slot }
    }

    /// Closes a span and returns its duration in nanoseconds.
    ///
    /// # Panics
    ///
    /// Panics if spans are closed out of order (a harness bug).
    pub fn end(&mut self, open: Open) -> u64 {
        let now = Instant::now();
        if let Some(slot) = open.slot {
            assert_eq!(self.stack.pop(), Some(slot), "spans must close innermost first");
            self.spans[slot].end_ns = (now - self.origin).as_nanos() as u64;
        }
        (now - open.started).as_nanos() as u64
    }

    /// The spans kept so far (empty when not keeping).
    #[must_use]
    pub fn spans(&self) -> &[Span] {
        &self.spans
    }

    /// Ends recording and hands the kept spans over.
    #[must_use]
    pub fn into_spans(self) -> Vec<Span> {
        self.spans
    }
}

/// Self time per layer: each span's duration minus the part its children
/// cover, summed by the span's layer. The shares of one root span add up to
/// that span's duration exactly — [`SelfTimes::total_ns`] is their sum and
/// [`SelfTimes::root_ns`] the summed duration of the parentless spans, so a
/// caller can check the two agree.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct SelfTimes {
    /// Self nanoseconds per layer, in [`Layer::ALL`] order.
    pub by_layer: [u64; Layer::ALL.len()],
    /// Self nanoseconds of the spans named `advance` (simulated time
    /// moving), a subset of the mesh layer's share.
    pub advance_ns: u64,
    /// Summed duration of every parentless span.
    pub root_ns: u64,
}

impl SelfTimes {
    /// Reduces a span list.
    #[must_use]
    pub fn of(spans: &[Span]) -> Self {
        let mut child_ns = vec![0u64; spans.len()];
        for span in spans {
            if let Some(parent) = span.parent {
                child_ns[parent] += span.end_ns - span.start_ns;
            }
        }
        let mut out = SelfTimes::default();
        for (i, span) in spans.iter().enumerate() {
            let duration = span.end_ns - span.start_ns;
            let self_ns = duration.saturating_sub(child_ns[i]);
            let layer = Layer::ALL.iter().position(|&l| l == span.layer).expect("listed layer");
            out.by_layer[layer] += self_ns;
            if span.name == "advance" {
                out.advance_ns += self_ns;
            }
            if span.parent.is_none() {
                out.root_ns += duration;
            }
        }
        out
    }

    /// Sum of every layer's self time.
    #[must_use]
    pub fn total_ns(&self) -> u64 {
        self.by_layer.iter().sum()
    }

    /// One layer's share of the total (0 when nothing was recorded).
    #[must_use]
    pub fn share(&self, layer: Layer) -> f64 {
        let i = Layer::ALL.iter().position(|&l| l == layer).expect("listed layer");
        ratio(self.by_layer[i], self.total_ns())
    }
}

/// `part / whole` as a float, 0 when `whole` is 0.
#[must_use]
pub fn ratio(part: u64, whole: u64) -> f64 {
    if whole == 0 {
        0.0
    } else {
        part as f64 / whole as f64
    }
}

/// Renders spans as JSON lines:
/// `{"name","layer","start_ns","end_ns","parent","workload","rep"}`.
#[must_use]
pub fn to_jsonl(spans: &[Span], workload: &str) -> String {
    use std::fmt::Write as _;
    let mut out = String::new();
    for span in spans {
        let parent = span.parent.map_or_else(|| "null".to_string(), |p| p.to_string());
        let _ = writeln!(
            out,
            "{{\"name\": \"{}\", \"layer\": \"{}\", \"start_ns\": {}, \"end_ns\": {}, \
             \"parent\": {parent}, \"workload\": \"{workload}\", \"rep\": {}}}",
            span.name,
            span.layer.name(),
            span.start_ns,
            span.end_ns,
            span.rep
        );
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn untraced_recorder_times_but_keeps_nothing() {
        let mut rec = Recorder::new(false);
        let outer = rec.begin("setup", Layer::Bench);
        let inner = rec.begin("topology", Layer::Mesh);
        std::hint::black_box((0..1000).sum::<u64>());
        let inner_ns = rec.end(inner);
        let outer_ns = rec.end(outer);
        assert!(outer_ns >= inner_ns);
        assert!(rec.spans().is_empty());
    }

    #[test]
    fn self_times_add_up_to_the_root() {
        let spans = vec![
            Span {
                name: "workload",
                layer: Layer::Bench,
                start_ns: 0,
                end_ns: 100,
                parent: None,
                rep: 0,
            },
            Span {
                name: "advance",
                layer: Layer::Mesh,
                start_ns: 10,
                end_ns: 70,
                parent: Some(0),
                rep: 0,
            },
            Span {
                name: "establish",
                layer: Layer::Channels,
                start_ns: 70,
                end_ns: 90,
                parent: Some(0),
                rep: 0,
            },
        ];
        let times = SelfTimes::of(&spans);
        assert_eq!(times.by_layer, [20, 60, 20, 0]);
        assert_eq!(times.advance_ns, 60);
        assert_eq!(times.total_ns(), times.root_ns);
        assert!((times.share(Layer::Mesh) - 0.6).abs() < 1e-12);
    }

    #[test]
    fn nesting_and_jsonl_shape() {
        let mut rec = Recorder::new(true);
        rec.set_rep(3);
        let outer = rec.begin("run", Layer::Bench);
        let inner = rec.begin("advance", Layer::Mesh);
        rec.end(inner);
        rec.end(outer);
        assert_eq!(rec.spans()[1].parent, Some(0));
        assert_eq!(rec.spans()[1].rep, 3);
        let text = to_jsonl(rec.spans(), "dense_tc");
        assert_eq!(text.lines().count(), 2);
        assert!(text.lines().next().unwrap().contains("\"parent\": null"));
        assert!(text.contains("\"workload\": \"dense_tc\""));
    }
}
