//! Cycle-accurate event tracing for the router datapaths.
//!
//! Every architecturally interesting step in a packet's life — injection,
//! arrival, memory-slot allocation, scheduler selection, transmission,
//! cut-through, drop, delivery — can be emitted as a [`TraceEvent`], stamped
//! with the cycle and node into a [`TraceRecord`], and handed to a
//! [`TraceSink`]. Routers emit events only when built with their `trace`
//! cargo feature *and* given a sink, so the disabled path compiles to
//! nothing and costs nothing.
//!
//! Records serialise to JSON Lines (one object per line) via
//! [`TraceRecord::to_jsonl`] / [`TraceRecord::from_jsonl`]. The codec is
//! hand-rolled and self-contained: the format is flat, the keys are fixed,
//! and replay tools (`rtr trace-dump`) must parse traces without any feature
//! flags or external crates.
//!
//! Time-constrained events carry the packet's simulation-only provenance
//! (`src` node and per-source `seq`) so a replay tool can stitch the exact
//! per-packet chain `inject → arrive → select → transmit → … → deliver`
//! across hops. Slack values are *signed slots*: the hop deadline
//! `ℓ(m) + d` minus the scheduler time at transmission (negative = late).
//!
//! # Example
//!
//! ```
//! use rtr_types::ids::{ConnectionId, NodeId};
//! use rtr_types::trace::{TraceEvent, TraceRecord};
//!
//! let rec = TraceRecord {
//!     cycle: 84,
//!     node: NodeId(3),
//!     event: TraceEvent::TcTransmit {
//!         conn: ConnectionId(7),
//!         port: 1,
//!         early: false,
//!         slack: 2,
//!         src: NodeId(0),
//!         seq: 5,
//!     },
//! };
//! let line = rec.to_jsonl();
//! assert_eq!(TraceRecord::from_jsonl(&line).unwrap(), rec);
//! ```

use std::collections::VecDeque;
use std::sync::{Arc, Mutex};

use crate::ids::{ConnectionId, NodeId};
use crate::time::Cycle;

/// Which arbitration queue a scheduler selection came from (§3.2 ordering).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum QueueClass {
    /// An on-time time-constrained packet won earliest-deadline-first.
    OnTimeEdf,
    /// An early time-constrained packet filled an idle cycle within the
    /// output's horizon.
    EarlyWithinHorizon,
    /// A best-effort byte won the round-robin over the input ports.
    BeRoundRobin,
}

impl QueueClass {
    fn tag(self) -> &'static str {
        match self {
            QueueClass::OnTimeEdf => "on_time_edf",
            QueueClass::EarlyWithinHorizon => "early_horizon",
            QueueClass::BeRoundRobin => "be_rr",
        }
    }

    fn from_tag(tag: &str) -> Option<Self> {
        Some(match tag {
            "on_time_edf" => QueueClass::OnTimeEdf,
            "early_horizon" => QueueClass::EarlyWithinHorizon,
            "be_rr" => QueueClass::BeRoundRobin,
            _ => return None,
        })
    }
}

/// Why a time-constrained packet was dropped.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum DropReason {
    /// No live connection-table entry for the packet's identifier.
    NoConnection,
    /// The shared packet memory had no idle slot.
    NoBuffer,
    /// The injected packet violated the fixed wire format.
    Malformed,
    /// The packet's connection was torn down while it was in flight; the
    /// drop is an accounted teardown abort, not a routing error.
    TornDown,
}

impl DropReason {
    fn tag(self) -> &'static str {
        match self {
            DropReason::NoConnection => "no_conn",
            DropReason::NoBuffer => "no_buffer",
            DropReason::Malformed => "malformed",
            DropReason::TornDown => "torn_down",
        }
    }

    fn from_tag(tag: &str) -> Option<Self> {
        Some(match tag {
            "no_conn" => DropReason::NoConnection,
            "no_buffer" => DropReason::NoBuffer,
            "malformed" => DropReason::Malformed,
            "torn_down" => DropReason::TornDown,
            _ => return None,
        })
    }
}

/// One step in a packet's life through a router.
///
/// `port` fields are dense [`crate::ids::Port::index`] values (0 = local).
/// `src`/`seq` echo the packet's [`crate::packet::PacketTrace`] provenance
/// so events of the same packet correlate across nodes.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum TraceEvent {
    /// A well-formed time-constrained packet entered at the injection port.
    TcInject {
        /// Connection identifier at the injecting router's table.
        conn: ConnectionId,
        /// Injecting node (provenance).
        src: NodeId,
        /// Per-source sequence number (provenance).
        seq: u64,
    },
    /// A time-constrained packet finished arriving on an input port.
    TcArrive {
        /// Connection identifier before table lookup.
        conn: ConnectionId,
        /// Input port index.
        port: u8,
        /// Provenance source node.
        src: NodeId,
        /// Provenance sequence number.
        seq: u64,
    },
    /// The packet was stored into a shared-memory slot from the idle FIFO.
    SlotAlloc {
        /// Rewritten (outgoing) connection identifier.
        conn: ConnectionId,
        /// Slot address.
        slot: u16,
        /// Provenance source node.
        src: NodeId,
        /// Provenance sequence number.
        seq: u64,
    },
    /// A shared-memory slot returned to the idle FIFO.
    SlotFree {
        /// Slot address.
        slot: u16,
    },
    /// The link scheduler picked a packet (or best-effort byte) for an
    /// output port.
    SchedSelect {
        /// Connection identifier of the winning packet (0 for best-effort).
        conn: ConnectionId,
        /// Output port index.
        port: u8,
        /// Which arbitration queue won.
        class: QueueClass,
        /// Provenance source node.
        src: NodeId,
        /// Provenance sequence number.
        seq: u64,
    },
    /// First byte of a time-constrained packet left an output port.
    TcTransmit {
        /// Outgoing connection identifier.
        conn: ConnectionId,
        /// Output port index.
        port: u8,
        /// Whether this was an early (within-horizon) transmission.
        early: bool,
        /// Hop deadline minus scheduler time, in slots (negative = late).
        slack: i64,
        /// Provenance source node.
        src: NodeId,
        /// Provenance sequence number.
        seq: u64,
    },
    /// The packet cut through to an output without being buffered (§7
    /// virtual cut-through extension).
    TcCutThrough {
        /// Outgoing connection identifier.
        conn: ConnectionId,
        /// Output port index.
        port: u8,
        /// Provenance source node.
        src: NodeId,
        /// Provenance sequence number.
        seq: u64,
    },
    /// A time-constrained packet was dropped.
    TcDrop {
        /// Connection identifier at the dropping router.
        conn: ConnectionId,
        /// Why it was dropped.
        reason: DropReason,
        /// Provenance source node.
        src: NodeId,
        /// Provenance sequence number.
        seq: u64,
    },
    /// A time-constrained packet was delivered through the reception port.
    TcDeliver {
        /// Connection identifier at the delivering router.
        conn: ConnectionId,
        /// Hop deadline minus scheduler time at delivery, in slots.
        slack: i64,
        /// Provenance source node.
        src: NodeId,
        /// Provenance sequence number.
        seq: u64,
    },
    /// A best-effort packet's head byte won the round-robin for an output
    /// (one event per packet per hop, not per byte).
    BeSelect {
        /// Output port index.
        port: u8,
        /// Input port index the packet is streaming from.
        input: u8,
    },
    /// A best-effort packet was reassembled and delivered locally.
    BeDeliver {
        /// Provenance source node.
        src: NodeId,
        /// Provenance sequence number.
        seq: u64,
    },
}

impl TraceEvent {
    /// The event's JSONL tag (the `"ev"` field).
    #[must_use]
    pub fn tag(&self) -> &'static str {
        match self {
            TraceEvent::TcInject { .. } => "tc_inject",
            TraceEvent::TcArrive { .. } => "tc_arrive",
            TraceEvent::SlotAlloc { .. } => "slot_alloc",
            TraceEvent::SlotFree { .. } => "slot_free",
            TraceEvent::SchedSelect { .. } => "sched_select",
            TraceEvent::TcTransmit { .. } => "tc_transmit",
            TraceEvent::TcCutThrough { .. } => "tc_cut_through",
            TraceEvent::TcDrop { .. } => "tc_drop",
            TraceEvent::TcDeliver { .. } => "tc_deliver",
            TraceEvent::BeSelect { .. } => "be_select",
            TraceEvent::BeDeliver { .. } => "be_deliver",
        }
    }

    /// The provenance `(src, seq)` pair, for events that carry one.
    #[must_use]
    pub fn packet_id(&self) -> Option<(NodeId, u64)> {
        match *self {
            TraceEvent::TcInject { src, seq, .. }
            | TraceEvent::TcArrive { src, seq, .. }
            | TraceEvent::SlotAlloc { src, seq, .. }
            | TraceEvent::SchedSelect { src, seq, .. }
            | TraceEvent::TcTransmit { src, seq, .. }
            | TraceEvent::TcCutThrough { src, seq, .. }
            | TraceEvent::TcDrop { src, seq, .. }
            | TraceEvent::TcDeliver { src, seq, .. }
            | TraceEvent::BeDeliver { src, seq } => Some((src, seq)),
            TraceEvent::SlotFree { .. } | TraceEvent::BeSelect { .. } => None,
        }
    }
}

/// A [`TraceEvent`] stamped with when and where it happened.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct TraceRecord {
    /// Simulation cycle of the event.
    pub cycle: Cycle,
    /// Node whose router emitted the event.
    pub node: NodeId,
    /// What happened.
    pub event: TraceEvent,
}

/// A malformed JSONL trace line.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct TraceParseError {
    /// What was wrong with the line.
    pub message: String,
}

impl std::fmt::Display for TraceParseError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "bad trace line: {}", self.message)
    }
}

impl std::error::Error for TraceParseError {}

fn err(message: impl Into<String>) -> TraceParseError {
    TraceParseError { message: message.into() }
}

impl TraceRecord {
    /// Encodes the record as one JSON Lines object (no trailing newline).
    #[must_use]
    pub fn to_jsonl(&self) -> String {
        use std::fmt::Write;
        let mut s = String::with_capacity(96);
        let _ = write!(
            s,
            "{{\"cycle\":{},\"node\":{},\"ev\":\"{}\"",
            self.cycle,
            self.node.0,
            self.event.tag()
        );
        match self.event {
            TraceEvent::TcInject { conn, src, seq } => {
                let _ = write!(s, ",\"conn\":{},\"src\":{},\"seq\":{seq}", conn.0, src.0);
            }
            TraceEvent::TcArrive { conn, port, src, seq } => {
                let _ = write!(
                    s,
                    ",\"conn\":{},\"port\":{port},\"src\":{},\"seq\":{seq}",
                    conn.0, src.0
                );
            }
            TraceEvent::SlotAlloc { conn, slot, src, seq } => {
                let _ = write!(
                    s,
                    ",\"conn\":{},\"slot\":{slot},\"src\":{},\"seq\":{seq}",
                    conn.0, src.0
                );
            }
            TraceEvent::SlotFree { slot } => {
                let _ = write!(s, ",\"slot\":{slot}");
            }
            TraceEvent::SchedSelect { conn, port, class, src, seq } => {
                let _ = write!(
                    s,
                    ",\"conn\":{},\"port\":{port},\"class\":\"{}\",\"src\":{},\"seq\":{seq}",
                    conn.0,
                    class.tag(),
                    src.0
                );
            }
            TraceEvent::TcTransmit { conn, port, early, slack, src, seq } => {
                let _ = write!(
                    s,
                    ",\"conn\":{},\"port\":{port},\"early\":{early},\"slack\":{slack},\
                     \"src\":{},\"seq\":{seq}",
                    conn.0, src.0
                );
            }
            TraceEvent::TcCutThrough { conn, port, src, seq } => {
                let _ = write!(
                    s,
                    ",\"conn\":{},\"port\":{port},\"src\":{},\"seq\":{seq}",
                    conn.0, src.0
                );
            }
            TraceEvent::TcDrop { conn, reason, src, seq } => {
                let _ = write!(
                    s,
                    ",\"conn\":{},\"reason\":\"{}\",\"src\":{},\"seq\":{seq}",
                    conn.0,
                    reason.tag(),
                    src.0
                );
            }
            TraceEvent::TcDeliver { conn, slack, src, seq } => {
                let _ = write!(
                    s,
                    ",\"conn\":{},\"slack\":{slack},\"src\":{},\"seq\":{seq}",
                    conn.0, src.0
                );
            }
            TraceEvent::BeSelect { port, input } => {
                let _ = write!(s, ",\"port\":{port},\"input\":{input}");
            }
            TraceEvent::BeDeliver { src, seq } => {
                let _ = write!(s, ",\"src\":{},\"seq\":{seq}", src.0);
            }
        }
        s.push('}');
        s
    }

    /// Decodes a record from one JSON Lines object.
    ///
    /// # Errors
    ///
    /// Returns a [`TraceParseError`] describing the first malformation
    /// found (not valid JSON, unknown tag, missing or out-of-range field).
    pub fn from_jsonl(line: &str) -> Result<TraceRecord, TraceParseError> {
        let fields = parse_flat_object(line)?;
        let get = |key: &str| -> Result<&JsonValue, TraceParseError> {
            fields
                .iter()
                .find(|(k, _)| k == key)
                .map(|(_, v)| v)
                .ok_or_else(|| err(format!("missing field \"{key}\"")))
        };
        let get_u64 = |key: &str| -> Result<u64, TraceParseError> {
            match get(key)? {
                JsonValue::Int(v) if *v >= 0 => Ok(*v as u64),
                other => {
                    Err(err(format!("field \"{key}\" is not a non-negative integer: {other:?}")))
                }
            }
        };
        let get_i64 = |key: &str| -> Result<i64, TraceParseError> {
            match get(key)? {
                JsonValue::Int(v) => Ok(*v),
                other => Err(err(format!("field \"{key}\" is not an integer: {other:?}"))),
            }
        };
        let get_bool = |key: &str| -> Result<bool, TraceParseError> {
            match get(key)? {
                JsonValue::Bool(b) => Ok(*b),
                other => Err(err(format!("field \"{key}\" is not a boolean: {other:?}"))),
            }
        };
        let get_str = |key: &str| -> Result<&str, TraceParseError> {
            match get(key)? {
                JsonValue::Str(s) => Ok(s.as_str()),
                other => Err(err(format!("field \"{key}\" is not a string: {other:?}"))),
            }
        };
        let get_u16 = |key: &str| -> Result<u16, TraceParseError> {
            u16::try_from(get_u64(key)?).map_err(|_| err(format!("field \"{key}\" exceeds u16")))
        };
        let get_u8 = |key: &str| -> Result<u8, TraceParseError> {
            u8::try_from(get_u64(key)?).map_err(|_| err(format!("field \"{key}\" exceeds u8")))
        };
        let conn = || Ok::<_, TraceParseError>(ConnectionId(get_u16("conn")?));
        let src = || Ok::<_, TraceParseError>(NodeId(get_u16("src")?));

        let cycle = get_u64("cycle")?;
        let node = NodeId(get_u16("node")?);
        let tag = get_str("ev")?;
        let event = match tag {
            "tc_inject" => {
                TraceEvent::TcInject { conn: conn()?, src: src()?, seq: get_u64("seq")? }
            }
            "tc_arrive" => TraceEvent::TcArrive {
                conn: conn()?,
                port: get_u8("port")?,
                src: src()?,
                seq: get_u64("seq")?,
            },
            "slot_alloc" => TraceEvent::SlotAlloc {
                conn: conn()?,
                slot: get_u16("slot")?,
                src: src()?,
                seq: get_u64("seq")?,
            },
            "slot_free" => TraceEvent::SlotFree { slot: get_u16("slot")? },
            "sched_select" => TraceEvent::SchedSelect {
                conn: conn()?,
                port: get_u8("port")?,
                class: QueueClass::from_tag(get_str("class")?)
                    .ok_or_else(|| err("unknown queue class"))?,
                src: src()?,
                seq: get_u64("seq")?,
            },
            "tc_transmit" => TraceEvent::TcTransmit {
                conn: conn()?,
                port: get_u8("port")?,
                early: get_bool("early")?,
                slack: get_i64("slack")?,
                src: src()?,
                seq: get_u64("seq")?,
            },
            "tc_cut_through" => TraceEvent::TcCutThrough {
                conn: conn()?,
                port: get_u8("port")?,
                src: src()?,
                seq: get_u64("seq")?,
            },
            "tc_drop" => TraceEvent::TcDrop {
                conn: conn()?,
                reason: DropReason::from_tag(get_str("reason")?)
                    .ok_or_else(|| err("unknown drop reason"))?,
                src: src()?,
                seq: get_u64("seq")?,
            },
            "tc_deliver" => TraceEvent::TcDeliver {
                conn: conn()?,
                slack: get_i64("slack")?,
                src: src()?,
                seq: get_u64("seq")?,
            },
            "be_select" => TraceEvent::BeSelect { port: get_u8("port")?, input: get_u8("input")? },
            "be_deliver" => TraceEvent::BeDeliver { src: src()?, seq: get_u64("seq")? },
            other => return Err(err(format!("unknown event tag \"{other}\""))),
        };
        Ok(TraceRecord { cycle, node, event })
    }
}

#[derive(Debug, Clone, PartialEq)]
enum JsonValue {
    Int(i64),
    Bool(bool),
    Str(String),
}

/// Parses a flat JSON object of integer / boolean / escape-free string
/// values — exactly the shape [`TraceRecord::to_jsonl`] emits.
fn parse_flat_object(line: &str) -> Result<Vec<(String, JsonValue)>, TraceParseError> {
    let line = line.trim();
    let inner = line
        .strip_prefix('{')
        .and_then(|s| s.strip_suffix('}'))
        .ok_or_else(|| err("not a JSON object"))?;
    let mut fields = Vec::new();
    let mut rest = inner.trim();
    while !rest.is_empty() {
        // Key.
        let after_quote = rest.strip_prefix('"').ok_or_else(|| err("expected a quoted key"))?;
        let close = after_quote.find('"').ok_or_else(|| err("unterminated key"))?;
        let key = &after_quote[..close];
        rest = after_quote[close + 1..].trim_start();
        rest = rest.strip_prefix(':').ok_or_else(|| err("expected ':'"))?.trim_start();
        // Value.
        let (value, remainder) = if let Some(after) = rest.strip_prefix('"') {
            let close = after.find('"').ok_or_else(|| err("unterminated string"))?;
            let body = &after[..close];
            if body.contains('\\') {
                return Err(err("escape sequences are not supported"));
            }
            (JsonValue::Str(body.to_string()), &after[close + 1..])
        } else if let Some(after) = rest.strip_prefix("true") {
            (JsonValue::Bool(true), after)
        } else if let Some(after) = rest.strip_prefix("false") {
            (JsonValue::Bool(false), after)
        } else {
            let end = rest.find(|c: char| c != '-' && !c.is_ascii_digit()).unwrap_or(rest.len());
            let num: i64 =
                rest[..end].parse().map_err(|_| err(format!("bad number {:?}", &rest[..end])))?;
            (JsonValue::Int(num), &rest[end..])
        };
        fields.push((key.to_string(), value));
        rest = remainder.trim_start();
        match rest.strip_prefix(',') {
            Some(after) => rest = after.trim_start(),
            None if rest.is_empty() => break,
            None => return Err(err("expected ',' between fields")),
        }
    }
    Ok(fields)
}

/// Receives trace records as the simulation emits them.
///
/// `Debug` is a supertrait so routers holding a `dyn TraceSink` can stay
/// `#[derive(Debug)]`.
pub trait TraceSink: std::fmt::Debug {
    /// Handles one record.
    fn record(&mut self, rec: &TraceRecord);

    /// Flushes buffered output, if any.
    fn flush(&mut self) {}
}

/// A sink shareable between the routers of a mesh. `Arc<Mutex<…>>` so
/// routers stay `Send` and the simulator may tick chips on worker threads;
/// with tracing enabled the sink lock serialises emission, so parallel runs
/// should normally trace to per-node sinks or run serially.
pub type SharedTraceSink = Arc<Mutex<dyn TraceSink + Send>>;

/// Wraps a concrete sink for sharing across routers.
pub fn shared<S: TraceSink + Send + 'static>(sink: S) -> Arc<Mutex<S>> {
    Arc::new(Mutex::new(sink))
}

/// A bounded in-memory ring of the most recent records.
///
/// When full, the oldest record is discarded and counted in
/// [`RingSink::dropped`] — tracing never grows without bound.
#[derive(Debug)]
pub struct RingSink {
    capacity: usize,
    buf: VecDeque<TraceRecord>,
    dropped: u64,
}

impl RingSink {
    /// Creates a ring holding at most `capacity` records.
    ///
    /// # Panics
    ///
    /// Panics if `capacity` is zero.
    #[must_use]
    pub fn new(capacity: usize) -> Self {
        assert!(capacity > 0, "ring capacity must be positive");
        RingSink { capacity, buf: VecDeque::with_capacity(capacity.min(4096)), dropped: 0 }
    }

    /// The retained records, oldest first.
    pub fn records(&self) -> impl Iterator<Item = &TraceRecord> {
        self.buf.iter()
    }

    /// Number of retained records.
    #[must_use]
    pub fn len(&self) -> usize {
        self.buf.len()
    }

    /// Whether nothing is retained.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.buf.is_empty()
    }

    /// Records evicted because the ring was full.
    #[must_use]
    pub fn dropped(&self) -> u64 {
        self.dropped
    }

    /// Consumes the ring, yielding the retained records oldest first.
    #[must_use]
    pub fn into_records(self) -> Vec<TraceRecord> {
        self.buf.into()
    }
}

impl TraceSink for RingSink {
    fn record(&mut self, rec: &TraceRecord) {
        if self.buf.len() == self.capacity {
            self.buf.pop_front();
            self.dropped += 1;
        }
        self.buf.push_back(*rec);
    }
}

/// Streams records to a writer as JSON Lines.
pub struct JsonlSink<W: std::io::Write> {
    writer: std::io::BufWriter<W>,
    written: u64,
}

impl<W: std::io::Write> std::fmt::Debug for JsonlSink<W> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("JsonlSink").field("written", &self.written).finish_non_exhaustive()
    }
}

impl JsonlSink<std::fs::File> {
    /// Creates (truncating) a trace file at `path`.
    ///
    /// # Errors
    ///
    /// Propagates the file-creation error.
    pub fn create(path: impl AsRef<std::path::Path>) -> std::io::Result<Self> {
        Ok(JsonlSink::new(std::fs::File::create(path)?))
    }
}

impl<W: std::io::Write> JsonlSink<W> {
    /// Wraps a writer.
    pub fn new(writer: W) -> Self {
        JsonlSink { writer: std::io::BufWriter::new(writer), written: 0 }
    }

    /// Records written so far.
    #[must_use]
    pub fn written(&self) -> u64 {
        self.written
    }
}

impl<W: std::io::Write> TraceSink for JsonlSink<W> {
    fn record(&mut self, rec: &TraceRecord) {
        use std::io::Write;
        // I/O errors abort the run loudly: a silently truncated trace is
        // worse than no trace.
        writeln!(self.writer, "{}", rec.to_jsonl()).expect("trace write failed");
        self.written += 1;
    }

    fn flush(&mut self) {
        use std::io::Write;
        self.writer.flush().expect("trace flush failed");
    }
}

impl<W: std::io::Write> Drop for JsonlSink<W> {
    fn drop(&mut self) {
        use std::io::Write;
        let _ = self.writer.flush();
    }
}

/// Parses a whole JSONL trace, skipping blank lines.
///
/// # Errors
///
/// Returns the first line's parse error, annotated with its line number.
pub fn parse_jsonl(text: &str) -> Result<Vec<TraceRecord>, TraceParseError> {
    let mut records = Vec::new();
    for (i, line) in text.lines().enumerate() {
        if line.trim().is_empty() {
            continue;
        }
        let rec = TraceRecord::from_jsonl(line)
            .map_err(|e| err(format!("line {}: {}", i + 1, e.message)))?;
        records.push(rec);
    }
    Ok(records)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample_records() -> Vec<TraceRecord> {
        let n = NodeId(2);
        let c = ConnectionId(7);
        vec![
            TraceRecord {
                cycle: 0,
                node: n,
                event: TraceEvent::TcInject { conn: c, src: n, seq: 1 },
            },
            TraceRecord {
                cycle: 5,
                node: n,
                event: TraceEvent::TcArrive { conn: c, port: 0, src: n, seq: 1 },
            },
            TraceRecord {
                cycle: 6,
                node: n,
                event: TraceEvent::SlotAlloc { conn: c, slot: 3, src: n, seq: 1 },
            },
            TraceRecord { cycle: 30, node: n, event: TraceEvent::SlotFree { slot: 3 } },
            TraceRecord {
                cycle: 30,
                node: n,
                event: TraceEvent::SchedSelect {
                    conn: c,
                    port: 1,
                    class: QueueClass::OnTimeEdf,
                    src: n,
                    seq: 1,
                },
            },
            TraceRecord {
                cycle: 30,
                node: n,
                event: TraceEvent::TcTransmit {
                    conn: c,
                    port: 1,
                    early: true,
                    slack: -4,
                    src: n,
                    seq: 1,
                },
            },
            TraceRecord {
                cycle: 31,
                node: n,
                event: TraceEvent::TcCutThrough { conn: c, port: 2, src: n, seq: 2 },
            },
            TraceRecord {
                cycle: 32,
                node: n,
                event: TraceEvent::TcDrop { conn: c, reason: DropReason::NoBuffer, src: n, seq: 3 },
            },
            TraceRecord {
                cycle: 60,
                node: n,
                event: TraceEvent::TcDeliver { conn: c, slack: 2, src: n, seq: 1 },
            },
            TraceRecord { cycle: 61, node: n, event: TraceEvent::BeSelect { port: 1, input: 3 } },
            TraceRecord { cycle: 70, node: n, event: TraceEvent::BeDeliver { src: n, seq: 9 } },
        ]
    }

    #[test]
    fn jsonl_round_trips_every_event_kind() {
        for rec in sample_records() {
            let line = rec.to_jsonl();
            assert_eq!(TraceRecord::from_jsonl(&line).unwrap(), rec, "line: {line}");
        }
    }

    #[test]
    fn parse_jsonl_handles_blank_lines_and_reports_line_numbers() {
        let recs = sample_records();
        let mut text = String::new();
        for r in &recs {
            text.push_str(&r.to_jsonl());
            text.push('\n');
            text.push('\n'); // blank line between records
        }
        assert_eq!(parse_jsonl(&text).unwrap(), recs);
        let good = recs[0].to_jsonl();
        let e = parse_jsonl(&format!("{good}\nnot json\n")).unwrap_err();
        assert!(e.message.starts_with("line 2:"), "{e}");
    }

    #[test]
    fn parser_rejects_malformations() {
        for bad in [
            "",
            "[]",
            "{\"cycle\":1,\"node\":0,\"ev\":\"nope\"}",
            "{\"cycle\":1,\"node\":0}",
            "{\"cycle\":-1,\"node\":0,\"ev\":\"slot_free\",\"slot\":1}",
            "{\"cycle\":1,\"node\":99999,\"ev\":\"slot_free\",\"slot\":1}",
            "{\"cycle\":1 \"node\":0}",
        ] {
            assert!(TraceRecord::from_jsonl(bad).is_err(), "should reject {bad:?}");
        }
    }

    #[test]
    fn ring_sink_bounds_memory_and_counts_evictions() {
        let mut ring = RingSink::new(3);
        for rec in sample_records() {
            ring.record(&rec);
        }
        assert_eq!(ring.len(), 3);
        assert_eq!(ring.dropped(), sample_records().len() as u64 - 3);
        let kept: Vec<TraceRecord> = ring.into_records();
        assert_eq!(&kept[..], &sample_records()[sample_records().len() - 3..]);
    }

    #[test]
    fn jsonl_sink_writes_parseable_lines() {
        let mut out = Vec::new();
        {
            let mut sink = JsonlSink::new(&mut out);
            for rec in sample_records() {
                sink.record(&rec);
            }
            sink.flush();
            assert_eq!(sink.written(), sample_records().len() as u64);
        }
        let text = String::from_utf8(out).unwrap();
        assert_eq!(parse_jsonl(&text).unwrap(), sample_records());
    }

    #[test]
    fn packet_id_exposes_provenance() {
        let recs = sample_records();
        assert_eq!(recs[0].event.packet_id(), Some((NodeId(2), 1)));
        assert_eq!(recs[3].event.packet_id(), None, "slot_free has no provenance");
        assert_eq!(recs[9].event.packet_id(), None, "be_select has no provenance");
    }

    #[test]
    fn shared_sink_is_usable_through_dyn_trait() {
        let ring = shared(RingSink::new(8));
        let as_dyn: SharedTraceSink = ring.clone();
        as_dyn.lock().unwrap().record(&sample_records()[0]);
        assert_eq!(ring.lock().unwrap().len(), 1);
    }
}
