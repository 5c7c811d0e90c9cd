//! Replays a JSONL trace (written by `rtr console trace=<path>` or any
//! [`rtr_types::trace::JsonlSink`]) into human-readable per-connection
//! timelines plus a slack summary. Metric lines (`rtr console
//! metrics=<path>`) and flight-recorder dumps share the same flat-JSONL
//! shape, so the tool reads those too: metric lines become a `metrics_dump`
//! summary and flight events a post-mortem timeline, interleaved or alone.
//!
//! The JSONL codecs live in `rtr-types`/`rtr-metrics` and need no feature
//! flags, so replay always builds — only *recording* needs
//! `--features metrics`.

use std::collections::BTreeMap;
use std::fmt::Write as _;

use rtr_metrics::{MetricLine, MetricValue};
use rtr_types::trace::{TraceEvent, TraceRecord};

use crate::{Args, Keys};

const KEYS: &Keys = &[
    ("path", "the JSONL file (may be given bare)"),
    ("conn", "only report connection N"),
    ("packets", "per-packet timelines printed per connection (default 1)"),
];

/// `println!` into the report being built (writing to a `String` cannot fail).
macro_rules! line {
    ($out:expr, $($arg:tt)*) => {{
        let _ = writeln!($out, $($arg)*);
    }};
}

/// Everything we learned about one packet from its event chain.
struct PacketChain {
    conn: Option<u16>,
    records: Vec<TraceRecord>,
    delivered_slack: Option<i64>,
    dropped: bool,
}

fn describe(event: &TraceEvent) -> String {
    match *event {
        TraceEvent::TcInject { conn, .. } => format!("tc_inject     conn {}", conn.0),
        TraceEvent::TcArrive { conn, port, .. } => {
            format!("tc_arrive     conn {}  in-port {port}", conn.0)
        }
        TraceEvent::SlotAlloc { conn, slot, .. } => {
            format!("slot_alloc    conn {}  slot {slot}", conn.0)
        }
        TraceEvent::SlotFree { slot } => format!("slot_free     slot {slot}"),
        TraceEvent::SchedSelect { conn, port, class, .. } => {
            format!("sched_select  conn {}  out-port {port}  {class:?}", conn.0)
        }
        TraceEvent::TcTransmit { conn, port, early, slack, .. } => format!(
            "tc_transmit   conn {}  out-port {port}  slack {slack}{}",
            conn.0,
            if early { "  (early)" } else { "" }
        ),
        TraceEvent::TcCutThrough { conn, port, .. } => {
            format!("tc_cut_through conn {}  out-port {port}", conn.0)
        }
        TraceEvent::TcDrop { conn, reason, .. } => {
            format!("tc_drop       conn {}  {reason:?}", conn.0)
        }
        TraceEvent::TcDeliver { conn, slack, .. } => {
            format!("tc_deliver    conn {}  slack {slack}", conn.0)
        }
        TraceEvent::BeSelect { port, input } => {
            format!("be_select     out-port {port}  from in-port {input}")
        }
        TraceEvent::BeDeliver { .. } => "be_deliver".to_string(),
    }
}

fn event_conn(event: &TraceEvent) -> Option<u16> {
    match *event {
        TraceEvent::TcInject { conn, .. }
        | TraceEvent::TcArrive { conn, .. }
        | TraceEvent::SlotAlloc { conn, .. }
        | TraceEvent::SchedSelect { conn, .. }
        | TraceEvent::TcTransmit { conn, .. }
        | TraceEvent::TcCutThrough { conn, .. }
        | TraceEvent::TcDrop { conn, .. }
        | TraceEvent::TcDeliver { conn, .. } => Some(conn.0),
        TraceEvent::SlotFree { .. }
        | TraceEvent::BeSelect { .. }
        | TraceEvent::BeDeliver { .. } => None,
    }
}

pub fn run(args: &[String]) -> Result<(), String> {
    let args = Args::parse(KEYS, 1, args)?;
    let path = args.get("path").ok_or_else(|| args.error("missing trace file path".into()))?;
    let only_conn: Option<u16> = args.opt("conn")?;
    let packets_per_conn: usize = args.num("packets", 1)?;
    let text = std::fs::read_to_string(path).map_err(|e| format!("cannot read {path}: {e}"))?;
    print!("{}", render(path, &text, only_conn, packets_per_conn)?);
    Ok(())
}

/// The whole report for one file's `text`; `path` only labels it.
fn render(
    path: &str,
    text: &str,
    only_conn: Option<u16>,
    packets_per_conn: usize,
) -> Result<String, String> {
    let mut out = String::new();
    // Sort each line by what it parses as, never by its spacing, so one
    // tool reads console traces, metrics files, and flight dumps alike: a
    // metric line, a flight-recorder header, a trace record, and only
    // then — an `"ev"` line no trace tag matches — a flight event.
    let mut metric_lines: Vec<MetricLine> = Vec::new();
    let mut flight_header: Option<String> = None;
    let mut flight_events: Vec<String> = Vec::new();
    let mut records: Vec<TraceRecord> = Vec::new();
    for (i, line) in text.lines().enumerate() {
        let trimmed = line.trim();
        if trimmed.is_empty() {
            continue;
        }
        if let Some(metric) = MetricLine::parse(trimmed) {
            metric_lines.push(metric);
        } else if trimmed.contains("\"flight\"") {
            flight_header = Some(trimmed.to_string());
        } else {
            match TraceRecord::from_jsonl(trimmed) {
                Ok(record) => records.push(record),
                Err(_) if trimmed.contains("\"ev\"") => flight_events.push(trimmed.to_string()),
                Err(e) => return Err(format!("cannot parse {path}: line {}: {e}", i + 1)),
            }
        }
    }

    match &flight_header {
        Some(header) => line!(out, "flight-recorder dump: {header}"),
        None if !flight_events.is_empty() => line!(out, "flight-recorder events (no dump header):"),
        None => {}
    }
    for event in &flight_events {
        line!(out, "  {event}");
    }
    print_metrics_dump(&mut out, &metric_lines);

    if records.is_empty() {
        if flight_header.is_none() && metric_lines.is_empty() && flight_events.is_empty() {
            line!(out, "{path}: empty trace");
        }
        return Ok(out);
    }

    let first = records.iter().map(|r| r.cycle).min().unwrap();
    let last = records.iter().map(|r| r.cycle).max().unwrap();
    let mut by_kind: BTreeMap<&'static str, usize> = BTreeMap::new();
    for rec in &records {
        *by_kind.entry(rec.event.tag()).or_default() += 1;
    }
    line!(out, "{path}: {} records, cycles {first}..{last}", records.len());
    out.push_str("events:");
    for (tag, n) in &by_kind {
        let _ = write!(out, "  {tag} {n}");
    }
    out.push('\n');

    // Stitch per-packet chains across nodes using the (src, seq) provenance.
    // Best-effort events are left out: BE sources number their packets
    // independently of the channel senders, so a BE (src, seq) pair can
    // collide with a time-constrained one.
    let mut chains: BTreeMap<(u16, u64), PacketChain> = BTreeMap::new();
    for rec in &records {
        if matches!(rec.event, TraceEvent::BeSelect { .. } | TraceEvent::BeDeliver { .. }) {
            continue;
        }
        let Some((src, seq)) = rec.event.packet_id() else { continue };
        let chain = chains.entry((src.0, seq)).or_insert(PacketChain {
            conn: None,
            records: Vec::new(),
            delivered_slack: None,
            dropped: false,
        });
        if chain.conn.is_none() {
            chain.conn = event_conn(&rec.event);
        }
        match rec.event {
            TraceEvent::TcDeliver { slack, .. } => chain.delivered_slack = Some(slack),
            TraceEvent::TcDrop { .. } => chain.dropped = true,
            _ => {}
        }
        chain.records.push(*rec);
    }
    for chain in chains.values_mut() {
        chain.records.sort_by_key(|r| r.cycle);
    }

    // Group packets by connection for the per-connection report.
    let mut by_conn: BTreeMap<u16, Vec<&PacketChain>> = BTreeMap::new();
    for chain in chains.values() {
        if let Some(conn) = chain.conn {
            if only_conn.is_none() || only_conn == Some(conn) {
                by_conn.entry(conn).or_default().push(chain);
            }
        }
    }
    if by_conn.is_empty() {
        out.push('\n');
        line!(
            out,
            "no time-constrained packet chains{}",
            match only_conn {
                Some(c) => format!(" on connection {c}"),
                None => String::new(),
            }
        );
        return Ok(out);
    }

    for (conn, packets) in &by_conn {
        let delivered: Vec<i64> = packets.iter().filter_map(|p| p.delivered_slack).collect();
        let dropped = packets.iter().filter(|p| p.dropped).count();
        let in_flight = packets.len() - delivered.len() - dropped;
        out.push('\n');
        line!(
            out,
            "connection {conn} (id at first traced hop): {} packets \
             ({} delivered, {} dropped, {} in flight)",
            packets.len(),
            delivered.len(),
            dropped,
            in_flight
        );
        if !delivered.is_empty() {
            let min = delivered.iter().copied().min().unwrap();
            let mean = delivered.iter().sum::<i64>() as f64 / delivered.len() as f64;
            line!(out, "  delivery slack (slots): min {min}  mean {mean:.1}");
        }
        for packet in packets.iter().take(packets_per_conn) {
            let (src, seq) = packet.records[0]
                .event
                .packet_id()
                .expect("chains only hold provenance-bearing events");
            line!(out, "  packet src {} seq {seq}:", src.0);
            for rec in &packet.records {
                line!(
                    out,
                    "    cycle {:>8}  node {:>3}  {}",
                    rec.cycle,
                    rec.node.0,
                    describe(&rec.event)
                );
            }
        }
    }
    Ok(out)
}

/// The `metrics_dump` summary: the final registry snapshot in the file,
/// counters/gauges one per line, histograms as count/mean/max. Earlier
/// snapshots (from `metrics_every=N` streaming) are only counted.
fn print_metrics_dump(out: &mut String, lines: &[MetricLine]) {
    if lines.is_empty() {
        return;
    }
    let last_cycle = lines.iter().map(|m| m.cycle).max().unwrap();
    let snapshots = {
        let mut cycles: Vec<u64> = lines.iter().map(|m| m.cycle).collect();
        cycles.sort_unstable();
        cycles.dedup();
        cycles.len()
    };
    out.push('\n');
    line!(
        out,
        "metrics_dump: {} metrics at cycle {last_cycle}{}",
        lines.iter().filter(|m| m.cycle == last_cycle).count(),
        if snapshots > 1 { format!(" (last of {snapshots} snapshots)") } else { String::new() }
    );
    for metric in lines.iter().filter(|m| m.cycle == last_cycle) {
        match &metric.value {
            MetricValue::Counter(v) => line!(out, "  {:<34} {v}", metric.name),
            MetricValue::Gauge(v) => line!(out, "  {:<34} {v}  (gauge)", metric.name),
            MetricValue::Histogram(h) => line!(
                out,
                "  {:<34} count {}  mean {:.1}  max {}",
                metric.name,
                h.count,
                h.mean(),
                h.max
            ),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// One flight header, one metrics line, and one packet's chain written
    /// newest first: the report sorts each chain by cycle.
    const SAMPLE: &str = r#"
{"flight": "dump", "reason": "conservation", "cycle": 179, "events": 0, "dropped": 0}
{"cycle": 179, "metric": "router.tc_delivered", "type": "counter", "value": 1}
{"cycle":179,"node":5,"ev":"tc_deliver","conn":2,"slack":5,"src":4,"seq":7}
{"cycle":85,"node":4,"ev":"tc_arrive","conn":2,"port":0,"src":4,"seq":7}
{"cycle":60,"node":4,"ev":"tc_inject","conn":2,"src":4,"seq":7}
"#;

    #[test]
    fn a_packet_chain_renders_in_lifecycle_order() {
        let report = render("sample.jsonl", SAMPLE, Some(2), 1).unwrap();
        let at = |needle: &str| report.find(needle).unwrap_or_else(|| panic!("{needle}: {report}"));
        assert!(at("flight-recorder dump:") < at("metrics_dump: 1 metrics at cycle 179"));
        assert!(at("router.tc_delivered") < at("sample.jsonl: 3 records, cycles 60..179"));
        assert!(at("1 packets (1 delivered, 0 dropped, 0 in flight)") < at("packet src 4 seq 7:"));
        let chain =
            ["tc_inject     conn 2", "tc_arrive     conn 2", "tc_deliver    conn 2"].map(at);
        assert!(chain.is_sorted(), "{report}");
        assert!(render("sample.jsonl", SAMPLE, Some(3), 1).unwrap().contains("on connection 3"));
        assert!(render("bad.jsonl", "{\"cycle\": 1}", None, 1).unwrap_err().contains("bad.jsonl"));
    }

    /// A writer that puts a space after each `:` and `,` spells the same
    /// records: the chain must still read as a trace, not as flight events,
    /// and a flight event without its dump header is still printed.
    #[test]
    fn records_are_sorted_by_content_not_spacing() {
        let chain: Vec<&str> = SAMPLE.lines().filter(|l| l.contains("\"ev\":\"")).collect();
        assert_eq!(chain.len(), 3);
        let compact = chain.join("\n");
        let spaced = compact.replace("\":", "\": ").replace(",\"", ", \"");
        assert!(spaced.contains("\"ev\": \"tc_deliver\""));
        let report = render("chain.jsonl", &spaced, Some(2), 1).unwrap();
        assert!(report.contains("chain.jsonl: 3 records, cycles 60..179"), "{report}");
        assert_eq!(report, render("chain.jsonl", &compact, Some(2), 1).unwrap());

        let event = r#"{"cycle": 12, "node": 3, "ev": "deliver_tc", "a": 2, "b": 9}"#;
        let report = render("flight.jsonl", event, None, 1).unwrap();
        assert!(report.contains(event), "{report}");
    }
}
