//! Point-in-time metric snapshots and their JSONL wire form.
//!
//! Snapshots are plain data, compiled with or without the `metrics` feature,
//! so export surfaces (`rtr console metrics=` streams, `rtr trace-dump`
//! summaries, the `benchmark/` crate's per-layer rows) and their parsers
//! never carry feature gates. A disabled registry just produces an empty
//! snapshot.
//!
//! Like the rest of the repository (no serialisation crate is available
//! offline), the wire form is hand-rolled flat JSON: one object per counter
//! per line, string values free of escapes.

use std::fmt::Write as _;

/// An ordered set of named counter values, frozen at one instant.
///
/// Entries are sorted by name, so two snapshots of equivalent state render
/// byte-identically — the property the drive-mode equivalence test leans
/// on.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct MetricsSnapshot {
    /// `(name, value)` pairs, ascending by name.
    pub entries: Vec<(String, u64)>,
}

impl MetricsSnapshot {
    /// An empty snapshot.
    #[must_use]
    pub fn empty() -> Self {
        MetricsSnapshot::default()
    }

    /// Whether nothing was captured (always true with metrics disabled).
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.entries.is_empty()
    }

    /// The value of a counter, if present.
    #[must_use]
    pub fn counter(&self, name: &str) -> Option<u64> {
        self.entries.binary_search_by(|(n, _)| n.as_str().cmp(name)).ok().map(|i| self.entries[i].1)
    }

    /// The subset of metrics whose name starts with `prefix`, e.g.
    /// `"router."` for the drive-mode-independent datapath ledger.
    #[must_use]
    pub fn filter_prefix(&self, prefix: &str) -> MetricsSnapshot {
        MetricsSnapshot {
            entries: self.entries.iter().filter(|(n, _)| n.starts_with(prefix)).cloned().collect(),
        }
    }

    /// Renders the snapshot as JSONL, one flat object per metric, each
    /// stamped with `cycle`. Ends with a trailing newline unless empty.
    #[must_use]
    pub fn to_jsonl(&self, cycle: u64) -> String {
        let mut out = String::new();
        for (name, value) in &self.entries {
            let _ = writeln!(
                out,
                "{{\"cycle\": {cycle}, \"metric\": \"{name}\", \"type\": \"counter\", \"value\": {value}}}"
            );
        }
        out
    }
}

/// One parsed metric line from a JSONL stream (see
/// [`MetricsSnapshot::to_jsonl`]).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct MetricLine {
    /// The cycle the snapshot was taken at.
    pub cycle: u64,
    /// Metric name.
    pub name: String,
    /// Counter value.
    pub value: u64,
}

impl MetricLine {
    /// Parses one JSONL counter line; `None` if the line is not one
    /// (callers interleave these with trace records).
    #[must_use]
    pub fn parse(line: &str) -> Option<MetricLine> {
        let fields = parse_flat(line)?;
        let find = |key: &str| fields.iter().find(|(k, _)| k == key).map(|(_, v)| v);
        let (Flat::Str(name), Flat::Int(cycle), Flat::Str(kind), Flat::Int(value)) =
            (find("metric")?, find("cycle")?, find("type")?, find("value")?)
        else {
            return None;
        };
        (kind == "counter").then(|| MetricLine {
            cycle: *cycle as u64,
            name: name.clone(),
            value: *value as u64,
        })
    }
}

#[derive(Debug)]
enum Flat {
    Int(i64),
    Str(String),
}

/// Minimal flat-JSON object parser: integer and escape-free string members
/// only, which is exactly what this crate emits. Returns `None` on anything
/// else rather than erroring — callers treat non-metric lines as foreign.
fn parse_flat(line: &str) -> Option<Vec<(String, Flat)>> {
    let body = line.trim().strip_prefix('{')?.strip_suffix('}')?;
    let mut fields = Vec::new();
    let mut rest = body.trim();
    while !rest.is_empty() {
        rest = rest.strip_prefix('"')?;
        let (key, after) = rest.split_once('"')?;
        rest = after.trim_start().strip_prefix(':')?.trim_start();
        let value;
        if let Some(after) = rest.strip_prefix('"') {
            let (s, after) = after.split_once('"')?;
            if s.contains('\\') {
                return None;
            }
            value = Flat::Str(s.to_string());
            rest = after;
        } else {
            let end = rest.find([',', '}']).unwrap_or(rest.len());
            value = Flat::Int(rest[..end].trim().parse().ok()?);
            rest = &rest[end..];
        }
        fields.push((key.to_string(), value));
        rest = rest.trim_start();
        if let Some(after) = rest.strip_prefix(',') {
            rest = after.trim_start();
        } else {
            break;
        }
    }
    Some(fields)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample() -> MetricsSnapshot {
        MetricsSnapshot { entries: vec![("a.count".into(), 7), ("b.count".into(), 3)] }
    }

    #[test]
    fn jsonl_round_trips() {
        let snap = sample();
        let text = snap.to_jsonl(42);
        assert_eq!(
            text.lines().next(),
            Some("{\"cycle\": 42, \"metric\": \"a.count\", \"type\": \"counter\", \"value\": 7}")
        );
        let parsed: Vec<MetricLine> = text.lines().filter_map(MetricLine::parse).collect();
        assert_eq!(parsed.len(), 2);
        for (line, (name, value)) in parsed.iter().zip(&snap.entries) {
            assert_eq!((line.cycle, &line.name, line.value), (42, name, *value));
        }
    }

    #[test]
    fn filter_prefix_selects_namespace() {
        let only_a = sample().filter_prefix("a.");
        assert_eq!(only_a.entries.len(), 1);
        assert_eq!(only_a.counter("a.count"), Some(7));
        assert_eq!(only_a.counter("b.count"), None);
    }

    /// Trace records, and the gauge and histogram lines older builds wrote,
    /// are not counter lines.
    #[test]
    fn foreign_lines_parse_to_none() {
        assert!(MetricLine::parse("{\"cycle\": 3, \"node\": 1, \"tag\": \"tc_arrive\"}").is_none());
        assert!(MetricLine::parse("not json").is_none());
        assert!(MetricLine::parse(
            "{\"cycle\": 3, \"metric\": \"sim.level\", \"type\": \"gauge\", \"value\": 7}"
        )
        .is_none());
        assert!(MetricLine::parse(
            "{\"cycle\": 3, \"metric\": \"sim.leap_cycles\", \"type\": \"histogram\", \
             \"count\": 1, \"sum\": 4, \"min\": 4, \"max\": 4, \"buckets\": \"2:1\"}"
        )
        .is_none());
    }
}
