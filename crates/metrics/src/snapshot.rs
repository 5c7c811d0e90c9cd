//! Point-in-time metric snapshots and their JSONL wire form.
//!
//! Snapshots are plain data, compiled with or without the `metrics` feature,
//! so export surfaces (`rtr console metrics=` streams, `rtr trace-dump`
//! summaries, the `benchmark/` crate's per-layer rows) and their parsers
//! never carry feature gates. A disabled registry just produces an empty
//! snapshot.
//!
//! Like the rest of the repository (no serialisation crate is available
//! offline), the wire form is hand-rolled flat JSON: one object per line, string values free of
//! escapes, histogram buckets packed into a `"b:count"` list string so every
//! line stays flat.

use std::fmt::Write as _;

/// The value of one named metric at snapshot time.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum MetricValue {
    /// Monotonic counter.
    Counter(u64),
    /// Instantaneous level.
    Gauge(i64),
    /// Log₂-bucketed distribution.
    Histogram(HistogramSnapshot),
}

/// A frozen log₂ histogram: counts per power-of-two bucket.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct HistogramSnapshot {
    /// Observations recorded.
    pub count: u64,
    /// Sum of all observed values.
    pub sum: u64,
    /// Smallest observed value (0 when empty).
    pub min: u64,
    /// Largest observed value.
    pub max: u64,
    /// Occupied buckets as `(floor(log2(value)), count)`, ascending; value 0
    /// lands in bucket 0.
    pub buckets: Vec<(u32, u64)>,
}

impl HistogramSnapshot {
    /// Mean observed value (0.0 when empty).
    #[must_use]
    pub fn mean(&self) -> f64 {
        if self.count == 0 {
            0.0
        } else {
            self.sum as f64 / self.count as f64
        }
    }
}

/// An ordered set of named metric values, frozen at one instant.
///
/// Entries are sorted by name, so two snapshots of equivalent state render
/// byte-identically — the property the stepped-vs-leaping equivalence test
/// leans on.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct MetricsSnapshot {
    /// `(name, value)` pairs, ascending by name.
    pub entries: Vec<(String, MetricValue)>,
}

impl MetricsSnapshot {
    /// An empty snapshot.
    #[must_use]
    pub fn empty() -> Self {
        MetricsSnapshot::default()
    }

    /// Number of metrics captured.
    #[must_use]
    pub fn len(&self) -> usize {
        self.entries.len()
    }

    /// Whether nothing was captured (always true with metrics disabled).
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.entries.is_empty()
    }

    /// Looks up a metric by exact name.
    #[must_use]
    pub fn get(&self, name: &str) -> Option<&MetricValue> {
        self.entries
            .binary_search_by(|(n, _)| n.as_str().cmp(name))
            .ok()
            .map(|i| &self.entries[i].1)
    }

    /// Convenience: the value of a counter metric, if present.
    #[must_use]
    pub fn counter(&self, name: &str) -> Option<u64> {
        match self.get(name) {
            Some(MetricValue::Counter(v)) => Some(*v),
            _ => None,
        }
    }

    /// The subset of metrics whose name starts with `prefix`, e.g.
    /// `"router."` for the drive-mode-independent datapath ledger.
    #[must_use]
    pub fn filter_prefix(&self, prefix: &str) -> MetricsSnapshot {
        MetricsSnapshot {
            entries: self.entries.iter().filter(|(n, _)| n.starts_with(prefix)).cloned().collect(),
        }
    }

    /// The change since `earlier`: counters and histogram counts subtract
    /// (saturating), gauges keep this snapshot's level. Metrics absent from
    /// `earlier` pass through unchanged.
    #[must_use]
    pub fn delta(&self, earlier: &MetricsSnapshot) -> MetricsSnapshot {
        let entries = self
            .entries
            .iter()
            .map(|(name, value)| {
                let v = match (value, earlier.get(name)) {
                    (MetricValue::Counter(now), Some(MetricValue::Counter(then))) => {
                        MetricValue::Counter(now.saturating_sub(*then))
                    }
                    (MetricValue::Histogram(now), Some(MetricValue::Histogram(then))) => {
                        let mut d = now.clone();
                        d.count = d.count.saturating_sub(then.count);
                        d.sum = d.sum.saturating_sub(then.sum);
                        for (bucket, count) in &mut d.buckets {
                            if let Some((_, c0)) = then.buckets.iter().find(|(b0, _)| b0 == bucket)
                            {
                                *count = count.saturating_sub(*c0);
                            }
                        }
                        d.buckets.retain(|(_, c)| *c > 0);
                        MetricValue::Histogram(d)
                    }
                    (v, _) => v.clone(),
                };
                (name.clone(), v)
            })
            .collect();
        MetricsSnapshot { entries }
    }

    /// Renders the snapshot as JSONL, one flat object per metric, each
    /// stamped with `cycle`. Ends with a trailing newline unless empty.
    #[must_use]
    pub fn to_jsonl(&self, cycle: u64) -> String {
        let mut out = String::new();
        for (name, value) in &self.entries {
            render_line(&mut out, cycle, name, value);
        }
        out
    }

    /// Renders counters and gauges as one flat JSON object, histograms
    /// flattened to `name.count`/`name.sum`/`name.max` members — a shape a
    /// results file can embed next to its timing columns.
    #[must_use]
    pub fn render_object(&self) -> String {
        let mut out = String::from("{");
        let mut first = true;
        let mut field = |out: &mut String, name: &str, v: String| {
            if !first {
                out.push_str(", ");
            }
            first = false;
            let _ = write!(out, "\"{name}\": {v}");
        };
        for (name, value) in &self.entries {
            match value {
                MetricValue::Counter(v) => field(&mut out, name, v.to_string()),
                MetricValue::Gauge(v) => field(&mut out, name, v.to_string()),
                MetricValue::Histogram(h) => {
                    field(&mut out, &format!("{name}.count"), h.count.to_string());
                    field(&mut out, &format!("{name}.sum"), h.sum.to_string());
                    field(&mut out, &format!("{name}.max"), h.max.to_string());
                }
            }
        }
        out.push('}');
        out
    }
}

fn render_line(out: &mut String, cycle: u64, name: &str, value: &MetricValue) {
    match value {
        MetricValue::Counter(v) => {
            let _ = writeln!(
                out,
                "{{\"cycle\": {cycle}, \"metric\": \"{name}\", \"type\": \"counter\", \"value\": {v}}}"
            );
        }
        MetricValue::Gauge(v) => {
            let _ = writeln!(
                out,
                "{{\"cycle\": {cycle}, \"metric\": \"{name}\", \"type\": \"gauge\", \"value\": {v}}}"
            );
        }
        MetricValue::Histogram(h) => {
            let buckets =
                h.buckets.iter().map(|(b, c)| format!("{b}:{c}")).collect::<Vec<_>>().join(" ");
            let _ = writeln!(
                out,
                "{{\"cycle\": {cycle}, \"metric\": \"{name}\", \"type\": \"histogram\", \
                 \"count\": {count}, \"sum\": {sum}, \"min\": {min}, \"max\": {max}, \
                 \"buckets\": \"{buckets}\"}}",
                count = h.count,
                sum = h.sum,
                min = h.min,
                max = h.max,
            );
        }
    }
}

/// One parsed metric line from a JSONL stream (see
/// [`MetricsSnapshot::to_jsonl`]).
#[derive(Debug, Clone, PartialEq)]
pub struct MetricLine {
    /// The cycle the snapshot was taken at.
    pub cycle: u64,
    /// Metric name.
    pub name: String,
    /// Parsed value.
    pub value: MetricValue,
}

impl MetricLine {
    /// Parses one JSONL metric line; `None` if the line is not a metric
    /// line (callers interleave these with trace records and skip the rest).
    #[must_use]
    pub fn parse(line: &str) -> Option<MetricLine> {
        let fields = parse_flat(line)?;
        let find = |key: &str| fields.iter().find(|(k, _)| k == key).map(|(_, v)| v.clone());
        let name = match find("metric")? {
            Flat::Str(s) => s,
            _ => return None,
        };
        let cycle = match find("cycle")? {
            Flat::Int(v) => v as u64,
            _ => return None,
        };
        let kind = match find("type")? {
            Flat::Str(s) => s,
            _ => return None,
        };
        let int = |key: &str| match find(key) {
            Some(Flat::Int(v)) => Some(v),
            _ => None,
        };
        let value = match kind.as_str() {
            "counter" => MetricValue::Counter(int("value")? as u64),
            "gauge" => MetricValue::Gauge(int("value")?),
            "histogram" => {
                let buckets = match find("buckets") {
                    Some(Flat::Str(s)) if !s.is_empty() => s
                        .split(' ')
                        .filter_map(|pair| {
                            let (b, c) = pair.split_once(':')?;
                            Some((b.parse().ok()?, c.parse().ok()?))
                        })
                        .collect(),
                    _ => Vec::new(),
                };
                MetricValue::Histogram(HistogramSnapshot {
                    count: int("count")? as u64,
                    sum: int("sum")? as u64,
                    min: int("min")? as u64,
                    max: int("max")? as u64,
                    buckets,
                })
            }
            _ => return None,
        };
        Some(MetricLine { cycle, name, value })
    }
}

#[derive(Debug, Clone, PartialEq)]
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
        MetricsSnapshot {
            entries: vec![
                ("a.count".into(), MetricValue::Counter(7)),
                ("b.level".into(), MetricValue::Gauge(-3)),
                (
                    "c.hist".into(),
                    MetricValue::Histogram(HistogramSnapshot {
                        count: 3,
                        sum: 70,
                        min: 2,
                        max: 64,
                        buckets: vec![(1, 2), (6, 1)],
                    }),
                ),
            ],
        }
    }

    #[test]
    fn jsonl_round_trips() {
        let snap = sample();
        let text = snap.to_jsonl(42);
        let parsed: Vec<MetricLine> = text.lines().filter_map(MetricLine::parse).collect();
        assert_eq!(parsed.len(), 3);
        assert_eq!(parsed[0].cycle, 42);
        for (line, (name, value)) in parsed.iter().zip(&snap.entries) {
            assert_eq!(&line.name, name);
            assert_eq!(&line.value, value);
        }
    }

    #[test]
    fn delta_subtracts_counters_and_histograms() {
        let early = MetricsSnapshot {
            entries: vec![
                ("a.count".into(), MetricValue::Counter(2)),
                ("b.level".into(), MetricValue::Gauge(9)),
            ],
        };
        let d = sample().delta(&early);
        assert_eq!(d.counter("a.count"), Some(5));
        assert_eq!(d.get("b.level"), Some(&MetricValue::Gauge(-3)));
    }

    #[test]
    fn filter_prefix_selects_namespace() {
        let snap = sample();
        let only_a = snap.filter_prefix("a.");
        assert_eq!(only_a.len(), 1);
        assert_eq!(only_a.counter("a.count"), Some(7));
    }

    #[test]
    fn foreign_lines_parse_to_none() {
        assert!(MetricLine::parse("{\"cycle\": 3, \"node\": 1, \"tag\": \"tc_arrive\"}").is_none());
        assert!(MetricLine::parse("not json").is_none());
    }

    #[test]
    fn render_object_flattens_histograms() {
        let obj = sample().render_object();
        assert!(obj.starts_with('{') && obj.ends_with('}'));
        assert!(obj.contains("\"c.hist.count\": 3"));
        assert!(obj.contains("\"a.count\": 7"));
    }
}
