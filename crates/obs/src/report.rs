//! The exporters: [`RunReport`] bundles a drained span forest with a
//! metrics snapshot, renders as a human tree via `fmt::Display`, and
//! serializes to a stable JSON document (`schema` =
//! `"lcg-obs/run-report/v1"`) via [`RunReport::to_json`].

use std::fmt;

use crate::json::Json;
use crate::metrics::{self, HistogramSnapshot, MetricValue, MetricsSnapshot};
use crate::span::{self, FieldValue, SpanNode};

/// JSON schema identifier stamped into every report.
pub const SCHEMA: &str = "lcg-obs/run-report/v1";

/// One captured run: everything recorded since the last
/// [`crate::reset`] / capture.
#[derive(Debug, Clone, PartialEq)]
pub struct RunReport {
    /// Label for the run (experiment name, bench id).
    pub name: String,
    /// Reconstructed span forest, roots in start order.
    pub spans: Vec<SpanNode>,
    /// Registry snapshot, sorted by metric name.
    pub metrics: MetricsSnapshot,
}

impl RunReport {
    /// Drains the span collector, snapshots the metrics registry and
    /// bundles both under `name`. Draining means back-to-back captures
    /// partition spans between experiments; metrics are cumulative until
    /// [`crate::reset`].
    pub fn capture(name: &str) -> RunReport {
        RunReport {
            name: name.to_string(),
            spans: span::forest(span::drain()),
            metrics: metrics::snapshot(),
        }
    }

    /// The stable machine-readable document.
    pub fn to_json(&self) -> Json {
        Json::object([
            ("schema".to_string(), Json::Str(SCHEMA.to_string())),
            ("name".to_string(), Json::Str(self.name.clone())),
            (
                "spans".to_string(),
                Json::Array(self.spans.iter().map(span_to_json).collect()),
            ),
            (
                "metrics".to_string(),
                Json::object(
                    self.metrics
                        .entries
                        .iter()
                        .map(|(name, value)| (name.clone(), metric_to_json(value))),
                ),
            ),
        ])
    }
}

fn field_to_json(value: &FieldValue) -> Json {
    match value {
        FieldValue::U64(v) => Json::U64(*v),
        FieldValue::I64(v) => Json::I64(*v),
        // Fields are annotations, not the artifact's load-bearing numbers:
        // a non-finite score degrades to null rather than failing the run.
        FieldValue::F64(v) if !v.is_finite() => Json::Null,
        FieldValue::F64(v) => Json::F64(*v),
        FieldValue::Bool(v) => Json::Bool(*v),
        FieldValue::Str(v) => Json::Str(v.clone()),
    }
}

fn span_to_json(node: &SpanNode) -> Json {
    let r = &node.record;
    let mut pairs = vec![
        ("name".to_string(), Json::Str(r.name.to_string())),
        ("thread".to_string(), Json::U64(r.thread)),
        ("start_ns".to_string(), Json::U64(r.start_ns)),
        ("duration_ns".to_string(), Json::U64(r.duration_ns)),
    ];
    if !r.fields.is_empty() {
        pairs.push((
            "fields".to_string(),
            Json::object(
                r.fields
                    .iter()
                    .map(|(k, v)| (k.to_string(), field_to_json(v))),
            ),
        ));
    }
    if !node.children.is_empty() {
        pairs.push((
            "children".to_string(),
            Json::Array(node.children.iter().map(span_to_json).collect()),
        ));
    }
    Json::object(pairs)
}

fn histogram_to_json(h: &HistogramSnapshot) -> Json {
    // Sparse bucket encoding: only non-empty buckets, as [index, count].
    let buckets: Vec<Json> = h
        .buckets
        .iter()
        .enumerate()
        .filter(|(_, &count)| count > 0)
        .map(|(i, &count)| Json::Array(vec![Json::U64(i as u64), Json::U64(count)]))
        .collect();
    Json::object([
        ("type".to_string(), Json::Str("histogram".to_string())),
        ("count".to_string(), Json::U64(h.count)),
        ("sum".to_string(), Json::U64(h.sum)),
        ("min".to_string(), Json::U64(h.min)),
        ("max".to_string(), Json::U64(h.max)),
        ("mean".to_string(), Json::F64(h.mean())),
        ("p50".to_string(), Json::U64(h.quantile(0.5))),
        ("p99".to_string(), Json::U64(h.quantile(0.99))),
        ("buckets".to_string(), Json::Array(buckets)),
    ])
}

fn metric_to_json(value: &MetricValue) -> Json {
    match value {
        MetricValue::Counter(v) => Json::object([
            ("type".to_string(), Json::Str("counter".to_string())),
            ("value".to_string(), Json::U64(*v)),
        ]),
        MetricValue::Gauge(v) => Json::object([
            ("type".to_string(), Json::Str("gauge".to_string())),
            (
                "value".to_string(),
                if v.is_finite() {
                    Json::F64(*v)
                } else {
                    Json::Null
                },
            ),
        ]),
        MetricValue::Histogram(h) => histogram_to_json(h),
    }
}

fn fmt_duration(ns: u64) -> String {
    if ns >= 1_000_000_000 {
        format!("{:.3}s", ns as f64 / 1e9)
    } else if ns >= 1_000_000 {
        format!("{:.3}ms", ns as f64 / 1e6)
    } else if ns >= 1_000 {
        format!("{:.1}µs", ns as f64 / 1e3)
    } else {
        format!("{ns}ns")
    }
}

fn fmt_field(value: &FieldValue) -> String {
    match value {
        FieldValue::U64(v) => v.to_string(),
        FieldValue::I64(v) => v.to_string(),
        FieldValue::F64(v) => format!("{v:.4}"),
        FieldValue::Bool(v) => v.to_string(),
        FieldValue::Str(v) => format!("{v:?}"),
    }
}

fn fmt_span(node: &SpanNode, depth: usize, f: &mut fmt::Formatter<'_>) -> fmt::Result {
    let r = &node.record;
    write!(
        f,
        "{:indent$}{} [{}]",
        "",
        r.name,
        fmt_duration(r.duration_ns),
        indent = depth * 2
    )?;
    if r.thread != 0 {
        write!(f, " (thread {})", r.thread)?;
    }
    for (key, value) in &r.fields {
        write!(f, " {key}={}", fmt_field(value))?;
    }
    writeln!(f)?;
    for child in &node.children {
        fmt_span(child, depth + 1, f)?;
    }
    Ok(())
}

impl fmt::Display for RunReport {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        writeln!(f, "run report: {}", self.name)?;
        if !self.spans.is_empty() {
            writeln!(f, "spans:")?;
            for root in &self.spans {
                fmt_span(root, 1, f)?;
            }
        }
        if !self.metrics.entries.is_empty() {
            writeln!(f, "metrics:")?;
            for (name, value) in &self.metrics.entries {
                match value {
                    MetricValue::Counter(v) => writeln!(f, "  {name} = {v}")?,
                    MetricValue::Gauge(v) => writeln!(f, "  {name} = {v:.4}")?,
                    MetricValue::Histogram(h) => writeln!(
                        f,
                        "  {name}: n={} mean={} p50={} p99={} max={}",
                        h.count,
                        fmt_duration(h.mean() as u64),
                        fmt_duration(h.quantile(0.5)),
                        fmt_duration(h.quantile(0.99)),
                        fmt_duration(h.max),
                    )?,
                }
            }
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn capture_bundles_spans_and_metrics() {
        let _lock = crate::test_lock();
        crate::set_enabled(true);
        crate::span::drain();
        {
            let mut outer = crate::span::span("report/outer");
            outer.field_str("mode", "test");
            let _inner = crate::span::span("report/inner");
        }
        crate::metrics::counter("report/widgets").add(5);
        let report = RunReport::capture("unit");
        crate::set_enabled(false);

        assert_eq!(report.name, "unit");
        assert_eq!(report.spans.len(), 1);
        assert_eq!(report.spans[0].children.len(), 1);
        assert_eq!(report.metrics.counter("report/widgets"), Some(5));

        let text = report.to_json().render().unwrap();
        assert!(text.contains("\"schema\":\"lcg-obs/run-report/v1\""));
        assert!(text.contains("\"report/widgets\""));
        assert!(text.contains("\"children\""));

        let human = report.to_string();
        assert!(human.contains("report/outer"));
        assert!(human.contains("mode=\"test\""));
        assert!(human.contains("report/widgets = 5"));

        // Capture drained the collector: a fresh capture sees no spans.
        assert!(RunReport::capture("empty").spans.is_empty());
    }

    #[test]
    fn histogram_export_is_sparse_and_finite() {
        let _lock = crate::test_lock();
        crate::metrics::histogram("report/hist").record(1500);
        let report = RunReport::capture("hist");
        let doc = report.to_json();
        let text = doc.render_pretty().unwrap();
        assert!(text.contains("\"type\": \"histogram\""));
        assert!(text.contains("\"count\": 1"));
    }
}
