//! Shared measurement plumbing: metric values, output checks, timing
//! loops, and the one-line JSON result.

use crate::catalogue;
use lcg_obs::json::Json;
use std::collections::BTreeMap;
use std::time::Instant;

/// Named metric values gathered by one run.
#[derive(Debug, Default)]
pub struct Metrics(BTreeMap<&'static str, f64>);

impl Metrics {
    pub fn set(&mut self, name: &'static str, value: f64) {
        assert!(
            catalogue::end_to_end()
                .iter()
                .chain(catalogue::per_layer())
                .any(|(n, _)| *n == name),
            "metric {name} is not in the catalogue"
        );
        self.0.insert(name, value);
    }

    pub fn get(&self, name: &str) -> Option<f64> {
        self.0.get(name).copied()
    }

    /// Per-metric median over several samples of the same metrics.
    pub fn median_of(samples: &[Metrics]) -> Metrics {
        let mut out = Metrics::default();
        if let Some(first) = samples.first() {
            for &name in first.0.keys() {
                let values: Vec<f64> = samples.iter().filter_map(|m| m.get(name)).collect();
                out.0.insert(name, median(&values));
            }
        }
        out
    }
}

/// Output checks; each one counts as an attempted operation.
#[derive(Debug, Default)]
pub struct Checks {
    pub attempted: u64,
    pub failed: u64,
}

impl Checks {
    pub fn check(&mut self, ok: bool, what: impl FnOnce() -> String) {
        self.attempted += 1;
        if !ok {
            self.failed += 1;
            eprintln!("perfbench: check failed: {}", what());
        }
    }

    pub fn ok_share(&self) -> f64 {
        (self.attempted - self.failed) as f64 / self.attempted.max(1) as f64
    }
}

/// Runs `f` and returns its result with the elapsed wall time in seconds.
pub fn timed<T>(f: impl FnOnce() -> T) -> (T, f64) {
    let start = Instant::now();
    let out = f();
    (out, start.elapsed().as_secs_f64())
}

pub fn median(values: &[f64]) -> f64 {
    assert!(!values.is_empty(), "median of no samples");
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let mid = v.len() / 2;
    if v.len() % 2 == 1 {
        v[mid]
    } else {
        0.5 * (v[mid - 1] + v[mid])
    }
}

/// Builds the inputs repeatedly (at least nine times and for at least one
/// second) and returns the last build with the median build time,
/// so even a set-up of microseconds is reported steadily. The previous
/// build is dropped before the next starts, so at most one is ever live.
pub fn setup<T>(mut build: impl FnMut() -> T) -> (T, f64) {
    let mut last = None;
    let times = repeat_for(1.0, 9, || {
        last = None;
        let (inputs, t) = timed(&mut build);
        last = Some(inputs);
        t
    });
    (last.expect("at least one set-up"), median(&times))
}

/// Calls `unit` (which returns the seconds it timed) until `seconds` have
/// passed and at least `min_iters` samples exist; returns every sample.
pub fn repeat_for(seconds: f64, min_iters: usize, mut unit: impl FnMut() -> f64) -> Vec<f64> {
    let start = Instant::now();
    let mut samples = Vec::new();
    while samples.len() < min_iters || start.elapsed().as_secs_f64() < seconds {
        samples.push(unit());
    }
    samples
}

/// Peak resident set size of this process in MiB (Linux `VmHWM`).
pub fn peak_rss_mb() -> Result<f64, String> {
    let status = std::fs::read_to_string("/proc/self/status")
        .map_err(|e| format!("reading /proc/self/status: {e}"))?;
    let kb = status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|rest| {
            rest.trim()
                .trim_end_matches("kB")
                .trim()
                .parse::<f64>()
                .ok()
        })
        .ok_or("no VmHWM line in /proc/self/status")?;
    Ok(kb / 1024.0)
}

/// Renders the result line: every catalogue metric of the mode, with the
/// per-layer ones this workload never entered reported as 0.
pub fn result_line(checks: &Checks, metrics: &Metrics, trace: bool) -> Result<String, String> {
    let entries = if trace {
        catalogue::per_layer()
    } else {
        catalogue::end_to_end()
    };
    let mut out = BTreeMap::new();
    for &(name, unit) in entries {
        let value = match metrics.get(name) {
            Some(v) => v,
            None if trace => 0.0,
            None => return Err(format!("end-to-end metric {name} was not measured")),
        };
        out.insert(
            name.to_string(),
            Json::object([
                ("value".to_string(), Json::F64(value)),
                ("unit".to_string(), Json::Str(unit.to_string())),
            ]),
        );
    }
    Json::object([
        ("correct".to_string(), Json::Bool(checks.failed == 0)),
        ("attempted".to_string(), Json::U64(checks.attempted)),
        ("failed".to_string(), Json::U64(checks.failed)),
        ("metrics".to_string(), Json::Object(out)),
    ])
    .render()
    .map_err(|e| e.to_string())
}

/// The `"value"` of metric `name` in a line printed by [`result_line`]
/// (keys render in sorted order, so `"unit"` precedes `"value"`).
pub fn metric_in_line(line: &str, name: &str) -> Option<f64> {
    let key = format!("\"{name}\":{{\"unit\":");
    let rest = &line[line.find(&key)? + key.len()..];
    let rest = &rest[rest.find("\"value\":")? + "\"value\":".len()..];
    let end = rest.find(['}', ','])?;
    rest[..end].parse().ok()
}

/// Number of finished spans named `name`.
pub fn span_count(records: &[lcg_obs::span::SpanRecord], name: &str) -> f64 {
    records.iter().filter(|r| r.name == name).count() as f64
}

/// Counter value from a registry snapshot (0 when never registered).
pub fn counter(snapshot: &lcg_obs::metrics::MetricsSnapshot, name: &str) -> f64 {
    snapshot.counter(name).unwrap_or(0) as f64
}
