//! The metric catalogue: every name the benchmark prints, with its unit,
//! read from `BENCHMARK.json` so the names and units live in one place.

use std::sync::OnceLock;

/// `(name, unit)` of one metric.
pub type Entry = (&'static str, &'static str);

const BENCHMARK_JSON: &str = include_str!("../../BENCHMARK.json");

/// End-to-end metrics, printed by every workload with `--trace 0`.
/// `throughput_per_s` counts each workload's natural unit of work:
/// payments (`sim_*`), oracle evaluations (`join`), games certified
/// (`nash`).
pub fn end_to_end() -> &'static [Entry] {
    static ENTRIES: OnceLock<Vec<Entry>> = OnceLock::new();
    ENTRIES.get_or_init(|| section("end_to_end"))
}

/// Per-layer metrics, printed by every workload with `--trace 1`. A layer
/// the workload never enters reports 0: those are the "flat" predictions.
pub fn per_layer() -> &'static [Entry] {
    static ENTRIES: OnceLock<Vec<Entry>> = OnceLock::new();
    ENTRIES.get_or_init(|| section("per_layer"))
}

/// The metrics of one top-level section of `BENCHMARK.json`, which keeps
/// one metric per line.
fn section(key: &str) -> Vec<Entry> {
    let mut current = "";
    let mut out = Vec::new();
    for line in BENCHMARK_JSON.lines().map(str::trim) {
        if let Some(k) = ["workloads", "end_to_end", "per_layer"]
            .into_iter()
            .find(|k| line.starts_with(&format!("\"{k}\"")))
        {
            current = k;
        }
        if current == key {
            if let (Some(name), Some(unit)) = (field(line, "name"), field(line, "unit")) {
                out.push((name, unit));
            }
        }
    }
    assert!(!out.is_empty(), "BENCHMARK.json lists no {key} metrics");
    out
}

/// The string value of `"key": "…"` on one line.
fn field(line: &'static str, key: &str) -> Option<&'static str> {
    let rest = line.split(format!("\"{key}\": \"").as_str()).nth(1)?;
    rest.split('"').next()
}
