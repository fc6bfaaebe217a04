//! The hierarchical metrics registry: named counters, gauges and
//! log-scale latency histograms with atomic updates and a snapshot API.
//!
//! Names are `/`-separated paths (`"graph/incremental/recomputed_sources"`);
//! the exporters turn the separators into a tree. Metric handles are
//! interned once and leaked (`&'static`), so hot paths can cache them in
//! a `OnceLock` and pay only an atomic add per update — the
//! [`counter!`](crate::counter), [`gauge!`](crate::gauge) and
//! [`histogram!`](crate::histogram) macros package that pattern.
//!
//! Histograms bucket by `floor(log2(value)) + 1` (value 0 goes to bucket
//! 0), which spans the full `u64` range in 65 buckets — ns-resolution
//! latencies from single digits to minutes land in distinct buckets, and
//! updates stay lock-free.

use std::collections::HashMap;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Mutex, OnceLock};

/// A monotonically increasing event count.
#[derive(Debug, Default)]
pub struct Counter {
    value: AtomicU64,
}

impl Counter {
    /// Adds `n` to the counter.
    #[inline]
    pub fn add(&self, n: u64) {
        self.value.fetch_add(n, Ordering::Relaxed);
    }

    /// Adds 1.
    #[inline]
    pub fn inc(&self) {
        self.add(1);
    }

    /// Current value.
    pub fn get(&self) -> u64 {
        self.value.load(Ordering::Relaxed)
    }

    fn reset(&self) {
        self.value.store(0, Ordering::Relaxed);
    }
}

/// A last-write-wins instantaneous value (stored as `f64` bits).
#[derive(Debug, Default)]
pub struct Gauge {
    bits: AtomicU64,
}

impl Gauge {
    /// Sets the gauge.
    #[inline]
    pub fn set(&self, value: f64) {
        self.bits.store(value.to_bits(), Ordering::Relaxed);
    }

    /// Current value (0.0 if never set).
    pub fn get(&self) -> f64 {
        f64::from_bits(self.bits.load(Ordering::Relaxed))
    }

    fn reset(&self) {
        self.bits.store(0, Ordering::Relaxed);
    }
}

/// Bucket count: `floor(log2(u64::MAX)) + 1` plus the zero bucket.
pub const HISTOGRAM_BUCKETS: usize = 65;

/// A log₂-bucketed histogram of `u64` samples (latencies in ns, sizes).
#[derive(Debug)]
pub struct Histogram {
    buckets: [AtomicU64; HISTOGRAM_BUCKETS],
    count: AtomicU64,
    sum: AtomicU64,
    min: AtomicU64,
    max: AtomicU64,
}

impl Default for Histogram {
    fn default() -> Self {
        Histogram {
            buckets: std::array::from_fn(|_| AtomicU64::new(0)),
            count: AtomicU64::new(0),
            sum: AtomicU64::new(0),
            min: AtomicU64::new(u64::MAX),
            max: AtomicU64::new(0),
        }
    }
}

/// `floor(log2(v)) + 1`, with 0 mapping to bucket 0.
#[inline]
fn bucket_of(value: u64) -> usize {
    (64 - value.leading_zeros()) as usize
}

impl Histogram {
    /// Records one sample.
    #[inline]
    pub fn record(&self, value: u64) {
        self.buckets[bucket_of(value)].fetch_add(1, Ordering::Relaxed);
        self.count.fetch_add(1, Ordering::Relaxed);
        self.sum.fetch_add(value, Ordering::Relaxed);
        self.min.fetch_min(value, Ordering::Relaxed);
        self.max.fetch_max(value, Ordering::Relaxed);
    }

    /// Records a [`std::time::Duration`] in nanoseconds.
    #[inline]
    pub fn record_duration(&self, d: std::time::Duration) {
        self.record(d.as_nanos().min(u64::MAX as u128) as u64);
    }

    /// Immutable snapshot of the current distribution.
    pub fn snapshot(&self) -> HistogramSnapshot {
        let count = self.count.load(Ordering::Relaxed);
        HistogramSnapshot {
            count,
            sum: self.sum.load(Ordering::Relaxed),
            min: if count == 0 {
                0
            } else {
                self.min.load(Ordering::Relaxed)
            },
            max: self.max.load(Ordering::Relaxed),
            buckets: std::array::from_fn(|i| self.buckets[i].load(Ordering::Relaxed)),
        }
    }

    fn reset(&self) {
        for b in &self.buckets {
            b.store(0, Ordering::Relaxed);
        }
        self.count.store(0, Ordering::Relaxed);
        self.sum.store(0, Ordering::Relaxed);
        self.min.store(u64::MAX, Ordering::Relaxed);
        self.max.store(0, Ordering::Relaxed);
    }
}

/// Point-in-time copy of one histogram.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct HistogramSnapshot {
    /// Samples recorded.
    pub count: u64,
    /// Sum of all samples.
    pub sum: u64,
    /// Smallest sample (0 when empty).
    pub min: u64,
    /// Largest sample.
    pub max: u64,
    /// Per-bucket sample counts (`bucket i` holds values in
    /// `[2^(i-1), 2^i)`; bucket 0 holds exactly 0).
    pub buckets: [u64; HISTOGRAM_BUCKETS],
}

impl HistogramSnapshot {
    /// Mean sample value (0 when empty).
    pub fn mean(&self) -> f64 {
        crate::stats::ratio(self.sum, self.count)
    }

    /// Upper edge of the bucket containing the `q`-quantile (a log₂
    /// approximation; `q` in `[0, 1]`).
    pub fn quantile(&self, q: f64) -> u64 {
        if self.count == 0 {
            return 0;
        }
        let target = (q.clamp(0.0, 1.0) * self.count as f64).ceil().max(1.0) as u64;
        let mut seen = 0;
        for (i, &b) in self.buckets.iter().enumerate() {
            seen += b;
            if seen >= target {
                return if i == 0 { 0 } else { 1u64 << i };
            }
        }
        self.max
    }
}

/// The kinds a registry slot can hold.
#[derive(Debug)]
enum Metric {
    Counter(&'static Counter),
    Gauge(&'static Gauge),
    Histogram(&'static Histogram),
}

fn registry() -> &'static Mutex<HashMap<String, Metric>> {
    static REGISTRY: OnceLock<Mutex<HashMap<String, Metric>>> = OnceLock::new();
    REGISTRY.get_or_init(|| Mutex::new(HashMap::new()))
}

/// Interns (or retrieves) the counter named `name`.
///
/// # Panics
///
/// Panics if `name` is already registered as a different metric kind.
pub fn counter(name: &str) -> &'static Counter {
    let mut reg = registry().lock().expect("metrics registry");
    match reg
        .entry(name.to_string())
        .or_insert_with(|| Metric::Counter(Box::leak(Box::default())))
    {
        Metric::Counter(c) => c,
        other => panic!("metric {name:?} already registered as {other:?}"),
    }
}

/// Interns (or retrieves) the gauge named `name`.
///
/// # Panics
///
/// Panics if `name` is already registered as a different metric kind.
pub fn gauge(name: &str) -> &'static Gauge {
    let mut reg = registry().lock().expect("metrics registry");
    match reg
        .entry(name.to_string())
        .or_insert_with(|| Metric::Gauge(Box::leak(Box::default())))
    {
        Metric::Gauge(g) => g,
        other => panic!("metric {name:?} already registered as {other:?}"),
    }
}

/// Interns (or retrieves) the histogram named `name`.
///
/// # Panics
///
/// Panics if `name` is already registered as a different metric kind.
pub fn histogram(name: &str) -> &'static Histogram {
    let mut reg = registry().lock().expect("metrics registry");
    match reg
        .entry(name.to_string())
        .or_insert_with(|| Metric::Histogram(Box::leak(Box::default())))
    {
        Metric::Histogram(h) => h,
        other => panic!("metric {name:?} already registered as {other:?}"),
    }
}

/// Zeroes every registered metric (handles stay valid).
pub fn reset() {
    for metric in registry().lock().expect("metrics registry").values() {
        match metric {
            Metric::Counter(c) => c.reset(),
            Metric::Gauge(g) => g.reset(),
            Metric::Histogram(h) => h.reset(),
        }
    }
}

/// One metric's snapshot, by kind.
#[derive(Debug, Clone, PartialEq)]
pub enum MetricValue {
    /// Counter value.
    Counter(u64),
    /// Gauge value.
    Gauge(f64),
    /// Histogram distribution (boxed: the bucket array dwarfs the other
    /// variants).
    Histogram(Box<HistogramSnapshot>),
}

/// Point-in-time copy of the whole registry, sorted by name.
#[derive(Debug, Clone, PartialEq, Default)]
pub struct MetricsSnapshot {
    /// `(name, value)` pairs in lexicographic name order.
    pub entries: Vec<(String, MetricValue)>,
}

impl MetricsSnapshot {
    /// The counter named `name`, if registered (0-valued counters are
    /// included).
    pub fn counter(&self, name: &str) -> Option<u64> {
        self.entries.iter().find_map(|(n, v)| match v {
            MetricValue::Counter(c) if n == name => Some(*c),
            _ => None,
        })
    }

    /// The histogram named `name`, if registered.
    pub fn histogram(&self, name: &str) -> Option<&HistogramSnapshot> {
        self.entries.iter().find_map(|(n, v)| match v {
            MetricValue::Histogram(h) if n == name => Some(h.as_ref()),
            _ => None,
        })
    }
}

/// Snapshots every registered metric.
pub fn snapshot() -> MetricsSnapshot {
    let reg = registry().lock().expect("metrics registry");
    let mut entries: Vec<(String, MetricValue)> = reg
        .iter()
        .map(|(name, metric)| {
            let value = match metric {
                Metric::Counter(c) => MetricValue::Counter(c.get()),
                Metric::Gauge(g) => MetricValue::Gauge(g.get()),
                Metric::Histogram(h) => MetricValue::Histogram(Box::new(h.snapshot())),
            };
            (name.clone(), value)
        })
        .collect();
    entries.sort_by(|a, b| a.0.cmp(&b.0));
    MetricsSnapshot { entries }
}

/// A timer guard recording its lifetime into a histogram on drop; inert
/// when created while observability is off.
#[derive(Debug)]
pub struct TimerGuard(Option<(&'static Histogram, std::time::Instant)>);

impl TimerGuard {
    /// Starts a timer that records into `hist` on drop.
    pub fn new(hist: &'static Histogram) -> Self {
        TimerGuard(Some((hist, std::time::Instant::now())))
    }

    /// An inert guard (the disabled path).
    pub fn inert() -> Self {
        TimerGuard(None)
    }
}

impl Drop for TimerGuard {
    fn drop(&mut self) {
        if let Some((hist, started)) = self.0.take() {
            hist.record_duration(started.elapsed());
        }
    }
}

/// Caches a `&'static Counter` per call site:
/// `lcg_obs::counter!("graph/bfs/runs").inc()`.
#[macro_export]
macro_rules! counter {
    ($name:expr) => {{
        static HANDLE: std::sync::OnceLock<&'static $crate::metrics::Counter> =
            std::sync::OnceLock::new();
        *HANDLE.get_or_init(|| $crate::metrics::counter($name))
    }};
}

/// Caches a `&'static Gauge` per call site.
#[macro_export]
macro_rules! gauge {
    ($name:expr) => {{
        static HANDLE: std::sync::OnceLock<&'static $crate::metrics::Gauge> =
            std::sync::OnceLock::new();
        *HANDLE.get_or_init(|| $crate::metrics::gauge($name))
    }};
}

/// Caches a `&'static Histogram` per call site.
#[macro_export]
macro_rules! histogram {
    ($name:expr) => {{
        static HANDLE: std::sync::OnceLock<&'static $crate::metrics::Histogram> =
            std::sync::OnceLock::new();
        *HANDLE.get_or_init(|| $crate::metrics::histogram($name))
    }};
}

/// A [`TimerGuard`] over a named histogram — one enabled check, then
/// either an inert guard or a clock read:
/// `let _t = lcg_obs::timer!("core/oracle/evaluate_ns");`.
#[macro_export]
macro_rules! timer {
    ($name:expr) => {{
        if $crate::enabled() {
            $crate::metrics::TimerGuard::new($crate::histogram!($name))
        } else {
            $crate::metrics::TimerGuard::inert()
        }
    }};
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn counters_gauges_histograms_round_trip() {
        let c = counter("test/metrics/counter");
        c.reset();
        c.add(3);
        c.inc();
        assert_eq!(c.get(), 4);

        let g = gauge("test/metrics/gauge");
        g.set(2.5);
        assert_eq!(g.get(), 2.5);

        let h = histogram("test/metrics/hist");
        h.reset();
        for v in [0u64, 1, 2, 3, 1000] {
            h.record(v);
        }
        let snap = h.snapshot();
        assert_eq!(snap.count, 5);
        assert_eq!(snap.sum, 1006);
        assert_eq!(snap.min, 0);
        assert_eq!(snap.max, 1000);
        assert_eq!(snap.buckets[0], 1, "zero bucket");
        assert_eq!(snap.buckets[1], 1, "value 1");
        assert_eq!(snap.buckets[2], 2, "values 2..4");
        assert_eq!(snap.buckets[10], 1, "value 1000 in [512, 1024)");
        assert!((snap.mean() - 201.2).abs() < 1e-9);
        assert_eq!(snap.quantile(0.5), 4, "median bucket upper edge");
        assert_eq!(snap.quantile(1.0), 1 << 10);
    }

    #[test]
    fn interning_returns_the_same_handle() {
        let a = counter("test/metrics/same") as *const Counter;
        let b = counter("test/metrics/same") as *const Counter;
        assert_eq!(a, b);
    }

    #[test]
    fn snapshot_is_sorted_and_typed() {
        counter("test/snap/a").add(1);
        gauge("test/snap/b").set(1.0);
        let snap = snapshot();
        let names: Vec<&String> = snap.entries.iter().map(|(n, _)| n).collect();
        let mut sorted = names.clone();
        sorted.sort();
        assert_eq!(names, sorted);
        assert!(snap.counter("test/snap/a").is_some());
        assert!(snap.counter("test/snap/b").is_none(), "b is a gauge");
    }

    #[test]
    fn empty_quantiles_and_means_are_zero() {
        let h = histogram("test/metrics/empty");
        h.reset();
        let snap = h.snapshot();
        assert_eq!(snap.mean(), 0.0);
        assert_eq!(snap.quantile(0.9), 0);
        assert_eq!(snap.min, 0);
    }
}
