//! # lcg-obs — the workspace's unified observability layer
//!
//! Ad-hoc counters used to sit on each subsystem (`EvalCacheStats`, a
//! delta-engine query struct, the `NashReport` fields) — three incompatible
//! shapes with no timing data, no hierarchy and no export format. This crate
//! replaces that per-PR plumbing with one zero-dependency layer (offline,
//! in the spirit of `crates/compat/`) that every workload crate shares:
//!
//! * [`span`] — structured tracing: a thread-safe [`span::Span`] RAII
//!   guard with nested scopes, monotonic timing and per-span key/value
//!   fields, collected into a global forest.
//! * [`metrics`] — a hierarchical registry of named counters, gauges and
//!   log-scale latency histograms with atomic updates and a snapshot API;
//!   `/`-separated names form the hierarchy.
//! * [`report`] — exporters: a human `fmt::Display` tree and a stable
//!   machine-readable JSON [`report::RunReport`].
//! * [`json`] — the minimal JSON document model behind the exporters;
//!   rendering fails loudly on non-finite floats instead of silently
//!   emitting invalid JSON.
//! * [`stats`] — the shared sum/ratio helpers that `EvalCacheStats`,
//!   `IncrementalStats` and `NashReport` previously re-implemented.
//!
//! ## The disabled-path guarantee
//!
//! Observability is **off by default**. Every instrumentation point in the
//! workload crates is gated on [`enabled`], which is a single relaxed
//! atomic load in steady state; with observability off the instrumented
//! code takes no locks, allocates nothing, never reads the clock, and —
//! because recording only ever *observes* values (it never rounds,
//! reorders or otherwise touches a float) — produces **bit-identical**
//! betweenness scores, solver strategies and equilibrium verdicts whether
//! the switch is on or off. `crates/obs/tests/identity.rs` is the
//! differential proof; `crates/bench/benches/obs_overhead.rs` bounds the
//! disabled-path cost on the Brandes 500-node BA benchmark.
//!
//! Enable with the `LCG_OBS` environment variable (`1`/`true`/`on`) or
//! programmatically with [`set_enabled`]; `all_experiments --metrics-out`
//! does the latter and emits one [`report::RunReport`] per experiment.
//!
//! # Quick start
//!
//! ```
//! lcg_obs::set_enabled(true);
//! {
//!     let mut outer = lcg_obs::span::span("demo/outer");
//!     outer.field_u64("items", 3);
//!     let _inner = lcg_obs::span::span("demo/inner");
//!     lcg_obs::metrics::counter("demo/widgets").add(3);
//! }
//! let report = lcg_obs::report::RunReport::capture("demo");
//! assert!(report.to_json().render().unwrap().contains("demo/widgets"));
//! lcg_obs::set_enabled(false);
//! lcg_obs::reset();
//! ```

pub mod json;
pub mod metrics;
pub mod report;
pub mod span;
pub mod stats;

use std::sync::atomic::{AtomicU8, Ordering};

/// Tri-state switch: unresolved (consult `LCG_OBS` once), off, on.
const STATE_UNSET: u8 = 0;
const STATE_OFF: u8 = 1;
const STATE_ON: u8 = 2;

static STATE: AtomicU8 = AtomicU8::new(STATE_UNSET);

/// `true` when observability is on. One relaxed atomic load in steady
/// state — the only cost every instrumented hot path pays when disabled.
#[inline]
pub fn enabled() -> bool {
    match STATE.load(Ordering::Relaxed) {
        STATE_ON => true,
        STATE_OFF => false,
        _ => resolve_from_env(),
    }
}

/// First-call slow path: resolve `LCG_OBS` and cache the answer.
#[cold]
fn resolve_from_env() -> bool {
    let on = std::env::var("LCG_OBS")
        .map(|v| matches!(v.trim(), "1" | "true" | "on" | "TRUE" | "ON"))
        .unwrap_or(false);
    STATE.store(if on { STATE_ON } else { STATE_OFF }, Ordering::Relaxed);
    on
}

/// Programmatic override of the `LCG_OBS` switch (the "builder switch"
/// used by `all_experiments --metrics-out` and the identity tests).
pub fn set_enabled(on: bool) {
    STATE.store(if on { STATE_ON } else { STATE_OFF }, Ordering::Relaxed);
}

/// Drops every recorded span and zeroes every registered metric — the
/// "fresh run" boundary `--metrics-out` places between experiments.
pub fn reset() {
    span::drain();
    metrics::reset();
}

/// Serializes the unit tests that flip the process-global switch or
/// empty the global span collector and registry ([`set_enabled`],
/// [`span::drain`], [`reset`], [`report::RunReport::capture`]); run
/// concurrently, they take each other's records and switch each other
/// off.
#[cfg(test)]
pub(crate) fn test_lock() -> std::sync::MutexGuard<'static, ()> {
    static LOCK: std::sync::Mutex<()> = std::sync::Mutex::new(());
    // The lock guards no data, so a test that failed while holding it
    // leaves nothing to repair; the next test goes ahead.
    LOCK.lock().unwrap_or_else(|poisoned| poisoned.into_inner())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn switch_round_trips() {
        let _lock = test_lock();
        set_enabled(true);
        assert!(enabled());
        set_enabled(false);
        assert!(!enabled());
    }
}
