//! Algorithms 1 and 2 give the same bits at 1, 2 and 8 workers when their
//! oracle evaluations nest parallel calls.
//!
//! Under the default `RevenueMode::Intermediary` every evaluation runs the
//! incremental betweenness engine, whose Brandes source chunks go through
//! `lcg_parallel` again — from inside the optimizer's own workers, where
//! they run inline. Each worker count gets a fresh oracle, so no run is
//! answered from another run's memo.
//!
//! Run with `cargo test -q -p lcg-core --test nested_parallel`.

use lcg_core::exhaustive::{exhaustive_search, ExhaustiveConfig};
use lcg_core::greedy::greedy_fixed_lock;
use lcg_core::utility::{Topology, UtilityOracle, UtilityParams};
use lcg_graph::betweenness::SOURCE_CHUNK;
use lcg_graph::generators;
use rand::rngs::StdRng;
use rand::SeedableRng;
use std::sync::{Mutex, MutexGuard};

const WORKERS: [usize; 3] = [1, 2, 8];

/// Serializes the tests that set the process-global worker count, so one
/// cannot change it under another.
fn threads_lock() -> MutexGuard<'static, ()> {
    static LOCK: Mutex<()> = Mutex::new(());
    // The lock guards no data, so a test that failed while holding it
    // leaves nothing to repair; the next test goes ahead.
    LOCK.lock().unwrap_or_else(|poisoned| poisoned.into_inner())
}

/// Runs `f` on a fresh oracle over `host` at each of [`WORKERS`], and
/// checks that the oracle took the incremental path.
fn at_each_worker_count<R>(host: &Topology, f: impl Fn(&UtilityOracle) -> R) -> Vec<R> {
    // `lcg_parallel` fans out from 4 items, so the augmented graph needs 4
    // source chunks for its Brandes call to fan out when not nested.
    let chunks = (host.node_bound() + 1).div_ceil(SOURCE_CHUNK);
    assert!(chunks >= 4, "host too small to nest: {chunks} chunks");
    WORKERS
        .iter()
        .map(|&workers| {
            let oracle = UtilityOracle::new(
                host.clone(),
                vec![1.0; host.node_bound()],
                UtilityParams::default(),
            );
            lcg_parallel::set_max_threads(workers);
            let out = f(&oracle);
            lcg_parallel::set_max_threads(0);
            let queries = oracle.incremental_stats().map_or(0, |s| s.queries);
            assert!(queries > 0, "{workers} workers: no incremental query ran");
            out
        })
        .collect()
}

fn ba_hosts(seed: u64, n: usize, count: usize) -> Vec<Topology> {
    let mut rng = StdRng::seed_from_u64(seed);
    (0..count)
        .map(|_| generators::barabasi_albert(n, 2, &mut rng))
        .collect()
}

fn bits(values: &[f64]) -> Vec<u64> {
    values.iter().map(|v| v.to_bits()).collect()
}

#[test]
fn greedy_is_identical_at_one_two_and_eight_workers() {
    let _lock = threads_lock();
    for (i, host) in ba_hosts(1, 40, 3).iter().enumerate() {
        let runs = at_each_worker_count(host, |o| greedy_fixed_lock(o, 8.0, 1.0));
        let base = &runs[0];
        assert!(!base.strategy.is_empty(), "host {i}: empty strategy");
        for (run, workers) in runs.iter().zip(WORKERS).skip(1) {
            let at = format!("host {i}, {workers} workers");
            assert_eq!(run.strategy, base.strategy, "{at}: strategy");
            assert_eq!(
                run.simplified_utility.to_bits(),
                base.simplified_utility.to_bits(),
                "{at}: simplified utility"
            );
            assert_eq!(
                bits(&run.prefix_utilities),
                bits(&base.prefix_utilities),
                "{at}: prefix utilities"
            );
            assert_eq!(run.evaluations, base.evaluations, "{at}: evaluations");
        }
    }
}

#[test]
fn exhaustive_search_is_identical_at_one_two_and_eight_workers() {
    let config = ExhaustiveConfig {
        budget: 4.0,
        granularity: 1.0,
        max_divisions: None,
    };
    let _lock = threads_lock();
    for (i, host) in ba_hosts(7919, 36, 2).iter().enumerate() {
        let runs = at_each_worker_count(host, |o| exhaustive_search(o, config));
        let base = &runs[0];
        assert!(!base.strategy.is_empty(), "host {i}: empty strategy");
        for (run, workers) in runs.iter().zip(WORKERS).skip(1) {
            let at = format!("host {i}, {workers} workers");
            assert_eq!(run.strategy, base.strategy, "{at}: strategy");
            assert_eq!(
                run.simplified_utility.to_bits(),
                base.simplified_utility.to_bits(),
                "{at}: simplified utility"
            );
            assert_eq!(run.best_division, base.best_division, "{at}: division");
            assert_eq!(
                run.divisions_explored, base.divisions_explored,
                "{at}: divisions explored"
            );
            assert_eq!(run.evaluations, base.evaluations, "{at}: evaluations");
        }
    }
}
