//! # lcg-parallel — the workspace's multi-core evaluation layer
//!
//! A rayon-inspired, dependency-free parallel map built on
//! [`std::thread::scope`]. The build environment has no crates.io access,
//! so instead of `rayon` the hot paths (Brandes betweenness per source,
//! candidate-channel scoring behind the `UtilityOracle`, per-player
//! deviation enumeration) fan out through this crate. The API is shaped
//! so that swapping in real rayon later is a local change.
//!
//! ## Determinism guarantee
//!
//! [`par_map`]/[`par_map_range`] always return results **in input
//! order**, and callers reduce those vectors sequentially. Floating-point
//! accumulation order is therefore independent of the thread count:
//! running with `LCG_THREADS=1` (or [`set_max_threads`]`(1)`) produces
//! **bit-identical** numbers to the fully parallel run. Tests rely on this.
//!
//! ## Scheduling
//!
//! Parallelism has one level. The outermost call fans out; a call made
//! from inside one of its workers — e.g. the Brandes chunks of an oracle
//! evaluation scored by a greedy worker — runs inline on that worker,
//! with the same items in the same order, so it spawns nothing and its
//! results are unchanged. The known cost: an outer call with fewer items
//! than workers leaves the spare cores idle.
//!
//! Work items are handed out through a shared atomic cursor (dynamic
//! scheduling), so unbalanced items — e.g. deviation sets of different
//! sizes — don't idle whole threads the way static chunking would. Each
//! worker buffers `(index, value)` pairs locally; the caller's thread
//! splices them back into order. Spawning is skipped entirely when the
//! effective thread count is 1 or the input is tiny.

use std::cell::Cell;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Mutex;

/// Global thread-count override; 0 = not set (use env / hardware).
static MAX_THREADS: AtomicUsize = AtomicUsize::new(0);

/// Below this many items, spawning threads costs more than it saves.
const PAR_THRESHOLD: usize = 4;

thread_local! {
    /// Set on the threads [`par_map_range`] spawns. They exit with their
    /// scope, so the flag never outlives the call that set it.
    static IN_WORKER: Cell<bool> = const { Cell::new(false) };
}

/// Effective worker count for the next parallel call.
///
/// Resolution order: [`set_max_threads`], then the `LCG_THREADS`
/// environment variable, then [`std::thread::available_parallelism`].
pub fn max_threads() -> usize {
    let set = MAX_THREADS.load(Ordering::Relaxed);
    if set > 0 {
        return set;
    }
    if let Ok(v) = std::env::var("LCG_THREADS") {
        if let Ok(n) = v.trim().parse::<usize>() {
            if n > 0 {
                return n;
            }
        }
    }
    std::thread::available_parallelism()
        .map(|n| n.get())
        .unwrap_or(1)
}

/// Process-wide thread-count override; `set_max_threads(1)` is the
/// sequential mode. Pass 0 to clear the override.
pub fn set_max_threads(n: usize) {
    MAX_THREADS.store(n, Ordering::Relaxed);
}

/// Parallel `items.iter().map(f).collect()`, results in input order.
pub fn par_map<T, R, F>(items: &[T], f: F) -> Vec<R>
where
    T: Sync,
    R: Send,
    F: Fn(&T) -> R + Sync,
{
    par_map_range(items.len(), |i| f(&items[i]))
}

/// Parallel `(0..n).map(f).collect()`, results in input order.
pub fn par_map_range<R, F>(n: usize, f: F) -> Vec<R>
where
    R: Send,
    F: Fn(usize) -> R + Sync,
{
    // The flag is tested first, so a nested call never reads the environment.
    let threads = if n < PAR_THRESHOLD || IN_WORKER.get() {
        1
    } else {
        max_threads().min(n)
    };
    if threads <= 1 {
        return (0..n).map(f).collect();
    }

    // Per-worker chunk timing: each worker opens its own root span (spans
    // do not cross threads) and annotates how many items the dynamic
    // scheduler handed it. The whole block is gated so the disabled path
    // touches nothing beyond one relaxed load per worker.
    let observe = lcg_obs::enabled();
    if observe {
        lcg_obs::counter!("parallel/par_map_calls").inc();
        lcg_obs::gauge!("parallel/threads").set(threads as f64);
    }

    let cursor = AtomicUsize::new(0);
    let buckets: Mutex<Vec<Vec<(usize, R)>>> = Mutex::new(Vec::with_capacity(threads));
    std::thread::scope(|scope| {
        for _ in 0..threads {
            scope.spawn(|| {
                IN_WORKER.set(true);
                let mut worker_span = if observe {
                    Some(lcg_obs::span::span("parallel/worker"))
                } else {
                    None
                };
                let mut local: Vec<(usize, R)> = Vec::new();
                loop {
                    let i = cursor.fetch_add(1, Ordering::Relaxed);
                    if i >= n {
                        break;
                    }
                    local.push((i, f(i)));
                }
                if let Some(span) = worker_span.as_mut() {
                    span.field_u64("items", local.len() as u64);
                }
                buckets.lock().expect("worker bucket lock").push(local);
            });
        }
    });

    let buckets = buckets.into_inner().expect("worker bucket lock");
    let mut indexed: Vec<(usize, R)> = buckets.into_iter().flatten().collect();
    debug_assert_eq!(indexed.len(), n);
    indexed.sort_unstable_by_key(|(i, _)| *i);
    indexed.into_iter().map(|(_, r)| r).collect()
}

/// Parallel map followed by a **sequential, in-order** fold — the
/// deterministic reduction the estimators use for f64 accumulation.
pub fn par_map_reduce<T, R, A, F, G>(items: &[T], init: A, map: F, fold: G) -> A
where
    T: Sync,
    R: Send,
    F: Fn(&T) -> R + Sync,
    G: FnMut(A, R) -> A,
{
    par_map(items, map).into_iter().fold(init, fold)
}

/// Element-wise in-place sum of equally sized f64 vectors, in input
/// order: the combine step for per-source Brandes partial scores.
pub fn sum_vecs(mut acc: Vec<f64>, parts: Vec<Vec<f64>>) -> Vec<f64> {
    for part in parts {
        debug_assert_eq!(part.len(), acc.len());
        for (a, p) in acc.iter_mut().zip(part) {
            *a += p;
        }
    }
    acc
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Serializes the tests that set the process-global worker count, so
    /// one cannot change it under another.
    fn threads_lock() -> std::sync::MutexGuard<'static, ()> {
        static LOCK: Mutex<()> = Mutex::new(());
        // The lock guards no data, so a test that failed while holding it
        // leaves nothing to repair; the next test goes ahead.
        LOCK.lock().unwrap_or_else(|poisoned| poisoned.into_inner())
    }

    #[test]
    fn par_map_preserves_order() {
        let items: Vec<usize> = (0..1000).collect();
        let out = par_map(&items, |&x| x * 2);
        assert_eq!(out, (0..1000).map(|x| x * 2).collect::<Vec<_>>());
    }

    #[test]
    fn par_map_range_matches_sequential() {
        let seq: Vec<u64> = (0..500)
            .map(|i| (i as u64).wrapping_mul(2654435761))
            .collect();
        let par = par_map_range(500, |i| (i as u64).wrapping_mul(2654435761));
        assert_eq!(seq, par);
    }

    #[test]
    fn thread_count_does_not_change_f64_sums() {
        let _lock = threads_lock();
        let items: Vec<f64> = (0..257).map(|i| 0.1 * i as f64).collect();
        set_max_threads(1);
        let seq = par_map_reduce(&items, 0.0f64, |&x| x.sin(), |a, r| a + r);
        set_max_threads(8);
        let par = par_map_reduce(&items, 0.0f64, |&x| x.sin(), |a, r| a + r);
        set_max_threads(0);
        assert_eq!(seq.to_bits(), par.to_bits());
    }

    #[test]
    fn nested_calls_run_inline_on_their_worker() {
        let _lock = threads_lock();
        set_max_threads(2);
        let caller = std::thread::current().id();
        let outer = par_map_range(6, |i| {
            let worker = std::thread::current().id();
            let inner = par_map_range(40, |j| (std::thread::current().id(), 100 * i + j));
            (worker, inner)
        });
        set_max_threads(0);
        for (i, (worker, inner)) in outer.iter().enumerate() {
            assert_ne!(*worker, caller, "outer item {i} ran on the caller");
            assert!(
                inner.iter().all(|(thread, _)| thread == worker),
                "outer item {i}: a nested item left its worker's thread"
            );
            let values: Vec<usize> = inner.iter().map(|&(_, v)| v).collect();
            assert_eq!(values, (0..40).map(|j| 100 * i + j).collect::<Vec<_>>());
        }
    }

    #[test]
    fn tiny_inputs_stay_sequential() {
        assert_eq!(par_map_range(0, |i| i), Vec::<usize>::new());
        assert_eq!(par_map_range(2, |i| i), vec![0, 1]);
    }

    #[test]
    fn sum_vecs_accumulates_in_order() {
        let acc = vec![0.0; 3];
        let parts = vec![vec![1.0, 2.0, 3.0], vec![0.5, 0.5, 0.5]];
        assert_eq!(sum_vecs(acc, parts), vec![1.5, 2.5, 3.5]);
    }
}
