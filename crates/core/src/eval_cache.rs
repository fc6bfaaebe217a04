//! Strategy-keyed memoization of oracle evaluations.
//!
//! Algorithm 1/2 and the equilibrium checkers re-evaluate the *same*
//! strategies constantly: every exhaustive division re-runs greedy prefixes
//! that earlier divisions already scored, lazy greedy re-touches heap
//! entries, best-response dynamics re-visits deviations round after round.
//! Since the [`UtilityOracle`](crate::utility::UtilityOracle) is
//! deterministic given its host, model and parameters, the full
//! [`UtilityBreakdown`] — `U`, `U'`,
//! `U^b` and every marginal gain derived from them — is a pure function of
//! the exact action sequence. [`EvalCache`] memoizes it.
//!
//! ## Key semantics
//!
//! The key is the **ordered** action list, each action encoded as
//! `(target index, lock bits)`. Order matters on purpose: channel insertion
//! order fixes edge ids in the augmented graph, which fixes predecessor-edge
//! order in the BFS trees, which fixes the floating-point accumulation order
//! of the Brandes kernel. Two permutations of the same action set produce
//! the same mathematical value but possibly different last-ulp bits — and
//! the repo-wide guarantee is *bit*-identity, so permutations get distinct
//! cache slots rather than sharing one. Locks are keyed by `f64::to_bits`
//! for the same reason (and so that `-0.0 ≠ 0.0`, `NaN`s never unify, and
//! no float ever needs `Eq`).

use crate::strategy::Strategy;
use crate::utility::UtilityBreakdown;
use std::collections::HashMap;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Mutex;

/// Exact cache key: the ordered `(target index, lock bits)` sequence.
pub type StrategyKey = Vec<(u32, u64)>;

/// Encodes a strategy as its exact (order-preserving) cache key.
pub fn strategy_key(strategy: &Strategy) -> StrategyKey {
    strategy
        .iter()
        .map(|a| (a.target.index() as u32, a.lock.to_bits()))
        .collect()
}

/// Default bound on resident entries (~40 bytes of breakdown + key each;
/// a few tens of MB at the cap). Insertions beyond it are dropped — the
/// cache degrades to a plain miss, never evicts mid-run.
pub const DEFAULT_CAPACITY: usize = 1 << 18;

/// Counters of one cache's lifetime, cheap to copy.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct EvalCacheStats {
    /// Lookups answered from the memo.
    pub hits: u64,
    /// Lookups that had to compute.
    pub misses: u64,
    /// Entries currently resident.
    pub entries: usize,
}

impl EvalCacheStats {
    /// `hits / (hits + misses)`, 0 when the cache was never consulted.
    pub fn hit_rate(&self) -> f64 {
        lcg_obs::stats::hit_rate(self.hits, self.misses)
    }
}

/// A bounded, thread-safe memo from strategies to utility breakdowns.
///
/// Shared by reference across the parallel candidate-scoring workers; a
/// concurrent double-compute is harmless because the oracle is
/// deterministic (both writers insert bit-identical values).
#[derive(Debug)]
pub struct EvalCache {
    map: Mutex<HashMap<StrategyKey, UtilityBreakdown>>,
    hits: AtomicU64,
    misses: AtomicU64,
    capacity: usize,
}

impl Default for EvalCache {
    fn default() -> Self {
        EvalCache::with_capacity(DEFAULT_CAPACITY)
    }
}

impl EvalCache {
    /// An empty cache bounded to `capacity` resident entries.
    pub fn with_capacity(capacity: usize) -> Self {
        EvalCache {
            map: Mutex::new(HashMap::new()),
            hits: AtomicU64::new(0),
            misses: AtomicU64::new(0),
            capacity,
        }
    }

    /// Looks up a strategy, recording a hit or a miss.
    pub fn get(&self, key: &StrategyKey) -> Option<UtilityBreakdown> {
        let found = self
            .map
            .lock()
            .expect("eval cache poisoned")
            .get(key)
            .copied();
        match found {
            Some(_) => self.hits.fetch_add(1, Ordering::Relaxed),
            None => self.misses.fetch_add(1, Ordering::Relaxed),
        };
        // Mirror into the global registry so RunReports aggregate hit
        // rates across every cache instance in a run.
        if lcg_obs::enabled() {
            match found {
                Some(_) => lcg_obs::counter!("core/eval_cache/hits").inc(),
                None => lcg_obs::counter!("core/eval_cache/misses").inc(),
            }
        }
        found
    }

    /// Stores an evaluation (dropped silently once the capacity is full).
    pub fn insert(&self, key: StrategyKey, value: UtilityBreakdown) {
        let mut map = self.map.lock().expect("eval cache poisoned");
        if map.len() < self.capacity || map.contains_key(&key) {
            map.insert(key, value);
        }
    }

    /// Current counters.
    pub fn stats(&self) -> EvalCacheStats {
        EvalCacheStats {
            hits: self.hits.load(Ordering::Relaxed),
            misses: self.misses.load(Ordering::Relaxed),
            entries: self.map.lock().expect("eval cache poisoned").len(),
        }
    }

    /// Drops every entry and zeroes the counters.
    pub fn clear(&self) {
        self.map.lock().expect("eval cache poisoned").clear();
        self.hits.store(0, Ordering::Relaxed);
        self.misses.store(0, Ordering::Relaxed);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::strategy::Action;
    use lcg_graph::NodeId;

    fn breakdown(tag: f64) -> UtilityBreakdown {
        UtilityBreakdown {
            revenue: tag,
            expected_fees: 0.0,
            channel_cost: 0.0,
            utility: tag,
            simplified: tag,
            benefit: tag,
        }
    }

    #[test]
    fn keys_preserve_action_order_and_lock_bits() {
        let ab = Strategy::from_pairs(&[(NodeId(1), 2.0), (NodeId(3), 4.0)]);
        let ba = Strategy::from_pairs(&[(NodeId(3), 4.0), (NodeId(1), 2.0)]);
        assert_ne!(strategy_key(&ab), strategy_key(&ba), "order is significant");
        let pos = Strategy::from_pairs(&[(NodeId(1), 0.0)]);
        let neg = Strategy::from_pairs(&[(NodeId(1), -0.0)]);
        assert_ne!(strategy_key(&pos), strategy_key(&neg), "to_bits keying");
        let mut dup = ab.clone();
        dup.push(Action::new(NodeId(1), 2.0));
        assert_eq!(strategy_key(&dup).len(), 3, "parallel channels keep slots");
    }

    #[test]
    fn hit_and_miss_counters_track_lookups() {
        let cache = EvalCache::default();
        let key = strategy_key(&Strategy::from_pairs(&[(NodeId(0), 1.0)]));
        assert!(cache.get(&key).is_none());
        cache.insert(key.clone(), breakdown(7.0));
        assert_eq!(cache.get(&key).unwrap().revenue, 7.0);
        let stats = cache.stats();
        assert_eq!((stats.hits, stats.misses, stats.entries), (1, 1, 1));
        assert!((stats.hit_rate() - 0.5).abs() < 1e-12);
        cache.clear();
        assert_eq!(cache.stats(), EvalCacheStats::default());
    }

    #[test]
    fn capacity_bound_drops_new_keys_but_updates_existing() {
        let cache = EvalCache::with_capacity(1);
        let k1 = vec![(0u32, 1u64)];
        let k2 = vec![(0u32, 2u64)];
        cache.insert(k1.clone(), breakdown(1.0));
        cache.insert(k2.clone(), breakdown(2.0));
        assert!(cache.get(&k2).is_none(), "over-capacity insert is dropped");
        cache.insert(k1.clone(), breakdown(3.0));
        assert_eq!(cache.get(&k1).unwrap().revenue, 3.0, "updates still land");
        assert_eq!(cache.stats().entries, 1);
    }

    #[test]
    fn empty_strategy_has_the_empty_key() {
        assert!(strategy_key(&Strategy::empty()).is_empty());
    }
}
