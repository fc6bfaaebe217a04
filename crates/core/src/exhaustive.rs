//! Algorithm 2 — exhaustive search over discretized fund divisions
//! (paper §III-C).
//!
//! Capital may now vary per channel, but is discretized to multiples of a
//! granularity `m`: the budget becomes `U = ⌊B_u/m⌋` spendable units, split
//! into `k + 1 = ⌊B_u/C⌋ + 1` parts (the extra part is budget left
//! unlocked). For every such division, Algorithm 1 runs with the step-`j`
//! lock forced to the division's `j`-th part; the best result over all
//! divisions is returned. Each inner run is a `(1 − 1/e)`-approximation
//! for its capital assignment, so the outer maximum retains the ratio
//! (Thm 5) at the price of `T = C(U, k+1)`-ish many divisions — the
//! granularity/runtime trade-off the paper highlights.

use crate::greedy::{greedy_with_locks, GreedyResult};
use crate::strategy::Strategy;
use crate::utility::UtilityOracle;
use serde::{Deserialize, Serialize};

/// Iterator over all *weak compositions* of `total` into `parts`
/// non-negative integers (ordered divisions, the paper's `D` array).
///
/// Yields `C(total + parts − 1, parts − 1)` vectors; callers should bound
/// `total` and `parts` accordingly.
///
/// # Examples
///
/// ```
/// use lcg_core::exhaustive::WeakCompositions;
///
/// let all: Vec<_> = WeakCompositions::new(2, 2).collect();
/// assert_eq!(all, vec![vec![2, 0], vec![1, 1], vec![0, 2]]);
/// ```
#[derive(Debug, Clone)]
pub struct WeakCompositions {
    total: u64,
    parts: usize,
    current: Option<Vec<u64>>,
}

impl WeakCompositions {
    /// Creates the iterator.
    ///
    /// # Panics
    ///
    /// Panics if `parts == 0` and `total > 0` (no way to place the units).
    pub fn new(total: u64, parts: usize) -> Self {
        assert!(
            parts > 0 || total == 0,
            "cannot split {total} units into zero parts"
        );
        let current = if parts == 0 {
            None
        } else {
            // First composition: everything in the first part.
            let mut v = vec![0; parts];
            v[0] = total;
            Some(v)
        };
        WeakCompositions {
            total,
            parts,
            current,
        }
    }

    /// Total number of compositions `C(total + parts − 1, parts − 1)`.
    pub fn count_total(total: u64, parts: usize) -> u128 {
        if parts == 0 {
            return u128::from(total == 0);
        }
        binomial(total as u128 + parts as u128 - 1, parts as u128 - 1)
    }
}

/// Binomial coefficient `C(n, k)` in `u128` (saturating on overflow).
pub fn binomial(n: u128, k: u128) -> u128 {
    if k > n {
        return 0;
    }
    let k = k.min(n - k);
    let mut result: u128 = 1;
    for i in 0..k {
        result = result.saturating_mul(n - i) / (i + 1);
    }
    result
}

impl Iterator for WeakCompositions {
    type Item = Vec<u64>;

    fn next(&mut self) -> Option<Vec<u64>> {
        let out = self.current.clone()?;
        let v = self.current.as_mut().expect("checked above");
        let p = self.parts;
        // Terminal composition: all units in the last part.
        if v[p - 1] == self.total {
            self.current = None;
        } else {
            // Standard advance: decrement the rightmost positive entry
            // left of the end, gather everything to its right plus one,
            // and restart that pile immediately after it.
            let i = (0..p - 1)
                .rev()
                .find(|&i| v[i] > 0)
                .expect("some unit sits left of the last part");
            v[i] -= 1;
            let rest: u64 = v[i + 1..].iter().sum::<u64>() + 1;
            for x in &mut v[i + 1..] {
                *x = 0;
            }
            v[i + 1] = rest;
        }
        debug_assert!(
            out.iter().sum::<u64>() == self.total,
            "composition {:?} does not sum to {}",
            out,
            self.total
        );
        Some(out)
    }
}

/// Result of Algorithm 2.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct ExhaustiveResult {
    /// Best strategy found across all divisions.
    pub strategy: Strategy,
    /// Its simplified utility `U'`.
    pub simplified_utility: f64,
    /// Number of divisions explored.
    pub divisions_explored: u64,
    /// Oracle evaluations spent in total (cache hits included).
    pub evaluations: u64,
    /// Of those, evaluations answered from the oracle's strategy memo —
    /// adjacent divisions share greedy prefixes, so this climbs fast.
    pub cache_hits: u64,
    /// The division (in units of `m`, including the unlocked part) that
    /// produced the best strategy.
    pub best_division: Vec<u64>,
}

/// Configuration for [`exhaustive_search`].
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct ExhaustiveConfig {
    /// Budget `B_u`.
    pub budget: f64,
    /// Granularity `m > 0`: locks are multiples of `m`.
    pub granularity: f64,
    /// Safety bound on divisions explored; `None` = unbounded (use only
    /// for tiny instances — the division count is `C(U + k, k)`).
    pub max_divisions: Option<u64>,
}

/// Algorithm 2: exhaustive search over discretized capital divisions, each
/// evaluated by the lock-constrained greedy.
///
/// Divisions are filtered for budget feasibility as channels are opened:
/// a greedy prefix of `j` channels with locks `l₁…l_j` is feasible iff
/// `j·C + Σ l_i ≤ B_u`; infeasible prefixes are truncated.
///
/// # Panics
///
/// Panics if `granularity ≤ 0` or budget is negative/NaN.
pub fn exhaustive_search(oracle: &UtilityOracle, config: ExhaustiveConfig) -> ExhaustiveResult {
    assert!(
        config.granularity > 0.0 && !config.granularity.is_nan(),
        "granularity must be positive"
    );
    assert!(
        config.budget >= 0.0 && !config.budget.is_nan(),
        "budget must be >= 0"
    );
    let c = oracle.params().cost.onchain_fee;
    let units = (config.budget / config.granularity).floor() as u64;
    let k = if c > 0.0 {
        (config.budget / c).floor() as usize
    } else {
        oracle.candidates().len()
    };
    let mut solver_span = lcg_obs::span::span("core/exhaustive");
    solver_span.field_u64("units", units);
    solver_span.field_u64("parts", k as u64 + 1);
    let start_evals = oracle.evaluation_count();
    let start_hits = oracle.cache_stats().hits;

    // One division → its lock-constrained greedy result (or None when the
    // division is infeasible). Pure per division, so batches of divisions
    // fan out across cores; the running best is updated sequentially in
    // division order with a first-strict-max tie-break, which keeps the
    // reported optimum identical at any thread count.
    let run_division = |division: &Vec<u64>| -> Option<(Strategy, f64)> {
        if lcg_obs::enabled() {
            lcg_obs::counter!("core/exhaustive/divisions").inc();
        }
        // First k parts are channel locks (in units of m); the last part is
        // left unlocked. Truncate to the budget-feasible prefix.
        let mut locks: Vec<f64> = Vec::with_capacity(k);
        let mut spent = 0.0;
        for &part in division.iter().take(k) {
            let lock = part as f64 * config.granularity;
            if spent + c + lock > config.budget + 1e-9 {
                break;
            }
            spent += c + lock;
            locks.push(lock);
        }
        if locks.is_empty() {
            return None;
        }
        let GreedyResult {
            strategy,
            simplified_utility,
            ..
        } = greedy_with_locks(oracle, &locks);
        if !strategy.is_within_budget(c, config.budget) {
            return None;
        }
        Some((strategy, simplified_utility))
    };

    // Stream the composition iterator in fixed-size batches so unbounded
    // division counts never materialize at once. Batch boundaries don't
    // depend on the thread count, preserving determinism.
    const DIVISION_BATCH: usize = 128;
    let mut compositions = WeakCompositions::new(units, k + 1);
    let mut best: Option<(Strategy, f64, Vec<u64>)> = None;
    let mut explored = 0u64;
    loop {
        let batch_cap = match config.max_divisions {
            Some(cap) => ((cap - explored) as usize).min(DIVISION_BATCH),
            None => DIVISION_BATCH,
        };
        let batch: Vec<Vec<u64>> = compositions.by_ref().take(batch_cap).collect();
        if batch.is_empty() {
            break;
        }
        explored += batch.len() as u64;
        let results = lcg_parallel::par_map(&batch, run_division);
        for (division, result) in batch.iter().zip(results) {
            if let Some((strategy, simplified_utility)) = result {
                if best
                    .as_ref()
                    .is_none_or(|(_, v, _)| simplified_utility > *v)
                {
                    best = Some((strategy, simplified_utility, division.clone()));
                }
            }
        }
    }

    let (strategy, simplified_utility, best_division) =
        best.unwrap_or((Strategy::empty(), f64::NEG_INFINITY, Vec::new()));
    ExhaustiveResult {
        strategy,
        simplified_utility,
        divisions_explored: explored,
        evaluations: oracle.evaluation_count() - start_evals,
        cache_hits: oracle.cache_stats().hits - start_hits,
        best_division,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::utility::{UtilityOracle, UtilityParams};
    use lcg_graph::generators;
    use lcg_graph::NodeId;
    use std::collections::HashSet;

    #[test]
    fn compositions_enumerate_exactly_once() {
        for (total, parts) in [(0u64, 1usize), (3, 1), (4, 2), (3, 3), (5, 4)] {
            let all: Vec<Vec<u64>> = WeakCompositions::new(total, parts).collect();
            let expect = WeakCompositions::count_total(total, parts);
            assert_eq!(all.len() as u128, expect, "count for ({total},{parts})");
            let set: HashSet<Vec<u64>> = all.iter().cloned().collect();
            assert_eq!(set.len(), all.len(), "duplicates for ({total},{parts})");
            for comp in &all {
                assert_eq!(comp.iter().sum::<u64>(), total);
                assert_eq!(comp.len(), parts);
            }
        }
    }

    #[test]
    fn composition_counts_match_binomials() {
        assert_eq!(WeakCompositions::count_total(4, 2), 5);
        assert_eq!(WeakCompositions::count_total(3, 3), 10);
        assert_eq!(WeakCompositions::count_total(0, 5), 1);
        assert_eq!(binomial(10, 3), 120);
        assert_eq!(binomial(3, 5), 0);
    }

    fn star_oracle(leaves: usize, min_usable_lock: f64) -> UtilityOracle {
        let host = generators::star(leaves);
        let n = host.node_bound();
        let params = UtilityParams {
            min_usable_lock,
            ..UtilityParams::default()
        };
        UtilityOracle::new(host, vec![1.0; n], params)
    }

    #[test]
    fn finds_a_feasible_strategy() {
        let oracle = star_oracle(4, 0.0);
        let result = exhaustive_search(
            &oracle,
            ExhaustiveConfig {
                budget: 4.0,
                granularity: 1.0,
                max_divisions: None,
            },
        );
        assert!(!result.strategy.is_empty());
        assert!(result
            .strategy
            .is_within_budget(oracle.params().cost.onchain_fee, 4.0));
        assert!(result.simplified_utility.is_finite());
        assert!(result.divisions_explored > 0);
    }

    #[test]
    fn capacity_rule_forces_nontrivial_division() {
        // min_usable_lock = 2: a channel only works with >= 2 coins, so the
        // best division must concentrate units instead of spreading thin.
        let oracle = star_oracle(4, 2.0);
        let result = exhaustive_search(
            &oracle,
            ExhaustiveConfig {
                budget: 5.0,
                granularity: 1.0,
                max_divisions: None,
            },
        );
        assert!(
            result.simplified_utility.is_finite(),
            "a usable channel must be found"
        );
        for a in result.strategy.iter() {
            assert!(
                a.lock + 1e-9 >= 2.0,
                "useless channel in optimum: {a:?} (U' = {})",
                result.simplified_utility
            );
        }
    }

    #[test]
    fn beats_or_matches_fixed_lock_greedy() {
        // Algorithm 2 explores a superset of Algorithm 1's divisions at the
        // same granularity, so it can only do better (on U').
        let oracle = star_oracle(5, 1.0);
        let fixed = crate::greedy::greedy_fixed_lock(&oracle, 6.0, 1.0);
        let exhaustive = exhaustive_search(
            &oracle,
            ExhaustiveConfig {
                budget: 6.0,
                granularity: 1.0,
                max_divisions: None,
            },
        );
        assert!(
            exhaustive.simplified_utility >= fixed.simplified_utility - 1e-9,
            "exhaustive {} < fixed {}",
            exhaustive.simplified_utility,
            fixed.simplified_utility
        );
    }

    #[test]
    fn max_divisions_caps_work() {
        let oracle = star_oracle(4, 0.0);
        let result = exhaustive_search(
            &oracle,
            ExhaustiveConfig {
                budget: 6.0,
                granularity: 1.0,
                max_divisions: Some(3),
            },
        );
        assert_eq!(result.divisions_explored, 3);
    }

    #[test]
    fn zero_budget_returns_empty() {
        let oracle = star_oracle(3, 0.0);
        let result = exhaustive_search(
            &oracle,
            ExhaustiveConfig {
                budget: 0.0,
                granularity: 1.0,
                max_divisions: None,
            },
        );
        assert!(result.strategy.is_empty());
        assert_eq!(result.simplified_utility, f64::NEG_INFINITY);
    }

    #[test]
    fn best_division_is_reported_consistently() {
        let oracle = star_oracle(4, 1.0);
        let result = exhaustive_search(
            &oracle,
            ExhaustiveConfig {
                budget: 4.0,
                granularity: 1.0,
                max_divisions: None,
            },
        );
        assert!(!result.best_division.is_empty());
        let units: u64 = result.best_division.iter().sum();
        assert_eq!(units, 4);
    }

    #[test]
    fn picks_hub_with_spread_capital() {
        let oracle = star_oracle(5, 0.0);
        let result = exhaustive_search(
            &oracle,
            ExhaustiveConfig {
                budget: 3.0,
                granularity: 1.0,
                max_divisions: None,
            },
        );
        assert!(result.strategy.targets().contains(&NodeId(0)));
    }
}
