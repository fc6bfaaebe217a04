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
    /// Creates the iterator. Zero units in zero parts have one
    /// composition, the empty one.
    ///
    /// # Panics
    ///
    /// Panics if `parts == 0` and `total > 0` (no way to place the units).
    pub fn new(total: u64, parts: usize) -> Self {
        assert!(
            parts > 0 || total == 0,
            "cannot split {total} units into zero parts"
        );
        // First composition: everything in the first part.
        let mut first = vec![0; parts];
        if let Some(head) = first.first_mut() {
            *head = total;
        }
        WeakCompositions {
            total,
            parts,
            current: Some(first),
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
        // Terminal composition: all units in the last part (or no parts).
        if v.last().is_none_or(|&last| last == self.total) {
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
    /// Of those, evaluations answered from the oracle's strategy memo.
    /// Divisions with the same first part share greedy prefixes, so this
    /// climbs fast; they also share them with no other division, so the
    /// count is the same at any thread count (while the memo is below its
    /// capacity).
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
/// The best division is the first of the highest `U'` in division order.
/// The search runs in parallel, one worker per group of divisions that
/// share their first part; the result, the evaluation count and the
/// oracle's memo counts (while the memo is below its capacity) are the
/// same at any thread count.
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
    // division is infeasible).
    let run_division = |division: &[u64]| -> Option<(Strategy, f64)> {
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

    // Divisions with the same first part `l₁` open the same first channel
    // lock, so their greedy runs share memo entries with each other and
    // with no other subtree. One worker walks each subtree's divisions in
    // division order, so every strategy is evaluated once at any thread
    // count, and returns the subtree's first strict maximum. The subtrees'
    // bests are then reduced in division order with the same tie-break,
    // which gives the first-strict-max division overall.
    let subtrees = first_part_subtrees(units, k + 1, config.max_divisions);
    let best_of_subtree = |(first, count): (u64, u64)| -> Option<Best> {
        let mut best: Option<Best> = None;
        for rest in WeakCompositions::new(units - first, k).take(count as usize) {
            let division: Vec<u64> = std::iter::once(first).chain(rest).collect();
            if let Some((strategy, value)) = run_division(&division) {
                keep_first_max(&mut best, (strategy, value, division));
            }
        }
        best
    };
    // Largest subtree first, so the longest walk starts at once and the
    // small ones fill in around it.
    let mut schedule: Vec<usize> = (0..subtrees.len()).collect();
    schedule.sort_by_key(|&i| std::cmp::Reverse(subtrees[i].1));
    let walked = lcg_parallel::par_map(&schedule, |&i| best_of_subtree(subtrees[i]));
    let mut bests: Vec<Option<Best>> = vec![None; subtrees.len()];
    for (&i, subtree_best) in schedule.iter().zip(walked) {
        bests[i] = subtree_best;
    }
    let mut best: Option<Best> = None;
    for candidate in bests.into_iter().flatten() {
        keep_first_max(&mut best, candidate);
    }
    let explored = subtrees.iter().map(|&(_, count)| count).sum();

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

/// A division's greedy result: strategy, its `U'` and the division.
type Best = (Strategy, f64, Vec<u64>);

/// Replaces `best` with `candidate` iff the candidate's `U'` is strictly
/// higher, so the first of equal maxima in visiting order wins.
fn keep_first_max(best: &mut Option<Best>, candidate: Best) {
    if best.as_ref().is_none_or(|(_, v, _)| candidate.1 > *v) {
        *best = Some(candidate);
    }
}

/// The first-part subtrees of the weak compositions of `units` into
/// `parts` parts, as `(first part, division count)` in division order
/// (first part descending), cut to the first `cap` divisions. Subtrees
/// past the cap are left out; none is empty.
fn first_part_subtrees(units: u64, parts: usize, cap: Option<u64>) -> Vec<(u64, u64)> {
    let mut left = cap.unwrap_or(u64::MAX);
    // With one part the only division is `[units]`.
    let lowest = if parts == 1 { units } else { 0 };
    let mut subtrees = Vec::new();
    for first in (lowest..=units).rev() {
        if left == 0 {
            break;
        }
        let count = WeakCompositions::count_total(units - first, parts - 1);
        let count = u64::try_from(count).unwrap_or(u64::MAX).min(left);
        left -= count;
        subtrees.push((first, count));
    }
    subtrees
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::utility::{UtilityOracle, UtilityParams};
    use lcg_graph::generators;
    use lcg_graph::NodeId;
    use rand::rngs::StdRng;
    use rand::SeedableRng;
    use std::collections::HashSet;

    #[test]
    fn compositions_enumerate_exactly_once() {
        for (total, parts) in [(0u64, 0usize), (0, 1), (3, 1), (4, 2), (3, 3), (5, 4)] {
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

    /// Algorithm 2 as one sequential walk over the first `cap` divisions
    /// in division order, with a first-strict-max: what the subtree
    /// fan-out must reproduce, memo counts included.
    fn sequential_reference(oracle: &UtilityOracle, config: ExhaustiveConfig) -> ExhaustiveResult {
        let c = oracle.params().cost.onchain_fee;
        let units = (config.budget / config.granularity).floor() as u64;
        let k = (config.budget / c).floor() as usize;
        let (start_evals, start_hits) = (oracle.evaluation_count(), oracle.cache_stats().hits);
        let cap = config.max_divisions.map_or(usize::MAX, |cap| cap as usize);
        let mut best: Option<(Strategy, f64, Vec<u64>)> = None;
        let mut explored = 0;
        for division in WeakCompositions::new(units, k + 1).take(cap) {
            explored += 1;
            let (mut locks, mut spent) = (Vec::new(), 0.0);
            for &part in division.iter().take(k) {
                let lock = part as f64 * config.granularity;
                if spent + c + lock > config.budget + 1e-9 {
                    break;
                }
                spent += c + lock;
                locks.push(lock);
            }
            if locks.is_empty() {
                continue;
            }
            let run = greedy_with_locks(oracle, &locks);
            if run.strategy.is_within_budget(c, config.budget)
                && best
                    .as_ref()
                    .is_none_or(|(_, v, _)| run.simplified_utility > *v)
            {
                best = Some((run.strategy, run.simplified_utility, division));
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

    #[test]
    fn subtree_fan_out_matches_a_sequential_walk() {
        let mut rng = StdRng::seed_from_u64(7919);
        let ba = generators::barabasi_albert(12, 2, &mut rng);
        let ba_oracle = || UtilityOracle::new(ba.clone(), vec![1.0; 12], UtilityParams::default());
        // On the star only locks ≥ 1 carry payments, so one hub channel
        // scores the same in several first-part subtrees and the tie-break
        // across subtrees picks the winner.
        let hosts: [(&str, &dyn Fn() -> UtilityOracle); 2] =
            [("star", &|| star_oracle(4, 1.0)), ("BA-12", &ba_oracle)];
        // (budget, granularity): C = 1, so 0 < budget < C leaves k = 0.
        for (budget, granularity) in [(3.0, 1.0), (4.0, 1.0), (0.0, 1.0), (0.5, 0.25)] {
            let units = (budget / granularity) as u64;
            let parts = budget as usize + 1;
            let total = WeakCompositions::count_total(units, parts) as u64;
            // In division order the first subtree (all units up front)
            // holds one division and the second `count_total(1, parts - 1)`.
            let boundary = 1 + WeakCompositions::count_total(1, parts - 1) as u64;
            let inside = boundary + 1;
            let caps = [
                Some(0),
                Some(1),
                Some(boundary),
                Some(inside),
                Some(total + 3),
                None,
            ];
            for (name, oracle) in &hosts {
                for max_divisions in caps {
                    let config = ExhaustiveConfig {
                        budget,
                        granularity,
                        max_divisions,
                    };
                    let at =
                        format!("{name}, budget {budget}/{granularity}, cap {max_divisions:?}");
                    let expect = sequential_reference(&oracle(), config);
                    let got = exhaustive_search(&oracle(), config);
                    assert_eq!(got.strategy, expect.strategy, "{at}: strategy");
                    assert_eq!(
                        got.simplified_utility.to_bits(),
                        expect.simplified_utility.to_bits(),
                        "{at}: simplified utility"
                    );
                    assert_eq!(got.best_division, expect.best_division, "{at}: division");
                    assert_eq!(
                        got.divisions_explored, expect.divisions_explored,
                        "{at}: explored"
                    );
                    assert_eq!(got.evaluations, expect.evaluations, "{at}: evaluations");
                    assert_eq!(got.cache_hits, expect.cache_hits, "{at}: memo hits");
                }
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
