//! Lazy (accelerated) greedy — an optimization of Algorithm 1.
//!
//! For a submodular objective, a candidate's marginal gain can only
//! shrink as the strategy grows, so stale gains from earlier rounds are
//! valid *upper bounds*. Minoux's lazy greedy keeps candidates in a
//! max-heap keyed by their last-known gain and re-evaluates only the top
//! entry; when a freshly evaluated candidate stays on top it must be the
//! true argmax. Under [`RevenueMode::FixedPerChannel`] (where `U'` is
//! provably submodular, Thm 1) this returns **exactly** Algorithm 1's
//! selection while typically evaluating far fewer strategies; under the
//! exact revenue readings it is a well-motivated heuristic and the tests
//! only assert feasibility.
//!
//! [`RevenueMode::FixedPerChannel`]: crate::utility::RevenueMode::FixedPerChannel

use crate::greedy::GreedyResult;
use crate::strategy::{Action, Strategy};
use crate::utility::UtilityOracle;
use lcg_graph::NodeId;
use std::cmp::Ordering;
use std::collections::BinaryHeap;

#[derive(Debug, Clone, Copy, PartialEq)]
struct HeapEntry {
    gain: f64,
    candidate: NodeId,
    /// Strategy size the gain was computed against; gains from smaller
    /// sizes are upper bounds under submodularity.
    stamp: usize,
}

impl Eq for HeapEntry {}

impl PartialOrd for HeapEntry {
    fn partial_cmp(&self, other: &Self) -> Option<Ordering> {
        Some(self.cmp(other))
    }
}

impl Ord for HeapEntry {
    fn cmp(&self, other: &Self) -> Ordering {
        self.gain
            .partial_cmp(&other.gain)
            .expect("gains are never NaN")
            .then_with(|| other.candidate.index().cmp(&self.candidate.index()))
    }
}

/// Lazy-greedy counterpart of
/// [`greedy_fixed_lock`](crate::greedy::greedy_fixed_lock): same inputs,
/// same `(1 − 1/e)` guarantee under the submodular (fixed-rate) revenue
/// mode, usually far fewer oracle evaluations.
pub fn lazy_greedy_fixed_lock(oracle: &UtilityOracle, budget: f64, lock: f64) -> GreedyResult {
    assert!(budget >= 0.0 && !budget.is_nan(), "budget must be >= 0");
    assert!(lock >= 0.0 && !lock.is_nan(), "lock must be >= 0");
    let _solver_span = lcg_obs::span::span("core/lazy_greedy");
    let start_evals = oracle.evaluation_count();
    let start_hits = oracle.cache_stats().hits;
    let per_channel = oracle.params().cost.onchain_fee + lock;
    let max_channels = if per_channel <= 0.0 {
        oracle.candidates().len()
    } else {
        (budget / per_channel).floor() as usize
    };

    let mut current = Strategy::empty();
    let mut current_value = f64::NEG_INFINITY;
    let mut prefix_utilities = vec![current_value];
    let mut prefix_strategies = vec![current.clone()];

    // Round 1 is a full scan: the empty strategy has U' = −∞, so
    // singleton values are not marginal gains and cannot seed the heap.
    let mut remaining = oracle.candidates();
    if max_channels > 0 && !remaining.is_empty() {
        // First-strict-max over the index-sorted candidates: ties resolve
        // to the lowest index, exactly like the eager greedy's scan and
        // this function's own heap ordering.
        let mut best: Option<(usize, f64)> = None;
        for (i, &c) in remaining.iter().enumerate() {
            let value = oracle.simplified_utility(&Strategy::from_pairs(&[(c, lock)]));
            if best.is_none_or(|(_, v)| value > v) {
                best = Some((i, value));
            }
        }
        let (idx, value) = best.expect("non-empty candidates");
        let first = remaining.remove(idx);
        current.push(Action::new(first, lock));
        current_value = value;
        prefix_utilities.push(current_value);
        prefix_strategies.push(current.clone());
    }

    // Seed the heap with true marginals relative to S₁ (stamp 1); from
    // here on submodularity makes stale gains valid upper bounds.
    let mut heap: BinaryHeap<HeapEntry> = remaining
        .into_iter()
        .map(|c| {
            let value = oracle.simplified_utility(&current.with(Action::new(c, lock)));
            HeapEntry {
                gain: value - current_value,
                candidate: c,
                stamp: 1,
            }
        })
        .collect();

    while current.len() < max_channels {
        let k = current.len();
        // Pop until the top entry's gain was computed against the current
        // strategy; everything it dominates is thereby also dominated.
        let chosen = loop {
            let Some(top) = heap.pop() else {
                break None;
            };
            if top.stamp == k {
                break Some(top);
            }
            if lcg_obs::enabled() {
                lcg_obs::counter!("core/lazy_greedy/heap_reevaluations").inc();
            }
            let trial = current.with(Action::new(top.candidate, lock));
            let value = oracle.simplified_utility(&trial);
            heap.push(HeapEntry {
                gain: value - current_value,
                candidate: top.candidate,
                stamp: k,
            });
        };
        let Some(entry) = chosen else { break };
        current.push(Action::new(entry.candidate, lock));
        current_value += entry.gain;
        prefix_utilities.push(current_value);
        prefix_strategies.push(current.clone());
    }

    // Reverse scan: the first of equal maxima, as in the eager greedy.
    let (best_k, &best_value) = prefix_utilities
        .iter()
        .enumerate()
        .rev()
        .max_by(|a, b| a.1.partial_cmp(b.1).expect("no NaN utilities"))
        .expect("at least the empty prefix");
    GreedyResult {
        strategy: prefix_strategies[best_k].clone(),
        simplified_utility: best_value,
        prefix_utilities,
        evaluations: oracle.evaluation_count() - start_evals,
        cache_hits: oracle.cache_stats().hits - start_hits,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::greedy::greedy_fixed_lock;
    use crate::utility::{RevenueMode, UtilityParams};
    use lcg_graph::generators;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    fn fixed_rate_oracle(host: generators::Topology) -> UtilityOracle {
        let n = host.node_bound();
        let params = UtilityParams {
            revenue_mode: RevenueMode::FixedPerChannel,
            ..UtilityParams::default()
        };
        UtilityOracle::new(host, vec![1.0; n], params)
    }

    #[test]
    fn matches_standard_greedy_value_under_submodular_mode() {
        let mut rng = StdRng::seed_from_u64(31);
        for host in [
            generators::star(8),
            generators::cycle(9),
            generators::barabasi_albert(14, 2, &mut rng),
        ] {
            let oracle = fixed_rate_oracle(host);
            let eager = greedy_fixed_lock(&oracle, 8.0, 1.0);
            let lazy = lazy_greedy_fixed_lock(&oracle, 8.0, 1.0);
            assert!(
                (eager.simplified_utility - lazy.simplified_utility).abs() < 1e-9,
                "value mismatch: eager {} lazy {}",
                eager.simplified_utility,
                lazy.simplified_utility
            );
            assert_eq!(eager.strategy.len(), lazy.strategy.len());
        }
    }

    #[test]
    fn saves_evaluations_on_larger_hosts() {
        let mut rng = StdRng::seed_from_u64(37);
        let host = generators::barabasi_albert(40, 2, &mut rng);
        let oracle = fixed_rate_oracle(host);
        let eager = greedy_fixed_lock(&oracle, 10.0, 1.0);
        let lazy = lazy_greedy_fixed_lock(&oracle, 10.0, 1.0);
        assert!(
            lazy.evaluations <= eager.evaluations,
            "lazy {} vs eager {}",
            lazy.evaluations,
            eager.evaluations
        );
    }

    #[test]
    fn feasible_under_exact_revenue_heuristic() {
        let host = generators::star(6);
        let n = host.node_bound();
        let oracle = UtilityOracle::new(host, vec![1.0; n], UtilityParams::default());
        let result = lazy_greedy_fixed_lock(&oracle, 5.0, 1.0);
        assert!(result
            .strategy
            .is_within_budget(oracle.params().cost.onchain_fee, 5.0));
        assert!(result.simplified_utility.is_finite());
    }

    #[test]
    fn zero_budget_is_empty() {
        let oracle = fixed_rate_oracle(generators::star(4));
        let result = lazy_greedy_fixed_lock(&oracle, 0.0, 1.0);
        assert!(result.strategy.is_empty());
    }
}
