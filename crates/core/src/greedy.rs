//! Algorithm 1 — greedy channel selection with fixed funds per channel
//! (paper §III-B).
//!
//! With every channel locking the same amount `l₁`, the budget admits at
//! most `M = ⌊B_u / (C + l₁)⌋` channels and the channel-cost term is the
//! same for every strategy of a given size, so maximizing the full utility
//! reduces to maximizing the simplified utility `U' = E^rev − E^fees`,
//! which is submodular and monotone (Thm 1–2). The classic greedy of
//! Nemhauser–Wolsey–Fisher then guarantees a `(1 − 1/e)`-approximation for
//! every prefix size `k ≤ M`; Algorithm 1 records each prefix and returns
//! the best one (Thm 4), in `O(M · n)` oracle evaluations.

use crate::strategy::{Action, Strategy};
use crate::utility::UtilityOracle;
use lcg_graph::NodeId;
use serde::{Deserialize, Serialize};

/// Result of a greedy run.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct GreedyResult {
    /// The selected strategy (the best greedy prefix).
    pub strategy: Strategy,
    /// Its simplified utility `U'`.
    pub simplified_utility: f64,
    /// `U'` of every greedy prefix, index `k` = first `k` channels (the
    /// paper's `PU` array; index 0 is the empty strategy, `−∞`).
    pub prefix_utilities: Vec<f64>,
    /// Oracle evaluations spent (the paper's λ-estimation count; cache
    /// hits included — this counts *calls*).
    pub evaluations: u64,
    /// Of those, evaluations answered from the oracle's strategy memo.
    pub cache_hits: u64,
}

/// Algorithm 1: greedily pick up to `M = ⌊B_u/(C+l₁)⌋` channels of fixed
/// lock `lock`, maximizing the simplified utility `U'`; return the best
/// prefix.
///
/// # Panics
///
/// Panics if `lock` is negative/NaN or `budget` is negative/NaN.
///
/// # Examples
///
/// ```
/// use lcg_core::greedy::greedy_fixed_lock;
/// use lcg_core::utility::{UtilityOracle, UtilityParams};
/// use lcg_graph::generators;
///
/// let host = generators::star(5);
/// let n = host.node_bound();
/// let oracle = UtilityOracle::new(host, vec![1.0; n], UtilityParams::default());
/// let result = greedy_fixed_lock(&oracle, 10.0, 2.0);
/// assert!(!result.strategy.is_empty());
/// assert!(result.simplified_utility.is_finite());
/// ```
pub fn greedy_fixed_lock(oracle: &UtilityOracle, budget: f64, lock: f64) -> GreedyResult {
    assert!(budget >= 0.0 && !budget.is_nan(), "budget must be >= 0");
    assert!(lock >= 0.0 && !lock.is_nan(), "lock must be >= 0");
    let per_channel = oracle.params().cost.onchain_fee + lock;
    let max_channels = if per_channel <= 0.0 {
        oracle.candidates().len()
    } else {
        (budget / per_channel).floor() as usize
    };
    greedy_with_locks(oracle, &vec![lock; max_channels])
}

/// The greedy core shared with Algorithm 2: step `j` must open a channel
/// locking exactly `locks[j]` (the paper's "restriction that in every step
/// `j` of the while loop a channel of capacity `l_j` is selected"). Runs
/// for `locks.len()` steps or until no candidate improves `U'`, then
/// returns the prefix with the best `U'`.
pub fn greedy_with_locks(oracle: &UtilityOracle, locks: &[f64]) -> GreedyResult {
    let mut solver_span = lcg_obs::span::span("core/greedy");
    solver_span.field_u64("steps", locks.len() as u64);
    let start_evals = oracle.evaluation_count();
    let start_hits = oracle.cache_stats().hits;
    let mut available: Vec<NodeId> = oracle.candidates();
    let mut current = Strategy::empty();
    let mut current_value = f64::NEG_INFINITY; // U' of empty strategy
    let mut prefix_utilities = vec![current_value];
    let mut prefix_strategies = vec![current.clone()];

    for &lock in locks {
        // Score every candidate through the oracle in parallel. The argmax
        // below runs sequentially over the in-order score vector with a
        // first-strict-max tie-break, so the selected candidate is
        // identical at any thread count.
        // `available` stays sorted by node index (see `remove` below), so
        // ties resolve to the lowest-index candidate — the same canonical
        // choice the lazy-greedy heap makes.
        let _step_span = lcg_obs::span::span("core/greedy/step");
        if lcg_obs::enabled() {
            lcg_obs::counter!("core/greedy/candidates_scored").add(available.len() as u64);
        }
        let score = |candidate: &NodeId| {
            let trial = current.with(Action::new(*candidate, lock));
            oracle.simplified_utility(&trial)
        };
        let values = lcg_parallel::par_map(&available, score);

        let mut best: Option<(usize, f64)> = None;
        for (idx, &value) in values.iter().enumerate() {
            if best.is_none_or(|(_, v)| value > v) {
                best = Some((idx, value));
            }
        }
        let Some((idx, value)) = best else {
            break; // no candidates left
        };
        let chosen = available.remove(idx);
        current.push(Action::new(chosen, lock));
        current_value = value;
        prefix_utilities.push(current_value);
        prefix_strategies.push(current.clone());
    }

    // argmax over prefixes (the paper's final comparison over PU). `max_by`
    // keeps the last of equal maxima, so scanning in reverse returns the
    // shortest tied prefix: on a `U'` plateau every extra channel would
    // only add its cost `C + l`.
    let (best_k, &best_value) = prefix_utilities
        .iter()
        .enumerate()
        .rev()
        .max_by(|a, b| a.1.partial_cmp(b.1).expect("no NaN utilities"))
        .expect("at least the empty prefix exists");
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
    use crate::utility::UtilityParams;
    use lcg_graph::generators;
    use lcg_sim::onchain::CostModel;

    fn oracle_for(host: lcg_graph::generators::Topology) -> UtilityOracle {
        let n = host.node_bound();
        UtilityOracle::new(host, vec![1.0; n], UtilityParams::default())
    }

    #[test]
    fn utility_plateau_returns_the_shortest_best_prefix() {
        // No host pair transacts and the user only pays node 0, so one
        // channel to node 0 reaches every prefix's best `U' = 0`; each
        // further channel leaves `U'` at 0 and only adds its cost.
        let host = generators::path(3);
        let model = crate::rates::TransactionModel::new(vec![vec![0.0; 3]; 3], vec![1.0; 3]);
        let oracle =
            UtilityOracle::with_model(host, model, vec![1.0, 0.0, 0.0], UtilityParams::default());
        let eager = greedy_fixed_lock(&oracle, 10.0, 1.0);
        let lazy = crate::lazy::lazy_greedy_fixed_lock(&oracle, 10.0, 1.0);
        for result in [eager, lazy] {
            assert_eq!(
                result.prefix_utilities,
                vec![f64::NEG_INFINITY, 0.0, 0.0, 0.0]
            );
            assert_eq!(result.strategy.len(), 1, "picked {}", result.strategy);
            assert_eq!(result.simplified_utility, 0.0);
            let longest =
                Strategy::from_pairs(&[(NodeId(0), 1.0), (NodeId(1), 1.0), (NodeId(2), 1.0)]);
            assert!(oracle.utility(&result.strategy) > oracle.utility(&longest));
        }
    }

    #[test]
    fn picks_the_hub_first_on_a_star() {
        let oracle = oracle_for(generators::star(5));
        let result = greedy_fixed_lock(&oracle, 2.5, 1.0); // M = 1 channel
        assert_eq!(result.strategy.len(), 1);
        assert_eq!(result.strategy.actions()[0].target, NodeId(0));
    }

    #[test]
    fn respects_budget_channel_count() {
        let oracle = oracle_for(generators::star(6));
        // C = 1, lock = 1 => per channel 2.0; budget 5 => M = 2.
        let result = greedy_fixed_lock(&oracle, 5.0, 1.0);
        assert!(result.strategy.len() <= 2);
        assert!(result
            .strategy
            .is_within_budget(oracle.params().cost.onchain_fee, 5.0));
    }

    #[test]
    fn zero_budget_gives_empty_strategy() {
        let oracle = oracle_for(generators::star(3));
        let result = greedy_fixed_lock(&oracle, 0.0, 1.0);
        assert!(result.strategy.is_empty());
        assert_eq!(result.simplified_utility, f64::NEG_INFINITY);
    }

    #[test]
    fn prefix_utilities_are_monotone_for_submodular_monotone_objective() {
        // U' is monotone (Thm 2): each greedy addition cannot hurt it.
        let oracle = oracle_for(generators::cycle(8));
        let result = greedy_fixed_lock(&oracle, 8.0, 1.0);
        for w in result.prefix_utilities.windows(2) {
            assert!(
                w[1] >= w[0] - 1e-9,
                "prefix utilities decreased: {:?}",
                result.prefix_utilities
            );
        }
    }

    #[test]
    fn evaluation_count_is_linear_in_m_times_n() {
        let host = generators::star(7); // n = 8 candidates
        let oracle = oracle_for(host);
        let result = greedy_fixed_lock(&oracle, 6.0, 1.0); // M = 3
                                                           // Step k evaluates (n - k + 1) candidates: 8 + 7 + 6 = 21.
        assert_eq!(result.evaluations, 21);
    }

    #[test]
    fn greedy_with_locks_uses_prescribed_capacities() {
        let oracle = oracle_for(generators::star(4));
        let result = greedy_with_locks(&oracle, &[3.0, 1.5]);
        let locks: Vec<f64> = result.strategy.iter().map(|a| a.lock).collect();
        for (i, &l) in locks.iter().enumerate() {
            assert_eq!(l, [3.0, 1.5][i]);
        }
    }

    #[test]
    fn no_candidates_terminates_cleanly() {
        // Host with a single node: exactly one candidate, then none.
        let oracle = oracle_for(generators::path(1));
        let result = greedy_with_locks(&oracle, &[1.0, 1.0, 1.0]);
        assert!(result.strategy.len() <= 1);
    }

    #[test]
    fn larger_budget_never_hurts() {
        let oracle = oracle_for(generators::cycle(6));
        let small = greedy_fixed_lock(&oracle, 2.0, 1.0);
        let large = greedy_fixed_lock(&oracle, 8.0, 1.0);
        assert!(large.simplified_utility >= small.simplified_utility - 1e-9);
    }

    #[test]
    fn greedy_connects_bridge_position_when_profitable() {
        // Two *disconnected* hub clusters: the only way to reach both sides
        // (finite fees) and to capture cross-cluster traffic is to bridge
        // the hubs, which the greedy must discover by its second step.
        let mut host: crate::utility::Topology = lcg_graph::DiGraph::new();
        let a = host.add_node(());
        let b = host.add_node(());
        for _ in 0..3 {
            let l = host.add_node(());
            host.add_undirected(a, l, ());
            let l = host.add_node(());
            host.add_undirected(b, l, ());
        }
        let n = host.node_bound();
        let params = UtilityParams {
            favg: 0.5,
            cost: CostModel::new(0.5, 0.0),
            ..UtilityParams::default()
        };
        let oracle = UtilityOracle::new(host, vec![1.0; n], params);
        let result = greedy_fixed_lock(&oracle, 3.0, 1.0); // M = 2
        let targets = result.strategy.targets();
        assert!(
            targets.contains(&a) && targets.contains(&b),
            "expected both hubs, got {targets:?}"
        );
    }
}
