//! Satellite differential tests for the §III optimizers: greedy against a
//! subset brute force on hosts with `n ≤ 8` (the Thm 4 `(1 − 1/e)` bound),
//! lazy greedy against plain greedy (exact strategy equality under the
//! submodular revenue mode), and sequential-vs-parallel identity for every
//! optimizer output.

use lcg_core::exhaustive::{exhaustive_search, ExhaustiveConfig};
use lcg_core::greedy::greedy_fixed_lock;
use lcg_core::lazy::lazy_greedy_fixed_lock;
use lcg_core::strategy::Strategy;
use lcg_core::utility::{RevenueMode, UtilityOracle, UtilityParams};
use lcg_graph::generators::{self, Topology};
use lcg_graph::NodeId;
use rand::rngs::StdRng;
use rand::SeedableRng;
use std::sync::{Mutex, MutexGuard};

const EPS: f64 = 1e-9;
const ONE_MINUS_1_OVER_E: f64 = 1.0 - std::f64::consts::E.recip();

/// Serializes the tests that set the process-global worker count, so one
/// cannot change it under another: without it, a test's 1-worker leg can
/// run at the other test's 8 workers.
fn threads_lock() -> MutexGuard<'static, ()> {
    static LOCK: Mutex<()> = Mutex::new(());
    // The lock guards no data, so a test that failed while holding it
    // leaves nothing to repair; the next test goes ahead.
    LOCK.lock().unwrap_or_else(|poisoned| poisoned.into_inner())
}

fn fixed_rate_oracle(host: Topology) -> UtilityOracle {
    let n = host.node_bound();
    let params = UtilityParams {
        revenue_mode: RevenueMode::FixedPerChannel,
        ..UtilityParams::default()
    };
    UtilityOracle::new(host, vec![1.0; n], params)
}

/// Small random hosts (n ≤ 8) from both experiment families.
fn small_hosts(cases: usize) -> Vec<Topology> {
    let mut hosts = Vec::new();
    for case in 0..cases {
        let mut rng = StdRng::seed_from_u64(0xD1FF_0000 + case as u64);
        if case % 2 == 0 {
            if let Some(g) = generators::connected_erdos_renyi(4 + case % 5, 0.5, &mut rng, 64) {
                hosts.push(g);
            }
        } else {
            hosts.push(generators::barabasi_albert(4 + case % 5, 2, &mut rng));
        }
    }
    hosts
}

/// Brute-force optimum over every ≤ `max_channels` subset of candidates at
/// the fixed `lock` — the ground truth Algorithm 1 approximates.
fn brute_force_fixed_lock(oracle: &UtilityOracle, budget: f64, lock: f64) -> f64 {
    let per_channel = oracle.params().cost.onchain_fee + lock;
    let max_channels = if per_channel <= 0.0 {
        oracle.candidates().len()
    } else {
        (budget / per_channel).floor() as usize
    };
    let candidates = oracle.candidates();
    assert!(candidates.len() < 16, "brute force is for tiny hosts");
    let mut best = f64::NEG_INFINITY;
    for mask in 0u32..(1 << candidates.len()) {
        if mask.count_ones() as usize > max_channels {
            continue;
        }
        let pairs: Vec<(NodeId, f64)> = (0..candidates.len())
            .filter(|i| mask & (1 << i) != 0)
            .map(|i| (candidates[i], lock))
            .collect();
        let strategy = Strategy::from_pairs(&pairs);
        if !strategy.is_within_budget(oracle.params().cost.onchain_fee, budget) {
            continue;
        }
        let value = oracle.simplified_utility(&strategy);
        if value > best {
            best = value;
        }
    }
    best
}

#[test]
fn greedy_is_within_the_thm4_bound_of_the_brute_force_optimum() {
    for (i, host) in small_hosts(20).into_iter().enumerate() {
        let oracle = fixed_rate_oracle(host);
        let budget = 6.0;
        let lock = 1.0;
        let opt = brute_force_fixed_lock(&oracle, budget, lock);
        let greedy = greedy_fixed_lock(&oracle, budget, lock);
        assert!(
            greedy.simplified_utility <= opt + EPS,
            "host {i}: greedy {} beat the optimum {opt}",
            greedy.simplified_utility
        );
        if opt > 0.0 {
            assert!(
                greedy.simplified_utility >= ONE_MINUS_1_OVER_E * opt - EPS,
                "host {i}: greedy {} < (1 - 1/e) * {opt}",
                greedy.simplified_utility
            );
        }
    }
}

#[test]
fn lazy_greedy_selects_exactly_the_plain_greedy_strategy() {
    // Under the submodular fixed-rate mode the lazy heap must reproduce
    // Algorithm 1's selection move for move, not just its value.
    for (i, host) in small_hosts(20).into_iter().enumerate() {
        let oracle = fixed_rate_oracle(host);
        let eager = greedy_fixed_lock(&oracle, 6.0, 1.0);
        let lazy = lazy_greedy_fixed_lock(&oracle, 6.0, 1.0);
        assert_eq!(
            eager.strategy, lazy.strategy,
            "host {i}: lazy picked {:?}, plain greedy picked {:?}",
            lazy.strategy, eager.strategy
        );
        assert!(
            (eager.simplified_utility - lazy.simplified_utility).abs() < EPS,
            "host {i}: value mismatch eager {} vs lazy {}",
            eager.simplified_utility,
            lazy.simplified_utility
        );
        assert!(
            lazy.evaluations <= eager.evaluations,
            "host {i}: lazy spent {} evaluations, eager only {}",
            lazy.evaluations,
            eager.evaluations
        );
    }
}

#[test]
fn greedy_is_identical_at_one_and_eight_workers() {
    let _lock = threads_lock();
    for (i, host) in small_hosts(12).into_iter().enumerate() {
        let oracle = fixed_rate_oracle(host);
        lcg_parallel::set_max_threads(1);
        let seq = greedy_fixed_lock(&oracle, 6.0, 1.0);
        lcg_parallel::set_max_threads(8);
        let par = greedy_fixed_lock(&oracle, 6.0, 1.0);
        lcg_parallel::set_max_threads(0);
        assert_eq!(seq.strategy, par.strategy, "host {i}: strategies differ");
        assert_eq!(
            seq.simplified_utility.to_bits(),
            par.simplified_utility.to_bits(),
            "host {i}: utilities differ between 1 and 8 workers"
        );
        assert_eq!(
            seq.prefix_utilities
                .iter()
                .map(|u| u.to_bits())
                .collect::<Vec<_>>(),
            par.prefix_utilities
                .iter()
                .map(|u| u.to_bits())
                .collect::<Vec<_>>(),
            "host {i}: prefix utilities differ"
        );
    }
}

#[test]
fn exhaustive_search_is_identical_at_one_and_eight_workers() {
    let _lock = threads_lock();
    for (i, host) in small_hosts(8).into_iter().enumerate() {
        let oracle = fixed_rate_oracle(host);
        let config = ExhaustiveConfig {
            budget: 5.0,
            granularity: 1.0,
            max_divisions: Some(2000),
        };
        lcg_parallel::set_max_threads(1);
        let seq = exhaustive_search(&oracle, config);
        lcg_parallel::set_max_threads(8);
        let par = exhaustive_search(&oracle, config);
        lcg_parallel::set_max_threads(0);
        assert_eq!(seq.strategy, par.strategy, "host {i}: strategies differ");
        assert_eq!(
            seq.simplified_utility.to_bits(),
            par.simplified_utility.to_bits(),
            "host {i}: utilities differ"
        );
        assert_eq!(seq.best_division, par.best_division, "host {i}");
        assert_eq!(seq.divisions_explored, par.divisions_explored, "host {i}");
        assert_eq!(seq.evaluations, par.evaluations, "host {i}");
    }
}

#[test]
fn exhaustive_with_unit_granularity_dominates_fixed_lock_greedy() {
    // Algorithm 2 explores every unit division including the all-equal one,
    // so its optimum can never fall below the fixed-lock greedy's value.
    for (i, host) in small_hosts(8).into_iter().enumerate() {
        let oracle = fixed_rate_oracle(host);
        let greedy = greedy_fixed_lock(&oracle, 4.0, 1.0);
        let exhaustive = exhaustive_search(
            &oracle,
            ExhaustiveConfig {
                budget: 4.0,
                granularity: 1.0,
                max_divisions: None,
            },
        );
        assert!(
            exhaustive.simplified_utility >= greedy.simplified_utility - EPS,
            "host {i}: exhaustive {} < greedy {}",
            exhaustive.simplified_utility,
            greedy.simplified_utility
        );
    }
}
