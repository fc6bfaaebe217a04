//! # lcg-core — *Lightning Creation Games*, the paper's primary contribution
//!
//! Rust implementation of the model and algorithms of *Lightning Creation
//! Games* (Avarikioti, Lizurej, Michalak, Yeo — ICDCS 2023,
//! arXiv:2306.16006): how should a node join a payment channel network,
//! which channels should it open and how much capital should it lock?
//!
//! * [`zipf`] — the modified Zipf transaction distribution over degree
//!   ranks (§II-B): rank factors, `p_trans`, generalized harmonic numbers.
//! * [`rates`] — transaction-rate estimation `λ_e = N·p_e` (Eq. 2) and
//!   intermediary-revenue rates via weighted betweenness.
//! * [`strategy`] — the action set `Ω`, strategies `S ⊆ Ω` and the budget
//!   constraint `Σ (C + l) ≤ B_u` (§II-C).
//! * [`utility`] — the joining user's utility `U = E^rev − E^fees − Σ L`,
//!   the simplified `U' = E^rev − E^fees` and the benefit `U^b = C_u + U`
//!   (§II-C, §III-D), all evaluated by [`utility::UtilityOracle`].
//! * [`greedy`] — **Algorithm 1**: fixed funds per channel,
//!   `(1 − 1/e)`-approximation in `O(M·n)` oracle calls (Thm 4).
//! * [`exhaustive`] — **Algorithm 2**: discretized funds, exhaustive
//!   search over budget divisions, `(1 − 1/e)`-approximation (Thm 5).
//! * [`continuous`] — the continuous-funds **1/5-approximation** via
//!   non-monotone submodular local search (§III-D, after Lee et al.).
//! * [`lazy`] — Minoux's lazy greedy: identical selections to
//!   Algorithm 1 under the submodular mode, far fewer evaluations.
//! * [`eval_cache`] — strategy-keyed memoization of oracle evaluations,
//!   backing the oracle's delta-aware fast path (affected-source pruning
//!   via `lcg_graph::incremental`) with hit/miss instrumentation.
//! * [`estimation`] — recovering `N`, `N_u` and the Zipf `s` from
//!   observed transaction streams (the paper's future-work item 3).
//! * [`bruteforce`] — exact optimizers used as experiment baselines.
//!
//! # Quick start
//!
//! ```
//! use lcg_core::greedy::greedy_fixed_lock;
//! use lcg_core::utility::{UtilityOracle, UtilityParams};
//! use lcg_graph::generators;
//!
//! // A user with budget 10 joins a small scale-free network, locking 2
//! // coins per channel.
//! let mut rng = <rand::rngs::StdRng as rand::SeedableRng>::seed_from_u64(7);
//! let host = generators::barabasi_albert(20, 2, &mut rng);
//! let n = host.node_bound();
//! let oracle = UtilityOracle::new(host, vec![1.0; n], UtilityParams::default());
//! let result = greedy_fixed_lock(&oracle, 10.0, 2.0);
//! assert!(!result.strategy.is_empty());
//! println!("join via {} (U' = {:.3})", result.strategy, result.simplified_utility);
//! ```

pub mod bruteforce;
pub mod continuous;
pub mod estimation;
pub mod eval_cache;
pub mod exhaustive;
pub mod greedy;
pub mod lazy;
pub mod rates;
pub mod strategy;
pub mod utility;
pub mod zipf;

pub use rates::TransactionModel;
pub use strategy::{Action, Strategy};
pub use utility::{Objective, UtilityOracle, UtilityParams};
