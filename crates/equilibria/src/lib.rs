//! # lcg-equilibria — Nash-equilibrium analysis of PCN topologies
//!
//! Section IV of *Lightning Creation Games* (ICDCS 2023) asks when simple
//! topologies — star, path, circle — are stable, i.e. no node can improve
//! its utility by unilaterally rewiring. This crate provides both sides of
//! that analysis:
//!
//! * [`game`] — the network-creation game: players own the channels they
//!   create (cost `l` each), revenue is `b`-weighted betweenness, fees are
//!   `a`-weighted expected hop charges, and the Zipf distribution is
//!   recomputed after every deviation, exactly as the Thm 8 calculations
//!   do.
//! * [`nash`] — the deviation checker: lazily enumerates every
//!   remove-owned × add-new combination per player (exponential — the
//!   NP-hardness of the general problem is Thm 2 of \[19\]), pruned by an
//!   admissible utility upper bound and evaluated through the edge-delta
//!   incremental engine; both accelerations are verdict-preserving and
//!   individually opt-out via [`nash::DeviationSearch`].
//!   [`nash::NashAnalyzer`] is the one entry point: it owns the search
//!   knobs and memoizes nothing, so one analyzer serves any game.
//! * [`theorems`] — the closed-form predicates of Thm 6 (hub-path bound),
//!   Thm 7/8/9 (star), and Thm 11 (circle crossover estimates), so
//!   experiments can compare prediction against mechanized ground truth.
//! * [`pairwise`] — pairwise stability under shared costs (the Thm 6
//!   cost model as a solution concept; extension).
//! * [`welfare`] — social welfare and price-of-anarchy accounting
//!   (extension).
//! * [`best_response`] — iterated best-response dynamics (extension),
//!   run by [`NashAnalyzer::run_dynamics`](nash::NashAnalyzer::run_dynamics):
//!   if it converges, the result is a certified equilibrium.
//!
//! # Quick start
//!
//! ```
//! use lcg_equilibria::game::{Game, GameParams};
//! use lcg_equilibria::nash::NashAnalyzer;
//! use lcg_equilibria::theorems::theorem8_conditions;
//!
//! let (n, s, a, b, l) = (5, 3.0, 0.1, 0.1, 1.0);
//! let predicted = theorem8_conditions(n, s, a, b, l).all_hold();
//! let params = GameParams { zipf_s: s, a, b, link_cost: l, ..GameParams::default() };
//! let actual = NashAnalyzer::new().check(&Game::star(n, params)).is_equilibrium;
//! assert_eq!(predicted, actual);
//! ```

pub mod best_response;
pub mod game;
pub mod nash;
pub mod pairwise;
pub mod theorems;
pub mod welfare;

pub use game::{Game, GameParams};
pub use nash::{Deviation, DeviationSearch, NashAnalyzer, NashReport, SearchStats};
