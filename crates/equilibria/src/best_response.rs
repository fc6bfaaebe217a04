//! Iterated best-response dynamics (extension beyond the paper).
//!
//! The paper notes that computing equilibria of the general game is
//! NP-hard (Thm 2 of \[19\]) and analyses fixed topologies only. As a
//! practical complement we provide best-response *dynamics*: players take
//! turns playing an (exhaustively found) best response until nobody can
//! improve or a round limit is hit. If the dynamics stop, the final state
//! is a Nash equilibrium by construction; the experiments use this to
//! discover which topologies the game actually converges to. The entry
//! point is [`NashAnalyzer::run_dynamics`].

use crate::game::Game;
use crate::nash::{search_player, Deviation, EvalContext, NashAnalyzer, SearchStats};
use serde::{Deserialize, Serialize};

/// Outcome of running best-response dynamics.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct DynamicsReport {
    /// `true` iff a full round passed with no profitable deviation.
    pub converged: bool,
    /// Rounds played (a round = one best-response attempt per player).
    pub rounds: usize,
    /// Deviations actually applied, in order.
    pub applied: Vec<Deviation>,
    /// Deviations actually evaluated.
    pub explored: u64,
    /// Candidates skipped wholesale by the admissible utility upper bound
    /// (see [`NashReport::bound_pruned`](crate::nash::NashReport)).
    #[serde(default)]
    pub bound_pruned: u64,
    /// Brandes source recomputations paid for utility evaluations.
    #[serde(default)]
    pub sources_recomputed: u64,
    /// Sources that reused their cached BFS tree and only re-ran the
    /// dependency kernel under a changed Zipf row.
    #[serde(default)]
    pub sources_reweighted: u64,
}

impl NashAnalyzer {
    /// Runs best-response dynamics in place under this analyzer's search
    /// knobs, mutating `game` toward a stable state.
    ///
    /// Each round iterates players in id order; a player with a strictly
    /// profitable deviation applies the *best* one immediately (sequential
    /// better-response with exact best responses). Stops after a
    /// deviation-free round (convergence: the state is then a verified
    /// Nash equilibrium) or after `max_rounds`.
    ///
    /// The incremental [`EvalContext`] snapshot survives across players
    /// (and rounds) for as long as nobody moves, and is re-snapshotted
    /// only after an applied deviation changes the state.
    ///
    /// # Examples
    ///
    /// ```
    /// use lcg_equilibria::game::{Game, GameParams};
    /// use lcg_equilibria::nash::NashAnalyzer;
    ///
    /// let params = GameParams { zipf_s: 10.0, a: 0.1, b: 0.1, link_cost: 1.0,
    ///                           ..GameParams::default() };
    /// let mut game = Game::path(4, params);
    /// let report = NashAnalyzer::new().run_dynamics(&mut game, 20);
    /// assert!(report.converged);
    /// ```
    pub fn run_dynamics(&self, game: &mut Game, max_rounds: usize) -> DynamicsReport {
        let search = self.search();
        let mut applied = Vec::new();
        let mut stats = SearchStats::default();
        let mut ctx: Option<EvalContext> = None;
        let (mut rounds, mut converged) = (0, false);
        while !converged && rounds < max_rounds {
            rounds += 1;
            converged = true;
            let players: Vec<_> = game.graph().node_ids().collect();
            for player in players {
                if search.incremental && ctx.is_none() {
                    ctx = Some(EvalContext::new(game, &search));
                }
                let (dev, player_stats) = search_player(game, player, search, ctx.as_ref());
                stats.absorb(player_stats);
                if let Some(dev) = dev {
                    *game = game.deviate(player, &dev.remove, &dev.add);
                    applied.push(dev);
                    converged = false;
                    ctx = None;
                }
            }
        }
        DynamicsReport {
            converged,
            rounds,
            applied,
            explored: stats.explored,
            bound_pruned: stats.bound_pruned,
            sources_recomputed: stats.sources_recomputed,
            sources_reweighted: stats.sources_reweighted,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::game::GameParams;
    use crate::nash::DeviationSearch;

    #[test]
    fn converged_dynamics_end_in_equilibrium() {
        let params = GameParams {
            zipf_s: 3.0,
            a: 0.2,
            b: 0.2,
            link_cost: 1.0,
            ..GameParams::default()
        };
        let mut game = Game::path(4, params);
        let analyzer = NashAnalyzer::new();
        let report = analyzer.run_dynamics(&mut game, 30);
        if report.converged {
            assert!(analyzer.check(&game).is_equilibrium);
        }
        assert!(report.rounds >= 1);
    }

    #[test]
    fn stable_star_needs_no_moves() {
        let params = GameParams {
            zipf_s: 12.0,
            a: 0.1,
            b: 0.1,
            link_cost: 1.0,
            ..GameParams::default()
        };
        let mut game = Game::star(5, params);
        let report = NashAnalyzer::new().run_dynamics(&mut game, 10);
        assert!(report.converged);
        assert!(report.applied.is_empty());
        assert_eq!(report.rounds, 1);
    }

    #[test]
    fn path_moves_at_least_once() {
        let mut game = Game::path(5, GameParams::default());
        let report = NashAnalyzer::new().run_dynamics(&mut game, 10);
        assert!(!report.applied.is_empty(), "Thm 10: path must move");
    }

    #[test]
    fn round_limit_is_respected() {
        let params = GameParams {
            link_cost: 0.0001,
            ..GameParams::default()
        };
        let mut game = Game::circle(7, params);
        let report = NashAnalyzer::new().run_dynamics(&mut game, 2);
        assert!(report.rounds <= 2);
    }

    #[test]
    fn search_configurations_apply_identical_trajectories() {
        let params = GameParams {
            zipf_s: 3.0,
            a: 0.2,
            b: 0.2,
            link_cost: 1.0,
            ..GameParams::default()
        };
        let mut accelerated = Game::path(4, params);
        let mut reference = Game::path(4, params);
        let fast = NashAnalyzer::with_search(DeviationSearch::default())
            .run_dynamics(&mut accelerated, 15);
        let slow = NashAnalyzer::with_search(DeviationSearch::exhaustive())
            .run_dynamics(&mut reference, 15);
        assert_eq!(fast.converged, slow.converged);
        assert_eq!(fast.rounds, slow.rounds);
        assert_eq!(fast.applied, slow.applied);
        assert_eq!(fast.explored + fast.bound_pruned, slow.explored);
        assert_eq!(
            accelerated.canonical_channels(),
            reference.canonical_channels()
        );
    }
}
