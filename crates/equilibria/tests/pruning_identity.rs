//! Differential suite for the accelerated deviation search: across the
//! Thm 7–11 parameter grid, the pruned + incremental search must return
//! the same verdict and the same (bit-identical) deviations as the
//! exhaustive reference walk, and its counters must account for every
//! candidate the reference evaluates. An analyzer reused across games
//! must answer each one as a fresh analyzer would.

use lcg_equilibria::game::{Game, GameParams};
use lcg_equilibria::nash::{Deviation, DeviationSearch, NashAnalyzer};

fn grid() -> Vec<(&'static str, Game)> {
    let mut games = Vec::new();
    for n in [3usize, 4, 5] {
        for s in [0.5, 2.0, 6.0] {
            for (a, b) in [(0.1, 0.1), (0.1, 0.6), (0.6, 0.1)] {
                for l in [0.25, 1.0] {
                    let params = GameParams {
                        zipf_s: s,
                        a,
                        b,
                        link_cost: l,
                        ..GameParams::default()
                    };
                    games.push(("star", Game::star(n, params)));
                    games.push(("path", Game::path(n, params)));
                    games.push(("circle", Game::circle(n, params)));
                }
            }
        }
    }
    games
}

fn assert_same_deviations(label: &str, got: &[Deviation], want: &[Deviation]) {
    assert_eq!(got.len(), want.len(), "{label}: deviation count");
    for (g, w) in got.iter().zip(want) {
        assert_eq!(g.player, w.player, "{label}");
        assert_eq!(g.remove, w.remove, "{label}");
        assert_eq!(g.add, w.add, "{label}");
        assert_eq!(
            g.utility_before.to_bits(),
            w.utility_before.to_bits(),
            "{label}: utility_before of player {}",
            g.player
        );
        assert_eq!(
            g.utility_after.to_bits(),
            w.utility_after.to_bits(),
            "{label}: utility_after of player {}",
            g.player
        );
    }
}

#[test]
fn accelerated_search_is_verdict_and_deviation_identical_on_the_theorem_grid() {
    let mut total_pruned = 0u64;
    let mut total_explored = 0u64;
    for (shape, game) in grid() {
        let label = format!(
            "{shape} n={} s={} a={} b={} l={}",
            game.graph().node_count(),
            game.params().zipf_s,
            game.params().a,
            game.params().b,
            game.params().link_cost
        );
        let exhaustive = NashAnalyzer::exhaustive().check(&game);
        let pruned = NashAnalyzer::new().check(&game);
        assert_eq!(
            pruned.is_equilibrium, exhaustive.is_equilibrium,
            "{label}: verdict"
        );
        assert_same_deviations(&label, &pruned.deviations, &exhaustive.deviations);
        assert_eq!(
            pruned.explored + pruned.bound_pruned,
            exhaustive.explored,
            "{label}: candidate accounting"
        );
        assert_eq!(
            exhaustive.bound_pruned, 0,
            "{label}: reference never prunes"
        );
        total_pruned += pruned.bound_pruned;
        total_explored += pruned.explored;
    }
    assert!(
        total_pruned > 0,
        "the bound should fire somewhere on the grid"
    );
    assert!(
        total_explored > 0,
        "the search should still evaluate candidates"
    );
}

#[test]
fn each_acceleration_is_independently_identical() {
    // Pruning-only and incremental-only must each match the reference on a
    // representative slice of the grid (the full cross product is covered
    // by the combined test above).
    let slice = [
        ("star", Game::star(5, stable_star_params())),
        ("path", Game::path(5, GameParams::default())),
        ("circle", Game::circle(5, cheap_link_params())),
    ];
    let configs = [
        DeviationSearch {
            bound_pruning: true,
            incremental: false,
            fallback_fraction: 1.0,
        },
        DeviationSearch {
            bound_pruning: false,
            incremental: true,
            fallback_fraction: 1.0,
        },
        DeviationSearch {
            bound_pruning: true,
            incremental: true,
            fallback_fraction: 0.5,
        },
    ];
    for (shape, game) in slice {
        let reference = NashAnalyzer::exhaustive().check(&game);
        for config in configs {
            let report = NashAnalyzer::with_search(config).check(&game);
            let label = format!("{shape} under {config:?}");
            assert_eq!(report.is_equilibrium, reference.is_equilibrium, "{label}");
            assert_same_deviations(&label, &report.deviations, &reference.deviations);
            assert_eq!(
                report.explored + report.bound_pruned,
                reference.explored,
                "{label}"
            );
        }
    }
}

#[test]
fn stable_star_regime_prunes_aggressively() {
    // A Thm 7 stable star at high Zipf bias, head to head with the
    // exhaustive walk at n = 6, 8 and 10. The bound should eliminate the
    // vast majority of each leaf's 2 · 2^(n−2) candidates, and the
    // incremental engine should answer the surviving ones without full
    // Brandes passes.
    for n in [6usize, 8, 10] {
        let label = format!("star n={n}");
        let game = Game::star(n, stable_star_params());
        let exhaustive = NashAnalyzer::exhaustive().check(&game);
        let pruned = NashAnalyzer::new().check(&game);
        assert_eq!(
            pruned.is_equilibrium, exhaustive.is_equilibrium,
            "{label}: verdict"
        );
        assert_same_deviations(&label, &pruned.deviations, &exhaustive.deviations);
        assert_eq!(
            pruned.explored + pruned.bound_pruned,
            exhaustive.explored,
            "{label}: candidate accounting"
        );
        if n != 10 {
            continue;
        }
        assert!(pruned.is_equilibrium);
        assert!(exhaustive.is_equilibrium);
        assert!(
            pruned.explored * 5 <= exhaustive.explored,
            "expected ≥5× fewer evaluations: {} vs {}",
            pruned.explored,
            exhaustive.explored
        );
        assert!(
            pruned.sources_recomputed * 5 <= exhaustive.sources_recomputed,
            "expected ≥5× fewer Brandes source recomputations: {} vs {}",
            pruned.sources_recomputed,
            exhaustive.sources_recomputed
        );
    }
}

#[test]
fn one_analyzer_serves_games_with_different_parameters() {
    // The same star under two parameter sets, checked by one analyzer in
    // either order: the second report must equal a fresh analyzer's.
    let stable = Game::star(5, stable_star_params());
    let cheap = Game::star(5, cheap_link_params());
    for make in [
        NashAnalyzer::new as fn() -> NashAnalyzer,
        NashAnalyzer::exhaustive,
    ] {
        for (first, second, order) in [
            (&stable, &cheap, "stable then cheap"),
            (&cheap, &stable, "cheap then stable"),
        ] {
            let label = format!("{:?}, {order}", make().search());
            let analyzer = make();
            analyzer.check(first);
            let reused = analyzer.check(second);
            let fresh = make().check(second);
            assert_eq!(
                reused.is_equilibrium, fresh.is_equilibrium,
                "{label}: verdict"
            );
            assert_same_deviations(&label, &reused.deviations, &fresh.deviations);
            assert_eq!(reused.explored, fresh.explored, "{label}: explored");
            assert_eq!(
                reused.bound_pruned, fresh.bound_pruned,
                "{label}: bound_pruned"
            );
        }
    }
}

fn cheap_link_params() -> GameParams {
    GameParams {
        zipf_s: 0.5,
        a: 1.0,
        b: 1.0,
        link_cost: 0.01,
        ..GameParams::default()
    }
}

fn stable_star_params() -> GameParams {
    GameParams {
        zipf_s: 6.0,
        a: 0.4,
        b: 0.4,
        link_cost: 1.0,
        ..GameParams::default()
    }
}
