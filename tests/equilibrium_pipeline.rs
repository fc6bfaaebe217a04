//! Cross-crate integration: theorem predicates vs the mechanized game.
//!
//! Exercises the Section IV pipeline through the facade: closed-form
//! conditions (lcg-equilibria::theorems) against the exhaustive deviation
//! checker (lcg-equilibria::nash) on top of the core transaction model.

use lightning_creation_games::equilibria::game::{Game, GameParams};
use lightning_creation_games::equilibria::nash::NashAnalyzer;
use lightning_creation_games::equilibria::theorems::{
    theorem11_threshold, theorem8_conditions, theorem9_sufficient,
};

#[test]
fn theorem8_sufficiency_spot_checks_n_at_least_5() {
    // Thm 8 stability predictions must be confirmed by the checker for
    // n >= 5 leaves (the n = 4 boundary gap is documented in E9).
    let (a, b) = (0.3, 0.3);
    for n in [5usize, 6, 7] {
        for s in [1.0, 2.0, 4.0] {
            for l in [0.3, 0.7] {
                if theorem8_conditions(n, s, a, b, l).all_hold() {
                    let params = GameParams {
                        a,
                        b,
                        link_cost: l,
                        zipf_s: s,
                        ..GameParams::default()
                    };
                    let rep = NashAnalyzer::new().check(&Game::star(n, params));
                    assert!(
                        rep.is_equilibrium,
                        "Thm 8 over-promised at n={n} s={s} l={l}: {:?}",
                        rep.deviations
                    );
                }
            }
        }
    }
}

#[test]
fn theorem9_region_is_stable_in_the_game() {
    let (a, b, l) = (0.2, 0.2, 0.5);
    for n in [5usize, 6] {
        for s in [2.0, 3.0] {
            if theorem9_sufficient(n, s, a, b, l) {
                let params = GameParams {
                    a,
                    b,
                    link_cost: l,
                    zipf_s: s,
                    ..GameParams::default()
                };
                assert!(
                    NashAnalyzer::new()
                        .check(&Game::star(n, params))
                        .is_equilibrium,
                    "Thm 9 over-promised at n={n} s={s}"
                );
            }
        }
    }
}

#[test]
fn circle_destabilizes_and_threshold_moves_with_cost() {
    let params_cheap = GameParams {
        a: 1.0,
        b: 1.0,
        link_cost: 0.05,
        zipf_s: 0.5,
        ..GameParams::default()
    };
    // Find the empirical threshold for cheap links; it must exist and the
    // asymptotic estimate must also exist.
    let n0 = (4..=10).find(|&n| {
        !NashAnalyzer::new()
            .check(&Game::circle(n, params_cheap))
            .is_equilibrium
    });
    assert!(n0.is_some(), "Thm 11: cheap-link circle must destabilize");
    assert!(theorem11_threshold(1.0, 1.0, 0.05, 10_000).is_some());
}

#[test]
fn dynamics_from_path_reach_a_verified_equilibrium() {
    let params = GameParams {
        a: 0.4,
        b: 0.4,
        link_cost: 0.5,
        zipf_s: 3.0,
        ..GameParams::default()
    };
    let mut game = Game::path(5, params);
    let report = NashAnalyzer::new().run_dynamics(&mut game, 30);
    assert!(!report.applied.is_empty(), "Thm 10: the path must move");
    if report.converged {
        assert!(NashAnalyzer::new().check(&game).is_equilibrium);
        // Everyone stays connected in equilibrium (utility finite).
        for u in game.utilities() {
            assert!(u.is_finite());
        }
    }
}

#[test]
fn star_hub_prefers_no_change_even_when_leaves_would_move() {
    // The hub owns no channels and earns all revenue: it never deviates,
    // regardless of whether the leaves are happy (first half of the Thm 8
    // proof).
    for l in [0.1, 1.0, 10.0] {
        let params = GameParams {
            link_cost: l,
            ..GameParams::default()
        };
        let game = Game::star(5, params);
        let (hub_dev, _) =
            NashAnalyzer::new().best_deviation(&game, lightning_creation_games::graph::NodeId(0));
        assert!(hub_dev.is_none(), "hub found a deviation at l={l}");
    }
}
