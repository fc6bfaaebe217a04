//! Which topologies are stable? The Section IV story, end to end.
//!
//! Checks the star/path/circle results (Thm 7–11) with the mechanized
//! deviation checker, then runs best-response dynamics from an unstable
//! path and reports the equilibrium the players actually settle into.
//!
//! Run with: `cargo run --example topology_stability`

use lightning_creation_games::equilibria::game::{Game, GameParams};
use lightning_creation_games::equilibria::nash::NashAnalyzer;
use lightning_creation_games::equilibria::theorems::{theorem8_conditions, theorem9_sufficient};
use lightning_creation_games::graph::NodeId;

fn describe(game: &Game) -> String {
    let g = game.graph();
    let n = g.node_count();
    let mut degrees: Vec<usize> = g.node_ids().map(|v| g.in_degree(v)).collect();
    degrees.sort_unstable_by(|a, b| b.cmp(a));
    if degrees[0] == n - 1 && degrees[1..].iter().all(|&d| d == 1) {
        "star".to_string()
    } else if degrees.iter().all(|&d| d == 2) {
        "circle".to_string()
    } else {
        format!("other (degree profile {degrees:?})")
    }
}

fn main() {
    let params = GameParams {
        a: 0.4,
        b: 0.4,
        link_cost: 0.5,
        zipf_s: 3.0,
        ..GameParams::default()
    };

    println!("== stability of the paper's simple topologies (a=b=0.4, l=0.5, s=3) ==\n");
    for (name, game) in [
        ("star(5)", Game::star(5, params)),
        ("path(6)", Game::path(6, params)),
        ("circle(6)", Game::circle(6, params)),
    ] {
        let report = NashAnalyzer::new().check(&game);
        println!(
            "{name:<10} -> {}",
            if report.is_equilibrium {
                "Nash equilibrium".to_string()
            } else {
                let d = &report.deviations[0];
                format!(
                    "unstable: {} closes {:?}, opens {:?} (gain {:.4})",
                    d.player,
                    d.remove,
                    d.add,
                    d.gain()
                )
            }
        );
    }

    println!("\n== closed-form predictions for the star (Thm 8/9) ==");
    let (n, s, a, b, l) = (5, 3.0, 0.4, 0.4, 0.5);
    let t8 = theorem8_conditions(n, s, a, b, l);
    println!("Thm 8 conditions hold: {}", t8.all_hold());
    println!(
        "Thm 9 sufficient cond: {}",
        theorem9_sufficient(n, s, a, b, l)
    );

    println!("\n== best-response dynamics from the (unstable) path ==");
    let mut game = Game::path(6, params);
    let report = NashAnalyzer::new().run_dynamics(&mut game, 25);
    println!(
        "converged: {} after {} rounds",
        report.converged, report.rounds
    );
    println!("moves applied:");
    for d in &report.applied {
        println!(
            "  {} closes {:?}, opens {:?} ({:.4} -> {:.4})",
            d.player, d.remove, d.add, d.utility_before, d.utility_after
        );
    }
    println!("final topology: {}", describe(&game));
    if report.converged {
        assert!(NashAnalyzer::new().check(&game).is_equilibrium);
        println!("(verified: the final state is a Nash equilibrium)");
    }

    println!("\n== hub degree of the final network ==");
    let g = game.graph();
    let hub = g
        .node_ids()
        .max_by_key(|&v| g.in_degree(v))
        .expect("non-empty");
    println!(
        "highest-degree node: {} with {} channels — the paper's prediction \
         is that star-like shapes dominate under degree-biased traffic",
        hub,
        g.in_degree(hub)
    );
    let _ = NodeId(0);
}
