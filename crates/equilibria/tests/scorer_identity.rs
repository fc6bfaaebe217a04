//! Candidate-level identity suite for the in-place deviation scorer: for
//! every player, [`CandidateScorer::score`] must equal
//! `game.deviate(p, R, A).utility(p)` by `to_bits` — the from-scratch
//! path through `TransactionModel::zipf`, `revenue_rates` and `bfs`, which
//! shares no loop with the scorer.
//!
//! Games of at most 10 players are checked on every candidate `(R, A)`
//! (including the empty one), larger games on a seeded sample of at least
//! 2,000. Path-17, circle-17 and star-21 have sources in three Brandes
//! chunks, where a flattened reduction would round differently. BA games
//! list their channels in attachment order, and a game after
//! best-response dynamics has tombstoned edge ids and out-edge lists that
//! moves reordered.

use lcg_core::utility::HopCharging;
use lcg_core::zipf::ZipfVariant;
use lcg_equilibria::game::{Game, GameParams};
use lcg_equilibria::nash::{DeviationSearch, NashAnalyzer};
use lcg_equilibria::scorer::{CandidateScorer, EvalContext};
use lcg_graph::{generators, NodeId};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

/// Games of at most this many players are checked on every candidate.
const EXHAUSTIVE_PLAYERS: usize = 10;
/// Sampled candidates per larger game.
const SAMPLES: usize = 2_000;

fn params(s: f64, a: f64, b: f64, l: f64) -> GameParams {
    GameParams {
        zipf_s: s,
        a,
        b,
        link_cost: l,
        ..GameParams::default()
    }
}

/// The items selected by `mask`, in slice order (the search's order).
fn selected(items: &[NodeId], mask: u64) -> Vec<NodeId> {
    (0..items.len())
        .filter(|i| mask & (1 << i) != 0)
        .map(|i| items[i])
        .collect()
}

/// One player's candidate space: owned channels and non-neighbours.
fn options(game: &Game, p: NodeId) -> (Vec<NodeId>, Vec<NodeId>) {
    let neighbors = game.graph().neighbors(p);
    let addable = game
        .graph()
        .node_ids()
        .filter(|&v| v != p && !neighbors.contains(&v))
        .collect();
    (game.owned_channels(p), addable)
}

/// Checks the scorer against the from-scratch utility on every candidate
/// of every player, or on a seeded sample of [`SAMPLES`] candidates when
/// the game has more than [`EXHAUSTIVE_PLAYERS`] players. Returns how many
/// candidates it compared.
fn assert_identical(label: &str, game: &Game, seed: u64) -> usize {
    let ctx = EvalContext::new(game, &DeviationSearch::default());
    let players: Vec<NodeId> = game.graph().node_ids().collect();
    let mut compared = 0;
    let mut check = |scorer: &mut CandidateScorer, p: NodeId, remove: &[NodeId], add: &[NodeId]| {
        let want = game.deviate(p, remove, add).utility(p);
        let got = scorer.score(remove, add);
        assert_eq!(
            got.to_bits(),
            want.to_bits(),
            "{label}: player {p}, remove {remove:?}, add {add:?}: {got} vs {want}"
        );
        compared += 1;
    };
    if players.len() <= EXHAUSTIVE_PLAYERS {
        for &p in &players {
            let (owned, addable) = options(game, p);
            let mut scorer = CandidateScorer::new(&ctx, game, p);
            for r_mask in 0..1u64 << owned.len() {
                for a_mask in 0..1u64 << addable.len() {
                    let (remove, add) = (selected(&owned, r_mask), selected(&addable, a_mask));
                    check(&mut scorer, p, &remove, &add);
                }
            }
        }
    } else {
        let mut rng = StdRng::seed_from_u64(seed);
        let mut scorers: Vec<CandidateScorer> = players
            .iter()
            .map(|&p| CandidateScorer::new(&ctx, game, p))
            .collect();
        for _ in 0..SAMPLES {
            let i = rng.gen_range(0..players.len());
            let p = players[i];
            let (owned, addable) = options(game, p);
            let r_mask = rng.gen_range(0..1u64 << owned.len());
            // Small add-sets dominate what the search evaluates.
            let a_mask = (0..addable.len())
                .filter(|_| rng.gen_bool(0.15))
                .fold(0u64, |m, j| m | 1 << j);
            let (remove, add) = (selected(&owned, r_mask), selected(&addable, a_mask));
            check(&mut scorers[i], p, &remove, &add);
        }
    }
    compared
}

/// A Barabási–Albert game in which each newcomer owns the channels it
/// attached with, listed in attachment order.
fn ba_game(players: usize, seed: u64, params: GameParams) -> Game {
    let mut rng = StdRng::seed_from_u64(seed);
    let topology = generators::barabasi_albert(players, 2, &mut rng);
    let mut game = Game::new(players, params);
    for (_, newer, older, _) in topology.edges() {
        if newer > older {
            game.add_channel(newer, older);
        }
    }
    game
}

#[test]
fn small_stars_paths_and_circles_match_on_every_candidate() {
    let grid = [
        params(1.0, 1.0, 1.0, 1.0),
        params(0.0, 0.3, 0.7, 0.5),
        params(3.0, 0.2, 0.2, 1.0),
        params(12.0, 0.1, 0.1, 1.0),
        params(0.5, 1.0, 1.0, 0.01),
    ];
    let mut k = 0;
    for n in 3..=8 {
        for shape in ["star", "path", "circle"] {
            // Two parameter sets per game, rotating through the grid.
            for _ in 0..2 {
                let params = grid[k % grid.len()];
                k += 1;
                let game = match shape {
                    "star" => Game::star(n - 1, params),
                    "path" => Game::path(n, params),
                    _ => Game::circle(n, params),
                };
                assert_identical(&format!("{shape}-{n} {params:?}"), &game, 0);
            }
        }
    }
}

#[test]
fn sources_in_three_chunks_match_on_sampled_candidates() {
    let line = params(3.0, 0.2, 0.2, 1.0);
    let star = params(6.0, 0.4, 0.4, 1.0);
    for (label, game, seed) in [
        ("path-17", Game::path(17, line), 1),
        ("circle-17", Game::circle(17, line), 2),
        ("star-21", Game::star(20, star), 3),
    ] {
        assert_eq!(assert_identical(label, &game, seed), SAMPLES);
    }
}

#[test]
fn seeded_ba_games_match() {
    let ba = params(3.0, 0.2, 0.2, 1.0);
    for seed in [1, 2] {
        let game = ba_game(10, seed, ba);
        assert_identical(&format!("ba-10 seed {seed}"), &game, seed);
    }
    let game = ba_game(12, 3, params(0.5, 1.0, 0.5, 0.25));
    assert_eq!(assert_identical("ba-12 seed 3", &game, 3), SAMPLES);
}

#[test]
fn ba_game_after_dynamics_matches() {
    // Applied moves tombstone edge ids and append channels at the tails
    // of the out-edge lists, so the lists leave id order.
    let mut game = ba_game(10, 7, params(3.0, 0.2, 0.2, 1.0));
    let report = NashAnalyzer::new().run_dynamics(&mut game, 50);
    assert!(!report.applied.is_empty(), "dynamics must move");
    assert!(game.graph().edge_bound() > game.graph().edge_count());
    let unsorted = game.graph().node_ids().any(|v| {
        let list: Vec<NodeId> = game.graph().out_neighbors(v).collect();
        list.windows(2).any(|w| w[0] > w[1])
    });
    assert!(unsorted, "some out-edge list must leave id order");
    assert_identical("ba-10 after dynamics", &game, 7);
}

#[test]
fn isolated_player_matches_at_infinite_fees() {
    let mut game = Game::new(6, params(1.0, 0.5, 0.5, 0.5));
    for (a, b) in [(0, 1), (1, 2), (2, 3), (3, 4), (4, 0)] {
        game.add_channel(NodeId(a), NodeId(b));
    }
    assert_eq!(game.utility(NodeId(5)), f64::NEG_INFINITY);
    let ctx = EvalContext::new(&game, &DeviationSearch::default());
    let mut scorer = CandidateScorer::new(&ctx, &game, NodeId(5));
    assert_eq!(scorer.score(&[], &[]), f64::NEG_INFINITY);
    assert_identical("isolated player", &game, 0);
}

#[test]
fn every_variant_charging_and_weight_matches() {
    let game = ba_game(8, 11, GameParams::default());
    for variant in [ZipfVariant::Averaged, ZipfVariant::Literal] {
        for hop_charging in [HopCharging::Intermediaries, HopCharging::Distance] {
            for s in [0.0, 0.5, 3.0, 12.0] {
                for (a, b, l) in [
                    (0.0, 0.0, 0.0),
                    (0.2, 0.7, 1.0),
                    (1.0, 0.0, 0.3),
                    (0.0, 1.0, 0.0),
                ] {
                    let params = GameParams {
                        zipf_variant: variant,
                        hop_charging,
                        ..params(s, a, b, l)
                    };
                    let mut copy = Game::new(8, params);
                    for (_, u, v, _) in game.graph().edges() {
                        if u > v {
                            copy.add_channel(u, v);
                        }
                    }
                    assert_identical(&format!("ba-8 {params:?}"), &copy, 0);
                }
            }
        }
    }
}
