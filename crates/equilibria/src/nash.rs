//! Computational Nash-equilibrium verification by deviation enumeration.
//!
//! The paper analyses star, path and circle topologies by hand-enumerating
//! the deviations of a single node (Thm 8's six strategies, Thm 10's
//! endpoint rewiring, Thm 11's opposite chord). This module mechanizes the
//! check: for each player it enumerates *every* combination of
//! removing owned channels and adding channels to non-neighbors and tests
//! whether any strictly improves the player's utility. Exponential in the
//! degree and anti-degree — exactly what the paper's NP-hardness citation
//! (Thm 2 of \[19\]) predicts — so the raw enumeration is only viable for
//! the small `n` of §IV.
//!
//! Two orthogonal accelerations (both on by default, both provably
//! verdict-preserving, see [`DeviationSearch`]) push the reachable `n`
//! further:
//!
//! * **Branch-and-bound pruning.** Candidates are enumerated lazily by
//!   bitmask, grouped into classes that share a remove-set and an add-set
//!   *size*. Every member of a class has the same link bill and the same
//!   degree envelope, so an admissible upper bound on the post-deviation
//!   utility (revenue capped by the Zipf mass the player can possibly
//!   intermediate, fees bounded below by one guaranteed hop, link costs
//!   exact) holds for the whole class. A class whose bound cannot beat the
//!   incumbent is skipped wholesale and counted in
//!   [`NashReport::bound_pruned`]; since the bound is admissible the
//!   surviving incumbent — and hence the verdict — is identical to the
//!   exhaustive walk's.
//! * **In-place scoring.** A candidate changes only the deviating
//!   player's channels, so every candidate of one player shares the rest
//!   of the graph. A [`CandidateScorer`] splices the candidate into the
//!   shared [`EvalContext`] snapshot and computes the player's utility
//!   alone: its Zipf-weighted revenue from one BFS and one partial
//!   backward pass per source, and its fees from one BFS. No game is
//!   cloned and no other player's revenue is computed. Results are
//!   bit-identical to [`Game::utility`].

use crate::game::Game;
use crate::scorer::CandidateScorer;
pub use crate::scorer::EvalContext;
use lcg_core::exhaustive::binomial;
use lcg_core::zipf::{generalized_harmonic, ZipfVariant};
use lcg_graph::NodeId;
use serde::{Deserialize, Serialize};

/// A profitable unilateral deviation found by the checker.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct Deviation {
    /// The deviating player.
    pub player: NodeId,
    /// Owned channels the player closes.
    pub remove: Vec<NodeId>,
    /// New channels the player creates.
    pub add: Vec<NodeId>,
    /// Utility before the deviation.
    pub utility_before: f64,
    /// Utility after the deviation.
    pub utility_after: f64,
}

impl Deviation {
    /// Strict improvement margin.
    pub fn gain(&self) -> f64 {
        self.utility_after - self.utility_before
    }
}

/// Outcome of a full equilibrium check.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct NashReport {
    /// `true` iff no player has a strictly profitable deviation.
    pub is_equilibrium: bool,
    /// The most profitable deviation per player that has one.
    pub deviations: Vec<Deviation>,
    /// Deviations actually evaluated.
    pub explored: u64,
    /// Candidates skipped wholesale because their class's admissible
    /// utility upper bound could not beat the incumbent.
    /// `explored + bound_pruned` equals the exhaustive candidate count.
    #[serde(default)]
    pub bound_pruned: u64,
    /// Live nodes per utility evaluation, summed over every evaluation
    /// across all players: the Brandes sources each one stands for.
    #[serde(default)]
    pub sources_recomputed: u64,
    /// Always 0: no evaluation reuses a cached shortest-path tree. Kept
    /// while the benchmark still reports it.
    #[serde(default)]
    pub sources_reweighted: u64,
}

impl NashReport {
    /// Total candidates the exhaustive walk would enumerate:
    /// `explored + bound_pruned`.
    pub fn candidates(&self) -> u64 {
        self.explored + self.bound_pruned
    }

    /// Fraction of candidates skipped wholesale by the class bound.
    pub fn pruned_fraction(&self) -> f64 {
        lcg_obs::stats::part_of_total(self.bound_pruned, self.explored)
    }
}

/// Tolerance below which a utility change does not count as profitable
/// (guards floating-point noise in the harmonic sums).
pub const GAIN_EPSILON: f64 = 1e-9;

/// Relative slack absorbing floating-point error in the admissible bound
/// (harmonic normalizers and probability row sums are computed in floats).
const BOUND_SLACK: f64 = 1e-9;

/// Knobs for the deviation search. The default turns both accelerations
/// on; [`DeviationSearch::exhaustive`] is the reference configuration the
/// differential tests compare against. Every configuration returns the
/// same verdict and the same deviations.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct DeviationSearch {
    /// Skip whole remove-set × add-size classes whose admissible utility
    /// upper bound cannot beat the incumbent (counted in
    /// [`NashReport::bound_pruned`]).
    pub bound_pruning: bool,
    /// Score candidates in place with a [`CandidateScorer`] instead of
    /// [`Game::deviate`] followed by [`Game::utility`].
    pub incremental: bool,
    /// Inert: nothing reads it. It stays while the benchmark builds its
    /// ablation rows by struct update from [`DeviationSearch::default`],
    /// which needs a field beyond the two it names.
    pub fallback_fraction: f64,
}

impl Default for DeviationSearch {
    fn default() -> Self {
        DeviationSearch {
            bound_pruning: true,
            incremental: true,
            fallback_fraction: 1.0,
        }
    }
}

impl DeviationSearch {
    /// The unaccelerated reference: enumerate and evaluate everything.
    pub fn exhaustive() -> Self {
        DeviationSearch {
            bound_pruning: false,
            incremental: false,
            fallback_fraction: 1.0,
        }
    }
}

/// Per-player search counters, summed in player order so reports are
/// identical at any thread count.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct SearchStats {
    /// Deviations actually evaluated.
    pub explored: u64,
    /// Candidates skipped by the class-level upper bound.
    pub bound_pruned: u64,
    /// Live nodes per utility evaluation, summed.
    pub sources_recomputed: u64,
}

impl SearchStats {
    pub(crate) fn absorb(&mut self, other: SearchStats) {
        self.explored += other.explored;
        self.bound_pruned += other.bound_pruned;
        self.sources_recomputed += other.sources_recomputed;
    }
}

/// Yields the `mask < 2^n` bitmasks of popcount `k` in ascending numeric
/// order (Gosper's hack), lazily — the search never materializes a power
/// set.
fn sized_masks(n: usize, k: usize) -> impl Iterator<Item = u64> {
    assert!(n < 64, "mask enumeration bounded to 63 items");
    let limit = 1u64 << n;
    let mut next = if k > n {
        None
    } else if k == 0 {
        Some(0)
    } else {
        Some((1u64 << k) - 1)
    };
    std::iter::from_fn(move || {
        let mask = next?;
        next = if mask == 0 {
            None
        } else {
            let carry = mask & mask.wrapping_neg();
            let ripple = mask + carry;
            let successor = (((ripple ^ mask) >> 2) / carry) | ripple;
            (successor < limit).then_some(successor)
        };
        Some(mask)
    })
}

/// The items selected by `mask`, in slice order.
fn selected<T: Copy>(items: &[T], mask: u64) -> impl Iterator<Item = T> + '_ {
    (0..items.len())
        .filter(move |i| mask & (1 << i) != 0)
        .map(|i| items[i])
}

/// The utility a candidate must strictly exceed (by [`GAIN_EPSILON`]) to
/// be accepted, mirroring the acceptance test exactly; `None` means no
/// finite threshold exists yet (the player is at `−∞` and anything finite
/// wins), so nothing may be pruned.
fn prune_threshold(before: f64, best: &Option<Deviation>) -> Option<f64> {
    match (before == f64::NEG_INFINITY, best) {
        (true, None) => None,
        (true, Some(b)) => Some(b.utility_after),
        (false, None) => Some(before),
        (false, Some(b)) => Some(before.max(b.utility_after)),
    }
}

/// Admissible per-class upper bound on one player's post-deviation
/// utility.
///
/// A class fixes the remove-set `R` and the add-set *size* `k`, which pins
/// the player's post-deviation degree `deg(p) − |R| + k` and link bill
/// `l · (owned − |R| + k)` exactly. Revenue is bounded by noting that a
/// sender `s` routes no revenue through `p` for receivers adjacent to `s`
/// (one-hop pairs have no intermediary) nor for the pair `(s, p)` itself,
/// so `p`'s take from `s` is at most `b · (1 − Σ_{r ∈ N(s)\{p}} P'(s, r)
/// − P'(s, p))`. Each subtracted probability is lower-bounded through the
/// Zipf rank machinery: a pessimistic (largest possible) degree rank for
/// the receiver — receivers may lose at most their channel to `p`, rivals
/// may gain at most one channel from `p` — gives a smallest possible rank
/// factor, divided by the harmonic normalizer padded with
/// [`BOUND_SLACK`] to absorb float rounding in the real model's
/// normalization. Expected fees are bounded below by one guaranteed hop,
/// `a · units(1)` (every receiver is at distance ≥ 1; unreachable
/// receivers only push fees to `+∞`). Only valid for the
/// [`ZipfVariant::Averaged`] reading with non-negative `a`, `b`, `l`;
/// otherwise the bound reports itself disabled and nothing is pruned.
struct UtilityBound {
    enabled: bool,
    player: usize,
    b: f64,
    link_cost: f64,
    zipf_s: f64,
    fee_floor: f64,
    h_den: f64,
    deg: Vec<i64>,
    live: Vec<bool>,
    adj: Vec<Vec<bool>>,
    addable: Vec<bool>,
    senders: Vec<NodeId>,
}

impl UtilityBound {
    fn disabled() -> Self {
        UtilityBound {
            enabled: false,
            player: 0,
            b: 0.0,
            link_cost: 0.0,
            zipf_s: 0.0,
            fee_floor: 0.0,
            h_den: 1.0,
            deg: Vec::new(),
            live: Vec::new(),
            adj: Vec::new(),
            addable: Vec::new(),
            senders: Vec::new(),
        }
    }

    fn new(game: &Game, player: NodeId) -> Self {
        let graph = game.graph();
        let params = game.params();
        let n_live = graph.node_count();
        let finite = [params.a, params.b, params.link_cost, params.zipf_s]
            .iter()
            .all(|x| x.is_finite());
        let enabled = finite
            && params.a >= 0.0
            && params.b >= 0.0
            && params.link_cost >= 0.0
            && params.zipf_s >= 0.0
            && params.zipf_variant == ZipfVariant::Averaged
            && n_live >= 2;
        if !enabled {
            return UtilityBound::disabled();
        }
        let bound = graph.node_bound();
        let mut live = vec![false; bound];
        let mut deg = vec![0i64; bound];
        let mut adj = vec![vec![false; bound]; bound];
        for v in graph.node_ids() {
            live[v.index()] = true;
            deg[v.index()] = graph.in_degree(v) as i64;
            for w in graph.neighbors(v) {
                adj[v.index()][w.index()] = true;
            }
        }
        let mut addable = vec![false; bound];
        for v in graph.node_ids() {
            if v != player && !adj[player.index()][v.index()] {
                addable[v.index()] = true;
            }
        }
        UtilityBound {
            enabled: true,
            player: player.index(),
            b: params.b,
            link_cost: params.link_cost,
            zipf_s: params.zipf_s,
            fee_floor: params.a * params.hop_charging.units(1) * (1.0 - BOUND_SLACK),
            h_den: generalized_harmonic(n_live - 1, params.zipf_s) * (1.0 + BOUND_SLACK),
            deg,
            live,
            adj,
            addable,
            senders: graph.node_ids().collect(),
        }
    }

    /// Upper bound over every deviation that removes exactly `removed` and
    /// adds channels to any `k` distinct addable targets.
    fn upper_bound(&self, removed: &[NodeId], k: usize, owned_len: usize) -> f64 {
        let p = self.player;
        let bound = self.live.len();
        let deg_p_after = self.deg[p] - removed.len() as i64 + k as i64;
        let mut cap = 0.0f64;
        for &s in &self.senders {
            let si = s.index();
            if si == p {
                continue;
            }
            // Largest degree `v` can reach in the deviated `G' \ {s}`:
            // rivals may gain one channel from `p` (if addable), the
            // player's own degree is pinned by the class.
            let dmax = |vi: usize| -> i64 {
                if vi == p {
                    let kept_to_s = self.adj[p][si] && !removed.contains(&s);
                    deg_p_after - i64::from(kept_to_s)
                } else {
                    self.deg[vi] - i64::from(self.adj[vi][si])
                        + i64::from(k >= 1 && self.addable[vi])
                }
            };
            // Worst (largest) rank a receiver of guaranteed min-degree
            // `dmin` can fall to among the live nodes of `G' \ {s}`.
            let rank_of = |excluded: usize, dmin: i64| -> usize {
                1 + (0..bound)
                    .filter(|&vi| self.live[vi] && vi != excluded && vi != si)
                    .filter(|&vi| dmax(vi) >= dmin)
                    .count()
            };
            let mut mass = 1.0 + BOUND_SLACK;
            for ri in 0..bound {
                // Base neighbors of `s` other than `p` stay adjacent in
                // every deviation, so their pairs never pay `p`.
                if ri == p || !self.adj[ri][si] {
                    continue;
                }
                let dmin = self.deg[ri]
                    - i64::from(self.adj[ri][si])
                    - i64::from(removed.contains(&NodeId(ri)));
                mass -= (rank_of(ri, dmin) as f64).powf(-self.zipf_s) / self.h_den;
            }
            // The pair (s, p) is excluded from p's revenue regardless of
            // adjacency.
            let dmin_p = deg_p_after - 1;
            mass -= (rank_of(p, dmin_p) as f64).powf(-self.zipf_s) / self.h_den;
            cap += mass.max(0.0);
        }
        let links = (owned_len - removed.len() + k) as f64;
        self.b * cap * (1.0 + BOUND_SLACK) + BOUND_SLACK - self.fee_floor - self.link_cost * links
    }
}

/// The per-player deviation search behind [`NashAnalyzer`]: explicit
/// [`DeviationSearch`] knobs, an optional shared [`EvalContext`] (must
/// have been built from `game`'s exact current state; one is built on the
/// spot when `None` and `search.incremental` is set), and the per-player
/// [`SearchStats`].
///
/// Every configuration returns the same `Option<Deviation>`: the bound is
/// admissible, the scorer's utilities are bit-identical, and pruned and
/// exhaustive walks share one enumeration order, so the incumbent
/// trajectory — including [`GAIN_EPSILON`] tie-breaks — is identical.
pub(crate) fn search_player(
    game: &Game,
    player: NodeId,
    search: DeviationSearch,
    ctx: Option<&EvalContext>,
) -> (Option<Deviation>, SearchStats) {
    // Per-player wall time: one span per enumeration, annotated with the
    // masks explored and bound-pruned classes once the walk finishes.
    let mut player_span = lcg_obs::span::span("equilibria/player_deviation");
    player_span.field_u64("player", player.index() as u64);
    let local_ctx;
    let ctx = match ctx {
        _ if !search.incremental => None,
        Some(shared) => Some(shared),
        None => {
            local_ctx = EvalContext::new(game, &search);
            Some(&local_ctx)
        }
    };
    let mut scorer = ctx.map(|c| CandidateScorer::new(c, game, player));

    let n_live = game.graph().node_count() as u64;
    let mut stats = SearchStats::default();
    // Utility after one candidate: scored in place (bit-identical to
    // `Game::utility`) or from scratch on the deviated game.
    let mut evaluate = |remove: &[NodeId], add: &[NodeId], stats: &mut SearchStats| -> f64 {
        stats.sources_recomputed += n_live;
        match &mut scorer {
            Some(scorer) => scorer.score(remove, add),
            None => game.deviate(player, remove, add).utility(player),
        }
    };

    let before = evaluate(&[], &[], &mut stats);
    let owned = game.owned_channels(player);
    let neighbors = game.graph().neighbors(player);
    let addable: Vec<NodeId> = game
        .graph()
        .node_ids()
        .filter(|&v| v != player && !neighbors.contains(&v))
        .collect();
    assert!(
        owned.len() < 64 && addable.len() < 64,
        "subset enumeration bounded to 63 items"
    );

    let bound = if search.bound_pruning {
        UtilityBound::new(game, player)
    } else {
        UtilityBound::disabled()
    };

    let mut best: Option<Deviation> = None;
    let mut add = Vec::with_capacity(addable.len());
    for r_mask in 0..(1u64 << owned.len()) {
        let remove: Vec<NodeId> = selected(&owned, r_mask).collect();
        for k in 0..=addable.len() {
            if bound.enabled {
                let class = binomial(addable.len() as u128, k as u128) as u64
                    - u64::from(r_mask == 0 && k == 0);
                if class > 0 {
                    if let Some(threshold) = prune_threshold(before, &best) {
                        if bound.upper_bound(&remove, k, owned.len()) <= threshold + GAIN_EPSILON {
                            stats.bound_pruned += class;
                            continue;
                        }
                    }
                }
            }
            for a_mask in sized_masks(addable.len(), k) {
                if r_mask == 0 && a_mask == 0 {
                    continue;
                }
                stats.explored += 1;
                add.clear();
                add.extend(selected(&addable, a_mask));
                let after = evaluate(&remove, &add, &mut stats);
                let improves = if before == f64::NEG_INFINITY {
                    after > f64::NEG_INFINITY
                } else {
                    after > before + GAIN_EPSILON
                };
                if improves
                    && best
                        .as_ref()
                        .is_none_or(|b| after > b.utility_after + GAIN_EPSILON)
                {
                    best = Some(Deviation {
                        player,
                        remove: remove.clone(),
                        add: add.clone(),
                        utility_before: before,
                        utility_after: after,
                    });
                }
            }
        }
    }
    if player_span.is_recording() {
        player_span.field_u64("explored", stats.explored);
        player_span.field_u64("bound_pruned", stats.bound_pruned);
        player_span.field_bool("found_deviation", best.is_some());
    }
    (best, stats)
}

/// The single entry point for deviation search, equilibrium checking and
/// best-response dynamics.
///
/// Owns the [`DeviationSearch`] knobs and nothing else, so one analyzer
/// serves any game: every check evaluates its candidates afresh. The
/// shared [`EvalContext`] snapshot and the per-player
/// [`CandidateScorer`]s are managed internally.
///
/// # Examples
///
/// ```
/// use lcg_equilibria::game::{Game, GameParams};
/// use lcg_equilibria::nash::NashAnalyzer;
///
/// // A very biased Zipf (s large) with moderate link costs: the star is
/// // stable (Thm 7).
/// let params = GameParams { zipf_s: 12.0, a: 0.1, b: 0.1, link_cost: 1.0,
///                           ..GameParams::default() };
/// let report = NashAnalyzer::new().check(&Game::star(5, params));
/// assert!(report.is_equilibrium);
/// ```
#[derive(Debug, Default)]
pub struct NashAnalyzer {
    search: DeviationSearch,
}

impl NashAnalyzer {
    /// An analyzer with the default (fully accelerated) search.
    pub fn new() -> Self {
        NashAnalyzer::default()
    }

    /// An analyzer under explicit [`DeviationSearch`] knobs.
    pub fn with_search(search: DeviationSearch) -> Self {
        NashAnalyzer { search }
    }

    /// The unaccelerated reference analyzer (exhaustive enumeration,
    /// from-scratch evaluation) the differential tests compare against.
    pub fn exhaustive() -> Self {
        NashAnalyzer::with_search(DeviationSearch::exhaustive())
    }

    /// The search configuration this analyzer runs.
    pub fn search(&self) -> DeviationSearch {
        self.search
    }

    /// Finds the best unilateral deviation of `player`, if any strictly
    /// profitable one exists.
    ///
    /// Lazily enumerates every subset of owned channels to remove × every
    /// subset of addable targets (non-neighbors; re-adding a removed
    /// neighbor is equivalent to not removing it, so such sets are
    /// excluded) — up to `2^owned · 2^addable` candidates, minus whatever
    /// the configured [`DeviationSearch`] prunes.
    pub fn best_deviation(&self, game: &Game, player: NodeId) -> (Option<Deviation>, SearchStats) {
        search_player(game, player, self.search, None)
    }

    /// Checks whether the current game state is a (pure) Nash
    /// equilibrium.
    ///
    /// One [`EvalContext`] snapshot of the current state is shared across
    /// all players. Players deviate independently, so each player's
    /// enumeration fans out to its own core; results come back in player
    /// order and are folded sequentially, so the report — counters
    /// included — is identical at any thread count.
    pub fn check(&self, game: &Game) -> NashReport {
        let search = self.search;
        let mut check_span = lcg_obs::span::span("equilibria/check");
        check_span.field_u64("players", game.graph().node_count() as u64);
        let ctx = search.incremental.then(|| EvalContext::new(game, &search));
        let players: Vec<NodeId> = game.graph().node_ids().collect();
        let check_player = |&player: &NodeId| search_player(game, player, search, ctx.as_ref());
        let per_player = lcg_parallel::par_map(&players, check_player);

        let mut deviations = Vec::new();
        let mut stats = SearchStats::default();
        for (dev, player_stats) in per_player {
            stats.absorb(player_stats);
            if let Some(dev) = dev {
                deviations.push(dev);
            }
        }
        let report = NashReport {
            is_equilibrium: deviations.is_empty(),
            deviations,
            explored: stats.explored,
            bound_pruned: stats.bound_pruned,
            sources_recomputed: stats.sources_recomputed,
            sources_reweighted: 0,
        };
        // Mirror the report counters into the global registry so RunReports
        // aggregate deviation-search effort across every check in a run.
        if check_span.is_recording() {
            check_span.field_bool("is_equilibrium", report.is_equilibrium);
            lcg_obs::counter!("equilibria/checks").inc();
            lcg_obs::counter!("equilibria/explored").add(report.explored);
            lcg_obs::counter!("equilibria/bound_pruned").add(report.bound_pruned);
            lcg_obs::counter!("equilibria/sources_recomputed").add(report.sources_recomputed);
        }
        report
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::game::GameParams;

    #[test]
    fn star_with_extreme_zipf_is_stable() {
        // Thm 7: s with 1/2^s ≈ 0 and ≥ 4 leaves ⇒ star is a NE.
        let params = GameParams {
            zipf_s: 14.0,
            a: 0.2,
            b: 0.2,
            link_cost: 1.0,
            ..GameParams::default()
        };
        let report = NashAnalyzer::new().check(&Game::star(5, params));
        assert!(
            report.is_equilibrium,
            "deviations found: {:?}",
            report.deviations
        );
    }

    #[test]
    fn path_is_never_an_equilibrium() {
        // Thm 10: for any s ≥ 0 the endpoint prefers rewiring inward.
        for s in [0.0, 1.0, 2.0] {
            let params = GameParams {
                zipf_s: s,
                ..GameParams::default()
            };
            let report = NashAnalyzer::new().check(&Game::path(5, params));
            assert!(
                !report.is_equilibrium,
                "path unexpectedly stable at s = {s}"
            );
        }
    }

    #[test]
    fn path_endpoint_has_profitable_rewiring() {
        let params = GameParams::default();
        let game = Game::path(5, params);
        let (dev, stats) = NashAnalyzer::new().best_deviation(&game, NodeId(0));
        let dev = dev.expect("endpoint must deviate");
        assert!(dev.gain() > 0.0);
        assert!(stats.explored > 0);
    }

    #[test]
    fn large_circle_is_unstable() {
        // Thm 11: beyond some n₀ a chord deviation pays off. With cheap
        // links the threshold is small.
        let params = GameParams {
            link_cost: 0.01,
            a: 1.0,
            b: 1.0,
            zipf_s: 0.5,
            ..GameParams::default()
        };
        let report = NashAnalyzer::new().check(&Game::circle(9, params));
        assert!(!report.is_equilibrium, "9-circle should admit a chord");
    }

    #[test]
    fn small_circle_is_stable_in_the_intermediate_cost_band() {
        // The circle is stable only for intermediate link costs: cheap
        // enough that nobody drops their ring edge (staying connected the
        // long way round and saving l), expensive enough that no chord
        // pays. (l = 50 at a = b = 0.1 is *unstable*: dropping the owned
        // edge saves 50 at a tiny fee increase.)
        let params = GameParams {
            link_cost: 0.6,
            a: 1.0,
            b: 1.0,
            zipf_s: 1.0,
            ..GameParams::default()
        };
        let report = NashAnalyzer::new().check(&Game::circle(4, params));
        assert!(report.is_equilibrium, "deviations: {:?}", report.deviations);
    }

    #[test]
    fn circle_with_exorbitant_links_collapses_by_edge_dropping() {
        let params = GameParams {
            link_cost: 50.0,
            a: 0.1,
            b: 0.1,
            zipf_s: 1.0,
            ..GameParams::default()
        };
        let report = NashAnalyzer::new().check(&Game::circle(4, params));
        assert!(!report.is_equilibrium);
        // The profitable move is dropping the owned edge, not adding one.
        assert!(report
            .deviations
            .iter()
            .all(|d| d.add.is_empty() && !d.remove.is_empty()));
    }

    #[test]
    fn disconnected_player_always_deviates() {
        let mut game = Game::new(3, GameParams::default());
        game.add_channel(NodeId(0), NodeId(1));
        let report = NashAnalyzer::new().check(&game);
        assert!(!report.is_equilibrium);
        // Node 2 must connect somewhere (−∞ → finite).
        assert!(report.deviations.iter().any(|d| d.player == NodeId(2)));
    }

    #[test]
    fn deviation_gain_is_positive_by_construction() {
        let game = Game::path(4, GameParams::default());
        let report = NashAnalyzer::new().check(&game);
        for dev in &report.deviations {
            assert!(dev.gain() > 0.0 || dev.utility_before == f64::NEG_INFINITY);
        }
    }

    #[test]
    fn sized_masks_partition_the_power_set() {
        let n = 5;
        let mut seen = Vec::new();
        for k in 0..=n {
            let masks: Vec<u64> = sized_masks(n, k).collect();
            assert_eq!(
                masks.len() as u128,
                binomial(n as u128, k as u128),
                "k = {k}"
            );
            assert!(masks.windows(2).all(|w| w[0] < w[1]), "ascending at {k}");
            assert!(masks.iter().all(|m| m.count_ones() as usize == k));
            seen.extend(masks);
        }
        seen.sort_unstable();
        assert_eq!(seen, (0..1u64 << n).collect::<Vec<_>>());
        assert_eq!(sized_masks(3, 4).count(), 0);
        assert_eq!(sized_masks(0, 0).collect::<Vec<_>>(), vec![0]);
    }

    #[test]
    fn every_search_configuration_agrees() {
        // The accelerations must never change the verdict, the chosen
        // deviations, or the exhaustive candidate count.
        let configs = [
            DeviationSearch::default(),
            DeviationSearch::exhaustive(),
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
        ];
        for game in [
            Game::path(5, GameParams::default()),
            Game::star(
                5,
                GameParams {
                    zipf_s: 6.0,
                    a: 0.4,
                    b: 0.4,
                    link_cost: 1.0,
                    ..GameParams::default()
                },
            ),
            Game::circle(
                5,
                GameParams {
                    link_cost: 0.01,
                    a: 1.0,
                    b: 1.0,
                    zipf_s: 0.5,
                    ..GameParams::default()
                },
            ),
        ] {
            let reference = NashAnalyzer::exhaustive().check(&game);
            for config in configs {
                let report = NashAnalyzer::with_search(config).check(&game);
                assert_eq!(
                    report.is_equilibrium, reference.is_equilibrium,
                    "{config:?}"
                );
                assert_eq!(report.deviations, reference.deviations, "{config:?}");
                assert_eq!(
                    report.explored + report.bound_pruned,
                    reference.explored,
                    "{config:?}"
                );
            }
        }
    }

    #[test]
    fn stable_star_prunes_most_of_the_candidate_space() {
        let params = GameParams {
            zipf_s: 6.0,
            a: 0.4,
            b: 0.4,
            link_cost: 1.0,
            ..GameParams::default()
        };
        let report = NashAnalyzer::new().check(&Game::star(6, params));
        assert!(report.is_equilibrium);
        assert!(
            report.bound_pruned > report.explored,
            "expected the bound to dominate: explored = {}, pruned = {}",
            report.explored,
            report.bound_pruned
        );
        assert!(report.sources_recomputed > 0);
    }
}
