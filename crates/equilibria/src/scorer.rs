//! In-place scoring of one player's deviation candidates.
//!
//! A candidate `(R, A)` of player `p` closes `p`'s channels to the nodes in
//! `R` and opens channels to the nodes in `A`. [`CandidateScorer::score`]
//! returns `game.deviate(p, R, A).utility(p)` bit for bit, without cloning
//! the game, building the `n × n` Zipf matrix or running all-source Brandes
//! for every node. It allocates nothing per candidate.
//!
//! It rests on one fact: only `p`'s channels change, so `G' \ p = G \ p`
//! for every candidate of `p`. The rest of the graph is the per-state
//! [`EvalContext`] snapshot, shared by every player; a candidate's graph is
//! that snapshot with `p`'s channels spliced, and `p`'s own Zipf row, which
//! its fees read, is the same for every candidate.
//!
//! Each step repeats the floating-point operations of the from-scratch path
//! (`TransactionModel::zipf`, `TransactionModel::revenue_rates`,
//! `Game::expected_fees`) in the same order, so each result has the same
//! bits:
//!
//! 1. **Splice.** `p`'s list drops each `r ∈ R`, keeping its order, and
//!    appends `A` in the given order; each `r` drops `p`, each `a` appends
//!    `p`. That is what `Game::remove_channel` (an order-keeping `retain`)
//!    and `Game::add_channel` leave in the graph's out-edge lists, so BFS
//!    visits every node in the same order and sums every `σ` the same way.
//! 2. **Zipf rows.** Sender `s` ranks `G' \ s` by in-degree: `s` leaves,
//!    and each out-neighbour of `s` loses one in-edge. A node's rank factor
//!    depends only on its degree class: a class of `count` nodes at ranks
//!    `i+1..` gets `powers[i..i + terms].iter().sum() / count`, as the
//!    sorted ranking computes it, read here off an in-degree histogram.
//!    The row total is `rf.iter().sum()` in node order, and the division
//!    happens only if the total is positive, as `normalize` does. The
//!    sender's BFS runs first, and its first layer is the out-neighbours.
//! 3. **Revenue of `p` only.** Sources in id order, in chunks of
//!    [`SOURCE_CHUNK`], skipping `s = p`: each chunk's partial is
//!    `0.0 + Σ δ_s(p)`, and the revenue is `0.0 + partial₀ + partial₁ …`,
//!    entry `p` of the chunked Brandes reduction. Each backward pass stops
//!    at `p`'s layer, where `δ_s(p)` is final. A source whose BFS puts no
//!    neighbour of `p` one layer past it adds `δ_s(p) = 0` and needs no
//!    Zipf row.
//! 4. **Fees.** One BFS from `p`, then a sum in node order that skips zero
//!    probabilities and is `+∞` if a receiver is unreachable.

use crate::game::{Game, GameParams};
use crate::nash::DeviationSearch;
use lcg_core::zipf::ZipfVariant;
use lcg_graph::betweenness::SOURCE_CHUNK;
use lcg_graph::NodeId;

/// Distance of a node the BFS has not reached.
const UNSEEN: u32 = u32::MAX;

/// One game state, as every player's [`CandidateScorer`] reads it: each
/// node's out-neighbours in out-edge order, the in-degrees, and the Zipf
/// weights `k^{-s}` for ranks `k = 1..=n + 1` (the `Literal` variant reads
/// one rank past the last node). Build once per state and share across
/// players (it is `Sync`).
#[derive(Debug)]
pub struct EvalContext {
    adj: Vec<Vec<usize>>,
    in_deg: Vec<usize>,
    powers: Vec<f64>,
}

impl EvalContext {
    /// Snapshots `game`'s current state. Every [`DeviationSearch`] setting
    /// reads the same snapshot, so `_search` does not change it.
    ///
    /// # Panics
    ///
    /// Panics if the game's Zipf parameter is negative or NaN, as the Zipf
    /// model does.
    pub fn new(game: &Game, _search: &DeviationSearch) -> Self {
        let g = game.graph();
        let s = game.params().zipf_s;
        assert!(
            s >= 0.0 && !s.is_nan(),
            "zipf parameter must be >= 0, got {s}"
        );
        // A game never removes a player, so node ids are dense.
        debug_assert_eq!(g.node_count(), g.node_bound());
        let n = g.node_bound();
        EvalContext {
            adj: (0..n)
                .map(|v| g.out_neighbors(NodeId(v)).map(NodeId::index).collect())
                .collect(),
            in_deg: (0..n).map(|v| g.in_degree(NodeId(v))).collect(),
            powers: (1..=n + 1).map(|k| (k as f64).powf(-s)).collect(),
        }
    }

    fn describes(&self, game: &Game) -> bool {
        let g = game.graph();
        self.adj.len() == g.node_bound()
            && self.adj.iter().enumerate().all(|(v, list)| {
                list.iter()
                    .copied()
                    .eq(g.out_neighbors(NodeId(v)).map(NodeId::index))
            })
    }
}

/// Scores the deviation candidates of one player against an
/// [`EvalContext`] of the current state; see the [module docs](self).
///
/// # Examples
///
/// ```
/// use lcg_equilibria::game::{Game, GameParams};
/// use lcg_equilibria::nash::DeviationSearch;
/// use lcg_equilibria::scorer::{CandidateScorer, EvalContext};
/// use lcg_graph::NodeId;
///
/// let game = Game::path(5, GameParams::default());
/// let ctx = EvalContext::new(&game, &DeviationSearch::default());
/// let mut scorer = CandidateScorer::new(&ctx, &game, NodeId(0));
/// let (remove, add) = ([NodeId(1)], [NodeId(2)]);
/// let want = game.deviate(NodeId(0), &remove, &add).utility(NodeId(0));
/// assert_eq!(scorer.score(&remove, &add).to_bits(), want.to_bits());
/// ```
#[derive(Debug)]
pub struct CandidateScorer<'c> {
    ctx: &'c EvalContext,
    player: usize,
    params: GameParams,
    /// Channels the player owns before deviating.
    owned: usize,
    /// `P(p, ·)`, the same for every candidate since `G' \ p = G \ p`.
    player_row: Vec<f64>,
    /// The candidate graph: the snapshot with the splice applied.
    adj: Vec<Vec<usize>>,
    in_deg: Vec<usize>,
    /// Nodes per in-degree in the candidate graph.
    deg_count: Vec<usize>,
    /// Rank factor per in-degree class of one sender's view.
    class_factor: Vec<f64>,
    /// One sender's rank factors `rf`, by node.
    row: Vec<f64>,
    dist: Vec<u32>,
    sigma: Vec<f64>,
    /// BFS order, also the queue.
    order: Vec<usize>,
    delta: Vec<f64>,
}

impl<'c> CandidateScorer<'c> {
    /// A scorer for `player`'s candidates; `ctx` must snapshot `game`'s
    /// current state.
    pub fn new(ctx: &'c EvalContext, game: &Game, player: NodeId) -> Self {
        debug_assert!(
            ctx.describes(game),
            "EvalContext built from a different game state"
        );
        let n = ctx.adj.len();
        // Room for every splice, so no candidate grows a list.
        let adj = ctx
            .adj
            .iter()
            .map(|list| {
                let mut own = Vec::with_capacity(n);
                own.extend_from_slice(list);
                own
            })
            .collect();
        let mut deg_count = vec![0; n + 1];
        for &d in &ctx.in_deg {
            deg_count[d] += 1;
        }
        let mut scorer = CandidateScorer {
            ctx,
            player: player.index(),
            params: *game.params(),
            owned: game.owned_count(player),
            player_row: Vec::new(),
            adj,
            in_deg: ctx.in_deg.clone(),
            deg_count,
            class_factor: vec![0.0; n + 1],
            row: vec![0.0; n],
            dist: vec![UNSEEN; n],
            sigma: vec![0.0; n],
            order: Vec::with_capacity(n),
            delta: vec![0.0; n],
        };
        scorer.bfs(player.index());
        let total = scorer.rank(player.index());
        scorer.player_row = scorer.row.iter().map(|&rf| scale(rf, total)).collect();
        scorer
    }

    /// `game.deviate(p, remove, add).utility(p)` for this scorer's player
    /// `p`, bit for bit. `remove` must be channels `p` owns and `add`
    /// non-neighbours of `p`, in the order the search lists them.
    pub fn score(&mut self, remove: &[NodeId], add: &[NodeId]) -> f64 {
        self.splice(remove, add);
        let revenue = self.revenue();
        let fees = self.fees();
        self.unsplice(remove, add);
        let links = self.owned - remove.len() + add.len();
        revenue - fees - self.params.link_cost * links as f64
    }

    fn splice(&mut self, remove: &[NodeId], add: &[NodeId]) {
        let p = self.player;
        debug_assert!(
            remove.iter().all(|r| self.ctx.adj[p].contains(&r.index()))
                && add
                    .iter()
                    .all(|a| a.index() != p && !self.ctx.adj[p].contains(&a.index())),
            "remove must list neighbours of the player, add non-neighbours"
        );
        self.adj[p].retain(|&v| !remove.contains(&NodeId(v)));
        self.adj[p].extend(add.iter().map(|a| a.index()));
        self.set_degree(p, self.in_deg[p] - remove.len() + add.len());
        for r in remove {
            self.adj[r.index()].retain(|&v| v != p);
            self.set_degree(r.index(), self.in_deg[r.index()] - 1);
        }
        for a in add {
            self.adj[a.index()].push(p);
            self.set_degree(a.index(), self.in_deg[a.index()] + 1);
        }
    }

    fn unsplice(&mut self, remove: &[NodeId], add: &[NodeId]) {
        let p = self.player;
        for v in std::iter::once(p).chain(remove.iter().map(|r| r.index())) {
            self.adj[v].clear();
            self.adj[v].extend_from_slice(&self.ctx.adj[v]);
            self.set_degree(v, self.ctx.in_deg[v]);
        }
        for a in add {
            self.adj[a.index()].pop();
            self.set_degree(a.index(), self.ctx.in_deg[a.index()]);
        }
    }

    fn set_degree(&mut self, v: usize, degree: usize) {
        self.deg_count[self.in_deg[v]] -= 1;
        self.deg_count[degree] += 1;
        self.in_deg[v] = degree;
    }

    /// Fills `row` with sender `s`'s rank factors over `G' \ s` and returns
    /// their total, summed in node order. `dist` must hold a BFS from `s`,
    /// whose first layer is `s`'s out-neighbours.
    fn rank(&mut self, s: usize) -> f64 {
        let CandidateScorer {
            ctx,
            params,
            adj,
            in_deg,
            deg_count,
            class_factor,
            row,
            dist,
            ..
        } = self;
        // The view `G' \ s`: `s` leaves, and each out-neighbour loses one
        // in-edge.
        deg_count[in_deg[s]] -= 1;
        for &w in &adj[s] {
            deg_count[in_deg[w]] -= 1;
            deg_count[in_deg[w] - 1] += 1;
        }
        // Classes from the highest in-degree down; each occupies ranks
        // i+1 ..= i+count.
        let mut i = 0;
        for (d, &count) in deg_count.iter().enumerate().rev() {
            if count == 0 {
                continue;
            }
            let terms = match params.zipf_variant {
                ZipfVariant::Averaged => count,
                ZipfVariant::Literal => count + 1,
            };
            let sum: f64 = ctx.powers[i..i + terms].iter().sum();
            class_factor[d] = sum / count as f64;
            i += count;
        }
        for &w in &adj[s] {
            deg_count[in_deg[w] - 1] -= 1;
            deg_count[in_deg[w]] += 1;
        }
        deg_count[in_deg[s]] += 1;
        (0..row.len())
            .map(|v| {
                row[v] = if v == s {
                    0.0
                } else {
                    class_factor[in_deg[v] - usize::from(dist[v] == 1)]
                };
                row[v]
            })
            .sum()
    }

    /// The player's revenue: its entry of the chunked Brandes reduction.
    fn revenue(&mut self) -> f64 {
        let (n, p) = (self.adj.len(), self.player);
        let mut revenue = 0.0;
        for first in (0..n).step_by(SOURCE_CHUNK) {
            let mut partial = 0.0;
            for s in first..n.min(first + SOURCE_CHUNK) {
                if s != p {
                    partial += self.player_dependency(s);
                }
            }
            revenue += partial;
        }
        revenue
    }

    /// `δ_s(p)` under the pair weights `P(s, w) · b`.
    fn player_dependency(&mut self, s: usize) -> f64 {
        self.bfs(s);
        let (p, layer) = (self.player, self.dist[self.player]);
        // Only nodes one layer past `p` pass anything to it; without one,
        // `δ_s(p)` is 0 and `s`'s Zipf row is not needed.
        if layer == UNSEEN || !self.adj[p].iter().any(|&w| self.dist[w] == layer + 1) {
            return 0.0;
        }
        let total = self.rank(s);
        let CandidateScorer {
            params,
            adj,
            row,
            dist,
            sigma,
            order,
            delta,
            ..
        } = self;
        for &v in order.iter() {
            delta[v] = 0.0;
        }
        // Deeper layers first; only they feed `δ(p)`.
        for &w in order.iter().rev() {
            let dw = dist[w];
            if dw <= layer {
                break;
            }
            // Unit sender volume: `N_s · P(s, w) · b`, as `revenue_rates`
            // weighs the pair.
            let weight = 1.0 * scale(row[w], total) * params.b;
            let coeff = (weight + delta[w]) / sigma[w];
            for &v in &adj[w] {
                if dist[v] == dw - 1 {
                    delta[v] += sigma[v] * coeff;
                }
            }
        }
        delta[p]
    }

    /// The player's expected fees over the spliced graph.
    fn fees(&mut self) -> f64 {
        self.bfs(self.player);
        let mut total = 0.0;
        for (w, &prob) in self.player_row.iter().enumerate() {
            if w == self.player || prob == 0.0 {
                continue;
            }
            match self.dist[w] {
                UNSEEN => return f64::INFINITY,
                d => total += prob * self.params.hop_charging.units(d),
            }
        }
        self.params.a * total
    }

    /// Hop distances and shortest-path counts from `source`, visiting
    /// out-neighbours in list order as `BfsTree::rerun` visits out-edges.
    fn bfs(&mut self, source: usize) {
        let CandidateScorer {
            adj,
            dist,
            sigma,
            order,
            ..
        } = self;
        for &v in order.iter() {
            dist[v] = UNSEEN;
        }
        order.clear();
        dist[source] = 0;
        sigma[source] = 1.0;
        order.push(source);
        let mut head = 0;
        while let Some(&u) = order.get(head) {
            head += 1;
            let (du, su) = (dist[u], sigma[u]);
            for &v in &adj[u] {
                if dist[v] == UNSEEN {
                    dist[v] = du + 1;
                    sigma[v] = su;
                    order.push(v);
                } else if dist[v] == du + 1 {
                    sigma[v] += su;
                }
            }
        }
    }
}

/// A rank factor as a probability: `rf / total` when the total is
/// positive, `rf` otherwise, as `normalize` leaves it.
fn scale(rf: f64, total: f64) -> f64 {
    if total > 0.0 {
        rf / total
    } else {
        rf
    }
}
