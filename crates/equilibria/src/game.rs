//! The network-creation game of Section IV.
//!
//! Every node is a player; a pure strategy is the set of channels the node
//! *creates* (the creator pays the link cost `l`; the paper's Thm 8 proof
//! charges the deviating leaf `l` per added channel and lets the hub keep
//! its channels for free, which pins down this ownership convention).
//! Given a graph state, a node's utility is
//!
//! ```text
//! u(v) = E^rev_v − E^fees_v − l · #{channels v owns}
//! ```
//!
//! with Section IV's simplifications: all senders share `b := N_{v1}·f_avg`
//! (revenue weight per transacting pair) and `a := N_u·f^T_avg` (fee weight
//! for the player's own transactions), and the Zipf distribution is
//! **recomputed on the deviated graph** — the Thm 8 calculations re-derive
//! the rank factors after every candidate deviation, and so do we.

use lcg_core::rates::TransactionModel;
use lcg_core::utility::{HopCharging, Topology};
use lcg_core::zipf::ZipfVariant;
use lcg_graph::bfs;
use lcg_graph::{EdgeId, NodeId};
use serde::{Deserialize, Serialize};

/// Parameters of the Section IV game.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct GameParams {
    /// `a = N_u · f^T_avg`: fee weight of a player's own transactions.
    pub a: f64,
    /// `b = N_{v1} · f_avg`: revenue weight per routed pair.
    pub b: f64,
    /// Link cost `l` paid by the creator of each channel.
    pub link_cost: f64,
    /// Zipf parameter `s` of the transaction distribution.
    pub zipf_s: f64,
    /// Which reading of the rank-factor formula to use.
    pub zipf_variant: ZipfVariant,
    /// How distance converts to fee units (§IV uses intermediaries).
    pub hop_charging: HopCharging,
}

impl Default for GameParams {
    fn default() -> Self {
        GameParams {
            a: 1.0,
            b: 1.0,
            link_cost: 1.0,
            zipf_s: 1.0,
            zipf_variant: ZipfVariant::Averaged,
            hop_charging: HopCharging::Intermediaries,
        }
    }
}

/// A game state: topology plus channel ownership.
///
/// # Examples
///
/// ```
/// use lcg_equilibria::game::{Game, GameParams};
///
/// let game = Game::star(4, GameParams::default());
/// let hub = lcg_graph::NodeId(0);
/// // The hub owns nothing (leaves created their channels)…
/// assert_eq!(game.owned_channels(hub).len(), 0);
/// // …and earns all the routing revenue.
/// assert!(game.utility(hub) > game.utility(lcg_graph::NodeId(1)));
/// ```
#[derive(Debug, Clone)]
pub struct Game {
    graph: Topology,
    /// Owner of each channel, keyed by the *forward* directed edge id; the
    /// backward twin maps to the same owner.
    owner: Vec<Option<NodeId>>,
    params: GameParams,
}

impl Game {
    /// Creates an empty game over `n` isolated players.
    pub fn new(n: usize, params: GameParams) -> Self {
        let mut graph = Topology::new();
        for _ in 0..n {
            graph.add_node(());
        }
        Game {
            graph,
            owner: Vec::new(),
            params,
        }
    }

    /// Star on `leaves + 1` nodes, hub = node 0; each leaf owns its channel
    /// to the hub (Thm 7–9's setting).
    pub fn star(leaves: usize, params: GameParams) -> Self {
        let mut game = Game::new(leaves + 1, params);
        for i in 1..=leaves {
            game.add_channel(NodeId(i), NodeId(0));
        }
        game
    }

    /// Path on `n` nodes; the channel `{i, i+1}` is owned by `i` (so the
    /// left endpoint owns an edge — Thm 10's deviating endpoint).
    pub fn path(n: usize, params: GameParams) -> Self {
        let mut game = Game::new(n, params);
        for i in 0..n.saturating_sub(1) {
            game.add_channel(NodeId(i), NodeId(i + 1));
        }
        game
    }

    /// Circle on `n` nodes; channel `{i, (i+1) mod n}` owned by `i`
    /// (symmetric ownership — Thm 11's setting).
    pub fn circle(n: usize, params: GameParams) -> Self {
        assert!(n >= 3, "circle needs at least 3 players");
        let mut game = Game::new(n, params);
        for i in 0..n {
            game.add_channel(NodeId(i), NodeId((i + 1) % n));
        }
        game
    }

    /// The parameters in force.
    pub fn params(&self) -> &GameParams {
        &self.params
    }

    /// The current topology.
    pub fn graph(&self) -> &Topology {
        &self.graph
    }

    /// Number of players.
    pub fn player_count(&self) -> usize {
        self.graph.node_count()
    }

    /// Opens a channel created (and paid for) by `owner` to `other`.
    ///
    /// # Panics
    ///
    /// Panics if the channel already exists or `owner == other`.
    pub fn add_channel(&mut self, owner: NodeId, other: NodeId) -> EdgeId {
        assert_ne!(owner, other, "self-channels are not allowed");
        assert!(
            !self.graph.has_edge(owner, other),
            "channel {owner}-{other} already exists"
        );
        let (fwd, bwd) = self.graph.add_undirected(owner, other, ());
        let max = fwd.index().max(bwd.index());
        if self.owner.len() <= max {
            self.owner.resize(max + 1, None);
        }
        self.owner[fwd.index()] = Some(owner);
        self.owner[bwd.index()] = Some(owner);
        fwd
    }

    /// Closes the channel between `a` and `b` regardless of ownership
    /// (used internally by deviations; the public deviation API only
    /// removes channels the deviator owns).
    pub fn remove_channel(&mut self, a: NodeId, b: NodeId) {
        let (uv, vu) = (self.graph.find_edge(a, b), self.graph.find_edge(b, a));
        for e in [uv, vu].into_iter().flatten() {
            self.graph.remove_edge(e);
            if e.index() < self.owner.len() {
                self.owner[e.index()] = None;
            }
        }
    }

    /// The neighbors `v` created channels to.
    pub fn owned_channels(&self, v: NodeId) -> Vec<NodeId> {
        let mut out: Vec<NodeId> = self
            .graph
            .out_edges(v)
            .filter(|e| self.owner.get(e.index()).copied().flatten() == Some(v))
            .filter_map(|e| self.graph.edge_endpoints(e).map(|(_, d)| d))
            .collect();
        out.sort_unstable();
        out.dedup();
        out
    }

    /// Number of channels `v` pays for.
    pub fn owned_count(&self, v: NodeId) -> usize {
        self.owned_channels(v).len()
    }

    /// Utility of every player in the current state, indexed by
    /// `NodeId::index()`.
    ///
    /// The Zipf distribution is recomputed on the current graph; revenue is
    /// `b`-weighted node betweenness, fees are `a`-weighted expected hop
    /// charges (infinite if the player cannot reach someone), and each
    /// owned channel costs `l`.
    pub fn utilities(&self) -> Vec<f64> {
        let n = self.graph.node_bound();
        let model = TransactionModel::zipf(
            &self.graph,
            self.params.zipf_s,
            self.params.zipf_variant,
            vec![1.0; n], // unit volumes: a and b carry the magnitudes
        );
        let revenue = model.revenue_rates(&self.graph, self.params.b);
        let mut out = vec![f64::NEG_INFINITY; n];
        for v in self.graph.node_ids() {
            out[v.index()] = revenue[v.index()]
                - self.expected_fees(&model, v)
                - self.params.link_cost * self.owned_count(v) as f64;
        }
        out
    }

    /// Utility of a single player (see [`Game::utilities`]).
    pub fn utility(&self, v: NodeId) -> f64 {
        let n = self.graph.node_bound();
        let model = TransactionModel::zipf(
            &self.graph,
            self.params.zipf_s,
            self.params.zipf_variant,
            vec![1.0; n],
        );
        let revenue = model.revenue_rates(&self.graph, self.params.b);
        revenue[v.index()]
            - self.expected_fees(&model, v)
            - self.params.link_cost * self.owned_count(v) as f64
    }

    /// `E^fees_v = a · Σ_{w≠v} hops(d(v,w)) · p_trans(v,w)`; `+∞` when some
    /// player is unreachable.
    fn expected_fees(&self, model: &TransactionModel, v: NodeId) -> f64 {
        // p_trans(v, ·) must use the G \ {v} ranking, which the model's
        // pair matrix already encodes.
        let tree = bfs::bfs(&self.graph, v);
        let mut total = 0.0;
        for w in self.graph.node_ids() {
            if w == v {
                continue;
            }
            let p = model.probability(v, w);
            if p == 0.0 {
                continue;
            }
            match tree.distance(w) {
                Some(d) => total += p * self.params.hop_charging.units(d),
                None => return f64::INFINITY,
            }
        }
        self.params.a * total
    }

    /// Canonical fingerprint of the state: every undirected channel as
    /// `(min endpoint, max endpoint, owner)` — `u32::MAX` for ownerless
    /// channels — sorted. Two games over the same player set and params
    /// are strategically identical iff their fingerprints are equal.
    pub fn canonical_channels(&self) -> Vec<(u32, u32, u32)> {
        let mut out: Vec<(u32, u32, u32)> = self
            .graph
            .edges()
            .filter(|(_, s, d, _)| s.index() < d.index())
            .map(|(e, s, d, _)| {
                let owner = self
                    .owner
                    .get(e.index())
                    .copied()
                    .flatten()
                    .map_or(u32::MAX, |o| o.index() as u32);
                (s.index() as u32, d.index() as u32, owner)
            })
            .collect();
        out.sort_unstable();
        out
    }

    /// Applies a deviation of `player` — removing some owned channels and
    /// creating new ones — returning the deviated game (the original is
    /// untouched).
    ///
    /// # Panics
    ///
    /// Panics if `remove` contains a channel the player does not own, or
    /// `add` contains an existing channel / self-loop.
    pub fn deviate(&self, player: NodeId, remove: &[NodeId], add: &[NodeId]) -> Game {
        let mut g = self.clone();
        let owned = self.owned_channels(player);
        for &t in remove {
            assert!(owned.contains(&t), "{player} does not own a channel to {t}");
            g.remove_channel(player, t);
        }
        for &t in add {
            g.add_channel(player, t);
        }
        g
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn star_ownership_and_utilities() {
        let game = Game::star(4, GameParams::default());
        assert_eq!(game.player_count(), 5);
        assert_eq!(game.owned_count(NodeId(0)), 0);
        for i in 1..=4 {
            assert_eq!(game.owned_channels(NodeId(i)), vec![NodeId(0)]);
        }
        let u = game.utilities();
        // Hub pays nothing, earns everything, and reaches everyone in 1 hop
        // (fees = 0 under intermediary charging): utility = revenue > 0.
        assert!(u[0] > 0.0);
        // Leaves: no revenue, fees for 2-hop leaf pairs, link cost.
        for i in 1..=4 {
            assert!(u[i] < 0.0);
            assert!((u[i] - u[1]).abs() < 1e-9, "leaves are symmetric");
        }
    }

    #[test]
    fn circle_is_symmetric() {
        let game = Game::circle(6, GameParams::default());
        let u = game.utilities();
        for i in 1..6 {
            assert!(
                (u[i] - u[0]).abs() < 1e-9,
                "circle utilities must match: {} vs {}",
                u[i],
                u[0]
            );
        }
        for i in 0..6 {
            assert_eq!(game.owned_count(NodeId(i)), 1);
        }
    }

    #[test]
    fn path_endpoints_pay_fees_over_longer_distances() {
        let game = Game::path(5, GameParams::default());
        let u = game.utilities();
        // The middle node earns revenue; an endpoint cannot.
        assert!(u[2] > u[0]);
        // Right endpoint owns nothing (left endpoint owns one channel), so
        // their utilities differ by exactly the link cost if fees/revenue
        // mirror.
        assert!((u[4] - (u[0] + game.params().link_cost)).abs() < 1e-9);
    }

    #[test]
    fn isolated_player_has_negative_infinite_utility() {
        let mut game = Game::new(3, GameParams::default());
        game.add_channel(NodeId(0), NodeId(1));
        let u = game.utilities();
        assert_eq!(u[2], f64::NEG_INFINITY);
        assert_eq!(u[0], f64::NEG_INFINITY, "cannot reach the isolated node");
    }

    #[test]
    fn deviation_is_pure() {
        let game = Game::star(3, GameParams::default());
        let dev = game.deviate(NodeId(1), &[NodeId(0)], &[NodeId(2), NodeId(3)]);
        // Original untouched.
        assert!(game.graph().has_edge(NodeId(1), NodeId(0)));
        assert!(!dev.graph().has_edge(NodeId(1), NodeId(0)));
        assert!(dev.graph().has_edge(NodeId(1), NodeId(2)));
        assert_eq!(dev.owned_count(NodeId(1)), 2);
        // New channels are owned by the deviator.
        assert_eq!(dev.owned_channels(NodeId(1)), vec![NodeId(2), NodeId(3)]);
    }

    #[test]
    #[should_panic(expected = "does not own")]
    fn removing_unowned_channel_panics() {
        let game = Game::star(3, GameParams::default());
        // The hub owns nothing.
        game.deviate(NodeId(0), &[NodeId(1)], &[]);
    }

    #[test]
    #[should_panic(expected = "already exists")]
    fn duplicate_channel_panics() {
        let mut game = Game::star(3, GameParams::default());
        game.add_channel(NodeId(0), NodeId(1));
    }

    #[test]
    fn link_costs_scale_with_ownership() {
        let params = GameParams {
            link_cost: 2.5,
            ..GameParams::default()
        };
        let game = Game::circle(4, params);
        let dev = game.deviate(NodeId(0), &[], &[NodeId(2)]);
        // One extra owned channel: cost difference of exactly 2.5, minus
        // whatever fee/revenue changes occur; verify the ownership part.
        assert_eq!(dev.owned_count(NodeId(0)), 2);
    }

    #[test]
    fn utilities_and_utility_agree() {
        let game = Game::star(4, GameParams::default());
        let all = game.utilities();
        for v in game.graph().node_ids() {
            assert!((all[v.index()] - game.utility(v)).abs() < 1e-12);
        }
    }
}
