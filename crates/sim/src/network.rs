//! The payment-channel network: topology + balances + cost accounting.
//!
//! [`Pcn`] combines the directed-multigraph substrate with the channel,
//! fee and on-chain cost models: every bidirectional channel is a pair of
//! opposite directed edges whose payloads are the two end balances
//! (§II-A). The struct keeps per-node ledgers of on-chain costs paid and
//! routing fees earned/paid, which the experiments read off as ground truth
//! against the analytic utility function.

use crate::channel::Channel;
use crate::fees::FeeFunction;
use crate::onchain::{CloseMode, CostModel};
use lcg_graph::bfs::{BfsTree, PathSampler};
use lcg_graph::{DiGraph, EdgeId, NodeId};
use rand::Rng;
use serde::{Deserialize, Serialize};
use std::fmt;

/// Balance carried by one direction of a channel.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct EdgeBalance {
    /// Coins currently owned by the edge's source, spendable towards the
    /// edge's target.
    pub balance: f64,
}

/// Handle for a bidirectional channel: the two directed edges composing it.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub struct ChannelId {
    /// Direction funded by the opener (`u → v`).
    pub forward: EdgeId,
    /// Opposite direction (`v → u`).
    pub backward: EdgeId,
}

/// Errors raised by multi-hop payment attempts.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub enum RouteError {
    /// Sender or receiver is not a live node.
    UnknownNode {
        /// The offending node.
        node: NodeId,
    },
    /// Sender equals receiver; in-network self-payments are meaningless.
    SelfPayment,
    /// No path exists in the capacity-reduced subgraph `G'(x)`.
    NoPath,
    /// A hop on the chosen route cannot carry its share (amount + downstream
    /// fees); the payment was aborted atomically.
    InsufficientCapacity {
        /// The edge that failed.
        edge: EdgeId,
        /// Amount the edge was asked to carry.
        needed: f64,
        /// Balance available on the edge.
        available: f64,
    },
    /// The payment amount was not strictly positive and finite.
    InvalidAmount {
        /// The offending amount.
        amount: f64,
    },
}

impl fmt::Display for RouteError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            RouteError::UnknownNode { node } => write!(f, "unknown node {node}"),
            RouteError::SelfPayment => f.write_str("sender equals receiver"),
            RouteError::NoPath => f.write_str("no route with sufficient capacity"),
            RouteError::InsufficientCapacity {
                edge,
                needed,
                available,
            } => write!(f, "edge {edge} holds {available} but must carry {needed}"),
            RouteError::InvalidAmount { amount } => write!(f, "invalid amount {amount}"),
        }
    }
}

impl std::error::Error for RouteError {}

/// Outcome of a successful multi-hop payment.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct PaymentReceipt {
    /// Edges traversed, sender first.
    pub path: Vec<EdgeId>,
    /// Total routing fees the sender paid on top of the amount.
    pub fees_paid: f64,
    /// Intermediary nodes (in order) that each earned one forwarding fee.
    pub intermediaries: Vec<NodeId>,
}

/// A payment-channel network with balances, fee policy and cost ledgers.
///
/// # Examples
///
/// ```
/// use lcg_sim::network::Pcn;
/// use lcg_sim::fees::FeeFunction;
/// use lcg_sim::onchain::CostModel;
///
/// let mut pcn = Pcn::new(CostModel::new(1.0, 0.0), FeeFunction::Constant { fee: 0.1 });
/// let a = pcn.add_node();
/// let b = pcn.add_node();
/// let c = pcn.add_node();
/// pcn.open_channel(a, b, 10.0, 10.0);
/// pcn.open_channel(b, c, 10.0, 10.0);
/// let receipt = pcn.pay(a, c, 2.0)?;
/// assert_eq!(receipt.intermediaries, vec![b]);
/// assert!((receipt.fees_paid - 0.1).abs() < 1e-12);
/// # Ok::<(), lcg_sim::network::RouteError>(())
/// ```
#[derive(Debug, Clone)]
pub struct Pcn {
    graph: DiGraph<(), EdgeBalance>,
    reverse: Vec<Option<EdgeId>>,
    cost_model: CostModel,
    fee_function: FeeFunction,
    onchain_paid: Vec<f64>,
    fees_earned: Vec<f64>,
    fees_spent: Vec<f64>,
}

impl Pcn {
    /// Creates an empty network with the given cost and fee models.
    pub fn new(cost_model: CostModel, fee_function: FeeFunction) -> Self {
        Pcn {
            graph: DiGraph::new(),
            reverse: Vec::new(),
            cost_model,
            fee_function,
            onchain_paid: Vec::new(),
            fees_earned: Vec::new(),
            fees_spent: Vec::new(),
        }
    }

    /// Decorates a bare topology (two directed edges per channel, as built
    /// by `lcg_graph::generators`) with `balance` coins on every edge end.
    ///
    /// Opening costs are charged to both endpoints exactly as if the
    /// channels had been opened through [`Pcn::open_channel`].
    ///
    /// # Panics
    ///
    /// Panics if the topology contains an edge without a reverse twin.
    pub fn from_topology(
        topology: &DiGraph<(), ()>,
        balance: f64,
        cost_model: CostModel,
        fee_function: FeeFunction,
    ) -> Self {
        let mut pcn = Pcn::new(cost_model, fee_function);
        for _ in 0..topology.node_bound() {
            pcn.add_node();
        }
        let mut seen = vec![false; topology.edge_bound()];
        for (e, s, d, _) in topology.edges() {
            if seen[e.index()] {
                continue;
            }
            let twin = topology
                .find_edge(d, s)
                .expect("topology edge must have a reverse twin");
            seen[e.index()] = true;
            seen[twin.index()] = true;
            pcn.open_channel(s, d, balance, balance);
        }
        pcn
    }

    /// The underlying graph (read-only).
    pub fn graph(&self) -> &DiGraph<(), EdgeBalance> {
        &self.graph
    }

    /// The cost model in force.
    pub fn cost_model(&self) -> &CostModel {
        &self.cost_model
    }

    /// The global fee function in force.
    pub fn fee_function(&self) -> &FeeFunction {
        &self.fee_function
    }

    /// Number of live nodes.
    pub fn node_count(&self) -> usize {
        self.graph.node_count()
    }

    /// Adds a user to the network (no channels yet).
    pub fn add_node(&mut self) -> NodeId {
        let id = self.graph.add_node(());
        self.onchain_paid.push(0.0);
        self.fees_earned.push(0.0);
        self.fees_spent.push(0.0);
        id
    }

    /// Opens a channel between `u` and `v` with initial balances `fund_u`
    /// and `fund_v`, charging each party its opening share `C/2`.
    ///
    /// # Panics
    ///
    /// Panics if either node is missing or either funding amount is
    /// negative/NaN.
    pub fn open_channel(&mut self, u: NodeId, v: NodeId, fund_u: f64, fund_v: f64) -> ChannelId {
        // Channel::new validates the amounts.
        let ch = Channel::new(fund_u, fund_v);
        let (f, b) = self.graph.add_bidirected(
            u,
            v,
            EdgeBalance {
                balance: ch.balance(crate::channel::Side::A),
            },
            EdgeBalance {
                balance: ch.balance(crate::channel::Side::B),
            },
        );
        if self.reverse.len() <= b.index() {
            self.reverse.resize(b.index() + 1, None);
        }
        self.reverse[f.index()] = Some(b);
        self.reverse[b.index()] = Some(f);
        let share = self.cost_model.opening_share();
        self.onchain_paid[u.index()] += share;
        self.onchain_paid[v.index()] += share;
        ChannelId {
            forward: f,
            backward: b,
        }
    }

    /// Closes a channel under `mode`, charging the closing costs and
    /// returning the settled balances `(source-of-forward, source-of-backward)`.
    ///
    /// Returns `None` if the channel edges no longer exist.
    pub fn close_channel(&mut self, id: ChannelId, mode: CloseMode) -> Option<(f64, f64)> {
        let (u, v) = self.graph.edge_endpoints(id.forward)?;
        let fwd = self.graph.remove_edge(id.forward)?;
        let bwd = self.graph.remove_edge(id.backward)?;
        self.reverse[id.forward.index()] = None;
        self.reverse[id.backward.index()] = None;
        let c = self.cost_model.onchain_fee;
        self.onchain_paid[u.index()] += mode.cost_to_a(c);
        self.onchain_paid[v.index()] += mode.cost_to_b(c);
        Some((fwd.balance, bwd.balance))
    }

    /// The reverse twin of a directed channel edge.
    pub fn reverse_edge(&self, e: EdgeId) -> Option<EdgeId> {
        self.reverse.get(e.index()).copied().flatten()
    }

    /// Balance available on directed edge `e`.
    pub fn balance(&self, e: EdgeId) -> Option<f64> {
        self.graph.edge(e).map(|eb| eb.balance)
    }

    /// Total on-chain costs `node` has paid so far (opens + closes).
    pub fn onchain_paid(&self, node: NodeId) -> f64 {
        self.onchain_paid.get(node.index()).copied().unwrap_or(0.0)
    }

    /// Total routing fees `node` has earned as an intermediary.
    pub fn fees_earned(&self, node: NodeId) -> f64 {
        self.fees_earned.get(node.index()).copied().unwrap_or(0.0)
    }

    /// Total routing fees `node` has paid as a sender.
    pub fn fees_spent(&self, node: NodeId) -> f64 {
        self.fees_spent.get(node.index()).copied().unwrap_or(0.0)
    }

    /// The capacity-reduced subgraph `G'(x)` of §II-B: only edges whose
    /// balance can forward a payment of size `x` survive. Node and edge ids
    /// are preserved.
    pub fn reduced_graph(&self, x: f64) -> DiGraph<(), EdgeBalance> {
        self.graph.filter_edges(|_, _, _, eb| can_forward(eb, x))
    }

    /// Computes the per-edge amounts for routing `amount` along `path`
    /// (sender first): each intermediary charges `F(amount)`, so the edge
    /// `i` of a `k`-edge path carries `amount + (k-1-i)·F(amount)`.
    ///
    /// Returns `(amounts, total_fees)`.
    pub fn hop_amounts(&self, path: &[EdgeId], amount: f64) -> (Vec<f64>, f64) {
        let k = path.len();
        let fee = self.fee_function.fee(amount);
        let amounts = (0..k).map(|i| amount + (k - 1 - i) as f64 * fee).collect();
        let total = if k > 1 { (k - 1) as f64 * fee } else { 0.0 };
        (amounts, total)
    }

    /// Samples one shortest `s → r` path *uniformly at random* among all
    /// shortest paths in the capacity-reduced subgraph, matching the
    /// paper's model where a transaction picks any one of the `m(s,r)`
    /// shortest paths (Eq. 2 splits flow as `m_e/m`).
    ///
    /// Returns `None` if `r` is unreachable.
    pub fn sample_shortest_path<R: Rng + ?Sized>(
        &self,
        s: NodeId,
        r: NodeId,
        amount: f64,
        rng: &mut R,
    ) -> Option<Vec<EdgeId>> {
        let mut sampler = PathSampler::default();
        self.sample_shortest_path_filtered(s, r, amount, |_| true, |_| true, &mut sampler, rng)
    }

    /// [`Pcn::sample_shortest_path`] restricted to edges accepted by
    /// `edge_ok` whose endpoints are both accepted by `node_ok`, on top of
    /// the capacity filter. The fault-injection engine routes through this
    /// to avoid offline nodes and hops that already failed a payment;
    /// all-pass filters reproduce the unfiltered sampler exactly
    /// (including its RNG draw sequence).
    ///
    /// `G'(x)` is never built: the caller's [`PathSampler`] applies the
    /// balance test and both filters to each edge it reads while it
    /// searches from both ends and walks the shortest-path DAG between `s`
    /// and `r`. It returns the same path and makes the same RNG draws as
    /// [`lcg_graph::bfs::bfs`] on [`Pcn::reduced_graph`] (filtered alike)
    /// followed by [`sample_path_from_tree`]. Keeping one sampler across
    /// payments makes the returned path the only allocation.
    ///
    /// Returns `None` if `r` is unreachable in the filtered subgraph.
    #[allow(clippy::too_many_arguments)]
    pub fn sample_shortest_path_filtered<R: Rng + ?Sized>(
        &self,
        s: NodeId,
        r: NodeId,
        amount: f64,
        edge_ok: impl Fn(EdgeId) -> bool,
        node_ok: impl Fn(NodeId) -> bool,
        sampler: &mut PathSampler,
        rng: &mut R,
    ) -> Option<Vec<EdgeId>> {
        sampler.sample(
            &self.graph,
            s,
            r,
            |e, u, v| {
                self.graph.edge(e).is_some_and(|eb| can_forward(eb, amount))
                    && edge_ok(e)
                    && node_ok(u)
                    && node_ok(v)
            },
            rng,
        )
    }

    /// Live channels as `(forward, backward)` edge pairs, in ascending
    /// forward-edge order (each channel listed once, oriented by its
    /// lower-indexed edge).
    pub fn channels(&self) -> Vec<ChannelId> {
        self.graph
            .edge_ids()
            .filter_map(|e| {
                let rev = self.reverse_edge(e)?;
                (e.index() < rev.index()).then_some(ChannelId {
                    forward: e,
                    backward: rev,
                })
            })
            .collect()
    }

    /// Executes a multi-hop payment of `amount` from `s` to `r` along a
    /// uniformly sampled shortest path of the capacity-reduced subgraph,
    /// updating balances atomically and crediting intermediary fees.
    ///
    /// # Errors
    ///
    /// See [`RouteError`]. On error no balance is modified.
    pub fn pay_with_rng<R: Rng + ?Sized>(
        &mut self,
        s: NodeId,
        r: NodeId,
        amount: f64,
        rng: &mut R,
    ) -> Result<PaymentReceipt, RouteError> {
        if amount <= 0.0 || amount.is_nan() || amount.is_infinite() {
            return Err(RouteError::InvalidAmount { amount });
        }
        for node in [s, r] {
            if !self.graph.contains_node(node) {
                return Err(RouteError::UnknownNode { node });
            }
        }
        if s == r {
            return Err(RouteError::SelfPayment);
        }
        let path = self
            .sample_shortest_path(s, r, amount, rng)
            .ok_or(RouteError::NoPath)?;
        self.execute_on_path(&path, amount)
    }

    /// Executes a payment along an explicit `path` (atomic HTLC-style):
    /// every hop is checked against the amount it must carry (payment +
    /// downstream fees) before any balance moves.
    ///
    /// # Errors
    ///
    /// [`RouteError::InsufficientCapacity`] if a hop cannot carry its
    /// share; the network state is unchanged in that case.
    pub fn execute_on_path(
        &mut self,
        path: &[EdgeId],
        amount: f64,
    ) -> Result<PaymentReceipt, RouteError> {
        if path.is_empty() {
            return Err(RouteError::NoPath);
        }
        let (amounts, total_fees) = self.hop_amounts(path, amount);
        // Phase 1: validate every hop (HTLC lock acquisition).
        for (e, need) in path.iter().zip(&amounts) {
            let available = self.balance(*e).ok_or(RouteError::NoPath)?;
            if *need > available + 1e-9 {
                return Err(RouteError::InsufficientCapacity {
                    edge: *e,
                    needed: *need,
                    available,
                });
            }
        }
        // Phase 2: settle all hops.
        let mut intermediaries = Vec::new();
        for (i, (e, carried)) in path.iter().zip(&amounts).enumerate() {
            let rev = self.reverse_edge(*e);
            {
                let eb = self.graph.edge_mut(*e).expect("validated edge");
                eb.balance = (eb.balance - carried).max(0.0);
            }
            if let Some(rev) = rev {
                let eb = self.graph.edge_mut(rev).expect("twin edge");
                eb.balance += carried;
            }
            if i > 0 {
                // The head of the previous edge is this edge's tail: an
                // intermediary who keeps the fee differential.
                let (tail, _) = self.graph.edge_endpoints(*e).expect("validated edge");
                let fee = self.fee_function.fee(amount);
                self.fees_earned[tail.index()] += fee;
                intermediaries.push(tail);
            }
        }
        let (sender, _) = self.graph.edge_endpoints(path[0]).expect("validated edge");
        self.fees_spent[sender.index()] += total_fees;
        Ok(PaymentReceipt {
            path: path.to_vec(),
            fees_paid: total_fees,
            intermediaries,
        })
    }

    /// Deducts a pending HTLC reservation from `e`'s spendable balance
    /// (crate-internal: only [`crate::htlc::Htlc::lock`] calls this after
    /// validating the amount).
    pub(crate) fn reserve(&mut self, e: EdgeId, amount: f64) {
        if let Some(eb) = self.graph.edge_mut(e) {
            eb.balance = (eb.balance - amount).max(0.0);
        }
    }

    /// Returns a reservation to `e`'s spendable balance (HTLC failure).
    pub(crate) fn release(&mut self, e: EdgeId, amount: f64) {
        if let Some(eb) = self.graph.edge_mut(e) {
            eb.balance += amount;
        }
    }

    /// Finalizes reserved hops: credits each reverse edge with the carried
    /// amount and records fee flows. The forward edges were already
    /// debited at reservation time.
    pub(crate) fn commit_reservations(
        &mut self,
        path: &[EdgeId],
        amounts: &[f64],
        amount: f64,
        total_fees: f64,
    ) {
        for (i, (e, carried)) in path.iter().zip(amounts).enumerate() {
            if let Some(rev) = self.reverse_edge(*e) {
                if let Some(eb) = self.graph.edge_mut(rev) {
                    eb.balance += carried;
                }
            }
            if i > 0 {
                if let Some((tail, _)) = self.graph.edge_endpoints(*e) {
                    let fee = self.fee_function.fee(amount);
                    self.fees_earned[tail.index()] += fee;
                }
            }
        }
        if let Some((sender, _)) = path.first().and_then(|e| self.graph.edge_endpoints(*e)) {
            self.fees_spent[sender.index()] += total_fees;
        }
    }

    /// Deterministic convenience wrapper around [`Pcn::pay_with_rng`] that
    /// uses a fixed-seed RNG; fine whenever the caller does not care which
    /// of several equal-length routes is taken.
    ///
    /// # Errors
    ///
    /// See [`RouteError`].
    pub fn pay(&mut self, s: NodeId, r: NodeId, amount: f64) -> Result<PaymentReceipt, RouteError> {
        use rand::SeedableRng;
        let mut rng = rand::rngs::StdRng::seed_from_u64(0);
        self.pay_with_rng(s, r, amount, &mut rng)
    }
}

/// The capacity test behind `G'(x)` (§II-B): an edge survives when its
/// balance can forward `x`.
fn can_forward(eb: &EdgeBalance, x: f64) -> bool {
    eb.balance + 1e-9 >= x
}

/// Samples a shortest path `tree.source → r` uniformly among all shortest
/// paths by backward-walking the predecessor DAG with probabilities
/// `σ(v)/σ(w)` (each parallel predecessor edge weighted by its tail's path
/// count).
///
/// This is the reference the engine's [`PathSampler`] must match path for
/// path and draw for draw when `tree` is a full [`lcg_graph::bfs::bfs`] of
/// the filtered `G'(x)`.
pub fn sample_path_from_tree<N, E, R: Rng + ?Sized>(
    g: &DiGraph<N, E>,
    tree: &BfsTree,
    r: NodeId,
    rng: &mut R,
) -> Option<Vec<EdgeId>> {
    tree.distance(r)?;
    let mut path = Vec::new();
    let mut cur = r;
    while cur != tree.source {
        let preds = &tree.pred_edges[cur.index()];
        let total: f64 = preds
            .iter()
            .map(|&e| {
                let (v, _) = g.edge_endpoints(e).expect("live pred edge");
                tree.sigma[v.index()]
            })
            .sum();
        let mut pick = rng.gen_range(0.0..total);
        let mut chosen = *preds.last().expect("non-source node has predecessors");
        for &e in preds {
            let (v, _) = g.edge_endpoints(e).expect("live pred edge");
            let w = tree.sigma[v.index()];
            if pick < w {
                chosen = e;
                break;
            }
            pick -= w;
        }
        path.push(chosen);
        cur = g.edge_endpoints(chosen).expect("live pred edge").0;
    }
    path.reverse();
    Some(path)
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    fn line3() -> (Pcn, Vec<NodeId>) {
        let mut pcn = Pcn::new(CostModel::new(1.0, 0.0), FeeFunction::Constant { fee: 0.5 });
        let ns: Vec<NodeId> = (0..3).map(|_| pcn.add_node()).collect();
        pcn.open_channel(ns[0], ns[1], 10.0, 10.0);
        pcn.open_channel(ns[1], ns[2], 10.0, 10.0);
        (pcn, ns)
    }

    #[test]
    fn open_channel_charges_both_parties_half_c() {
        let (pcn, ns) = line3();
        assert!((pcn.onchain_paid(ns[0]) - 0.5).abs() < 1e-12);
        assert!((pcn.onchain_paid(ns[1]) - 1.0).abs() < 1e-12); // two channels
        assert!((pcn.onchain_paid(ns[2]) - 0.5).abs() < 1e-12);
    }

    #[test]
    fn direct_payment_moves_balances_and_charges_no_fee() {
        let (mut pcn, ns) = line3();
        let receipt = pcn.pay(ns[0], ns[1], 4.0).unwrap();
        assert!(receipt.intermediaries.is_empty());
        assert_eq!(receipt.fees_paid, 0.0);
        let e = pcn.graph().find_edge(ns[0], ns[1]).unwrap();
        let rev = pcn.reverse_edge(e).unwrap();
        assert!((pcn.balance(e).unwrap() - 6.0).abs() < 1e-12);
        assert!((pcn.balance(rev).unwrap() - 14.0).abs() < 1e-12);
    }

    #[test]
    fn multihop_payment_pays_intermediary_fee() {
        let (mut pcn, ns) = line3();
        let receipt = pcn.pay(ns[0], ns[2], 2.0).unwrap();
        assert_eq!(receipt.intermediaries, vec![ns[1]]);
        assert!((receipt.fees_paid - 0.5).abs() < 1e-12);
        assert!((pcn.fees_earned(ns[1]) - 0.5).abs() < 1e-12);
        assert!((pcn.fees_spent(ns[0]) - 0.5).abs() < 1e-12);
        // First hop carried amount + downstream fee.
        let e01 = pcn.graph().find_edge(ns[0], ns[1]).unwrap();
        assert!((pcn.balance(e01).unwrap() - (10.0 - 2.5)).abs() < 1e-12);
        let e12 = pcn.graph().find_edge(ns[1], ns[2]).unwrap();
        assert!((pcn.balance(e12).unwrap() - 8.0).abs() < 1e-12);
    }

    #[test]
    fn payment_fails_atomically_when_second_hop_lacks_capacity() {
        let mut pcn = Pcn::new(CostModel::default(), FeeFunction::Constant { fee: 0.0 });
        let ns: Vec<NodeId> = (0..3).map(|_| pcn.add_node()).collect();
        pcn.open_channel(ns[0], ns[1], 10.0, 10.0);
        pcn.open_channel(ns[1], ns[2], 1.0, 10.0);
        let before_e01 = {
            let e = pcn.graph().find_edge(ns[0], ns[1]).unwrap();
            pcn.balance(e).unwrap()
        };
        // 5 > 1 on the (1,2) edge: the reduced graph has no path, so the
        // payment is rejected before touching anything.
        let err = pcn.pay(ns[0], ns[2], 5.0).unwrap_err();
        assert_eq!(err, RouteError::NoPath);
        let e = pcn.graph().find_edge(ns[0], ns[1]).unwrap();
        assert_eq!(pcn.balance(e).unwrap(), before_e01);
    }

    #[test]
    fn fees_make_first_hop_exceed_reduced_filter() {
        // The reduced graph admits the *amount*, but amount + downstream
        // fees exceeds the first hop: caught in HTLC validation.
        let mut pcn = Pcn::new(CostModel::default(), FeeFunction::Constant { fee: 1.0 });
        let ns: Vec<NodeId> = (0..3).map(|_| pcn.add_node()).collect();
        pcn.open_channel(ns[0], ns[1], 5.2, 0.0);
        pcn.open_channel(ns[1], ns[2], 10.0, 0.0);
        // amount 5 passes the filter (5 <= 5.2) but first hop must carry 6.
        let err = pcn.pay(ns[0], ns[2], 5.0).unwrap_err();
        assert!(matches!(err, RouteError::InsufficientCapacity { .. }));
    }

    #[test]
    fn unknown_node_and_self_payment_are_rejected() {
        let (mut pcn, ns) = line3();
        assert!(matches!(
            pcn.pay(ns[0], NodeId(99), 1.0),
            Err(RouteError::UnknownNode { .. })
        ));
        assert_eq!(pcn.pay(ns[0], ns[0], 1.0), Err(RouteError::SelfPayment));
        assert!(matches!(
            pcn.pay(ns[0], ns[1], 0.0),
            Err(RouteError::InvalidAmount { .. })
        ));
    }

    #[test]
    fn disconnected_receiver_has_no_path() {
        let (mut pcn, ns) = line3();
        let lonely = pcn.add_node();
        assert_eq!(pcn.pay(ns[0], lonely, 1.0), Err(RouteError::NoPath));
    }

    #[test]
    fn close_channel_settles_and_charges() {
        let mut pcn = Pcn::new(CostModel::new(2.0, 0.0), FeeFunction::default());
        let a = pcn.add_node();
        let b = pcn.add_node();
        let id = pcn.open_channel(a, b, 7.0, 3.0);
        let (ba, bb) = pcn.close_channel(id, CloseMode::Collaborative).unwrap();
        assert_eq!((ba, bb), (7.0, 3.0));
        // 1.0 opening share + 1.0 collaborative closing share each.
        assert!((pcn.onchain_paid(a) - 2.0).abs() < 1e-12);
        assert!((pcn.onchain_paid(b) - 2.0).abs() < 1e-12);
        assert_eq!(pcn.graph().edge_count(), 0);
        // Double close is a no-op.
        assert!(pcn.close_channel(id, CloseMode::Collaborative).is_none());
    }

    #[test]
    fn unilateral_close_charges_only_the_closer() {
        let mut pcn = Pcn::new(CostModel::new(2.0, 0.0), FeeFunction::default());
        let a = pcn.add_node();
        let b = pcn.add_node();
        let id = pcn.open_channel(a, b, 1.0, 1.0);
        pcn.close_channel(id, CloseMode::UnilateralByB).unwrap();
        assert!((pcn.onchain_paid(a) - 1.0).abs() < 1e-12); // opening share only
        assert!((pcn.onchain_paid(b) - 3.0).abs() < 1e-12); // opening + full close
    }

    #[test]
    fn from_topology_decorates_every_channel() {
        let star = lcg_graph::generators::star(4);
        let pcn = Pcn::from_topology(&star, 5.0, CostModel::new(1.0, 0.0), FeeFunction::default());
        assert_eq!(pcn.graph().edge_count(), 8);
        for e in pcn.graph().edge_ids() {
            assert_eq!(pcn.balance(e), Some(5.0));
            assert!(pcn.reverse_edge(e).is_some());
        }
        // Hub paid C/2 per channel.
        assert!((pcn.onchain_paid(NodeId(0)) - 4.0 * 0.5).abs() < 1e-12);
    }

    #[test]
    fn reduced_graph_filters_low_balance_edges() {
        let (mut pcn, ns) = line3();
        pcn.pay(ns[0], ns[1], 9.0).unwrap();
        let reduced = pcn.reduced_graph(5.0);
        // Edge 0->1 now has 1.0 < 5: filtered out.
        assert!(!reduced.has_edge(ns[0], ns[1]));
        assert!(reduced.has_edge(ns[1], ns[0])); // 19 coins that way
    }

    #[test]
    fn shortest_path_sampling_is_roughly_uniform() {
        // Diamond with two 2-hop routes: sampling should split ~50/50.
        let mut pcn = Pcn::new(CostModel::default(), FeeFunction::Constant { fee: 0.0 });
        let ns: Vec<NodeId> = (0..4).map(|_| pcn.add_node()).collect();
        pcn.open_channel(ns[0], ns[1], 100.0, 100.0);
        pcn.open_channel(ns[1], ns[3], 100.0, 100.0);
        pcn.open_channel(ns[0], ns[2], 100.0, 100.0);
        pcn.open_channel(ns[2], ns[3], 100.0, 100.0);
        let mut rng = StdRng::seed_from_u64(21);
        let mut via1 = 0;
        let trials = 2000;
        for _ in 0..trials {
            let p = pcn
                .sample_shortest_path(ns[0], ns[3], 1.0, &mut rng)
                .unwrap();
            let (_, mid) = pcn.graph().edge_endpoints(p[0]).unwrap();
            if mid == ns[1] {
                via1 += 1;
            }
        }
        let frac = via1 as f64 / trials as f64;
        assert!((frac - 0.5).abs() < 0.05, "via-1 fraction {frac}");
    }

    #[test]
    fn capacity_is_conserved_by_payments() {
        let (mut pcn, ns) = line3();
        let total_before: f64 = pcn
            .graph()
            .edge_ids()
            .map(|e| pcn.balance(e).unwrap())
            .sum();
        pcn.pay(ns[0], ns[2], 3.0).unwrap();
        pcn.pay(ns[2], ns[0], 1.0).unwrap();
        let total_after: f64 = pcn
            .graph()
            .edge_ids()
            .map(|e| pcn.balance(e).unwrap())
            .sum();
        assert!(
            (total_before - total_after).abs() < 1e-9,
            "coins leaked: {total_before} -> {total_after}"
        );
    }
}
