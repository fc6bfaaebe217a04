//! The paper's modified Zipf transaction distribution (§II-B).
//!
//! A user `u` transacts with other users in proportion to their *degree
//! rank*: rank all nodes of `G' = G \ {u}` by in-degree (highest degree =
//! rank 1) and give rank `k` the Zipf weight `1/k^s`. To make the
//! distribution well defined under ties, the paper averages the Zipf
//! weights across each class of equal-degree nodes, yielding a *rank
//! factor* `rf(v)` per node; then
//!
//! ```text
//! p_trans(u, v) = rf(v) / Σ_{v'∈V'} rf(v')
//! ```
//!
//! With the averaged weights, `Σ_v rf(v) = H^s_n` exactly (the generalized
//! harmonic number), an identity the Thm 8 calculations rely on.
//!
//! ### Faithfulness note
//!
//! The paper's displayed formula for `rf(v)` sums `n(v)+1` Zipf terms
//! (`1/r0^s … 1/(r0+n(v))^s`) but divides by `n(v)`; taken literally the
//! rank factors do not sum to `H^s_n` and overlapping terms are counted
//! twice. We implement the evident intent ([`ZipfVariant::Averaged`]:
//! average of the `n(v)` weights of ranks `r0 … r0+n(v)−1`) as the default
//! and keep the printed formula ([`ZipfVariant::Literal`]) for comparison;
//! experiment E3 quantifies the difference.

use lcg_graph::{DiGraph, NodeId};
use serde::{Deserialize, Serialize};

/// Which reading of the paper's rank-factor formula to use.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Default, Serialize, Deserialize)]
pub enum ZipfVariant {
    /// Average of the `n(v)` Zipf weights of the ranks occupied by `v`'s
    /// degree class (the evident intent; `Σ rf = H^s_n` holds).
    #[default]
    Averaged,
    /// The formula exactly as printed: `n(v)+1` terms divided by `n(v)`.
    Literal,
}

/// Generalized harmonic number `H^s_n = Σ_{k=1}^{n} k^{-s}`.
///
/// # Examples
///
/// ```
/// use lcg_core::zipf::generalized_harmonic;
///
/// assert_eq!(generalized_harmonic(4, 0.0), 4.0);       // s = 0: uniform
/// assert!((generalized_harmonic(2, 1.0) - 1.5).abs() < 1e-12);
/// ```
pub fn generalized_harmonic(n: usize, s: f64) -> f64 {
    (1..=n).map(|k| (k as f64).powf(-s)).sum()
}

/// Rank factors `rf(v)` for every live node of `g`, ranked by in-degree
/// within `g` itself.
///
/// Returns a dense vector indexed by `NodeId::index()`; entries for removed
/// nodes are `0.0`. For the paper's per-sender factors (the ranking of
/// `G \ {sender}`), use [`transaction_probabilities`].
///
/// # Panics
///
/// Panics if `s` is negative or NaN (the paper requires `s > 0`; `s = 0`
/// is allowed and yields the uniform distribution of the prior work \[19\]).
pub fn rank_factors<N, E>(g: &DiGraph<N, E>, s: f64, variant: ZipfVariant) -> Vec<f64> {
    // No node of `g` has index `node_bound()`, so nothing is left out.
    Ranker::new(g, s).factors(NodeId(g.node_bound()), variant)
}

/// The in-degrees of one graph and its Zipf weights, shared by every
/// sender's ranking.
struct Ranker<'g, N, E> {
    g: &'g DiGraph<N, E>,
    /// In-degree per `NodeId::index()`. [`Ranker::factors`] lowers it to
    /// the sender's view while it ranks, and restores it before returning.
    in_deg: Vec<usize>,
    /// `powers[i] = (i + 1)^{-s}`: the Zipf weight of rank `i + 1`, for
    /// ranks `1..=live + 1` (the `Literal` variant reads one rank past the
    /// last node).
    powers: Vec<f64>,
    /// Reused buffer for the ranked node order.
    order: Vec<NodeId>,
}

impl<'g, N, E> Ranker<'g, N, E> {
    fn new(g: &'g DiGraph<N, E>, s: f64) -> Self {
        assert!(
            s >= 0.0 && !s.is_nan(),
            "zipf parameter must be >= 0, got {s}"
        );
        Ranker {
            g,
            in_deg: (0..g.node_bound())
                .map(|i| g.in_degree(NodeId(i)))
                .collect(),
            powers: (1..=g.node_count() + 1)
                .map(|k| (k as f64).powf(-s))
                .collect(),
            order: Vec::with_capacity(g.node_count()),
        }
    }

    /// Rank factors of `G \ {sender}`, as [`rank_factors`] would return
    /// them for `g.without_node(sender)`, without building that graph. The
    /// two differ only in `sender`'s out-edges, so for the duration of the
    /// ranking each such edge lowers its head's in-degree by one (a head
    /// with parallel channels from `sender` loses one per channel). A
    /// `sender` that is not a live node of `g` ranks all of `g`.
    fn factors(&mut self, sender: NodeId, variant: ZipfVariant) -> Vec<f64> {
        let Ranker {
            g,
            in_deg,
            powers,
            order,
        } = self;
        for head in g.out_neighbors(sender) {
            in_deg[head.index()] -= 1;
        }
        // Sort the other live nodes by in-degree, highest first (rank 1).
        order.clear();
        order.extend(g.node_ids().filter(|&v| v != sender));
        order.sort_by_key(|&v| std::cmp::Reverse(in_deg[v.index()]));
        let mut rf = vec![0.0; g.node_bound()];
        // Each degree class occupies ranks i+1 ..= i+count (1-based).
        let mut i = 0;
        for class in order.chunk_by(|a, b| in_deg[a.index()] == in_deg[b.index()]) {
            let count = class.len();
            let terms = match variant {
                ZipfVariant::Averaged => count,
                ZipfVariant::Literal => count + 1,
            };
            let sum: f64 = powers[i..i + terms].iter().sum();
            let factor = sum / count as f64;
            for &v in class {
                rf[v.index()] = factor;
            }
            i += count;
        }
        for head in g.out_neighbors(sender) {
            in_deg[head.index()] += 1;
        }
        rf
    }
}

/// The probability vector `p_trans(sender, ·)` over the live nodes of the
/// *host* graph `g` from the point of view of `sender`, following the
/// paper's recipe: rank the nodes of `G' = G \ {sender}` by in-degree and
/// normalize the rank factors.
///
/// If `sender` is not a live node of `g` (e.g. the newly joining user that
/// has not connected yet), the ranking is simply over all of `g`.
///
/// The returned vector is indexed by `NodeId::index()`; it sums to 1 over
/// live nodes (excluding `sender`), or is all zeros if there are no other
/// nodes.
pub fn transaction_probabilities<N, E>(
    g: &DiGraph<N, E>,
    sender: NodeId,
    s: f64,
    variant: ZipfVariant,
) -> Vec<f64>
where
    N: Clone,
    E: Clone,
{
    normalize(Ranker::new(g, s).factors(sender, variant))
}

/// Normalizes a non-negative weight vector to sum to 1 (all-zero input is
/// returned unchanged).
pub fn normalize(mut weights: Vec<f64>) -> Vec<f64> {
    let total: f64 = weights.iter().sum();
    if total > 0.0 {
        for w in &mut weights {
            *w /= total;
        }
    }
    weights
}

/// Dense matrix of pair probabilities `p_trans(s, r)` for all live host
/// nodes, computed per sender with the `G \ {s}` ranking. Row `s` sums to 1
/// (or 0 for isolated senders). `O(n² log n)` time, `O(n²)` space.
///
/// One call builds one in-degree vector and one table of Zipf weights and
/// copies no graph: each sender's view lowers the in-degrees of its
/// out-neighbours, ranks, and restores them. Every row equals
/// [`transaction_probabilities`] for that sender, bit for bit.
///
/// # Panics
///
/// Panics if `s` is negative or NaN, as [`rank_factors`] does.
pub fn pair_probabilities<N, E>(g: &DiGraph<N, E>, s: f64, variant: ZipfVariant) -> Vec<Vec<f64>>
where
    N: Clone,
    E: Clone,
{
    let n = g.node_bound();
    let mut ranker = Ranker::new(g, s);
    (0..n)
        .map(|i| {
            let sender = NodeId(i);
            if g.contains_node(sender) {
                normalize(ranker.factors(sender, variant))
            } else {
                vec![0.0; n]
            }
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use lcg_graph::generators;

    const EPS: f64 = 1e-9;

    #[test]
    fn harmonic_numbers_match_known_values() {
        assert!((generalized_harmonic(1, 2.0) - 1.0).abs() < EPS);
        assert!((generalized_harmonic(3, 1.0) - (1.0 + 0.5 + 1.0 / 3.0)).abs() < EPS);
        assert_eq!(generalized_harmonic(0, 1.0), 0.0);
        // s >= 2 ⇒ H^s_n ≤ 2 for all n (used in Thm 9's proof).
        assert!(generalized_harmonic(10_000, 2.0) <= 2.0);
    }

    #[test]
    fn rank_factors_sum_to_harmonic_number() {
        // The identity Σ rf = H^s_n that Thm 8's proof uses.
        for s in [0.0, 0.5, 1.0, 2.0, 3.7] {
            for g in [
                generators::star(6),
                generators::cycle(7),
                generators::path(5),
            ] {
                let rf = rank_factors(&g, s, ZipfVariant::Averaged);
                let total: f64 = rf.iter().sum();
                let expect = generalized_harmonic(g.node_count(), s);
                assert!(
                    (total - expect).abs() < EPS,
                    "s={s}: Σrf = {total} but H = {expect}"
                );
            }
        }
    }

    #[test]
    fn literal_variant_differs_under_ties() {
        let g = generators::cycle(5); // all degrees equal: one big class
        let avg = rank_factors(&g, 1.0, ZipfVariant::Averaged);
        let lit = rank_factors(&g, 1.0, ZipfVariant::Literal);
        assert!(lit[0] > avg[0], "literal adds an extra term");
        let total: f64 = lit.iter().sum();
        assert!(total > generalized_harmonic(5, 1.0));
    }

    #[test]
    fn equal_degrees_get_equal_factors() {
        let g = generators::star(5);
        let rf = rank_factors(&g, 1.3, ZipfVariant::Averaged);
        for i in 2..=5 {
            assert!((rf[1] - rf[i]).abs() < EPS, "leaves must tie");
        }
        assert!(rf[0] > rf[1], "hub outranks leaves");
    }

    #[test]
    fn hub_factor_is_exact_zipf_weight() {
        // Unique highest-degree node occupies rank 1 alone: rf = 1.
        let g = generators::star(4);
        let rf = rank_factors(&g, 2.0, ZipfVariant::Averaged);
        assert!((rf[0] - 1.0).abs() < EPS);
        // Leaves share ranks 2..=5: rf = (1/4)(2^-2+3^-2+4^-2+5^-2).
        let expect = (2f64.powf(-2.0) + 3f64.powf(-2.0) + 4f64.powf(-2.0) + 5f64.powf(-2.0)) / 4.0;
        assert!((rf[1] - expect).abs() < EPS);
    }

    #[test]
    fn higher_degree_class_has_strictly_larger_factor() {
        // The paper's monotonicity property: r1(v1) < r2(v2) ⇒ rf(v1) > rf(v2).
        let mut g = generators::star(4);
        // Add a second-tier node: connect one leaf to a new node so degrees
        // become {hub: 4, leaf1: 2, others: 1, new: 1}.
        let n = g.add_node(());
        g.add_undirected(NodeId(1), n, ());
        let rf = rank_factors(&g, 1.0, ZipfVariant::Averaged);
        assert!(rf[0] > rf[1], "hub > mid");
        assert!(rf[1] > rf[2], "mid > low class");
    }

    #[test]
    fn s_zero_gives_uniform_distribution() {
        let g = generators::star(5);
        let p = transaction_probabilities(&g, NodeId(1), 0.0, ZipfVariant::Averaged);
        let live: Vec<f64> = (0..p.len()).filter(|&i| i != 1).map(|i| p[i]).collect();
        for &x in &live {
            assert!((x - 1.0 / 5.0).abs() < EPS, "uniform expected, got {x}");
        }
        assert_eq!(p[1], 0.0, "sender never transacts with itself");
    }

    #[test]
    fn probabilities_sum_to_one_and_exclude_sender() {
        let g = generators::barabasi_albert(
            30,
            2,
            &mut <rand::rngs::StdRng as rand::SeedableRng>::seed_from_u64(4),
        );
        let p = transaction_probabilities(&g, NodeId(3), 1.5, ZipfVariant::Averaged);
        let total: f64 = p.iter().sum();
        assert!((total - 1.0).abs() < EPS);
        assert_eq!(p[3], 0.0);
    }

    #[test]
    fn sender_removal_affects_neighbor_ranking() {
        // In a star, from a leaf's perspective the hub loses one link but
        // still dominates; from the hub's perspective all leaves tie.
        let g = generators::star(4);
        let from_leaf = transaction_probabilities(&g, NodeId(1), 1.0, ZipfVariant::Averaged);
        assert!(from_leaf[0] > from_leaf[2], "hub still ranked first");
        let from_hub = transaction_probabilities(&g, NodeId(0), 1.0, ZipfVariant::Averaged);
        for i in 2..=4 {
            assert!((from_hub[1] - from_hub[i]).abs() < EPS);
        }
    }

    #[test]
    fn outsider_sender_ranks_whole_graph() {
        // A joining node not present in the graph: ranking over all hosts.
        let g = generators::star(3);
        let p = transaction_probabilities(&g, NodeId(99), 1.0, ZipfVariant::Averaged);
        let total: f64 = p.iter().sum();
        assert!((total - 1.0).abs() < EPS);
        assert!(p[0] > p[1]);
    }

    #[test]
    fn pair_matrix_rows_are_distributions() {
        let g = generators::cycle(6);
        let m = pair_probabilities(&g, 2.0, ZipfVariant::Averaged);
        for sender in g.node_ids() {
            let row = &m[sender.index()];
            let total: f64 = row.iter().sum();
            assert!((total - 1.0).abs() < EPS);
            assert_eq!(row[sender.index()], 0.0);
        }
    }

    #[test]
    fn large_s_concentrates_on_top_rank() {
        let g = generators::star(6);
        let p = transaction_probabilities(&g, NodeId(1), 30.0, ZipfVariant::Averaged);
        assert!(
            p[0] > 0.999,
            "hub should absorb almost all mass, got {}",
            p[0]
        );
    }

    #[test]
    #[should_panic(expected = ">= 0")]
    fn negative_s_panics() {
        rank_factors(&generators::star(2), -1.0, ZipfVariant::Averaged);
    }

    #[test]
    fn normalize_handles_zero_vector() {
        assert_eq!(normalize(vec![0.0, 0.0]), vec![0.0, 0.0]);
        let p = normalize(vec![1.0, 3.0]);
        assert!((p[0] - 0.25).abs() < EPS);
    }
}
