//! Edge and node betweenness centrality (Brandes' algorithm), with the
//! per-pair-weighted variant the paper needs.
//!
//! Eq. 2 of the paper defines the probability that a directed edge `e`
//! carries a transaction as
//!
//! ```text
//! p_e = Σ_{s≠r, m(s,r)>0}  m_e(s,r)/m(s,r) · p_trans(s,r)
//! ```
//!
//! i.e. *edge betweenness centrality weighted by the probability that the
//! pair `(s, r)` transacts* (a transaction picks one of the `m(s,r)`
//! shortest paths uniformly). Likewise the Section IV revenue formula is the
//! *node* betweenness of `u` weighted by `N_{v1}·p_trans(v1,v2)` with both
//! endpoints distinct from `u`.
//!
//! Both quantities are computed here with a single-pass Brandes dependency
//! accumulation (Brandes 2001; per-target weights per Brandes 2008 "On
//! variants of shortest-path betweenness") in `O(n·(n+m))` for unweighted
//! hop metrics — exponentially faster than enumerating the `m(s,r)` paths,
//! which this module also provides (brute force) for cross-validation.

use crate::bfs::{bfs, BfsTree};
use crate::graph::{DiGraph, EdgeId, NodeId};

/// Per-edge scores indexed by `EdgeId::index()`; removed edges hold `0.0`.
pub type EdgeScores = Vec<f64>;
/// Per-node scores indexed by `NodeId::index()`; removed nodes hold `0.0`.
pub type NodeScores = Vec<f64>;

/// Sources are processed in fixed-size chunks; each chunk accumulates its
/// own partial score vector and the chunks are summed **in chunk order**.
/// The chunking is independent of the thread count, so the floating-point
/// accumulation order — and therefore every output bit — is identical
/// whether the chunks run on one thread (`LCG_THREADS=1`, or nested inside
/// another parallel call) or on all cores.
///
/// Public because [`crate::incremental`] must replicate the exact same
/// chunk boundaries to keep its cached-plus-recomputed reduction
/// bit-identical to the from-scratch path.
pub const SOURCE_CHUNK: usize = 8;

/// What one worker of a Brandes source loop keeps across its chunks: the
/// BFS tree each recomputed source refills and the per-node dependency
/// buffer it overwrites. [`lcg_parallel::par_map_init`] builds one per
/// worker per call, so a loop allocates them once per worker, not once per
/// chunk; every value is overwritten before it is read.
#[derive(Default)]
pub(crate) struct SourceBuffers {
    tree: BfsTree,
    delta: Vec<f64>,
}

impl SourceBuffers {
    /// Refills the tree from `s` on `g` and returns `s`'s node
    /// dependencies (see [`node_dependencies`]).
    pub(crate) fn recompute<N, E, W>(&mut self, g: &DiGraph<N, E>, s: NodeId, weight: &W) -> &[f64]
    where
        W: Fn(NodeId, NodeId) -> f64,
    {
        self.tree.rerun(g, s);
        self.delta.resize(g.node_bound(), 0.0);
        node_dependencies(g, &self.tree, weight, &mut self.delta);
        &self.delta
    }
}

/// Runs `kernel` over every chunk of `g`'s sources in parallel and sums the
/// partial vectors in deterministic chunk order.
fn accumulate_over_source_chunks<N, E, K>(g: &DiGraph<N, E>, out_len: usize, kernel: K) -> Vec<f64>
where
    K: Fn(&mut SourceBuffers, &[NodeId], &mut [f64]) + Sync,
{
    let sources: Vec<NodeId> = g.node_ids().collect();
    let chunks: Vec<&[NodeId]> = sources.chunks(SOURCE_CHUNK).collect();
    let observe = lcg_obs::enabled();
    let outer_span = if observe {
        let mut span = lcg_obs::span::span("graph/brandes");
        span.field_u64("sources", sources.len() as u64);
        span.field_u64("chunks", chunks.len() as u64);
        lcg_obs::counter!("graph/brandes/runs").inc();
        lcg_obs::counter!("graph/brandes/sources").add(sources.len() as u64);
        Some(span)
    } else {
        None
    };
    let run_chunk = |bufs: &mut SourceBuffers, chunk: &&[NodeId]| {
        let _chunk_timer = lcg_obs::timer!("graph/brandes/chunk_ns");
        let mut partial = vec![0.0; out_len];
        kernel(bufs, chunk, &mut partial);
        partial
    };
    let partials = lcg_parallel::par_map_init(&chunks, SourceBuffers::default, run_chunk);
    let total = lcg_parallel::sum_vecs(vec![0.0; out_len], partials);
    drop(outer_span);
    total
}

/// Weighted edge betweenness: for each directed edge `e`, the sum over
/// ordered pairs `(s, r)` of `m_e(s,r)/m(s,r) · weight(s, r)`.
///
/// With `weight ≡ 1` this is classic (directed, endpoint-inclusive) edge
/// betweenness. With `weight = p_trans` it is exactly the paper's `p_e`
/// (Eq. 2); scaling by the transaction volume `N` then gives the edge rate
/// `λ_e = N · p_e`.
///
/// `weight(s, r)` is consulted only for reachable ordered pairs with
/// `s ≠ r`.
///
/// # Examples
///
/// ```
/// use lcg_graph::{generators, betweenness::weighted_edge_betweenness};
///
/// let g = generators::path(3); // 0 - 1 - 2
/// let scores = weighted_edge_betweenness(&g, |_, _| 1.0);
/// // Edge (0,1) carries pairs (0,1) and (0,2): score 2.
/// let e01 = g.find_edge(lcg_graph::NodeId(0), lcg_graph::NodeId(1)).unwrap();
/// assert_eq!(scores[e01.index()], 2.0);
/// ```
pub fn weighted_edge_betweenness<N, E, W>(g: &DiGraph<N, E>, weight: W) -> EdgeScores
where
    N: Sync,
    E: Sync,
    W: Fn(NodeId, NodeId) -> f64 + Sync,
{
    accumulate_over_source_chunks(g, g.edge_bound(), |bufs, chunk, scores| {
        let SourceBuffers { tree, delta } = bufs;
        delta.resize(g.node_bound(), 0.0);
        for &s in chunk {
            tree.rerun(g, s);
            for d in delta.iter_mut() {
                *d = 0.0;
            }
            // Reverse BFS order: farthest targets first.
            for &w_node in tree.order.iter().rev() {
                if w_node == s {
                    continue;
                }
                let target_weight = weight(s, w_node);
                let coeff = (target_weight + delta[w_node.index()]) / tree.sigma[w_node.index()];
                for &e in &tree.pred_edges[w_node.index()] {
                    let (v, _) = g.edge_endpoints(e).expect("pred edge is live");
                    let contribution = tree.sigma[v.index()] * coeff;
                    scores[e.index()] += contribution;
                    delta[v.index()] += contribution;
                }
            }
        }
    })
}

/// Classic directed edge betweenness (`weight ≡ 1`): for each edge the
/// number of ordered reachable pairs whose shortest paths traverse it,
/// fractionally split across the `m(s,r)` shortest paths.
pub fn edge_betweenness<N: Sync, E: Sync>(g: &DiGraph<N, E>) -> EdgeScores {
    weighted_edge_betweenness(g, |_, _| 1.0)
}

/// Weighted node betweenness: for each node `u`, the sum over ordered pairs
/// `(s, r)` with `s ≠ u ≠ r` of `m_u(s,r)/m(s,r) · weight(s, r)`, where
/// `m_u` counts shortest paths through `u` as an *intermediary*.
///
/// With `weight(v1, v2) = N_{v1} · p_trans(v1, v2) · f_avg` this is the
/// Section IV expected-revenue formula for `u`.
pub fn weighted_node_betweenness<N, E, W>(g: &DiGraph<N, E>, weight: W) -> NodeScores
where
    N: Sync,
    E: Sync,
    W: Fn(NodeId, NodeId) -> f64 + Sync,
{
    accumulate_over_source_chunks(g, g.node_bound(), |bufs, chunk, scores| {
        for &s in chunk {
            let delta = bufs.recompute(g, s, &weight);
            for v in g.node_ids() {
                if v != s {
                    scores[v.index()] += delta[v.index()];
                }
            }
        }
    })
}

/// One source's Brandes dependency accumulation (node form): overwrites
/// `delta` with, for every node `v`, the total weighted fraction of
/// shortest paths from `tree.source` that pass through `v` as an
/// intermediary (`delta[source]` holds the source's own dependency and is
/// ignored by callers).
///
/// This is the exact inner loop of [`weighted_node_betweenness`], exposed
/// so the incremental engine ([`crate::incremental`]) recomputes affected
/// sources with *identical* floating-point operations — the foundation of
/// its bit-identity guarantee.
///
/// # Panics
///
/// Panics (in debug builds via indexing) if `delta.len() < g.node_bound()`
/// or `tree` was not produced by [`bfs`] on `g`.
pub fn node_dependencies<N, E, W>(g: &DiGraph<N, E>, tree: &BfsTree, weight: &W, delta: &mut [f64])
where
    W: Fn(NodeId, NodeId) -> f64,
{
    for d in delta.iter_mut() {
        *d = 0.0;
    }
    for &w_node in tree.order.iter().rev() {
        if w_node == tree.source {
            continue;
        }
        let target_weight = weight(tree.source, w_node);
        let coeff = (target_weight + delta[w_node.index()]) / tree.sigma[w_node.index()];
        for &e in &tree.pred_edges[w_node.index()] {
            let (v, _) = g.edge_endpoints(e).expect("pred edge is live");
            let contribution = tree.sigma[v.index()] * coeff;
            delta[v.index()] += contribution;
        }
    }
}

/// Classic directed node betweenness (`weight ≡ 1`), endpoints excluded.
pub fn node_betweenness<N: Sync, E: Sync>(g: &DiGraph<N, E>) -> NodeScores {
    weighted_node_betweenness(g, |_, _| 1.0)
}

/// Brute-force reference: enumerates every shortest path explicitly.
///
/// Exponential in the worst case — only for tests and tiny graphs. Returns
/// `(edge_scores, node_scores)` using the same weighting conventions as
/// [`weighted_edge_betweenness`] / [`weighted_node_betweenness`].
pub fn brute_force_betweenness<N, E, W>(
    g: &DiGraph<N, E>,
    mut weight: W,
) -> (EdgeScores, NodeScores)
where
    W: FnMut(NodeId, NodeId) -> f64,
{
    let mut edge_scores = vec![0.0; g.edge_bound()];
    let mut node_scores = vec![0.0; g.node_bound()];
    for s in g.node_ids() {
        let tree = bfs(g, s);
        for r in g.node_ids() {
            if r == s || !tree.is_reachable(r) {
                continue;
            }
            let w = weight(s, r);
            let paths = enumerate_shortest_paths(g, &tree, r);
            let m = paths.len() as f64;
            for path in &paths {
                for &e in path {
                    edge_scores[e.index()] += w / m;
                    let (src, dst) = g.edge_endpoints(e).expect("live edge");
                    // Interior nodes only: the head of each edge except the
                    // last one; the tail of the first edge is s.
                    let _ = src;
                    if dst != r {
                        node_scores[dst.index()] += w / m;
                    }
                }
            }
        }
    }
    (edge_scores, node_scores)
}

/// Enumerates all shortest `tree.source → r` paths as edge lists by walking
/// the predecessor DAG. Exponential output size in general.
pub fn enumerate_shortest_paths<N, E>(
    g: &DiGraph<N, E>,
    tree: &crate::bfs::BfsTree,
    r: NodeId,
) -> Vec<Vec<EdgeId>> {
    if tree.distance(r).is_none() {
        return Vec::new();
    }
    if r == tree.source {
        return vec![Vec::new()];
    }
    let mut out = Vec::new();
    for &e in &tree.pred_edges[r.index()] {
        let (v, _) = g.edge_endpoints(e).expect("live edge");
        for mut prefix in enumerate_shortest_paths(g, tree, v) {
            prefix.push(e);
            out.push(prefix);
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::generators;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    fn assert_close(a: f64, b: f64, context: &str) {
        assert!(
            (a - b).abs() < 1e-9,
            "{context}: {a} vs {b} differ by {}",
            (a - b).abs()
        );
    }

    #[test]
    fn path_edge_betweenness_is_product_of_sides() {
        // On a path of n nodes, the undirected link (i, i+1) in each
        // direction carries (i+1)*(n-i-1) ordered pairs.
        let n = 6;
        let g = generators::path(n);
        let scores = edge_betweenness(&g);
        for i in 0..n - 1 {
            let e = g.find_edge(NodeId(i), NodeId(i + 1)).unwrap();
            let expect = ((i + 1) * (n - i - 1)) as f64;
            assert_close(scores[e.index()], expect, "forward edge");
            let b = g.find_edge(NodeId(i + 1), NodeId(i)).unwrap();
            assert_close(scores[b.index()], expect, "backward edge");
        }
    }

    #[test]
    fn star_center_carries_all_leaf_pairs() {
        let leaves = 5;
        let g = generators::star(leaves);
        let node_scores = node_betweenness(&g);
        // Center intermediates all ordered leaf pairs: leaves*(leaves-1).
        assert_close(
            node_scores[0],
            (leaves * (leaves - 1)) as f64,
            "star center",
        );
        for i in 1..=leaves {
            assert_close(node_scores[i], 0.0, "leaf");
        }
    }

    #[test]
    fn star_edge_scores() {
        let leaves = 4;
        let g = generators::star(leaves);
        let scores = edge_betweenness(&g);
        // Edge (leaf -> center) carries pairs (leaf, center) + (leaf, other
        // leaves) = 1 + (leaves-1).
        let e = g.find_edge(NodeId(1), NodeId(0)).unwrap();
        assert_close(scores[e.index()], leaves as f64, "leaf->center");
        // Edge (center -> leaf) carries (center, leaf) + (others, leaf).
        let e = g.find_edge(NodeId(0), NodeId(1)).unwrap();
        assert_close(scores[e.index()], leaves as f64, "center->leaf");
    }

    #[test]
    fn even_cycle_splits_antipodal_pairs() {
        let g = generators::cycle(4);
        let scores = edge_betweenness(&g);
        // Each directed edge lies on: 1 adjacent pair (its endpoints),
        // plus for the two antipodal pairs it serves one of two shortest
        // paths each contributing 1/2 … total = 1 + 1/2 + 1/2 = 2.
        for (e, _, _, _) in g.edges() {
            assert_close(scores[e.index()], 2.0, "cycle4 edge");
        }
    }

    #[test]
    fn brandes_matches_brute_force_on_random_graphs() {
        let mut rng = StdRng::seed_from_u64(11);
        for trial in 0..8 {
            let g = match generators::connected_erdos_renyi(8, 0.35, &mut rng, 200) {
                Some(g) => g,
                None => continue,
            };
            // Deterministic but non-uniform pair weights.
            let weight =
                |s: NodeId, r: NodeId| 1.0 + 0.1 * s.index() as f64 + 0.01 * r.index() as f64;
            let fast_e = weighted_edge_betweenness(&g, weight);
            let fast_n = weighted_node_betweenness(&g, weight);
            let (slow_e, slow_n) = brute_force_betweenness(&g, weight);
            for e in g.edge_ids() {
                assert_close(
                    fast_e[e.index()],
                    slow_e[e.index()],
                    &format!("trial {trial} edge {e}"),
                );
            }
            for v in g.node_ids() {
                assert_close(
                    fast_n[v.index()],
                    slow_n[v.index()],
                    &format!("trial {trial} node {v}"),
                );
            }
        }
    }

    #[test]
    fn weighted_version_scales_with_pair_weight() {
        let g = generators::path(4);
        let uniform = edge_betweenness(&g);
        let doubled = weighted_edge_betweenness(&g, |_, _| 2.0);
        for e in g.edge_ids() {
            assert_close(doubled[e.index()], 2.0 * uniform[e.index()], "scaling");
        }
    }

    #[test]
    fn disconnected_pairs_contribute_nothing() {
        let mut g: DiGraph = DiGraph::new();
        let ns = g.add_nodes(4);
        g.add_undirected(ns[0], ns[1], ());
        g.add_undirected(ns[2], ns[3], ());
        let scores = edge_betweenness(&g);
        for e in g.edge_ids() {
            assert_close(scores[e.index()], 1.0, "only the adjacent pair");
        }
        let nodes = node_betweenness(&g);
        for v in g.node_ids() {
            assert_close(nodes[v.index()], 0.0, "no intermediaries");
        }
    }

    #[test]
    fn parallel_channels_split_flow() {
        let mut g: DiGraph<(), ()> = DiGraph::new();
        let ns = g.add_nodes(2);
        let e1 = g.add_edge(ns[0], ns[1], ());
        let e2 = g.add_edge(ns[0], ns[1], ());
        let scores = edge_betweenness(&g);
        // The single ordered pair (0,1) splits equally between the two
        // parallel shortest paths.
        assert_close(scores[e1.index()], 0.5, "parallel e1");
        assert_close(scores[e2.index()], 0.5, "parallel e2");
    }

    #[test]
    fn enumerate_paths_on_even_cycle() {
        let g = generators::cycle(6);
        let tree = bfs(&g, NodeId(0));
        let paths = enumerate_shortest_paths(&g, &tree, NodeId(3));
        assert_eq!(paths.len(), 2);
        for p in &paths {
            assert_eq!(p.len(), 3);
        }
        let trivial = enumerate_shortest_paths(&g, &tree, NodeId(0));
        assert_eq!(trivial, vec![Vec::<EdgeId>::new()]);
    }

    #[test]
    fn node_scores_exclude_endpoints() {
        let g = generators::path(3);
        let scores = node_betweenness(&g);
        // Middle node intermediates (0,2) and (2,0).
        assert_close(scores[1], 2.0, "middle");
        assert_close(scores[0], 0.0, "endpoint");
        assert_close(scores[2], 0.0, "endpoint");
    }
}
