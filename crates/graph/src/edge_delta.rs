//! Incremental weighted node betweenness for **edge-delta** updates —
//! batches of channel insertions and deletions between *existing* nodes.
//!
//! [`crate::incremental`] covers the join-game workload (one new node plus
//! its channels). The other expensive workload in this reproduction is the
//! §IV deviation search: a player rewires its own channels, so the node
//! set is fixed and the graph differs from the snapshot by a handful of
//! inserted/removed undirected channels. [`EdgeDeltaBetweenness`]
//! snapshots the per-source BFS trees of the *current* game graph once and
//! answers "betweenness after this [`EdgeDelta`]" by recomputing only the
//! sources whose shortest-path structure the delta can actually change
//! (Bergamini–Meyerhenke-style affected-source pruning, made exact for
//! unweighted hop metrics).
//!
//! The deviation search itself no longer calls this engine: every
//! candidate rewires the deviating player, so few sources replay, and
//! `lcg_equilibria::scorer` now scores candidates in place instead. The
//! engine has no caller in the workspace and is kept, with its
//! differential suite, until it is removed on its own.
//!
//! ## Affected-source conditions
//!
//! Write `d(s, v)` for base-graph distances (from the snapshot trees),
//! `D` for the deleted directed edges and `I` for the inserted ones (each
//! undirected channel contributes both directions), and `d'(y, v)` for
//! distances in the *updated* graph. A source `s` is **affected** iff
//!
//! * **deletion**: some `(x → y) ∈ D` lies on a shortest path from `s`,
//!   i.e. `d(s, x) + 1 = d(s, y)` — otherwise deleted edges are never
//!   predecessor or discovery edges of `s`'s BFS and removing them
//!   (order-preservingly, via `Vec::retain`) leaves the tree bit-identical;
//!   **or**
//! * **insertion**: some `(x → y) ∈ I` and target `r ≠ s` satisfy
//!   `d(s, x) + 1 + d'(y, r) ≤ d(s, r)` (all terms finite, `∞` =
//!   unreachable). Soundness: take a shortest `s → r` path in the updated
//!   graph that uses an inserted edge and let `(x → y)` be the *first*
//!   inserted edge along it; its prefix is intact base graph (length
//!   `≥ d(s, x)` for deletion-unaffected `s`) and its suffix lives in the
//!   updated graph (length `≥ d'(y, r)`). Conversely, when the inequality
//!   holds the concatenated walk realizes a path that is either strictly
//!   shorter than `d(s, r)` (distance drops) or equally long but new
//!   (`σ` grows, or a new predecessor edge appears — the `r = y`,
//!   `d'(y, y) = 0` case). For deletion-unaffected sources the test is
//!   exact; deletion-affected sources are recomputed anyway.
//!
//! ## Bit-identity
//!
//! Results are bit-identical to
//! [`weighted_node_betweenness`]
//! on the updated graph (under the snapshot weight), not merely
//! numerically close:
//!
//! * affected sources are recomputed with the same kernel
//!   ([`node_dependencies`]) after a fresh BFS on the updated graph;
//! * unaffected sources have bit-identical BFS trees on the updated graph
//!   ([`crate::graph::DiGraph::remove_edge`] preserves the relative
//!   adjacency order of surviving edges, insertions append at the tail and
//!   are strictly longer detours for unaffected sources, and no deleted
//!   edge was a predecessor or discovery edge), so replaying their cached
//!   dependency vectors reproduces the from-scratch floating-point
//!   operations exactly;
//! * partial sums keep the exact [`SOURCE_CHUNK`] boundaries and chunk
//!   order of the from-scratch reduction (the node set is unchanged, so
//!   the source list and its chunk boundaries are too).

use crate::betweenness::{
    node_dependencies, weighted_node_betweenness, NodeScores, SourceBuffers, SOURCE_CHUNK,
};
use crate::bfs::{bfs, BfsTree};
use crate::graph::{DiGraph, NodeId};
use std::sync::OnceLock;

/// Distance sentinel for "unreachable" in the pruning arithmetic.
const INF: u64 = u64::MAX / 4;

/// A batch of undirected channel edits between existing nodes.
///
/// Removals are applied first (both directed twins of each listed channel,
/// matching the game's `remove_channel`), then insertions (via
/// `add_undirected`, appending fresh edge ids). Applying the delta to the
/// snapshot base with [`EdgeDeltaBetweenness::apply`] therefore produces
/// the same graph — edge id for edge id — as any caller performing the
/// same edits in the same order on a clone of the base.
#[derive(Debug, Clone, PartialEq, Eq, Default)]
pub struct EdgeDelta {
    /// Channels to insert, as unordered endpoint pairs.
    pub insert: Vec<(NodeId, NodeId)>,
    /// Channels to remove, as unordered endpoint pairs.
    pub remove: Vec<(NodeId, NodeId)>,
}

impl EdgeDelta {
    /// The empty delta.
    pub fn new() -> Self {
        EdgeDelta::default()
    }

    /// `true` when the delta edits nothing.
    pub fn is_empty(&self) -> bool {
        self.insert.is_empty() && self.remove.is_empty()
    }

    /// The reverse edit: re-insert what was removed, remove what was
    /// inserted. Applying a delta and then its inverse restores the base
    /// topology (up to edge ids).
    pub fn inverse(&self) -> EdgeDelta {
        EdgeDelta {
            insert: self.remove.clone(),
            remove: self.insert.clone(),
        }
    }
}

/// Per-query breakdown returned alongside edge-delta results.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct DeltaQueryStats {
    /// Sources recomputed from scratch (BFS + dependency kernel).
    pub recomputed_sources: usize,
    /// Sources replayed verbatim from the cached dependency vectors.
    pub replayed_sources: usize,
    /// `true` if the query ran full Brandes (only on a base with no live
    /// node).
    pub fell_back: bool,
}

/// Incremental evaluator of weighted node betweenness under
/// [`EdgeDelta`] updates of a fixed node set.
///
/// Built once per (base graph, weight) pair; each query names the channel
/// edits. See the module docs for the affected-source conditions and the
/// bit-identity guarantee.
///
/// # Examples
///
/// ```
/// use lcg_graph::{generators, NodeId};
/// use lcg_graph::betweenness::weighted_node_betweenness;
/// use lcg_graph::edge_delta::{EdgeDelta, EdgeDeltaBetweenness};
///
/// let base = generators::cycle(6);
/// let engine = EdgeDeltaBetweenness::new(&base, |_, _| 1.0);
/// let delta = EdgeDelta {
///     insert: vec![(NodeId(0), NodeId(3))],
///     remove: vec![(NodeId(1), NodeId(2))],
/// };
/// let updated = engine.apply(&delta);
/// let (scores, _) = engine.node_betweenness(&delta);
/// let full = weighted_node_betweenness(&updated, |s, r| engine.weight(s, r));
/// assert!(scores.iter().zip(&full).all(|(a, b)| a.to_bits() == b.to_bits()));
/// ```
#[derive(Debug)]
pub struct EdgeDeltaBetweenness<N = (), E = ()> {
    base: DiGraph<N, E>,
    /// Base-pair weights, `weight[s][r]`; zero on self-pairs and tombstones.
    weight: Vec<Vec<f64>>,
    /// One BFS tree per live base source (`None` for tombstoned ids).
    trees: Vec<Option<BfsTree>>,
    /// Live base sources in index order (the from-scratch source order).
    sources: Vec<NodeId>,
    /// Per-source base dependency vectors (lazily built on first replay).
    contributions: OnceLock<Vec<Vec<f64>>>,
}

impl<N, E> EdgeDeltaBetweenness<N, E>
where
    N: Clone + Default + Sync,
    E: Clone + Default + Sync,
{
    /// Snapshots `base` under the pair weight `weight`, running one BFS
    /// per live source (`O(n(n+m))` once, amortized over every query).
    ///
    /// `weight` is consulted for ordered live pairs `s ≠ r` and must be
    /// non-negative.
    pub fn new<W>(base: &DiGraph<N, E>, weight: W) -> Self
    where
        W: Fn(NodeId, NodeId) -> f64 + Sync,
    {
        let weight_matrix = materialize_weight(base, &weight);
        let sources: Vec<NodeId> = base.node_ids().collect();
        let trees_in_order = lcg_parallel::par_map(&sources, |&s| bfs(base, s));
        let mut trees: Vec<Option<BfsTree>> = (0..base.node_bound()).map(|_| None).collect();
        for (s, tree) in sources.iter().zip(trees_in_order) {
            trees[s.index()] = Some(tree);
        }
        EdgeDeltaBetweenness {
            base: base.clone(),
            weight: weight_matrix,
            trees,
            sources,
            contributions: OnceLock::new(),
        }
    }

    /// The snapshotted base graph.
    pub fn base(&self) -> &DiGraph<N, E> {
        &self.base
    }

    /// The snapshotted pair weight (zero on self-pairs and tombstones).
    pub fn weight(&self, s: NodeId, r: NodeId) -> f64 {
        self.weight
            .get(s.index())
            .and_then(|row| row.get(r.index()))
            .copied()
            .unwrap_or(0.0)
    }

    /// The base graph with `delta` applied: removals first (both directed
    /// twins of each listed channel, skipping channels that are absent),
    /// then insertions via `add_undirected` (both endpoints must be live).
    pub fn apply(&self, delta: &EdgeDelta) -> DiGraph<N, E> {
        let mut g = self.base.clone();
        for &(x, y) in &delta.remove {
            let (fwd, bwd) = (g.find_edge(x, y), g.find_edge(y, x));
            for e in [fwd, bwd].into_iter().flatten() {
                g.remove_edge(e);
            }
        }
        for &(x, y) in &delta.insert {
            g.add_undirected(x, y, E::default());
        }
        g
    }

    /// Base distance from `s` to `v` out of the snapshot.
    fn base_distance(&self, s: NodeId, v: NodeId) -> u64 {
        self.trees
            .get(s.index())
            .and_then(Option::as_ref)
            .and_then(|t| t.distance(v))
            .map_or(INF, u64::from)
    }

    /// Marks the live sources whose shortest-path structure `delta` can
    /// change (see the module docs for the exact conditions). `updated`
    /// must be the delta applied to the base — it supplies the
    /// post-insertion distances the insertion condition needs. Indexed by
    /// `NodeId::index()`; tombstoned slots stay `false`.
    pub fn affected_sources(&self, updated: &DiGraph<N, E>, delta: &EdgeDelta) -> Vec<bool> {
        let n = self.base.node_bound();
        let mut affected = vec![false; n];
        // Directed forms of removed channels that exist in the base.
        let mut removed_dir: Vec<(NodeId, NodeId)> = Vec::new();
        for &(x, y) in &delta.remove {
            if self.base.find_edge(x, y).is_some() {
                removed_dir.push((x, y));
            }
            if self.base.find_edge(y, x).is_some() {
                removed_dir.push((y, x));
            }
        }
        // One BFS on the updated graph per distinct inserted-edge head.
        let mut heads: Vec<(NodeId, Vec<u64>)> = Vec::new();
        let mut inserted_dir: Vec<(NodeId, usize)> = Vec::new(); // (tail, head slot)
        for &(x, y) in &delta.insert {
            for (tail, head) in [(x, y), (y, x)] {
                if !self.base.contains_node(tail) || !self.base.contains_node(head) {
                    continue;
                }
                let slot = match heads.iter().position(|(h, _)| *h == head) {
                    Some(i) => i,
                    None => {
                        let tree = bfs(updated, head);
                        let dist: Vec<u64> =
                            tree.dist.iter().map(|d| d.map_or(INF, u64::from)).collect();
                        heads.push((head, dist));
                        heads.len() - 1
                    }
                };
                inserted_dir.push((tail, slot));
            }
        }
        for &s in &self.sources {
            let tree = self.trees[s.index()].as_ref().expect("live source tree");
            // Deletion: a removed directed edge on a shortest path from s.
            let mut hit = removed_dir.iter().any(|&(x, y)| {
                let dx = self.base_distance(s, x);
                dx < INF && dx + 1 == self.base_distance(s, y)
            });
            // Insertion: a detour through an inserted edge that matches or
            // beats the base distance to some target.
            if !hit {
                hit = inserted_dir.iter().any(|&(tail, slot)| {
                    let dt = self.base_distance(s, tail);
                    if dt >= INF {
                        return false;
                    }
                    let head_dist = &heads[slot].1;
                    (0..n).any(|r| {
                        if r == s.index() {
                            return false;
                        }
                        let detour = dt + 1 + head_dist[r];
                        let direct = tree.dist[r].map_or(INF, u64::from);
                        detour < INF && detour <= direct
                    })
                });
            }
            affected[s.index()] = hit;
        }
        affected
    }

    /// Per-source base dependency vectors, built on first use.
    fn contributions(&self) -> &Vec<Vec<f64>> {
        self.contributions.get_or_init(|| {
            let run_source = |&s: &NodeId| {
                let tree = self.trees[s.index()].as_ref().expect("live source tree");
                let mut delta = vec![0.0; self.base.node_bound()];
                node_dependencies(&self.base, tree, &|a, b| self.weight(a, b), &mut delta);
                // The from-scratch reduction never adds a source's own
                // dependency; zero it so replaying the vector is exact.
                delta[s.index()] = 0.0;
                delta
            };
            let vectors = lcg_parallel::par_map(&self.sources, run_source);
            let mut out: Vec<Vec<f64>> = (0..self.base.node_bound()).map(|_| Vec::new()).collect();
            for (s, v) in self.sources.iter().zip(vectors) {
                out[s.index()] = v;
            }
            out
        })
    }

    /// The live sources `delta` affects and the query's stats, or
    /// `None` on a base with no live node, where a query runs full
    /// Brandes instead.
    fn plan(
        &self,
        updated: &DiGraph<N, E>,
        delta: &EdgeDelta,
    ) -> Option<(Vec<bool>, DeltaQueryStats)> {
        debug_assert_eq!(
            updated.node_bound(),
            self.base.node_bound(),
            "edge deltas must not change the node set"
        );
        if self.sources.is_empty() {
            return None;
        }
        let affected = self.affected_sources(updated, delta);
        let recomputed_sources = affected.iter().filter(|&&a| a).count();
        let stats = DeltaQueryStats {
            recomputed_sources,
            replayed_sources: self.sources.len() - recomputed_sources,
            fell_back: false,
        };
        Some((affected, stats))
    }

    /// Convenience: applies `delta` internally and evaluates the full
    /// betweenness vector.
    pub fn node_betweenness(&self, delta: &EdgeDelta) -> (NodeScores, DeltaQueryStats) {
        let updated = self.apply(delta);
        self.node_betweenness_on(&updated, delta)
    }

    /// Weighted node betweenness of `updated` (which must equal
    /// [`EdgeDeltaBetweenness::apply`]`(delta)` — same edits, same order —
    /// for the bit-identity guarantee) under the snapshot weight.
    pub fn node_betweenness_on(
        &self,
        updated: &DiGraph<N, E>,
        delta: &EdgeDelta,
    ) -> (NodeScores, DeltaQueryStats) {
        let _span = lcg_obs::span::span("graph/edge_delta/full_query");
        let _timer = lcg_obs::timer!("graph/edge_delta/full_query_ns");
        let weight = |a, b| self.weight(a, b);
        let Some((affected, stats)) = self.plan(updated, delta) else {
            return (weighted_node_betweenness(updated, weight), FELL_BACK);
        };
        let contributions = (stats.replayed_sources > 0).then(|| self.contributions());
        let out_len = updated.node_bound();
        let chunks: Vec<&[NodeId]> = self.sources.chunks(SOURCE_CHUNK).collect();
        let run_chunk = |bufs: &mut SourceBuffers, chunk: &&[NodeId]| {
            let mut partial = vec![0.0; out_len];
            for &s in *chunk {
                if !affected[s.index()] {
                    let cached =
                        &contributions.expect("a replayed source built contributions")[s.index()];
                    for (p, c) in partial.iter_mut().zip(cached) {
                        *p += *c;
                    }
                    continue;
                }
                let delta = bufs.recompute(updated, s, &weight);
                for v in updated.node_ids() {
                    if v != s {
                        partial[v.index()] += delta[v.index()];
                    }
                }
            }
            partial
        };
        let partials = lcg_parallel::par_map_init(&chunks, SourceBuffers::default, run_chunk);
        let scores = lcg_parallel::sum_vecs(vec![0.0; out_len], partials);
        (scores, stats)
    }

    /// One node's betweenness score under the snapshot weight — the
    /// quantity a revenue evaluation needs — from affected sources only.
    pub fn node_score_on(
        &self,
        updated: &DiGraph<N, E>,
        delta: &EdgeDelta,
        v: NodeId,
    ) -> (f64, DeltaQueryStats) {
        let _span = lcg_obs::span::span("graph/edge_delta/score_query");
        let _timer = lcg_obs::timer!("graph/edge_delta/score_query_ns");
        let weight = |a, b| self.weight(a, b);
        let Some((affected, stats)) = self.plan(updated, delta) else {
            let scores = weighted_node_betweenness(updated, weight);
            return (scores.get(v.index()).copied().unwrap_or(0.0), FELL_BACK);
        };
        let contributions = (stats.replayed_sources > 0).then(|| self.contributions());
        let chunks: Vec<&[NodeId]> = self.sources.chunks(SOURCE_CHUNK).collect();
        let run_chunk = |bufs: &mut SourceBuffers, chunk: &&[NodeId]| -> f64 {
            let mut partial = 0.0;
            for &s in *chunk {
                if s == v {
                    // The from-scratch reduction never adds a source's own
                    // dependency to its score.
                    continue;
                }
                partial += if affected[s.index()] {
                    bufs.recompute(updated, s, &weight)[v.index()]
                } else {
                    contributions.expect("a replayed source built contributions")[s.index()]
                        [v.index()]
                };
            }
            partial
        };
        let partials = lcg_parallel::par_map_init(&chunks, SourceBuffers::default, run_chunk);
        let mut score = 0.0;
        for p in partials {
            score += p;
        }
        (score, stats)
    }
}

/// The stats of a query on a base with no live node.
const FELL_BACK: DeltaQueryStats = DeltaQueryStats {
    recomputed_sources: 0,
    replayed_sources: 0,
    fell_back: true,
};

/// Materializes a pair-weight closure into a dense matrix, zero on
/// self-pairs and tombstones.
fn materialize_weight<N, E, W>(g: &DiGraph<N, E>, weight: &W) -> Vec<Vec<f64>>
where
    W: Fn(NodeId, NodeId) -> f64,
{
    let n = g.node_bound();
    (0..n)
        .map(|s| {
            let s = NodeId(s);
            (0..n)
                .map(|r| {
                    let r = NodeId(r);
                    if s != r && g.contains_node(s) && g.contains_node(r) {
                        weight(s, r)
                    } else {
                        0.0
                    }
                })
                .collect()
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::generators;

    fn bit_eq(a: &[f64], b: &[f64]) -> bool {
        a.len() == b.len() && a.iter().zip(b).all(|(x, y)| x.to_bits() == y.to_bits())
    }

    fn check(base: &generators::Topology, delta: &EdgeDelta) {
        let weight = |s: NodeId, r: NodeId| 1.0 + 0.1 * s.index() as f64 + 0.01 * r.index() as f64;
        let engine = EdgeDeltaBetweenness::new(base, weight);
        let updated = engine.apply(delta);
        let expect = weighted_node_betweenness(&updated, |s, r| engine.weight(s, r));
        let (scores, _) = engine.node_betweenness(delta);
        assert!(bit_eq(&scores, &expect), "full vector diverged");
        for v in updated.node_ids() {
            let (score, _) = engine.node_score_on(&updated, delta, v);
            assert_eq!(score.to_bits(), expect[v.index()].to_bits(), "score {v}");
        }
    }

    #[test]
    fn chord_insertion_matches_full_brandes() {
        let base = generators::cycle(8);
        check(
            &base,
            &EdgeDelta {
                insert: vec![(NodeId(0), NodeId(4))],
                remove: vec![],
            },
        );
    }

    #[test]
    fn deletion_and_mixed_batches_match_full_brandes() {
        let base = generators::cycle(8);
        check(
            &base,
            &EdgeDelta {
                insert: vec![],
                remove: vec![(NodeId(2), NodeId(3))],
            },
        );
        check(
            &base,
            &EdgeDelta {
                insert: vec![(NodeId(2), NodeId(6)), (NodeId(0), NodeId(3))],
                remove: vec![(NodeId(2), NodeId(3)), (NodeId(6), NodeId(7))],
            },
        );
    }

    #[test]
    fn distant_edit_leaves_far_sources_replayed() {
        // A long path: rewiring one end cannot disturb shortest paths
        // among nodes on the untouched side.
        let base = generators::path(12);
        let engine = EdgeDeltaBetweenness::new(&base, |_, _| 1.0);
        let delta = EdgeDelta {
            insert: vec![(NodeId(0), NodeId(2))],
            remove: vec![],
        };
        let updated = engine.apply(&delta);
        let affected = engine.affected_sources(&updated, &delta);
        assert!(affected.iter().any(|&a| !a), "some source must be pruned");
        let (_, stats) = engine.node_betweenness_on(&updated, &delta);
        assert!(stats.replayed_sources > 0);
        check(&base, &delta);
    }

    #[test]
    fn disconnect_and_reconnect_corners() {
        let base = generators::path(6);
        // Disconnect: drop the middle channel.
        let cut = EdgeDelta {
            insert: vec![],
            remove: vec![(NodeId(2), NodeId(3))],
        };
        check(&base, &cut);
        // Reconnect elsewhere in the same batch.
        let rewire = EdgeDelta {
            insert: vec![(NodeId(2), NodeId(5))],
            remove: vec![(NodeId(2), NodeId(3))],
        };
        check(&base, &rewire);
    }

    #[test]
    fn apply_then_inverse_restores_scores() {
        let base = generators::cycle(6);
        let weight = |_: NodeId, _: NodeId| 1.0;
        let engine = EdgeDeltaBetweenness::new(&base, weight);
        let delta = EdgeDelta {
            insert: vec![(NodeId(0), NodeId(3))],
            remove: vec![(NodeId(1), NodeId(2))],
        };
        let updated = engine.apply(&delta);
        let round_trip = EdgeDeltaBetweenness::new(&updated, weight).apply(&delta.inverse());
        let original = weighted_node_betweenness(&base, weight);
        let restored = weighted_node_betweenness(&round_trip, weight);
        assert!(bit_eq(&original, &restored), "inverse must restore scores");
    }

    #[test]
    fn empty_delta_replays_everything() {
        let base = generators::star(6);
        let engine = EdgeDeltaBetweenness::new(&base, |_, _| 1.0);
        let delta = EdgeDelta::new();
        let (scores, stats) = engine.node_betweenness(&delta);
        assert_eq!(stats.recomputed_sources, 0);
        assert_eq!(stats.replayed_sources, base.node_count());
        let expect = weighted_node_betweenness(&base, |s, r| engine.weight(s, r));
        assert!(bit_eq(&scores, &expect));
    }
}
