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
//! [`weighted_node_betweenness`](crate::betweenness::weighted_node_betweenness)
//! on the updated graph (with the same effective weight), not merely
//! numerically close:
//!
//! * affected sources are recomputed with the same kernel
//!   ([`node_dependencies`]) after a fresh BFS on the updated graph;
//! * unaffected sources have bit-identical BFS trees on the updated graph
//!   ([`crate::graph::DiGraph::remove_edge`] preserves the relative
//!   adjacency order of surviving edges, insertions append at the tail and
//!   are strictly longer detours for unaffected sources, and no deleted
//!   edge was a predecessor or discovery edge), so replaying their cached
//!   dependency vectors — or re-running the kernel over the cached tree
//!   when only the pair weight changed — reproduces the from-scratch
//!   floating-point operations exactly;
//! * partial sums keep the exact [`SOURCE_CHUNK`] boundaries and chunk
//!   order of the from-scratch reduction (the node set is unchanged, so
//!   the source list and its chunk boundaries are too).
//!
//! ## Per-query weight overrides
//!
//! Deviation evaluation recomputes the Zipf pair distribution on the
//! deviated graph, so the pair weight itself changes per query. The
//! `*_with` query variants take the new weight, compare each sender row
//! **bitwise** against the snapshot, and sort sources into three tiers:
//! **replayed** (tree unaffected, row bit-equal: add the cached vector),
//! **reweighted** (tree unaffected, row changed: re-run the kernel over
//! the cached tree — no BFS), and **recomputed** (tree affected: BFS +
//! kernel). A configurable affected-fraction threshold falls back to full
//! Brandes, which is bit-identical by construction.

use crate::betweenness::{node_dependencies, weighted_node_betweenness, NodeScores, SOURCE_CHUNK};
use crate::bfs::{bfs, BfsTree};
use crate::graph::{DiGraph, NodeId};
use std::sync::atomic::{AtomicU64, Ordering};
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
    /// Sources whose cached tree was reused but whose weight row changed,
    /// so only the dependency kernel re-ran (no BFS).
    pub reweighted_sources: usize,
    /// Sources replayed verbatim from the cached dependency vectors.
    pub replayed_sources: usize,
    /// `true` if the query bypassed pruning and ran full Brandes.
    pub fell_back: bool,
}

/// Cumulative counters across the lifetime of one engine.
#[derive(Debug, Default)]
struct Counters {
    queries: AtomicU64,
    recomputed_sources: AtomicU64,
    reweighted_sources: AtomicU64,
    replayed_sources: AtomicU64,
    fallbacks: AtomicU64,
}

/// Snapshot of the cumulative counters (plain integers, cheap to copy).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct EdgeDeltaStats {
    /// Queries answered (both incremental and fallback).
    pub queries: u64,
    /// Total sources recomputed with BFS + kernel. Fallback queries count
    /// every live source.
    pub recomputed_sources: u64,
    /// Total sources re-run through the kernel over their cached tree.
    pub reweighted_sources: u64,
    /// Total sources replayed from cached dependency vectors.
    pub replayed_sources: u64,
    /// Queries that bypassed pruning entirely.
    pub fallbacks: u64,
}

impl EdgeDeltaStats {
    /// Fraction of per-source BFS work skipped:
    /// `(replayed + reweighted) / total`.
    pub fn pruning_ratio(&self) -> f64 {
        lcg_obs::stats::part_of_total(
            self.replayed_sources + self.reweighted_sources,
            self.recomputed_sources,
        )
    }
}

/// How one source is evaluated by a query.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Tier {
    Replay,
    Reweight,
    Recompute,
}

/// Incremental evaluator of weighted node betweenness under
/// [`EdgeDelta`] updates of a fixed node set.
///
/// Built once per (base graph, weight) pair; each query names the channel
/// edits and (optionally) the new pair weight. See the module docs for the
/// affected-source conditions and the bit-identity guarantee.
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
    /// Recompute everything when the affected fraction exceeds this.
    fallback_fraction: f64,
    counters: Counters,
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
            fallback_fraction: 1.0,
            counters: Counters::default(),
        }
    }

    /// Lowers the affected-fraction threshold above which a query skips
    /// pruning and runs the full Brandes path (default `1.0`: prune
    /// whenever at least one source can skip its BFS).
    pub fn with_fallback_fraction(mut self, fraction: f64) -> Self {
        assert!(
            (0.0..=1.0).contains(&fraction) && !fraction.is_nan(),
            "fallback fraction must lie in [0, 1], got {fraction}"
        );
        self.fallback_fraction = fraction;
        self
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

    /// Cumulative query counters.
    pub fn stats(&self) -> EdgeDeltaStats {
        EdgeDeltaStats {
            queries: self.counters.queries.load(Ordering::Relaxed),
            recomputed_sources: self.counters.recomputed_sources.load(Ordering::Relaxed),
            reweighted_sources: self.counters.reweighted_sources.load(Ordering::Relaxed),
            replayed_sources: self.counters.replayed_sources.load(Ordering::Relaxed),
            fallbacks: self.counters.fallbacks.load(Ordering::Relaxed),
        }
    }

    /// Resets the cumulative counters.
    pub fn reset_stats(&self) {
        self.counters.queries.store(0, Ordering::Relaxed);
        self.counters.recomputed_sources.store(0, Ordering::Relaxed);
        self.counters.reweighted_sources.store(0, Ordering::Relaxed);
        self.counters.replayed_sources.store(0, Ordering::Relaxed);
        self.counters.fallbacks.store(0, Ordering::Relaxed);
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

    fn record(&self, stats: DeltaQueryStats) {
        self.counters.queries.fetch_add(1, Ordering::Relaxed);
        self.counters
            .recomputed_sources
            .fetch_add(stats.recomputed_sources as u64, Ordering::Relaxed);
        self.counters
            .reweighted_sources
            .fetch_add(stats.reweighted_sources as u64, Ordering::Relaxed);
        self.counters
            .replayed_sources
            .fetch_add(stats.replayed_sources as u64, Ordering::Relaxed);
        if stats.fell_back {
            self.counters.fallbacks.fetch_add(1, Ordering::Relaxed);
        }
        // Mirror per-tier accounting into the global registry; one metric
        // per replay/reweight/recompute tier so RunReports expose the
        // tier split without per-engine handles.
        if lcg_obs::enabled() {
            lcg_obs::counter!("graph/edge_delta/queries").inc();
            lcg_obs::counter!("graph/edge_delta/recomputed_sources")
                .add(stats.recomputed_sources as u64);
            lcg_obs::counter!("graph/edge_delta/reweighted_sources")
                .add(stats.reweighted_sources as u64);
            lcg_obs::counter!("graph/edge_delta/replayed_sources")
                .add(stats.replayed_sources as u64);
            if stats.fell_back {
                lcg_obs::counter!("graph/edge_delta/fallbacks").inc();
            }
        }
    }

    /// Per-source evaluation tiers for one query, or `None` when the
    /// affected fraction mandates the full-Brandes fallback.
    fn plan(
        &self,
        updated: &DiGraph<N, E>,
        delta: &EdgeDelta,
        override_rows: Option<&[Vec<f64>]>,
    ) -> Option<Vec<Tier>> {
        debug_assert_eq!(
            updated.node_bound(),
            self.base.node_bound(),
            "edge deltas must not change the node set"
        );
        let affected = self.affected_sources(updated, delta);
        let affected_count = affected.iter().filter(|&&a| a).count();
        let live = self.sources.len();
        if live == 0 || (affected_count as f64) > self.fallback_fraction * live as f64 {
            return None;
        }
        let mut tiers = vec![Tier::Replay; self.base.node_bound()];
        for &s in &self.sources {
            let i = s.index();
            tiers[i] = if affected[i] {
                Tier::Recompute
            } else if override_rows.is_some_and(|rows| !rows_bit_equal(&rows[i], &self.weight[i])) {
                Tier::Reweight
            } else {
                Tier::Replay
            };
        }
        Some(tiers)
    }

    fn query_stats(&self, tiers: &[Tier]) -> DeltaQueryStats {
        let mut stats = DeltaQueryStats::default();
        for &s in &self.sources {
            match tiers[s.index()] {
                Tier::Replay => stats.replayed_sources += 1,
                Tier::Reweight => stats.reweighted_sources += 1,
                Tier::Recompute => stats.recomputed_sources += 1,
            }
        }
        stats
    }

    /// Convenience: applies `delta` internally and evaluates the full
    /// betweenness vector under the snapshot weight.
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
        self.full_query(updated, delta, None)
    }

    /// Like [`EdgeDeltaBetweenness::node_betweenness_on`] with a per-query
    /// pair weight replacing the snapshot weight (consulted for ordered
    /// live pairs `s ≠ r`). Sender rows that are bitwise equal to the
    /// snapshot still replay their cached vectors.
    pub fn node_betweenness_with<W>(
        &self,
        updated: &DiGraph<N, E>,
        delta: &EdgeDelta,
        weight: W,
    ) -> (NodeScores, DeltaQueryStats)
    where
        W: Fn(NodeId, NodeId) -> f64 + Sync,
    {
        let rows = materialize_weight(&self.base, &weight);
        self.full_query(updated, delta, Some(&rows))
    }

    /// One node's betweenness score under the snapshot weight — the
    /// quantity a revenue evaluation needs — from affected sources only.
    pub fn node_score_on(
        &self,
        updated: &DiGraph<N, E>,
        delta: &EdgeDelta,
        v: NodeId,
    ) -> (f64, DeltaQueryStats) {
        self.score_query(updated, delta, v, None)
    }

    /// Like [`EdgeDeltaBetweenness::node_score_on`] with a per-query pair
    /// weight (see [`EdgeDeltaBetweenness::node_betweenness_with`]).
    pub fn node_score_with<W>(
        &self,
        updated: &DiGraph<N, E>,
        delta: &EdgeDelta,
        v: NodeId,
        weight: W,
    ) -> (f64, DeltaQueryStats)
    where
        W: Fn(NodeId, NodeId) -> f64 + Sync,
    {
        let rows = materialize_weight(&self.base, &weight);
        self.score_query(updated, delta, v, Some(&rows))
    }

    fn effective_weight(&self, override_rows: Option<&[Vec<f64>]>, s: NodeId, r: NodeId) -> f64 {
        match override_rows {
            Some(rows) => rows
                .get(s.index())
                .and_then(|row| row.get(r.index()))
                .copied()
                .unwrap_or(0.0),
            None => self.weight(s, r),
        }
    }

    fn full_query(
        &self,
        updated: &DiGraph<N, E>,
        delta: &EdgeDelta,
        override_rows: Option<&[Vec<f64>]>,
    ) -> (NodeScores, DeltaQueryStats) {
        let _span = lcg_obs::span::span("graph/edge_delta/full_query");
        let _timer = lcg_obs::timer!("graph/edge_delta/full_query_ns");
        let out_len = updated.node_bound();
        let Some(tiers) = self.plan(updated, delta, override_rows) else {
            let stats = DeltaQueryStats {
                recomputed_sources: self.sources.len(),
                fell_back: true,
                ..DeltaQueryStats::default()
            };
            self.record(stats);
            let scores = weighted_node_betweenness(updated, |s, r| {
                self.effective_weight(override_rows, s, r)
            });
            return (scores, stats);
        };
        let contributions = if tiers.contains(&Tier::Replay) {
            Some(self.contributions())
        } else {
            None
        };
        let chunks: Vec<&[NodeId]> = self.sources.chunks(SOURCE_CHUNK).collect();
        let run_chunk = |chunk: &&[NodeId]| {
            let mut partial = vec![0.0; out_len];
            let mut delta_buf = vec![0.0; out_len];
            let mut recompute_tree = BfsTree::default();
            for &s in *chunk {
                match tiers[s.index()] {
                    Tier::Replay => {
                        let cached =
                            &contributions.expect("replay tier built contributions")[s.index()];
                        for (p, c) in partial.iter_mut().zip(cached) {
                            *p += *c;
                        }
                    }
                    Tier::Reweight => {
                        let tree = self.trees[s.index()].as_ref().expect("live source tree");
                        node_dependencies(
                            updated,
                            tree,
                            &|a, b| self.effective_weight(override_rows, a, b),
                            &mut delta_buf,
                        );
                        for v in updated.node_ids() {
                            if v != s {
                                partial[v.index()] += delta_buf[v.index()];
                            }
                        }
                    }
                    Tier::Recompute => {
                        recompute_tree.rerun(updated, s, None, |_, _, _| true);
                        node_dependencies(
                            updated,
                            &recompute_tree,
                            &|a, b| self.effective_weight(override_rows, a, b),
                            &mut delta_buf,
                        );
                        for v in updated.node_ids() {
                            if v != s {
                                partial[v.index()] += delta_buf[v.index()];
                            }
                        }
                    }
                }
            }
            partial
        };
        let partials = lcg_parallel::par_map(&chunks, run_chunk);
        let scores = lcg_parallel::sum_vecs(vec![0.0; out_len], partials);
        let stats = self.query_stats(&tiers);
        self.record(stats);
        (scores, stats)
    }

    fn score_query(
        &self,
        updated: &DiGraph<N, E>,
        delta: &EdgeDelta,
        v: NodeId,
        override_rows: Option<&[Vec<f64>]>,
    ) -> (f64, DeltaQueryStats) {
        let _span = lcg_obs::span::span("graph/edge_delta/score_query");
        let _timer = lcg_obs::timer!("graph/edge_delta/score_query_ns");
        let Some(tiers) = self.plan(updated, delta, override_rows) else {
            let stats = DeltaQueryStats {
                recomputed_sources: self.sources.len(),
                fell_back: true,
                ..DeltaQueryStats::default()
            };
            self.record(stats);
            let scores = weighted_node_betweenness(updated, |s, r| {
                self.effective_weight(override_rows, s, r)
            });
            return (scores.get(v.index()).copied().unwrap_or(0.0), stats);
        };
        let contributions = if tiers.contains(&Tier::Replay) {
            Some(self.contributions())
        } else {
            None
        };
        let out_len = updated.node_bound();
        let chunks: Vec<&[NodeId]> = self.sources.chunks(SOURCE_CHUNK).collect();
        let run_chunk = |chunk: &&[NodeId]| -> f64 {
            let mut partial = 0.0;
            let mut delta_buf = Vec::new();
            let mut recompute_tree = BfsTree::default();
            for &s in *chunk {
                if s == v {
                    // The from-scratch reduction never adds a source's own
                    // dependency to its score.
                    continue;
                }
                match tiers[s.index()] {
                    Tier::Replay => {
                        partial += contributions.expect("replay tier built contributions")
                            [s.index()][v.index()];
                    }
                    Tier::Reweight => {
                        if delta_buf.is_empty() {
                            delta_buf = vec![0.0; out_len];
                        }
                        let tree = self.trees[s.index()].as_ref().expect("live source tree");
                        node_dependencies(
                            updated,
                            tree,
                            &|a, b| self.effective_weight(override_rows, a, b),
                            &mut delta_buf,
                        );
                        partial += delta_buf[v.index()];
                    }
                    Tier::Recompute => {
                        if delta_buf.is_empty() {
                            delta_buf = vec![0.0; out_len];
                        }
                        recompute_tree.rerun(updated, s, None, |_, _, _| true);
                        node_dependencies(
                            updated,
                            &recompute_tree,
                            &|a, b| self.effective_weight(override_rows, a, b),
                            &mut delta_buf,
                        );
                        partial += delta_buf[v.index()];
                    }
                }
            }
            partial
        };
        let partials = lcg_parallel::par_map(&chunks, run_chunk);
        let mut score = 0.0;
        for p in partials {
            score += p;
        }
        let stats = self.query_stats(&tiers);
        self.record(stats);
        (score, stats)
    }
}

/// Materializes a pair-weight closure into the same dense matrix layout
/// the snapshot uses (zero on self-pairs and tombstones), so row
/// comparisons are apples to apples.
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

/// Bitwise row equality — the only comparison that preserves the
/// bit-identity guarantee of the replay tier.
fn rows_bit_equal(a: &[f64], b: &[f64]) -> bool {
    a.len() == b.len() && a.iter().zip(b).all(|(x, y)| x.to_bits() == y.to_bits())
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
    fn weight_override_tiers_and_matches() {
        let base = generators::cycle(7);
        let engine = EdgeDeltaBetweenness::new(&base, |_, _| 1.0);
        let delta = EdgeDelta {
            insert: vec![(NodeId(1), NodeId(4))],
            remove: vec![],
        };
        let updated = engine.apply(&delta);
        // Rows 0 and 2 change; everything else is bit-equal to the
        // snapshot.
        let new_weight = |s: NodeId, r: NodeId| {
            if s.index().is_multiple_of(2) {
                2.0 + r.index() as f64
            } else {
                1.0
            }
        };
        let (scores, stats) = engine.node_betweenness_with(&updated, &delta, new_weight);
        let expect =
            weighted_node_betweenness(
                &updated,
                |s: NodeId, r: NodeId| {
                    if s != r {
                        new_weight(s, r)
                    } else {
                        0.0
                    }
                },
            );
        assert!(bit_eq(&scores, &expect), "override vector diverged");
        assert!(stats.reweighted_sources > 0, "even rows must reweight");
        let (score, _) = engine.node_score_with(&updated, &delta, NodeId(2), new_weight);
        assert_eq!(score.to_bits(), expect[2].to_bits());
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
    fn forced_fallback_is_still_bit_identical() {
        let base = generators::cycle(7);
        let engine = EdgeDeltaBetweenness::new(&base, |_, _| 1.0).with_fallback_fraction(0.0);
        let delta = EdgeDelta {
            insert: vec![(NodeId(0), NodeId(3))],
            remove: vec![],
        };
        let updated = engine.apply(&delta);
        let (scores, stats) = engine.node_betweenness_on(&updated, &delta);
        assert!(stats.fell_back);
        let expect = weighted_node_betweenness(&updated, |s, r| engine.weight(s, r));
        assert!(bit_eq(&scores, &expect));
        assert_eq!(engine.stats().fallbacks, 1);
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

    #[test]
    fn stats_accumulate_and_reset() {
        let base = generators::cycle(5);
        let engine = EdgeDeltaBetweenness::new(&base, |_, _| 1.0);
        let delta = EdgeDelta {
            insert: vec![(NodeId(0), NodeId(2))],
            remove: vec![],
        };
        engine.node_betweenness(&delta);
        engine.node_betweenness(&delta);
        let stats = engine.stats();
        assert_eq!(stats.queries, 2);
        assert_eq!(
            stats.replayed_sources + stats.reweighted_sources + stats.recomputed_sources,
            2 * base.node_count() as u64
        );
        engine.reset_stats();
        assert_eq!(engine.stats(), EdgeDeltaStats::default());
    }
}
