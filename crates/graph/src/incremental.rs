//! Incremental weighted betweenness of a new node joining a fixed host.
//!
//! Algorithm 1/2 candidate scoring asks for the weighted Brandes
//! betweenness of a new node `u` on an *augmented* graph that differs
//! from the host by exactly `u` and a handful of channels.
//! [`IncrementalBetweenness`] snapshots the host's per-source BFS trees
//! once and then answers "`u`'s betweenness on `host + {u, channels(u)}`"
//! by recomputing only the sources whose shortest-path structure the new
//! node can actually change.
//!
//! ## The affected-source condition
//!
//! Fix a source `s` and let `T` be the host endpoints of `u`'s channels.
//! Write `a(s) = min_{t∈T} d(s, t)` and `b(r) = min_{t∈T} d(t, r)`, all
//! distances measured *in the host*. Any `s → r` path through `u` enters
//! `u` from some `t₁ ∈ T` and leaves toward some `t₂ ∈ T`, so its length
//! is at least `a(s) + 2 + b(r)`; conversely the walk
//! `s ⇝ t₁ → u → t₂ ⇝ r` realizes exactly that length. Hence the source
//! `s` is **affected** — some host node's distance or shortest-path count
//! from `s` changes, or `u` intermediates some `(s, r)` pair — if and
//! only if
//!
//! ```text
//! ∃ r ≠ s :  a(s) + 2 + b(r) ≤ d(s, r)        (∞ = unreachable)
//! ```
//!
//! (`<` means a distance drops, `=` means new equal-length shortest paths
//! appear and `σ` grows; when the minima are realized by the same `t` the
//! triangle inequality gives `a + 2 + b ≥ d + 2`, so the condition can
//! only trigger through a genuine simple path.) The test is *exact*: no
//! false positives, no false negatives. An unaffected source has no
//! shortest path through `u`, so its share of `u`'s score is exactly
//! `+0.0` and it is skipped.
//!
//! ## Bit-identity
//!
//! The new node's score is guaranteed bit-identical to its entry of
//! [`weighted_node_betweenness`](crate::betweenness::weighted_node_betweenness)
//! on the augmented graph, not merely numerically close:
//!
//! * affected sources are recomputed with the *same* kernel
//!   ([`node_dependencies`](crate::betweenness::node_dependencies)) on
//!   the same augmented graph;
//! * unaffected sources and the new node itself add exact `+0.0` terms
//!   to the new node's score, so skipping them changes no bit;
//! * partial sums keep the exact [`SOURCE_CHUNK`] boundaries and chunk
//!   order of the from-scratch reduction.
//!
//! The only caller obligation is the one the paper's model already
//! satisfies: pair weights are **non-negative** and pairs involving the
//! new node weigh **zero** (`p_trans` covers host pairs only).
//!
//! A host with no live node has nothing to prune; that query runs the
//! full Brandes path, which is bit-identical by construction.

use crate::betweenness::{weighted_node_betweenness, SourceBuffers, SOURCE_CHUNK};
use crate::bfs::{bfs, BfsTree};
use crate::graph::{DiGraph, NodeId};
use std::sync::atomic::{AtomicU64, Ordering};

/// Distance sentinel for "unreachable" in the pruning arithmetic.
const INF: u64 = u64::MAX / 4;

/// Per-query breakdown returned alongside incremental results.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct QueryStats {
    /// Sources whose dependency trees had to be recomputed (excluding the
    /// new node itself).
    pub recomputed_sources: usize,
    /// Unaffected sources, skipped.
    pub cached_sources: usize,
    /// `true` if the query ran full Brandes (only on a host with no live
    /// node).
    pub fell_back: bool,
}

/// Cumulative counters across the lifetime of one engine.
#[derive(Debug, Default)]
struct Counters {
    queries: AtomicU64,
    recomputed_sources: AtomicU64,
    cached_sources: AtomicU64,
    fallbacks: AtomicU64,
}

/// Snapshot of the cumulative counters (plain integers, cheap to copy).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct IncrementalStats {
    /// Queries answered (both incremental and fallback).
    pub queries: u64,
    /// Total sources recomputed with the full kernel. Fallback queries
    /// count every live source plus the new node.
    pub recomputed_sources: u64,
    /// Total unaffected sources skipped.
    pub cached_sources: u64,
    /// Queries that ran full Brandes (hosts with no live node).
    pub fallbacks: u64,
}

impl IncrementalStats {
    /// Fraction of per-source work skipped: `cached / (cached + recomputed)`.
    pub fn pruning_ratio(&self) -> f64 {
        lcg_obs::stats::part_of_total(self.cached_sources, self.recomputed_sources)
    }
}

/// Incremental evaluator of the new node's weighted betweenness on
/// `host + {u, channels(u)}` augmentations.
///
/// Built once per (host, weight) pair; each query names only the host
/// endpoints of the new node's channels. See the module docs for the
/// affected-source condition and the bit-identity guarantee.
///
/// # Examples
///
/// ```
/// use lcg_graph::{generators, NodeId};
/// use lcg_graph::betweenness::weighted_node_betweenness;
/// use lcg_graph::incremental::IncrementalBetweenness;
///
/// let host = generators::star(5);
/// let engine = IncrementalBetweenness::new(&host, |_, _| 1.0);
/// let targets = [NodeId(0), NodeId(2)];
/// let (score, _) = engine.new_node_score(&targets);
/// let full = weighted_node_betweenness(&engine.augment(&targets), |s, r| {
///     engine.weight(s, r)
/// });
/// assert_eq!(score.to_bits(), full[engine.new_node().index()].to_bits());
/// ```
#[derive(Debug)]
pub struct IncrementalBetweenness<N = (), E = ()> {
    host: DiGraph<N, E>,
    /// Host-pair weights, `weight[s][r]`; zero on and outside the host.
    weight: Vec<Vec<f64>>,
    /// One BFS tree per live host source (`None` for tombstoned ids).
    trees: Vec<Option<BfsTree>>,
    /// Live host sources in index order (the from-scratch source order).
    sources: Vec<NodeId>,
    counters: Counters,
}

impl<N, E> IncrementalBetweenness<N, E>
where
    N: Clone + Default + Sync,
    E: Clone + Default + Sync,
{
    /// Snapshots `host` under the pair weight `weight`, running one BFS
    /// per live source (`O(n(n+m))` once, amortized over every query).
    ///
    /// `weight` is consulted for ordered live host pairs `s ≠ r` and must
    /// be non-negative; pairs involving the future new node are defined
    /// to weigh zero, matching the paper's fixed `p_trans` convention.
    pub fn new<W>(host: &DiGraph<N, E>, weight: W) -> Self
    where
        W: Fn(NodeId, NodeId) -> f64 + Sync,
    {
        let n = host.node_bound();
        let weight_matrix: Vec<Vec<f64>> = (0..n)
            .map(|s| {
                let s = NodeId(s);
                (0..n)
                    .map(|r| {
                        let r = NodeId(r);
                        if s != r && host.contains_node(s) && host.contains_node(r) {
                            weight(s, r)
                        } else {
                            0.0
                        }
                    })
                    .collect()
            })
            .collect();
        let sources: Vec<NodeId> = host.node_ids().collect();
        let trees_in_order = lcg_parallel::par_map(&sources, |&s| bfs(host, s));
        let mut trees: Vec<Option<BfsTree>> = (0..n).map(|_| None).collect();
        for (s, tree) in sources.iter().zip(trees_in_order) {
            trees[s.index()] = Some(tree);
        }
        IncrementalBetweenness {
            host: host.clone(),
            weight: weight_matrix,
            trees,
            sources,
            counters: Counters::default(),
        }
    }

    /// The snapshotted host (without the new node).
    pub fn host(&self) -> &DiGraph<N, E> {
        &self.host
    }

    /// Id the new node receives in augmented graphs.
    pub fn new_node(&self) -> NodeId {
        NodeId(self.host.node_bound())
    }

    /// The snapshotted pair weight (zero on self-pairs, tombstones and
    /// anything outside the host — including the new node).
    pub fn weight(&self, s: NodeId, r: NodeId) -> f64 {
        self.weight
            .get(s.index())
            .and_then(|row| row.get(r.index()))
            .copied()
            .unwrap_or(0.0)
    }

    /// Cumulative query counters.
    pub fn stats(&self) -> IncrementalStats {
        IncrementalStats {
            queries: self.counters.queries.load(Ordering::Relaxed),
            recomputed_sources: self.counters.recomputed_sources.load(Ordering::Relaxed),
            cached_sources: self.counters.cached_sources.load(Ordering::Relaxed),
            fallbacks: self.counters.fallbacks.load(Ordering::Relaxed),
        }
    }

    /// Resets the cumulative counters.
    pub fn reset_stats(&self) {
        self.counters.queries.store(0, Ordering::Relaxed);
        self.counters.recomputed_sources.store(0, Ordering::Relaxed);
        self.counters.cached_sources.store(0, Ordering::Relaxed);
        self.counters.fallbacks.store(0, Ordering::Relaxed);
    }

    /// The host plus the new node and one undirected channel per entry of
    /// `targets`, added in order (duplicates create parallel channels;
    /// dead targets are skipped) — the exact augmentation every query
    /// evaluates, with edge ids matching what any caller building the
    /// same graph the same way would produce.
    pub fn augment(&self, targets: &[NodeId]) -> DiGraph<N, E> {
        let mut g = self.host.clone();
        let u = g.add_node(N::default());
        debug_assert_eq!(u, self.new_node());
        for &t in targets {
            if g.contains_node(t) && t != u {
                g.add_undirected(u, t, E::default());
            }
        }
        g
    }

    /// Host distance from `s` to `v` out of the snapshot.
    fn host_distance(&self, s: NodeId, v: NodeId) -> u64 {
        self.trees
            .get(s.index())
            .and_then(Option::as_ref)
            .and_then(|t| t.distance(v))
            .map_or(INF, u64::from)
    }

    /// Marks the live host sources whose shortest-path structure the new
    /// node can change (see the module docs for the exact condition).
    /// Indexed by `NodeId::index()`; tombstoned slots stay `false`.
    pub fn affected_sources(&self, targets: &[NodeId]) -> Vec<bool> {
        let n = self.host.node_bound();
        let mut affected = vec![false; n];
        let live_targets: Vec<NodeId> = targets
            .iter()
            .copied()
            .filter(|&t| self.host.contains_node(t))
            .collect();
        if live_targets.is_empty() {
            return affected;
        }
        // b[r] = min over targets t of d(t, r), from the cached trees.
        let mut b = vec![INF; n];
        for &t in &live_targets {
            if let Some(tree) = self.trees.get(t.index()).and_then(Option::as_ref) {
                for (r, d) in tree.dist.iter().enumerate() {
                    if let Some(d) = d {
                        b[r] = b[r].min(u64::from(*d));
                    }
                }
            }
        }
        for &s in &self.sources {
            // a(s) = min over targets t of d(s, t) = d(s, u) − 1.
            let a = live_targets
                .iter()
                .map(|&t| self.host_distance(s, t))
                .min()
                .unwrap_or(INF);
            if a >= INF {
                continue; // u unreachable from s: nothing can change
            }
            let tree = self.trees[s.index()].as_ref().expect("live source tree");
            let hit = (0..n).any(|r| {
                if r == s.index() {
                    return false;
                }
                let detour = a + 2 + b[r];
                let direct = tree.dist[r].map_or(INF, u64::from);
                detour <= direct && detour < INF
            });
            affected[s.index()] = hit;
        }
        affected
    }

    fn record(&self, stats: QueryStats) {
        self.counters.queries.fetch_add(1, Ordering::Relaxed);
        self.counters
            .recomputed_sources
            .fetch_add(stats.recomputed_sources as u64, Ordering::Relaxed);
        self.counters
            .cached_sources
            .fetch_add(stats.cached_sources as u64, Ordering::Relaxed);
        if stats.fell_back {
            self.counters.fallbacks.fetch_add(1, Ordering::Relaxed);
        }
        // Mirror the per-engine counters into the global registry so
        // RunReports see affected-source pruning without threading engine
        // handles through callers.
        if lcg_obs::enabled() {
            lcg_obs::counter!("graph/incremental/queries").inc();
            lcg_obs::counter!("graph/incremental/recomputed_sources")
                .add(stats.recomputed_sources as u64);
            lcg_obs::counter!("graph/incremental/cached_sources").add(stats.cached_sources as u64);
            if stats.fell_back {
                lcg_obs::counter!("graph/incremental/fallbacks").inc();
            }
        }
    }

    /// The new node's own betweenness score — the quantity every oracle
    /// evaluation needs — computed from affected sources only.
    ///
    /// Builds the augmentation internally; see
    /// [`IncrementalBetweenness::new_node_score_on`] to reuse a graph the
    /// caller already built.
    pub fn new_node_score(&self, targets: &[NodeId]) -> (f64, QueryStats) {
        let aug = self.augment(targets);
        self.new_node_score_on(&aug, targets)
    }

    /// Like [`IncrementalBetweenness::new_node_score`], against a
    /// caller-built augmented graph (which must equal
    /// [`IncrementalBetweenness::augment`]`(targets)` — same host clone,
    /// same node, same channel insertion order — for the bit-identity
    /// guarantee to hold).
    pub fn new_node_score_on(&self, aug: &DiGraph<N, E>, targets: &[NodeId]) -> (f64, QueryStats) {
        debug_assert_eq!(aug.node_bound(), self.host.node_bound() + 1);
        let u = self.new_node();
        if self.sources.is_empty() {
            // No live host node: nothing to prune.
            let stats = QueryStats {
                recomputed_sources: 1,
                cached_sources: 0,
                fell_back: true,
            };
            self.record(stats);
            let scores = weighted_node_betweenness(aug, |s, r| self.weight(s, r));
            return (scores.get(u.index()).copied().unwrap_or(0.0), stats);
        }
        let affected = self.affected_sources(targets);
        let affected_count = affected.iter().filter(|&&a| a).count();
        // Unaffected sources contribute exactly +0.0 to the new node, and
        // the new node (as a source) contributes nothing to itself, so
        // only affected host sources matter. Chunk boundaries follow the
        // augmented source list to preserve the from-scratch grouping.
        let aug_sources: Vec<NodeId> = aug.node_ids().collect();
        let chunks: Vec<&[NodeId]> = aug_sources.chunks(SOURCE_CHUNK).collect();
        let run_chunk = |bufs: &mut SourceBuffers, chunk: &&[NodeId]| -> f64 {
            let mut partial = 0.0;
            for &s in *chunk {
                if s == u || !affected[s.index()] {
                    continue;
                }
                partial += bufs.recompute(aug, s, &|a, b| self.weight(a, b))[u.index()];
            }
            partial
        };
        let partials = lcg_parallel::par_map_init(&chunks, SourceBuffers::default, run_chunk);
        let mut score = 0.0;
        for p in partials {
            score += p;
        }
        let stats = QueryStats {
            recomputed_sources: affected_count,
            cached_sources: self.sources.len() - affected_count,
            fell_back: false,
        };
        self.record(stats);
        (score, stats)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::betweenness::weighted_node_betweenness;
    use crate::generators;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    fn check_host(host: &generators::Topology, targets: &[NodeId]) {
        let weight = |s: NodeId, r: NodeId| 1.0 + 0.1 * s.index() as f64 + 0.01 * r.index() as f64;
        let engine = IncrementalBetweenness::new(host, weight);
        let aug = engine.augment(targets);
        let expect = weighted_node_betweenness(&aug, |s, r| engine.weight(s, r));
        let (score, _) = engine.new_node_score(targets);
        assert_eq!(
            score.to_bits(),
            expect[engine.new_node().index()].to_bits(),
            "new-node score diverged"
        );
    }

    #[test]
    fn star_attachments_match_full_brandes() {
        let host = generators::star(6);
        for targets in [
            vec![NodeId(0)],
            vec![NodeId(1)],
            vec![NodeId(1), NodeId(4)],
            vec![NodeId(0), NodeId(1), NodeId(2)],
        ] {
            check_host(&host, &targets);
        }
    }

    #[test]
    fn leaf_attachment_prunes_most_sources() {
        // Attaching to a single star leaf creates no shortcut for anyone
        // except pairs ending at the new node (weight 0): only the leaf's
        // own tree gains equal-length paths… in fact none do.
        let host = generators::star(8);
        let engine = IncrementalBetweenness::new(&host, |_, _| 1.0);
        let affected = engine.affected_sources(&[NodeId(3)]);
        let count = affected.iter().filter(|&&a| a).count();
        assert!(
            count < host.node_count(),
            "pruning must skip at least one source, kept {count}"
        );
        // And the pruned answer still matches the full recomputation.
        check_host(&host, &[NodeId(3)]);
    }

    #[test]
    fn bridging_disconnected_components_is_detected() {
        let mut host: generators::Topology = DiGraph::new();
        let ns = host.add_nodes(6);
        host.add_undirected(ns[0], ns[1], ());
        host.add_undirected(ns[1], ns[2], ());
        host.add_undirected(ns[3], ns[4], ());
        host.add_undirected(ns[4], ns[5], ());
        // Bridging the two paths affects every source.
        let engine = IncrementalBetweenness::new(&host, |_, _| 1.0);
        let affected = engine.affected_sources(&[ns[0], ns[3]]);
        assert!(affected.iter().all(|&a| a), "bridge affects everyone");
        check_host(&host, &[ns[0], ns[3]]);
        // A channel into one component leaves the other unaffected.
        let one_side = engine.affected_sources(&[ns[0]]);
        assert!(!one_side[ns[3].index()] && !one_side[ns[4].index()]);
        check_host(&host, &[ns[0]]);
    }

    #[test]
    fn random_hosts_and_channel_counts_are_bit_identical() {
        let mut rng = StdRng::seed_from_u64(1203);
        for trial in 0..6 {
            let host = match generators::connected_erdos_renyi(14, 0.25, &mut rng, 200) {
                Some(g) => g,
                None => continue,
            };
            for channels in 1..=5 {
                let targets: Vec<NodeId> = (0..channels)
                    .map(|i| NodeId((i * 3 + trial) % 14))
                    .collect();
                check_host(&host, &targets);
            }
        }
        let host = generators::barabasi_albert(30, 2, &mut rng);
        check_host(&host, &[NodeId(0), NodeId(7), NodeId(19)]);
    }

    #[test]
    fn degenerate_queries_fall_back_or_prune_cleanly() {
        // Single-node host: the only source never routes anything.
        let host = generators::path(1);
        check_host(&host, &[NodeId(0)]);
        // Empty host: nothing to prune, so the query runs full Brandes.
        let host = generators::Topology::new();
        check_host(&host, &[]);
        let engine = IncrementalBetweenness::new(&host, |_, _| 1.0);
        assert!(engine.new_node_score(&[]).1.fell_back);
        // Empty target set: u is isolated, nothing changes.
        let host = generators::cycle(5);
        check_host(&host, &[]);
        // Dead / out-of-range targets are skipped like the oracle does.
        check_host(&host, &[NodeId(99), NodeId(1)]);
    }

    #[test]
    fn parallel_channels_count_multiply() {
        let host = generators::path(4);
        check_host(&host, &[NodeId(1), NodeId(1), NodeId(2)]);
    }

    #[test]
    fn stats_accumulate_and_reset() {
        let host = generators::star(5);
        let engine = IncrementalBetweenness::new(&host, |_, _| 1.0);
        engine.new_node_score(&[NodeId(0)]);
        engine.new_node_score(&[NodeId(1)]);
        let stats = engine.stats();
        assert_eq!(stats.queries, 2);
        assert_eq!(
            stats.cached_sources + stats.recomputed_sources,
            2 * host.node_count() as u64
        );
        engine.reset_stats();
        assert_eq!(engine.stats(), IncrementalStats::default());
    }
}
