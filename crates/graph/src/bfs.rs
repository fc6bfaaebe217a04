//! Unweighted shortest-path primitives (BFS).
//!
//! The paper measures distances `d(u, v)` in hops (§II-C: expected fees grow
//! with the shortest-path length), so BFS is the workhorse metric. This
//! module provides single-source distances with shortest-path counting (the
//! `σ` values needed for `m(s,r)` and `m_e(s,r)` in Eq. 2), all-pairs
//! distance matrices, connectivity checks, and the diameter used by Thm 6.

use crate::graph::{DiGraph, EdgeId, NodeId};

/// Result of a single-source BFS: hop distances, shortest-path counts and
/// the shortest-path predecessor DAG.
///
/// Indexed by `NodeId::index()`; entries for unreachable or removed nodes
/// hold `dist == None`, `sigma == 0`. A tree filled by a target-bounded
/// [`BfsTree::rerun`] is exact up to the target's distance: every node at
/// most that far from the source holds what a full [`bfs`] would give it,
/// and every farther node reads as unreachable.
#[derive(Debug, Clone)]
pub struct BfsTree {
    /// Source node of the traversal.
    pub source: NodeId,
    /// `dist[v]` = hop distance from source to `v`, `None` if unreachable.
    pub dist: Vec<Option<u32>>,
    /// `sigma[v]` = number of distinct shortest source→v paths (`m(s, v)` in
    /// the paper's notation). Counted as `f64` because path counts grow
    /// exponentially with graph size.
    pub sigma: Vec<f64>,
    /// For each node, the list of edges that lie on some shortest path and
    /// terminate at it (shortest-path predecessors).
    pub pred_edges: Vec<Vec<EdgeId>>,
    /// Nodes in non-decreasing order of distance (BFS finish order); used by
    /// Brandes' dependency accumulation, which walks this in reverse.
    pub order: Vec<NodeId>,
}

impl Default for BfsTree {
    /// An empty tree over no nodes, ready for [`BfsTree::rerun`].
    fn default() -> Self {
        BfsTree {
            source: NodeId(0),
            dist: Vec::new(),
            sigma: Vec::new(),
            pred_edges: Vec::new(),
            order: Vec::new(),
        }
    }
}

impl BfsTree {
    /// Hop distance to `v`, `None` if unreachable.
    pub fn distance(&self, v: NodeId) -> Option<u32> {
        self.dist.get(v.index()).copied().flatten()
    }

    /// Number of shortest paths from the source to `v` (`m(s, v)`).
    pub fn path_count(&self, v: NodeId) -> f64 {
        self.sigma.get(v.index()).copied().unwrap_or(0.0)
    }

    /// Returns `true` if `v` is reachable from the source.
    pub fn is_reachable(&self, v: NodeId) -> bool {
        self.distance(v).is_some()
    }

    /// Re-runs BFS from `source` into this tree, reusing its buffers: the
    /// workspace's one BFS loop, behind [`bfs`] as well.
    ///
    /// Only the entries the previous run reached are reset, so a tree kept
    /// across runs on the same graph allocates nothing once its buffers
    /// have grown. `keep(e, u, v)` is asked about each out-edge `e = u → v`
    /// of the live graph as the traversal visits it, in ascending edge-id
    /// order, and rejected edges are skipped: the run equals [`bfs`] on
    /// `g.filter_edges` with the same test, without building that copy.
    ///
    /// With `target = Some(t)` the run stops once `t`'s layer is settled,
    /// i.e. when every node one hop closer than `t` has been expanded. The
    /// tree is then exact up to `t`'s distance (see [`BfsTree`]), which is
    /// all a path from the source to `t` reads. If `t` is unreachable the
    /// run is a full BFS.
    pub fn rerun<N, E>(
        &mut self,
        g: &DiGraph<N, E>,
        source: NodeId,
        target: Option<NodeId>,
        mut keep: impl FnMut(EdgeId, NodeId, NodeId) -> bool,
    ) {
        if lcg_obs::enabled() {
            lcg_obs::counter!("graph/bfs/runs").inc();
        }
        let BfsTree {
            dist,
            sigma,
            pred_edges,
            order,
            ..
        } = self;
        // Every node the previous run reached was queued into `order`.
        for &v in order.iter() {
            dist[v.index()] = None;
            sigma[v.index()] = 0.0;
            pred_edges[v.index()].clear();
        }
        order.clear();
        let n = g.node_bound();
        dist.resize(n, None);
        sigma.resize(n, 0.0);
        pred_edges.resize_with(n, Vec::new);
        order.reserve(g.node_count());
        self.source = source;
        if !g.contains_node(source) {
            return;
        }

        dist[source.index()] = Some(0);
        sigma[source.index()] = 1.0;
        order.push(source);
        let target = target.map_or(usize::MAX, NodeId::index);
        // Distance of the target's layer once the target is found: nodes
        // at that distance are complete and need no expansion.
        let mut stop = if source.index() == target {
            0
        } else {
            u32::MAX
        };

        // `order` doubles as the FIFO queue: nodes are appended when first
        // reached and expanded in that order from `head`.
        let mut head = 0;
        while let Some(&u) = order.get(head) {
            head += 1;
            let du = dist[u.index()].expect("queued node has distance");
            if du >= stop {
                break;
            }
            let su = sigma[u.index()];
            for e in g.out_edges(u) {
                let (_, v) = g.edge_endpoints(e).expect("live out-edge");
                if !keep(e, u, v) {
                    continue;
                }
                match dist[v.index()] {
                    None => {
                        dist[v.index()] = Some(du + 1);
                        sigma[v.index()] = su;
                        pred_edges[v.index()].push(e);
                        order.push(v);
                        if v.index() == target {
                            stop = du + 1;
                        }
                    }
                    Some(dv) if dv == du + 1 => {
                        sigma[v.index()] += su;
                        pred_edges[v.index()].push(e);
                    }
                    Some(_) => {}
                }
            }
        }
    }
}

/// Runs BFS from `source`, counting shortest paths.
///
/// Runs in `O(n + m)`. Parallel edges each contribute separately to `sigma`
/// (two parallel channels give two distinct paths), matching the multigraph
/// model. This is [`BfsTree::rerun`] into a fresh tree, with no target and
/// every edge kept.
///
/// # Examples
///
/// ```
/// use lcg_graph::{generators, bfs};
///
/// let g = generators::cycle(6);
/// let t = bfs::bfs(&g, lcg_graph::NodeId(0));
/// assert_eq!(t.distance(lcg_graph::NodeId(3)), Some(3));
/// assert_eq!(t.path_count(lcg_graph::NodeId(3)), 2.0); // both ways round
/// ```
pub fn bfs<N, E>(g: &DiGraph<N, E>, source: NodeId) -> BfsTree {
    let mut tree = BfsTree::default();
    tree.rerun(g, source, None, |_, _, _| true);
    tree
}

/// All-pairs hop distances: `matrix[s][t]` for all live node pairs.
///
/// Runs one BFS per live node, `O(n(n + m))` total. Rows and columns for
/// removed nodes are present but hold `None`.
pub fn all_pairs_distances<N, E>(g: &DiGraph<N, E>) -> Vec<Vec<Option<u32>>> {
    let n = g.node_bound();
    let mut matrix = vec![vec![None; n]; n];
    for s in g.node_ids() {
        matrix[s.index()] = bfs(g, s).dist;
    }
    matrix
}

/// Returns `true` if every live node can reach every other live node
/// (strong connectivity under the directed model; for channel graphs built
/// with `add_undirected` this coincides with plain connectivity).
pub fn is_connected<N, E>(g: &DiGraph<N, E>) -> bool {
    let mut ids = g.node_ids();
    let Some(start) = ids.next() else {
        return true; // vacuously connected
    };
    let t = bfs(g, start);
    if g.node_ids().any(|v| !t.is_reachable(v)) {
        return false;
    }
    // For directed graphs also check the reverse direction by scanning each
    // node once: every node must reach `start`.
    g.node_ids().all(|v| bfs(g, v).is_reachable(start))
}

/// Eccentricity of `v`: max hop distance to any reachable node; `None` if
/// some live node is unreachable from `v`.
pub fn eccentricity<N, E>(g: &DiGraph<N, E>, v: NodeId) -> Option<u32> {
    let t = bfs(g, v);
    let mut ecc = 0;
    for u in g.node_ids() {
        ecc = ecc.max(t.distance(u)?);
    }
    Some(ecc)
}

/// Diameter: the longest shortest path between any live pair, `None` if the
/// graph is disconnected. Thm 6 bounds this quantity for stable networks
/// containing a hub.
pub fn diameter<N, E>(g: &DiGraph<N, E>) -> Option<u32> {
    let mut d = 0;
    for v in g.node_ids() {
        d = d.max(eccentricity(g, v)?);
    }
    Some(d)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::generators;

    #[test]
    fn bfs_on_path_gives_linear_distances() {
        let g = generators::path(5);
        let t = bfs(&g, NodeId(0));
        for i in 0..5 {
            assert_eq!(t.distance(NodeId(i)), Some(i as u32));
            assert_eq!(t.path_count(NodeId(i)), 1.0);
        }
    }

    #[test]
    fn bfs_counts_parallel_shortest_paths() {
        // diamond: 0->1->3 and 0->2->3
        let mut g: DiGraph = DiGraph::new();
        let ns = g.add_nodes(4);
        g.add_edge(ns[0], ns[1], ());
        g.add_edge(ns[0], ns[2], ());
        g.add_edge(ns[1], ns[3], ());
        g.add_edge(ns[2], ns[3], ());
        let t = bfs(&g, ns[0]);
        assert_eq!(t.distance(ns[3]), Some(2));
        assert_eq!(t.path_count(ns[3]), 2.0);
        assert_eq!(t.pred_edges[ns[3].index()].len(), 2);
    }

    #[test]
    fn bfs_counts_parallel_edges_as_distinct_paths() {
        let mut g: DiGraph<(), ()> = DiGraph::new();
        let ns = g.add_nodes(2);
        g.add_edge(ns[0], ns[1], ());
        g.add_edge(ns[0], ns[1], ());
        let t = bfs(&g, ns[0]);
        assert_eq!(t.path_count(ns[1]), 2.0);
    }

    #[test]
    fn bfs_marks_unreachable_nodes() {
        let mut g: DiGraph = DiGraph::new();
        let ns = g.add_nodes(3);
        g.add_edge(ns[0], ns[1], ());
        let t = bfs(&g, ns[0]);
        assert_eq!(t.distance(ns[2]), None);
        assert!(!t.is_reachable(ns[2]));
        assert_eq!(t.path_count(ns[2]), 0.0);
    }

    #[test]
    fn bfs_from_removed_node_is_empty() {
        let mut g: DiGraph = DiGraph::new();
        let ns = g.add_nodes(2);
        g.add_edge(ns[0], ns[1], ());
        g.remove_node(ns[0]);
        let t = bfs(&g, ns[0]);
        assert!(t.order.is_empty());
        assert_eq!(t.distance(ns[1]), None);
    }

    #[test]
    fn bfs_respects_edge_direction() {
        let mut g: DiGraph = DiGraph::new();
        let ns = g.add_nodes(2);
        g.add_edge(ns[0], ns[1], ());
        assert_eq!(bfs(&g, ns[1]).distance(ns[0]), None);
    }

    #[test]
    fn cycle_has_two_shortest_paths_to_antipode_when_even() {
        let g = generators::cycle(8);
        let t = bfs(&g, NodeId(0));
        assert_eq!(t.distance(NodeId(4)), Some(4));
        assert_eq!(t.path_count(NodeId(4)), 2.0);
        assert_eq!(t.path_count(NodeId(3)), 1.0);
    }

    #[test]
    fn all_pairs_matches_single_source() {
        let g = generators::star(5);
        let m = all_pairs_distances(&g);
        for s in g.node_ids() {
            let t = bfs(&g, s);
            for v in g.node_ids() {
                assert_eq!(m[s.index()][v.index()], t.distance(v));
            }
        }
    }

    #[test]
    fn connectivity_and_diameter_of_standard_topologies() {
        assert!(is_connected(&generators::star(6)));
        assert!(is_connected(&generators::cycle(7)));
        assert_eq!(diameter(&generators::star(6)), Some(2));
        assert_eq!(diameter(&generators::path(5)), Some(4));
        assert_eq!(diameter(&generators::cycle(8)), Some(4));
        assert_eq!(diameter(&generators::complete(5)), Some(1));
    }

    #[test]
    fn disconnected_graph_has_no_diameter() {
        let mut g: DiGraph = DiGraph::new();
        g.add_nodes(3);
        assert!(!is_connected(&g));
        assert_eq!(diameter(&g), None);
    }

    #[test]
    fn empty_graph_is_vacuously_connected() {
        let g: DiGraph = DiGraph::new();
        assert!(is_connected(&g));
        assert_eq!(diameter(&g), Some(0));
    }

    #[test]
    fn directed_one_way_ring_is_strongly_connected() {
        let mut g: DiGraph = DiGraph::new();
        let ns = g.add_nodes(4);
        for i in 0..4 {
            g.add_edge(ns[i], ns[(i + 1) % 4], ());
        }
        assert!(is_connected(&g));
        assert_eq!(diameter(&g), Some(3));
    }

    #[test]
    fn one_way_path_is_not_strongly_connected() {
        let mut g: DiGraph = DiGraph::new();
        let ns = g.add_nodes(3);
        g.add_edge(ns[0], ns[1], ());
        g.add_edge(ns[1], ns[2], ());
        assert!(!is_connected(&g));
    }

    /// Field-by-field equality, `sigma` compared by bits.
    fn assert_trees_eq(a: &BfsTree, b: &BfsTree) {
        assert_eq!(a.source, b.source);
        assert_eq!(a.dist, b.dist);
        let bits = |t: &BfsTree| t.sigma.iter().map(|x| x.to_bits()).collect::<Vec<_>>();
        assert_eq!(bits(a), bits(b));
        assert_eq!(a.pred_edges, b.pred_edges);
        assert_eq!(a.order, b.order);
    }

    /// An independent oracle for the loop: a plain queue BFS that
    /// allocates a fresh tree, appends to `order` on dequeue, and never
    /// filters or stops early.
    fn textbook_bfs<N, E>(g: &DiGraph<N, E>, source: NodeId) -> BfsTree {
        let n = g.node_bound();
        let mut t = BfsTree {
            source,
            dist: vec![None; n],
            sigma: vec![0.0; n],
            pred_edges: vec![Vec::new(); n],
            order: Vec::new(),
        };
        if !g.contains_node(source) {
            return t;
        }
        t.dist[source.index()] = Some(0);
        t.sigma[source.index()] = 1.0;
        let mut queue = std::collections::VecDeque::from([source]);
        while let Some(u) = queue.pop_front() {
            t.order.push(u);
            let du = t.dist[u.index()].unwrap();
            for e in g.out_edges(u) {
                let v = g.edge_endpoints(e).unwrap().1;
                if t.dist[v.index()].is_none() {
                    t.dist[v.index()] = Some(du + 1);
                    queue.push_back(v);
                }
                if t.dist[v.index()] == Some(du + 1) {
                    t.sigma[v.index()] += t.sigma[u.index()];
                    t.pred_edges[v.index()].push(e);
                }
            }
        }
        t
    }

    #[test]
    fn bfs_matches_a_textbook_queue_bfs() {
        use rand::{rngs::StdRng, SeedableRng};
        let mut rng = StdRng::seed_from_u64(29);
        let mut graphs = vec![
            generators::barabasi_albert(90, 3, &mut rng),
            generators::erdos_renyi(70, 0.05, &mut rng),
        ];
        // Tombstones: a removed node and a few removed edges.
        graphs[0].remove_node(NodeId(4));
        for e in [3, 40, 41, 77] {
            graphs[1].remove_edge(EdgeId(e));
        }
        for g in &graphs {
            for s in 0..g.node_bound() {
                assert_trees_eq(&bfs(g, NodeId(s)), &textbook_bfs(g, NodeId(s)));
            }
        }
    }

    #[test]
    fn target_bounded_rerun_is_exact_up_to_the_target_distance() {
        use rand::{rngs::StdRng, SeedableRng};
        let mut rng = StdRng::seed_from_u64(17);
        let g = generators::barabasi_albert(120, 2, &mut rng);
        // One tree across every pair, so each run also checks the reset.
        let mut tree = BfsTree::default();
        let mut unreached = 0;
        for (s, t) in [(0, 119), (5, 6), (40, 40), (77, 3), (119, 0), (60, 61)] {
            let (s, t) = (NodeId(s), NodeId(t));
            let full = bfs(&g, s);
            tree.rerun(&g, s, Some(t), |_, _, _| true);
            let dt = full.distance(t).expect("BA graphs are connected");
            for v in g.node_ids() {
                let i = v.index();
                if full.dist[i].is_some_and(|d| d <= dt) {
                    assert_eq!(tree.dist[i], full.dist[i], "{s}->{t}: dist of {v}");
                    assert_eq!(tree.sigma[i].to_bits(), full.sigma[i].to_bits());
                    assert_eq!(tree.pred_edges[i], full.pred_edges[i]);
                } else {
                    assert!(!tree.is_reachable(v), "{s}->{t}: {v} beyond d = {dt}");
                    assert_eq!(tree.sigma[i], 0.0);
                    assert!(tree.pred_edges[i].is_empty());
                    unreached += 1;
                }
            }
            let settled: Vec<NodeId> = full
                .order
                .iter()
                .copied()
                .filter(|v| full.dist[v.index()].is_some_and(|d| d <= dt))
                .collect();
            assert_eq!(tree.order, settled, "{s}->{t}: order is the settled prefix");
        }
        assert!(
            unreached > 0,
            "some run must stop before reaching every node"
        );
    }

    #[test]
    fn filtered_rerun_equals_bfs_on_the_filtered_copy() {
        use rand::{rngs::StdRng, SeedableRng};
        let mut rng = StdRng::seed_from_u64(5);
        let mut g = generators::erdos_renyi(80, 0.06, &mut rng);
        g.remove_node(NodeId(3));
        let mut tree = BfsTree::default();
        for keep_mod in [2, 3, 7] {
            let keep = |e: EdgeId, u: NodeId, v: NodeId| {
                !e.index().is_multiple_of(keep_mod) && !(u.index() + v.index()).is_multiple_of(11)
            };
            let copy = g.filter_edges(|e, u, v, _| keep(e, u, v));
            for s in [0, 3, 10, 79] {
                tree.rerun(&g, NodeId(s), None, keep);
                assert_trees_eq(&tree, &bfs(&copy, NodeId(s)));
            }
        }
    }

    #[test]
    fn reused_tree_matches_a_fresh_one_across_graphs() {
        let big = generators::cycle(12);
        let small = generators::path(4);
        let mut tree = BfsTree::default();
        for (g, s) in [(&big, 5), (&small, 1), (&big, 0), (&small, 3)] {
            tree.rerun(g, NodeId(s), None, |_, _, _| true);
            assert_trees_eq(&tree, &bfs(g, NodeId(s)));
        }
        // A removed source leaves an all-unreached tree, as `bfs` does.
        let mut g = generators::star(3);
        g.remove_node(NodeId(0));
        tree.rerun(&g, NodeId(0), Some(NodeId(1)), |_, _, _| true);
        assert_trees_eq(&tree, &bfs(&g, NodeId(0)));
    }
}
