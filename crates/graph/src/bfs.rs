//! Unweighted shortest-path primitives (BFS).
//!
//! The paper measures distances `d(u, v)` in hops (§II-C: expected fees grow
//! with the shortest-path length), so BFS is the workhorse metric. This
//! module provides single-source distances with shortest-path counting (the
//! `σ` values needed for `m(s,r)` and `m_e(s,r)` in Eq. 2), all-pairs
//! distance matrices, connectivity checks, the diameter used by Thm 6, and
//! [`PathSampler`], which draws the uniform shortest path a payment takes.

use crate::graph::{DiGraph, EdgeId, NodeId};
use rand::Rng;

/// Result of a single-source BFS: hop distances, shortest-path counts and
/// the shortest-path predecessor DAG.
///
/// Indexed by `NodeId::index()`; entries for unreachable or removed nodes
/// hold `dist == None`, `sigma == 0`.
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
    /// have grown.
    pub fn rerun<N, E>(&mut self, g: &DiGraph<N, E>, source: NodeId) {
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

        // `order` doubles as the FIFO queue: nodes are appended when first
        // reached and expanded in that order from `head`.
        let mut head = 0;
        while let Some(&u) = order.get(head) {
            head += 1;
            let du = dist[u.index()].expect("queued node has distance");
            let su = sigma[u.index()];
            for e in g.out_edges(u) {
                let (_, v) = g.edge_endpoints(e).expect("live out-edge");
                match dist[v.index()] {
                    None => {
                        dist[v.index()] = Some(du + 1);
                        sigma[v.index()] = su;
                        pred_edges[v.index()].push(e);
                        order.push(v);
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
/// model. This is [`BfsTree::rerun`] into a fresh tree.
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
    tree.rerun(g, source);
    tree
}

/// Per-node state of one [`PathSampler`] call.
#[derive(Debug, Clone, Copy)]
struct Mark {
    /// Hops from the sender, [`UNSEEN`] until the forward search reaches
    /// the node.
    fwd: u32,
    /// Hops to the receiver, [`UNSEEN`] until the backward search reaches
    /// the node.
    bwd: u32,
    /// Index in `PathSampler::fwd_order`; read only while `fwd` is set.
    pos: usize,
    /// Shortest sender→node path count; read only while `fwd` is set.
    sigma: f64,
}

/// Distance of a node a search has not reached.
const UNSEEN: u32 = u32::MAX;

impl Default for Mark {
    fn default() -> Self {
        Mark {
            fwd: UNSEEN,
            bwd: UNSEEN,
            pos: 0,
            sigma: 0.0,
        }
    }
}

/// Samples one shortest `s → r` path uniformly at random, visiting only
/// what the sample needs.
///
/// [`PathSampler::sample`] returns the same path, and draws the same
/// numbers from its RNG, as [`bfs`] over the edges `keep` accepts followed
/// by a backward walk of that tree (`lcg_sim::network::sample_path_from_tree`).
/// A uniform path needs `σ` only on the shortest-path DAG between `s` and
/// `r` (Brandes' counting), so each call works in three steps:
///
/// 1. **Meet.** Two searches grow one whole layer at a time, forward over
///    kept out-edges from `s` and backward over kept in-edges into `r`,
///    whichever frontier has the smaller degree sum first. They stop when
///    a layer reaches a node the other side has reached: at forward layer
///    `L` and backward layer `b`, so `d(s, r) = L + b`. Forward layers
///    `0..=L` are the reference BFS's own prefix: same nodes, same order,
///    same `σ` bits.
/// 2. **Extend.** Forward `σ` grows over layers `L+1..=d`, passing only
///    through nodes whose backward distance is `d − k` at layer `k`, each
///    layer in discovery order and each node's out-edges in ascending id.
///    Every predecessor of a DAG node is a DAG node, so this keeps the
///    reference's relative order within each layer and sums each `σ` in
///    the reference's order.
/// 3. **Walk.** From `r` back to `s`, the predecessors of each node are its
///    kept in-edges from the previous layer, ordered by the tail's BFS
///    position and then by edge id, as the reference lists them. Each hop
///    draws one `gen_range(0.0..total)` over the tails' `σ`.
///
/// `keep(e, u, v)` is a pure test of the edge `e = u → v`: every edge the
/// searches or the walk use passes it. Edges that cannot change the result,
/// such as those into nodes a search has already settled, are not asked
/// about, and the calls come in no fixed order. A call resets only the
/// nodes the previous call reached, so one sampler kept across calls
/// allocates nothing but the returned path once its buffers have grown.
///
/// # Examples
///
/// ```
/// use lcg_graph::{bfs::PathSampler, generators, NodeId};
/// use rand::{rngs::StdRng, SeedableRng};
///
/// let g = generators::cycle(6);
/// let mut sampler = PathSampler::default();
/// let mut rng = StdRng::seed_from_u64(1);
/// let path = sampler.sample(&g, NodeId(0), NodeId(3), |_, _, _| true, &mut rng);
/// assert_eq!(path.map(|p| p.len()), Some(3)); // either way round
/// ```
#[derive(Debug, Default)]
pub struct PathSampler {
    marks: Vec<Mark>,
    /// Nodes the forward search reached, layer by layer in discovery order.
    fwd_order: Vec<NodeId>,
    /// Nodes the backward search reached, layer by layer.
    bwd_order: Vec<NodeId>,
    /// One hop's predecessors as `(tail's index in fwd_order, edge)`.
    preds: Vec<(usize, EdgeId)>,
}

impl PathSampler {
    /// Samples a shortest `s → r` path over the edges `keep` accepts, as
    /// its edge ids from `s`. Returns `Some(vec![])` without a draw when
    /// `s == r` is live, and `None` when either end is not live or `r` is
    /// unreachable.
    pub fn sample<N, E, R: Rng + ?Sized>(
        &mut self,
        g: &DiGraph<N, E>,
        s: NodeId,
        r: NodeId,
        keep: impl Fn(EdgeId, NodeId, NodeId) -> bool,
        rng: &mut R,
    ) -> Option<Vec<EdgeId>> {
        if lcg_obs::enabled() {
            lcg_obs::counter!("graph/bfs/runs").inc();
        }
        self.reset(g.node_bound());
        if !g.contains_node(s) || !g.contains_node(r) {
            return None;
        }
        if s == r {
            return Some(Vec::new());
        }
        let (l, b, lo) = self.meet(g, s, r, &keep)?;
        self.extend(g, l, l + b, lo, &keep);
        Some(self.walk(g, s, r, l + b, &keep, rng))
    }

    /// Clears what the previous call reached and sizes the marks for `n`
    /// nodes.
    fn reset(&mut self, n: usize) {
        let PathSampler {
            marks,
            fwd_order,
            bwd_order,
            ..
        } = self;
        for v in fwd_order.drain(..).chain(bwd_order.drain(..)) {
            marks[v.index()] = Mark::default();
        }
        marks.resize(n, Mark::default());
    }

    /// Step 1: grows the cheaper frontier one layer at a time until the
    /// searches meet. Returns the forward radius `L`, the backward radius
    /// `b` and where forward layer `L` starts in `fwd_order`; `None` once
    /// a frontier empties, since `r` is then unreachable.
    fn meet<N, E>(
        &mut self,
        g: &DiGraph<N, E>,
        s: NodeId,
        r: NodeId,
        keep: &impl Fn(EdgeId, NodeId, NodeId) -> bool,
    ) -> Option<(u32, u32, usize)> {
        let PathSampler {
            marks,
            fwd_order,
            bwd_order,
            ..
        } = self;
        marks[s.index()] = Mark {
            fwd: 0,
            pos: 0,
            sigma: 1.0,
            ..marks[s.index()]
        };
        fwd_order.push(s);
        marks[r.index()].bwd = 0;
        bwd_order.push(r);
        // Radius, first index of the frontier layer, and the frontier's
        // degree sum on each side.
        let (mut l, mut f_lo, mut f_cost) = (0, 0, g.out_degree(s));
        let (mut b, mut b_lo, mut b_cost) = (0, 0, g.in_degree(r));
        loop {
            let mut met = false;
            if f_cost <= b_cost {
                let hi = fwd_order.len();
                f_cost = 0;
                for i in f_lo..hi {
                    let u = fwd_order[i];
                    let su = marks[u.index()].sigma;
                    for e in g.out_edges(u) {
                        let (_, v) = g.edge_endpoints(e).expect("live out-edge");
                        let m = &mut marks[v.index()];
                        if m.fwd <= l || !keep(e, u, v) {
                            continue;
                        }
                        if m.fwd == UNSEEN {
                            m.fwd = l + 1;
                            m.pos = fwd_order.len();
                            m.sigma = su;
                            met |= m.bwd != UNSEEN;
                            fwd_order.push(v);
                            f_cost += g.out_degree(v);
                        } else {
                            m.sigma += su;
                        }
                    }
                }
                (l, f_lo) = (l + 1, hi);
                if f_lo == fwd_order.len() {
                    return None;
                }
            } else {
                let hi = bwd_order.len();
                b_cost = 0;
                for i in b_lo..hi {
                    let v = bwd_order[i];
                    for e in g.in_edges(v) {
                        let (u, _) = g.edge_endpoints(e).expect("live in-edge");
                        let m = &mut marks[u.index()];
                        if m.bwd != UNSEEN || !keep(e, u, v) {
                            continue;
                        }
                        m.bwd = b + 1;
                        met |= m.fwd != UNSEEN;
                        bwd_order.push(u);
                        b_cost += g.in_degree(u);
                    }
                }
                (b, b_lo) = (b + 1, hi);
                if b_lo == bwd_order.len() {
                    return None;
                }
            }
            if met {
                return Some((l, b, f_lo));
            }
        }
    }

    /// Step 2: extends forward `σ` from layer `l` (starting at `lo` in
    /// `fwd_order`) to layer `d`, through the DAG nodes alone.
    fn extend<N, E>(
        &mut self,
        g: &DiGraph<N, E>,
        l: u32,
        d: u32,
        mut lo: usize,
        keep: &impl Fn(EdgeId, NodeId, NodeId) -> bool,
    ) {
        let PathSampler {
            marks, fwd_order, ..
        } = self;
        for k in l..d {
            let hi = fwd_order.len();
            for i in lo..hi {
                let u = fwd_order[i];
                let Mark { bwd, sigma: su, .. } = marks[u.index()];
                if bwd != d - k {
                    continue;
                }
                for e in g.out_edges(u) {
                    let (_, v) = g.edge_endpoints(e).expect("live out-edge");
                    let m = &mut marks[v.index()];
                    if m.bwd != d - k - 1 || !keep(e, u, v) {
                        continue;
                    }
                    if m.fwd == UNSEEN {
                        m.fwd = k + 1;
                        m.pos = fwd_order.len();
                        m.sigma = su;
                        fwd_order.push(v);
                    } else {
                        m.sigma += su;
                    }
                }
            }
            lo = hi;
        }
    }

    /// Step 3: the backward walk from `r`, `d` hops away, one draw per hop.
    fn walk<N, E, R: Rng + ?Sized>(
        &mut self,
        g: &DiGraph<N, E>,
        s: NodeId,
        r: NodeId,
        d: u32,
        keep: &impl Fn(EdgeId, NodeId, NodeId) -> bool,
        rng: &mut R,
    ) -> Vec<EdgeId> {
        let PathSampler {
            marks,
            fwd_order,
            preds,
            ..
        } = self;
        let mut path = Vec::with_capacity(d as usize);
        let mut cur = r;
        while cur != s {
            let layer = marks[cur.index()].fwd - 1;
            preds.clear();
            for e in g.in_edges(cur) {
                let (u, _) = g.edge_endpoints(e).expect("live in-edge");
                let m = marks[u.index()];
                if m.fwd == layer && keep(e, u, cur) {
                    preds.push((m.pos, e));
                }
            }
            // The reference appends a node's predecessors as its BFS
            // expands their tails, each tail's out-edges in ascending id.
            preds.sort_unstable();
            let sigma = |&(pos, _): &(usize, EdgeId)| marks[fwd_order[pos].index()].sigma;
            let total: f64 = preds.iter().map(sigma).sum();
            let mut pick = rng.gen_range(0.0..total);
            let mut chosen = *preds.last().expect("non-source node has predecessors");
            for p in preds.iter() {
                let w = sigma(p);
                if pick < w {
                    chosen = *p;
                    break;
                }
                pick -= w;
            }
            path.push(chosen.1);
            cur = fwd_order[chosen.0];
        }
        path.reverse();
        path
    }
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
    /// allocates a fresh tree and appends to `order` on dequeue.
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
    fn searches_meet_where_the_cheaper_frontier_leads() {
        let mut sampler = PathSampler::default();
        let mut meet = |g: &DiGraph, s: usize, r: usize| {
            sampler.reset(g.node_bound());
            let (l, b, _) = sampler
                .meet(g, NodeId(s), NodeId(r), &|_, _, _| true)
                .expect("connected");
            (l, b)
        };
        let star = generators::star(6);
        assert_eq!(meet(&star, 0, 3), (0, 1), "hub -> leaf meets at the sender");
        assert_eq!(
            meet(&star, 3, 0),
            (1, 0),
            "leaf -> hub meets at the receiver"
        );
        assert_eq!(meet(&star, 3, 5), (1, 1));
        // Ties go forward, so the end-to-end search on a path meets one
        // hop short of the receiver.
        assert_eq!(meet(&generators::path(9), 0, 8), (7, 1));
    }

    #[test]
    fn reused_tree_matches_a_fresh_one_across_graphs() {
        let big = generators::cycle(12);
        let small = generators::path(4);
        let mut tree = BfsTree::default();
        for (g, s) in [(&big, 5), (&small, 1), (&big, 0), (&small, 3)] {
            tree.rerun(g, NodeId(s));
            assert_trees_eq(&tree, &bfs(g, NodeId(s)));
        }
        // A removed source leaves an all-unreached tree, as `bfs` does.
        let mut g = generators::star(3);
        g.remove_node(NodeId(0));
        tree.rerun(&g, NodeId(0));
        assert_trees_eq(&tree, &bfs(&g, NodeId(0)));
    }
}
