//! Satellite tests: the parallel weighted-betweenness kernel against the
//! brute-force path enumerator on random hosts, BFS path counts `m(s,r)`
//! against a Dijkstra-based recount under unit weights, and the
//! bit-identity guarantee between sequential and multi-worker runs.
//!
//! Random instances come from seeded `StdRng` loops (deterministic across
//! runs); Erdős–Rényi and Barabási–Albert are the paper's host families
//! (experiment hosts of §V and the scale-free Lightning snapshots).

use lcg_graph::betweenness::{
    brute_force_betweenness, weighted_edge_betweenness, weighted_node_betweenness,
};
use lcg_graph::bfs::bfs;
use lcg_graph::dijkstra::dijkstra;
use lcg_graph::generators::{self, Topology};
use lcg_graph::NodeId;
use rand::rngs::StdRng;
use rand::SeedableRng;

const EPS: f64 = 1e-9;

/// A deterministic, pair-dependent weight with no accidental symmetry.
fn pair_weight(s: NodeId, r: NodeId) -> f64 {
    1.0 + 0.125 * ((s.index() * 7 + r.index() * 3) % 11) as f64
}

/// Small random hosts from both families the experiments use.
fn random_hosts(cases: usize) -> Vec<Topology> {
    let mut hosts = Vec::new();
    for case in 0..cases {
        let mut rng = StdRng::seed_from_u64(0x9A77_0000 + case as u64);
        if case % 2 == 0 {
            if let Some(g) = generators::connected_erdos_renyi(4 + case % 5, 0.45, &mut rng, 64) {
                hosts.push(g);
            }
        } else {
            hosts.push(generators::barabasi_albert(5 + case % 6, 2, &mut rng));
        }
    }
    hosts
}

#[test]
fn parallel_weighted_betweenness_matches_brute_force_on_random_hosts() {
    for (i, g) in random_hosts(24).iter().enumerate() {
        let (brute_edges, brute_nodes) = brute_force_betweenness(g, pair_weight);
        let edges = weighted_edge_betweenness(g, pair_weight);
        let nodes = weighted_node_betweenness(g, pair_weight);
        for e in g.edge_ids() {
            assert!(
                (edges[e.index()] - brute_edges[e.index()]).abs() < EPS,
                "host {i}, edge {e:?}: brandes {} vs brute {}",
                edges[e.index()],
                brute_edges[e.index()]
            );
        }
        for v in g.node_ids() {
            assert!(
                (nodes[v.index()] - brute_nodes[v.index()]).abs() < EPS,
                "host {i}, node {v}: brandes {} vs brute {}",
                nodes[v.index()],
                brute_nodes[v.index()]
            );
        }
    }
}

#[test]
fn bfs_path_counts_match_dijkstra_recount_under_unit_weights() {
    // m(s, r) from the BFS sigma accumulation must equal an independent
    // dynamic-programming recount over the Dijkstra unit-cost DAG: process
    // nodes by increasing cost and propagate counts along tight edges.
    for (i, g) in random_hosts(24).iter().enumerate() {
        for s in g.node_ids() {
            let tree = bfs(g, s);
            let sp = dijkstra(g, s, |_, _| Some(1.0));

            let mut order: Vec<NodeId> =
                g.node_ids().filter(|&v| sp.cost_to(v).is_some()).collect();
            order.sort_by(|&a, &b| {
                sp.cost_to(a)
                    .unwrap()
                    .partial_cmp(&sp.cost_to(b).unwrap())
                    .unwrap()
            });
            let mut count = vec![0.0f64; g.node_bound()];
            count[s.index()] = 1.0;
            for &u in &order {
                let cu = sp.cost_to(u).unwrap();
                for e in g.out_edges(u) {
                    let (_, v) = g.edge_endpoints(e).unwrap();
                    if sp.cost_to(v) == Some(cu + 1.0) {
                        count[v.index()] += count[u.index()];
                    }
                }
            }

            for r in g.node_ids() {
                // Reachability must agree between the two traversals.
                assert_eq!(
                    tree.is_reachable(r),
                    sp.cost_to(r).is_some(),
                    "host {i}: reachability of {r} from {s} disagrees"
                );
                if r == s || !tree.is_reachable(r) {
                    continue;
                }
                assert_eq!(
                    tree.distance(r).map(f64::from),
                    sp.cost_to(r),
                    "host {i}: distance {s}->{r} disagrees"
                );
                assert!(
                    (tree.path_count(r) - count[r.index()]).abs() < EPS,
                    "host {i}: m({s},{r}) = {} via BFS vs {} via Dijkstra DP",
                    tree.path_count(r),
                    count[r.index()]
                );
            }
        }
    }
}

#[test]
fn sequential_and_eight_worker_runs_are_bit_identical() {
    // The acceptance guarantee of the parallel layer: fixed source chunking
    // plus in-order reduction make the scores identical to the last bit at
    // any worker count. The small hosts fill at most two source chunks; the
    // 500-node Barabási–Albert host fills 63, so 8 workers each take many.
    let mut hosts = random_hosts(12);
    hosts.push(generators::barabasi_albert(
        500,
        2,
        &mut StdRng::seed_from_u64(500),
    ));
    for (i, g) in hosts.iter().enumerate() {
        lcg_parallel::set_max_threads(1);
        let seq_edges = weighted_edge_betweenness(g, pair_weight);
        let seq_nodes = weighted_node_betweenness(g, pair_weight);
        lcg_parallel::set_max_threads(8);
        let par_edges = weighted_edge_betweenness(g, pair_weight);
        let par_nodes = weighted_node_betweenness(g, pair_weight);
        lcg_parallel::set_max_threads(0);
        assert!(
            seq_edges
                .iter()
                .zip(&par_edges)
                .all(|(a, b)| a.to_bits() == b.to_bits()),
            "host {i}: edge scores differ between 1 and 8 workers"
        );
        assert!(
            seq_nodes
                .iter()
                .zip(&par_nodes)
                .all(|(a, b)| a.to_bits() == b.to_bits()),
            "host {i}: node scores differ between 1 and 8 workers"
        );
    }
}
