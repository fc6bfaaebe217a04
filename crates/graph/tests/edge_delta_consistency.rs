//! Differential suite for the edge-delta incremental betweenness engine:
//! every query must be bit-identical to the from-scratch chunked Brandes
//! path on the updated graph, across random hosts, batch shapes and
//! connectivity changes.

use lcg_graph::betweenness::weighted_node_betweenness;
use lcg_graph::edge_delta::{EdgeDelta, EdgeDeltaBetweenness};
use lcg_graph::graph::DiGraph;
use lcg_graph::{generators, NodeId};
use rand::rngs::StdRng;
use rand::SeedableRng;

type Topology = DiGraph<(), ()>;

/// A deterministic, asymmetric pair weight exercising the weighted
/// reduction paths.
fn pair_weight(s: NodeId, r: NodeId) -> f64 {
    1.0 + ((7 * s.index() + 3 * r.index()) % 5) as f64 * 0.25
}

/// The first `k` node pairs with no channel between them, in id order.
fn nonadjacent_pairs(g: &Topology, k: usize) -> Vec<(NodeId, NodeId)> {
    let nodes: Vec<NodeId> = g.node_ids().collect();
    let mut out = Vec::new();
    for i in 0..nodes.len() {
        for j in (i + 1)..nodes.len() {
            if g.find_edge(nodes[i], nodes[j]).is_none() {
                out.push((nodes[i], nodes[j]));
                if out.len() == k {
                    return out;
                }
            }
        }
    }
    out
}

/// The first `k` existing channels, in id order.
fn existing_channels(g: &Topology, k: usize) -> Vec<(NodeId, NodeId)> {
    let nodes: Vec<NodeId> = g.node_ids().collect();
    let mut out = Vec::new();
    for i in 0..nodes.len() {
        for j in (i + 1)..nodes.len() {
            if g.find_edge(nodes[i], nodes[j]).is_some() {
                out.push((nodes[i], nodes[j]));
                if out.len() == k {
                    return out;
                }
            }
        }
    }
    out
}

/// Asserts that the engine's answer for `delta` on `base` equals the
/// from-scratch path bit-for-bit, and returns the updated graph.
fn assert_bit_identical(base: &Topology, delta: &EdgeDelta) -> Topology {
    let engine = EdgeDeltaBetweenness::new(base, pair_weight);
    let updated = engine.apply(delta);
    let (scores, _) = engine.node_betweenness_on(&updated, delta);
    let expect = weighted_node_betweenness(&updated, pair_weight);
    for (v, (got, want)) in scores.iter().zip(&expect).enumerate() {
        assert_eq!(got.to_bits(), want.to_bits(), "node {v}");
    }
    updated
}

#[test]
fn erdos_renyi_insert_only_batches() {
    for seed in 0..4 {
        let mut rng = StdRng::seed_from_u64(seed);
        let host = generators::erdos_renyi(24, 0.18, &mut rng);
        for batch in [1, 2, 4] {
            let delta = EdgeDelta {
                insert: nonadjacent_pairs(&host, batch),
                remove: vec![],
            };
            assert!(!delta.is_empty());
            assert_bit_identical(&host, &delta);
        }
    }
}

#[test]
fn erdos_renyi_delete_only_batches() {
    for seed in 0..4 {
        let mut rng = StdRng::seed_from_u64(100 + seed);
        let host = generators::erdos_renyi(24, 0.22, &mut rng);
        for batch in [1, 3, 5] {
            let delta = EdgeDelta {
                insert: vec![],
                remove: existing_channels(&host, batch),
            };
            assert!(!delta.is_empty());
            assert_bit_identical(&host, &delta);
        }
    }
}

#[test]
fn barabasi_albert_mixed_batches() {
    for seed in 0..4 {
        let mut rng = StdRng::seed_from_u64(200 + seed);
        let host = generators::barabasi_albert(30, 2, &mut rng);
        let delta = EdgeDelta {
            insert: nonadjacent_pairs(&host, 3),
            remove: existing_channels(&host, 3),
        };
        assert_bit_identical(&host, &delta);
    }
}

#[test]
fn deleting_a_bridge_disconnects_and_reinserting_reconnects() {
    // Two ER communities joined by a single bridge: removing it severs
    // every cross-community pair (INF distances on the replay path),
    // reinserting it restores them.
    let mut rng = StdRng::seed_from_u64(7);
    let left = generators::erdos_renyi(10, 0.45, &mut rng);
    let mut host = Topology::new();
    let lhs: Vec<NodeId> = (0..10).map(|_| host.add_node(())).collect();
    let rhs: Vec<NodeId> = (0..10).map(|_| host.add_node(())).collect();
    for i in 0..10 {
        for j in (i + 1)..10 {
            if left.find_edge(NodeId(i), NodeId(j)).is_some() {
                host.add_undirected(lhs[i], lhs[j], ());
                host.add_undirected(rhs[i], rhs[j], ());
            }
        }
    }
    host.add_undirected(lhs[9], rhs[0], ());

    let sever = EdgeDelta {
        insert: vec![],
        remove: vec![(lhs[9], rhs[0])],
    };
    let severed = assert_bit_identical(&host, &sever);

    // From the severed graph, restore the bridge (and a detour chord).
    let restore = EdgeDelta {
        insert: vec![(lhs[9], rhs[0]), (lhs[0], rhs[9])],
        remove: vec![],
    };
    assert_bit_identical(&severed, &restore);
}

#[test]
fn apply_then_inverse_restores_scores_on_random_hosts() {
    let mut rng = StdRng::seed_from_u64(42);
    let host = generators::barabasi_albert(26, 2, &mut rng);
    let delta = EdgeDelta {
        insert: nonadjacent_pairs(&host, 2),
        remove: existing_channels(&host, 2),
    };
    let engine = EdgeDeltaBetweenness::new(&host, pair_weight);
    let updated = engine.apply(&delta);

    let roundtrip = EdgeDeltaBetweenness::new(&updated, pair_weight);
    let restored = roundtrip.apply(&delta.inverse());
    // Bit-identity holds against from-scratch on the restored graph …
    let (scores, _) = roundtrip.node_betweenness_on(&restored, &delta.inverse());
    let expect = weighted_node_betweenness(&restored, pair_weight);
    for (v, (got, want)) in scores.iter().zip(&expect).enumerate() {
        assert_eq!(got.to_bits(), want.to_bits(), "node {v} after round trip");
    }
    // … while the original host's scores agree up to summation-order ULPs
    // (the round trip re-appends the removed channels at the adjacency
    // tails, permuting the from-scratch accumulation order).
    let original = weighted_node_betweenness(&host, pair_weight);
    for (v, (got, want)) in scores.iter().zip(&original).enumerate() {
        assert!(
            (got - want).abs() <= 1e-9 * want.abs().max(1.0),
            "node {v}: {got} vs {want}"
        );
    }
}

#[test]
fn per_query_stats_account_for_every_source() {
    let mut rng = StdRng::seed_from_u64(11);
    let host = generators::erdos_renyi(18, 0.2, &mut rng);
    let engine = EdgeDeltaBetweenness::new(&host, pair_weight);
    let delta = EdgeDelta {
        insert: nonadjacent_pairs(&host, 1),
        remove: vec![],
    };
    let updated = engine.apply(&delta);
    let (_, stats) = engine.node_betweenness_on(&updated, &delta);
    if !stats.fell_back {
        assert_eq!(
            stats.recomputed_sources + stats.replayed_sources,
            host.node_count(),
            "tiers must partition the sources"
        );
    }
}
