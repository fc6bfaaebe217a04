//! The Zipf model functions give the same bits as the copying reference.
//!
//! `pair_probabilities`, `transaction_probabilities` and `rank_factors`
//! rank each sender's view `G \ {sender}` from one in-degree vector and
//! one table of Zipf weights. The reference below is the direct recipe:
//! copy the graph without the sender, sort by in-degree, sum one `powf`
//! per rank, normalize. Every output is compared by `f64::to_bits`, for
//! every sender id in `0..node_bound() + 2` (live, tombstoned and outside
//! the graph), on seeded BA and ER hosts with tombstones, parallel
//! channels, one-way edges and self-loops.
//!
//! Run with `cargo test -q -p lcg-core --test zipf_identity`.

use lcg_core::zipf::{pair_probabilities, rank_factors, transaction_probabilities, ZipfVariant};
use lcg_graph::generators::{self, Topology};
use lcg_graph::{DiGraph, NodeId};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

const S_VALUES: [f64; 7] = [0.0, 0.5, 1.0, 1.5, 3.0, 6.0, 14.0];
const VARIANTS: [ZipfVariant; 2] = [ZipfVariant::Averaged, ZipfVariant::Literal];

mod reference {
    use super::*;

    pub fn rank_factors<N, E>(g: &DiGraph<N, E>, s: f64, variant: ZipfVariant) -> Vec<f64> {
        let mut rf = vec![0.0; g.node_bound()];
        let mut nodes: Vec<NodeId> = g.node_ids().collect();
        nodes.sort_by_key(|&v| std::cmp::Reverse(g.in_degree(v)));
        let mut i = 0;
        while i < nodes.len() {
            let deg = g.in_degree(nodes[i]);
            let mut j = i;
            while j < nodes.len() && g.in_degree(nodes[j]) == deg {
                j += 1;
            }
            let (r0, count) = (i + 1, j - i);
            let terms = match variant {
                ZipfVariant::Averaged => count,
                ZipfVariant::Literal => count + 1,
            };
            let sum: f64 = (r0..r0 + terms).map(|k| (k as f64).powf(-s)).sum();
            for &v in &nodes[i..j] {
                rf[v.index()] = sum / count as f64;
            }
            i = j;
        }
        rf
    }

    pub fn transaction_probabilities(
        g: &Topology,
        sender: NodeId,
        s: f64,
        variant: ZipfVariant,
    ) -> Vec<f64> {
        let mut p = if g.contains_node(sender) {
            rank_factors(&g.without_node(sender), s, variant)
        } else {
            rank_factors(g, s, variant)
        };
        let total: f64 = p.iter().sum();
        if total > 0.0 {
            p.iter_mut().for_each(|w| *w /= total);
        }
        p
    }

    pub fn pair_probabilities(g: &Topology, s: f64, variant: ZipfVariant) -> Vec<Vec<f64>> {
        let n = g.node_bound();
        let mut matrix = vec![vec![0.0; n]; n];
        for sender in g.node_ids() {
            matrix[sender.index()] = transaction_probabilities(g, sender, s, variant);
        }
        matrix
    }
}

fn bits(v: &[f64]) -> Vec<u64> {
    v.iter().map(|x| x.to_bits()).collect()
}

fn random_pair(g: &Topology, rng: &mut StdRng) -> (NodeId, NodeId) {
    let live: Vec<NodeId> = g.node_ids().collect();
    let u = live[rng.gen_range(0..live.len())];
    let v = live[rng.gen_range(0..live.len())];
    (u, v)
}

/// One edit of a base host: the structures whose in-degree bookkeeping
/// differs from a plain channel graph.
#[derive(Clone, Copy, Debug)]
enum Edit {
    Tombstone,
    ParallelChannel,
    OneWayEdge,
    SelfLoop,
}

fn apply(g: &mut Topology, edit: Edit, rng: &mut StdRng) {
    let (u, v) = random_pair(g, rng);
    match edit {
        Edit::Tombstone => {
            g.remove_node(u);
        }
        Edit::ParallelChannel => {
            let v = if u == v {
                g.node_ids().find(|&w| w != u).unwrap()
            } else {
                v
            };
            // Twice, so the pair has parallel channels even if it had none.
            g.add_undirected(u, v, ());
            g.add_undirected(u, v, ());
        }
        Edit::OneWayEdge => {
            g.add_edge(u, v, ());
        }
        Edit::SelfLoop => {
            g.add_edge(u, u, ());
        }
    }
}

/// Seeded BA and ER hosts, each plain, with one edit, and with all four;
/// plus the empty graph, `path(1)` and a graph whose only node is gone.
fn hosts() -> Vec<(String, Topology)> {
    let mut tombstoned = generators::path(1);
    tombstoned.remove_node(NodeId(0));
    let mut out = vec![
        ("empty".to_string(), Topology::new()),
        ("path(1)".to_string(), generators::path(1)),
        ("path(1) tombstoned".to_string(), tombstoned),
    ];
    let edits = [
        Edit::Tombstone,
        Edit::ParallelChannel,
        Edit::OneWayEdge,
        Edit::SelfLoop,
    ];
    for seed in [3, 1009] {
        let mut rng = StdRng::seed_from_u64(seed);
        let mut bases = Vec::new();
        for (n, m) in [(6, 1), (12, 2), (24, 2), (40, 3)] {
            let g = generators::barabasi_albert(n, m, &mut rng);
            bases.push((format!("seed {seed} BA({n},{m})"), g));
        }
        for (n, p) in [(5, 0.5), (12, 0.3), (24, 0.15)] {
            let g = generators::erdos_renyi(n, p, &mut rng);
            bases.push((format!("seed {seed} ER({n},{p})"), g));
        }
        for (name, base) in bases {
            for edit in edits {
                let mut g = base.clone();
                apply(&mut g, edit, &mut rng);
                out.push((format!("{name} + {edit:?}"), g));
            }
            let mut g = base.clone();
            for edit in edits {
                apply(&mut g, edit, &mut rng);
            }
            out.push((format!("{name} + all edits"), g));
            out.push((name, base));
        }
    }
    out
}

#[test]
fn zipf_model_matches_the_copying_reference_bit_for_bit() {
    for (name, g) in &hosts() {
        for s in S_VALUES {
            for variant in VARIANTS {
                let ctx = format!("{name}, s = {s}, {variant:?}");
                assert_eq!(
                    bits(&rank_factors(g, s, variant)),
                    bits(&reference::rank_factors(g, s, variant)),
                    "rank_factors: {ctx}"
                );
                let pair = pair_probabilities(g, s, variant);
                let expect = reference::pair_probabilities(g, s, variant);
                assert_eq!(pair.len(), expect.len(), "pair_probabilities: {ctx}");
                for (i, (row, want)) in pair.iter().zip(&expect).enumerate() {
                    assert_eq!(bits(row), bits(want), "pair_probabilities row {i}: {ctx}");
                }
                for i in 0..g.node_bound() + 2 {
                    let sender = NodeId(i);
                    assert_eq!(
                        bits(&transaction_probabilities(g, sender, s, variant)),
                        bits(&reference::transaction_probabilities(g, sender, s, variant)),
                        "transaction_probabilities from {sender}: {ctx}"
                    );
                }
            }
        }
    }
}
