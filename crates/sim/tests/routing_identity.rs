//! Routing identity: the engine's sampler
//! (`Pcn::sample_shortest_path_filtered` over one reused `PathSampler`)
//! must return the same path as the reference pipeline — build `G'(x)`
//! with `Pcn::reduced_graph` (plus the same avoid/offline filters), run a
//! full `bfs::bfs` on the copy, then `sample_path_from_tree` — and leave
//! the routing RNG in the same state, checked by the `to_bits` of the next
//! draw on each side.
//!
//! Every test reuses one sampler across all of its payments, so senders,
//! receivers and filters change between runs of the same buffers.
//!
//! The two sides share no loop: the sampler searches from both ends and
//! walks the shortest-path DAG, while the reference runs `BfsTree::rerun`
//! over the whole copy. So the suite compares two independent
//! implementations. The `bfs` unit tests pin `BfsTree::rerun` against a
//! textbook queue BFS, and `engine_reproduces_recorded_digests` pins whole
//! runs.

use lcg_graph::bfs::{self, PathSampler};
use lcg_graph::{generators, DiGraph, EdgeId, NodeId};
use lcg_sim::engine::{SimReport, Simulation};
use lcg_sim::faults::FaultPlan;
use lcg_sim::fees::{FeeFunction, TxSizeDistribution};
use lcg_sim::htlc::Htlc;
use lcg_sim::network::{sample_path_from_tree, Pcn};
use lcg_sim::onchain::{CloseMode, CostModel};
use lcg_sim::retry::RetryPolicy;
use lcg_sim::snapshot::{self, SnapshotConfig};
use lcg_sim::workload::{PairWeights, WorkloadBuilder};
use rand::rngs::StdRng;
use rand::seq::SliceRandom;
use rand::{Rng, SeedableRng};

/// The kept reference: materialize the filtered `G'(x)`, BFS it fully,
/// sample on the copy.
fn reference_route(
    pcn: &Pcn,
    s: NodeId,
    r: NodeId,
    amount: f64,
    edge_ok: &dyn Fn(EdgeId) -> bool,
    node_ok: &dyn Fn(NodeId) -> bool,
    rng: &mut StdRng,
) -> Option<Vec<EdgeId>> {
    let reduced = pcn
        .reduced_graph(amount)
        .filter_edges(|e, u, v, _| edge_ok(e) && node_ok(u) && node_ok(v));
    let tree = bfs::bfs(&reduced, s);
    sample_path_from_tree(&reduced, &tree, r, rng)
}

/// Two routing streams started from the same seed: one drives the
/// sampler under test, the other the reference.
struct Streams {
    new: StdRng,
    reference: StdRng,
}

impl Streams {
    fn new(seed: u64) -> Self {
        Streams {
            new: StdRng::seed_from_u64(seed),
            reference: StdRng::seed_from_u64(seed),
        }
    }

    /// Routes `s → r` both ways, asserts the same path and the same next
    /// draw on each stream, and returns the path.
    #[allow(clippy::too_many_arguments)]
    fn route(
        &mut self,
        pcn: &Pcn,
        sampler: &mut PathSampler,
        s: NodeId,
        r: NodeId,
        amount: f64,
        edge_ok: &dyn Fn(EdgeId) -> bool,
        node_ok: &dyn Fn(NodeId) -> bool,
    ) -> Option<Vec<EdgeId>> {
        let got = pcn.sample_shortest_path_filtered(
            s,
            r,
            amount,
            edge_ok,
            node_ok,
            sampler,
            &mut self.new,
        );
        let want = reference_route(pcn, s, r, amount, edge_ok, node_ok, &mut self.reference);
        assert_eq!(got, want, "{s} -> {r}, amount {amount}: paths differ");
        let a: f64 = self.new.gen_range(0.0..1.0);
        let b: f64 = self.reference.gen_range(0.0..1.0);
        assert_eq!(
            a.to_bits(),
            b.to_bits(),
            "{s} -> {r}, amount {amount}: RNG streams diverged"
        );
        got
    }

    /// [`Streams::route`] with all-pass filters.
    fn route_plain(
        &mut self,
        pcn: &Pcn,
        sampler: &mut PathSampler,
        s: NodeId,
        r: NodeId,
        amount: f64,
    ) -> Option<Vec<EdgeId>> {
        self.route(pcn, sampler, s, r, amount, &|_| true, &|_| true)
    }
}

fn ba_snapshot(seed: u64, nodes: usize) -> Pcn {
    let config = SnapshotConfig {
        nodes,
        ..SnapshotConfig::default()
    };
    snapshot::generate(&config, &mut StdRng::seed_from_u64(seed))
}

/// Three coins on each end of every channel of `topology`.
fn constant_fee_network(topology: &DiGraph) -> Pcn {
    Pcn::from_topology(
        topology,
        3.0,
        CostModel::default(),
        FeeFunction::Constant { fee: 0.01 },
    )
}

fn er_network(seed: u64, nodes: usize) -> Pcn {
    let mut rng = StdRng::seed_from_u64(seed);
    constant_fee_network(&generators::erdos_renyi(nodes, 0.05, &mut rng))
}

fn random_node(rng: &mut StdRng, pcn: &Pcn) -> NodeId {
    NodeId(rng.gen_range(0..pcn.graph().node_bound()))
}

/// Routes a stream of random payments, settling each delivered one so
/// that balances (and with them `G'(x)`) drift between payments. Amounts
/// span from trivial to larger than any balance (`G'(x)` empty).
fn replay_random_stream(pcn: &mut Pcn, seed: u64, payments: usize) -> (usize, usize) {
    let mut draws = StdRng::seed_from_u64(seed ^ 0xD1CE);
    let mut streams = Streams::new(seed);
    let mut sampler = PathSampler::default();
    let (mut routed, mut unroutable) = (0, 0);
    for i in 0..payments {
        let s = random_node(&mut draws, pcn);
        let r = random_node(&mut draws, pcn);
        let amount = match i % 5 {
            0 => 1e9, // no edge can forward it: G'(x) is empty
            1 => 0.01,
            _ => draws.gen_range(0.05..6.0),
        };
        let Some(path) = streams.route_plain(pcn, &mut sampler, s, r, amount) else {
            unroutable += 1;
            continue;
        };
        routed += 1;
        if let Ok(htlc) = Htlc::lock(pcn, &path, amount) {
            htlc.settle(pcn);
        }
    }
    (routed, unroutable)
}

#[test]
fn ba_snapshots_route_identically() {
    // BA-2000 is the benchmark's host size; there the two searches trade
    // the cheaper frontier several times per payment.
    for (seed, nodes) in [(1, 150), (7919, 150), (3, 150), (1, 2_000)] {
        let mut pcn = ba_snapshot(seed, nodes);
        let (routed, unroutable) = replay_random_stream(&mut pcn, seed, 400);
        assert!(routed > 100, "seed {seed}: only {routed} payments routed");
        assert!(unroutable >= 80, "seed {seed}: the empty-G'(x) amounts");
    }
}

#[test]
fn er_networks_route_identically() {
    for seed in [2, 11] {
        // Sparse ER graphs leave isolated nodes and small components, so
        // unreachable receivers come up naturally.
        let mut pcn = er_network(seed, 120);
        let (routed, unroutable) = replay_random_stream(&mut pcn, seed, 400);
        assert!(routed > 50 && unroutable > 80, "seed {seed}");
    }
}

#[test]
fn avoid_lists_and_offline_filters_route_identically() {
    let pcn = ba_snapshot(7, 120);
    let mut draws = StdRng::seed_from_u64(70);
    let mut streams = Streams::new(7);
    let mut sampler = PathSampler::default();
    let edges: Vec<EdgeId> = pcn.graph().edge_ids().collect();
    let mut filtered_out = 0;
    for i in 0..300 {
        let avoid: Vec<EdgeId> = (0..i % 40)
            .map(|_| edges[draws.gen_range(0..edges.len())])
            .collect();
        let offline: Vec<NodeId> = (0..i % 9).map(|_| random_node(&mut draws, &pcn)).collect();
        let s = random_node(&mut draws, &pcn);
        let r = random_node(&mut draws, &pcn);
        let edge_ok = |e: EdgeId| !avoid.contains(&e);
        let node_ok = |v: NodeId| !offline.contains(&v);
        let got = streams.route(&pcn, &mut sampler, s, r, 0.5, &edge_ok, &node_ok);
        if s != r && got.is_none() && streams.route_plain(&pcn, &mut sampler, s, r, 0.5).is_some() {
            filtered_out += 1;
        }
    }
    assert!(filtered_out > 0, "the filters must cut some routes");
}

#[test]
fn unreachable_removed_and_self_receivers_route_identically() {
    let mut pcn = ba_snapshot(5, 60);
    let isolated = pcn.add_node();
    // A node whose every channel closed is gone from the routing graph.
    let gone = NodeId(17);
    for id in pcn.channels() {
        let (u, v) = pcn.graph().edge_endpoints(id.forward).unwrap();
        if u == gone || v == gone {
            pcn.close_channel(id, CloseMode::Collaborative);
        }
    }
    assert_eq!(pcn.graph().degree(gone), 0);
    let past_bound = NodeId(pcn.graph().node_bound() + 3);
    let mut streams = Streams::new(5);
    let mut sampler = PathSampler::default();
    for s in [NodeId(0), NodeId(9), NodeId(42)] {
        for r in [isolated, gone, past_bound] {
            assert_eq!(streams.route_plain(&pcn, &mut sampler, s, r, 0.5), None);
        }
        // `s == r`: the empty path, with no draw.
        assert_eq!(
            streams.route_plain(&pcn, &mut sampler, s, s, 0.5),
            Some(Vec::new())
        );
        // Reachable again right after, with the same sampler.
        assert!(streams
            .route_plain(&pcn, &mut sampler, s, NodeId(30), 0.5)
            .is_some());
    }
    for s in [isolated, gone, past_bound] {
        assert_eq!(
            streams.route_plain(&pcn, &mut sampler, s, NodeId(1), 0.5),
            None
        );
    }
}

#[test]
fn channels_closed_mid_stream_route_identically() {
    let mut pcn = ba_snapshot(13, 100);
    let mut draws = StdRng::seed_from_u64(130);
    let mut streams = Streams::new(13);
    let mut sampler = PathSampler::default();
    for round in 0..8 {
        for _ in 0..40 {
            let s = random_node(&mut draws, &pcn);
            let r = random_node(&mut draws, &pcn);
            if let Some(path) = streams.route_plain(&pcn, &mut sampler, s, r, 0.5) {
                if let Ok(htlc) = Htlc::lock(&mut pcn, &path, 0.5) {
                    htlc.settle(&mut pcn);
                }
            }
        }
        // Tombstone a batch of channels; the sampler keeps its buffers.
        let channels = pcn.channels();
        for k in 0..6 {
            let id = channels[(round * 31 + k * 17) % channels.len()];
            pcn.close_channel(id, CloseMode::UnilateralByA);
        }
    }
    assert!(pcn.graph().edge_count() < pcn.graph().edge_bound());
}

#[test]
fn searches_meeting_at_either_end_route_identically() {
    // On a star, hub → leaf meets at the sender (the leaf's side is
    // cheaper), leaf → hub at the receiver, and leaf → leaf in between.
    let star = constant_fee_network(&generators::star(11));
    // End to end on a long path, the searches meet in between.
    let line = constant_fee_network(&generators::path(40));
    let mut streams = Streams::new(17);
    let mut sampler = PathSampler::default();
    for leaf in 1..=11 {
        for (s, r) in [(0, leaf), (leaf, 0), (leaf, leaf % 11 + 1)] {
            let path = streams.route_plain(&star, &mut sampler, NodeId(s), NodeId(r), 0.5);
            assert_eq!(
                path.map(|p| p.len()),
                Some(if s == 0 || r == 0 { 1 } else { 2 })
            );
        }
    }
    for (s, r) in [(0, 39), (39, 0), (3, 36), (20, 21)] {
        let path = streams.route_plain(&line, &mut sampler, NodeId(s), NodeId(r), 0.5);
        assert_eq!(path.map(|p| p.len()), Some(s.abs_diff(r)));
    }
}

/// `source`, then `layers` layers of `width` nodes, then `sink`, with two
/// parallel channels from each node to every node of the next layer:
/// `2·(2·width)^layers` shortest `source → sink` paths. Channels open in
/// shuffled order with random funds, so edge ids follow neither the
/// layers nor BFS order, and payments thin out some parallel edges.
fn layered_host(width: usize, layers: usize, seed: u64) -> (Pcn, NodeId, NodeId) {
    let mut rng = StdRng::seed_from_u64(seed);
    let mut pcn = Pcn::new(CostModel::default(), FeeFunction::Constant { fee: 0.01 });
    let source = pcn.add_node();
    let mut tiers = vec![vec![source]];
    for _ in 0..layers {
        tiers.push((0..width).map(|_| pcn.add_node()).collect());
    }
    let sink = pcn.add_node();
    tiers.push(vec![sink]);
    let mut channels: Vec<(NodeId, NodeId)> = tiers
        .windows(2)
        .flat_map(|w| {
            w[0].iter()
                .flat_map(|&u| w[1].iter().flat_map(move |&v| [(u, v), (u, v)]))
        })
        .collect();
    channels.shuffle(&mut rng);
    for (u, v) in channels {
        pcn.open_channel(u, v, rng.gen_range(1.0..4.0), rng.gen_range(1.0..4.0));
    }
    (pcn, source, sink)
}

#[test]
fn parallel_channels_past_2_pow_53_paths_route_identically() {
    // 2·6^40 ≈ 2.7e31 paths: past 2^53 the odd part 3^k of a count no
    // longer fits the mantissa, so the `σ` sums round.
    let (mut pcn, source, sink) = layered_host(3, 40, 53);
    let paths = bfs::bfs(pcn.graph(), source).path_count(sink);
    assert!(paths > 2f64.powi(53), "{paths} shortest paths");
    let mut draws = StdRng::seed_from_u64(530);
    let mut streams = Streams::new(53);
    let mut sampler = PathSampler::default();
    let mut routed = 0;
    for i in 0..300 {
        // End to end in both directions, and between random nodes.
        let (s, r) = match i % 3 {
            0 => (source, sink),
            1 => (sink, source),
            _ => (random_node(&mut draws, &pcn), random_node(&mut draws, &pcn)),
        };
        let amount = draws.gen_range(0.05..1.5);
        if let Some(path) = streams.route_plain(&pcn, &mut sampler, s, r, amount) {
            routed += 1;
            if let Ok(htlc) = Htlc::lock(&mut pcn, &path, amount) {
                htlc.settle(&mut pcn);
            }
        }
    }
    assert!(routed > 250, "only {routed} payments routed");
}

/// Beyond channel graphs: random directed multigraphs with one-way edges,
/// self-loops, parallel edges, tombstones and an edge-weight filter, routed
/// by `PathSampler` directly and checked against the same reference.
#[test]
fn directed_multigraphs_route_identically() {
    let mut draws = StdRng::seed_from_u64(99);
    let mut sampler = PathSampler::default();
    let mut routed = 0;
    for round in 0..150 {
        let n = draws.gen_range(2..60);
        let mut g: DiGraph<(), u32> = DiGraph::new();
        let ns: Vec<NodeId> = (0..n).map(|_| g.add_node(())).collect();
        for _ in 0..draws.gen_range(0..4 * n) {
            let u = ns[draws.gen_range(0..n)];
            let v = if draws.gen_bool(0.05) {
                u
            } else {
                ns[draws.gen_range(0..n)]
            };
            g.add_edge(u, v, draws.gen_range(0..10));
            if draws.gen_bool(0.2) {
                g.add_edge(u, v, draws.gen_range(0..10));
            }
            if draws.gen_bool(0.5) {
                g.add_edge(v, u, draws.gen_range(0..10));
            }
        }
        if round % 3 == 0 && g.edge_bound() > 0 {
            for _ in 0..3 {
                g.remove_edge(EdgeId(draws.gen_range(0..g.edge_bound())));
            }
        }
        if round % 7 == 0 {
            g.remove_node(ns[draws.gen_range(0..n)]);
        }
        for _ in 0..40 {
            let floor = draws.gen_range(0..10);
            let banned = ns[draws.gen_range(0..n)];
            let keep = |e: EdgeId, u: NodeId, v: NodeId| {
                g.edge(e).is_some_and(|&w| w >= floor) && u != banned && v != banned
            };
            // One id past the bound: a receiver or sender outside the graph.
            let s = NodeId(draws.gen_range(0..=n));
            let r = NodeId(draws.gen_range(0..=n));
            let mut streams = Streams::new(draws.gen_range(0..u64::MAX));
            let got = sampler.sample(&g, s, r, keep, &mut streams.new);
            let copy = g.filter_edges(|e, u, v, _| keep(e, u, v));
            let tree = bfs::bfs(&copy, s);
            let want = sample_path_from_tree(&copy, &tree, r, &mut streams.reference);
            assert_eq!(got, want, "round {round}: {s} -> {r}");
            let a: f64 = streams.new.gen_range(0.0..1.0);
            let b: f64 = streams.reference.gen_range(0.0..1.0);
            assert_eq!(a.to_bits(), b.to_bits(), "round {round}: {s} -> {r}");
            routed += usize::from(got.is_some_and(|p| !p.is_empty()));
        }
    }
    assert!(routed > 1_000, "only {routed} non-empty paths");
}

/// FNV-1a over the little-endian bytes of each word.
fn fnv(words: impl IntoIterator<Item = u64>) -> u64 {
    words.into_iter().fold(0xcbf2_9ce4_8422_2325, |h, w| {
        w.to_le_bytes()
            .iter()
            .fold(h, |h, &b| (h ^ u64::from(b)).wrapping_mul(0x0100_0000_01b3))
    })
}

/// Every count and float bit of `report`, then every live edge's final
/// balance bits.
fn run_digest(report: &SimReport, pcn: &Pcn) -> u64 {
    let f = &report.faults;
    let mut words = vec![
        report.attempted,
        report.succeeded,
        report.failed_no_path,
        report.failed_capacity,
        report.failed_invalid,
        report.failed_faulted,
        report.volume_delivered.to_bits(),
        report.total_fees.to_bits(),
        f.injected_transient,
        f.injected_timeouts,
        f.offline_rejections,
        f.closures,
        f.retry_attempts,
        f.txs_faulted,
        f.recovered_by_retry,
    ];
    words.extend(&f.stuck_dwell);
    words.extend(&report.edge_usage);
    words.extend(
        report
            .node_revenue
            .iter()
            .chain(&report.node_fees_paid)
            .map(|x| x.to_bits()),
    );
    for e in pcn.graph().edge_ids() {
        words.push(e.index() as u64);
        words.push(pcn.balance(e).expect("live edge").to_bits());
    }
    fnv(words)
}

/// 2,000 half-coin payments on a BA-200 snapshot, fault-free or under
/// transient hop faults, stuck HTLCs, churn, forced closures and
/// jittered exponential retries.
fn digest_run(seed: u64, chaos: bool) -> (SimReport, u64) {
    let mut pcn = ba_snapshot(seed, 200);
    let mut rng = StdRng::seed_from_u64(seed + 1);
    let txs = WorkloadBuilder::new(PairWeights::uniform(200))
        .sizes(TxSizeDistribution::Constant { size: 0.5 })
        .generate(2_000, &mut rng);
    let mut sim = Simulation::new(&mut pcn).workload(&txs).seed(seed);
    if chaos {
        let mid = txs[txs.len() / 2].time;
        sim = sim
            .faults(
                FaultPlan::none()
                    .transient_edge_failure(0.05)
                    .htlc_timeout(0.02, 6)
                    .churn(0.1, 0.5 * mid, 1.5 * mid)
                    .random_closures(mid, 4),
            )
            .retry(RetryPolicy::exponential(4, 0.01, 2.0, 0.1).with_jitter(0.2));
    }
    let report = sim.run();
    let digest = run_digest(&report, &pcn);
    (report, digest)
}

/// Whole-run pin. The digests were recorded with the engine routing
/// through a `reduced_graph` copy and a full `bfs::bfs` per payment,
/// so a mismatch means routing now picks different paths or draws.
#[test]
fn engine_reproduces_recorded_digests() {
    const RECORDED: [(u64, bool, u64); 6] = [
        (1, false, 0x9a2c_ebd9_ce44_9998),
        (1, true, 0x8fea_1a6e_f609_47cb),
        (7919, false, 0x587c_b493_e3fe_3ce6),
        (7919, true, 0xe8ab_0b47_570b_44ba),
        (3, false, 0x5604_b336_6b22_fb79),
        (3, true, 0x0086_ff01_ea76_1e8a),
    ];
    for (seed, chaos, want) in RECORDED {
        let (report, digest) = digest_run(seed, chaos);
        if chaos {
            let f = &report.faults;
            assert!(f.closures > 0 && f.offline_rejections > 0 && f.injected_timeouts > 0);
        }
        assert_eq!(digest, want, "seed {seed}, chaos {chaos}: {report:?}");
    }
}
