//! Routing identity: the in-place, target-bounded sampler
//! (`Pcn::sample_shortest_path_filtered` over one reused `BfsTree`) must
//! return the same path as the reference pipeline — build `G'(x)` with
//! `Pcn::reduced_graph` (plus the same avoid/offline filters), run a full
//! `bfs::bfs` on the copy, then `sample_path_from_tree` — and leave the
//! routing RNG in the same state, checked by the `to_bits` of the next
//! draw on each side.
//!
//! Every test reuses one tree across all of its payments, so senders,
//! receivers and filters change between runs of the same buffers.
//!
//! The reference shares `BfsTree::rerun` with the sampler (it backs
//! `bfs::bfs`), so a change to the loop itself would move both sides.
//! The `bfs` unit tests pin the loop against a textbook queue BFS, and
//! `engine_reproduces_recorded_digests` pins whole runs.

use lcg_graph::bfs::{self, BfsTree};
use lcg_graph::{generators, EdgeId, NodeId};
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
        tree: &mut BfsTree,
        s: NodeId,
        r: NodeId,
        amount: f64,
        edge_ok: &dyn Fn(EdgeId) -> bool,
        node_ok: &dyn Fn(NodeId) -> bool,
    ) -> Option<Vec<EdgeId>> {
        let got =
            pcn.sample_shortest_path_filtered(s, r, amount, edge_ok, node_ok, tree, &mut self.new);
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
        tree: &mut BfsTree,
        s: NodeId,
        r: NodeId,
        amount: f64,
    ) -> Option<Vec<EdgeId>> {
        self.route(pcn, tree, s, r, amount, &|_| true, &|_| true)
    }
}

fn ba_snapshot(seed: u64, nodes: usize) -> Pcn {
    let config = SnapshotConfig {
        nodes,
        ..SnapshotConfig::default()
    };
    snapshot::generate(&config, &mut StdRng::seed_from_u64(seed))
}

fn er_network(seed: u64, nodes: usize) -> Pcn {
    let mut rng = StdRng::seed_from_u64(seed);
    let topology = generators::erdos_renyi(nodes, 0.05, &mut rng);
    Pcn::from_topology(
        &topology,
        3.0,
        CostModel::default(),
        FeeFunction::Constant { fee: 0.01 },
    )
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
    let mut tree = BfsTree::default();
    let (mut routed, mut unroutable) = (0, 0);
    for i in 0..payments {
        let s = random_node(&mut draws, pcn);
        let r = random_node(&mut draws, pcn);
        let amount = match i % 5 {
            0 => 1e9, // no edge can forward it: G'(x) is empty
            1 => 0.01,
            _ => draws.gen_range(0.05..6.0),
        };
        let Some(path) = streams.route_plain(pcn, &mut tree, s, r, amount) else {
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
    for seed in [1, 7919, 3] {
        let mut pcn = ba_snapshot(seed, 150);
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
    let mut tree = BfsTree::default();
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
        let got = streams.route(&pcn, &mut tree, s, r, 0.5, &edge_ok, &node_ok);
        if s != r && got.is_none() && streams.route_plain(&pcn, &mut tree, s, r, 0.5).is_some() {
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
    let mut tree = BfsTree::default();
    for s in [NodeId(0), NodeId(9), NodeId(42)] {
        for r in [isolated, gone, past_bound] {
            assert_eq!(streams.route_plain(&pcn, &mut tree, s, r, 0.5), None);
        }
        // `s == r`: the empty path, with no draw.
        assert_eq!(
            streams.route_plain(&pcn, &mut tree, s, s, 0.5),
            Some(Vec::new())
        );
        // Reachable again right after, on the same tree.
        assert!(streams
            .route_plain(&pcn, &mut tree, s, NodeId(30), 0.5)
            .is_some());
    }
    for s in [isolated, gone, past_bound] {
        assert_eq!(
            streams.route_plain(&pcn, &mut tree, s, NodeId(1), 0.5),
            None
        );
    }
}

#[test]
fn channels_closed_mid_stream_route_identically() {
    let mut pcn = ba_snapshot(13, 100);
    let mut draws = StdRng::seed_from_u64(130);
    let mut streams = Streams::new(13);
    let mut tree = BfsTree::default();
    for round in 0..8 {
        for _ in 0..40 {
            let s = random_node(&mut draws, &pcn);
            let r = random_node(&mut draws, &pcn);
            if let Some(path) = streams.route_plain(&pcn, &mut tree, s, r, 0.5) {
                if let Ok(htlc) = Htlc::lock(&mut pcn, &path, 0.5) {
                    htlc.settle(&mut pcn);
                }
            }
        }
        // Tombstone a batch of channels; the tree keeps its buffers.
        let channels = pcn.channels();
        for k in 0..6 {
            let id = channels[(round * 31 + k * 17) % channels.len()];
            pcn.close_channel(id, CloseMode::UnilateralByA);
        }
    }
    assert!(pcn.graph().edge_count() < pcn.graph().edge_bound());
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
