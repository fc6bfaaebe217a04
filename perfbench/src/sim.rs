//! `sim_replay` and `sim_faulty`: a uniform stream of 0.5-coin payments
//! replayed by `Simulation::run` on a Barabási–Albert Lightning-like
//! snapshot, fault-free or under transient hop failures, stuck-HTLC
//! timeouts and exponential-backoff retries.

use crate::harness::{self, Checks, Metrics};
use crate::Run;
use lcg_graph::bfs;
use lcg_sim::engine::{SimReport, Simulation};
use lcg_sim::faults::FaultPlan;
use lcg_sim::fees::TxSizeDistribution;
use lcg_sim::htlc::Htlc;
use lcg_sim::network::{sample_path_from_tree, Pcn, RouteError};
use lcg_sim::retry::RetryPolicy;
use lcg_sim::snapshot::{self, SnapshotConfig};
use lcg_sim::workload::{PairWeights, Tx, WorkloadBuilder};
use rand::rngs::StdRng;
use rand::SeedableRng;
use std::time::Instant;

/// Keeps the routing stream's seed apart from the input generator's.
const ROUTING_SALT: u64 = 0x51A1_0A7E_D5EE_D001;
const PAYMENT_SIZE: f64 = 0.5;
/// Traced repetitions of the timed unit; per-layer values are medians.
const TRACED_REPEATS: usize = 3;

struct Scenario {
    pcn: Pcn,
    txs: Vec<Tx>,
    routing_seed: u64,
    faulty: bool,
}

fn scenario(run: &Run) -> Scenario {
    let (nodes, payments) = if run.toy { (60, 300) } else { (2_000, 4_000) };
    let mut rng = StdRng::seed_from_u64(run.seed);
    let config = SnapshotConfig {
        nodes,
        ..SnapshotConfig::default()
    };
    let pcn = snapshot::generate(&config, &mut rng);
    let txs = WorkloadBuilder::new(PairWeights::uniform(nodes))
        .sizes(TxSizeDistribution::Constant { size: PAYMENT_SIZE })
        .generate(payments, &mut rng);
    Scenario {
        pcn,
        txs,
        routing_seed: run.seed ^ ROUTING_SALT,
        faulty: run.workload == "sim_faulty",
    }
}

impl Scenario {
    /// One timed replay of the whole stream on a fresh copy of the
    /// snapshot (the copy is made outside the timed region), under the
    /// workload's fault plan or, with `faulty` false, fault-free.
    fn replay_engine(&self, faulty: bool) -> (SimReport, f64) {
        let mut pcn = self.pcn.clone();
        let mut sim = Simulation::new(&mut pcn)
            .workload(&self.txs)
            .seed(self.routing_seed);
        if faulty {
            sim = sim
                .faults(
                    FaultPlan::none()
                        .transient_edge_failure(0.05)
                        .htlc_timeout(0.01, 50),
                )
                .retry(RetryPolicy::exponential(4, 0.01, 2.0, 0.1));
        }
        harness::timed(|| sim.run())
    }
}

pub fn measure(run: &Run) -> (Checks, Metrics) {
    let (s, setup_s) = harness::setup(|| scenario(run));
    let mut checks = Checks::default();
    let mut first: Option<SimReport> = None;
    let walls = harness::repeat_for(run.seconds, 3, || {
        let (report, wall) = s.replay_engine(s.faulty);
        match &first {
            None => first = Some(report),
            Some(f) => checks.check(&report == f, || {
                "replaying the same seed gave a different SimReport".into()
            }),
        }
        wall
    });
    let report = first.expect("at least one replay");
    check_report(&mut checks, &s, &report);
    if !s.faulty {
        let primitives = replay_primitives(&s);
        check_primitives_agree(&mut checks, &report, &primitives);
    }
    let wall = harness::median(&walls);
    let mut m = Metrics::default();
    m.set("setup_s", setup_s);
    m.set("wall_s", wall);
    m.set("throughput_per_s", report.attempted as f64 / wall);
    (checks, m)
}

pub fn trace(run: &Run, untraced_wall: f64) -> (Checks, Metrics) {
    let s = scenario(run);
    let mut checks = Checks::default();
    lcg_obs::set_enabled(true);
    let samples: Vec<Metrics> = (0..TRACED_REPEATS)
        .map(|_| {
            lcg_obs::reset();
            let (report, wall) = s.replay_engine(s.faulty);
            let snapshot = lcg_obs::metrics::snapshot();
            let spans = lcg_obs::span::drain();
            check_report(&mut checks, &s, &report);
            let attempted = report.attempted as f64;
            let mut m = Metrics::default();
            m.set(
                "sim.route.calls_per_payment",
                harness::counter(&snapshot, "graph/bfs/runs") / attempted,
            );
            m.set("sim.payments.succeeded", report.succeeded as f64);
            m.set("sim.payments.failed_no_path", report.failed_no_path as f64);
            m.set(
                "sim.payments.failed_capacity",
                report.failed_capacity as f64,
            );
            m.set("sim.payments.failed_faulted", report.failed_faulted as f64);
            m.set("sim.payments.success_rate", report.success_rate());
            let faults = &report.faults;
            m.set(
                "sim.faults.injected_transient",
                faults.injected_transient as f64,
            );
            m.set(
                "sim.faults.injected_timeouts",
                faults.injected_timeouts as f64,
            );
            m.set("sim.retry.attempts", faults.retry_attempts as f64);
            m.set("sim.retry.recovered", faults.recovered_by_retry as f64);
            m.set("sim.retry.recovery_rate", faults.recovery_rate());
            m.set(
                "parallel.worker_spans",
                harness::span_count(&spans, "parallel/worker"),
            );
            m.set("obs.trace_overhead", wall / untraced_wall);
            m
        })
        .collect();
    lcg_obs::set_enabled(false);
    lcg_obs::reset();
    let mut m = Metrics::median_of(&samples);

    // Route/lock/settle split, timed by this file around the public
    // primitives the engine composes. With faults the engine also routes
    // around failed hops; the primitive replay times the same stream's
    // fault-free phases and is checked against a fault-free engine run.
    // `sim.replay.other_s` is the replay wall minus the five phases.
    let p = replay_primitives(&s);
    check_primitives_agree(&mut checks, &s.replay_engine(false).0, &p);
    let phases = p.filter_s + p.bfs_s + p.sample_s + p.lock_s + p.settle_s;
    m.set("sim.route.filter_s", p.filter_s);
    m.set("sim.route.bfs_s", p.bfs_s);
    m.set("sim.route.sample_s", p.sample_s);
    m.set("sim.htlc.lock_s", p.lock_s);
    m.set("sim.htlc.settle_s", p.settle_s);
    m.set("sim.replay.other_s", p.wall_s - phases);
    m.set("sim.replay.wall_s", p.wall_s);
    (checks, m)
}

fn check_report(checks: &mut Checks, s: &Scenario, r: &SimReport) {
    let outcomes =
        r.succeeded + r.failed_no_path + r.failed_capacity + r.failed_invalid + r.failed_faulted;
    checks.check(
        r.attempted == s.txs.len() as u64 && outcomes == r.attempted,
        || {
            format!(
                "outcomes {outcomes} do not partition {} attempts",
                r.attempted
            )
        },
    );
    checks.check(r.failed_invalid == 0, || {
        format!("{} generated payments were invalid", r.failed_invalid)
    });
    let f = &r.faults;
    if s.faulty {
        checks.check(f.injected_transient > 0 && f.retry_attempts > 0, || {
            "the fault plan injected nothing or nothing was retried".into()
        });
        checks.check(f.recovered_by_retry <= f.txs_faulted, || {
            format!(
                "{} recovered of {} faulted",
                f.recovered_by_retry, f.txs_faulted
            )
        });
    } else {
        checks.check(r.failed_faulted == 0 && f.injected_total() == 0, || {
            "a fault-free run reported injected faults".into()
        });
    }
}

/// Outcome and phase times of the stream replayed through the public
/// routing and HTLC primitives.
#[derive(Debug, Default)]
struct PrimitiveReplay {
    filter_s: f64,
    bfs_s: f64,
    sample_s: f64,
    lock_s: f64,
    settle_s: f64,
    wall_s: f64,
    succeeded: u64,
    failed_no_path: u64,
    failed_capacity: u64,
    total_fees: f64,
}

/// `Pcn::reduced_graph` → `bfs::bfs` → `sample_path_from_tree` →
/// `Htlc::lock` → `Htlc::settle` per payment: the fault-free engine's
/// route and HTLC path, drawing from the same routing stream.
fn replay_primitives(s: &Scenario) -> PrimitiveReplay {
    let mut pcn = s.pcn.clone();
    let mut rng = StdRng::seed_from_u64(s.routing_seed);
    let mut r = PrimitiveReplay::default();
    let secs = |a: Instant, b: Instant| b.duration_since(a).as_secs_f64();
    let start = Instant::now();
    for tx in &s.txs {
        let t0 = Instant::now();
        let reduced = pcn.reduced_graph(tx.size);
        let t1 = Instant::now();
        let tree = bfs::bfs(&reduced, tx.sender);
        let t2 = Instant::now();
        let path = sample_path_from_tree(&reduced, &tree, tx.receiver, &mut rng);
        let t3 = Instant::now();
        r.filter_s += secs(t0, t1);
        r.bfs_s += secs(t1, t2);
        r.sample_s += secs(t2, t3);
        let Some(path) = path else {
            r.failed_no_path += 1;
            continue;
        };
        let t4 = Instant::now();
        let locked = Htlc::lock(&mut pcn, &path, tx.size);
        let t5 = Instant::now();
        r.lock_s += secs(t4, t5);
        match locked {
            Ok(htlc) => {
                r.total_fees += htlc.total_fees();
                htlc.settle(&mut pcn);
                r.settle_s += t5.elapsed().as_secs_f64();
                r.succeeded += 1;
            }
            Err(RouteError::InsufficientCapacity { .. }) => r.failed_capacity += 1,
            Err(e) => panic!("generated payment rejected by Htlc::lock: {e}"),
        }
    }
    r.wall_s = start.elapsed().as_secs_f64();
    r
}

fn check_primitives_agree(checks: &mut Checks, engine: &SimReport, p: &PrimitiveReplay) {
    checks.check(
        engine.succeeded == p.succeeded
            && engine.failed_no_path == p.failed_no_path
            && engine.failed_capacity == p.failed_capacity
            && engine.total_fees.to_bits() == p.total_fees.to_bits(),
        || {
            format!(
                "engine ({} ok, {} no path, {} capacity) disagrees with the primitive replay ({} ok, {} no path, {} capacity)",
                engine.succeeded,
                engine.failed_no_path,
                engine.failed_capacity,
                p.succeeded,
                p.failed_no_path,
                p.failed_capacity
            )
        },
    );
}
