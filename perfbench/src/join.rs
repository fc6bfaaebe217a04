//! `join`: a new user joins seeded Barabási–Albert hosts, in two legs that
//! use the utility oracle differently. Leg 1 is Algorithm 1
//! (`greedy_fixed_lock`): every evaluation is new, so the `incremental`
//! engine and the parallel candidate scoring dominate it. Leg 2 is
//! Algorithm 2 (`exhaustive_search`): adjacent budget divisions share
//! greedy prefixes, so most evaluations are `EvalCache` hits.

use crate::harness::{self, Checks, Metrics};
use crate::Run;
use lcg_core::exhaustive::{exhaustive_search, ExhaustiveConfig, ExhaustiveResult};
use lcg_core::greedy::{greedy_fixed_lock, GreedyResult};
use lcg_core::utility::{Topology, UtilityOracle, UtilityParams};
use lcg_graph::generators;
use lcg_graph::incremental::IncrementalBetweenness;
use rand::rngs::StdRng;
use rand::SeedableRng;

const GREEDY_BUDGET: f64 = 10.0;
const GREEDY_LOCK: f64 = 1.0;
const EXHAUSTIVE: ExhaustiveConfig = ExhaustiveConfig {
    budget: 6.0,
    granularity: 1.0,
    max_divisions: None,
};
const TRACED_REPEATS: usize = 3;
/// Hosts per leg: a leg's cost varies with the topology drawn, so several
/// hosts keep the per-run total steady across seeds.
const HOSTS_PER_LEG: usize = 3;

struct Hosts {
    greedy: Vec<Topology>,
    exhaustive: Vec<Topology>,
}

fn hosts(run: &Run) -> Hosts {
    let (greedy_n, exhaustive_n, count) = if run.toy {
        (30, 12, 2)
    } else {
        (120, 36, HOSTS_PER_LEG)
    };
    let mut rng = StdRng::seed_from_u64(run.seed);
    let mut draw = |n| -> Vec<Topology> {
        (0..count)
            .map(|_| generators::barabasi_albert(n, 2, &mut rng))
            .collect()
    };
    Hosts {
        greedy: draw(greedy_n),
        exhaustive: draw(exhaustive_n),
    }
}

fn oracle(host: &Topology) -> UtilityOracle {
    UtilityOracle::new(
        host.clone(),
        vec![1.0; host.node_bound()],
        UtilityParams::default(),
    )
}

/// Both legs on every host, each on a fresh oracle (empty memo, no
/// snapshot yet), so every repetition does the same work. Oracle
/// construction is untimed.
struct Legs {
    greedy: Vec<(UtilityOracle, GreedyResult)>,
    exhaustive: Vec<(UtilityOracle, ExhaustiveResult)>,
    greedy_s: f64,
    exhaustive_s: f64,
}

impl Legs {
    fn run(h: &Hosts) -> Legs {
        let (mut greedy, mut greedy_s) = (Vec::new(), 0.0);
        for host in &h.greedy {
            let o = oracle(host);
            let (r, s) = harness::timed(|| greedy_fixed_lock(&o, GREEDY_BUDGET, GREEDY_LOCK));
            greedy_s += s;
            greedy.push((o, r));
        }
        let (mut exhaustive, mut exhaustive_s) = (Vec::new(), 0.0);
        for host in &h.exhaustive {
            let o = oracle(host);
            let (r, s) = harness::timed(|| exhaustive_search(&o, EXHAUSTIVE));
            exhaustive_s += s;
            exhaustive.push((o, r));
        }
        Legs {
            greedy,
            exhaustive,
            greedy_s,
            exhaustive_s,
        }
    }

    fn wall(&self) -> f64 {
        self.greedy_s + self.exhaustive_s
    }

    fn oracles(&self) -> impl Iterator<Item = &UtilityOracle> {
        self.greedy
            .iter()
            .map(|(o, _)| o)
            .chain(self.exhaustive.iter().map(|(o, _)| o))
    }

    /// Per leg result: strategy, `U'` and evaluations spent.
    fn outputs(&self) -> Vec<(&lcg_core::Strategy, f64, u64)> {
        let greedy = self
            .greedy
            .iter()
            .map(|(_, r)| (&r.strategy, r.simplified_utility, r.evaluations));
        let exhaustive = self
            .exhaustive
            .iter()
            .map(|(_, r)| (&r.strategy, r.simplified_utility, r.evaluations));
        greedy.chain(exhaustive).collect()
    }

    fn evaluations(&self) -> u64 {
        self.outputs().iter().map(|o| o.2).sum()
    }

    fn simplified_utility(&self) -> f64 {
        self.outputs().iter().map(|o| o.1).sum()
    }

    /// Thm 4's evaluation bound, budget feasibility, and finite utilities.
    fn check(&self, checks: &mut Checks) {
        for (o, r) in &self.greedy {
            let c = o.params().cost.onchain_fee;
            let max_channels = (GREEDY_BUDGET / (c + GREEDY_LOCK)).floor() as u64;
            let bound = max_channels * o.candidates().len() as u64;
            checks.check(r.evaluations <= bound, || {
                format!(
                    "Algorithm 1 spent {} > M·n = {bound} evaluations",
                    r.evaluations
                )
            });
            checks.check(r.strategy.is_within_budget(c, GREEDY_BUDGET), || {
                format!("Algorithm 1 strategy {} exceeds the budget", r.strategy)
            });
        }
        for (o, r) in &self.exhaustive {
            let c = o.params().cost.onchain_fee;
            checks.check(r.strategy.is_within_budget(c, EXHAUSTIVE.budget), || {
                format!("Algorithm 2 strategy {} exceeds the budget", r.strategy)
            });
        }
        checks.check(self.simplified_utility().is_finite(), || {
            "a leg returned a non-finite utility".into()
        });
    }

    /// Same strategies, utilities and evaluation counts as `other` (memo
    /// hit counts may differ: parallel workers race on shared prefixes).
    fn same_outputs(&self, other: &Legs) -> bool {
        let bits = |v: Vec<(&lcg_core::Strategy, f64, u64)>| -> Vec<_> {
            v.into_iter()
                .map(|(s, u, e)| (s.clone(), u.to_bits(), e))
                .collect()
        };
        bits(self.outputs()) == bits(other.outputs())
    }
}

pub fn measure(run: &Run) -> (Checks, Metrics) {
    let (h, setup_s) = harness::setup(|| {
        let h = hosts(run);
        // The oracles' transaction models are part of set-up; each timed
        // repetition rebuilds them outside the timed region.
        let oracles: Vec<UtilityOracle> =
            h.greedy.iter().chain(&h.exhaustive).map(oracle).collect();
        drop(oracles);
        h
    });
    let mut checks = Checks::default();
    let mut first: Option<Legs> = None;
    let walls = harness::repeat_for(run.seconds, 3, || {
        let legs = Legs::run(&h);
        let wall = legs.wall();
        match &first {
            None => {
                legs.check(&mut checks);
                first = Some(legs);
            }
            Some(f) => checks.check(legs.same_outputs(f), || {
                "repeating the join on the same host changed its outputs".into()
            }),
        }
        wall
    });
    let evaluations = first.expect("at least one repetition").evaluations();
    let wall = harness::median(&walls);
    let mut m = Metrics::default();
    m.set("setup_s", setup_s);
    m.set("wall_s", wall);
    m.set("throughput_per_s", evaluations as f64 / wall);
    (checks, m)
}

pub fn trace(run: &Run, untraced_wall: f64) -> (Checks, Metrics) {
    let h = hosts(run);
    let mut checks = Checks::default();

    let workers = lcg_parallel::max_threads();
    lcg_parallel::set_max_threads(1);
    let single = Legs::run(&h);
    lcg_parallel::set_max_threads(workers);

    lcg_obs::set_enabled(true);
    let samples: Vec<Metrics> = (0..TRACED_REPEATS)
        .map(|_| {
            lcg_obs::reset();
            let legs = Legs::run(&h);
            let snapshot = lcg_obs::metrics::snapshot();
            let spans = lcg_obs::span::drain();
            legs.check(&mut checks);
            checks.check(legs.same_outputs(&single), || {
                "the join changed its outputs with the worker count".into()
            });
            traced_metrics(&legs, &snapshot, &spans, untraced_wall)
        })
        .collect();
    lcg_obs::set_enabled(false);
    lcg_obs::reset();
    let mut m = Metrics::median_of(&samples);

    let snapshot_s: f64 = h
        .greedy
        .iter()
        .map(|host| {
            let o = oracle(host);
            let favg = o.params().favg;
            harness::timed(|| {
                IncrementalBetweenness::new(o.host(), |s, r| o.model().pair_rate(s, r) * favg)
            })
            .1
        })
        .sum();
    m.set("graph.incremental.snapshot_s", snapshot_s);
    m.set("parallel.single_thread_wall_s", single.wall());
    m.set("parallel.speedup", single.wall() / untraced_wall);
    (checks, m)
}

fn traced_metrics(
    legs: &Legs,
    snapshot: &lcg_obs::metrics::MetricsSnapshot,
    spans: &[lcg_obs::span::SpanRecord],
    untraced_wall: f64,
) -> Metrics {
    let stats: Vec<_> = legs.oracles().map(UtilityOracle::stats).collect();
    let hits: u64 = stats.iter().map(|s| s.cache.hits).sum();
    let misses: u64 = stats.iter().map(|s| s.cache.misses).sum();
    let inc = stats.iter().filter_map(|s| s.incremental);
    let (queries, recomputed, cached) = inc.fold((0, 0, 0), |(q, r, c), s| {
        (
            q + s.queries,
            r + s.recomputed_sources,
            c + s.cached_sources,
        )
    });
    let miss_ns = snapshot.histogram("core/oracle/evaluate_miss_ns");
    let quantile = |q: f64| miss_ns.map_or(0.0, |h| h.quantile(q) as f64);

    let mut m = Metrics::default();
    m.set("core.greedy.busy_s", legs.greedy_s);
    m.set("core.exhaustive.busy_s", legs.exhaustive_s);
    m.set("core.oracle.evaluations", legs.evaluations() as f64);
    m.set("core.eval_cache.hits", hits as f64);
    m.set("core.eval_cache.misses", misses as f64);
    m.set(
        "core.eval_cache.hit_rate",
        lcg_obs::stats::hit_rate(hits, misses),
    );
    m.set("core.oracle.miss_ns_p50", quantile(0.5));
    m.set("core.oracle.miss_ns_p99", quantile(0.99));
    m.set("core.join.simplified_utility", legs.simplified_utility());
    m.set("graph.incremental.queries", queries as f64);
    m.set("graph.incremental.recomputed_sources", recomputed as f64);
    m.set("graph.incremental.cached_sources", cached as f64);
    m.set(
        "graph.incremental.recompute_fraction",
        lcg_obs::stats::part_of_total(recomputed, cached),
    );
    m.set(
        "parallel.worker_spans",
        harness::span_count(spans, "parallel/worker"),
    );
    m.set("obs.trace_overhead", legs.wall() / untraced_wall);
    m
}
