//! `nash`: §IV equilibrium certification with `NashAnalyzer::new()` —
//! Thm 7 stars (bound pruning skips almost every candidate), paths and
//! circles (the cost is `edge_delta` re-evaluation), and seeded
//! Barabási–Albert games checked and then run through best-response
//! dynamics (the `DeviationCache` pays off across rounds).

use crate::harness::{self, Checks, Metrics};
use crate::Run;
use lcg_equilibria::best_response::DynamicsReport;
use lcg_equilibria::game::{Game, GameParams};
use lcg_equilibria::nash::{DeviationSearch, EvalContext, NashAnalyzer, NashReport};
use lcg_graph::generators;
use rand::rngs::StdRng;
use rand::SeedableRng;

const MAX_ROUNDS: usize = 50;
/// Seeded games per run: their cost varies with the topology drawn, so
/// several small ones keep the per-run total steady across seeds (eight
/// BA-10 games vary less from seed to seed than four BA-12 games).
const BA_GAMES: usize = 8;
const TRACED_REPEATS: usize = 3;

/// Thm 7's stable-star regime.
fn star_params() -> GameParams {
    GameParams {
        zipf_s: 6.0,
        a: 0.4,
        b: 0.4,
        link_cost: 1.0,
        ..GameParams::default()
    }
}

fn line_params() -> GameParams {
    GameParams {
        zipf_s: 3.0,
        a: 0.2,
        b: 0.2,
        link_cost: 1.0,
        ..GameParams::default()
    }
}

struct Games {
    stars: Vec<Game>,
    paths: Vec<Game>,
    circles: Vec<Game>,
    ba: Vec<Game>,
}

impl Games {
    fn count(&self) -> usize {
        self.stars.len() + self.paths.len() + self.circles.len() + self.ba.len()
    }

    fn all(&self) -> impl Iterator<Item = &Game> {
        self.stars
            .iter()
            .chain(&self.paths)
            .chain(&self.circles)
            .chain(&self.ba)
    }
}

fn games(run: &Run) -> Games {
    let (leaves, lines, ba_players, ba_games): (&[usize], &[usize], usize, usize) = if run.toy {
        (&[6, 7], &[6], 8, 2)
    } else {
        (&[20, 22], &[16, 17, 18], 10, BA_GAMES)
    };
    let mut rng = StdRng::seed_from_u64(run.seed);
    Games {
        stars: leaves
            .iter()
            .map(|&n| Game::star(n, star_params()))
            .collect(),
        paths: lines
            .iter()
            .map(|&n| Game::path(n, line_params()))
            .collect(),
        circles: lines
            .iter()
            .map(|&n| Game::circle(n, line_params()))
            .collect(),
        ba: (0..ba_games)
            .map(|_| ba_game(ba_players, &mut rng))
            .collect(),
    }
}

/// A Barabási–Albert topology in which each newcomer owns the channels it
/// attached with.
fn ba_game(players: usize, rng: &mut StdRng) -> Game {
    let topology = generators::barabasi_albert(players, 2, rng);
    let mut game = Game::new(players, line_params());
    for (_, newer, older, _) in topology.edges() {
        if newer > older {
            game.add_channel(newer, older);
        }
    }
    game
}

#[derive(Debug, Default)]
struct Times {
    star: f64,
    path: f64,
    circle: f64,
    ba: f64,
    dynamics: f64,
}

/// One certification pass over every game, each on a fresh analyzer;
/// each seeded game is also settled by best-response dynamics.
struct Certified {
    reports: Vec<NashReport>,
    dynamics: Vec<DynamicsReport>,
    settled: Vec<Game>,
    settled_checks: Vec<NashReport>,
    times: Times,
}

impl Certified {
    fn run(g: &Games) -> Certified {
        let mut times = Times::default();
        let mut reports = Vec::new();
        for (family, slot) in [
            (&g.stars, &mut times.star),
            (&g.paths, &mut times.path),
            (&g.circles, &mut times.circle),
        ] {
            for game in family {
                let (report, s) = harness::timed(|| NashAnalyzer::new().check(game));
                *slot += s;
                reports.push(report);
            }
        }
        let (mut dynamics, mut settled, mut settled_checks) = (Vec::new(), Vec::new(), Vec::new());
        for game in &g.ba {
            let analyzer = NashAnalyzer::new();
            let (report, s) = harness::timed(|| analyzer.check(game));
            times.ba += s;
            reports.push(report);
            let mut state = game.clone();
            let (d, s) = harness::timed(|| analyzer.run_dynamics(&mut state, MAX_ROUNDS));
            times.dynamics += s;
            // Untimed: answered from the analyzer's memo.
            settled_checks.push(analyzer.check(&state));
            dynamics.push(d);
            settled.push(state);
        }
        Certified {
            reports,
            dynamics,
            settled,
            settled_checks,
            times,
        }
    }

    fn wall(&self) -> f64 {
        let t = &self.times;
        t.star + t.path + t.circle + t.ba + t.dynamics
    }

    fn check(&self, checks: &mut Checks, g: &Games) {
        for (i, r) in self.reports.iter().take(g.stars.len()).enumerate() {
            checks.check(r.is_equilibrium, || {
                format!("Thm 7 star {i} was not certified as an equilibrium")
            });
        }
        for (d, settled) in self.dynamics.iter().zip(&self.settled_checks) {
            checks.check(d.converged && settled.is_equilibrium, || {
                "best-response dynamics did not settle in an equilibrium".into()
            });
        }
    }

    fn same_outputs(&self, other: &Certified) -> bool {
        self.reports == other.reports
            && self
                .dynamics
                .iter()
                .zip(&other.dynamics)
                .all(|(a, b)| a.applied == b.applied && a.rounds == b.rounds)
            && self
                .settled
                .iter()
                .zip(&other.settled)
                .all(|(a, b)| a.canonical_channels() == b.canonical_channels())
    }
}

/// The acceleration-audit games and the four `DeviationSearch` settings,
/// named by their per-layer metrics.
fn audit_games() -> [Game; 3] {
    [
        Game::star(10, star_params()),
        Game::path(8, line_params()),
        Game::circle(8, line_params()),
    ]
}

const ABLATIONS: [(&str, &str, bool, bool); 4] = [
    (
        "equilibria.ablation.exhaustive_s",
        "equilibria.ablation.exhaustive_sources",
        false,
        false,
    ),
    (
        "equilibria.ablation.bound_only_s",
        "equilibria.ablation.bound_only_sources",
        true,
        false,
    ),
    (
        "equilibria.ablation.incremental_only_s",
        "equilibria.ablation.incremental_only_sources",
        false,
        true,
    ),
    (
        "equilibria.ablation.both_s",
        "equilibria.ablation.both_sources",
        true,
        true,
    ),
];

/// Verdict, deviations and candidate accounting equal the exhaustive
/// reference's.
fn check_against_reference(checks: &mut Checks, got: &NashReport, reference: &NashReport) {
    checks.check(
        got.is_equilibrium == reference.is_equilibrium
            && got.deviations == reference.deviations
            && got.explored + got.bound_pruned == reference.explored,
        || "an accelerated search disagreed with the exhaustive reference".into(),
    );
}

pub fn measure(run: &Run) -> (Checks, Metrics) {
    let (g, setup_s) = harness::setup(|| games(run));
    let mut checks = Checks::default();
    let mut first: Option<Certified> = None;
    let walls = harness::repeat_for(run.seconds, 3, || {
        let c = Certified::run(&g);
        let wall = c.wall();
        match &first {
            None => {
                c.check(&mut checks, &g);
                first = Some(c);
            }
            Some(f) => checks.check(c.same_outputs(f), || {
                "re-certifying the same games changed the outcome".into()
            }),
        }
        wall
    });
    for game in audit_games() {
        let reference = NashAnalyzer::exhaustive().check(&game);
        check_against_reference(&mut checks, &NashAnalyzer::new().check(&game), &reference);
    }
    let wall = harness::median(&walls);
    let mut m = Metrics::default();
    m.set("setup_s", setup_s);
    m.set("wall_s", wall);
    m.set("throughput_per_s", g.count() as f64 / wall);
    (checks, m)
}

pub fn trace(run: &Run, untraced_wall: f64) -> (Checks, Metrics) {
    let g = games(run);
    let mut checks = Checks::default();

    let workers = lcg_parallel::max_threads();
    lcg_parallel::set_max_threads(1);
    let single = Certified::run(&g);
    lcg_parallel::set_max_threads(workers);

    lcg_obs::set_enabled(true);
    let samples: Vec<Metrics> = (0..TRACED_REPEATS)
        .map(|_| {
            lcg_obs::reset();
            let c = Certified::run(&g);
            let snapshot = lcg_obs::metrics::snapshot();
            let spans = lcg_obs::span::drain();
            c.check(&mut checks, &g);
            checks.check(c.same_outputs(&single), || {
                "certification changed its outcome with the worker count".into()
            });
            traced_metrics(&c, &snapshot, &spans, untraced_wall)
        })
        .collect();
    lcg_obs::set_enabled(false);
    lcg_obs::reset();
    let mut m = Metrics::median_of(&samples);

    let search = DeviationSearch::default();
    let build_s: f64 = g
        .all()
        .map(|game| harness::timed(|| EvalContext::new(game, &search)).1)
        .sum();
    m.set("equilibria.eval_context.build_s", build_s);

    let audit = audit_games();
    let references: Vec<NashReport> = audit
        .iter()
        .map(|game| NashAnalyzer::exhaustive().check(game))
        .collect();
    for (time_name, sources_name, bound_pruning, incremental) in ABLATIONS {
        let search = DeviationSearch {
            bound_pruning,
            incremental,
            ..DeviationSearch::default()
        };
        let (mut seconds, mut sources) = (0.0, 0);
        for (game, reference) in audit.iter().zip(&references) {
            let (report, s) = harness::timed(|| NashAnalyzer::with_search(search).check(game));
            check_against_reference(&mut checks, &report, reference);
            seconds += s;
            sources += report.sources_recomputed;
        }
        m.set(time_name, seconds);
        m.set(sources_name, sources as f64);
    }

    m.set("parallel.single_thread_wall_s", single.wall());
    m.set("parallel.speedup", single.wall() / untraced_wall);
    (checks, m)
}

fn traced_metrics(
    c: &Certified,
    snapshot: &lcg_obs::metrics::MetricsSnapshot,
    spans: &[lcg_obs::span::SpanRecord],
    untraced_wall: f64,
) -> Metrics {
    let sum = |f: fn(&NashReport) -> u64| c.reports.iter().map(f).sum::<u64>();
    let dyn_sum = |f: fn(&DynamicsReport) -> u64| c.dynamics.iter().map(f).sum::<u64>();
    let explored = sum(|r| r.explored) + dyn_sum(|d| d.explored);
    let bound_pruned = sum(|r| r.bound_pruned) + dyn_sum(|d| d.bound_pruned);

    let mut m = Metrics::default();
    m.set("equilibria.check.star_s", c.times.star);
    m.set("equilibria.check.path_s", c.times.path);
    m.set("equilibria.check.circle_s", c.times.circle);
    m.set("equilibria.check.ba_s", c.times.ba);
    m.set("equilibria.dynamics_s", c.times.dynamics);
    m.set("equilibria.explored", explored as f64);
    m.set("equilibria.bound_pruned", bound_pruned as f64);
    m.set(
        "equilibria.pruned_fraction",
        lcg_obs::stats::part_of_total(bound_pruned, explored),
    );
    m.set(
        "equilibria.sources_recomputed",
        (sum(|r| r.sources_recomputed) + dyn_sum(|d| d.sources_recomputed)) as f64,
    );
    m.set(
        "equilibria.sources_reweighted",
        (sum(|r| r.sources_reweighted) + dyn_sum(|d| d.sources_reweighted)) as f64,
    );
    for (metric, counter) in [
        (
            "graph.edge_delta.replayed_sources",
            "graph/edge_delta/replayed_sources",
        ),
        ("graph.edge_delta.fallbacks", "graph/edge_delta/fallbacks"),
        (
            "equilibria.deviation_cache.hits",
            "equilibria/deviation_cache/hits",
        ),
        (
            "equilibria.deviation_cache.misses",
            "equilibria/deviation_cache/misses",
        ),
    ] {
        m.set(metric, harness::counter(snapshot, counter));
    }
    m.set(
        "parallel.worker_spans",
        harness::span_count(spans, "parallel/worker"),
    );
    m.set("obs.trace_overhead", c.wall() / untraced_wall);
    m
}
