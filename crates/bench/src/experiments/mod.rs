//! One module per experiment in DESIGN.md's index (E1–E14).
//!
//! Each module exposes `run() -> ExperimentReport`; [`catalog`] lists them
//! for the `all_experiments` binary, which runs all of them (regenerating
//! EXPERIMENTS.md's data) or one (`--only E9`).

pub mod e01_fig1;
pub mod e02_fig2;
pub mod e03_zipf;
pub mod e04_utility_properties;
pub mod e05_greedy;
pub mod e06_exhaustive;
pub mod e07_continuous;
pub mod e08_hub_bound;
pub mod e09_star;
pub mod e10_path;
pub mod e11_circle;
pub mod e12_rates;
pub mod e13_ablations;
pub mod e14_faults;

use crate::report::ExperimentReport;

/// A catalog entry: the experiment's id and its runner.
pub type CatalogEntry = (&'static str, fn() -> ExperimentReport);

/// `(experiment id, runner)` pairs in DESIGN.md order — the single
/// source of truth for what `all_experiments` executes (`--only` filters
/// it by id; `--metrics-out` brackets each runner with an observability
/// reset/capture to emit one `RunReport` per experiment).
pub fn catalog() -> Vec<CatalogEntry> {
    vec![
        ("E1", e01_fig1::run as fn() -> ExperimentReport),
        ("E2", e02_fig2::run),
        ("E3", e03_zipf::run),
        ("E4", e04_utility_properties::run),
        ("E5", e05_greedy::run),
        ("E6", e06_exhaustive::run),
        ("E7", e07_continuous::run),
        ("E8", e08_hub_bound::run),
        ("E9", e09_star::run),
        ("E10", e10_path::run),
        ("E11", e11_circle::run),
        ("E12", e12_rates::run),
        ("E13", e13_ablations::run),
        ("E14", e14_faults::run),
    ]
}
