//! # lcg-bench — the experiment harness
//!
//! Regenerates every figure and theorem-backed claim of *Lightning
//! Creation Games* (ICDCS 2023). The paper's evaluation is analytic, so
//! "reproducing the evaluation" means mechanically re-deriving each
//! claim's *shape* — worked examples (Fig. 1–2), structural properties
//! (Thm 1–3), approximation guarantees (Thm 4–5, §III-D) and equilibrium
//! regions (Thm 6–11) — and verifying it against exact baselines and the
//! discrete-event simulator.
//!
//! * [`report`] — tables, verdicts and experiment reports.
//! * [`experiments`] — E1 through E12, one module each (see DESIGN.md's
//!   experiment index for the mapping).
//!
//! Run everything (`cargo run -p lcg-bench --bin all_experiments`) or a
//! single experiment (`... --bin all_experiments -- --only E9`).
//! Criterion benches (`cargo bench -p lcg-bench`) back the runtime claims.

pub mod experiments;
pub mod report;
