//! # lcg-sim — payment-channel-network simulator substrate
//!
//! The executable counterpart of the model in §II of *Lightning Creation
//! Games* (ICDCS 2023): everything the paper assumes about how a PCN
//! behaves is implemented here so the analytic results can be validated
//! against a running system.
//!
//! * [`channel`] — bilateral channel balances with the exact payment
//!   semantics of the paper's Figure 1.
//! * [`onchain`] — miner-fee cost model `C`, cost sharing, the three
//!   equiprobable closing modes, and the opportunity cost `l = r·c`.
//! * [`fees`] — the global fee function `F : [0,T] → R+`, transaction-size
//!   distributions, and the average fee `f_avg = ∫ p(t)F(t) dt`.
//! * [`network`] — [`network::Pcn`]: topology + balances + fee/cost
//!   ledgers, capacity-reduced subgraphs `G'(x)`, uniform shortest-path
//!   sampling and atomic (HTLC-style) multi-hop payment execution.
//! * [`workload`] — Poisson transaction streams with pluggable
//!   sender/receiver pair distributions (uniform of \[19\], or the paper's
//!   Zipf model supplied by `lcg-core`). The uniform model stores no
//!   matrix; its receivers, and senders at unit rates, are drawn in O(1),
//!   bit-identical to a scan of the dense row.
//! * [`htlc`] — the explicit lock/settle/fail HTLC state machine with
//!   reservations (footnote 1 of the paper, made executable).
//! * [`rebalance`] — off-chain cycle rebalancing (the paper's \[30\]).
//! * [`snapshot`] — synthetic Lightning-like snapshots (scale-free
//!   topology, log-normal capacities) substituting for real LN data.
//! * [`engine`] — discrete-event replay behind the [`engine::Simulation`]
//!   builder, producing [`engine::SimReport`]s (success rates, per-edge
//!   usage, per-node fee flows) used to cross-validate the analytic
//!   estimators.
//! * [`faults`] — deterministic, seed-reproducible fault injection
//!   ([`faults::FaultPlan`]): transient hop failures, stuck-HTLC
//!   timeouts, node churn/offline windows, forced unilateral closures.
//! * [`retry`] — sender-side [`retry::RetryPolicy`] (fixed/exponential
//!   backoff, jitter, alternate-route re-selection).
//!
//! # Quick start
//!
//! ```
//! use lcg_sim::network::Pcn;
//! use lcg_sim::fees::FeeFunction;
//! use lcg_sim::onchain::CostModel;
//!
//! // Alice - Bob - Carol: Alice pays Carol through Bob (§II-A example).
//! let mut pcn = Pcn::new(CostModel::new(1.0, 0.0), FeeFunction::Constant { fee: 0.1 });
//! let alice = pcn.add_node();
//! let bob = pcn.add_node();
//! let carol = pcn.add_node();
//! pcn.open_channel(alice, bob, 10.0, 10.0);
//! pcn.open_channel(bob, carol, 10.0, 10.0);
//! let receipt = pcn.pay(alice, carol, 5.0)?;
//! assert_eq!(receipt.intermediaries, vec![bob]);
//! # Ok::<(), lcg_sim::network::RouteError>(())
//! ```

pub mod channel;
pub mod engine;
pub mod faults;
pub mod fees;
pub mod htlc;
pub mod network;
pub mod onchain;
pub mod rebalance;
pub mod retry;
pub mod snapshot;
pub mod workload;

pub use channel::{Channel, PaymentError, Side};
pub use engine::{SimReport, Simulation};
pub use faults::{FaultPlan, FaultRule, FaultStats};
pub use network::{PaymentReceipt, Pcn, RouteError};
pub use retry::{Backoff, RetryPolicy};
