//! Estimating the model's parameters from observed transactions
//! (the paper's future-work item: "developing more accurate methods for
//! estimating these parameters may be helpful", §VI).
//!
//! Everything the algorithms consume — total volume `N`, per-sender
//! volumes `N_u` and the Zipf exponent `s` — must in practice be
//! estimated from an observed transaction stream. This module provides:
//!
//! * volume estimators with exact Poisson semantics (counts over a
//!   horizon), and
//! * a maximum-likelihood estimator for `s` that inverts the modified
//!   Zipf model: given each observed transaction's receiver *rank class*
//!   (w.r.t. the sender-removed graph), maximize
//!   `Σ log rf_s(class) − Σ log H^s_n` over a grid with golden-section
//!   refinement.
//!
//! The tests do full loop closure: generate a workload at a known `s`
//! with `lcg-sim`, estimate, and recover the truth.

use crate::zipf::{transaction_probabilities, ZipfVariant};
use lcg_graph::DiGraph;
use lcg_sim::workload::Tx;
use serde::{Deserialize, Serialize};

/// Estimated volumes from an observed stream.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct VolumeEstimate {
    /// Estimated total rate `N̂` (transactions per unit time).
    pub total_rate: f64,
    /// Estimated per-sender rates `N̂_u`, indexed by `NodeId::index()`.
    pub sender_rates: Vec<f64>,
    /// Observation horizon used.
    pub horizon: f64,
}

/// Estimates `N` and `N_u` by simple rate counting over the stream's
/// time horizon (the MLE for Poisson processes).
///
/// `node_bound` sizes the per-sender vector. Returns zero rates for an
/// empty stream.
pub fn estimate_volumes(txs: &[Tx], node_bound: usize) -> VolumeEstimate {
    let horizon = txs.last().map_or(0.0, |t| t.time);
    let mut sender_rates = vec![0.0; node_bound];
    if horizon <= 0.0 {
        return VolumeEstimate {
            total_rate: 0.0,
            sender_rates,
            horizon,
        };
    }
    for tx in txs {
        if tx.sender.index() < node_bound {
            sender_rates[tx.sender.index()] += 1.0;
        }
    }
    for r in &mut sender_rates {
        *r /= horizon;
    }
    VolumeEstimate {
        total_rate: txs.len() as f64 / horizon,
        sender_rates,
        horizon,
    }
}

/// Log-likelihood of the observed stream under the modified Zipf model
/// with parameter `s` on `host`.
///
/// Each observation contributes `log p_trans(sender, receiver)`; the
/// per-sender distributions are computed once per sender and cached
/// across transactions from the same sender.
///
/// Returns `-∞` if the model cannot generate the stream: some transaction
/// has probability zero, or its sender or receiver is not a live node of
/// `host`.
pub fn zipf_log_likelihood<N: Clone, E: Clone>(host: &DiGraph<N, E>, txs: &[Tx], s: f64) -> f64 {
    let mut cache: Vec<Option<Vec<f64>>> = vec![None; host.node_bound()];
    let mut ll = 0.0;
    for tx in txs {
        if !host.contains_node(tx.sender) {
            return f64::NEG_INFINITY;
        }
        let probs = cache[tx.sender.index()].get_or_insert_with(|| {
            transaction_probabilities(host, tx.sender, s, ZipfVariant::Averaged)
        });
        let p = probs.get(tx.receiver.index()).copied().unwrap_or(0.0);
        if p <= 0.0 {
            return f64::NEG_INFINITY; // model cannot generate this stream
        }
        ll += p.ln();
    }
    ll
}

/// Maximum-likelihood estimate of the Zipf exponent `s` over
/// `[0, s_max]`: coarse grid scan followed by golden-section refinement
/// (the likelihood is smooth and, empirically, unimodal in `s`).
///
/// Returns `(ŝ, log-likelihood at ŝ)`.
///
/// # Panics
///
/// Panics if `txs` is empty or `s_max <= 0`.
pub fn estimate_zipf_s<N: Clone, E: Clone>(
    host: &DiGraph<N, E>,
    txs: &[Tx],
    s_max: f64,
) -> (f64, f64) {
    assert!(!txs.is_empty(), "cannot estimate from an empty stream");
    assert!(s_max > 0.0, "s_max must be positive");
    // Coarse grid.
    let grid_points = 16;
    let mut best_s = 0.0;
    let mut best_ll = f64::NEG_INFINITY;
    for i in 0..=grid_points {
        let s = s_max * i as f64 / grid_points as f64;
        let ll = zipf_log_likelihood(host, txs, s);
        if ll > best_ll {
            best_ll = ll;
            best_s = s;
        }
    }
    // Golden-section refinement around the best grid cell.
    let step = s_max / grid_points as f64;
    let (mut lo, mut hi) = ((best_s - step).max(0.0), (best_s + step).min(s_max));
    let phi = (5f64.sqrt() - 1.0) / 2.0;
    for _ in 0..40 {
        let m1 = hi - phi * (hi - lo);
        let m2 = lo + phi * (hi - lo);
        if zipf_log_likelihood(host, txs, m1) < zipf_log_likelihood(host, txs, m2) {
            lo = m1;
        } else {
            hi = m2;
        }
    }
    let s_hat = (lo + hi) / 2.0;
    (s_hat, zipf_log_likelihood(host, txs, s_hat))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::rates::TransactionModel;
    use lcg_graph::{generators, NodeId};
    use lcg_sim::fees::TxSizeDistribution;
    use lcg_sim::workload::WorkloadBuilder;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    fn workload_at(s: f64, count: usize, seed: u64) -> (generators::Topology, Vec<Tx>) {
        let mut rng = StdRng::seed_from_u64(seed);
        let host = generators::barabasi_albert(20, 2, &mut rng);
        let n = host.node_bound();
        let model = TransactionModel::zipf(&host, s, ZipfVariant::Averaged, vec![2.0; n]);
        let txs = WorkloadBuilder::new(model.to_pair_weights())
            .sender_rates(model.sender_rates())
            .sizes(TxSizeDistribution::Constant { size: 1.0 })
            .generate(count, &mut rng);
        (host, txs)
    }

    #[test]
    fn volume_estimation_recovers_rates() {
        let (host, txs) = workload_at(1.0, 30_000, 41);
        let est = estimate_volumes(&txs, host.node_bound());
        // True total rate: 20 senders × 2.0.
        assert!(
            (est.total_rate - 40.0).abs() / 40.0 < 0.05,
            "total rate {} vs 40",
            est.total_rate
        );
        for (i, &r) in est.sender_rates.iter().enumerate() {
            assert!(
                (r - 2.0).abs() < 0.5,
                "sender {i} rate {r} too far from 2.0"
            );
        }
    }

    #[test]
    fn empty_stream_estimates_zero() {
        let est = estimate_volumes(&[], 5);
        assert_eq!(est.total_rate, 0.0);
        assert!(est.sender_rates.iter().all(|&r| r == 0.0));
    }

    #[test]
    fn zipf_mle_recovers_the_exponent() {
        for (true_s, tol) in [(0.5, 0.25), (1.0, 0.25), (2.0, 0.4)] {
            let (host, txs) = workload_at(true_s, 8_000, 42);
            let (s_hat, ll) = estimate_zipf_s(&host, &txs, 4.0);
            assert!(
                (s_hat - true_s).abs() < tol,
                "estimated s = {s_hat} for true s = {true_s}"
            );
            assert!(ll.is_finite());
        }
    }

    #[test]
    fn likelihood_prefers_truth_over_extremes() {
        let (host, txs) = workload_at(1.5, 5_000, 43);
        let at_truth = zipf_log_likelihood(&host, &txs, 1.5);
        assert!(at_truth > zipf_log_likelihood(&host, &txs, 0.0));
        assert!(at_truth > zipf_log_likelihood(&host, &txs, 4.0));
    }

    #[test]
    fn uniform_traffic_estimates_s_near_zero() {
        let (host, txs) = workload_at(0.0, 6_000, 44);
        let (s_hat, _) = estimate_zipf_s(&host, &txs, 4.0);
        assert!(s_hat < 0.2, "uniform stream gave s = {s_hat}");
    }

    fn tx(sender: usize, receiver: usize) -> Tx {
        Tx {
            time: 1.0,
            sender: NodeId(sender),
            receiver: NodeId(receiver),
            size: 1.0,
        }
    }

    #[test]
    fn sender_outside_the_host_cannot_be_generated() {
        let host = generators::path(3);
        assert!(zipf_log_likelihood(&host, &[tx(0, 1)], 1.0).is_finite());
        assert_eq!(
            zipf_log_likelihood(&host, &[tx(5, 0)], 1.0),
            f64::NEG_INFINITY
        );
    }

    #[test]
    fn tombstoned_sender_cannot_be_generated() {
        let mut host = generators::path(3);
        host.remove_node(NodeId(1));
        assert!(zipf_log_likelihood(&host, &[tx(0, 2)], 1.0).is_finite());
        assert_eq!(
            zipf_log_likelihood(&host, &[tx(1, 0)], 1.0),
            f64::NEG_INFINITY
        );
    }

    #[test]
    fn receiver_outside_the_host_cannot_be_generated() {
        let host = generators::path(3);
        assert_eq!(
            zipf_log_likelihood(&host, &[tx(0, 1), tx(0, 7)], 1.0),
            f64::NEG_INFINITY
        );
    }

    #[test]
    #[should_panic(expected = "empty stream")]
    fn empty_stream_mle_panics() {
        let host = generators::star(3);
        estimate_zipf_s(&host, &[], 2.0);
    }
}
