//! Transaction workload generation (paper §II-B).
//!
//! Each user `u` emits on average `N_u` transactions per unit of time; the
//! receiver is drawn from a per-sender distribution (uniform in the prior
//! work \[19\], degree-rank Zipf in this paper); sizes come from the global
//! size distribution. Arrivals form a Poisson process, realized here by
//! exponential inter-arrival times at the aggregate rate
//! `N = Σ_u N_u`.

use crate::fees::TxSizeDistribution;
use lcg_graph::NodeId;
use rand::Rng;
use serde::{Deserialize, Serialize};

/// One generated transaction.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct Tx {
    /// Arrival time (unit-of-time scale).
    pub time: f64,
    /// Sender.
    pub sender: NodeId,
    /// Receiver.
    pub receiver: NodeId,
    /// Transaction size in coins.
    pub size: f64,
}

/// A per-sender receiver distribution: `weights[s][r]` is proportional to
/// the probability that `s` transacts with `r` (diagonal entries ignored).
///
/// Rows need not be normalized; the sampler normalizes on the fly. This is
/// the bridge between `lcg-core`'s analytic `p_trans` and the simulator.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct PairWeights {
    weights: Vec<Vec<f64>>,
}

impl PairWeights {
    /// Builds pair weights from a dense matrix.
    ///
    /// # Panics
    ///
    /// Panics if the matrix is not square, or any weight is negative/NaN.
    pub fn new(weights: Vec<Vec<f64>>) -> Self {
        let n = weights.len();
        for (i, row) in weights.iter().enumerate() {
            assert_eq!(row.len(), n, "row {i} has length {} != {n}", row.len());
            for (j, &w) in row.iter().enumerate() {
                assert!(
                    w >= 0.0 && !w.is_nan(),
                    "weight[{i}][{j}] must be non-negative, got {w}"
                );
            }
        }
        PairWeights { weights }
    }

    /// Uniform receiver choice over the other `n-1` nodes — the transaction
    /// model of \[19\], kept as an ablation baseline.
    pub fn uniform(n: usize) -> Self {
        let weights = (0..n)
            .map(|i| (0..n).map(|j| if i == j { 0.0 } else { 1.0 }).collect())
            .collect();
        PairWeights { weights }
    }

    /// Number of users covered.
    pub fn len(&self) -> usize {
        self.weights.len()
    }

    /// Returns `true` if the matrix is empty.
    pub fn is_empty(&self) -> bool {
        self.weights.is_empty()
    }

    /// Weight of the ordered pair `(s, r)`.
    pub fn weight(&self, s: NodeId, r: NodeId) -> f64 {
        if s == r {
            return 0.0;
        }
        self.weights
            .get(s.index())
            .and_then(|row| row.get(r.index()))
            .copied()
            .unwrap_or(0.0)
    }

    /// Normalized probability that `s` transacts with `r` given that `s`
    /// sends a transaction; `0.0` for a sender outside the matrix.
    pub fn probability(&self, s: NodeId, r: NodeId) -> f64 {
        let Some(row) = self.weights.get(s.index()) else {
            return 0.0;
        };
        let total: f64 = row
            .iter()
            .enumerate()
            .filter(|&(j, _)| j != s.index())
            .map(|(_, &w)| w)
            .sum();
        if total <= 0.0 {
            0.0
        } else {
            self.weight(s, r) / total
        }
    }

    /// Samples a receiver for sender `s`.
    ///
    /// Returns `None` if all of `s`'s weights are zero.
    pub fn sample_receiver<R: Rng + ?Sized>(&self, s: NodeId, rng: &mut R) -> Option<NodeId> {
        let row = self.weights.get(s.index())?;
        let total: f64 = row
            .iter()
            .enumerate()
            .filter(|&(j, _)| j != s.index())
            .map(|(_, &w)| w)
            .sum();
        if total <= 0.0 {
            return None;
        }
        let mut pick = rng.gen_range(0.0..total);
        for (j, &w) in row.iter().enumerate() {
            if j == s.index() || w == 0.0 {
                continue;
            }
            if pick < w {
                return Some(NodeId(j));
            }
            pick -= w;
        }
        // Floating-point edge: fall back to the last positive entry.
        row.iter()
            .enumerate()
            .filter(|&(j, &w)| j != s.index() && w > 0.0)
            .map(|(j, _)| NodeId(j))
            .next_back()
    }
}

/// Poisson transaction stream over a fixed user population.
///
/// # Examples
///
/// ```
/// use lcg_sim::workload::{PairWeights, WorkloadBuilder};
/// use lcg_sim::fees::TxSizeDistribution;
/// use rand::SeedableRng;
///
/// let mut rng = rand::rngs::StdRng::seed_from_u64(7);
/// let txs = WorkloadBuilder::new(PairWeights::uniform(5))
///     .sender_rates(vec![1.0; 5])
///     .sizes(TxSizeDistribution::Constant { size: 1.0 })
///     .generate(100, &mut rng);
/// assert_eq!(txs.len(), 100);
/// assert!(txs.windows(2).all(|w| w[0].time <= w[1].time));
/// ```
#[derive(Debug, Clone)]
pub struct WorkloadBuilder {
    pairs: PairWeights,
    sender_rates: Vec<f64>,
    sizes: TxSizeDistribution,
}

impl WorkloadBuilder {
    /// Starts a workload over the users covered by `pairs`, with unit
    /// sender rates (`N_u = 1`) and unit-size transactions.
    pub fn new(pairs: PairWeights) -> Self {
        let n = pairs.len();
        WorkloadBuilder {
            pairs,
            sender_rates: vec![1.0; n],
            sizes: TxSizeDistribution::default(),
        }
    }

    /// Sets per-sender mean transaction counts per unit time (`N_u`).
    ///
    /// # Panics
    ///
    /// Panics if the length differs from the user count or any rate is
    /// negative/NaN.
    pub fn sender_rates(mut self, rates: Vec<f64>) -> Self {
        assert_eq!(
            rates.len(),
            self.pairs.len(),
            "need one rate per user ({} != {})",
            rates.len(),
            self.pairs.len()
        );
        for (i, &r) in rates.iter().enumerate() {
            assert!(r >= 0.0 && !r.is_nan(), "rate[{i}] must be >= 0, got {r}");
        }
        self.sender_rates = rates;
        self
    }

    /// Sets the transaction-size distribution.
    pub fn sizes(mut self, sizes: TxSizeDistribution) -> Self {
        self.sizes = sizes;
        self
    }

    /// Aggregate rate `N = Σ_u N_u`.
    pub fn total_rate(&self) -> f64 {
        self.sender_rates.iter().sum()
    }

    /// Generates `count` transactions in arrival order.
    ///
    /// Senders are drawn proportionally to `N_u` and arrival gaps are
    /// `Exp(N)`, which realizes the superposition of the per-user Poisson
    /// processes.
    ///
    /// # Panics
    ///
    /// Panics if every sender rate is zero (no transactions can occur).
    pub fn generate<R: Rng + ?Sized>(&self, count: usize, rng: &mut R) -> Vec<Tx> {
        let total = self.total_rate();
        assert!(total > 0.0, "all sender rates are zero");
        let mut out = Vec::with_capacity(count);
        let mut time = 0.0f64;
        while out.len() < count {
            let u: f64 = rng.gen_range(0.0..1.0f64);
            time += -(1.0 - u).ln() / total;
            let sender = self.sample_sender(total, rng);
            let Some(receiver) = self.pairs.sample_receiver(sender, rng) else {
                continue; // sender with no counterparties: skip the slot
            };
            out.push(Tx {
                time,
                sender,
                receiver,
                size: self.sizes.sample(rng),
            });
        }
        out
    }

    /// Draws a sender proportionally to `N_u`; `total` is
    /// [`WorkloadBuilder::total_rate`].
    fn sample_sender<R: Rng + ?Sized>(&self, total: f64, rng: &mut R) -> NodeId {
        let mut pick = rng.gen_range(0.0..total);
        for (i, &r) in self.sender_rates.iter().enumerate() {
            if r == 0.0 {
                continue;
            }
            if pick < r {
                return NodeId(i);
            }
            pick -= r;
        }
        NodeId(self.sender_rates.len() - 1)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    #[test]
    fn uniform_pairs_have_equal_probabilities() {
        let pw = PairWeights::uniform(4);
        for s in 0..4 {
            for r in 0..4 {
                let p = pw.probability(NodeId(s), NodeId(r));
                if s == r {
                    assert_eq!(p, 0.0);
                } else {
                    assert!((p - 1.0 / 3.0).abs() < 1e-12);
                }
            }
        }
    }

    #[test]
    fn probabilities_row_normalize() {
        let pw = PairWeights::new(vec![
            vec![0.0, 3.0, 1.0],
            vec![2.0, 0.0, 2.0],
            vec![0.0, 0.0, 0.0],
        ]);
        assert!((pw.probability(NodeId(0), NodeId(1)) - 0.75).abs() < 1e-12);
        assert!((pw.probability(NodeId(0), NodeId(2)) - 0.25).abs() < 1e-12);
        assert_eq!(pw.probability(NodeId(2), NodeId(0)), 0.0);
    }

    #[test]
    fn sender_outside_the_matrix_has_zero_probability() {
        let pw = PairWeights::uniform(3);
        let outside = NodeId(3);
        let mut rng = StdRng::seed_from_u64(5);
        assert_eq!(pw.probability(outside, NodeId(0)), 0.0);
        assert_eq!(pw.weight(outside, NodeId(0)), 0.0);
        assert_eq!(pw.sample_receiver(outside, &mut rng), None);
    }

    #[test]
    fn sample_receiver_matches_weights() {
        let pw = PairWeights::new(vec![
            vec![0.0, 9.0, 1.0],
            vec![1.0, 0.0, 1.0],
            vec![1.0, 1.0, 0.0],
        ]);
        let mut rng = StdRng::seed_from_u64(3);
        let trials = 20_000;
        let mut hits = 0;
        for _ in 0..trials {
            if pw.sample_receiver(NodeId(0), &mut rng) == Some(NodeId(1)) {
                hits += 1;
            }
        }
        let frac = hits as f64 / trials as f64;
        assert!((frac - 0.9).abs() < 0.02, "frac {frac}");
    }

    #[test]
    fn zero_weight_sender_yields_none() {
        let pw = PairWeights::new(vec![vec![0.0, 0.0], vec![1.0, 0.0]]);
        let mut rng = StdRng::seed_from_u64(1);
        assert_eq!(pw.sample_receiver(NodeId(0), &mut rng), None);
        assert_eq!(pw.sample_receiver(NodeId(1), &mut rng), Some(NodeId(0)));
    }

    #[test]
    #[should_panic(expected = "non-negative")]
    fn negative_weight_panics() {
        PairWeights::new(vec![vec![0.0, -1.0], vec![1.0, 0.0]]);
    }

    #[test]
    fn generated_transactions_are_time_ordered_and_valid() {
        let mut rng = StdRng::seed_from_u64(17);
        let txs = WorkloadBuilder::new(PairWeights::uniform(6))
            .sender_rates(vec![2.0; 6])
            .sizes(TxSizeDistribution::Uniform { max: 5.0 })
            .generate(500, &mut rng);
        assert_eq!(txs.len(), 500);
        for w in txs.windows(2) {
            assert!(w[0].time <= w[1].time);
        }
        for tx in &txs {
            assert_ne!(tx.sender, tx.receiver);
            assert!(tx.size >= 0.0 && tx.size <= 5.0);
        }
    }

    #[test]
    fn sender_frequency_tracks_rates() {
        let mut rng = StdRng::seed_from_u64(23);
        let txs = WorkloadBuilder::new(PairWeights::uniform(3))
            .sender_rates(vec![8.0, 1.0, 1.0])
            .generate(20_000, &mut rng);
        let from0 = txs.iter().filter(|t| t.sender == NodeId(0)).count();
        let frac = from0 as f64 / txs.len() as f64;
        assert!((frac - 0.8).abs() < 0.02, "frac {frac}");
    }

    #[test]
    fn arrival_rate_matches_total() {
        let mut rng = StdRng::seed_from_u64(29);
        let total_rate = 10.0;
        let txs = WorkloadBuilder::new(PairWeights::uniform(5))
            .sender_rates(vec![2.0; 5])
            .generate(20_000, &mut rng);
        let horizon = txs.last().unwrap().time;
        let empirical = txs.len() as f64 / horizon;
        assert!(
            (empirical - total_rate).abs() / total_rate < 0.05,
            "empirical rate {empirical} vs {total_rate}"
        );
    }

    #[test]
    #[should_panic(expected = "all sender rates are zero")]
    fn all_zero_rates_panic() {
        let mut rng = StdRng::seed_from_u64(1);
        WorkloadBuilder::new(PairWeights::uniform(2))
            .sender_rates(vec![0.0, 0.0])
            .generate(1, &mut rng);
    }
}
