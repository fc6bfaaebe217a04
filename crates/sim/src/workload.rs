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

/// A per-sender receiver distribution: the weight of `(s, r)` is
/// proportional to the probability that `s` transacts with `r` (diagonal
/// entries ignored).
///
/// Two representations hold it. [`PairWeights::uniform`] stores only the
/// user count and draws a receiver in O(1). [`PairWeights::new`] keeps the
/// dense rows together with each row's total, summed once at construction,
/// and draws by a subtracting scan of the sender's row. Rows need not be
/// normalized. Equality compares representations: a uniform model never
/// equals a dense one. This is the bridge between `lcg-core`'s analytic
/// `p_trans` and the simulator.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct PairWeights {
    repr: Repr,
}

#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
enum Repr {
    /// Weight 1 on every ordered pair of distinct users among `n`.
    Uniform { n: usize },
    /// `rows[s][r]`, and `totals[s]`, row `s` summed off the diagonal.
    Dense {
        rows: Vec<Vec<f64>>,
        totals: Vec<f64>,
    },
}

impl PairWeights {
    /// Builds pair weights from a dense matrix.
    ///
    /// # Panics
    ///
    /// Panics if the matrix is not square, any weight is negative, NaN or
    /// infinite, or a row's off-diagonal total overflows to infinity.
    pub fn new(weights: Vec<Vec<f64>>) -> Self {
        let n = weights.len();
        let totals = weights
            .iter()
            .enumerate()
            .map(|(i, row)| {
                assert_eq!(row.len(), n, "row {i} has length {} != {n}", row.len());
                for (j, &w) in row.iter().enumerate() {
                    assert!(
                        w.is_finite() && w >= 0.0,
                        "weight[{i}][{j}] must be finite and non-negative, got {w}"
                    );
                }
                let total: f64 = row
                    .iter()
                    .enumerate()
                    .filter(|&(j, _)| j != i)
                    .map(|(_, &w)| w)
                    .sum();
                assert!(total.is_finite(), "row {i} sums to {total}");
                total
            })
            .collect();
        PairWeights {
            repr: Repr::Dense {
                rows: weights,
                totals,
            },
        }
    }

    /// Uniform receiver choice over the other `n-1` nodes — the transaction
    /// model of \[19\], kept as an ablation baseline. Stores only `n`: no
    /// matrix is built, and a receiver is drawn in O(1) with the same pick
    /// and RNG draw as a scan of a dense row of ones.
    pub fn uniform(n: usize) -> Self {
        PairWeights {
            repr: Repr::Uniform { n },
        }
    }

    /// Number of users covered.
    pub fn len(&self) -> usize {
        match &self.repr {
            Repr::Uniform { n } => *n,
            Repr::Dense { rows, .. } => rows.len(),
        }
    }

    /// Returns `true` if no user is covered.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Weight of the ordered pair `(s, r)`.
    pub fn weight(&self, s: NodeId, r: NodeId) -> f64 {
        if s == r {
            return 0.0;
        }
        match &self.repr {
            Repr::Uniform { n } => {
                if s.index() < *n && r.index() < *n {
                    1.0
                } else {
                    0.0
                }
            }
            Repr::Dense { rows, .. } => rows
                .get(s.index())
                .and_then(|row| row.get(r.index()))
                .copied()
                .unwrap_or(0.0),
        }
    }

    /// Normalized probability that `s` transacts with `r` given that `s`
    /// sends a transaction: the weight over the row's total, cached at
    /// construction; `0.0` for a sender outside the matrix.
    pub fn probability(&self, s: NodeId, r: NodeId) -> f64 {
        let total = self.row_total(s);
        if total <= 0.0 {
            0.0
        } else {
            self.weight(s, r) / total
        }
    }

    /// Samples a receiver for sender `s`.
    ///
    /// Returns `None`, without drawing, if all of `s`'s weights are zero
    /// or `s` is outside the matrix.
    pub fn sample_receiver<R: Rng + ?Sized>(&self, s: NodeId, rng: &mut R) -> Option<NodeId> {
        let total = self.row_total(s);
        if total <= 0.0 {
            return None;
        }
        let mut pick = rng.gen_range(0.0..total);
        let row = match &self.repr {
            Repr::Uniform { .. } => return Some(NodeId(unit_scan_index(pick, s.index()))),
            Repr::Dense { rows, .. } => &rows[s.index()],
        };
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

    /// Off-diagonal total of `s`'s row; `0.0` for a sender outside.
    fn row_total(&self, s: NodeId) -> f64 {
        match &self.repr {
            Repr::Uniform { n } if s.index() < *n => (n - 1) as f64,
            Repr::Uniform { .. } => 0.0,
            Repr::Dense { totals, .. } => totals.get(s.index()).copied().unwrap_or(0.0),
        }
    }
}

/// The entry a subtracting scan over unit weights stops at for `pick`,
/// with entry `skip` left out of the scan: the `⌊pick⌋`-th entry other
/// than `skip`.
///
/// Exact for `0 ≤ pick < 2^53`: for `1 ≤ x < 2^53`, `x - 1.0` is exact, so
/// after `k` steps the scan holds exactly `pick - k`, and it stops at the
/// first `k` with `pick - k < 1`, that is `k = ⌊pick⌋`.
fn unit_scan_index(pick: f64, skip: usize) -> usize {
    let k = pick as usize;
    k + usize::from(k >= skip)
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
    /// Panics if the length differs from the user count, any rate is
    /// negative, NaN or infinite, or the rates sum to infinity.
    pub fn sender_rates(mut self, rates: Vec<f64>) -> Self {
        assert_eq!(
            rates.len(),
            self.pairs.len(),
            "need one rate per user ({} != {})",
            rates.len(),
            self.pairs.len()
        );
        for (i, &r) in rates.iter().enumerate() {
            assert!(
                r.is_finite() && r >= 0.0,
                "rate[{i}] must be finite and >= 0, got {r}"
            );
        }
        self.sender_rates = rates;
        let total = self.total_rate();
        assert!(total.is_finite(), "sender rates sum to {total}");
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
    /// processes. A slot whose sender has no receiver of positive weight
    /// is skipped. With unit rates (every `N_u` exactly 1.0, the default),
    /// a sender is drawn in O(1), and with [`PairWeights::uniform`] so is a
    /// receiver; either pick equals the subtracting scan's, bit for bit.
    ///
    /// # Panics
    ///
    /// Panics if every sender rate is zero (no transactions can occur), or
    /// if `count > 0` and no sender with a positive rate has a receiver of
    /// positive weight (every slot would be skipped).
    pub fn generate<R: Rng + ?Sized>(&self, count: usize, rng: &mut R) -> Vec<Tx> {
        let total = self.total_rate();
        assert!(total > 0.0, "all sender rates are zero");
        assert!(
            count == 0
                || self
                    .sender_rates
                    .iter()
                    .enumerate()
                    .any(|(s, &r)| r > 0.0 && self.pairs.row_total(NodeId(s)) > 0.0),
            "no sender with a positive rate has a receiver of positive weight"
        );
        let unit_rates = self.sender_rates.iter().all(|&r| r == 1.0);
        let mut out = Vec::with_capacity(count);
        let mut time = 0.0f64;
        while out.len() < count {
            let u: f64 = rng.gen_range(0.0..1.0f64);
            time += -(1.0 - u).ln() / total;
            let pick = rng.gen_range(0.0..total);
            let sender = if unit_rates {
                NodeId(unit_scan_index(pick, usize::MAX)) // no entry to skip
            } else {
                self.sample_sender(pick)
            };
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

    /// The sender proportional to `N_u` for `pick`, drawn from
    /// `0.0..`[`WorkloadBuilder::total_rate`].
    fn sample_sender(&self, mut pick: f64) -> NodeId {
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
        let mut rng = StdRng::seed_from_u64(5);
        for pw in [
            PairWeights::uniform(3),
            PairWeights::new(vec![vec![1.0; 3]; 3]),
        ] {
            let outside = NodeId(3);
            assert_eq!(pw.probability(outside, NodeId(0)), 0.0);
            assert_eq!(pw.weight(outside, NodeId(0)), 0.0);
            assert_eq!(pw.weight(NodeId(0), outside), 0.0);
            assert_eq!(pw.sample_receiver(outside, &mut rng), None);
        }
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
    #[should_panic(expected = "weight[0][2] must be finite")]
    fn infinite_weight_panics() {
        let ones = vec![1.0, 1.0, 1.0];
        PairWeights::new(vec![vec![0.0, 1.0, f64::INFINITY], ones.clone(), ones]);
    }

    #[test]
    #[should_panic(expected = "row 0 sums to inf")]
    fn overflowing_row_total_panics() {
        let ones = vec![1.0, 1.0, 1.0];
        PairWeights::new(vec![vec![0.0, 1e308, 1e308], ones.clone(), ones]);
    }

    #[test]
    #[should_panic(expected = "rate[1] must be finite")]
    fn infinite_rate_panics() {
        WorkloadBuilder::new(PairWeights::uniform(3)).sender_rates(vec![1.0, f64::INFINITY, 1.0]);
    }

    #[test]
    #[should_panic(expected = "sender rates sum to inf")]
    fn overflowing_rate_total_panics() {
        WorkloadBuilder::new(PairWeights::uniform(2)).sender_rates(vec![1e308, 1e308]);
    }

    /// The subtracting scan over a row of unit weights with entry `skip`
    /// left out, as the dense sampler runs it.
    fn unit_scan(len: usize, skip: usize, mut pick: f64) -> usize {
        for j in 0..len {
            if j == skip {
                continue;
            }
            if pick < 1.0 {
                return j;
            }
            pick -= 1.0;
        }
        unreachable!("pick {pick} left over past the last entry of {len}")
    }

    /// Each `k` of `ks` with its two neighbouring floats, where the scan's
    /// answer can change, and the largest pick below `total`; only picks
    /// in `0..total` are kept.
    fn boundary_picks(ks: impl IntoIterator<Item = usize>, total: f64) -> Vec<f64> {
        let mut picks = vec![total.next_down()];
        for k in ks {
            let k = k as f64;
            picks.extend([k.next_down(), k, k.next_up()]);
        }
        picks.retain(|&p| (0.0..total).contains(&p));
        picks
    }

    #[test]
    fn unit_scan_index_equals_the_scan_at_every_boundary() {
        // Small rows: every skip (`skip == len` is the unskipped sender
        // scan) and every boundary of every entry.
        for len in 1..=48 {
            for skip in 0..=len {
                let total = (len - usize::from(skip < len)) as f64;
                for pick in boundary_picks(0..len, total) {
                    assert_eq!(unit_scan_index(pick, skip), unit_scan(len, skip, pick));
                }
            }
        }
        // Rows up to the benchmark's 2,000 users: every skip, with the
        // boundaries where the skip shift turns on, at the ends and at the
        // top of the range.
        for len in [1_000, 2_000] {
            for skip in 0..=len {
                let total = (len - usize::from(skip < len)) as f64;
                let ks = [0, 1, skip.saturating_sub(1), skip, skip + 1, len - 2];
                for pick in boundary_picks(ks, total) {
                    assert_eq!(unit_scan_index(pick, skip), unit_scan(len, skip, pick));
                }
            }
            // Every boundary of every entry, for a skip at each end and in
            // the middle.
            for skip in [0, len / 2, len] {
                let total = (len - usize::from(skip < len)) as f64;
                for pick in boundary_picks(0..len, total) {
                    assert_eq!(unit_scan_index(pick, skip), unit_scan(len, skip, pick));
                }
            }
        }
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

    #[test]
    #[should_panic(expected = "no sender with a positive rate has a receiver")]
    fn a_lone_user_has_no_receiver() {
        let mut rng = StdRng::seed_from_u64(1);
        WorkloadBuilder::new(PairWeights::uniform(1)).generate(1, &mut rng);
    }

    #[test]
    #[should_panic(expected = "no sender with a positive rate has a receiver")]
    fn the_only_sender_has_no_receiver() {
        let mut rng = StdRng::seed_from_u64(1);
        WorkloadBuilder::new(PairWeights::new(vec![vec![0.0, 0.0], vec![1.0, 0.0]]))
            .sender_rates(vec![1.0, 0.0])
            .generate(1, &mut rng);
    }

    #[test]
    fn no_payments_need_no_receiver() {
        let mut rng = StdRng::seed_from_u64(1);
        let txs = WorkloadBuilder::new(PairWeights::uniform(1)).generate(0, &mut rng);
        assert!(txs.is_empty());
    }
}
