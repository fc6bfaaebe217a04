//! The workload stream gives the same bits as the dense-matrix reference.
//!
//! `PairWeights::uniform` stores only the user count, `PairWeights::new`
//! caches each row's total, and `WorkloadBuilder::generate` draws uniform
//! receivers and unit-rate senders in O(1). The reference below is the
//! direct recipe they replace: a dense matrix (a row of ones with a zero
//! diagonal for the uniform model), every row total re-summed by the
//! filtered fold, and every sender and receiver picked by a subtracting
//! scan. `generate` streams are compared field by field with
//! `f64::to_bits`, together with the next RNG draw, and `weight` and
//! `probability` for every ordered pair, the senders and receivers outside
//! the matrix included. Inputs: uniform models of 2 to 2,000 users under
//! default, explicit unit, doubled and mixed rates with zeros, and seeded
//! dense matrices with zero entries, zero rows and non-zero diagonals. The
//! benchmark's BA-2000 stream is also pinned to digests recorded with the
//! reference samplers.
//!
//! Run with `cargo test -q -p lcg-sim --test workload_identity`.

use lcg_graph::NodeId;
use lcg_sim::fees::TxSizeDistribution;
use lcg_sim::snapshot::{self, SnapshotConfig};
use lcg_sim::workload::{PairWeights, Tx, WorkloadBuilder};
use rand::rngs::StdRng;
use rand::{Rng, RngCore, SeedableRng};

const PAYMENTS: usize = 2_000;
const SIZES: TxSizeDistribution = TxSizeDistribution::Uniform { max: 3.0 };

/// The dense-matrix samplers, each row total re-summed where it is used.
struct Reference {
    weights: Vec<Vec<f64>>,
}

impl Reference {
    fn uniform(n: usize) -> Self {
        let weights = (0..n)
            .map(|i| (0..n).map(|j| if i == j { 0.0 } else { 1.0 }).collect())
            .collect();
        Reference { weights }
    }

    fn row_total(&self, s: usize) -> Option<f64> {
        let row = self.weights.get(s)?;
        Some(
            row.iter()
                .enumerate()
                .filter(|&(j, _)| j != s)
                .map(|(_, &w)| w)
                .sum(),
        )
    }

    fn weight(&self, s: usize, r: usize) -> f64 {
        if s == r {
            return 0.0;
        }
        self.weights
            .get(s)
            .and_then(|row| row.get(r))
            .copied()
            .unwrap_or(0.0)
    }

    /// `probability(s, r)` with `s`'s row total hoisted out of the pair
    /// loop: the same expression, summed once per row.
    fn probability(&self, s: usize, r: usize, total: Option<f64>) -> f64 {
        let Some(total) = total else {
            return 0.0;
        };
        if total <= 0.0 {
            0.0
        } else {
            self.weight(s, r) / total
        }
    }

    fn sample_receiver(&self, s: NodeId, rng: &mut StdRng) -> Option<NodeId> {
        let row = self.weights.get(s.index())?;
        let total = self.row_total(s.index())?;
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
        row.iter()
            .enumerate()
            .filter(|&(j, &w)| j != s.index() && w > 0.0)
            .map(|(j, _)| NodeId(j))
            .next_back()
    }

    fn generate(
        &self,
        rates: &[f64],
        count: usize,
        sizes: TxSizeDistribution,
        rng: &mut StdRng,
    ) -> Vec<Tx> {
        let total: f64 = rates.iter().sum();
        let mut out = Vec::with_capacity(count);
        let mut time = 0.0f64;
        while out.len() < count {
            let u: f64 = rng.gen_range(0.0..1.0f64);
            time += -(1.0 - u).ln() / total;
            let sender = sample_sender(rates, total, rng);
            let Some(receiver) = self.sample_receiver(sender, rng) else {
                continue;
            };
            out.push(Tx {
                time,
                sender,
                receiver,
                size: sizes.sample(rng),
            });
        }
        out
    }
}

fn sample_sender(rates: &[f64], total: f64, rng: &mut StdRng) -> NodeId {
    let mut pick = rng.gen_range(0.0..total);
    for (i, &r) in rates.iter().enumerate() {
        if r == 0.0 {
            continue;
        }
        if pick < r {
            return NodeId(i);
        }
        pick -= r;
    }
    NodeId(rates.len() - 1)
}

fn tx_bits(tx: &Tx) -> [u64; 4] {
    [
        tx.time.to_bits(),
        tx.sender.index() as u64,
        tx.receiver.index() as u64,
        tx.size.to_bits(),
    ]
}

/// `weight` and `probability` for every ordered pair in `0..=n`, so the
/// senders and receivers just outside the matrix too.
fn assert_same_pairs(label: &str, pw: &PairWeights, reference: &Reference) {
    let n = reference.weights.len();
    assert_eq!(pw.len(), n, "{label}");
    for s in 0..=n {
        let total = reference.row_total(s);
        for r in 0..=n {
            let (ns, nr) = (NodeId(s), NodeId(r));
            assert_eq!(
                pw.weight(ns, nr).to_bits(),
                reference.weight(s, r).to_bits(),
                "{label}: weight({s}, {r})"
            );
            assert_eq!(
                pw.probability(ns, nr).to_bits(),
                reference.probability(s, r, total).to_bits(),
                "{label}: probability({s}, {r})"
            );
        }
    }
}

/// `generate` under `rates` (`None`: the builder's default) against the
/// reference: every field by `to_bits`, then the next RNG draw.
fn assert_same_stream(label: &str, pw: &PairWeights, reference: &Reference, rates: Option<&[f64]>) {
    let mut builder = WorkloadBuilder::new(pw.clone()).sizes(SIZES);
    if let Some(rates) = rates {
        builder = builder.sender_rates(rates.to_vec());
    }
    let unit = vec![1.0; pw.len()];
    let reference_rates = rates.unwrap_or(&unit);
    for seed in [1, 7919] {
        let (mut got_rng, mut want_rng) =
            (StdRng::seed_from_u64(seed), StdRng::seed_from_u64(seed));
        let got = builder.generate(PAYMENTS, &mut got_rng);
        let want = reference.generate(reference_rates, PAYMENTS, SIZES, &mut want_rng);
        assert_eq!(got.len(), want.len(), "{label}, seed {seed}");
        for (i, (g, w)) in got.iter().zip(&want).enumerate() {
            assert_eq!(tx_bits(g), tx_bits(w), "{label}, seed {seed}: tx {i}");
        }
        assert_eq!(
            got_rng.next_u64(),
            want_rng.next_u64(),
            "{label}, seed {seed}: next draw"
        );
    }
}

/// Every third user silent, the rest at seeded rates in `0.1..4.0`.
fn mixed_rates(n: usize, seed: u64) -> Vec<f64> {
    let mut rng = StdRng::seed_from_u64(seed);
    (0..n)
        .map(|i| {
            if i % 3 == 1 {
                0.0
            } else {
                rng.gen_range(0.1..4.0)
            }
        })
        .collect()
}

#[test]
fn uniform_models_match_the_dense_reference() {
    for n in [2, 3, 5, 200, 2_000] {
        let pw = PairWeights::uniform(n);
        let reference = Reference::uniform(n);
        assert_same_pairs(&format!("uniform({n})"), &pw, &reference);
        let rate_sets = [
            ("default rates", None),
            ("explicit unit rates", Some(vec![1.0; n])),
            ("rates 2.0", Some(vec![2.0; n])),
            ("mixed rates", Some(mixed_rates(n, n as u64))),
        ];
        for (rates_label, rates) in &rate_sets {
            let label = format!("uniform({n}), {rates_label}");
            assert_same_stream(&label, &pw, &reference, rates.as_deref());
        }
    }
}

/// A seeded `n × n` matrix: about a third of the entries zero, every
/// fourth row zero off its diagonal, and non-zero diagonal entries the
/// samplers must ignore.
fn seeded_matrix(n: usize, seed: u64) -> Vec<Vec<f64>> {
    let mut rng = StdRng::seed_from_u64(seed);
    (0..n)
        .map(|i| {
            (0..n)
                .map(|j| {
                    let w = if rng.gen_bool(1.0 / 3.0) {
                        0.0
                    } else {
                        rng.gen_range(0.0..3.0)
                    };
                    if i % 4 == 3 && i != j {
                        0.0
                    } else {
                        w
                    }
                })
                .collect()
        })
        .collect()
}

#[test]
fn dense_matrices_match_the_reference() {
    for (n, seed) in [(2, 11), (3, 12), (7, 13), (60, 14), (301, 15)] {
        let weights = seeded_matrix(n, seed);
        let pw = PairWeights::new(weights.clone());
        let reference = Reference { weights };
        assert_same_pairs(&format!("dense({n})"), &pw, &reference);
        let rate_sets = [
            ("default rates", None),
            ("rates 2.0", Some(vec![2.0; n])),
            ("mixed rates", Some(mixed_rates(n, seed))),
        ];
        for (rates_label, rates) in &rate_sets {
            let label = format!("dense({n}), {rates_label}");
            assert_same_stream(&label, &pw, &reference, rates.as_deref());
        }
    }
}

/// FNV-1a over the little-endian bytes of each word.
fn fnv(words: impl IntoIterator<Item = u64>) -> u64 {
    words.into_iter().fold(0xcbf2_9ce4_8422_2325, |h, w| {
        w.to_le_bytes()
            .iter()
            .fold(h, |h, &b| (h ^ u64::from(b)).wrapping_mul(0x0100_0000_01b3))
    })
}

/// The benchmark's `sim_replay` / `sim_faulty` input: a BA-2000 snapshot,
/// then 4,000 half-coin payments from the same RNG. The digests were
/// recorded with the dense-matrix samplers, so a mismatch means the
/// benchmark now replays a different stream.
#[test]
fn benchmark_stream_matches_recorded_digests() {
    const RECORDED: [(u64, u64); 2] = [(1, 0x10dd_c8f0_d368_aa4a), (7919, 0x062f_914e_a875_46e0)];
    let sizes = TxSizeDistribution::Constant { size: 0.5 };
    for (seed, want) in RECORDED {
        let mut rng = StdRng::seed_from_u64(seed);
        let config = SnapshotConfig {
            nodes: 2_000,
            ..SnapshotConfig::default()
        };
        let pcn = snapshot::generate(&config, &mut rng);
        assert_eq!(pcn.node_count(), 2_000);
        let mut reference_rng = rng.clone();
        let txs = WorkloadBuilder::new(PairWeights::uniform(2_000))
            .sizes(sizes)
            .generate(4_000, &mut rng);
        let reference =
            Reference::uniform(2_000).generate(&[1.0; 2_000], 4_000, sizes, &mut reference_rng);
        assert!(
            txs.iter().map(tx_bits).eq(reference.iter().map(tx_bits)),
            "seed {seed}"
        );
        let digest = fnv(txs.iter().flat_map(tx_bits));
        assert_eq!(digest, want, "seed {seed}");
    }
}
