//! Deterministic fault injection for the simulation engine.
//!
//! A [`FaultPlan`] is a declarative, composable list of [`FaultRule`]s —
//! transient per-hop failures, HTLCs that hang until a timeout, node
//! churn/offline windows, and forced unilateral channel closures through
//! the [`crate::onchain`] cost model. The plan is *compiled* once per run
//! against a fault-owned RNG stream derived from the simulation seed, so
//! the same seed and plan reproduce a bit-identical
//! [`crate::engine::SimReport`] while leaving the routing RNG stream
//! untouched: an empty plan consumes zero fault draws and the engine
//! behaves exactly like the fault-free simulator.
//!
//! Faults act *through* the protocol, never around it: a transient hop
//! failure or timeout releases its locks via [`crate::htlc::Htlc::fail`],
//! and a forced closure settles through [`crate::network::Pcn::close_channel`]
//! with a unilateral [`crate::onchain::CloseMode`], charging the closer.

use crate::network::{ChannelId, Pcn};
use crate::onchain::CloseMode;
use lcg_graph::NodeId;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use serde::{Deserialize, Serialize};

/// One composable fault source.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub enum FaultRule {
    /// Every hop of every locked payment fails independently with this
    /// probability (a node forwarding error, not a balance problem). The
    /// HTLC releases all locks via `fail()`.
    TransientEdgeFailure {
        /// Per-hop failure probability in `[0, 1]`.
        probability: f64,
    },
    /// A locked payment hangs with this probability and only fails (all
    /// locks released) after `timeout_events` further arrivals — the
    /// stuck-HTLC griefing pattern. While pending it keeps its
    /// reservations, starving other payments of liquidity.
    HtlcTimeout {
        /// Per-payment stuck probability in `[0, 1]`.
        probability: f64,
        /// Arrival events until the lock times out.
        timeout_events: u64,
    },
    /// `node` is offline during `[from, until)`: it neither sends,
    /// receives, nor forwards.
    NodeOffline {
        /// The node taken offline.
        node: NodeId,
        /// Window start (inclusive, simulation time).
        from: f64,
        /// Window end (exclusive).
        until: f64,
    },
    /// Churn: at compile time each node independently joins the offline
    /// window `[from, until)` with `probability`.
    NodeChurn {
        /// Per-node selection probability in `[0, 1]`.
        probability: f64,
        /// Window start (inclusive, simulation time).
        from: f64,
        /// Window end (exclusive).
        until: f64,
    },
    /// Force-close the `a — b` channel at time `at` (unilateral; the
    /// closing side is drawn from the fault RNG and charged the full
    /// on-chain closing cost).
    CloseChannel {
        /// Simulation time of the closure.
        at: f64,
        /// One endpoint.
        a: NodeId,
        /// The other endpoint.
        b: NodeId,
    },
    /// Force-close `count` uniformly drawn live channels at time `at`
    /// (unilateral, closer drawn per channel).
    RandomClosures {
        /// Simulation time of the closures.
        at: f64,
        /// Number of channels to close (capped at the live channel count).
        count: usize,
    },
}

/// A composable, seed-reproducible set of fault rules.
///
/// # Examples
///
/// ```
/// use lcg_sim::faults::FaultPlan;
///
/// let plan = FaultPlan::none()
///     .transient_edge_failure(0.05)
///     .htlc_timeout(0.01, 3)
///     .churn(0.1, 10.0, 20.0);
/// assert_eq!(plan.rules().len(), 3);
/// assert!(FaultPlan::none().is_empty());
/// ```
#[derive(Debug, Clone, Default, PartialEq, Serialize, Deserialize)]
pub struct FaultPlan {
    rules: Vec<FaultRule>,
}

impl FaultPlan {
    /// The empty plan: injects nothing and consumes no fault-RNG draws,
    /// so a run with it is bit-identical to the fault-free engine.
    pub fn none() -> Self {
        FaultPlan::default()
    }

    /// Appends `rule`, validating its parameters.
    ///
    /// # Panics
    ///
    /// Panics if a probability is outside `[0, 1]` or a time is not
    /// finite (misconfigured experiments should fail loudly, not skew
    /// results).
    pub fn rule(mut self, rule: FaultRule) -> Self {
        match &rule {
            FaultRule::TransientEdgeFailure { probability }
            | FaultRule::HtlcTimeout { probability, .. } => {
                assert!(
                    (0.0..=1.0).contains(probability),
                    "fault probability {probability} out of [0, 1]"
                );
            }
            FaultRule::NodeOffline { from, until, .. } => {
                assert!(
                    from.is_finite() && until.is_finite() && from < until,
                    "offline window [{from}, {until}) is empty or non-finite"
                );
            }
            FaultRule::NodeChurn {
                probability,
                from,
                until,
            } => {
                assert!(
                    (0.0..=1.0).contains(probability),
                    "churn probability {probability} out of [0, 1]"
                );
                assert!(
                    from.is_finite() && until.is_finite() && from < until,
                    "churn window [{from}, {until}) is empty or non-finite"
                );
            }
            FaultRule::CloseChannel { at, .. } | FaultRule::RandomClosures { at, .. } => {
                assert!(at.is_finite(), "closure time {at} is not finite");
            }
        }
        self.rules.push(rule);
        self
    }

    /// Adds a [`FaultRule::TransientEdgeFailure`]; several such rules
    /// combine into the joint probability `1 − Π(1 − pᵢ)`.
    pub fn transient_edge_failure(self, probability: f64) -> Self {
        self.rule(FaultRule::TransientEdgeFailure { probability })
    }

    /// Adds a [`FaultRule::HtlcTimeout`]; several such rules combine
    /// probabilities like transient rules and keep the *smallest* timeout.
    pub fn htlc_timeout(self, probability: f64, timeout_events: u64) -> Self {
        self.rule(FaultRule::HtlcTimeout {
            probability,
            timeout_events,
        })
    }

    /// Adds a [`FaultRule::NodeOffline`] window.
    pub fn node_offline(self, node: NodeId, from: f64, until: f64) -> Self {
        self.rule(FaultRule::NodeOffline { node, from, until })
    }

    /// Adds a [`FaultRule::NodeChurn`] window.
    pub fn churn(self, probability: f64, from: f64, until: f64) -> Self {
        self.rule(FaultRule::NodeChurn {
            probability,
            from,
            until,
        })
    }

    /// Adds a [`FaultRule::CloseChannel`] event.
    pub fn close_channel(self, at: f64, a: NodeId, b: NodeId) -> Self {
        self.rule(FaultRule::CloseChannel { at, a, b })
    }

    /// Adds a [`FaultRule::RandomClosures`] event.
    pub fn random_closures(self, at: f64, count: usize) -> Self {
        self.rule(FaultRule::RandomClosures { at, count })
    }

    /// The rules in insertion order.
    pub fn rules(&self) -> &[FaultRule] {
        &self.rules
    }

    /// Whether the plan injects nothing.
    pub fn is_empty(&self) -> bool {
        self.rules.is_empty()
    }
}

/// Fault and retry accounting carried inside the `SimReport`.
///
/// All counters stay zero when the run had no [`FaultPlan`] and no
/// retries, so legacy reports compare equal field-for-field.
#[derive(Debug, Clone, Default, PartialEq, Serialize, Deserialize)]
pub struct FaultStats {
    /// Transient hop failures injected (each released its HTLC locks).
    pub injected_transient: u64,
    /// Stuck HTLCs that timed out and failed.
    pub injected_timeouts: u64,
    /// Attempts rejected because the sender or receiver was offline.
    pub offline_rejections: u64,
    /// Channels force-closed by the plan.
    pub closures: u64,
    /// Retry attempts performed (beyond each payment's first attempt).
    pub retry_attempts: u64,
    /// Distinct transactions that experienced at least one injected fault.
    pub txs_faulted: u64,
    /// Faulted transactions that a retry ultimately delivered.
    pub recovered_by_retry: u64,
    /// Log₂-bucketed dwell (in arrival events) of stuck HTLCs from lock
    /// to forced failure: bucket 0 counts dwell 0, bucket `i ≥ 1` counts
    /// dwells in `[2^(i−1), 2^i)`.
    pub stuck_dwell: Vec<u64>,
}

impl FaultStats {
    /// Fraction of faulted transactions that retries recovered.
    pub fn recovery_rate(&self) -> f64 {
        lcg_obs::stats::ratio(self.recovered_by_retry, self.txs_faulted)
    }

    /// Total injected fault events (transient + timeouts + offline
    /// rejections + closures).
    pub fn injected_total(&self) -> u64 {
        self.injected_transient + self.injected_timeouts + self.offline_rejections + self.closures
    }

    pub(crate) fn record_dwell(&mut self, dwell_events: u64) {
        let bucket = if dwell_events == 0 {
            0
        } else {
            64 - dwell_events.leading_zeros() as usize
        };
        if self.stuck_dwell.len() <= bucket {
            self.stuck_dwell.resize(bucket + 1, 0);
        }
        self.stuck_dwell[bucket] += 1;
    }
}

/// A resolved offline window `[from, until)`.
#[derive(Debug, Clone, Copy)]
struct OfflineWindow {
    from: f64,
    until: f64,
}

/// Adds `[from, until)` to `node`'s windows, growing the index to reach it.
fn add_window(offline: &mut Vec<Vec<OfflineWindow>>, node: NodeId, from: f64, until: f64) {
    if offline.len() <= node.index() {
        offline.resize_with(node.index() + 1, Vec::new);
    }
    offline[node.index()].push(OfflineWindow { from, until });
}

/// A scheduled forced closure.
#[derive(Debug, Clone, Copy)]
enum ClosureKind {
    Target { a: NodeId, b: NodeId },
    Random { count: usize },
}

/// A [`FaultPlan`] compiled for one run: combined probabilities, resolved
/// churn windows, a time-sorted closure schedule and the fault-owned RNG
/// stream (separate from the routing stream, so plans never perturb route
/// sampling).
#[derive(Debug, Clone)]
pub(crate) struct CompiledFaults {
    pub(crate) transient_p: f64,
    pub(crate) stuck_p: f64,
    pub(crate) stuck_timeout: u64,
    pub(crate) active: bool,
    /// Each node's offline windows, indexed by `NodeId::index()`. Empty,
    /// and never allocated, when the plan has none.
    offline: Vec<Vec<OfflineWindow>>,
    closures: Vec<(f64, ClosureKind)>,
    next_closure: usize,
    pub(crate) rng: StdRng,
}

impl CompiledFaults {
    /// Compiles `plan` against the fault RNG stream seeded with `seed`.
    /// Churn membership is drawn here (per live node, in id order) so the
    /// in-run draw sequence depends only on seed and plan.
    pub(crate) fn compile(plan: &FaultPlan, seed: u64, pcn: &Pcn) -> CompiledFaults {
        let mut rng = StdRng::seed_from_u64(seed);
        let mut keep_p = 1.0; // P(no transient failure on a hop)
        let mut keep_stuck = 1.0;
        let mut stuck_timeout = u64::MAX;
        let mut offline = Vec::new();
        let mut closures = Vec::new();
        for rule in plan.rules() {
            match *rule {
                FaultRule::TransientEdgeFailure { probability } => keep_p *= 1.0 - probability,
                FaultRule::HtlcTimeout {
                    probability,
                    timeout_events,
                } => {
                    keep_stuck *= 1.0 - probability;
                    stuck_timeout = stuck_timeout.min(timeout_events);
                }
                FaultRule::NodeOffline { node, from, until } => {
                    add_window(&mut offline, node, from, until);
                }
                FaultRule::NodeChurn {
                    probability,
                    from,
                    until,
                } => {
                    for node in pcn.graph().node_ids() {
                        if rng.gen_bool(probability) {
                            add_window(&mut offline, node, from, until);
                        }
                    }
                }
                FaultRule::CloseChannel { at, a, b } => {
                    closures.push((at, ClosureKind::Target { a, b }));
                }
                FaultRule::RandomClosures { at, count } => {
                    closures.push((at, ClosureKind::Random { count }));
                }
            }
        }
        // Stable sort: simultaneous closures fire in plan order.
        closures.sort_by(|a, b| a.0.partial_cmp(&b.0).expect("finite closure times"));
        CompiledFaults {
            transient_p: 1.0 - keep_p,
            stuck_p: 1.0 - keep_stuck,
            stuck_timeout: if stuck_timeout == u64::MAX {
                0
            } else {
                stuck_timeout
            },
            active: !plan.is_empty(),
            offline,
            closures,
            next_closure: 0,
            rng,
        }
    }

    /// A hand-built no-fault compilation: injects nothing and never
    /// touches its RNG. Tests check an empty plan's compilation against
    /// it.
    #[cfg(test)]
    pub(crate) fn inert() -> CompiledFaults {
        CompiledFaults {
            transient_p: 0.0,
            stuck_p: 0.0,
            stuck_timeout: 0,
            active: false,
            offline: Vec::new(),
            closures: Vec::new(),
            next_closure: 0,
            rng: StdRng::seed_from_u64(0),
        }
    }

    /// Whether `node` is inside an offline window at time `t`. Reads only
    /// `node`'s own windows; without any window it is one `get`.
    pub(crate) fn offline_at(&self, node: NodeId, t: f64) -> bool {
        self.offline
            .get(node.index())
            .is_some_and(|windows| windows.iter().any(|w| w.from <= t && t < w.until))
    }

    /// Executes every closure scheduled at or before `now`. Closures
    /// settle the channel's *current* balances through
    /// [`Pcn::close_channel`]; value locked in a pending HTLC on a closed
    /// channel is forfeited when that HTLC resolves (its release/commit
    /// on the removed edges is a no-op), mirroring an on-chain timeout.
    pub(crate) fn fire_due_closures(&mut self, pcn: &mut Pcn, now: f64, stats: &mut FaultStats) {
        while self.next_closure < self.closures.len() && self.closures[self.next_closure].0 <= now {
            let kind = self.closures[self.next_closure].1;
            self.next_closure += 1;
            match kind {
                ClosureKind::Target { a, b } => {
                    if let Some(forward) = pcn.graph().find_edge(a, b) {
                        if let Some(backward) = pcn.reverse_edge(forward) {
                            self.force_close(pcn, ChannelId { forward, backward }, stats);
                        }
                    }
                }
                ClosureKind::Random { count } => {
                    let mut live = pcn.channels();
                    for _ in 0..count {
                        if live.is_empty() {
                            break;
                        }
                        let i = self.rng.gen_range(0..live.len());
                        let id = live.swap_remove(i);
                        self.force_close(pcn, id, stats);
                    }
                }
            }
        }
    }

    fn force_close(&mut self, pcn: &mut Pcn, id: ChannelId, stats: &mut FaultStats) {
        let mode = if self.rng.gen_bool(0.5) {
            CloseMode::UnilateralByA
        } else {
            CloseMode::UnilateralByB
        };
        if pcn.close_channel(id, mode).is_some() {
            stats.closures += 1;
            if lcg_obs::enabled() {
                lcg_obs::counter!("sim/faults/closures").inc();
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::fees::FeeFunction;
    use crate::onchain::CostModel;

    fn tiny_pcn() -> Pcn {
        Pcn::from_topology(
            &lcg_graph::generators::star(4),
            10.0,
            CostModel::default(),
            FeeFunction::Constant { fee: 0.0 },
        )
    }

    #[test]
    fn empty_plan_compiles_inert() {
        let pcn = tiny_pcn();
        let c = CompiledFaults::compile(&FaultPlan::none(), 7, &pcn);
        assert!(!c.active);
        assert_eq!(c.transient_p, 0.0);
        assert_eq!(c.stuck_p, 0.0);
        assert!(!c.offline_at(NodeId(0), 0.0));
    }

    #[test]
    fn transient_probabilities_compose() {
        let pcn = tiny_pcn();
        let plan = FaultPlan::none()
            .transient_edge_failure(0.5)
            .transient_edge_failure(0.5);
        let c = CompiledFaults::compile(&plan, 7, &pcn);
        assert!((c.transient_p - 0.75).abs() < 1e-12);
    }

    #[test]
    fn timeout_rules_keep_smallest_deadline() {
        let pcn = tiny_pcn();
        let plan = FaultPlan::none().htlc_timeout(0.1, 9).htlc_timeout(0.1, 4);
        let c = CompiledFaults::compile(&plan, 7, &pcn);
        assert_eq!(c.stuck_timeout, 4);
        assert!((c.stuck_p - (1.0 - 0.9 * 0.9)).abs() < 1e-12);
    }

    #[test]
    fn offline_windows_are_half_open() {
        let pcn = tiny_pcn();
        let plan = FaultPlan::none().node_offline(NodeId(2), 5.0, 8.0);
        let c = CompiledFaults::compile(&plan, 7, &pcn);
        assert!(!c.offline_at(NodeId(2), 4.999));
        assert!(c.offline_at(NodeId(2), 5.0));
        assert!(c.offline_at(NodeId(2), 7.999));
        assert!(!c.offline_at(NodeId(2), 8.0));
        assert!(!c.offline_at(NodeId(1), 6.0));
    }

    #[test]
    fn churn_draws_are_seed_deterministic() {
        let pcn = tiny_pcn();
        let plan = FaultPlan::none().churn(0.5, 0.0, 10.0);
        let a = CompiledFaults::compile(&plan, 42, &pcn);
        let b = CompiledFaults::compile(&plan, 42, &pcn);
        for node in pcn.graph().node_ids() {
            assert_eq!(a.offline_at(node, 1.0), b.offline_at(node, 1.0));
        }
    }

    #[test]
    fn forced_closures_fire_in_time_order_and_charge_unilaterally() {
        let mut pcn = tiny_pcn();
        // Targeted closure first so the random one draws from the
        // remaining channels and cannot collide with it.
        let plan = FaultPlan::none()
            .close_channel(0.5, NodeId(0), NodeId(1))
            .random_closures(1.0, 1);
        let mut c = CompiledFaults::compile(&plan, 3, &pcn);
        let mut stats = FaultStats::default();
        let edges_before = pcn.graph().edge_count();
        let paid_before: f64 = (0..4).map(|i| pcn.onchain_paid(NodeId(i))).sum();
        c.fire_due_closures(&mut pcn, 5.0, &mut stats);
        assert_eq!(stats.closures, 2);
        assert_eq!(pcn.graph().edge_count(), edges_before - 4);
        // Each unilateral close charges the full on-chain fee once.
        let paid_after: f64 = (0..4).map(|i| pcn.onchain_paid(NodeId(i))).sum();
        assert!(
            (paid_after - paid_before - 2.0 * pcn.cost_model().onchain_fee).abs() < 1e-9,
            "unilateral closes must charge C each"
        );
        // Already-fired closures do not fire again.
        c.fire_due_closures(&mut pcn, 50.0, &mut stats);
        assert_eq!(stats.closures, 2);
    }

    #[test]
    #[should_panic(expected = "out of [0, 1]")]
    fn invalid_probability_panics() {
        let _ = FaultPlan::none().transient_edge_failure(1.5);
    }

    #[test]
    fn dwell_histogram_buckets_by_log2() {
        let mut stats = FaultStats::default();
        for d in [0, 1, 2, 3, 4, 7, 8] {
            stats.record_dwell(d);
        }
        // 0 → b0; 1 → b1; 2,3 → b2; 4,7 → b3; 8 → b4.
        assert_eq!(stats.stuck_dwell, vec![1, 1, 2, 2, 1]);
    }

    #[test]
    fn recovery_rate_is_zero_without_faults() {
        let stats = FaultStats::default();
        assert_eq!(stats.recovery_rate(), 0.0);
        assert_eq!(stats.injected_total(), 0);
    }
}
