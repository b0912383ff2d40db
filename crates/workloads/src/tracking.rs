//! Tracking a drifting population: per-epoch re-decoding.
//!
//! The temporal workloads pose a problem the paper's one-shot experiments
//! cannot: queries answered in epoch `t` describe a population that has
//! partly moved on by epoch `t+1`. Two trackers measure how much overlap
//! the reconstruction retains per epoch:
//!
//! * [`track_greedy`] — the streaming form: one
//!   [`npd_core::IncrementalSim`] accumulates queries across epochs
//!   (measured against the truth current at their time — see
//!   [`npd_core::IncrementalSim::set_truth`]), and the current score
//!   landscape is re-decoded top-`k` at every epoch boundary. Stale
//!   evidence is deliberately kept: its dilution of the overlap *is* the
//!   tracking cost being measured.
//! * [`track_protocol`] — the distributed form: each epoch runs the full
//!   message-passing protocol (`npd_core::distributed`) once on a fresh
//!   pooling graph measured against the current truth, reporting overlap
//!   plus round/message cost.
//!
//! Both are pure functions of `(model, n, config, seed)` — bit-identical
//! at any thread or shard count (pinned in `tests/determinism.rs`).

use crate::sir::SirDynamics;
use npd_core::distributed::{self, ProtocolOptions, SelectionStrategy};
use npd_core::{
    overlap, DesignSpec, Estimate, GroundTruth, IncrementalSim, Instance, NoiseModel, PoolingDesign,
};
use rand::rngs::StdRng;
use rand::SeedableRng;

/// Configuration of a tracking run.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct TrackingConfig {
    /// Query size `Γ`.
    pub gamma: usize,
    /// Queries posed per epoch.
    pub queries_per_epoch: usize,
    /// Number of epochs (the initial state counts as epoch 0).
    pub epochs: usize,
    /// Noise model of every measurement.
    pub noise: NoiseModel,
    /// Pooling design.
    pub design: DesignSpec,
}

/// One epoch of a tracking run.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct EpochReport {
    /// Epoch index (0-based).
    pub epoch: usize,
    /// One-agents (infectious) at this epoch.
    pub k: usize,
    /// Overlap of the epoch's reconstruction with the epoch's truth
    /// (`1.0` when `k = 0`: there is nothing to find).
    pub overlap: f64,
    /// Whether the reconstruction was exact.
    pub exact: bool,
    /// Protocol rounds spent this epoch (`0` for the streaming tracker).
    pub rounds: u64,
    /// Protocol messages sent this epoch (`0` for the streaming tracker).
    pub messages: u64,
}

/// Overlap with the `k = 0` corner made total: an empty truth is fully
/// tracked by an empty estimate.
fn overlap_or_trivial(est: &Estimate, truth: &GroundTruth) -> (f64, bool) {
    if truth.k() == 0 {
        (1.0, est.k() == 0)
    } else {
        let o = overlap(est, truth);
        (o, o == 1.0 && est.k() == truth.k())
    }
}

/// Streams `cfg.queries_per_epoch` queries per epoch against the evolving
/// SIR truth and re-decodes the accumulated score landscape at each epoch
/// boundary (see the module docs for the staleness semantics).
///
/// The population stream and the query stream derive from `seed`
/// independently, so the same epidemic can be replayed under different
/// query budgets.
///
/// # Panics
///
/// Panics on configurations [`IncrementalSim`] rejects (`n < 2`,
/// `gamma == 0`, Γ-subset with `gamma > n`) or `cfg.epochs == 0`.
pub fn track_greedy(
    model: &SirDynamics,
    n: usize,
    cfg: &TrackingConfig,
    seed: u64,
) -> Vec<EpochReport> {
    assert!(cfg.epochs > 0, "track_greedy: need at least one epoch");
    let mut pop_rng = StdRng::seed_from_u64(seed);
    let mut state = model.init(n, &mut pop_rng);
    let mut sim = IncrementalSim::with_truth(
        state.truth(),
        cfg.gamma,
        cfg.noise,
        cfg.design,
        seed ^ 0x51D0_57EA,
    );
    let mut reports = Vec::with_capacity(cfg.epochs);
    for epoch in 0..cfg.epochs {
        for _ in 0..cfg.queries_per_epoch {
            sim.add_query();
        }
        let truth = sim.truth().clone();
        let est = Estimate::from_scores(sim.scores(), truth.k());
        let (overlap, exact) = overlap_or_trivial(&est, &truth);
        reports.push(EpochReport {
            epoch,
            k: truth.k(),
            overlap,
            exact,
            rounds: 0,
            messages: 0,
        });
        if epoch + 1 < cfg.epochs {
            model.step(&mut state, &mut pop_rng);
            sim.set_truth(state.truth());
        }
    }
    reports
}

/// Runs the full distributed protocol once per epoch on the evolving SIR
/// truth: a fresh pooling graph of `cfg.queries_per_epoch` queries is
/// measured against the current truth, the protocol reconstructs on the
/// network simulator, and the epoch reports overlap plus communication
/// cost.
///
/// Epochs with `k = 0` (possible only when no susceptibles remain to
/// import into) skip the protocol and report a trivially exact epoch.
///
/// # Panics
///
/// Panics if the protocol exceeds its round budget (a bug, not a
/// configuration error) or on invalid instance configurations.
pub fn track_protocol(
    model: &SirDynamics,
    n: usize,
    cfg: &TrackingConfig,
    strategy: SelectionStrategy,
    seed: u64,
) -> Vec<EpochReport> {
    assert!(cfg.epochs > 0, "track_protocol: need at least one epoch");
    let mut pop_rng = StdRng::seed_from_u64(seed);
    let mut query_rng = StdRng::seed_from_u64(seed ^ 0x51D0_57EB);
    let mut state = model.init(n, &mut pop_rng);
    let mut reports = Vec::with_capacity(cfg.epochs);
    for epoch in 0..cfg.epochs {
        let truth = state.truth();
        let k = truth.k();
        let report = if k == 0 {
            EpochReport {
                epoch,
                k,
                overlap: 1.0,
                exact: true,
                rounds: 0,
                messages: 0,
            }
        } else {
            #[allow(clippy::expect_used)]
            let instance = Instance::builder(n)
                .k(k)
                .queries(cfg.queries_per_epoch)
                .query_size(cfg.gamma)
                .noise(cfg.noise)
                .design(cfg.design)
                .build()
                // xtask:allow(unwrap-audit): TrackingConfig's fields are validated knobs; the builder only rejects shapes the config cannot express
                .expect("tracking configurations are valid instances");
            let graph = cfg
                .design
                .sample(n, cfg.queries_per_epoch, cfg.gamma, &mut query_rng);
            let results = graph.measure(&truth, &cfg.noise, &mut query_rng);
            #[allow(clippy::expect_used)]
            let run = instance
                .assemble(truth.clone(), graph, results)
                // xtask:allow(unwrap-audit): graph and results were just sampled from this very instance's parameters
                .expect("assembled parts match the instance");
            let options = ProtocolOptions {
                strategy,
                ..ProtocolOptions::default()
            };
            #[allow(clippy::expect_used)]
            let outcome = distributed::run_protocol_chaos(&run, options)
                // xtask:allow(unwrap-audit): fault-free budget bound is proven by the protocol round-budget tests
                .expect("fault-free protocol terminates within its budget");
            let (overlap, exact) = overlap_or_trivial(&outcome.estimate, &truth);
            EpochReport {
                epoch,
                k,
                overlap,
                exact,
                rounds: outcome.rounds,
                messages: outcome.metrics.messages_sent,
            }
        };
        reports.push(report);
        if epoch + 1 < cfg.epochs {
            model.step(&mut state, &mut pop_rng);
        }
    }
    reports
}

#[cfg(test)]
mod tests {
    use super::*;

    fn config() -> TrackingConfig {
        TrackingConfig {
            gamma: 100,
            queries_per_epoch: 300,
            epochs: 5,
            noise: NoiseModel::z_channel(0.1),
            design: DesignSpec::Iid,
        }
    }

    #[test]
    fn greedy_tracker_reports_every_epoch() {
        let reports = track_greedy(&SirDynamics::new(4, 1.5, 0.3), 200, &config(), 7);
        assert_eq!(reports.len(), 5);
        for (e, r) in reports.iter().enumerate() {
            assert_eq!(r.epoch, e);
            assert!((0.0..=1.0).contains(&r.overlap), "epoch {e}: {r:?}");
            assert_eq!(r.rounds, 0);
        }
        // Early epochs with a generous per-epoch budget track well.
        assert!(reports[0].overlap > 0.5, "{:?}", reports[0]);
    }

    #[test]
    fn greedy_tracker_is_deterministic_and_seed_sensitive() {
        let model = SirDynamics::catalog();
        let a = track_greedy(&model, 150, &config(), 3);
        let b = track_greedy(&model, 150, &config(), 3);
        assert_eq!(a, b);
        let c = track_greedy(&model, 150, &config(), 4);
        assert_ne!(a, c);
    }

    #[test]
    fn protocol_tracker_reports_cost_and_overlap() {
        let mut cfg = config();
        cfg.queries_per_epoch = 150;
        cfg.epochs = 3;
        let reports = track_protocol(
            &SirDynamics::new(3, 1.5, 0.3),
            128,
            &cfg,
            SelectionStrategy::gossip(),
            11,
        );
        assert_eq!(reports.len(), 3);
        for r in &reports {
            if r.k > 0 {
                assert!(r.rounds > 0 && r.messages > 0, "{r:?}");
            }
            assert!((0.0..=1.0).contains(&r.overlap));
        }
        // Fresh per-epoch queries at a generous budget: the protocol
        // reconstructs the current truth exactly in most epochs.
        assert!(
            reports.iter().filter(|r| r.exact).count() >= 2,
            "{reports:?}"
        );
    }

    #[test]
    fn staleness_costs_overlap_under_drift() {
        // The streaming tracker keeps stale evidence; with a fast-moving
        // epidemic and a small per-epoch budget, later epochs must on
        // average track worse than a fresh-start decode of epoch 0.
        let model = SirDynamics::new(6, 2.2, 0.5);
        let mut cfg = config();
        cfg.queries_per_epoch = 120;
        cfg.epochs = 6;
        let mut first = 0.0;
        let mut last = 0.0;
        let trials = 8;
        for seed in 0..trials {
            let reports = track_greedy(&model, 300, &cfg, 100 + seed);
            first += reports[0].overlap;
            last += reports[5].overlap;
        }
        assert!(
            last < first,
            "drift did not cost overlap: first {first}, last {last} (sum over {trials} trials)"
        );
    }
}
