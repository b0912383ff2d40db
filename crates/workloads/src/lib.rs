//! Structured and temporal population models for the pooled-data problem.
//!
//! The paper — and until this crate, every experiment in the workspace —
//! samples the hidden assignment as a *uniform* weight-`k` vector. Recovery
//! thresholds are known to be sensitive to the prior structure of the
//! ground truth (Scarlett & Cevher's phase-transition analysis of the
//! pooled data problem; the near-optimal sparse-regime algorithms of
//! Hahn-Klimroth et al.), and real pooled-testing deployments — epidemic
//! screening, heavy-hitter detection — face correlated, drifting
//! populations. This crate makes the *population* pluggable the same way
//! `npd_core::design` made the *pooling* pluggable:
//!
//! * [`PopulationModel`] — object-safe sampling trait: `(n, rng)` to a
//!   [`GroundTruth`] plus metadata (name, expected `k`, per-agent prior
//!   marginals).
//! * [`UniformKSubset`] — the paper's sampler behind the trait,
//!   bit-identical to [`GroundTruth::sample`] (fingerprint-pinned).
//! * [`CommunityBlocks`] — SBM-style block prevalences: most one-agents
//!   concentrate in a few "hot" communities.
//! * [`HouseholdClusters`] — infections arrive in household bursts: the
//!   one-set is a union of small contiguous clusters.
//! * [`HeavyTailedHubs`] — Zipf-weighted marginals: a few hub agents carry
//!   most of the prior mass (heavy-hitter detection).
//! * [`SirDynamics`] — a temporal susceptible–infectious–recovered model
//!   evolving the ground truth over epochs; the [`tracking`] module streams
//!   pooled queries against the drifting truth
//!   (`npd_core::IncrementalSim::set_truth`) and re-decodes per epoch.
//!
//! The per-agent priors feed the posterior decoding paths in `npd-core`
//! ([`npd_core::GreedyDecoder::scores_with_posterior`],
//! [`npd_core::estimation::decode_with_prior`]): on structured workloads
//! the prior-aware rule beats the prior-blind rule at a fixed query budget
//! (pinned by test).
//!
//! # Determinism contract
//!
//! Every model consumes only the caller's RNG stream: `(model, n, seed)`
//! identifies a population exactly, and the temporal models evolve through
//! an explicit state ([`SirState`]) so an epoch sequence is a pure function
//! of `(model, n, seed)` — independent of thread or shard counts (pinned
//! in `tests/determinism.rs` at the workspace root).
//!
//! # Examples
//!
//! ```
//! use npd_workloads::{CommunityBlocks, PopulationModel};
//! use rand::SeedableRng;
//!
//! let model = CommunityBlocks::new(8, 2, 0.9, npd_core::Regime::sublinear(0.5));
//! let mut rng = rand::rngs::StdRng::seed_from_u64(7);
//! let truth = model.sample(1_000, &mut rng);
//! // ≈ 90% of the ones land in the two hot blocks (125 agents each).
//! let prior = model.prior(1_000);
//! assert_eq!(prior.len(), 1_000);
//! assert!(truth.k() > 0);
//! ```

#![deny(missing_docs)]
#![forbid(unsafe_code)]
#![warn(clippy::unwrap_used)]
#![warn(clippy::expect_used)]
#![cfg_attr(test, allow(clippy::unwrap_used, clippy::expect_used))]

pub mod models;
pub mod sir;
pub mod tracking;

pub use models::{
    CommunityBlocks, HeavyTailedHubs, HouseholdClusters, MultiStrain, UniformKSubset,
};
pub use sir::{SirDynamics, SirState};
pub use tracking::{track_greedy, track_protocol, EpochReport, TrackingConfig};

use npd_core::model::GroundTruth;
use rand::RngCore;
use serde::{Deserialize, Serialize};
use std::fmt;

/// A scheme for sampling the hidden assignment `σ`.
///
/// The population-side counterpart of [`npd_core::PoolingDesign`]:
/// object-safe so heterogeneous workload catalogs can be iterated
/// (`Vec<Box<dyn PopulationModel>>`), with enough metadata for decoders to
/// exploit the prior (per-agent marginals) and for harness code to size
/// budgets (expected `k`). `Send + Sync` is part of the contract: the
/// Monte-Carlo runner shares one model across worker threads (models are
/// plain parameter structs; all sampling state lives in the caller's RNG).
pub trait PopulationModel: Send + Sync {
    /// Short stable identifier (`"uniform"`, `"community"`, …) used in
    /// reports and the scenario registry.
    fn name(&self) -> &'static str;

    /// Expected number of one-agents at population size `n`.
    fn expected_k(&self, n: usize) -> f64;

    /// Per-agent prior marginals `πᵢ = P(σᵢ = 1)`.
    ///
    /// This is what the posterior decoding paths consume
    /// ([`npd_core::GreedyDecoder::scores_with_posterior`]); models with
    /// correlated structure (households) still report the *marginal* here.
    fn prior(&self, n: usize) -> Vec<f64>;

    /// Samples one hidden assignment over `n` agents.
    ///
    /// # Panics
    ///
    /// Panics if `n == 0` or `n > u32::MAX` (models may add documented
    /// scheme-specific constraints).
    fn sample(&self, n: usize, rng: &mut dyn RngCore) -> GroundTruth;
}

/// A copyable, serializable name for a population model.
///
/// The workload-side counterpart of [`npd_core::DesignSpec`]:
/// configuration types (the experiment harness's scenario registry) carry
/// a `WorkloadSpec` and build the concrete model on demand via
/// [`WorkloadSpec::model`]. It also implements [`PopulationModel`] itself
/// by delegation, so it can be used anywhere a model is expected.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub enum WorkloadSpec {
    /// The paper's uniform `k`-subset ([`UniformKSubset`]).
    Uniform {
        /// Sparsity exponent θ (`k = n^θ`).
        theta: f64,
    },
    /// Community blocks ([`CommunityBlocks`]) with the catalog defaults
    /// (8 blocks, 2 hot, 90% of the ones in the hot blocks).
    Community {
        /// Sparsity exponent θ for the total expected `k`.
        theta: f64,
    },
    /// Household clusters ([`HouseholdClusters`]) with the catalog
    /// defaults (households of 4, secondary attack rate 0.7).
    Households {
        /// Sparsity exponent θ for the total expected `k`.
        theta: f64,
    },
    /// Heavy-tailed hubs ([`HeavyTailedHubs`]) with Zipf exponent 1.
    Hubs {
        /// Sparsity exponent θ for the total expected `k`.
        theta: f64,
    },
    /// Temporal SIR dynamics ([`SirDynamics`]) with the catalog defaults
    /// (see [`SirDynamics::catalog`]); one-shot samples snapshot the
    /// process after its burn-in.
    Sir,
    /// Categorical multi-strain population ([`MultiStrain`]): `strains`
    /// distinguishable variants (`d = strains + 1` categories); the binary
    /// view collapses strains to affected/unaffected.
    MultiStrain {
        /// Number of strains (1 to 255); `strains = 1` is the binary
        /// special case, bit-identical to [`WorkloadSpec::Uniform`].
        strains: usize,
        /// Sparsity exponent θ for the total expected `k` across strains.
        theta: f64,
    },
}

impl WorkloadSpec {
    /// Builds the concrete model this spec names.
    pub fn model(&self) -> Box<dyn PopulationModel> {
        let regime = |theta: f64| npd_core::Regime::sublinear(theta);
        match *self {
            WorkloadSpec::Uniform { theta } => Box::new(UniformKSubset::new(regime(theta))),
            WorkloadSpec::Community { theta } => {
                Box::new(CommunityBlocks::new(8, 2, 0.9, regime(theta)))
            }
            WorkloadSpec::Households { theta } => {
                Box::new(HouseholdClusters::new(4, 0.7, regime(theta)))
            }
            WorkloadSpec::Hubs { theta } => Box::new(HeavyTailedHubs::new(1.0, regime(theta))),
            WorkloadSpec::Sir => Box::new(SirDynamics::catalog()),
            WorkloadSpec::MultiStrain { strains, theta } => {
                Box::new(MultiStrain::new(strains, regime(theta)))
            }
        }
    }

    /// Strain count used by the catalog `multi-strain` name (see
    /// [`WorkloadSpec::parse`]).
    pub const CATALOG_STRAINS: usize = 3;

    /// The categorical model behind this spec, if it is one (the
    /// categorical scenarios branch on this the way the tracking scenarios
    /// branch on [`WorkloadSpec::sir`]).
    pub fn multi_strain(&self) -> Option<MultiStrain> {
        match *self {
            WorkloadSpec::MultiStrain { strains, theta } => Some(MultiStrain::new(
                strains,
                npd_core::Regime::sublinear(theta),
            )),
            _ => None,
        }
    }

    /// The temporal model behind this spec, if it is one (the tracking
    /// scenarios branch on this).
    pub fn sir(&self) -> Option<SirDynamics> {
        match self {
            WorkloadSpec::Sir => Some(SirDynamics::catalog()),
            _ => None,
        }
    }

    /// Parses the stable [`name`](PopulationModel::name) form back into a
    /// spec; parametrized models get the catalog defaults at the paper's
    /// θ = 0.25.
    pub fn parse(s: &str) -> Option<Self> {
        match s {
            "uniform" => Some(WorkloadSpec::Uniform { theta: 0.25 }),
            "community" => Some(WorkloadSpec::Community { theta: 0.25 }),
            "households" => Some(WorkloadSpec::Households { theta: 0.25 }),
            "hubs" => Some(WorkloadSpec::Hubs { theta: 0.25 }),
            "sir" => Some(WorkloadSpec::Sir),
            "multi-strain" => Some(WorkloadSpec::MultiStrain {
                strains: Self::CATALOG_STRAINS,
                theta: 0.25,
            }),
            _ => None,
        }
    }
}

impl PopulationModel for WorkloadSpec {
    fn name(&self) -> &'static str {
        match self {
            WorkloadSpec::Uniform { .. } => "uniform",
            WorkloadSpec::Community { .. } => "community",
            WorkloadSpec::Households { .. } => "households",
            WorkloadSpec::Hubs { .. } => "hubs",
            WorkloadSpec::Sir => "sir",
            WorkloadSpec::MultiStrain { .. } => "multi-strain",
        }
    }

    fn expected_k(&self, n: usize) -> f64 {
        self.model().expected_k(n)
    }

    fn prior(&self, n: usize) -> Vec<f64> {
        self.model().prior(n)
    }

    fn sample(&self, n: usize, rng: &mut dyn RngCore) -> GroundTruth {
        self.model().sample(n, rng)
    }
}

/// `Display` prints the stable [`PopulationModel::name`] plus parameters.
impl fmt::Display for WorkloadSpec {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            WorkloadSpec::Uniform { theta } => write!(f, "uniform(θ={theta})"),
            WorkloadSpec::Community { theta } => write!(f, "community(θ={theta})"),
            WorkloadSpec::Households { theta } => write!(f, "households(θ={theta})"),
            WorkloadSpec::Hubs { theta } => write!(f, "hubs(θ={theta})"),
            WorkloadSpec::Sir => f.write_str("sir"),
            WorkloadSpec::MultiStrain { strains, theta } => {
                write!(f, "multi-strain(s={strains}, θ={theta})")
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    #[test]
    fn spec_parse_round_trips_names() {
        for name in [
            "uniform",
            "community",
            "households",
            "hubs",
            "sir",
            "multi-strain",
        ] {
            let spec = WorkloadSpec::parse(name).expect("catalog name parses");
            assert_eq!(spec.name(), name);
            assert_eq!(spec.model().name(), name);
        }
        assert!(WorkloadSpec::parse("nope").is_none());
    }

    #[test]
    fn spec_display_is_informative() {
        assert_eq!(
            WorkloadSpec::Community { theta: 0.5 }.to_string(),
            "community(θ=0.5)"
        );
        assert_eq!(WorkloadSpec::Sir.to_string(), "sir");
    }

    #[test]
    fn spec_delegates_to_model() {
        let spec = WorkloadSpec::Uniform { theta: 0.5 };
        let n = 400;
        let direct = spec.model().sample(n, &mut StdRng::seed_from_u64(3));
        let via_spec = spec.sample(n, &mut StdRng::seed_from_u64(3));
        assert_eq!(direct, via_spec);
        assert_eq!(spec.prior(n).len(), n);
        assert!(spec.expected_k(n) >= 1.0);
    }

    #[test]
    fn models_are_object_safe() {
        let catalog: Vec<Box<dyn PopulationModel>> = vec![
            WorkloadSpec::Uniform { theta: 0.25 }.model(),
            WorkloadSpec::Community { theta: 0.25 }.model(),
            WorkloadSpec::Households { theta: 0.25 }.model(),
            WorkloadSpec::Hubs { theta: 0.25 }.model(),
            WorkloadSpec::Sir.model(),
            WorkloadSpec::MultiStrain {
                strains: 3,
                theta: 0.25,
            }
            .model(),
        ];
        let mut rng = StdRng::seed_from_u64(11);
        for model in &catalog {
            let truth = model.sample(500, &mut rng);
            assert_eq!(truth.n(), 500, "{}", model.name());
            let prior = model.prior(500);
            assert_eq!(prior.len(), 500);
            assert!(prior.iter().all(|&p| (0.0..=1.0).contains(&p)));
            // The prior mass tracks the expected k within sampling slack.
            let mass: f64 = prior.iter().sum();
            let want = model.expected_k(500);
            assert!(
                (mass - want).abs() < want.max(1.0) * 0.5 + 2.0,
                "{}: prior mass {mass} vs expected k {want}",
                model.name()
            );
        }
    }
}
