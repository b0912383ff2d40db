//! The pooled-data model and reconstruction algorithms of *“Distributed
//! Reconstruction of Noisy Pooled Data”* (Hahn-Klimroth & Kaaser, ICDCS
//! 2022).
//!
//! # The problem
//!
//! `n` agents hold hidden bits `σ ∈ {0,1}ⁿ`; exactly `k` agents hold bit
//! one. Each of `m` query nodes draws `Γ = n/2` agents uniformly at random
//! *with replacement* and reports the (noisy) sum of the drawn bits. The
//! goal is to reconstruct `σ` from the query results.
//!
//! Two noise models from the paper:
//!
//! * [`NoiseModel::channel`] — per-edge bit flips: a one reads as zero with
//!   probability `p`, a zero reads as one with probability `q`
//!   ([`NoiseModel::z_channel`] is `q = 0`).
//! * [`NoiseModel::gaussian`] — each query result is perturbed by
//!   independent `N(0, λ²)` noise.
//!
//! # The algorithm
//!
//! Algorithm 1 (the *noisy maximum neighborhood* rule): each query sends its
//! result once to every distinct member; agent `i` accumulates the
//! neighborhood sum `Ψᵢ` and its distinct degree `Δ*ᵢ`, and the `k` agents
//! with the largest scores `Ψᵢ − Δ*ᵢ·k/2` declare bit one. Three
//! implementations are provided, all bit-identical in their output because
//! all three fold the query results through one accumulator kernel:
//!
//! * [`GreedyDecoder`] — the sequential reference decoder;
//! * [`distributed::run_protocol_chaos`] — the full message-passing
//!   protocol on `npd-netsim`, with the agents sorting themselves through a
//!   Batcher sorting network from `npd-sortnet` (or selecting by gossip);
//! * [`IncrementalSim`] — an `O(n)`-memory query-by-query simulation used to
//!   measure the *required number of queries* exactly as Section V of the
//!   paper describes.
//!
//! # The design layer
//!
//! The paper fixes one pooling design (i.i.d. `Γ`-regular queries, its
//! model section); the follow-up literature shows the design matrix is the
//! main lever for query efficiency. The [`design`] module therefore makes
//! the design pluggable: the [`PoolingDesign`] trait samples a
//! [`PoolingGraph`] from `(n, m, Γ, rng)` and reports metadata, with four
//! schemes behind it ([`IidDesign`], [`DoublyRegularDesign`],
//! [`SparseColumnDesign`], [`SpatiallyCoupledDesign`]) plus the
//! serializable [`DesignSpec`] selector that [`Instance`] and the
//! experiment harness's scenario registry carry. All decoders consume the
//! sampled [`Run`] and are design-agnostic; score centerings use per-query
//! slot counts, so designs with ±1-balanced (ragged) pool sizes decode
//! exactly.
//!
//! # Examples
//!
//! ```
//! use npd_core::{Decoder, GreedyDecoder, Instance, NoiseModel, Regime};
//! use rand::SeedableRng;
//!
//! let mut rng = rand::rngs::StdRng::seed_from_u64(7);
//! let instance = Instance::builder(400)
//!     .regime(Regime::sublinear(0.25))
//!     .noise(NoiseModel::z_channel(0.1))
//!     .queries(350)
//!     .build()?;
//! let run = instance.sample(&mut rng);
//! let estimate = GreedyDecoder::new().decode(&run);
//! assert_eq!(estimate.ones(), run.ground_truth().ones());
//! # Ok::<(), npd_core::InstanceError>(())
//! ```

#![deny(missing_docs)]
#![forbid(unsafe_code)]
#![warn(clippy::unwrap_used)]
#![warn(clippy::expect_used)]
#![cfg_attr(test, allow(clippy::unwrap_used, clippy::expect_used))]

pub mod categorical;
pub mod design;
pub mod distributed;
pub mod estimation;
pub mod evaluate;
pub mod greedy;
pub mod incremental;
pub mod model;
pub mod noise;
pub mod twostep;

pub use categorical::{
    category_slots, label_accuracy, measure_categorical, CategoricalInstance, CategoricalRun,
    CategoricalTruth,
};
pub use design::{
    DesignProfile, DesignSpec, DoublyRegularDesign, IidDesign, PoolingDesign, PoolingGraph,
    QueryMultiset, Sampling, SparseColumnDesign, SpatiallyCoupledDesign,
};
pub use evaluate::{confusion, exact_recovery, hamming_distance, overlap, separation, Confusion};
pub use greedy::{
    Centering, Decoder, Estimate, Fold, GreedyDecoder, GreedyWorkspace, ScoreOptions,
};
pub use incremental::{IncrementalSim, RequiredQueries};
pub use model::{GroundTruth, Instance, InstanceBuilder, InstanceError, Regime, Run};
pub use noise::NoiseModel;
pub use twostep::TwoStepDecoder;
