//! Approximate message passing (AMP) for the pooled data problem.
//!
//! This is the comparison algorithm of Section III of the paper: the
//! Donoho–Maleki–Montanari iteration
//!
//! ```text
//! x_{t+1} = η_t(Bᵀz_t + x_t)
//! z_t     = ỹ − B·x_t + z_{t−1} · (1/m)·Σᵢ η'_{t−1}(v_{t−1,i})
//! ```
//!
//! run against the *centered and scaled* pooling matrix (see
//! [`preprocess::CenteredMatrix`]) with the Bayes-optimal denoiser for the
//! `Bernoulli(k/n)` prior (see [`denoiser::BayesBernoulli`]). The paper's
//! displayed update omits the `z_{t−1}` factor in the Onsager term; we
//! follow the cited original works [DMM 2010], where the factor is present
//! (without it the iteration diverges).
//!
//! The crate provides:
//!
//! * [`AmpDecoder`] — implements [`npd_core::Decoder`], so the experiment
//!   harness can compare it head-to-head with the greedy algorithm
//!   (Figure 6);
//! * [`state_evolution`] — the scalar recursion tracking the effective
//!   noise `τ_t`, the standard analysis tool for AMP;
//! * [`cost`] — the communication-cost model for a distributed AMP
//!   execution, backing the paper's conclusion that unmodified AMP is
//!   communication-heavy in message-passing environments.
//!
//! # Examples
//!
//! ```
//! use npd_amp::AmpDecoder;
//! use npd_core::{Decoder, Instance, NoiseModel};
//! use rand::SeedableRng;
//!
//! let mut rng = rand::rngs::StdRng::seed_from_u64(1);
//! let run = Instance::builder(400)
//!     .k(4)
//!     .queries(250)
//!     .noise(NoiseModel::z_channel(0.1))
//!     .build()
//!     .unwrap()
//!     .sample(&mut rng);
//! let estimate = AmpDecoder::default().decode(&run);
//! assert_eq!(estimate.k(), 4);
//! ```

#![deny(missing_docs)]
#![forbid(unsafe_code)]
#![warn(clippy::unwrap_used)]
#![warn(clippy::expect_used)]
#![cfg_attr(test, allow(clippy::unwrap_used, clippy::expect_used))]

pub mod cost;
pub mod denoiser;
pub mod iteration;
pub mod matrix_amp;
pub mod preprocess;
pub mod state_evolution;

pub use denoiser::{BayesBernoulli, BayesSimplex, Denoiser, SoftThreshold};
pub use iteration::{AmpConfig, AmpDecoder, AmpOutput, AmpWorkspace, DenoiserKind};
pub use matrix_amp::{run_matrix_amp_tracking, MatrixAmpConfig, MatrixAmpOutput};
pub use preprocess::{prepare_categorical, CategoricalPrepared, CenteredMatrix};
