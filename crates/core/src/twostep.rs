//! Two-step decoding: the local error-correction extension.
//!
//! The paper closes with an open question: “whether a two-step algorithm
//! that locally tries to correct errors can be analyzed rigorously and
//! performs even better”. This module implements the natural candidate, a
//! single residual-refinement pass on top of the greedy estimate:
//!
//! 1. Run the greedy decoder to obtain `σ̂⁰`.
//! 2. For each query `j`, compute the residual
//!    `rⱼ = σ̂ⱼ_scaled − (A·σ̂⁰)ⱼ`, where `σ̂ⱼ_scaled` unbiases the channel
//!    noise (`(σ̂ⱼ − qΓ)/(1−p−q)`) so residuals are centered.
//! 3. Re-score each agent by its *leave-one-out* residual sum
//!    `Ψ'ᵢ = Σ_{j∈∂*i} (rⱼ + Aⱼᵢ·σ̂⁰ᵢ)` — the evidence for agent `i` once
//!    the estimated contribution of everyone else is subtracted — and take
//!    the top `k`.
//!
//! When the first-stage estimate is mostly correct, the residual isolates
//! each agent's own contribution far more sharply than the raw neighborhood
//! sum (whose variance is dominated by the `≈ k/2` other one-agents per
//! query), so borderline ranking mistakes get corrected. This mirrors the
//! mechanism the paper conjectures lets AMP outperform one-shot greedy.

use crate::greedy::{Decoder, Estimate, GreedyDecoder};
use crate::model::Run;

/// Greedy decoding followed by one residual-refinement pass.
///
/// # Examples
///
/// ```
/// use npd_core::{Decoder, Instance, NoiseModel, TwoStepDecoder};
/// use rand::SeedableRng;
///
/// let mut rng = rand::rngs::StdRng::seed_from_u64(3);
/// let run = Instance::builder(300)
///     .k(4)
///     .queries(300)
///     .noise(NoiseModel::z_channel(0.1))
///     .build()
///     .unwrap()
///     .sample(&mut rng);
/// let est = TwoStepDecoder::new().decode(&run);
/// assert_eq!(est.k(), 4);
/// ```
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct TwoStepDecoder {
    _private: (),
}

impl TwoStepDecoder {
    /// Creates the decoder.
    pub fn new() -> Self {
        Self::default()
    }

    /// The refined scores after one residual pass (exposed for diagnostics,
    /// like [`GreedyDecoder::scores`]).
    pub fn refined_scores(&self, run: &Run) -> Vec<f64> {
        let n = run.instance().n();
        let first = GreedyDecoder::new().decode(run);

        // Unbias channel observations so residuals center at zero:
        // E[σ̂ⱼ | A] = (1−p−q)·(Aσ)ⱼ + q·|∂aⱼ|. The shift uses the query's
        // own slot count — equal to Γ on query-regular designs, exact on
        // ragged (degree-balanced) designs.
        let (p, flip_q) = run.instance().noise().flip_rates();
        let denom = 1.0 - p - flip_q;
        let scale = 1.0 / denom;

        // Residual per query under the first-stage estimate.
        let mut residual = vec![0.0f64; run.instance().m()];
        for (j, q) in run.graph().queries().iter().enumerate() {
            let mut estimated = 0.0f64;
            for (agent, count) in q.iter() {
                if first.bits()[agent as usize] {
                    estimated += count as f64;
                }
            }
            let shift = flip_q * q.total_slots() as f64 / denom;
            residual[j] = run.results()[j] * scale - shift - estimated;
        }

        // Leave-one-out refinement: per distinct query, the residual plus
        // the agent's own estimated contribution (its multiplicity if the
        // first stage called it a one).
        let mut refined = vec![0.0f64; n];
        for (j, q) in run.graph().queries().iter().enumerate() {
            for (agent, count) in q.iter() {
                let own = if first.bits()[agent as usize] {
                    count as f64
                } else {
                    0.0
                };
                refined[agent as usize] += residual[j] + own;
            }
        }
        refined
    }
}

impl Decoder for TwoStepDecoder {
    fn decode(&self, run: &Run) -> Estimate {
        Estimate::from_scores(self.refined_scores(run), run.instance().k())
    }

    fn name(&self) -> &'static str {
        "two-step"
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::evaluate::{exact_recovery, overlap};
    use crate::model::Instance;
    use crate::noise::NoiseModel;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    fn run_with(n: usize, k: usize, m: usize, noise: NoiseModel, seed: u64) -> Run {
        Instance::builder(n)
            .k(k)
            .queries(m)
            .noise(noise)
            .build()
            .unwrap()
            .sample(&mut StdRng::seed_from_u64(seed))
    }

    #[test]
    fn matches_greedy_in_easy_regime() {
        // Well above threshold both decoders are exact.
        let run = run_with(300, 4, 500, NoiseModel::z_channel(0.1), 1);
        let two = TwoStepDecoder::new().decode(&run);
        assert!(exact_recovery(&two, run.ground_truth()));
    }

    #[test]
    fn never_changes_k() {
        let run = run_with(100, 7, 50, NoiseModel::gaussian(1.0), 2);
        assert_eq!(TwoStepDecoder::new().decode(&run).k(), 7);
    }

    #[test]
    fn improves_mean_overlap_near_threshold() {
        // Near the phase transition the refinement should help on average.
        // Averaged over seeds with a small tolerance to keep the test
        // robust to the exact noise realization.
        let mut greedy_sum = 0.0;
        let mut two_sum = 0.0;
        let trials = 20;
        for seed in 0..trials {
            let run = run_with(400, 5, 150, NoiseModel::z_channel(0.2), 100 + seed);
            greedy_sum += overlap(&GreedyDecoder::new().decode(&run), run.ground_truth());
            two_sum += overlap(&TwoStepDecoder::new().decode(&run), run.ground_truth());
        }
        let greedy_mean = greedy_sum / trials as f64;
        let two_mean = two_sum / trials as f64;
        assert!(
            two_mean >= greedy_mean - 0.02,
            "two-step {two_mean:.3} clearly below greedy {greedy_mean:.3}"
        );
    }

    #[test]
    fn name_is_stable() {
        assert_eq!(TwoStepDecoder::new().name(), "two-step");
    }
}
