//! Estimating the channel parameters `(p, q)` from query results.
//!
//! The paper's model assumes the flip probabilities are *known* constants
//! (Section II-A), and the working form of Algorithm 1 — the noise-aware
//! centering — consumes them. In a deployment they must come from
//! somewhere; this module recovers them from the measurements themselves by
//! the method of moments, using only quantities the model already fixes
//! (`n`, `k`, and the design's realized mean query size
//! [`crate::PoolingGraph::mean_query_slots`], which equals `Γ` on
//! query-regular designs):
//!
//! With `c₁ ~ Bin(Γ, k/n)` one-slots per query and per-edge flips,
//!
//! ```text
//! E[σ̂]   = q·Γ + (1−p−q)·Γ·k/n
//! Var[σ̂] = E[c₁](1−p)p + E[c₀]q(1−q) + (1−p−q)²·Γ·(k/n)(1−k/n)
//! ```
//!
//! Two equations, two unknowns. The mean equation expresses `p` as a linear
//! function of `q`; substituting into the variance equation leaves a
//! one-dimensional root-finding problem solved by bisection. For the
//! Z-channel (`q = 0` known a priori) the mean equation alone suffices.

use crate::greedy::{second_neighborhood_rate, Fold, GreedyDecoder, GreedyWorkspace, ScoreOptions};
use crate::model::Run;
use serde::{Deserialize, Serialize};
use std::fmt;

/// Estimated channel parameters.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct ChannelEstimate {
    /// Estimated false-negative rate.
    pub p: f64,
    /// Estimated false-positive rate.
    pub q: f64,
}

/// Errors from moment-based estimation.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum EstimationError {
    /// Fewer than two queries — no variance information.
    TooFewQueries,
    /// The observed moments are inconsistent with any channel in the model
    /// (e.g. mean above `Γ` or below zero after sampling noise).
    InconsistentMoments,
}

impl fmt::Display for EstimationError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            EstimationError::TooFewQueries => {
                write!(f, "need at least two queries to estimate channel noise")
            }
            EstimationError::InconsistentMoments => {
                write!(
                    f,
                    "observed moments are inconsistent with the channel model"
                )
            }
        }
    }
}

impl std::error::Error for EstimationError {}

/// Estimates the Z-channel flip rate `p` (assuming `q = 0`) from the mean
/// query result: `p̂ = 1 − mean(σ̂)·n/(Γ·k)`, clamped into `[0, 1)`.
///
/// # Errors
///
/// Returns [`EstimationError::TooFewQueries`] for runs with fewer than two
/// queries.
///
/// # Examples
///
/// ```
/// use npd_core::{estimation, Instance, NoiseModel};
/// use rand::SeedableRng;
///
/// let mut rng = rand::rngs::StdRng::seed_from_u64(1);
/// let run = Instance::builder(1_000)
///     .k(6)
///     .queries(400)
///     .noise(NoiseModel::z_channel(0.3))
///     .build()
///     .unwrap()
///     .sample(&mut rng);
/// let p_hat = estimation::estimate_z_channel(&run).unwrap();
/// assert!((p_hat - 0.3).abs() < 0.05);
/// ```
pub fn estimate_z_channel(run: &Run) -> Result<f64, EstimationError> {
    if run.results().len() < 2 {
        return Err(EstimationError::TooFewQueries);
    }
    let mean = run.results().iter().sum::<f64>() / run.results().len() as f64;
    let instance = run.instance();
    // The realized mean query size: Γ exactly on query-regular designs,
    // the right normalizer on ragged (degree-balanced) designs.
    let expected_ones = run.graph().mean_query_slots() * instance.k() as f64 / instance.n() as f64;
    let p = 1.0 - mean / expected_ones;
    Ok(p.clamp(0.0, 1.0 - f64::EPSILON))
}

/// Estimates the per-slot one-read rate `q + k(1−p−q)/n` directly from the
/// first moment: `rate ≈ mean(σ̂)/Γ`.
///
/// This is the quantity the noise-aware centering of Algorithm 1 actually
/// consumes ([`crate::Centering::NoiseAware`]), and unlike `p` it is
/// *sharply* identified: the estimator's standard error is
/// `O(√(Var[σ̂]/m)/Γ)`. In other words, the working algorithm never needs
/// `p` and `q` separately — [`decode_with_estimated_noise`] exploits this.
///
/// # Errors
///
/// Returns [`EstimationError::TooFewQueries`] for runs with fewer than two
/// queries.
pub fn estimate_slot_rate(run: &Run) -> Result<f64, EstimationError> {
    if run.results().len() < 2 {
        return Err(EstimationError::TooFewQueries);
    }
    let mean = run.results().iter().sum::<f64>() / run.results().len() as f64;
    Ok((mean / run.graph().mean_query_slots()).max(0.0))
}

/// Runs the greedy decoder with the slot rate *estimated from the data*
/// instead of derived from known channel parameters.
///
/// This is the deployment-grade variant of Algorithm 1: it requires no
/// prior knowledge of `p` or `q` and matches the known-parameter decoder's
/// output on all but borderline instances (the estimated rate differs from
/// the true one by `O(1/(Γ√m))`).
///
/// # Errors
///
/// Returns [`EstimationError::TooFewQueries`] for runs with fewer than two
/// queries.
pub fn decode_with_estimated_noise(run: &Run) -> Result<crate::Estimate, EstimationError> {
    let rate = estimate_slot_rate(run)?;
    Ok(decode_at_rate(run, rate, Fold::Plain, run.instance().k()))
}

/// Greedy top-`k` under the noise-aware centering at an explicit slot
/// rate, folding the queries as `fold` says.
fn decode_at_rate(run: &Run, slot_rate: f64, fold: Fold<'_>, k: usize) -> crate::Estimate {
    let options = ScoreOptions {
        slot_rate: Some(slot_rate),
        fold,
    };
    let scores = GreedyDecoder::new().scores_with(run, options, &mut GreedyWorkspace::new());
    crate::Estimate::from_scores(scores, k)
}

/// Flags queries whose results look corrupted, by a robust outlier rule on
/// the per-slot read rates `σ̂ⱼ/|∂aⱼ|`.
///
/// Under every channel in the model the per-slot rates concentrate around a
/// common mean, so a measurement garbled in flight (see
/// `npd_netsim::NodeFaultPlan` corruption faults) shows up as a rate far
/// from the pack. The rule is median/MAD based — a corrupted minority
/// cannot drag the location or scale estimate the way it drags the mean
/// and variance: flag query `j` iff its rate is non-finite or
///
/// ```text
/// |rateⱼ − median| > z · 1.4826 · MAD
/// ```
///
/// (`1.4826·MAD` is the usual consistency scaling to the standard
/// deviation under Gaussian spread). `z = 5` is a sensible default: wide
/// enough that binomial sampling spread on clean runs survives, tight
/// enough to catch the multiplicative garbling the chaos fault injector
/// applies. With fewer than three queries nothing is flagged — there is no
/// meaningful spread to compare against.
pub fn flag_corrupted_queries(run: &Run, z: f64) -> Vec<bool> {
    let results = run.results();
    let queries = run.graph().queries();
    if results.len() < 3 {
        return vec![false; results.len()];
    }
    let rates: Vec<f64> = results
        .iter()
        .zip(queries)
        .map(|(&r, q)| r / q.total_slots().max(1) as f64)
        .collect();
    let median_of = |values: &mut Vec<f64>| -> f64 {
        values.sort_by(f64::total_cmp);
        let mid = values.len() / 2;
        if values.len() % 2 == 1 {
            values[mid]
        } else {
            (values[mid - 1] + values[mid]) / 2.0
        }
    };
    // Non-finite rates are corrupt by definition and must not poison the
    // median; compute location/scale on the finite ones only.
    let mut finite: Vec<f64> = rates.iter().copied().filter(|r| r.is_finite()).collect();
    if finite.len() < 3 {
        return rates.iter().map(|r| !r.is_finite()).collect();
    }
    let median = median_of(&mut finite);
    let mut deviations: Vec<f64> = finite.iter().map(|r| (r - median).abs()).collect();
    let mad = median_of(&mut deviations);
    let threshold = z * 1.4826 * mad.max(1e-12);
    rates
        .iter()
        .map(|&r| !r.is_finite() || (r - median).abs() > threshold)
        .collect()
}

/// [`estimate_slot_rate`] restricted to the queries *not* flagged in
/// `exclude` — the robust moment estimate to pair with a
/// [`Fold::Trim`] of the same mask: a handful of
/// garbled results shift the plain first moment by an unbounded amount,
/// so the trimmed decoder must not center with it.
///
/// # Errors
///
/// Returns [`EstimationError::TooFewQueries`] when fewer than two queries
/// survive the exclusion.
///
/// # Panics
///
/// Panics if `exclude.len() != m`.
pub fn estimate_slot_rate_trimmed(run: &Run, exclude: &[bool]) -> Result<f64, EstimationError> {
    let results = run.results();
    assert_eq!(
        exclude.len(),
        results.len(),
        "estimate_slot_rate_trimmed: exclusion mask length must equal the query count"
    );
    let mut sum = 0.0;
    let mut slots = 0.0;
    let mut kept = 0usize;
    for (j, &r) in results.iter().enumerate() {
        if !exclude[j] {
            sum += r;
            slots += run.graph().queries()[j].total_slots() as f64;
            kept += 1;
        }
    }
    if kept < 2 {
        return Err(EstimationError::TooFewQueries);
    }
    Ok((sum / slots).max(0.0))
}

/// Corruption-robust deployment decoding: flag outlier measurements,
/// re-estimate the slot rate from the survivors, and run the greedy
/// decoder with the flagged queries excluded from the accumulation.
///
/// This is the sequential counterpart of the distributed protocol's
/// winsorized fold, but strictly stronger where it applies: winsorizing
/// caps a corrupted measurement's contribution at the feasible range,
/// trimming removes it entirely — both the garbled result *and* its degree
/// terms leave the centering, so the surviving scores are exactly those of
/// a run in which the flagged queries were never asked. On clean runs
/// nothing is flagged (at the default `z = 5`) and the output matches
/// [`decode_with_estimated_noise`].
///
/// # Errors
///
/// Returns [`EstimationError::TooFewQueries`] when fewer than two queries
/// survive the outlier filter.
pub fn decode_trimmed(run: &Run, z: f64) -> Result<crate::Estimate, EstimationError> {
    let exclude = flag_corrupted_queries(run, z);
    let rate = estimate_slot_rate_trimmed(run, &exclude)?;
    Ok(decode_at_rate(
        run,
        rate,
        Fold::Trim(&exclude),
        run.instance().k(),
    ))
}

/// Estimates both channel parameters `(p, q)` by the method of moments.
///
/// # Accuracy
///
/// The two parameters are *very* differently identified. The mean equation
/// pins `q` to a window of width `≈ Γ·(k/n)/Γ = k/n`, so `q̂` is sharp. `p`
/// enters only through `s = 1−p−q = (mean − qΓ)·n/(Γk)`, so any error in
/// `q` is amplified by `n/k` — with the paper's sparse regimes `p̂` carries
/// an `O(0.1–0.4)` error at realistic query counts. This asymmetry is
/// intrinsic to pooled measurements (each query contains only `Γk/n ≈ k/2`
/// one-slots to learn `p` from); use [`estimate_slot_rate`] for decoding,
/// which sidesteps the problem entirely.
///
/// # Errors
///
/// Returns [`EstimationError::TooFewQueries`] with fewer than two queries
/// and [`EstimationError::InconsistentMoments`] when no `(p, q)` with
/// `p + q < 1` reproduces the observed moments (heavy sampling noise on
/// very small runs).
pub fn estimate_channel(run: &Run) -> Result<ChannelEstimate, EstimationError> {
    let results = run.results();
    if results.len() < 2 {
        return Err(EstimationError::TooFewQueries);
    }
    let m = results.len() as f64;
    let mean = results.iter().sum::<f64>() / m;
    let var = results.iter().map(|r| (r - mean).powi(2)).sum::<f64>() / (m - 1.0);

    let instance = run.instance();
    let gamma = run.graph().mean_query_slots();
    let rate = instance.k() as f64 / instance.n() as f64; // k/n
    let e_c1 = gamma * rate;
    let e_c0 = gamma - e_c1;
    let var_c1 = gamma * rate * (1.0 - rate);

    // Mean equation: mean = qΓ + (1−p−q)·e_c1 ⇒ for a given q,
    //   s := 1−p−q = (mean − qΓ)/e_c1,  p = 1 − q − s.
    //
    // Admissibility (s ∈ (0, 1], p ∈ [0, 1)) confines q to the narrow
    // window [max(0, (mean−e_c1)/(Γ−e_c1)), mean/Γ): the mean pins q up to
    // the small correction the variance equation resolves.
    let p_of_q = |q: f64| -> Option<(f64, f64)> {
        let s = (mean - q * gamma) / e_c1;
        let p = 1.0 - q - s;
        if !(0.0..1.0).contains(&p) || s <= 0.0 || s > 1.0 {
            None
        } else {
            Some((p, s))
        }
    };
    let residual = |q: f64| -> Option<f64> {
        let (p, s) = p_of_q(q)?;
        let model_var = e_c1 * (1.0 - p) * p + e_c0 * q * (1.0 - q) + s * s * var_c1;
        Some((model_var - var).abs())
    };

    let q_lo = ((mean - e_c1) / (gamma - e_c1)).max(0.0);
    let q_hi = (mean / gamma).min(1.0 - f64::EPSILON);
    // `!(q_lo < q_hi)` also rejects NaN windows, which `q_lo >= q_hi`
    // would let through.
    #[allow(clippy::neg_cmp_op_on_partial_ord)]
    if !(q_lo < q_hi) || !mean.is_finite() || mean < 0.0 {
        return Err(EstimationError::InconsistentMoments);
    }
    // The residual is not monotone across the window and the window is
    // tiny, so a dense grid plus local refinement is both simple and
    // robust.
    let best_on = |lo: f64, hi: f64, steps: usize| -> Option<(f64, f64)> {
        let mut best: Option<(f64, f64)> = None;
        for i in 0..=steps {
            let q = lo + (hi - lo) * i as f64 / steps as f64;
            if let Some(r) = residual(q) {
                if best.is_none_or(|(_, br)| r < br) {
                    best = Some((q, r));
                }
            }
        }
        best
    };
    let (coarse_q, _) = best_on(q_lo, q_hi, 400).ok_or(EstimationError::InconsistentMoments)?;
    let span = (q_hi - q_lo) / 400.0;
    let (q, _) = best_on(
        (coarse_q - span).max(q_lo),
        (coarse_q + span).min(q_hi),
        100,
    )
    .ok_or(EstimationError::InconsistentMoments)?;
    let (p, _) = p_of_q(q).ok_or(EstimationError::InconsistentMoments)?;
    Ok(ChannelEstimate { p, q })
}

/// Estimates the number of one-agents `k` from the first moment, given the
/// noise parameters (known per the model, or zero for the noiseless and
/// Gaussian models).
///
/// The model fixes `E[σ̂] = qΓ + (1−p−q)·Γ·k/n`, so
/// `k̂ = n·(mean(σ̂)/Γ − q)/(1−p−q)` rounded and clamped into `[0, n]`.
/// The standard error is `≈ n·√(Var[σ̂]/m)/(Γ(1−p−q))` — a handful of
/// queries suffice for the exact `k` in the sparse regime, which is what
/// makes the "k known" model assumption harmless in practice.
///
/// # Errors
///
/// Returns [`EstimationError::TooFewQueries`] for runs with fewer than two
/// queries.
///
/// # Examples
///
/// ```
/// use npd_core::{estimation, Instance, NoiseModel};
/// use rand::SeedableRng;
///
/// let mut rng = rand::rngs::StdRng::seed_from_u64(5);
/// let run = Instance::builder(1_000)
///     .k(6)
///     .queries(300)
///     .noise(NoiseModel::z_channel(0.2))
///     .build()
///     .unwrap()
///     .sample(&mut rng);
/// assert_eq!(estimation::estimate_k(&run).unwrap(), 6);
/// ```
pub fn estimate_k(run: &Run) -> Result<usize, EstimationError> {
    if run.results().len() < 2 {
        return Err(EstimationError::TooFewQueries);
    }
    let instance = run.instance();
    let (p, q) = instance.noise().flip_rates();
    let mean = run.results().iter().sum::<f64>() / run.results().len() as f64;
    let slot_rate = mean / run.graph().mean_query_slots();
    let k = instance.n() as f64 * (slot_rate - q) / (1.0 - p - q);
    Ok((k.round().max(0.0) as usize).min(instance.n()))
}

/// Estimates `k` by blending the moment estimate with a per-agent prior.
///
/// Structured population models carry per-agent marginals
/// `πᵢ = P(σᵢ = 1)` (see the `npd-workloads` crate); their mass
/// `k₀ = Σπᵢ` is an estimate of `k` *before any query is read*, with
/// variance `Σπᵢ(1−πᵢ)` under an independent-marginals approximation. The
/// moment estimator of [`estimate_k`] is unbiased with variance
/// `≈ (n/(Γ̄(1−p−q)))²·Var[σ̂]/m` (realized mean query size `Γ̄`, as
/// everywhere in this module). This function returns the precision-weighted
/// blend of the two — the posterior mean under Gaussian approximations —
/// rounded and clamped into `[0, n]`: with few queries the prior dominates,
/// with many the data does.
///
/// # Errors
///
/// Returns [`EstimationError::TooFewQueries`] for runs with fewer than two
/// queries.
///
/// # Panics
///
/// Panics if `prior.len() != n` or any `πᵢ ∉ [0, 1]`.
pub fn estimate_k_with_prior(run: &Run, prior: &[f64]) -> Result<usize, EstimationError> {
    let instance = run.instance();
    assert_eq!(
        prior.len(),
        instance.n(),
        "estimate_k_with_prior: prior length must equal n"
    );
    let results = run.results();
    if results.len() < 2 {
        return Err(EstimationError::TooFewQueries);
    }
    let (p, q) = instance.noise().flip_rates();
    let m = results.len() as f64;
    let mean = results.iter().sum::<f64>() / m;
    let var = results.iter().map(|r| (r - mean).powi(2)).sum::<f64>() / (m - 1.0);
    let gbar = run.graph().mean_query_slots();
    let n = instance.n() as f64;

    let k_mom = n * (mean / gbar - q) / (1.0 - p - q);
    let var_mom = (n / (gbar * (1.0 - p - q))).powi(2) * var / m;

    let mut k0 = 0.0;
    let mut var0 = 0.0;
    for (i, &pi) in prior.iter().enumerate() {
        assert!(
            (0.0..=1.0).contains(&pi),
            "estimate_k_with_prior: prior[{i}]={pi} not a probability"
        );
        k0 += pi;
        var0 += pi * (1.0 - pi);
    }
    // Degenerate corners: a zero-variance moment estimate (constant
    // results) pins k̂ to the data; a degenerate all-{0,1} prior pins it to
    // the prior mass.
    let blended = if !(var_mom.is_finite() && var_mom > 0.0) {
        k_mom
    } else if var0 <= 0.0 {
        k0
    } else {
        (k_mom / var_mom + k0 / var0) / (1.0 / var_mom + 1.0 / var0)
    };
    Ok((blended.round().max(0.0) as usize).min(instance.n()))
}

/// Prior-aware deployment decoding: posterior top-`k̂` with both the rank
/// cut and the scores informed by the population prior.
///
/// Combines [`estimate_k_with_prior`] (posterior `k̂`) with
/// [`GreedyDecoder::scores_with_posterior`] (per-agent log-prior-odds in
/// the ranking); the structured-workload counterpart of
/// [`decode_with_estimated_k`].
///
/// # Errors
///
/// Returns [`EstimationError::TooFewQueries`] for runs with fewer than two
/// queries.
///
/// # Panics
///
/// Panics if `prior.len() != n` or any `πᵢ ∉ [0, 1]`.
pub fn decode_with_prior(run: &Run, prior: &[f64]) -> Result<crate::Estimate, EstimationError> {
    let k_hat = estimate_k_with_prior(run, prior)?;
    let (_, posterior) = GreedyDecoder::new().scores_with_posterior(run, prior);
    Ok(crate::Estimate::from_scores(posterior, k_hat))
}

/// Runs the greedy decoder with `k` *estimated from the data* instead of
/// taken from the model: the estimated `k̂` drives both the noise-aware
/// centering and the rank cut.
///
/// Together with [`decode_with_estimated_noise`] this removes every
/// non-observable input of Algorithm 1; the remaining gap to the oracle
/// decoder is the event `k̂ ≠ k`, whose probability vanishes with the
/// query count.
///
/// # Errors
///
/// Returns [`EstimationError::TooFewQueries`] for runs with fewer than two
/// queries.
pub fn decode_with_estimated_k(run: &Run) -> Result<crate::Estimate, EstimationError> {
    let k_hat = estimate_k(run)?;
    let instance = run.instance();
    // The analysis' slot rate with the estimated k: q + k̂(1−p−q)/(n−1).
    let rate = second_neighborhood_rate(instance.n(), k_hat, instance.noise());
    Ok(decode_at_rate(run, rate, Fold::Plain, k_hat))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::model::Instance;
    use crate::noise::NoiseModel;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    fn run_with(noise: NoiseModel, m: usize, seed: u64) -> Run {
        Instance::builder(2_000)
            .k(10)
            .queries(m)
            .noise(noise)
            .build()
            .unwrap()
            .sample(&mut StdRng::seed_from_u64(seed))
    }

    /// Smaller population for the decoding round-trip (keeps debug-mode
    /// test time reasonable at the same relative query budget).
    fn small_run_with(noise: NoiseModel, m: usize, seed: u64) -> Run {
        Instance::builder(1_000)
            .k(8)
            .queries(m)
            .noise(noise)
            .build()
            .unwrap()
            .sample(&mut StdRng::seed_from_u64(seed))
    }

    #[test]
    fn z_channel_estimate_is_accurate() {
        for &p in &[0.1, 0.3, 0.5] {
            let run = run_with(NoiseModel::z_channel(p), 600, 42);
            let p_hat = estimate_z_channel(&run).unwrap();
            assert!((p_hat - p).abs() < 0.06, "p={p}: estimated {p_hat}");
        }
    }

    #[test]
    fn z_channel_estimate_of_noiseless_is_zero() {
        let run = run_with(NoiseModel::Noiseless, 300, 7);
        let p_hat = estimate_z_channel(&run).unwrap();
        assert!(p_hat.abs() < 0.05, "estimated {p_hat}");
    }

    #[test]
    fn general_channel_estimate_recovers_q_sharply() {
        // q is sharply identified; p only loosely (see the accuracy note on
        // `estimate_channel`).
        let (p, q) = (0.15, 0.05);
        let run = run_with(NoiseModel::channel(p, q), 3_000, 11);
        let est = estimate_channel(&run).unwrap();
        assert!((est.q - q).abs() < 0.01, "q: {est:?}");
        assert!((est.p - p).abs() < 0.75, "p wildly off: {est:?}");
        // The combination the decoder consumes is recovered accurately.
        let true_rate = q + 10.0 * (1.0 - p - q) / 2_000.0;
        let est_rate = est.q + 10.0 * (1.0 - est.p - est.q) / 2_000.0;
        assert!(
            (est_rate - true_rate).abs() < 0.005,
            "slot rate: {est_rate} vs {true_rate}"
        );
    }

    #[test]
    fn general_channel_estimate_detects_pure_z_channel() {
        let run = run_with(NoiseModel::z_channel(0.2), 3_000, 13);
        let est = estimate_channel(&run).unwrap();
        assert!(est.q < 0.01, "q should be near zero: {est:?}");
    }

    #[test]
    fn slot_rate_estimate_matches_model_rate() {
        let (p, q) = (0.2, 0.03);
        let run = run_with(NoiseModel::channel(p, q), 2_000, 17);
        let rate = estimate_slot_rate(&run).unwrap();
        let model = q + 10.0 * (1.0 - p - q) / 2_000.0;
        assert!(
            (rate - model).abs() < 0.003,
            "estimated {rate} vs model {model}"
        );
    }

    #[test]
    fn decoding_with_estimated_noise_matches_known_parameters() {
        // The deployment pipeline: no prior p, q knowledge. On instances
        // with a comfortable margin it reproduces the known-parameter
        // decoder's reconstruction exactly.
        use crate::greedy::{Decoder, GreedyDecoder};
        // m ≈ 2.3× the Theorem-1 bound for this configuration, so both
        // decoders sit well inside the recovery region and the tiny rate
        // perturbation cannot flip a rank.
        for seed in 0..4 {
            let run = small_run_with(NoiseModel::channel(0.1, 0.05), 4_500, 300 + seed);
            let known = GreedyDecoder::new().decode(&run);
            let estimated = decode_with_estimated_noise(&run).unwrap();
            assert_eq!(
                estimated.ones(),
                known.ones(),
                "seed {seed}: estimated-rate decoding diverged"
            );
        }
    }

    /// Rebuilds `run` with the given (e.g. tampered) result vector.
    fn with_results(run: &Run, results: Vec<f64>) -> Run {
        run.instance()
            .assemble(run.ground_truth().clone(), run.graph().clone(), results)
            .unwrap()
    }

    #[test]
    fn flagger_catches_garbled_results_and_spares_clean_ones() {
        let run = run_with(NoiseModel::Noiseless, 300, 23);
        let mut tampered = run.results().to_vec();
        let garbled = [4usize, 57, 130, 288];
        for &j in &garbled {
            tampered[j] = tampered[j] * 12.0 + 60.0;
        }
        tampered[199] = f64::NAN; // non-finite is corrupt by definition
        let bad = with_results(&run, tampered);
        let flags = flag_corrupted_queries(&bad, 5.0);
        for &j in garbled.iter().chain([&199]) {
            assert!(flags[j], "garbled query {j} not flagged");
        }
        // Binomial spread on clean queries sits inside 5 robust sds, up to
        // the odd tail straggler the MAD quantization lets through.
        let flagged = flags.iter().filter(|&&f| f).count();
        assert!(
            flagged <= garbled.len() + 1 + 3,
            "too many clean queries flagged: {flagged}"
        );
    }

    #[test]
    fn clean_runs_are_not_flagged_and_decode_unchanged() {
        let run = run_with(NoiseModel::channel(0.1, 0.05), 600, 29);
        let flags = flag_corrupted_queries(&run, 5.0);
        assert!(flags.iter().all(|&f| !f), "clean run produced flags");
        let trimmed = decode_trimmed(&run, 5.0).unwrap();
        let plain = decode_with_estimated_noise(&run).unwrap();
        assert_eq!(trimmed.ones(), plain.ones());
    }

    #[test]
    fn decode_trimmed_survives_garbled_measurements() {
        use crate::greedy::{Decoder, GreedyDecoder};
        let run = Instance::builder(300)
            .k(4)
            .queries(600)
            .build()
            .unwrap()
            .sample(&mut StdRng::seed_from_u64(21));
        // Garble 10% of the measurements with a large multiplicative skew —
        // the profile of a corrupting agent under the chaos fault injector.
        let mut tampered = run.results().to_vec();
        for (j, v) in tampered.iter_mut().enumerate() {
            if j % 10 == 0 {
                *v = *v * 30.0 + 100.0;
            }
        }
        let bad = with_results(&run, tampered);
        // The plain decoder is poisoned; the trimmed pipeline recovers.
        let poisoned = GreedyDecoder::new().decode(&bad);
        assert_ne!(poisoned.ones(), run.ground_truth().ones());
        let trimmed = decode_trimmed(&bad, 5.0).unwrap();
        assert_eq!(trimmed.ones(), run.ground_truth().ones());
    }

    #[test]
    fn trimmed_rate_needs_two_survivors() {
        let run = run_with(NoiseModel::Noiseless, 4, 31);
        let mut exclude = vec![true; 4];
        exclude[0] = false;
        assert_eq!(
            estimate_slot_rate_trimmed(&run, &exclude).unwrap_err(),
            EstimationError::TooFewQueries
        );
        exclude[1] = false;
        assert!(estimate_slot_rate_trimmed(&run, &exclude).is_ok());
        // Tiny runs have no spread to flag against.
        let tiny = run_with(NoiseModel::Noiseless, 2, 33);
        assert_eq!(flag_corrupted_queries(&tiny, 5.0), vec![false, false]);
    }

    #[test]
    fn too_few_queries_is_an_error() {
        let run = run_with(NoiseModel::z_channel(0.1), 1, 1);
        assert_eq!(
            estimate_z_channel(&run).unwrap_err(),
            EstimationError::TooFewQueries
        );
        assert_eq!(
            estimate_channel(&run).unwrap_err(),
            EstimationError::TooFewQueries
        );
    }

    #[test]
    fn error_messages_are_informative() {
        assert!(EstimationError::TooFewQueries.to_string().contains("two"));
        assert!(EstimationError::InconsistentMoments
            .to_string()
            .contains("inconsistent"));
    }

    #[test]
    fn estimates_improve_with_more_queries() {
        // Track the sharply-identified quantities: q and the slot rate.
        let (p, q) = (0.2, 0.03);
        let errs: Vec<f64> = [200usize, 4_000]
            .iter()
            .map(|&m| {
                // Average the error over a few seeds to damp luck.
                let mut total = 0.0;
                for seed in 0..3 {
                    let run = run_with(NoiseModel::channel(p, q), m, 100 + seed);
                    let est = estimate_channel(&run).unwrap();
                    let rate = estimate_slot_rate(&run).unwrap();
                    let model_rate = q + 10.0 * (1.0 - p - q) / 2_000.0;
                    total += (est.q - q).abs() + (rate - model_rate).abs();
                }
                total / 3.0
            })
            .collect();
        assert!(errs[1] <= errs[0] * 1.1, "error did not shrink: {errs:?}");
    }

    #[test]
    fn k_estimation_is_exact_across_models() {
        for (noise, seed) in [
            (NoiseModel::Noiseless, 3u64),
            (NoiseModel::z_channel(0.3), 4),
            (NoiseModel::channel(0.1, 0.05), 5),
            (NoiseModel::gaussian(2.0), 6),
        ] {
            let run = run_with(noise, 400, seed);
            assert_eq!(estimate_k(&run).unwrap(), 10, "noise {noise}");
        }
    }

    #[test]
    fn k_estimation_needs_two_queries() {
        let run = run_with(NoiseModel::Noiseless, 1, 5);
        assert_eq!(
            estimate_k(&run).unwrap_err(),
            EstimationError::TooFewQueries
        );
    }

    #[test]
    fn decode_with_estimated_k_matches_oracle_decoder() {
        use crate::greedy::{Decoder, GreedyDecoder};
        for seed in 0..3 {
            let run = run_with(NoiseModel::z_channel(0.1), 700, 40 + seed);
            let blind = decode_with_estimated_k(&run).unwrap();
            let oracle = GreedyDecoder::new().decode(&run);
            assert_eq!(blind.ones(), oracle.ones(), "seed {seed}");
            assert_eq!(blind.ones(), run.ground_truth().ones());
        }
    }

    #[test]
    fn estimated_k_is_clamped_to_population() {
        // A tiny, heavily noisy run can overshoot; the estimate must stay
        // within [0, n] rather than panic downstream.
        let run = Instance::builder(4)
            .k(2)
            .queries(3)
            .noise(NoiseModel::gaussian(50.0))
            .build()
            .unwrap()
            .sample(&mut StdRng::seed_from_u64(6));
        let k_hat = estimate_k(&run).unwrap();
        assert!(k_hat <= 4);
    }
}
