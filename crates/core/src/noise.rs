//! The two noise models of Section II.

use npd_numerics::rng::{binomial, GaussianSampler};
use npd_numerics::Matrix;
use rand::Rng;
use serde::{Deserialize, Serialize};
use std::fmt;

/// Noise applied to query measurements.
///
/// * [`Channel`](NoiseModel::Channel) — the *noisy channel* of Section II-A:
///   every individual edge slot flips independently (a one-bit reads as zero
///   with probability `p`, a zero-bit reads as one with probability `q`).
///   A query whose `Γ` slots touch `c₁` one-agents therefore reports
///   `Bin(c₁, 1−p) + Bin(Γ−c₁, q)`.
/// * [`Query`](NoiseModel::Query) — the *noisy query* model of Section II-B:
///   the exact sum plus independent Gaussian `N(0, λ²)` noise (pipetting
///   inaccuracy in the life-sciences setting).
/// * [`Noiseless`](NoiseModel::Noiseless) — the idealized baseline of the
///   prior work the paper extends.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize, Default)]
pub enum NoiseModel {
    /// Exact measurements.
    #[default]
    Noiseless,
    /// Per-edge bit flips with false-negative rate `p`, false-positive rate
    /// `q` (`p + q < 1`).
    Channel {
        /// Probability a one-bit reads as zero.
        p: f64,
        /// Probability a zero-bit reads as one.
        q: f64,
    },
    /// Additive Gaussian noise `N(0, λ²)` per query.
    Query {
        /// Standard deviation λ.
        lambda: f64,
    },
}

impl NoiseModel {
    /// General noisy channel with false-negative rate `p` and false-positive
    /// rate `q`.
    ///
    /// # Panics
    ///
    /// Panics if `p ∉ [0, 1)`, `q ∉ [0, 1)`, or `p + q ≥ 1` (the channel
    /// would invert more often than it preserves).
    pub fn channel(p: f64, q: f64) -> Self {
        assert!(
            (0.0..1.0).contains(&p),
            "NoiseModel::channel: p={p} not in [0,1)"
        );
        assert!(
            (0.0..1.0).contains(&q),
            "NoiseModel::channel: q={q} not in [0,1)"
        );
        assert!(
            p + q < 1.0,
            "NoiseModel::channel: p+q={} must be below 1",
            p + q
        );
        NoiseModel::Channel { p, q }
    }

    /// The Z-channel: only `1 → 0` errors (`q = 0`).
    ///
    /// # Panics
    ///
    /// Panics if `p ∉ [0, 1)`.
    pub fn z_channel(p: f64) -> Self {
        Self::channel(p, 0.0)
    }

    /// Gaussian query noise with standard deviation `λ`.
    ///
    /// # Panics
    ///
    /// Panics if `λ < 0` or not finite.
    pub fn gaussian(lambda: f64) -> Self {
        assert!(
            lambda.is_finite() && lambda >= 0.0,
            "NoiseModel::gaussian: lambda={lambda} must be a non-negative finite number"
        );
        NoiseModel::Query { lambda }
    }

    /// Whether this model perturbs individual edges (as opposed to whole
    /// query results).
    pub fn is_per_edge(&self) -> bool {
        matches!(self, NoiseModel::Channel { .. })
    }

    /// The per-edge flip probabilities `(p, q)`: `(0, 0)` for the models
    /// that flip no edge (noiseless, Gaussian query noise).
    pub fn flip_rates(&self) -> (f64, f64) {
        match *self {
            NoiseModel::Channel { p, q } => (p, q),
            NoiseModel::Noiseless | NoiseModel::Query { .. } => (0.0, 0.0),
        }
    }

    /// Draws one noisy measurement for a query whose slots touch `one_slots`
    /// one-agents and `zero_slots` zero-agents.
    ///
    /// The exact (noiseless) measurement would be `one_slots`.
    pub fn measure<R: Rng + ?Sized>(&self, one_slots: u64, zero_slots: u64, rng: &mut R) -> f64 {
        match *self {
            NoiseModel::Noiseless => one_slots as f64,
            NoiseModel::Channel { p, q } => {
                let surviving_ones = binomial(rng, one_slots, 1.0 - p);
                let flipped_zeros = binomial(rng, zero_slots, q);
                (surviving_ones + flipped_zeros) as f64
            }
            NoiseModel::Query { lambda } => {
                let mut gauss = GaussianSampler::new();
                gauss.sample_scaled(rng, one_slots as f64, lambda)
            }
        }
    }

    /// Expected measurement for given slot counts:
    /// `(1−p)·c₁ + q·c₀` under the channel, `c₁` otherwise.
    pub fn expected_measurement(&self, one_slots: u64, zero_slots: u64) -> f64 {
        match *self {
            NoiseModel::Noiseless | NoiseModel::Query { .. } => one_slots as f64,
            NoiseModel::Channel { p, q } => (1.0 - p) * one_slots as f64 + q * zero_slots as f64,
        }
    }

    /// Draws one noisy per-category measurement vector for a query whose
    /// slots touch `slots[c]` agents of category `c` (category `0` is the
    /// healthy/background class, categories `1..d` are the strains).
    ///
    /// The categorical channel generalizes the binary one per slot: a
    /// strain slot keeps its label with probability `1−p` and otherwise
    /// reads as one of the `d−1` other categories uniformly; a background
    /// slot reads as one of the `d−1` strains with probability `q` total.
    /// Gaussian query noise perturbs the reported strain counts only — the
    /// background count is the complement the lab never reports, so it
    /// stays exact.
    ///
    /// **Bit-compatibility contract:** at `d = 2` this consumes the RNG
    /// stream of [`NoiseModel::measure`] draw-for-draw (one binomial for
    /// the strain slots, one for the background slots under the channel;
    /// one Gaussian under query noise), so `out[1]` equals the binary
    /// measurement byte-for-byte. The draw order below (strains ascending,
    /// then background; mover scatters in ascending target order) is
    /// therefore load-bearing and pinned by `tests/determinism.rs`.
    ///
    /// # Panics
    ///
    /// Panics if `slots.len() < 2`.
    pub fn measure_categorical<R: Rng + ?Sized>(&self, slots: &[u64], rng: &mut R) -> Vec<f64> {
        let d = slots.len();
        assert!(d >= 2, "measure_categorical: need at least 2 categories");
        match *self {
            NoiseModel::Noiseless => slots.iter().map(|&s| s as f64).collect(),
            NoiseModel::Channel { p, q } => {
                let mut out = vec![0u64; d];
                // Strain slots first (ascending): survivors stay, movers
                // scatter uniformly over the other categories.
                for c in 1..d {
                    let stayers = binomial(rng, slots[c], 1.0 - p);
                    out[c] += stayers;
                    scatter_uniform(rng, slots[c] - stayers, c, &mut out);
                }
                // Background slots: `q` of them read as some strain.
                let movers = binomial(rng, slots[0], q);
                out[0] += slots[0] - movers;
                scatter_uniform(rng, movers, 0, &mut out);
                out.into_iter().map(|c| c as f64).collect()
            }
            NoiseModel::Query { lambda } => {
                let mut gauss = GaussianSampler::new();
                let mut out = vec![slots[0] as f64; 1];
                for &s in &slots[1..] {
                    out.push(gauss.sample_scaled(rng, s as f64, lambda));
                }
                out
            }
        }
    }

    /// Expected per-category measurement for given slot counts: `Mᵀ·slots`
    /// with `M` the per-slot [confusion matrix](Self::confusion_matrix).
    ///
    /// # Panics
    ///
    /// Panics if `slots.len() < 2`.
    pub fn expected_measurement_categorical(&self, slots: &[u64]) -> Vec<f64> {
        let d = slots.len();
        assert!(
            d >= 2,
            "expected_measurement_categorical: need at least 2 categories"
        );
        match *self {
            NoiseModel::Noiseless | NoiseModel::Query { .. } => {
                slots.iter().map(|&s| s as f64).collect()
            }
            NoiseModel::Channel { .. } => {
                let m = self.confusion_matrix(d);
                let slots_f: Vec<f64> = slots.iter().map(|&s| s as f64).collect();
                m.matvec_t(&slots_f)
            }
        }
    }

    /// The `d × d` per-slot confusion matrix `M` of this noise model:
    /// `M[c][t]` is the probability a slot of true category `c` is observed
    /// as category `t`, so the expected observation is `Mᵀ·slots`.
    ///
    /// Under the channel, `M[0][0] = 1−q` with the `q` mass uniform over
    /// the strains, and `M[c][c] = 1−p` with the `p` mass uniform over the
    /// other categories; at `d = 2` this is the familiar binary channel
    /// with determinant `1−p−q > 0` (guaranteed by [`NoiseModel::channel`]),
    /// so the matrix is always invertible there. Noiseless and Gaussian
    /// query noise have the identity matrix (query noise is additive, not a
    /// per-slot relabeling).
    ///
    /// # Panics
    ///
    /// Panics if `d < 2`.
    pub fn confusion_matrix(&self, d: usize) -> Matrix {
        assert!(d >= 2, "confusion_matrix: need at least 2 categories");
        let mut m = Matrix::zeros(d, d);
        match *self {
            NoiseModel::Noiseless | NoiseModel::Query { .. } => {
                for c in 0..d {
                    *m.get_mut(c, c) = 1.0;
                }
            }
            NoiseModel::Channel { p, q } => {
                let off = (d - 1) as f64;
                *m.get_mut(0, 0) = 1.0 - q;
                for t in 1..d {
                    *m.get_mut(0, t) = q / off;
                }
                for c in 1..d {
                    for t in 0..d {
                        *m.get_mut(c, t) = if t == c { 1.0 - p } else { p / off };
                    }
                }
            }
        }
        m
    }
}

/// Scatters `movers` slots uniformly over the categories other than `from`,
/// in ascending index order via successive conditional binomials; the last
/// target takes the remainder without an RNG draw, so a single-target
/// scatter (`d = 2`) consumes no randomness at all — the bit-compatibility
/// contract of [`NoiseModel::measure_categorical`] depends on this.
fn scatter_uniform<R: Rng + ?Sized>(rng: &mut R, movers: u64, from: usize, out: &mut [u64]) {
    let mut remaining = movers;
    let mut targets_left = out.len() - 1;
    for (t, slot) in out.iter_mut().enumerate() {
        if t == from {
            continue;
        }
        if targets_left == 1 {
            *slot += remaining;
            return;
        }
        let x = binomial(rng, remaining, 1.0 / targets_left as f64);
        *slot += x;
        remaining -= x;
        targets_left -= 1;
    }
}

impl fmt::Display for NoiseModel {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            NoiseModel::Noiseless => write!(f, "noiseless"),
            NoiseModel::Channel { p, q } if *q == 0.0 => write!(f, "z-channel(p={p})"),
            NoiseModel::Channel { p, q } => write!(f, "channel(p={p}, q={q})"),
            NoiseModel::Query { lambda } => write!(f, "gaussian(λ={lambda})"),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    #[test]
    fn constructors_validate() {
        let z = NoiseModel::z_channel(0.3);
        assert_eq!(z, NoiseModel::Channel { p: 0.3, q: 0.0 });
        let c = NoiseModel::channel(0.2, 0.1);
        assert!(c.is_per_edge());
        assert!(!NoiseModel::gaussian(2.0).is_per_edge());
    }

    #[test]
    #[should_panic(expected = "p+q")]
    fn channel_rejects_saturation() {
        NoiseModel::channel(0.6, 0.5);
    }

    #[test]
    #[should_panic(expected = "lambda")]
    fn gaussian_rejects_negative() {
        NoiseModel::gaussian(-1.0);
    }

    #[test]
    fn noiseless_is_exact() {
        let mut rng = StdRng::seed_from_u64(0);
        assert_eq!(NoiseModel::Noiseless.measure(17, 33, &mut rng), 17.0);
    }

    #[test]
    fn channel_measure_moments() {
        // Bin(100, 0.7) + Bin(100, 0.1): mean 80, var 100·0.21 + 100·0.09 = 30.
        let model = NoiseModel::channel(0.3, 0.1);
        let mut rng = StdRng::seed_from_u64(1);
        let samples: Vec<f64> = (0..50_000)
            .map(|_| model.measure(100, 100, &mut rng))
            .collect();
        let mean = samples.iter().sum::<f64>() / samples.len() as f64;
        let var =
            samples.iter().map(|x| (x - mean).powi(2)).sum::<f64>() / (samples.len() - 1) as f64;
        assert!((mean - 80.0).abs() < 0.2, "mean={mean}");
        assert!((var - 30.0).abs() < 1.0, "var={var}");
        assert_eq!(model.expected_measurement(100, 100), 80.0);
    }

    #[test]
    fn z_channel_never_exceeds_ones() {
        let model = NoiseModel::z_channel(0.4);
        let mut rng = StdRng::seed_from_u64(2);
        for _ in 0..1000 {
            let r = model.measure(20, 80, &mut rng);
            assert!((0.0..=20.0).contains(&r));
        }
    }

    #[test]
    fn gaussian_measure_moments() {
        let model = NoiseModel::gaussian(3.0);
        let mut rng = StdRng::seed_from_u64(3);
        let samples: Vec<f64> = (0..50_000)
            .map(|_| model.measure(50, 0, &mut rng))
            .collect();
        let mean = samples.iter().sum::<f64>() / samples.len() as f64;
        let var =
            samples.iter().map(|x| (x - mean).powi(2)).sum::<f64>() / (samples.len() - 1) as f64;
        assert!((mean - 50.0).abs() < 0.1, "mean={mean}");
        assert!((var - 9.0).abs() < 0.3, "var={var}");
    }

    #[test]
    fn gaussian_zero_lambda_is_exact() {
        let model = NoiseModel::gaussian(0.0);
        let mut rng = StdRng::seed_from_u64(4);
        assert_eq!(model.measure(12, 8, &mut rng), 12.0);
    }

    #[test]
    fn display_forms() {
        assert_eq!(NoiseModel::Noiseless.to_string(), "noiseless");
        assert_eq!(NoiseModel::z_channel(0.1).to_string(), "z-channel(p=0.1)");
        assert_eq!(
            NoiseModel::channel(0.1, 0.05).to_string(),
            "channel(p=0.1, q=0.05)"
        );
        assert_eq!(NoiseModel::gaussian(2.0).to_string(), "gaussian(λ=2)");
    }

    #[test]
    fn default_is_noiseless() {
        assert_eq!(NoiseModel::default(), NoiseModel::Noiseless);
    }

    #[test]
    fn categorical_noiseless_is_exact() {
        let mut rng = StdRng::seed_from_u64(0);
        let out = NoiseModel::Noiseless.measure_categorical(&[30, 12, 8], &mut rng);
        assert_eq!(out, vec![30.0, 12.0, 8.0]);
    }

    #[test]
    fn categorical_d2_channel_consumes_the_binary_stream() {
        // Same seed, same slot counts: the categorical d=2 path must make
        // exactly the two binomial draws of the binary path, in order.
        let model = NoiseModel::channel(0.3, 0.1);
        for seed in 0..50 {
            let mut rng_bin = StdRng::seed_from_u64(seed);
            let mut rng_cat = StdRng::seed_from_u64(seed);
            let binary = model.measure(40, 60, &mut rng_bin);
            let cat = model.measure_categorical(&[60, 40], &mut rng_cat);
            assert_eq!(cat[1], binary, "seed {seed}");
            assert_eq!(cat[0] + cat[1], 100.0, "seed {seed}: slots not conserved");
            // Streams fully aligned: the next draw agrees too.
            assert_eq!(rng_bin.gen::<u64>(), rng_cat.gen::<u64>(), "seed {seed}");
        }
    }

    #[test]
    fn categorical_d2_gaussian_consumes_the_binary_stream() {
        let model = NoiseModel::gaussian(2.5);
        for seed in 0..50 {
            let mut rng_bin = StdRng::seed_from_u64(seed);
            let mut rng_cat = StdRng::seed_from_u64(seed);
            let binary = model.measure(13, 7, &mut rng_bin);
            let cat = model.measure_categorical(&[7, 13], &mut rng_cat);
            assert_eq!(cat[1], binary, "seed {seed}");
            assert_eq!(cat[0], 7.0, "background count must be exact");
            assert_eq!(rng_bin.gen::<u64>(), rng_cat.gen::<u64>(), "seed {seed}");
        }
    }

    #[test]
    fn confusion_matrix_rows_are_stochastic() {
        for (model, d) in [
            (NoiseModel::Noiseless, 3),
            (NoiseModel::gaussian(1.0), 4),
            (NoiseModel::channel(0.2, 0.1), 2),
            (NoiseModel::channel(0.2, 0.1), 4),
        ] {
            let m = model.confusion_matrix(d);
            for c in 0..d {
                let row_sum: f64 = (0..d).map(|t| m.get(c, t)).sum();
                assert!((row_sum - 1.0).abs() < 1e-12, "{model} d={d} row {c}");
            }
        }
    }

    #[test]
    fn confusion_matrix_d2_matches_binary_expectation() {
        let model = NoiseModel::channel(0.25, 0.05);
        let expected = model.expected_measurement_categorical(&[80, 20]);
        assert!((expected[1] - model.expected_measurement(20, 80)).abs() < 1e-12);
        assert!((expected[0] + expected[1] - 100.0).abs() < 1e-12);
    }

    mod property {
        use super::*;
        use proptest::prelude::*;

        /// Empirical mean of `measure` vs `expected_measurement`, within a
        /// `5σ/√N` band (σ bounded by the model's worst-case per-slot
        /// variance), so the bound is sound for every parameter draw.
        fn assert_mean_matches(
            model: NoiseModel,
            one_slots: u64,
            zero_slots: u64,
            sd_bound: f64,
            seed: u64,
        ) -> Result<(), proptest::test_runner::TestCaseError> {
            const SAMPLES: usize = 4_000;
            let mut rng = StdRng::seed_from_u64(seed);
            let mean = (0..SAMPLES)
                .map(|_| model.measure(one_slots, zero_slots, &mut rng))
                .sum::<f64>()
                / SAMPLES as f64;
            let expected = model.expected_measurement(one_slots, zero_slots);
            let tol = 5.0 * sd_bound / (SAMPLES as f64).sqrt() + 1e-9;
            prop_assert!(
                (mean - expected).abs() < tol,
                "{model}: empirical mean {mean} vs expected {expected} (tol {tol})"
            );
            Ok(())
        }

        proptest! {
            /// Z-channel: `expected_measurement` is the mean of `measure`.
            #[test]
            fn z_channel_mean_is_pinned(
                p in 0.0f64..0.9,
                ones in 0u64..120,
                zeros in 0u64..120,
                seed in 0u64..1_000,
            ) {
                // Var = ones·p(1−p) ≤ ones/4.
                let sd = (ones as f64 / 4.0).sqrt();
                assert_mean_matches(NoiseModel::z_channel(p), ones, zeros, sd, seed)?;
            }

            /// General channel: mean pinned for any admissible `(p, q)`.
            #[test]
            fn channel_mean_is_pinned(
                p in 0.0f64..0.6,
                q in 0.0f64..0.39,
                ones in 0u64..120,
                zeros in 0u64..120,
                seed in 0u64..1_000,
            ) {
                // Var = ones·p(1−p) + zeros·q(1−q) ≤ (ones+zeros)/4.
                let sd = ((ones + zeros) as f64 / 4.0).sqrt();
                assert_mean_matches(NoiseModel::channel(p, q), ones, zeros, sd, seed)?;
            }

            /// Gaussian query noise: mean pinned for any λ.
            #[test]
            fn gaussian_mean_is_pinned(
                lambda in 0.0f64..5.0,
                ones in 0u64..200,
                zeros in 0u64..200,
                seed in 0u64..1_000,
            ) {
                assert_mean_matches(NoiseModel::gaussian(lambda), ones, zeros, lambda, seed)?;
            }
        }

        /// Per-category empirical means of `measure_categorical` vs
        /// `expected_measurement_categorical`, within a `5σ/√N` band per
        /// category. Every observed category count is a sum of independent
        /// per-slot indicators under the channel (variance ≤ total/4) and
        /// `N(slots[c], λ²)` under query noise, so the bounds are sound for
        /// every parameter draw.
        fn assert_categorical_mean_matches(
            model: NoiseModel,
            slots: &[u64],
            sd_bound: f64,
            seed: u64,
        ) -> Result<(), proptest::test_runner::TestCaseError> {
            const SAMPLES: usize = 3_000;
            let d = slots.len();
            let mut rng = StdRng::seed_from_u64(seed);
            let mut mean = vec![0.0f64; d];
            for _ in 0..SAMPLES {
                let draw = model.measure_categorical(slots, &mut rng);
                for (m, v) in mean.iter_mut().zip(&draw) {
                    *m += v;
                }
            }
            for m in &mut mean {
                *m /= SAMPLES as f64;
            }
            let expected = model.expected_measurement_categorical(slots);
            let tol = 5.0 * sd_bound / (SAMPLES as f64).sqrt() + 1e-9;
            for c in 0..d {
                prop_assert!(
                    (mean[c] - expected[c]).abs() < tol,
                    "{model} d={d} category {c}: empirical mean {} vs expected {} (tol {tol})",
                    mean[c],
                    expected[c]
                );
            }
            Ok(())
        }

        proptest! {
            /// Categorical channel: per-category means pinned for any
            /// admissible `(p, q)` and any category count `d ∈ {2..5}`.
            #[test]
            fn categorical_channel_mean_is_pinned(
                p in 0.0f64..0.6,
                q in 0.0f64..0.39,
                raw_slots in proptest::collection::vec(0u64..80, 2..6),
                seed in 0u64..1_000,
            ) {
                let total: u64 = raw_slots.iter().sum();
                let sd = (total as f64 / 4.0).sqrt();
                assert_categorical_mean_matches(
                    NoiseModel::channel(p, q), &raw_slots, sd, seed,
                )?;
            }

            /// Categorical Gaussian query noise: per-category means pinned.
            #[test]
            fn categorical_gaussian_mean_is_pinned(
                lambda in 0.0f64..5.0,
                raw_slots in proptest::collection::vec(0u64..120, 2..6),
                seed in 0u64..1_000,
            ) {
                assert_categorical_mean_matches(
                    NoiseModel::gaussian(lambda), &raw_slots, lambda, seed,
                )?;
            }

            /// The per-slot relabeling models conserve slots: the observed
            /// category counts always sum to the pool's slot count, on every
            /// single draw (query noise is additive and exempt — it reports
            /// perturbed strain counts, not a relabeling).
            #[test]
            fn categorical_counts_sum_to_slot_count(
                p in 0.0f64..0.6,
                q in 0.0f64..0.39,
                raw_slots in proptest::collection::vec(0u64..200, 2..7),
                seed in 0u64..1_000,
            ) {
                let total: u64 = raw_slots.iter().sum();
                let mut rng = StdRng::seed_from_u64(seed);
                for model in [NoiseModel::Noiseless, NoiseModel::channel(p, q)] {
                    for _ in 0..20 {
                        let draw = model.measure_categorical(&raw_slots, &mut rng);
                        let sum: f64 = draw.iter().sum();
                        prop_assert!(
                            sum == total as f64,
                            "{model}: counts sum to {sum}, expected {total}"
                        );
                        prop_assert!(draw.iter().all(|&v| v >= 0.0));
                    }
                }
            }
        }
    }
}
