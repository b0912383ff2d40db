//! Problem instances: regimes, ground truth, configuration and sampling.

use crate::design::{DesignSpec, PoolingDesign, PoolingGraph};
use crate::noise::NoiseModel;
use rand::Rng;
use serde::{Deserialize, Serialize};
use std::fmt;

/// How the number of one-agents `k` scales with the population size `n`.
///
/// The paper distinguishes the *sublinear* regime `k = n^θ` (early epidemic
/// spread, rare traits) from the *linear* regime `k = ζ·n` (computational
/// biology, traffic monitoring, confidential data transfer).
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub enum Regime {
    /// `k = n^θ` with `θ ∈ (0, 1)`.
    Sublinear {
        /// Exponent θ.
        theta: f64,
    },
    /// `k = ζ·n` with `ζ ∈ (0, 1)`.
    Linear {
        /// Density ζ.
        zeta: f64,
    },
    /// `k` given explicitly (used when reproducing a fixed scenario).
    Explicit {
        /// The exact number of one-agents.
        k: usize,
    },
}

impl Regime {
    /// Sublinear regime `k = n^θ`.
    ///
    /// # Panics
    ///
    /// Panics if `θ ∉ (0, 1)`.
    pub fn sublinear(theta: f64) -> Self {
        assert!(
            theta > 0.0 && theta < 1.0,
            "Regime::sublinear: theta={theta} must be in (0,1)"
        );
        Regime::Sublinear { theta }
    }

    /// Linear regime `k = ζ·n`.
    ///
    /// # Panics
    ///
    /// Panics if `ζ ∉ (0, 1)`.
    pub fn linear(zeta: f64) -> Self {
        assert!(
            zeta > 0.0 && zeta < 1.0,
            "Regime::linear: zeta={zeta} must be in (0,1)"
        );
        Regime::Linear { zeta }
    }

    /// Explicit `k`.
    pub fn explicit(k: usize) -> Self {
        Regime::Explicit { k }
    }

    /// The number of one-agents for a population of `n` (rounded to the
    /// nearest integer, clamped into `[1, n]`).
    ///
    /// # Panics
    ///
    /// Panics if `n == 0`.
    pub fn k_for(&self, n: usize) -> usize {
        assert!(n > 0, "Regime::k_for: n must be positive");
        let k = match *self {
            Regime::Sublinear { theta } => (n as f64).powf(theta).round() as usize,
            Regime::Linear { zeta } => (zeta * n as f64).round() as usize,
            Regime::Explicit { k } => k,
        };
        k.clamp(1, n)
    }
}

impl fmt::Display for Regime {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Regime::Sublinear { theta } => write!(f, "sublinear(θ={theta})"),
            Regime::Linear { zeta } => write!(f, "linear(ζ={zeta})"),
            Regime::Explicit { k } => write!(f, "explicit(k={k})"),
        }
    }
}

/// The hidden assignment `σ ∈ {0,1}ⁿ` with Hamming weight `k`.
///
/// Sampled uniformly among all weight-`k` binary vectors, as the model
/// section of the paper prescribes.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct GroundTruth {
    bits: Vec<bool>,
    ones: Vec<u32>,
}

impl GroundTruth {
    /// Samples a uniform weight-`k` assignment via a partial Fisher–Yates
    /// shuffle.
    ///
    /// # Panics
    ///
    /// Panics if `k > n` or `n` exceeds `u32::MAX`.
    pub fn sample<R: Rng + ?Sized>(n: usize, k: usize, rng: &mut R) -> Self {
        assert!(k <= n, "GroundTruth::sample: k={k} exceeds n={n}");
        assert!(
            n <= u32::MAX as usize,
            "GroundTruth::sample: n={n} exceeds u32 range"
        );
        let mut idx: Vec<u32> = (0..n as u32).collect();
        for i in 0..k {
            let j = rng.gen_range(i..n);
            idx.swap(i, j);
        }
        let mut ones: Vec<u32> = idx[..k].to_vec();
        ones.sort_unstable();
        let mut bits = vec![false; n];
        for &o in &ones {
            bits[o as usize] = true;
        }
        Self { bits, ones }
    }

    /// Builds a ground truth from an explicit bit vector.
    pub fn from_bits(bits: Vec<bool>) -> Self {
        let ones = bits
            .iter()
            .enumerate()
            .filter(|(_, &b)| b)
            .map(|(i, _)| i as u32)
            .collect();
        Self { bits, ones }
    }

    /// Builds a ground truth over `n` agents from the indices of its
    /// one-agents (in any order, duplicates ignored).
    ///
    /// Structured population models (the `npd-workloads` crate) assemble
    /// their assignments as one-agent lists; this is the direct
    /// constructor for that shape.
    ///
    /// # Panics
    ///
    /// Panics if any index is `>= n`.
    pub fn from_ones(n: usize, ones: impl IntoIterator<Item = u32>) -> Self {
        let mut bits = vec![false; n];
        for o in ones {
            assert!(
                (o as usize) < n,
                "GroundTruth::from_ones: agent {o} out of range for n={n}"
            );
            bits[o as usize] = true;
        }
        Self::from_bits(bits)
    }

    /// Population size `n`.
    pub fn n(&self) -> usize {
        self.bits.len()
    }

    /// Number of one-agents `k`.
    pub fn k(&self) -> usize {
        self.ones.len()
    }

    /// Whether agent `i` holds bit one.
    ///
    /// # Panics
    ///
    /// Panics if `i >= n`.
    pub fn is_one(&self, i: usize) -> bool {
        self.bits[i]
    }

    /// The sorted indices of the one-agents.
    pub fn ones(&self) -> &[u32] {
        &self.ones
    }

    /// The raw bit vector.
    pub fn bits(&self) -> &[bool] {
        &self.bits
    }
}

/// A fully specified experiment configuration: population size, regime,
/// query count, query size and noise model.
///
/// Construct through [`Instance::builder`]; sampling an instance yields a
/// [`Run`] holding the concrete pooling graph, ground truth and query
/// results.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct Instance {
    n: usize,
    k: usize,
    m: usize,
    gamma: usize,
    noise: NoiseModel,
    #[serde(default)]
    design: DesignSpec,
}

impl Instance {
    /// Starts building an instance over `n` agents.
    pub fn builder(n: usize) -> InstanceBuilder {
        InstanceBuilder {
            n,
            regime: None,
            m: None,
            gamma: None,
            noise: NoiseModel::Noiseless,
            design: DesignSpec::Iid,
        }
    }

    /// Population size `n`.
    pub fn n(&self) -> usize {
        self.n
    }

    /// Number of one-agents `k`.
    pub fn k(&self) -> usize {
        self.k
    }

    /// Number of queries `m`.
    pub fn m(&self) -> usize {
        self.m
    }

    /// Slots per query `Γ`.
    pub fn gamma(&self) -> usize {
        self.gamma
    }

    /// The noise model.
    pub fn noise(&self) -> &NoiseModel {
        &self.noise
    }

    /// The pooling design sampled by [`Instance::sample`].
    pub fn design(&self) -> DesignSpec {
        self.design
    }

    /// Samples ground truth, pooling graph and noisy query results.
    pub fn sample<R: Rng + ?Sized>(&self, rng: &mut R) -> Run {
        let truth = GroundTruth::sample(self.n, self.k, rng);
        let graph = self.design.sample(self.n, self.m, self.gamma, rng);
        let results = graph.measure(&truth, &self.noise, rng);
        Run {
            instance: self.clone(),
            truth,
            graph,
            results,
        }
    }

    /// Assembles a run from explicit parts (for tests and custom designs).
    ///
    /// # Errors
    ///
    /// Returns [`InstanceError::Inconsistent`] when the parts disagree on
    /// `n` or `m`.
    pub fn assemble(
        &self,
        truth: GroundTruth,
        graph: PoolingGraph,
        results: Vec<f64>,
    ) -> Result<Run, InstanceError> {
        if truth.n() != self.n
            || graph.n() != self.n
            || graph.query_count() != self.m
            || results.len() != self.m
            || truth.k() != self.k
        {
            return Err(InstanceError::Inconsistent);
        }
        Ok(Run {
            instance: self.clone(),
            truth,
            graph,
            results,
        })
    }
}

/// Builder for [`Instance`] (see [`Instance::builder`]).
#[derive(Debug, Clone)]
pub struct InstanceBuilder {
    n: usize,
    regime: Option<Regime>,
    m: Option<usize>,
    gamma: Option<usize>,
    noise: NoiseModel,
    design: DesignSpec,
}

impl InstanceBuilder {
    /// Sets the regime that determines `k`.
    pub fn regime(mut self, regime: Regime) -> Self {
        self.regime = Some(regime);
        self
    }

    /// Sets `k` directly (shorthand for an explicit regime).
    pub fn k(mut self, k: usize) -> Self {
        self.regime = Some(Regime::explicit(k));
        self
    }

    /// Sets the number of queries `m`.
    pub fn queries(mut self, m: usize) -> Self {
        self.m = Some(m);
        self
    }

    /// Sets the query size `Γ` (defaults to `n/2`, the paper's choice).
    pub fn query_size(mut self, gamma: usize) -> Self {
        self.gamma = Some(gamma);
        self
    }

    /// Sets the noise model (defaults to noiseless).
    pub fn noise(mut self, noise: NoiseModel) -> Self {
        self.noise = noise;
        self
    }

    /// Sets the pooling design (defaults to [`DesignSpec::Iid`], the
    /// paper's scheme).
    pub fn design(mut self, design: DesignSpec) -> Self {
        self.design = design;
        self
    }

    /// Validates and builds the instance.
    ///
    /// # Errors
    ///
    /// Returns an [`InstanceError`] describing the first violated
    /// constraint: `n ≥ 2`, a regime must be given, `1 ≤ k ≤ n`, `m` must be
    /// given, `Γ ≥ 1`, and `Γ ≤ n` for a [`DesignSpec::GammaSubset`] design.
    pub fn build(self) -> Result<Instance, InstanceError> {
        if self.n < 2 {
            return Err(InstanceError::PopulationTooSmall { n: self.n });
        }
        let regime = self.regime.ok_or(InstanceError::MissingRegime)?;
        let k = regime.k_for(self.n);
        if k == 0 || k > self.n {
            return Err(InstanceError::InvalidK { k, n: self.n });
        }
        let m = self.m.ok_or(InstanceError::MissingQueries)?;
        let gamma = self.gamma.unwrap_or(self.n / 2);
        if gamma == 0 {
            return Err(InstanceError::EmptyQuery);
        }
        self.design.check(self.n, gamma)?;
        Ok(Instance {
            n: self.n,
            k,
            m,
            gamma,
            noise: self.noise,
            design: self.design,
        })
    }
}

/// Configuration errors raised by [`InstanceBuilder::build`] and
/// [`Instance::assemble`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum InstanceError {
    /// `n < 2`.
    PopulationTooSmall {
        /// The offending population size.
        n: usize,
    },
    /// Neither a regime nor an explicit `k` was provided.
    MissingRegime,
    /// The regime produced `k = 0` or `k > n`.
    InvalidK {
        /// The derived number of one-agents.
        k: usize,
        /// The population size.
        n: usize,
    },
    /// The number of queries was not provided.
    MissingQueries,
    /// `Γ = 0`.
    EmptyQuery,
    /// A [`DesignSpec::GammaSubset`] design with `Γ > n`.
    QueryLargerThanPopulation {
        /// Requested query size.
        gamma: usize,
        /// Population size.
        n: usize,
    },
    /// Parts passed to [`Instance::assemble`] disagree on dimensions.
    Inconsistent,
}

impl fmt::Display for InstanceError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            InstanceError::PopulationTooSmall { n } => {
                write!(f, "population size n={n} must be at least 2")
            }
            InstanceError::MissingRegime => write!(f, "a regime (or explicit k) is required"),
            InstanceError::InvalidK { k, n } => {
                write!(f, "derived k={k} is outside the valid range [1, {n}]")
            }
            InstanceError::MissingQueries => write!(f, "the number of queries is required"),
            InstanceError::EmptyQuery => write!(f, "query size Γ must be at least 1"),
            InstanceError::QueryLargerThanPopulation { gamma, n } => write!(
                f,
                "query size Γ={gamma} exceeds the population n={n} for without-replacement sampling"
            ),
            InstanceError::Inconsistent => {
                write!(f, "run parts disagree with the instance dimensions")
            }
        }
    }
}

impl std::error::Error for InstanceError {}

/// One sampled experiment: the instance plus concrete ground truth, pooling
/// graph and query results.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct Run {
    instance: Instance,
    truth: GroundTruth,
    graph: PoolingGraph,
    results: Vec<f64>,
}

impl Run {
    /// The configuration this run was sampled from.
    pub fn instance(&self) -> &Instance {
        &self.instance
    }

    /// The hidden assignment.
    pub fn ground_truth(&self) -> &GroundTruth {
        &self.truth
    }

    /// The bipartite pooling multigraph.
    pub fn graph(&self) -> &PoolingGraph {
        &self.graph
    }

    /// The (noisy) query results `σ̂ ∈ ℝᵐ`.
    pub fn results(&self) -> &[f64] {
        &self.results
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    #[test]
    fn regime_k_values() {
        assert_eq!(Regime::sublinear(0.25).k_for(10_000), 10);
        assert_eq!(Regime::sublinear(0.5).k_for(100), 10);
        assert_eq!(Regime::linear(0.1).k_for(1000), 100);
        assert_eq!(Regime::explicit(7).k_for(1000), 7);
    }

    #[test]
    fn regime_k_clamps() {
        // Tiny n: n^θ rounds to 1; explicit k larger than n clamps to n.
        assert_eq!(Regime::sublinear(0.1).k_for(2), 1);
        assert_eq!(Regime::explicit(500).k_for(10), 10);
        assert_eq!(Regime::explicit(0).k_for(10), 1);
    }

    #[test]
    #[should_panic(expected = "theta")]
    fn regime_rejects_bad_theta() {
        Regime::sublinear(1.0);
    }

    #[test]
    #[should_panic(expected = "zeta")]
    fn regime_rejects_bad_zeta() {
        Regime::linear(0.0);
    }

    #[test]
    fn regime_display() {
        assert_eq!(Regime::sublinear(0.25).to_string(), "sublinear(θ=0.25)");
        assert_eq!(Regime::explicit(3).to_string(), "explicit(k=3)");
    }

    #[test]
    fn ground_truth_weight_and_consistency() {
        let mut rng = StdRng::seed_from_u64(1);
        let gt = GroundTruth::sample(100, 13, &mut rng);
        assert_eq!(gt.n(), 100);
        assert_eq!(gt.k(), 13);
        assert_eq!(gt.ones().len(), 13);
        assert!(gt.ones().windows(2).all(|w| w[0] < w[1]));
        for (i, &bit) in gt.bits().iter().enumerate() {
            assert_eq!(bit, gt.ones().contains(&(i as u32)));
        }
    }

    #[test]
    fn ground_truth_extremes() {
        let mut rng = StdRng::seed_from_u64(2);
        let all = GroundTruth::sample(5, 5, &mut rng);
        assert_eq!(all.ones(), &[0, 1, 2, 3, 4]);
        let none = GroundTruth::sample(5, 0, &mut rng);
        assert!(none.ones().is_empty());
    }

    #[test]
    fn ground_truth_is_roughly_uniform() {
        // Every agent should be a one-agent in about k/n of samples.
        let mut rng = StdRng::seed_from_u64(3);
        let (n, k, trials) = (20, 5, 20_000);
        let mut hits = vec![0u32; n];
        for _ in 0..trials {
            let gt = GroundTruth::sample(n, k, &mut rng);
            for &o in gt.ones() {
                hits[o as usize] += 1;
            }
        }
        let expected = trials as f64 * k as f64 / n as f64;
        for (i, &h) in hits.iter().enumerate() {
            assert!(
                (h as f64 - expected).abs() < expected * 0.1,
                "agent {i}: {h} vs {expected}"
            );
        }
    }

    #[test]
    fn ground_truth_from_bits() {
        let gt = GroundTruth::from_bits(vec![true, false, true, false]);
        assert_eq!(gt.ones(), &[0, 2]);
        assert_eq!(gt.k(), 2);
        assert!(gt.is_one(0) && !gt.is_one(1));
    }

    #[test]
    #[should_panic(expected = "exceeds")]
    fn ground_truth_rejects_k_above_n() {
        let mut rng = StdRng::seed_from_u64(0);
        GroundTruth::sample(3, 4, &mut rng);
    }

    #[test]
    fn builder_defaults_and_overrides() {
        let inst = Instance::builder(100)
            .k(5)
            .queries(50)
            .build()
            .expect("valid");
        assert_eq!(inst.n(), 100);
        assert_eq!(inst.k(), 5);
        assert_eq!(inst.m(), 50);
        assert_eq!(inst.gamma(), 50); // default n/2
        assert_eq!(*inst.noise(), NoiseModel::Noiseless);

        let inst2 = Instance::builder(100)
            .regime(Regime::sublinear(0.5))
            .queries(10)
            .query_size(25)
            .noise(NoiseModel::z_channel(0.2))
            .build()
            .expect("valid");
        assert_eq!(inst2.k(), 10);
        assert_eq!(inst2.gamma(), 25);
    }

    #[test]
    fn builder_error_paths() {
        assert_eq!(
            Instance::builder(1).k(1).queries(1).build().unwrap_err(),
            InstanceError::PopulationTooSmall { n: 1 }
        );
        assert_eq!(
            Instance::builder(10).queries(5).build().unwrap_err(),
            InstanceError::MissingRegime
        );
        assert_eq!(
            Instance::builder(10).k(3).build().unwrap_err(),
            InstanceError::MissingQueries
        );
        assert_eq!(
            Instance::builder(10)
                .k(3)
                .queries(5)
                .query_size(0)
                .build()
                .unwrap_err(),
            InstanceError::EmptyQuery
        );
    }

    #[test]
    fn instance_error_messages() {
        assert!(InstanceError::MissingRegime.to_string().contains("regime"));
        assert!(InstanceError::EmptyQuery.to_string().contains("Γ"));
        assert!(InstanceError::QueryLargerThanPopulation { gamma: 9, n: 5 }
            .to_string()
            .contains("without-replacement"));
    }

    #[test]
    fn builder_accepts_without_replacement_sampling() {
        let inst = Instance::builder(50)
            .k(2)
            .queries(10)
            .design(DesignSpec::GammaSubset)
            .build()
            .unwrap();
        assert_eq!(inst.design(), DesignSpec::GammaSubset);
        let mut rng = StdRng::seed_from_u64(1);
        let run = inst.sample(&mut rng);
        for q in run.graph().queries() {
            assert_eq!(q.distinct_len(), 25);
        }
    }

    #[test]
    fn builder_rejects_oversized_without_replacement_query() {
        let err = Instance::builder(10)
            .k(2)
            .queries(5)
            .query_size(11)
            .design(DesignSpec::GammaSubset)
            .build()
            .unwrap_err();
        assert_eq!(
            err,
            InstanceError::QueryLargerThanPopulation { gamma: 11, n: 10 }
        );
    }

    #[test]
    fn sample_produces_consistent_run() {
        let mut rng = StdRng::seed_from_u64(4);
        let inst = Instance::builder(50).k(3).queries(20).build().unwrap();
        let run = inst.sample(&mut rng);
        assert_eq!(run.ground_truth().n(), 50);
        assert_eq!(run.ground_truth().k(), 3);
        assert_eq!(run.graph().query_count(), 20);
        assert_eq!(run.results().len(), 20);
        // Noiseless results are exact slot counts on one-agents.
        for (j, &r) in run.results().iter().enumerate() {
            let c1 = run.graph().query(j).one_slots(run.ground_truth());
            assert_eq!(r, c1 as f64);
        }
    }

    #[test]
    fn sampling_is_deterministic_per_seed() {
        let inst = Instance::builder(60).k(4).queries(15).build().unwrap();
        let run1 = inst.sample(&mut StdRng::seed_from_u64(9));
        let run2 = inst.sample(&mut StdRng::seed_from_u64(9));
        assert_eq!(run1, run2);
        let run3 = inst.sample(&mut StdRng::seed_from_u64(10));
        assert_ne!(run1, run3);
    }

    #[test]
    fn assemble_validates_dimensions() {
        let mut rng = StdRng::seed_from_u64(5);
        let inst = Instance::builder(30).k(2).queries(4).build().unwrap();
        let truth = GroundTruth::sample(30, 2, &mut rng);
        let graph = PoolingGraph::sample(30, 4, 15, &mut rng);
        let ok = inst.assemble(truth.clone(), graph.clone(), vec![0.0; 4]);
        assert!(ok.is_ok());
        let bad = inst.assemble(truth, graph, vec![0.0; 3]);
        assert_eq!(bad.unwrap_err(), InstanceError::Inconsistent);
    }
}
