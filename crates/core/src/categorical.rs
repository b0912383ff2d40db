//! Categorical (d-ary) pooled data: the hidden-state generalization of
//! ROADMAP item 3, following "Approximate Message Passing with Rigorous
//! Guarantees for Pooled Data and Quantitative Group Testing" (Tan,
//! Pascual Cobo, Scarlett, Venkataramanan 2023).
//!
//! Each agent holds one of `d` labels — category `0` is the
//! healthy/background class, categories `1..d` are the strains — with
//! exactly `k_c` agents of strain `c`. A query still pools `Γ` slots drawn
//! by any [`PoolingDesign`]; the measurement reports the (noisy)
//! per-category slot counts instead of a single sum. The pooling layer is
//! untouched: the same [`PoolingGraph`] serves both the binary and the
//! categorical model, so every design (and the incremental simulator)
//! stays label-agnostic.
//!
//! # The d = 2 bit-compatibility contract
//!
//! Binary pooled data is the categorical model with a single strain, and
//! the correspondence is exact down to the RNG stream, not merely in
//! distribution:
//!
//! * [`CategoricalTruth::sample`] performs the *identical* partial
//!   Fisher–Yates draw sequence as [`GroundTruth::sample`], so at `d = 2`
//!   [`CategoricalTruth::to_binary`] reproduces the binary truth
//!   byte-for-byte from the same seed;
//! * [`NoiseModel::measure_categorical`] consumes the stream of
//!   [`NoiseModel::measure`] draw-for-draw at `d = 2`;
//! * [`CategoricalInstance::sample`] orders truth → graph → measurements
//!   exactly as [`Instance::sample`] does.
//!
//! `tests/determinism.rs` and the FNV pins in `tests/amp_baseline.rs`
//! enforce this contract; any refactor that moves a draw breaks them.

use crate::design::{DesignSpec, PoolingDesign, PoolingGraph, QueryMultiset};
use crate::model::{GroundTruth, Instance, InstanceError};
use crate::noise::NoiseModel;
use rand::Rng;
use serde::{Deserialize, Serialize};

/// The hidden categorical assignment: one label in `0..d` per agent, with
/// exact per-category counts.
///
/// Sampled uniformly among all assignments with the prescribed counts.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct CategoricalTruth {
    labels: Vec<u8>,
    counts: Vec<usize>,
}

impl CategoricalTruth {
    /// Samples a uniform assignment with exactly `strain_counts[c-1]`
    /// agents of strain `c` (category `0` takes the remainder).
    ///
    /// The selection is the same partial Fisher–Yates shuffle as
    /// [`GroundTruth::sample`] run for `k = Σ strain_counts` steps; the
    /// first `k_1` selected agents become strain 1, the next `k_2` strain
    /// 2, and so on. Because the shuffle produces a uniformly random
    /// *ordered* sequence of distinct agents, the induced labeling is
    /// uniform — and at a single strain the draw sequence is byte-identical
    /// to the binary sampler.
    ///
    /// # Panics
    ///
    /// Panics if `strain_counts` is empty or has more than 255 strains, if
    /// the counts sum above `n`, or if `n` exceeds `u32::MAX`.
    pub fn sample<R: Rng + ?Sized>(n: usize, strain_counts: &[usize], rng: &mut R) -> Self {
        assert!(
            !strain_counts.is_empty(),
            "CategoricalTruth::sample: need at least one strain"
        );
        assert!(
            strain_counts.len() <= u8::MAX as usize,
            "CategoricalTruth::sample: more than 255 strains"
        );
        let k_total: usize = strain_counts.iter().sum();
        assert!(
            k_total <= n,
            "CategoricalTruth::sample: strain counts sum to {k_total}, exceeding n={n}"
        );
        assert!(
            n <= u32::MAX as usize,
            "CategoricalTruth::sample: n={n} exceeds u32 range"
        );
        // Identical draw sequence to GroundTruth::sample(n, k_total, _).
        let mut idx: Vec<u32> = (0..n as u32).collect();
        for i in 0..k_total {
            let j = rng.gen_range(i..n);
            idx.swap(i, j);
        }
        let mut labels = vec![0u8; n];
        let mut cursor = 0usize;
        for (strain, &count) in strain_counts.iter().enumerate() {
            for &agent in &idx[cursor..cursor + count] {
                labels[agent as usize] = strain as u8 + 1;
            }
            cursor += count;
        }
        let mut counts = vec![n - k_total];
        counts.extend_from_slice(strain_counts);
        Self { labels, counts }
    }

    /// Builds a truth from an explicit label vector over `d` categories.
    ///
    /// # Panics
    ///
    /// Panics if `d < 2`, `d > 256`, or any label is `≥ d`.
    pub fn from_labels(d: usize, labels: Vec<u8>) -> Self {
        assert!(
            (2..=256).contains(&d),
            "CategoricalTruth: d={d} out of range"
        );
        let mut counts = vec![0usize; d];
        for &l in &labels {
            assert!(
                (l as usize) < d,
                "CategoricalTruth: label {l} out of range for d={d}"
            );
            counts[l as usize] += 1;
        }
        Self { labels, counts }
    }

    /// Population size `n`.
    pub fn n(&self) -> usize {
        self.labels.len()
    }

    /// Number of categories `d` (strains plus background).
    pub fn d(&self) -> usize {
        self.counts.len()
    }

    /// The label of agent `i`.
    ///
    /// # Panics
    ///
    /// Panics if `i >= n`.
    pub fn label(&self, i: usize) -> u8 {
        self.labels[i]
    }

    /// The raw label vector.
    pub fn labels(&self) -> &[u8] {
        &self.labels
    }

    /// Per-category agent counts `[k_0, k_1, …, k_{d−1}]` (index 0 is the
    /// background class).
    pub fn counts(&self) -> &[usize] {
        &self.counts
    }

    /// Total number of strain agents `k = Σ_{c≥1} k_c`.
    pub fn k_total(&self) -> usize {
        self.counts[1..].iter().sum()
    }

    /// Collapses to the binary truth: any strain label becomes bit one.
    ///
    /// At `d = 2` this reproduces `GroundTruth::sample(n, k, rng)` from the
    /// same seed byte-for-byte (the bit-compatibility contract).
    pub fn to_binary(&self) -> GroundTruth {
        GroundTruth::from_bits(self.labels.iter().map(|&l| l != 0).collect())
    }
}

/// Per-category slot counts of a query under a categorical truth: entry
/// `c` is the number of the query's `Γ` slots landing on category-`c`
/// agents (with multiplicity).
///
/// The categorical analogue of [`QueryMultiset::one_slots`]; entries sum
/// to the query's total slot count.
///
/// # Panics
///
/// Panics if an agent id is out of range for `truth`.
pub fn category_slots(query: &QueryMultiset, truth: &CategoricalTruth) -> Vec<u64> {
    let mut slots = vec![0u64; truth.d()];
    for (agent, count) in query.iter() {
        slots[truth.label(agent as usize) as usize] += u64::from(count);
    }
    slots
}

/// Draws the noisy per-category measurement vectors for every query of
/// `graph` — the categorical analogue of [`PoolingGraph::measure`], with
/// the same query order and (at `d = 2`) the same RNG stream.
///
/// # Panics
///
/// Panics if `truth.n()` disagrees with the graph.
pub fn measure_categorical<R: Rng + ?Sized>(
    graph: &PoolingGraph,
    truth: &CategoricalTruth,
    noise: &NoiseModel,
    rng: &mut R,
) -> Vec<Vec<f64>> {
    assert_eq!(
        truth.n(),
        graph.n(),
        "measure_categorical: truth has {} agents, graph {}",
        truth.n(),
        graph.n()
    );
    graph
        .queries()
        .iter()
        .map(|q| noise.measure_categorical(&category_slots(q, truth), rng))
        .collect()
}

/// Fraction of agents whose estimated label matches the truth.
///
/// # Panics
///
/// Panics if the estimate length disagrees with `truth.n()` or `n == 0`.
pub fn label_accuracy(estimate: &[u8], truth: &CategoricalTruth) -> f64 {
    assert_eq!(
        estimate.len(),
        truth.n(),
        "label_accuracy: estimate has {} labels, truth {}",
        estimate.len(),
        truth.n()
    );
    assert!(!estimate.is_empty(), "label_accuracy: empty population");
    let correct = estimate
        .iter()
        .zip(truth.labels())
        .filter(|(a, b)| a == b)
        .count();
    correct as f64 / truth.n() as f64
}

/// A fully specified categorical experiment: population size, per-strain
/// counts, query count/size, noise model and pooling design.
///
/// The categorical counterpart of [`Instance`]; sampling yields a
/// [`CategoricalRun`]. At a single strain the sampled truth, graph and
/// measurement stream are byte-identical to the binary instance with
/// `k = strain_counts[0]`.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct CategoricalInstance {
    n: usize,
    strain_counts: Vec<usize>,
    m: usize,
    gamma: usize,
    noise: NoiseModel,
    design: DesignSpec,
}

impl CategoricalInstance {
    /// Builds an instance over `n` agents with the given per-strain counts
    /// and `m` queries; `Γ` defaults to `n/2` (the paper's choice), the
    /// noise to noiseless, the design to i.i.d. sampling.
    ///
    /// # Errors
    ///
    /// Returns [`InstanceError::PopulationTooSmall`] for `n < 2`,
    /// [`InstanceError::MissingRegime`] when no strain has a positive
    /// count, and [`InstanceError::InvalidK`] when the counts sum above
    /// `n`.
    pub fn new(n: usize, strain_counts: Vec<usize>, m: usize) -> Result<Self, InstanceError> {
        if n < 2 {
            return Err(InstanceError::PopulationTooSmall { n });
        }
        let k_total: usize = strain_counts.iter().sum();
        if strain_counts.is_empty() || k_total == 0 || strain_counts.len() > u8::MAX as usize {
            return Err(InstanceError::MissingRegime);
        }
        if k_total > n {
            return Err(InstanceError::InvalidK { k: k_total, n });
        }
        Ok(Self {
            n,
            strain_counts,
            m,
            gamma: n / 2,
            noise: NoiseModel::Noiseless,
            design: DesignSpec::Iid,
        })
    }

    /// Replaces the noise model.
    pub fn with_noise(mut self, noise: NoiseModel) -> Self {
        self.noise = noise;
        self
    }

    /// Replaces the query size `Γ`.
    ///
    /// # Errors
    ///
    /// Returns [`InstanceError::EmptyQuery`] for `gamma == 0` and
    /// [`InstanceError::QueryLargerThanPopulation`] when the design is
    /// [`DesignSpec::GammaSubset`] and `gamma > n`.
    pub fn with_gamma(mut self, gamma: usize) -> Result<Self, InstanceError> {
        if gamma == 0 {
            return Err(InstanceError::EmptyQuery);
        }
        self.design.check(self.n, gamma)?;
        self.gamma = gamma;
        Ok(self)
    }

    /// Replaces the pooling design.
    ///
    /// # Errors
    ///
    /// Returns [`InstanceError::QueryLargerThanPopulation`] when `design`
    /// is [`DesignSpec::GammaSubset`] and `Γ > n`.
    pub fn with_design(mut self, design: DesignSpec) -> Result<Self, InstanceError> {
        design.check(self.n, self.gamma)?;
        self.design = design;
        Ok(self)
    }

    /// Population size `n`.
    pub fn n(&self) -> usize {
        self.n
    }

    /// Number of categories `d` (strains plus background).
    pub fn d(&self) -> usize {
        self.strain_counts.len() + 1
    }

    /// Per-strain agent counts `[k_1, …, k_{d−1}]`.
    pub fn strain_counts(&self) -> &[usize] {
        &self.strain_counts
    }

    /// Per-category counts `[k_0, k_1, …, k_{d−1}]` including background.
    pub fn category_counts(&self) -> Vec<usize> {
        let k_total: usize = self.strain_counts.iter().sum();
        let mut counts = vec![self.n - k_total];
        counts.extend_from_slice(&self.strain_counts);
        counts
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

    /// The pooling design.
    pub fn design(&self) -> DesignSpec {
        self.design
    }

    /// The binary instance this collapses to (strain counts summed into a
    /// single `k`), preserving `Γ`, noise and design.
    ///
    /// # Errors
    ///
    /// Propagates [`InstanceError`] from the binary builder (cannot happen
    /// for parameters this constructor accepted).
    pub fn to_binary(&self) -> Result<Instance, InstanceError> {
        Instance::builder(self.n)
            .k(self.strain_counts.iter().sum())
            .queries(self.m)
            .query_size(self.gamma)
            .noise(self.noise)
            .design(self.design)
            .build()
    }

    /// Samples ground truth, pooling graph and noisy per-category query
    /// results — in that order, mirroring [`Instance::sample`] so the
    /// single-strain case is stream-identical to the binary path.
    pub fn sample<R: Rng + ?Sized>(&self, rng: &mut R) -> CategoricalRun {
        let truth = CategoricalTruth::sample(self.n, &self.strain_counts, rng);
        let graph = self.design.sample(self.n, self.m, self.gamma, rng);
        let results = measure_categorical(&graph, &truth, &self.noise, rng);
        CategoricalRun {
            instance: self.clone(),
            truth,
            graph,
            results,
        }
    }
}

/// One sampled categorical experiment: the instance plus concrete truth,
/// pooling graph and per-category query results.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct CategoricalRun {
    instance: CategoricalInstance,
    truth: CategoricalTruth,
    graph: PoolingGraph,
    results: Vec<Vec<f64>>,
}

impl CategoricalRun {
    /// The configuration this run was sampled from.
    pub fn instance(&self) -> &CategoricalInstance {
        &self.instance
    }

    /// The hidden categorical assignment.
    pub fn ground_truth(&self) -> &CategoricalTruth {
        &self.truth
    }

    /// The bipartite pooling multigraph.
    pub fn graph(&self) -> &PoolingGraph {
        &self.graph
    }

    /// The noisy per-category query results, one length-`d` vector per
    /// query in id order.
    pub fn results(&self) -> &[Vec<f64>] {
        &self.results
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    #[test]
    fn sample_respects_counts() {
        let mut rng = StdRng::seed_from_u64(5);
        let truth = CategoricalTruth::sample(120, &[7, 3, 5], &mut rng);
        assert_eq!(truth.n(), 120);
        assert_eq!(truth.d(), 4);
        assert_eq!(truth.counts(), &[105, 7, 3, 5]);
        assert_eq!(truth.k_total(), 15);
        let mut recount = vec![0usize; 4];
        for &l in truth.labels() {
            recount[l as usize] += 1;
        }
        assert_eq!(recount, truth.counts());
    }

    #[test]
    fn single_strain_sample_is_byte_identical_to_binary() {
        for seed in [0u64, 7, 42, 901] {
            let mut rng_bin = StdRng::seed_from_u64(seed);
            let mut rng_cat = StdRng::seed_from_u64(seed);
            let binary = GroundTruth::sample(200, 17, &mut rng_bin);
            let cat = CategoricalTruth::sample(200, &[17], &mut rng_cat);
            assert_eq!(cat.to_binary(), binary, "seed {seed}");
            // Streams fully aligned afterwards too.
            use rand::Rng;
            assert_eq!(rng_bin.gen::<u64>(), rng_cat.gen::<u64>(), "seed {seed}");
        }
    }

    #[test]
    fn labeling_is_roughly_uniform() {
        // Each agent should carry strain 1 in about k_1/n of samples.
        let mut rng = StdRng::seed_from_u64(3);
        let (n, trials) = (20, 20_000);
        let mut hits = vec![0u32; n];
        for _ in 0..trials {
            let t = CategoricalTruth::sample(n, &[3, 2], &mut rng);
            for (i, &l) in t.labels().iter().enumerate() {
                if l == 1 {
                    hits[i] += 1;
                }
            }
        }
        let expected = trials as f64 * 3.0 / n as f64;
        for (i, &h) in hits.iter().enumerate() {
            assert!(
                (f64::from(h) - expected).abs() < expected * 0.12,
                "agent {i}: {h} vs {expected}"
            );
        }
    }

    #[test]
    fn from_labels_round_trips() {
        let truth = CategoricalTruth::from_labels(3, vec![0, 2, 1, 0, 2]);
        assert_eq!(truth.counts(), &[2, 1, 2]);
        assert_eq!(truth.label(1), 2);
        assert_eq!(truth.to_binary().ones(), &[1, 2, 4]);
    }

    #[test]
    #[should_panic(expected = "out of range")]
    fn from_labels_rejects_bad_label() {
        CategoricalTruth::from_labels(2, vec![0, 2]);
    }

    #[test]
    #[should_panic(expected = "exceeding")]
    fn sample_rejects_oversized_counts() {
        let mut rng = StdRng::seed_from_u64(0);
        CategoricalTruth::sample(5, &[3, 3], &mut rng);
    }

    #[test]
    fn category_slots_sum_to_query_size() {
        let mut rng = StdRng::seed_from_u64(11);
        let truth = CategoricalTruth::sample(60, &[6, 4], &mut rng);
        let graph = PoolingGraph::sample(60, 12, 30, &mut rng);
        for q in graph.queries() {
            let slots = category_slots(q, &truth);
            assert_eq!(slots.iter().sum::<u64>(), u64::from(q.total_slots()));
            // Consistency with the binary count: strains sum to one_slots.
            let ones = q.one_slots(&truth.to_binary());
            assert_eq!(slots[1..].iter().sum::<u64>(), ones);
        }
    }

    #[test]
    fn instance_validation() {
        assert_eq!(
            CategoricalInstance::new(1, vec![1], 5).unwrap_err(),
            InstanceError::PopulationTooSmall { n: 1 }
        );
        assert_eq!(
            CategoricalInstance::new(10, vec![], 5).unwrap_err(),
            InstanceError::MissingRegime
        );
        assert_eq!(
            CategoricalInstance::new(10, vec![0, 0], 5).unwrap_err(),
            InstanceError::MissingRegime
        );
        assert_eq!(
            CategoricalInstance::new(10, vec![8, 8], 5).unwrap_err(),
            InstanceError::InvalidK { k: 16, n: 10 }
        );
        let inst = CategoricalInstance::new(100, vec![4, 6], 30).unwrap();
        assert_eq!(inst.d(), 3);
        assert_eq!(inst.gamma(), 50);
        assert_eq!(inst.category_counts(), vec![90, 4, 6]);
    }

    #[test]
    fn oversized_gamma_subset_is_rejected_in_either_order() {
        let inst = CategoricalInstance::new(10, vec![2], 5).unwrap();
        let oversized = InstanceError::QueryLargerThanPopulation { gamma: 20, n: 10 };
        let gamma_first = inst.clone().with_gamma(20).unwrap();
        assert_eq!(
            gamma_first
                .with_design(DesignSpec::GammaSubset)
                .unwrap_err(),
            oversized
        );
        let design_first = inst.clone().with_design(DesignSpec::GammaSubset).unwrap();
        assert_eq!(design_first.with_gamma(20).unwrap_err(), oversized);
        assert_eq!(inst.with_gamma(0).unwrap_err(), InstanceError::EmptyQuery);
    }

    #[test]
    fn sampled_run_is_consistent() {
        let mut rng = StdRng::seed_from_u64(21);
        let inst = CategoricalInstance::new(80, vec![5, 3], 25)
            .unwrap()
            .with_noise(NoiseModel::channel(0.1, 0.05));
        let run = inst.sample(&mut rng);
        assert_eq!(run.ground_truth().counts(), &[72, 5, 3]);
        assert_eq!(run.results().len(), 25);
        for (j, r) in run.results().iter().enumerate() {
            assert_eq!(r.len(), 3);
            let total: f64 = r.iter().sum();
            assert_eq!(total, f64::from(run.graph().query(j).total_slots()));
        }
    }

    #[test]
    fn single_strain_run_matches_binary_run_streams() {
        // Full-pipeline d=2 equivalence: truth, graph, and measurements all
        // come out byte-identical to Instance::sample for every noise model.
        for noise in [
            NoiseModel::Noiseless,
            NoiseModel::channel(0.15, 0.08),
            NoiseModel::gaussian(1.5),
        ] {
            let inst_cat = CategoricalInstance::new(90, vec![8], 20)
                .unwrap()
                .with_noise(noise);
            let inst_bin = inst_cat.to_binary().unwrap();
            for seed in [1u64, 77] {
                let cat = inst_cat.sample(&mut StdRng::seed_from_u64(seed));
                let bin = inst_bin.sample(&mut StdRng::seed_from_u64(seed));
                assert_eq!(cat.ground_truth().to_binary(), *bin.ground_truth());
                assert_eq!(cat.graph(), bin.graph());
                for (v, &r) in cat.results().iter().zip(bin.results()) {
                    assert_eq!(v[1], r, "{noise} seed {seed}");
                }
            }
        }
    }

    #[test]
    fn label_accuracy_counts_matches() {
        let truth = CategoricalTruth::from_labels(3, vec![0, 1, 2, 0]);
        assert_eq!(label_accuracy(&[0, 1, 2, 0], &truth), 1.0);
        assert_eq!(label_accuracy(&[0, 1, 0, 0], &truth), 0.75);
        assert_eq!(label_accuracy(&[1, 0, 0, 1], &truth), 0.0);
    }
}
