//! Query-by-query simulation for the *required number of queries*.
//!
//! Figures 2–5 of the paper report, per configuration, the number of queries
//! after which Algorithm 1 first reconstructs the ground truth exactly with
//! a clear score separation. The paper's implementation simulates “one query
//! node after the other in a sequential manner”, updating `Δ*` and `Ψ` after
//! each (Section V, “Implementation Details”).
//!
//! [`IncrementalSim`] reproduces this in `O(n)` memory: the pooling graph is
//! never materialized — each query contributes its (noisy) result to the
//! per-agent accumulators and is then forgotten. This is what makes the
//! `n = 10⁵` sweeps of Figures 2–5 tractable.

use crate::design::{band_window, DesignSpec, Sampling};
use crate::greedy::ScoreAccumulator;
use crate::model::GroundTruth;
use crate::noise::NoiseModel;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use serde::{Deserialize, Serialize};
use std::fmt;

/// Outcome of a successful required-queries search.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct RequiredQueries {
    /// The first query count with exact reconstruction and positive score
    /// separation.
    pub queries: usize,
    /// The separation margin at that point.
    pub separation: f64,
}

/// Error: the search exhausted its query budget without separation.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct BudgetExhausted {
    /// The budget that was spent.
    pub max_queries: usize,
}

impl fmt::Display for BudgetExhausted {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "no exact reconstruction within {} queries",
            self.max_queries
        )
    }
}

impl std::error::Error for BudgetExhausted {}

/// The incremental sampler arm a [`DesignSpec`] maps to (see
/// [`IncrementalSim::with_design`]).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum SamplerKind {
    /// I.i.d. uniform slots with replacement (the paper's design).
    Iid,
    /// Uniform Γ-subset per query.
    Subset,
    /// Rotating-deck balanced dealing (the anytime doubly-regular form).
    Deck,
    /// Bernoulli pools: size `Bin(n, Γ/n)`, then a uniform subset — the
    /// query-major marginal of the constant-column batch design (free pool
    /// sizes, simple entries, concentrated column weights).
    Bernoulli,
    /// Band-cycling windowed draws (spatially coupled).
    Banded { bands: usize },
}

impl SamplerKind {
    fn for_design(design: DesignSpec) -> Self {
        match design {
            DesignSpec::Iid => SamplerKind::Iid,
            DesignSpec::GammaSubset => SamplerKind::Subset,
            DesignSpec::BalancedDeck | DesignSpec::DoublyRegular => SamplerKind::Deck,
            DesignSpec::SparseColumn => SamplerKind::Bernoulli,
            DesignSpec::SpatiallyCoupled { bands } => SamplerKind::Banded { bands },
        }
    }
}

/// Incremental simulation of Algorithm 1 under a fixed ground truth,
/// adding one query at a time.
///
/// # Examples
///
/// ```
/// use npd_core::{IncrementalSim, NoiseModel};
///
/// let mut sim = IncrementalSim::new(500, 5, NoiseModel::z_channel(0.1), 42);
/// let outcome = sim.required_queries(5_000).expect("separates well below budget");
/// assert!(outcome.queries > 0);
/// assert!(outcome.separation > 0.0);
/// ```
#[derive(Debug, Clone)]
pub struct IncrementalSim {
    k: usize,
    gamma: usize,
    noise: NoiseModel,
    truth: GroundTruth,
    /// Per-agent greedy sums, folded by the sequential decoder's kernel.
    sums: Vec<ScoreAccumulator>,
    /// Per-slot one-read rate of the second neighborhood (see
    /// [`crate::Centering::NoiseAware`]).
    slot_rate: f64,
    /// Draws of each agent in the query being dealt (its multiplicity);
    /// zeroed again once the query is folded.
    draws: Vec<u32>,
    /// Distinct agents of the query being dealt (scratch).
    scratch: Vec<u32>,
    sampler: SamplerKind,
    /// Reusable permutation: partial Fisher–Yates scratch for
    /// without-replacement draws, rotating deck for the balanced design.
    perm: Vec<u32>,
    /// Next undealt deck position (balanced design only).
    deck_pos: usize,
    queries_added: usize,
    rng: StdRng,
}

impl IncrementalSim {
    /// Creates a simulation over `n` agents with `k` one-agents and the
    /// paper's query size `Γ = n/2`.
    ///
    /// The ground truth is sampled from `seed`; all subsequent noise and
    /// pooling randomness comes from the same seeded stream, so a
    /// `(config, seed)` pair identifies a run exactly.
    ///
    /// # Panics
    ///
    /// Panics if `n < 2` or `k` is not in `[1, n]`.
    pub fn new(n: usize, k: usize, noise: NoiseModel, seed: u64) -> Self {
        Self::with_query_size(n, k, n / 2, noise, seed)
    }

    /// Creates a simulation with an explicit query size `Γ`.
    ///
    /// # Panics
    ///
    /// Panics if `n < 2`, `k ∉ [1, n]`, or `gamma == 0`.
    pub fn with_query_size(n: usize, k: usize, gamma: usize, noise: NoiseModel, seed: u64) -> Self {
        Self::with_options(n, k, gamma, noise, Sampling::WithReplacement, seed)
    }

    /// Creates a simulation with an explicit query size and sampling
    /// scheme.
    ///
    /// # Panics
    ///
    /// Panics if `n < 2`, `k ∉ [1, n]`, `gamma == 0`, or (without
    /// replacement) `gamma > n`.
    pub fn with_options(
        n: usize,
        k: usize,
        gamma: usize,
        noise: NoiseModel,
        sampling: Sampling,
        seed: u64,
    ) -> Self {
        Self::with_design(n, k, gamma, noise, DesignSpec::from(sampling), seed)
    }

    /// Creates a simulation with an explicit query size and pooling design.
    ///
    /// Every [`DesignSpec`] has an *incremental* (anytime) form here, since
    /// the required-queries experiment grows the design one query at a
    /// time:
    ///
    /// * [`DesignSpec::Iid`] and [`DesignSpec::GammaSubset`] sample each
    ///   query independently, exactly like the batch samplers.
    /// * [`DesignSpec::BalancedDeck`] and [`DesignSpec::DoublyRegular`]
    ///   deal from the rotating deck — the anytime doubly-balanced
    ///   allocation whose agent degrees stay within ±1 at *every* query
    ///   prefix. (The batch doubly-regular construction fixes `m` up
    ///   front, which has no incremental analogue; the deck is the
    ///   standard online counterpart.)
    /// * [`DesignSpec::SparseColumn`] draws Bernoulli pools — size
    ///   `Bin(n, Γ/n)` then a uniform subset, the query-major marginal of
    ///   the batch constant-column design: free pool sizes, simple
    ///   entries, concentrated (not exact) column weights.
    /// * [`DesignSpec::SpatiallyCoupled`] cycles query `t` through band
    ///   `t mod L`, drawing slots from the band's window exactly like the
    ///   batch sampler.
    ///
    /// # Panics
    ///
    /// Panics if `n < 2`, `k ∉ [1, n]`, `gamma == 0`, or (Γ-subset)
    /// `gamma > n`.
    pub fn with_design(
        n: usize,
        k: usize,
        gamma: usize,
        noise: NoiseModel,
        design: DesignSpec,
        seed: u64,
    ) -> Self {
        assert!(n >= 2, "IncrementalSim: n={n} must be at least 2");
        assert!(
            (1..=n).contains(&k),
            "IncrementalSim: k={k} must be in [1, {n}]"
        );
        let mut rng = StdRng::seed_from_u64(seed);
        let truth = GroundTruth::sample(n, k, &mut rng);
        Self::from_parts(truth, gamma, noise, design, rng)
    }

    /// Creates a simulation over an *externally supplied* ground truth.
    ///
    /// This is the entry point for structured and temporal population
    /// models (the `npd-workloads` crate): the workload samples or evolves
    /// the hidden assignment, and the simulation streams queries against
    /// it. Unlike the seed-sampling constructors, `k = 0` is permitted — a
    /// drifting population may momentarily hold no one-agents.
    ///
    /// All pooling and noise randomness still comes from `seed` alone, so
    /// `(truth, config, seed)` identifies the query stream exactly.
    ///
    /// # Panics
    ///
    /// Panics if `truth.n() < 2`, `gamma == 0`, or (Γ-subset) `gamma > n`.
    pub fn with_truth(
        truth: GroundTruth,
        gamma: usize,
        noise: NoiseModel,
        design: DesignSpec,
        seed: u64,
    ) -> Self {
        Self::from_parts(truth, gamma, noise, design, StdRng::seed_from_u64(seed))
    }

    /// Replaces the ground truth mid-stream (population drift).
    ///
    /// The per-agent accumulators are deliberately **kept**: queries
    /// already streamed were measured against the truth current at their
    /// time, so after a drift step the score landscape mixes fresh and
    /// stale evidence — exactly the tracking problem the temporal
    /// workloads measure. [`IncrementalSim::score`] and
    /// [`IncrementalSim::separation`] evaluate against the new truth from
    /// the next call on.
    ///
    /// # Panics
    ///
    /// Panics if `truth.n()` differs from the simulation's `n`.
    pub fn set_truth(&mut self, truth: GroundTruth) {
        assert_eq!(
            truth.n(),
            self.n(),
            "IncrementalSim::set_truth: population size mismatch"
        );
        self.k = truth.k();
        self.slot_rate = crate::greedy::second_neighborhood_rate(self.n(), self.k, &self.noise);
        self.truth = truth;
    }

    fn from_parts(
        truth: GroundTruth,
        gamma: usize,
        noise: NoiseModel,
        design: DesignSpec,
        rng: StdRng,
    ) -> Self {
        let n = truth.n();
        let k = truth.k();
        assert!(n >= 2, "IncrementalSim: n={n} must be at least 2");
        assert!(gamma > 0, "IncrementalSim: gamma must be positive");
        let sampler = SamplerKind::for_design(design);
        if sampler == SamplerKind::Subset {
            assert!(
                gamma <= n,
                "IncrementalSim: gamma={gamma} exceeds n={n} without replacement"
            );
        }
        let slot_rate = crate::greedy::second_neighborhood_rate(n, k, &noise);
        let perm = match sampler {
            SamplerKind::Iid | SamplerKind::Banded { .. } => Vec::new(),
            SamplerKind::Subset | SamplerKind::Deck | SamplerKind::Bernoulli => {
                (0..n as u32).collect()
            }
        };
        Self {
            k,
            gamma,
            noise,
            truth,
            sums: vec![ScoreAccumulator::default(); n],
            slot_rate,
            draws: vec![0; n],
            scratch: Vec::with_capacity(gamma),
            sampler,
            perm,
            deck_pos: n,
            queries_added: 0,
            rng,
        }
    }

    /// Population size.
    pub fn n(&self) -> usize {
        self.sums.len()
    }

    /// Number of one-agents.
    pub fn k(&self) -> usize {
        self.k
    }

    /// Queries simulated so far.
    pub fn queries_added(&self) -> usize {
        self.queries_added
    }

    /// The hidden assignment being reconstructed.
    pub fn truth(&self) -> &GroundTruth {
        &self.truth
    }

    /// Neighborhood sum `Ψᵢ` accumulated so far.
    ///
    /// # Panics
    ///
    /// Panics if `i >= n`.
    pub fn psi(&self, i: usize) -> f64 {
        self.sums[i].psi()
    }

    /// Distinct degree `Δ*ᵢ` accumulated so far.
    ///
    /// # Panics
    ///
    /// Panics if `i >= n`.
    pub fn distinct_degree(&self, i: usize) -> u32 {
        self.sums[i].distinct()
    }

    /// Multi-degree `Δᵢ` accumulated so far.
    ///
    /// # Panics
    ///
    /// Panics if `i >= n`.
    pub fn multi_degree(&self, i: usize) -> u64 {
        self.sums[i].multi()
    }

    /// Samples one query, measures it under the noise model and folds the
    /// result into the per-agent accumulators.
    pub fn add_query(&mut self) {
        let n = self.n();
        self.scratch.clear();
        let mut one_slots = 0u64;
        let mut total_slots = self.gamma as u64;
        match self.sampler {
            SamplerKind::Iid => {
                for _ in 0..self.gamma {
                    let a = self.rng.gen_range(0..n);
                    one_slots += self.draw(a);
                }
            }
            SamplerKind::Subset => {
                // Reusable partial Fisher–Yates; the array stays a
                // permutation between queries, so each draw is a uniform
                // Γ-subset.
                for i in 0..self.gamma {
                    let j = self.rng.gen_range(i..n);
                    self.perm.swap(i, j);
                    one_slots += self.draw(self.perm[i] as usize);
                }
            }
            SamplerKind::Deck => {
                // Rotating deck: deal Γ slots, reshuffling the full
                // permutation whenever it is exhausted, so degrees stay
                // within one of each other at all times.
                for _ in 0..self.gamma {
                    if self.deck_pos >= n {
                        for i in (1..n).rev() {
                            let j = self.rng.gen_range(0..=i);
                            self.perm.swap(i, j);
                        }
                        self.deck_pos = 0;
                    }
                    let a = self.perm[self.deck_pos] as usize;
                    self.deck_pos += 1;
                    one_slots += self.draw(a);
                }
            }
            SamplerKind::Bernoulli => {
                // Pool size first (Bin(n, Γ/n)), then a uniform subset via
                // the reusable partial Fisher–Yates: the query-major
                // marginal of the batch constant-column design.
                let p = (self.gamma as f64 / n as f64).min(1.0);
                let size = npd_numerics::rng::binomial(&mut self.rng, n as u64, p) as usize;
                total_slots = size as u64;
                for i in 0..size {
                    let j = self.rng.gen_range(i..n);
                    self.perm.swap(i, j);
                    one_slots += self.draw(self.perm[i] as usize);
                }
            }
            SamplerKind::Banded { bands } => {
                // Query t draws from band t mod L's window (same geometry
                // as the batch spatially-coupled sampler).
                let (start, width) = band_window(n, bands, self.queries_added);
                for _ in 0..self.gamma {
                    let a = (start + self.rng.gen_range(0..width)) % n;
                    one_slots += self.draw(a);
                }
            }
        }
        let zero_slots = total_slots - one_slots;
        let result = self.noise.measure(one_slots, zero_slots, &mut self.rng);
        for &a in &self.scratch {
            let a = a as usize;
            self.sums[a].fold(result, u64::from(self.draws[a]), total_slots);
            self.draws[a] = 0;
        }
        self.queries_added += 1;
    }

    /// Deals one slot of the current query to agent `a`, returning the
    /// slot's hidden bit (1 for a one-agent).
    fn draw(&mut self, a: usize) -> u64 {
        if self.draws[a] == 0 {
            self.scratch.push(a as u32);
        }
        self.draws[a] += 1;
        u64::from(self.truth.is_one(a))
    }

    /// The greedy score of agent `i` with the noise-aware centering
    /// `Ψᵢ − (Δ*ᵢ·Γ − Δᵢ)·(q + k(1−p−q)/(n−1))` (see
    /// [`crate::Centering`]).
    ///
    /// # Panics
    ///
    /// Panics if `i >= n`.
    pub fn score(&self, i: usize) -> f64 {
        self.sums[i].score(self.slot_rate)
    }

    /// All scores as a fresh vector.
    pub fn scores(&self) -> Vec<f64> {
        (0..self.n()).map(|i| self.score(i)).collect()
    }

    /// Current separation `min_{σ=1} score − max_{σ=0} score`.
    pub fn separation(&self) -> f64 {
        let mut min_one = f64::INFINITY;
        let mut max_zero = f64::NEG_INFINITY;
        for i in 0..self.n() {
            let s = self.score(i);
            if self.truth.is_one(i) {
                if s < min_one {
                    min_one = s;
                }
            } else if s > max_zero {
                max_zero = s;
            }
        }
        if min_one == f64::INFINITY || max_zero == f64::NEG_INFINITY {
            f64::INFINITY
        } else {
            min_one - max_zero
        }
    }

    /// Whether the current scores reconstruct the truth exactly with a
    /// strictly positive margin (the paper's termination check).
    pub fn is_separated(&self) -> bool {
        self.separation() > 0.0
    }

    /// Adds queries until separation, returning the required count.
    ///
    /// # Errors
    ///
    /// Returns [`BudgetExhausted`] if `max_queries` are added without
    /// reaching separation (Theorem 2 predicts this outcome for
    /// `λ² = Ω(m)` query noise).
    pub fn required_queries(
        &mut self,
        max_queries: usize,
    ) -> Result<RequiredQueries, BudgetExhausted> {
        while self.queries_added < max_queries {
            self.add_query();
            let sep = self.separation();
            if sep > 0.0 {
                return Ok(RequiredQueries {
                    queries: self.queries_added,
                    separation: sep,
                });
            }
        }
        Err(BudgetExhausted { max_queries })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn required_queries_noiseless_matches_order_of_theory() {
        let mut sim = IncrementalSim::new(1_000, 6, NoiseModel::Noiseless, 7);
        let out = sim.required_queries(5_000).expect("separates");
        // Theorem 1 (noiseless): ≈ 4γ(1.5)²·k·ln n ≈ 245 for n=1000, k=6.
        // Empirical thresholds sit below the worst-case bound; accept a wide
        // bracket that still pins the order of magnitude.
        assert!(out.queries > 20, "queries={}", out.queries);
        assert!(out.queries < 1_200, "queries={}", out.queries);
        assert!(out.separation > 0.0);
    }

    #[test]
    fn noisier_channels_need_more_queries() {
        // Medians over a few seeds to damp variance; p = 0.5 must require
        // clearly more queries than p = 0.1 (Figure 2's vertical ordering).
        let median_for = |p: f64| {
            let mut xs: Vec<usize> = (0..5)
                .map(|seed| {
                    let mut sim = IncrementalSim::new(600, 5, NoiseModel::z_channel(p), 100 + seed);
                    sim.required_queries(20_000).expect("separates").queries
                })
                .collect();
            xs.sort_unstable();
            xs[2]
        };
        let m_low = median_for(0.1);
        let m_high = median_for(0.5);
        assert!(m_high > m_low, "p=0.5 needed {m_high} ≤ p=0.1's {m_low}");
    }

    #[test]
    fn gaussian_noise_increases_required_queries() {
        let median_for = |lambda: f64| {
            let mut xs: Vec<usize> = (0..5)
                .map(|seed| {
                    let mut sim =
                        IncrementalSim::new(600, 5, NoiseModel::gaussian(lambda), 200 + seed);
                    sim.required_queries(20_000).expect("separates").queries
                })
                .collect();
            xs.sort_unstable();
            xs[2]
        };
        assert!(median_for(2.0) > median_for(0.0));
    }

    #[test]
    fn budget_exhaustion_is_reported() {
        // One query can never separate k=5 ones in a 100-agent population.
        let mut sim = IncrementalSim::new(100, 5, NoiseModel::Noiseless, 1);
        let err = sim.required_queries(1).unwrap_err();
        assert_eq!(err.max_queries, 1);
        assert!(err.to_string().contains("no exact reconstruction"));
    }

    #[test]
    fn accumulators_match_a_single_query() {
        let mut sim = IncrementalSim::new(50, 3, NoiseModel::Noiseless, 3);
        sim.add_query();
        assert_eq!(sim.queries_added(), 1);
        // Every touched agent got the same result value; untouched agents
        // have Δ* = 0 and Ψ = 0. The match over the distinct degree is
        // exhaustive: `add_query` folds each agent at most once per query
        // (every sampling arm deals through `draw`, which pushes an agent
        // into `scratch` only on its first draw), so after exactly one
        // query the invariant Δ*ᵢ ≤ queries_added pins the degree to
        // {0, 1} — the `2..` arm is unreachable by construction.
        let mut seen_value = None;
        for i in 0..50 {
            match sim.distinct_degree(i) {
                0 => assert_eq!(sim.psi(i), 0.0),
                1 => {
                    let v = sim.psi(i);
                    if let Some(prev) = seen_value {
                        assert_eq!(v, prev);
                    }
                    seen_value = Some(v);
                }
                2.. => unreachable!(
                    "Δ*ᵢ ≤ queries_added: the per-query draw counts add each \
                     agent to a query's distinct set at most once"
                ),
            }
        }
        assert!(seen_value.is_some());
    }

    #[test]
    fn scores_and_separation_consistency() {
        let mut sim = IncrementalSim::new(200, 4, NoiseModel::Noiseless, 5);
        for _ in 0..400 {
            sim.add_query();
        }
        let scores = sim.scores();
        let sep_direct = crate::evaluate::separation(&scores, sim.truth());
        assert_eq!(sim.separation(), sep_direct);
        if sim.is_separated() {
            // Top-k of the scores must equal the truth.
            let est = crate::greedy::Estimate::from_scores(scores, sim.k());
            assert!(crate::evaluate::exact_recovery(&est, sim.truth()));
        }
    }

    #[test]
    fn determinism_per_seed() {
        let run = |seed| {
            let mut sim = IncrementalSim::new(300, 4, NoiseModel::z_channel(0.2), seed);
            sim.required_queries(10_000).unwrap().queries
        };
        assert_eq!(run(9), run(9));
    }

    #[test]
    fn custom_query_size_is_respected() {
        let mut sim = IncrementalSim::with_query_size(100, 2, 10, NoiseModel::Noiseless, 11);
        sim.add_query();
        let total: u32 = (0..100).map(|i| sim.distinct_degree(i)).sum();
        assert!(total <= 10);
    }

    #[test]
    #[should_panic(expected = "k=0")]
    fn rejects_zero_k() {
        IncrementalSim::new(10, 0, NoiseModel::Noiseless, 0);
    }

    #[test]
    fn without_replacement_needs_fewer_queries() {
        // A Γ-subset query touches Γ = n/2 distinct agents instead of
        // ≈ 0.39·n, so information accrues faster; the ablation behind
        // `repro ablations`. Compare medians over 5 seeds.
        use crate::design::Sampling;
        let median_for = |sampling: Sampling| {
            let mut xs: Vec<usize> = (0..5)
                .map(|seed| {
                    let mut sim = IncrementalSim::with_options(
                        600,
                        5,
                        300,
                        NoiseModel::z_channel(0.1),
                        sampling,
                        700 + seed,
                    );
                    sim.required_queries(20_000).expect("separates").queries
                })
                .collect();
            xs.sort_unstable();
            xs[2]
        };
        let with = median_for(Sampling::WithReplacement);
        let without = median_for(Sampling::WithoutReplacement);
        assert!(
            without < with,
            "without-replacement median {without} not below with-replacement {with}"
        );
    }

    #[test]
    fn without_replacement_multi_equals_distinct() {
        use crate::design::Sampling;
        let mut sim = IncrementalSim::with_options(
            100,
            3,
            50,
            NoiseModel::Noiseless,
            Sampling::WithoutReplacement,
            3,
        );
        for _ in 0..10 {
            sim.add_query();
        }
        for i in 0..100 {
            assert_eq!(sim.multi_degree(i), u64::from(sim.distinct_degree(i)));
        }
    }

    #[test]
    fn balanced_sampling_keeps_degrees_within_one() {
        let mut sim =
            IncrementalSim::with_options(60, 4, 25, NoiseModel::Noiseless, Sampling::Balanced, 42);
        for _ in 0..13 {
            sim.add_query();
        }
        let degrees: Vec<u64> = (0..60).map(|i| sim.multi_degree(i)).collect();
        let lo = 13 * 25 / 60;
        assert!(degrees.iter().all(|&d| d == lo || d == lo + 1));
        assert_eq!(degrees.iter().sum::<u64>(), 13 * 25);
    }

    #[test]
    fn bernoulli_pools_have_free_sizes_and_concentrated_columns() {
        // The sparse-column incremental analogue: pool sizes fluctuate
        // around Γ (they are Binomial), entries are simple, and column
        // weights concentrate around mΓ/n without being exactly equal.
        let (n, gamma, m) = (200usize, 50usize, 120usize);
        let mut sim = IncrementalSim::with_design(
            n,
            3,
            gamma,
            NoiseModel::Noiseless,
            DesignSpec::SparseColumn,
            17,
        );
        for _ in 0..m {
            sim.add_query();
        }
        // Simple design: multi degree equals distinct degree.
        for i in 0..n {
            assert_eq!(sim.multi_degree(i), u64::from(sim.distinct_degree(i)));
        }
        // Column weights concentrate: Bin(m, Γ/n) has mean 30, sd ≈ 5.
        let expected = m as f64 * gamma as f64 / n as f64;
        let degrees: Vec<u64> = (0..n).map(|i| sim.multi_degree(i)).collect();
        let mean = degrees.iter().sum::<u64>() as f64 / n as f64;
        assert!((mean - expected).abs() < expected * 0.15, "mean={mean}");
        // Free pool sizes: total slots differ from m·Γ (almost surely).
        let total: u64 = degrees.iter().sum();
        assert_ne!(total, (m * gamma) as u64);
    }

    #[test]
    fn bernoulli_pools_reconstruct() {
        let mut sim = IncrementalSim::with_design(
            300,
            4,
            75,
            NoiseModel::z_channel(0.1),
            DesignSpec::SparseColumn,
            18,
        );
        let out = sim
            .required_queries(10_000)
            .expect("Bernoulli pools separate on an easy instance");
        assert!(out.queries > 0);
    }

    #[test]
    fn balanced_sampling_reconstructs() {
        let mut sim = IncrementalSim::with_options(
            300,
            4,
            150,
            NoiseModel::z_channel(0.1),
            Sampling::Balanced,
            43,
        );
        let m = sim
            .required_queries(5_000)
            .expect("balanced design separates on an easy instance");
        assert!(m.queries > 0);
    }

    #[test]
    fn theorem2_failure_regime_does_not_separate() {
        // λ² = Ω(m): with λ = 50 and a budget of 400 queries on n = 200,
        // λ² = 2500 ≫ m, Theorem 2 predicts failure with positive
        // probability; across 3 seeds at least one must fail (in practice
        // all do).
        let failures = (0..3)
            .filter(|&seed| {
                let mut sim = IncrementalSim::new(200, 3, NoiseModel::gaussian(50.0), 300 + seed);
                sim.required_queries(400).is_err()
            })
            .count();
        assert!(failures >= 1, "noise λ=50 unexpectedly always separated");
    }
}
