//! The sequential reference implementation of Algorithm 1.

use crate::model::Run;
use npd_numerics::vector::{resize_fill, top_k_indices};
use serde::{Deserialize, Serialize};

/// A reconstruction of the hidden bits, together with the scores that
/// produced it.
///
/// Exposing the scores (not just the bits) follows the paper's diagnostics:
/// the *separation* between one-agent and zero-agent scores is the
/// termination criterion of the required-queries experiments, and the score
/// landscape drives the two-step extension.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct Estimate {
    bits: Vec<bool>,
    ones: Vec<u32>,
    scores: Vec<f64>,
}

impl Estimate {
    /// Builds an estimate by taking the `k` highest-scoring agents.
    ///
    /// Ties are broken toward the smaller agent id, deterministically.
    ///
    /// # Panics
    ///
    /// Panics if `k > scores.len()`.
    pub fn from_scores(scores: Vec<f64>, k: usize) -> Self {
        let top = top_k_indices(&scores, k);
        let mut bits = vec![false; scores.len()];
        let ones: Vec<u32> = top
            .into_iter()
            .map(|i| {
                bits[i] = true;
                i as u32
            })
            .collect();
        Self { bits, ones, scores }
    }

    /// Builds an estimate from explicit bits and the scores that produced
    /// them (used by the distributed protocol, where each agent learns its
    /// own bit).
    ///
    /// # Panics
    ///
    /// Panics if `bits.len() != scores.len()`.
    pub fn from_parts(bits: Vec<bool>, scores: Vec<f64>) -> Self {
        assert_eq!(
            bits.len(),
            scores.len(),
            "Estimate::from_parts: bits/scores length mismatch"
        );
        let ones = bits
            .iter()
            .enumerate()
            .filter(|(_, &b)| b)
            .map(|(i, _)| i as u32)
            .collect();
        Self { bits, ones, scores }
    }

    /// The estimated bit vector.
    pub fn bits(&self) -> &[bool] {
        &self.bits
    }

    /// Sorted indices of agents estimated to hold bit one.
    pub fn ones(&self) -> &[u32] {
        &self.ones
    }

    /// The per-agent scores the estimate was ranked by.
    pub fn scores(&self) -> &[f64] {
        &self.scores
    }

    /// Population size.
    pub fn n(&self) -> usize {
        self.bits.len()
    }

    /// Number of agents estimated as one.
    pub fn k(&self) -> usize {
        self.ones.len()
    }
}

/// A reconstruction algorithm for pooled-data runs.
///
/// Object-safe so harness code can hold heterogeneous decoder collections
/// (`Vec<Box<dyn Decoder>>`) when comparing algorithms.
pub trait Decoder {
    /// Reconstructs the hidden bits of the given run.
    fn decode(&self, run: &Run) -> Estimate;

    /// Short human-readable name for reports.
    fn name(&self) -> &'static str;
}

/// How the neighborhood sum is centered before ranking.
///
/// Algorithm 1 as printed sorts by `Ψᵢ − Δ*ᵢ·k/2`, the noiseless expected
/// second-neighborhood contribution. The paper's *analysis*, however,
/// establishes separation for the noise-aware centering
/// `Ψᵢ − E[Ξ^pq ᵢ | G]` (Equations (3)–(4)), and with `q > 0` only the
/// latter matches the reported experiments: under the printed score the
/// false-positive mass `q·Γ·Δ*ᵢ` fluctuates with `Δ*ᵢ` and inflates the
/// required queries to `Θ(q²n² ln n)`, far beyond Figure 4's axis. Since
/// `p` and `q` are known constants in the model (Section II-A), the
/// noise-aware score is what a real deployment computes; the plain variant
/// is kept for the ablation study.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub enum Centering {
    /// `Ψᵢ − (Δ*ᵢ·Γ − Δᵢ)·(q + k(1−p−q)/(n−1))` — the analysis' centering
    /// (reduces to the printed score as `p, q → 0`). The `Δ*ᵢ·Γ` term is
    /// computed as the *sum of the agent's queries' slot counts*, which
    /// equals `Δ*ᵢ·Γ` exactly on query-regular designs and stays exact on
    /// ragged (degree-balanced) designs where pool sizes differ by one.
    #[default]
    NoiseAware,
    /// `Ψᵢ − Δ*ᵢ·k/2` — Algorithm 1, line 14, verbatim.
    Plain,
}

/// The *noisy maximum neighborhood* decoder (Algorithm 1, steps I–II, run
/// sequentially).
///
/// For each agent `i` it accumulates the neighborhood sum
/// `Ψᵢ = Σ_{j : i ∈ ∂*aⱼ} σ̂ⱼ` over the *distinct* queries containing `i`,
/// subtracts the expected second-neighborhood contribution (see
/// [`Centering`]) and declares the `k` top-ranked agents as ones.
///
/// # Examples
///
/// ```
/// use npd_core::{Decoder, GreedyDecoder, Instance, NoiseModel};
/// use rand::SeedableRng;
///
/// let mut rng = rand::rngs::StdRng::seed_from_u64(1);
/// let run = Instance::builder(200)
///     .k(3)
///     .queries(200)
///     .noise(NoiseModel::gaussian(1.0))
///     .build()
///     .unwrap()
///     .sample(&mut rng);
/// let est = GreedyDecoder::new().decode(&run);
/// assert_eq!(est.k(), 3);
/// ```
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct GreedyDecoder {
    centering: Centering,
}

impl GreedyDecoder {
    /// Creates the decoder with the noise-aware centering.
    pub fn new() -> Self {
        Self::default()
    }

    /// Creates the decoder with an explicit centering variant.
    pub fn with_centering(centering: Centering) -> Self {
        Self { centering }
    }

    /// The centering variant in use.
    pub fn centering(&self) -> Centering {
        self.centering
    }

    /// Computes the greedy scores without selecting bits.
    ///
    /// Exposed separately so callers can inspect the score landscape (e.g.
    /// the separation diagnostic) without re-deriving it.
    pub fn scores(&self, run: &Run) -> Vec<f64> {
        self.scores_with(run, ScoreOptions::default(), &mut GreedyWorkspace::new())
    }

    /// [`GreedyDecoder::scores`] with an explicit slot rate and fold, into
    /// the caller's accumulator buffers.
    ///
    /// Repeated scorings on same-sized populations touch the allocator only
    /// for the returned score vector; with default options the output is
    /// bit-identical to [`GreedyDecoder::scores`].
    ///
    /// # Panics
    ///
    /// Panics if a [`Fold::Trim`] mask does not have one entry per query.
    pub fn scores_with(
        &self,
        run: &Run,
        options: ScoreOptions<'_>,
        workspace: &mut GreedyWorkspace,
    ) -> Vec<f64> {
        let n = run.instance().n();
        let k = run.instance().k();
        let (winsorize, exclude) = match options.fold {
            Fold::Plain => (false, None),
            Fold::Winsorize => (true, None),
            Fold::Trim(exclude) => {
                assert_eq!(
                    exclude.len(),
                    run.results().len(),
                    "GreedyDecoder: exclusion mask length must equal the query count"
                );
                (false, Some(exclude))
            }
        };
        workspace.reset(n);
        let sums = &mut workspace.sums;
        for (j, q) in run.graph().queries().iter().enumerate() {
            if exclude.is_some_and(|exclude| exclude[j]) {
                continue;
            }
            // Per-query slot count, not the nominal Γ: identical for the
            // query-regular designs (Σ_{j∈∂*i} Γ = Δ*ᵢ·Γ), exact for ragged
            // designs such as the doubly regular scheme.
            let total = q.total_slots() as u64;
            let value = ScoreAccumulator::admit(run.results()[j], total, winsorize);
            for (a, c) in q.iter() {
                sums[a as usize].fold(value, c as u64, total);
            }
        }
        let scores: Vec<f64> = match options.slot_rate.or_else(|| self.resolved_rate(run)) {
            None => {
                let half_k = k as f64 / 2.0;
                sums.iter().map(|s| s.printed_score(half_k)).collect()
            }
            Some(rate) => sums.iter().map(|s| s.score(rate)).collect(),
        };
        if workspace.sink.is_enabled() && k > 0 && k < n {
            // The margin between the last selected and first rejected
            // score: the same deterministic ranking `from_scores` uses.
            let ranked = top_k_indices(&scores, k + 1);
            let margin = scores[ranked[k - 1]] - scores[ranked[k]];
            workspace.sink.emit(|| {
                npd_telemetry::Event::instant("greedy.scores")
                    .phase("greedy")
                    .u64("n", n as u64)
                    .u64("k", k as u64)
                    .f64("margin", margin)
            });
        }
        scores
    }

    /// The per-slot one-read rate the configured centering subtracts with
    /// (`None` for the plain `Δ*ᵢ·k/2` centering).
    fn resolved_rate(&self, run: &Run) -> Option<f64> {
        match self.centering {
            Centering::Plain => None,
            Centering::NoiseAware => Some(second_neighborhood_rate(
                run.instance().n(),
                run.instance().k(),
                run.instance().noise(),
            )),
        }
    }

    /// The noise-aware scores together with the posterior log-odds scores
    /// built from them in the same accumulation pass: the greedy
    /// neighborhood statistic folded with per-agent prior one-probabilities
    /// `πᵢ = P(σᵢ = 1)`. Callers that need only the posterior take `.1`.
    ///
    /// Algorithm 1 ranks by the centered neighborhood sum alone, which is
    /// the right rule only for an exchangeable (uniform `k`-subset) prior.
    /// Structured populations — community blocks, household clusters,
    /// heavy-tailed hubs (the `npd-workloads` models) — carry per-agent
    /// marginals, and the Bayes rule ranks by posterior log-odds instead.
    /// Under the Gaussian approximation to the noise-aware-centered score
    /// `Xᵢ` (means `Δᵢ·q` for zero-agents and `Δᵢ·(1−p)` for one-agents,
    /// common variance `vᵢ ≈ Δ*ᵢ·Var[σ̂]` estimated from the realized query
    /// results), the posterior log-odds are
    ///
    /// ```text
    /// λᵢ = ((Xᵢ − Δᵢ·q)·gᵢ − gᵢ²/2) / vᵢ + ln(πᵢ/(1−πᵢ)),   gᵢ = Δᵢ·(1−p−q)
    /// ```
    ///
    /// (`q = 0`, `g = Δᵢ` under the noiseless and Gaussian models). With a
    /// uniform prior and an agent-regular design (constant `Δᵢ`, `Δ*ᵢ`)
    /// this is a strictly monotone transform of the plain score, so the
    /// selection is unchanged; an informative prior shifts borderline
    /// agents by their prior log-odds, scaled by how little evidence the
    /// queries have accumulated on them. Prior-blind-vs-prior-aware
    /// comparisons need both rankings of the same run, hence both vectors
    /// from one `O(m·Γ)` accumulation.
    ///
    /// # Panics
    ///
    /// Panics if `prior.len() != n` or any `πᵢ ∉ [0, 1]`.
    pub fn scores_with_posterior(&self, run: &Run, prior: &[f64]) -> (Vec<f64>, Vec<f64>) {
        let n = run.instance().n();
        assert_eq!(
            prior.len(),
            n,
            "GreedyDecoder::scores_with_posterior: prior length must equal n"
        );
        let (p, q) = run.instance().noise().flip_rates();
        let signal = 1.0 - p - q;
        let rate = second_neighborhood_rate(n, run.instance().k(), run.instance().noise());
        let options = ScoreOptions {
            slot_rate: Some(rate),
            ..ScoreOptions::default()
        };
        let mut ws = GreedyWorkspace::new();
        let scores = self.scores_with(run, options, &mut ws);

        // Empirical per-query result variance: from any one agent's
        // viewpoint (conditioned on its own bit) a query result fluctuates
        // with both the channel noise and the second neighborhood, which is
        // exactly what the realized spread of σ̂ measures.
        let m = run.results().len().max(1) as f64;
        let mean = run.results().iter().sum::<f64>() / m;
        let var = (run
            .results()
            .iter()
            .map(|r| (r - mean).powi(2))
            .sum::<f64>()
            / m)
            .max(1e-9);

        let posterior = scores
            .iter()
            .zip(&ws.sums)
            .enumerate()
            .map(|(i, (&x, sums))| {
                let pi = prior[i];
                assert!(
                    (0.0..=1.0).contains(&pi),
                    "GreedyDecoder::scores_with_posterior: prior[{i}]={pi} not a probability"
                );
                let pi = pi.clamp(1e-12, 1.0 - 1e-12);
                let log_odds = (pi / (1.0 - pi)).ln();
                let multi = sums.multi as f64;
                let g = multi * signal;
                if g <= 0.0 {
                    // No own slots (or a fully inverting channel): the
                    // queries carry no evidence on this agent.
                    return log_odds;
                }
                let v = (f64::from(sums.distinct) * var).max(1e-12);
                ((x - multi * q) * g - 0.5 * g * g) / v + log_odds
            })
            .collect();
        (scores, posterior)
    }
}

/// How [`GreedyDecoder::scores_with`] treats each query result during the
/// fold.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub enum Fold<'a> {
    /// Every result as measured (Algorithm 1).
    #[default]
    Plain,
    /// Each result winsorized into its feasible range `[0, |∂aⱼ|]` before
    /// accumulation.
    ///
    /// A measurement legitimately reads at most one per slot, so clamping
    /// bounds the damage any single corrupted payload can do: every
    /// accumulated `Ψᵢ` stays within the clean-fold envelope
    /// `|Ψᵢ| ≤ Σ_{j∈∂*i} |∂aⱼ|`. The distributed protocol's agents apply
    /// the same clamp through the same kernel
    /// ([`crate::distributed::ProtocolOptions::winsorize`]), so on a
    /// fault-free network the two are bit-identical. Under the channel
    /// noise models clean results always lie inside the range, so
    /// winsorizing is a bit-identical no-op there; only the Gaussian model
    /// can legitimately graze the clamp.
    Winsorize,
    /// Queries flagged `true` (one entry per query) excluded from the
    /// accumulation entirely.
    ///
    /// An excluded query contributes *nothing* — neither its result nor
    /// its degree terms — so the centering of the surviving queries is
    /// undisturbed: the score of an agent is exactly what it would be had
    /// the flagged queries never been asked. Winsorizing caps what a
    /// corrupted measurement can contribute; trimming removes measurements
    /// known (or suspected) to be corrupted — see
    /// [`crate::estimation::flag_corrupted_queries`] for a data-driven
    /// flagger and [`crate::estimation::decode_trimmed`] for the assembled
    /// pipeline.
    Trim(&'a [bool]),
}

/// Options of [`GreedyDecoder::scores_with`]; the default reproduces
/// [`GreedyDecoder::scores`].
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct ScoreOptions<'a> {
    /// Center with the noise-aware score at this per-slot one-read rate,
    /// whatever the decoder's [`Centering`], instead of the rate derived
    /// from the model's `(p, q)` and `k`. For channel parameters that are
    /// *estimated* rather than known (see
    /// [`crate::estimation::estimate_slot_rate`] and, with a trimmed fold,
    /// [`crate::estimation::estimate_slot_rate_trimmed`]). `None` centers
    /// as the decoder is configured.
    pub slot_rate: Option<f64>,
    /// How each query result enters the accumulation.
    pub fold: Fold<'a>,
}

/// Reusable accumulator buffers for [`GreedyDecoder::scores_with`].
///
/// Holds one set of greedy sums per agent — the neighborhood sum `Ψᵢ`, the
/// distinct degree `Δ*ᵢ`, the multi-degree `Δᵢ` and the slot total
/// `Σ_{j∈∂*i} |∂aⱼ|` — so sweeping decoders do not reallocate them per
/// trial. These are the same per-agent sums the distributed protocol's
/// agents and [`crate::IncrementalSim`] keep, folded by the same code.
#[derive(Debug, Clone, Default)]
pub struct GreedyWorkspace {
    sums: Vec<ScoreAccumulator>,
    /// Telemetry handle (disabled by default): one `greedy.scores` event
    /// per scoring with the top-`k` selection margin.
    sink: npd_telemetry::TelemetrySink,
}

impl GreedyWorkspace {
    /// Creates an empty workspace (buffers grow on first use).
    pub fn new() -> Self {
        Self::default()
    }

    /// Attaches a telemetry sink. Each subsequent scoring records one
    /// `greedy.scores` event carrying the score `margin` between the
    /// `k`-th and `(k+1)`-th ranked agents — the selection's robustness
    /// reserve against noise and message corruption. Computed serially
    /// after the fold, so the stream is bit-identical across thread
    /// counts.
    pub fn set_telemetry(&mut self, sink: npd_telemetry::TelemetrySink) {
        self.sink = sink;
    }

    fn reset(&mut self, n: usize) {
        resize_fill(&mut self.sums, n, ScoreAccumulator::default());
    }
}

/// One agent's greedy sums and the scores formed from them: the single
/// fold kernel of Algorithm 1.
///
/// The sequential decoder ([`GreedyWorkspace`]), the incremental simulator
/// and the distributed protocol's agents all accumulate through this type,
/// so they compute the same scores by construction: the same expressions
/// in the same evaluation order.
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub(crate) struct ScoreAccumulator {
    /// Neighborhood sum `Ψᵢ` over the distinct queries containing the agent.
    psi: f64,
    /// Distinct degree `Δ*ᵢ`.
    distinct: u32,
    /// Multi-degree `Δᵢ` (the agent's slots, counting multiplicity).
    multi: u64,
    /// `Σ_{j∈∂*i} |∂aⱼ|` — total slots of the queries containing the agent
    /// (equals `Δ*ᵢ·Γ` on query-regular designs).
    slot_sum: u64,
}

impl ScoreAccumulator {
    /// A query result over `slots` slots as the fold takes it: with
    /// `winsorize`, clamped into `[0, slots]` (a true result counts ones
    /// over `slots` reads, so anything outside is noise or corruption, and
    /// clamping bounds its leverage on `Ψᵢ`); otherwise unchanged.
    #[inline]
    pub(crate) fn admit(result: f64, slots: u64, winsorize: bool) -> f64 {
        if winsorize {
            result.clamp(0.0, slots as f64)
        } else {
            result
        }
    }

    /// Folds one query containing the agent: its admitted result, the
    /// agent's multiplicity in it, and its total slot count.
    #[inline]
    pub(crate) fn fold(&mut self, value: f64, multiplicity: u64, slots: u64) {
        self.psi += value;
        self.distinct += 1;
        self.multi += multiplicity;
        self.slot_sum += slots;
    }

    /// The noise-aware score `Ψᵢ − (Σ_{j∈∂*i}|∂aⱼ| − Δᵢ)·rate`
    /// ([`Centering::NoiseAware`]).
    #[inline]
    pub(crate) fn score(&self, rate: f64) -> f64 {
        let slots = (self.slot_sum - self.multi) as f64;
        self.psi - slots * rate
    }

    /// The printed score `Ψᵢ − Δ*ᵢ·k/2` ([`Centering::Plain`]), given `k/2`.
    #[inline]
    pub(crate) fn printed_score(&self, half_k: f64) -> f64 {
        self.psi - self.distinct as f64 * half_k
    }

    /// `Ψᵢ`.
    pub(crate) fn psi(&self) -> f64 {
        self.psi
    }

    /// `Δ*ᵢ`.
    pub(crate) fn distinct(&self) -> u32 {
        self.distinct
    }

    /// `Δᵢ`.
    pub(crate) fn multi(&self) -> u64 {
        self.multi
    }
}

/// Probability that one second-neighborhood slot reads as a one:
/// `q + k(1−p−q)/(n−1)` (Lemma 7's `p(0,1) + p(1,1)` with the indicator
/// dropped).
pub(crate) fn second_neighborhood_rate(n: usize, k: usize, noise: &crate::NoiseModel) -> f64 {
    let (p, q) = noise.flip_rates();
    q + k as f64 * (1.0 - p - q) / (n as f64 - 1.0)
}

impl Decoder for GreedyDecoder {
    fn decode(&self, run: &Run) -> Estimate {
        Estimate::from_scores(self.scores(run), run.instance().k())
    }

    fn name(&self) -> &'static str {
        "greedy"
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::model::{GroundTruth, Instance};
    use crate::noise::NoiseModel;
    use crate::PoolingGraph;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    fn noiseless_run(n: usize, k: usize, m: usize, seed: u64) -> Run {
        Instance::builder(n)
            .k(k)
            .queries(m)
            .build()
            .unwrap()
            .sample(&mut StdRng::seed_from_u64(seed))
    }

    #[test]
    fn estimate_from_scores_selects_top_k() {
        let est = Estimate::from_scores(vec![1.0, 5.0, 3.0, 5.0], 2);
        assert_eq!(est.ones(), &[1, 3]);
        assert_eq!(est.bits(), &[false, true, false, true]);
        assert_eq!(est.k(), 2);
        assert_eq!(est.n(), 4);
    }

    #[test]
    fn noiseless_recovery_with_generous_queries() {
        // Well above the Theorem-1 budget: recovery must be exact.
        for seed in 0..5 {
            let run = noiseless_run(300, 4, 400, seed);
            let est = GreedyDecoder::new().decode(&run);
            assert_eq!(est.ones(), run.ground_truth().ones(), "seed={seed} failed");
        }
    }

    #[test]
    fn z_channel_recovery_with_generous_queries() {
        let mut rng = StdRng::seed_from_u64(11);
        let run = Instance::builder(300)
            .k(4)
            .queries(600)
            .noise(NoiseModel::z_channel(0.2))
            .build()
            .unwrap()
            .sample(&mut rng);
        let est = GreedyDecoder::new().decode(&run);
        assert_eq!(est.ones(), run.ground_truth().ones());
    }

    #[test]
    fn too_few_queries_fail() {
        // With m = 1 query there is not enough information; the decoder
        // still returns a weight-k estimate but it is (almost surely) wrong.
        let run = noiseless_run(1000, 10, 1, 3);
        let est = GreedyDecoder::new().decode(&run);
        assert_eq!(est.k(), 10);
        assert_ne!(est.ones(), run.ground_truth().ones());
    }

    #[test]
    fn scores_reflect_ground_truth_gap() {
        // Average score of one-agents must exceed that of zero-agents by
        // Δ·(1 − γ) in the noiseless case: the agent's own bit adds Δ
        // (Equation (2) with p = q = 0), while the second neighborhood of a
        // one-agent contains k−1 rather than k ones, which removes
        // n_j/(n−1) ≈ γ·Δ at finite sizes.
        let run = noiseless_run(400, 5, 300, 7);
        let scores = GreedyDecoder::new().scores(&run);
        let truth = run.ground_truth();
        let (mut sum1, mut sum0) = (0.0, 0.0);
        for (i, &s) in scores.iter().enumerate() {
            if truth.is_one(i) {
                sum1 += s;
            } else {
                sum0 += s;
            }
        }
        let mean1 = sum1 / truth.k() as f64;
        let mean0 = sum0 / (truth.n() - truth.k()) as f64;
        let gap = mean1 - mean0;
        let delta = 300.0 / 2.0;
        let want = delta * (1.0 - npd_theory::GAMMA);
        assert!(
            (gap - want).abs() < want * 0.2,
            "gap={gap}, expected ≈ {want}"
        );
    }

    #[test]
    fn decode_on_figure1_instance() {
        // Figure 1 is an illustrative five-query instance, not a decodable
        // one: with Γ = 3 slots the neighborhood sums cannot separate all
        // three one-agents. The decoder must still rank the two strongly
        // covered one-agents (0 and 2) on top.
        let (graph, truth) = PoolingGraph::figure1_example();
        let instance = Instance::builder(7)
            .k(3)
            .queries(5)
            .query_size(3)
            .build()
            .unwrap();
        let mut rng = StdRng::seed_from_u64(0);
        let results = graph.measure(&truth, &NoiseModel::Noiseless, &mut rng);
        let run = instance.assemble(truth, graph, results).unwrap();
        let est = GreedyDecoder::new().decode(&run);
        assert!(est.ones().contains(&0));
        assert!(est.ones().contains(&2));
        assert_eq!(est.k(), 3);
        // And the overlap metric sees at least 2 of the 3 ones.
        assert!(crate::evaluate::overlap(&est, run.ground_truth()) >= 2.0 / 3.0);
    }

    #[test]
    fn decoder_name() {
        assert_eq!(GreedyDecoder::new().name(), "greedy");
    }

    #[test]
    fn workspace_reuse_is_bit_identical_to_one_shot() {
        let decoder = GreedyDecoder::new();
        let mut ws = GreedyWorkspace::new();
        // Different sizes through one workspace, including shrinking.
        for (n, seed) in [(300usize, 0u64), (150, 1), (300, 2)] {
            let run = noiseless_run(n, 4, 250, seed);
            let fresh = decoder.scores(&run);
            let reused = decoder.scores_with(&run, ScoreOptions::default(), &mut ws);
            assert!(
                fresh
                    .iter()
                    .zip(&reused)
                    .all(|(a, b)| a.to_bits() == b.to_bits()),
                "n={n} seed={seed}"
            );
        }
    }

    #[test]
    fn plain_centering_matches_printed_formula() {
        // Hand-check Algorithm 1's literal score Ψᵢ − Δ*ᵢ·k/2 on Figure 1.
        let (graph, truth) = PoolingGraph::figure1_example();
        let instance = Instance::builder(7)
            .k(3)
            .queries(5)
            .query_size(3)
            .build()
            .unwrap();
        let mut rng = StdRng::seed_from_u64(0);
        let results = graph.measure(&truth, &NoiseModel::Noiseless, &mut rng);
        let run = instance.assemble(truth, graph, results).unwrap();
        let scores = GreedyDecoder::with_centering(Centering::Plain).scores(&run);
        // Agent 0: Ψ = 2+3 = 5, Δ* = 2 ⇒ 5 − 2·1.5 = 2.
        assert_eq!(scores[0], 2.0);
        // Agent 2: Ψ = 2+3+1 = 6, Δ* = 3 ⇒ 6 − 4.5 = 1.5.
        assert_eq!(scores[2], 1.5);
    }

    #[test]
    fn centerings_coincide_for_noiseless_ranking() {
        // With p = q = 0 both centerings subtract (asymptotically) the same
        // k/2-per-distinct-query term; on a concrete instance the *ranking*
        // must agree even if raw scores differ slightly.
        let run = noiseless_run(300, 4, 300, 42);
        let aware = GreedyDecoder::new().decode(&run);
        let plain = GreedyDecoder::with_centering(Centering::Plain).decode(&run);
        assert_eq!(aware.ones(), plain.ones());
    }

    #[test]
    fn noise_aware_centering_is_required_for_false_positives() {
        // The ablation behind DESIGN.md's centering discussion: at q = 0.1
        // the printed score fails long after the noise-aware score succeeds.
        let mut aware_hits = 0;
        let mut plain_hits = 0;
        let trials = 5;
        for seed in 0..trials {
            let mut rng = StdRng::seed_from_u64(900 + seed);
            let run = Instance::builder(316)
                .k(4)
                .queries(1500)
                .noise(NoiseModel::channel(0.1, 0.1))
                .build()
                .unwrap()
                .sample(&mut rng);
            let aware = GreedyDecoder::new().decode(&run);
            let plain = GreedyDecoder::with_centering(Centering::Plain).decode(&run);
            if aware.ones() == run.ground_truth().ones() {
                aware_hits += 1;
            }
            if plain.ones() == run.ground_truth().ones() {
                plain_hits += 1;
            }
        }
        assert!(
            aware_hits > plain_hits,
            "noise-aware {aware_hits}/{trials} vs plain {plain_hits}/{trials}"
        );
        assert!(aware_hits >= 4, "noise-aware centering should succeed here");
    }

    fn folded(run: &Run, fold: Fold<'_>) -> Vec<f64> {
        let options = ScoreOptions {
            fold,
            ..ScoreOptions::default()
        };
        GreedyDecoder::new().scores_with(run, options, &mut GreedyWorkspace::new())
    }

    /// Rebuilds `run` with the given (e.g. tampered) result vector.
    fn with_results(run: &Run, results: Vec<f64>) -> Run {
        run.instance()
            .assemble(run.ground_truth().clone(), run.graph().clone(), results)
            .unwrap()
    }

    #[test]
    fn winsorized_scores_are_a_noop_on_channel_runs() {
        // Channel-model results always lie in [0, slots], so winsorizing
        // must not move a single bit.
        let run = noiseless_run(200, 3, 150, 9);
        let decoder = GreedyDecoder::new();
        let raw = decoder.scores(&run);
        let win = folded(&run, Fold::Winsorize);
        assert!(raw
            .iter()
            .zip(&win)
            .all(|(a, b)| a.to_bits() == b.to_bits()));
    }

    #[test]
    fn winsorized_scores_clamp_out_of_range_results() {
        let run = noiseless_run(200, 3, 150, 10);
        let mut tampered = run.results().to_vec();
        tampered[7] = 1e6; // way beyond any slot count
        tampered[11] = -250.0; // below the floor
        let bad = with_results(&run, tampered.clone());

        let decoder = GreedyDecoder::new();
        let win = folded(&bad, Fold::Winsorize);
        assert_ne!(win, decoder.scores(&bad), "clamp never engaged");

        // Winsorizing is exactly "clamp first, then fold": pre-clamping the
        // results by hand and running the plain fold must agree bit for bit.
        let queries = run.graph().queries();
        for (j, v) in tampered.iter_mut().enumerate() {
            *v = v.clamp(0.0, queries[j].total_slots() as f64);
        }
        let clamped = decoder.scores(&with_results(&run, tampered));
        assert!(win
            .iter()
            .zip(&clamped)
            .all(|(a, b)| a.to_bits() == b.to_bits()));
    }

    #[test]
    fn trimmed_scores_ignore_excluded_queries() {
        let run = noiseless_run(200, 3, 150, 12);
        let decoder = GreedyDecoder::new();
        let m = run.results().len();

        // An all-clear mask is the identity.
        let all_clear = folded(&run, Fold::Trim(&vec![false; m]));
        assert!(decoder
            .scores(&run)
            .iter()
            .zip(&all_clear)
            .all(|(a, b)| a.to_bits() == b.to_bits()));

        // An excluded query's payload is irrelevant: garbling it arbitrarily
        // must not move the trimmed scores at all.
        let mut exclude = vec![false; m];
        exclude[3] = true;
        exclude[77] = true;
        let clean = folded(&run, Fold::Trim(&exclude));
        let mut tampered = run.results().to_vec();
        tampered[3] = f64::MAX / 4.0;
        tampered[77] = -1e9;
        let garbled = folded(&with_results(&run, tampered), Fold::Trim(&exclude));
        assert!(clean
            .iter()
            .zip(&garbled)
            .all(|(a, b)| a.to_bits() == b.to_bits()));
        // And trimming two of 150 generous queries must not break recovery.
        let est = Estimate::from_scores(clean, run.instance().k());
        assert_eq!(est.ones(), run.ground_truth().ones());
    }

    #[test]
    #[should_panic(expected = "exclusion mask length")]
    fn trimmed_scores_reject_wrong_mask_length() {
        let run = noiseless_run(50, 2, 40, 1);
        folded(&run, Fold::Trim(&[false; 3]));
    }

    #[test]
    fn decoder_is_object_safe() {
        let decoders: Vec<Box<dyn Decoder>> = vec![Box::new(GreedyDecoder::new())];
        let run = noiseless_run(100, 2, 80, 0);
        for d in &decoders {
            let est = d.decode(&run);
            assert_eq!(est.k(), 2);
        }
    }

    mod property {
        use super::*;
        use proptest::prelude::*;

        proptest! {
            /// Estimate invariants hold for arbitrary score vectors.
            #[test]
            fn estimate_invariants(
                scores in proptest::collection::vec(-100.0f64..100.0, 1..60),
                pick in 0usize..60,
            ) {
                let k = pick % scores.len();
                let est = Estimate::from_scores(scores.clone(), k);
                prop_assert_eq!(est.k(), k);
                prop_assert_eq!(est.n(), scores.len());
                prop_assert!(est.ones().windows(2).all(|w| w[0] < w[1]));
                prop_assert_eq!(
                    est.bits().iter().filter(|&&b| b).count(),
                    k
                );
                // Every selected agent scores at least as high as every
                // unselected one.
                let min_sel = est
                    .ones()
                    .iter()
                    .map(|&i| scores[i as usize])
                    .fold(f64::INFINITY, f64::min);
                let max_unsel = est
                    .bits()
                    .iter()
                    .enumerate()
                    .filter(|(_, &b)| !b)
                    .map(|(i, _)| scores[i])
                    .fold(f64::NEG_INFINITY, f64::max);
                if k > 0 && k < scores.len() {
                    prop_assert!(min_sel >= max_unsel);
                }
            }

            /// Decoding always returns a weight-k estimate, whatever the
            /// noise realization.
            #[test]
            fn decode_weight_is_k(seed in 0u64..150, m in 1usize..40) {
                let run = Instance::builder(50)
                    .k(3)
                    .queries(m)
                    .noise(NoiseModel::gaussian(2.0))
                    .build()
                    .unwrap()
                    .sample(&mut StdRng::seed_from_u64(seed));
                let est = GreedyDecoder::new().decode(&run);
                prop_assert_eq!(est.k(), 3);
                prop_assert_eq!(est.scores().len(), 50);
            }
        }
    }

    #[test]
    fn permutation_equivariance() {
        // Relabeling agents permutes the estimate identically: decode on a
        // graph with relabeled agents and compare.
        let n = 60;
        let mut rng = StdRng::seed_from_u64(21);
        let instance = Instance::builder(n).k(3).queries(40).build().unwrap();
        let run = instance.sample(&mut rng);

        // Build the relabeled run: agent i -> (i + 7) mod n.
        let shift = |a: u32| ((a as usize + 7) % n) as u32;
        let slot_lists: Vec<Vec<u32>> = run
            .graph()
            .queries()
            .iter()
            .map(|q| {
                let mut slots = Vec::new();
                for (agent, count) in q.iter() {
                    for _ in 0..count {
                        slots.push(shift(agent));
                    }
                }
                slots
            })
            .collect();
        let graph2 = PoolingGraph::from_slot_lists(n, slot_lists);
        let mut bits2 = vec![false; n];
        for &o in run.ground_truth().ones() {
            bits2[shift(o) as usize] = true;
        }
        let truth2 = GroundTruth::from_bits(bits2);
        let run2 = instance
            .assemble(truth2, graph2, run.results().to_vec())
            .unwrap();

        let est1 = GreedyDecoder::new().decode(&run);
        let est2 = GreedyDecoder::new().decode(&run2);
        let mut mapped: Vec<u32> = est1.ones().iter().map(|&a| shift(a)).collect();
        mapped.sort_unstable();
        assert_eq!(mapped, est2.ones());
    }
}
