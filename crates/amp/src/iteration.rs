//! The AMP iteration and the [`npd_core::Decoder`] adapter.

use crate::denoiser::{BayesBernoulli, Denoiser, SoftThreshold};
use crate::preprocess::{prepare, Prepared};
use npd_core::{Decoder, Estimate, Run};
use npd_numerics::vector;
use npd_numerics::vector::resize_fill;
use npd_telemetry::{Event, TelemetrySink};
use serde::{Deserialize, Serialize};

/// Which denoiser family the [`AmpDecoder`] instantiates per run.
///
/// The Bayes posterior mean is the natural (and default) choice for the
/// known `Bernoulli(k/n)` prior; the soft threshold is the original
/// compressed-sensing denoiser, kept for ablation — it ignores the prior
/// weight and therefore needs noticeably more measurements on this problem.
#[derive(Debug, Clone, Copy, Default, PartialEq, Serialize, Deserialize)]
pub enum DenoiserKind {
    /// Posterior mean under `Bernoulli(k/n)` (default).
    #[default]
    BayesBernoulli,
    /// Soft threshold at `α·τ`.
    SoftThreshold {
        /// Threshold multiplier α.
        alpha: f64,
    },
}

/// Tuning knobs of the AMP iteration.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct AmpConfig {
    /// Maximum number of iterations.
    pub max_iterations: usize,
    /// Convergence threshold on `‖x_{t+1} − x_t‖∞`.
    pub tolerance: f64,
    /// Damping `d ∈ [0, 1)`: `x ← (1−d)·x_new + d·x_old`. `0` is the pure
    /// DMM iteration; small damping stabilizes borderline instances.
    pub damping: f64,
    /// Whether the Onsager memory term `b·z_{t−1}` is included (default
    /// `true`). Disabling it yields plain iterative thresholding — the
    /// ablation behind DESIGN.md's reading of the paper's update equation;
    /// without the term the effective noise is misestimated and the
    /// transition degrades markedly.
    pub onsager: bool,
}

impl Default for AmpConfig {
    fn default() -> Self {
        Self {
            max_iterations: 60,
            tolerance: 1e-8,
            damping: 0.0,
            onsager: true,
        }
    }
}

/// Full trace of an AMP solve.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct AmpOutput {
    /// Final signal estimate (posterior means in `[0, 1]` for the Bayes
    /// denoiser).
    pub estimate: Vec<f64>,
    /// Iterations executed.
    pub iterations: usize,
    /// Whether the tolerance was reached before the iteration cap.
    pub converged: bool,
    /// Effective-noise estimates `τ_t² = ‖z_t‖²/m` per iteration.
    pub tau2_history: Vec<f64>,
}

/// Reusable buffers for the AMP iteration.
///
/// One solve needs six working vectors (`x`, `x_new`, `z`, `z_new`, `v`,
/// `bx`); allocating them per call dominated small-instance decode time in
/// the Monte-Carlo sweeps. A workspace is resized on first use and reused
/// across repeated solves of the same shape without touching the
/// allocator. [`run_amp_with`] is the one entry point; a reused workspace
/// gives output bit-identical to a fresh one by construction (same
/// operations in the same order, only the backing storage differs).
#[derive(Debug, Clone, Default)]
pub struct AmpWorkspace {
    x: Vec<f64>,
    x_new: Vec<f64>,
    z: Vec<f64>,
    z_new: Vec<f64>,
    v: Vec<f64>,
    bx: Vec<f64>,
    /// Telemetry handle (disabled by default): one `amp.iter` event per
    /// iteration with the effective noise τ² and the update delta.
    sink: TelemetrySink,
}

impl AmpWorkspace {
    /// Creates an empty workspace (buffers grow on first solve).
    pub fn new() -> Self {
        Self::default()
    }

    /// Attaches a telemetry sink. Each subsequent solve records one
    /// `amp.iter` event per iteration (round = iteration index) carrying
    /// `tau2` (the empirical state-evolution statistic `‖z‖²/m`) and
    /// `delta` (`‖x_{t+1} − x_t‖∞`). Recorded from the serial iteration
    /// boundary, so the stream is bit-identical across thread counts.
    pub fn set_telemetry(&mut self, sink: TelemetrySink) {
        self.sink = sink;
    }

    fn prepare(&mut self, m: usize, n: usize, y: &[f64]) {
        resize_fill(&mut self.x, n, 0.0);
        resize_fill(&mut self.x_new, n, 0.0);
        resize_fill(&mut self.v, n, 0.0);
        resize_fill(&mut self.bx, m, 0.0);
        self.z.clear();
        self.z.extend_from_slice(y);
        resize_fill(&mut self.z_new, m, 0.0);
    }
}

/// Runs AMP on a prepared problem with the given denoiser, reusing the
/// caller's workspace buffers.
///
/// Output does not depend on the workspace's history; repeated calls on
/// problems of the same shape perform no per-call heap allocation beyond
/// the returned [`AmpOutput`].
///
/// # Panics
///
/// Panics if the prepared observation vector length does not match the
/// matrix row count.
pub fn run_amp_with<D: Denoiser>(
    prep: &Prepared,
    denoiser: &D,
    config: &AmpConfig,
    ws: &mut AmpWorkspace,
) -> AmpOutput {
    let m = prep.matrix.rows();
    let n = prep.matrix.cols();
    assert_eq!(
        prep.observations.len(),
        m,
        "run_amp_with: observations/matrix mismatch"
    );

    let y = &prep.observations;
    ws.prepare(m, n, y);
    let mut tau2_history = Vec::new();
    let mut iterations = 0;
    let mut converged = false;

    for _ in 0..config.max_iterations {
        iterations += 1;
        // Pseudo-observations v = Bᵀz + x and effective noise τ².
        prep.matrix.matvec_t_into(&ws.z, &mut ws.v);
        vector::axpy(1.0, &ws.x, &mut ws.v);
        let tau2 = vector::norm2_sq(&ws.z) / m as f64;
        tau2_history.push(tau2);

        // Denoise and compute the Onsager coefficient b = (1/m)Σ η'(v).
        let mut deriv_sum = 0.0;
        for (xn, &vi) in ws.x_new.iter_mut().zip(&ws.v) {
            *xn = denoiser.eta(vi, tau2);
            deriv_sum += denoiser.eta_prime(vi, tau2);
        }
        let onsager = if config.onsager {
            deriv_sum / m as f64
        } else {
            0.0
        };

        if config.damping > 0.0 {
            for (xn, &xo) in ws.x_new.iter_mut().zip(&ws.x) {
                *xn = (1.0 - config.damping) * *xn + config.damping * xo;
            }
        }

        // Residual with memory: z = y − B·x_new + b·z_prev.
        prep.matrix.matvec_into(&ws.x_new, &mut ws.bx);
        ws.z_new.clear();
        ws.z_new.extend_from_slice(y);
        vector::axpy(-1.0, &ws.bx, &mut ws.z_new);
        vector::axpy(onsager, &ws.z, &mut ws.z_new);

        let delta = vector::max_abs_diff(&ws.x_new, &ws.x);
        std::mem::swap(&mut ws.x, &mut ws.x_new);
        std::mem::swap(&mut ws.z, &mut ws.z_new);
        ws.sink.emit(|| {
            Event::instant("amp.iter")
                .phase("amp")
                .round(iterations as u64 - 1)
                .f64("tau2", tau2)
                .f64("delta", delta)
        });
        if delta < config.tolerance {
            converged = true;
            break;
        }
    }

    AmpOutput {
        estimate: ws.x.clone(),
        iterations,
        converged,
        tau2_history,
    }
}

/// AMP as a drop-in [`Decoder`]: prepares the run, iterates with the
/// Bayes-Bernoulli denoiser at prior `k/n`, and thresholds by rank (the top
/// `k` posterior means become ones — the same success criterion as the
/// greedy algorithm).
///
/// # Examples
///
/// ```
/// use npd_amp::{AmpConfig, AmpDecoder};
///
/// let decoder = AmpDecoder::new(AmpConfig { max_iterations: 40, ..AmpConfig::default() });
/// assert_eq!(decoder.config().max_iterations, 40);
/// ```
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct AmpDecoder {
    config: AmpConfig,
    denoiser: DenoiserKind,
}

impl AmpDecoder {
    /// Creates a decoder with an explicit configuration and the default
    /// Bayes-Bernoulli denoiser.
    pub fn new(config: AmpConfig) -> Self {
        Self {
            config,
            denoiser: DenoiserKind::default(),
        }
    }

    /// Selects the denoiser family (see [`DenoiserKind`]).
    pub fn with_denoiser(mut self, denoiser: DenoiserKind) -> Self {
        self.denoiser = denoiser;
        self
    }

    /// The iteration configuration.
    pub fn config(&self) -> &AmpConfig {
        &self.config
    }

    /// The selected denoiser family.
    pub fn denoiser(&self) -> DenoiserKind {
        self.denoiser
    }

    /// Decodes and returns the full iteration trace alongside the estimate
    /// (use [`Decoder::decode`] when only the bits matter).
    pub fn decode_with_trace(&self, run: &Run) -> (Estimate, AmpOutput) {
        let mut workspace = AmpWorkspace::new();
        self.decode_with_trace_using(run, &mut workspace)
    }

    /// [`AmpDecoder::decode_with_trace`] reusing the caller's workspace:
    /// repeated decodes on same-shaped runs skip the per-call buffer
    /// allocations. Output is identical to the one-shot path.
    pub fn decode_with_trace_using(
        &self,
        run: &Run,
        workspace: &mut AmpWorkspace,
    ) -> (Estimate, AmpOutput) {
        let prep = prepare(run);
        let output = match self.denoiser {
            DenoiserKind::BayesBernoulli => {
                let denoiser = BayesBernoulli::new(prep.prior.clamp(1e-9, 1.0 - 1e-9));
                run_amp_with(&prep, &denoiser, &self.config, workspace)
            }
            DenoiserKind::SoftThreshold { alpha } => {
                let denoiser = SoftThreshold::new(alpha);
                run_amp_with(&prep, &denoiser, &self.config, workspace)
            }
        };
        let estimate = Estimate::from_scores(output.estimate.clone(), run.instance().k());
        (estimate, output)
    }
}

impl Decoder for AmpDecoder {
    fn decode(&self, run: &Run) -> Estimate {
        self.decode_with_trace(run).0
    }

    fn name(&self) -> &'static str {
        "amp"
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use npd_core::{exact_recovery, overlap, GreedyDecoder, Instance, NoiseModel};
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    fn sample(n: usize, k: usize, m: usize, noise: NoiseModel, seed: u64) -> Run {
        Instance::builder(n)
            .k(k)
            .queries(m)
            .noise(noise)
            .build()
            .unwrap()
            .sample(&mut StdRng::seed_from_u64(seed))
    }

    #[test]
    fn recovers_noiseless_instance() {
        for seed in 0..3 {
            let run = sample(500, 5, 300, NoiseModel::Noiseless, seed);
            let est = AmpDecoder::default().decode(&run);
            assert!(
                exact_recovery(&est, run.ground_truth()),
                "seed={seed}: overlap {}",
                overlap(&est, run.ground_truth())
            );
        }
    }

    #[test]
    fn recovers_z_channel_instance() {
        let run = sample(500, 5, 400, NoiseModel::z_channel(0.1), 11);
        let est = AmpDecoder::default().decode(&run);
        assert!(exact_recovery(&est, run.ground_truth()));
    }

    #[test]
    fn recovers_gaussian_noise_instance() {
        let run = sample(500, 5, 400, NoiseModel::gaussian(1.0), 12);
        let est = AmpDecoder::default().decode(&run);
        assert!(exact_recovery(&est, run.ground_truth()));
    }

    #[test]
    fn tau_decreases_on_easy_instances() {
        let run = sample(500, 5, 400, NoiseModel::Noiseless, 13);
        let (_, trace) = AmpDecoder::default().decode_with_trace(&run);
        let first = trace.tau2_history[0];
        let last = *trace.tau2_history.last().unwrap();
        assert!(last < first * 0.1, "τ² did not shrink: {first} → {last}");
    }

    #[test]
    fn converges_within_budget_on_easy_instances() {
        let run = sample(400, 4, 300, NoiseModel::Noiseless, 14);
        let (_, trace) = AmpDecoder::default().decode_with_trace(&run);
        assert!(trace.converged, "iterations={}", trace.iterations);
    }

    #[test]
    fn estimates_are_posterior_means() {
        let run = sample(300, 3, 200, NoiseModel::z_channel(0.2), 15);
        let (_, trace) = AmpDecoder::default().decode_with_trace(&run);
        assert!(trace
            .estimate
            .iter()
            .all(|&x| (-1e-9..=1.0 + 1e-9).contains(&x)));
    }

    #[test]
    fn damping_still_recovers() {
        let run = sample(400, 4, 300, NoiseModel::Noiseless, 16);
        let decoder = AmpDecoder::new(AmpConfig {
            damping: 0.3,
            ..AmpConfig::default()
        });
        let est = decoder.decode(&run);
        assert!(exact_recovery(&est, run.ground_truth()));
    }

    #[test]
    fn beats_or_matches_greedy_between_the_thresholds() {
        // Figure 6's key qualitative claim: AMP's transition sits at (or
        // below) the greedy transition, so in the window between them AMP
        // succeeds more often. Compare success counts over seeds at a query
        // budget chosen inside that window.
        let trials = 10;
        let mut amp_wins = 0;
        let mut greedy_wins = 0;
        for seed in 0..trials {
            let run = sample(1000, 6, 220, NoiseModel::z_channel(0.1), 500 + seed);
            if exact_recovery(&AmpDecoder::default().decode(&run), run.ground_truth()) {
                amp_wins += 1;
            }
            if exact_recovery(&GreedyDecoder::new().decode(&run), run.ground_truth()) {
                greedy_wins += 1;
            }
        }
        assert!(
            amp_wins >= greedy_wins,
            "AMP {amp_wins}/{trials} vs greedy {greedy_wins}/{trials}"
        );
    }

    #[test]
    fn decoder_name() {
        assert_eq!(AmpDecoder::default().name(), "amp");
    }

    #[test]
    fn workspace_reuse_is_bit_identical_to_one_shot() {
        let decoder = AmpDecoder::default();
        let mut ws = AmpWorkspace::new();
        // Decode several different runs with one workspace; every trace
        // must equal the corresponding one-shot decode exactly.
        for seed in 0..4 {
            let run = sample(300, 4, 220, NoiseModel::z_channel(0.1), 40 + seed);
            let (est_fresh, out_fresh) = decoder.decode_with_trace(&run);
            let (est_reuse, out_reuse) = decoder.decode_with_trace_using(&run, &mut ws);
            assert_eq!(est_fresh, est_reuse, "seed={seed}");
            assert_eq!(out_fresh, out_reuse, "seed={seed}");
        }
    }

    #[test]
    fn onsager_term_is_load_bearing() {
        // The ablation behind DESIGN.md's note on the paper's update
        // equation: dropping the b·z_{t−1} memory term turns AMP into plain
        // iterative thresholding, whose transition sits at substantially
        // more measurements. Near AMP's own threshold the difference is
        // stark.
        let no_onsager = AmpDecoder::new(AmpConfig {
            onsager: false,
            ..AmpConfig::default()
        });
        // m = 60 sits just above AMP's transition (~50 for this config) but
        // far below plain iterative thresholding's (> 100): measured gap is
        // ≈ 11/12 vs ≈ 1/12 across seeds.
        let mut with_ok = 0;
        let mut without_ok = 0;
        let trials = 8;
        for seed in 0..trials {
            let run = sample(1000, 6, 60, NoiseModel::z_channel(0.1), 800 + seed);
            if exact_recovery(&AmpDecoder::default().decode(&run), run.ground_truth()) {
                with_ok += 1;
            }
            if exact_recovery(&no_onsager.decode(&run), run.ground_truth()) {
                without_ok += 1;
            }
        }
        assert!(
            with_ok >= without_ok + 3,
            "Onsager {with_ok}/{trials} vs none {without_ok}/{trials}"
        );
    }

    #[test]
    fn soft_threshold_variant_runs_and_is_weaker() {
        // The prior-blind soft threshold is the ablation: it must still
        // produce valid estimates, and on a borderline instance the Bayes
        // denoiser should succeed at least as often across seeds.
        let soft = AmpDecoder::default().with_denoiser(DenoiserKind::SoftThreshold { alpha: 2.0 });
        assert_eq!(soft.denoiser(), DenoiserKind::SoftThreshold { alpha: 2.0 });
        let mut bayes_ok = 0;
        let mut soft_ok = 0;
        let trials = 6;
        for seed in 0..trials {
            let run = sample(600, 5, 120, NoiseModel::z_channel(0.1), 700 + seed);
            if exact_recovery(&AmpDecoder::default().decode(&run), run.ground_truth()) {
                bayes_ok += 1;
            }
            let est = soft.decode(&run);
            assert_eq!(est.k(), 5);
            if exact_recovery(&est, run.ground_truth()) {
                soft_ok += 1;
            }
        }
        assert!(
            bayes_ok >= soft_ok,
            "bayes {bayes_ok}/{trials} vs soft {soft_ok}/{trials}"
        );
    }

    #[test]
    fn object_safe_alongside_greedy() {
        let decoders: Vec<Box<dyn Decoder>> = vec![
            Box::new(GreedyDecoder::new()),
            Box::new(AmpDecoder::default()),
        ];
        let run = sample(200, 2, 150, NoiseModel::Noiseless, 20);
        for d in decoders {
            assert_eq!(d.decode(&run).k(), 2);
        }
    }
}
