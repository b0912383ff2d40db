//! Matrix-AMP for categorical pooled data (Tan, Pascual Cobo, Scarlett,
//! Venkataramanan 2023).
//!
//! The hidden signal is the one-hot matrix `X ∈ {0,1}^{n×d}` (row `i` is
//! `e_c` when agent `i` has category `c`) and the preprocessed problem is
//! `Ỹ = B·X + W` with the same centered/scaled `B` as the binary decoder,
//! applied column-by-column. The iteration generalizes the scalar one with
//! matrix-valued state:
//!
//! ```text
//! V_t     = Bᵀ·Z_t + X_t                      (n×d pseudo-observations)
//! T_t     = Z_tᵀ·Z_t / m                      (d×d effective noise)
//! X_{t+1} = η(V_t; T_t)    row-wise            (Bayes simplex denoiser)
//! C_t     = (1/m)·Σᵢ ∂η/∂v(v_{t,i})           (d×d Onsager coefficient)
//! Z_{t+1} = Ỹ − B·X_{t+1} + Z_t·C_t
//! ```
//!
//! At `d = 1` every matrix collapses to a scalar and the recursion is the
//! binary iteration of the `iteration` module verbatim.
//!
//! # Rank deficiency and the ridge
//!
//! On query-regular designs `B·1_n = 0` exactly, and the one-hot rows
//! satisfy `X·1_d = 1`; the `d` columns of `B·X` are therefore linearly
//! dependent and `T_t` is singular along the all-ones direction in the
//! noiseless limit. Both the decoder and the matrix state-evolution
//! recursion regularize identically — `T⁻¹` is computed as
//! `(T + ridge·(1 + tr(T)/d)·I)⁻¹` — so the empirical iterates and the SE
//! prediction see the *same* denoiser and stay comparable (the
//! `tests/se_agreement.rs` harness pins that agreement).

use crate::denoiser::BayesSimplex;
use crate::preprocess::CategoricalPrepared;
use npd_numerics::{linalg, Matrix};

/// Configuration of the matrix-AMP iteration.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct MatrixAmpConfig {
    /// Maximum iterations.
    pub max_iterations: usize,
    /// Early-stop threshold on `max |X_{t+1} − X_t|`; set to `0.0` to run
    /// exactly `max_iterations` iterations (as the SE-agreement harness
    /// does).
    pub tolerance: f64,
    /// Relative ridge added to `T_t` before inversion (see the module
    /// docs); the matrix SE recursion must use the same value.
    pub ridge: f64,
    /// Whether to apply the Onsager memory term (disabling it degrades the
    /// iteration to matrix IST; kept for ablation parity with the binary
    /// config).
    pub onsager: bool,
}

impl Default for MatrixAmpConfig {
    fn default() -> Self {
        Self {
            max_iterations: 50,
            tolerance: 1e-8,
            ridge: 1e-6,
            onsager: true,
        }
    }
}

/// Result of a matrix-AMP run.
#[derive(Debug, Clone)]
pub struct MatrixAmpOutput {
    /// Posterior category means, one row per agent (rows sum to 1).
    pub estimate: Matrix,
    /// Hard labels: per-row argmax of the posterior (first maximum wins).
    pub labels: Vec<u8>,
    /// Iterations performed.
    pub iterations: usize,
    /// Whether the early-stop tolerance was reached.
    pub converged: bool,
    /// The effective-noise estimate `T_t = Z_tᵀZ_t/m` entering each
    /// iteration, in order.
    pub t_trajectory: Vec<Matrix>,
    /// Per-iteration empirical MSE `‖X_{t+1} − X‖²_F / n` measured after
    /// each denoising step against the true one-hot signal. Empty unless
    /// ground-truth labels were supplied to [`run_matrix_amp_tracking`].
    pub mse_trajectory: Vec<f64>,
}

/// Ridge-regularized inverse `(T + ridge·(1 + tr(T)/d)·I)⁻¹`, escalating
/// the ridge tenfold until the inverse exists. `T` is PSD in every caller,
/// so the first try succeeds for any positive ridge; the escalation only
/// guards against pathological (non-finite) input.
///
/// # Panics
///
/// Panics if no finite escalation of the ridge produces an invertible
/// matrix (the input contained NaN/∞).
pub fn regularized_inverse(t: &Matrix, ridge: f64) -> Matrix {
    let d = t.rows();
    let trace: f64 = (0..d).map(|c| t.get(c, c)).sum();
    let mut eff = ridge.max(f64::MIN_POSITIVE) * (1.0 + trace / d as f64);
    for _ in 0..60 {
        let mut reg = t.clone();
        for c in 0..d {
            *reg.get_mut(c, c) += eff;
        }
        if let Some(inv) = linalg::inverse(&reg) {
            return inv;
        }
        eff *= 10.0;
    }
    panic!("regularized_inverse: matrix not invertible at any ridge (non-finite input?)");
}

/// Cholesky factor of `T` with escalating diagonal jitter, for drawing
/// `N(0, T)` samples in the matrix SE recursion: near-singular `T` (the
/// noiseless all-ones direction) gets just enough jitter to factor.
///
/// # Panics
///
/// Panics if no finite jitter produces a factorization (non-finite input).
pub fn cholesky_with_jitter(t: &Matrix) -> Matrix {
    if let Some(l) = linalg::cholesky(t) {
        return l;
    }
    let d = t.rows();
    let trace: f64 = (0..d).map(|c| t.get(c, c)).sum();
    let mut jitter = 1e-12 * (1.0 + trace / d as f64);
    for _ in 0..60 {
        let mut reg = t.clone();
        for c in 0..d {
            *reg.get_mut(c, c) += jitter;
        }
        if let Some(l) = linalg::cholesky(&reg) {
            return l;
        }
        jitter *= 10.0;
    }
    panic!("cholesky_with_jitter: matrix not factorizable at any jitter (non-finite input?)");
}

/// [`run_matrix_amp_tracking`] with a telemetry sink: emits one
/// `matrix_amp.iter` event per iteration carrying `t_trace` (the trace
/// of the effective-noise matrix `T_t`, the scalar summary of the
/// state-evolution statistic) and, when ground truth was supplied, the
/// per-iteration `mse` the SE recursion predicts. The events are
/// derived from the output trajectories after the solve (serially), so
/// the stream is bit-identical across thread counts.
///
/// # Panics
///
/// Panics if `truth_labels` is given with the wrong length or a label
/// outside `0..d` (as [`run_matrix_amp_tracking`]).
pub fn run_matrix_amp_traced(
    prepared: &CategoricalPrepared,
    config: &MatrixAmpConfig,
    truth_labels: Option<&[u8]>,
    telemetry: &npd_telemetry::TelemetrySink,
) -> MatrixAmpOutput {
    let out = run_matrix_amp_tracking(prepared, config, truth_labels);
    for (t, noise) in out.t_trajectory.iter().enumerate() {
        let mut t_trace = 0.0;
        for c in 0..noise.cols().min(noise.rows()) {
            t_trace += noise.get(c, c);
        }
        let mse = out.mse_trajectory.get(t).copied();
        telemetry.emit(|| {
            let mut event = npd_telemetry::Event::instant("matrix_amp.iter")
                .phase("amp")
                .round(t as u64)
                .f64("t_trace", t_trace);
            if let Some(mse) = mse {
                event = event.f64("mse", mse);
            }
            event
        });
    }
    out
}

/// Runs matrix-AMP, optionally tracking the per-iteration MSE against the
/// true labels (the quantity the state-evolution recursion predicts).
///
/// # Panics
///
/// Panics if `truth_labels` is given with the wrong length or a label
/// outside `0..d`.
pub fn run_matrix_amp_tracking(
    prepared: &CategoricalPrepared,
    config: &MatrixAmpConfig,
    truth_labels: Option<&[u8]>,
) -> MatrixAmpOutput {
    let b = &prepared.matrix;
    let y = &prepared.observations;
    let (m, n) = (b.rows(), b.cols());
    let d = prepared.prior.len();
    assert_eq!(y.rows(), m, "matrix-AMP: observation rows");
    assert_eq!(y.cols(), d, "matrix-AMP: observation cols");
    if let Some(labels) = truth_labels {
        assert_eq!(labels.len(), n, "matrix-AMP: truth label length");
        assert!(
            labels.iter().all(|&l| (l as usize) < d),
            "matrix-AMP: truth label out of range"
        );
    }
    let denoiser = BayesSimplex::new(&prepared.prior);

    let mut x = Matrix::zeros(n, d);
    let mut x_new = Matrix::zeros(n, d);
    let mut z = y.clone(); // Z_0 = Ỹ − B·X_0 with X_0 = 0
    let mut z_new = Matrix::zeros(m, d);
    let mut v = Matrix::zeros(n, d);
    // Column scratch buffers for the per-column matvecs through B.
    let mut col_m = vec![0.0; m];
    let mut col_n = vec![0.0; n];

    let mut t_trajectory = Vec::new();
    let mut mse_trajectory = Vec::new();
    let mut iterations = 0;
    let mut converged = false;

    for _ in 0..config.max_iterations {
        iterations += 1;

        // T_t = ZᵀZ/m, then its ridge-regularized inverse (shared with SE).
        let mut t = Matrix::zeros(d, d);
        for j in 0..m {
            let zr = z.row(j);
            for a in 0..d {
                let za = zr[a];
                if za == 0.0 {
                    continue;
                }
                let tr = t.row_mut(a);
                for c in 0..d {
                    tr[c] += za * zr[c];
                }
            }
        }
        t.map_in_place(|val| val / m as f64);
        let t_inv = regularized_inverse(&t, config.ridge);
        t_trajectory.push(t);

        // V = BᵀZ + X, column by column.
        for c in 0..d {
            for (j, slot) in col_m.iter_mut().enumerate() {
                *slot = z.get(j, c);
            }
            b.matvec_t_into(&col_m, &mut col_n);
            for (i, &val) in col_n.iter().enumerate() {
                *v.get_mut(i, c) = val + x.get(i, c);
            }
        }

        // Row-wise denoise + Onsager accumulation.
        let mut jac = Matrix::zeros(d, d);
        let mut mse = 0.0;
        for i in 0..n {
            let row = x_new.row_mut(i);
            denoiser.eta(v.row(i), &t_inv, row);
            denoiser.accumulate_jacobian(row, &t_inv, &mut jac);
            if let Some(labels) = truth_labels {
                let truth = labels[i] as usize;
                for (c, &p) in row.iter().enumerate() {
                    let e = if c == truth { 1.0 } else { 0.0 };
                    mse += (p - e) * (p - e);
                }
            }
        }
        if truth_labels.is_some() {
            mse_trajectory.push(mse / n as f64);
        }
        jac.map_in_place(|val| val / m as f64);

        // Z_{t+1} = Ỹ − B·X_{t+1} + Z_t·C_t.
        for c in 0..d {
            for (i, slot) in col_n.iter_mut().enumerate() {
                *slot = x_new.get(i, c);
            }
            b.matvec_into(&col_n, &mut col_m);
            for (j, &bx) in col_m.iter().enumerate() {
                let mut val = y.get(j, c) - bx;
                if config.onsager {
                    let zr = z.row(j);
                    for (bb, &zb) in zr.iter().enumerate() {
                        val += zb * jac.get(bb, c);
                    }
                }
                *z_new.get_mut(j, c) = val;
            }
        }

        let delta = x
            .as_slice()
            .iter()
            .zip(x_new.as_slice())
            .fold(0.0f64, |acc, (&a, &bb)| acc.max((a - bb).abs()));
        std::mem::swap(&mut x, &mut x_new);
        std::mem::swap(&mut z, &mut z_new);
        if delta < config.tolerance {
            converged = true;
            break;
        }
    }

    let labels = (0..n)
        .map(|i| {
            let row = x.row(i);
            let mut best = 0usize;
            for (c, &p) in row.iter().enumerate() {
                if p > row[best] {
                    best = c;
                }
            }
            best as u8
        })
        .collect();

    MatrixAmpOutput {
        estimate: x,
        labels,
        iterations,
        converged,
        t_trajectory,
        mse_trajectory,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::preprocess::prepare_categorical;
    use npd_core::{label_accuracy, CategoricalInstance, NoiseModel};
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    fn decode(noise: NoiseModel, strains: &[usize], seed: u64) -> (MatrixAmpOutput, f64) {
        let inst = CategoricalInstance::new(600, strains.to_vec(), 500)
            .unwrap()
            .with_noise(noise);
        let run = inst.sample(&mut StdRng::seed_from_u64(seed));
        let prep = prepare_categorical(&run);
        let out = run_matrix_amp_tracking(
            &prep,
            &MatrixAmpConfig::default(),
            Some(run.ground_truth().labels()),
        );
        let acc = label_accuracy(&out.labels, run.ground_truth());
        (out, acc)
    }

    #[test]
    fn noiseless_d2_recovers_labels() {
        let (out, acc) = decode(NoiseModel::Noiseless, &[150], 3);
        assert!(acc > 0.99, "accuracy {acc}");
        assert!(
            out.converged,
            "did not converge in {} iters",
            out.iterations
        );
    }

    #[test]
    fn noiseless_d4_recovers_labels() {
        let (out, acc) = decode(NoiseModel::Noiseless, &[120, 90, 90], 5);
        assert!(acc > 0.98, "accuracy {acc}");
        assert!(out.iterations <= 50);
    }

    #[test]
    fn gaussian_noise_d3_beats_the_prior_baseline() {
        // Guessing the majority class scores k_0/n = 0.5; AMP must do much
        // better even under noise.
        let (_, acc) = decode(NoiseModel::gaussian(2.0), &[150, 150], 7);
        assert!(acc > 0.8, "accuracy {acc}");
    }

    #[test]
    fn channel_noise_d3_beats_the_prior_baseline() {
        let (_, acc) = decode(NoiseModel::channel(0.05, 0.02), &[150, 150], 9);
        assert!(acc > 0.8, "accuracy {acc}");
    }

    #[test]
    fn mse_trajectory_decreases_and_rows_stay_simplex() {
        let (out, _) = decode(NoiseModel::gaussian(1.0), &[120, 120], 11);
        assert_eq!(out.mse_trajectory.len(), out.iterations);
        let first = out.mse_trajectory[0];
        let last = *out.mse_trajectory.last().unwrap();
        assert!(last < first, "MSE did not decrease: {first} → {last}");
        for i in 0..out.estimate.rows() {
            let s: f64 = out.estimate.row(i).iter().sum();
            assert!((s - 1.0).abs() < 1e-9, "row {i} sums to {s}");
        }
    }

    #[test]
    fn deterministic_given_the_run() {
        let inst = CategoricalInstance::new(300, vec![40, 30], 260)
            .unwrap()
            .with_noise(NoiseModel::gaussian(0.5));
        let run = inst.sample(&mut StdRng::seed_from_u64(13));
        let prep = prepare_categorical(&run);
        let a = run_matrix_amp_tracking(&prep, &MatrixAmpConfig::default(), None);
        let b = run_matrix_amp_tracking(&prep, &MatrixAmpConfig::default(), None);
        assert_eq!(a.estimate.as_slice(), b.estimate.as_slice());
        assert_eq!(a.labels, b.labels);
    }

    #[test]
    fn onsager_free_variant_differs() {
        // The memory term must actually do something.
        let inst = CategoricalInstance::new(300, vec![60], 260)
            .unwrap()
            .with_noise(NoiseModel::gaussian(1.0));
        let run = inst.sample(&mut StdRng::seed_from_u64(17));
        let prep = prepare_categorical(&run);
        let cfg = MatrixAmpConfig {
            max_iterations: 5,
            tolerance: 0.0,
            ..MatrixAmpConfig::default()
        };
        let with = run_matrix_amp_tracking(&prep, &cfg, None);
        let without = run_matrix_amp_tracking(
            &prep,
            &MatrixAmpConfig {
                onsager: false,
                ..cfg
            },
            None,
        );
        assert_ne!(with.estimate.as_slice(), without.estimate.as_slice());
    }

    #[test]
    fn regularized_inverse_handles_singular_psd() {
        // Rank-1 PSD matrix: plain inversion fails, the ridge fixes it.
        let t = Matrix::from_rows(&[&[1.0, 1.0][..], &[1.0, 1.0][..]]);
        let inv = regularized_inverse(&t, 1e-6);
        assert!(inv.as_slice().iter().all(|v| v.is_finite()));
    }

    #[test]
    fn cholesky_with_jitter_handles_singular_psd() {
        let t = Matrix::from_rows(&[&[2.0, 2.0][..], &[2.0, 2.0][..]]);
        let l = cholesky_with_jitter(&t);
        // L·Lᵀ ≈ T within the jitter.
        for i in 0..2 {
            for j in 0..2 {
                let mut v = 0.0;
                for k in 0..2 {
                    v += l.get(i, k) * l.get(j, k);
                }
                assert!((v - t.get(i, j)).abs() < 1e-6, "({i},{j}): {v}");
            }
        }
    }
}
