//! Linear-regime validation: required queries for `k = ζ·n`.
//!
//! The paper's simulations (Figures 2–5) all fix the sublinear regime
//! `θ = 0.25`; the linear clause of Theorem 1 —
//! `m ≥ (16γ + ε)·(q + (1−p−q)ζ)/(1−p−q)²·n·ln n` — is stated but never
//! plotted. This experiment closes that gap: it sweeps `n` at `ζ = 0.1`
//! for the noiseless, Z-channel and symmetric-channel models and reports
//! the measured thresholds against the bound, the same methodology as
//! Figure 2.

use super::{FigureReport, RunOptions};
use crate::output::{loglog_chart, Series};
use crate::sweep::required_queries_sample;
use crate::{mix_seed, Mode};
use npd_core::{NoiseModel, Regime};

/// Density of the linear regime.
pub const ZETA: f64 = 0.1;

/// Noise settings of the sweep.
pub fn noise_cases() -> Vec<(NoiseModel, &'static str)> {
    vec![
        (NoiseModel::Noiseless, "noiseless"),
        (NoiseModel::z_channel(0.1), "Z-channel p=0.1"),
        (NoiseModel::channel(0.01, 0.01), "channel p=q=0.01"),
    ]
}

/// Population grid by mode.
pub fn n_values(mode: Mode) -> Vec<usize> {
    match mode {
        Mode::Quick => vec![100, 316, 1000],
        Mode::Full => vec![100, 316, 1000, 3162, 10_000],
    }
}

/// The Theorem-1 linear-regime bound for a noise case at `ε = 0.05`.
pub fn linear_bound(n: usize, noise: &NoiseModel) -> f64 {
    let nf = n as f64;
    let (p, q) = noise.flip_rates();
    npd_theory::bounds::noisy_channel_linear_queries(nf, ZETA, p, q, 0.05)
}

/// Runs the linear-regime sweep.
pub fn run(opts: &RunOptions) -> FigureReport {
    let trials = opts.resolve_trials(5, 15);
    let grid = n_values(opts.mode);
    let markers = ['*', 'o', 'x'];

    let mut series = Vec::new();
    let mut csv_rows = Vec::new();
    let mut notes = Vec::new();

    for (ci, (noise, label)) in noise_cases().iter().enumerate() {
        let mut s = Series::new(label.to_string(), markers[ci]);
        let mut last_ratio = None;
        for &n in &grid {
            let bound = linear_bound(n, noise);
            let budget = (bound * 4.0) as usize;
            let sample = required_queries_sample(
                n,
                Regime::linear(ZETA),
                *noise,
                trials,
                budget,
                mix_seed(0x11EA_0000, (ci * 100_000 + n) as u64),
                opts.threads,
            );
            let median = sample.median();
            if let Some(m) = median {
                s.push(n as f64, m);
                last_ratio = Some(m / bound);
            }
            csv_rows.push(vec![
                label.to_string(),
                n.to_string(),
                sample.k.to_string(),
                median.map_or("NA".into(), |m| format!("{m:.0}")),
                format!("{bound:.0}"),
                sample.failures.to_string(),
                trials.to_string(),
            ]);
        }
        if let Some(r) = last_ratio {
            notes.push(format!(
                "{label}: measured/bound = {r:.2} at n = {} (Theorem 1 linear clause, ε = 0.05)",
                grid.last().expect("grid is non-empty"),
            ));
        }
        series.push(s);
    }

    let rendered = loglog_chart(
        &format!("Linear regime — required queries vs n (ζ = {ZETA})"),
        &series,
        64,
        20,
    );

    FigureReport {
        name: "linear".into(),
        rendered,
        csv_headers: vec![
            "noise".into(),
            "n".into(),
            "k".into(),
            "median_required_queries".into(),
            "theorem1_bound".into(),
            "failures".into(),
            "trials".into(),
        ],
        csv_rows,
        notes,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn bound_scales_superlinearly_in_n() {
        let b1 = linear_bound(1000, &NoiseModel::Noiseless);
        let b2 = linear_bound(2000, &NoiseModel::Noiseless);
        assert!(b2 > 2.0 * b1, "n·ln n growth: {b1} vs {b2}");
    }

    #[test]
    fn noise_raises_the_bound() {
        let clean = linear_bound(1000, &NoiseModel::Noiseless);
        let z = linear_bound(1000, &NoiseModel::z_channel(0.1));
        let sym = linear_bound(1000, &NoiseModel::channel(0.01, 0.01));
        assert!(z > clean);
        assert!(sym > clean);
    }

    #[test]
    fn grids_match_modes() {
        assert_eq!(n_values(Mode::Quick).len(), 3);
        assert_eq!(n_values(Mode::Full).len(), 5);
    }

    #[test]
    fn small_linear_instance_separates_within_bound_multiple() {
        // Smoke test of the whole pipeline at n = 100, ζ = 0.1 (k = 10).
        let sample = required_queries_sample(
            100,
            Regime::linear(ZETA),
            NoiseModel::Noiseless,
            3,
            (linear_bound(100, &NoiseModel::Noiseless) * 4.0) as usize,
            5,
            2,
        );
        assert_eq!(sample.k, 10);
        assert!(
            sample.failures == 0,
            "noiseless linear instance must separate"
        );
    }
}
