//! Pooling-design comparison: required queries under every
//! [`npd_core::DesignSpec`] design, at fixed noise settings.
//!
//! The paper samples every query independently with replacement because it
//! "adapts techniques used in a variety of other statistical inference
//! problems"; the follow-up literature prefers structured designs — doubly
//! regular schemes (arXiv:2303.00043), sparse constant-column constructions
//! (arXiv:2312.14588) and spatially-coupled/banded matrices. This
//! experiment measures what the choice costs at both a dense (`Γ = n/2`,
//! the paper's) and a sparse (`Γ = n/8`) query size, emitting one row per
//! design per `(Γ, noise)` cell.
//!
//! The measured picture is regime-dependent: the Γ-subset design always
//! helps (no slots wasted on duplicates), degree balancing helps only in
//! the sparse regime — at `Γ = n/2` the balanced dealing produces exactly
//! complementary query pairs whose anti-correlated results inflate the
//! greedy score fluctuations (see [`npd_core::DesignSpec::BalancedDeck`])
//! — and the spatially-coupled design *censors*: banding breaks the
//! exchangeability the global maximum-neighborhood rule rests on, so its
//! rows report budget-exhausted trials in the `failures` column rather
//! than a median (the measured negative result documented on
//! [`npd_core::DesignSpec::SpatiallyCoupled`]; the `coupled-z01` scenario
//! reports the overlap that survives).
//!
//! Designs whose batch construction fixes `m` up front are grown through
//! their *anytime* analogues here (see [`IncrementalSim::with_design`]):
//! doubly regular via deck dealing, the constant-column design via
//! Bernoulli pools (size `Bin(n, Γ/n)`, then a uniform subset — its
//! query-major marginal). The batch constructions themselves are
//! exercised by the batch scenarios, the cross-layer tests and the
//! `design_throughput` bench.

use super::{FigureReport, RunOptions, THETA};
use crate::output::table;
use crate::{mix_seed, runner, Mode};
use npd_core::{DesignSpec, IncrementalSim, NoiseModel, PoolingDesign, Regime};
use npd_numerics::stats::median;

/// The design catalog compared, with report labels: the paper's design
/// plus every structured [`DesignSpec`].
pub fn catalog() -> Vec<(DesignSpec, &'static str)> {
    vec![
        (DesignSpec::Iid, "iid Γ-regular (paper)"),
        (DesignSpec::GammaSubset, "Γ-subset"),
        (DesignSpec::DoublyRegular, "doubly-regular"),
        (DesignSpec::SparseColumn, "sparse constant-column"),
        (DesignSpec::spatially_coupled(), "spatially-coupled"),
    ]
}

/// Noise settings of the comparison.
pub fn noise_cases() -> Vec<(NoiseModel, &'static str)> {
    vec![
        (NoiseModel::Noiseless, "noiseless"),
        (NoiseModel::z_channel(0.1), "Z-channel p=0.1"),
        (NoiseModel::gaussian(1.0), "gaussian λ=1"),
    ]
}

/// Median required queries for one `(design, noise, Γ)` cell.
#[allow(clippy::too_many_arguments)]
pub fn measure_cell(
    n: usize,
    gamma: usize,
    design: DesignSpec,
    noise: NoiseModel,
    trials: usize,
    budget: usize,
    seed_salt: u64,
    threads: usize,
) -> (Option<f64>, usize) {
    let k = Regime::sublinear(THETA).k_for(n);
    let seeds: Vec<u64> = (0..trials as u64).map(|i| mix_seed(seed_salt, i)).collect();
    let outcomes = runner::parallel_map(&seeds, threads, |&seed| {
        let mut sim = IncrementalSim::with_design(n, k, gamma, noise, design, seed);
        sim.required_queries(budget)
    });
    let mut samples = Vec::new();
    let mut failures = 0;
    for o in outcomes {
        match o {
            Ok(r) => samples.push(r.queries as f64),
            Err(_) => failures += 1,
        }
    }
    let med = if samples.is_empty() {
        None
    } else {
        Some(median(&samples))
    };
    (med, failures)
}

/// Runs the design comparison.
pub fn run(opts: &RunOptions) -> FigureReport {
    let trials = opts.resolve_trials(10, 30);
    let n = match opts.mode {
        Mode::Quick => 1000,
        Mode::Full => 10_000,
    };
    let budget = crate::sweep::default_budget(n, THETA, &NoiseModel::z_channel(0.1)) * 2;
    let designs = catalog();

    let mut rows = Vec::new();
    let mut csv_rows = Vec::new();
    let mut notes = Vec::new();

    // Dense (the paper's Γ = n/2) and sparse (Γ = n/8) query sizes: the
    // constant-column-weight literature works with sparse designs, and the
    // comparison comes out very differently in the two regimes.
    for (gi, gamma) in [n / 2, n / 8].into_iter().enumerate() {
        for (ni, (noise, noise_label)) in noise_cases().iter().enumerate() {
            let mut medians = Vec::new();
            for (di, (design, design_label)) in designs.iter().enumerate() {
                let (med, failures) = measure_cell(
                    n,
                    gamma,
                    *design,
                    *noise,
                    trials,
                    budget,
                    mix_seed(0xDE51_0000, (gi * 100 + ni * 10 + di) as u64),
                    opts.threads,
                );
                let med_str = med.map_or("NA".into(), |m| format!("{m:.0}"));
                rows.push(vec![
                    format!("n/{}", n / gamma),
                    noise_label.to_string(),
                    design_label.to_string(),
                    med_str.clone(),
                    failures.to_string(),
                ]);
                csv_rows.push(vec![
                    gamma.to_string(),
                    noise_label.to_string(),
                    design.name().to_string(),
                    med_str,
                    failures.to_string(),
                    trials.to_string(),
                ]);
                medians.push(med);
            }
            if let Some(paper) = medians[0] {
                let relative: Vec<String> = designs
                    .iter()
                    .zip(&medians)
                    .skip(1)
                    .map(|((design, _), med)| {
                        med.map_or(format!("{}: NA", design.name()), |m| {
                            format!("{}: {:.0}%", design.name(), 100.0 * m / paper)
                        })
                    })
                    .collect();
                notes.push(format!(
                    "Γ=n/{}, {noise_label}: queries relative to the paper design — {}",
                    n / gamma,
                    relative.join(", ")
                ));
            }
        }
    }

    let rendered = format!(
        "Design comparison — median required queries (n={n}, θ={THETA}, {trials} trials)\n{}",
        table(&["Γ", "noise", "design", "median m", "failures"], &rows)
    );

    FigureReport {
        name: "designs".into(),
        rendered,
        csv_headers: vec![
            "gamma".into(),
            "noise".into(),
            "design".into(),
            "median_required_queries".into(),
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
    fn catalog_covers_all_structured_designs_with_distinct_labels() {
        let cat = catalog();
        assert!(cat.len() >= 5, "one row per design requires >= 5 entries");
        let mut labels: Vec<&str> = cat.iter().map(|(_, l)| *l).collect();
        labels.sort_unstable();
        labels.dedup();
        assert_eq!(labels.len(), cat.len());
        let specs: Vec<DesignSpec> = cat.iter().map(|(d, _)| *d).collect();
        for required in [
            DesignSpec::Iid,
            DesignSpec::DoublyRegular,
            DesignSpec::SparseColumn,
            DesignSpec::spatially_coupled(),
        ] {
            assert!(specs.contains(&required), "{} missing", required.name());
        }
    }

    #[test]
    fn subset_design_beats_paper_design_at_dense_gamma() {
        // At Γ = n/2 the Γ-subset design wastes no slots on duplicates and
        // needs clearly fewer queries (the ablation of EXPERIMENTS.md).
        let budget = 4_000;
        let (with, _) = measure_cell(
            400,
            200,
            DesignSpec::Iid,
            NoiseModel::Noiseless,
            6,
            budget,
            7,
            2,
        );
        let (subset, _) = measure_cell(
            400,
            200,
            DesignSpec::GammaSubset,
            NoiseModel::Noiseless,
            6,
            budget,
            8,
            2,
        );
        let (w, s) = (with.unwrap(), subset.unwrap());
        assert!(
            s < w,
            "Γ-subset median {s} should undercut with-replacement median {w}"
        );
    }

    #[test]
    fn balanced_design_pairing_pathology_at_dense_gamma() {
        // With Γ = n/2 the anytime (deck-dealing) doubly regular design
        // deals *complementary pairs* of queries (every deck pass is
        // exactly two queries partitioning the population). The pair's
        // results are perfectly anti-correlated, which inflates the score
        // fluctuations the maximum-neighborhood rule must overcome — a
        // measured counterexample to "degree regularity always helps".
        let budget = 6_000;
        let (subset, _) = measure_cell(
            400,
            200,
            DesignSpec::GammaSubset,
            NoiseModel::Noiseless,
            6,
            budget,
            9,
            2,
        );
        let (balanced, _) = measure_cell(
            400,
            200,
            DesignSpec::DoublyRegular,
            NoiseModel::Noiseless,
            6,
            budget,
            10,
            2,
        );
        let (s, b) = (subset.unwrap(), balanced.unwrap());
        assert!(
            b > s,
            "dense balanced dealing ({b}) should trail the independent Γ-subset design ({s})"
        );
    }

    #[test]
    fn spatially_coupled_breaks_global_greedy_exchangeability() {
        // The pinned negative result: at 8 bands a zero-agent in a window
        // that is locally rich in one-agents out-scores an isolated
        // one-agent in expectation, so the incremental search exhausts its
        // budget on some truths instead of separating.
        let (_, failures) = measure_cell(
            400,
            100,
            DesignSpec::SpatiallyCoupled { bands: 8 },
            NoiseModel::z_channel(0.1),
            4,
            20_000,
            11,
            2,
        );
        assert!(failures > 0, "expected censored trials at strong coupling");
        // With a single band the window is the whole population, the
        // design is exchangeable again, and every trial separates.
        let (med, failures) = measure_cell(
            400,
            100,
            DesignSpec::SpatiallyCoupled { bands: 1 },
            NoiseModel::z_channel(0.1),
            4,
            20_000,
            12,
            2,
        );
        assert_eq!(failures, 0);
        assert!(med.unwrap() > 0.0);
    }
}
