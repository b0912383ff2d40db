//! Ablation studies for the design decisions documented in DESIGN.md.
//!
//! 1. **Score centering** — noise-aware (`Centering::NoiseAware`, the
//!    analysis' score) vs the literally-printed `Ψ − Δ*k/2` under symmetric
//!    channel noise. This justifies the reproduction's reading of
//!    Algorithm 1 (see DESIGN.md §“Score centering”).
//! 2. **Sampling scheme** — the paper's with-replacement multigraph design
//!    vs uniform Γ-subsets.
//! 3. **Query size Γ** — the paper fixes `Γ = n/2`; sweep Γ/n to show the
//!    choice is near-optimal for the greedy score.
//! 4. **Two-step refinement** — the conclusion's open-question extension vs
//!    plain greedy, near the threshold.
//! 5. **BP damping** — the dense pooling graph oscillates under weak
//!    damping (see [`npd_decoders::BpConfig::damping`]); measure both.
//! 6. **MCMC initialization** — greedy warm start vs cold start at a fixed
//!    step budget.
//! 7. **Known vs estimated `k`** — the model assumes `k` known; the
//!    blind decoder estimates it from the first moment.

use super::{FigureReport, RunOptions, THETA};
use crate::output::table;
use crate::{mix_seed, runner};
use npd_core::{
    estimation, exact_recovery, overlap, Centering, Decoder, DesignSpec, GreedyDecoder,
    IncrementalSim, Instance, NoiseModel, Regime, TwoStepDecoder,
};
use npd_decoders::{BpConfig, BpDecoder, InitKind, McmcConfig, McmcDecoder};
use rand::rngs::StdRng;
use rand::SeedableRng;

/// Runs all four ablations.
pub fn run(opts: &RunOptions) -> FigureReport {
    let trials = opts.resolve_trials(10, 40);
    let mut rows = Vec::new();
    let mut csv_rows = Vec::new();
    let mut notes = Vec::new();

    // --- 1. Centering under false positives -------------------------------
    let centering_cfg = Instance::builder(1_000)
        .regime(Regime::sublinear(THETA))
        .queries(2_000)
        .noise(NoiseModel::channel(0.05, 0.05))
        .build()
        .expect("valid");
    let seeds: Vec<u64> = (0..trials as u64).map(|i| mix_seed(0xAB1A, i)).collect();
    let outcomes = runner::parallel_map(&seeds, opts.threads, |&seed| {
        let run = centering_cfg.sample(&mut StdRng::seed_from_u64(seed));
        let aware = exact_recovery(
            &GreedyDecoder::with_centering(Centering::NoiseAware).decode(&run),
            run.ground_truth(),
        );
        let plain = exact_recovery(
            &GreedyDecoder::with_centering(Centering::Plain).decode(&run),
            run.ground_truth(),
        );
        (aware, plain)
    });
    let aware_rate = outcomes.iter().filter(|&&(a, _)| a).count() as f64 / trials as f64;
    let plain_rate = outcomes.iter().filter(|&&(_, p)| p).count() as f64 / trials as f64;
    rows.push(vec![
        "centering @ p=q=0.05, n=1000, m=2000".into(),
        format!("noise-aware: {aware_rate:.2}"),
        format!("plain (printed): {plain_rate:.2}"),
    ]);
    csv_rows.push(vec![
        "centering_success_rate".into(),
        format!("{aware_rate:.3}"),
        format!("{plain_rate:.3}"),
    ]);
    notes.push(format!(
        "Centering: noise-aware success {aware_rate:.2} vs printed score {plain_rate:.2} \
         at p=q=0.05 — the analysis' centering is the working algorithm"
    ));

    // --- 2. Sampling scheme ------------------------------------------------
    let median_required = |design: DesignSpec, salt: u64| -> f64 {
        let seeds: Vec<u64> = (0..trials as u64).map(|i| mix_seed(salt, i)).collect();
        let mut xs: Vec<f64> = runner::parallel_map(&seeds, opts.threads, |&seed| {
            let mut sim = IncrementalSim::with_design(
                1_000,
                6,
                500,
                NoiseModel::z_channel(0.1),
                design,
                seed,
            );
            sim.required_queries(20_000).expect("separates").queries as f64
        });
        xs.sort_by(|a, b| a.partial_cmp(b).expect("no NaN"));
        xs[xs.len() / 2]
    };
    let with_repl = median_required(DesignSpec::Iid, 0xAB2A);
    let without_repl = median_required(DesignSpec::GammaSubset, 0xAB2B);
    rows.push(vec![
        "sampling @ p=0.1, n=1000 (median m)".into(),
        format!("with replacement: {with_repl:.0}"),
        format!("without replacement: {without_repl:.0}"),
    ]);
    csv_rows.push(vec![
        "sampling_median_queries".into(),
        format!("{with_repl:.0}"),
        format!("{without_repl:.0}"),
    ]);
    notes.push(format!(
        "Sampling: Γ-subset queries need {:.0}% fewer queries than the paper's \
         with-replacement design (each query covers Γ distinct agents vs ≈ γn)",
        100.0 * (1.0 - without_repl / with_repl)
    ));

    // --- 3. Query size Γ ----------------------------------------------------
    let mut gamma_cells = Vec::new();
    let mut gamma_csv = vec!["gamma_median_queries".to_string()];
    for (fi, &(gamma, label)) in [(125usize, "n/8"), (250, "n/4"), (500, "n/2"), (750, "3n/4")]
        .iter()
        .enumerate()
    {
        let seeds: Vec<u64> = (0..trials as u64)
            .map(|i| mix_seed(0xAB30 + fi as u64, i))
            .collect();
        let mut xs: Vec<f64> = runner::parallel_map(&seeds, opts.threads, |&seed| {
            let mut sim = IncrementalSim::with_design(
                1_000,
                6,
                gamma,
                NoiseModel::Noiseless,
                DesignSpec::Iid,
                seed,
            );
            sim.required_queries(50_000).expect("separates").queries as f64
        });
        xs.sort_by(|a, b| a.partial_cmp(b).expect("no NaN"));
        let median = xs[xs.len() / 2];
        gamma_cells.push(format!("Γ={label}: {median:.0}"));
        gamma_csv.push(format!("{median:.0}"));
    }
    rows.push(vec![
        "query size (noiseless, n=1000, median m)".into(),
        gamma_cells[..2].join("  "),
        gamma_cells[2..].join("  "),
    ]);
    csv_rows.push(gamma_csv);
    notes.push(format!("Query size sweep: {}", gamma_cells.join(", ")));

    // --- 4. Two-step refinement --------------------------------------------
    let twostep_cfg = Instance::builder(1_000)
        .regime(Regime::sublinear(THETA))
        .queries(200)
        .noise(NoiseModel::z_channel(0.3))
        .build()
        .expect("valid");
    let seeds: Vec<u64> = (0..trials as u64).map(|i| mix_seed(0xAB4A, i)).collect();
    let overlaps = runner::parallel_map(&seeds, opts.threads, |&seed| {
        let run = twostep_cfg.sample(&mut StdRng::seed_from_u64(seed));
        let g = overlap(&GreedyDecoder::new().decode(&run), run.ground_truth());
        let t = overlap(&TwoStepDecoder::new().decode(&run), run.ground_truth());
        (g, t)
    });
    let g_mean = overlaps.iter().map(|&(g, _)| g).sum::<f64>() / trials as f64;
    let t_mean = overlaps.iter().map(|&(_, t)| t).sum::<f64>() / trials as f64;
    rows.push(vec![
        "two-step @ p=0.3, n=1000, m=200 (mean overlap)".into(),
        format!("greedy: {g_mean:.3}"),
        format!("two-step: {t_mean:.3}"),
    ]);
    csv_rows.push(vec![
        "twostep_mean_overlap".into(),
        format!("{g_mean:.3}"),
        format!("{t_mean:.3}"),
    ]);
    notes.push(format!(
        "Two-step refinement: overlap {t_mean:.3} vs greedy {g_mean:.3} near threshold"
    ));

    // --- 5. BP damping -------------------------------------------------------
    let bp_cfg = Instance::builder(1_000)
        .regime(Regime::sublinear(THETA))
        .queries(320)
        .noise(NoiseModel::z_channel(0.3))
        .build()
        .expect("valid");
    let seeds: Vec<u64> = (0..trials as u64).map(|i| mix_seed(0xAB5A, i)).collect();
    let bp_outcomes = runner::parallel_map(&seeds, opts.threads, |&seed| {
        let run = bp_cfg.sample(&mut StdRng::seed_from_u64(seed));
        let weak = BpDecoder::with_config(BpConfig {
            damping: 0.25,
            ..BpConfig::default()
        });
        let strong = BpDecoder::with_config(BpConfig {
            damping: 0.5,
            ..BpConfig::default()
        });
        (
            exact_recovery(&weak.decode(&run), run.ground_truth()),
            exact_recovery(&strong.decode(&run), run.ground_truth()),
        )
    });
    let weak_rate = bp_outcomes.iter().filter(|&&(w, _)| w).count() as f64 / trials as f64;
    let strong_rate = bp_outcomes.iter().filter(|&&(_, s)| s).count() as f64 / trials as f64;
    rows.push(vec![
        "BP damping @ p=0.3, n=1000, m=320 (success)".into(),
        format!("d=0.25: {weak_rate:.2}"),
        format!("d=0.50: {strong_rate:.2}"),
    ]);
    csv_rows.push(vec![
        "bp_damping_success_rate".into(),
        format!("{weak_rate:.3}"),
        format!("{strong_rate:.3}"),
    ]);
    notes.push(format!(
        "BP damping: d=0.5 succeeds at {strong_rate:.2} vs {weak_rate:.2} for d=0.25 — the \
         dense graph oscillates under weak damping"
    ));

    // --- 6. MCMC initialization ---------------------------------------------
    let mcmc_cfg = Instance::builder(500)
        .regime(Regime::sublinear(THETA))
        .queries(220)
        .noise(NoiseModel::z_channel(0.2))
        .build()
        .expect("valid");
    let seeds: Vec<u64> = (0..trials as u64).map(|i| mix_seed(0xAB6A, i)).collect();
    let mcmc_outcomes = runner::parallel_map(&seeds, opts.threads, |&seed| {
        let run = mcmc_cfg.sample(&mut StdRng::seed_from_u64(seed));
        let warm = McmcDecoder::with_config(McmcConfig {
            init: InitKind::Greedy,
            ..McmcConfig::default()
        });
        let cold = McmcDecoder::with_config(McmcConfig {
            init: InitKind::Cold,
            ..McmcConfig::default()
        });
        (
            exact_recovery(&warm.decode(&run), run.ground_truth()),
            exact_recovery(&cold.decode(&run), run.ground_truth()),
        )
    });
    let warm_rate = mcmc_outcomes.iter().filter(|&&(w, _)| w).count() as f64 / trials as f64;
    let cold_rate = mcmc_outcomes.iter().filter(|&&(_, c)| c).count() as f64 / trials as f64;
    rows.push(vec![
        "MCMC init @ p=0.2, n=500, m=220 (success)".into(),
        format!("greedy warm start: {warm_rate:.2}"),
        format!("cold start: {cold_rate:.2}"),
    ]);
    csv_rows.push(vec![
        "mcmc_init_success_rate".into(),
        format!("{warm_rate:.3}"),
        format!("{cold_rate:.3}"),
    ]);
    notes.push(format!(
        "MCMC init: warm start {warm_rate:.2} vs cold start {cold_rate:.2} at 20k steps — \
         the greedy estimate is most of the work"
    ));

    // --- 7. Known vs estimated k ---------------------------------------------
    let k_cfg = Instance::builder(1_000)
        .regime(Regime::sublinear(THETA))
        .queries(400)
        .noise(NoiseModel::z_channel(0.1))
        .build()
        .expect("valid");
    let seeds: Vec<u64> = (0..trials as u64).map(|i| mix_seed(0xAB7A, i)).collect();
    let k_outcomes = runner::parallel_map(&seeds, opts.threads, |&seed| {
        let run = k_cfg.sample(&mut StdRng::seed_from_u64(seed));
        let known = exact_recovery(&GreedyDecoder::new().decode(&run), run.ground_truth());
        let blind = estimation::decode_with_estimated_k(&run)
            .map(|est| exact_recovery(&est, run.ground_truth()))
            .unwrap_or(false);
        (known, blind)
    });
    let known_rate = k_outcomes.iter().filter(|&&(k, _)| k).count() as f64 / trials as f64;
    let blind_rate = k_outcomes.iter().filter(|&&(_, b)| b).count() as f64 / trials as f64;
    rows.push(vec![
        "known vs estimated k @ p=0.1, n=1000, m=400".into(),
        format!("k known: {known_rate:.2}"),
        format!("k estimated: {blind_rate:.2}"),
    ]);
    csv_rows.push(vec![
        "estimated_k_success_rate".into(),
        format!("{known_rate:.3}"),
        format!("{blind_rate:.3}"),
    ]);
    notes.push(format!(
        "Estimated k: blind success {blind_rate:.2} vs oracle {known_rate:.2} — the first \
         moment pins k well before the decoder itself succeeds"
    ));

    let rendered = format!(
        "Ablations ({trials} trials each)\n{}",
        table(&["study", "variant A", "variant B"], &rows)
    );

    // Pad ragged rows (the Γ sweep has four values) to a fixed width.
    let width = 5;
    for row in &mut csv_rows {
        row.resize(width, String::new());
    }

    FigureReport {
        name: "ablations".into(),
        rendered,
        csv_headers: vec![
            "study".into(),
            "value_a".into(),
            "value_b".into(),
            "value_c".into(),
            "value_d".into(),
        ],
        csv_rows,
        notes,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::Mode;

    #[test]
    fn tiny_ablation_run_completes() {
        let opts = RunOptions {
            mode: Mode::Quick,
            trials: Some(2),
            threads: 2,
        };
        let report = run(&opts);
        assert_eq!(report.name, "ablations");
        assert_eq!(report.csv_rows.len(), 7);
        assert!(report.rendered.contains("centering"));
        assert!(report.rendered.contains("BP damping"));
        assert!(report.rendered.contains("estimated k"));
        assert!(report.notes.len() >= 7);
    }
}
