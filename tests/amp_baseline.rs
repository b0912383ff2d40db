//! Integration checks of the AMP baseline against the greedy algorithm —
//! the Figure-6 relationship.

use noisy_pooled_data::amp::state_evolution::{fixed_point, StateEvolutionConfig};
use noisy_pooled_data::amp::{AmpDecoder, BayesBernoulli};
use noisy_pooled_data::core::{
    exact_recovery, Decoder, GreedyDecoder, Instance, NoiseModel, Regime,
};
use rand::rngs::StdRng;
use rand::SeedableRng;

fn success_rates(m: usize, p: f64, trials: u64) -> (f64, f64) {
    let instance = Instance::builder(1_000)
        .regime(Regime::sublinear(0.25))
        .queries(m)
        .noise(NoiseModel::z_channel(p))
        .build()
        .unwrap();
    let mut greedy_ok = 0;
    let mut amp_ok = 0;
    for seed in 0..trials {
        let run = instance.sample(&mut StdRng::seed_from_u64(9_000 + 131 * m as u64 + seed));
        if exact_recovery(&GreedyDecoder::new().decode(&run), run.ground_truth()) {
            greedy_ok += 1;
        }
        if exact_recovery(&AmpDecoder::default().decode(&run), run.ground_truth()) {
            amp_ok += 1;
        }
    }
    (
        greedy_ok as f64 / trials as f64,
        amp_ok as f64 / trials as f64,
    )
}

#[test]
fn both_algorithms_transition_from_failure_to_success() {
    let (greedy_low, amp_low) = success_rates(30, 0.1, 6);
    let (greedy_high, amp_high) = success_rates(500, 0.1, 6);
    assert!(greedy_low < 0.5, "greedy at m=30: {greedy_low}");
    assert!(amp_low < 0.9, "amp at m=30: {amp_low}");
    assert!(greedy_high > 0.8, "greedy at m=500: {greedy_high}");
    assert!(amp_high > 0.8, "amp at m=500: {amp_high}");
}

#[test]
fn amp_dominates_in_the_window_between_thresholds() {
    // Figure 6: AMP's transition sits earlier/sharper than greedy's.
    let (greedy, amp) = success_rates(150, 0.1, 8);
    assert!(
        amp >= greedy,
        "AMP rate {amp} below greedy {greedy} in the window"
    );
    assert!(amp > 0.5, "AMP should mostly succeed at m=150: {amp}");
}

#[test]
fn state_evolution_predicts_the_amp_transition_direction() {
    // Generous measurements (n/m small): fixed point collapses.
    let easy = StateEvolutionConfig {
        prior: 0.006,
        n_over_m: 1000.0 / 300.0,
        sigma_w2: 0.0,
        ..StateEvolutionConfig::default()
    };
    let fp_easy = fixed_point(&BayesBernoulli::new(easy.prior), &easy);
    // Starved measurements: fixed point stalls high.
    let hard = StateEvolutionConfig {
        prior: 0.006,
        n_over_m: 1000.0 / 10.0,
        sigma_w2: 0.0,
        ..StateEvolutionConfig::default()
    };
    let fp_hard = fixed_point(&BayesBernoulli::new(hard.prior), &hard);
    assert!(
        fp_easy < fp_hard / 10.0,
        "no separation between regimes: {fp_easy} vs {fp_hard}"
    );
}

/// FNV-1a over a stream of `u64` words — the same fingerprint scheme the
/// static-contract tests use to pin generator streams.
struct Fnv(u64);

impl Fnv {
    fn new() -> Self {
        Fnv(0xcbf2_9ce4_8422_2325)
    }
    fn mix(&mut self, v: u64) {
        self.0 ^= v;
        self.0 = self.0.wrapping_mul(0x0000_0100_0000_01B3);
    }
}

/// Pinned fingerprint of the full binary AMP pipeline: ground-truth
/// support, every measurement bit pattern, and the decoded support on a
/// fixed z-channel instance. If this constant moves, the binary RNG
/// stream or the decoder output stream moved — which the categorical
/// layer promises never to do.
const BINARY_AMP_PIPELINE_FINGERPRINT: u64 = 0xD52D_8170_F75F_4C9A;

/// Pinned fingerprint of the shared truth + measurement stream, asserted
/// for the binary pipeline *and* its categorical d = 2 restatement.
const D2_STREAM_FINGERPRINT: u64 = 0x1A99_3B2A_1FAC_B5D6;

/// Pinned fingerprint of matrix-AMP's decoded label stream on a fixed
/// three-category channel instance — the decoder-output pin for the
/// categorical path itself.
const MATRIX_AMP_LABEL_FINGERPRINT: u64 = 0xF4BD_F924_8D09_8003;

fn pipeline_instance() -> Instance {
    Instance::builder(600)
        .k(8)
        .queries(400)
        .noise(NoiseModel::z_channel(0.1))
        .build()
        .unwrap()
}

#[test]
fn binary_amp_pipeline_fingerprint_is_pinned() {
    let run = pipeline_instance().sample(&mut StdRng::seed_from_u64(4242));
    let mut stream = Fnv::new();
    for &one in run.ground_truth().ones() {
        stream.mix(u64::from(one));
    }
    for &y in run.results() {
        stream.mix(y.to_bits());
    }
    let stream_fp = stream.0;
    let mut full = Fnv::new();
    full.mix(stream_fp);
    for &one in AmpDecoder::default().decode(&run).ones() {
        full.mix(u64::from(one));
    }
    assert_eq!(
        stream_fp, D2_STREAM_FINGERPRINT,
        "truth/measurement stream moved"
    );
    assert_eq!(
        full.0, BINARY_AMP_PIPELINE_FINGERPRINT,
        "AMP decoder output stream moved"
    );
}

#[test]
fn categorical_d2_reproduces_the_pinned_binary_stream() {
    use noisy_pooled_data::core::CategoricalInstance;
    let run = CategoricalInstance::new(600, vec![8], 400)
        .unwrap()
        .with_noise(NoiseModel::z_channel(0.1))
        .sample(&mut StdRng::seed_from_u64(4242));
    let mut stream = Fnv::new();
    let mut ones: Vec<u32> = (0..run.ground_truth().n() as u32)
        .filter(|&i| run.ground_truth().label(i as usize) == 1)
        .collect();
    ones.sort_unstable();
    for one in ones {
        stream.mix(u64::from(one));
    }
    for row in run.results() {
        stream.mix(row[1].to_bits());
    }
    assert_eq!(
        stream.0, D2_STREAM_FINGERPRINT,
        "categorical d = 2 diverged from the pinned binary stream"
    );
}

#[test]
fn matrix_amp_label_fingerprint_is_pinned() {
    use noisy_pooled_data::amp::matrix_amp::run_matrix_amp_tracking;
    use noisy_pooled_data::amp::{prepare_categorical, MatrixAmpConfig};
    use noisy_pooled_data::core::CategoricalInstance;
    let run = CategoricalInstance::new(800, vec![90, 70], 500)
        .unwrap()
        .with_noise(NoiseModel::channel(0.05, 0.02))
        .sample(&mut StdRng::seed_from_u64(777));
    let out = run_matrix_amp_tracking(
        &prepare_categorical(&run),
        &MatrixAmpConfig::default(),
        None,
    );
    let mut f = Fnv::new();
    for &label in &out.labels {
        f.mix(u64::from(label));
    }
    assert_eq!(
        f.0, MATRIX_AMP_LABEL_FINGERPRINT,
        "matrix-AMP label stream moved"
    );
}

#[test]
fn amp_handles_all_noise_models() {
    for (seed, noise) in [
        NoiseModel::Noiseless,
        NoiseModel::z_channel(0.1),
        NoiseModel::channel(0.05, 0.02),
        NoiseModel::gaussian(1.0),
    ]
    .into_iter()
    .enumerate()
    {
        let run = Instance::builder(500)
            .k(5)
            .queries(400)
            .noise(noise)
            .build()
            .unwrap()
            .sample(&mut StdRng::seed_from_u64(50 + seed as u64));
        let est = AmpDecoder::default().decode(&run);
        assert!(
            exact_recovery(&est, run.ground_truth()),
            "noise={noise} failed"
        );
    }
}
