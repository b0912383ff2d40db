//! Cross-layer behaviour of the workload (population-model) layer: the
//! uniform model must be bit-identical to the legacy sampler, structured
//! priors must pay for themselves in the decoders, and the prior-aware
//! estimation paths must stay consistent with their prior-blind
//! counterparts on exchangeable populations.

use noisy_pooled_data::core::{
    estimation, Decoder, DesignSpec, Estimate, GreedyDecoder, GroundTruth, Instance, NoiseModel,
    PoolingDesign, Regime,
};
use noisy_pooled_data::workloads::{
    CommunityBlocks, PopulationModel, SirDynamics, UniformKSubset, WorkloadSpec,
};
use rand::rngs::StdRng;
use rand::SeedableRng;

/// FNV-1a over `(n, ones)`, used to pin sampler streams.
fn truth_fingerprint(t: &GroundTruth) -> u64 {
    let mut h = 0xcbf2_9ce4_8422_2325u64;
    let mut mix = |v: u64| {
        h ^= v;
        h = h.wrapping_mul(0x0000_0100_0000_01B3);
    };
    mix(t.n() as u64);
    for &o in t.ones() {
        mix(u64::from(o));
    }
    h
}

/// Fingerprint of `GroundTruth::sample(1000, 25, seed=31415)` under the
/// vendored xoshiro256++ StdRng, recorded when the workload layer was
/// introduced.
const UNIFORM_FINGERPRINT: u64 = 0xADDC_9487_2CD6_5250;

#[test]
fn uniform_workload_is_bit_identical_to_legacy_ground_truth() {
    // The refactor moved the paper's population sampler behind
    // `PopulationModel`; the trait path (through `&mut dyn RngCore`), the
    // spec path, and the original `GroundTruth::sample` must consume the
    // identical RNG stream.
    for (n, k_regime, seed) in [
        (257usize, Regime::explicit(9), 0u64),
        (1_000, Regime::sublinear(0.5), 42),
        (64, Regime::linear(0.25), 0xDEAD),
    ] {
        let k = k_regime.k_for(n);
        let legacy = GroundTruth::sample(n, k, &mut StdRng::seed_from_u64(seed));
        let mut rng = StdRng::seed_from_u64(seed);
        let via_model = UniformKSubset::new(k_regime).sample(n, &mut rng);
        assert_eq!(legacy, via_model, "n={n} seed={seed}");
        let mut rng = StdRng::seed_from_u64(seed);
        let via_spec = WorkloadSpec::Uniform { theta: 0.5 }
            .model()
            .sample(n, &mut rng);
        if matches!(k_regime, Regime::Sublinear { theta } if theta == 0.5) {
            assert_eq!(legacy, via_spec, "spec path diverged at n={n}");
        }
    }
    // And the stream itself is pinned: any change to the sampler's RNG
    // call sequence (not just to the refactoring) fails here.
    let t = GroundTruth::sample(1_000, 25, &mut StdRng::seed_from_u64(31_415));
    assert_eq!(truth_fingerprint(&t), UNIFORM_FINGERPRINT);
    let mut rng = StdRng::seed_from_u64(31_415);
    let via_model = UniformKSubset::new(Regime::explicit(25)).sample(1_000, &mut rng);
    assert_eq!(truth_fingerprint(&via_model), UNIFORM_FINGERPRINT);
}

/// Samples a run over an externally supplied truth with the i.i.d. design.
fn assemble_run(
    truth: GroundTruth,
    m: usize,
    gamma: usize,
    noise: NoiseModel,
    rng: &mut StdRng,
) -> noisy_pooled_data::core::Run {
    let n = truth.n();
    let instance = Instance::builder(n)
        .k(truth.k())
        .queries(m)
        .query_size(gamma)
        .noise(noise)
        .build()
        .expect("valid configuration");
    let graph = DesignSpec::Iid.sample(n, m, gamma, rng);
    let results = graph.measure(&truth, &noise, rng);
    instance
        .assemble(truth, graph, results)
        .expect("assembled parts match the instance")
}

#[test]
fn prior_aware_greedy_beats_prior_blind_on_community_workload() {
    // The headline claim of the prior plumbing: at a fixed, scarce query
    // budget the posterior ranking recovers more of a structured
    // population than Algorithm 1's prior-blind ranking. Averaged over
    // seeds so a lucky blind draw cannot flip the comparison.
    let n = 400;
    let model = CommunityBlocks::new(8, 2, 0.9, Regime::explicit(20));
    let prior = model.prior(n);
    let noise = NoiseModel::z_channel(0.1);
    let (mut blind_total, mut aware_total) = (0.0, 0.0);
    let trials = 12;
    for seed in 0..trials {
        let mut rng = StdRng::seed_from_u64(5_000 + seed);
        let truth = model.sample(n, &mut rng);
        let run = assemble_run(truth, 220, n / 2, noise, &mut rng);
        let blind = GreedyDecoder::new().decode(&run);
        let aware = Estimate::from_scores(
            GreedyDecoder::new().scores_with_posterior(&run, &prior).1,
            run.instance().k(),
        );
        blind_total += noisy_pooled_data::core::overlap(&blind, run.ground_truth());
        aware_total += noisy_pooled_data::core::overlap(&aware, run.ground_truth());
    }
    assert!(
        aware_total > blind_total,
        "prior-aware {aware_total:.2} did not beat prior-blind {blind_total:.2} \
         (sum over {trials} trials)"
    );
    // The margin is substantial, not a rounding artifact.
    assert!(
        aware_total - blind_total > 0.02 * trials as f64,
        "margin too thin: {aware_total:.3} vs {blind_total:.3}"
    );
}

#[test]
fn posterior_scores_with_uniform_prior_preserve_regular_ranking() {
    // On an agent-regular design (constant Δᵢ, Δ*ᵢ) the posterior score
    // with a uniform prior is a strictly monotone transform of the plain
    // score: the selection must be identical.
    let n = 300;
    let mut rng = StdRng::seed_from_u64(77);
    let run = Instance::builder(n)
        .k(6)
        .queries(120)
        .query_size(60)
        .noise(NoiseModel::z_channel(0.1))
        .design(DesignSpec::DoublyRegular)
        .build()
        .unwrap()
        .sample(&mut rng);
    let plain = GreedyDecoder::new().decode(&run);
    let uniform_prior = vec![6.0 / n as f64; n];
    let posterior = Estimate::from_scores(
        GreedyDecoder::new()
            .scores_with_posterior(&run, &uniform_prior)
            .1,
        6,
    );
    assert_eq!(plain.ones(), posterior.ones());
}

#[test]
fn estimate_k_with_prior_blends_toward_data_with_queries() {
    // With plenty of queries the posterior k̂ matches the moment estimate
    // (and the truth); with a deliberately wrong prior and almost no
    // queries, the prior mass dominates.
    let n = 1_000;
    let model = CommunityBlocks::new(8, 2, 0.9, Regime::explicit(24));
    let prior = model.prior(n);
    let mut rng = StdRng::seed_from_u64(9);
    let truth = model.sample(n, &mut rng);
    let run = assemble_run(
        truth.clone(),
        600,
        n / 2,
        NoiseModel::z_channel(0.1),
        &mut rng,
    );
    let k_hat = estimation::estimate_k_with_prior(&run, &prior).unwrap();
    assert_eq!(k_hat, truth.k());

    // Two queries, prior mass 3·k: the blend must land strictly between
    // the moment estimate and the prior mass — the prior pulls, the data
    // anchors.
    let wrong_prior = vec![3.0 * 24.0 / n as f64; n];
    let mut rng = StdRng::seed_from_u64(10);
    let truth2 = model.sample(n, &mut rng);
    let scarce = assemble_run(truth2, 2, n / 2, NoiseModel::z_channel(0.1), &mut rng);
    let k_mom = estimation::estimate_k(&scarce).unwrap();
    let k_scarce = estimation::estimate_k_with_prior(&scarce, &wrong_prior).unwrap();
    assert!(
        k_scarce > k_mom && k_scarce < 72,
        "k̂={k_scarce}: blend must sit between the moment estimate ({k_mom}) \
         and the prior mass (72)"
    );
}

#[test]
fn decode_with_prior_recovers_structured_population() {
    // The full deployment path — posterior k̂ plus posterior ranking — on
    // a generously queried structured run is exact.
    let n = 500;
    let model = CommunityBlocks::new(5, 1, 0.8, Regime::explicit(12));
    let prior = model.prior(n);
    let mut exact = 0;
    for seed in 0..4u64 {
        let mut rng = StdRng::seed_from_u64(400 + seed);
        let truth = model.sample(n, &mut rng);
        let run = assemble_run(truth, 1_200, n / 2, NoiseModel::z_channel(0.1), &mut rng);
        let est = estimation::decode_with_prior(&run, &prior).unwrap();
        if est.ones() == run.ground_truth().ones() {
            exact += 1;
        }
    }
    assert!(exact >= 3, "only {exact}/4 exact at a generous budget");
}

#[test]
fn sir_one_shot_sample_is_reachable_through_the_spec() {
    let spec = WorkloadSpec::Sir;
    let model = spec.sir().expect("Sir spec is temporal");
    let mut rng = StdRng::seed_from_u64(3);
    let snapshot = PopulationModel::sample(&model, 600, &mut rng);
    assert!(snapshot.k() > 0);
    assert_eq!(snapshot.n(), 600);
    // The spec path samples the same distribution (same model, own seed).
    let mut rng = StdRng::seed_from_u64(3);
    let via_spec = spec.model().sample(600, &mut rng);
    assert_eq!(snapshot, via_spec);
}

#[test]
fn incremental_sim_truth_swap_changes_separation_target() {
    // `set_truth` must re-aim the separation diagnostic at the new truth
    // while keeping the accumulated evidence.
    use noisy_pooled_data::core::IncrementalSim;
    let model = SirDynamics::new(5, 1.5, 0.3);
    let mut pop_rng = StdRng::seed_from_u64(21);
    let mut state = model.init(200, &mut pop_rng);
    let mut sim = IncrementalSim::with_truth(
        state.truth(),
        100,
        NoiseModel::Noiseless,
        DesignSpec::Iid,
        99,
    );
    for _ in 0..400 {
        sim.add_query();
    }
    assert!(sim.is_separated(), "noiseless 400-query run must separate");
    let old_psi: Vec<f64> = (0..200).map(|i| sim.psi(i)).collect();
    for _ in 0..6 {
        model.step(&mut state, &mut pop_rng);
    }
    let new_truth = state.truth();
    assert_ne!(
        new_truth.ones(),
        sim.truth().ones(),
        "epidemic did not move"
    );
    sim.set_truth(new_truth.clone());
    assert_eq!(sim.truth().ones(), new_truth.ones());
    // Evidence is kept: the accumulated neighborhood sums are untouched
    // (the *centering* re-aims at the new k, so scores may shift — that is
    // the point of the swap).
    let new_psi: Vec<f64> = (0..200).map(|i| sim.psi(i)).collect();
    assert_eq!(new_psi, old_psi);
}
