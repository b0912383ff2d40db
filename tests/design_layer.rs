//! Cross-layer behaviour of the pluggable pooling-design layer: every
//! structured design must flow through instance sampling, the sequential
//! decoders, and the distributed protocol unchanged.

use noisy_pooled_data::amp::AmpDecoder;
use noisy_pooled_data::core::{
    distributed, exact_recovery, Decoder, DesignSpec, DoublyRegularDesign, GreedyDecoder, Instance,
    NoiseModel, PoolingDesign, PoolingGraph, SparseColumnDesign, TwoStepDecoder,
};
use rand::rngs::StdRng;
use rand::SeedableRng;

fn instance(design: DesignSpec, n: usize, m: usize, gamma: usize) -> Instance {
    Instance::builder(n)
        .k(4)
        .queries(m)
        .query_size(gamma)
        .noise(NoiseModel::z_channel(0.1))
        .design(design)
        .build()
        .expect("valid configuration")
}

#[test]
fn instance_sampling_respects_the_design() {
    // The design threaded through `InstanceBuilder::design` is the design
    // the sampled run actually uses.
    let run =
        instance(DesignSpec::DoublyRegular, 120, 40, 30).sample(&mut StdRng::seed_from_u64(1));
    let degrees = run.graph().multi_degrees();
    assert!(
        degrees.iter().all(|&d| d == degrees[0]),
        "doubly regular run must be exactly agent-regular"
    );
    assert_eq!(run.instance().design(), DesignSpec::DoublyRegular);

    let run = instance(DesignSpec::SparseColumn, 120, 40, 15).sample(&mut StdRng::seed_from_u64(2));
    let degrees = run.graph().multi_degrees();
    assert!(degrees.iter().all(|&d| d == degrees[0]));
}

#[test]
fn doubly_regular_runs_decode_and_match_the_distributed_protocol() {
    // Ragged pool sizes (±1 balance) must decode exactly, and the
    // distributed protocol — which learns per-query slot counts from the
    // measurement messages — must agree with the sequential decoder
    // bit-for-bit.
    for seed in 0..3 {
        let run = instance(DesignSpec::DoublyRegular, 150, 180, 75)
            .sample(&mut StdRng::seed_from_u64(seed));
        let sequential = GreedyDecoder::new().decode(&run);
        assert!(
            exact_recovery(&sequential, run.ground_truth()),
            "seed={seed}: doubly regular design failed a generous budget"
        );
        let outcome =
            distributed::run_protocol_chaos(&run, distributed::ProtocolOptions::default())
                .expect("quiesces");
        assert_eq!(outcome.estimate, sequential, "seed={seed}");
    }
}

#[test]
fn sparse_column_design_recovers_in_the_sparse_regime() {
    // Γ = n/8 with exact column weight: the regime the constant-column
    // literature targets.
    for seed in 0..3 {
        let run = instance(DesignSpec::SparseColumn, 400, 600, 50)
            .sample(&mut StdRng::seed_from_u64(10 + seed));
        let est = GreedyDecoder::new().decode(&run);
        assert!(
            exact_recovery(&est, run.ground_truth()),
            "seed={}",
            10 + seed
        );
    }
}

#[test]
fn two_step_and_amp_accept_ragged_designs() {
    // The per-query slot-count paths (two-step unbiasing, AMP's CSR
    // conversion) must handle pools whose sizes differ.
    let run =
        instance(DesignSpec::DoublyRegular, 300, 400, 150).sample(&mut StdRng::seed_from_u64(21));
    let two_step = TwoStepDecoder::new().decode(&run);
    assert!(exact_recovery(&two_step, run.ground_truth()));
    let amp = AmpDecoder::default().decode(&run);
    assert!(exact_recovery(&amp, run.ground_truth()));
}

#[test]
fn estimation_uses_realized_query_sizes() {
    // On a ragged design the moment estimator divides by the realized mean
    // slot count; the Z-channel estimate must still land near truth.
    let run = Instance::builder(1_000)
        .k(6)
        .queries(500)
        .query_size(500)
        .noise(NoiseModel::z_channel(0.3))
        .design(DesignSpec::DoublyRegular)
        .build()
        .unwrap()
        .sample(&mut StdRng::seed_from_u64(5));
    let p_hat = noisy_pooled_data::core::estimation::estimate_z_channel(&run).unwrap();
    assert!((p_hat - 0.3).abs() < 0.05, "p_hat={p_hat}");
}

#[test]
fn batch_samplers_expose_trait_objects() {
    // The catalog is iterable as `dyn PoolingDesign`, and profiles agree
    // with realized structure (the contract the scenario registry uses).
    let designs: Vec<Box<dyn PoolingDesign>> =
        vec![Box::new(DoublyRegularDesign), Box::new(SparseColumnDesign)];
    for design in &designs {
        let mut rng = StdRng::seed_from_u64(7);
        let g = design.sample(64, 32, 16, &mut rng);
        let profile = design.profile(64, 32, 16);
        assert!(profile.agent_regular);
        let degrees = g.multi_degrees();
        assert!(degrees
            .iter()
            .all(|&d| d as f64 == profile.expected_agent_slots));
    }
}

#[test]
fn legacy_sampler_stream_is_unchanged_by_the_design_layer() {
    // `Instance::sample` with the default design must keep producing the
    // exact pre-refactor RNG stream (the regression the bit-identical
    // fingerprint in npd-core pins at the graph level; this pins the
    // instance level across the facade).
    let inst = Instance::builder(60).k(4).queries(15).build().unwrap();
    let run1 = inst.sample(&mut StdRng::seed_from_u64(9));
    let run2 = inst.sample(&mut StdRng::seed_from_u64(9));
    assert_eq!(run1, run2);
    // The instance draws ground truth first, then the graph, from one
    // stream; replay that prefix to align the generators.
    let mut rng = StdRng::seed_from_u64(9);
    let _truth = noisy_pooled_data::core::GroundTruth::sample(60, 4, &mut rng);
    let legacy = PoolingGraph::sample(60, 15, 30, &mut rng);
    assert_eq!(run1.graph(), &legacy);
}

#[test]
fn estimate_k_uses_realized_mean_slots_on_ragged_designs() {
    // Regression: the moment estimators must normalize by the *realized*
    // mean query size (`PoolingGraph::mean_query_slots`), not the nominal
    // Γ. Both ragged designs here round their agent/column degree to
    // `round(mΓ/n)`, so the realized mean pool size differs from Γ by
    // ~7%, enough to shift a Γ-normalized k̂ off the true k.
    use noisy_pooled_data::core::estimation;
    let cases = [
        // (design, n, m, Γ, k): mΓ/n lands on x.5–x.7 so rounding bites.
        (
            DesignSpec::SparseColumn,
            500usize,
            100usize,
            23usize,
            20usize,
        ),
        (DesignSpec::DoublyRegular, 300, 50, 28, 15),
    ];
    for (design, n, m, gamma, k) in cases {
        let inst = Instance::builder(n)
            .k(k)
            .queries(m)
            .query_size(gamma)
            .design(design)
            .build()
            .unwrap();
        for seed in 0..5u64 {
            let run = inst.sample(&mut StdRng::seed_from_u64(900 + seed));
            let realized = run.graph().mean_query_slots();
            assert!(
                (realized - gamma as f64).abs() > 0.04 * gamma as f64,
                "{design}: realized mean {realized} too close to nominal Γ={gamma} \
                 for the regression to bite"
            );
            // Noiseless: k̂ is a pure first-moment read-off, so the only
            // way to get it right is the realized normalizer.
            let k_hat = estimation::estimate_k(&run).expect("enough queries");
            assert_eq!(k_hat, k, "{design} seed={seed}: estimate_k drifted");
            // The Γ-nominal computation is measurably wrong on the same
            // data — this is what the realized normalizer fixes.
            let mean = run.results().iter().sum::<f64>() / m as f64;
            let nominal = (n as f64 * mean / gamma as f64).round() as usize;
            assert_ne!(
                nominal, k,
                "{design} seed={seed}: nominal-Γ estimate accidentally right; \
                 pick parameters where rounding bites harder"
            );
        }
    }
}

#[test]
fn decode_with_estimated_k_is_oracle_equivalent_on_ragged_designs() {
    // With k̂ = k (previous test), the blind decoder must reproduce the
    // oracle decoder's selection bit for bit on ragged designs.
    use noisy_pooled_data::core::estimation;
    for design in [DesignSpec::SparseColumn, DesignSpec::DoublyRegular] {
        let inst = Instance::builder(500)
            .k(20)
            .queries(100)
            .query_size(23)
            .design(design)
            .build()
            .unwrap();
        for seed in 0..3u64 {
            let run = inst.sample(&mut StdRng::seed_from_u64(950 + seed));
            let blind = estimation::decode_with_estimated_k(&run).expect("enough queries");
            let oracle = GreedyDecoder::new().decode(&run);
            assert_eq!(blind.ones(), oracle.ones(), "{design} seed={seed}");
        }
    }
}
