//! End-to-end behaviour of the two pooling designs (with / without
//! replacement) across the decoder implementations.

use noisy_pooled_data::amp::AmpDecoder;
use noisy_pooled_data::core::{
    distributed, exact_recovery, Decoder, GreedyDecoder, Instance, NoiseModel, Sampling,
};
use rand::rngs::StdRng;
use rand::SeedableRng;

fn instance(sampling: Sampling, m: usize) -> Instance {
    Instance::builder(400)
        .k(4)
        .queries(m)
        .noise(NoiseModel::z_channel(0.1))
        .sampling(sampling)
        .build()
        .expect("valid configuration")
}

#[test]
fn both_designs_recover_with_generous_budgets() {
    for sampling in [Sampling::WithReplacement, Sampling::WithoutReplacement] {
        for seed in 0..3 {
            let run = instance(sampling, 400).sample(&mut StdRng::seed_from_u64(seed));
            let est = GreedyDecoder::new().decode(&run);
            assert!(
                exact_recovery(&est, run.ground_truth()),
                "{sampling:?} seed={seed}"
            );
        }
    }
}

#[test]
fn distributed_protocol_handles_subset_designs() {
    let run = instance(Sampling::WithoutReplacement, 120).sample(&mut StdRng::seed_from_u64(5));
    let outcome = distributed::run_protocol_chaos(&run, distributed::ProtocolOptions::default())
        .expect("quiesces");
    assert_eq!(outcome.estimate, GreedyDecoder::new().decode(&run));
    // Simple design: every measurement edge has multiplicity 1, so the
    // measurement traffic equals m·Γ exactly.
    let measurement_msgs: u64 = run
        .graph()
        .queries()
        .iter()
        .map(|q| q.distinct_len() as u64)
        .sum();
    assert_eq!(measurement_msgs, (120 * 200) as u64);
}

#[test]
fn amp_decodes_subset_designs() {
    // The centered-matrix preprocessing works for the simple design too
    // (entries 0/1 instead of counts).
    let run = instance(Sampling::WithoutReplacement, 300).sample(&mut StdRng::seed_from_u64(8));
    let est = AmpDecoder::default().decode(&run);
    assert!(exact_recovery(&est, run.ground_truth()));
}

#[test]
fn subset_design_is_never_worse_on_average() {
    // Aggregate success at a mid-threshold budget: the Γ-subset design
    // covers more agents per query and should win or tie.
    let trials = 8;
    let count_successes = |sampling: Sampling| -> usize {
        (0..trials)
            .filter(|&seed| {
                let run = instance(sampling, 150).sample(&mut StdRng::seed_from_u64(100 + seed));
                exact_recovery(&GreedyDecoder::new().decode(&run), run.ground_truth())
            })
            .count()
    };
    let with = count_successes(Sampling::WithReplacement);
    let without = count_successes(Sampling::WithoutReplacement);
    assert!(
        without >= with,
        "subset design {without}/{trials} vs multigraph {with}/{trials}"
    );
}
