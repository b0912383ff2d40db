//! Decentralized selection as a drop-in replacement for Algorithm 1's
//! sorting network: greedy scores go in, the gossip top-`k` protocol picks
//! the one-agents, and the result is bit-identical to the sequential
//! decoder.

use noisy_pooled_data::core::{Decoder, GreedyDecoder, Instance, NoiseModel};
use noisy_pooled_data::netsim::gossip::{push_sum_average, select_top_k, TopKNode, PROBE_LIMIT};

use rand::rngs::StdRng;
use rand::SeedableRng;

#[test]
fn gossip_selection_matches_sequential_decoder() {
    for (seed, noise) in [
        (1u64, NoiseModel::Noiseless),
        (2, NoiseModel::z_channel(0.1)),
        (3, NoiseModel::gaussian(1.0)),
    ] {
        let run = Instance::builder(300)
            .k(4)
            .queries(300)
            .noise(noise)
            .build()
            .unwrap()
            .sample(&mut StdRng::seed_from_u64(seed));
        let decoder = GreedyDecoder::new();
        let sequential = decoder.decode(&run);
        let report = select_top_k(&decoder.scores(&run), 4);
        let gossip_bits: Vec<bool> = report.selected;
        assert_eq!(
            gossip_bits,
            sequential.bits(),
            "gossip selection diverged from the sorting-network rule under {noise}"
        );
    }
}

#[test]
fn selection_cost_is_adaptive() {
    let run = Instance::builder(200)
        .k(3)
        .queries(150)
        .build()
        .unwrap()
        .sample(&mut StdRng::seed_from_u64(9));
    let scores = GreedyDecoder::new().scores(&run);
    let report = select_top_k(&scores, 3);
    assert!(report.rounds <= TopKNode::max_rounds(200, PROBE_LIMIT));
    // The pre-adaptive fixed timetable ran (3 + 2·90) phases of
    // ⌈log₂ 200⌉ + 1 = 9 rounds each, i.e. 1 647 rounds, on every input.
    assert!(
        report.rounds < 1_647 / 2,
        "adaptive termination should undercut the old fixed timetable: {} rounds",
        report.rounds
    );
    // Every phase moves at most one message per node per round.
    assert!(report.messages <= report.rounds * 200);
    assert_eq!(
        report.stale_messages, 0,
        "fault-free runs have no stale arrivals"
    );
}

#[test]
fn push_sum_estimates_prevalence() {
    // Fully decentralized k-estimation: averaging the estimated bits gives
    // k/n at every agent — the missing piece when k is not known a priori.
    let run = Instance::builder(250)
        .k(5)
        .queries(250)
        .noise(NoiseModel::z_channel(0.1))
        .build()
        .unwrap()
        .sample(&mut StdRng::seed_from_u64(11));
    let est = GreedyDecoder::new().decode(&run);
    let indicator: Vec<f64> = est.bits().iter().map(|&b| f64::from(u8::from(b))).collect();
    let estimates = push_sum_average(&indicator, 80, 13);
    for (i, &e) in estimates.iter().enumerate() {
        assert!(
            (e - 5.0 / 250.0).abs() < 1e-6,
            "agent {i} estimated prevalence {e}"
        );
    }
}
