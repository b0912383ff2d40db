//! The distributed protocol is bit-identical to the sequential decoder —
//! the equivalence claimed in Section III of the paper.

use noisy_pooled_data::core::distributed::{self, ProtocolOptions, SelectionStrategy};
use noisy_pooled_data::core::{
    Decoder, Fold, GreedyDecoder, GreedyWorkspace, Instance, NoiseModel, Regime, ScoreOptions,
};
use rand::rngs::StdRng;
use rand::SeedableRng;

fn check_equivalence(n: usize, k: usize, m: usize, noise: NoiseModel, seed: u64) {
    let run = Instance::builder(n)
        .k(k)
        .queries(m)
        .noise(noise)
        .build()
        .expect("valid instance")
        .sample(&mut StdRng::seed_from_u64(seed));
    let outcome = distributed::run_protocol_chaos(&run, ProtocolOptions::default())
        .expect("protocol quiesces");
    let sequential = GreedyDecoder::new().decode(&run);
    assert_eq!(
        outcome.estimate, sequential,
        "n={n} k={k} m={m} noise={noise} seed={seed}"
    );
    assert_eq!(outcome.missing_assignments, 0);
}

#[test]
fn equivalence_across_noise_models() {
    for (seed, noise) in [
        NoiseModel::Noiseless,
        NoiseModel::z_channel(0.3),
        NoiseModel::channel(0.2, 0.1),
        NoiseModel::gaussian(1.5),
    ]
    .into_iter()
    .enumerate()
    {
        check_equivalence(96, 3, 60, noise, seed as u64);
    }
}

/// The agents' winsorized fold (`ProtocolOptions::winsorize`) is the
/// sequential `Fold::Winsorize` bit for bit, on a fault-free Gaussian run
/// whose results leave `[0, slots]` so the clamp engages.
#[test]
fn winsorized_protocol_matches_winsorized_fold() {
    let run = Instance::builder(96)
        .k(3)
        .queries(60)
        .noise(NoiseModel::gaussian(2.0))
        .build()
        .expect("valid instance")
        .sample(&mut StdRng::seed_from_u64(21));
    let scores = |fold: Fold<'_>| {
        let options = ScoreOptions {
            fold,
            ..ScoreOptions::default()
        };
        let scores = GreedyDecoder::new().scores_with(&run, options, &mut GreedyWorkspace::new());
        scores.iter().map(|s| s.to_bits()).collect::<Vec<u64>>()
    };
    let (winsorized, plain) = (scores(Fold::Winsorize), scores(Fold::Plain));
    for strategy in [SelectionStrategy::BatcherSort, SelectionStrategy::gossip()] {
        let options = ProtocolOptions {
            strategy,
            winsorize: true,
            ..ProtocolOptions::default()
        };
        let outcome = distributed::run_protocol_chaos(&run, options).expect("protocol quiesces");
        let protocol: Vec<u64> = outcome
            .estimate
            .scores()
            .iter()
            .map(|s| s.to_bits())
            .collect();
        assert_eq!(protocol, winsorized, "{strategy}: winsorized folds differ");
        assert_ne!(protocol, plain, "{strategy}: the clamp never engaged");
        assert_eq!(outcome.missing_assignments, 0);
    }
}

/// A grace window keeps the agents folding for extra rounds before they
/// form their scores. On a fault-free network the late score round
/// changes nothing but the clock: both strategies still give the
/// sequential estimate bit for bit, with the same messages, every round
/// shifted by the window.
#[test]
fn grace_window_keeps_equivalence() {
    let run = Instance::builder(96)
        .k(3)
        .queries(60)
        .noise(NoiseModel::gaussian(1.5))
        .build()
        .expect("valid instance")
        .sample(&mut StdRng::seed_from_u64(33));
    let sequential = GreedyDecoder::new().decode(&run);
    for strategy in [SelectionStrategy::BatcherSort, SelectionStrategy::gossip()] {
        let with_grace = |grace: u64| {
            let options = ProtocolOptions {
                strategy,
                grace,
                ..ProtocolOptions::default()
            };
            distributed::run_protocol_chaos(&run, options).expect("protocol quiesces")
        };
        let base = with_grace(0);
        for grace in [1, 3] {
            let outcome = with_grace(grace);
            assert_eq!(outcome.estimate, sequential, "{strategy} grace={grace}");
            assert_eq!(outcome.missing_assignments, 0, "{strategy} grace={grace}");
            assert_eq!(
                outcome.rounds,
                base.rounds + grace,
                "{strategy} grace={grace}"
            );
            assert_eq!(outcome.metrics.messages_sent, base.metrics.messages_sent);
        }
    }
}

#[test]
fn equivalence_across_population_sizes() {
    // Deliberately awkward sizes: primes, powers of two, one-off-powers.
    for n in [7usize, 16, 31, 64, 65, 127, 200] {
        check_equivalence(n, 2.min(n), 40, NoiseModel::z_channel(0.1), n as u64);
    }
}

#[test]
fn equivalence_in_linear_regime() {
    let run = Instance::builder(120)
        .regime(Regime::linear(0.1))
        .queries(150)
        .noise(NoiseModel::z_channel(0.2))
        .build()
        .unwrap()
        .sample(&mut StdRng::seed_from_u64(77));
    let outcome = distributed::run_protocol_chaos(&run, ProtocolOptions::default()).unwrap();
    assert_eq!(outcome.estimate, GreedyDecoder::new().decode(&run));
}

#[test]
fn round_complexity_is_logarithmic_squared() {
    // Batcher depth t(t+1)/2 for n = 2^t, plus 3 protocol rounds.
    let run = Instance::builder(256)
        .k(2)
        .queries(30)
        .build()
        .unwrap()
        .sample(&mut StdRng::seed_from_u64(5));
    let outcome = distributed::run_protocol_chaos(&run, ProtocolOptions::default()).unwrap();
    assert_eq!(outcome.sort_depth, 36); // t = 8: 8·9/2
    assert_eq!(outcome.rounds, 39);
}

#[test]
fn communication_grows_with_queries_not_rounds() {
    // Doubling m roughly doubles measurement messages but leaves the
    // sorting traffic unchanged.
    let mk = |m: usize| {
        let run = Instance::builder(128)
            .k(2)
            .queries(m)
            .build()
            .unwrap()
            .sample(&mut StdRng::seed_from_u64(9));
        distributed::run_protocol_chaos(&run, ProtocolOptions::default()).unwrap()
    };
    let small = mk(20);
    let large = mk(40);
    assert_eq!(small.rounds, large.rounds);
    let delta = large.metrics.messages_sent - small.metrics.messages_sent;
    // ~20 extra queries × ~γ·128 ≈ 50 distinct members each.
    assert!(delta > 600, "delta={delta}");
    assert!(delta < 1_600, "delta={delta}");
}
