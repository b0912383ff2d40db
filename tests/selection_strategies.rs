//! Cross-crate tie-rule agreement: the decentralized top-`k` selection —
//! standalone (`select_top_k`) and embedded in the distributed protocol
//! (`SelectionStrategy::GossipThreshold`) — must select the *identical*
//! bit vector as the sequential rank-`k` rule (`Estimate::from_scores`,
//! which `GreedyDecoder` ranks by), including on score vectors riddled
//! with exact ties and at the degenerate `k ∈ {0, n}`.

use noisy_pooled_data::core::distributed::{self, ProtocolOptions, SelectionStrategy};
use noisy_pooled_data::core::{Decoder, Estimate, GreedyDecoder, Instance, NoiseModel};
use noisy_pooled_data::netsim::gossip::select_top_k;
use proptest::prelude::*;
use rand::rngs::StdRng;
use rand::SeedableRng;

/// The fault-free protocol with gossip selection.
fn gossip() -> ProtocolOptions {
    ProtocolOptions {
        strategy: SelectionStrategy::gossip(),
        ..ProtocolOptions::default()
    }
}

/// The sequential reference: bits of `Estimate::from_scores`.
fn sequential_bits(scores: &[f64], k: usize) -> Vec<bool> {
    Estimate::from_scores(scores.to_vec(), k).bits().to_vec()
}

/// A small value pool with exact duplicates and near-ties one `f64` step
/// apart — the adversarial regime for a threshold bisection.
const TIE_POOL: [f64; 6] = [0.0, 1.0, 1.0, -3.5, 7.25, 1.0 + 1e-12];

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// Standalone selection on tie-riddled scores, any k.
    #[test]
    fn select_top_k_matches_from_scores_on_ties(
        idx in proptest::collection::vec(0u32..6, 1..48),
        k_frac in 0.0f64..=1.0,
    ) {
        let scores: Vec<f64> = idx.iter().map(|&i| TIE_POOL[i as usize]).collect();
        let n = scores.len();
        let k = (((n as f64) * k_frac).round() as usize).min(n);
        let report = select_top_k(&scores, k);
        prop_assert_eq!(report.selected, sequential_bits(&scores, k));
    }

    /// The degenerate ends k = 0 and k = n, on the same tie-riddled pool.
    #[test]
    fn select_top_k_matches_from_scores_at_degenerate_k(
        idx in proptest::collection::vec(0u32..6, 1..48),
    ) {
        let scores: Vec<f64> = idx.iter().map(|&i| TIE_POOL[i as usize]).collect();
        let n = scores.len();
        for k in [0, n] {
            let report = select_top_k(&scores, k);
            prop_assert_eq!(report.selected, sequential_bits(&scores, k));
        }
    }

    /// Continuous scores (generic distinctness), any k.
    #[test]
    fn select_top_k_matches_from_scores_on_continuous(
        scores in proptest::collection::vec(-1e6f64..1e6, 1..48),
        k_frac in 0.0f64..=1.0,
    ) {
        let n = scores.len();
        let k = (((n as f64) * k_frac).round() as usize).min(n);
        let report = select_top_k(&scores, k);
        prop_assert_eq!(report.selected, sequential_bits(&scores, k));
    }
}

proptest! {
    // Full protocol runs are heavier; fewer cases suffice — each one
    // exercises measurement, accumulation and the embedded selection.
    #![proptest_config(ProptestConfig::with_cases(12))]

    /// End-to-end: the protocol with `GossipThreshold` equals the
    /// sequential decoder bit for bit. Noiseless measurements make the
    /// scores integer-valued and tie-heavy, which is exactly where the
    /// tie-break path must agree.
    #[test]
    fn gossip_protocol_matches_greedy_decoder(
        n in 4usize..64,
        m in 8usize..40,
        k_raw in 1usize..8,
        seed in 0u64..500,
    ) {
        let k = k_raw.min(n);
        let run = Instance::builder(n)
            .k(k)
            .queries(m)
            .noise(NoiseModel::Noiseless)
            .build()
            .unwrap()
            .sample(&mut StdRng::seed_from_u64(seed));
        let outcome = distributed::run_protocol_chaos(&run, gossip())
            .expect("fault-free protocol quiesces");
        let sequential = GreedyDecoder::new().decode(&run);
        prop_assert_eq!(outcome.estimate, sequential);
        prop_assert_eq!(outcome.missing_assignments, 0);
        prop_assert_eq!(outcome.stale_messages, 0);
    }
}

/// Both strategies, the standalone API and the sequential rule agree on
/// one run — the four-way equivalence in a single place, including `k = n`
/// (every agent infected) which the builder permits.
#[test]
fn four_way_agreement_including_k_equals_n() {
    for (n, k, m, noise, seed) in [
        (40usize, 3usize, 60usize, NoiseModel::z_channel(0.2), 5u64),
        (33, 33, 40, NoiseModel::Noiseless, 6),
        (17, 1, 25, NoiseModel::gaussian(1.0), 7),
    ] {
        let run = Instance::builder(n)
            .k(k)
            .queries(m)
            .noise(noise)
            .build()
            .unwrap()
            .sample(&mut StdRng::seed_from_u64(seed));
        let decoder = GreedyDecoder::new();
        let sequential = decoder.decode(&run);
        let batcher = distributed::run_protocol_chaos(&run, ProtocolOptions::default()).unwrap();
        let gossip = distributed::run_protocol_chaos(&run, gossip()).unwrap();
        let standalone = select_top_k(&decoder.scores(&run), k);
        assert_eq!(batcher.estimate, sequential, "batcher n={n} k={k}");
        assert_eq!(gossip.estimate, sequential, "gossip n={n} k={k}");
        assert_eq!(
            standalone.selected,
            sequential.bits(),
            "standalone n={n} k={k}"
        );
    }
}
