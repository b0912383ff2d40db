//! Fully decentralized reconstruction: replace Algorithm 1's sorting
//! network with gossip primitives so no agent ever sees another agent's
//! score.
//!
//! ```text
//! cargo run --release --example decentralized_topk
//! ```

use noisy_pooled_data::core::distributed::{self, ProtocolOptions, SelectionStrategy};
use noisy_pooled_data::core::{exact_recovery, Instance, NoiseModel};
use noisy_pooled_data::netsim::gossip::push_sum_average;
use rand::SeedableRng;

fn main() -> Result<(), Box<dyn std::error::Error>> {
    let mut rng = rand::rngs::StdRng::seed_from_u64(99);
    let instance = Instance::builder(512)
        .k(4)
        .queries(400)
        .noise(NoiseModel::z_channel(0.1))
        .build()?;
    let run = instance.sample(&mut rng);

    // Variant A: the paper's protocol — measurements, then a Batcher
    // sorting network ranks the agents.
    let outcome = distributed::run_protocol_chaos(&run, ProtocolOptions::default())?;
    println!(
        "sorting-network protocol: {} messages, {} rounds, exact = {}",
        outcome.metrics.messages_sent,
        outcome.rounds,
        exact_recovery(&outcome.estimate, run.ground_truth())
    );

    // Variant B: the same protocol with phase II swapped for the adaptive
    // gossip threshold search — agents learn only their own bit, no
    // sorting network is ever built, and the search stops as soon as
    // the k-th score is isolated (or only exact ties remain).
    let gossip = distributed::run_protocol_chaos(
        &run,
        ProtocolOptions {
            strategy: SelectionStrategy::gossip(),
            ..ProtocolOptions::default()
        },
    )?;
    println!(
        "gossip-threshold protocol: {} messages, {} rounds (four-threshold probes: {}), \
         matches sorting network = {}",
        gossip.metrics.messages_sent,
        gossip.rounds,
        gossip.probes,
        gossip.estimate == outcome.estimate
    );

    // Bonus: estimate the prevalence k/n by push-sum over the decided bits —
    // the piece a deployment needs when k is not known in advance.
    let bits: Vec<f64> = gossip
        .estimate
        .bits()
        .iter()
        .map(|&b| f64::from(u8::from(b)))
        .collect();
    let estimates = push_sum_average(&bits, 80, 7);
    println!(
        "push-sum prevalence estimate at agent 0: {:.5} (true k/n = {:.5})",
        estimates[0],
        instance.k() as f64 / instance.n() as f64
    );
    Ok(())
}
