//! The fully distributed reconstruction protocol, end to end.
//!
//! Runs Algorithm 1 on the message-passing network simulator: query nodes
//! broadcast measurements, agents accumulate scores and sort themselves
//! through a Batcher sorting network, and every agent learns its own bit.
//! Prints the communication accounting that backs the paper's "one
//! information exchange per node" claim, plus a fault-injection run.
//!
//! ```text
//! cargo run --release --example distributed_protocol
//! ```

use noisy_pooled_data::core::distributed::{self, ProtocolOptions};
use noisy_pooled_data::core::{Decoder, GreedyDecoder, Instance, NoiseModel};
use noisy_pooled_data::netsim::FaultConfig;
use noisy_pooled_data::sortnet::SortingNetwork;
use rand::SeedableRng;

fn main() -> Result<(), Box<dyn std::error::Error>> {
    let n = 512usize;
    let instance = Instance::builder(n)
        .k(4)
        .queries(300)
        .noise(NoiseModel::z_channel(0.1))
        .build()?;
    let mut rng = rand::rngs::StdRng::seed_from_u64(99);
    let run = instance.sample(&mut rng);

    let outcome = distributed::run_protocol_chaos(&run, ProtocolOptions::default())?;
    let sequential = GreedyDecoder::new().decode(&run);

    println!(
        "Distributed Algorithm 1 on a {n}-agent / {}-query network",
        instance.m()
    );
    println!("  rounds:            {}", outcome.rounds);
    println!(
        "  sort depth:        {} (Batcher odd-even mergesort)",
        outcome.sort_depth
    );
    println!("  messages sent:     {}", outcome.metrics.messages_sent);
    println!(
        "  payload bytes:     {}",
        outcome.metrics.payload_bytes_sent
    );
    println!("  peak in flight:    {}", outcome.metrics.peak_in_flight);
    println!(
        "  matches sequential decoder: {}",
        outcome.estimate == sequential
    );
    println!(
        "  exact recovery:    {}",
        outcome.estimate.ones() == run.ground_truth().ones()
    );

    // Round complexity context: Batcher vs the brick-wall baseline.
    let batcher = SortingNetwork::batcher_odd_even(n);
    let brick = SortingNetwork::odd_even_transposition(n);
    println!(
        "\nSorting-network round complexity at n = {n}: Batcher {} vs \
         odd-even transposition {}",
        batcher.depth(),
        brick.depth()
    );

    // Fault injection: 2% of messages dropped.
    let faults = FaultConfig::new(0.02, 0.0, 7)?;
    let faulty = distributed::run_protocol_chaos(
        &run,
        ProtocolOptions {
            faults: Some(faults),
            ..ProtocolOptions::default()
        },
    )?;
    println!(
        "\nWith 2% message drops: dropped {} of {} messages, \
         {} agents missed their assignment, exact recovery: {}",
        faulty.metrics.messages_dropped,
        faulty.metrics.messages_sent,
        faulty.missing_assignments,
        faulty.estimate.ones() == run.ground_truth().ones()
    );
    Ok(())
}
