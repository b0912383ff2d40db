//! Failure injection: the distributed protocol under message loss and
//! duplication (extension beyond the paper, exercising the netsim fault
//! machinery end to end).

use noisy_pooled_data::core::distributed::{self, ProtocolOptions};
use noisy_pooled_data::core::{Instance, NoiseModel};
use noisy_pooled_data::netsim::gossip::{PushSumMsg, PushSumNode};
use noisy_pooled_data::netsim::{FaultConfig, Network, NodeFaultPlan, StepReport};
use rand::rngs::StdRng;
use rand::SeedableRng;

fn sample_run(m: usize, seed: u64) -> noisy_pooled_data::core::Run {
    Instance::builder(128)
        .k(3)
        .queries(m)
        .noise(NoiseModel::Noiseless)
        .build()
        .unwrap()
        .sample(&mut StdRng::seed_from_u64(seed))
}

/// The default (Batcher) protocol under message faults.
fn with_faults(faults: FaultConfig) -> ProtocolOptions {
    ProtocolOptions {
        faults: Some(faults),
        ..ProtocolOptions::default()
    }
}

#[test]
fn protocol_always_terminates_under_faults() {
    for (drop, dup) in [(0.1, 0.0), (0.0, 0.2), (0.3, 0.3), (0.9, 0.0)] {
        let run = sample_run(60, 1);
        let faults = FaultConfig::new(drop, dup, 17).unwrap();
        let outcome =
            distributed::run_protocol_chaos(&run, with_faults(faults)).expect("must terminate");
        assert_eq!(outcome.estimate.bits().len(), 128, "drop={drop} dup={dup}");
        assert!(outcome.rounds <= outcome.sort_depth as u64 + 5);
    }
}

#[test]
fn light_loss_with_redundant_queries_still_recovers() {
    // Double the necessary queries + 0.5% loss: the measurement phase has
    // enough redundancy that reconstruction survives (fixed seeds).
    let run = sample_run(200, 2);
    let faults = FaultConfig::new(0.005, 0.0, 3).unwrap();
    let outcome = distributed::run_protocol_chaos(&run, with_faults(faults)).unwrap();
    assert_eq!(outcome.estimate.ones(), run.ground_truth().ones());
}

#[test]
fn drop_rate_degrades_reconstruction_monotonically_in_aggregate() {
    // Aggregate over seeds: heavy loss produces at least as many failures
    // as light loss.
    let failures = |drop: f64| -> usize {
        (0..6u64)
            .filter(|&seed| {
                let run = sample_run(100, 10 + seed);
                let faults = FaultConfig::new(drop, 0.0, 100 + seed).unwrap();
                let outcome = distributed::run_protocol_chaos(&run, with_faults(faults)).unwrap();
                outcome.estimate.ones() != run.ground_truth().ones()
            })
            .count()
    };
    let light = failures(0.001);
    let heavy = failures(0.6);
    assert!(
        heavy >= light,
        "heavy loss failures {heavy} < light loss failures {light}"
    );
    assert!(heavy >= 4, "60% loss should break most runs: {heavy}/6");
}

#[test]
fn dropped_assignments_are_reported() {
    // With very heavy loss some agents never learn their bit; the outcome
    // must say so rather than silently defaulting.
    let run = sample_run(40, 4);
    let faults = FaultConfig::new(0.8, 0.0, 5).unwrap();
    let outcome = distributed::run_protocol_chaos(&run, with_faults(faults)).unwrap();
    assert!(
        outcome.missing_assignments > 0,
        "80% loss should lose some assignments"
    );
    assert!(outcome.metrics.messages_dropped > 0);
}

#[test]
fn duplication_only_faults_keep_termination_and_shape() {
    let run = sample_run(80, 6);
    let faults = FaultConfig::new(0.0, 0.5, 7).unwrap();
    let outcome = distributed::run_protocol_chaos(&run, with_faults(faults)).unwrap();
    assert!(outcome.metrics.messages_duplicated > 0);
    assert_eq!(outcome.estimate.bits().len(), 128);
}

#[test]
fn protocol_completes_under_crashes_and_corruption() {
    // The chaos acceptance bar: with 10% of nodes fail-stop crashing in
    // the opening rounds and 5% garbling every payload they send, both
    // phase-II strategies complete cleanly — no panic, no hang to the
    // round budget — and the outcome reports the degraded quorum.
    use distributed::SelectionStrategy;
    let run = sample_run(200, 8);
    let plan = NodeFaultPlan::new(41)
        .with_crashes(0.10, (1, 8))
        .unwrap()
        .with_corruption(0.05, 1.0)
        .unwrap();
    for strategy in [SelectionStrategy::BatcherSort, SelectionStrategy::gossip()] {
        let outcome = distributed::run_protocol_chaos(
            &run,
            ProtocolOptions {
                strategy,
                node_faults: Some(plan),
                winsorize: true,
                ..ProtocolOptions::default()
            },
        )
        .expect("chaos run must terminate cleanly, not exhaust the round budget");
        assert!(
            outcome.metrics.node_crashes > 0,
            "{strategy:?}: no crashes drawn"
        );
        assert!(
            outcome.metrics.messages_corrupted > 0,
            "{strategy:?}: no corruption drawn"
        );
        assert_eq!(outcome.agent_liveness.len(), 128);
        assert_eq!(outcome.achieved_quorum(), 128 - outcome.missing_assignments);
        assert!(
            outcome.achieved_quorum() < 128,
            "{strategy:?}: crashes should cost some agents their decision"
        );
        assert!(
            outcome.achieved_quorum() > 64,
            "{strategy:?}: 10% crashes should leave a clear quorum majority \
             (got {})",
            outcome.achieved_quorum()
        );
        let dead = outcome.agent_liveness.iter().filter(|&&l| !l).count();
        assert!(
            dead > 0,
            "{strategy:?}: liveness map should record the dead"
        );
    }
}

/// One faulted gossip run: `rounds` steps of push-sum under the given
/// fault config, optional agent-level fault plan, and shard count, on the
/// given rayon thread count. Conservation (the extended identity, crash
/// losses included) is asserted at every round boundary. Returns every
/// step report and the final bit-exact estimates.
fn faulted_gossip_run(
    faults: FaultConfig,
    plan: Option<NodeFaultPlan>,
    shards: usize,
    threads: usize,
    rounds: usize,
) -> (Vec<StepReport>, Vec<u64>) {
    fn garble(msg: &mut PushSumMsg, entropy: u64) {
        msg.s += ((entropy % 1024) as f64 - 512.0) * 0.01;
    }
    let pool = rayon::ThreadPoolBuilder::new()
        .num_threads(threads)
        .build()
        .unwrap();
    pool.install(|| {
        let nodes: Vec<PushSumNode> = (0..48)
            .map(|i| PushSumNode::new((i as f64) - 11.5, rounds, 77, i))
            .collect();
        let mut net = Network::with_faults(nodes, faults).with_shards(shards);
        if let Some(plan) = plan {
            net = net.with_node_faults(plan).with_corruptor(garble);
        }
        let mut reports = Vec::with_capacity(rounds);
        for _ in 0..rounds {
            reports.push(net.step_parallel());
            assert!(
                net.metrics().conserves(net.in_flight(), net.delayed()),
                "conservation violated mid-run: {:?} in_flight={} delayed={}",
                net.metrics(),
                net.in_flight(),
                net.delayed()
            );
        }
        let estimates = net.nodes().iter().map(|n| n.estimate().to_bits()).collect();
        (reports, estimates)
    })
}

mod proptests {
    use super::*;
    use proptest::prelude::*;

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(24))]

        /// Fault-injected runs (drop + dup + delay together) conserve
        /// `sent + duplicated == delivered + dropped + in_flight + delayed`
        /// at every round boundary, and replay bit-identically across
        /// shard counts and rayon thread counts.
        #[test]
        fn faulted_runs_conserve_and_replay(
            drop_p in 0.0f64..0.6,
            dup_p in 0.0f64..0.6,
            max_delay in 0u64..4,
            seed in 0u64..1_000,
        ) {
            let faults = FaultConfig::new(drop_p, dup_p, seed)
                .unwrap()
                .with_max_delay(max_delay);
            let reference = faulted_gossip_run(faults, None, 1, 1, 12);
            for (shards, threads) in [(2usize, 1usize), (8, 4), (1, 4)] {
                let got = faulted_gossip_run(faults, None, shards, threads, 12);
                prop_assert_eq!(&got, &reference);
            }
        }

        /// Agent-level chaos on top of the message faults: fail-stop
        /// crashes (with and without restarts), stragglers and payload
        /// corruption still conserve the extended identity
        /// `sent + duplicated == delivered + dropped + in_flight +
        /// delayed + lost_to_crash` at every round boundary, and the whole
        /// run replays bit-identically across shard and thread counts.
        #[test]
        fn chaos_runs_conserve_and_replay(
            crash_frac in 0.0f64..0.5,
            // 0 = fail-stop forever; 1..=3 = restart after that many rounds.
            restart_after in 0u64..4,
            corrupt_frac in 0.0f64..0.5,
            seed in 0u64..1_000,
        ) {
            let mut plan = NodeFaultPlan::new(seed)
                .with_crashes(crash_frac, (1, 6))
                .unwrap()
                .with_stragglers(0.2, 1)
                .unwrap()
                .with_corruption(corrupt_frac, 0.5)
                .unwrap();
            if restart_after > 0 {
                plan = plan.with_restarts(restart_after);
            }
            let faults = FaultConfig::new(0.1, 0.1, seed ^ 0xF00D)
                .unwrap()
                .with_max_delay(2);
            let reference = faulted_gossip_run(faults, Some(plan), 1, 1, 12);
            for (shards, threads) in [(2usize, 1usize), (8, 4), (1, 4)] {
                let got = faulted_gossip_run(faults, Some(plan), shards, threads, 12);
                prop_assert_eq!(&got, &reference);
            }
        }
    }
}
