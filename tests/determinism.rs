//! Threading/determinism regression tests.
//!
//! The experiment harness promises bit-identical results at any thread
//! count (see the contract in `npd-experiments`' crate docs), and the
//! buffer-reuse decoder paths promise bit-identical output to their
//! one-shot counterparts. These tests pin both properties; if either
//! breaks, every figure in the paper reproduction silently becomes
//! scheduling-dependent.

use noisy_pooled_data::amp::{AmpDecoder, AmpWorkspace};
use noisy_pooled_data::core::distributed::{self, ProtocolOptions};
use noisy_pooled_data::core::{
    Fold, GreedyDecoder, GreedyWorkspace, Instance, NoiseModel, Regime, ScoreOptions,
};
use noisy_pooled_data::decoders::{BpDecoder, BpWorkspace};
use noisy_pooled_data::experiments::figures::{fig6, fig7};
use noisy_pooled_data::experiments::sweep::{required_queries_grid, SweepCell};
use noisy_pooled_data::experiments::{mix_seed, runner};
use noisy_pooled_data::netsim::gossip::PushSumNode;
use noisy_pooled_data::netsim::{FaultConfig, Metrics, Network, NodeId, Topology};
use rand::rngs::StdRng;
use rand::SeedableRng;

fn sample_run(
    n: usize,
    k: usize,
    m: usize,
    noise: NoiseModel,
    seed: u64,
) -> noisy_pooled_data::core::Run {
    Instance::builder(n)
        .k(k)
        .queries(m)
        .noise(noise)
        .build()
        .expect("valid test configuration")
        .sample(&mut StdRng::seed_from_u64(seed))
}

#[test]
fn sweep_grid_is_identical_across_thread_counts() {
    let cells: Vec<SweepCell> = [(100usize, 0.0f64), (178, 0.1), (316, 0.3)]
        .iter()
        .enumerate()
        .map(|(i, &(n, p))| {
            SweepCell::paper(
                n,
                Regime::sublinear(0.25),
                if p == 0.0 {
                    NoiseModel::Noiseless
                } else {
                    NoiseModel::z_channel(p)
                },
                10_000,
                mix_seed(0xDE7E_0001, i as u64),
            )
        })
        .collect();
    let reference = required_queries_grid(&cells, 6, 1);
    assert!(
        reference.iter().any(|s| !s.samples.is_empty()),
        "degenerate reference: no successful trials"
    );
    for threads in [2usize, 4, 8, 16] {
        let got = required_queries_grid(&cells, 6, threads);
        assert_eq!(got, reference, "threads={threads}");
    }
}

#[test]
fn figure_measurements_are_identical_across_thread_counts() {
    // Figure 6 (paired success rates) and Figure 7 (mean overlap) at one
    // representative grid point each.
    let f6_ref = fig6::measure_point(0.1, 250, 8, 0xF6, 1);
    let f7_ref = fig7::mean_overlap(0.1, 250, 8, 0xF7, 1);
    for threads in [2usize, 4, 8] {
        assert_eq!(fig6::measure_point(0.1, 250, 8, 0xF6, threads), f6_ref);
        let f7 = fig7::mean_overlap(0.1, 250, 8, 0xF7, threads);
        assert_eq!(
            f7.to_bits(),
            f7_ref.to_bits(),
            "threads={threads}: mean overlap differs"
        );
    }
}

#[test]
fn parallel_map_respects_rayon_num_threads_contract() {
    // Whatever the ambient RAYON_NUM_THREADS is, an explicit threads=1 run
    // and the default-pool run must agree bit-for-bit.
    let seeds: Vec<u64> = (0..32).map(|i| mix_seed(0xD00D, i)).collect();
    let decode = |&seed: &u64| {
        let run = sample_run(300, 4, 260, NoiseModel::z_channel(0.1), seed);
        GreedyDecoder::new().scores(&run)
    };
    let sequential = runner::parallel_map(&seeds, 1, decode);
    let default_pool = runner::parallel_map(&seeds, runner::default_threads(), decode);
    assert_eq!(sequential, default_pool);
}

#[test]
fn greedy_workspace_path_matches_one_shot() {
    let decoder = GreedyDecoder::new();
    let mut ws = GreedyWorkspace::new();
    for seed in 0..5u64 {
        let run = sample_run(400, 5, 300, NoiseModel::channel(0.1, 0.05), seed);
        let fresh = decoder.scores(&run);
        let reused = decoder.scores_with(&run, ScoreOptions::default(), &mut ws);
        assert!(
            fresh
                .iter()
                .zip(&reused)
                .all(|(a, b)| a.to_bits() == b.to_bits()),
            "seed={seed}: workspace scores differ"
        );
    }
}

#[test]
fn bp_workspace_path_matches_one_shot() {
    let decoder = BpDecoder::new();
    let mut ws = BpWorkspace::new();
    for seed in 0..3u64 {
        let run = sample_run(300, 4, 220, NoiseModel::z_channel(0.1), 100 + seed);
        assert_eq!(
            decoder.solve(&run),
            decoder.solve_with(&run, &mut ws),
            "seed={seed}"
        );
    }
}

#[test]
fn amp_workspace_path_matches_one_shot() {
    let decoder = AmpDecoder::default();
    let mut ws = AmpWorkspace::new();
    for seed in 0..3u64 {
        let run = sample_run(400, 4, 300, NoiseModel::z_channel(0.1), 200 + seed);
        let (est_fresh, out_fresh) = decoder.decode_with_trace(&run);
        let (est_reuse, out_reuse) = decoder.decode_with_trace_using(&run, &mut ws);
        assert_eq!(est_fresh, est_reuse, "seed={seed}");
        assert_eq!(out_fresh, out_reuse, "seed={seed}");
    }
}

/// The sharded network engine's core guarantee: a fault-injected
/// (drop + dup + delay) gossip run produces bit-identical estimates,
/// metrics and traffic for every shard count in {1, 2, 8} and every
/// thread count in {1, 4}.
#[test]
fn sharded_network_is_identical_across_shard_and_thread_counts() {
    let values: Vec<f64> = (0..96).map(|i| ((i as f64) * 0.73).sin() * 10.0).collect();
    let faults = FaultConfig::new(0.05, 0.1, 3).unwrap().with_max_delay(2);
    let run = |shards: usize, threads: usize| -> (Vec<u64>, Metrics) {
        let pool = rayon::ThreadPoolBuilder::new()
            .num_threads(threads)
            .build()
            .unwrap();
        pool.install(|| {
            let nodes: Vec<PushSumNode> = values
                .iter()
                .enumerate()
                .map(|(i, &v)| PushSumNode::new(v, 40, 17, i))
                .collect();
            let mut net = Network::new(nodes).with_faults(faults).with_shards(shards);
            net.run_until_quiescent(100).unwrap();
            let estimates = net.nodes().iter().map(|n| n.estimate().to_bits()).collect();
            (estimates, *net.metrics())
        })
    };
    let reference = run(1, 1);
    assert!(reference.1.messages_dropped > 0, "no drops drawn");
    assert!(reference.1.messages_duplicated > 0, "no dups drawn");
    assert!(reference.1.messages_delayed > 0, "no delays drawn");
    for shards in [1usize, 2, 8] {
        for threads in [1usize, 4] {
            assert_eq!(
                run(shards, threads),
                reference,
                "shards={shards} threads={threads}"
            );
        }
    }
}

/// The sharded engine on a sparse topology with per-link overrides is
/// equally shard- and thread-count independent.
#[test]
fn sharded_topology_runs_are_identical() {
    let topology = |n: usize| {
        Topology::random_regular(n, 4, 11).with_link_faults(
            NodeId(0),
            NodeId(1),
            noisy_pooled_data::netsim::LinkFaults {
                drop_prob: 1.0,
                dup_prob: 0.0,
                max_delay: 0,
            },
        )
    };
    let run = |shards: usize, threads: usize| -> (Vec<u64>, Metrics) {
        let pool = rayon::ThreadPoolBuilder::new()
            .num_threads(threads)
            .build()
            .unwrap();
        pool.install(|| {
            let n = 64;
            let nodes: Vec<PushSumNode> = (0..n)
                .map(|i| PushSumNode::new(i as f64, 30, 5, i))
                .collect();
            let mut net = Network::new(nodes)
                .with_topology(topology(n))
                .with_faults(FaultConfig::new(0.02, 0.05, 23).unwrap().with_max_delay(1))
                .with_shards(shards);
            net.run_until_quiescent(80).unwrap();
            (
                net.nodes().iter().map(|n| n.estimate().to_bits()).collect(),
                *net.metrics(),
            )
        })
    };
    let reference = run(1, 1);
    for shards in [2usize, 8] {
        for threads in [1usize, 4] {
            assert_eq!(run(shards, threads), reference, "shards={shards}");
        }
    }
}

/// Agent-level chaos rides on the same pure per-identity hashes as the
/// message faults: a gossip run under fail-stop crashes (with restarts),
/// stragglers and payload corruption is bit-identical — estimates and
/// every fault counter — for every shard count in {1, 2, 8} and every
/// thread count in {1, 4}.
#[test]
fn chaos_network_is_identical_across_shard_and_thread_counts() {
    use noisy_pooled_data::netsim::gossip::PushSumMsg;
    use noisy_pooled_data::netsim::NodeFaultPlan;

    fn garble(msg: &mut PushSumMsg, entropy: u64) {
        msg.s += ((entropy % 1024) as f64 - 512.0) * 0.01;
    }

    let values: Vec<f64> = (0..80).map(|i| ((i as f64) * 1.31).cos() * 8.0).collect();
    let faults = FaultConfig::new(0.05, 0.05, 7).unwrap().with_max_delay(2);
    let plan = NodeFaultPlan::new(0xC4A0)
        .with_crashes(0.2, (2, 8))
        .unwrap()
        .with_restarts(3)
        .with_stragglers(0.1, 2)
        .unwrap()
        .with_corruption(0.15, 0.5)
        .unwrap();
    let run = |shards: usize, threads: usize| -> (Vec<u64>, Metrics) {
        let pool = rayon::ThreadPoolBuilder::new()
            .num_threads(threads)
            .build()
            .unwrap();
        pool.install(|| {
            let nodes: Vec<PushSumNode> = values
                .iter()
                .enumerate()
                .map(|(i, &v)| PushSumNode::new(v, 30, 19, i))
                .collect();
            let mut net = Network::new(nodes)
                .with_faults(faults)
                .with_node_faults(plan)
                .with_corruptor(garble)
                .with_shards(shards);
            net.run_until_quiescent(120).unwrap();
            let estimates = net.nodes().iter().map(|n| n.estimate().to_bits()).collect();
            (estimates, *net.metrics())
        })
    };
    let reference = run(1, 1);
    assert!(reference.1.node_crashes > 0, "no crashes drawn");
    assert!(reference.1.node_restarts > 0, "no restarts drawn");
    assert!(reference.1.messages_corrupted > 0, "no corruption drawn");
    assert!(
        reference.1.messages_lost_to_crash > 0,
        "no messages lost to crashed nodes"
    );
    for shards in [1usize, 2, 8] {
        for threads in [1usize, 4] {
            assert_eq!(
                run(shards, threads),
                reference,
                "shards={shards} threads={threads}"
            );
        }
    }
}

/// The full chaos protocol entry point — crashes with restarts plus
/// payload corruption with winsorized folds — obeys the same contract:
/// the whole degraded outcome (quorum, liveness, counters, estimate) is
/// identical at any thread count.
#[test]
fn chaos_protocol_is_identical_across_thread_counts() {
    use noisy_pooled_data::core::distributed::{ProtocolOptions, SelectionStrategy};
    use noisy_pooled_data::netsim::NodeFaultPlan;

    let run = sample_run(128, 3, 100, NoiseModel::z_channel(0.1), 33);
    let plan = NodeFaultPlan::new(0x0DDB)
        .with_crashes(0.15, (1, 8))
        .unwrap()
        .with_restarts(4)
        .with_corruption(0.05, 1.0)
        .unwrap();
    let options = ProtocolOptions {
        strategy: SelectionStrategy::gossip(),
        node_faults: Some(plan),
        winsorize: true,
        ..ProtocolOptions::default()
    };
    let pool1 = rayon::ThreadPoolBuilder::new()
        .num_threads(1)
        .build()
        .unwrap();
    let reference = pool1.install(|| distributed::run_protocol_chaos(&run, options).unwrap());
    assert!(reference.metrics.node_crashes > 0, "no crashes drawn");
    assert!(
        reference.metrics.messages_corrupted > 0,
        "no corruption drawn"
    );
    assert_eq!(reference.agent_liveness.len(), 128);
    assert_eq!(
        reference.achieved_quorum(),
        128 - reference.missing_assignments
    );
    for threads in [2usize, 4] {
        let pool = rayon::ThreadPoolBuilder::new()
            .num_threads(threads)
            .build()
            .unwrap();
        assert_eq!(
            pool.install(|| distributed::run_protocol_chaos(&run, options).unwrap()),
            reference,
            "threads={threads}"
        );
    }
}

/// The distributed protocol (which picks its shard count from the ambient
/// rayon pool) returns identical outcomes at any thread count, with and
/// without fault injection.
#[test]
fn distributed_protocol_is_identical_across_thread_counts() {
    let run = sample_run(128, 3, 100, NoiseModel::z_channel(0.1), 31);
    let faults = FaultConfig::new(0.02, 0.05, 9).unwrap().with_max_delay(1);
    let faulty = ProtocolOptions {
        faults: Some(faults),
        ..ProtocolOptions::default()
    };
    let pool1 = rayon::ThreadPoolBuilder::new()
        .num_threads(1)
        .build()
        .unwrap();
    let clean_ref = pool1
        .install(|| distributed::run_protocol_chaos(&run, ProtocolOptions::default()).unwrap());
    let faulty_ref = pool1.install(|| distributed::run_protocol_chaos(&run, faulty).unwrap());
    for threads in [2usize, 4] {
        let pool = rayon::ThreadPoolBuilder::new()
            .num_threads(threads)
            .build()
            .unwrap();
        assert_eq!(
            pool.install(
                || distributed::run_protocol_chaos(&run, ProtocolOptions::default()).unwrap()
            ),
            clean_ref,
            "threads={threads}"
        );
        assert_eq!(
            pool.install(|| distributed::run_protocol_chaos(&run, faulty).unwrap()),
            faulty_ref,
            "threads={threads} (faulty)"
        );
    }
}

/// The gossip selection strategy (adaptive phases, embedded TopK cores)
/// obeys the same contract: identical outcomes — including the per-phase
/// accounting — at any thread count, clean and faulted.
#[test]
fn gossip_strategy_protocol_is_identical_across_thread_counts() {
    use noisy_pooled_data::core::distributed::SelectionStrategy;
    let run = sample_run(128, 3, 100, NoiseModel::z_channel(0.1), 32);
    let faults = FaultConfig::new(0.02, 0.05, 11).unwrap().with_max_delay(2);
    let gossip = |faults: Option<FaultConfig>| {
        let options = ProtocolOptions {
            strategy: SelectionStrategy::gossip(),
            faults,
            ..ProtocolOptions::default()
        };
        distributed::run_protocol_chaos(&run, options).unwrap()
    };
    let pool1 = rayon::ThreadPoolBuilder::new()
        .num_threads(1)
        .build()
        .unwrap();
    let clean_ref = pool1.install(|| gossip(None));
    let faulty_ref = pool1.install(|| gossip(Some(faults)));
    assert!(clean_ref.probes > 0);
    for threads in [2usize, 4] {
        let pool = rayon::ThreadPoolBuilder::new()
            .num_threads(threads)
            .build()
            .unwrap();
        assert_eq!(
            pool.install(|| gossip(None)),
            clean_ref,
            "threads={threads}"
        );
        assert_eq!(
            pool.install(|| gossip(Some(faults))),
            faulty_ref,
            "threads={threads} (faulty)"
        );
    }
}

/// The categorical layer's d = 2 bit-compatibility contract, end to end:
/// a two-category instance consumes the *same* RNG stream as the binary
/// pipeline it generalizes, so truth, pooling graph and every measurement
/// are bit-identical — for every noise model.
#[test]
fn categorical_d2_pipeline_matches_binary_bit_for_bit() {
    use noisy_pooled_data::core::CategoricalInstance;
    for (seed, noise) in [
        (1u64, NoiseModel::Noiseless),
        (2, NoiseModel::z_channel(0.1)),
        (3, NoiseModel::channel(0.08, 0.03)),
        (4, NoiseModel::gaussian(1.5)),
    ] {
        let cat = CategoricalInstance::new(500, vec![60], 300)
            .expect("valid categorical instance")
            .with_noise(noise);
        let bin = cat.to_binary().expect("d = 2 maps onto a binary instance");
        let cat_run = cat.sample(&mut StdRng::seed_from_u64(seed));
        let bin_run = bin.sample(&mut StdRng::seed_from_u64(seed));
        assert_eq!(
            &cat_run.ground_truth().to_binary(),
            bin_run.ground_truth(),
            "noise={noise}: ground truth diverged"
        );
        assert_eq!(
            cat_run.graph(),
            bin_run.graph(),
            "noise={noise}: pooling graph diverged"
        );
        for (j, (row, &y)) in cat_run.results().iter().zip(bin_run.results()).enumerate() {
            assert_eq!(
                row[1].to_bits(),
                y.to_bits(),
                "noise={noise}: measurement {j} diverged"
            );
        }
    }
}

/// Matrix-AMP rides the same parallel matvec substrate as binary AMP, so
/// it must honor the same contract: bit-identical output at any ambient
/// thread count.
#[test]
fn matrix_amp_decode_is_identical_across_thread_counts() {
    use noisy_pooled_data::amp::matrix_amp::run_matrix_amp_tracking;
    use noisy_pooled_data::amp::{prepare_categorical, MatrixAmpConfig};
    use noisy_pooled_data::core::CategoricalInstance;

    let run = CategoricalInstance::new(2_000, vec![200, 150], 900)
        .expect("valid categorical instance")
        .with_noise(NoiseModel::gaussian(1.0))
        .sample(&mut StdRng::seed_from_u64(55));
    let config = MatrixAmpConfig::default();
    let decode = |threads: usize| {
        let pool = rayon::ThreadPoolBuilder::new()
            .num_threads(threads)
            .build()
            .unwrap();
        pool.install(|| run_matrix_amp_tracking(&prepare_categorical(&run), &config, None))
    };
    let reference = decode(1);
    for threads in [2usize, 4, 8] {
        let got = decode(threads);
        assert_eq!(got.labels, reference.labels, "threads={threads}: labels");
        assert_eq!(
            got.iterations, reference.iterations,
            "threads={threads}: iteration count"
        );
        assert_eq!(
            (got.estimate.rows(), got.estimate.cols()),
            (reference.estimate.rows(), reference.estimate.cols())
        );
        for i in 0..reference.estimate.rows() {
            for c in 0..reference.estimate.cols() {
                assert_eq!(
                    got.estimate.get(i, c).to_bits(),
                    reference.estimate.get(i, c).to_bits(),
                    "threads={threads}: estimate ({i}, {c})"
                );
            }
        }
    }
}

#[test]
fn amp_decode_is_identical_across_thread_counts() {
    // AMP's matvecs parallelize across rows once the instance clears the
    // flop threshold; the decode must still be bit-identical.
    let run = sample_run(2_000, 7, 900, NoiseModel::z_channel(0.1), 77);
    let pool1 = rayon::ThreadPoolBuilder::new()
        .num_threads(1)
        .build()
        .unwrap();
    let reference = pool1.install(|| AmpDecoder::default().decode_with_trace(&run));
    for threads in [2usize, 4, 8] {
        let pool = rayon::ThreadPoolBuilder::new()
            .num_threads(threads)
            .build()
            .unwrap();
        let got = pool.install(|| AmpDecoder::default().decode_with_trace(&run));
        assert_eq!(got.0, reference.0, "threads={threads}");
        assert_eq!(got.1, reference.1, "threads={threads}");
    }
}

/// Temporal workloads are a pure function of `(model, n, config, seed)`:
/// the streaming SIR tracker and the per-epoch distributed-protocol
/// tracker must be bit-identical at any ambient thread count (the protocol
/// additionally picks its shard count from the pool, which the engine
/// guarantees is invisible).
#[test]
fn temporal_workload_tracking_is_identical_across_thread_counts() {
    use noisy_pooled_data::core::distributed::SelectionStrategy;
    use noisy_pooled_data::core::DesignSpec;
    use noisy_pooled_data::workloads::{track_greedy, track_protocol, SirDynamics, TrackingConfig};

    let model = SirDynamics::catalog();
    let cfg = TrackingConfig {
        gamma: 64,
        queries_per_epoch: 150,
        epochs: 4,
        noise: NoiseModel::z_channel(0.1),
        design: DesignSpec::Iid,
    };
    let run_both = |threads: usize| {
        let pool = rayon::ThreadPoolBuilder::new()
            .num_threads(threads)
            .build()
            .unwrap();
        pool.install(|| {
            (
                track_greedy(&model, 128, &cfg, 13),
                track_protocol(&model, 128, &cfg, SelectionStrategy::gossip(), 13),
            )
        })
    };
    let reference = run_both(1);
    assert_eq!(reference.0.len(), 4);
    assert!(
        reference.1.iter().any(|r| r.messages > 0),
        "degenerate reference: protocol never ran"
    );
    for threads in [2usize, 4] {
        assert_eq!(run_both(threads), reference, "threads={threads}");
    }
}

/// Structured population sampling itself is thread-count independent when
/// fanned out through the Monte-Carlo runner (one seeded stream per
/// trial, order-preserving map).
#[test]
fn workload_sampling_grid_is_identical_across_thread_counts() {
    use noisy_pooled_data::workloads::WorkloadSpec;
    let specs = [
        WorkloadSpec::Community { theta: 0.5 },
        WorkloadSpec::Households { theta: 0.5 },
        WorkloadSpec::Hubs { theta: 0.5 },
        WorkloadSpec::Sir,
    ];
    let seeds: Vec<u64> = (0..16).map(|i| mix_seed(0x3070, i)).collect();
    let sample_all = |threads: usize| -> Vec<Vec<u32>> {
        runner::parallel_map(&seeds, threads, |&seed| {
            let mut rng = StdRng::seed_from_u64(seed);
            let spec = specs[(seed % specs.len() as u64) as usize];
            spec.model().sample(300, &mut rng).ones().to_vec()
        })
    };
    let reference = sample_all(1);
    for threads in [2usize, 4, 8] {
        assert_eq!(sample_all(threads), reference, "threads={threads}");
    }
}

/// Contract rule 11: the deterministic telemetry plane. The JSONL export
/// of a chaos protocol run — netsim round events, per-node inbox
/// histograms, the protocol's `phase` events — is
/// **byte-identical** across shard counts {1, 8} × thread counts {1, 4},
/// exactly like the outcome it observes.
#[test]
fn protocol_telemetry_stream_is_identical_across_shard_and_thread_counts() {
    use noisy_pooled_data::core::distributed::{ProtocolOptions, SelectionStrategy};
    use noisy_pooled_data::netsim::NodeFaultPlan;
    use noisy_pooled_data::telemetry::TelemetrySink;

    let run = sample_run(128, 3, 100, NoiseModel::z_channel(0.1), 34);
    let plan = NodeFaultPlan::new(0x7E1E)
        .with_crashes(0.10, (1, 6))
        .unwrap()
        .with_corruption(0.05, 1.0)
        .unwrap();
    let trace = |shards: usize, threads: usize| -> (String, distributed::ProtocolOutcome) {
        let pool = rayon::ThreadPoolBuilder::new()
            .num_threads(threads)
            .build()
            .unwrap();
        pool.install(|| {
            let sink = TelemetrySink::recording();
            let options = ProtocolOptions {
                strategy: SelectionStrategy::gossip(),
                node_faults: Some(plan),
                winsorize: true,
                shards: Some(shards),
                ..ProtocolOptions::default()
            };
            let outcome = distributed::run_protocol_chaos_traced(&run, options, &sink).unwrap();
            (sink.export_jsonl().unwrap(), outcome)
        })
    };
    let (reference, ref_outcome) = trace(1, 1);
    assert!(
        reference.lines().count() > 20,
        "trace is degenerate:\n{reference}"
    );
    assert!(reference.contains("\"name\":\"phase\""), "{reference}");
    assert!(ref_outcome.metrics.node_crashes > 0, "no chaos drawn");
    for shards in [1usize, 8] {
        for threads in [1usize, 4] {
            let (stream, outcome) = trace(shards, threads);
            assert_eq!(outcome, ref_outcome, "shards={shards} threads={threads}");
            assert_eq!(stream, reference, "shards={shards} threads={threads}");
        }
    }
}

/// The AMP decoder's telemetry — one `amp.iter` event per iteration with
/// the SE statistic and update delta — is byte-identical across thread
/// counts (the events are emitted from the serial iteration boundary).
#[test]
fn amp_telemetry_stream_is_identical_across_thread_counts() {
    use noisy_pooled_data::telemetry::TelemetrySink;

    let run = sample_run(600, 5, 400, NoiseModel::gaussian(1.0), 35);
    let trace = |threads: usize| -> String {
        let pool = rayon::ThreadPoolBuilder::new()
            .num_threads(threads)
            .build()
            .unwrap();
        pool.install(|| {
            let sink = TelemetrySink::recording();
            let mut ws = AmpWorkspace::new();
            ws.set_telemetry(sink.clone());
            let _ = AmpDecoder::default().decode_with_trace_using(&run, &mut ws);
            sink.export_jsonl().unwrap()
        })
    };
    let reference = trace(1);
    assert!(
        reference.contains("\"name\":\"amp.iter\""),
        "no iteration events:\n{reference}"
    );
    for threads in [2usize, 4] {
        assert_eq!(trace(threads), reference, "threads={threads}");
    }
}

/// FNV-1a over 64-bit words, each slice length first, the fingerprint
/// scheme of the stream pins in `tests/amp_baseline.rs` and
/// `tests/static_contract.rs`.
fn fingerprint(slices: &[&[u64]]) -> u64 {
    let mut h = 0xcbf2_9ce4_8422_2325u64;
    let mut mix = |v: u64| {
        h ^= v;
        h = h.wrapping_mul(0x0000_0100_0000_01B3);
    };
    for words in slices {
        mix(words.len() as u64);
        for &w in words.iter() {
            mix(w);
        }
    }
    h
}

/// [`fingerprint`] over the bit patterns of score vectors.
fn score_fingerprint(vectors: &[&[f64]]) -> u64 {
    let bits: Vec<Vec<u64>> = vectors
        .iter()
        .map(|scores| scores.iter().map(|x| x.to_bits()).collect())
        .collect();
    fingerprint(&bits.iter().map(Vec::as_slice).collect::<Vec<_>>())
}

/// Bit-level pins of every score path built on the greedy fold. The
/// equivalence tests only compare these paths with each other, so a
/// change to the shared arithmetic would move every side at once and
/// still pass them; these constants catch it. Recorded once, never
/// updated: a moved pin is a behaviour change, not a stale constant.
const SCORE_PINS: [(&str, u64); 14] = [
    ("greedy/noise-aware", 0xE8A3_8C96_9047_F855),
    ("greedy/plain", 0xEB5C_E7A2_9324_6178),
    ("fold/winsorize", 0xDB54_19E0_4C67_7EB9),
    ("fold/trim", 0xA68D_AAA4_1DEC_5007),
    ("fold/slot-rate", 0x0E77_710C_62BA_0C19),
    ("posterior/scores", 0xB03D_0118_ACDC_4597),
    ("posterior/log-odds", 0xF72D_2B00_177E_7F67),
    ("incremental/iid", 0xF420_D218_862D_F511),
    ("incremental/subset", 0xFB1F_7969_AA67_9C71),
    ("incremental/deck", 0xF70D_FDE1_26E7_32C1),
    ("incremental/bernoulli", 0xEAC6_E405_F368_56E3),
    ("incremental/banded", 0xEB83_DAE7_D078_2D0E),
    ("protocol/batcher", 0xB03D_0118_ACDC_4597),
    ("protocol/gossip", 0xB03D_0118_ACDC_4597),
];

#[test]
fn score_bits_are_pinned() {
    use noisy_pooled_data::core::distributed::SelectionStrategy;
    use noisy_pooled_data::core::{Centering, DesignSpec, IncrementalSim, Run};

    // Γ = 37 on n = 120, m = 90: the doubly regular design deals ragged
    // pools of 37 and 38 slots, which the slot-sum centering must track.
    let pin_run = |noise: NoiseModel, design: DesignSpec, seed: u64| -> Run {
        Instance::builder(120)
            .k(4)
            .queries(90)
            .query_size(37)
            .noise(noise)
            .design(design)
            .build()
            .expect("valid pin configuration")
            .sample(&mut StdRng::seed_from_u64(seed))
    };
    let noises = [
        NoiseModel::Noiseless,
        NoiseModel::z_channel(0.2),
        NoiseModel::channel(0.1, 0.05),
        NoiseModel::gaussian(1.0),
    ];
    let runs: Vec<Run> = [DesignSpec::Iid, DesignSpec::DoublyRegular]
        .into_iter()
        .flat_map(|design| noises.map(move |noise| (design, noise)))
        .enumerate()
        .map(|(i, (design, noise))| pin_run(noise, design, 0x5C0E + i as u64))
        .collect();
    let centered = |centering: Centering| -> u64 {
        let decoder = GreedyDecoder::with_centering(centering);
        let scores: Vec<Vec<f64>> = runs.iter().map(|run| decoder.scores(run)).collect();
        let views: Vec<&[f64]> = scores.iter().map(Vec::as_slice).collect();
        score_fingerprint(&views)
    };

    let decoder = GreedyDecoder::new();
    let gaussian = pin_run(NoiseModel::gaussian(2.0), DesignSpec::Iid, 0x5C1E);
    let folded = |run: &Run, slot_rate: Option<f64>, fold: Fold<'_>| {
        let options = ScoreOptions { slot_rate, fold };
        decoder.scores_with(run, options, &mut GreedyWorkspace::new())
    };
    let winsorized = folded(&gaussian, None, Fold::Winsorize);
    assert_ne!(
        winsorized,
        decoder.scores(&gaussian),
        "the winsorize clamp never engaged"
    );
    let z_run = &runs[1];
    let exclude: Vec<bool> = (0..z_run.results().len()).map(|j| j % 7 == 3).collect();
    let trimmed = folded(z_run, None, Fold::Trim(&exclude));
    let channel_run = &runs[6];
    let with_rate = folded(channel_run, Some(0.0375), Fold::Plain);
    let prior: Vec<f64> = (0..120).map(|i| 0.01 + 0.0005 * i as f64).collect();
    let (plain, posterior) = decoder.scores_with_posterior(channel_run, &prior);

    let incremental = |design: DesignSpec, seed: u64| -> u64 {
        let noise = NoiseModel::channel(0.1, 0.05);
        let mut sim = IncrementalSim::with_design(150, 4, 30, noise, design, seed);
        for _ in 0..200 {
            sim.add_query();
        }
        score_fingerprint(&[&sim.scores()])
    };
    let protocol = |strategy: SelectionStrategy| -> u64 {
        let options = ProtocolOptions {
            strategy,
            ..ProtocolOptions::default()
        };
        let outcome = distributed::run_protocol_chaos(channel_run, options).unwrap();
        score_fingerprint(&[outcome.estimate.scores()])
    };

    let got: [(&str, u64); 14] = [
        ("greedy/noise-aware", centered(Centering::NoiseAware)),
        ("greedy/plain", centered(Centering::Plain)),
        ("fold/winsorize", score_fingerprint(&[&winsorized])),
        ("fold/trim", score_fingerprint(&[&trimmed])),
        ("fold/slot-rate", score_fingerprint(&[&with_rate])),
        ("posterior/scores", score_fingerprint(&[&plain])),
        ("posterior/log-odds", score_fingerprint(&[&posterior])),
        ("incremental/iid", incremental(DesignSpec::Iid, 71)),
        (
            "incremental/subset",
            incremental(DesignSpec::GammaSubset, 72),
        ),
        (
            "incremental/deck",
            incremental(DesignSpec::BalancedDeck, 73),
        ),
        (
            "incremental/bernoulli",
            incremental(DesignSpec::SparseColumn, 74),
        ),
        (
            "incremental/banded",
            incremental(DesignSpec::SpatiallyCoupled { bands: 4 }, 75),
        ),
        ("protocol/batcher", protocol(SelectionStrategy::BatcherSort)),
        ("protocol/gossip", protocol(SelectionStrategy::gossip())),
    ];
    let moved: Vec<String> = SCORE_PINS
        .iter()
        .zip(&got)
        .filter(|(pin, now)| pin != now)
        .map(|((name, pin), (_, now))| format!("{name}: pinned {pin:#018X}, got {now:#018X}"))
        .collect();
    assert!(moved.is_empty(), "score pins moved:\n{}", moved.join("\n"));
}

/// Bit-level pins of two faulted protocol runs. The determinism legs only
/// compare shard and thread counts with each other, so a change to how a
/// message's identity keys its fault draws (drop, duplicate, delay,
/// corruption, retransmission) would move every side at once and still
/// pass them; these constants catch it. Each run pins its `Metrics` rows,
/// its per-node `NodeTraffic`, its estimate (score bits, then selected
/// bits) and its deterministic JSONL stream. Recorded once, never updated.
const FAULT_PINS: [(&str, u64); 8] = [
    ("message-faults/metrics", 0xE9C8_6882_70B4_03CF),
    ("message-faults/traffic", 0x384F_D5C4_B511_911B),
    ("message-faults/estimate", 0xF2AA_3BA7_5BE2_8E96),
    ("message-faults/jsonl", 0xCDE4_6086_2017_1DAA),
    ("chaos/metrics", 0x8CCA_F77C_553C_D778),
    ("chaos/traffic", 0x6BC2_7DC7_351F_A35C),
    ("chaos/estimate", 0x062C_8E24_024E_EF35),
    ("chaos/jsonl", 0xDAA8_35EB_CDFC_B37A),
];

#[test]
fn fault_schedules_are_pinned() {
    use noisy_pooled_data::core::distributed::SelectionStrategy;
    use noisy_pooled_data::netsim::{NodeFaultPlan, ReliableConfig};
    use noisy_pooled_data::telemetry::TelemetrySink;

    let traced = |run: &noisy_pooled_data::core::Run, options: ProtocolOptions| {
        let sink = TelemetrySink::recording();
        let outcome = distributed::run_protocol_chaos_traced(run, options, &sink).unwrap();
        (outcome, sink.export_jsonl().unwrap())
    };
    let pins = |name: &str, (outcome, jsonl): (distributed::ProtocolOutcome, String)| {
        let metrics: Vec<u64> = outcome.metrics.as_rows().map(|(_, v)| v).collect();
        let traffic: Vec<u64> = outcome
            .node_traffic
            .iter()
            .flat_map(|t| [t.sent, t.received, t.active_send_rounds])
            .collect();
        let scores = outcome.estimate.scores().iter().map(|s| s.to_bits());
        let bits = outcome.estimate.bits().iter().map(|&b| u64::from(b));
        let estimate: Vec<u64> = scores.chain(bits).collect();
        let stream: Vec<u64> = jsonl.bytes().map(u64::from).collect();
        [
            ("metrics", metrics),
            ("traffic", traffic),
            ("estimate", estimate),
            ("jsonl", stream),
        ]
        .map(|(part, words)| (format!("{name}/{part}"), fingerprint(&[&words])))
    };

    // Message faults on the paper's protocol: drops, duplicates and
    // delays of the measurement broadcast and of the layer-tagged tokens.
    let message_run = sample_run(128, 3, 100, NoiseModel::z_channel(0.1), 36);
    let message = traced(
        &message_run,
        ProtocolOptions {
            faults: Some(FaultConfig::new(0.05, 0.1, 41).unwrap().with_max_delay(2)),
            ..ProtocolOptions::default()
        },
    );
    let m = message.0.metrics;
    assert!(m.messages_dropped > 0, "no drops drawn");
    assert!(m.messages_duplicated > 0, "no duplicates drawn");
    assert!(m.messages_delayed > 0, "no delays drawn");

    // Agent chaos on the gossip selection, over lossy links with the
    // measurement broadcast sent reliably: crashes with restarts,
    // stragglers, corruptors and retransmissions.
    let chaos_run = sample_run(128, 3, 100, NoiseModel::z_channel(0.1), 37);
    let reliable = ReliableConfig::default();
    let plan = NodeFaultPlan::new(0xFA17)
        .with_crashes(0.15, (0, 6))
        .unwrap()
        .with_restarts(3)
        .with_stragglers(0.05, 1)
        .unwrap()
        .with_corruption(0.1, 0.5)
        .unwrap();
    let chaos = traced(
        &chaos_run,
        ProtocolOptions {
            strategy: SelectionStrategy::gossip(),
            faults: Some(FaultConfig::new(0.03, 0.02, 43).unwrap().with_max_delay(1)),
            node_faults: Some(plan),
            reliable: Some(reliable),
            grace: reliable.worst_case_rounds(),
            winsorize: true,
            ..ProtocolOptions::default()
        },
    );
    let c = chaos.0.metrics;
    assert!(c.node_crashes > 0, "no crashes drawn");
    assert!(c.node_restarts > 0, "no restarts drawn");
    assert!(c.messages_corrupted > 0, "no corruption drawn");
    assert!(c.messages_lost_to_crash > 0, "no messages lost to crashes");
    assert!(c.messages_retransmitted > 0, "no retransmissions");

    let got: Vec<(String, u64)> = pins("message-faults", message)
        .into_iter()
        .chain(pins("chaos", chaos))
        .collect();
    let moved: Vec<String> = FAULT_PINS
        .iter()
        .zip(&got)
        .filter(|((name, pin), (got_name, now))| name != got_name || pin != now)
        .map(|((name, pin), (_, now))| format!("{name}: pinned {pin:#018X}, got {now:#018X}"))
        .collect();
    assert!(moved.is_empty(), "fault pins moved:\n{}", moved.join("\n"));
}
