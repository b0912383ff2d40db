//! Cross-layer accounting: the protocol's outcome counters, the network
//! engine's [`Metrics`] rows, and the telemetry counter registry must
//! all tell the same story — fault-free and under message chaos, for
//! both phase-II strategies.
//!
//! The reconciliation identities pinned here:
//!
//! * every [`Metrics::as_rows`] row is dumped verbatim into the sink's
//!   counter registry by `run_protocol_chaos_traced`;
//! * the protocol's phase split is exhaustive —
//!   `measurement + selection + assign == messages_sent`;
//! * the protocol-level outcome fields (`selection_messages`,
//!   `stale_messages`, `probes`, …) equal their dumped counters;
//! * the fault pipeline conserves messages at quiescence
//!   ([`Metrics::conserves`] with nothing in flight).

use noisy_pooled_data::core::distributed::{
    run_protocol_chaos_traced, ProtocolOptions, SelectionStrategy,
};
use noisy_pooled_data::core::{Instance, NoiseModel, Run};
use noisy_pooled_data::netsim::FaultConfig;
use noisy_pooled_data::telemetry::{MetricsSnapshot, TelemetrySink};
use rand::rngs::StdRng;
use rand::SeedableRng;

fn sample_run(n: usize, k: usize, m: usize, seed: u64) -> Run {
    Instance::builder(n)
        .k(k)
        .queries(m)
        .noise(NoiseModel::z_channel(0.1))
        .build()
        .unwrap()
        .sample(&mut StdRng::seed_from_u64(seed))
}

fn counter(snapshot: &MetricsSnapshot, name: &str) -> u64 {
    snapshot
        .counters
        .iter()
        .find(|&&(n, _)| n == name)
        .map(|&(_, v)| v)
        .unwrap_or_else(|| panic!("counter `{name}` missing from {:?}", snapshot.counters))
}

/// Runs one traced protocol and checks every reconciliation identity.
fn check_accounting(strategy: SelectionStrategy, faults: Option<FaultConfig>, label: &str) {
    let run = sample_run(96, 3, 80, 77);
    let sink = TelemetrySink::recording();
    let options = ProtocolOptions {
        strategy,
        faults,
        ..ProtocolOptions::default()
    };
    let outcome = run_protocol_chaos_traced(&run, options, &sink).unwrap();
    let snapshot = sink.snapshot().unwrap();

    // Every engine Metrics row is dumped verbatim into the registry.
    for (name, value) in outcome.metrics.as_rows() {
        assert_eq!(counter(&snapshot, name), value, "{label}: row `{name}`");
    }

    // The protocol's phase split is exhaustive: the three message
    // classes partition everything the network ever accepted from nodes.
    let measurement = counter(&snapshot, "measurement_messages");
    let selection = counter(&snapshot, "selection_messages");
    let assign = counter(&snapshot, "assign_messages");
    assert_eq!(
        measurement + selection + assign,
        outcome.metrics.messages_sent,
        "{label}: phase split does not partition messages_sent"
    );
    // Gossip has no assignment round; Batcher assigns once per agent.
    match strategy {
        SelectionStrategy::BatcherSort => {
            assert!(assign > 0, "{label}: Batcher sent no assignments")
        }
        SelectionStrategy::GossipThreshold { .. } => {
            assert_eq!(assign, 0, "{label}: gossip has no assignment phase")
        }
    }

    // Protocol-level outcome fields equal their dumped counters.
    assert_eq!(selection, outcome.selection_messages, "{label}");
    assert_eq!(
        counter(&snapshot, "stale_messages"),
        outcome.stale_messages,
        "{label}"
    );
    assert_eq!(
        counter(&snapshot, "probes"),
        u64::from(outcome.probes),
        "{label}"
    );
    assert_eq!(
        counter(&snapshot, "selection_rounds"),
        outcome.selection_rounds,
        "{label}"
    );
    assert_eq!(
        counter(&snapshot, "missing_assignments"),
        outcome.missing_assignments as u64,
        "{label}"
    );
    assert_eq!(
        counter(&snapshot, "achieved_quorum"),
        outcome.achieved_quorum() as u64,
        "{label}"
    );
    assert_eq!(
        counter(&snapshot, "restarted_agents"),
        outcome.restarted_agents as u64,
        "{label}"
    );

    // At quiescence nothing is in flight or delayed, so the fault
    // pipeline's conservation identity closes exactly.
    assert!(
        outcome.metrics.conserves(0, 0),
        "{label}: metrics do not conserve at quiescence: {:?}",
        outcome.metrics
    );

    // Strategy- and fault-dependent sanity.
    if let SelectionStrategy::GossipThreshold { .. } = strategy {
        assert!(outcome.probes > 0, "{label}: gossip made no probes");
    }
    match faults {
        None => {
            assert_eq!(outcome.metrics.messages_dropped, 0, "{label}");
            assert_eq!(outcome.metrics.messages_duplicated, 0, "{label}");
            assert_eq!(outcome.metrics.messages_delayed, 0, "{label}");
        }
        Some(_) => {
            let injected = outcome.metrics.messages_dropped
                + outcome.metrics.messages_duplicated
                + outcome.metrics.messages_delayed;
            assert!(injected > 0, "{label}: fault injection drew nothing");
        }
    }
}

fn chaos_faults() -> FaultConfig {
    FaultConfig::new(0.01, 0.05, 0xACC7)
        .unwrap()
        .with_max_delay(2)
}

#[test]
fn batcher_accounting_reconciles_fault_free() {
    check_accounting(SelectionStrategy::BatcherSort, None, "batcher/clean");
}

#[test]
fn batcher_accounting_reconciles_under_loss_dup_delay() {
    check_accounting(
        SelectionStrategy::BatcherSort,
        Some(chaos_faults()),
        "batcher/faults",
    );
}

#[test]
fn gossip_accounting_reconciles_fault_free() {
    check_accounting(SelectionStrategy::gossip(), None, "gossip/clean");
}

#[test]
fn gossip_accounting_reconciles_under_loss_dup_delay() {
    check_accounting(
        SelectionStrategy::gossip(),
        Some(chaos_faults()),
        "gossip/faults",
    );
}

#[test]
fn duplication_and_delay_surface_as_stale_tokens_for_batcher() {
    // Batcher comparators consume exactly one token per layer; duplicated
    // or delayed copies land as stale arrivals, which the outcome counts
    // instead of merging (the module docs' degradation contract).
    let run = sample_run(96, 3, 80, 78);
    let clean = run_protocol_chaos_traced(
        &run,
        ProtocolOptions::default(),
        &TelemetrySink::recording(),
    )
    .unwrap();
    assert_eq!(clean.stale_messages, 0, "clean run saw stale tokens");

    let faulty = run_protocol_chaos_traced(
        &run,
        ProtocolOptions {
            faults: Some(chaos_faults()),
            ..ProtocolOptions::default()
        },
        &TelemetrySink::recording(),
    )
    .unwrap();
    assert!(
        faulty.stale_messages > 0,
        "duplication/delay produced no stale tokens: {:?}",
        faulty.metrics
    );
}

#[test]
fn untraced_and_traced_runs_agree() {
    // The sink is pure observation: attaching it must not perturb the
    // outcome. (`run_protocol_chaos` delegates with a disabled sink.)
    use noisy_pooled_data::core::distributed::run_protocol_chaos;
    let run = sample_run(96, 3, 80, 79);
    let options = ProtocolOptions {
        strategy: SelectionStrategy::gossip(),
        faults: Some(chaos_faults()),
        ..ProtocolOptions::default()
    };
    let untraced = run_protocol_chaos(&run, options).unwrap();
    let sink = TelemetrySink::recording();
    let traced = run_protocol_chaos_traced(&run, options, &sink).unwrap();
    assert_eq!(untraced, traced);
    assert!(sink.snapshot().unwrap().events > 0);
}
