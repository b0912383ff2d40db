//! Protocol accounting: the outcome's phase table, the network engine's
//! [`Metrics`] and the traced `phase` events must tell one story, for
//! both phase-II strategies, fault-free, under message chaos, under
//! reliable retransmission and under round-0 crashes, and for the edge
//! cases of a restart after the assignment and an empty selection.
//!
//! The identities pinned here:
//!
//! * the phases partition the run: they are contiguous in round order,
//!   their messages sum to `messages_sent` and their rounds to `rounds`;
//! * `measure` is counted at its senders: the query nodes' sends plus
//!   every retransmission (query nodes are the only reliable senders);
//! * the traced `phase` events equal the table;
//! * the fault pipeline conserves messages at quiescence
//!   ([`Metrics::conserves`] with nothing in flight).

use noisy_pooled_data::core::distributed::{
    run_protocol_chaos_traced, Phase, ProtocolOptions, ProtocolOutcome, SelectionStrategy,
};
use noisy_pooled_data::core::{Instance, NoiseModel, Run};
use noisy_pooled_data::netsim::{FaultConfig, NodeFaultPlan, ReliableConfig};
use noisy_pooled_data::sortnet::SortingNetwork;
use noisy_pooled_data::telemetry::{FieldValue, RecordedEvent, TelemetrySink};
use rand::rngs::StdRng;
use rand::SeedableRng;

const STRATEGIES: [SelectionStrategy; 2] =
    [SelectionStrategy::BatcherSort, SelectionStrategy::gossip()];

fn sample_run(n: usize, k: usize, m: usize, seed: u64) -> Run {
    Instance::builder(n)
        .k(k)
        .queries(m)
        .noise(NoiseModel::z_channel(0.1))
        .build()
        .unwrap()
        .sample(&mut StdRng::seed_from_u64(seed))
}

fn field(event: &RecordedEvent, name: &str) -> u64 {
    event
        .event
        .fields
        .iter()
        .find_map(|&(f, v)| match v {
            FieldValue::U64(u) if f == name => Some(u),
            _ => None,
        })
        .unwrap_or_else(|| panic!("phase event has no `{name}`: {event:?}"))
}

fn phase<'a>(outcome: &'a ProtocolOutcome, name: &str) -> &'a Phase {
    outcome
        .phases
        .iter()
        .find(|p| p.name == name)
        .unwrap_or_else(|| panic!("no `{name}` phase in {:?}", outcome.phases))
}

/// Messages the query nodes planned to broadcast: one per distinct member.
fn planned_measurements(run: &Run) -> u64 {
    run.graph()
        .queries()
        .iter()
        .map(|q| q.distinct_len() as u64)
        .sum()
}

/// Runs one traced protocol, checks every accounting identity, and
/// returns the outcome for the setup's own checks.
fn check_accounting(run: &Run, options: ProtocolOptions, label: &str) -> ProtocolOutcome {
    let sink = TelemetrySink::recording();
    let outcome = run_protocol_chaos_traced(run, options, &sink).unwrap();
    let n = run.instance().n();

    // The phases partition the run: contiguous in round order, and
    // together they account for every round and every message.
    let names: Vec<_> = outcome.phases.iter().map(|p| p.name).collect();
    match options.strategy {
        SelectionStrategy::BatcherSort => assert_eq!(
            names,
            ["measure", "accumulate", "select", "assign"],
            "{label}"
        ),
        SelectionStrategy::GossipThreshold { .. } => {
            assert_eq!(names, ["measure", "accumulate", "select"], "{label}")
        }
    }
    let mut next = 0;
    for p in &outcome.phases {
        assert_eq!(
            p.first_round, next,
            "{label}: {} does not follow on",
            p.name
        );
        next += p.rounds;
    }
    assert_eq!(next, outcome.rounds, "{label}: phase rounds");
    let messages: u64 = outcome.phases.iter().map(|p| p.messages).sum();
    assert_eq!(
        messages, outcome.metrics.messages_sent,
        "{label}: phase messages"
    );
    assert_eq!(phase(&outcome, "accumulate").messages, 0, "{label}");

    // `measure` is counted at its senders, retransmissions included.
    let query_sent: u64 = outcome.node_traffic[n..].iter().map(|t| t.sent).sum();
    assert_eq!(
        phase(&outcome, "measure").messages,
        query_sent + outcome.metrics.messages_retransmitted,
        "{label}: measure"
    );

    // The traced `phase` events are the table, with an inclusive round
    // range that is empty when the phase spans no round.
    let events = sink.recorder().unwrap().events();
    let traced: Vec<Phase> = events
        .iter()
        .filter(|e| e.event.name == "phase")
        .map(|e| {
            assert_eq!(
                field(e, "last_round") + 1,
                field(e, "first_round") + field(e, "rounds"),
                "{label}: {e:?}"
            );
            Phase {
                name: e.event.phase,
                first_round: field(e, "first_round"),
                rounds: field(e, "rounds"),
                messages: field(e, "messages"),
            }
        })
        .collect();
    assert_eq!(traced, outcome.phases, "{label}: phase events");
    assert_eq!(
        outcome.selection_rounds(),
        phase(&outcome, "select").rounds,
        "{label}"
    );
    assert_eq!(
        outcome.selection_messages(),
        phase(&outcome, "select").messages,
        "{label}"
    );

    // At quiescence nothing is in flight or delayed, so the fault
    // pipeline's conservation identity closes exactly.
    assert!(
        outcome.metrics.conserves(0, 0),
        "{label}: metrics do not conserve at quiescence: {:?}",
        outcome.metrics
    );
    outcome
}

/// Under `BatcherSort`, agents that never crash send one token per
/// comparator end and one assignment each, whatever the links do to
/// those messages afterwards.
fn assert_batcher_sends(run: &Run, outcome: &ProtocolOutcome, label: &str) {
    if outcome.strategy == SelectionStrategy::BatcherSort {
        let n = run.instance().n();
        let comparators = SortingNetwork::batcher_odd_even(n).comparator_count();
        assert_eq!(
            outcome.selection_messages(),
            2 * comparators as u64,
            "{label}: selection is not the token traffic"
        );
        assert_eq!(phase(outcome, "assign").messages, n as u64, "{label}");
    }
}

fn chaos_faults() -> FaultConfig {
    FaultConfig::new(0.01, 0.05, 0xACC7)
        .unwrap()
        .with_max_delay(2)
}

/// Fault-free: `measure` is exactly the planned broadcast and the links
/// drop, duplicate and delay nothing.
fn check_fault_free(strategy: SelectionStrategy) {
    let run = sample_run(96, 3, 80, 77);
    let label = format!("{strategy}/clean");
    let options = ProtocolOptions {
        strategy,
        ..ProtocolOptions::default()
    };
    let outcome = check_accounting(&run, options, &label);
    assert_eq!(
        phase(&outcome, "measure").messages,
        planned_measurements(&run),
        "{label}"
    );
    assert_batcher_sends(&run, &outcome, &label);
    if strategy != SelectionStrategy::BatcherSort {
        assert!(outcome.probes > 0, "{label}: gossip made no probes");
    }
    let m = outcome.metrics;
    assert_eq!(
        m.messages_dropped + m.messages_duplicated + m.messages_delayed,
        0,
        "{label}"
    );
}

/// Under loss, duplication and delay the phases still count sends, so
/// `measure` stays the planned broadcast.
fn check_under_loss_dup_delay(strategy: SelectionStrategy) {
    let run = sample_run(96, 3, 80, 77);
    let label = format!("{strategy}/faults");
    let options = ProtocolOptions {
        strategy,
        faults: Some(chaos_faults()),
        ..ProtocolOptions::default()
    };
    let outcome = check_accounting(&run, options, &label);
    let m = outcome.metrics;
    assert!(m.messages_dropped > 0, "{label}: no drop drawn");
    assert!(m.messages_duplicated > 0, "{label}: no duplicate drawn");
    assert!(m.messages_delayed > 0, "{label}: no delay drawn");
    // Duplicates and drops happen on the links, after the send.
    assert_eq!(
        phase(&outcome, "measure").messages,
        planned_measurements(&run),
        "{label}"
    );
    assert_batcher_sends(&run, &outcome, &label);
    if strategy != SelectionStrategy::BatcherSort {
        assert!(outcome.probes > 0, "{label}: gossip made no probes");
    }
}

#[test]
fn batcher_accounting_reconciles_fault_free() {
    check_fault_free(SelectionStrategy::BatcherSort);
}

#[test]
fn gossip_accounting_reconciles_fault_free() {
    check_fault_free(SelectionStrategy::gossip());
}

#[test]
fn batcher_accounting_reconciles_under_loss_dup_delay() {
    check_under_loss_dup_delay(SelectionStrategy::BatcherSort);
}

#[test]
fn gossip_accounting_reconciles_under_loss_dup_delay() {
    check_under_loss_dup_delay(SelectionStrategy::gossip());
}

/// Retransmitted measurements belong to `measure`, not to the selection.
#[test]
fn accounting_reconciles_under_reliable_retransmission() {
    let run = sample_run(96, 3, 80, 77);
    let reliable = ReliableConfig::default();
    for strategy in STRATEGIES {
        let label = format!("{strategy}/reliable");
        let options = ProtocolOptions {
            strategy,
            faults: Some(FaultConfig::new(0.05, 0.0, 5).unwrap()),
            reliable: Some(reliable),
            grace: reliable.worst_case_rounds(),
            ..ProtocolOptions::default()
        };
        let outcome = check_accounting(&run, options, &label);
        let retransmitted = outcome.metrics.messages_retransmitted;
        assert!(retransmitted > 0, "{label}: nothing was retransmitted");
        assert_eq!(
            phase(&outcome, "measure").messages,
            planned_measurements(&run) + retransmitted,
            "{label}"
        );
        assert_batcher_sends(&run, &outcome, &label);
    }
}

/// Measurements that crashed query nodes never sent count nowhere. When
/// every node is down from round 0 the run ends after that one round,
/// and the table still spans exactly it.
#[test]
fn accounting_reconciles_under_round_zero_crashes() {
    let run = sample_run(96, 3, 80, 77);
    for frac in [0.2, 1.0] {
        let plan = NodeFaultPlan::new(9).with_crashes(frac, (0, 0)).unwrap();
        for strategy in STRATEGIES {
            let label = format!("{strategy}/crashes={frac}");
            let options = ProtocolOptions {
                strategy,
                node_faults: Some(plan),
                ..ProtocolOptions::default()
            };
            let outcome = check_accounting(&run, options, &label);
            assert!(outcome.metrics.node_crashes > 0, "{label}: nothing crashed");
            assert!(
                phase(&outcome, "measure").messages < planned_measurements(&run),
                "{label}: no query node crashed before its broadcast"
            );
        }
    }
}

/// A Batcher agent that crashes after sending its assignment and rejoins
/// passive still counts that assignment under `assign`, not `select`.
#[test]
fn restart_after_assignment_stays_in_assign() {
    let run = sample_run(32, 2, 60, 31);
    let depth = SortingNetwork::batcher_odd_even(32).depth() as u64;
    // Assignments leave in round `depth + 1`. Crash a third of the nodes
    // in the next round and restart them one round later, while delayed
    // deliveries keep the run going.
    let plan = NodeFaultPlan::new(0)
        .with_crashes(0.3, (depth + 2, depth + 2))
        .unwrap()
        .with_restarts(1);
    let options = ProtocolOptions {
        faults: Some(FaultConfig::new(0.0, 0.0, 0).unwrap().with_max_delay(4)),
        node_faults: Some(plan),
        ..ProtocolOptions::default()
    };
    let outcome = check_accounting(&run, options, "batcher/restart");
    assert!(outcome.restarted_agents > 0, "no agent restarted");
    assert_batcher_sends(&run, &outcome, "batcher/restart");
}

/// With `k = n` the gossip selection decides in the score round, so the
/// selection spans no round and sends nothing.
#[test]
fn empty_selection_spans_zero_rounds() {
    let run = sample_run(8, 8, 6, 1);
    let options = ProtocolOptions {
        strategy: SelectionStrategy::gossip(),
        ..ProtocolOptions::default()
    };
    let outcome = check_accounting(&run, options, "gossip/k=n");
    assert_eq!(outcome.selection_rounds(), 0);
    assert_eq!(outcome.selection_messages(), 0);
    assert!(outcome.estimate.bits().iter().all(|&one| one));
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
