//! The traced run: per-layer metrics.
//!
//! Two sources feed it. Traced operations attach a wall-clocked telemetry
//! sink to the protocol; wall time per protocol phase comes from joining
//! the engine's per-round `round` begin/end events against the protocol's
//! `phase` events (`first_round`, `last_round`, `messages`). Standalone
//! calls into each layer on the workload's instance are timed with the
//! benchmark's own spans.

use crate::workload::Bench;
use crate::{median_us, Checks, Metric, Summary, Tracer, Value};
use npd_amp::iteration::run_amp_with;
use npd_amp::{preprocess, AmpConfig, AmpWorkspace, BayesBernoulli};
use npd_core::distributed::ProtocolOutcome;
use npd_core::{Estimate, GreedyDecoder, GroundTruth, PoolingGraph};
use npd_experiments::trace::WallClock;
use npd_netsim::gossip;
use npd_sortnet::SortingNetwork;
use npd_telemetry::{EventKind, FieldValue, RecordedEvent, TelemetrySink};
use rand::rngs::StdRng;
use rand::SeedableRng;

/// Standalone layer calls repeat at least this many times...
const LAYER_MIN_REPS: usize = 3;
/// ...and for at least this long, up to a cap.
const LAYER_MIN_US: u64 = 500_000;
const LAYER_MAX_REPS: usize = 200;
/// Traced and untraced operations alternate; at least this many of each.
const MIN_PAIRS: usize = 2;

/// The protocol phases in round order, with their metric names.
const PHASES: [(&str, &str); 4] = [
    ("measure", "phase.measure_s"),
    ("accumulate", "phase.accumulate_s"),
    ("select", "phase.select_s"),
    ("assign", "phase.assign_s"),
];

/// One protocol phase of a traced operation.
struct Phase {
    name: &'static str,
    first: u64,
    last: u64,
    rounds: u64,
    messages: u64,
    /// Wall time of the engine rounds inside the phase's round range.
    busy_us: u64,
}

/// One traced operation: its time, its sink and what it returned.
struct TracedOp {
    us: u64,
    sink: TelemetrySink,
    outcome: ProtocolOutcome,
}

fn field(e: &RecordedEvent, name: &str) -> u64 {
    e.event
        .fields
        .iter()
        .find_map(|(f, v)| match v {
            FieldValue::U64(u) if *f == name => Some(*u),
            _ => None,
        })
        .unwrap_or(0)
}

/// Joins the engine's round spans against the protocol's phase events.
/// Returns the phases and the wall time of every round, in round order.
fn join(events: &[RecordedEvent]) -> (Vec<Phase>, Vec<u64>) {
    let mut phases: Vec<Phase> = events
        .iter()
        .filter(|e| e.event.name == "phase")
        .filter_map(|e| {
            let (name, _) = PHASES.into_iter().find(|(p, _)| *p == e.event.phase)?;
            Some(Phase {
                name,
                first: field(e, "first_round"),
                last: field(e, "last_round"),
                rounds: field(e, "rounds"),
                messages: field(e, "messages"),
                busy_us: 0,
            })
        })
        .collect();
    let mut round_us = Vec::new();
    let mut open = None;
    for e in events.iter().filter(|e| e.event.name == "round") {
        match (e.event.kind, open) {
            (EventKind::Begin, _) => open = Some((e.event.round, e.wall_micros)),
            (EventKind::End, Some((round, begin))) if round == e.event.round => {
                let us = e.wall_micros.saturating_sub(begin);
                round_us.push(us);
                if let Some(p) = phases
                    .iter_mut()
                    .find(|p| p.first <= round && round <= p.last)
                {
                    p.busy_us += us;
                }
                open = None;
            }
            _ => {}
        }
    }
    (phases, round_us)
}

/// Repeats a standalone layer call inside spans named `name`; returns the
/// last result, the median call time (µs) and the number of calls.
fn repeat<R>(tracer: &mut Tracer, name: &'static str, mut f: impl FnMut() -> R) -> (R, f64, usize) {
    let started = tracer.now();
    let mut times = Vec::new();
    loop {
        let (out, us) = tracer.time(name, None, &mut f);
        times.push(us);
        let enough = times.len() >= LAYER_MIN_REPS && tracer.now() - started >= LAYER_MIN_US;
        if enough || times.len() >= LAYER_MAX_REPS {
            return (out, median_us(&times), times.len());
        }
    }
}

/// `core::design`: the sampling split, replaying the base instance's RNG
/// stream (truth, then design, then measurement).
fn design_rows(bench: &Bench, tracer: &mut Tracer, checks: &mut Checks) -> Vec<Metric> {
    let run = &bench.run;
    let inst = run.instance();
    let (n, k, m, gamma) = (inst.n(), inst.k(), inst.m(), inst.gamma());
    let started = tracer.now();
    let (mut design_us, mut measure_us) = (Vec::new(), Vec::new());
    while design_us.len() < LAYER_MAX_REPS
        && (design_us.len() < LAYER_MIN_REPS || tracer.now() - started < LAYER_MIN_US)
    {
        let parent = tracer.begin("setup.split", None);
        let mut rng = StdRng::seed_from_u64(bench.workload.shape().base_seed);
        let (truth, _) = tracer.time("setup.truth", Some(parent), || {
            GroundTruth::sample(n, k, &mut rng)
        });
        let (graph, d_us) = tracer.time("setup.design", Some(parent), || {
            PoolingGraph::sample(n, m, gamma, &mut rng)
        });
        let (results, m_us) = tracer.time("setup.measure", Some(parent), || {
            graph.measure(&truth, inst.noise(), &mut rng)
        });
        tracer.end(parent);
        design_us.push(d_us);
        measure_us.push(m_us);
        // Relabeling keeps every query's results, so they pin the replay.
        checks.verify(
            results == run.results(),
            "the sampling split does not reproduce the instance",
        );
    }
    let calls = format!("median of {} calls", design_us.len());
    vec![
        Metric::secs("setup.design_s", median_us(&design_us), calls.clone()),
        Metric::secs("setup.measure_s", median_us(&measure_us), calls),
    ]
}

/// Alternates untraced operations with traced ones, so both see the same
/// machine state. Returns the untraced times and the traced operations.
fn op_pairs(
    bench: &Bench,
    tracer: &mut Tracer,
    seconds: u64,
    checks: &mut Checks,
) -> Result<(Vec<u64>, Vec<TracedOp>), String> {
    let deadline = tracer.now() + seconds * 1_000_000;
    let mut untraced = Vec::new();
    let mut traced = Vec::new();
    while untraced.len() < MIN_PAIRS || tracer.now() < deadline {
        let (raw, us) = tracer.time("op.untraced", None, || bench.op(None));
        untraced.push(us);
        checks.op(bench, raw);
        let sink = TelemetrySink::with_clock(Box::new(WallClock::new()));
        let (raw, us) = tracer.time("op.traced", None, || bench.op(Some(&sink)));
        match raw {
            Ok(outcome) => {
                checks.op(bench, Ok(outcome.clone()));
                traced.push(TracedOp { us, sink, outcome });
            }
            Err(e) => checks.op(bench, Err(e)),
        }
    }
    if traced.is_empty() {
        return Err("no traced operation completed".into());
    }
    Ok((untraced, traced))
}

/// `core::distributed` and `netsim`: the phase join and the counters of
/// one traced operation, plus the phase table for the report.
fn protocol_rows(op: &TracedOp, notes: &mut Vec<String>) -> Vec<Metric> {
    let events = op.sink.recorder().map(|r| r.events()).unwrap_or_default();
    let (phases, round_us) = join(&events);
    let busy: u64 = phases.iter().map(|p| p.busy_us).sum();
    let unattributed = op.us as f64 - busy as f64;
    let mut rows = Vec::new();
    for (phase, metric) in PHASES {
        let us = phases
            .iter()
            .find(|p| p.name == phase)
            .map_or(0, |p| p.busy_us);
        rows.push(Metric::secs(
            metric,
            us as f64,
            "rounds of the median traced op".into(),
        ));
    }
    rows.push(Metric::secs(
        "phase.unattributed_s",
        unattributed,
        "median traced op minus its round spans".into(),
    ));
    let select = phases.iter().find(|p| p.name == "select");
    rows.push(Metric::count(
        "phase.select.rounds",
        select.map_or(0, |p| p.rounds),
        "exact",
    ));
    rows.push(Metric::count(
        "phase.select.messages",
        select.map_or(0, |p| p.messages),
        "exact",
    ));
    if !phases.is_empty() {
        let share = |us: f64| 100.0 * us / op.us as f64;
        notes.push(format!(
            "{:<12} {:>6} {:>6} {:>7} {:>10} {:>10} {:>6}",
            "phase", "first", "last", "rounds", "messages", "seconds", "share"
        ));
        for p in &phases {
            notes.push(format!(
                "{:<12} {:>6} {:>6} {:>7} {:>10} {:>10.6} {:>5.1}%",
                p.name,
                p.first,
                p.last,
                p.rounds,
                p.messages,
                p.busy_us as f64 / 1e6,
                share(p.busy_us as f64)
            ));
        }
        notes.push(format!(
            "{:<12} {:>43.6} {:>5.1}%",
            "unattributed",
            unattributed / 1e6,
            share(unattributed)
        ));
        notes.push(format!("{:<12} {:>43.6}", "traced op", op.us as f64 / 1e6));
    }

    rows.push(Metric::count(
        "protocol.probes",
        u64::from(op.outcome.probes),
        "exact",
    ));
    let rounds = format!("{} rounds of the median traced op", round_us.len());
    rows.push(Metric::secs(
        "netsim.round_p50_s",
        median_us(&round_us),
        format!("median of {rounds}"),
    ));
    rows.push(Metric::secs(
        "netsim.round_max_s",
        round_us.iter().max().copied().unwrap_or(0) as f64,
        format!("max of {rounds}"),
    ));
    let net = op.outcome.metrics;
    rows.push(Metric::count(
        "netsim.messages_delivered",
        net.messages_delivered,
        "exact",
    ));
    rows.push(Metric::count(
        "netsim.peak_in_flight",
        net.peak_in_flight,
        "exact",
    ));
    rows
}

/// Standalone calls into `core::greedy`, `netsim::gossip`, `sortnet` and
/// `amp` on the workload's instance.
fn layer_rows(bench: &Bench, tracer: &mut Tracer, checks: &mut Checks) -> Vec<Metric> {
    let run = &bench.run;
    let (n, k) = (run.instance().n(), run.instance().k());
    let calls = |reps: usize| format!("median of {reps} calls");
    let mut rows = Vec::new();

    let decoder = GreedyDecoder::new();
    let (scores, us, reps) = repeat(tracer, "layer.greedy.scores", || decoder.scores(run));
    checks.verify(
        Estimate::from_scores(scores.clone(), k) == *bench.reference(),
        "greedy scores do not rank to the reference estimate",
    );
    rows.push(Metric::secs("greedy.scores_s", us, calls(reps)));

    // The selection alone, on the run's greedy scores.
    let (report, us, reps) = repeat(tracer, "layer.gossip.select", || {
        gossip::select_top_k(&scores, k)
    });
    checks.verify(
        report.selected == bench.reference().bits(),
        "gossip selection differs from the greedy top-k",
    );
    rows.push(Metric::secs("gossip.select_s", us, calls(reps)));
    rows.push(Metric::count("gossip.rounds", report.rounds, "exact"));
    rows.push(Metric::count("gossip.messages", report.messages, "exact"));
    rows.push(Metric::count(
        "gossip.probes",
        u64::from(report.probes),
        "exact",
    ));

    // The Batcher network the paper's protocol builds for n.
    let (net, us, reps) = repeat(tracer, "layer.sortnet.build", || {
        SortingNetwork::batcher_odd_even(n)
    });
    rows.push(Metric::secs("sortnet.build_s", us, calls(reps)));
    rows.push(Metric::count("sortnet.depth", net.depth() as u64, "exact"));
    rows.push(Metric::count(
        "sortnet.comparators",
        net.comparator_count() as u64,
        "exact",
    ));
    drop(net);

    // Preparation, then the iteration on the prepared problem.
    let (prep, us, reps) = repeat(tracer, "layer.amp.prepare", || preprocess::prepare(run));
    rows.push(Metric::secs("amp.prepare_s", us, calls(reps)));
    let denoiser = BayesBernoulli::new(prep.prior.clamp(1e-9, 1.0 - 1e-9));
    let config = AmpConfig::default();
    let mut ws = AmpWorkspace::new();
    let (out, us, reps) = repeat(tracer, "layer.amp.iterate", || {
        run_amp_with(&prep, &denoiser, &config, &mut ws)
    });
    checks.verify(
        out.estimate.iter().all(|s| s.is_finite()),
        "standalone AMP produced a non-finite score",
    );
    rows.push(Metric::secs("amp.iterate_s", us, calls(reps)));
    rows.push(Metric::count(
        "amp.iterations",
        out.iterations as u64,
        "exact",
    ));
    rows
}

/// The traced run of one workload.
pub fn traced(
    bench: &Bench,
    tracer: &mut Tracer,
    seconds: u64,
    mut checks: Checks,
) -> Result<Summary, String> {
    let mut notes = Vec::new();
    let mut metrics = design_rows(bench, tracer, &mut checks);

    let (untraced, mut traced) = op_pairs(bench, tracer, seconds, &mut checks)?;
    // Every per-phase row comes from the median traced operation, so the
    // rows add up to its time exactly.
    traced.sort_by_key(|op| op.us);
    let op = &traced[(traced.len() - 1) / 2];
    let untraced_us = median_us(&untraced);
    metrics.push(Metric::secs(
        "op.untraced_s",
        untraced_us,
        format!("median of {} ops", untraced.len()),
    ));
    let traced_ops = format!("median of {} traced ops", traced.len());
    metrics.push(Metric::secs(
        "op.traced_s",
        op.us as f64,
        traced_ops.clone(),
    ));
    metrics.extend(protocol_rows(op, &mut notes));
    metrics.extend(layer_rows(bench, tracer, &mut checks));

    // telemetry: what recording costs and how much it records.
    metrics.push(Metric::new(
        "telemetry.trace_overhead",
        Value::Float(op.us as f64 / untraced_us),
        "ratio",
        format!("{traced_ops} / median of {} untraced ops", untraced.len()),
    ));
    let snapshot = op.sink.snapshot();
    metrics.push(Metric::count(
        "telemetry.events",
        snapshot.as_ref().map_or(0, |s| s.events as u64),
        "events recorded by the median traced op",
    ));
    metrics.push(Metric::count(
        "telemetry.hist_samples",
        snapshot.map_or(0, |s| s.histograms.iter().map(|(_, h)| h.count()).sum()),
        "histogram samples recorded by the median traced op",
    ));
    metrics.push(Metric::new(
        "estimate.overlap",
        Value::Float(checks.first().map_or(0.0, |out| bench.overlap(out))),
        "fraction",
        "estimate vs ground truth".into(),
    ));
    Ok(Summary {
        metrics,
        checks,
        notes,
    })
}
