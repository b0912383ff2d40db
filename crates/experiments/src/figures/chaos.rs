//! Agent-level chaos degradation: overlap vs crash / corruption rate.
//!
//! The robustness headline of the chaos fault layer: both phase-II
//! selection strategies *complete* under fail-stop crashes and payload
//! corruption — no hang to the round budget, no panic — and reconstruction
//! quality degrades smoothly with the fault rate instead of collapsing.
//! Two sweeps per strategy:
//!
//! * **crash axis** — a growing fraction of network nodes fail-stop at a
//!   round drawn from the protocol's opening window and never return;
//!   surviving agents finish and the outcome reports the achieved quorum.
//! * **corrupt axis** — a growing fraction of nodes garble every payload
//!   they send; the protocol folds measurements winsorized into their
//!   feasible `[0, slots]` range, bounding each corruptor's leverage.
//!
//! The expected shape (pinned by the `overlap_degrades_monotonically`
//! test): overlap ≈ 1 at rate 0, then a roughly linear decline on the
//! crash axis — a dead agent cannot report its bit, so overlap tracks the
//! one-agent survival rate — and a gentler decline on the corrupt axis.

use super::{FigureReport, RunOptions};
use crate::output::table;
use crate::sweep;
use crate::{mix_seed, runner};
use npd_core::distributed::{self, SelectionStrategy};
use npd_core::{overlap, Instance, NoiseModel, Regime};
use npd_netsim::NodeFaultPlan;
use rand::rngs::StdRng;
use rand::SeedableRng;

/// Crash-fraction grid of the crash axis.
const CRASH_RATES: [f64; 5] = [0.0, 0.05, 0.10, 0.20, 0.30];
/// Corruptor-fraction grid of the corrupt axis (per-message prob 1).
const CORRUPT_RATES: [f64; 4] = [0.0, 0.05, 0.10, 0.20];
/// Crash window: the protocol's opening rounds, so crashes land while the
/// measurement broadcast and score formation are still in flight.
const CRASH_WINDOW: (u64, u64) = (1, 8);

/// Per-trial observation: `(overlap, quorum, crashes, corrupted)`.
type TrialStats = (f64, f64, f64, f64);

/// The two fault axes a sweep point can sit on.
#[derive(Clone, Copy, PartialEq)]
enum Axis {
    Crash,
    Corrupt,
}

impl Axis {
    fn label(self) -> &'static str {
        match self {
            Axis::Crash => "crash",
            Axis::Corrupt => "corrupt",
        }
    }

    fn plan(self, rate: f64, seed: u64) -> NodeFaultPlan {
        let plan = NodeFaultPlan::new(seed);
        match self {
            Axis::Crash => plan
                .with_crashes(rate, CRASH_WINDOW)
                .expect("sweep rates are valid probabilities"),
            Axis::Corrupt => plan
                .with_corruption(rate, 1.0)
                .expect("sweep rates are valid probabilities"),
        }
    }
}

/// Runs the chaos degradation sweep.
pub fn run(opts: &RunOptions) -> FigureReport {
    // θ = 0.5 (k = √n) rather than the figure-wide 0.25: overlap is
    // quantized in steps of 1/k, and a larger k resolves the degradation
    // curve instead of snapping it to quarters.
    let theta = 0.5;
    let n = match opts.mode {
        crate::Mode::Quick => 128,
        crate::Mode::Full => 1024,
    };
    let noise = NoiseModel::z_channel(0.1);
    // Half the default (4× Theorem-1) budget: generous enough that the
    // fault-free baseline recovers exactly, so every drop below 1.0 is
    // attributable to the injected faults.
    let m = (sweep::default_budget(n, theta, &noise) / 2).max(400);
    let trials = opts.resolve_trials(3, 10);
    let instance = Instance::builder(n)
        .regime(Regime::sublinear(theta))
        .queries(m)
        .query_size(n / 2)
        .noise(noise)
        .build()
        .expect("chaos sweep configuration is valid");

    let strategies = [
        ("batcher", SelectionStrategy::BatcherSort),
        ("gossip", SelectionStrategy::gossip()),
    ];
    let mut rows = Vec::new();
    let mut csv_rows = Vec::new();
    for (strategy_name, strategy) in strategies {
        for (axis, rates) in [
            (Axis::Crash, &CRASH_RATES[..]),
            (Axis::Corrupt, &CORRUPT_RATES[..]),
        ] {
            for (ri, &rate) in rates.iter().enumerate() {
                let salt = (u64::from(axis == Axis::Corrupt) << 32)
                    | (u64::from(strategy_name == "gossip") << 16)
                    | ri as u64;
                let seeds: Vec<u64> = (0..trials as u64)
                    .map(|t| mix_seed(0xC4A0_5000 ^ salt, (n as u64) << 8 | t))
                    .collect();
                let per_trial = runner::parallel_map(&seeds, opts.threads, |&seed| {
                    let run = instance.sample(&mut StdRng::seed_from_u64(seed));
                    let options = distributed::ProtocolOptions {
                        strategy,
                        node_faults: Some(axis.plan(rate, seed ^ 0x5EED)),
                        winsorize: axis == Axis::Corrupt,
                        ..distributed::ProtocolOptions::default()
                    };
                    let outcome = distributed::run_protocol_chaos(&run, options)
                        .expect("chaos protocol completes within its budget");
                    (
                        overlap(&outcome.estimate, run.ground_truth()),
                        outcome.achieved_quorum() as f64,
                        outcome.metrics.node_crashes as f64,
                        outcome.metrics.messages_corrupted as f64,
                    )
                });
                let mean = |f: &dyn Fn(&TrialStats) -> f64| -> f64 {
                    per_trial.iter().map(f).sum::<f64>() / trials as f64
                };
                let ov = mean(&|t| t.0);
                let quorum = mean(&|t| t.1);
                let crashes = mean(&|t| t.2);
                let corrupted = mean(&|t| t.3);
                rows.push(vec![
                    strategy_name.to_string(),
                    axis.label().to_string(),
                    format!("{rate:.2}"),
                    format!("{quorum:.0}"),
                    format!("{ov:.3}"),
                ]);
                csv_rows.push(vec![
                    n.to_string(),
                    instance.k().to_string(),
                    m.to_string(),
                    strategy_name.to_string(),
                    axis.label().to_string(),
                    format!("{rate:.2}"),
                    format!("{quorum:.1}"),
                    format!("{crashes:.1}"),
                    format!("{corrupted:.1}"),
                    format!("{ov:.4}"),
                    trials.to_string(),
                ]);
            }
        }
    }

    let rendered = format!(
        "Agent-level chaos — overlap degradation vs fault rate \
         (n = {n}, k = {}, m = {m}, {trials} trials)\n{}",
        instance.k(),
        table(&["strategy", "axis", "rate", "quorum", "overlap"], &rows)
    );
    let notes = vec![
        format!(
            "both strategies complete at every sweep point — crashes shrink the \
             quorum ({}-node network) instead of hanging the run",
            n + m
        ),
        "crash-axis overlap tracks the one-agent survival rate (a dead agent \
         cannot report its bit); the corrupt axis degrades more gently because \
         winsorized folds cap each garbled measurement at its feasible range"
            .to_string(),
    ];
    FigureReport {
        name: "chaos".into(),
        rendered,
        csv_headers: vec![
            "n".into(),
            "k".into(),
            "m".into(),
            "strategy".into(),
            "axis".into(),
            "fault_rate".into(),
            "achieved_quorum".into(),
            "node_crashes".into(),
            "messages_corrupted".into(),
            "mean_overlap".into(),
            "trials".into(),
        ],
        csv_rows,
        notes,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Pins the machine-readable shape behind `repro chaos --json`: the
    /// bench/CI pipeline greps these columns by name, so renames or
    /// reorderings must show up here, not downstream.
    #[test]
    fn json_export_pins_the_figure_schema() {
        let opts = RunOptions {
            mode: crate::Mode::Quick,
            trials: Some(1),
            threads: 2,
        };
        let report = run(&opts);
        assert_eq!(report.name, "chaos");
        let json = report.to_json();
        assert!(
            json.starts_with(
                "{\"name\":\"chaos\",\"headers\":[\"n\",\"k\",\"m\",\"strategy\",\
                 \"axis\",\"fault_rate\",\"achieved_quorum\",\"node_crashes\",\
                 \"messages_corrupted\",\"mean_overlap\",\"trials\"],\"rows\":["
            ),
            "schema drifted:\n{}",
            &json[..json.len().min(300)]
        );
        // One row per (strategy × axis × rate) sweep point, every cell a
        // string, every row as wide as the header.
        assert_eq!(
            report.csv_rows.len(),
            2 * (CRASH_RATES.len() + CORRUPT_RATES.len())
        );
        for row in &report.csv_rows {
            assert_eq!(row.len(), report.csv_headers.len());
        }
        // Both axes and strategies appear in the JSON body.
        for needle in ["\"batcher\"", "\"gossip\"", "\"crash\"", "\"corrupt\""] {
            assert!(json.contains(needle), "{needle} missing from {json}");
        }
        assert!(json.ends_with("}"));
    }

    /// The acceptance pin for the chaos layer: degradation is smooth and
    /// monotone-ish — overlap starts at (near) perfect recovery, never
    /// *jumps up* along a fault axis, and ends strictly degraded on the
    /// crash axis.
    #[test]
    fn overlap_degrades_monotonically() {
        let opts = RunOptions {
            mode: crate::Mode::Quick,
            trials: Some(2),
            threads: 2,
        };
        let report = run(&opts);
        let col = |name: &str| -> usize {
            report
                .csv_headers
                .iter()
                .position(|h| h == name)
                .unwrap_or_else(|| panic!("missing column {name}"))
        };
        let (strat, axis, rate, quorum, ov) = (
            col("strategy"),
            col("axis"),
            col("fault_rate"),
            col("achieved_quorum"),
            col("mean_overlap"),
        );
        assert_eq!(
            report.csv_rows.len(),
            2 * (CRASH_RATES.len() + CORRUPT_RATES.len())
        );
        for strategy in ["batcher", "gossip"] {
            for axis_name in ["crash", "corrupt"] {
                let curve: Vec<(f64, f64, f64)> = report
                    .csv_rows
                    .iter()
                    .filter(|r| r[strat] == strategy && r[axis] == axis_name)
                    .map(|r| {
                        (
                            r[rate].parse().unwrap(),
                            r[quorum].parse().unwrap(),
                            r[ov].parse().unwrap(),
                        )
                    })
                    .collect();
                // Rate 0 is the working baseline: full quorum, exact
                // recovery.
                let (r0, q0, ov0) = curve[0];
                assert_eq!(r0, 0.0);
                assert_eq!(q0, 128.0, "{strategy}/{axis_name}: baseline quorum");
                assert!(
                    ov0 >= 0.99,
                    "{strategy}/{axis_name}: baseline overlap {ov0}"
                );
                // Monotone-ish: no step along the axis may *improve*
                // overlap beyond trial noise.
                for w in curve.windows(2) {
                    assert!(
                        w[1].2 <= w[0].2 + 0.12,
                        "{strategy}/{axis_name}: overlap jumped {} -> {} at rate {}",
                        w[0].2,
                        w[1].2,
                        w[1].0
                    );
                }
                if axis_name == "crash" {
                    let last = curve.last().unwrap();
                    assert!(
                        last.2 < ov0 - 0.1,
                        "{strategy}: 30% crashes should visibly degrade overlap \
                         (got {} vs baseline {ov0})",
                        last.2
                    );
                    assert!(last.1 < q0, "{strategy}: crashes must shrink the quorum");
                }
            }
        }
    }
}
